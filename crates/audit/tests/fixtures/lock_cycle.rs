//! Deliberately-bad fixture: `forward` takes alpha → beta while `backward`
//! takes beta and then calls into a helper that takes alpha — a cycle in the
//! lock-order graph that can deadlock under contention.

use std::sync::Mutex;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    fn forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap();
        let b = self.beta.lock().unwrap();
        *a + *b
    }

    fn backward(&self) -> u32 {
        let b = self.beta.lock().unwrap();
        *b + self.alpha_total()
    }

    fn alpha_total(&self) -> u32 {
        let a = self.alpha.lock().unwrap();
        *a
    }
}

//! Clean counterpart to lock_cycle.rs: both paths acquire alpha before
//! beta, so the lock-order graph is acyclic.

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
        let a = self.alpha.lock().unwrap();
        let b = self.beta.lock().unwrap();
        *b - *a
    }
}

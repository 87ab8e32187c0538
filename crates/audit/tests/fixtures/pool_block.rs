//! Deliberately-bad fixture: the `parallel_for` job body calls a helper
//! that parks on `Receiver::recv`, tying up a pool worker indefinitely.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::Receiver;

pub struct Pool;

impl Pool {
    fn parallel_for(&self, n: usize, _threads: usize, f: impl Fn(usize)) {
        for i in 0..n {
            f(i);
        }
    }
}

fn drain_all(rx: &Receiver<u32>) -> u32 {
    let mut total = 0;
    while let Ok(v) = rx.recv() {
        total += v;
    }
    total
}

fn fan_out(pool: &Pool, rx: &Receiver<u32>, n: usize) -> u32 {
    let total = AtomicU32::new(0);
    pool.parallel_for(n, 4, |_i| {
        let got = drain_all(rx);
        total.fetch_add(got, Ordering::Relaxed);
    });
    total.into_inner()
}

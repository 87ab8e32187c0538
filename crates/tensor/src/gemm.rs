//! Cache-blocked, panel-packed, multi-threaded GEMM kernel.
//!
//! Every hot path in the workspace — PSN training, im2col convolution,
//! and the serving layer's batched forward pass — bottoms out in dense
//! matrix products.  This
//! module replaces the textbook `i-k-j` loop (kept as
//! [`crate::Matrix::matmul_naive`] for reference and testing) with the
//! standard high-performance decomposition:
//!
//! * **Blocking** — the iteration space is tiled `NC × KC × MC` so the
//!   packed `KC×NC` panel of `B` stays in L2/L3 and each `MC×KC` block of
//!   `A` stays in L2 while it is reused across the whole `B` panel.
//! * **B is packed once, A is read in place** — `B` blocks are repacked
//!   into `NR`-column panels, so the microkernel streams them contiguously
//!   whatever the caller's layout (this is also what makes `C += A·Bᵀ`
//!   free: only the pack changes).  `A` is never copied: each tile reads
//!   its `MR` rows where they lie, `kc` values each, and at the bottom edge
//!   repeats the last valid row, whose extra products are never stored.
//! * **Microkernel** — a fixed `MR×NR` register tile accumulated over the
//!   `KC` dimension with no bounds checks in the hot loop, selected
//!   at runtime ([`kernel_kind`]).  The portable `4×8` body is plain scalar
//!   Rust written to autovectorize; on x86-64 the same body is also
//!   compiled under `#[target_feature(enable = "avx2,fma")]` as a `4×16`
//!   tile, and AVX-512 hosts run `8×32` and `4×32` tiles written with
//!   intrinsics (the shared body spills a 512-bit tile).  Every tile gives
//!   each element of `C` the same FMA chain in the same order, so the FMA
//!   arms are bitwise identical to each other.
//! * **Row-band parallelism** — bands of `MC` rows of `C` are distributed
//!   over the shared workspace [`crate::pool`].  Bands write disjoint rows,
//!   so results are bitwise identical for every thread count.
//!
//! Entry points take raw row-major slices; [`crate::Matrix`] wraps them.

use crate::pool;

// ---------------------------------------------------------------------------
// Blocking parameters
// ---------------------------------------------------------------------------

/// Rows of `C` per parallel band; the band's `MC×KC` block of `A` is read
/// in place and stays L2-resident (`MC·KC·4 B = 128 KiB`).
pub const MC: usize = 128;
/// Depth of the packed `B` blocks and of the `A` rows a tile reads (the
/// microkernel's accumulation length; `KC·NR·4 B` panels stay
/// L1-resident).
pub const KC: usize = 256;
/// Columns of the packed `B` panel (`KC·NC·4 B = 2 MiB`, L3-sized).
pub const NC: usize = 2048;

/// Microkernel tile for the portable autovectorized path: `4×8` keeps the
/// accumulator tile plus one `B` row and an `A` broadcast inside the 16
/// baseline SSE2 registers.
const MR_GEN: usize = 4;
const NR_GEN: usize = 8;

/// Microkernel tile for the AVX2+FMA path: `4×16` is eight 256-bit
/// accumulators (two per row), enough independent FMA chains to hide
/// latency while leaving registers for the `B` loads and `A` broadcast.
#[cfg(target_arch = "x86_64")]
const MR_AVX: usize = 4;
#[cfg(target_arch = "x86_64")]
const NR_AVX: usize = 16;

/// Microkernel tiles for the AVX-512 path, both `NR_512 = 32` wide so one
/// [`PackedB`] layout serves both.  `8×32` is sixteen zmm accumulators;
/// products of at most `MR_512_SHORT` rows (small serve batches) take the
/// `4×32` tile instead, which would otherwise spend half its FMAs on
/// repeated edge rows.
#[cfg(target_arch = "x86_64")]
const MR_512: usize = 8;
#[cfg(target_arch = "x86_64")]
const MR_512_SHORT: usize = 4;
#[cfg(target_arch = "x86_64")]
const NR_512: usize = 32;

/// Products with `m·n·k` at or below this run the simple unblocked kernel:
/// packing `B` costs `k·n` and dominates tiny products.
const SMALL_GEMM: usize = 32 * 32 * 32;

/// `rows·cols` below which GEMV stays on the calling thread.
const SMALL_GEMV: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Microkernel
// ---------------------------------------------------------------------------

/// `MR` rows of `A`, `kc` values each, read in place by one tile.
type ARows<'a, const MR: usize> = [&'a [f32]; MR];

/// A microkernel: `acc += A rows · B panel` over one depth-`kc` block.
type Microkernel<const MR: usize, const NR: usize> =
    unsafe fn(&ARows<'_, MR>, &[f32], &mut [[f32; NR]; MR]);

/// Re-slices each row to exactly `kc` values, so that indexing a row by a
/// depth `p < kc` carries no bounds check in the hot loop.
#[inline(always)]
fn rows_to_depth<'a, const MR: usize>(a: &ARows<'a, MR>, kc: usize) -> ARows<'a, MR> {
    debug_assert!(a.iter().all(|r| r.len() == kc), "A rows are not kc long");
    std::array::from_fn(|i| &a[i][..kc])
}

/// The shared microkernel body: `acc[MR][NR] += A · Bp` over one depth
/// block.  `a` is `MR` rows of `kc` values, `bp` is `kc` rows of `NR`
/// values, an exact-size panel, so the loop carries no bounds checks after
/// the `chunks_exact` split.  `FMA` selects fused `mul_add` (only
/// profitable when the target actually has the instruction — on soft-fma
/// targets it would fall back to a library call).
#[inline(always)]
fn microkernel_body<const MR: usize, const NR: usize, const FMA: bool>(
    a: &ARows<'_, MR>,
    bp: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    let kc = bp.len() / NR;
    let a = rows_to_depth(a, kc);
    for (p, b) in (0..kc).zip(bp.chunks_exact(NR)) {
        let b: &[f32; NR] = b.try_into().expect("packed B panel row");
        for i in 0..MR {
            let ai = a[i][p];
            for j in 0..NR {
                acc[i][j] = if FMA {
                    ai.mul_add(b[j], acc[i][j])
                } else {
                    acc[i][j] + ai * b[j]
                };
            }
        }
    }
}

/// Portable microkernel: relies on LLVM autovectorizing the fully unrolled
/// `MR×NR` tile (SSE2 on baseline x86-64, NEON on aarch64).
fn microkernel_generic(a: &ARows<'_, MR_GEN>, bp: &[f32], acc: &mut [[f32; NR_GEN]; MR_GEN]) {
    microkernel_body::<MR_GEN, NR_GEN, false>(a, bp, acc);
}

/// AVX2+FMA instantiation of the same body.
///
/// # Safety
/// Callers must have verified `avx2` and `fma` CPU support (see
/// [`kernel_kind`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(a: &ARows<'_, MR_AVX>, bp: &[f32], acc: &mut [[f32; NR_AVX]; MR_AVX]) {
    microkernel_body::<MR_AVX, NR_AVX, true>(a, bp, acc);
}

/// AVX-512 microkernel: an `MR×32` tile held in `2·MR` zmm accumulators,
/// seeded from `acc` and stored back to it.  Each depth step loads the `B`
/// row once (two 16-lane halves) and broadcasts each `A` value into two
/// FMAs.  Written with intrinsics because [`microkernel_body`] instantiated
/// at `8×32` spills its tile to the stack; each lane still runs the body's
/// chain, one `fma(a[i], b[j], acc[i][j])` per depth step in depth order.
///
/// # Safety
/// Callers must have verified `avx512f` and `fma` CPU support
/// ([`crate::simd::Level::Avx512`], see [`kernel_kind`]), and `bp` must
/// be a whole packed panel of exactly `kc·32` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn microkernel_avx512<const MR: usize>(
    a: &ARows<'_, MR>,
    bp: &[f32],
    acc: &mut [[f32; NR_512]; MR],
) {
    use std::arch::x86_64::{
        __m512, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    let kc = bp.len() / NR_512;
    debug_assert!(bp.len() == kc * NR_512, "panel is not kc*{NR_512}");
    let a = rows_to_depth(a, kc);
    let mut tile = [[_mm512_setzero_ps(); 2]; MR];
    for (t, row) in tile.iter_mut().zip(acc.iter()) {
        // SAFETY: `row` holds 32 floats; the loads read [0, 16) and [16, 32).
        *t = unsafe {
            [
                _mm512_loadu_ps(row.as_ptr()),
                _mm512_loadu_ps(row.as_ptr().add(16)),
            ]
        };
    }
    for (p, b) in (0..kc).zip(bp.chunks_exact(NR_512)) {
        // SAFETY: `chunks_exact` makes `b` one 32-float row of the `B`
        // panel; the loads read [0, 16) and [16, 32).
        let (b0, b1): (__m512, __m512) = unsafe {
            (
                _mm512_loadu_ps(b.as_ptr()),
                _mm512_loadu_ps(b.as_ptr().add(16)),
            )
        };
        for i in 0..MR {
            let ai = _mm512_set1_ps(a[i][p]);
            tile[i][0] = _mm512_fmadd_ps(ai, b0, tile[i][0]);
            tile[i][1] = _mm512_fmadd_ps(ai, b1, tile[i][1]);
        }
    }
    for (t, row) in tile.iter().zip(acc.iter_mut()) {
        // SAFETY: `row` holds 32 floats; the stores write [0, 16) and [16, 32).
        unsafe {
            _mm512_storeu_ps(row.as_mut_ptr(), t[0]);
            _mm512_storeu_ps(row.as_mut_ptr().add(16), t[1]);
        }
    }
}

/// Which instantiation of the kernel this CPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable autovectorized microkernel.
    Generic,
    /// Runtime-detected AVX2+FMA microkernel (x86-64 only).
    Avx2Fma,
    /// Runtime-detected AVX-512 microkernels, `8×32` and `4×32` (x86-64
    /// only).
    Avx512,
}

/// Runtime CPU dispatch via the shared [`crate::simd`] feature cache.
pub fn kernel_kind() -> KernelKind {
    if crate::simd::has_avx512() {
        KernelKind::Avx512
    } else if crate::simd::has_avx2_fma() {
        KernelKind::Avx2Fma
    } else {
        KernelKind::Generic
    }
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// How the `B` operand is laid out in memory.
#[derive(Debug, Clone, Copy)]
enum BLayout {
    /// `B` is `k×n` row-major: element `(p, j)` at `p·n + j`.
    Normal,
    /// The buffer holds `Bᵀ` as `n×k` row-major: element `(p, j)` at
    /// `j·k + p`.  Used by `C += A·Bᵀ` (e.g. batched MLP layers, which
    /// apply `H·Wᵀ` without materialising the transpose).
    Transposed,
}

/// Borrowed `B` operand with logical shape `k×n`.
#[derive(Clone, Copy)]
struct BRef<'a> {
    data: &'a [f32],
    layout: BLayout,
    k: usize,
    n: usize,
}

/// Where [`gemm_blocked`] takes each packed `(jc, pc)` block of `B` from.
#[derive(Clone, Copy)]
enum BSource<'a> {
    /// Packed on the fly from the caller's operand ([`gemm`], [`gemm_transb`]).
    Pack(BRef<'a>),
    /// Sliced out of a [`PackedB`]'s panel buffer, stored in traversal order.
    Packed(&'a [f32]),
}

/// A zeroed `f32` buffer whose usable part starts on a 64-byte boundary.
/// Packed `B` panels live in one: their rows are whole multiples of 64
/// bytes from `NR = 16` up, so every AVX-512 row load stays inside one
/// cache line.  Unaligned, they split a line on every load wherever the
/// allocator put the buffer at 16 mod 64 — as glibc does every large one —
/// which costs the 8×32 tile close to half its speed (DESIGN.md §7).
struct PanelBuf {
    buf: Vec<f32>,
    start: usize,
    len: usize,
}

impl PanelBuf {
    /// `f32`s per 64-byte cache line.
    const LINE: usize = 16;

    fn zeroed(len: usize) -> Self {
        // An empty buffer (the pre-packed path's unused pack buffer, on
        // every served batch) must not allocate.
        if len == 0 {
            return PanelBuf {
                buf: Vec::new(),
                start: 0,
                len: 0,
            };
        }
        let buf = vec![0.0f32; len + Self::LINE - 1];
        // `align_offset` may decline (`usize::MAX`); the panels are then
        // merely unaligned, which costs speed, not correctness.
        let start = match buf.as_ptr().align_offset(64) {
            s if s < Self::LINE => s,
            _ => 0,
        };
        PanelBuf { buf, start, len }
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..self.start + self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..self.start + self.len]
    }
}

/// Packs the `kc×nc` block of `B` at `(pc, jc)` into `NR`-column panels:
/// panel-major, depth-major inside a panel, `NR` contiguous values per
/// depth step, zero-padded to full `NR` at the right edge.
fn pack_b<const NR: usize>(
    b: BRef<'_>,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
    buf: &mut [f32],
) {
    let panels = nc.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jc + jp * NR;
        let width = NR.min(jc + nc - j0);
        let dst = &mut buf[jp * kc * NR..][..kc * NR];
        match b.layout {
            BLayout::Normal => {
                for p in 0..kc {
                    let src = &b.data[(pc + p) * b.n + j0..][..width];
                    let row = &mut dst[p * NR..][..NR];
                    row[..width].copy_from_slice(src);
                    row[width..].fill(0.0);
                }
            }
            BLayout::Transposed => {
                for w in 0..width {
                    let col = &b.data[(j0 + w) * b.k + pc..][..kc];
                    for (p, &v) in col.iter().enumerate() {
                        dst[p * NR + w] = v;
                    }
                }
                for p in 0..kc {
                    dst[p * NR + width..p * NR + NR].fill(0.0);
                }
            }
        }
    }
}

/// Accumulates a microkernel tile into `C` (`ldc`-strided), clipping to the
/// `mr_eff×nr_eff` valid region at the matrix edges.
#[inline(always)]
fn store_tile<const MR: usize, const NR: usize>(
    acc: &[[f32; NR]; MR],
    c: &mut [f32],
    ldc: usize,
    row: usize,
    col: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    if mr_eff == MR && nr_eff == NR {
        for (i, acc_row) in acc.iter().enumerate() {
            let dst = &mut c[(row + i) * ldc + col..][..NR];
            for j in 0..NR {
                dst[j] += acc_row[j];
            }
        }
    } else {
        for (i, acc_row) in acc.iter().take(mr_eff).enumerate() {
            let dst = &mut c[(row + i) * ldc + col..][..nr_eff];
            for (d, &v) in dst.iter_mut().zip(acc_row) {
                *d += v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked driver
// ---------------------------------------------------------------------------

/// `*mut f32` that may cross threads; each row band writes a disjoint row
/// range of `C`, so shared access is race-free.
#[derive(Clone, Copy)]
struct BandPtr(*mut f32);
// SAFETY: BandPtr is only handed to `parallel_for` closures that index
// disjoint row bands of the target buffer, and the caller blocks until every
// band completes, so the pointee outlives all cross-thread use.
unsafe impl Send for BandPtr {}
// SAFETY: concurrent access is to disjoint ranges only (see Send above); no
// two bands ever alias the same elements.
unsafe impl Sync for BandPtr {}

impl BandPtr {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper instead of the bare `*mut f32` field.
    #[inline]
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// One `(jc, pc)` step of [`gemm_blocked`]: row bands of `C` accumulate
/// `A`'s `kc` columns, read in place, against an already-packed `B` block,
/// in parallel.  Allocates nothing.
#[allow(clippy::too_many_arguments)]
fn run_bands<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    a: &[f32],
    k: usize,
    bpacked: &[f32],
    (jc, pc, kc, nc): (usize, usize, usize, usize),
    c_ptr: BandPtr,
    threads: usize,
    mk: Microkernel<MR, NR>,
) {
    let bands = m.div_ceil(MC);
    let b_panels = nc.div_ceil(NR);
    pool::global().parallel_for(bands, threads, move |band| {
        let ic = band * MC;
        let mc = MC.min(m - ic);
        debug_assert!(ic + mc <= m, "band exceeds C's row range");
        // SAFETY: bands index disjoint row ranges of `C` (band i
        // covers rows [i*MC, i*MC+mc)), and the pool blocks the
        // caller until every band finishes, so `c` outlives the
        // borrow and no two bands alias.
        let c_band = unsafe { std::slice::from_raw_parts_mut(c_ptr.get().add(ic * n), mc * n) };
        for jp in 0..b_panels {
            let nr_eff = NR.min(nc - jp * NR);
            let bp = &bpacked[jp * kc * NR..][..kc * NR];
            for i0 in (0..mc).step_by(MR) {
                // Rows past the bottom edge repeat the band's last row:
                // their products are computed, and `store_tile` drops them.
                let rows: ARows<'_, MR> =
                    std::array::from_fn(|r| &a[(ic + (i0 + r).min(mc - 1)) * k + pc..][..kc]);
                let mut acc = [[0.0f32; NR]; MR];
                // SAFETY: `mk` is either the safe generic kernel or
                // an AVX2/AVX-512 one, selected only after runtime
                // feature detection; all require `kc`-long rows and a
                // whole `kc·NR` panel, which the slicing above gives.
                unsafe { mk(&rows, bp, &mut acc) };
                store_tile::<MR, NR>(&acc, c_band, n, i0, jc + jp * NR, MR.min(mc - i0), nr_eff);
            }
        }
    });
}

/// The blocked, packed, row-band-parallel driver, monomorphised per
/// microkernel tile.  Both `B` sources walk the same traversal through
/// [`run_bands`], so [`gemm_prepacked`] is bitwise identical to [`gemm`] /
/// [`gemm_transb`] by construction.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: BSource<'_>,
    c: &mut [f32],
    threads: usize,
    mk: Microkernel<MR, NR>,
) {
    let mut bbuf = PanelBuf::zeroed(match b {
        BSource::Pack(_) => KC.min(k) * NC.min(n.div_ceil(NR) * NR),
        BSource::Packed(_) => 0,
    });
    let c_ptr = BandPtr(c.as_mut_ptr());
    let mut off = 0usize;
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            let block = kc * nc.div_ceil(NR) * NR;
            let bpacked: &[f32] = match b {
                BSource::Pack(bref) => {
                    pack_b::<NR>(bref, pc, jc, kc, nc, &mut bbuf.as_mut_slice()[..block]);
                    &bbuf.as_slice()[..block]
                }
                BSource::Packed(panels) => &panels[off..off + block],
            };
            off += block;
            run_bands::<MR, NR>(m, n, a, k, bpacked, (jc, pc, kc, nc), c_ptr, threads, mk);
            pc += kc;
        }
        jc += nc;
    }
    if let BSource::Packed(panels) = b {
        debug_assert_eq!(off, panels.len(), "packed panel walk out of sync");
    }
}

/// The one place a product picks its microkernel tile, from the host's
/// [`KernelKind`] and, on AVX-512, from `m`.  [`gemm_prepacked`] and the
/// pack-on-the-fly entry points both come through here, so they always
/// take the same tile for the same shape.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled(
    kind: KernelKind,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: BSource<'_>,
    c: &mut [f32],
    threads: usize,
) {
    match kind {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 if m <= MR_512_SHORT => gemm_blocked::<MR_512_SHORT, NR_512>(
            m,
            n,
            k,
            a,
            b,
            c,
            threads,
            microkernel_avx512::<MR_512_SHORT>,
        ),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => {
            gemm_blocked::<MR_512, NR_512>(m, n, k, a, b, c, threads, microkernel_avx512::<MR_512>)
        }
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2Fma => {
            gemm_blocked::<MR_AVX, NR_AVX>(m, n, k, a, b, c, threads, microkernel_avx2)
        }
        _ => gemm_blocked::<MR_GEN, NR_GEN>(
            m,
            n,
            k,
            a,
            b,
            c,
            threads,
            microkernel_generic as Microkernel<MR_GEN, NR_GEN>,
        ),
    }
}

/// Total length of the panel buffer [`PackedB`] stores for a `k×n` operand
/// under an `NR`-column microkernel: the sum of every `(jc, pc)` block's
/// zero-padded panel size, in traversal order.
fn packed_len<const NR: usize>(k: usize, n: usize) -> usize {
    let mut total = 0usize;
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            total += kc * nc.div_ceil(NR) * NR;
            pc += kc;
        }
        jc += nc;
    }
    total
}

/// `B` packed once into microkernel panel layout for repeated products
/// against the same operand — the serving layer's weight matrices, which
/// otherwise re-pack identical panels on every batch.
///
/// The panel buffer fixes the `NR` of the kernel selected at pack time
/// ([`kernel_kind`] is a pure function of the CPU, so pack- and call-time
/// choices agree within a process); the raw operand is retained so products
/// small enough for the unblocked fallback stay bitwise identical to
/// [`gemm`] / [`gemm_transb`].
pub struct PackedB {
    k: usize,
    n: usize,
    kind: KernelKind,
    panels: PanelBuf,
    raw: Vec<f32>,
    layout: BLayout,
}

impl PackedB {
    fn pack_ref(b: BRef<'_>) -> Self {
        let kind = kernel_kind();
        let (k, n) = (b.k, b.n);
        let panels = match kind {
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => Self::pack_panels::<NR_512>(b),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2Fma => Self::pack_panels::<NR_AVX>(b),
            _ => Self::pack_panels::<NR_GEN>(b),
        };
        PackedB {
            k,
            n,
            kind,
            panels,
            raw: b.data.to_vec(),
            layout: b.layout,
        }
    }

    fn pack_panels<const NR: usize>(b: BRef<'_>) -> PanelBuf {
        let (k, n) = (b.k, b.n);
        let mut buf = PanelBuf::zeroed(packed_len::<NR>(k, n));
        let panels = buf.as_mut_slice();
        let mut off = 0usize;
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                let block = kc * nc.div_ceil(NR) * NR;
                pack_b::<NR>(b, pc, jc, kc, nc, &mut panels[off..off + block]);
                off += block;
                pc += kc;
            }
            jc += nc;
        }
        buf
    }

    /// Packs `B` (`k×n` row-major) for [`gemm_prepacked`].
    pub fn pack(b: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "B buffer does not match {k}x{n}");
        Self::pack_ref(BRef {
            data: b,
            layout: BLayout::Normal,
            k,
            n,
        })
    }

    /// Packs from a buffer holding `Bᵀ` as `n×k` row-major — the weight
    /// matrix case (`C += A·Wᵀ`).
    pub fn pack_transb(bt: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(bt.len(), k * n, "Bᵀ buffer does not match {n}x{k}");
        Self::pack_ref(BRef {
            data: bt,
            layout: BLayout::Transposed,
            k,
            n,
        })
    }

    /// Logical `(k, n)` shape of the packed operand.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }
}

/// `C += A·B` against a [`PackedB`], bitwise identical to [`gemm`] /
/// [`gemm_transb`] on the same operands (`A: m×k`, `C: m×n` with `(k, n) =
/// packed.shape()`) for every shape and thread count, but with the `B`
/// packing pass already paid.
pub fn gemm_prepacked(m: usize, a: &[f32], packed: &PackedB, c: &mut [f32], threads: usize) {
    let (k, n) = (packed.k, packed.n);
    assert_eq!(a.len(), m * k, "A buffer does not match {m}x{k}");
    assert_eq!(c.len(), m * n, "C buffer does not match {m}x{n}");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let braw = BRef {
        data: &packed.raw,
        layout: packed.layout,
        k,
        n,
    };
    if m * n * k <= SMALL_GEMM {
        gemm_simple(m, n, k, a, braw, c);
        return;
    }
    let _span = errflow_obs::trace::span("tensor.gemm");
    gemm_tiled(
        packed.kind,
        m,
        n,
        k,
        a,
        BSource::Packed(packed.panels.as_slice()),
        c,
        threads,
    );
}

/// Unblocked fallback for tiny products, where packing overhead dominates.
/// Branch-free `i-k-j` (`Normal`) or row-dot (`Transposed`, where both
/// operand rows are contiguous).
fn gemm_simple(m: usize, n: usize, k: usize, a: &[f32], b: BRef<'_>, c: &mut [f32]) {
    match b.layout {
        BLayout::Normal => {
            for i in 0..m {
                let crow = &mut c[i * n..(i + 1) * n];
                let arow = &a[i * k..(i + 1) * k];
                for (p, &aip) in arow.iter().enumerate() {
                    let brow = &b.data[p * n..(p + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += aip * bv;
                    }
                }
            }
        }
        BLayout::Transposed => {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let crow = &mut c[i * n..(i + 1) * n];
                for (j, cv) in crow.iter_mut().enumerate() {
                    *cv += dot(arow, &b.data[j * k..(j + 1) * k]);
                }
            }
        }
    }
}

fn gemm_dispatch(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: BRef<'_>,
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "A buffer does not match {m}x{k}");
    assert_eq!(b.data.len(), k * n, "B buffer does not match {k}x{n}");
    assert_eq!(c.len(), m * n, "C buffer does not match {m}x{n}");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= SMALL_GEMM {
        gemm_simple(m, n, k, a, b, c);
        return;
    }
    // Only blocked products get a span: small GEMMs return above without
    // touching the tracer, so per-sample matvec chains stay unobserved
    // rather than flooding the ring buffers.
    let _span = errflow_obs::trace::span("tensor.gemm");
    gemm_tiled(kernel_kind(), m, n, k, a, BSource::Pack(b), c, threads);
}

/// A sensible thread budget for a product of `flops = m·n·k` multiply-adds:
/// single-threaded below the parallel threshold, the shared pool clamped
/// to the physical core count above it.  The clamp matters on small
/// machines: the global pool floors its size at 4 threads to keep
/// concurrency paths exercised, but a GEMM that fans out wider than the
/// hardware just pays dispatch and preemption stalls for no extra FLOPs
/// (results are bitwise identical at any thread count, so this is purely
/// a scheduling choice).
///
/// Pure arithmetic on a process constant, so every layer of every forward
/// pass can ask: [`pool::hardware_threads`] is resolved once, and the
/// global pool is sized from the same value floored at 4, so it is never
/// the smaller of the two.
pub fn auto_threads(flops: usize) -> usize {
    if flops < 1 << 18 {
        1
    } else {
        pool::hardware_threads()
    }
}

/// `C += A·B` on row-major slices, using up to `threads` threads
/// (`A: m×k`, `B: k×n`, `C: m×n`).  Deterministic: results are bitwise
/// identical for every `threads` value.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], threads: usize) {
    gemm_dispatch(
        m,
        n,
        k,
        a,
        BRef {
            data: b,
            layout: BLayout::Normal,
            k,
            n,
        },
        c,
        threads,
    );
}

/// `C += A·Bᵀ` where the buffer holds `Bᵀ` as `n×k` row-major
/// (`A: m×k`, `C: m×n`).  Same kernel as [`gemm`]; only the `B` pack
/// indexing differs.
pub fn gemm_transb(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    bt: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    gemm_dispatch(
        m,
        n,
        k,
        a,
        BRef {
            data: bt,
            layout: BLayout::Transposed,
            k,
            n,
        },
        c,
        threads,
    );
}

// ---------------------------------------------------------------------------
// GEMV
// ---------------------------------------------------------------------------

/// Dot product with eight independent accumulator lanes so LLVM can
/// vectorize the reduction (a single running sum is a serial dependency
/// chain the autovectorizer must preserve).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    let mut s = 0.0f32;
    for v in acc {
        s += v;
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

/// `y = A·x` (`A: rows×cols` row-major).  Rows are split into bands over
/// the shared pool when the product is large enough to amortise dispatch.
pub fn gemv(rows: usize, cols: usize, a: &[f32], x: &[f32], y: &mut [f32], threads: usize) {
    assert_eq!(
        a.len(),
        rows * cols,
        "A buffer does not match {rows}x{cols}"
    );
    assert_eq!(x.len(), cols, "x length != cols");
    assert_eq!(y.len(), rows, "y length != rows");
    if rows == 0 {
        return;
    }
    if threads <= 1 || rows * cols < SMALL_GEMV {
        for (r, out) in y.iter_mut().enumerate() {
            *out = dot(&a[r * cols..(r + 1) * cols], x);
        }
        return;
    }
    let band = rows
        .div_ceil(pool::global().max_concurrency().max(1))
        .max(1);
    let bands = rows.div_ceil(band);
    let y_ptr = BandPtr(y.as_mut_ptr());
    pool::global().parallel_for(bands, threads, move |t| {
        let r0 = t * band;
        let r1 = rows.min(r0 + band);
        debug_assert!(r0 <= r1 && r1 <= rows, "band exceeds y's range");
        // SAFETY: bands cover disjoint `y` ranges ([r0, r1) per band) and
        // the pool blocks the caller until all bands finish, so `y` outlives
        // the borrow and no two bands alias.
        let y_band = unsafe { std::slice::from_raw_parts_mut(y_ptr.get().add(r0), r1 - r0) };
        for (i, out) in y_band.iter_mut().enumerate() {
            let r = r0 + i;
            *out = dot(&a[r * cols..(r + 1) * cols], x);
        }
    });
}

/// `y = Aᵀ·x` (`A: rows×cols` row-major, `x` of length `rows`) without
/// materialising the transpose: a branch-free AXPY per row, which streams
/// both `y` and the row contiguously and autovectorizes.
pub fn gemv_t(rows: usize, cols: usize, a: &[f32], x: &[f32], y: &mut [f32]) {
    assert_eq!(
        a.len(),
        rows * cols,
        "A buffer does not match {rows}x{cols}"
    );
    assert_eq!(x.len(), rows, "x length != rows");
    assert_eq!(y.len(), cols, "y length != cols");
    for (r, &xr) in x.iter().enumerate() {
        let row = &a[r * cols..(r + 1) * cols];
        for (out, &w) in y.iter_mut().zip(row) {
            *out += xr * w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn random(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Reference triple loop in f64 for tight parity checks.
    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f64> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p] as f64;
                for j in 0..n {
                    c[i * n + j] += aip * b[p * n + j] as f64;
                }
            }
        }
        c
    }

    fn assert_close(m: usize, n: usize, got: &[f32], want: &[f64]) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-5 * w.abs().max(1.0);
            assert!(
                (g as f64 - w).abs() <= tol,
                "({m}x{n}) element {i}: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn matches_reference_across_shapes() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 5),
            (5, 1, 3),
            (3, 4, 1),
            (17, 19, 23),
            (33, 65, 129),
            (64, 64, 64),
            (100, 1, 50),
            (1, 100, 50),
            (130, 70, 300),
        ] {
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a, &b, &mut c, 4);
            assert_close(m, n, &c, &reference(m, n, k, &a, &b));
        }
    }

    #[test]
    fn degenerate_dimensions_are_noops() {
        for &(m, n, k) in &[(0usize, 5usize, 4usize), (5, 0, 4), (5, 4, 0)] {
            let a = vec![1.0f32; m * k];
            let b = vec![1.0f32; k * n];
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a, &b, &mut c, 4);
            assert!(c.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn accumulates_into_c() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![10.0f32; 4];
        gemm(2, 2, 2, &a, &b, &mut c, 1);
        assert!(c.iter().all(|&v| v == 12.0));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, n, k) = (200, 150, 170);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let mut reference_c = vec![0.0f32; m * n];
        gemm(m, n, k, &a, &b, &mut reference_c, 1);
        for threads in [2usize, 3, 4, 8] {
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a, &b, &mut c, threads);
            assert_eq!(c, reference_c, "threads={threads} changed the result");
        }
    }

    #[test]
    fn transb_matches_normal() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, n, k) in &[(5usize, 9usize, 7usize), (40, 60, 130), (129, 31, 257)] {
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            // bt[j*k + p] = b[p*n + j]
            let mut bt = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut c = vec![0.0f32; m * n];
            gemm_transb(m, n, k, &a, &bt, &mut c, 4);
            assert_close(m, n, &c, &reference(m, n, k, &a, &b));
        }
    }

    #[test]
    fn gemv_matches_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(rows, cols) in &[(1usize, 1usize), (3, 17), (65, 33), (300, 400)] {
            let a = random(rows * cols, &mut rng);
            let x = random(cols, &mut rng);
            let mut y = vec![0.0f32; rows];
            gemv(rows, cols, &a, &x, &mut y, 4);
            for r in 0..rows {
                let want: f64 = (0..cols)
                    .map(|c| a[r * cols + c] as f64 * x[c] as f64)
                    .sum();
                assert!((y[r] as f64 - want).abs() <= 1e-5 * want.abs().max(1.0));
            }
        }
    }

    #[test]
    fn gemv_t_matches_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        let (rows, cols) = (37, 53);
        let a = random(rows * cols, &mut rng);
        let x = random(rows, &mut rng);
        let mut y = vec![0.0f32; cols];
        gemv_t(rows, cols, &a, &x, &mut y);
        for c in 0..cols {
            let want: f64 = (0..rows)
                .map(|r| a[r * cols + c] as f64 * x[r] as f64)
                .sum();
            assert!((y[c] as f64 - want).abs() <= 1e-5 * want.abs().max(1.0));
        }
    }

    #[test]
    fn dot_handles_remainders() {
        for n in [0usize, 1, 7, 8, 9, 31] {
            let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let b = vec![2.0f32; n];
            let want: f32 = (0..n).map(|i| 2.0 * i as f32).sum();
            assert_eq!(dot(&a, &b), want);
        }
    }

    #[test]
    fn kernel_kind_is_stable() {
        assert_eq!(kernel_kind(), kernel_kind());
    }

    /// `gemm_prepacked` must be bitwise identical to the pack-on-the-fly
    /// drivers — including shapes small enough for the unblocked fallback
    /// and shapes spanning multiple `KC`/`NC` blocks — under whatever
    /// kernel the host dispatches to.
    #[test]
    fn prepacked_bitwise_matches_gemm() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, n, k) in &[
            (2usize, 3usize, 4usize), // small-product fallback
            (1, 128, 300),            // m <= 4: the short AVX-512 tile
            (4, 128, 300),
            (5, 128, 300),
            (33, 65, 129),
            (130, 70, 300),
            (64, 2100, 300), // n spans two NC blocks
            (257, 128, 600), // k spans three KC blocks, m spans MC bands
        ] {
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            for threads in [1usize, 4] {
                let mut want = vec![0.0f32; m * n];
                gemm(m, n, k, &a, &b, &mut want, threads);
                let packed = PackedB::pack(&b, k, n);
                let mut got = vec![0.0f32; m * n];
                gemm_prepacked(m, &a, &packed, &mut got, threads);
                assert_eq!(got, want, "({m}x{n}x{k}) threads={threads}");
            }
        }
    }

    #[test]
    fn prepacked_transb_bitwise_matches_gemm_transb() {
        let mut rng = StdRng::seed_from_u64(19);
        for &(m, n, k) in &[
            (2usize, 3usize, 4usize),
            (4, 128, 300),
            (5, 128, 300),
            (40, 60, 130),
            (129, 31, 257),
        ] {
            let a = random(m * k, &mut rng);
            let bt = random(n * k, &mut rng);
            let mut want = vec![0.0f32; m * n];
            gemm_transb(m, n, k, &a, &bt, &mut want, 4);
            let packed = PackedB::pack_transb(&bt, k, n);
            assert_eq!(packed.shape(), (k, n));
            let mut got = vec![0.0f32; m * n];
            gemm_prepacked(m, &a, &packed, &mut got, 4);
            assert_eq!(got, want, "({m}x{n}x{k})");
        }
    }

    /// Both microkernel instantiations must agree with their pack-on-the-fly
    /// counterparts: the generic tile is checked explicitly by packing and
    /// multiplying through the `NR_GEN` monomorphisation, the host's
    /// dispatched tile by the public entry points above.
    #[test]
    fn prepacked_generic_tile_matches_blocked_generic() {
        let mut rng = StdRng::seed_from_u64(23);
        let (m, n, k) = (130, 70, 300);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let bref = BRef {
            data: &b,
            layout: BLayout::Normal,
            k,
            n,
        };
        let mk = microkernel_generic as Microkernel<MR_GEN, NR_GEN>;
        let mut want = vec![0.0f32; m * n];
        gemm_blocked::<MR_GEN, NR_GEN>(m, n, k, &a, BSource::Pack(bref), &mut want, 4, mk);
        let panels = PackedB::pack_panels::<NR_GEN>(bref);
        assert_eq!(panels.as_slice().len(), packed_len::<NR_GEN>(k, n));
        assert_eq!(panels.as_slice().as_ptr().align_offset(64), 0);
        let mut got = vec![0.0f32; m * n];
        gemm_blocked::<MR_GEN, NR_GEN>(
            m,
            n,
            k,
            &a,
            BSource::Packed(panels.as_slice()),
            &mut got,
            4,
            mk,
        );
        assert_eq!(got, want);
    }

    /// `C` from one blocked driver run, both `B` sources: on-the-fly pack
    /// and the [`PackedB`] panels for the same tile width.
    fn blocked_both_sources<const MR: usize, const NR: usize>(
        (m, n, k): (usize, usize, usize),
        a: &[f32],
        b: BRef<'_>,
        threads: usize,
        mk: Microkernel<MR, NR>,
    ) -> [Vec<u32>; 2] {
        let bits = |c: Vec<f32>| c.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        let mut packed_on_the_fly = vec![0.0f32; m * n];
        gemm_blocked::<MR, NR>(
            m,
            n,
            k,
            a,
            BSource::Pack(b),
            &mut packed_on_the_fly,
            threads,
            mk,
        );
        let panels = PackedB::pack_panels::<NR>(b);
        let mut prepacked = vec![0.0f32; m * n];
        gemm_blocked::<MR, NR>(
            m,
            n,
            k,
            a,
            BSource::Packed(panels.as_slice()),
            &mut prepacked,
            threads,
            mk,
        );
        [bits(packed_on_the_fly), bits(prepacked)]
    }

    /// The summation order every arm promises (DESIGN.md §7), spelled out
    /// in scalar code: for each `KC` block, `acc` starts at 0 and takes one
    /// step per depth in order — `fma(a, b, acc)`, or `acc + a·b` for the
    /// portable arm (`fused = false`) — and then `C += acc`.  `b` is `k×n`
    /// row-major.
    fn blocked_fma_order_oracle(
        (m, n, k): (usize, usize, usize),
        a: &[f32],
        b: &[f32],
        fused: bool,
    ) -> Vec<u32> {
        let mut c = vec![0.0f32; m * n];
        let mut acc = vec![0.0f32; n];
        for pc in (0..k).step_by(KC) {
            for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
                acc.fill(0.0);
                // Depth-outer so `b` is read row by row; each element of
                // `acc` still takes its steps in depth order.
                for (&x, brow) in arow[pc..k.min(pc + KC)]
                    .iter()
                    .zip(b[pc * n..].chunks_exact(n))
                {
                    for (s, &y) in acc.iter_mut().zip(brow) {
                        *s = if fused { x.mul_add(y, *s) } else { *s + x * y };
                    }
                }
                for (cv, &s) in crow.iter_mut().zip(&acc) {
                    *cv += s;
                }
            }
        }
        c.into_iter().map(f32::to_bits).collect()
    }

    /// Every tile against the oracle above, bit for bit: the portable 4×8
    /// (mul-then-add) everywhere, the AVX2 4×16 and the AVX-512 8×32 and
    /// 4×32 (fused) where the host has them.  Row counts straddle each tile
    /// height and `MC`, widths `NR` and the `NC` block, depths `KC`; both
    /// `B` layouts, both `B` sources, 1 and 4 threads.  `A` carries a
    /// `-0.0`, and its last row — the one an edge tile repeats into its
    /// missing rows — a `NaN` and an `inf`, which must reach that row of
    /// `C` and no other.
    #[test]
    fn every_tile_matches_the_summation_order_oracle() {
        let (ms, ns, ks): (&[usize], &[usize], &[usize]) = if cfg!(miri) {
            (&[1, 5], &[16, 33], &[1, 257])
        } else {
            (
                &[1, 3, 4, 5, 7, 8, 9, 127, 128, 129, 257],
                &[16, 31, 32, 33, 70, 512, 2100],
                &[1, 255, 256, 257, 600],
            )
        };
        let mut rng = StdRng::seed_from_u64(31);
        for &m in ms {
            for &n in ns {
                for &k in ks {
                    let shape = (m, n, k);
                    let mut a = random(m * k, &mut rng);
                    a[0] = -0.0;
                    let last = &mut a[(m - 1) * k..];
                    last[k / 2] = f32::NAN;
                    last[k - 1] = f32::INFINITY;
                    let b = random(k * n, &mut rng);
                    let mut bt = vec![0.0f32; n * k];
                    for p in 0..k {
                        for j in 0..n {
                            bt[j * k + p] = b[p * n + j];
                        }
                    }
                    let fused = blocked_fma_order_oracle(shape, &a, &b, true);
                    let unfused = blocked_fma_order_oracle(shape, &a, &b, false);
                    for (layout, data) in [(BLayout::Normal, &b), (BLayout::Transposed, &bt)] {
                        let bref = BRef { data, layout, k, n };
                        for threads in [1usize, 4] {
                            let check = |arm: &str, got: [Vec<u32>; 2], want: &[u32]| {
                                for c in &got {
                                    assert!(
                                        c == want,
                                        "{arm} {shape:?} {layout:?} threads={threads}"
                                    );
                                }
                            };
                            let mk = microkernel_generic as Microkernel<MR_GEN, NR_GEN>;
                            check(
                                "4x8",
                                blocked_both_sources(shape, &a, bref, threads, mk),
                                &unfused,
                            );
                            #[cfg(target_arch = "x86_64")]
                            if !cfg!(miri) && crate::simd::has_avx2_fma() {
                                let mk = microkernel_avx2;
                                check(
                                    "4x16",
                                    blocked_both_sources(shape, &a, bref, threads, mk),
                                    &fused,
                                );
                            }
                            #[cfg(target_arch = "x86_64")]
                            if !cfg!(miri) && crate::simd::has_avx512() {
                                let mk = microkernel_avx512::<MR_512>;
                                check(
                                    "8x32",
                                    blocked_both_sources(shape, &a, bref, threads, mk),
                                    &fused,
                                );
                                let mk = microkernel_avx512::<MR_512_SHORT>;
                                check(
                                    "4x32",
                                    blocked_both_sources(shape, &a, bref, threads, mk),
                                    &fused,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The AVX-512 tiles change no rounding: through both `B` sources, both
    /// layouts and 1 or 4 threads, the 8×32 and 4×32 tiles must reproduce
    /// the AVX2 4×16 tile bit for bit, on row counts around both tile
    /// heights and `MC`, widths across one and two `NC` blocks and depths
    /// across one to three `KC` blocks.  `A` carries a `-0.0`.
    #[test]
    fn avx512_tiles_bitwise_match_avx2_tile() {
        if cfg!(miri) || !crate::simd::has_avx512() {
            eprintln!("avx512_tiles_bitwise_match_avx2_tile: skipped, no AVX-512 (or miri)");
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let mut rng = StdRng::seed_from_u64(29);
            for m in [1usize, 3, 4, 5, 8, 9, 128, 257] {
                for n in [16usize, 70, 128, 512, 2100] {
                    for k in [1usize, 256, 300, 600] {
                        let mut a = random(m * k, &mut rng);
                        a[0] = -0.0;
                        let b = random(k * n, &mut rng);
                        for layout in [BLayout::Normal, BLayout::Transposed] {
                            let bref = BRef {
                                data: &b,
                                layout,
                                k,
                                n,
                            };
                            for threads in [1usize, 4] {
                                let shape = (m, n, k);
                                let want = blocked_both_sources::<MR_AVX, NR_AVX>(
                                    shape,
                                    &a,
                                    bref,
                                    threads,
                                    microkernel_avx2,
                                );
                                assert_eq!(want[0], want[1], "{shape:?} avx2 {layout:?}");
                                let tall = blocked_both_sources::<MR_512, NR_512>(
                                    shape,
                                    &a,
                                    bref,
                                    threads,
                                    microkernel_avx512::<MR_512>,
                                );
                                let short = blocked_both_sources::<MR_512_SHORT, NR_512>(
                                    shape,
                                    &a,
                                    bref,
                                    threads,
                                    microkernel_avx512::<MR_512_SHORT>,
                                );
                                for got in tall.iter().chain(&short) {
                                    assert!(
                                        got == &want[0],
                                        "{shape:?} {layout:?} threads={threads}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

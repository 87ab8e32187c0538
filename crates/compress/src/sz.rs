//! SZ-class error-bounded compressor.
//!
//! The SZ family (the paper's references \[6\], \[25\]) compresses scientific
//! floating-point data by (1) *predicting* each value from its neighbours,
//! (2) quantizing onto bins of width `2·eb` so every reconstructed value
//! lands within `eb` of the original, and (3) entropy-coding the bin
//! indices, which cluster tightly around zero for smooth fields.  Values
//! the scheme cannot hold within the budget (outliers) are stored verbatim.
//!
//! ## Quantize first, predict on integers
//!
//! Classic SZ predicts from *reconstructed* values, so predict → scale →
//! round → reconstruct → verify feeds the next prediction and the encoder
//! is one latency-bound chain.  This implementation pre-quantizes instead
//! ("dual quantization", cuSZ, Tian et al., PACT 2020): pass 1 rounds every
//! value to the lattice `2·eb·ℤ` on its own — index `q = lattice_index(x)`,
//! reconstruction `r = (q·2eb) as f32` — and pass 2 predicts on the
//! integers, emitting the order-k difference of the indices as the symbol:
//! `Δ¹ = q_i − q_{i−1}` (the last value), `Δ² = q_i − 2q_{i−1} + q_{i−2}`
//! (the line through the last two) or `Δ³ = q_i − 3q_{i−1} + 3q_{i−2} −
//! q_{i−3}` (the parabola through the last three), each exact on the
//! lattice.  Neither pass carries a floating-point dependence from one
//! value to the next, so both vectorise, and pass 2 gathers the escaped
//! values as each segment's escape count comes in.  One
//! `#[inline(always)]` body is instantiated for baseline SSE2 and for AVX2
//! (no FMA: every operation is a plain IEEE multiply, add, convert or
//! compare, so the arms produce identical bytes).
//!
//! ## One predictor order per segment
//!
//! No order fits every field: smooth fields under loose bounds code best
//! as `Δ¹`, a noise floor under a tight bound as `Δ³` (DESIGN.md §8 has
//! the entropies).  So between the passes the encoder picks each segment's
//! order k ∈ {1, 2, 3} — SZ's per-block predictor selection (the paper's
//! refs \[6\], \[25\]) on the dual-quantized integers: one strided
//! integer pass sums `min(|Δᵏ|, 255)` for k = 1, 2, 3 at every 4th index
//! of the segment and keeps the order with the smallest sum (the lowest on
//! a tie).  The cap is there so that one escaped jump cannot decide a
//! segment: uncapped, a single large difference outweighs the small ones
//! around it.  It hashes nothing and touches no float, so both
//! instantiations choose alike.  Every order is an exact integer map of
//! the same lattice, so the choice moves bytes, never a reconstructed value
//! or the bound.
//!
//! The error-bound contract is *strict* and unchanged: pass 1 verifies each
//! reconstruction in `f32` against the same `eb` — `|x − r| ≤ eb` and `r`
//! finite — and a value that fails (a rounding half-ulp over the budget, a
//! NaN or infinity, or an index past the guard below) escapes to a verbatim
//! outlier.  Only how the accepted reconstruction is chosen differs from
//! the feedback predictor; what is certified about it does not.
//!
//! ## Index arithmetic (one rule for encoder, decoder and oracle)
//!
//! * `lattice_index(x, 1/(2eb))` is `x as f64 · 1/(2eb)` rounded to
//!   nearest, ties to even, when the product's magnitude is below `2^30`
//!   ([`INDEX_GUARD`]); otherwise — larger, infinite or NaN — the index is
//!   `0`.  A value past the guard has `|x| ≥ 2^30·2eb`, so it fails the
//!   verify against `r = 0` and escapes; it still has the index `0` for the
//!   history.
//! * Indices are `i32`, and every sum and difference of indices **wraps**
//!   in `i32`.  Honest streams never wrap in a coded symbol (`|q| ≤ 2^30`,
//!   and a difference outside `±MAX_CODE` escapes); forged symbols may,
//!   and then all three implementations wrap alike.
//! * Symbols are `u16`; a symbol `s ≠ 0` stands for the difference
//!   `s − 32768`, every `s` from 1 to 65 535 alike.  Symbol `0` is the
//!   escape: the value is the next entry of the segment's outlier table,
//!   and its index for the history is recomputed from that `f32` with
//!   `lattice_index`.
//! * History restarts at each segment the way the order-2 predictor always
//!   did, up to the segment's order: nothing, then the last value, then
//!   the line through the last two, then the parabola — `d_0 = q_0`,
//!   `d_1 = Δ¹q_1`, `d_2 = Δ²q_2`, and `Δᵏ` from `d_k` on.  (A plain
//!   order-k difference at `i < k` would reach back past the segment's
//!   start to `≈ −q_0`, an escape per segment, which is 1–2 % of a 1 Ki-value
//!   stream.)
//!
//! ## Stream layout
//!
//! The container ([`crate::format`], tag [`BackendTag::Sz`]) splits the
//! values into [`crate::format::V2_STREAMS`] contiguous segments with
//! per-segment orders and outlier tables, and entropy-codes the symbols
//! with the multi-stream Huffman block ([`crate::huffman::encode_multi`]):
//!
//! ```text
//! [magic u64][tag=Sz u8][n_streams u8]
//! [n varint][eb f64][orders u8 × ⌈n_streams / 4⌉][n_outliers_s varint × n_streams]
//! [multi-stream Huffman block over the per-segment symbols]
//! [outlier f32 tables, one per segment, concatenated]
//! ```
//!
//! Varints are strict LEB128 ([`crate::traits::read_varint`]).  The block
//! holds no count: its segments are [`crate::format::split_even`]`(n,
//! n_streams)`.  Segment `s`'s order is the two bits at `2·(s mod 4)` of
//! order byte `s / 4` — one byte for the tree's four segments.  A field of
//! `0`, or a set bit past the last segment, is a
//! [`CompressError::CorruptStream`].  A 1 Ki-value served payload spends
//! 30 bytes on this framing and the block's, where the fixed-width layout
//! (tag 5) spent 165.
//!
//! Decode is one pass per segment: an integer order-k prefix sum carried as
//! running sums (`ddq += d; dq += ddq; q += dq` at k = 3, the last k of
//! them at lower orders: a one-add chain per value and order, so the
//! segments gain nothing from being interleaved), each index converted
//! `q·2eb → f32` as it is produced and each escape replaced by its
//! verbatim value; the loop is monomorphized per order.
//! [`Compressor::decompress_into`], the one decoder, does it in the
//! caller's slice through the caller's [`CodecScratch`](crate::CodecScratch),
//! once the stream's element count has been checked against the slice's
//! length, fused with the entropy decode: a run-free block's lanes decode
//! 1 Ki symbols each into an L1 buffer and the pass takes them from there
//! ([`huffman::Block::decode_each`]), so no 256 KiB symbol buffer is
//! written or read.  (Splitting the pass into an index sweep, a vectorised
//! conversion sweep and an escape patch, even over those L1 chunks,
//! measured slower than the single loop, DESIGN.md §8.)  Any other bytes —
//! no magic, or a tag other than [`BackendTag::Sz`], the retired
//! order-2-only tag 4 and fixed-width tag 5 among them — are a typed
//! [`CompressError::CorruptStream`].

use crate::error_bound::ErrorBound;
use crate::format::{self, BackendTag, MAX_STREAMS, V2_STREAMS};
use crate::huffman::{self, DecodeScratch};
use crate::scratch::CodecScratch;
use crate::traits::{check_count, check_tolerance, write_varint, CompressError, Compressor};
use errflow_tensor::simd;

/// Second differences live in `[-MAX_CODE, MAX_CODE]`; anything outside
/// becomes an outlier.  65k bins matches SZ's default
/// `quantization_intervals`.
const MAX_CODE: i32 = 32_767;

/// Symbol 0 is the outlier escape; difference `d` maps to `d + MAX_CODE + 1`.
const ESCAPE: u16 = 0;

/// `|x / 2eb|` at or past this has no lattice index (see the module docs).
const INDEX_GUARD: f64 = (1u64 << 30) as f64;

/// `1.5 · 2^52`: adding it to `|v| < 2^51` rounds `v` to nearest-even and
/// leaves the integer, two's complement, in the sum's low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// The lattice index of `x` (module docs, "Index arithmetic").  Branch-free
/// — an add, a bit move and a select — so the quantization pass vectorises.
#[inline(always)]
fn lattice_index(x: f32, inv2eb: f64) -> i32 {
    let v = x as f64 * inv2eb;
    let q = (v + ROUND_MAGIC).to_bits() as u32 as i32;
    if v.abs() < INDEX_GUARD {
        q
    } else {
        0
    }
}

/// The value lattice index `q` stands for.
#[inline(always)]
fn lattice_value(q: i32, step: f64) -> f32 {
    (q as f64 * step) as f32
}

/// Pass 1: every value's lattice index, and whether its reconstruction is
/// within budget (`1`) or it must escape (`0`).  No loop-carried state.
#[inline(always)]
fn quantize(data: &[f32], eb: f64, lattice: &mut [i32], accepted: &mut [u16]) {
    let step = 2.0 * eb;
    let inv2eb = 1.0 / step;
    let eb32 = f32_at_most(eb);
    for ((&x, q), ok) in data.iter().zip(lattice).zip(accepted) {
        *q = lattice_index(x, inv2eb);
        let r = lattice_value(*q, step);
        // Strict check in f32: the cast may add half an ulp, so verify
        // rather than trust the algebra.  `|x − r|` is an `f32`, so it is
        // at most `eb` exactly when it is at most `eb32`.
        *ok = u16::from((x - r).abs() <= eb32 && r.is_finite());
    }
}

/// The largest `f32` that is at most `v` (`+∞` for `+∞`): an `f32` is
/// `≤ v` exactly when it is `≤` this.
fn f32_at_most(v: f64) -> f32 {
    let near = v as f32;
    if f64::from(near) > v {
        // Rounded up; `near` is positive here (`v ≥ 0` rounds to ≥ 0).
        f32::from_bits(near.to_bits() - 1)
    } else {
        near
    }
}

/// The symbol for index difference `d` of a value pass 1 `accepted`: the
/// biased difference when the value was accepted and the difference fits,
/// [`ESCAPE`] otherwise.
#[inline(always)]
fn symbol(d: i32, accepted: u16) -> u16 {
    // |d| ≤ MAX_CODE ⇔ d + MAX_CODE ∈ [0, 2·MAX_CODE], one unsigned compare.
    let biased = d.wrapping_add(MAX_CODE) as u32;
    if accepted != 0 && biased <= 2 * MAX_CODE as u32 {
        biased as u16 + 1
    } else {
        ESCAPE
    }
}

/// What a sampled difference costs the order choice: its magnitude, up to
/// this.  A jump past it — a step the segment escapes at any order — counts
/// no more than a moderate difference, so one does not outweigh the small
/// differences around it, as an uncapped sum of magnitudes lets it.
const ORDER_COST_CAP: u32 = 255;

/// The cost of difference `d` to the order choice.
#[inline(always)]
fn order_cost(d: i32) -> u32 {
    d.unsigned_abs().min(ORDER_COST_CAP)
}

/// The predictor order for one segment's indices: the k ∈ {1, 2, 3} whose
/// differences `Δᵏ` cost least ([`order_cost`]) at every 4th index, the
/// lowest k on a tie (module docs, "One predictor order per segment").
/// The differences wrap in `i32` like every other index difference, so the
/// choice depends on the indices alone.
#[inline(always)]
fn choose_order(lattice: &[i32]) -> u8 {
    let sums = order_costs(lattice);
    let mut best = 0;
    for k in 1..3 {
        if sums[k] < sums[best] {
            best = k;
        }
    }
    best as u8 + 1
}

/// The summed [`order_cost`] of `Δ¹`, `Δ²` and `Δ³` at the last index of
/// each whole window of four in `lattice`.  Plain integer code: it
/// vectorises inside each `encode_passes` instantiation.
#[inline(always)]
fn order_costs(lattice: &[i32]) -> [u64; 3] {
    let mut sums = [0u64; 3];
    for w in lattice.chunks_exact(4) {
        let d1 = w[3].wrapping_sub(w[2]);
        let d1_prev = w[2].wrapping_sub(w[1]);
        let d2 = d1.wrapping_sub(d1_prev);
        let d2_prev = d1_prev.wrapping_sub(w[1].wrapping_sub(w[0]));
        let costs = [d1, d2, d2.wrapping_sub(d2_prev)].map(order_cost);
        for (sum, cost) in sums.iter_mut().zip(costs) {
            *sum += u64::from(cost);
        }
    }
    sums
}

/// Pass 2 over one segment at predictor order `K`: turns `symbols` from
/// pass 1's accept flags into the segment's symbols — the order-`K`
/// difference of the indices (restarted as the module docs describe) where
/// the value was accepted and the difference fits, [`ESCAPE`] otherwise —
/// and returns the number of escapes.  An escaped value's own index stays
/// in the history, which is what the decoder recomputes from the verbatim
/// value.
#[inline(always)]
fn difference<const K: usize>(lattice: &[i32], symbols: &mut [u16]) -> usize {
    debug_assert_eq!(lattice.len(), symbols.len());
    // The header stores a segment's escape count as a `u32`, and a `u32`
    // count keeps the loops below vectorised (a `usize` one does not).
    let mut escapes = 0u32;
    // The first K values of a segment see the restarted history: value i
    // is coded as its own i-th difference.
    for i in 0..lattice.len().min(K) {
        let q = &lattice[..=i];
        let d = match i {
            0 => q[0],
            1 => q[1].wrapping_sub(q[0]),
            _ => q[2]
                .wrapping_sub(q[1])
                .wrapping_sub(q[1])
                .wrapping_add(q[0]),
        };
        symbols[i] = symbol(d, symbols[i]);
        escapes += u32::from(symbols[i] == ESCAPE);
    }
    if lattice.len() <= K {
        return escapes as usize;
    }
    let n = lattice.len() - K;
    // Views of the indices one apart, all `n` long, so the loop vectorises.
    let (rest, q) = (&mut symbols[K..], &lattice[K..]);
    let p1 = &lattice[K - 1..K - 1 + n];
    let p2 = &lattice[K.saturating_sub(2)..K.saturating_sub(2) + n];
    let p3 = &lattice[..n];
    for i in 0..n {
        let d = match K {
            1 => q[i].wrapping_sub(p1[i]),
            2 => q[i]
                .wrapping_sub(p1[i])
                .wrapping_sub(p1[i])
                .wrapping_add(p2[i]),
            // q − 3p₁ + 3p₂ − p₃ as (q − p₃) − 3(p₁ − p₂).
            _ => q[i]
                .wrapping_sub(p3[i])
                .wrapping_sub(p1[i].wrapping_sub(p2[i]).wrapping_mul(3)),
        };
        rest[i] = symbol(d, rest[i]);
        escapes += u32::from(rest[i] == ESCAPE);
    }
    escapes as usize
}

/// What pass 2 reports per segment: the predictor order it chose and how
/// many values escaped.
type SegmentCodes = ([u8; V2_STREAMS], [usize; V2_STREAMS]);

/// Both encoder passes: `lattice` and `symbols` filled for all of `data`,
/// each segment of `parts` given its predictor order, escapes counted per
/// segment, and the escaped values appended to `outliers` segment by
/// segment — the order their tables are written in.
#[inline(always)]
fn encode_passes(
    data: &[f32],
    parts: &[(usize, usize)],
    eb: f64,
    lattice: &mut [i32],
    symbols: &mut [u16],
    outliers: &mut Vec<f32>,
) -> SegmentCodes {
    quantize(data, eb, lattice, symbols);
    let mut orders = [0u8; V2_STREAMS];
    let mut escapes = [0usize; V2_STREAMS];
    for ((order, n), &(off, len)) in orders.iter_mut().zip(&mut escapes).zip(parts) {
        let (values, syms) = (&data[off..off + len], &mut symbols[off..off + len]);
        let lattice = &lattice[off..off + len];
        *order = choose_order(lattice);
        *n = match *order {
            1 => difference::<1>(lattice, syms),
            2 => difference::<2>(lattice, syms),
            _ => difference::<3>(lattice, syms),
        };
        if *n == len {
            // Near-lossless budgets escape every value: a bulk copy.
            outliers.extend_from_slice(values);
        } else if *n > 0 {
            // Escapes are sparse (typically a segment's first value or
            // two): one vectorisable test per 32 symbols, then a look
            // inside the few groups that hold one.
            for (xs, ss) in values.chunks(32).zip(syms.chunks(32)) {
                if ss.iter().fold(false, |any, &s| any | (s == ESCAPE)) {
                    let kept = xs.iter().zip(ss).filter(|&(_, &s)| s == ESCAPE);
                    outliers.extend(kept.map(|(&x, _)| x));
                }
            }
        }
    }
    (orders, escapes)
}

/// AVX2 instantiation of [`encode_passes`].
///
/// # Safety
/// Callers must have verified `avx2` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_passes_avx2(
    data: &[f32],
    parts: &[(usize, usize)],
    eb: f64,
    lattice: &mut [i32],
    symbols: &mut [u16],
    outliers: &mut Vec<f32>,
) -> SegmentCodes {
    encode_passes(data, parts, eb, lattice, symbols, outliers)
}

/// [`encode_passes`] on the widest instantiation the host supports, or on
/// the portable one when `portable` says so.
fn encode_passes_dispatch(
    portable: bool,
    data: &[f32],
    parts: &[(usize, usize)],
    eb: f64,
    lattice: &mut [i32],
    symbols: &mut [u16],
    outliers: &mut Vec<f32>,
) -> SegmentCodes {
    #[cfg(target_arch = "x86_64")]
    if simd::has_avx2() && !portable {
        // SAFETY: `has_avx2()` just confirmed the CPU feature the
        // instantiation was compiled for.
        return unsafe { encode_passes_avx2(data, parts, eb, lattice, symbols, outliers) };
    }
    let _ = portable;
    encode_passes(data, parts, eb, lattice, symbols, outliers)
}

/// One segment's outlier table, read front to back as its escapes come up.
#[derive(Clone, Copy)]
struct Table<'a> {
    bytes: &'a [u8],
    /// Entries read so far.
    read: usize,
    /// An escape found the table already empty.
    short: bool,
}

impl<'a> Table<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Table {
            bytes,
            read: 0,
            short: false,
        }
    }

    /// The next verbatim value.
    fn next(&mut self) -> f32 {
        match self.bytes.get(4 * self.read..4 * self.read + 4) {
            Some(b) => {
                self.read += 1;
                f32::from_le_bytes([b[0], b[1], b[2], b[3]])
            }
            None => {
                self.short = true;
                0.0
            }
        }
    }

    /// The next `out.len()` verbatim values, if the table holds them.
    fn fill(&mut self, out: &mut [f32]) -> bool {
        let Some(bytes) = self.bytes.get(4 * self.read..4 * (self.read + out.len())) else {
            return false;
        };
        format::read_f32_table(bytes, out);
        self.read += out.len();
        true
    }

    /// A segment must consume its table exactly.
    fn finish(&self) -> Result<(), CompressError> {
        if self.short {
            return Err(CompressError::CorruptStream(
                "segment outlier table exhausted".into(),
            ));
        }
        let unread = self.bytes.len() / 4 - self.read;
        if unread != 0 {
            return Err(CompressError::CorruptStream(format!(
                "segment outlier table has {unread} unread values"
            )));
        }
        Ok(())
    }
}

/// A segment's integer history: the last index and its first and second
/// differences (the order-k prefix sum, carried as k running sums; an
/// order below 3 leaves the sums above it unread).
#[derive(Clone, Copy, Default)]
struct History {
    q: i32,
    dq: i32,
    ddq: i32,
}

impl History {
    /// After a segment's `i`-th value (`i < k`): the differences of order
    /// above `i` reach back past the segment's start, so they restart at
    /// zero and the next symbol, a difference of order `i + 1`, lands on
    /// the sum of that order.
    #[inline(always)]
    fn restart_after(&mut self, i: usize) {
        if i == 0 {
            self.dq = 0;
        }
        if i <= 1 {
            self.ddq = 0;
        }
    }
}

/// The value symbol `sym` stands for after `history` at predictor order
/// `K`: the next verbatim value on an escape (its index recomputed for the
/// history), else the lattice point at `q_i` with `Δᴷq_i = d_i`, where
/// `d_i` is `sym − bias` (`bias` is `MAX_CODE + 1`).
#[inline(always)]
fn next_value<const K: usize>(
    sym: u16,
    history: &mut History,
    table: &mut Table<'_>,
    step: f64,
    inv2eb: f64,
    bias: i32,
) -> f32 {
    if sym == ESCAPE {
        let x = table.next();
        let q = lattice_index(x, inv2eb);
        let dq = q.wrapping_sub(history.q);
        *history = History {
            q,
            dq,
            ddq: dq.wrapping_sub(history.dq),
        };
        x
    } else {
        let d = i32::from(sym).wrapping_sub(bias);
        let h = history;
        match K {
            1 => h.q = h.q.wrapping_add(d),
            2 => {
                h.dq = h.dq.wrapping_add(d);
                h.q = h.q.wrapping_add(h.dq);
            }
            _ => {
                h.ddq = h.ddq.wrapping_add(d);
                h.dq = h.dq.wrapping_add(h.ddq);
                h.q = h.q.wrapping_add(h.dq);
            }
        }
        lattice_value(h.q, step)
    }
}

/// The fields of a parsed stream header the reconstruction needs.
struct Header {
    eb: f64,
    /// The segments, from `n` and the sub-stream count.
    parts: format::Parts,
    /// Per-segment predictor orders, each in `1..=3`.
    orders: [u8; MAX_STREAMS],
    /// Per-segment outlier tables' absolute `(start, end)` byte ranges.
    spans: [(usize, usize); MAX_STREAMS],
}

impl Header {
    /// Parses the container header and the symbol block's header, and
    /// checks the framing: the element count must be the caller's
    /// `expected`, every segment's order field must name an order
    /// and the fields past the last segment must be clear, and the declared
    /// outlier tables must exactly fill the rest of the stream.  A mismatch
    /// is a typed [`CompressError::CorruptStream`].
    fn parse<'a>(
        stream: &'a [u8],
        expected: usize,
        huff: &mut DecodeScratch,
    ) -> Result<(Header, huffman::Block<'a>), CompressError> {
        let mut pos = 0usize;
        let n_streams = format::read_preamble(stream, &mut pos, BackendTag::Sz)?;
        let n = crate::traits::read_varint_len(stream, &mut pos, "element count")?;
        check_count(n, expected)?;
        let eb = crate::traits::read_f64(stream, &mut pos, "error bound")?;
        let mut orders = [0u8; MAX_STREAMS];
        for (b, group) in orders[..n_streams.div_ceil(4) * 4]
            .chunks_mut(4)
            .enumerate()
        {
            let byte = crate::traits::read_u8(stream, &mut pos, "predictor orders")?;
            for (field, order) in group.iter_mut().enumerate() {
                *order = (byte >> (2 * field)) & 3;
                let in_use = 4 * b + field < n_streams;
                if in_use == (*order == 0) {
                    return Err(CompressError::CorruptStream(format!(
                        "predictor order field {} reads {}",
                        4 * b + field,
                        *order
                    )));
                }
            }
        }
        let mut counts = [0usize; MAX_STREAMS];
        for count in &mut counts[..n_streams] {
            *count = crate::traits::read_varint_len(stream, &mut pos, "outlier count")?;
        }
        let parts = format::split_even(n, n_streams);
        let block = huffman::Block::parse(&stream[pos..], &parts, huff)?;
        let table_off = pos + block.consumed();
        let mut total = 0usize;
        for &c in &counts[..n_streams] {
            total = c
                .checked_mul(4)
                .and_then(|b| total.checked_add(b))
                .ok_or_else(|| {
                    CompressError::CorruptStream("outlier table lengths overflow".into())
                })?;
        }
        // Strict framing: the declared per-segment outlier tables must sum
        // to exactly the remaining payload, no silent truncation or slack.
        if stream.len() - table_off != total {
            return Err(CompressError::CorruptStream(format!(
                "v2 outlier tables declare {total} bytes but the payload holds {}",
                stream.len() - table_off
            )));
        }
        let mut spans = [(0usize, 0usize); MAX_STREAMS];
        let mut start = table_off;
        for (span, &c) in spans.iter_mut().zip(&counts[..n_streams]) {
            *span = (start, start + c * 4);
            start += c * 4;
        }
        let header = Header {
            eb,
            parts,
            orders,
            spans,
        };
        Ok((header, block))
    }
}

/// One segment's reconstruction state between the chunks of its symbols.
#[derive(Clone, Copy)]
struct Segment<'a> {
    table: Table<'a>,
    history: History,
    /// The segment's predictor order, `1..=3`.
    order: u8,
    /// Where the segment's next value goes in the output, and where the
    /// segment starts.
    at: usize,
    start: usize,
}

/// The inverse pass over every segment, fed one chunk of symbols at a time
/// in each segment's order ([`huffman::Block::decode_each`]).
struct Rebuild<'a> {
    segs: [Segment<'a>; MAX_STREAMS],
    n_streams: usize,
    step: f64,
    inv2eb: f64,
    /// Every segment's outlier table holds one value per element: the
    /// stream is valid only if every symbol is the escape, so a chunk of
    /// escapes is a bulk copy (near-lossless budgets, the serve hot path).
    all_escape: bool,
}

impl<'a> Rebuild<'a> {
    fn new(stream: &'a [u8], header: &Header) -> Self {
        let parts = &header.parts;
        let spans = &header.spans[..parts.len()];
        let mut segs = [Segment {
            table: Table::new(&[]),
            history: History::default(),
            order: 0,
            at: 0,
            start: 0,
        }; MAX_STREAMS];
        let segments = spans.iter().zip(parts).zip(&header.orders);
        for (seg, ((&(s0, s1), &(off, _)), &order)) in segs.iter_mut().zip(segments) {
            seg.table = Table::new(&stream[s0..s1]);
            seg.order = order;
            seg.at = off;
            seg.start = off;
        }
        let step = 2.0 * header.eb;
        Rebuild {
            segs,
            n_streams: parts.len(),
            step,
            inv2eb: 1.0 / step,
            all_escape: spans
                .iter()
                .zip(parts.iter())
                .all(|(&(s0, s1), &(_, len))| s1 - s0 == 4 * len),
        }
    }

    /// Rebuilds the values of segment `k`'s next `symbols` into `out`.
    fn take(&mut self, k: usize, symbols: &[u16], out: &mut [f32]) {
        let seg = &mut self.segs[k];
        let dst = &mut out[seg.at..seg.at + symbols.len()];
        let done = seg.at - seg.start;
        seg.at += symbols.len();
        // A chunk of escapes under full tables is its table entries
        // verbatim; the symbol scan keeps a corrupt stream's verdict that
        // of the loop below, which reads one entry per escape.
        if self.all_escape && symbols.iter().all(|&s| s == ESCAPE) && seg.table.fill(dst) {
            return;
        }
        let (step, inv2eb) = (self.step, self.inv2eb);
        match seg.order {
            1 => take_order::<1>(seg, done, symbols, dst, step, inv2eb),
            2 => take_order::<2>(seg, done, symbols, dst, step, inv2eb),
            _ => take_order::<3>(seg, done, symbols, dst, step, inv2eb),
        }
    }

    /// Every segment must have consumed its table exactly.
    fn finish(&self) -> Result<(), CompressError> {
        for seg in &self.segs[..self.n_streams] {
            seg.table.finish()?;
        }
        Ok(())
    }
}

/// [`Rebuild::take`] at predictor order `K`: rebuilds `symbols`, the
/// segment's values from its `done`-th on, into `dst`.
#[inline(always)]
fn take_order<const K: usize>(
    seg: &mut Segment<'_>,
    done: usize,
    symbols: &[u16],
    dst: &mut [f32],
    step: f64,
    inv2eb: f64,
) {
    let mut table = seg.table;
    let mut history = seg.history;
    // The symbol bias as a value the compiler cannot see: as a constant it
    // gets folded into each running sum, which puts two adds on every
    // sum's loop-carried chain instead of one (order 3 decoded 16 % slower
    // that way).
    let bias = std::hint::black_box(MAX_CODE + 1);
    let mut values = dst.iter_mut().zip(symbols);
    // The segment's first K values restart the history (module docs).
    for i in done..K {
        let Some((slot, &sym)) = values.next() else {
            break;
        };
        *slot = next_value::<K>(sym, &mut history, &mut table, step, inv2eb, bias);
        history.restart_after(i);
    }
    for (slot, &sym) in values {
        *slot = next_value::<K>(sym, &mut history, &mut table, step, inv2eb, bias);
    }
    seg.table = table;
    seg.history = history;
}

/// SZ-class compressor (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SzCompressor;

impl SzCompressor {
    /// Creates the compressor.
    pub fn new() -> Self {
        SzCompressor
    }

    /// Encodes the container described in the module docs.  `portable`
    /// keeps the two passes off the AVX2 instantiation; the bytes do not
    /// depend on it.
    fn compress_lattice(data: &[f32], eb: f64, portable: bool) -> Vec<u8> {
        let parts = format::split_even(data.len(), V2_STREAMS);
        huffman::with_encode_scratch(|scratch| {
            // The symbols leave the scratch while the block writer borrows
            // it, and go back (with their capacity) afterwards.
            let mut symbols = std::mem::take(&mut scratch.symbols);
            if symbols.len() < data.len() {
                symbols.resize(data.len(), ESCAPE);
            }
            if scratch.lattice.len() < data.len() {
                scratch.lattice.resize(data.len(), 0);
            }
            let symbols_now = &mut symbols[..data.len()];
            let passes_span = errflow_obs::trace::span("codec.sz.passes");
            scratch.outliers.clear();
            let (orders, escapes) = encode_passes_dispatch(
                portable,
                data,
                &parts,
                eb,
                &mut scratch.lattice[..data.len()],
                symbols_now,
                &mut scratch.outliers,
            );
            drop(passes_span);
            // Reserve for the worst case (outlier-storm inputs where every
            // value escapes): header + symbol block + verbatim outliers.
            let mut out = Vec::with_capacity(128 + data.len() + 4 * scratch.outliers.len());
            format::write_preamble(&mut out, BackendTag::Sz, V2_STREAMS);
            write_varint(&mut out, data.len() as u64);
            out.extend_from_slice(&eb.to_le_bytes());
            let fields = orders.iter().enumerate();
            out.push(fields.fold(0u8, |byte, (s, &k)| byte | k << (2 * s)));
            for &n in &escapes {
                write_varint(&mut out, n as u64);
            }
            huffman::encode_multi_with(symbols_now, V2_STREAMS, &mut out, scratch);
            format::write_f32_table(&mut out, &scratch.outliers);
            scratch.symbols = symbols;
            out
        })
    }
}

impl Compressor for SzCompressor {
    fn name(&self) -> &'static str {
        "sz"
    }

    fn supports(&self, _bound: &ErrorBound) -> bool {
        // SZ supports both L∞ and L2 tolerances (Figs. 13, 14).
        true
    }

    fn compress(&self, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
        let _span = errflow_obs::trace::span("codec.sz.compress");
        check_tolerance(bound.tolerance)?;
        let eb = bound.pointwise_budget(data);
        Ok(Self::compress_lattice(data, eb, simd::force_scalar()))
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        let CodecScratch { huff, symbols, .. } = scratch;
        let (header, block) = Header::parse(stream, out.len(), huff)?;
        // Entropy decode and reconstruction run one L1-sized chunk at a
        // time (a run-free block; others decode whole first).
        let _span = errflow_obs::trace::span("codec.sz.v2.decode_fused");
        let mut rebuild = Rebuild::new(stream, &header);
        block.decode_each(huff, symbols, &header.parts, |k, chunk| {
            rebuild.take(k, chunk, out);
            Ok(())
        })?;
        rebuild.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_bound::BoundMode;
    use crate::reference;
    use errflow_tensor::rng::StdRng;

    fn smooth_field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                (t * 12.0).sin() + 0.3 * (t * 40.0).cos()
            })
            .collect()
    }

    #[test]
    fn roundtrip_respects_abs_linf_bound() {
        let data = smooth_field(4096);
        for tol in [1e-2, 1e-4, 1e-6] {
            let bound = ErrorBound::abs_linf(tol);
            let sz = SzCompressor::new();
            let stream = sz.compress(&data, &bound).unwrap();
            let recon = sz.decompress(&stream, data.len()).unwrap();
            assert!(bound.verify(&data, &recon), "tol={tol}");
        }
    }

    #[test]
    fn roundtrip_respects_rel_bounds() {
        let data = smooth_field(2048);
        let sz = SzCompressor::new();
        for bound in [
            ErrorBound::rel_linf(1e-3),
            ErrorBound::abs_l2(1e-2),
            ErrorBound::rel_l2(1e-4),
        ] {
            let stream = sz.compress(&data, &bound).unwrap();
            let recon = sz.decompress(&stream, data.len()).unwrap();
            assert!(bound.verify(&data, &recon), "{bound:?}");
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_field(16_384);
        let sz = SzCompressor::new();
        let stream = sz.compress(&data, &ErrorBound::rel_linf(1e-3)).unwrap();
        let ratio = (data.len() * 4) as f64 / stream.len() as f64;
        assert!(ratio > 8.0, "ratio = {ratio:.2}");
    }

    #[test]
    fn ratio_grows_with_tolerance() {
        let data = smooth_field(8192);
        let sz = SzCompressor::new();
        let len_at = |tol: f64| {
            sz.compress(&data, &ErrorBound::rel_linf(tol))
                .unwrap()
                .len()
        };
        assert!(len_at(1e-2) < len_at(1e-4));
        assert!(len_at(1e-4) < len_at(1e-6));
    }

    #[test]
    fn random_noise_still_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<f32> = (0..2000).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-3);
        let recon = sz
            .decompress(&sz.compress(&data, &bound).unwrap(), data.len())
            .unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn extreme_values_become_outliers() {
        let mut data = smooth_field(128);
        data[50] = 1e30;
        data[51] = -1e30;
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-4);
        let recon = sz
            .decompress(&sz.compress(&data, &bound).unwrap(), data.len())
            .unwrap();
        assert!(bound.verify(&data, &recon));
        assert_eq!(recon[50], 1e30);
    }

    #[test]
    fn empty_and_single_element() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-3);
        let empty = sz
            .decompress(&sz.compress(&[], &bound).unwrap(), 0)
            .unwrap();
        assert!(empty.is_empty());
        let one = sz
            .decompress(&sz.compress(&[42.0], &bound).unwrap(), 1)
            .unwrap();
        assert!((one[0] - 42.0).abs() <= 1e-3);
    }

    #[test]
    fn invalid_tolerance_rejected() {
        let sz = SzCompressor::new();
        assert!(sz.compress(&[1.0], &ErrorBound::abs_linf(0.0)).is_err());
        assert!(sz
            .compress(&[1.0], &ErrorBound::abs_linf(f64::NAN))
            .is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let sz = SzCompressor::new();
        assert!(sz.decompress(&[1, 2, 3], 1).is_err());
        let stream = sz
            .compress(&smooth_field(100), &ErrorBound::abs_linf(1e-3))
            .unwrap();
        assert!(sz.decompress(&stream[..stream.len() / 2], 100).is_err());
        assert!(sz.decompress(&stream, 99).is_err());
        assert!(sz.decompress(&stream, 100).is_ok());
    }

    #[test]
    fn supports_all_modes() {
        let sz = SzCompressor::new();
        for mode in [
            BoundMode::AbsLInf,
            BoundMode::RelLInf,
            BoundMode::AbsL2,
            BoundMode::RelL2,
        ] {
            assert!(sz.supports(&ErrorBound {
                tolerance: 1e-3,
                mode
            }));
        }
    }

    #[test]
    fn roundtrip_stats() {
        let data = smooth_field(4096);
        let sz = SzCompressor::new();
        let (recon, stats) = sz.roundtrip(&data, &ErrorBound::rel_linf(1e-3)).unwrap();
        assert_eq!(recon.len(), data.len());
        assert!(stats.ratio() > 1.0);
        assert!(stats.compress_secs >= 0.0);
    }

    #[test]
    fn prop_error_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0xE0);
        for _ in 0..64 {
            let tol = 10f64.powf(rng.gen_range(-6.0f64..-1.0));
            let n = rng.gen_range(1usize..512);
            // Mix of smooth signal and noise.
            let data: Vec<f32> = (0..n)
                .map(|i| ((i as f32) * 0.1).sin() * 5.0 + rng.gen_range(-1.0f32..1.0))
                .collect();
            let sz = SzCompressor::new();
            let bound = ErrorBound::abs_linf(tol);
            let recon = sz
                .decompress(&sz.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }

    #[test]
    fn lattice_index_rounds_ties_to_even_and_guards_its_range() {
        // 2eb = 0.5: exact half-lattice ties go to the even index.
        let inv = 2.0;
        for (x, want) in [
            (0.25f32, 0),
            (0.75, 2),
            (1.25, 2),
            (-0.25, 0),
            (-0.75, -2),
            (0.3, 1),
            (-0.3, -1),
            (0.0, 0),
            (-0.0, 0),
        ] {
            assert_eq!(lattice_index(x, inv), want, "x = {x}");
        }
        // The guard: indices up to 2^30 exist, the product 2^30 itself
        // and everything past it, infinite or NaN, has index 0.
        let at_guard = (1u64 << 29) as f32; // · 2 = 2^30
        assert_eq!(lattice_index(at_guard, inv), 0);
        assert_eq!(lattice_index(-at_guard, inv), 0);
        let below = f32::from_bits(at_guard.to_bits() - 1);
        assert_eq!(lattice_index(below, inv), (1 << 30) - 64);
        assert_eq!(lattice_index(-below, inv), -(1 << 30) + 64);
        for x in [1e30f32, -1e30, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert_eq!(lattice_index(x, inv), 0, "x = {x}");
        }
        // Degenerate bin widths (a zero or infinite budget) index nothing.
        assert_eq!(lattice_index(1.0, f64::INFINITY), 0);
        assert_eq!(lattice_index(0.0, f64::INFINITY), 0);
        assert_eq!(lattice_index(1.0, 0.0), 0);
        assert_eq!(lattice_index(1.0, f64::NAN), 0);
    }

    #[test]
    fn f32_at_most_agrees_with_the_f64_compare() {
        // `a as f64 <= v` and `a <= f32_at_most(v)` agree for every f32 `a`
        // — the accept test of pass 1 depends on it — checked on budgets
        // at, between and around f32 values and on the f32s next to them.
        let mut rng = StdRng::seed_from_u64(0xEB);
        let mut budgets = vec![
            0.0,
            f64::from(f32::from_bits(1)) / 2.0,
            f64::from(f32::from_bits(1)),
            1.6e-5,
            1e-4,
            0.5,
            f64::from(f32::MAX),
            f64::from(f32::MAX) * (1.0 + 1e-12),
            1e300,
            f64::INFINITY,
        ];
        budgets.extend((0..2000).map(|_| 10f64.powf(rng.gen_range(-45.0f64..39.0))));
        for v in budgets {
            let at = f32_at_most(v);
            let near = v as f32;
            for a in [at, near, f32::from_bits(at.to_bits().wrapping_add(1)), -at]
                .into_iter()
                .chain([0.0, f32::MAX, f32::INFINITY, f32::NAN])
                .chain((0..8).map(|_| f32::from_bits(rng.gen::<u32>())))
            {
                assert_eq!(f64::from(a) <= v, a <= at, "a = {a:e}, v = {v:e}");
            }
        }
    }

    /// Runs both encoder passes on `data` as one segment: the indices, the
    /// symbols, the escape count and the order chosen.
    fn passes(data: &[f32], eb: f64, portable: bool) -> (Vec<i32>, Vec<u16>, usize, u8) {
        let mut lattice = vec![0i32; data.len()];
        let mut symbols = vec![7u16; data.len()];
        let parts = [
            (0, data.len()),
            (data.len(), 0),
            (data.len(), 0),
            (data.len(), 0),
        ];
        let (orders, escapes) = encode_passes_dispatch(
            portable,
            data,
            &parts,
            eb,
            &mut lattice,
            &mut symbols,
            &mut Vec::new(),
        );
        (lattice, symbols, escapes[0], orders[0])
    }

    /// Pass 1, then pass 2 on `data` as one segment at predictor `order`:
    /// the indices, the symbols and the escape count.
    fn passes_at(data: &[f32], eb: f64, order: u8) -> (Vec<i32>, Vec<u16>, usize) {
        let mut lattice = vec![0i32; data.len()];
        let mut symbols = vec![7u16; data.len()];
        quantize(data, eb, &mut lattice, &mut symbols);
        let escapes = match order {
            1 => difference::<1>(&lattice, &mut symbols),
            2 => difference::<2>(&lattice, &mut symbols),
            _ => difference::<3>(&lattice, &mut symbols),
        };
        (lattice, symbols, escapes)
    }

    /// The symbol for index difference `d`.
    fn coded(d: i32) -> u16 {
        (d + MAX_CODE + 1) as u16
    }

    #[test]
    fn an_escaped_value_keeps_its_index_in_the_history() {
        // 2eb = 2^-9.  A step from 0 to 100 moves the index by 51 200,
        // past MAX_CODE, so at order k the k + 1 differences the step
        // touches (±51 200 times a binomial coefficient) escape — and the
        // value after them is predicted exactly, which only works if every
        // escape left its own index behind.  Zeroed history would make it
        // escape too (encoder) or reconstruct it 100 off (decoder).
        let eb = 1.0 / 1024.0;
        let mut data = vec![0.0f32; 8];
        data.extend([100.0; 8]);
        for order in 1..=3u8 {
            let (lattice, symbols, escapes) = passes_at(&data, eb, order);
            assert_eq!(lattice[7..10], [0, 51_200, 51_200]);
            let k = usize::from(order);
            let mut want = vec![coded(0); 16];
            want[8..8 + k].fill(ESCAPE);
            assert_eq!(symbols, want, "order {order}");
            assert_eq!(escapes, k, "order {order}");
        }
        // The stream the encoder writes (its own choice of order) decodes
        // to the data everywhere.
        let sz = SzCompressor::new();
        let stream = sz.compress(&data, &ErrorBound::abs_linf(eb)).unwrap();
        assert_eq!(sz.decompress(&stream, data.len()).unwrap(), data);
        assert_eq!(reference::sz_decompress(&stream).unwrap(), data);
    }

    #[test]
    fn a_segment_restarts_on_the_value_then_each_difference_up_to_its_order() {
        let eb = 1.0 / 1024.0;
        // Index 51 200 throughout: the first value is too far from nothing
        // to code; at every order the second is a zero *first* difference
        // from it (a difference of order k against absent predecessors
        // would be a multiple of −51 200, one more escape per segment), the
        // rest zero differences.
        let flat = vec![100.0f32; 6];
        // Indices 8i and i²: a slope shows as a first difference once, a
        // curvature as a second difference once — at an order that reaches
        // it, else for ever.
        let ramp: Vec<f32> = (0..6).map(|i| i as f32 / 64.0).collect();
        let parabola: Vec<f32> = (0..6).map(|i| (i * i) as f32 / 512.0).collect();
        let z = coded(0);
        for (order, want_ramp, want_parabola) in [
            (
                1u8,
                [z, z + 8, z + 8, z + 8, z + 8, z + 8],
                [z, z + 1, z + 3, z + 5, z + 7, z + 9],
            ),
            (
                2,
                [z, z + 8, z, z, z, z],
                [z, z + 1, z + 2, z + 2, z + 2, z + 2],
            ),
            (3, [z, z + 8, z, z, z, z], [z, z + 1, z + 2, z, z, z]),
        ] {
            let (_, symbols, escapes) = passes_at(&flat, eb, order);
            assert_eq!(symbols, [ESCAPE, z, z, z, z, z], "order {order}");
            assert_eq!(escapes, 1);
            assert_eq!(passes_at(&ramp, eb, order).1, want_ramp, "order {order}");
            assert_eq!(
                passes_at(&parabola, eb, order).1,
                want_parabola,
                "order {order}"
            );
        }
        // Segments shorter than the order, empty ones included, code each
        // value as it would be coded in a longer segment.
        for order in 1..=3u8 {
            let full = passes_at(&parabola, eb, order).1;
            for len in 0..4 {
                assert_eq!(passes_at(&parabola[..len], eb, order).1, full[..len]);
            }
        }
        let sz = SzCompressor::new();
        for data in [flat, ramp, parabola] {
            let stream = sz.compress(&data, &ErrorBound::abs_linf(eb)).unwrap();
            assert_eq!(sz.decompress(&stream, data.len()).unwrap(), data);
            assert_eq!(reference::sz_decompress(&stream).unwrap(), data);
        }
    }

    #[test]
    fn each_segment_takes_the_order_with_the_smallest_sampled_differences() {
        let eb = 1.0 / 1024.0;
        let mut rng = StdRng::seed_from_u64(0x0D);
        let n = 1024;
        // A constant ties every order at zero, and a line ties orders 2
        // and 3: the lowest order wins a tie.
        let constant = vec![0.5f32; n];
        let line: Vec<f32> = (0..n).map(|i| i as f32 / 64.0).collect();
        let parabola: Vec<f32> = (0..n).map(|i| (i * i) as f32 / 512.0).collect();
        // A random walk's steps are independent: differencing once more
        // only adds them up.
        let mut at = 0.0f32;
        let walk: Vec<f32> = (0..n)
            .map(|_| {
                at += rng.gen_range(-0.5f32..0.5);
                at
            })
            .collect();
        for (what, data, want) in [
            ("constant", &constant, 1),
            ("line", &line, 2),
            ("parabola", &parabola, 3),
            ("walk", &walk, 1),
        ] {
            let (lattice, _, _, order) = passes(data, eb, true);
            assert_eq!(order, want, "{what}");
            assert_eq!(choose_order(&lattice), want, "{what}");
        }
        // Segments shorter than one sampled window have nothing to weigh.
        assert_eq!(choose_order(&[1, 5, 30]), 1);
        // The four segments of one stream choose independently, and the
        // header byte holds their orders two bits each, segment 0 lowest.
        let data = [&walk[..], &line, &parabola, &constant].concat();
        let stream = SzCompressor::compress_lattice(&data, eb, true);
        // Preamble, n = 4096 as a two-byte varint, eb.
        assert_eq!(stream[10..12], [0x80, 0x20]);
        assert_eq!(stream[20], 1 | 2 << 2 | 3 << 4 | 1 << 6);
    }

    #[test]
    fn order_costs_sample_every_fourth_index() {
        // Small differences, differences past the cap and past `i16`, and
        // indices whose differences wrap, over lengths with and without a
        // tail of values, against the differences written out per index.
        let mut rng = StdRng::seed_from_u64(0x5E2);
        for len in [0usize, 3, 4, 15, 16, 17, 63, 64, 1000, 4099] {
            for spread in [4i32, 300, 70_000, i32::MAX] {
                let q: Vec<i32> = (0..len)
                    .map(|_| match rng.gen_range(0u32..8) {
                        0 => i32::MIN,
                        1 => i32::MAX,
                        _ => rng.gen_range(-spread..spread),
                    })
                    .collect();
                let mut want = [0u64; 3];
                for i in (3..len).step_by(4) {
                    let (a, b, c, d) = (q[i], q[i - 1], q[i - 2], q[i - 3]);
                    let d1 = a.wrapping_sub(b);
                    let d2 = a.wrapping_sub(b.wrapping_mul(2)).wrapping_add(c);
                    let d3 = a
                        .wrapping_sub(b.wrapping_mul(3))
                        .wrapping_add(c.wrapping_mul(3))
                        .wrapping_sub(d);
                    for (sum, diff) in want.iter_mut().zip([d1, d2, d3]) {
                        *sum += u64::from(diff.unsigned_abs().min(255));
                    }
                }
                assert_eq!(order_costs(&q), want, "len {len}, spread {spread}");
            }
        }
        assert_eq!(order_cost(i32::MIN), ORDER_COST_CAP);
        assert_eq!(order_cost(-255), 255);
        assert_eq!(order_cost(256), 255);
    }

    #[test]
    fn avx2_and_portable_arms_write_identical_streams() {
        let mut rng = StdRng::seed_from_u64(0xE2);
        let mut data: Vec<f32> = (0..4099)
            .map(|i| ((i as f32) * 0.01).sin() * 3.0 + rng.gen_range(-1e-3f32..1e-3))
            .collect();
        // Ties, the guard, verbatim extremes and non-finite values, spread
        // over all four segments.
        for (k, x) in [
            0.25f32,
            -0.75,
            1e30,
            -1e30,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
            (1u64 << 29) as f32,
        ]
        .into_iter()
        .enumerate()
        {
            data[k * 450 + 3] = x;
        }
        for eb in [0.25, 1e-2, 1e-4, 1e-7] {
            let portable = SzCompressor::compress_lattice(&data, eb, true);
            let narrow_passes = passes(&data, eb, true);
            assert!(narrow_passes.2 >= 5, "extremes escape");
            if !simd::has_avx2() {
                eprintln!("no AVX2 on this host: portable arm only");
                continue;
            }
            assert!(portable == SzCompressor::compress_lattice(&data, eb, false));
            assert_eq!(passes(&data, eb, false), narrow_passes);
        }
    }

    #[test]
    fn prop_l2_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0xE1);
        for _ in 0..64 {
            let tol = 10f64.powf(rng.gen_range(-4.0f64..-1.0));
            let data: Vec<f32> = (0..256).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let sz = SzCompressor::new();
            let bound = ErrorBound::abs_l2(tol);
            let recon = sz
                .decompress(&sz.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }
}

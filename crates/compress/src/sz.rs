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
//! integers, emitting the second difference `q_i − 2·q_{i−1} + q_{i−2}`
//! (linear extrapolation, exact on the lattice) as the symbol.  Neither
//! pass carries a floating-point dependence from one value to the next, so
//! both vectorise, and pass 2 gathers the escaped values as each segment's
//! escape count comes in.  One `#[inline(always)]` body is instantiated for
//! baseline SSE2 and for AVX2 (no FMA: every operation is a plain IEEE
//! multiply, add, convert or compare, so the arms produce identical bytes).
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
//!   in `i32`.  Honest streams never wrap (`|q| ≤ 2^30`, and a difference
//!   outside `±MAX_CODE` escapes); forged symbols may, and then all three
//!   implementations wrap alike.
//! * A symbol `s ≠ 0` stands for the difference `(s as i32) − 32768`,
//!   wrapping, whatever `s` is.  Symbol `0` is the escape: the value is the
//!   next entry of the segment's outlier table, and its index for the
//!   history is recomputed from that `f32` with `lattice_index`.
//! * History restarts at each segment the way the predictor it replaces
//!   did — nothing, then the last value, then the line through the last
//!   two: `d_0 = q_0`, `d_1 = q_1 − q_0`, and the second difference from
//!   `d_2` on.  (A plain second difference at `i = 1` would be `≈ −q_0`,
//!   an escape per segment, which is 1–2 % of a 1 Ki-value stream.)
//!
//! ## Stream layout
//!
//! The container ([`crate::format`], tag [`BackendTag::SzLattice`]) splits
//! the values into [`crate::format::V2_STREAMS`] contiguous segments with
//! per-segment outlier tables, and entropy-codes the symbols with the
//! multi-stream Huffman block ([`crate::huffman::encode_multi`]):
//!
//! ```text
//! [magic u64][tag=SzLattice u8][n_streams u8]
//! [n u64][eb f64][n_outliers_s u32 × n_streams]
//! [multi-stream Huffman block over the per-segment symbols]
//! [outlier f32 tables, one per segment, concatenated]
//! ```
//!
//! Decode is one pass per segment: an integer second-order prefix sum
//! carried as two running sums (`dq += d; q += dq`, a one-add chain per
//! value, so the segments gain nothing from being interleaved), each index
//! converted `q·2eb → f32` as it is produced and each escape replaced by
//! its verbatim value.  [`Compressor::decompress_into`] does it in the
//! caller's slice through pooled [`CodecScratch`](crate::CodecScratch)
//! state, fused with the entropy decode: a run-free block's lanes decode
//! 1 Ki symbols each into an L1 buffer and the pass takes them from there
//! ([`huffman::Block::decode_each`]), so no 256 KiB symbol buffer is
//! written or read.  (Splitting the pass into an index sweep, a vectorised
//! conversion sweep and an escape patch, even over those L1 chunks,
//! measured slower than the single loop, DESIGN.md §8.)  Any other bytes —
//! no magic, or a tag other than [`BackendTag::SzLattice`] — are a typed
//! [`CompressError::CorruptStream`].

use crate::error_bound::ErrorBound;
use crate::format::{self, BackendTag, MAX_STREAMS, V2_STREAMS};
use crate::huffman::{self, DecodeScratch};
use crate::scratch::{self, CodecScratch};
use crate::traits::{check_tolerance, CompressError, Compressor};
use errflow_tensor::simd;

/// Second differences live in `[-MAX_CODE, MAX_CODE]`; anything outside
/// becomes an outlier.  65k bins matches SZ's default
/// `quantization_intervals`.
const MAX_CODE: i32 = 32_767;

/// Symbol 0 is the outlier escape; difference `d` maps to `d + MAX_CODE + 1`.
const ESCAPE: u32 = 0;

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
fn quantize(data: &[f32], eb: f64, lattice: &mut [i32], accepted: &mut [u32]) {
    let step = 2.0 * eb;
    let inv2eb = 1.0 / step;
    let eb32 = f32_at_most(eb);
    for ((&x, q), ok) in data.iter().zip(lattice).zip(accepted) {
        *q = lattice_index(x, inv2eb);
        let r = lattice_value(*q, step);
        // Strict check in f32: the cast may add half an ulp, so verify
        // rather than trust the algebra.  `|x − r|` is an `f32`, so it is
        // at most `eb` exactly when it is at most `eb32`.
        *ok = u32::from((x - r).abs() <= eb32 && r.is_finite());
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

/// Pass 2 over one segment: turns `symbols` from pass 1's accept flags into
/// the segment's symbols — the second difference of the indices where the
/// value was accepted and the difference fits, [`ESCAPE`] otherwise — and
/// returns the number of escapes.  An escaped value's own index stays in
/// the history, which is what the decoder recomputes from the verbatim
/// value.
#[inline(always)]
fn difference(lattice: &[i32], symbols: &mut [u32]) -> usize {
    debug_assert_eq!(lattice.len(), symbols.len());
    #[inline(always)]
    fn symbol(q: i32, prev: i32, prev2: i32, accepted: u32) -> u32 {
        let d = q.wrapping_sub(prev).wrapping_sub(prev).wrapping_add(prev2);
        // |d| ≤ MAX_CODE ⇔ d + MAX_CODE ∈ [0, 2·MAX_CODE], one unsigned compare.
        let biased = d.wrapping_add(MAX_CODE) as u32;
        if accepted != 0 && biased <= 2 * MAX_CODE as u32 {
            biased + 1
        } else {
            ESCAPE
        }
    }
    let mut escapes = 0usize;
    // The first two values of a segment see the restarted history: no
    // predecessor, then one (`prev2 = prev` makes the second difference a
    // first difference).
    for i in 0..lattice.len().min(2) {
        let prev = if i == 1 { lattice[0] } else { 0 };
        symbols[i] = symbol(lattice[i], prev, prev, symbols[i]);
        escapes += usize::from(symbols[i] == ESCAPE);
    }
    if let (Some(rest), Some(q), Some(prev)) =
        (symbols.get_mut(2..), lattice.get(2..), lattice.get(1..))
    {
        // Three views of the indices one apart, so the loop vectorises.
        for (((s, &q), &prev), &prev2) in rest.iter_mut().zip(q).zip(prev).zip(lattice) {
            *s = symbol(q, prev, prev2, *s);
            escapes += usize::from(*s == ESCAPE);
        }
    }
    escapes
}

/// Both encoder passes: `lattice` and `symbols` filled for all of `data`,
/// escapes counted per segment of `parts`, and the escaped values appended
/// to `outliers` segment by segment — the order their tables are written
/// in.
#[inline(always)]
fn encode_passes(
    data: &[f32],
    parts: &[(usize, usize)],
    eb: f64,
    lattice: &mut [i32],
    symbols: &mut [u32],
    outliers: &mut Vec<f32>,
) -> [usize; V2_STREAMS] {
    quantize(data, eb, lattice, symbols);
    let mut escapes = [0usize; V2_STREAMS];
    for (n, &(off, len)) in escapes.iter_mut().zip(parts) {
        let (values, syms) = (&data[off..off + len], &mut symbols[off..off + len]);
        *n = difference(&lattice[off..off + len], syms);
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
    escapes
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
    symbols: &mut [u32],
    outliers: &mut Vec<f32>,
) -> [usize; V2_STREAMS] {
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
    symbols: &mut [u32],
    outliers: &mut Vec<f32>,
) -> [usize; V2_STREAMS] {
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

/// A segment's integer history: the last index and the last first
/// difference (the second-order prefix sum, carried as two running sums).
#[derive(Clone, Copy, Default)]
struct History {
    q: i32,
    dq: i32,
}

/// The value symbol `sym` stands for after `history`: the next verbatim
/// value on an escape (its index recomputed for the history), else the
/// lattice point at `q_i = q_{i−1} + (q_{i−1} − q_{i−2}) + d_i`.
#[inline(always)]
fn next_value(
    sym: u32,
    history: &mut History,
    table: &mut Table<'_>,
    step: f64,
    inv2eb: f64,
) -> f32 {
    if sym == ESCAPE {
        let x = table.next();
        let q = lattice_index(x, inv2eb);
        *history = History {
            q,
            dq: q.wrapping_sub(history.q),
        };
        x
    } else {
        let d = (sym as i32).wrapping_sub(MAX_CODE + 1);
        history.dq = history.dq.wrapping_add(d);
        history.q = history.q.wrapping_add(history.dq);
        lattice_value(history.q, step)
    }
}

/// The fields of a parsed stream header the reconstruction needs.
struct Header {
    n: usize,
    eb: f64,
    n_streams: usize,
    /// Per-segment outlier tables' absolute `(start, end)` byte ranges.
    spans: [(usize, usize); MAX_STREAMS],
}

impl Header {
    /// Parses the container header and the symbol block's header, and
    /// checks the framing: the block must declare `n` symbols, and the
    /// declared outlier tables must exactly fill the rest of the stream.
    /// A mismatch is a typed [`CompressError::CorruptStream`].
    fn parse<'a>(
        stream: &'a [u8],
        huff: &mut DecodeScratch,
    ) -> Result<(Header, huffman::Block<'a>), CompressError> {
        let mut pos = 0usize;
        let n_streams = format::read_preamble(stream, &mut pos, BackendTag::SzLattice)?;
        let n = crate::traits::read_len_u64(stream, &mut pos, "element count")?;
        let eb = crate::traits::read_f64(stream, &mut pos, "error bound")?;
        let mut counts = [0usize; MAX_STREAMS];
        for count in &mut counts[..n_streams] {
            *count = crate::traits::read_len_u32(stream, &mut pos, "outlier count")?;
        }
        let block = huffman::Block::parse(&stream[pos..], huff)?;
        if block.n_original() != n {
            return Err(CompressError::CorruptStream(format!(
                "expected {n} symbols, decoded {}",
                block.n_original()
            )));
        }
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
            n,
            eb,
            n_streams,
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
    fn new(stream: &'a [u8], header: &Header, parts: &[(usize, usize)]) -> Self {
        let spans = &header.spans[..header.n_streams];
        let mut segs = [Segment {
            table: Table::new(&[]),
            history: History::default(),
            at: 0,
            start: 0,
        }; MAX_STREAMS];
        for (seg, (&(s0, s1), &(off, _))) in segs.iter_mut().zip(spans.iter().zip(parts)) {
            seg.table = Table::new(&stream[s0..s1]);
            seg.at = off;
            seg.start = off;
        }
        let step = 2.0 * header.eb;
        Rebuild {
            segs,
            n_streams: header.n_streams,
            step,
            inv2eb: 1.0 / step,
            all_escape: spans
                .iter()
                .zip(parts)
                .all(|(&(s0, s1), &(_, len))| s1 - s0 == 4 * len),
        }
    }

    /// Rebuilds the values of segment `k`'s next `symbols` into `out`.
    fn take(&mut self, k: usize, symbols: &[u32], out: &mut [f32]) {
        let seg = &mut self.segs[k];
        let dst = &mut out[seg.at..seg.at + symbols.len()];
        let first = seg.at == seg.start;
        seg.at += symbols.len();
        // A chunk of escapes under full tables is its table entries
        // verbatim; the symbol scan keeps a corrupt stream's verdict that
        // of the loop below, which reads one entry per escape.
        if self.all_escape && symbols.iter().all(|&s| s == ESCAPE) && seg.table.fill(dst) {
            return;
        }
        let (step, inv2eb) = (self.step, self.inv2eb);
        let mut table = seg.table;
        let mut history = seg.history;
        let mut values = dst.iter_mut().zip(symbols);
        if first {
            if let Some((slot, &sym)) = values.next() {
                *slot = next_value(sym, &mut history, &mut table, step, inv2eb);
                // The first value sets the index, not a slope.
                history.dq = 0;
            }
        }
        for (slot, &sym) in values {
            *slot = next_value(sym, &mut history, &mut table, step, inv2eb);
        }
        seg.table = table;
        seg.history = history;
    }

    /// Every segment must have consumed its table exactly.
    fn finish(&self) -> Result<(), CompressError> {
        for seg in &self.segs[..self.n_streams] {
            seg.table.finish()?;
        }
        Ok(())
    }
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
            let escapes = encode_passes_dispatch(
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
            format::write_preamble(&mut out, BackendTag::SzLattice, V2_STREAMS);
            out.extend_from_slice(&(data.len() as u64).to_le_bytes());
            out.extend_from_slice(&eb.to_le_bytes());
            for &n in &escapes {
                out.extend_from_slice(&(n as u32).to_le_bytes());
            }
            let mut segs: [&[u32]; V2_STREAMS] = [&[]; V2_STREAMS];
            for (seg, &(off, len)) in segs.iter_mut().zip(&parts) {
                *seg = &symbols_now[off..off + len];
            }
            // Every symbol is a biased difference of at most 2·MAX_CODE + 1.
            huffman::encode_multi_below(&segs, 2 * MAX_CODE as u32 + 2, &mut out, scratch);
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

    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        let _span = errflow_obs::trace::span("codec.sz.decompress");
        let mut scratch = scratch::acquire();
        let CodecScratch { huff, symbols, .. } = &mut *scratch;
        let (header, block) = Header::parse(stream, huff)?;
        // The symbols are decoded before the output is allocated: with runs,
        // a declared count is only bounded by the payload once expanded.
        block.decode_into(huff, symbols)?;
        let mut recon = vec![0.0f32; header.n];
        let _recon_span = errflow_obs::trace::span("codec.sz.v2.reconstruct");
        let parts = format::split_even(header.n, header.n_streams);
        let mut rebuild = Rebuild::new(stream, &header, &parts);
        for (k, &(off, len)) in parts.iter().enumerate() {
            rebuild.take(k, &symbols[off..off + len], &mut recon);
        }
        rebuild.finish()?;
        Ok(recon)
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        let CodecScratch { huff, symbols, .. } = scratch;
        let (header, block) = Header::parse(stream, huff)?;
        if header.n != out.len() {
            return Err(CompressError::CorruptStream(format!(
                "stream declares {} values, expected {}",
                header.n,
                out.len()
            )));
        }
        // Entropy decode and reconstruction run one L1-sized chunk at a
        // time (a run-free block; others decode whole first).
        let _span = errflow_obs::trace::span("codec.sz.v2.decode_fused");
        let parts = format::split_even(header.n, header.n_streams);
        let mut rebuild = Rebuild::new(stream, &header, &parts);
        block.decode_each(huff, symbols, &parts, |k, chunk| {
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
            let recon = sz.decompress(&stream).unwrap();
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
            let recon = sz.decompress(&stream).unwrap();
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
        let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn extreme_values_become_outliers() {
        let mut data = smooth_field(128);
        data[50] = 1e30;
        data[51] = -1e30;
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-4);
        let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
        assert!(bound.verify(&data, &recon));
        assert_eq!(recon[50], 1e30);
    }

    #[test]
    fn empty_and_single_element() {
        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(1e-3);
        let empty = sz.decompress(&sz.compress(&[], &bound).unwrap()).unwrap();
        assert!(empty.is_empty());
        let one = sz
            .decompress(&sz.compress(&[42.0], &bound).unwrap())
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
        assert!(sz.decompress(&[1, 2, 3]).is_err());
        let stream = sz
            .compress(&smooth_field(100), &ErrorBound::abs_linf(1e-3))
            .unwrap();
        assert!(sz.decompress(&stream[..stream.len() / 2]).is_err());
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
            let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
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

    /// Runs both encoder passes on `data` as one segment.
    fn passes(data: &[f32], eb: f64, portable: bool) -> (Vec<i32>, Vec<u32>, usize) {
        let mut lattice = vec![0i32; data.len()];
        let mut symbols = vec![7u32; data.len()];
        let parts = [
            (0, data.len()),
            (data.len(), 0),
            (data.len(), 0),
            (data.len(), 0),
        ];
        let escapes = encode_passes_dispatch(
            portable,
            data,
            &parts,
            eb,
            &mut lattice,
            &mut symbols,
            &mut Vec::new(),
        );
        (lattice, symbols, escapes[0])
    }

    #[test]
    fn an_escaped_value_keeps_its_index_in_the_history() {
        // 2eb = 2^-9.  A step from 0 to 100 moves the index by 51 200,
        // past MAX_CODE, so the step and the value after it escape (second
        // differences +51 200 and −51 200) — and the third value after the
        // step is predicted exactly, which only works if both escapes left
        // their own indices behind.  Zeroed history would make it escape
        // too (encoder) or reconstruct it 100 off (decoder).
        let eb = 1.0 / 1024.0;
        let mut data = vec![0.0f32; 8];
        data.extend([100.0; 8]);
        let (lattice, symbols, escapes) = passes(&data, eb, true);
        assert_eq!(lattice[7..10], [0, 51_200, 51_200]);
        let zero = MAX_CODE as u32 + 1;
        assert_eq!(symbols[6..12], [zero, zero, ESCAPE, ESCAPE, zero, zero]);
        assert_eq!(escapes, 2);

        let sz = SzCompressor::new();
        let bound = ErrorBound::abs_linf(eb);
        let stream = sz.compress(&data, &bound).unwrap();
        let recon = sz.decompress(&stream).unwrap();
        assert_eq!(recon, data);
        let oracle = reference::sz_decompress(&stream).unwrap();
        assert_eq!(oracle, data);
    }

    #[test]
    fn a_segment_restarts_on_the_value_then_the_first_difference() {
        // Index 51 200 throughout: the first value is too far from nothing
        // to code, the second is a zero *first* difference from it (a
        // second difference against an absent predecessor would be
        // −51 200, one more escape per segment), the rest zero second
        // differences.
        let eb = 1.0 / 1024.0;
        let data = vec![100.0f32; 6];
        let (_, symbols, escapes) = passes(&data, eb, true);
        let zero = MAX_CODE as u32 + 1;
        assert_eq!(symbols, [ESCAPE, zero, zero, zero, zero, zero]);
        assert_eq!(escapes, 1);
        // A slope shows as a first difference once, then not at all.
        let ramp: Vec<f32> = (0..6).map(|i| i as f32 / 64.0).collect();
        let (_, symbols, _) = passes(&ramp, eb, true);
        assert_eq!(symbols, [zero, zero + 8, zero, zero, zero, zero]);
        let sz = SzCompressor::new();
        for data in [data, ramp] {
            let stream = sz.compress(&data, &ErrorBound::abs_linf(eb)).unwrap();
            assert_eq!(sz.decompress(&stream).unwrap(), data);
            assert_eq!(reference::sz_decompress(&stream).unwrap(), data);
        }
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
            let recon = sz.decompress(&sz.compress(&data, &bound).unwrap()).unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }
}

//! Canonical Huffman coding over `u16` symbols.
//!
//! SZ- and MGARD-class compressors turn most values into small quantization
//! codes with a highly skewed distribution; entropy coding those codes is
//! where their compression ratio comes from.  This is a self-contained
//! canonical Huffman coder: the block stores the code table — the symbols
//! in ascending order as varint gaps, then their code lengths a nibble
//! each (zstd's huff0 table header is the model) — and the payloads;
//! canonical code assignment makes decode tables cheap to rebuild.  The
//! block holds no count its decoder is handed: the caller passes the
//! symbol count and the segment count ([`decode_multi_into`]).
//!
//! ## One block format: multi-stream
//!
//! Serial Huffman decode is latency-bound: every symbol's table lookup
//! depends on the previous symbol's length, so one dependency chain caps
//! throughput regardless of ILP or SIMD width.  The block format breaks
//! that chain: [`encode_multi_into`] cuts its symbols into up to
//! [`crate::format::MAX_STREAMS`] contiguous [`crate::format::split_even`]
//! segments that share one code table but carry **independent payloads**,
//! and [`decode_multi_into`] runs one chain per sub-stream —
//! four interleaved scalar chains when the block has four of them, one
//! resumable lane at a time otherwise.  Runs of ≥ [`MIN_RUN`] identical
//! symbols are collapsed per segment (so a run never straddles a
//! sub-stream boundary), and blocks Huffman cannot shrink are stored as raw
//! 16-bit symbols ([`FLAG_RAW16`]).  Every entropy-coded backend
//! ([`crate::SzCompressor`], [`crate::MgardCompressor`]) writes this
//! block over its symbol stream; [`encode_multi_with`] has the layout.
//!
//! The alphabet is `u16`, the range every backend's symbols lie in: SZ's
//! are a biased index difference of at most ±32 767, MGARD's a biased
//! coefficient code.  The run marker is not one of its values: a block
//! with runs implies the marker's table entry, and inside the coder's own
//! buffers — the encoder's collapsed segments, the decoder's staged ones —
//! symbols are `u32` with the marker at [`RUN_MARKER`].  The inner loops
//! (histogram, payload writer, lane decoders) are generic over the two
//! widths (`Symbol`).  A code table that lists a symbol past 65 535 is a
//! [`CompressError::CorruptStream`].
//!
//! Decoding is table-driven and **register-batched**: a lane loads a
//! 57-bit window of its payload into a 64-bit register once, then decodes
//! as many symbols as fit with one table lookup + shift each before
//! refilling.  The first-level table has `2^min(PEEK, longest code)`
//! entries: at most `2^11` of 8 bytes, 16 KiB, so it stays in L1 beside
//! the payload and the output even for a served SZ payload, whose 600-odd
//! symbols have codes of up to 16 bits (a small block's few short codes
//! get a table of a few dozen entries).  It resolves every code of ≤ [`PEEK`]
//! bits in one lookup; a longer one — under 1 % of a served payload's
//! symbols — takes a second lookup in a table per shared prefix, and only
//! codes past that (or past its budget) walk the canonical arrays bit by
//! bit.  A run-free block decodes straight into the output, and
//! [`Block::decode_each`] hands it to the caller one L1-sized chunk per
//! lane at a time, so SZ rebuilds its values from symbols that never left
//! L1.  This path dominates decompression throughput for the SZ/MGARD
//! backends, which is what the paper's I/O figures measure.
//!
//! Encoding reads the symbols where they are: a pre-scan samples each
//! segment for runs, only the segments that can hold one are collapsed
//! into scratch, the histogram counts into a window over the whole
//! alphabet and collects only the slots it touched, and the payload loop
//! writes one to four packed `(code, len)` words per 64-bit store straight
//! into the output's tail ([`encode_multi_with`]).
//!
//! Both directions carry reusable scratch state ([`DecodeScratch`],
//! [`EncodeScratch`]) so steady-state coding performs no per-call table
//! allocations; [`encode_multi_into`] reuses a thread-local scratch
//! transparently.  The slow, obvious decoder for the same bytes is
//! [`crate::reference::huffman_decode_multi`], which the tests hold this
//! one to symbol for symbol.

use crate::bitstream::load_word;
use crate::format::{split_even, MAX_STREAMS};
use crate::traits::{read_u8, read_varint, read_varint_len, write_varint, CompressError};
use std::cell::RefCell;

/// Widest first-level decode table (bits); a block whose longest code is
/// shorter builds a table of that code's width.  `2^11` entries of 8 bytes
/// are 16 KiB, so the table stays in L1 beside the payload and the output.
pub const PEEK: u32 = 11;

/// Symbols a lane commits per 57-bit window in the interleaved decode loop:
/// that many codes of at most [`PEEK`] bits always fit the window.
const ROUND: usize = 57 / PEEK as usize;

/// Widest second-level table (bits past [`PEEK`]): codes of up to
/// `PEEK + SUB_BITS` bits resolve in two lookups.
const SUB_BITS: u32 = 12;

/// Most second-level entries one block builds (64 KiB); prefixes past the
/// budget, and codes longer than `PEEK + SUB_BITS`, take the canonical walk.
const SUB_BUDGET: usize = 1 << 13;

/// A first-level entry that commits no symbol: [`MISS`] alone sends the
/// code to the canonical walk, and `MISS | width << SUB_SHIFT | offset`
/// points into the second level.  A fast loop tests four lanes' entries
/// for a miss with one OR.
const MISS: u64 = 1 << 63;

/// See [`MISS`].
const SUB_SHIFT: u32 = 26;

/// Symbols per lane the fused decode ([`Block::decode_each`]) holds at a
/// time: four lanes of 1 Ki `u16` are 8 KiB, beside the 16 KiB table.
const CHUNK: usize = 1 << 10;

/// Marker symbol standing for "a run follows" after RLE, in the coder's
/// `u32` buffers: past the `u16` alphabet, so never a data symbol.
pub const RUN_MARKER: u32 = u32::MAX;

/// Symbols in the alphabet: every `u16`.  The packed lookup has one slot
/// more, the run marker's.
const ALPHABET: usize = 1 << 16;

/// Minimum repeat length worth collapsing into a run.  Below this, plain
/// Huffman (≈1 bit/symbol for the dominant code) beats the marker + varint
/// overhead of a run token.
pub const MIN_RUN: usize = 48;

/// Reverses the low `len` bits of `v`.
#[inline]
fn bitrev(v: u64, len: u8) -> u64 {
    v.reverse_bits() >> (64 - len as u32)
}

/// A symbol buffer's element: `u16` for the callers' symbols, `u32` for
/// the coder's own buffers, which also hold [`RUN_MARKER`].  The histogram,
/// the payload writer and the lane decoders have one body for both.
trait Symbol: Copy + Default {
    /// The symbol's slot in a packed lookup of `ALPHABET + 1` entries: the
    /// symbol itself, or `ALPHABET` for the run marker.
    fn slot(self) -> usize;
    /// The symbol in the low bits of a decode-table entry (or of a symbol
    /// the canonical walk found).  Only a `u32` buffer receives the marker.
    fn from_entry(entry: u64) -> Self;
}

impl Symbol for u16 {
    #[inline(always)]
    fn slot(self) -> usize {
        usize::from(self)
    }
    #[inline(always)]
    fn from_entry(entry: u64) -> Self {
        entry as u16
    }
}

impl Symbol for u32 {
    #[inline(always)]
    fn slot(self) -> usize {
        (self as usize).min(ALPHABET)
    }
    #[inline(always)]
    fn from_entry(entry: u64) -> Self {
        entry as u32
    }
}

/// Reusable decoder state: the prefix tables, canonical decode arrays, and
/// the intermediate symbol buffers for RLE expansion and the fused decode.
/// Obtain one via `Default` (or as part of [`crate::CodecScratch`]) and pass
/// it to [`decode_multi_into`]; buffers grow to the high-water mark and
/// stay there.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// First level: `2^min(PEEK, max_len)` entries, each `len << 32 | sym`
    /// (one `u64` load per lookup) or a [`MISS`].
    table: Vec<u64>,
    /// Second level: `len << 32 | sym` (full code length) by the bits
    /// after the first [`PEEK`]; 0 = slow path.
    sub: Vec<u64>,
    /// Parsed `(symbol, length)` pairs in the table's (symbol) order.
    listed: Vec<(u32, u8)>,
    /// The same pairs in canonical order.
    lengths: Vec<(u32, u8)>,
    /// Per-length first canonical code.
    first_code: Vec<u64>,
    /// Per-length code count.
    count: Vec<u32>,
    /// Per-length offset of the first symbol in canonical order.
    offset: Vec<u32>,
    /// Symbols in canonical order (parallel to `lengths`).
    syms: Vec<u32>,
    /// Decoded pre-RLE-expansion symbol stream, run markers included.
    transformed: Vec<u32>,
    /// Parsed run lengths.
    runs: Vec<u32>,
    /// The fused decode's per-lane symbol chunks, [`CHUNK`] apart.
    chunks: Vec<u16>,
}

/// Reusable encoder state, grow-only: the block writer's histogram and
/// code lookup, its RLE buffers, and the symbol-side buffers of the backend
/// that feeds it (see [`with_encode_scratch`]).
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// The block's histogram, whose window also holds its code lookup.
    hist: Histogram,
    /// RLE-collapsed symbols of the segments that hold a run, run markers
    /// included.
    transformed: Vec<u32>,
    /// Collected run lengths.
    runs: Vec<u32>,
    /// The calling backend's symbol stream.
    pub(crate) symbols: Vec<u16>,
    /// The calling backend's lattice indices (SZ).
    pub(crate) lattice: Vec<i32>,
    /// The calling backend's escaped values, segment by segment (SZ).
    pub(crate) outliers: Vec<f32>,
}

/// A block's histogram and the grow-only tables that collect it.
#[derive(Debug, Default)]
struct Histogram {
    /// One word per symbol of the alphabet and one for the run marker,
    /// all-zero between calls.  First the frequencies — `u64`, so a block
    /// of 2^32 symbols or more counts exactly — which the collection takes
    /// and zeroes; then the packed codes ([`build_packed_lut`]), which the
    /// block writer zeroes once the payloads are written.  One window for
    /// both keeps the encoder's scratch at 512 KiB: with a second window
    /// (1 MiB in all) a new serve worker's first block cost `net_small`'s
    /// `setup_s` ≈ 0.75 ms more, which fixed malloc thresholds took away.
    window: Vec<u64>,
    /// Window slots in the order their counts left zero.
    touched: Vec<u32>,
    /// One bit per window slot of `touched`; all-zero between calls.
    seen: Vec<u64>,
    /// `(symbol, frequency)` in ascending symbol order.
    sorted: Vec<(u32, u64)>,
}

thread_local! {
    static ENC_SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::default());
}

/// Runs `f` on this thread's [`EncodeScratch`].  A backend that keeps its
/// symbols in the scratch moves the buffer out (`std::mem::take`) around
/// its [`encode_multi_with`] call and puts it back afterwards.
pub(crate) fn with_encode_scratch<R>(f: impl FnOnce(&mut EncodeScratch) -> R) -> R {
    ENC_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Flag-byte value marking a raw fixed-width (16-bit) symbol payload in
/// the multi-stream block: no code table, no RLE, symbols stored as `u16`
/// little-endian.  Payload kinds `0`/`1` are Huffman's: `1` a block with
/// runs, `0` one without (see [`encode_multi_with`]).
pub const FLAG_RAW16: u8 = 2;

/// Estimated size in bytes of the Huffman-coded block for a collapsed
/// symbol stream with histogram `sorted`, table included.  Uses integer
/// `ilog2` in place of the tree build, so the raw-vs-Huffman decision
/// costs one pass over the *distinct* symbols, not a tree construction.
/// `log2(n/f)` rounded against raw16 (over-estimating code lengths), so
/// borderline distributions keep the exact Huffman path; the table is
/// charged two bytes an entry (a gap varint of up to two bytes and a
/// nibble or a little more of length).
fn estimated_huffman_bytes(sorted: &[(u32, u64)], n_sym: u64) -> usize {
    let log2n = u64::BITS - n_sym.max(1).leading_zeros(); // ceil-ish log2
    let mut bits = 0u64;
    for &(_, f) in sorted {
        let len = (log2n - (u64::BITS - 1 - f.max(1).leading_zeros())).max(1);
        bits += f * u64::from(len);
    }
    2 + 2 * sorted.len() + (bits / 8) as usize
}

/// Whether the multi-stream encoder should store this block as raw 16-bit
/// symbols instead of Huffman codes: when the estimated Huffman block
/// (codes + table + run varints) is no smaller than the fixed-width
/// payload — the incompressible regime tight error bounds push the
/// quantizer into, where the tree build and bit-packing are pure overhead.
fn choose_raw16(sorted: &[(u32, u64)], n_original: usize, n_runs: usize) -> bool {
    let n_sym: u64 = sorted.iter().map(|&(_, f)| f).sum();
    2 * n_original < estimated_huffman_bytes(sorted, n_sym) + 2 * n_runs
}

/// Encodes `symbols`, cut into the `n_streams` segments of
/// [`split_even`], against one shared code table but into independent
/// payloads, one per segment, so they can be decoded as parallel lanes.
/// The block does not record the symbol count or the segment count: its
/// decoder is handed both ([`decode_multi_into`]).  See the module docs.
///
/// # Panics
/// If `n_streams` is 0 or exceeds [`crate::format::MAX_STREAMS`].
#[cfg(test)]
pub(crate) fn encode_multi(symbols: &[u16], n_streams: usize) -> Vec<u8> {
    let mut out = Vec::new();
    encode_multi_into(symbols, n_streams, &mut out);
    out
}

/// Encodes `symbols`, cut into the `n_streams` segments of
/// [`split_even`], against one shared code table but into independent
/// payloads appended to `out`, one per segment, so they can be decoded as
/// parallel lanes.  Runs on the thread-local [`EncodeScratch`].
pub fn encode_multi_into(symbols: &[u16], n_streams: usize, out: &mut Vec<u8>) {
    with_encode_scratch(|s| encode_multi_with(symbols, n_streams, out, s));
}

const RUN_STRIDE: usize = 8;
const RUN_SAMPLES: usize = MIN_RUN / RUN_STRIDE;

/// Whether `seg` can hold a run of [`MIN_RUN`]: [`RUN_SAMPLES`]
/// consecutive samples at [`RUN_STRIDE`] are equal — necessary for such a
/// run, which covers at least that many sample points wherever it starts.
/// One pass over every [`RUN_STRIDE`]-th symbol.
fn may_hold_run(seg: &[u16]) -> bool {
    let mut maybe_run = false;
    let mut streak = 1usize;
    let mut samples = seg.iter().step_by(RUN_STRIDE);
    if let Some(mut prev) = samples.next() {
        for v in samples {
            streak = if v == prev { streak + 1 } else { 1 };
            maybe_run |= streak >= RUN_SAMPLES;
            prev = v;
        }
    }
    maybe_run
}

/// One segment's symbols as the block writer reads them: the caller's, or
/// collapsed into scratch with run markers among them.
#[derive(Clone, Copy)]
enum Source<'a> {
    Plain(&'a [u16]),
    Collapsed(&'a [u32]),
}

/// [`encode_multi_into`] with caller-owned scratch state.
///
/// Block layout (varints are [`crate::traits::write_varint`]'s):
///
/// ```text
/// flag u8                                  — payload kind | length width
/// kind 1 only, per stream: n_runs varint | (run length − 1) varint*
/// kind 0/1: code table (see below) | per stream: payload bytes varint
/// concatenated payloads
/// ```
///
/// An empty input writes no block at all.  The flag's low two bits are the
/// payload kind: `0` Huffman codes with no runs (every symbol is a `u16`
/// of data), `1` Huffman codes with runs (at least one), or
/// [`FLAG_RAW16`]: raw payloads store the symbols as fixed-width `u16`
/// little-endian, and nothing follows the flag but the payloads (their
/// lengths are two bytes a symbol).  Bits 2–3 of a Huffman flag are the
/// code-length width ([`length_width`]); every other bit is zero.  The
/// encoder picks raw16 when the histogram says Huffman cannot beat 16
/// bits/symbol — the incompressible regime where entropy coding is pure
/// overhead in both directions.
///
/// The code table is `n_distinct` varint, then the symbols in ascending
/// order — the first as a varint, each later one as the varint of its gap
/// to the one before, less one — then each symbol's code length in that
/// order, `width` bits each, packed low bits first and zero-padded to a
/// whole byte.  Every listed symbol is below 2^16.  In a kind-1 block the
/// last symbol is the run marker, whose symbol is implied (only its length
/// is written).  The canonical code is the symbols ordered by length, then
/// by symbol.
///
/// Runs of ≥ [`MIN_RUN`] identical symbols are collapsed to a
/// `(symbol, RUN_MARKER)` pair plus an out-of-band run length, so smooth
/// data — where the quantizer emits the same code for long stretches —
/// decodes at memory speed instead of per-symbol entropy-decode speed.
/// (This is the behaviour that makes real SZ's decompression fast at loose
/// tolerances, the Fig. 7 regime.)  Runs are collapsed **per segment**, so
/// a run marker never leads a sub-stream and expansion needs no cross-lane
/// state.  A segment's payload symbol count follows from its length and
/// its run lengths, so it is not written either.
///
/// Before anything is copied, [`may_hold_run`] samples which segments can
/// hold a run at all.  Only those segments are copied (collapsed) into
/// scratch; the rest are counted and coded straight from the caller's
/// slices.
pub fn encode_multi_with(
    symbols: &[u16],
    n_streams: usize,
    out: &mut Vec<u8>,
    s: &mut EncodeScratch,
) {
    let _span = errflow_obs::trace::span("codec.huffman.encode_multi");
    let parts = split_even(symbols.len(), n_streams);
    let mut segments: [&[u16]; MAX_STREAMS] = [&[]; MAX_STREAMS];
    for (seg, &(off, len)) in segments.iter_mut().zip(&parts) {
        *seg = &symbols[off..off + len];
    }
    let segments = &segments[..n_streams];
    let n_original = symbols.len();
    if n_original == 0 {
        return;
    }

    let EncodeScratch {
        hist,
        transformed,
        runs,
        ..
    } = s;
    let scan_span = errflow_obs::trace::span("codec.huffman.scan");
    transformed.clear();
    runs.clear();
    // Each collapsed segment's `[start, end)` in `transformed` and `runs`;
    // a segment coded from the caller's slice has none.
    let mut t_bounds = [None; MAX_STREAMS];
    let mut r_bounds = [(0usize, 0usize); MAX_STREAMS];
    for (i, seg) in segments.iter().enumerate() {
        let (t0, r0) = (transformed.len(), runs.len());
        if may_hold_run(seg) {
            rle_collapse(seg, transformed, runs);
            t_bounds[i] = Some((t0, transformed.len()));
        }
        r_bounds[i] = (r0, runs.len());
    }
    let (transformed, runs) = (&*transformed, &*runs);
    let mut sources = [Source::Plain(&[]); MAX_STREAMS];
    for ((source, seg), bounds) in sources.iter_mut().zip(segments).zip(t_bounds) {
        *source = match bounds {
            Some((t0, t1)) => Source::Collapsed(&transformed[t0..t1]),
            None => Source::Plain(seg),
        };
    }
    let sources = &sources[..n_streams];
    drop(scan_span);

    // Histogram once, then pick the payload mode: the same frequencies
    // feed either the raw16 decision (incompressible inputs skip the tree
    // build and bit-packing entirely) or the Huffman tree below.
    let hist_span = errflow_obs::trace::span("codec.huffman.histogram");
    frequencies(sources, runs.len(), hist);
    let Histogram { window, sorted, .. } = hist;
    drop(hist_span);
    if choose_raw16(sorted, n_original, runs.len()) {
        out.push(FLAG_RAW16);
        for seg in segments {
            let start = out.len();
            out.resize(start + 2 * seg.len(), 0);
            for (dst, &sym) in out[start..].chunks_exact_mut(2).zip(*seg) {
                dst.copy_from_slice(&sym.to_le_bytes());
            }
        }
        return;
    }

    let code_span = errflow_obs::trace::span("codec.huffman.code");
    let depths = code_lengths_from_sorted(sorted);
    let max_len = depths.iter().copied().max().unwrap_or(1);
    let with_runs = !runs.is_empty();
    let width = length_width(max_len);
    out.push(u8::from(with_runs) | (width - 4) << 2);
    if with_runs {
        for &(r0, r1) in &r_bounds[..n_streams] {
            write_varint(out, (r1 - r0) as u64);
            for &r in &runs[r0..r1] {
                write_varint(out, u64::from(r));
            }
        }
    }
    let listed: Vec<(u32, u8)> = sorted.iter().map(|&(sym, _)| sym).zip(depths).collect();
    write_code_table(&listed, with_runs, width, out);
    build_packed_lut(&listed, &length_counts(&listed), window);
    drop(code_span);

    let _payload_span = errflow_obs::trace::span("codec.huffman.payload");
    // Payload lengths precede the payloads, and a varint's width is only
    // known once its payload is written: the payloads go in behind a gap
    // wide enough for any of their lengths, the lengths into the gap's
    // start, and the payloads move down to meet them.
    let lut = &window[..];
    let lens_at = out.len();
    // Exact size of all payloads from the histogram; each sub-stream pads
    // to a whole byte and the writer stores eight bytes at a time.
    let bits: u64 = sorted
        .iter()
        .map(|&(sym, f)| f * (lut[sym.slot()] & 63))
        .sum();
    let total = (bits / 8) as usize + n_streams;
    let payload_at = lens_at + n_streams * varint_width(total as u64);
    let mut payload_lens = [0u64; MAX_STREAMS];
    let mut pos = payload_at;
    out.resize(pos + total + 8, 0);
    for (len, &source) in payload_lens.iter_mut().zip(sources) {
        let end = write_payload(out, pos, source, lut, max_len);
        *len = (end - pos) as u64;
        pos = end;
    }
    out.truncate(pos);
    for &(sym, _) in &listed {
        window[sym.slot()] = 0;
    }
    let mut lens = Vec::with_capacity(n_streams * 10);
    for &len in &payload_lens[..n_streams] {
        write_varint(&mut lens, len);
    }
    out[lens_at..lens_at + lens.len()].copy_from_slice(&lens);
    out.copy_within(payload_at.., lens_at + lens.len());
    out.truncate(out.len() - (payload_at - lens_at - lens.len()));
}

/// Bytes [`write_varint`] takes for `v`.
fn varint_width(v: u64) -> usize {
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Bits per code length in a block whose longest code is `max_len`: a
/// nibble when every code has at most 15 bits (always, below about 2 000
/// symbols, and on every served payload), else 5 or 6.
fn length_width(max_len: u8) -> u8 {
    match max_len {
        0..=15 => 4,
        16..=31 => 5,
        _ => 6,
    }
}

/// Writes the code table of [`encode_multi_with`]'s layout: `listed`'s
/// symbols (ascending) and code lengths, the last symbol implied when it
/// is the run marker of a block `with_runs`.
fn write_code_table(listed: &[(u32, u8)], with_runs: bool, width: u8, out: &mut Vec<u8>) {
    write_varint(out, listed.len() as u64);
    let mut next = 0u64;
    for &(sym, _) in &listed[..listed.len() - usize::from(with_runs)] {
        write_varint(out, u64::from(sym) - next);
        next = u64::from(sym) + 1;
    }
    let (mut acc, mut nbits) = (0u32, 0u32);
    for &(_, len) in listed {
        acc |= u32::from(len) << nbits;
        nbits += u32::from(width);
        if nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
}

/// Collapses runs of ≥ [`MIN_RUN`] identical symbols of a segment into
/// `transformed` / `runs`.  A run of `s` with length `L` becomes
/// `[s, RUN_MARKER]` plus an out-of-band count `L − 1`; the literal
/// stretches between runs are copied in bulk.
fn rle_collapse(symbols: &[u16], transformed: &mut Vec<u32>, runs: &mut Vec<u32>) {
    let mut literal_from = 0;
    let mut i = 0;
    while i < symbols.len() {
        let s = symbols[i];
        let mut j = i + 1;
        while j < symbols.len() && symbols[j] == s && j - i < u32::MAX as usize {
            j += 1;
        }
        if j - i >= MIN_RUN {
            transformed.extend(symbols[literal_from..i].iter().map(|&s| u32::from(s)));
            transformed.push(u32::from(s));
            transformed.push(RUN_MARKER);
            runs.push((j - i - 1) as u32);
            literal_from = j;
        }
        i = j;
    }
    transformed.extend(symbols[literal_from..].iter().map(|&s| u32::from(s)));
}

/// Symbol frequencies in ascending symbol order into `h.sorted`, the run
/// marker last with `n_runs` (one marker per run).
///
/// The cost is the symbols plus the distinct symbols, not the alphabet
/// (an SZ block spans nearly all of it: a handful of segment-start symbols
/// stretch any block's that far).  A count leaving zero lists its slot;
/// the list sets one bit per slot in a bitmap, and the collection reads
/// the bitmap between the first and last word it set, in ascending order,
/// taking and zeroing each listed count, so the grow-only tables are
/// all-zero again between calls.  (Reading the whole window for nonzero
/// counts instead, 64 slots per vectorised test, measured as fast only
/// while the table sat in cache; between served requests it does not.)
fn frequencies(sources: &[Source<'_>], n_runs: usize, h: &mut Histogram) {
    // Growing allocates afresh: zeroed memory from the allocator is only
    // touched where a symbol lands, where a resize would write the whole
    // window on a thread's first block.
    if h.window.len() <= ALPHABET {
        h.window = vec![0; ALPHABET + 1];
    }
    let counts = &mut h.window[..ALPHABET];
    let touched = &mut h.touched;
    touched.clear();
    for &source in sources {
        match source {
            Source::Plain(symbols) => count(symbols, counts, touched),
            Source::Collapsed(symbols) => count(symbols, counts, touched),
        }
    }
    let words = ALPHABET / 64;
    if h.seen.len() < words {
        h.seen = vec![0; words];
    }
    let seen = &mut h.seen[..words];
    let (mut lo, mut hi) = (words, 0);
    for &slot in touched.iter() {
        let w = slot as usize / 64;
        seen[w] |= 1 << (slot % 64);
        (lo, hi) = (lo.min(w), hi.max(w));
    }
    h.sorted.clear();
    // Only the words between the first and the last touched one: a block
    // of a few nearby symbols reads a few words, not a thousand.
    for (w, word) in seen.iter_mut().enumerate().take(hi + 1).skip(lo) {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            let slot = 64 * w + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            h.sorted
                .push((slot as u32, std::mem::take(&mut counts[slot])));
        }
    }
    if n_runs > 0 {
        // RUN_MARKER is u32::MAX: appending keeps ascending order.
        h.sorted.push((RUN_MARKER, n_runs as u64));
    }
}

/// Counts `symbols` into `counts`, listing in `touched` each slot whose
/// count leaves zero.  The run marker's slot lies past `counts`: the
/// lookup skips it, and [`frequencies`] counts the runs instead.
#[inline(always)]
fn count<S: Symbol>(symbols: &[S], counts: &mut [u64], touched: &mut Vec<u32>) {
    for &sym in symbols {
        let slot = sym.slot();
        if let Some(count) = counts.get_mut(slot) {
            if *count == 0 {
                touched.push(slot as u32);
            }
            *count += 1;
        }
    }
}

/// Writes into `lut`, `ALPHABET + 1` words, one packed word per symbol of
/// `listed` (whose lengths `per_len` counts): the bit-reversed canonical
/// code above the 6-bit length.  The writer emits LSB-first, so the
/// reversed code produces the MSB-first stream order decoding needs.  Only
/// the slots of `listed` are written, and only they are read.
fn build_packed_lut(listed: &[(u32, u8)], per_len: &[u32; 64], lut: &mut [u64]) {
    for (sym, len, code) in canonical_codes(listed, first_codes(per_len)) {
        lut[sym.slot()] = (bitrev(code, len) << 6) | u64::from(len);
    }
}

/// Codes per payload store for a block whose longest code is `max_len`
/// bits: as many as fit a 64-bit accumulator behind seven pending bits
/// with one bit to spare — so the accumulator never holds all 64 and the
/// shift that drops the stored bytes stays below 64 — from one to four.
/// One code per store takes any code of up to 56 bits, and no block
/// reaches past that: a Huffman code of length L needs a block weight of
/// at least F(L + 2) (Fibonacci), so a block of fewer than 2^32 symbols
/// has codes of at most 45 bits, and a 57-bit code takes F(59) ≈ 9.6·10^11.
fn codes_per_store(max_len: u8) -> u32 {
    (56 / u32::from(max_len.max(1))).clamp(1, 4)
}

/// [`write_packed`] at [`codes_per_store`] for a block whose longest code
/// is `max_len` bits, at the width `source` holds.
fn write_payload(
    out: &mut [u8],
    pos: usize,
    source: Source<'_>,
    lut: &[u64],
    max_len: u8,
) -> usize {
    match source {
        Source::Plain(symbols) => write_at(out, pos, symbols, lut, max_len),
        Source::Collapsed(symbols) => write_at(out, pos, symbols, lut, max_len),
    }
}

/// [`write_payload`] for one symbol width.
#[inline(always)]
fn write_at<S: Symbol>(
    out: &mut [u8],
    pos: usize,
    symbols: &[S],
    lut: &[u64],
    max_len: u8,
) -> usize {
    match codes_per_store(max_len) {
        4 => write_packed::<S, 4>(out, pos, symbols, lut),
        3 => write_packed::<S, 3>(out, pos, symbols, lut),
        2 => write_packed::<S, 2>(out, pos, symbols, lut),
        _ => write_packed::<S, 1>(out, pos, symbols, lut),
    }
}

/// Codes one sub-stream through the packed lookup straight into
/// `out[pos..]`, which the caller sized for it; returns the payload's end.
/// `K` codes at a time go into a 64-bit accumulator behind at most seven
/// pending bits ([`codes_per_store`]); it is stored whole and keeps the
/// bits of its last partial byte — the bytes a bit-at-a-time writer would
/// produce, without the staging buffers.
fn write_packed<S: Symbol, const K: usize>(
    out: &mut [u8],
    mut pos: usize,
    symbols: &[S],
    lut: &[u64],
) -> usize {
    let mut acc = 0u64;
    let mut nbits = 0u32;
    let mut groups = symbols.chunks_exact(K);
    for group in &mut groups {
        for &sym in group {
            let entry = lut[sym.slot()];
            acc |= (entry >> 6) << nbits;
            nbits += (entry & 63) as u32;
        }
        out[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
        pos += (nbits >> 3) as usize;
        acc >>= nbits & !7;
        nbits &= 7;
    }
    for &sym in groups.remainder() {
        let entry = lut[sym.slot()];
        acc |= (entry >> 6) << nbits;
        nbits += (entry & 63) as u32;
    }
    out[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
    pos + nbits.div_ceil(8) as usize
}

/// How many of `listed`'s codes have each length.
fn length_counts(listed: &[(u32, u8)]) -> [u32; 64] {
    let mut per_len = [0u32; 64];
    for &(_, len) in listed {
        per_len[usize::from(len & 63)] += 1;
    }
    per_len
}

/// The first canonical code of each length when `per_len[l]` codes have
/// length `l`: the codes of one length are consecutive, and the first
/// follows the last code of the length before, one bit longer.  (A
/// Kraft-complete table whose last code is the all-ones 63-bit one shifts
/// a bit past it; that value is never used.)
fn first_codes(per_len: &[u32; 64]) -> [u64; 64] {
    let mut first = [0u64; 64];
    let mut code = 0u64;
    let longest = per_len.iter().rposition(|&c| c != 0).unwrap_or(0);
    for (slot, &count) in first[1..=longest].iter_mut().zip(&per_len[1..]) {
        *slot = code;
        code = code.wrapping_add(u64::from(count)).wrapping_shl(1);
    }
    first
}

/// `listed`, `(symbol, length)` pairs in ascending symbol order, each with
/// its canonical code: codes are assigned by length, then by symbol, so a
/// symbol's code is its length's first (`first`, from [`first_codes`])
/// plus its rank among the symbols of that length.
fn canonical_codes(
    listed: &[(u32, u8)],
    first: [u64; 64],
) -> impl Iterator<Item = (u32, u8, u64)> + '_ {
    let mut next = first;
    listed.iter().map(move |&(sym, len)| {
        let slot = &mut next[usize::from(len & 63)];
        let code = *slot;
        *slot = code.wrapping_add(1);
        (sym, len, code)
    })
}

/// Inverse of [`rle_collapse`], scoped to one segment: appends
/// exactly `n_original` symbols onto `out` (which may already hold earlier
/// segments); run expansion is a single `Vec::resize` fill per run (memset
/// speed for the dominant-symbol stretches that make up smooth-field
/// streams).  A run marker's
/// predecessor must lie **inside** this segment — the encoder collapses
/// runs per segment, so a marker leading a segment is corruption, and a
/// run can never replicate another sub-stream's data.  Every symbol of
/// `transformed` but the marker came from a code table, which lists none
/// past `u16`.
fn rle_expand_segment(
    transformed: &[u32],
    runs: &[u32],
    n_original: usize,
    out: &mut Vec<u16>,
) -> Result<(), CompressError> {
    let seg_start = out.len();
    let target = seg_start + n_original;
    let mut run_it = runs.iter();
    for &s in transformed {
        if s == RUN_MARKER {
            let &count = run_it.next().ok_or_else(|| {
                CompressError::CorruptStream("run marker without a run length".into())
            })?;
            if out.len() == seg_start {
                return Err(CompressError::CorruptStream(
                    "run marker at stream start".into(),
                ));
            }
            let prev = out[out.len() - 1];
            // Reject before materialising: a corrupt run length must not
            // drive a giant allocation just to fail the length check.
            if count as usize > target - out.len() {
                return Err(CompressError::CorruptStream(
                    "expanded stream longer than declared".into(),
                ));
            }
            out.resize(out.len() + count as usize, prev);
        } else {
            if out.len() >= target {
                return Err(CompressError::CorruptStream(
                    "expanded stream longer than declared".into(),
                ));
            }
            out.push(s as u16);
        }
    }
    if out.len() != target {
        return Err(CompressError::CorruptStream(format!(
            "expanded to {} symbols, expected {n_original}",
            out.len() - seg_start
        )));
    }
    if run_it.next().is_some() {
        return Err(CompressError::CorruptStream(
            "run lengths without a run marker".into(),
        ));
    }
    Ok(())
}

/// Parses and validates the code table of [`encode_multi_with`]'s layout
/// — `width`-bit lengths, the run marker implied last when the block has
/// `runs` — leaving the `(symbol, length)` pairs in `s.listed`.  Returns the
/// maximum code length and the count of codes of each length.  Every
/// listed symbol must be in the `u16` alphabet (the implied marker above
/// them all), every length must be nonzero, the width must be the
/// narrowest that holds the longest, the padding bits clear, and the
/// lengths must satisfy the Kraft inequality.
fn parse_code_table(
    stream: &[u8],
    pos: &mut usize,
    s: &mut DecodeScratch,
    width: u8,
    runs: bool,
) -> Result<(u8, [u32; 64]), CompressError> {
    let corrupt = |why: &str| Err(CompressError::CorruptStream(format!("code table: {why}")));
    let n_distinct = read_varint_len(stream, pos, "code table size")?;
    // Each listed symbol takes at least one byte: a valid `n_distinct`
    // never exceeds what the remaining stream can hold.
    let explicit = n_distinct.saturating_sub(usize::from(runs));
    if n_distinct == 0 || explicit > stream.len() - *pos {
        return corrupt("size out of range");
    }
    s.listed.clear();
    s.listed.resize(n_distinct, (RUN_MARKER, 0));
    // Symbols only grow, so one check after the loop finds any symbol past
    // the alphabet (the sums saturate rather than wrap on forged gaps).
    let mut next = 0u64;
    for entry in &mut s.listed[..explicit] {
        let gap = read_varint(stream, pos, u64::MAX, "code table symbol")?;
        entry.0 = next.saturating_add(gap) as u32;
        next = next.saturating_add(gap).saturating_add(1);
    }
    if next > ALPHABET as u64 {
        return corrupt("symbol past the alphabet");
    }
    let bits = n_distinct * usize::from(width);
    let Some(packed) = stream
        .get(*pos..)
        .and_then(|rest| rest.get(..bits.div_ceil(8)))
    else {
        return corrupt("truncated lengths");
    };
    *pos += packed.len();
    // Each length is in the 16 bits from its first byte on.
    let mask = (1u16 << width) - 1;
    let mut per_len = [0u32; 64];
    let mut max_len = 0u8;
    for (entry, bit) in s.listed.iter_mut().zip((0..).step_by(usize::from(width))) {
        let pair = [
            packed[bit / 8],
            packed.get(bit / 8 + 1).copied().unwrap_or(0),
        ];
        let len = ((u16::from_le_bytes(pair) >> (bit % 8)) & mask) as u8;
        per_len[usize::from(len & 63)] += 1;
        max_len = max_len.max(len);
        entry.1 = len;
    }
    if per_len[0] != 0 {
        return corrupt("zero code length");
    }
    if bits % 8 != 0 && packed[packed.len() - 1] >> (bits % 8) != 0 {
        return corrupt("padding bits set");
    }
    if length_width(max_len) != width {
        return corrupt("length width is not the narrowest");
    }
    // Kraft check: Σ 2^(max−len) must not exceed 2^max, or the canonical
    // code assignment overflows (only possible with corrupt tables).
    let kraft: u128 = (1..=max_len)
        .map(|len| u128::from(per_len[usize::from(len)]) << (max_len - len))
        .sum();
    if kraft > (1u128 << max_len) {
        return corrupt("lengths violate the Kraft inequality");
    }
    Ok((max_len, per_len))
}

/// Builds the canonical decode arrays and both prefix-table levels in one
/// pass over the code table in `s.listed` (symbol order), whose lengths
/// `per_len` counts: each symbol's canonical position and code follow from
/// the counts and its rank among the symbols of its length, so the pass
/// also leaves the canonical order in `s.lengths` and `s.syms`.  The first
/// level is `2^min(PEEK, max_len)` entries wide: a block whose longest code
/// is shorter than [`PEEK`] — every small payload — fills a table of that
/// width.  Longer codes go to the second level ([`build_second_level`]).
fn build_canon_arrays(s: &mut DecodeScratch, per_len: &[u32; 64], max_len: u8) {
    let table_bits = PEEK.min(max_len as u32);
    let lens = usize::from(max_len) + 1;
    let first = first_codes(per_len);
    let DecodeScratch {
        table,
        first_code,
        count,
        offset,
        listed,
        syms,
        lengths,
        ..
    } = &mut *s;
    table.clear();
    table.resize(1 << table_bits, MISS);
    first_code.clear();
    first_code.extend_from_slice(&first[..lens]);
    count.clear();
    count.extend_from_slice(&per_len[..lens]);
    offset.clear();
    let mut at = 0;
    offset.extend(per_len[..lens].iter().map(|&c| {
        at += c;
        at - c
    }));
    syms.clear();
    syms.resize(listed.len(), 0);
    lengths.clear();
    lengths.resize(listed.len(), (0, 0));
    for (sym, len, code) in canonical_codes(listed, first) {
        let l = usize::from(len);
        let i = offset[l] as usize + (code - first[l]) as usize;
        syms[i] = sym;
        lengths[i] = (sym, len);
        if u32::from(len) <= table_bits {
            let packed = (u64::from(len) << 32) | u64::from(sym);
            let mut idx = bitrev(code, len) as usize;
            while idx < table.len() {
                table[idx] = packed;
                idx += 1usize << len;
            }
        }
    }
    let first_long = per_len[1..=table_bits as usize].iter().sum::<u32>();
    build_second_level(s, first_long as usize);
}

/// Second-level tables for the codes longer than [`PEEK`] bits, which
/// start at canonical position `first_long`.  Codes that share their first
/// [`PEEK`] bits are consecutive in canonical order and the last is the
/// longest, so each such prefix gets one table as wide as that code's
/// remaining bits, and its first-level entry points there.  A prefix wider
/// than [`SUB_BITS`] or past [`SUB_BUDGET`] keeps the bare [`MISS`]: its
/// codes take the canonical walk.
fn build_second_level(s: &mut DecodeScratch, first_long: usize) {
    s.sub.clear();
    let code_at = |s: &DecodeScratch, i: usize| {
        let len = s.lengths[i].1;
        let code =
            s.first_code[len as usize].wrapping_add(u64::from(i as u32 - s.offset[len as usize]));
        (code, len as u32)
    };
    let mut i = first_long;
    while i < s.lengths.len() {
        let (code, len) = code_at(s, i);
        let prefix = code >> (len - PEEK);
        let mut end = i + 1;
        let mut longest = len;
        while end < s.lengths.len() {
            let (c, l) = code_at(s, end);
            if c >> (l - PEEK) != prefix {
                break;
            }
            longest = l;
            end += 1;
        }
        let width = longest - PEEK;
        let at = s.sub.len();
        if width <= SUB_BITS && at + (1 << width) <= SUB_BUDGET {
            s.sub.resize(at + (1 << width), 0);
            for k in i..end {
                let (c, l) = code_at(s, k);
                let rest = (l - PEEK) as u8;
                let packed = (u64::from(l) << 32) | u64::from(s.lengths[k].0);
                let mut idx = bitrev(c, rest) as usize;
                while idx < 1 << width {
                    s.sub[at + idx] = packed;
                    idx += 1usize << rest;
                }
            }
            s.table[bitrev(prefix, PEEK as u8) as usize] =
                MISS | (u64::from(width) << SUB_SHIFT) | at as u64;
        }
        i = end;
    }
}

/// One parsed sub-stream of a multi-stream block.
#[derive(Clone, Copy, Default)]
struct SubStream {
    /// Declared post-expansion symbol count.
    n_original: usize,
    /// Declared pre-expansion (payload) symbol count.
    n_symbols: usize,
    /// This sub-stream's `[start, end)` in the shared run-length buffer.
    runs: (usize, usize),
    /// `(byte offset, byte length)` of this sub-stream's payload within
    /// the shared payload region.
    payload: (usize, usize),
}

/// How a parsed block's payloads decode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No symbols at all.
    Empty,
    /// Raw 16-bit symbols ([`FLAG_RAW16`]).
    Raw16,
    /// Huffman codes without runs, which decode straight into the output.
    Direct,
    /// Huffman codes with runs to expand, through
    /// `DecodeScratch::transformed`.
    Staged,
}

/// A multi-stream block parsed up to its payloads: every declared count
/// checked against the bytes present, the code table read and the decode
/// tables built.
pub(crate) struct Block<'a> {
    /// The concatenated payloads.
    payload: &'a [u8],
    subs: [SubStream; MAX_STREAMS],
    n_streams: usize,
    n_original: usize,
    /// Bytes of the stream the block occupies.
    consumed: usize,
    mode: Mode,
    max_len: u8,
}

/// Decodes a multi-stream block produced by [`encode_multi_into`] from `n`
/// symbols in `n_streams` segments.  Returns the symbols and the number of
/// bytes consumed.
#[cfg(test)]
pub(crate) fn decode_multi(
    stream: &[u8],
    n: usize,
    n_streams: usize,
) -> Result<(Vec<u16>, usize), CompressError> {
    let mut out = Vec::new();
    let consumed = decode_multi_into(
        stream,
        n,
        n_streams,
        &mut out,
        &mut DecodeScratch::default(),
    )?;
    Ok((out, consumed))
}

/// Decodes a multi-stream block produced by [`encode_multi_into`] from `n`
/// symbols in `n_streams` segments into a caller-owned buffer with
/// reusable scratch.
///
/// `out` is cleared first; on success it holds the decoded symbols and the
/// return value is the number of bytes consumed from `stream`.  Every
/// declared count is validated against the bytes actually present before
/// anything is allocated for it.  Decoding then runs one lane per
/// sub-stream (see [`decode_lanes`]).  A segment count outside
/// `1..=MAX_STREAMS` is a [`CompressError::CorruptStream`].
pub fn decode_multi_into(
    stream: &[u8],
    n: usize,
    n_streams: usize,
    out: &mut Vec<u16>,
    s: &mut DecodeScratch,
) -> Result<usize, CompressError> {
    let _span = errflow_obs::trace::span("codec.huffman.decode_multi");
    out.clear();
    if !(1..=MAX_STREAMS).contains(&n_streams) {
        return Err(CompressError::CorruptStream(format!(
            "sub-stream count {n_streams} outside 1..={MAX_STREAMS}"
        )));
    }
    let block = Block::parse(stream, &split_even(n, n_streams), s)?;
    block.decode_into(s, out)?;
    Ok(block.consumed)
}

impl<'a> Block<'a> {
    /// Parses the header, code table and payload bounds of the block at the
    /// start of `stream` whose segments have the lengths of `parts`, into
    /// `s`'s decode tables.
    pub(crate) fn parse(
        stream: &'a [u8],
        parts: &[(usize, usize)],
        s: &mut DecodeScratch,
    ) -> Result<Self, CompressError> {
        let _span = errflow_obs::trace::span("codec.huffman.table");
        let corrupt = |why: &str| CompressError::CorruptStream(why.into());
        let n_streams = parts.len();
        let mut subs = [SubStream::default(); MAX_STREAMS];
        for (sub, &(_, len)) in subs.iter_mut().zip(parts) {
            sub.n_original = len;
            sub.n_symbols = len;
        }
        let mut block = Block {
            payload: &[],
            subs,
            n_streams,
            n_original: parts.iter().map(|&(_, len)| len).sum(),
            consumed: 0,
            mode: Mode::Empty,
            max_len: 0,
        };
        if block.n_original == 0 {
            return Ok(block);
        }
        let subs = &mut block.subs[..n_streams];
        let mut pos = 0usize;
        let flag = read_u8(stream, &mut pos, "payload flag")?;
        let (kind, width) = (flag & 3, 4 + (flag >> 2));
        if flag == FLAG_RAW16 {
            // Raw fixed-width payload: two bytes a symbol, nothing else.
            let mut total = 0usize;
            for sub in subs.iter_mut() {
                let len = sub.n_symbols.checked_mul(2);
                let end = len.and_then(|len| total.checked_add(len));
                let (Some(len), Some(end)) = (len, end) else {
                    return Err(corrupt("truncated payload"));
                };
                sub.payload = (total, len);
                total = end;
            }
            block.payload = stream
                .get(pos..)
                .and_then(|rest| rest.get(..total))
                .ok_or_else(|| corrupt("truncated payload"))?;
            block.consumed = pos + total;
            block.mode = Mode::Raw16;
            return Ok(block);
        }
        if kind > 1 || width > 6 {
            return Err(CompressError::CorruptStream(format!(
                "unknown payload flag {flag:#04x}"
            )));
        }
        let runs = kind == 1;
        s.runs.clear();
        if runs {
            for sub in subs.iter_mut() {
                let n_runs = read_varint_len(stream, &mut pos, "sub-stream run count")?;
                // Every run costs at least one varint byte: reject forged
                // counts before reserving anything.
                if n_runs > stream.len() - pos {
                    return Err(corrupt("declared run count exceeds stream length"));
                }
                let start = s.runs.len();
                s.runs.reserve(n_runs);
                // A run of `r + 1` symbols codes as two: the payload holds
                // `n_original + n_runs − Σr` symbols.
                let mut n_symbols = sub.n_original.checked_add(n_runs);
                for _ in 0..n_runs {
                    let r = read_varint(stream, &mut pos, u32::MAX.into(), "run length")?;
                    s.runs.push(r as u32);
                    n_symbols = n_symbols.and_then(|n| n.checked_sub(r as usize));
                }
                sub.n_symbols =
                    n_symbols.ok_or_else(|| corrupt("runs longer than their segment"))?;
                sub.runs = (start, s.runs.len());
            }
            if s.runs.is_empty() {
                return Err(corrupt("a block of runs declares none"));
            }
        }
        let (max_len, per_len) = parse_code_table(stream, &mut pos, s, width, runs)?;
        build_canon_arrays(s, &per_len, max_len);
        block.max_len = max_len;

        let mut total_payload = 0usize;
        for sub in subs.iter_mut() {
            let l = read_varint_len(stream, &mut pos, "sub-stream payload length")?;
            sub.payload = (total_payload, l);
            total_payload = total_payload
                .checked_add(l)
                .ok_or_else(|| corrupt("sub-stream payload lengths overflow"))?;
        }
        // Overflow-proof bounds check: slice from `pos` first, then take
        // `total_payload` — `pos + total_payload` is never materialised.
        block.payload = stream
            .get(pos..)
            .and_then(|rest| rest.get(..total_payload))
            .ok_or_else(|| corrupt("truncated payload"))?;
        // Every decoded symbol consumes at least one bit of its own payload.
        if subs
            .iter()
            .any(|sub| sub.n_symbols > sub.payload.1.saturating_mul(8))
        {
            return Err(corrupt("declared symbol count exceeds payload bits"));
        }
        block.consumed = pos + total_payload;
        // A block without runs expands nothing: every symbol is data, and
        // decodes straight into the `u16` output.
        block.mode = if runs { Mode::Staged } else { Mode::Direct };
        Ok(block)
    }

    /// Bytes of the stream the block occupies.
    pub(crate) fn consumed(&self) -> usize {
        self.consumed
    }

    fn subs(&self) -> &[SubStream] {
        &self.subs[..self.n_streams]
    }

    /// Decodes every symbol into `out` (cleared first).
    pub(crate) fn decode_into(
        &self,
        s: &mut DecodeScratch,
        out: &mut Vec<u16>,
    ) -> Result<(), CompressError> {
        let _span = errflow_obs::trace::span("codec.huffman.entropy");
        out.clear();
        match self.mode {
            Mode::Empty => Ok(()),
            Mode::Raw16 => {
                // The payload length, 2·n_original, was checked against the
                // stream, so this resize is bounded by the input's size.
                out.resize(self.n_original, 0);
                let mut dst = out.as_mut_slice();
                let mut rest = self.payload;
                for sub in self.subs() {
                    let (bytes, tail) = rest.split_at(sub.payload.1);
                    rest = tail;
                    let (head, dst_tail) = dst.split_at_mut(sub.n_symbols);
                    dst = dst_tail;
                    for (slot, pair) in head.iter_mut().zip(bytes.chunks_exact(2)) {
                        *slot = u16::from_le_bytes([pair[0], pair[1]]);
                    }
                }
                Ok(())
            }
            Mode::Direct => {
                let (dec, _, _, _) = s.split(self.max_len);
                // Bounded: each sub-stream's symbol count is capped at 8× its
                // payload bytes, so the total is capped by the stream length.
                out.resize(self.n_original, 0);
                decode_whole(self.payload, self.subs(), &dec, out)
            }
            Mode::Staged => {
                let (dec, transformed, runs, _) = s.split(self.max_len);
                let n_symbols: usize = self.subs().iter().map(|sub| sub.n_symbols).sum();
                transformed.clear();
                transformed.resize(n_symbols, 0);
                decode_whole(self.payload, self.subs(), &dec, transformed)?;
                // The segment lengths are the caller's: reserve them.
                out.reserve(self.n_original);
                let mut t_off = 0usize;
                for sub in self.subs() {
                    let seg = &transformed[t_off..t_off + sub.n_symbols];
                    t_off += sub.n_symbols;
                    rle_expand_segment(seg, &runs[sub.runs.0..sub.runs.1], sub.n_original, out)?;
                }
                Ok(())
            }
        }
    }

    /// Hands the symbols of each `parts` segment to `sink(k, chunk)`, the
    /// chunks of one segment in order.  `parts` must cover exactly the
    /// block's symbols.
    ///
    /// When the block decodes [`Mode::Direct`] and its sub-streams are the
    /// segments of `parts`, the lanes decode [`CHUNK`] symbols at a time
    /// into `DecodeScratch::chunks`, and `sink` takes each chunk from
    /// there while it is in L1 — the lanes' chunks in turn, so `sink` sees
    /// the segments interleaved.  Any other block is decoded into
    /// `staging` whole first, and `sink` takes each segment in one piece.
    /// The verdict on corrupt bytes is the same either way; a rejected
    /// stream may have reached `sink` in part.
    pub(crate) fn decode_each(
        &self,
        s: &mut DecodeScratch,
        staging: &mut Vec<u16>,
        parts: &[(usize, usize)],
        mut sink: impl FnMut(usize, &[u16]) -> Result<(), CompressError>,
    ) -> Result<(), CompressError> {
        let fused = self.mode == Mode::Direct
            && parts.len() == self.n_streams
            && parts
                .iter()
                .zip(self.subs())
                .all(|(&(_, len), sub)| len == sub.n_original);
        if !fused {
            self.decode_into(s, staging)?;
            for (k, &(off, len)) in parts.iter().enumerate() {
                let seg = staging.get(off..off + len).ok_or_else(|| {
                    CompressError::CorruptStream("segments disagree with the block".into())
                })?;
                sink(k, seg)?;
            }
            return Ok(());
        }
        let (dec, _, _, chunks) = s.split(self.max_len);
        let n = self.n_streams;
        if chunks.len() < n * CHUNK {
            chunks.resize(n * CHUNK, 0);
        }
        let mut cursors = [LaneCursor::default(); MAX_STREAMS];
        for (cur, sub) in cursors.iter_mut().zip(self.subs()) {
            *cur = LaneCursor::over(sub);
        }
        let longest = self
            .subs()
            .iter()
            .map(|sub| sub.n_symbols)
            .max()
            .unwrap_or(0);
        let mut done = 0usize;
        while done < longest {
            let mut regions: [&mut [u16]; MAX_STREAMS] =
                std::array::from_fn(|_| Default::default());
            let mut rest = &mut chunks[..n * CHUNK];
            for ((region, cur), sub) in regions.iter_mut().zip(&mut cursors).zip(self.subs()) {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(CHUNK);
                rest = tail;
                *region = &mut head[..sub.n_symbols.saturating_sub(done).min(CHUNK)];
                cur.written = 0;
            }
            decode_lanes(self.payload, &dec, &mut cursors[..n], &mut regions[..n])?;
            for (k, region) in regions[..n].iter().enumerate() {
                if !region.is_empty() {
                    sink(k, &region[..])?;
                }
            }
            done += CHUNK;
        }
        Ok(())
    }
}

impl DecodeScratch {
    /// The decode tables of the block just parsed, beside the buffers a
    /// decode writes.
    fn split(&mut self, max_len: u8) -> (Decoder<'_>, &mut Vec<u32>, &mut Vec<u32>, &mut Vec<u16>) {
        let DecodeScratch {
            table,
            sub,
            first_code,
            count,
            offset,
            syms,
            transformed,
            runs,
            chunks,
            ..
        } = self;
        debug_assert!(table.len().is_power_of_two());
        let dec = Decoder {
            table,
            sub,
            first_code,
            count,
            offset,
            syms,
            max_len,
            bits: table.len().trailing_zeros() as usize,
            mask: table.len() as u64 - 1,
        };
        (dec, transformed, runs, chunks)
    }
}

/// Per-lane decode cursor handed from the interleaved loop to the scalar
/// lane decoder: an absolute bit position in the shared payload region, the
/// lane's end bit, and how many symbols it has produced.
#[derive(Clone, Copy, Default)]
struct LaneCursor {
    bitpos: usize,
    end_bit: usize,
    written: usize,
}

impl LaneCursor {
    /// A cursor at the start of `sub`'s payload.
    fn over(sub: &SubStream) -> Self {
        LaneCursor {
            bitpos: sub.payload.0 * 8,
            end_bit: (sub.payload.0 + sub.payload.1) * 8,
            written: 0,
        }
    }
}

/// Decodes every sub-stream into its contiguous region of `dst` (regions
/// ordered by sub-stream, sized `n_symbols` each).
fn decode_whole<S: Symbol>(
    payload: &[u8],
    subs: &[SubStream],
    dec: &Decoder<'_>,
    dst: &mut [S],
) -> Result<(), CompressError> {
    debug_assert_eq!(dst.len(), subs.iter().map(|s| s.n_symbols).sum::<usize>());
    let mut regions: [&mut [S]; MAX_STREAMS] = std::array::from_fn(|_| Default::default());
    let mut cursors = [LaneCursor::default(); MAX_STREAMS];
    let mut rest: &mut [S] = dst;
    for ((region, cur), sub) in regions.iter_mut().zip(&mut cursors).zip(subs) {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(sub.n_symbols);
        *region = head;
        rest = tail;
        *cur = LaneCursor::over(sub);
    }
    let n = subs.len();
    decode_lanes(payload, dec, &mut cursors[..n], &mut regions[..n])
}

/// Fills each lane's region from its cursor on.  Four-lane blocks start in
/// the interleaved loop; the resumable scalar lane decoder runs the lane
/// tails, and the whole decode for any other shape.
fn decode_lanes<S: Symbol>(
    payload: &[u8],
    dec: &Decoder<'_>,
    cursors: &mut [LaneCursor],
    regions: &mut [&mut [S]],
) -> Result<(), CompressError> {
    if let (Ok(four_cursors), Ok(four_regions)) = (
        <&mut [LaneCursor; 4]>::try_from(&mut *cursors),
        <&mut [&mut [S]; 4]>::try_from(&mut *regions),
    ) {
        decode_lanes_ilp4(payload, dec, four_cursors, four_regions)?;
    }
    for (cur, region) in cursors.iter_mut().zip(regions.iter_mut()) {
        decode_lane_scalar(payload, cur, dec, region)?;
        // A lane that ran past its own payload (only possible on a corrupt
        // stream) is rejected here.
        if cur.bitpos > cur.end_bit {
            return Err(CompressError::CorruptStream(
                "sub-stream payload overread".into(),
            ));
        }
    }
    Ok(())
}

/// Interleaved 4-lane table decode — the multi-stream hot loop.
///
/// One lane's decode is a serial chain: window load → table lookup → shift
/// by the code length → next lookup, ~3 dependent loads per symbol.  Four
/// sub-streams give four *independent* chains, and interleaving them lets
/// the out-of-order core run all four at once, hiding most of each chain's
/// latency behind the others'.
///
/// Round structure: enter only while every lane has ≥ 57 trustworthy bits
/// (`end_bit - bitpos`) and ≥ [`ROUND`] symbols of space, load one 57-bit
/// window per lane, then commit [`ROUND`] symbols per lane lockstep.  The
/// table is at most [`PEEK`] bits wide and `ROUND × PEEK ≤ 57`, so a window
/// of table hits never runs dry mid-round and — by the prefix property — a
/// hit never consumes another lane's bits even when the window loaded past
/// this lane's end.  A first-level miss (a long code) takes [`decode_long`]
/// inline for just that lane and reloads its window, so one skewed lane
/// doesn't kick the other three off the fast path; only a lane left with
/// < 57 bits by a long code ends the loop (it is near its tail anyway).
/// Exit always lands every cursor on a committed-symbol boundary, and the
/// resumable scalar decoder finishes the lane tails.
fn decode_lanes_ilp4<S: Symbol>(
    payload: &[u8],
    dec: &Decoder<'_>,
    cursors: &mut [LaneCursor; 4],
    regions: &mut [&mut [S]; 4],
) -> Result<(), CompressError> {
    let (table, mask) = (dec.table, dec.mask);
    let mut pos: [usize; 4] = std::array::from_fn(|i| cursors[i].bitpos);
    let mut wr: [usize; 4] = std::array::from_fn(|i| cursors[i].written);
    let end: [usize; 4] = std::array::from_fn(|i| cursors[i].end_bit);
    let cap: [usize; 4] = std::array::from_fn(|i| regions[i].len());
    let result = loop {
        // Fast rounds: pure table hits, no calls, no per-symbol branches
        // beyond the lockstep miss test — this is the loop that has to
        // schedule well.
        let mut miss = false;
        'fast: loop {
            for i in 0..4 {
                if cap[i] - wr[i] < ROUND || end[i].saturating_sub(pos[i]) < 57 {
                    break 'fast;
                }
            }
            let mut w: [u64; 4] = std::array::from_fn(|i| load_word(payload, pos[i]));
            let [r0, r1, r2, r3] = regions;
            let dst = [
                &mut r0[wr[0]..wr[0] + ROUND],
                &mut r1[wr[1]..wr[1] + ROUND],
                &mut r2[wr[2]..wr[2] + ROUND],
                &mut r3[wr[3]..wr[3] + ROUND],
            ];
            for step in 0..ROUND {
                let e: [u64; 4] = std::array::from_fn(|i| table[(w[i] & mask) as usize]);
                // Test all four lanes *before* committing any, so a miss
                // exits with the lanes in lockstep.
                if (e[0] | e[1] | e[2] | e[3]) & MISS != 0 {
                    miss = true;
                    break 'fast;
                }
                for i in 0..4 {
                    let len = (e[i] >> 32) as usize;
                    w[i] >>= len;
                    pos[i] += len;
                    dst[i][step] = S::from_entry(e[i]);
                    wr[i] += 1;
                }
            }
        }
        if !miss {
            break Ok(());
        }
        // Long-code recovery, off the hot path: decode one symbol for each
        // lane whose next code misses the first level (≤ ROUND − 1 commits
        // since the round-entry check, so every lane still has ≥ 1 slot and
        // ≥ `PEEK` trustworthy bits), then resume fast rounds.
        let mut failed = None;
        for i in 0..4 {
            if end[i].saturating_sub(pos[i]) < dec.bits {
                continue;
            }
            if table[(load_word(payload, pos[i]) & mask) as usize] & MISS == 0 {
                continue;
            }
            match decode_long(payload, &mut pos[i], end[i], dec) {
                Ok(sym) => {
                    regions[i][wr[i]] = S::from_entry(u64::from(sym));
                    wr[i] += 1;
                }
                Err(err) => {
                    failed = Some(err);
                    break;
                }
            }
        }
        if let Some(err) = failed {
            break Err(err);
        }
    };
    // Cursors stay resumable even on a corrupt stream, so callers observe
    // consistent state.
    for i in 0..4 {
        cursors[i].bitpos = pos[i];
        cursors[i].written = wr[i];
    }
    result
}

/// Resumable register-batched decode of one lane: fills
/// `dst[cur.written..]` reading from `payload` between `cur.bitpos` and
/// `cur.end_bit`.
///
/// Hot loop: refill a 64-bit register with ≥ 57 payload bits, then decode
/// table hits back-to-back with one lookup + shift each until fewer than
/// a table index of trustworthy bits remain in the register.  Long codes
/// (a first-level miss) take [`decode_long`], and so do the last bits of
/// the lane, fewer than a table index.  Bounds are lane-relative — bits
/// past `end_bit` belong to the *next* lane and are never consumed, though
/// the 57-bit window may harmlessly observe them (a table entry only ever
/// commits bits of the code itself).
fn decode_lane_scalar<S: Symbol>(
    payload: &[u8],
    cur: &mut LaneCursor,
    dec: &Decoder<'_>,
    dst: &mut [S],
) -> Result<(), CompressError> {
    let (table, mask, peek) = (dec.table, dec.mask, dec.bits);
    while cur.written < dst.len() {
        let rem = cur.end_bit.saturating_sub(cur.bitpos);
        if rem >= peek {
            let mut word = load_word(payload, cur.bitpos);
            let mut left = rem.min(57);
            let mut long_code = false;
            while left >= peek && cur.written < dst.len() {
                let entry = table[(word & mask) as usize];
                if entry & MISS != 0 {
                    long_code = true;
                    break;
                }
                let len = (entry >> 32) as usize;
                word >>= len;
                cur.bitpos += len;
                left -= len;
                dst[cur.written] = S::from_entry(entry);
                cur.written += 1;
            }
            if long_code {
                let sym = decode_long(payload, &mut cur.bitpos, cur.end_bit, dec)?;
                dst[cur.written] = S::from_entry(u64::from(sym));
                cur.written += 1;
            }
            continue;
        }
        // Lane tail: fewer than a table index of trustworthy bits remain,
        // so only accept a table hit whose code fits inside the lane (a
        // miss reads as a length past any lane).
        let entry = table[(load_word(payload, cur.bitpos) & mask) as usize];
        let len = (entry >> 32) as usize;
        let sym = if len <= rem {
            cur.bitpos += len;
            entry
        } else {
            u64::from(decode_long(payload, &mut cur.bitpos, cur.end_bit, dec)?)
        };
        dst[cur.written] = S::from_entry(sym);
        cur.written += 1;
    }
    Ok(())
}

/// Borrowed decode tables of one block: both prefix-table levels and the
/// canonical arrays for the slow (long-code) path.
struct Decoder<'a> {
    table: &'a [u64],
    sub: &'a [u64],
    first_code: &'a [u64],
    count: &'a [u32],
    offset: &'a [u32],
    syms: &'a [u32],
    max_len: u8,
    /// The first level's width (bits) and index mask.
    bits: usize,
    mask: u64,
}

/// Decodes the symbol at `*bitpos` that the first level cannot commit: a
/// code past its width through the second level, or — a prefix without
/// one, a code longer than the lane has bits left, or a corrupt stream —
/// the canonical walk.  A second-level hit commits only a code that fits
/// inside the lane, which is the symbol the walk would find.
#[inline(never)]
fn decode_long(
    payload: &[u8],
    bitpos: &mut usize,
    end_bit: usize,
    dec: &Decoder<'_>,
) -> Result<u32, CompressError> {
    let word = load_word(payload, *bitpos);
    let entry = dec.table[(word & dec.mask) as usize];
    if entry & MISS != 0 && entry != MISS {
        let width = ((entry & !MISS) >> SUB_SHIFT) as u32;
        let at = (entry & ((1 << SUB_SHIFT) - 1)) as usize;
        let hit = dec.sub[at + ((word >> dec.bits) & ((1 << width) - 1)) as usize];
        let len = (hit >> 32) as usize;
        if len != 0 && len <= end_bit.saturating_sub(*bitpos) {
            *bitpos += len;
            return Ok(hit as u32);
        }
    }
    decode_one_slow(payload, bitpos, end_bit, dec)
}

/// Canonical decode of one symbol, bit by bit: O(1) array arithmetic per
/// candidate length instead of a hash probe per bit.
#[cold]
fn decode_one_slow(
    payload: &[u8],
    bitpos: &mut usize,
    total_bits: usize,
    canon: &Decoder<'_>,
) -> Result<u32, CompressError> {
    let mut code = 0u64;
    let mut clen = 0usize;
    loop {
        if *bitpos >= total_bits {
            return Err(CompressError::CorruptStream("payload ended early".into()));
        }
        let bit = (payload[*bitpos >> 3] >> (*bitpos & 7)) & 1;
        *bitpos += 1;
        code = (code << 1) | bit as u64;
        clen += 1;
        if clen > canon.max_len as usize {
            return Err(CompressError::CorruptStream(
                "no symbol matches the read prefix".into(),
            ));
        }
        // `code - first < count`, not `code < first + count`: the sum
        // overflows on a corrupt table whose 64-bit codes end at the
        // all-ones one.
        let first = canon.first_code[clen];
        if code >= first && code - first < canon.count[clen] as u64 {
            let idx = canon.offset[clen] as u64 + (code - first);
            return Ok(canon.syms[idx as usize]);
        }
    }
}

/// Computes Huffman code lengths from the sorted `(symbol, frequency)`
/// histogram (the encoder histograms first to pick between Huffman and
/// raw16 payloads), returned in the histogram's (ascending symbol) order —
/// the order the code table lists them in ([`canonical_codes`] assigns
/// their codes).
///
/// Uses the two-queue construction: leaves sorted by frequency in one
/// queue, merged nodes (whose frequencies come out non-decreasing) in a
/// second, so each merge pops the global minimum from a queue front in
/// O(1).  On equal frequency a leaf wins over a merged node, equal-frequency
/// leaves keep ascending-symbol order, merged nodes are FIFO — the
/// tie-breaking the stream bytes depend on.  Every step is linear in the
/// distinct symbols: the leaves are ordered by a stable radix sort on the
/// frequency ([`frequency_order`]), and depths are assigned from the root
/// down (a node is made after both its children, so reverse creation order
/// visits parents first).
fn code_lengths_from_sorted(sorted: &[(u32, u64)]) -> Vec<u8> {
    if sorted.len() <= 1 {
        return vec![1; sorted.len()];
    }

    let n = sorted.len();
    let leaves = frequency_order(sorted);
    // Node ids: 0..n are leaves (positions in `sorted`), n.. are merged
    // nodes in production order.  `up[id]` is first the node's parent,
    // then its depth.
    let mut up = vec![0u32; 2 * n - 1];
    let mut merged: Vec<u64> = Vec::with_capacity(n - 1);
    let (mut i1, mut i2) = (0usize, 0usize);
    // Each of the n-1 merges pops twice; n leaves + n-2 intermediate
    // merged nodes cover all 2(n-1) pops, so the fronts below are always
    // in bounds on whichever side is picked.
    let mut pop = |merged: &[u64]| {
        let leaf_front = leaves.get(i1).map_or(u64::MAX, |&i| sorted[i as usize].1);
        let merged_front = merged.get(i2).copied().unwrap_or(u64::MAX);
        if leaf_front <= merged_front {
            i1 += 1;
            (leaves[i1 - 1] as usize, leaf_front)
        } else {
            i2 += 1;
            (n + i2 - 1, merged_front)
        }
    };
    for k in 0..n - 1 {
        let (a, fa) = pop(&merged);
        let (b, fb) = pop(&merged);
        up[a] = (n + k) as u32;
        up[b] = (n + k) as u32;
        merged.push(fa + fb);
    }
    // The root (the last merged node) keeps depth 0.
    for id in (0..2 * n - 2).rev() {
        up[id] = up[up[id] as usize] + 1;
    }
    up[..n].iter().map(|&d| d as u8).collect()
}

/// Positions of `sorted` in ascending frequency order, equal frequencies
/// in position order: a least-significant-byte-first radix sort, one
/// stable pass per byte the largest frequency has.
fn frequency_order(sorted: &[(u32, u64)]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..sorted.len() as u32).collect();
    let mut next = vec![0u32; sorted.len()];
    let top = sorted.iter().map(|&(_, f)| f).max().unwrap_or(0);
    let mut shift = 0;
    while shift < 64 && top >> shift != 0 {
        let byte = |i: u32| (sorted[i as usize].1 >> shift) as usize & 255;
        let mut first = [0usize; 256];
        for &i in &order {
            first[byte(i)] += 1;
        }
        let mut at = 0;
        for slot in first.iter_mut() {
            at += std::mem::replace(slot, at);
        }
        for &i in &order {
            next[first[byte(i)]] = i;
            first[byte(i)] += 1;
        }
        std::mem::swap(&mut order, &mut next);
        shift += 8;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;
    use errflow_tensor::rng::StdRng;
    use std::collections::HashMap;

    /// `items` cut into the `s` contiguous sub-slices of [`split_even`].
    fn split_slices<T>(items: &[T], s: usize) -> Vec<&[T]> {
        split_even(items.len(), s)
            .iter()
            .map(|&(off, len)| &items[off..off + len])
            .collect()
    }

    /// Round-trips 1- and 4-segment blocks through the thread-local and
    /// caller-owned-scratch decoders and the slow oracle.
    fn roundtrip(symbols: &[u16]) {
        for n_streams in [1, 4] {
            let enc = encode_multi(symbols, n_streams);
            let n = symbols.len();
            let (dec, consumed) = decode_multi(&enc, n, n_streams).expect("decode");
            assert_eq!(dec, symbols);
            assert_eq!(consumed, enc.len());
            let mut scratch = DecodeScratch::default();
            let mut out = Vec::new();
            let consumed2 =
                decode_multi_into(&enc, n, n_streams, &mut out, &mut scratch).expect("decode_into");
            assert_eq!(out, symbols);
            assert_eq!(consumed2, consumed);
            let oracle =
                crate::reference::huffman_decode_multi(&enc, n, n_streams).expect("oracle");
            assert_eq!(oracle, (dec, consumed));
        }
    }

    #[test]
    fn empty_roundtrip() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_roundtrip() {
        roundtrip(&[7; 100]);
    }

    #[test]
    fn two_symbols_roundtrip() {
        roundtrip(&[0, 1, 0, 0, 1, 0, 1, 1, 1, 0]);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% zeros: entropy ≈ 0.29 bits/symbol; Huffman ≈ 1 bit/symbol max,
        // still far below 32.
        let mut rng = StdRng::seed_from_u64(1);
        let symbols: Vec<u16> = (0..10_000)
            .map(|_| {
                if rng.next_f64() < 0.95 {
                    0
                } else {
                    rng.gen_range(1..8)
                }
            })
            .collect();
        let enc = encode_multi(&symbols, 4);
        assert!(
            enc.len() < symbols.len() * 4 / 8,
            "compressed {} vs raw {}",
            enc.len(),
            symbols.len() * 4
        );
        roundtrip(&symbols);
    }

    #[test]
    fn uniform_random_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let symbols: Vec<u16> = (0..5_000).map(|_| rng.gen_range(0..1000)).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn long_codes_take_slow_path() {
        // A heavily skewed geometric-ish distribution over many symbols
        // produces code lengths well beyond the 13-bit fast table.
        let mut symbols = Vec::new();
        for sym in 0u16..24 {
            let count = 1usize << (24 - sym).min(16);
            symbols.extend(std::iter::repeat(sym).take(count));
        }
        roundtrip(&symbols);
    }

    #[test]
    fn truncated_stream_errors() {
        for n_streams in [1, 4] {
            let enc = encode_multi(&[1, 2, 3, 1, 2, 3], n_streams);
            assert!(decode_multi(&enc[..enc.len() - 1], 6, n_streams).is_err());
            assert!(decode_multi(&enc[..4], 6, n_streams).is_err());
        }
        assert!(decode_multi(&[], 1, 1).is_err());
        // An empty block is no bytes at all, and a count the block does
        // not hold is no block.
        assert_eq!(decode_multi(&[], 0, 4).unwrap(), (Vec::new(), 0));
        assert!(decode_multi(&[], 0, 0).is_err());
        assert!(decode_multi(&[], 0, MAX_STREAMS + 1).is_err());
    }

    #[test]
    fn decode_reports_consumed_bytes_with_trailing_data() {
        let mut enc = encode_multi(&[5, 5, 9], 4);
        let orig_len = enc.len();
        enc.extend_from_slice(&[0xab; 10]);
        let (dec, consumed) = decode_multi(&enc, 3, 4).expect("decode");
        assert_eq!(dec, vec![5, 5, 9]);
        assert_eq!(consumed, orig_len);
    }

    #[test]
    fn rle_collapse_expand_roundtrip() {
        let mut symbols = vec![5u16; 100];
        symbols.extend([1, 2, 3]);
        symbols.extend(vec![9u16; 50]);
        symbols.extend([4, 4, 4]); // below MIN_RUN: kept verbatim
        let mut t = Vec::new();
        let mut runs = Vec::new();
        rle_collapse(&symbols, &mut t, &mut runs);
        assert_eq!(t, [5, RUN_MARKER, 1, 2, 3, 9, RUN_MARKER, 4, 4, 4]);
        assert_eq!(runs, [99, 49]);
        let mut back = Vec::new();
        rle_expand_segment(&t, &runs, symbols.len(), &mut back).unwrap();
        assert_eq!(back, symbols);
    }

    #[test]
    fn scan_finds_every_run_candidate() {
        let mut rng = StdRng::seed_from_u64(0x5CA9);
        for _ in 0..200 {
            let n = rng.gen_range(0usize..300);
            let mut seg: Vec<u16> = (0..n).map(|_| rng.gen_range(10u16..5000)).collect();
            // A run of exactly MIN_RUN at a random offset must be flagged
            // wherever it falls against the block grid.
            let with_run = n >= MIN_RUN && rng.next_f64() < 0.5;
            if with_run {
                let at = rng.gen_range(0..=n - MIN_RUN);
                seg[at..at + MIN_RUN].fill(77);
            }
            assert!(may_hold_run(&seg) || !with_run, "missed a run of MIN_RUN");
        }
    }

    #[test]
    fn long_runs_compress_to_almost_nothing() {
        let symbols = vec![3u16; 1_000_000];
        for (n_streams, cap) in [(1, 100), (4, 200)] {
            let len = encode_multi(&symbols, n_streams).len();
            assert!(len < cap, "{n_streams}-stream run block is {len} bytes");
        }
        roundtrip(&symbols);
    }

    #[test]
    fn alternating_runs_roundtrip() {
        let mut symbols = Vec::new();
        for k in 0..50u16 {
            symbols.extend(vec![k % 3; 10 + k as usize]);
            symbols.push(1000 + k);
        }
        roundtrip(&symbols);
    }

    #[test]
    fn bitrev_involution() {
        for len in 1u8..=16 {
            for v in 0u64..(1 << len.min(10)) {
                assert_eq!(bitrev(bitrev(v, len), len), v);
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_streams() {
        let mut enc_scratch = EncodeScratch::default();
        let mut dec_scratch = DecodeScratch::default();
        let mut rng = StdRng::seed_from_u64(0xAB);
        for round in 0..8 {
            let n = 100 + round * 321;
            let symbols: Vec<u16> = (0..n).map(|_| rng.gen_range(0..64)).collect();
            let mut enc = Vec::new();
            encode_multi_with(&symbols, 1, &mut enc, &mut enc_scratch);
            assert_eq!(
                enc,
                encode_multi(&symbols, 1),
                "scratch encode must be identical"
            );
            // Counts and codes share the window, which each block leaves
            // all-zero for the next.
            assert!(enc_scratch.hist.window.iter().all(|&w| w == 0));
            let mut out = Vec::new();
            let consumed = decode_multi_into(&enc, n, 1, &mut out, &mut dec_scratch).unwrap();
            assert_eq!(out, symbols);
            assert_eq!(consumed, enc.len());
        }
    }

    #[test]
    fn table_is_as_wide_as_the_longest_code_up_to_peek() {
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        // 3 symbols → codes of ≤ 2 bits → a 4-entry table, however many
        // symbols the block holds.
        let few: Vec<u16> = (0..2000).map(|i| [7, 7, 8, 9][i % 4]).collect();
        decode_multi_into(&encode_multi(&few, 4), few.len(), 4, &mut out, &mut scratch).unwrap();
        assert_eq!(out, few);
        assert_eq!(scratch.table.len(), 4);
        // Codes past PEEK bits cap the table at 2^PEEK.
        let skewed = geometric_symbols(1 << 17);
        let n = skewed.len();
        decode_multi_into(&encode_multi(&skewed, 4), n, 4, &mut out, &mut scratch).unwrap();
        assert_eq!(out, skewed);
        assert_eq!(scratch.table.len(), 1 << PEEK);
        // Tiny blocks on both sides of every table width round-trip.
        let mut rng = StdRng::seed_from_u64(0xCD);
        for n in [1usize, 2, 3, 5, 63, 64, 255, 256, 511, 512, 513, 1024] {
            for alphabet in [1u16, 2, 3, 17, 33, 300] {
                let symbols: Vec<u16> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
                roundtrip(&symbols);
            }
        }
    }

    #[test]
    fn histogram_equals_a_plain_count() {
        // The escape, a cluster near 32 768 and the alphabet's last symbol,
        // over four segments of either width, with and without run markers.
        let mut rng = StdRng::seed_from_u64(0x415);
        let mut symbols: Vec<u16> = (0..6000)
            .map(|_| 32_760 + rng.gen_range(0u16..16))
            .collect();
        symbols[0] = 0;
        symbols[3001] = 65_534;
        symbols[5999] = u16::MAX;
        let mut h = Histogram::default();
        for markers in [0usize, 3] {
            let mut wide: Vec<u32> = symbols.iter().map(|&s| u32::from(s)).collect();
            wide.extend(std::iter::repeat_n(RUN_MARKER, markers));
            let plain = split_slices(&symbols, 2);
            let collapsed = split_slices(&wide[symbols.len() / 2..], 2);
            let sources = [
                Source::Plain(plain[0]),
                Source::Collapsed(collapsed[0]),
                Source::Plain(&[]),
                Source::Collapsed(collapsed[1]),
            ];
            for _ in 0..2 {
                // Twice: the tables must be all-zero again after a call.
                frequencies(&sources, markers, &mut h);
                assert_eq!(h.sorted, reference_encoder::frequencies(&wide));
            }
        }
    }

    #[test]
    fn prop_roundtrip_random_alphabets() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for _ in 0..64 {
            let alphabet = rng.gen_range(1u16..400);
            let n = rng.gen_range(0usize..2000);
            let symbols: Vec<u16> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
            roundtrip(&symbols);
        }
    }

    /// The block writer as it was before the single-read rewrite: a
    /// collapse that copies every symbol, a histogram with a touched list,
    /// a `HashMap` code lookup and `BitWriter` staging.  Kept only to hold
    /// [`encode_multi_with`] to the same bytes.
    mod reference_encoder {
        use super::*;

        fn rle_collapse_all(symbols: &[u16], transformed: &mut Vec<u32>, runs: &mut Vec<u32>) {
            let mut i = 0;
            while i < symbols.len() {
                let s = u32::from(symbols[i]);
                let mut j = i + 1;
                while j < symbols.len() && u32::from(symbols[j]) == s && j - i < u32::MAX as usize {
                    j += 1;
                }
                let len = j - i;
                if len >= MIN_RUN {
                    transformed.push(s);
                    transformed.push(RUN_MARKER);
                    runs.push((len - 1) as u32);
                } else {
                    transformed.extend(std::iter::repeat(s).take(len));
                }
                i = j;
            }
        }

        /// `(symbol, frequency)` of `symbols`, ascending, the run marker
        /// last.
        pub fn frequencies(symbols: &[u32]) -> Vec<(u32, u64)> {
            let mut map: HashMap<u32, u64> = HashMap::new();
            for &s in symbols {
                *map.entry(s).or_insert(0) += 1;
            }
            let mut sorted: Vec<(u32, u64)> = map.into_iter().collect();
            sorted.sort_unstable();
            sorted
        }

        /// LEB128, written out byte by byte.
        fn varint(out: &mut Vec<u8>, mut v: u64) {
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(byte);
                    return;
                }
                out.push(byte | 0x80);
            }
        }

        pub fn encode_multi(segments: &[&[u16]]) -> Vec<u8> {
            let mut out = Vec::new();
            let n_original: usize = segments.iter().map(|seg| seg.len()).sum();
            if n_original == 0 {
                return out;
            }
            let mut transformed = Vec::new();
            let mut runs = Vec::new();
            let mut t_bounds = vec![0usize];
            let mut r_bounds = vec![0usize];
            for seg in segments {
                rle_collapse_all(seg, &mut transformed, &mut runs);
                t_bounds.push(transformed.len());
                r_bounds.push(runs.len());
            }
            let sorted = frequencies(&transformed);
            if choose_raw16(&sorted, n_original, runs.len()) {
                out.push(FLAG_RAW16);
                for seg in segments {
                    for &sym in *seg {
                        out.extend_from_slice(&sym.to_le_bytes());
                    }
                }
                return out;
            }
            let depths = code_lengths_from_sorted(&sorted);
            let max_len = *depths.iter().max().unwrap();
            let width = if max_len <= 15 {
                4
            } else if max_len <= 31 {
                5
            } else {
                6
            };
            let with_runs = !runs.is_empty();
            out.push(u8::from(with_runs) | (width - 4) << 2);
            if with_runs {
                for i in 0..segments.len() {
                    let seg_runs = &runs[r_bounds[i]..r_bounds[i + 1]];
                    varint(&mut out, seg_runs.len() as u64);
                    for &r in seg_runs {
                        varint(&mut out, u64::from(r));
                    }
                }
            }
            varint(&mut out, sorted.len() as u64);
            let mut prev: Option<u32> = None;
            for &(sym, _) in &sorted {
                if with_runs && sym == RUN_MARKER {
                    break;
                }
                varint(&mut out, u64::from(sym - prev.map_or(0, |p| p + 1)));
                prev = Some(sym);
            }
            let mut bits: Vec<bool> = Vec::new();
            for &d in &depths {
                bits.extend((0..width).map(|b| (d >> b) & 1 == 1));
            }
            for byte in bits.chunks(8) {
                out.push(
                    byte.iter()
                        .rev()
                        .fold(0, |acc, &bit| acc << 1 | u8::from(bit)),
                );
            }
            let mut lengths: Vec<(u32, u8)> =
                sorted.iter().map(|&(sym, _)| sym).zip(depths).collect();
            lengths.sort_by_key(|&(sym, len)| (len, sym));
            let mut codes = HashMap::new();
            let (mut code, mut prev_len) = (0u64, 0u8);
            for &(sym, len) in &lengths {
                code <<= len - prev_len;
                codes.insert(sym, (bitrev(code, len), len));
                code += 1;
                prev_len = len;
            }
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            for i in 0..segments.len() {
                let mut w = BitWriter::default();
                for sym in &transformed[t_bounds[i]..t_bounds[i + 1]] {
                    let (rev, len) = codes[sym];
                    w.write_bits(rev, len as u32);
                }
                payloads.push(w.into_bytes());
            }
            for p in &payloads {
                varint(&mut out, p.len() as u64);
            }
            for p in &payloads {
                out.extend_from_slice(p);
            }
            out
        }
    }

    /// The longest code [`encode_multi_with`] gives the run-free `symbols`.
    fn longest_code(symbols: &[u16]) -> u8 {
        let wide: Vec<u32> = symbols.iter().map(|&s| u32::from(s)).collect();
        let lengths = code_lengths_from_sorted(&reference_encoder::frequencies(&wide));
        lengths.into_iter().max().unwrap()
    }

    /// Run-free symbols whose frequencies halve from one to the next, so
    /// the rarest of `n` get codes well past [`PEEK`] bits.
    fn geometric_symbols(n: usize) -> Vec<u16> {
        let mut rng = StdRng::seed_from_u64(0x6E0);
        let symbols: Vec<u16> = (0..n)
            .map(|_| 100 + rng.gen::<u32>().trailing_zeros() as u16)
            .collect();
        assert!(u32::from(longest_code(&symbols)) > PEEK);
        symbols
    }

    /// Bytes of the fast writer against the reference, at 1, 4 and 16
    /// segments, then a round trip.
    fn assert_same_bytes(symbols: &[u16], what: &str) {
        for n_streams in [1, 4, 16] {
            assert!(
                encode_multi(symbols, n_streams)
                    == reference_encoder::encode_multi(&split_slices(symbols, n_streams)),
                "{what}: {n_streams}-segment block differs from the reference writer"
            );
        }
        roundtrip(symbols);
    }

    #[test]
    fn block_bytes_match_the_reference_writer() {
        let mut rng = StdRng::seed_from_u64(0xB17E5);
        for round in 0..48 {
            let alphabet = rng.gen_range(1u16..500);
            let base = rng.gen_range(0..=u16::MAX - alphabet);
            let n = rng.gen_range(0usize..3000);
            let symbols: Vec<u16> = (0..n).map(|_| base + rng.gen_range(0..alphabet)).collect();
            assert_same_bytes(&symbols, &format!("random alphabet, round {round}"));
        }
        // Run-free, skewed: the straight-from-the-caller's-slice path.
        let skewed: Vec<u16> = (0..20_000)
            .map(|_| 32_768 + (rng.gen_range(-1.0f32..1.0) * rng.gen_range(0.0f32..40.0)) as u16)
            .collect();
        assert_same_bytes(&skewed, "run-free");
        // Run-heavy: runs at, below and above MIN_RUN between literals,
        // at segment starts and ends, and back to back.
        let mut runs = Vec::new();
        for k in 0..120u16 {
            let len = [MIN_RUN - 1, MIN_RUN, MIN_RUN + 1, 31, 32, 200][k as usize % 6];
            runs.extend(std::iter::repeat(k % 5).take(len));
            if k % 3 == 0 {
                runs.extend((0..rng.gen_range(0u16..40)).map(|i| 100 + i % 7));
            }
        }
        assert_same_bytes(&runs, "run-heavy");
        assert_same_bytes(&vec![9u16; 5000], "one run");
        // The alphabet's first and last symbols, with runs of each.
        let mut edges = vec![u16::MAX; 400];
        edges.extend((0..600).map(|i| [0, u16::MAX, 5][i % 3]));
        edges.extend(vec![0u16; 300]);
        assert_same_bytes(&edges, "alphabet edges");
        // Raw16-eligible: a flat 16-bit alphabet Huffman cannot shrink.
        let flat: Vec<u16> = (0..8000).map(|_| rng.gen::<u32>() as u16).collect();
        assert_eq!(encode_multi(&flat, 4)[0], FLAG_RAW16);
        assert_same_bytes(&flat, "raw16");
        // Codes longer than PEEK bits.
        assert_same_bytes(&geometric_symbols(1 << 17), "long codes");
    }

    /// `copies[i]` copies of symbol `100 + i`, shuffled so that no run forms.
    fn shuffled(copies: &[usize], seed: u64) -> Vec<u16> {
        let mut symbols: Vec<u16> = copies
            .iter()
            .enumerate()
            .flat_map(|(i, &c)| std::iter::repeat_n(100 + i as u16, c))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..symbols.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            symbols.swap(i, j);
        }
        symbols
    }

    /// Fibonacci frequencies over `longest + 1` symbols: the longest code
    /// has exactly `longest` bits, the fewest symbols that can give it.
    fn fibonacci_symbols(longest: usize) -> Vec<u16> {
        let mut copies = vec![1usize, 1];
        while copies.len() < longest + 1 {
            copies.push(copies[copies.len() - 1] + copies[copies.len() - 2]);
        }
        let symbols = shuffled(&copies, longest as u64);
        assert_eq!(usize::from(longest_code(&symbols)), longest);
        symbols
    }

    /// Past 28 bits the packed writer stores one code at a time: a
    /// Fibonacci block of 2.2 Mi symbols whose longest code has 29 bits
    /// writes the reference writer's bytes and decodes through both
    /// decoders.
    #[test]
    fn codes_past_28_bits_take_one_code_per_store() {
        assert_eq!((codes_per_store(28), codes_per_store(29)), (2, 1));
        assert_eq!(codes_per_store(45), 1);
        assert_same_bytes(&fibonacci_symbols(29), "a 29-bit longest code");
    }

    /// The packed writer against the bit writer on hand-built code tables
    /// (lengths 1, 2, …, `longest`, `longest`), at every longest code where
    /// the codes per store change and at 45 bits, the longest a block of
    /// fewer than 2^32 symbols can have, on a symbol count that fills the
    /// last store and on each shorter one.
    #[test]
    fn packed_writer_matches_the_bit_writer_at_every_width() {
        for longest in [14u32, 15, 18, 19, 28, 29, 45] {
            let table: Vec<(u32, u8)> = (0..=longest)
                .map(|i| (i, (i + 1).min(longest) as u8))
                .collect();
            let mut codes = HashMap::new();
            for (sym, len, code) in canonical_codes(&table, first_codes(&length_counts(&table))) {
                codes.insert(sym, (bitrev(code, len), len));
            }
            let mut lut = vec![0; ALPHABET + 1];
            build_packed_lut(&table, &length_counts(&table), &mut lut);
            for extra in 0..4 {
                let symbols: Vec<u16> = (0..=longest as u16)
                    .chain((extra..=longest as u16).rev())
                    .collect();
                let mut w = BitWriter::default();
                for sym in &symbols {
                    let (rev, len) = codes[&u32::from(*sym)];
                    w.write_bits(rev, len as u32);
                }
                let want = w.into_bytes();
                let mut out = vec![0u8; want.len() + 8];
                let source = Source::Plain(&symbols);
                let end = write_payload(&mut out, 0, source, &lut, longest as u8);
                assert_eq!(
                    &out[..end],
                    &want[..],
                    "longest code {longest}, {extra} dropped"
                );
            }
        }
    }
}

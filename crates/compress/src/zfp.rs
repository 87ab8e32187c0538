//! ZFP-class fixed-accuracy compressor.
//!
//! ZFP (the paper's reference \[7\]) compresses floating-point arrays in
//! fixed-size blocks: each block is aligned to a common exponent, converted
//! to integers, passed through a reversible decorrelating transform, and
//! its coefficients are truncated to exactly the precision the accuracy
//! target requires.  Because every step is local to a 4-value block, the
//! codec is branch-light and fast in both directions — which is why the
//! paper observes ZFP's I/O throughput staying flat across tolerance levels
//! (Fig. 7) while SZ/MGARD dip.
//!
//! This implementation uses the exactly-reversible integer S-transform
//! (two-level Haar lifting) as the decorrelator and sign-magnitude storage
//! of precision-truncated coefficients.  Like real ZFP, it supports
//! **pointwise (L∞) tolerances only** — requesting an L2 bound returns
//! [`CompressError::UnsupportedBound`], matching the restriction the paper
//! notes for Figs. 8, 12 and 14.
//!
//! ## Stream layout
//!
//! The encoder writes the stream container ([`crate::format`]): the
//! [`crate::format::MAGIC_V2`] preamble, then the block payload split into
//! [`crate::format::V2_STREAMS`] independently-decodable sub-streams
//! (blocks distributed contiguously and evenly).  One serial bit stream
//! has a carried dependency per block read; four sub-streams let the
//! decoder run four block pipelines at once — interleaved scalar reads
//! portably, with the transform/scale stage vectorized over one block per
//! AVX2 lane (see `zfp_simd`).  Any other bytes — no magic, or a tag
//! other than [`BackendTag::Zfp`] — are a typed
//! [`CompressError::CorruptStream`].
//!
//! A block is `flag(1) = 0, emax + 256 (10), cut (6), width (6)` and four
//! `sign (1), magnitude (width)` fields, LSB first; `flag = 1` opens the
//! two escapes, `1 0` for a block of zeros and `1 1` followed by the four
//! values' IEEE bits for a block that holds a NaN or an infinity — every
//! non-finite value comes back with the bits it went in with.
//!
//! ## The encoder
//!
//! Between loading a block's bits and storing the stream's, the encoder
//! stays in the integers, and each step is the exact image of the float
//! expression that defines the format:
//!
//! * **Exponent.** `emax = ⌊log2 max|v|⌋` is read off the largest
//!   sign-cleared bit pattern (patterns of non-negative floats order like
//!   the floats): its exponent field less the bias, or, for a block of
//!   subnormals, the position of its top set bit.  The same compare
//!   (`≥ 0x7F80_0000`) finds a NaN or an infinity.
//! * **Quantize.** `round(v / 2^(emax − 36))` divides by a power of two,
//!   so it is a shift of `v`'s significand, and rounding half away from
//!   zero is "add half, floor" on the magnitude (`quantize`).
//! * **Cut.** How many low bits a block drops depends on the stream's
//!   budget and on `emax` only, so the one expression that needs libm is
//!   evaluated once per exponent the stream holds, not once per block
//!   (`CutTable`).
//! * **Width** is the bit length of the OR of the four kept magnitudes.
//! * **Store.** Header and fields go through a 64-bit accumulator that is
//!   stored whole at a byte cursor (`BitSink`), straight into the buffer
//!   [`Compressor::compress`] returns: sized for the worst case up front,
//!   sub-stream after sub-stream behind the 50-byte container header,
//!   whose length fields are filled in as each sub-stream ends.
//!
//! Every step before the store is independent from block to block, so on an
//! x86-64-v4 host ([`EncodeArm::Avx512`]) it runs eight blocks at a time:
//! a *stage* pass (`zfp_simd::stage_groups_avx512`) takes each 32-value
//! group through exponent, quantizer, transform, cut and width in 64-bit
//! lanes and leaves a 64-block tile of headers, steps and fields in L1; the
//! *emit* pass then puts the tile into the sink in block order with the
//! same calls as the portable arm, which handles zero and verbatim blocks
//! and the last `< 8` blocks of each sub-stream.  The portable `encode_block`
//! stays the arm everywhere else.
//!
//! The float pipeline this replaced survives as the test-only
//! `reference_encoder`, and every arm is held to its bytes on a corpus that
//! reaches every branch, and on lengths around the group, tile and
//! sub-stream edges; the exponent and the quantizer are also
//! checked against their float expressions on every input they can tell
//! apart (an `#[ignore]`d sweep CI runs once, strided in the default run).

use crate::bitstream::BitReader;
use crate::error_bound::ErrorBound;
use crate::format::{self, BackendTag, MAX_STREAMS, V2_STREAMS};
use crate::traits::{check_tolerance, CompressError, Compressor};

/// Working integer precision (bits of the normalised significand).
pub(crate) const PRECISION: i32 = 38;

/// ZFP-class compressor (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ZfpCompressor;

/// Forward reversible S-transform on a 4-value block (two Haar levels).
fn fwd_transform(p: &mut [i64; 4]) {
    let (l0, h0) = haar_fwd(p[0], p[1]);
    let (l1, h1) = haar_fwd(p[2], p[3]);
    let (ll, lh) = haar_fwd(l0, l1);
    *p = [ll, lh, h0, h1];
}

/// Exact inverse of [`fwd_transform`].
fn inv_transform(p: &mut [i64; 4]) {
    let [ll, lh, h0, h1] = *p;
    let (l0, l1) = haar_inv(ll, lh);
    let (a, b) = haar_inv(l0, h0);
    let (c, d) = haar_inv(l1, h1);
    *p = [a, b, c, d];
}

/// Reversible Haar pair: `l = ⌊(a+b)/2⌋`, `h = a − b`.
///
/// Wrapping arithmetic: valid streams never overflow (coefficients stay
/// within PRECISION+2 bits), but *corrupt* streams can decode arbitrary
/// 63-bit magnitudes, and decompression must stay panic-free on them.
#[inline]
fn haar_fwd(a: i64, b: i64) -> (i64, i64) {
    (a.wrapping_add(b) >> 1, a.wrapping_sub(b))
}

/// Exact inverse of [`haar_fwd`] (same wrapping rationale).
#[inline]
fn haar_inv(l: i64, h: i64) -> (i64, i64) {
    let a = l.wrapping_add(h.wrapping_add(1) >> 1);
    (a, a.wrapping_sub(h))
}

impl Compressor for ZfpCompressor {
    fn name(&self) -> &'static str {
        "zfp"
    }

    fn supports(&self, bound: &ErrorBound) -> bool {
        !bound.mode.is_l2()
    }

    fn compress(&self, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
        let _span = errflow_obs::trace::span("codec.zfp.compress");
        compress_on(EncodeArm::dispatched(), data, bound)
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        _scratch: &mut crate::scratch::CodecScratch,
    ) -> Result<(), CompressError> {
        let _span = errflow_obs::trace::span("codec.zfp.decompress");
        let hdr = parse_header_v2(stream)?;
        crate::traits::check_count(hdr.n, out.len())?;
        decompress_v2_into(stream, &hdr, out)
    }
}

/// An instantiation of the block encoder.  Every arm writes the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeArm {
    /// `encode_block` for every block: any host.
    Portable,
    /// Eight blocks per vector step through the AVX-512 stage pass, then the
    /// portable emit (x86-64 hosts at [`simd::Level::Avx512`]).
    ///
    /// [`simd::Level::Avx512`]: errflow_tensor::simd::Level::Avx512
    Avx512,
}

impl EncodeArm {
    /// The arm [`ZfpCompressor::compress`] takes on this host: the widest
    /// one it can run, or [`EncodeArm::Portable`] under `ERRFLOW_NO_SIMD=1`.
    pub fn dispatched() -> Self {
        if EncodeArm::Avx512.available() && !errflow_tensor::simd::force_scalar() {
            EncodeArm::Avx512
        } else {
            EncodeArm::Portable
        }
    }

    /// Whether this host can run the arm.
    pub fn available(self) -> bool {
        match self {
            EncodeArm::Portable => true,
            EncodeArm::Avx512 => errflow_tensor::simd::has_avx512(),
        }
    }

    /// `"portable"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            EncodeArm::Portable => "portable",
            EncodeArm::Avx512 => "avx512",
        }
    }
}

/// [`ZfpCompressor::compress`] on a named encoder arm rather than the
/// dispatched one, so one process can hold the arms against each other
/// (`compress-bench` times both).
///
/// # Panics
/// If the host cannot run `arm` ([`EncodeArm::available`]).
pub fn compress_on(
    arm: EncodeArm,
    data: &[f32],
    bound: &ErrorBound,
) -> Result<Vec<u8>, CompressError> {
    check_tolerance(bound.tolerance)?;
    if bound.mode.is_l2() {
        return Err(CompressError::UnsupportedBound {
            backend: "zfp",
            reason: "ZFP supports pointwise (L-infinity) tolerances only".into(),
        });
    }
    Ok(compress_v2(data, bound.pointwise_budget(data), arm))
}

/// Offset of the sub-stream length table in the container header, behind
/// the preamble and the element count.
const LENGTHS_OFF: usize = 10 + 8;

/// Bytes of the container header in front of the block payload.
const HEADER_LEN: usize = LENGTHS_OFF + 8 * V2_STREAMS;

/// Most bytes one encoded block can add to its sub-stream: the 23-bit
/// header and four `sign + 38-bit magnitude` fields, 179 bits.  (A
/// quantized value is below `2^37` and a Haar difference of two such
/// values below `2^38`; a verbatim block is 130 bits.)
const MAX_ENCODED_BLOCK_BYTES: usize = (23usize + 4 * (1 + 38)).div_ceil(8);

/// Encodes `data` into the v2 interleaved container: blocks are split
/// evenly into [`V2_STREAMS`] contiguous runs, each encoded into its own
/// bit stream so decode lanes carry independent dependency chains.
///
/// The stream is written once, into the buffer that is returned: its
/// capacity is the worst case up front, every sub-stream's bits go through
/// a [`BitSink`] straight to their final position behind the header, and
/// the header's sub-stream lengths are filled in as each sub-stream ends.
fn compress_v2(data: &[f32], budget: f64, arm: EncodeArm) -> Vec<u8> {
    assert!(
        arm.available(),
        "the {} ZFP encoder needs a host that has it",
        arm.name()
    );
    let n_blocks = data.len().div_ceil(4);
    // The sink stores eight bytes at a time, hence the slack.
    let worst_case = |blocks: usize| blocks * MAX_ENCODED_BLOCK_BYTES + 8;
    let mut out = Vec::with_capacity(HEADER_LEN + worst_case(n_blocks));
    let reserved = out.capacity();
    format::write_preamble(&mut out, BackendTag::Zfp, V2_STREAMS);
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());

    let mut cuts = CutTable::new(budget);
    let mut pos = HEADER_LEN;
    for (i, &(block_off, block_len)) in format::split_even(n_blocks, V2_STREAMS).iter().enumerate()
    {
        // Zero-extend to this sub-stream's worst case — inside the reserve,
        // so nothing moves, and only about what is written gets touched.
        out.resize(pos + worst_case(block_len), 0);
        let v0 = (block_off * 4).min(data.len());
        let v1 = ((block_off + block_len) * 4).min(data.len());
        let mut sink = BitSink::new(&mut out, pos);
        encode_blocks(&data[v0..v1], &mut cuts, &mut sink, arm);
        let end = sink.finish();
        let len_at = LENGTHS_OFF + 8 * i;
        out[len_at..len_at + 8].copy_from_slice(&((end - pos) as u64).to_le_bytes());
        pos = end;
    }
    debug_assert_eq!(out.capacity(), reserved, "the reserve covers every stream");
    out.truncate(pos);
    out
}

/// LSB-first bit sink over a byte buffer sized by the caller: the byte
/// layout of [`crate::bitstream`]'s writer, written where the bytes will
/// stay.  At most seven bits are pending between calls; each [`put`] adds
/// its field to a 64-bit accumulator, stores the accumulator whole at the
/// byte cursor and advances the cursor past the bytes that are complete.
///
/// [`put`]: BitSink::put
pub(crate) struct BitSink<'a> {
    out: &'a mut [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitSink<'a> {
    /// A sink whose first bit is bit 0 of `out[pos]`.
    fn new(out: &'a mut [u8], pos: usize) -> Self {
        BitSink {
            out,
            pos,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `n ≤ 56` bits of `value`, whose higher bits are zero
    /// (with seven bits pending, 57 would shift the accumulator by 64).
    #[inline]
    pub(crate) fn put(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 56 && value >> n == 0);
        self.acc |= value << self.nbits;
        self.nbits += n;
        self.out[self.pos..self.pos + 8].copy_from_slice(&self.acc.to_le_bytes());
        self.pos += (self.nbits >> 3) as usize;
        self.acc >>= self.nbits & !7;
        self.nbits &= 7;
    }

    /// Byte position one past the last bit written (the pending bits are
    /// already in place, zero-padded: every store covers them).
    fn finish(self) -> usize {
        self.pos + usize::from(self.nbits > 0)
    }
}

/// `cut` — how many low bits of every coefficient a block drops — depends
/// only on the stream's budget and the block's exponent, so it is computed
/// once per exponent the stream actually holds (the one place the encoder
/// calls libm) and looked up per block.  The entries are `u32` so the
/// AVX-512 stage pass can gather eight of them at once.
pub(crate) struct CutTable {
    budget: f64,
    /// Indexed by `emax − EMIN`; [`CutTable::UNSET`] until first asked for.
    cuts: [u32; N_EXPONENTS],
}

/// Block exponents of finite, non-zero `f32` blocks: `⌊log2⌋` of the
/// smallest subnormal and of `f32::MAX`.
pub(crate) const EMIN: i32 = -149;
const EMAX: i32 = 127;
const N_EXPONENTS: usize = (EMAX - EMIN + 1) as usize;

impl CutTable {
    pub(crate) const UNSET: u32 = u32::MAX;

    fn new(budget: f64) -> Self {
        CutTable {
            budget,
            cuts: [Self::UNSET; N_EXPONENTS],
        }
    }

    #[inline]
    pub(crate) fn get(&mut self, emax: i32) -> u32 {
        let slot = &mut self.cuts[(emax - EMIN) as usize];
        if *slot == Self::UNSET {
            *slot = cut_for(self.budget, emax);
        }
        *slot
    }

    /// The entries, [`CutTable::UNSET`] where no block has asked yet.
    pub(crate) fn entries(&self) -> &[u32; N_EXPONENTS] {
        &self.cuts
    }
}

/// The largest truncation that keeps a block's worst-case reconstruction
/// error within `budget`: int error ≤ 2^(cut+1) + 3 (transform gain 4 on a
/// half-step coefficient error, plus lifting-rounding slack).
fn cut_for(budget: f64, emax: i32) -> u32 {
    let steps = budget / pow2(emax - (PRECISION - 2));
    if steps > 5.0 {
        (((steps - 3.0) / 2.0).log2().floor() as i64).clamp(0, 62) as u32
    } else {
        0
    }
}

/// Biased exponent of a block whose largest magnitude has the bits
/// `max_bits` (sign cleared, finite, non-zero): `⌊log2 max⌋ + 127`.  For a
/// normal value that is its exponent field; a subnormal `m · 2^-149` has
/// `⌊log2⌋ = bit_length(m) − 150`, the field it would carry if exponents
/// went below 1.
#[inline]
fn biased_exponent(max_bits: u32) -> i32 {
    if max_bits >= 1 << 23 {
        (max_bits >> 23) as i32
    } else {
        9 - max_bits.leading_zeros() as i32
    }
}

/// `round(v / 2^(emax − 36))`, half away from zero, for the finite value
/// with the bits `bits` in a block of biased exponent `biased = emax + 127`,
/// in integers.
///
/// `|v| = m · 2^(e − 150)` with `m` the 24-bit significand and `e` the
/// exponent field (`m` without the implicit bit and `e = 1` for a
/// subnormal), so the quotient is `m · 2^(36 − r)` with
/// `r = biased − e + 23 ≥ 0`: exact, because the scale is a power of two.
/// Half away from zero is, on the magnitude, "add half, floor":
/// `⌊(⌊m·2^37 / 2^r⌋ + 1) / 2⌋`, one variable shift.  From `r = 61` on the
/// result is 0 whatever `m` is, so `r` is clamped to keep the shift defined.
#[inline]
fn quantize(bits: u32, biased: i32) -> i64 {
    let field = (bits >> 23) & 0xFF;
    let m = u64::from(bits & 0x7F_FFFF) | (u64::from(field != 0) << 23);
    let r = (biased - field.max(1) as i32 + 23).min(63) as u32;
    let mag = ((((m << 37) >> r) + 1) >> 1) as i64;
    if bits >> 31 == 0 {
        mag
    } else {
        -mag
    }
}

/// Encodes `values` (one sub-stream's share) block by block into `sink`:
/// on the AVX-512 arm whole eight-block groups through the vector stage
/// pass, and every block that leaves (all of them on the portable arm)
/// through [`encode_block`].  A short last block is padded by repeating the
/// last value (cheap to code).
fn encode_blocks(values: &[f32], cuts: &mut CutTable, sink: &mut BitSink<'_>, arm: EncodeArm) {
    let values = match arm {
        #[cfg(target_arch = "x86_64")]
        EncodeArm::Avx512 => encode_groups_avx512(values, cuts, sink),
        _ => values,
    };
    let mut blocks = values.chunks_exact(4);
    for b in &mut blocks {
        encode_block([b[0], b[1], b[2], b[3]].map(f32::to_bits), cuts, sink);
    }
    let tail = blocks.remainder();
    if let Some(&pad) = tail.last() {
        let block = std::array::from_fn(|i| tail.get(i).copied().unwrap_or(pad).to_bits());
        encode_block(block, cuts, sink);
    }
}

/// The AVX-512 arm's share of [`encode_blocks`]: the whole eight-block
/// groups of `values`, a tile of up to 64 blocks at a time — the stage pass
/// fills the tile, the emit pass puts it into `sink` in block order, zero
/// and verbatim blocks through [`encode_block`].  Returns the values left
/// over (fewer than 32).
#[cfg(target_arch = "x86_64")]
fn encode_groups_avx512<'v>(
    values: &'v [f32],
    cuts: &mut CutTable,
    sink: &mut BitSink<'_>,
) -> &'v [f32] {
    use crate::zfp_simd::{stage_groups_avx512, Group, GROUP_VALUES, TILE_GROUPS};
    let (grouped, rest) = values.split_at(values.len() - values.len() % GROUP_VALUES);
    let mut tile = [Group::default(); TILE_GROUPS];
    for chunk in grouped.chunks(TILE_GROUPS * GROUP_VALUES) {
        let tile = &mut tile[..chunk.len() / GROUP_VALUES];
        // SAFETY: `compress_v2` asserted `EncodeArm::Avx512.available()`,
        // i.e. `simd::Level::Avx512`, the kernel's target features; `chunk`
        // is a whole number of groups, one per entry of `tile`.
        unsafe { stage_groups_avx512(chunk, cuts, tile) };
        for (group, values) in tile.iter().zip(chunk.chunks_exact(GROUP_VALUES)) {
            for (b, block) in values.chunks_exact(4).enumerate() {
                if group.scalar >> b & 1 == 1 {
                    encode_block(
                        [block[0], block[1], block[2], block[3]].map(f32::to_bits),
                        cuts,
                        sink,
                    );
                } else {
                    let fields = std::array::from_fn(|i| group.fields[i][b]);
                    put_normal(sink, u64::from(group.head[b]), fields, group.step[b]);
                }
            }
        }
    }
    rest
}

/// One block, from IEEE bits to stream bits, without leaving the integers.
/// (`inline(always)`: as a call, the sink's cursor and accumulator go
/// through memory between blocks, which costs 10 % of the encode.)
#[inline(always)]
fn encode_block(bits: [u32; 4], cuts: &mut CutTable, sink: &mut BitSink<'_>) {
    const ABS: u32 = 0x7FFF_FFFF;
    const INF: u32 = 0x7F80_0000;
    // Bit patterns of non-negative floats order like the floats, NaN on top.
    let max_bits = bits.iter().fold(0, |m, &b| m.max(b & ABS));
    if max_bits == 0 {
        sink.put(0b01, 2); // zero-block flag, no escape
        return;
    }
    if max_bits >= INF {
        // A NaN or an infinity: the whole block verbatim.
        sink.put(0b11 | u64::from(bits[0]) << 2, 34);
        for &b in &bits[1..] {
            sink.put(u64::from(b), 32);
        }
        return;
    }
    let biased = biased_exponent(max_bits);
    let emax = biased - 127;
    let mut ints = bits.map(|b| quantize(b, biased));
    fwd_transform(&mut ints);

    // Truncate toward zero on the magnitude (an arithmetic shift would
    // floor negatives); a coefficient truncated to zero loses its sign.
    let cut = cuts.get(emax);
    let mags = ints.map(|v| v.unsigned_abs() >> cut);
    let width = 64 - (mags[0] | mags[1] | mags[2] | mags[3]).leading_zeros();
    // flag(1) = 0, emax(10), cut(6), width(6)
    let head = ((emax + 256) as u64) << 1 | u64::from(cut) << 11 | u64::from(width) << 17;
    let fields: [u64; 4] =
        std::array::from_fn(|i| mags[i] << 1 | u64::from(ints[i] < 0 && mags[i] != 0));
    put_normal(sink, head, fields, 1 + width);
}

/// A normal block's bits: the 23-bit `head`, then four `magnitude << 1 |
/// sign` fields of `step` bits each.
#[inline(always)]
fn put_normal(sink: &mut BitSink<'_>, head: u64, fields: [u64; 4], step: u32) {
    sink.put(head, 23);
    if step <= 28 {
        // Two fields per store, as the decoder reads them.
        sink.put(fields[0] | fields[1] << step, 2 * step);
        sink.put(fields[2] | fields[3] << step, 2 * step);
    } else {
        for f in fields {
            sink.put(f, step);
        }
    }
}

/// Parsed v2 container header: everything the decoders need to find each
/// sub-stream's bytes and blocks, computed once and held inline.
struct V2Header {
    /// Declared element count.
    n: usize,
    /// `(byte offset, byte length)` of each sub-stream within the payload
    /// region; the first `parts.len()` entries are meaningful.
    payloads: [(usize, usize); MAX_STREAMS],
    /// `(block offset, block count)` of each sub-stream.
    parts: format::Parts,
    /// Byte offset of the payload region within the stream.
    payload_off: usize,
}

impl V2Header {
    /// The sub-streams' byte ranges, one per entry of `parts`.
    fn payloads(&self) -> &[(usize, usize)] {
        &self.payloads[..self.parts.len()]
    }
}

/// Parses and validates the v2 header.  The declared sub-stream lengths
/// must sum to **exactly** the remaining payload bytes — a mismatch is a
/// typed [`CompressError::CorruptStream`], never a silent truncation — and
/// each sub-stream must be able to hold its share of blocks at the 2-bit
/// minimum, which bounds `n` before any allocation.
fn parse_header_v2(stream: &[u8]) -> Result<V2Header, CompressError> {
    let mut pos = 0usize;
    let n_streams = format::read_preamble(stream, &mut pos, BackendTag::Zfp)?;
    let n = crate::traits::read_len_u64(stream, &mut pos, "element count")?;
    let mut payloads = [(0usize, 0usize); MAX_STREAMS];
    let mut total = 0usize;
    for p in &mut payloads[..n_streams] {
        let l = crate::traits::read_len_u64(stream, &mut pos, "sub-stream payload length")?;
        *p = (total, l);
        total = total.checked_add(l).ok_or_else(|| {
            CompressError::CorruptStream("sub-stream payload lengths overflow".into())
        })?;
    }
    if stream.len() - pos != total {
        return Err(CompressError::CorruptStream(format!(
            "v2 sub-stream lengths sum to {total} bytes but the payload holds {}",
            stream.len() - pos
        )));
    }
    let parts = format::split_even(n.div_ceil(4), n_streams);
    for (i, (&(_, blocks), &(_, bytes))) in parts.iter().zip(&payloads).enumerate() {
        if blocks.saturating_mul(2) > bytes.saturating_mul(8) {
            return Err(CompressError::CorruptStream(format!(
                "sub-stream {i} declares {blocks} blocks but holds only {} bits",
                bytes.saturating_mul(8)
            )));
        }
    }
    Ok(V2Header {
        n,
        payloads,
        parts,
        payload_off: pos,
    })
}

/// Decodes a v2 container into `out` (already sized to `hdr.n`): one
/// decode lane per sub-stream, through the AVX2 block kernel when the host
/// supports it.
fn decompress_v2_into(stream: &[u8], hdr: &V2Header, out: &mut [f32]) -> Result<(), CompressError> {
    let payload = &stream[hdr.payload_off..];
    #[cfg(target_arch = "x86_64")]
    if hdr.parts.len() == 4
        && errflow_tensor::simd::has_avx2()
        && !errflow_tensor::simd::force_scalar()
    {
        return crate::zfp_simd::decode_v2_avx2(payload, hdr.payloads(), &hdr.parts, out);
    }
    decompress_v2_scalar(payload, hdr.payloads(), &hdr.parts, out)
}

/// Portable v2 decode: each sub-stream through the serial block decoder.
/// This is the non-AVX2 fallback, and the parity baseline the kernel is
/// tested against.
fn decompress_v2_scalar(
    payload: &[u8],
    payloads: &[(usize, usize)],
    parts: &[(usize, usize)],
    out: &mut [f32],
) -> Result<(), CompressError> {
    for (&(block_off, block_len), &(poff, plen)) in parts.iter().zip(payloads) {
        let sub = &payload[poff..poff + plen];
        let v0 = (block_off * 4).min(out.len());
        let v1 = ((block_off + block_len) * 4).min(out.len());
        decode_into_slice(sub, &mut out[v0..v1])?;
    }
    Ok(())
}

/// Upper bound on the bits one encoded block can occupy: flag + emax(10) +
/// cut(6) + width(6) + 4 × (sign + 63-bit magnitude).  Used to decide when
/// the unchecked decode path is safe for a whole block at once.
pub(crate) const MAX_BLOCK_BITS: usize = 1 + 10 + 6 + 6 + 4 * (1 + 63);

/// Decodes the block payload straight into `out`, 4 values per block, with
/// no per-block allocations.  Blocks whose worst-case footprint fits the
/// remaining stream take the unchecked bit-read fast path (bounds verified
/// once per block); only the last few blocks pay per-read checks.
fn decode_into_slice(payload: &[u8], out: &mut [f32]) -> Result<(), CompressError> {
    let mut r = BitReader::new(payload);
    decode_blocks_scalar(&mut r, out)
}

/// Scalar block-decode loop, resumable from any block boundary — the
/// portable per-sub-stream decoder, and the per-lane tail of the AVX2
/// kernel.
pub(crate) fn decode_blocks_scalar(
    r: &mut BitReader<'_>,
    out: &mut [f32],
) -> Result<(), CompressError> {
    for chunk in out.chunks_mut(4) {
        if r.remaining_bits() >= MAX_BLOCK_BITS {
            // SAFETY: (contract, not UB) the unchecked reader requires the
            // whole worst-case block footprint in-bounds, guaranteed by the
            // `remaining_bits()` guard above (and re-asserted inside).
            decode_block_unchecked(r, chunk);
        } else {
            let block = decode_block(r)?;
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
    }
    Ok(())
}

fn decode_block(r: &mut BitReader<'_>) -> Result<[f32; 4], CompressError> {
    let flag = r
        .read_bit()
        .ok_or_else(|| CompressError::CorruptStream("missing block flag".into()))?;
    if flag {
        let verbatim = r
            .read_bit()
            .ok_or_else(|| CompressError::CorruptStream("missing escape flag".into()))?;
        if !verbatim {
            return Ok([0.0; 4]);
        }
        let mut out = [0.0f32; 4];
        for o in &mut out {
            let bits = r
                .read_bits(32)
                .ok_or_else(|| CompressError::CorruptStream("truncated verbatim block".into()))?;
            *o = f32::from_bits(bits as u32);
        }
        return Ok(out);
    }
    let emax =
        r.read_bits(10)
            .ok_or_else(|| CompressError::CorruptStream("truncated emax".into()))? as i32
            - 256;
    let cut = r
        .read_bits(6)
        .ok_or_else(|| CompressError::CorruptStream("truncated cut".into()))? as u32;
    let width =
        r.read_bits(6)
            .ok_or_else(|| CompressError::CorruptStream("truncated width".into()))? as u32;
    let mut ints = [0i64; 4];
    for v in &mut ints {
        let neg = r
            .read_bit()
            .ok_or_else(|| CompressError::CorruptStream("truncated sign".into()))?;
        let mag = r
            .read_bits(width)
            .ok_or_else(|| CompressError::CorruptStream("truncated magnitude".into()))?
            as i64;
        // Midpoint reconstruction of the truncated low bits (wrapping:
        // corrupt streams can declare absurd cut/width combinations).
        let mut val = mag.wrapping_shl(cut);
        if cut > 0 && mag != 0 {
            val = val.wrapping_add(1i64.wrapping_shl(cut - 1));
        }
        *v = if neg { val.wrapping_neg() } else { val };
    }
    inv_transform(&mut ints);
    let scale = pow2(emax - (PRECISION - 2));
    Ok(std::array::from_fn(|i| (ints[i] as f64 * scale) as f32))
}

/// A block read off the bit stream but not yet reconstructed — the split
/// point between the (inherently serial) bit reads and the transform/scale
/// stage the AVX2 kernel vectorizes across four lanes.
pub(crate) enum BlockRaw {
    /// Zero-block flag: all four values are 0.0.
    Zero,
    /// Verbatim escape (non-finite values): raw IEEE bits.
    Verbatim([f32; 4]),
    /// Regular block: untransformed coefficients and the block exponent.
    Normal {
        /// Coefficients after midpoint reconstruction, pre-inverse-transform.
        ints: [i64; 4],
        /// Block exponent (`emax`).
        emax: i32,
    },
}

/// [`decode_block`]'s read stage without per-read end-of-stream checks.
/// Caller must have verified the stream holds at least [`MAX_BLOCK_BITS`]
/// more bits; the bit cursor then advances exactly as the checked path
/// would.
#[inline]
pub(crate) fn read_block_raw_unchecked(r: &mut BitReader<'_>) -> BlockRaw {
    debug_assert!(r.remaining_bits() >= MAX_BLOCK_BITS);
    // The whole header — flag(1) [+ escape(1)] or flag(1) + emax(10) +
    // cut(6) + width(6) — fits one 57-bit window, so it costs a single
    // load instead of four dependent read rounds.
    let w = r.peek_word();
    if w & 1 == 1 {
        r.advance_unchecked(2);
        if w & 2 == 0 {
            return BlockRaw::Zero;
        }
        let mut vals = [0.0f32; 4];
        for v in &mut vals {
            *v = f32::from_bits(r.read_bits_unchecked(32) as u32);
        }
        return BlockRaw::Verbatim(vals);
    }
    let emax = ((w >> 1) & 0x3FF) as i32 - 256;
    let cut = ((w >> 11) & 0x3F) as u32;
    let width = ((w >> 17) & 0x3F) as u32;
    r.advance_unchecked(23);
    let mut ints = [0i64; 4];
    if width <= 56 {
        // Fast path: sign + magnitude (≤ 57 bits together) come out of one
        // window per coefficient, and the cursor advances by a
        // block-constant stride, so the four loads pipeline.
        let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
        for v in &mut ints {
            let cw = r.peek_word();
            r.advance_unchecked(1 + width as usize);
            *v = reconstruct_coeff((cw >> 1) & mask, cut, cw & 1 == 1);
        }
    } else {
        for v in &mut ints {
            let neg = r.read_bits_unchecked(1) == 1;
            let raw: u64 = if width <= 57 {
                r.read_bits_unchecked(width)
            } else {
                // 58..=63-bit magnitudes split across two register loads.
                let lo = r.read_bits_unchecked(57);
                lo | (r.read_bits_unchecked(width - 57) << 57)
            };
            *v = reconstruct_coeff(raw, cut, neg);
        }
    }
    BlockRaw::Normal { ints, emax }
}

/// `2^e` by direct exponent-bit construction — `powi` is a library call,
/// far too slow for the per-block decode hot path.  The block exponent is
/// 10 bits (`emax ∈ [-256, 767]`), so `e = emax - 36` always lands in the
/// normal-f64 range and the result is exactly `2f64.powi(e)`.
#[inline]
pub(crate) fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Midpoint reconstruction of the truncated low bits (wrapping: corrupt
/// streams can declare absurd cut/width combinations).
#[inline]
pub(crate) fn reconstruct_coeff(raw: u64, cut: u32, neg: bool) -> i64 {
    let mag = raw as i64;
    let mut val = mag.wrapping_shl(cut);
    if cut > 0 && mag != 0 {
        val = val.wrapping_add(1i64.wrapping_shl(cut - 1));
    }
    if neg {
        val.wrapping_neg()
    } else {
        val
    }
}

/// Scalar reconstruction stage: inverse transform + scale (or the trivial
/// zero/verbatim fills) into `out` (`1..=4` values).
pub(crate) fn finish_block_scalar(raw: &BlockRaw, out: &mut [f32]) {
    match raw {
        BlockRaw::Zero => out.fill(0.0),
        BlockRaw::Verbatim(vals) => out.copy_from_slice(&vals[..out.len()]),
        BlockRaw::Normal { ints, emax } => {
            let mut p = *ints;
            inv_transform(&mut p);
            let scale = pow2(emax - (PRECISION - 2));
            for (slot, &i) in out.iter_mut().zip(p.iter()) {
                *slot = (i as f64 * scale) as f32;
            }
        }
    }
}

/// [`decode_block`] without per-read end-of-stream checks, writing straight
/// into `out` (`1..=4` values).  Caller must have verified the stream holds
/// at least [`MAX_BLOCK_BITS`] more bits; decoding is then infallible and
/// the bit cursor advances exactly as the checked path would.
fn decode_block_unchecked(r: &mut BitReader<'_>, out: &mut [f32]) {
    debug_assert!(!out.is_empty() && out.len() <= 4);
    let raw = read_block_raw_unchecked(r);
    finish_block_scalar(&raw, out);
}

/// The float encoder this module's integer one replaced — libm `log2` and
/// `powi`, `f64` division and rounding per value, a flushing
/// [`BitWriter`](crate::bitstream::BitWriter) per sub-stream — kept as the
/// byte-for-byte oracle for it.
#[cfg(test)]
mod reference_encoder {
    use super::{format, fwd_transform, BackendTag, PRECISION, V2_STREAMS};
    use crate::bitstream::BitWriter;

    pub(super) fn compress_v2(data: &[f32], budget: f64) -> Vec<u8> {
        let n_blocks = data.len().div_ceil(4);
        let parts = format::split_even(n_blocks, V2_STREAMS);
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(parts.len());
        for &(block_off, block_len) in &parts {
            let mut w = BitWriter::default();
            let v0 = (block_off * 4).min(data.len());
            let v1 = ((block_off + block_len) * 4).min(data.len());
            for chunk in data[v0..v1].chunks(4) {
                encode_block(chunk, budget, &mut w);
            }
            payloads.push(w.into_bytes());
        }
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(18 + 8 * payloads.len() + total);
        format::write_preamble(&mut out, BackendTag::Zfp, V2_STREAMS);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for p in &payloads {
            out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        }
        for p in &payloads {
            out.extend_from_slice(p);
        }
        out
    }

    /// The per-block truncation choice, as the float encoder wrote it.
    pub(super) fn cut_for(budget: f64, emax: i32) -> u32 {
        let scale = 2f64.powi(emax - (PRECISION - 2));
        let max_cut = 62;
        let mut cut: u32 = 0;
        if budget / scale > 5.0 {
            cut = (((budget / scale - 3.0) / 2.0).log2().floor() as i64).clamp(0, max_cut) as u32;
        }
        cut
    }

    fn encode_block(values: &[f32], budget: f64, w: &mut BitWriter) {
        debug_assert!(!values.is_empty() && values.len() <= 4);
        // Pad short tail blocks by repeating the last value (cheap to code).
        let mut block = [0.0f32; 4];
        let pad = values.last().copied().unwrap_or(0.0);
        #[allow(clippy::needless_range_loop)] // pads the tail from `values`
        for i in 0..4 {
            block[i] = *values.get(i).unwrap_or(&pad);
        }
        // The one departure from the parent's encoder: `f32::max` drops NaN,
        // which sent NaN-holding blocks down the normal path as 0.0.
        let max_abs = if block.iter().any(|v| v.is_nan()) {
            f32::NAN
        } else {
            block.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
        };
        if max_abs == 0.0 || !max_abs.is_finite() {
            // Zero / non-finite blocks: flag + verbatim fallback for non-finite.
            if max_abs == 0.0 {
                w.write_bit(true); // zero-block flag
                w.write_bit(false);
                return;
            }
            w.write_bit(true);
            w.write_bit(true); // verbatim escape
            for v in block {
                w.write_bits(v.to_bits() as u64, 32);
            }
            return;
        }
        w.write_bit(false);

        let emax = (max_abs as f64).log2().floor() as i32;
        let scale = 2f64.powi(emax - (PRECISION - 2));
        let mut ints = [0i64; 4];
        for (i, &v) in block.iter().enumerate() {
            ints[i] = (v as f64 / scale).round() as i64;
        }
        fwd_transform(&mut ints);

        let cut = cut_for(budget, emax);
        // Truncate toward zero on magnitude (arithmetic shift floors negatives,
        // so work in sign-magnitude).
        let kept: [i64; 4] = std::array::from_fn(|i| {
            let v = ints[i];
            let mag = v.unsigned_abs() >> cut;
            if v < 0 {
                -(mag as i64)
            } else {
                mag as i64
            }
        });

        let width = kept
            .iter()
            .map(|&k| 64 - k.unsigned_abs().leading_zeros())
            .max()
            .unwrap_or(0);
        w.write_bits((emax + 256) as u64, 10);
        w.write_bits(cut as u64, 6);
        w.write_bits(width as u64, 6);
        for &k in &kept {
            w.write_bit(k < 0);
            w.write_bits(k.unsigned_abs(), width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::rng::StdRng;

    fn smooth_field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f32 / n as f32;
                (t * 9.0).sin() * 2.0 + 0.2 * (t * 55.0).cos()
            })
            .collect()
    }

    #[test]
    fn transform_is_exactly_reversible() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let orig: [i64; 4] = std::array::from_fn(|_| rng.gen_range(-(1 << 36)..(1 << 36)));
            let mut p = orig;
            fwd_transform(&mut p);
            inv_transform(&mut p);
            assert_eq!(p, orig);
        }
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data = smooth_field(4096);
        let zfp = ZfpCompressor;
        for tol in [1e-1, 1e-3, 1e-5, 1e-7] {
            let bound = ErrorBound::abs_linf(tol);
            let recon = zfp
                .decompress(&zfp.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon), "tol={tol}");
        }
    }

    #[test]
    fn rel_linf_roundtrip() {
        let data = smooth_field(1024);
        let zfp = ZfpCompressor;
        let bound = ErrorBound::rel_linf(1e-4);
        let recon = zfp
            .decompress(&zfp.compress(&data, &bound).unwrap(), data.len())
            .unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn l2_bound_rejected() {
        let zfp = ZfpCompressor;
        assert!(!zfp.supports(&ErrorBound::abs_l2(1e-3)));
        assert!(matches!(
            zfp.compress(&[1.0, 2.0], &ErrorBound::abs_l2(1e-3)),
            Err(CompressError::UnsupportedBound { backend: "zfp", .. })
        ));
    }

    #[test]
    fn ratio_grows_with_tolerance() {
        let data = smooth_field(8192);
        let zfp = ZfpCompressor;
        let len_at = |tol: f64| {
            zfp.compress(&data, &ErrorBound::abs_linf(tol))
                .unwrap()
                .len()
        };
        assert!(len_at(1e-1) < len_at(1e-4));
        assert!(len_at(1e-4) < len_at(1e-7));
    }

    #[test]
    fn zero_blocks_are_tiny() {
        let data = vec![0.0f32; 4096];
        let zfp = ZfpCompressor;
        let stream = zfp.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
        // 2 bits per 4-value block + header.
        assert!(stream.len() < 8 + 4096 / 4, "len={}", stream.len());
        let recon = zfp.decompress(&stream, data.len()).unwrap();
        assert!(recon.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mixed_magnitudes_bounded() {
        let mut data = smooth_field(512);
        for (i, v) in data.iter_mut().enumerate() {
            if i % 17 == 0 {
                *v *= 1e6;
            }
            if i % 23 == 0 {
                *v *= 1e-6;
            }
        }
        let zfp = ZfpCompressor;
        let bound = ErrorBound::abs_linf(1e-2);
        let recon = zfp
            .decompress(&zfp.compress(&data, &bound).unwrap(), data.len())
            .unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn non_multiple_of_four_lengths() {
        let zfp = ZfpCompressor;
        let bound = ErrorBound::abs_linf(1e-4);
        for n in [1usize, 2, 3, 5, 7, 1023] {
            let data = smooth_field(n);
            let recon = zfp
                .decompress(&zfp.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert_eq!(recon.len(), n);
            assert!(bound.verify(&data, &recon), "n={n}");
        }
    }

    #[test]
    fn empty_input() {
        let zfp = ZfpCompressor;
        let stream = zfp.compress(&[], &ErrorBound::abs_linf(1e-3)).unwrap();
        assert!(zfp.decompress(&stream, 0).unwrap().is_empty());
        assert!(zfp.decompress(&stream, 1).is_err());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let zfp = ZfpCompressor;
        assert!(zfp.decompress(&[0], 1).is_err());
        let stream = zfp
            .compress(&smooth_field(64), &ErrorBound::abs_linf(1e-5))
            .unwrap();
        assert!(zfp.decompress(&stream[..9], 64).is_err());
    }

    #[test]
    fn prop_error_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0x2F0);
        for _ in 0..64 {
            let tol = 10f64.powf(rng.gen_range(-7.0f64..-1.0));
            let n = rng.gen_range(1usize..300);
            let data: Vec<f32> = (0..n)
                .map(|i| ((i as f32) * 0.07).sin() * 3.0 + rng.gen_range(-0.5f32..0.5))
                .collect();
            let zfp = ZfpCompressor;
            let bound = ErrorBound::abs_linf(tol);
            let recon = zfp
                .decompress(&zfp.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }

    #[test]
    fn prop_haar_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x2F1);
        for _ in 0..256 {
            let a = rng.gen_range(-(1i64 << 40)..(1i64 << 40));
            let b = rng.gen_range(-(1i64 << 40)..(1i64 << 40));
            let (l, h) = haar_fwd(a, b);
            let (a2, b2) = haar_inv(l, h);
            assert_eq!((a, b), (a2, b2));
        }
    }

    /// One parsed block header, for the coverage checks below.
    enum Head {
        Zero,
        Verbatim,
        Normal { emax: i32, cut: u32, width: u32 },
    }

    /// Walks every block header of a v2 stream.
    fn block_heads(stream: &[u8]) -> Vec<Head> {
        let hdr = parse_header_v2(stream).unwrap();
        let mut heads = Vec::new();
        for (&(_, blocks), &(off, len)) in hdr.parts.iter().zip(hdr.payloads()) {
            let mut r = BitReader::new(&stream[hdr.payload_off + off..][..len]);
            for _ in 0..blocks {
                if r.read_bit().unwrap() {
                    if r.read_bit().unwrap() {
                        for _ in 0..4 {
                            r.read_bits(32).unwrap();
                        }
                        heads.push(Head::Verbatim);
                    } else {
                        heads.push(Head::Zero);
                    }
                    continue;
                }
                let emax = r.read_bits(10).unwrap() as i32 - 256;
                let cut = r.read_bits(6).unwrap() as u32;
                let width = r.read_bits(6).unwrap() as u32;
                for _ in 0..4 {
                    r.read_bits(1 + width).unwrap();
                }
                heads.push(Head::Normal { emax, cut, width });
            }
            assert!(r.remaining_bits() < 8, "sub-stream longer than its blocks");
        }
        heads
    }

    /// `±(1.f) · 2^k` with a random fraction.
    fn at_exponent(rng: &mut StdRng, k: i32) -> f32 {
        let x = rng.gen_range(1.0f64..2.0) * 2f64.powi(k);
        if rng.next_f64() < 0.5 {
            x as f32
        } else {
            -x as f32
        }
    }

    /// The `round`-th stream of the encoder corpus: seven kinds of field
    /// over lengths 0…5 000 (every `n mod 4` up front).
    fn corpus_stream(rng: &mut StdRng, round: usize) -> (&'static str, Vec<f32>) {
        let n = if round < 16 {
            round
        } else {
            rng.gen_range(0usize..=5000)
        };
        let raw_bits = |rng: &mut StdRng| f32::from_bits(rng.next_u64() as u32);
        match round % 7 {
            0 => {
                let k = rng.gen_range(-126i32..=126);
                (
                    "one exponent",
                    (0..n).map(|_| at_exponent(rng, k)).collect(),
                )
            }
            1 => (
                "whole exponent range",
                (0..n)
                    .map(|_| {
                        let k = rng.gen_range(-149i32..=127);
                        at_exponent(rng, k)
                    })
                    .collect(),
            ),
            2 => (
                "subnormals only",
                (0..n)
                    .map(|_| {
                        // Up to 23 significant bits, so small ones occur.
                        let top = rng.gen_range(0u32..=23);
                        f32::from_bits(raw_bits(rng).to_bits() & (1u32 << 31 | ((1u32 << top) - 1)))
                    })
                    .collect(),
            ),
            3 => (
                "subnormals beside small normals",
                (0..n)
                    .map(|_| {
                        let field = rng.gen_range(0u32..=3);
                        f32::from_bits(raw_bits(rng).to_bits() & 0x807F_FFFF | field << 23)
                    })
                    .collect(),
            ),
            4 => {
                let mut data = smooth_field(n);
                let runs = rng.gen_range(1usize..6);
                for _ in 0..runs {
                    let at = rng.gen_range(0..=n);
                    let len = rng.gen_range(0usize..200).min(n - at);
                    data[at..at + len].fill(if rng.next_f64() < 0.5 { 0.0 } else { -0.0 });
                }
                ("smooth with zero runs", data)
            }
            5 => ("raw bit patterns", (0..n).map(|_| raw_bits(rng)).collect()),
            _ => {
                let mut data: Vec<f32> = (0..n)
                    .map(|_| rng.gen_range(-1.0f32..1.0) * f32::MAX)
                    .collect();
                for v in data.iter_mut().step_by(97) {
                    *v = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN]
                        [rng.gen_range(0usize..4)];
                }
                ("f32::MAX-amplitude noise with inf and NaN", data)
            }
        }
    }

    /// The encoder arms this host can run; the others are reported skipped.
    fn encode_arms() -> Vec<EncodeArm> {
        let mut arms = vec![EncodeArm::Portable];
        if cfg!(miri) {
            eprintln!("skipping the avx512 ZFP encoder arm: Miri runs no AVX-512");
        } else if EncodeArm::Avx512.available() {
            arms.push(EncodeArm::Avx512);
        } else {
            eprintln!("skipping the avx512 ZFP encoder arm: host below simd::Level::Avx512");
        }
        arms
    }

    /// Encodes `data` on every arm this host can run, each called directly,
    /// holds every stream to the reference encoder's bytes, and returns them.
    fn arms_match_the_reference(data: &[f32], budget: f64, what: &str) -> Vec<u8> {
        let want = reference_encoder::compress_v2(data, budget);
        for arm in encode_arms() {
            let got = compress_v2(data, budget, arm);
            assert!(
                got == want,
                "{what}, n={}, budget={budget:e}: the {} arm's bytes differ from the \
                 reference encoder at {:?}",
                data.len(),
                arm.name(),
                got.iter().zip(&want).position(|(a, b)| a != b)
            );
        }
        want
    }

    #[test]
    fn zfp_encoder_bytes_match_the_reference_encoder() {
        let mut rng = StdRng::seed_from_u64(0x2F3);
        let (mut cut_zero, mut cut_mid, mut width_zero, mut wide) = (0, 0, 0, 0);
        let (mut zero, mut verbatim, mut subnormal) = (0, 0, 0);
        for round in 0..448 {
            let (kind, data) = corpus_stream(&mut rng, round);
            let tol = 10f64.powf(rng.gen_range(-12.0f64..1.0));
            // A budget the data's own scale makes meaningful, every other
            // round: the absolute one rarely lands near tiny or huge fields.
            let peak = data
                .iter()
                .filter(|v| v.is_finite())
                .fold(0.0f32, |m, v| m.max(v.abs()));
            let budget = if round % 2 == 0 || peak == 0.0 {
                tol
            } else {
                tol * peak as f64
            };
            let got = arms_match_the_reference(&data, budget, &format!("round {round} ({kind})"));
            for head in block_heads(&got) {
                match head {
                    Head::Zero => zero += 1,
                    Head::Verbatim => verbatim += 1,
                    Head::Normal { emax, cut, width } => {
                        cut_zero += usize::from(cut == 0);
                        cut_mid += usize::from(cut > 0 && cut < 62);
                        width_zero += usize::from(width == 0);
                        wide += usize::from(width > 27);
                        subnormal += usize::from(emax < -126);
                    }
                }
            }
        }
        // Every branch of the encoder was exercised, many times over.
        for (what, count) in [
            ("cut = 0", cut_zero),
            ("mid-range cut", cut_mid),
            ("width = 0", width_zero),
            ("width > 27", wide),
            ("zero block", zero),
            ("verbatim block", verbatim),
            ("all-subnormal block", subnormal),
        ] {
            assert!(count >= 100, "corpus reached `{what}` only {count} times");
        }
    }

    /// Lengths around the AVX-512 arm's edges — the 8-block group (32
    /// values), the 64-block tile and the four-way sub-stream split, which
    /// puts a group edge at 128 values and a tile edge at 1 024 — on fields
    /// with zero and verbatim blocks inside the groups.
    #[test]
    fn encoder_arms_match_across_group_tile_and_sub_stream_edges() {
        let mut lengths: Vec<usize> = (0..=40).chain(124..=132).collect();
        for k in 1..=16 {
            lengths.extend((1..=5).flat_map(|d| [256 * k - d, 256 * k + d]));
        }
        let mut rng = StdRng::seed_from_u64(0x2F4);
        for n in lengths {
            let smooth = smooth_field(n);
            let mut holes = smooth.clone();
            for (b, block) in holes.chunks_mut(4).enumerate() {
                match b % 11 {
                    3 => block.fill(0.0),
                    6 => block.fill(-0.0),
                    9 => block[b % block.len()] = [f32::NAN, f32::INFINITY, -f32::NAN][b % 3],
                    _ => {}
                }
            }
            let raw: Vec<f32> = (0..n)
                .map(|_| f32::from_bits(rng.next_u64() as u32))
                .collect();
            for (kind, data) in [
                ("smooth", &smooth),
                ("zero and verbatim blocks", &holes),
                ("raw bits", &raw),
            ] {
                for budget in [1e-9, 1e-4, 0.3] {
                    arms_match_the_reference(data, budget, &format!("{kind} field"));
                }
            }
        }
    }

    /// A stream whose exponents each first appear in the middle of an
    /// eight-block group, sometimes two in one group: the stage pass's cut
    /// gather reads `UNSET` there and fills the table on its cold path.
    #[test]
    fn encoder_arms_match_when_new_exponents_start_mid_group() {
        let mut rng = StdRng::seed_from_u64(0x2F5);
        let mut data: Vec<f32> = (0..8192).map(|_| at_exponent(&mut rng, 0)).collect();
        let mut exponent = -140;
        for b in (5..data.len() / 4).step_by(13) {
            for v in &mut data[4 * b..4 * b + 4] {
                *v = at_exponent(&mut rng, exponent);
            }
            exponent = if exponent >= 120 { -140 } else { exponent + 7 };
        }
        for budget in [1e-30, 1e-6, 1e3] {
            let stream = arms_match_the_reference(&data, budget, "new exponents mid-group");
            let mut seen = std::collections::BTreeSet::new();
            for head in block_heads(&stream) {
                if let Head::Normal { emax, .. } = head {
                    seen.insert(emax);
                }
            }
            assert!(seen.len() > 30, "only {} block exponents", seen.len());
        }
    }

    /// `biased_exponent` against the float expression it replaced, on every
    /// `stride`-th finite positive bit pattern.
    fn check_exponents(stride: usize) {
        for bits in (1..0x7F80_0000u32).step_by(stride) {
            let x = f32::from_bits(bits);
            let emax = (x as f64).log2().floor() as i32;
            assert_eq!(biased_exponent(bits) - 127, emax, "bits {bits:#010x}");
        }
    }

    /// `quantize` against the float expression it replaced.  The quantizer
    /// sees the 24-bit significand, whether the value is subnormal, the
    /// sign, and the gap between the block's exponent and the value's — so
    /// every `stride`-th significand × every gap × both signs, at one
    /// arbitrary block exponent, is every input it can tell apart.
    fn check_quantizer(stride: usize) {
        let check = |bits: u32, biased: i32| {
            for bits in [bits, bits | 1 << 31] {
                let x = f32::from_bits(bits);
                let want = (x as f64 / 2f64.powi(biased - 127 - (PRECISION - 2))).round() as i64;
                assert_eq!(
                    quantize(bits, biased),
                    want,
                    "bits {bits:#010x} in a block of biased exponent {biased}"
                );
            }
        };
        const BLOCK: i32 = 200;
        for sig in (0..1u32 << 24).step_by(stride) {
            let frac = sig & 0x7F_FFFF;
            if sig >> 23 == 1 {
                for gap in 0..=40 {
                    check(((BLOCK - gap) as u32) << 23 | frac, BLOCK);
                }
            } else {
                // A subnormal's exponent is that of field 1.
                for gap in 0..=40 {
                    check(frac, 1 + gap);
                }
                // All-subnormal blocks: the block's exponent is below that.
                if frac != 0 {
                    for biased in biased_exponent(frac)..=0 {
                        check(frac, biased);
                    }
                }
            }
        }
    }

    #[test]
    fn integer_exponent_and_quantizer_match_the_float_expressions() {
        check_exponents(61);
        check_quantizer(61);
    }

    /// Every finite positive bit pattern and every quantizer input (≈ 3.7 G
    /// evaluations): minutes unoptimized, so CI runs it once with
    /// `--release -- --ignored`; the strided version above is in every run.
    #[test]
    #[ignore]
    fn exhaustive_sweep_of_integer_exponent_and_quantizer() {
        check_exponents(1);
        check_quantizer(1);
    }

    #[test]
    fn cut_table_matches_the_float_expression() {
        let mut budgets: Vec<f64> = (0..64)
            .map(|i| 10f64.powf(-45.0 + 83.0 * i as f64 / 63.0))
            .collect();
        budgets.extend([f64::MIN_POSITIVE, 5.0, f64::MAX, f64::INFINITY]);
        for budget in budgets {
            let mut table = CutTable::new(budget);
            // Descending, then again: first use and cached use.
            for emax in (EMIN..=EMAX).rev().chain(EMIN..=EMAX) {
                assert_eq!(
                    table.get(emax),
                    reference_encoder::cut_for(budget, emax),
                    "budget {budget:e}, emax {emax}"
                );
            }
        }
    }

    /// The AVX2 kernel must reconstruct bit-identically to the portable
    /// scalar lane decode, across tolerances wide enough to exercise every
    /// coefficient-width path (one-window, two-window, and the general
    /// fallback) plus zero blocks and ragged tails.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn prop_v2_avx2_kernel_matches_scalar() {
        if !errflow_tensor::simd::has_avx2() {
            eprintln!("skipping: host lacks AVX2");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x2F2);
        for round in 0..48 {
            let n = rng.gen_range(1usize..3000);
            let tol = 10f64.powf(rng.gen_range(-9.0f64..-1.0));
            let mut data: Vec<f32> = (0..n)
                .map(|i| ((i as f32) * 0.05).sin() * 20.0 + rng.gen_range(-1.0f32..1.0))
                .collect();
            if round % 3 == 0 {
                // Zero runs force zero-block rounds into the kernel.
                for v in data.iter_mut().take(n / 2) {
                    *v = 0.0;
                }
            }
            if round % 7 == 0 {
                // Non-finite values force verbatim-escape blocks.
                let at = rng.gen_range(0..n);
                data[at] = f32::NAN;
            }
            let stream = compress_v2(&data, tol, EncodeArm::dispatched());
            let hdr = parse_header_v2(&stream).unwrap();
            let payload = &stream[hdr.payload_off..];
            let mut scalar = vec![0.0f32; n];
            decompress_v2_scalar(payload, hdr.payloads(), &hdr.parts, &mut scalar).unwrap();
            let mut simd = vec![0.0f32; n];
            crate::zfp_simd::decode_v2_avx2(payload, hdr.payloads(), &hdr.parts, &mut simd)
                .unwrap();
            for (i, (a, b)) in scalar.iter().zip(&simd).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "n={n} tol={tol:e}: kernel diverges at index {i}"
                );
            }
        }
    }
}

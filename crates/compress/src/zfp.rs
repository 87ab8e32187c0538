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
//! AVX2 lane (see `zfp_simd`).  Streams without the container magic (the
//! retired single-stream layout, the same blocks in one bit stream) are
//! decoded by [`crate::reference::zfp_decompress`].

use crate::bitstream::{BitReader, BitWriter};
use crate::error_bound::ErrorBound;
use crate::format::{self, BackendTag, V2_STREAMS};
use crate::reference;
use crate::traits::{check_tolerance, CompressError, Compressor};

/// Working integer precision (bits of the normalised significand).
pub(crate) const PRECISION: i32 = 38;

/// ZFP-class compressor (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ZfpCompressor;

impl ZfpCompressor {
    /// Creates the compressor.
    pub fn new() -> Self {
        ZfpCompressor
    }
}

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
        check_tolerance(bound.tolerance)?;
        if bound.mode.is_l2() {
            return Err(CompressError::UnsupportedBound {
                backend: "zfp",
                reason: "ZFP supports pointwise (L-infinity) tolerances only".into(),
            });
        }
        let budget = bound.pointwise_budget(data);
        Ok(compress_v2(data, budget))
    }

    fn decompress(&self, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        let _span = errflow_obs::trace::span("codec.zfp.decompress");
        if !format::is_v2(stream) {
            return reference::zfp_decompress(stream);
        }
        let hdr = parse_header_v2(stream)?;
        // Allocation is safe: `parse_header_v2` bounded `n` by the
        // per-stream 2-bits-per-block minimum.
        let mut out = vec![0.0f32; hdr.n];
        decompress_v2_into(stream, &hdr, &mut out)?;
        Ok(out)
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        _scratch: &mut crate::scratch::CodecScratch,
    ) -> Result<(), CompressError> {
        if !format::is_v2(stream) {
            return reference::decompress_into(self.name(), stream, out);
        }
        let hdr = parse_header_v2(stream)?;
        if hdr.n != out.len() {
            return Err(CompressError::CorruptStream(format!(
                "stream declares {} values, expected {}",
                hdr.n,
                out.len()
            )));
        }
        decompress_v2_into(stream, &hdr, out)
    }
}

/// Encodes `data` into the v2 interleaved container: blocks are split
/// evenly into [`V2_STREAMS`] contiguous runs, each encoded into its own
/// bit stream so decode lanes carry independent dependency chains.
fn compress_v2(data: &[f32], budget: f64) -> Vec<u8> {
    let n_blocks = data.len().div_ceil(4);
    let parts = format::split_even(n_blocks, V2_STREAMS);
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(parts.len());
    for &(block_off, block_len) in &parts {
        let mut w = BitWriter::new();
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

/// Parsed v2 container header.
struct V2Header {
    /// Declared element count.
    n: usize,
    /// `(byte offset, byte length)` of each sub-stream within the payload
    /// region.
    payloads: Vec<(usize, usize)>,
    /// Byte offset of the payload region within the stream.
    payload_off: usize,
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
    let mut payloads = Vec::with_capacity(n_streams);
    let mut total = 0usize;
    for _ in 0..n_streams {
        let l = crate::traits::read_len_u64(stream, &mut pos, "sub-stream payload length")?;
        payloads.push((total, l));
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
    for (i, &(_, blocks)) in parts.iter().enumerate() {
        if blocks.saturating_mul(2) > payloads[i].1.saturating_mul(8) {
            return Err(CompressError::CorruptStream(format!(
                "sub-stream {i} declares {blocks} blocks but holds only {} bits",
                payloads[i].1.saturating_mul(8)
            )));
        }
    }
    Ok(V2Header {
        n,
        payloads,
        payload_off: pos,
    })
}

/// Decodes a v2 container into `out` (already sized to `hdr.n`): one
/// decode lane per sub-stream, through the AVX2 block kernel when the host
/// supports it.
fn decompress_v2_into(stream: &[u8], hdr: &V2Header, out: &mut [f32]) -> Result<(), CompressError> {
    let payload = &stream[hdr.payload_off..];
    let parts = format::split_even(out.len().div_ceil(4), hdr.payloads.len());
    #[cfg(target_arch = "x86_64")]
    if hdr.payloads.len() == 4
        && errflow_tensor::simd::has_avx2()
        && !errflow_tensor::simd::force_scalar()
    {
        return crate::zfp_simd::decode_v2_avx2(payload, &hdr.payloads, &parts, out);
    }
    decompress_v2_scalar(payload, &hdr.payloads, &parts, out)
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

fn encode_block(values: &[f32], budget: f64, w: &mut BitWriter) {
    debug_assert!(!values.is_empty() && values.len() <= 4);
    // Pad short tail blocks by repeating the last value (cheap to code).
    let mut block = [0.0f32; 4];
    let pad = values.last().copied().unwrap_or(0.0);
    #[allow(clippy::needless_range_loop)] // pads the tail from `values`
    for i in 0..4 {
        block[i] = *values.get(i).unwrap_or(&pad);
    }
    let max_abs = block.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
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

    // Pick the largest truncation that keeps the worst-case reconstruction
    // error within budget: int error ≤ 2^(cut+1) + 3 (transform gain 4 on a
    // half-step coefficient error, plus lifting-rounding slack).
    let max_cut = 62;
    let mut cut: u32 = 0;
    if budget / scale > 5.0 {
        cut = (((budget / scale - 3.0) / 2.0).log2().floor() as i64).clamp(0, max_cut) as u32;
    }
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
        let zfp = ZfpCompressor::new();
        for tol in [1e-1, 1e-3, 1e-5, 1e-7] {
            let bound = ErrorBound::abs_linf(tol);
            let recon = zfp
                .decompress(&zfp.compress(&data, &bound).unwrap())
                .unwrap();
            assert!(bound.verify(&data, &recon), "tol={tol}");
        }
    }

    #[test]
    fn rel_linf_roundtrip() {
        let data = smooth_field(1024);
        let zfp = ZfpCompressor::new();
        let bound = ErrorBound::rel_linf(1e-4);
        let recon = zfp
            .decompress(&zfp.compress(&data, &bound).unwrap())
            .unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn l2_bound_rejected() {
        let zfp = ZfpCompressor::new();
        assert!(!zfp.supports(&ErrorBound::abs_l2(1e-3)));
        assert!(matches!(
            zfp.compress(&[1.0, 2.0], &ErrorBound::abs_l2(1e-3)),
            Err(CompressError::UnsupportedBound { backend: "zfp", .. })
        ));
    }

    #[test]
    fn ratio_grows_with_tolerance() {
        let data = smooth_field(8192);
        let zfp = ZfpCompressor::new();
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
        let zfp = ZfpCompressor::new();
        let stream = zfp.compress(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
        // 2 bits per 4-value block + header.
        assert!(stream.len() < 8 + 4096 / 4, "len={}", stream.len());
        let recon = zfp.decompress(&stream).unwrap();
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
        let zfp = ZfpCompressor::new();
        let bound = ErrorBound::abs_linf(1e-2);
        let recon = zfp
            .decompress(&zfp.compress(&data, &bound).unwrap())
            .unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn non_multiple_of_four_lengths() {
        let zfp = ZfpCompressor::new();
        let bound = ErrorBound::abs_linf(1e-4);
        for n in [1usize, 2, 3, 5, 7, 1023] {
            let data = smooth_field(n);
            let recon = zfp
                .decompress(&zfp.compress(&data, &bound).unwrap())
                .unwrap();
            assert_eq!(recon.len(), n);
            assert!(bound.verify(&data, &recon), "n={n}");
        }
    }

    #[test]
    fn empty_input() {
        let zfp = ZfpCompressor::new();
        let stream = zfp.compress(&[], &ErrorBound::abs_linf(1e-3)).unwrap();
        assert!(zfp.decompress(&stream).unwrap().is_empty());
    }

    #[test]
    fn corrupt_stream_rejected() {
        let zfp = ZfpCompressor::new();
        assert!(zfp.decompress(&[0]).is_err());
        let stream = zfp
            .compress(&smooth_field(64), &ErrorBound::abs_linf(1e-5))
            .unwrap();
        assert!(zfp.decompress(&stream[..9]).is_err());
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
            let zfp = ZfpCompressor::new();
            let bound = ErrorBound::abs_linf(tol);
            let recon = zfp
                .decompress(&zfp.compress(&data, &bound).unwrap())
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
            let stream = compress_v2(&data, tol);
            let hdr = parse_header_v2(&stream).unwrap();
            let payload = &stream[hdr.payload_off..];
            let parts = format::split_even(n.div_ceil(4), hdr.payloads.len());
            let mut scalar = vec![0.0f32; n];
            decompress_v2_scalar(payload, &hdr.payloads, &parts, &mut scalar).unwrap();
            let mut simd = vec![0.0f32; n];
            crate::zfp_simd::decode_v2_avx2(payload, &hdr.payloads, &parts, &mut simd).unwrap();
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

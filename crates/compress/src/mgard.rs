//! MGARD-class multilevel error-bounded compressor.
//!
//! MGARD (the paper's references \[26\], \[27\]) decomposes data on a hierarchy
//! of nested grids: each level's odd-indexed nodes are expressed as
//! *multilevel coefficients* — their deviation from the linear interpolation
//! of the surviving even-indexed (coarser) nodes — and the recursion
//! continues on the coarser grid.  Smooth data concentrates energy in the
//! coarse levels, so the fine-level coefficients quantize to near-zero codes
//! that entropy-code extremely well.
//!
//! This implementation uses the closed-loop formulation (as in MGARD+):
//! coefficients are computed against the *reconstructed* coarser grid, so
//! every value's final error is just its own quantization error and the
//! user's pointwise budget can be applied at full strength on every level.
//! Reconstruction is verified in `f32` during compression; any value that
//! would violate the bound is escaped verbatim.
//!
//! Both directions stage the level hierarchy in reused workspace buffers
//! (pooled [`CodecScratch`](crate::CodecScratch)): compression flattens the
//! nested grids into one arena and reconstruction ping-pongs between two
//! level buffers, so steady-state coding allocates nothing per call.
//!
//! ## Stream layout
//!
//! ```text
//! [magic u64][tag=Mgard u8][n_streams u8]
//! [n varint][eb f64][coarse f32 × coarse_len]
//! [multi-stream Huffman block over the coefficient symbols]
//! [outlier f32 table]
//! ```
//!
//! `coarse_len` and the coefficient count follow from `n` (the level
//! lengths halve, rounding up, down to at most three values), so the
//! header holds neither.  The level recursion itself stays serial (each
//! level interpolates the one below), so only the entropy stage is split:
//! the coefficient symbols, coarsest level first, are cut into
//! [`V2_STREAMS`] segments by [`huffman::encode_multi_into`].  Any other
//! bytes — no magic, or a tag other than [`BackendTag::Mgard`], the
//! retired fixed-width tag 3 among them — are a typed
//! [`CompressError::CorruptStream`].

use crate::error_bound::ErrorBound;
use crate::format::{self, BackendTag, V2_STREAMS};
use crate::huffman;
use crate::scratch::{self, CodecScratch};
use crate::traits::{check_tolerance, CompressError, Compressor};

const MAX_CODE: i64 = 32_767;
const ESCAPE: u16 = 0;
/// Recursion stops when a level has at most this many nodes.
const COARSEST_LEN: usize = 3;
/// Hard cap on hierarchy depth.
const MAX_LEVELS: usize = 24;

/// MGARD-class compressor (see module docs).
#[derive(Debug, Clone, Default)]
pub struct MgardCompressor;

impl MgardCompressor {
    /// Parses the header, reads the coarse level into `scratch.fa`, and
    /// entropy-decodes the coefficient symbols into `scratch.symbols`.
    /// Returns `(eb, level_lengths, outlier_table_offset)`.  The declared
    /// element count must be the caller's `expected`, checked before the
    /// coarse level or the symbols, whose sizes follow from it, are read.
    fn decode_core(
        stream: &[u8],
        expected: usize,
        scratch: &mut CodecScratch,
    ) -> Result<(f64, Vec<usize>, usize), CompressError> {
        let mut pos = 0usize;
        // The coefficient symbols are one flat sequence to the level
        // recursion; the sub-stream count only shapes the Huffman block.
        let n_streams = format::read_preamble(stream, &mut pos, BackendTag::Mgard)?;
        let n = crate::traits::read_varint_len(stream, &mut pos, "element count")?;
        crate::traits::check_count(n, expected)?;
        let eb = crate::traits::read_f64(stream, &mut pos, "error bound")?;
        // The coarse level's length and the coefficient count follow from
        // `n`: the stream declares neither.
        let lens = level_lengths(n);
        let coarse_len = lens.last().copied().unwrap_or(n);
        if coarse_len > (stream.len() - pos) / 4 {
            return Err(CompressError::CorruptStream(format!(
                "coarse level of {coarse_len} values past the stream's end"
            )));
        }
        let coarse = &mut scratch.fa;
        coarse.clear();
        coarse.resize(coarse_len, 0.0);
        format::read_f32_table(&stream[pos..pos + 4 * coarse_len], coarse);
        pos += 4 * coarse_len;
        let n_symbols: usize = lens[..lens.len() - 1].iter().map(|&len| len / 2).sum();
        pos += huffman::decode_multi_into(
            &stream[pos..],
            n_symbols,
            n_streams,
            &mut scratch.symbols,
            &mut scratch.huff,
        )?;
        Ok((eb, lens, pos))
    }

    /// Closed-loop reconstruction coarsest → finest, ping-ponging between
    /// the scratch buffers; the finest level lands directly in `out`
    /// (`out.len() == lens[0]`).  Expects the coarse level in `scratch.fa`
    /// and the coefficient symbols in `scratch.symbols`.
    fn reconstruct(
        stream: &[u8],
        mut pos: usize,
        eb: f64,
        lens: &[usize],
        scratch: &mut CodecScratch,
        out: &mut [f32],
    ) -> Result<(), CompressError> {
        debug_assert_eq!(out.len(), lens[0]);
        let CodecScratch {
            symbols, fa, fb, ..
        } = scratch;
        if lens.len() == 1 {
            out.copy_from_slice(fa);
            return Ok(());
        }
        let mut sym_idx = 0usize;
        let (mut cur, mut next) = (&mut *fa, &mut *fb);
        for k in (0..lens.len() - 1).rev() {
            let len = lens[k];
            if k == 0 {
                Self::reconstruct_level(stream, &mut pos, eb, symbols, &mut sym_idx, cur, out)?;
            } else {
                next.clear();
                next.resize(len, 0.0);
                Self::reconstruct_level(stream, &mut pos, eb, symbols, &mut sym_idx, cur, next)?;
                std::mem::swap(&mut cur, &mut next);
            }
        }
        Ok(())
    }

    /// Reconstructs one level: even nodes copy the coarser level, odd nodes
    /// add the dequantized coefficient to the interpolation of their
    /// neighbours (or take a verbatim outlier from `stream`).
    fn reconstruct_level(
        stream: &[u8],
        pos: &mut usize,
        eb: f64,
        symbols: &[u16],
        sym_idx: &mut usize,
        coarse: &[f32],
        recon: &mut [f32],
    ) -> Result<(), CompressError> {
        let len = recon.len();
        for (j, &v) in coarse.iter().enumerate() {
            recon[2 * j] = v;
        }
        for i in (1..len).step_by(2) {
            let sym = symbols[*sym_idx];
            *sym_idx += 1;
            if sym == ESCAPE {
                recon[i] = crate::traits::read_f32(stream, pos, "outlier table")?;
            } else {
                let code = i64::from(sym) - MAX_CODE - 1;
                let pred = interpolate(recon, i, len);
                recon[i] = (pred as f64 + 2.0 * eb * code as f64) as f32;
            }
        }
        Ok(())
    }
}

/// Lengths of each level, finest (index 0) to coarsest.
fn level_lengths(n: usize) -> Vec<usize> {
    let mut lens = vec![n];
    let mut cur = n;
    while cur > COARSEST_LEN && lens.len() < MAX_LEVELS {
        cur = cur.div_ceil(2);
        lens.push(cur);
    }
    lens
}

/// Linear interpolation of odd node `i` from its even neighbours within a
/// level of length `len` (endpoint odd nodes copy their left neighbour).
#[inline]
fn interpolate(recon: &[f32], i: usize, len: usize) -> f32 {
    if i + 1 < len {
        0.5 * (recon[i - 1] + recon[i + 1])
    } else {
        recon[i - 1]
    }
}

impl Compressor for MgardCompressor {
    fn name(&self) -> &'static str {
        "mgard"
    }

    fn supports(&self, _bound: &ErrorBound) -> bool {
        // MGARD handles both L∞ and L2 tolerances (Figs. 11, 12).
        true
    }

    fn compress(&self, data: &[f32], bound: &ErrorBound) -> Result<Vec<u8>, CompressError> {
        let _span = errflow_obs::trace::span("codec.mgard.compress");
        check_tolerance(bound.tolerance)?;
        let eb = bound.pointwise_budget(data);
        let lens = level_lengths(data.len());

        let mut pooled = scratch::acquire();
        let CodecScratch {
            symbols,
            fa,
            fb,
            fc,
            ..
        } = &mut *pooled;

        // Flatten the value hierarchy into one arena: level k starts at
        // offsets[k] and satisfies fa[offsets[k] + j] = fa[offsets[k-1] + 2j].
        let total: usize = lens.iter().sum();
        fa.clear();
        fa.reserve(total);
        fa.extend_from_slice(data);
        let mut offsets = vec![0usize; lens.len()];
        for k in 1..lens.len() {
            offsets[k] = fa.len();
            let start = offsets[k - 1];
            for j in (0..lens[k - 1]).step_by(2) {
                let v = fa[start + j];
                fa.push(v);
            }
        }
        // `level_lengths` always returns at least one level for nonempty
        // data; empty lists degrade to an empty coarse band.
        let coarse_start = offsets.last().copied().unwrap_or(0);
        let coarse_len = lens.last().copied().unwrap_or(0);

        symbols.clear();
        let mut outliers: Vec<f32> = Vec::new();

        // Closed-loop reconstruction, coarsest → finest, ping-ponging
        // between the two workspace buffers instead of allocating per level.
        fb.clear();
        fb.extend_from_slice(&fa[coarse_start..coarse_start + coarse_len]);
        let (mut cur, mut next) = (&mut *fb, &mut *fc);
        for k in (0..lens.len().saturating_sub(1)).rev() {
            let len = lens[k];
            next.clear();
            next.resize(len, 0.0);
            for (j, &v) in cur.iter().enumerate() {
                next[2 * j] = v;
            }
            for i in (1..len).step_by(2) {
                let x = fa[offsets[k] + i];
                let pred = interpolate(next, i, len);
                let d = x as f64 - pred as f64;
                let code = (d / (2.0 * eb)).round() as i64;
                let mut accepted = false;
                // unsigned_abs: the float→int cast saturates to i64::MIN
                // for huge negative residuals, where .abs() would overflow.
                if code.unsigned_abs() <= MAX_CODE as u64 {
                    let r = (pred as f64 + 2.0 * eb * code as f64) as f32;
                    if ((x - r).abs() as f64) <= eb && r.is_finite() {
                        symbols.push((code + MAX_CODE + 1) as u16);
                        next[i] = r;
                        accepted = true;
                    }
                }
                if !accepted {
                    symbols.push(ESCAPE);
                    outliers.push(x);
                    next[i] = x;
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }

        let mut out = Vec::new();
        format::write_preamble(&mut out, BackendTag::Mgard, V2_STREAMS);
        crate::traits::write_varint(&mut out, data.len() as u64);
        out.extend_from_slice(&eb.to_le_bytes());
        format::write_f32_table(&mut out, &fa[coarse_start..coarse_start + coarse_len]);
        huffman::encode_multi_into(symbols, V2_STREAMS, &mut out);
        format::write_f32_table(&mut out, &outliers);
        Ok(out)
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        scratch: &mut CodecScratch,
    ) -> Result<(), CompressError> {
        let _span = errflow_obs::trace::span("codec.mgard.decompress");
        let (eb, lens, pos) = Self::decode_core(stream, out.len(), scratch)?;
        Self::reconstruct(stream, pos, eb, &lens, scratch, out)
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
                (t * 7.0).sin() * 1.5 + 0.25 * (t * 31.0).cos()
            })
            .collect()
    }

    #[test]
    fn level_lengths_halve() {
        assert_eq!(level_lengths(9), vec![9, 5, 3]);
        assert_eq!(level_lengths(3), vec![3]);
        assert_eq!(level_lengths(1), vec![1]);
        assert_eq!(level_lengths(0), vec![0]);
        assert_eq!(level_lengths(16), vec![16, 8, 4, 2]);
    }

    #[test]
    fn coefficient_symbol_count_matches() {
        // Every element is either a coefficient (odd node at exactly one
        // level) or survives to the coarsest level:
        // Σ_levels ⌊len/2⌋ + coarse_len == n for any n.
        for n in [1usize, 2, 3, 7, 16, 100, 1023] {
            let lens = level_lengths(n);
            let coeffs: usize = lens[..lens.len() - 1].iter().map(|&l| l / 2).sum();
            assert_eq!(coeffs + lens.last().unwrap(), n, "n={n}");
        }
    }

    #[test]
    fn roundtrip_respects_abs_linf_bound() {
        let data = smooth_field(4096);
        let m = MgardCompressor;
        for tol in [1e-2, 1e-4, 1e-6] {
            let bound = ErrorBound::abs_linf(tol);
            let recon = m
                .decompress(&m.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon), "tol={tol}");
        }
    }

    #[test]
    fn roundtrip_respects_l2_bounds() {
        let data = smooth_field(2048);
        let m = MgardCompressor;
        for bound in [ErrorBound::abs_l2(1e-2), ErrorBound::rel_l2(1e-4)] {
            let recon = m
                .decompress(&m.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon), "{bound:?}");
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_field(16_384);
        let m = MgardCompressor;
        let stream = m.compress(&data, &ErrorBound::rel_linf(1e-3)).unwrap();
        let ratio = (data.len() * 4) as f64 / stream.len() as f64;
        assert!(ratio > 6.0, "ratio = {ratio:.2}");
    }

    #[test]
    fn ratio_grows_with_tolerance() {
        let data = smooth_field(8192);
        let m = MgardCompressor;
        let len_at = |tol: f64| m.compress(&data, &ErrorBound::rel_linf(tol)).unwrap().len();
        assert!(len_at(1e-2) < len_at(1e-5));
    }

    #[test]
    fn outliers_handled() {
        let mut data = smooth_field(256);
        data[100] = 1e28;
        let m = MgardCompressor;
        let bound = ErrorBound::abs_linf(1e-5);
        let recon = m
            .decompress(&m.compress(&data, &bound).unwrap(), data.len())
            .unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn small_inputs() {
        let m = MgardCompressor;
        let bound = ErrorBound::abs_linf(1e-3);
        for n in [0usize, 1, 2, 3, 4, 5] {
            let data = smooth_field(n);
            let recon = m
                .decompress(&m.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert_eq!(recon.len(), n, "n={n}");
            assert!(bound.verify(&data, &recon), "n={n}");
        }
    }

    #[test]
    fn coarse_level_is_exact() {
        // Coarsest nodes are stored verbatim: stride-2^K samples are exact.
        let data = smooth_field(33);
        let m = MgardCompressor;
        let recon = m
            .decompress(
                &m.compress(&data, &ErrorBound::abs_linf(1e-1)).unwrap(),
                data.len(),
            )
            .unwrap();
        // Index 0 survives to every coarser level.
        assert_eq!(recon[0], data[0]);
    }

    #[test]
    fn corrupt_stream_rejected() {
        let m = MgardCompressor;
        assert!(m.decompress(&[0; 10], 1).is_err());
        let stream = m
            .compress(&smooth_field(200), &ErrorBound::abs_linf(1e-3))
            .unwrap();
        assert!(m.decompress(&stream[..stream.len() - 3], 200).is_err());
        assert!(m.decompress(&stream, 201).is_err());
    }

    #[test]
    fn prop_error_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0xD0);
        for _ in 0..64 {
            // Log-uniform tolerances cover all magnitudes evenly.
            let tol = 10f64.powf(rng.gen_range(-6.0f64..-1.0));
            let n = rng.gen_range(1usize..400);
            let data: Vec<f32> = (0..n)
                .map(|i| ((i as f32) * 0.05).cos() * 2.0 + rng.gen_range(-0.3f32..0.3))
                .collect();
            let m = MgardCompressor;
            let bound = ErrorBound::abs_linf(tol);
            let recon = m
                .decompress(&m.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }

    #[test]
    fn prop_l2_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0xD1);
        for _ in 0..64 {
            let tol = 10f64.powf(rng.gen_range(-4.0f64..-1.0));
            let data: Vec<f32> = (0..311).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let m = MgardCompressor;
            let bound = ErrorBound::abs_l2(tol);
            let recon = m
                .decompress(&m.compress(&data, &bound).unwrap(), data.len())
                .unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }
}

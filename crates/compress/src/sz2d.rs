//! Two-dimensional SZ-class compression.
//!
//! Scientific fields are multi-dimensional; SZ's defining trick in ≥2
//! dimensions is the **Lorenzo predictor**, which predicts each value from
//! its already-reconstructed west / north / north-west neighbours:
//! `pred(i,j) = x̃(i−1,j) + x̃(i,j−1) − x̃(i−1,j−1)`.  On smooth 2-D data
//! this is exact for locally bilinear patches and beats any 1-D predictor
//! on the same bytes.
//!
//! [`Sz2dCompressor`] carries the grid shape explicitly (the 1-D
//! [`crate::SzCompressor`] keeps the generic [`crate::Compressor`] trait);
//! the bound contract is identical: every reconstructed value lands within
//! the pointwise budget, verified in `f32` with verbatim escape.
//!
//! Stream layout: `[nx u64][ny u64][eb f64]`, the multi-stream Huffman
//! block ([`crate::huffman::encode_multi`]) over the row-major symbols cut
//! by [`format::split_slices`], then the outlier `f32` table.

use crate::error_bound::ErrorBound;
use crate::format::{self, V2_STREAMS};
use crate::huffman;
use crate::traits::{check_tolerance, CompressError};

const MAX_CODE: i64 = 32_767;
const ESCAPE: u32 = 0;

/// SZ-class compressor for 2-D row-major grids.
#[derive(Debug, Clone, Default)]
pub struct Sz2dCompressor;

impl Sz2dCompressor {
    /// Creates the compressor.
    pub fn new() -> Self {
        Sz2dCompressor
    }

    /// Element count of an `nx × ny` grid.  A grid with exactly one zero
    /// dimension holds no values but still names an unbounded number of
    /// empty rows (or columns) for the row loops to walk, so it is rejected
    /// on both sides; `0 × 0` is the empty grid.
    fn grid_len(nx: usize, ny: usize) -> Result<usize, CompressError> {
        if (nx == 0) != (ny == 0) {
            return Err(CompressError::CorruptStream(format!(
                "degenerate {nx}x{ny} grid"
            )));
        }
        nx.checked_mul(ny)
            .ok_or_else(|| CompressError::CorruptStream("grid dimensions overflow".into()))
    }

    /// 2-D Lorenzo prediction from reconstructed neighbours.
    #[inline]
    fn predict(recon: &[f32], nx: usize, i: usize, j: usize) -> f64 {
        let at = |jj: usize, ii: usize| recon[jj * nx + ii] as f64;
        match (i, j) {
            (0, 0) => 0.0,
            (_, 0) => at(0, i - 1),
            (0, _) => at(j - 1, 0),
            _ => at(j, i - 1) + at(j - 1, i) - at(j - 1, i - 1),
        }
    }

    /// Compresses an `nx × ny` row-major grid under `bound`.
    pub fn compress(
        &self,
        data: &[f32],
        nx: usize,
        ny: usize,
        bound: &ErrorBound,
    ) -> Result<Vec<u8>, CompressError> {
        check_tolerance(bound.tolerance)?;
        if data.len() != Self::grid_len(nx, ny)? {
            return Err(CompressError::CorruptStream(format!(
                "buffer length {} does not match {nx}x{ny}",
                data.len()
            )));
        }
        let eb = bound.pointwise_budget(data);
        let mut symbols: Vec<u32> = Vec::with_capacity(data.len());
        let mut outliers: Vec<f32> = Vec::new();
        let mut recon: Vec<f32> = vec![0.0; data.len()];

        for j in 0..ny {
            for i in 0..nx {
                let x = data[j * nx + i];
                let pred = Self::predict(&recon, nx, i, j);
                let code = ((x as f64 - pred) / (2.0 * eb)).round() as i64;
                let mut accepted = false;
                if code.unsigned_abs() <= MAX_CODE as u64 {
                    let r = (pred + 2.0 * eb * code as f64) as f32;
                    if ((x - r).abs() as f64) <= eb && r.is_finite() {
                        symbols.push((code + MAX_CODE + 1) as u32);
                        recon[j * nx + i] = r;
                        accepted = true;
                    }
                }
                if !accepted {
                    symbols.push(ESCAPE);
                    outliers.push(x);
                    recon[j * nx + i] = x;
                }
            }
        }

        let mut out = Vec::new();
        out.extend_from_slice(&(nx as u64).to_le_bytes());
        out.extend_from_slice(&(ny as u64).to_le_bytes());
        out.extend_from_slice(&eb.to_le_bytes());
        huffman::encode_multi_into(&format::split_slices(&symbols, V2_STREAMS), &mut out);
        for v in &outliers {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Ok(out)
    }

    /// Decompresses a stream produced by [`Sz2dCompressor::compress`];
    /// returns `(values, nx, ny)`.
    pub fn decompress(&self, stream: &[u8]) -> Result<(Vec<f32>, usize, usize), CompressError> {
        let mut hdr = 0usize;
        let nx = crate::traits::read_len_u64(stream, &mut hdr, "grid width")?;
        let ny = crate::traits::read_len_u64(stream, &mut hdr, "grid height")?;
        let eb = crate::traits::read_f64(stream, &mut hdr, "error bound")?;
        let n = Self::grid_len(nx, ny)?;
        let (symbols, consumed) = huffman::decode_multi(&stream[24..])?;
        if symbols.len() != n {
            return Err(CompressError::CorruptStream(format!(
                "expected {n} symbols, decoded {}",
                symbols.len()
            )));
        }
        let mut pos = 24 + consumed;
        let mut recon = vec![0.0f32; n];
        for j in 0..ny {
            for i in 0..nx {
                let sym = symbols[j * nx + i]; // length == n checked above
                if sym == ESCAPE {
                    recon[j * nx + i] = crate::traits::read_f32(stream, &mut pos, "outlier table")?;
                } else {
                    let code = sym as i64 - MAX_CODE - 1;
                    let pred = Self::predict(&recon, nx, i, j);
                    recon[j * nx + i] = (pred + 2.0 * eb * code as f64) as f32;
                }
            }
        }
        Ok((recon, nx, ny))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::rng::StdRng;

    fn smooth_grid(nx: usize, ny: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(nx * ny); // compress-side, trusted
        for j in 0..ny {
            for i in 0..nx {
                let u = i as f32 / nx as f32;
                let v = j as f32 / ny as f32;
                out.push((u * 6.0).sin() * (v * 4.0).cos() + 0.5 * u * v);
            }
        }
        out
    }

    #[test]
    fn roundtrip_respects_bound() {
        let data = smooth_grid(64, 48);
        let sz = Sz2dCompressor::new();
        for tol in [1e-2, 1e-4, 1e-6] {
            let bound = ErrorBound::abs_linf(tol);
            let stream = sz.compress(&data, 64, 48, &bound).unwrap();
            let (recon, nx, ny) = sz.decompress(&stream).unwrap();
            assert_eq!((nx, ny), (64, 48));
            assert!(bound.verify(&data, &recon), "tol={tol}");
        }
    }

    #[test]
    fn lorenzo_beats_1d_on_2d_fields() {
        // The defining advantage: a bilinear-ish 2-D field compresses
        // better with the 2-D Lorenzo predictor than with the 1-D pipeline.
        use crate::sz::SzCompressor;
        use crate::traits::Compressor;
        let data = smooth_grid(128, 128);
        let bound = ErrorBound::abs_linf(1e-4);
        let len2d = Sz2dCompressor::new()
            .compress(&data, 128, 128, &bound)
            .unwrap()
            .len();
        let len1d = SzCompressor::new().compress(&data, &bound).unwrap().len();
        assert!(
            len2d < len1d,
            "2D Lorenzo {len2d} bytes should beat 1D {len1d} bytes"
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let sz = Sz2dCompressor::new();
        assert!(sz
            .compress(&[0.0; 10], 3, 4, &ErrorBound::abs_linf(1e-3))
            .is_err());
    }

    #[test]
    fn outliers_and_noise_bounded() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut data = smooth_grid(32, 32);
        for v in data.iter_mut().step_by(97) {
            *v = rng.gen_range(-1e20..1e20);
        }
        let sz = Sz2dCompressor::new();
        let bound = ErrorBound::abs_linf(1e-3);
        let stream = sz.compress(&data, 32, 32, &bound).unwrap();
        let (recon, _, _) = sz.decompress(&stream).unwrap();
        assert!(bound.verify(&data, &recon));
    }

    #[test]
    fn degenerate_grids() {
        let sz = Sz2dCompressor::new();
        let bound = ErrorBound::abs_linf(1e-3);
        // 1×n and n×1 grids degrade to 1-D Lorenzo.
        for (nx, ny) in [(1usize, 7usize), (7, 1), (1, 1)] {
            let data = smooth_grid(nx, ny);
            let stream = sz.compress(&data, nx, ny, &bound).unwrap();
            let (recon, rx, ry) = sz.decompress(&stream).unwrap();
            assert_eq!((rx, ry), (nx, ny));
            assert!(bound.verify(&data, &recon));
        }
    }

    #[test]
    fn corrupt_stream_rejected() {
        let sz = Sz2dCompressor::new();
        assert!(sz.decompress(&[0; 5]).is_err());
        let data = smooth_grid(16, 16);
        let stream = sz
            .compress(&data, 16, 16, &ErrorBound::abs_linf(1e-3))
            .unwrap();
        assert!(sz.decompress(&stream[..stream.len() - 2]).is_err());
    }

    #[test]
    fn prop_bound_holds() {
        let mut rng = StdRng::seed_from_u64(0xF0);
        for _ in 0..64 {
            let tol = 10f64.powf(rng.gen_range(-6.0f64..-1.0));
            let nx = rng.gen_range(1usize..24);
            let ny = rng.gen_range(1usize..24);
            let data: Vec<f32> = (0..nx * ny)
                .map(|k| ((k as f32) * 0.1).sin() + rng.gen_range(-0.2f32..0.2))
                .collect();
            let sz = Sz2dCompressor::new();
            let bound = ErrorBound::abs_linf(tol);
            let stream = sz.compress(&data, nx, ny, &bound).unwrap();
            let (recon, _, _) = sz.decompress(&stream).unwrap();
            assert!(bound.verify(&data, &recon));
        }
    }
}

//! Uniform affine INT8 quantization with max calibration.
//!
//! This is the scheme the paper states it uses (§III-A, citing Wu et al.
//! \[8\]): a single scale/zero-point pair per weight tensor, calibrated from
//! the tensor's min/max ("max calibration"), mapping weights linearly onto
//! the 256 integer levels.  [`QuantizedMatrix`] stores the real `i8` codes —
//! the memory layout a deployment would ship — and dequantizes on demand.

use errflow_tensor::Matrix;

/// An INT8-quantized weight matrix: `w ≈ scale · (code − zero_point)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    scale: f32,
    zero_point: i32,
}

impl QuantizedMatrix {
    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The affine scale (step size between adjacent levels).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The affine zero point (the integer code representing 0.0).
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Raw integer codes, row-major.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Reconstructs the `f32` weight matrix.
    pub fn dequantize(&self) -> Matrix {
        let data = self
            .codes
            .iter()
            .map(|&c| self.scale * (c as i32 - self.zero_point) as f32)
            .collect();
        // audit:allow(panic-reach) dequantize preserves the rows*cols len it was built from
        Matrix::from_vec(self.rows, self.cols, data).expect("shape preserved")
    }
}

/// Quantizes a weight matrix to INT8 with asymmetric max calibration:
/// `scale = (max − min)/255`, `zero_point` chosen so the range endpoints map
/// to −128 and 127.
pub fn quantize_int8(w: &Matrix) -> QuantizedMatrix {
    let (rows, cols) = w.shape();
    if w.is_empty() {
        return QuantizedMatrix {
            rows,
            cols,
            codes: Vec::new(),
            scale: 1.0,
            zero_point: 0,
        };
    }
    let min = w.min();
    let max = w.max();
    let range = max - min;
    let (scale, zero_point) = if range > 0.0 {
        let scale = range / 255.0;
        // zero_point = code for value 0; derived from mapping min → -128.
        (scale, (-128.0 - min / scale).round() as i32)
    } else {
        // Degenerate (constant) tensor: pick a scale that represents the
        // constant exactly at code ±127 (zero-point 0).  Without this the
        // MIN_POSITIVE fallback scale sends min/scale to ~1e47 and the
        // zero-point computation overflows.
        (max.abs().max(f32::MIN_POSITIVE) / 127.0, 0)
    };
    let codes = w
        .as_slice()
        .iter()
        .map(|&v| {
            let q = (v / scale).round() as i32 + zero_point;
            q.clamp(-128, 127) as i8
        })
        .collect();
    QuantizedMatrix {
        rows,
        cols,
        codes,
        scale,
        zero_point,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_within_half_step() {
        let w = Matrix::from_fn(10, 10, |r, c| ((r * 10 + c) as f32) / 50.0 - 1.0);
        let q = quantize_int8(&w);
        let back = q.dequantize();
        let step = q.scale();
        for (&a, &b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!(
                (a - b).abs() <= 0.5 * step + 1e-6,
                "a={a} b={b} step={step}"
            );
        }
    }

    #[test]
    fn range_endpoints_map_near_extremes() {
        let w = Matrix::from_vec(1, 2, vec![-2.0, 6.0]).unwrap();
        let q = quantize_int8(&w);
        let back = q.dequantize();
        assert!((back.as_slice()[0] + 2.0).abs() <= q.scale());
        assert!((back.as_slice()[1] - 6.0).abs() <= q.scale());
    }

    #[test]
    fn constant_matrix_quantizes_cleanly() {
        for c in [0.7f32, -3.2, 44.19899, 1e-20] {
            let w = Matrix::from_fn(3, 3, |_, _| c);
            let q = quantize_int8(&w);
            let back = q.dequantize();
            for &v in back.as_slice() {
                assert!(
                    (v - c).abs() <= 0.5 * q.scale() + 1e-12,
                    "constant {c}: reconstructed {v}"
                );
            }
        }
    }

    #[test]
    fn zero_matrix() {
        let w = Matrix::zeros(4, 4);
        let q = quantize_int8(&w);
        let back = q.dequantize();
        assert!(back.as_slice().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn codes_within_i8() {
        let w = Matrix::from_fn(5, 5, |r, c| (r as f32 * 17.0 - c as f32 * 3.0).sin() * 4.0);
        let q = quantize_int8(&w);
        assert_eq!(q.codes().len(), 25);
    }

    #[test]
    fn empty_matrix_ok() {
        let w = Matrix::zeros(0, 0);
        let q = quantize_int8(&w);
        assert_eq!(q.dequantize().shape(), (0, 0));
    }

    #[test]
    fn step_matches_table1_within_rounding() {
        // Table I: q = 2⁻⁸ (max−min) = (max−min)/256; affine scale is /255.
        let w = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let q = quantize_int8(&w);
        assert!((q.scale() as f64 - 1.0 / 255.0).abs() < 1e-9);
    }
}

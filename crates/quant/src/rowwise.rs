//! Row-wise INT8 quantization — the paper's Future Work extension.
//!
//! §III-A: "Advanced quantization strategies that apply block-wise,
//! column-wise, or row-wise quantization to weight matrices can offer
//! tighter quantization and reduced accuracy loss compared to uniform
//! per-layer quantization.  By grouping subsets of weights and assigning
//! shared quantization parameters (e.g., scaling factors) within each
//! group, these methods capture the local range of weights more precisely."
//!
//! Row-wise grouping is the natural granularity for the error theory: each
//! output neuron's pre-activation is the inner product of one weight *row*
//! with the activations, so a per-row step size `q_i` slots directly into
//! the §III-B concentration argument — the layer injection becomes
//! `‖q‖₂/(2√3)` (the root-sum-square of per-row steps) instead of
//! `q·√n_l/(2√3)` with the per-tensor step `q`.  Since
//! `‖q‖₂ ≤ q_tensor·√n_l` always, row-wise bounds are never looser.  The
//! certificate does not price row-wise plans yet: `repro`'s ablation runs
//! them against the per-tensor bound.

use crate::affine::QuantizedMatrix;
use errflow_tensor::Matrix;

/// A row-wise INT8-quantized matrix: one scale/zero-point pair per row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowwiseQuantizedMatrix {
    rows: Vec<QuantizedMatrix>,
    cols: usize,
}

impl RowwiseQuantizedMatrix {
    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows.len(), self.cols)
    }

    /// Per-row affine step sizes.
    #[cfg(test)]
    pub fn row_scales(&self) -> Vec<f32> {
        self.rows.iter().map(QuantizedMatrix::scale).collect()
    }

    /// Reconstructs the `f32` weight matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.rows.len() * self.cols);
        for row in &self.rows {
            data.extend_from_slice(row.dequantize().as_slice());
        }
        // audit:allow(panic-reach) row-wise dequantize preserves rows*cols by construction
        Matrix::from_vec(self.rows.len(), self.cols, data).expect("shape preserved")
    }
}

/// Quantizes each row of `w` independently with INT8 max calibration.
pub fn quantize_int8_rowwise(w: &Matrix) -> RowwiseQuantizedMatrix {
    let rows = (0..w.rows())
        .map(|r| {
            // audit:allow(panic-reach) chunks_exact(cols) yields rows of exactly `cols` values
            let row = Matrix::from_vec(1, w.cols(), w.row(r).to_vec()).expect("row shape");
            crate::affine::quantize_int8(&row)
        })
        .collect();
    RowwiseQuantizedMatrix {
        rows,
        cols: w.cols(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantFormat;
    use errflow_tensor::rng::StdRng;

    /// A matrix with wildly different per-row ranges — the case row-wise
    /// quantization exists for.
    fn heterogeneous(seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(8, 16, |r, _| {
            let scale = 10f32.powi(r as i32 - 4);
            rng.gen_range(-scale..scale)
        })
    }

    #[test]
    fn roundtrip_error_within_per_row_step() {
        let w = heterogeneous(1);
        let q = quantize_int8_rowwise(&w);
        let back = q.dequantize();
        let scales = q.row_scales();
        for r in 0..w.rows() {
            for c in 0..w.cols() {
                assert!(
                    (w.get(r, c) - back.get(r, c)).abs() <= 0.5 * scales[r] + 1e-12,
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn rowwise_beats_per_tensor_on_heterogeneous_rows() {
        // The win shows on the *small-range* rows: per-tensor calibration
        // wastes its 256 levels on the widest row, flattening narrow rows
        // to near-zero resolution; row-wise keeps each row's local range.
        let w = heterogeneous(2);
        let per_tensor = QuantFormat::Int8.quantize_matrix(&w);
        let rowwise = quantize_int8_rowwise(&w).dequantize();
        let row_err = |a: &Matrix, r: usize| -> f64 {
            a.row(r)
                .iter()
                .zip(w.row(r))
                .map(|(&x, &y)| ((x - y) as f64).abs())
                .fold(0.0, f64::max)
        };
        // Row 0 has range ~1e-4; per-tensor step is ~1e3/256.
        let e_tensor = row_err(&per_tensor, 0);
        let e_row = row_err(&rowwise, 0);
        assert!(
            e_row < e_tensor / 100.0,
            "row-wise {e_row} should crush per-tensor {e_tensor} on narrow rows"
        );
        // Total Frobenius error also improves (dominated by the wide row,
        // so the margin is modest).
        let fro = |a: &Matrix| -> f64 {
            a.as_slice()
                .iter()
                .zip(w.as_slice())
                .map(|(&x, &y)| ((x - y) as f64).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        assert!(fro(&rowwise) < fro(&per_tensor));
    }
}

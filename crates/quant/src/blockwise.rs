//! Block-wise INT8 quantization — the second grouping granularity the
//! paper's Future Work names ("block-wise, column-wise, or row-wise").
//!
//! The weight matrix is tiled into `block × block` squares, each with its
//! own affine scale/zero-point (max calibration).  Block-wise sits between
//! per-tensor (one scale) and row-wise (one scale per output neuron): it
//! also captures *column* locality, which matters when input features have
//! very different magnitudes.
//!
//! For the error bound, the per-row effective step is the largest step of
//! any block intersecting the row; those per-row steps in the row-wise
//! injection `‖q‖₂/(2√3)` give a bound never looser than the per-tensor
//! Table-I value.

use crate::affine::{quantize_int8, QuantizedMatrix};
use errflow_tensor::Matrix;

/// A block-wise INT8-quantized matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockwiseQuantizedMatrix {
    blocks: Vec<QuantizedMatrix>,
    rows: usize,
    cols: usize,
    block: usize,
}

impl BlockwiseQuantizedMatrix {
    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reconstructs the `f32` weight matrix.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let blocks_per_row = self.cols.div_ceil(self.block);
        for (bi, qb) in self.blocks.iter().enumerate() {
            let br = bi / blocks_per_row;
            let bc = bi % blocks_per_row;
            let deq = qb.dequantize();
            for r in 0..deq.rows() {
                for c in 0..deq.cols() {
                    out.set(br * self.block + r, bc * self.block + c, deq.get(r, c));
                }
            }
        }
        out
    }

    /// Per-row effective step: the largest block scale touching each row.
    #[cfg(test)]
    pub fn row_steps(&self) -> Vec<f64> {
        let blocks_per_row = self.cols.div_ceil(self.block);
        (0..self.rows)
            .map(|r| {
                let br = r / self.block;
                (0..blocks_per_row)
                    .map(|bc| self.blocks[br * blocks_per_row + bc].scale() as f64)
                    .fold(0.0, f64::max)
            })
            .collect()
    }
}

/// Quantizes `w` in `block × block` tiles with INT8 max calibration.
pub fn quantize_int8_blockwise(w: &Matrix, block: usize) -> BlockwiseQuantizedMatrix {
    assert!(block > 0, "block size must be nonzero");
    let blocks_per_row = w.cols().div_ceil(block);
    let blocks_per_col = w.rows().div_ceil(block);
    let mut blocks = Vec::with_capacity(blocks_per_row * blocks_per_col);
    for br in 0..blocks_per_col {
        for bc in 0..blocks_per_row {
            let r0 = br * block;
            let c0 = bc * block;
            let rows = block.min(w.rows() - r0);
            let cols = block.min(w.cols() - c0);
            let tile = Matrix::from_fn(rows, cols, |r, c| w.get(r0 + r, c0 + c));
            blocks.push(quantize_int8(&tile));
        }
    }
    BlockwiseQuantizedMatrix {
        blocks,
        rows: w.rows(),
        cols: w.cols(),
        block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantFormat;
    use errflow_tensor::rng::StdRng;

    fn checkerboard(seed: u64) -> Matrix {
        // Quadrants with very different scales: the block-wise sweet spot.
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(16, 16, |r, c| {
            let scale = if (r < 8) ^ (c < 8) { 1e-3 } else { 1.0 };
            rng.gen_range(-scale..scale)
        })
    }

    #[test]
    fn roundtrip_within_per_block_step() {
        let w = checkerboard(1);
        let q = quantize_int8_blockwise(&w, 8);
        let back = q.dequantize();
        let steps = q.row_steps();
        for r in 0..16 {
            for c in 0..16 {
                assert!(
                    (w.get(r, c) - back.get(r, c)).abs() as f64 <= 0.5 * steps[r] + 1e-9,
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn blockwise_beats_per_tensor_on_quadrant_data() {
        let w = checkerboard(2);
        let per_tensor = QuantFormat::Int8.quantize_matrix(&w);
        let blockwise = quantize_int8_blockwise(&w, 8).dequantize();
        // Max error on a small-scale quadrant element.
        let err_at = |a: &Matrix, r: usize, c: usize| (a.get(r, c) - w.get(r, c)).abs();
        let mut worst_tensor = 0.0f32;
        let mut worst_block = 0.0f32;
        for r in 0..8 {
            for c in 8..16 {
                worst_tensor = worst_tensor.max(err_at(&per_tensor, r, c));
                worst_block = worst_block.max(err_at(&blockwise, r, c));
            }
        }
        assert!(
            worst_block < worst_tensor / 50.0,
            "block {worst_block} vs tensor {worst_tensor}"
        );
    }

    #[test]
    fn non_divisible_shapes() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = Matrix::from_fn(10, 13, |_, _| rng.gen_range(-2.0..2.0));
        let q = quantize_int8_blockwise(&w, 4);
        assert_eq!(q.shape(), (10, 13));
        let back = q.dequantize();
        let steps = q.row_steps();
        for r in 0..10 {
            for c in 0..13 {
                assert!((w.get(r, c) - back.get(r, c)).abs() as f64 <= 0.5 * steps[r] + 1e-9);
            }
        }
    }

    #[test]
    fn block_one_equals_elementwise_exactness() {
        // 1×1 blocks store each weight at its own scale: exact to ~1 ulp of
        // the scale arithmetic.
        let w = checkerboard(3);
        let q = quantize_int8_blockwise(&w, 1);
        let back = q.dequantize();
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= a.abs() * 1e-2 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_block_size_panics() {
        quantize_int8_blockwise(&Matrix::zeros(4, 4), 0);
    }
}

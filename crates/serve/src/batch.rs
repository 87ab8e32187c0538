//! Batch glue for the fused decode → forward path: payload layout
//! transposition into the batch input matrix and per-job output-row
//! extraction.
//!
//! The queue's `pop_batch` guarantees every job in a batch shares a plan
//! (same quantized model, same certified bound), so their samples ride one
//! batched GEMM pass over a single input [`Matrix`].  Sample-major
//! payloads decode *directly* into their row slab of that matrix (see
//! `server::decode_into_rows`); feature-major payloads decode into a scratch
//! slab and are transposed into place by [`transpose_into`].  After the
//! forward pass, [`extract_rows`] splits the output matrix back into
//! per-job sample vectors.

use errflow_tensor::Matrix;

/// Transposes a feature-major flat payload (`d` feature rows of `n`
/// samples each) into a sample-major row slab (`out[s * d + f]`), through
/// the tiled kernel in [`errflow_tensor::transpose`].
///
/// Returns `false` (leaving `out` untouched) when either slice does not
/// hold exactly `n * d` values — the caller treats that as a corrupt
/// payload rather than panicking on a hot serving path.
pub fn transpose_into(flat: &[f32], n: usize, d: usize, out: &mut [f32]) -> bool {
    let Some(total) = n.checked_mul(d) else {
        return false;
    };
    if flat.len() != total || out.len() != total {
        return false;
    }
    errflow_tensor::transpose::transpose_into(flat, d, n, out);
    true
}

/// Copies `n` output rows starting at `r0` back out as per-sample vectors
/// (the response format).  Rows outside the matrix are skipped, so a
/// miscounted batch yields short output instead of a panic; the server
/// asserts row accounting separately via its batch bookkeeping.
pub fn extract_rows(out: &Matrix, r0: usize, n: usize) -> Vec<Vec<f32>> {
    (r0..r0.saturating_add(n))
        .filter(|&r| r < out.rows())
        .map(|r| out.row(r).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_feature_major_into_rows() {
        // 3 samples × 2 features, feature-major: [f0s0 f0s1 f0s2 f1s0 f1s1 f1s2]
        let flat = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        let mut out = [0.0f32; 6];
        assert!(transpose_into(&flat, 3, 2, &mut out));
        assert_eq!(out, [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
    }

    #[test]
    fn transpose_rejects_bad_lengths() {
        let flat = [0.0f32; 5];
        let mut out = [0.0f32; 6];
        assert!(!transpose_into(&flat, 3, 2, &mut out));
        let flat = [0.0f32; 6];
        let mut short = [0.0f32; 5];
        assert!(!transpose_into(&flat, 3, 2, &mut short));
    }

    #[test]
    fn extract_rows_splits_output_matrix() {
        let m = Matrix::from_fn(5, 2, |r, c| (r * 10 + c) as f32);
        let rows = extract_rows(&m, 1, 3);
        assert_eq!(
            rows,
            vec![vec![10.0, 11.0], vec![20.0, 21.0], vec![30.0, 31.0]]
        );
        assert_eq!(extract_rows(&m, 4, 1), vec![vec![40.0, 41.0]]);
        // Out-of-range rows are dropped, never panicked on.
        assert_eq!(extract_rows(&m, 4, 3).len(), 1);
        assert!(extract_rows(&m, 9, 2).is_empty());
    }
}

//! Spectral-norm estimation.
//!
//! The paper's error bounds (Ineq. 3 and 5) are written in terms of the
//! spectral norm σ_W — the largest singular value — of each weight matrix
//! (Eq. 2).  The paper computes it with the power-iteration method of von
//! Mises & Pollaczek-Geiringer (its reference \[17\]); [`power_iteration`]
//! implements exactly that on the Gram operator `WᵀW`.
//!
//! [`svd_spectral_norm`] is an exact one-sided Jacobi SVD used by the test
//! suite to cross-check the iterative estimate, and is practical for the
//! small weight matrices of the paper's MLPs.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::norms::l2;
use crate::rng::StdRng;
use crate::Result;

/// Options for [`power_iteration`].
#[derive(Debug, Clone, Copy)]
pub struct PowerIterationOpts {
    /// Maximum number of `v ← WᵀW v` iterations.
    pub max_iters: usize,
    /// Relative change in the estimate below which iteration stops.
    pub tolerance: f64,
    /// RNG seed for the random start vector (deterministic by default).
    pub seed: u64,
}

impl Default for PowerIterationOpts {
    fn default() -> Self {
        PowerIterationOpts {
            // Convergence is geometric in (σ₂/σ₁)²; 500 iterations gave up
            // on 512-wide random layers (σ₂/σ₁ ≈ 0.99, ≈ 2 000 iterations
            // to 1e-10) and left them to a Jacobi SVD a hundred times the
            // cost.  5 000 covers ratios up to ≈ 0.998.
            max_iters: 5000,
            tolerance: 1e-10,
            seed: 0x5eed_5eed,
        }
    }
}

/// Estimates the spectral norm σ_W of `w` via power iteration on `WᵀW`.
///
/// Returns an error for an empty matrix or when the iteration fails to
/// converge within `opts.max_iters`: the top two singular values are tied
/// or nearly so (the iteration contracts by `(σ₂/σ₁)²` per step), or the
/// tolerance is pathological.
pub fn power_iteration(w: &Matrix, opts: PowerIterationOpts) -> Result<f64> {
    if w.is_empty() {
        return Err(TensorError::InvalidDimension {
            op: "power_iteration",
            detail: "matrix is empty".into(),
        });
    }
    if w.max_abs() == 0.0 {
        return Ok(0.0);
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut v: Vec<f32> = (0..w.cols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    normalize(&mut v);

    let mut last = 0.0f64;
    for it in 0..opts.max_iters {
        // u = W v ; v' = Wᵀ u ; σ ≈ ‖u‖ after normalising v each round.
        let u = w.matvec(&v)?;
        let sigma = l2(&u);
        if sigma == 0.0 {
            // v landed exactly in the null space — restart from a new vector.
            v = (0..w.cols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            normalize(&mut v);
            continue;
        }
        let mut vn = w.matvec_t(&u)?;
        normalize(&mut vn);
        v = vn;
        if it > 0 && (sigma - last).abs() <= opts.tolerance * sigma.max(1e-300) {
            return Ok(sigma);
        }
        last = sigma;
    }
    // The estimate is monotonically non-decreasing and bounded; after
    // max_iters it is still a high-quality estimate, but we surface the
    // convergence failure so callers can widen the budget if they care.
    Err(TensorError::NoConvergence {
        op: "power_iteration",
        iterations: opts.max_iters,
    })
}

/// Convenience wrapper: power iteration with default options, falling back
/// to the exact Jacobi SVD when iteration does not converge (tied top
/// singular values).  The fallback is `O(n²·m)` per sweep — seconds at
/// 512 × 512 — so the default budget is sized to keep merely *slow*
/// spectra out of it.
pub fn spectral_norm(w: &Matrix) -> f64 {
    match power_iteration(w, PowerIterationOpts::default()) {
        Ok(s) => s,
        Err(_) => svd_spectral_norm(w),
    }
}

// The Jacobi sweeps index two columns simultaneously; range loops are
// the clearest expression.
#[allow(clippy::needless_range_loop)]
/// Exact spectral norm via one-sided Jacobi SVD.
///
/// Orthogonalises the columns of `A` (or `Aᵀ`, whichever has fewer columns)
/// with Jacobi rotations until convergence; the largest column norm is then
/// the largest singular value.  `O(n²·m)` per sweep — fine for the compact
/// weight matrices the paper studies, and used as ground truth in tests.
pub fn svd_spectral_norm(w: &Matrix) -> f64 {
    if w.is_empty() {
        return 0.0;
    }
    // Work on the orientation with fewer columns for speed.
    let a = if w.cols() <= w.rows() {
        w.clone()
    } else {
        w.transpose()
    };
    let m = a.rows();
    let n = a.cols();
    // Column-major copy in f64 for numerical headroom.
    let mut cols: Vec<Vec<f64>> = (0..n)
        .map(|c| (0..m).map(|r| a.get(r, c) as f64).collect())
        .collect();

    let eps = 1e-14;
    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for i in 0..m {
                    app += cols[p][i] * cols[p][i];
                    aqq += cols[q][i] * cols[q][i];
                    apq += cols[p][i] * cols[q][i];
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(1e-300));
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let vp = cols[p][i];
                    let vq = cols[q][i];
                    cols[p][i] = c * vp - s * vq;
                    cols[q][i] = s * vp + c * vq;
                }
            }
        }
        if off < 1e-13 {
            break;
        }
    }
    cols.iter()
        .map(|c| c.iter().map(|&v| v * v).sum::<f64>().sqrt())
        .fold(0.0, f64::max)
}

#[allow(clippy::needless_range_loop)]
/// All singular values (descending) via the same one-sided Jacobi sweep.
///
/// Exposed for diagnostics (condition numbers of PSN-trained layers) and for
/// property tests relating the spectral norm to the full spectrum.
pub fn singular_values(w: &Matrix) -> Vec<f64> {
    if w.is_empty() {
        return Vec::new();
    }
    let a = if w.cols() <= w.rows() {
        w.clone()
    } else {
        w.transpose()
    };
    let m = a.rows();
    let n = a.cols();
    let mut cols: Vec<Vec<f64>> = (0..n)
        .map(|c| (0..m).map(|r| a.get(r, c) as f64).collect())
        .collect();
    for _ in 0..60 {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for i in 0..m {
                    app += cols[p][i] * cols[p][i];
                    aqq += cols[q][i] * cols[q][i];
                    apq += cols[p][i] * cols[q][i];
                }
                if apq.abs() <= 1e-14 * (app * aqq).sqrt() {
                    continue;
                }
                converged = false;
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let vp = cols[p][i];
                    let vq = cols[q][i];
                    cols[p][i] = c * vp - s * vq;
                    cols[q][i] = s * vp + c * vq;
                }
            }
        }
        if converged {
            break;
        }
    }
    let mut sv: Vec<f64> = cols
        .iter()
        .map(|c| c.iter().map(|&v| v * v).sum::<f64>().sqrt())
        .collect();
    sv.sort_by(|a, b| b.partial_cmp(a).unwrap());
    sv
}

fn normalize(v: &mut [f32]) {
    let n = l2(v);
    if n > 0.0 {
        let inv = (1.0 / n) as f32;
        for x in v {
            *x *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_unit_spectral_norm() {
        let w = Matrix::identity(8);
        assert!((spectral_norm(&w) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diagonal_matrix_spectral_norm_is_max_abs_entry() {
        let mut w = Matrix::zeros(4, 4);
        w.set(0, 0, 0.5);
        w.set(1, 1, -3.0);
        w.set(2, 2, 2.0);
        w.set(3, 3, 1.0);
        assert!((spectral_norm(&w) - 3.0).abs() < 1e-6);
        assert!((svd_spectral_norm(&w) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn zero_matrix_has_zero_norm() {
        let w = Matrix::zeros(5, 3);
        assert_eq!(spectral_norm(&w), 0.0);
        assert_eq!(svd_spectral_norm(&w), 0.0);
    }

    #[test]
    fn rank_one_matrix_known_norm() {
        // uvᵀ with ‖u‖=√2, ‖v‖=√3 → σ = √6.
        let u = [1.0f32, 1.0];
        let v = [1.0f32, 1.0, 1.0];
        let w = Matrix::from_fn(2, 3, |r, c| u[r] * v[c]);
        let expected = 6.0f64.sqrt();
        assert!((spectral_norm(&w) - expected).abs() < 1e-7);
        assert!((svd_spectral_norm(&w) - expected).abs() < 1e-10);
    }

    #[test]
    fn power_iteration_matches_jacobi_on_random_matrices() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(r, c) in &[(3usize, 3usize), (5, 8), (10, 4), (16, 16)] {
            let w = Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0));
            let pi = spectral_norm(&w);
            let sv = svd_spectral_norm(&w);
            assert!(
                (pi - sv).abs() < 1e-6 * sv.max(1.0),
                "{r}x{c}: power={pi} jacobi={sv}"
            );
        }
    }

    #[test]
    fn spectral_norm_bounded_by_frobenius() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Matrix::from_fn(6, 6, |_, _| rng.gen_range(-2.0..2.0));
        assert!(spectral_norm(&w) <= w.frobenius_norm() as f64 + 1e-6);
    }

    #[test]
    fn spectral_norm_defines_operator_bound() {
        // ‖Wx‖₂ ≤ σ_W ‖x‖₂ for arbitrary x — the definition in Eq. (2).
        let mut rng = StdRng::seed_from_u64(99);
        let w = Matrix::from_fn(7, 5, |_, _| rng.gen_range(-1.0..1.0));
        let sigma = spectral_norm(&w);
        for _ in 0..20 {
            let x: Vec<f32> = (0..5).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let y = w.matvec(&x).unwrap();
            assert!(l2(&y) <= sigma * l2(&x) + 1e-5);
        }
    }

    #[test]
    fn singular_values_sorted_and_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Matrix::from_fn(4, 6, |_, _| rng.gen_range(-1.0..1.0));
        let sv = singular_values(&w);
        assert_eq!(sv.len(), 4);
        assert!(sv.windows(2).all(|p| p[0] >= p[1] - 1e-12));
        assert!((sv[0] - svd_spectral_norm(&w)).abs() < 1e-9);
        // Σσᵢ² = ‖W‖_F²
        let fro2 = (w.frobenius_norm() as f64).powi(2);
        let sum2: f64 = sv.iter().map(|s| s * s).sum();
        assert!((fro2 - sum2).abs() < 1e-6 * fro2.max(1.0));
    }

    #[test]
    fn slow_but_separated_spectrum_converges_within_the_default_budget() {
        // σ₂/σ₁ = 0.995 contracts the error by 0.99 per iteration: about
        // 1 100 iterations to the 1e-10 criterion.  A budget that gives up
        // before that sends `spectral_norm` to the Jacobi fallback, which
        // costs seconds on a 512-wide layer.
        let w = Matrix::from_fn(64, 64, |r, c| match (r == c, r) {
            (false, _) => 0.0,
            (true, 0) => 1.0,
            (true, 1) => 0.995,
            (true, _) => 0.5,
        });
        let sigma = power_iteration(&w, PowerIterationOpts::default()).unwrap();
        assert!((sigma - 1.0).abs() < 1e-6, "σ = {sigma}");
    }

    #[test]
    fn empty_matrix_is_an_error_for_power_iteration() {
        let w = Matrix::zeros(0, 0);
        assert!(power_iteration(&w, PowerIterationOpts::default()).is_err());
    }

    #[test]
    fn scaling_scales_spectral_norm() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = Matrix::from_fn(5, 5, |_, _| rng.gen_range(-1.0..1.0));
        let s1 = spectral_norm(&w);
        let s3 = spectral_norm(&w.scale(3.0));
        assert!((s3 - 3.0 * s1).abs() < 1e-5 * s1.max(1.0));
    }
}

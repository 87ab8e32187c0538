//! Spectral-norm estimation.
//!
//! The paper's error bounds (Ineq. 3 and 5) are written in terms of the
//! spectral norm σ_W — the largest singular value — of each weight matrix
//! (Eq. 2).  The paper estimates it with the power-iteration method of von
//! Mises & Pollaczek-Geiringer (its reference \[17\]).  [`spectral_norm`]
//! computes the same quantity by Golub–Kahan–Lanczos bidiagonalization in
//! `f64` (DESIGN §3): the Krylov space power iteration explores, used in
//! full, so it converges in tens of matrix-vector products where power
//! iteration needs hundreds to thousands, and to the precision of `f64`
//! rather than of the `f32` weights.
//!
//! [`svd_spectral_norm`] is an exact one-sided Jacobi SVD used by the test
//! suite to cross-check the iterative estimate, and is practical for the
//! small weight matrices of the paper's MLPs.

use crate::matrix::Matrix;
use crate::rng::StdRng;
use crate::simd;

/// Seed of the random start vector.
const SEED: u64 = 0x5eed_5eed;
/// Relative change of the estimate between two steps at which it stops.
const REL_CHANGE: f64 = 1e-13;
/// An `α` or `β` at most this fraction of the estimate ends the
/// recurrence: the bases span an invariant subspace, and leaving the entry
/// out moves the largest singular value by at most the entry itself.
const COLLAPSE: f64 = 1e-14;

/// The spectral norm σ_W of `w` (its largest singular value); 0 for an
/// empty or all-zero matrix, NaN when a weight is not finite.
///
/// Golub–Kahan–Lanczos bidiagonalization with full reorthogonalization of
/// both bases, from a seeded random start vector: after `k` steps
/// `W·V_k = U_k·B_k` with `B_k` upper bidiagonal, and the estimate is
/// σ_max(B_k), found by Sturm-count bisection on `B_kᵀB_k`.  It stops when
/// the estimate changes by at most 1e-13 relative between steps, when an
/// `α` or `β` collapses (the bases span an invariant subspace, so the
/// value is exact), or at `k = min(rows, cols)`.  The matrix-vector
/// products read the `f32` weights and accumulate in `f64`.
pub fn spectral_norm(w: &Matrix) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd::has_avx2_fma() && !simd::force_scalar() {
        // SAFETY: `has_avx2_fma()` just confirmed the CPU features the
        // instantiation was compiled for.
        return unsafe { lanczos_avx2(w) };
    }
    lanczos_portable(w)
}

/// Portable instantiation: plain multiply-add, autovectorized for the
/// baseline target.
fn lanczos_portable(w: &Matrix) -> f64 {
    lanczos::<false>(w)
}

/// AVX2+FMA instantiation of the same body.
///
/// # Safety
/// Callers must have verified `avx2` and `fma` CPU support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn lanczos_avx2(w: &Matrix) -> f64 {
    lanczos::<true>(w)
}

/// The shared Lanczos body; `FMA` selects fused `mul_add` (only for
/// targets that have the instruction).
#[inline(always)]
fn lanczos<const FMA: bool>(w: &Matrix) -> f64 {
    let (m, n) = (w.rows(), w.cols());
    if w.is_empty() || w.max_abs() == 0.0 {
        return 0.0;
    }
    let a = w.as_slice();
    // B is complete at k = n when n ≤ m (V spans ℝⁿ, so β_n = 0); when
    // m < n, U spans ℝᵐ after m steps and B needs β_m, which only step
    // m + 1 (with α_{m+1} = 0) brings in.
    let k_max = if n <= m { n } else { m + 1 };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0) as f64).collect();
    let inv = 1.0 / norm::<FMA>(&v);
    v.iter_mut().for_each(|x| *x *= inv);

    // Orthonormal bases, one vector after another.
    let mut us: Vec<f64> = Vec::with_capacity(m * 64);
    let mut vs: Vec<f64> = Vec::with_capacity(n * 64);
    let mut p = vec![0.0f64; m];
    let mut r = vec![0.0f64; n];
    let mut gram = Gram::default();
    let mut beta = 0.0f64;
    loop {
        // p = W v_j − β_{j−1} u_{j−1}, made orthogonal to U_{j−1}.
        for (row, out) in a.chunks_exact(n).zip(p.iter_mut()) {
            *out = dot::<f32, FMA>(row, &v);
        }
        if let Some(u_prev) = us.len().checked_sub(m).map(|s| &us[s..]) {
            axpy::<f64, FMA>(-beta, u_prev, &mut p);
        }
        reorthogonalize::<FMA>(&mut p, &us);
        let alpha = norm::<FMA>(&p);
        if !alpha.is_finite() {
            // A non-finite weight: every later quantity is NaN too.
            return f64::NAN;
        }
        vs.extend_from_slice(&v);
        let last = gram.sigma();
        let sigma = gram.push(alpha, beta);
        if gram.len() == k_max
            || alpha <= COLLAPSE * sigma
            || (gram.len() > 1 && (sigma - last).abs() <= REL_CHANGE * sigma)
        {
            return sigma;
        }
        let inv = 1.0 / alpha;
        us.extend(p.iter().map(|x| x * inv));

        // r = Wᵀ u_j − α_j v_j, made orthogonal to V_j.
        let u = &us[us.len() - m..];
        r.fill(0.0);
        for (row, &ur) in a.chunks_exact(n).zip(u) {
            axpy::<f32, FMA>(ur, row, &mut r);
        }
        axpy::<f64, FMA>(-alpha, &v, &mut r);
        reorthogonalize::<FMA>(&mut r, &vs);
        beta = norm::<FMA>(&r);
        if beta <= COLLAPSE * sigma {
            return sigma;
        }
        let inv = 1.0 / beta;
        for (x, &y) in v.iter_mut().zip(&r) {
            *x = y * inv;
        }
    }
}

/// `BᵀB` of the growing upper bidiagonal `B` (diagonal `α`, superdiagonal
/// `β`): the symmetric tridiagonal with diagonal `α_i² + β_{i−1}²` and
/// off-diagonal `α_i·β_i`.  Adding a step appends a row and a column, so
/// the old matrix is a leading principal submatrix of the new one and, by
/// interlacing, its largest eigenvalue is a lower bound on the new one.
#[derive(Default)]
struct Gram {
    diag: Vec<f64>,
    off: Vec<f64>,
    last_alpha: f64,
    /// Verified lower end of the last bisection bracket.
    lower: f64,
    /// Verified upper end: the largest eigenvalue, rounded up.
    upper: f64,
    /// How far `lower` moved in the last step.
    rise: f64,
}

impl Gram {
    fn len(&self) -> usize {
        self.diag.len()
    }

    /// σ_max(B) of the current `B`.
    fn sigma(&self) -> f64 {
        self.upper.sqrt()
    }

    /// Appends column `j` of `B` (`β_{j−1}` above `α_j`) and returns the
    /// new σ_max(B).
    fn push(&mut self, alpha: f64, beta: f64) -> f64 {
        if !self.diag.is_empty() {
            self.off.push(self.last_alpha * beta);
        }
        self.diag.push(alpha * alpha + beta * beta);
        self.last_alpha = alpha;
        self.largest_eigenvalue();
        self.sigma()
    }

    /// Bisection for the largest eigenvalue, warm-started from the last
    /// one (a lower bound by interlacing).  The upper end gallops out from
    /// it by twice the last step's rise, doubling until it clears the top
    /// eigenvalue (Gershgorin caps it), so once the estimate settles a
    /// step costs a few Sturm counts instead of a full-range bisection.
    fn largest_eigenvalue(&mut self) {
        let k = self.len();
        let (d, e) = (&self.diag, &self.off);
        let radius = |i: usize| {
            let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
            left + e.get(i).map_or(0.0, |x| x.abs())
        };
        let gershgorin = (0..k).map(|i| d[i] + radius(i)).fold(0.0, f64::max);
        let cap = gershgorin * (1.0 + 4.0 * f64::EPSILON) + f64::MIN_POSITIVE;
        let pivmin = f64::MIN_POSITIVE * e.iter().map(|x| x * x).fold(1.0, f64::max);
        let below = |x: f64| count_below(d, e, x, pivmin);
        let warm = self.lower > 0.0 && below(self.lower) < k;
        let mut lo = if warm { self.lower } else { 0.0 };
        let mut hi = cap;
        if warm {
            let mut rise = (2.0 * self.rise).max(4.0 * f64::EPSILON * lo);
            while lo + rise < cap {
                if below(lo + rise) == k {
                    hi = lo + rise;
                    break;
                }
                lo += rise;
                rise *= 2.0;
            }
        }
        loop {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi || hi - lo <= 2.0 * f64::EPSILON * hi {
                break;
            }
            if below(mid) == k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.rise = lo - self.lower;
        self.lower = lo;
        self.upper = hi;
    }
}

/// Number of eigenvalues below `x` of the symmetric tridiagonal with
/// diagonal `d` and off-diagonal `e` (Sturm count: the negative pivots of
/// the `LDLᵀ` factorization of `T − x·I`).
fn count_below(d: &[f64], e: &[f64], x: f64, pivmin: f64) -> usize {
    let mut count = 0;
    let mut q = 1.0f64;
    for (i, &di) in d.iter().enumerate() {
        let coupling = if i > 0 { e[i - 1] * e[i - 1] / q } else { 0.0 };
        q = di - x - coupling;
        if q.abs() < pivmin {
            q = -pivmin;
        }
        count += (q < 0.0) as usize;
    }
    count
}

/// An element the kernels widen to `f64`: the `f32` weights and the `f64`
/// Lanczos vectors.
trait Widen: Copy {
    fn widen(self) -> f64;
}

impl Widen for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self as f64
    }
}

impl Widen for f64 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self
    }
}

#[inline(always)]
fn madd<const FMA: bool>(a: f64, b: f64, c: f64) -> f64 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `Σ a_i·x_i` in `f64`, over eight independent accumulators.
#[inline(always)]
fn dot<T: Widen, const FMA: bool>(a: &[T], x: &[f64]) -> f64 {
    let (a, a_tail) = a.as_chunks::<8>();
    let (x, x_tail) = x.as_chunks::<8>();
    let mut acc = [0.0f64; 8];
    for (a, x) in a.iter().zip(x) {
        for l in 0..8 {
            acc[l] = madd::<FMA>(a[l].widen(), x[l], acc[l]);
        }
    }
    let mut s = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (a, &x) in a_tail.iter().zip(x_tail) {
        s = madd::<FMA>(a.widen(), x, s);
    }
    s
}

/// `y += c·a` in `f64`.
#[inline(always)]
fn axpy<T: Widen, const FMA: bool>(c: f64, a: &[T], y: &mut [f64]) {
    for (y, a) in y.iter_mut().zip(a) {
        *y = madd::<FMA>(c, a.widen(), *y);
    }
}

#[inline(always)]
fn norm<const FMA: bool>(x: &[f64]) -> f64 {
    dot::<f64, FMA>(x, x).sqrt()
}

/// Removes from `x` its components along the orthonormal vectors stored
/// one after another in `basis` (modified Gram–Schmidt).
#[inline(always)]
fn reorthogonalize<const FMA: bool>(x: &mut [f64], basis: &[f64]) {
    for b in basis.chunks_exact(x.len()) {
        let c = dot::<f64, FMA>(b, x);
        axpy::<f64, FMA>(-c, b, x);
    }
}

// The Jacobi sweeps index two columns simultaneously; range loops are
// the clearest expression.
#[allow(clippy::needless_range_loop)]
// audit:allow(dead-pub) the Jacobi oracle that `spectral_norm` and the nn
// crate's PSN tests are checked against.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{he_uniform, xavier_uniform};
    use crate::norms::l2;

    fn rel_err(got: f64, want: f64) -> f64 {
        if want == 0.0 {
            got.abs()
        } else {
            (got - want).abs() / want
        }
    }

    /// The weight matrices of the benchmark's two models (`Mlp` seed 11,
    /// Tanh hidden layers with Xavier init, an identity output layer with
    /// He init), restated because `errflow-nn` depends on this crate.
    fn benchmark_layers() -> Vec<Matrix> {
        let mut layers = Vec::new();
        for dims in [&[256usize, 128, 16][..], &[256, 512, 512, 16]] {
            let mut rng = StdRng::seed_from_u64(11);
            for i in 0..dims.len() - 1 {
                let (rows, cols) = (dims[i + 1], dims[i]);
                layers.push(if i + 2 == dims.len() {
                    he_uniform(rows, cols, &mut rng)
                } else {
                    xavier_uniform(rows, cols, &mut rng)
                });
            }
        }
        layers
    }

    /// An orthogonal `n × n` matrix (a product of Householder reflections
    /// of random vectors, in `f64`) scaled by `s`: every singular value is
    /// `s` up to the `f32` rounding of the entries.
    fn scaled_orthogonal(n: usize, s: f64, rng: &mut StdRng) -> Matrix {
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            q[i * n + i] = 1.0;
        }
        for _ in 0..3 {
            let h: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f64..1.0)).collect();
            let hh: f64 = h.iter().map(|x| x * x).sum();
            for row in q.chunks_exact_mut(n) {
                let c = 2.0 * row.iter().zip(&h).map(|(a, b)| a * b).sum::<f64>() / hh;
                row.iter_mut().zip(&h).for_each(|(a, b)| *a -= c * b);
            }
        }
        Matrix::from_fn(n, n, |r, c| (s * q[r * n + c]) as f32)
    }

    fn diagonal(values: &[f32]) -> Matrix {
        let n = values.len();
        Matrix::from_fn(n, n, |r, c| if r == c { values[r] } else { 0.0 })
    }

    #[test]
    fn spectral_norm_matches_jacobi() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut cases: Vec<(String, Matrix)> = benchmark_layers()
            .into_iter()
            .map(|w| (format!("benchmark {}x{}", w.rows(), w.cols()), w))
            .collect();
        cases.push(("tied diag(3, 3, 1)".into(), diagonal(&[3.0, 3.0, 1.0])));
        cases.push((
            "scaled orthogonal".into(),
            scaled_orthogonal(24, 2.5, &mut rng),
        ));
        let u: Vec<f32> = (0..7).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let v: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect();
        cases.push(("rank 1".into(), Matrix::from_fn(7, 5, |r, c| u[r] * v[c])));
        cases.push((
            "1x9".into(),
            Matrix::from_fn(1, 9, |_, _| rng.gen_range(-1.0..1.0)),
        ));
        cases.push((
            "9x1".into(),
            Matrix::from_fn(9, 1, |_, _| rng.gen_range(-1.0..1.0)),
        ));
        cases.push(("zero".into(), Matrix::zeros(5, 3)));
        for &(r, c) in &[(3usize, 3usize), (5, 8), (10, 4), (16, 16)] {
            let w = Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0));
            cases.push((format!("random {r}x{c}"), w));
        }
        // σ₂/σ₁ = 0.995 with the rest of the spectrum spread over
        // [0.5, 0.99]: power iteration contracts by (σ₂/σ₁)² ≈ 0.99 a step
        // and needed ≈ 1 100 steps to its 1e-10 test here.
        let mut spectrum = vec![1.0f32, 0.995];
        spectrum.extend((0..62).map(|i| 0.5 + 0.49 * i as f32 / 61.0));
        cases.push(("slow but separated spectrum".into(), diagonal(&spectrum)));

        for (name, w) in &cases {
            let exact = svd_spectral_norm(w);
            let sigma = spectral_norm(w);
            let err = rel_err(sigma, exact);
            assert!(
                err <= 1e-11,
                "{name}: lanczos {sigma} jacobi {exact} (rel {err:.1e})"
            );
        }
    }

    #[test]
    fn portable_and_simd_arms_agree() {
        for w in benchmark_layers() {
            let portable = lanczos_portable(&w);
            #[cfg(target_arch = "x86_64")]
            if simd::has_avx2_fma() {
                // SAFETY: `has_avx2_fma()` just confirmed the CPU features.
                let avx2 = unsafe { lanczos_avx2(&w) };
                let err = rel_err(avx2, portable);
                assert!(
                    err <= 1e-13,
                    "{}x{}: {avx2} vs {portable}",
                    w.rows(),
                    w.cols()
                );
            }
            assert!(rel_err(spectral_norm(&w), portable) <= 1e-13);
        }
    }

    #[test]
    fn non_finite_weights_give_nan() {
        let mut rng = StdRng::seed_from_u64(5);
        for bad in [f32::NAN, f32::INFINITY] {
            let mut w = Matrix::from_fn(12, 9, |_, _| rng.gen_range(-1.0..1.0));
            w.set(4, 2, bad);
            assert!(spectral_norm(&w).is_nan(), "{bad}");
        }
    }

    #[test]
    fn identity_has_unit_spectral_norm() {
        let w = Matrix::from_fn(8, 8, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!((spectral_norm(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_spectral_norm_is_max_abs_entry() {
        let w = diagonal(&[0.5, -3.0, 2.0, 1.0]);
        assert!((spectral_norm(&w) - 3.0).abs() < 1e-12);
        assert!((svd_spectral_norm(&w) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn zero_and_empty_matrices_have_zero_norm() {
        let w = Matrix::zeros(5, 3);
        assert_eq!(spectral_norm(&w), 0.0);
        assert_eq!(svd_spectral_norm(&w), 0.0);
        assert_eq!(spectral_norm(&Matrix::zeros(0, 0)), 0.0);
    }

    #[test]
    fn rank_one_matrix_known_norm() {
        // uvᵀ with ‖u‖=√2, ‖v‖=√3 → σ = √6.
        let u = [1.0f32, 1.0];
        let v = [1.0f32, 1.0, 1.0];
        let w = Matrix::from_fn(2, 3, |r, c| u[r] * v[c]);
        let expected = 6.0f64.sqrt();
        assert!((spectral_norm(&w) - expected).abs() < 1e-14);
        assert!((svd_spectral_norm(&w) - expected).abs() < 1e-10);
    }

    #[test]
    fn spectral_norm_bounded_by_frobenius() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Matrix::from_fn(6, 6, |_, _| rng.gen_range(-2.0..2.0));
        let fro = w
            .as_slice()
            .iter()
            .map(|&v| (v as f64).powi(2))
            .sum::<f64>();
        assert!(spectral_norm(&w) <= fro.sqrt() + 1e-6);
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
    fn scaling_scales_spectral_norm() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = Matrix::from_fn(5, 5, |_, _| rng.gen_range(-1.0..1.0));
        let s1 = spectral_norm(&w);
        let s3 = spectral_norm(&w.scale(3.0));
        assert!((s3 - 3.0 * s1).abs() < 1e-6 * s1);
    }
}

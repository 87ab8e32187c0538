//! Property-based tests of the tensor substrate's algebraic laws, run as
//! plain `#[test]` loops over the workspace's seeded PRNG (64+ random
//! cases per property — no external test-framework dependency).

use errflow_tensor::norms::{l1, l2, linf};
use errflow_tensor::rng::StdRng;
use errflow_tensor::spectral::{spectral_norm, svd_spectral_norm};
use errflow_tensor::Matrix;

const CASES: usize = 64;

fn random_matrix(rng: &mut StdRng, max_dim: usize) -> Matrix {
    let r = rng.gen_range(1..=max_dim);
    let c = rng.gen_range(1..=max_dim);
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-10.0..10.0))
}

#[test]
fn transpose_is_involution() {
    let mut rng = StdRng::seed_from_u64(0xA0);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 8);
        assert_eq!(m.transpose().transpose(), m);
    }
}

#[test]
fn matmul_identity_right() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 8);
        let i = Matrix::from_fn(m.cols(), m.cols(), |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(m.matmul(&i).unwrap(), m);
    }
}

#[test]
fn matmul_distributes_over_add() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 6);
        let b = Matrix::from_fn(a.cols(), 4, |_, _| rng.gen_range(-1.0..1.0));
        let c = Matrix::from_fn(a.cols(), 4, |_, _| rng.gen_range(-1.0..1.0));
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
    }
}

#[test]
fn norm_inequalities() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let len = rng.gen_range(1..64usize);
        let v: Vec<f32> = (0..len).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let n = v.len() as f64;
        let l2n = l2(&v);
        let linfn = linf(&v);
        let l1n = l1(&v);
        // ‖v‖∞ ≤ ‖v‖₂ ≤ ‖v‖₁ ≤ n·‖v‖∞ and (1/√n)‖v‖₂ ≤ ‖v‖∞.
        assert!(linfn <= l2n + 1e-9);
        assert!(l2n <= l1n + 1e-6);
        assert!(l1n <= n * linfn + 1e-6);
        assert!(l2n / n.sqrt() <= linfn + 1e-9);
    }
}

#[test]
fn spectral_norm_is_operator_norm() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let m = random_matrix(&mut rng, 6);
        let sigma = spectral_norm(&m);
        let x: Vec<f32> = (0..m.cols()).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let y = m.matvec(&x).unwrap();
        assert!(l2(&y) <= sigma * l2(&x) * (1.0 + 1e-4) + 1e-6);
    }
}

#[test]
fn spectral_norm_submultiplicative() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 5);
        let b = Matrix::from_fn(a.cols(), 5, |_, _| rng.gen_range(-2.0..2.0));
        let ab = a.matmul(&b).unwrap();
        let bound = spectral_norm(&a) * spectral_norm(&b);
        assert!(svd_spectral_norm(&ab) <= bound * (1.0 + 1e-4) + 1e-6);
    }
}

#[test]
fn spectral_norm_triangle_inequality() {
    let mut rng = StdRng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 5);
        let b = Matrix::from_fn(a.rows(), a.cols(), |_, _| rng.gen_range(-2.0..2.0));
        let sum = a.add(&b).unwrap();
        let bound = spectral_norm(&a) + spectral_norm(&b);
        assert!(svd_spectral_norm(&sum) <= bound * (1.0 + 1e-4) + 1e-6);
    }
}

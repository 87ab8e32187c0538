//! Deterministic weight initialisation.
//!
//! All randomness flows through seeded [`StdRng`] instances so every model,
//! test, and figure in the repository is bit-reproducible run to run.

use crate::matrix::Matrix;
use crate::rng::StdRng;

/// Xavier/Glorot uniform initialisation: `U(-a, a)` with
/// `a = √(6/(fan_in+fan_out))`.  Appropriate for Tanh networks (the H2
/// combustion MLP in the paper uses Tanh).
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f64).sqrt() as f32;
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
}

/// He/Kaiming uniform initialisation: `U(-a, a)` with `a = √(6/fan_in)`.
/// Appropriate for ReLU-family activations (Borghesi MLP, EuroSAT ResNet).
pub fn he_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / cols as f64).sqrt() as f32;
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..a))
}

/// Plain uniform initialisation `U(-scale, scale)`.
pub fn uniform(rows: usize, cols: usize, scale: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(10, 20, &mut rng);
        let a = (6.0f64 / 30.0).sqrt() as f32;
        assert!(w.as_slice().iter().all(|&v| v.abs() <= a));
    }

    #[test]
    fn he_within_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = he_uniform(10, 24, &mut rng);
        let a = (6.0f64 / 24.0).sqrt() as f32;
        assert!(w.as_slice().iter().all(|&v| v.abs() <= a));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        assert_eq!(
            xavier_uniform(4, 4, &mut r1).as_slice(),
            xavier_uniform(4, 4, &mut r2).as_slice()
        );
    }

    #[test]
    fn nonzero_output() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = uniform(5, 5, 1.0, &mut rng);
        assert!(w.max_abs() > 0.0);
    }
}

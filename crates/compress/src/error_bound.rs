//! Error-bound specifications shared by all compressor backends.
//!
//! Scientific compressors are configured with a *tolerance* and a *mode*.
//! The paper uses value-range-relative tolerances throughout ("all errors
//! discussed in this section are relative errors by default", §IV-B) and
//! reports both L∞- and L2-norm results; [`ErrorBound`] captures both axes.

/// How the tolerance constrains the reconstruction error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundMode {
    /// Pointwise absolute bound: `|x_i − x̃_i| ≤ tol` for every `i`.
    AbsLInf,
    /// Pointwise bound relative to the value range:
    /// `|x_i − x̃_i| ≤ tol · (max x − min x)`.
    RelLInf,
    /// Whole-buffer L2 bound: `‖x − x̃‖₂ ≤ tol`.
    AbsL2,
    /// L2 bound relative to the input's L2 norm: `‖x − x̃‖₂ ≤ tol·‖x‖₂`.
    RelL2,
}

impl BoundMode {
    /// `true` for the L2-norm modes (which ZFP does not support).
    pub fn is_l2(&self) -> bool {
        matches!(self, BoundMode::AbsL2 | BoundMode::RelL2)
    }

    /// `true` for range/norm-relative modes.
    pub fn is_relative(&self) -> bool {
        matches!(self, BoundMode::RelLInf | BoundMode::RelL2)
    }
}

/// A tolerance plus its interpretation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// The tolerance value (must be positive and finite).
    pub tolerance: f64,
    /// Interpretation of the tolerance.
    pub mode: BoundMode,
}

impl ErrorBound {
    /// Pointwise absolute L∞ bound.
    pub fn abs_linf(tolerance: f64) -> Self {
        ErrorBound {
            tolerance,
            mode: BoundMode::AbsLInf,
        }
    }

    /// Range-relative pointwise bound.
    pub fn rel_linf(tolerance: f64) -> Self {
        ErrorBound {
            tolerance,
            mode: BoundMode::RelLInf,
        }
    }

    /// Absolute L2 bound over the whole buffer.
    pub fn abs_l2(tolerance: f64) -> Self {
        ErrorBound {
            tolerance,
            mode: BoundMode::AbsL2,
        }
    }

    /// Norm-relative L2 bound.
    pub fn rel_l2(tolerance: f64) -> Self {
        ErrorBound {
            tolerance,
            mode: BoundMode::RelL2,
        }
    }

    /// Resolves this bound to a *pointwise absolute* budget for a concrete
    /// input buffer: the per-element tolerance that, if met everywhere,
    /// satisfies the bound.
    ///
    /// * L∞ modes resolve directly (relative scales by the value range).
    /// * L2 modes conservatively divide by `√n`: if every element errs by at
    ///   most `tol/√n`, the L2 error is at most `tol`.
    pub fn pointwise_budget(&self, data: &[f32]) -> f64 {
        if data.is_empty() {
            return self.tolerance;
        }
        match self.mode {
            BoundMode::AbsLInf => self.tolerance,
            BoundMode::RelLInf => {
                let (min, max) = min_max(data);
                self.tolerance * ((max - min) as f64).max(f64::MIN_POSITIVE)
            }
            BoundMode::AbsL2 => self.tolerance / (data.len() as f64).sqrt(),
            BoundMode::RelL2 => {
                let l2: f64 = data
                    .iter()
                    .map(|&x| (x as f64) * (x as f64))
                    .sum::<f64>()
                    .sqrt();
                self.tolerance * l2.max(f64::MIN_POSITIVE) / (data.len() as f64).sqrt()
            }
        }
    }

    /// The absolute value the achieved error must stay below for this bound
    /// on a concrete buffer, in the bound's own norm.
    pub fn absolute_target(&self, data: &[f32]) -> f64 {
        match self.mode {
            BoundMode::AbsLInf | BoundMode::AbsL2 => self.tolerance,
            BoundMode::RelLInf => {
                let (min, max) = min_max(data);
                self.tolerance * ((max - min) as f64).max(f64::MIN_POSITIVE)
            }
            BoundMode::RelL2 => {
                let l2: f64 = data
                    .iter()
                    .map(|&x| (x as f64) * (x as f64))
                    .sum::<f64>()
                    .sqrt();
                self.tolerance * l2.max(f64::MIN_POSITIVE)
            }
        }
    }

    /// Checks that a reconstruction satisfies this bound (used by tests and
    /// by the pipeline's self-verification mode).
    pub fn verify(&self, original: &[f32], reconstructed: &[f32]) -> bool {
        assert_eq!(original.len(), reconstructed.len());
        let target = self.absolute_target(original) * (1.0 + 1e-9) + 1e-30;
        match self.mode {
            BoundMode::AbsLInf | BoundMode::RelLInf => original
                .iter()
                .zip(reconstructed)
                .all(|(&a, &b)| ((a - b).abs() as f64) <= target),
            BoundMode::AbsL2 | BoundMode::RelL2 => {
                let err: f64 = original
                    .iter()
                    .zip(reconstructed)
                    .map(|(&a, &b)| {
                        let d = (a - b) as f64;
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt();
                err <= target
            }
        }
    }
}

/// Smallest and largest value of `data`, ignoring NaN (`f32::min`/`max`
/// return the other operand): `(+inf, −inf)` when nothing else is there.
///
/// Eight independent accumulators, so the scan is a vector min/max per
/// eight values and not one latency-bound chain through all of them; with
/// NaN never entering an accumulator, min and max are associative and the
/// grouping does not change the result.
fn min_max(data: &[f32]) -> (f32, f32) {
    let mut min = [f32::INFINITY; 8];
    let mut max = [f32::NEG_INFINITY; 8];
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        for ((lo, hi), &v) in min.iter_mut().zip(&mut max).zip(chunk) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
    for ((lo, hi), &v) in min.iter_mut().zip(&mut max).zip(chunks.remainder()) {
        *lo = lo.min(v);
        *hi = hi.max(v);
    }
    (
        min.iter().fold(f32::INFINITY, |m, &v| m.min(v)),
        max.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_linf_budget_is_tolerance() {
        let b = ErrorBound::abs_linf(0.01);
        assert_eq!(b.pointwise_budget(&[1.0, 2.0]), 0.01);
    }

    #[test]
    fn rel_linf_scales_by_range() {
        let b = ErrorBound::rel_linf(0.1);
        assert!((b.pointwise_budget(&[0.0, 4.0]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn abs_l2_divides_by_sqrt_n() {
        let b = ErrorBound::abs_l2(1.0);
        assert!((b.pointwise_budget(&[0.0; 4]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rel_l2_scales_by_norm() {
        let b = ErrorBound::rel_l2(0.1);
        // ‖x‖₂ = 5, n = 2 → budget = 0.1·5/√2.
        let budget = b.pointwise_budget(&[3.0, 4.0]);
        assert!((budget - 0.5 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn verify_accepts_exact_and_rejects_violations() {
        let b = ErrorBound::abs_linf(0.1);
        assert!(b.verify(&[1.0, 2.0], &[1.05, 1.95]));
        assert!(!b.verify(&[1.0, 2.0], &[1.2, 2.0]));
    }

    #[test]
    fn verify_l2_mode() {
        let b = ErrorBound::abs_l2(0.2);
        // Error vector (0.1, 0.1): L2 ≈ 0.141 ≤ 0.2 but L∞-per-point 0.1.
        assert!(b.verify(&[0.0, 0.0], &[0.1, 0.1]));
        assert!(!b.verify(&[0.0, 0.0], &[0.2, 0.2]));
    }

    #[test]
    fn pointwise_budget_implies_bound() {
        // Meeting the pointwise budget must satisfy the original bound.
        let data = vec![0.5f32, -1.0, 2.0, 0.25];
        for bound in [
            ErrorBound::abs_linf(0.05),
            ErrorBound::rel_linf(0.01),
            ErrorBound::abs_l2(0.1),
            ErrorBound::rel_l2(0.02),
        ] {
            let budget = bound.pointwise_budget(&data) as f32;
            let recon: Vec<f32> = data.iter().map(|&v| v + budget * 0.999).collect();
            assert!(bound.verify(&data, &recon), "{bound:?}");
        }
    }

    #[test]
    fn mode_predicates() {
        assert!(BoundMode::AbsL2.is_l2());
        assert!(!BoundMode::AbsLInf.is_l2());
        assert!(BoundMode::RelL2.is_relative());
        assert!(!BoundMode::AbsL2.is_relative());
    }

    /// The one-chain scan `min_max` replaced.
    fn min_max_serial(data: &[f32]) -> (f32, f32) {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in data {
            min = min.min(v);
            max = max.max(v);
        }
        (min, max)
    }

    #[test]
    fn min_max_equals_the_serial_scan() {
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(0xEB);
        let mut cases: Vec<Vec<f32>> = vec![Vec::new(), vec![f32::NAN; 13], vec![f32::NAN]];
        for len in (1..=17).chain([64, 1000, 4099]) {
            let clean: Vec<f32> = (0..len).map(|_| rng.gen_range(-1e3f32..1e3)).collect();
            // NaN in every lane position, and at both ends.
            let mut salted = clean.clone();
            for v in salted.iter_mut().step_by(3) {
                *v = f32::NAN;
            }
            let mut ends = clean.clone();
            ends[0] = f32::NAN;
            ends[len - 1] = f32::NAN;
            let mut infs = clean.clone();
            infs[len / 2] = f32::INFINITY;
            infs[len / 3] = f32::NEG_INFINITY;
            cases.extend([clean, salted, ends, infs]);
        }
        for data in &cases {
            // `==`, not bits: which of ±0.0 a min returns is unspecified,
            // and the range `max − min` does not depend on it.
            assert_eq!(min_max(data), min_max_serial(data), "{data:?}");
        }
        assert_eq!(min_max(&[]), (f32::INFINITY, f32::NEG_INFINITY));
        assert_eq!(min_max(&[f32::NAN; 9]), (f32::INFINITY, f32::NEG_INFINITY));
    }

    #[test]
    fn empty_data_budget() {
        let b = ErrorBound::rel_linf(0.1);
        assert_eq!(b.pointwise_budget(&[]), 0.1);
    }
}

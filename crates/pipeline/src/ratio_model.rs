//! Compression-ratio modeling across error bounds, and the automatic
//! tolerance-allocation optimizer built on it.
//!
//! Two pieces of the paper's future work:
//!
//! * §II cites "compression ratio modeling and estimation across error
//!   bounds" (its reference \[28\]): predicting a compressor's ratio at an
//!   arbitrary tolerance from a handful of *probe* compressions.
//!   [`RatioModel`] fits a piecewise-linear model in log-tolerance /
//!   log-ratio space (compression ratios of error-bounded compressors are
//!   near power laws in the tolerance over wide ranges).
//! * §IV-D: "allocating a fixed proportion of the total tolerance to
//!   quantization does not consistently yield an optimal strategy ...
//!   This highlights the need for an optimization algorithm to automate
//!   the determination of the optimal strategy."
//!   [`crate::Planner::plan_optimal`] sweeps the quantization share and
//!   scores each candidate with the ratio model — no full-payload
//!   compression in the loop.

use errflow_compress::{CompressError, Compressor, ErrorBound};

/// A probed point: tolerance, achieved ratio, decode throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioProbe {
    /// The pointwise/L2 tolerance the probe compressed at.
    pub tolerance: f64,
    /// Achieved compression ratio.
    pub ratio: f64,
    /// Measured decompression throughput in GB/s.
    pub decode_gbps: f64,
}

/// Piecewise-linear log-log model of compression ratio (and decode speed)
/// versus tolerance, fitted from probe compressions of a payload sample.
#[derive(Debug, Clone)]
pub struct RatioModel {
    /// Probes sorted by ascending tolerance.
    probes: Vec<RatioProbe>,
}

impl RatioModel {
    /// Probes `compressor` on `sample` at each tolerance (interpreted via
    /// `make_bound`, so the caller controls the bound mode) and fits the
    /// model.  The sample should be a representative slice of the real
    /// payload — probing is `O(sample)` per tolerance, independent of the
    /// full data volume.
    pub fn probe(
        compressor: &dyn Compressor,
        sample: &[f32],
        tolerances: &[f64],
        make_bound: impl Fn(f64) -> ErrorBound,
    ) -> Result<Self, CompressError> {
        assert!(!tolerances.is_empty(), "need at least one probe tolerance");
        assert!(!sample.is_empty(), "need a nonempty sample");
        let mut probes = Vec::with_capacity(tolerances.len());
        for &tol in tolerances {
            let bound = make_bound(tol);
            let (_, mut stats) = compressor.roundtrip(sample, &bound)?;
            // Stabilise decode timing on small samples.
            if stats.decompress_secs < 2e-3 {
                let stream = compressor.compress(sample, &bound)?;
                let reps = ((4e-3 / stats.decompress_secs.max(1e-7)) as usize).clamp(3, 100);
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    compressor.decompress(&stream, sample.len())?;
                }
                stats.decompress_secs = t0.elapsed().as_secs_f64() / reps as f64;
            }
            probes.push(RatioProbe {
                tolerance: tol,
                ratio: stats.ratio().max(1.0),
                decode_gbps: stats.decompress_gbps(),
            });
        }
        probes.sort_by(|a, b| a.tolerance.partial_cmp(&b.tolerance).expect("finite"));
        Ok(RatioModel { probes })
    }

    /// The fitted probe points.
    pub fn probes(&self) -> &[RatioProbe] {
        &self.probes
    }

    /// Predicted compression ratio at `tolerance` (log-log interpolation,
    /// clamped to the probed range).
    pub fn predict_ratio(&self, tolerance: f64) -> f64 {
        self.interpolate(tolerance, |p| p.ratio.ln()).exp()
    }

    /// Predicted decompression throughput at `tolerance`, GB/s.
    pub fn predict_decode_gbps(&self, tolerance: f64) -> f64 {
        self.interpolate(tolerance, |p| p.decode_gbps.max(1e-6).ln())
            .exp()
    }

    fn interpolate(&self, tolerance: f64, f: impl Fn(&RatioProbe) -> f64) -> f64 {
        let t = tolerance.max(1e-300).ln();
        let first = self.probes.first().expect("nonempty");
        let last = self.probes.last().expect("nonempty");
        if t <= first.tolerance.ln() {
            return f(first);
        }
        if t >= last.tolerance.ln() {
            return f(last);
        }
        for pair in self.probes.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (ta, tb) = (a.tolerance.ln(), b.tolerance.ln());
            if t >= ta && t <= tb {
                let w = if tb > ta { (t - ta) / (tb - ta) } else { 0.0 };
                return f(a) * (1.0 - w) + f(b) * w;
            }
        }
        f(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_compress::SzCompressor;

    fn smooth(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.01).sin() * 2.0 + 0.1 * ((i as f32) * 0.13).cos())
            .collect()
    }

    fn model() -> RatioModel {
        let sz = SzCompressor::default();
        RatioModel::probe(
            &sz,
            &smooth(20_000),
            &[1e-6, 1e-4, 1e-2],
            ErrorBound::abs_linf,
        )
        .unwrap()
    }

    #[test]
    fn probes_sorted_and_ratios_sensible() {
        let m = model();
        assert_eq!(m.probes().len(), 3);
        assert!(m
            .probes()
            .windows(2)
            .all(|p| p[0].tolerance < p[1].tolerance));
        assert!(m.probes().iter().all(|p| p.ratio >= 1.0));
    }

    #[test]
    fn prediction_matches_probes_exactly() {
        let m = model();
        for p in m.probes() {
            assert!((m.predict_ratio(p.tolerance) - p.ratio).abs() < 1e-9 * p.ratio);
        }
    }

    #[test]
    fn prediction_interpolates_monotonically() {
        let m = model();
        // Ratio grows with tolerance for these probes; interior predictions
        // must stay between the bracketing probes.
        let mid = m.predict_ratio(1e-3);
        let lo = m.predict_ratio(1e-4);
        let hi = m.predict_ratio(1e-2);
        assert!(mid >= lo.min(hi) && mid <= lo.max(hi), "{lo} {mid} {hi}");
    }

    #[test]
    fn prediction_clamps_outside_range() {
        let m = model();
        assert_eq!(m.predict_ratio(1e-12), m.predict_ratio(1e-6));
        assert_eq!(m.predict_ratio(1.0), m.predict_ratio(1e-2));
    }

    #[test]
    fn prediction_close_to_fresh_compression() {
        // Predict at an untouched tolerance and compare to ground truth —
        // the ref-[28] use case.
        let m = model();
        let sz = SzCompressor::default();
        let data = smooth(20_000);
        let (_, stats) = sz.roundtrip(&data, &ErrorBound::abs_linf(1e-3)).unwrap();
        let predicted = m.predict_ratio(1e-3);
        let actual = stats.ratio();
        assert!(
            (predicted / actual).ln().abs() < 0.7,
            "predicted {predicted:.1} vs actual {actual:.1}"
        );
    }

    #[test]
    fn decode_speed_prediction_positive() {
        let m = model();
        assert!(m.predict_decode_gbps(1e-3) > 0.0);
    }

    #[test]
    #[should_panic(expected = "nonempty sample")]
    fn empty_sample_panics() {
        let sz = SzCompressor::default();
        let _ = RatioModel::probe(&sz, &[], &[1e-3], ErrorBound::abs_linf);
    }
}

//! Small statistics helpers used when aggregating achieved errors.
//!
//! The paper plots the *geometric mean and range* of achieved QoI errors
//! across compressors and batches (Figs. 3–6); [`Summary`] captures exactly
//! those aggregates.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean of strictly positive samples; non-positive samples are
/// skipped (they would otherwise collapse the product to zero, which is not
/// what an error-magnitude aggregate wants).  Returns `0.0` when no positive
/// sample exists.
pub fn geometric_mean(v: &[f64]) -> f64 {
    let logs: Vec<f64> = v.iter().filter(|&&x| x > 0.0).map(|&x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Min/max/geometric-mean summary of a set of achieved errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Geometric mean of the positive samples.
    pub geo_mean: f64,
    /// Number of samples aggregated.
    pub count: usize,
}

impl Summary {
    /// Aggregates a sample set; returns `None` for an empty slice.
    pub fn of(v: &[f64]) -> Option<Summary> {
        if v.is_empty() {
            return None;
        }
        Some(Summary {
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            geo_mean: geometric_mean(v),
            count: v.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_known() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_skips_nonpositive() {
        assert!((geometric_mean(&[0.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[0.0, -1.0]), 0.0);
    }

    #[test]
    fn summary_aggregates() {
        let s = Summary::of(&[1.0, 4.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.count, 3);
        assert!((s.geo_mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }
}

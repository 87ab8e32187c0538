//! Quantiles over requests and over rounds.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending slice;
/// `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` ascending (NaN last) and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert!((quantile(&v, 0.99) - 39.7).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_decile_of_rounds_ignores_slow_stretches_and_one_lucky_round() {
        // Fifteen rounds of throughput: a clean level near 400, a disturbed
        // stretch near 250, one lucky reading.
        let mut rounds = [
            401.0, 399.0, 252.0, 250.0, 255.0, 249.0, 251.0, 400.0, 402.0, 398.0, 470.0, 253.0,
            250.0, 397.0, 403.0,
        ];
        rounds.sort_by(f64::total_cmp);
        let best = quantile(&rounds, 0.9);
        assert!((400.0..405.0).contains(&best), "{best}");
        // The median would have read the boundary between the two levels.
        assert!(quantile(&rounds, 0.5) < 399.0);
    }
}

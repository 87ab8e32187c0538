//! Fixed-size log₂-bucket histograms.
//!
//! [`Log2Histogram`] records unsigned integer observations into 64
//! power-of-two buckets (bucket *i* covers `[2^i, 2^(i+1))`), so it needs
//! no allocation, no lock, and covers the full `u64` range in constant
//! space.  Quantiles walk the cumulative counts and interpolate linearly
//! inside the target bucket, so ranks that land in the same bucket still
//! produce distinct estimates; worst-case error stays bounded by the 2×
//! bucket width.
//!
//! [`LatencyHistogram`] is the latency-flavoured wrapper the serve layer
//! uses (observations are `Duration`s recorded in nanoseconds, summaries
//! in microseconds).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two buckets (covers the full `u64` range).
pub const BUCKETS: usize = 64;

/// A fixed-size concurrent histogram of `u64` observations on a log₂
/// bucket grid.  All operations are relaxed atomics — safe to record from
/// any thread, cheap enough for hot paths.
#[derive(Debug)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        // `const` so histograms can live in statics (the registry keeps
        // them behind `Arc`, but e.g. per-stage arrays are plain fields).
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Log2Histogram {
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.  Zero is clamped to 1 so it lands in
    /// bucket 0 rather than underflowing the log.
    pub fn record(&self, value: u64) {
        let v = value.max(1);
        let bucket = (63 - v.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (after zero-clamping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded observation, or `u64::MAX` when empty.
    pub fn min(&self) -> u64 {
        self.min.load(Ordering::Relaxed)
    }

    /// Largest recorded observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the per-bucket counts (bucket *i* covers
    /// `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Approximate `q`-quantile with within-bucket linear interpolation
    /// (see [`quantile_from_buckets`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.buckets(), q)
    }
}

/// Approximate `q`-quantile of a log₂ bucket-count array (bucket *i*
/// covers `[2^i, 2^(i+1))`).
///
/// The target rank is located by walking cumulative counts; within the
/// target bucket the estimate interpolates linearly between the bucket's
/// bounds, placing rank *k* of *c* in-bucket observations at fraction
/// `(k − ½) / c` of the width.  Distinct ranks inside one bucket therefore
/// yield distinct estimates (p50 ≠ p99 on any spread distribution), and a
/// single-observation bucket reports its midpoint rather than an edge.
/// Also the quantile estimator the sampler applies to per-interval bucket
/// *deltas*, where no `Log2Histogram` instance exists.
pub fn quantile_from_buckets(buckets: &[u64; BUCKETS], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c > 0 && cum + c >= rank {
            let lo = 2f64.powi(i as i32);
            let frac = (((rank - cum) as f64 - 0.5) / c as f64).clamp(0.0, 1.0);
            return lo * (1.0 + frac);
        }
        cum += c;
    }
    2f64.powi(BUCKETS as i32 - 1)
}

/// Snapshot of a latency distribution, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observed latency.
    pub min_us: f64,
    /// Largest observed latency.
    pub max_us: f64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median (histogram-approximate).
    pub p50_us: f64,
    /// 99th percentile (histogram-approximate).
    pub p99_us: f64,
}

/// A [`Log2Histogram`] of latencies recorded in nanoseconds and
/// summarised in microseconds — the histogram behind `Server::stats`.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    inner: Log2Histogram,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            inner: Log2Histogram::new(),
        }
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        self.inner.record(latency.as_nanos() as u64);
    }

    /// Records one latency observation given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.inner.record(ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Point-in-time copy of the per-bucket counts (bucket *i* covers
    /// `[2^i, 2^(i+1))` nanoseconds).
    pub fn buckets(&self) -> [u64; BUCKETS] {
        self.inner.buckets()
    }

    /// Point-in-time summary of the recorded distribution.
    pub fn summary(&self) -> LatencySummary {
        let count = self.inner.count();
        if count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count,
            min_us: self.inner.min() as f64 / 1e3,
            max_us: self.inner.max() as f64 / 1e3,
            mean_us: self.inner.sum() as f64 / count as f64 / 1e3,
            p50_us: self.inner.quantile(0.50) / 1e3,
            p99_us: self.inner.quantile(0.99) / 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_summarises_to_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
        assert_eq!(h.buckets(), [0; BUCKETS]);
    }

    #[test]
    fn records_land_in_log2_buckets() {
        let h = Log2Histogram::new();
        h.record(0); // clamps to 1 → bucket 0
        h.record(1);
        h.record(7); // bucket 2
        h.record(8); // bucket 3
        let b = h.buckets();
        assert_eq!(b[0], 2);
        assert_eq!(b[2], 1);
        assert_eq!(b[3], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn interpolation_separates_quantiles_within_a_bucket() {
        // 1000 evenly spread values inside one log₂ bucket [4096, 8192):
        // before interpolation every quantile collapsed to the bucket
        // midpoint (the p50 == p99 coarseness serve-bench exhibited).
        let h = Log2Histogram::new();
        for k in 0..1000u64 {
            h.record(4096 + k * 4);
        }
        let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
        assert!(p50 < p90 && p90 < p99, "p50={p50} p90={p90} p99={p99}");
        // Linear interpolation puts rank q·n of n uniform in-bucket
        // observations near lo + q·width.
        assert!((p50 - 6144.0).abs() < 64.0, "p50={p50}");
        assert!((p99 - 8151.0).abs() < 64.0, "p99={p99}");
        // And across buckets the estimate stays inside the right bucket.
        assert!(p99 < 8192.0);
    }

    #[test]
    fn interpolated_quantiles_differ_on_spread_distribution() {
        // A realistic latency-like spread across several buckets must
        // produce strictly increasing p50 < p90 < p99.
        let h = Log2Histogram::new();
        let mut ns = 99u64;
        for _ in 0..5000 {
            ns = ns
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(10_000 + ns % 900_000);
        }
        let (p50, p90, p99) = (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99));
        assert!(
            p50 < p90 && p90 < p99,
            "quantiles must be distinct: p50={p50} p90={p90} p99={p99}"
        );
    }

    #[test]
    fn single_observation_reports_bucket_interior() {
        let h = Log2Histogram::new();
        h.record(5000); // bucket 12: [4096, 8192)
        for q in [0.01, 0.5, 0.99] {
            let v = h.quantile(q);
            assert!((4096.0..8192.0).contains(&v), "q={q} v={v}");
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let h = Log2Histogram::new();
        for us in [5u64, 10, 20, 40, 80, 160, 320, 640, 1280, 100_000] {
            h.record(us * 1000);
        }
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q99);
        assert!(h.min() as f64 <= q50 * std::f64::consts::SQRT_2);
    }
}

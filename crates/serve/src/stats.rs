//! Server statistics: per-instance counters mirrored into the process-wide
//! [`errflow_obs`] metrics registry, plus end-to-end and per-stage latency
//! histograms.
//!
//! The histogram machinery (log₂ buckets, quantiles, merging) lives in
//! [`errflow_obs::hist`]; this module re-exports [`LatencyHistogram`] and
//! [`LatencySummary`] so existing `errflow_serve::stats` users keep
//! compiling.  Counters are [`ScopedCounter`]s: `.get()` reads the
//! *instance* value (tests construct several servers in one process and
//! assert exact per-server counts), while every bump also lands in the
//! named registry metric for Prometheus/JSON exposition.
//!
//! [`StatsSnapshot`] is the server's half of the `serve-bench` line
//! ([`crate::loadgen::report_json`]).  It counts no pass/fail over the
//! served `rel_bound`, which is ≤ the plan tolerance by construction;
//! `bound_margin` says how much of the tolerance that *predicted* bound
//! consumes, and realized error is checked where the originals are
//! (`benchmark/`, `tests/bound_soundness.rs`).

use errflow_obs::ScopedCounter;
pub use errflow_obs::{LatencyHistogram, LatencySummary};
use std::sync::Arc;
use std::time::Duration;

/// An instance-local latency histogram that mirrors every observation into
/// a named process-wide registry histogram.  [`summary`](Self::summary)
/// reads the instance view; exposition sees the process total.
#[derive(Debug)]
pub struct MirroredHistogram {
    local: LatencyHistogram,
    global: Arc<errflow_obs::Log2Histogram>,
}

impl MirroredHistogram {
    /// Creates a fresh instance histogram mirroring into `global_name`.
    pub fn new(global_name: &str) -> Self {
        MirroredHistogram {
            local: LatencyHistogram::new(),
            global: errflow_obs::histogram(global_name),
        }
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        self.record_ns(latency.as_nanos() as u64);
    }

    /// Records one latency observation given in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.local.record_ns(ns);
        self.global.record(ns);
    }

    /// Number of observations recorded through this instance.
    pub fn count(&self) -> u64 {
        self.local.count()
    }

    /// Point-in-time summary of the instance distribution.
    pub fn summary(&self) -> LatencySummary {
        self.local.summary()
    }

    /// The unit-agnostic instance histogram, for callers that record
    /// something other than nanoseconds (e.g. scaled ratios) and need raw
    /// quantiles without the microsecond conversion of [`summary`].
    ///
    /// [`summary`]: Self::summary
    pub fn raw(&self) -> &errflow_obs::Log2Histogram {
        self.local.as_log2()
    }
}

/// Where a completed request spent its time, in nanoseconds.  Shipped on
/// every [`crate::Response`].
///
/// The intervals are disjoint slices of the request's life, so their sum
/// is ≤ the end-to-end latency.  A worker runs a request's stages back to
/// back on one thread, so the unattributed remainder is the flatten +
/// compress half of the payload roundtrip and holds no hand-off wait.
/// Batch-level stages (`plan_ns`, `forward_ns`) are shared by
/// every request in the batch and attributed in full to each.
///
/// For in-process submissions `ingress_ns`/`egress_ns` are 0 and the sum
/// is ≤ [`crate::Response::latency`].  For requests arriving over the
/// wire (`errflow-net`) the frontend stamps both, and the sum is ≤ the
/// *client-observed* round trip (the server-side latency window opens
/// after ingress and closes before egress).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStages {
    /// Network frontend: reading + decoding the request frame (0 for
    /// in-process submissions — the wire path is the only producer).
    pub ingress_ns: u64,
    /// Admission → a worker dequeued the job.
    pub batch_wait_ns: u64,
    /// Plan-cache lookup for the job's batch (miss: plan arithmetic; a
    /// format's first miss also quantizes and packs its weights).
    pub plan_ns: u64,
    /// Decompressing this job's own payload.
    pub decompress_ns: u64,
    /// The batched forward pass the job shared.
    pub forward_ns: u64,
    /// Forward-pass end → this job's response was fulfilled.
    pub respond_ns: u64,
    /// Network frontend: encoding the response frame (0 for in-process;
    /// stamped by the wire path *before* the frame leaves, so the value a
    /// client sees covers serialization, not the final socket write).
    pub egress_ns: u64,
}

impl RequestStages {
    /// Total attributed time; ≤ the response's end-to-end latency.
    pub fn sum_ns(&self) -> u64 {
        self.ingress_ns
            + self.batch_wait_ns
            + self.plan_ns
            + self.decompress_ns
            + self.forward_ns
            + self.respond_ns
            + self.egress_ns
    }
}

/// Per-stage latency histograms plus the bound-margin distribution.
///
/// Per-job stages (`batch_wait`, `decompress`, `respond`) record one
/// observation per job; batch-level stages (`plan`, `forward`) record one
/// per batch, so their counts equal the batch count, not the job count.
#[derive(Debug)]
pub struct StageStats {
    /// Wire-frame read + decode, per job (net frontend only — empty for
    /// in-process traffic).
    pub ingress: MirroredHistogram,
    /// Admission → dequeue, per job.
    pub batch_wait: MirroredHistogram,
    /// Plan-cache lookup, per batch.
    pub plan: MirroredHistogram,
    /// Payload decompression, per job.
    pub decompress: MirroredHistogram,
    /// Batched forward pass, per batch.
    pub forward: MirroredHistogram,
    /// Forward end → response fulfilled, per job.
    pub respond: MirroredHistogram,
    /// Response encode + write, per job (net frontend only — empty for
    /// in-process traffic).
    pub egress: MirroredHistogram,
    /// Per-request bound margin `round((rel_bound / plan_tol) · 1e6)` in a
    /// log₂ histogram: how much of the requested tolerance the *predicted*
    /// bound consumed.  1e6 ≙ the prediction exactly met the tolerance (it
    /// is clamped there); small values mean the planner over-delivered.
    /// Summarised by [`StageStats::bound_margin_summary`] as a 0‥1 ratio.
    pub bound_margin: MirroredHistogram,
}

impl Default for StageStats {
    fn default() -> Self {
        StageStats {
            ingress: MirroredHistogram::new("serve.stage.ingress_ns"),
            batch_wait: MirroredHistogram::new("serve.stage.batch_wait_ns"),
            plan: MirroredHistogram::new("serve.stage.plan_ns"),
            decompress: MirroredHistogram::new("serve.stage.decompress_ns"),
            forward: MirroredHistogram::new("serve.stage.forward_ns"),
            respond: MirroredHistogram::new("serve.stage.respond_ns"),
            egress: MirroredHistogram::new("serve.stage.egress_ns"),
            bound_margin: MirroredHistogram::new("serve.bound_margin"),
        }
    }
}

impl StageStats {
    /// Point-in-time per-stage summaries.
    pub fn breakdown(&self) -> StageBreakdown {
        StageBreakdown {
            ingress: self.ingress.summary(),
            batch_wait: self.batch_wait.summary(),
            plan: self.plan.summary(),
            decompress: self.decompress.summary(),
            forward: self.forward.summary(),
            respond: self.respond.summary(),
            egress: self.egress.summary(),
        }
    }

    /// Records one request's bound margin: the certified `rel_bound` as a
    /// fraction of the plan tolerance, scaled by 1e6 onto the log₂ grid.
    pub(crate) fn record_bound_margin(&self, rel_bound: f64, plan_tol: f64) {
        if plan_tol > 0.0 && rel_bound.is_finite() {
            let scaled = (rel_bound / plan_tol * 1e6).round();
            if scaled.is_finite() && scaled >= 0.0 {
                self.bound_margin.record_ns(scaled as u64);
            }
        }
    }

    /// Summary of the bound-margin distribution as 0‥1 ratios (a margin of
    /// 1.0 means the certificate exactly met the requested tolerance).
    pub fn bound_margin_summary(&self) -> BoundMarginSummary {
        let h = self.bound_margin.raw();
        let count = h.count();
        if count == 0 {
            return BoundMarginSummary::default();
        }
        // Within-bucket interpolation can overshoot the true maximum in
        // the top bucket; clamp so a run never reports p99 > max.
        let max = h.max() as f64 / 1e6;
        BoundMarginSummary {
            count,
            p50: (h.quantile(0.50) / 1e6).min(max),
            p99: (h.quantile(0.99) / 1e6).min(max),
            max,
        }
    }
}

/// Snapshot of the per-request bound-margin distribution
/// (`rel_bound / plan_tol`, dimensionless, ≤ 1.0 by construction).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BoundMarginSummary {
    /// Requests that recorded a margin.
    pub count: u64,
    /// Median margin (histogram-approximate).
    pub p50: f64,
    /// 99th-percentile margin (histogram-approximate).
    pub p99: f64,
    /// Largest recorded margin.
    pub max: f64,
}

/// Snapshot of the per-stage latency distributions (microseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Wire-frame read + decode, per job (net frontend only).
    pub ingress: LatencySummary,
    /// Admission → dequeue, per job.
    pub batch_wait: LatencySummary,
    /// Plan-cache lookup, per batch.
    pub plan: LatencySummary,
    /// Payload decompression, per job.
    pub decompress: LatencySummary,
    /// Batched forward pass, per batch.
    pub forward: LatencySummary,
    /// Forward end → response fulfilled, per job.
    pub respond: LatencySummary,
    /// Response encode + write, per job (net frontend only).
    pub egress: LatencySummary,
}

/// Live server counters.  Every counter is per-instance and mirrored into
/// the `serve.*` registry metrics (process totals) for exposition.
#[derive(Debug)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub submitted: ScopedCounter,
    /// Requests rejected with `QueueFull` by admission control.
    pub rejected: ScopedCounter,
    /// Requests completed successfully.
    pub completed: ScopedCounter,
    /// Requests that failed during processing.
    pub failed: ScopedCounter,
    /// Batched forward passes executed.
    pub batches: ScopedCounter,
    /// Jobs carried by those batches (`batched_jobs / batches` = mean
    /// coalescing factor).
    pub batched_jobs: ScopedCounter,
    /// Per-format weight sets (quantize + pack) built; ≤ 5 per server,
    /// however many plans miss the cache.
    pub weight_builds: ScopedCounter,
    /// Wall time spent decompressing request payloads, in nanoseconds.
    pub decomp_ns: ScopedCounter,
    /// Compressed bytes fed into payload decompression.
    pub decomp_bytes_in: ScopedCounter,
    /// Decompressed bytes produced (values × 4).
    pub decomp_bytes_out: ScopedCounter,
    /// End-to-end request latency (enqueue → response).
    pub latency: MirroredHistogram,
    /// Per-stage latency breakdown and the bound-margin distribution.
    pub stages: StageStats,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            submitted: ScopedCounter::new("serve.submitted"),
            rejected: ScopedCounter::new("serve.rejected"),
            completed: ScopedCounter::new("serve.completed"),
            failed: ScopedCounter::new("serve.failed"),
            batches: ScopedCounter::new("serve.batches"),
            batched_jobs: ScopedCounter::new("serve.batched_jobs"),
            weight_builds: ScopedCounter::new("serve.weight_builds"),
            decomp_ns: ScopedCounter::new("serve.decomp_ns"),
            decomp_bytes_in: ScopedCounter::new("serve.decomp_bytes_in"),
            decomp_bytes_out: ScopedCounter::new("serve.decomp_bytes_out"),
            latency: MirroredHistogram::new("serve.latency_ns"),
            stages: StageStats::default(),
        }
    }
}

impl ServerStats {
    pub(crate) fn note_batch(&self, jobs: usize) {
        self.batches.inc();
        self.batched_jobs.add(jobs as u64);
    }

    pub(crate) fn note_decomp(&self, ns: u64, bytes_in: u64, bytes_out: u64) {
        self.decomp_ns.add(ns);
        self.decomp_bytes_in.add(bytes_in);
        self.decomp_bytes_out.add(bytes_out);
    }
}

/// Point-in-time view of [`ServerStats`] plus queue/cache gauges, as
/// returned by `Server::stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSnapshot {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests failed during processing.
    pub failed: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Total jobs carried by batches.
    pub batched_jobs: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Plan-cache lookups served from cache.
    pub cache_hits: u64,
    /// Plan-cache lookups that planned from scratch.
    pub cache_misses: u64,
    /// Per-format weight sets (quantize + pack) built since construction;
    /// ≤ 5, however many lookups missed.
    pub weight_builds: u64,
    /// Wall time spent decompressing request payloads, in nanoseconds.
    pub decomp_ns: u64,
    /// Compressed bytes fed into payload decompression.
    pub decomp_bytes_in: u64,
    /// Decompressed bytes produced (values × 4).
    pub decomp_bytes_out: u64,
    /// Codec scratch-pool hits **since this server was built** (the pool
    /// itself is process-wide and shared by every compressor; the snapshot
    /// reports the delta over this server's lifetime so concurrent servers
    /// don't read each other's traffic as their own).
    pub scratch_hits: u64,
    /// Codec scratch-pool misses since this server was built (delta, as
    /// with `scratch_hits`).
    pub scratch_misses: u64,
    /// Distribution of `rel_bound / plan_tol` per request: how tight the
    /// predicted bounds ran against the requested tolerance.
    pub bound_margin: BoundMarginSummary,
    /// Latency distribution snapshot.
    pub latency: LatencySummary,
    /// Per-stage latency breakdown.
    pub stages: StageBreakdown,
}

impl StatsSnapshot {
    /// `cache_hits / (cache_hits + cache_misses)`, or 0 before any lookup.
    pub fn cache_hit_rate(&self) -> f64 {
        let t = self.cache_hits + self.cache_misses;
        if t == 0 {
            0.0
        } else {
            self.cache_hits as f64 / t as f64
        }
    }

    /// Mean jobs per batched forward pass.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_jobs as f64 / self.batches as f64
        }
    }

    /// Payload decompression throughput in GB/s of decompressed output
    /// (bytes per nanosecond), or 0 before any payload was decoded.
    pub fn decomp_gbps(&self) -> f64 {
        if self.decomp_ns == 0 {
            0.0
        } else {
            self.decomp_bytes_out as f64 / self.decomp_ns as f64
        }
    }

    /// `scratch_hits / (scratch_hits + scratch_misses)` over this server's
    /// lifetime, or 0 before any acquisition.  Near 1.0 once the codec
    /// scratch pool is warm.
    pub fn scratch_hit_rate(&self) -> f64 {
        let t = self.scratch_hits + self.scratch_misses;
        if t == 0 {
            0.0
        } else {
            self.scratch_hits as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn empty_histogram_summarises_to_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn summary_orders_quantiles() {
        let h = LatencyHistogram::new();
        for us in [5u64, 10, 20, 40, 80, 160, 320, 640, 1280, 100_000] {
            h.record(Duration::from_micros(us));
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert!(s.min_us <= s.p50_us, "{s:?}");
        assert!(s.p50_us <= s.p99_us, "{s:?}");
        assert!(s.p99_us <= s.max_us * std::f64::consts::SQRT_2, "{s:?}");
        assert!((s.min_us - 5.0).abs() < 1e-9);
        assert!((s.max_us - 100_000.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = LatencyHistogram::new();
        // 99 fast observations, 1 slow: p50 fast, p99+ reaches the tail.
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(50));
        let s = h.summary();
        assert!(s.p50_us < 20.0, "{s:?}");
        assert!(s.p99_us < 20.0, "p99 of 99/100 fast is still fast: {s:?}");
        assert!(s.max_us >= 50_000.0);
        // Mean is pulled up by the tail.
        assert!(s.mean_us > 100.0, "{s:?}");
    }

    #[test]
    fn histogram_is_thread_safe() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.record(Duration::from_micros(100));
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn mirrored_histogram_is_instance_scoped() {
        let a = MirroredHistogram::new("test.serve.stats.mirrored");
        let b = MirroredHistogram::new("test.serve.stats.mirrored");
        a.record_ns(1000);
        a.record_ns(2000);
        b.record_ns(500);
        assert_eq!(a.count(), 2, "instance A sees only its own records");
        assert_eq!(b.count(), 1);
        // The registry histogram accumulated all three.
        assert!(errflow_obs::histogram("test.serve.stats.mirrored").count() >= 3);
    }

    #[test]
    fn server_stats_counters_are_per_instance() {
        let a = ServerStats::default();
        let b = ServerStats::default();
        a.submitted.inc();
        a.note_batch(3);
        b.submitted.add(5);
        assert_eq!(a.submitted.get(), 1);
        assert_eq!(b.submitted.get(), 5);
        assert_eq!(a.batches.get(), 1);
        assert_eq!(a.batched_jobs.get(), 3);
        assert_eq!(b.batches.get(), 0);
    }

    #[test]
    fn request_stages_sum() {
        let s = RequestStages {
            ingress_ns: 5,
            batch_wait_ns: 10,
            plan_ns: 20,
            decompress_ns: 30,
            forward_ns: 40,
            respond_ns: 50,
            egress_ns: 7,
        };
        assert_eq!(s.sum_ns(), 162);
        assert_eq!(RequestStages::default().sum_ns(), 0);
    }

    #[test]
    fn snapshot_derived_metrics() {
        let snap = StatsSnapshot {
            submitted: 10,
            rejected: 2,
            completed: 10,
            batches: 4,
            batched_jobs: 10,
            cache_hits: 9,
            cache_misses: 1,
            decomp_ns: 1_000_000,
            decomp_bytes_in: 400_000,
            decomp_bytes_out: 4_000_000,
            scratch_hits: 30,
            scratch_misses: 10,
            ..StatsSnapshot::default()
        };
        assert!((snap.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert!((snap.mean_batch_size() - 2.5).abs() < 1e-12);
        // 4 MB decoded in 1 ms = 4 GB/s (bytes per nanosecond).
        assert!((snap.decomp_gbps() - 4.0).abs() < 1e-12);
        assert!((snap.scratch_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bound_margin_summary_reports_ratio_quantiles() {
        let s = StageStats::default();
        assert_eq!(s.bound_margin_summary(), BoundMarginSummary::default());
        // Margins spread over [0.1, 0.9] of tolerance, one near-exact.
        for k in 1..=9u64 {
            s.record_bound_margin(k as f64 * 1e-4, 1e-3);
        }
        s.record_bound_margin(9.9e-4, 1e-3);
        let m = s.bound_margin_summary();
        assert_eq!(m.count, 10);
        assert!(m.p50 > 0.2 && m.p50 < 0.8, "{m:?}");
        assert!(m.p99 > m.p50, "{m:?}");
        assert!(m.max > 0.95 && m.max <= 1.0, "{m:?}");
        // Degenerate inputs are dropped, not recorded as garbage.
        s.record_bound_margin(f64::NAN, 1e-3);
        s.record_bound_margin(1e-4, 0.0);
        assert_eq!(s.bound_margin_summary().count, 10);
    }

    #[test]
    fn zeroed_snapshot_rates_are_zero() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.decomp_gbps(), 0.0);
        assert_eq!(snap.scratch_hit_rate(), 0.0);
        assert_eq!(snap.cache_hit_rate(), 0.0);
    }
}

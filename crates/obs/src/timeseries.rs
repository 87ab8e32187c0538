//! Tiered, fixed-memory time-series retention over the metrics registry.
//!
//! A [`Sampler`] turns the point-in-time registry ([`crate::registry`])
//! into *history*: on every tick it snapshots all registered metrics,
//! diffs them against the previous tick, and appends derived points into
//! per-series ring buffers at several resolutions (**tiers**).  The
//! default layout retains 1 s × 300, 10 s × 360, and 60 s × 1440 — five
//! minutes at full resolution, an hour at 10 s, a day at one minute — in
//! a constant memory envelope (the tests hold live usage under
//! `Sampler::memory_bound`).
//!
//! Derivation rules per metric kind:
//! - **counter** `name` → one series `name` holding the per-second rate
//!   over the tick interval,
//! - **gauge** `name` → one series `name` holding the sampled value,
//! - **histogram** `name` → `name.rate` (observations/s) plus `name.p50`
//!   / `name.p99` computed from the *interval-local* bucket deltas with
//!   the interpolating estimator ([`crate::hist::quantile_from_buckets`]),
//!   so tier points reflect what happened in that interval rather than
//!   the process-lifetime distribution.
//!
//! Coarser tiers aggregate the base tier on tick boundaries: every
//! `step/base_step` ticks a tier flushes one point whose value combines
//! the interval's base samples under the series' aggregation policy —
//! `Mean` for rates and medians, `Max` for p99s (a spike must survive
//! downsampling), `Last` for gauges.
//!
//! The sampler itself spawns no threads (this crate has no dependencies;
//! thread creation is pool-owned): a dedicated thread in the serve layer
//! drives [`tick_global`] at the base period.  Everything here is
//! panic-free on library paths and bounded: at most [`MAX_SERIES`]
//! series are retained, later registrations are counted in
//! [`Sampler::dropped_series`].

use crate::hist::{quantile_from_buckets, BUCKETS};
use crate::json::JsonWriter;
use crate::lock_recover;
use crate::registry::{self, MetricSnapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// One retention tier: a ring of `len` points spaced `step_ms` apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Nominal spacing between points in this tier, in milliseconds.
    pub step_ms: u64,
    /// Number of points retained (ring capacity).
    pub len: usize,
}

/// Default retention: 5 min @ 1 s, 1 h @ 10 s, 24 h @ 60 s.
pub const DEFAULT_TIERS: [TierSpec; 3] = [
    TierSpec {
        step_ms: 1_000,
        len: 300,
    },
    TierSpec {
        step_ms: 10_000,
        len: 360,
    },
    TierSpec {
        step_ms: 60_000,
        len: 1_440,
    },
];

/// Hard cap on retained series; registrations beyond it are dropped (and
/// counted), never allocated — the sampler's memory is a constant.
pub const MAX_SERIES: usize = 256;

/// Hard cap on tier count accepted over the wire and in configuration.
pub const MAX_TIERS: usize = 8;

/// Series names longer than this are truncated on first registration so
/// the per-series memory bound holds regardless of registry naming.
pub const MAX_SERIES_NAME: usize = 120;

/// One retained sample: wall-clock milliseconds and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Wall-clock timestamp (ms since the Unix epoch) of the tick that
    /// produced this point.
    pub t_ms: u64,
    /// Derived value (rate, quantile, or gauge reading).
    pub v: f64,
}

/// How a series combines base-tier samples when flushing into a coarser
/// tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Arithmetic mean of the interval's samples (rates, medians).
    Mean,
    /// Maximum of the interval's samples (tail quantiles — a p99 spike
    /// must survive downsampling).
    Max,
    /// Most recent sample (gauges).
    Last,
}

/// Fixed-capacity ring of [`Point`]s.
#[derive(Debug)]
struct Ring {
    buf: Vec<Point>,
    cap: usize,
    /// Index of the next write (== oldest element once full).
    head: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
        }
    }

    fn push(&mut self, p: Point) {
        if self.buf.len() < self.cap {
            self.buf.push(p);
        } else {
            self.buf[self.head] = p;
        }
        self.head = (self.head + 1) % self.cap;
    }

    /// Last `n` points, oldest first (`n == 0` → everything retained).
    fn tail(&self, n: usize) -> Vec<Point> {
        let len = self.buf.len();
        let take = if n == 0 { len } else { n.min(len) };
        let mut out = Vec::with_capacity(take);
        // Oldest element sits at `head` once the ring has wrapped.
        let start = if len < self.cap { 0 } else { self.head };
        for k in (len - take)..len {
            out.push(self.buf[(start + k) % len.max(1)]);
        }
        out
    }
}

/// Per-tier aggregation accumulator (tiers ≥ 1).
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    ticks: u32,
    n: u32,
    sum: f64,
    max: f64,
    last: f64,
    last_t_ms: u64,
}

#[derive(Debug)]
struct Series {
    agg: Agg,
    rings: Vec<Ring>,
    pending: Vec<Pending>,
}

/// Previous-tick view of a cumulative metric, for diffing.
#[derive(Debug)]
enum Prev {
    Counter(u64),
    Hist { count: u64, buckets: [u64; BUCKETS] },
}

/// Everything one scrape needs: the retained series of one or all tiers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TieredDump {
    /// Timestamp of the most recent tick (ms since the Unix epoch).
    pub now_ms: u64,
    /// Requested tiers, each with its series windows.
    pub tiers: Vec<TierDump>,
}

/// One tier's slice of a [`TieredDump`].
#[derive(Debug, Clone, PartialEq)]
pub struct TierDump {
    /// Tier index in the sampler's configuration.
    pub tier: u8,
    /// Point spacing of this tier, in milliseconds.
    pub step_ms: u64,
    /// Retained series windows, name-sorted.
    pub series: Vec<SeriesDump>,
}

/// One series' window within a [`TierDump`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesDump {
    /// Derived series name (`serve.completed`, `serve.latency_ns.p99`, …).
    pub name: String,
    /// Points, oldest first.
    pub points: Vec<Point>,
}

/// Tiered ring-buffer sampler over the metrics registry (module docs
/// describe the derivation and aggregation rules).
#[derive(Debug)]
pub struct Sampler {
    tiers: Vec<TierSpec>,
    series: BTreeMap<String, Series>,
    prev: BTreeMap<String, Prev>,
    last_tick_ms: u64,
    ticks: u64,
    dropped_series: u64,
}

impl Sampler {
    /// Creates a sampler with the given tier layout.  Tiers beyond
    /// [`MAX_TIERS`] are ignored; an empty slice falls back to
    /// [`DEFAULT_TIERS`].
    pub fn new(tiers: &[TierSpec]) -> Self {
        let tiers: Vec<TierSpec> = if tiers.is_empty() {
            DEFAULT_TIERS.to_vec()
        } else {
            tiers.iter().copied().take(MAX_TIERS).collect()
        };
        Sampler {
            tiers,
            series: BTreeMap::new(),
            prev: BTreeMap::new(),
            last_tick_ms: 0,
            ticks: 0,
            dropped_series: 0,
        }
    }

    /// The configured tier layout.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Number of ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Series registrations refused because [`MAX_SERIES`] was reached.
    pub fn dropped_series(&self) -> u64 {
        self.dropped_series
    }

    /// Timestamp of the most recent tick (0 before the first).
    pub fn last_tick_ms(&self) -> u64 {
        self.last_tick_ms
    }

    /// Upper bound, in bytes, on the point storage a sampler with `tiers`
    /// can ever hold: `MAX_SERIES` series × the full tier capacity (16 B
    /// per point) plus per-series bookkeeping and a name of at most
    /// [`MAX_SERIES_NAME`] bytes.  `Sampler::memory_bytes` never
    /// exceeds this, which the tests assert.
    #[cfg(test)]
    pub fn memory_bound(tiers: &[TierSpec]) -> usize {
        let points: usize = tiers.iter().take(MAX_TIERS).map(|t| t.len.max(1)).sum();
        let per_series = MAX_SERIES_NAME
            + points * std::mem::size_of::<Point>()
            + tiers.len().min(MAX_TIERS)
                * (std::mem::size_of::<Ring>() + std::mem::size_of::<Pending>())
            + 128; // map-node and Vec headers, generously rounded
        MAX_SERIES * per_series
    }

    /// Current point-storage footprint in bytes (ring capacities are
    /// pre-committed, so this moves only when a new series registers).
    #[cfg(test)]
    pub fn memory_bytes(&self) -> usize {
        self.series
            .iter()
            .map(|(name, s)| {
                name.len()
                    + s.rings
                        .iter()
                        .map(|r| r.cap * std::mem::size_of::<Point>() + std::mem::size_of::<Ring>())
                        .sum::<usize>()
                    + s.pending.len() * std::mem::size_of::<Pending>()
                    + 128
            })
            .sum()
    }

    /// Processes one tick at wall-clock `now_ms` against a registry
    /// snapshot (see [`registry::snapshot_all`]).  Split from
    /// [`tick_global`] so tests can drive deterministic clocks and
    /// synthetic snapshots.
    pub fn tick_with(&mut self, now_ms: u64, snapshot: &[(String, MetricSnapshot)]) {
        let dt_s = if self.last_tick_ms > 0 && now_ms > self.last_tick_ms {
            (now_ms - self.last_tick_ms) as f64 / 1e3
        } else {
            // First tick (or a clock step backwards): assume the base
            // period so rates stay finite.
            self.tiers.first().map_or(1.0, |t| t.step_ms as f64 / 1e3)
        };
        for (name, snap) in snapshot {
            match snap {
                MetricSnapshot::Counter(cur) => {
                    match self.prev.get_mut(name.as_str()) {
                        Some(Prev::Counter(prev)) => {
                            let rate = cur.saturating_sub(*prev) as f64 / dt_s;
                            *prev = *cur;
                            self.push(name, now_ms, rate, Agg::Mean);
                        }
                        Some(_) => {}
                        None => {
                            // First sighting: establish the baseline; a
                            // rate needs two observations.
                            if self.prev.len() < 4 * MAX_SERIES {
                                self.prev.insert(name.clone(), Prev::Counter(*cur));
                            }
                        }
                    }
                }
                MetricSnapshot::Gauge(v) => {
                    self.push(name, now_ms, *v as f64, Agg::Last);
                }
                MetricSnapshot::Histogram(h) => match self.prev.get_mut(name.as_str()) {
                    Some(Prev::Hist { count, buckets }) => {
                        let dcount = h.count.saturating_sub(*count);
                        let mut delta = [0u64; BUCKETS];
                        for i in 0..BUCKETS {
                            delta[i] = h.buckets[i].saturating_sub(buckets[i]);
                        }
                        *count = h.count;
                        *buckets = h.buckets;
                        let mut rate_name = String::with_capacity(name.len() + 5);
                        rate_name.push_str(name);
                        rate_name.push_str(".rate");
                        self.push(&rate_name, now_ms, dcount as f64 / dt_s, Agg::Mean);
                        if dcount > 0 {
                            let p50 = quantile_from_buckets(&delta, 0.50);
                            let p99 = quantile_from_buckets(&delta, 0.99);
                            let mut n50 = String::with_capacity(name.len() + 4);
                            n50.push_str(name);
                            n50.push_str(".p50");
                            let mut n99 = String::with_capacity(name.len() + 4);
                            n99.push_str(name);
                            n99.push_str(".p99");
                            self.push(&n50, now_ms, p50, Agg::Mean);
                            self.push(&n99, now_ms, p99, Agg::Max);
                        }
                    }
                    Some(_) => {}
                    None => {
                        if self.prev.len() < 4 * MAX_SERIES {
                            self.prev.insert(
                                name.clone(),
                                Prev::Hist {
                                    count: h.count,
                                    buckets: h.buckets,
                                },
                            );
                        }
                    }
                },
            }
        }
        self.end_tick(now_ms);
        self.last_tick_ms = now_ms;
        self.ticks += 1;
    }

    /// Records one derived sample into the base tier and the coarser-tier
    /// accumulators.
    fn push(&mut self, name: &str, t_ms: u64, v: f64, agg: Agg) {
        if !v.is_finite() {
            return;
        }
        // Truncate over-long names on a char boundary so the per-series
        // memory bound holds regardless of registry naming.
        let mut end = MAX_SERIES_NAME.min(name.len());
        while !name.is_char_boundary(end) {
            end -= 1;
        }
        let key = &name[..end];
        if !self.series.contains_key(key) {
            if self.series.len() >= MAX_SERIES {
                self.dropped_series += 1;
                return;
            }
            let n_tiers = self.tiers.len();
            self.series.insert(
                key.to_string(),
                Series {
                    agg,
                    rings: self.tiers.iter().map(|t| Ring::new(t.len)).collect(),
                    pending: vec![Pending::default(); n_tiers],
                },
            );
        }
        let Some(slot) = self.series.get_mut(key) else {
            return;
        };
        if let Some(r0) = slot.rings.first_mut() {
            r0.push(Point { t_ms, v });
        }
        for p in slot.pending.iter_mut().skip(1) {
            p.n += 1;
            p.sum += v;
            if p.n == 1 || v > p.max {
                p.max = v;
            }
            p.last = v;
            p.last_t_ms = t_ms;
        }
    }

    /// Advances coarse-tier accumulators by one base tick, flushing any
    /// tier whose interval completed.
    fn end_tick(&mut self, _now_ms: u64) {
        let base_step = self.tiers.first().map_or(1, |t| t.step_ms.max(1));
        let ratios: Vec<u32> = self
            .tiers
            .iter()
            .map(|t| (t.step_ms / base_step).max(1) as u32)
            .collect();
        for s in self.series.values_mut() {
            for (t, p) in s.pending.iter_mut().enumerate().skip(1) {
                p.ticks += 1;
                if p.ticks >= ratios[t.min(ratios.len() - 1)] {
                    if p.n > 0 {
                        let v = match s.agg {
                            Agg::Mean => p.sum / p.n as f64,
                            Agg::Max => p.max,
                            Agg::Last => p.last,
                        };
                        if let Some(ring) = s.rings.get_mut(t) {
                            ring.push(Point {
                                t_ms: p.last_t_ms,
                                v,
                            });
                        }
                    }
                    *p = Pending::default();
                }
            }
        }
    }

    /// Names of all retained series, sorted.
    #[cfg(test)]
    pub fn series_names(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// Last `max_points` points of `name` in `tier`, oldest first
    /// (`max_points == 0` → the tier's full retention).  Empty when the
    /// series or tier does not exist.
    pub fn window(&self, name: &str, tier: usize, max_points: usize) -> Vec<Point> {
        self.series
            .get(name)
            .and_then(|s| s.rings.get(tier))
            .map_or_else(Vec::new, |r| r.tail(max_points))
    }

    /// Maximum over the last `n` base-tier points of `name`, if any.
    pub fn recent_max(&self, name: &str, n: usize) -> Option<f64> {
        let w = self.window(name, 0, n);
        w.iter().map(|p| p.v).fold(None, |acc, v| {
            Some(match acc {
                Some(a) if a >= v => a,
                _ => v,
            })
        })
    }

    /// Mean over the last `n` base-tier points of `name`, if any.
    pub fn recent_mean(&self, name: &str, n: usize) -> Option<f64> {
        let w = self.window(name, 0, n);
        if w.is_empty() {
            return None;
        }
        Some(w.iter().map(|p| p.v).sum::<f64>() / w.len() as f64)
    }

    /// Copies the retained series of `tier_sel` (or all tiers when
    /// `None`) into an owned [`TieredDump`], at most `window` points per
    /// series (`0` → full retention).
    pub fn dump(&self, tier_sel: Option<usize>, window: usize) -> TieredDump {
        let mut tiers = Vec::new();
        for (t, spec) in self.tiers.iter().enumerate() {
            if let Some(sel) = tier_sel {
                if sel != t {
                    continue;
                }
            }
            let mut series = Vec::with_capacity(self.series.len());
            for (name, s) in &self.series {
                let points = s.rings.get(t).map_or_else(Vec::new, |r| r.tail(window));
                if !points.is_empty() {
                    series.push(SeriesDump {
                        name: name.clone(),
                        points,
                    });
                }
            }
            tiers.push(TierDump {
                tier: t as u8,
                step_ms: spec.step_ms,
                series,
            });
        }
        TieredDump {
            now_ms: self.last_tick_ms,
            tiers,
        }
    }

    /// Renders a [`TieredDump`] selection as JSON:
    /// `{"now_ms":..,"tiers":[{"tier":0,"step_ms":1000,"series":{"name":[[t_ms,v],..]}}]}`.
    pub fn export_json(&self, tier_sel: Option<usize>, window: usize) -> String {
        let dump = self.dump(tier_sel, window);
        let mut w = JsonWriter::new();
        w.begin_object().key("now_ms").int(dump.now_ms);
        w.key("tiers").begin_array();
        for tier in &dump.tiers {
            w.begin_object().key("tier").int(tier.tier);
            w.key("step_ms").int(tier.step_ms);
            w.key("series").begin_object();
            for s in &tier.series {
                w.key(&s.name).begin_array();
                for p in &s.points {
                    w.begin_array().int(p.t_ms).f64(p.v).end_array();
                }
                w.end_array();
            }
            w.end_object().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::new(&DEFAULT_TIERS)
    }
}

/// The process-wide sampler ([`DEFAULT_TIERS`]), shared by the telemetry
/// tick thread and the scrape handlers.
pub fn global() -> &'static Mutex<Sampler> {
    static GLOBAL: OnceLock<Mutex<Sampler>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Sampler::default()))
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is
/// before the epoch).
pub fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Snapshots the registry and advances the global sampler by one tick.
/// The registry lock and the sampler lock are taken in sequence, never
/// nested.
pub fn tick_global() {
    let snap = registry::snapshot_all();
    let now = wall_ms();
    let sampler = global();
    lock_recover(sampler).tick_with(now, &snap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::HistSnapshot;

    fn counter(name: &str, v: u64) -> (String, MetricSnapshot) {
        (name.to_string(), MetricSnapshot::Counter(v))
    }

    fn gauge(name: &str, v: i64) -> (String, MetricSnapshot) {
        (name.to_string(), MetricSnapshot::Gauge(v))
    }

    fn hist(name: &str, values: &[u64]) -> (String, MetricSnapshot) {
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        for &v in values {
            let v = v.max(1);
            buckets[(63 - v.leading_zeros()) as usize] += 1;
            sum += v;
        }
        (
            name.to_string(),
            MetricSnapshot::Histogram(HistSnapshot {
                count: values.len() as u64,
                sum,
                buckets,
            }),
        )
    }

    #[test]
    fn counter_becomes_rate_series() {
        let mut s = Sampler::new(&[TierSpec {
            step_ms: 1000,
            len: 8,
        }]);
        s.tick_with(1_000, &[counter("c", 100)]);
        // First sighting establishes a baseline, no point yet.
        assert!(s.window("c", 0, 0).is_empty());
        s.tick_with(2_000, &[counter("c", 150)]);
        let w = s.window("c", 0, 0);
        assert_eq!(w.len(), 1);
        assert!((w[0].v - 50.0).abs() < 1e-9, "{w:?}");
        assert_eq!(w[0].t_ms, 2_000);
        // Irregular interval: 2 s gap, +100 → 50/s.
        s.tick_with(4_000, &[counter("c", 250)]);
        let w = s.window("c", 0, 0);
        assert!((w[1].v - 50.0).abs() < 1e-9, "{w:?}");
    }

    #[test]
    fn gauge_is_sampled_directly() {
        let mut s = Sampler::new(&[TierSpec {
            step_ms: 1000,
            len: 4,
        }]);
        s.tick_with(1_000, &[gauge("g", 7)]);
        s.tick_with(2_000, &[gauge("g", -3)]);
        let w = s.window("g", 0, 0);
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].v, -3.0);
    }

    #[test]
    fn histogram_derives_interval_quantiles_and_rate() {
        let mut s = Sampler::new(&[TierSpec {
            step_ms: 1000,
            len: 8,
        }]);
        s.tick_with(1_000, &[hist("h", &[])]);
        // Interval adds 100 observations around 1000 and 4 around 1<<20.
        let mut vals: Vec<u64> = (0..100).map(|k| 1024 + k * 8).collect();
        vals.extend([1 << 20; 4]);
        s.tick_with(2_000, &[hist("h", &vals)]);
        let rate = s.window("h.rate", 0, 0);
        assert_eq!(rate.len(), 1);
        assert!((rate[0].v - 104.0).abs() < 1e-9, "{rate:?}");
        let p50 = s.window("h.p50", 0, 0);
        let p99 = s.window("h.p99", 0, 0);
        assert_eq!(p50.len(), 1);
        assert!(p50[0].v >= 1024.0 && p50[0].v < 2048.0, "{p50:?}");
        assert!(p99[0].v >= (1 << 20) as f64, "{p99:?}");
        // Quiet interval: rate 0, no quantile points emitted.
        s.tick_with(3_000, &[hist("h", &vals)]);
        assert_eq!(s.window("h.rate", 0, 0).len(), 2);
        assert_eq!(s.window("h.p50", 0, 0).len(), 1);
    }

    #[test]
    fn coarse_tiers_aggregate_on_tick_boundaries() {
        let tiers = [
            TierSpec {
                step_ms: 1000,
                len: 16,
            },
            TierSpec {
                step_ms: 4000,
                len: 4,
            },
        ];
        let mut mean = Sampler::new(&tiers);
        let mut mx = Sampler::new(&tiers);
        let mut last = Sampler::new(&tiers);
        for k in 0..8u64 {
            let t = 1_000 * (k + 1);
            // Mean: counter rate 0,10,20,... (needs a baseline tick).
            mean.tick_with(t, &[counter("c", 10 * k * t / 1000)]);
            mx.push("m", t, k as f64, Agg::Max);
            mx.end_tick(t);
            last.push("l", t, k as f64, Agg::Last);
            last.end_tick(t);
        }
        // Max: after 8 ticks two tier-1 points, max of each 4-tick window.
        let w = mx.window("m", 1, 0);
        assert_eq!(w.len(), 2, "{w:?}");
        assert_eq!(w[0].v, 3.0);
        assert_eq!(w[1].v, 7.0);
        // Last: the final sample of each window.
        let w = last.window("l", 1, 0);
        assert_eq!(
            w,
            vec![
                Point {
                    t_ms: 4_000,
                    v: 3.0
                },
                Point {
                    t_ms: 8_000,
                    v: 7.0
                }
            ]
        );
        // The counter series appears one tick late (baseline tick emits
        // nothing), so only one full 4-tick window completes: rates
        // 20, 40, 60, 80 → mean 50.
        let w = mean.window("c", 1, 0);
        assert_eq!(w.len(), 1, "{w:?}");
        assert!((w[0].v - 50.0).abs() < 1e-9, "{w:?}");
    }

    #[test]
    fn rings_wrap_and_memory_stays_bounded() {
        let tiers = [
            TierSpec {
                step_ms: 1000,
                len: 4,
            },
            TierSpec {
                step_ms: 2000,
                len: 3,
            },
        ];
        let mut s = Sampler::new(&tiers);
        for k in 0..100u64 {
            s.tick_with(1_000 * (k + 1), &[gauge("g", k as i64)]);
        }
        let w = s.window("g", 0, 0);
        assert_eq!(w.len(), 4, "ring capped at tier len");
        assert_eq!(w.last().map(|p| p.v), Some(99.0));
        assert_eq!(w.first().map(|p| p.v), Some(96.0), "oldest first: {w:?}");
        assert_eq!(s.window("g", 1, 0).len(), 3);
        assert!(s.memory_bytes() <= Sampler::memory_bound(&tiers));
    }

    #[test]
    fn series_cap_drops_and_counts() {
        let tiers = [TierSpec {
            step_ms: 1000,
            len: 2,
        }];
        let mut s = Sampler::new(&tiers);
        let snap: Vec<_> = (0..MAX_SERIES + 10)
            .map(|k| gauge(&format!("g.{k:04}"), k as i64))
            .collect();
        for tick in 0..3u64 {
            s.tick_with(1_000 * (tick + 1), &snap);
        }
        assert_eq!(s.series_names().len(), MAX_SERIES);
        // 10 refused registrations per tick.
        assert_eq!(s.dropped_series(), 30);
        assert!(s.memory_bytes() <= Sampler::memory_bound(&tiers));
    }

    #[test]
    fn default_layout_memory_bound_is_constant_and_small() {
        // The headline guarantee: the default sampler can never exceed
        // ~16 MiB of retained points no matter what the registry holds.
        let bound = Sampler::memory_bound(&DEFAULT_TIERS);
        assert!(bound <= 16 << 20, "bound {bound} exceeds 16 MiB");
        // Stress: more series than the cap, long runtimes.
        let mut s = Sampler::default();
        let snap: Vec<_> = (0..400)
            .map(|k| counter(&format!("stress.{k:03}"), k as u64))
            .collect();
        for tick in 0..50u64 {
            s.tick_with(1_000 * (tick + 1), &snap);
        }
        assert!(s.memory_bytes() <= bound);
    }

    #[test]
    fn window_respects_max_points_and_missing_series() {
        let mut s = Sampler::new(&[TierSpec {
            step_ms: 1000,
            len: 8,
        }]);
        for k in 0..6u64 {
            s.tick_with(1_000 * (k + 1), &[gauge("g", k as i64)]);
        }
        let w = s.window("g", 0, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].v, 5.0);
        assert!(s.window("nope", 0, 0).is_empty());
        assert!(s.window("g", 7, 0).is_empty(), "missing tier is empty");
        assert_eq!(s.recent_max("g", 3), Some(5.0));
        assert_eq!(s.recent_mean("g", 2), Some(4.5));
        assert_eq!(s.recent_max("nope", 3), None);
    }

    #[test]
    fn dump_and_json_have_expected_shape() {
        let mut s = Sampler::new(&[
            TierSpec {
                step_ms: 1000,
                len: 4,
            },
            TierSpec {
                step_ms: 2000,
                len: 4,
            },
        ]);
        for k in 0..4u64 {
            s.tick_with(1_000 * (k + 1), &[gauge("g", k as i64)]);
        }
        let d = s.dump(None, 0);
        assert_eq!(d.now_ms, 4_000);
        assert_eq!(d.tiers.len(), 2);
        assert_eq!(d.tiers[0].series.len(), 1);
        assert_eq!(d.tiers[0].series[0].name, "g");
        assert_eq!(d.tiers[0].series[0].points.len(), 4);
        let one = s.dump(Some(1), 0);
        assert_eq!(one.tiers.len(), 1);
        assert_eq!(one.tiers[0].tier, 1);
        let j = s.export_json(None, 0);
        assert!(j.contains("\"now_ms\":4000"), "{j}");
        assert!(j.contains("\"g\":[["), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn global_tick_populates_from_registry() {
        registry::counter("test.ts.global").add(5);
        tick_global();
        registry::counter("test.ts.global").add(5);
        tick_global();
        let s = lock_recover(global());
        assert!(s.ticks() >= 2);
        // The series exists (rate value depends on wall-clock spacing).
        assert!(!s.window("test.ts.global", 0, 0).is_empty());
    }
}

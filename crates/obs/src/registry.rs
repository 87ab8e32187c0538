//! Process-wide metrics registry.
//!
//! Metrics are registered once by name (`"serve.submitted"`) and then
//! updated through lock-free handles — [`counter`] / [`gauge`] /
//! [`histogram`] take a registry lock only on the first lookup of a name;
//! the returned handle is an `Arc`'d atomic the hot path bumps with
//! relaxed ordering.  Names use dot-separated segments; exposition
//! sanitises them per target format.
//!
//! Registry metrics are **process totals**: two servers in one process
//! share `"serve.submitted"`.  Components that need per-instance numbers
//! (the serve stats surface, whose tests construct many servers) keep an
//! instance-local handle and mirror into the registry via
//! [`ScopedCounter`].
//!
//! Exposition:
//! - [`export_prometheus`]: Prometheus text format (`errflow_` prefix,
//!   histograms as cumulative `_bucket{le=...}` series plus `_sum`/`_count`).
//! - [`export_json`]: one JSON object with `counters`, `gauges`, and
//!   `histograms` (count/sum/min/max/p50/p99), written through
//!   [`crate::json::JsonWriter`] so a name holding `"` or `\` is escaped.

use crate::hist::{Log2Histogram, BUCKETS};
use crate::json::JsonWriter;
use crate::lock_recover;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter handle.  Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not registered under any name) — useful for
    /// per-instance stats that are mirrored rather than registered.
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle (signed, set/add semantics).  Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A per-instance counter that mirrors every update into a named
/// process-wide registry counter.  [`ScopedCounter::get`] reads the
/// instance value (isolated from other instances); the registry name
/// accumulates the process total for exposition.
#[derive(Debug)]
pub struct ScopedCounter {
    local: Counter,
    global: Counter,
}

impl ScopedCounter {
    /// Creates a fresh instance counter mirroring into `global_name`.
    pub fn new(global_name: &str) -> Self {
        ScopedCounter {
            local: Counter::detached(),
            global: counter(global_name),
        }
    }

    /// Adds 1 to both the instance counter and the process total.
    #[inline]
    pub fn inc(&self) {
        self.local.inc();
        self.global.inc();
    }

    /// Adds `n` to both the instance counter and the process total.
    #[inline]
    pub fn add(&self, n: u64) {
        self.local.add(n);
        self.global.add(n);
    }

    /// The instance-local value (since this `ScopedCounter` was created).
    #[inline]
    pub fn get(&self) -> u64 {
        self.local.get()
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Log2Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Slot>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Slot>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Gets or registers the process-wide counter `name`.  If `name` is
/// already registered as a different metric kind, a detached handle is
/// returned instead (the existing metric keeps its kind; nothing panics
/// on a hot path).
pub fn counter(name: &str) -> Counter {
    let mut reg = lock_recover(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
    {
        Slot::Counter(cell) => Counter {
            cell: Arc::clone(cell),
        },
        _ => Counter::detached(),
    }
}

/// Gets or registers the process-wide gauge `name` (kind-mismatch policy
/// as in [`counter`]).
pub fn gauge(name: &str) -> Gauge {
    let mut reg = lock_recover(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))))
    {
        Slot::Gauge(cell) => Gauge {
            cell: Arc::clone(cell),
        },
        _ => Gauge::default(),
    }
}

/// Gets or registers the process-wide histogram `name` (kind-mismatch
/// policy as in [`counter`]).
pub fn histogram(name: &str) -> Arc<Log2Histogram> {
    let mut reg = lock_recover(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Slot::Histogram(Arc::new(Log2Histogram::new())))
    {
        Slot::Histogram(h) => Arc::clone(h),
        _ => Arc::new(Log2Histogram::new()),
    }
}

/// Point-in-time copy of one histogram's aggregates and bucket counts.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded observations.
    pub sum: u64,
    /// Per-bucket counts (bucket *i* covers `[2^i, 2^(i+1))`).
    pub buckets: [u64; BUCKETS],
}

/// Point-in-time copy of one registered metric's value.
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// A monotone counter's current total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's aggregates and bucket counts.
    Histogram(HistSnapshot),
}

/// Copies every registered metric into an owned, name-sorted vector.
/// This is the read surface the time-series sampler diffs against on
/// every tick — one registry lock per tick, no handles retained.
pub fn snapshot_all() -> Vec<(String, MetricSnapshot)> {
    let reg = lock_recover(registry());
    reg.iter()
        .map(|(name, slot)| {
            let snap = match slot {
                Slot::Counter(c) => MetricSnapshot::Counter(c.load(Ordering::Relaxed)),
                Slot::Gauge(g) => MetricSnapshot::Gauge(g.load(Ordering::Relaxed)),
                Slot::Histogram(h) => MetricSnapshot::Histogram(HistSnapshot {
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h.buckets(),
                }),
            };
            (name.clone(), snap)
        })
        .collect()
}

/// Sanitises a dotted metric name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("errflow_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders every registered metric in the Prometheus text exposition
/// format.  Histograms are rendered as cumulative `_bucket{le="..."}`
/// series over the log₂ grid plus `_sum` and `_count`.  Every metric
/// carries a `# HELP` / `# TYPE` pair (exposition-format conformance —
/// the help string echoes the registry's dotted source name).
pub fn export_prometheus() -> String {
    let reg = lock_recover(registry());
    let mut out = String::new();
    for (name, slot) in reg.iter() {
        let p = prom_name(name);
        out.push_str(&format!("# HELP {p} errflow metric {name}\n"));
        match slot {
            Slot::Counter(c) => {
                out.push_str(&format!("# TYPE {p} counter\n"));
                out.push_str(&format!("{p} {}\n", c.load(Ordering::Relaxed)));
            }
            Slot::Gauge(g) => {
                out.push_str(&format!("# TYPE {p} gauge\n"));
                out.push_str(&format!("{p} {}\n", g.load(Ordering::Relaxed)));
            }
            Slot::Histogram(h) => {
                out.push_str(&format!("# TYPE {p} histogram\n"));
                let buckets = h.buckets();
                let mut cum = 0u64;
                for (i, count) in buckets.iter().enumerate() {
                    cum += count;
                    if *count > 0 {
                        // Upper bound of bucket i is 2^(i+1) (exclusive);
                        // Prometheus `le` is inclusive, so report 2^(i+1)-1.
                        let le = if i >= 63 {
                            u64::MAX
                        } else {
                            (1u64 << (i + 1)) - 1
                        };
                        out.push_str(&format!("{p}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                }
                out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                out.push_str(&format!("{p}_sum {}\n", h.sum()));
                out.push_str(&format!("{p}_count {}\n", h.count()));
            }
        }
    }
    out
}

/// Renders every registered metric as one JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,max,p50,p99}}}`.
pub fn export_json() -> String {
    let reg = lock_recover(registry());
    let mut w = JsonWriter::new();
    w.begin_object().key("counters").begin_object();
    for (name, slot) in reg.iter() {
        if let Slot::Counter(c) = slot {
            w.key(name).int(c.load(Ordering::Relaxed));
        }
    }
    w.end_object().key("gauges").begin_object();
    for (name, slot) in reg.iter() {
        if let Slot::Gauge(g) = slot {
            w.key(name).int(g.load(Ordering::Relaxed));
        }
    }
    w.end_object().key("histograms").begin_object();
    for (name, slot) in reg.iter() {
        if let Slot::Histogram(h) = slot {
            let count = h.count();
            let (min, max) = if count == 0 {
                (0, 0)
            } else {
                (h.min(), h.max())
            };
            w.key(name).begin_object();
            w.key("count").int(count).key("sum").int(h.sum());
            w.key("min").int(min).key("max").int(max);
            w.key("p50").f64(h.quantile(0.50));
            w.key("p99").f64(h.quantile(0.99));
            w.end_object();
        }
    }
    w.end_object().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_sharing() {
        let a = counter("test.registry.counter_roundtrip");
        let b = counter("test.registry.counter_roundtrip");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "same name shares one cell");
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = gauge("test.registry.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(gauge("test.registry.gauge").get(), 7);
    }

    #[test]
    fn histogram_is_shared_by_name() {
        let h1 = histogram("test.registry.hist");
        let h2 = histogram("test.registry.hist");
        h1.record(100);
        assert_eq!(h2.count(), 1);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        counter("test.registry.kinded");
        let g = gauge("test.registry.kinded");
        g.set(99);
        // The counter keeps its identity; the mismatched gauge is detached.
        assert_eq!(counter("test.registry.kinded").get(), 0);
        assert_eq!(g.get(), 99);
    }

    #[test]
    fn scoped_counter_isolates_instances_and_mirrors_total() {
        let total = counter("test.registry.scoped.total");
        let a = ScopedCounter::new("test.registry.scoped.total");
        let b = ScopedCounter::new("test.registry.scoped.total");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 3, "instance A sees only its own bumps");
        assert_eq!(b.get(), 1);
        assert_eq!(total.get(), 4, "registry sees the process total");
    }

    #[test]
    fn prometheus_exposition_contains_registered_metrics() {
        counter("test.prom.requests").add(7);
        gauge("test.prom.depth").set(3);
        histogram("test.prom.latency").record(1500);
        let text = export_prometheus();
        assert!(text.contains("# TYPE errflow_test_prom_requests counter"));
        assert!(text.contains("errflow_test_prom_requests 7"));
        assert!(text.contains("errflow_test_prom_depth 3"));
        assert!(text.contains("# TYPE errflow_test_prom_latency histogram"));
        assert!(text.contains("errflow_test_prom_latency_count 1"));
        assert!(text.contains("errflow_test_prom_latency_bucket{le=\"+Inf\"} 1"));
        // 1500 lands in bucket 10 ([1024, 2048)), le = 2047.
        assert!(text.contains("errflow_test_prom_latency_bucket{le=\"2047\"} 1"));
    }

    #[test]
    fn prometheus_exposition_pairs_help_with_type() {
        counter("test.prom.helped").inc();
        let text = export_prometheus();
        assert!(text.contains("# HELP errflow_test_prom_helped errflow metric test.prom.helped"));
        // Every TYPE line has a HELP line and vice versa.
        let helps = text.matches("# HELP ").count();
        let types = text.matches("# TYPE ").count();
        assert_eq!(helps, types, "{text}");
    }

    #[test]
    fn snapshot_all_reflects_registered_values() {
        counter("test.snap.c").add(9);
        gauge("test.snap.g").set(-4);
        histogram("test.snap.h").record(1000);
        let snap = snapshot_all();
        let get = |n: &str| {
            snap.iter()
                .find(|(name, _)| name == n)
                .map(|(_, v)| v.clone())
        };
        match get("test.snap.c") {
            Some(MetricSnapshot::Counter(v)) => assert_eq!(v, 9),
            other => panic!("unexpected {other:?}"),
        }
        match get("test.snap.g") {
            Some(MetricSnapshot::Gauge(v)) => assert_eq!(v, -4),
            other => panic!("unexpected {other:?}"),
        }
        match get("test.snap.h") {
            Some(MetricSnapshot::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 1000);
                assert_eq!(h.buckets[9], 1, "1000 lands in [512, 1024)");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Name-sorted, as documented.
        let names: Vec<_> = snap.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn json_exposition_is_balanced_and_contains_metrics() {
        counter("test.json.c").inc();
        histogram("test.json.h").record(42);
        let j = export_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"test.json.c\":1"), "{j}");
        assert!(j.contains("\"test.json.h\":{\"count\":1"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_exposition_escapes_metric_names() {
        counter("test.json.\"quoted\\name").add(5);
        let j = export_json();
        assert!(j.contains("\"test.json.\\\"quoted\\\\name\":5"), "{j}");
        // Every quote that is not escaped opens or closes a string, so a
        // valid document holds an even number of them.
        let bare = j.replace("\\\\", "").replace("\\\"", "");
        assert_eq!(bare.matches('"').count() % 2, 0, "{j}");
    }
}

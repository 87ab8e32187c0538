//! # errflow-obs
//!
//! Dependency-free observability for the errflow workspace: the answer to
//! *"where inside a request does time (and error budget) go?"*.
//!
//! The paper's pipeline is a chain of stages — decompress → plan →
//! quantized forward → bound certification — and every performance PR
//! needs to attribute its effect to one of them.  This crate provides the
//! three attribution primitives, built on `std` alone:
//!
//! 1. **Metrics registry** ([`registry`]): named process-wide counters,
//!    gauges, and log₂-bucket histograms with lock-free hot-path handles
//!    (registration takes a lock once; increments are relaxed atomics —
//!    hot paths hold a handle, they never look a name up per event).
//!    Exposition as Prometheus text or JSON.
//! 2. **Histograms** ([`hist`]): the fixed-size log₂-bucket
//!    [`Log2Histogram`] (generalized from the serve layer's latency
//!    histogram) and the latency-flavoured [`LatencyHistogram`] wrapper,
//!    both mergeable across workers.
//! 3. **Span tracing** ([`trace`]): scoped [`trace::span`] guards writing
//!    into per-thread ring buffers, exportable as chrome://tracing
//!    trace-event JSON.  The `obs-off` cargo feature compiles every
//!    recording path to a no-op (guards become zero-sized), and a runtime
//!    [`trace::set_enabled`] toggle supports A/B overhead measurement in a
//!    single binary.
//! 4. **Tiered time series** ([`timeseries`]): fixed-memory ring-buffer
//!    retention of registry-derived rate/quantile points at 1 s / 10 s /
//!    60 s resolution, filled by a caller-driven sampler tick (this crate
//!    spawns no threads — the serve layer's telemetry thread drives
//!    [`timeseries::tick_global`]).
//! 5. **SLO engine** ([`slo`]): declarative latency/ratio/rate
//!    objectives evaluated against the time-series plane into
//!    ok/warn/breach states with hysteresis.
//! 6. **Exposition conformance** ([`promcheck`]): a small validator for
//!    the Prometheus text format CI runs against live scrapes.
//! 7. **JSON emission** ([`json`]): the nestable, escaping
//!    [`json::JsonWriter`] behind every JSON line the workspace prints —
//!    the three `export_json`s here, `serve-bench`'s summary and the
//!    figure tables in `errflow-bench`.
//!
//! This crate sits at the bottom of the workspace dependency graph —
//! `tensor`, `compress`, `pipeline`, and `serve` all record into it — so
//! it must not depend on any other errflow crate.

pub mod hist;
pub mod json;
pub mod promcheck;
pub mod registry;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use hist::{quantile_from_buckets, LatencyHistogram, LatencySummary, Log2Histogram};
pub use registry::{
    counter, export_json, export_prometheus, gauge, histogram, snapshot_all, Counter, Gauge,
    HistSnapshot, MetricSnapshot, ScopedCounter,
};
pub use slo::{Objective, SloEngine, SloKind, SloState, SloStatus};
pub use timeseries::{Point, Sampler, SeriesDump, TierDump, TierSpec, TieredDump, DEFAULT_TIERS};
pub use trace::{span, Span, TraceEvent};

use std::sync::{Mutex, MutexGuard};

/// Poison-recovering lock: a panicked holder leaves these structures in a
/// consistent state (counters and ring buffers have no multi-step
/// invariants), so observers keep working instead of cascading the panic.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Scoped span guard: `span_guard!("name")` is shorthand for binding
/// [`trace::span`] to a local that records on scope exit.
///
/// ```
/// let _s = errflow_obs::span!("example.stage");
/// // ... work attributed to "example.stage" ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

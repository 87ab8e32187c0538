//! Span tracing into per-thread ring buffers.
//!
//! [`span`] returns a scoped guard; when it drops, a [`TraceEvent`] —
//! name, start, duration, thread id — is appended to the recording
//! thread's fixed-capacity ring buffer (oldest events are overwritten, so
//! steady-state tracing costs no allocation and never blocks on another
//! thread: the only lock taken is the recording thread's own ring, which
//! an exporter contends on only while snapshotting).  Cross-thread
//! intervals that cannot live in one scope (e.g. queue wait, measured
//! from enqueue on the client thread to dequeue on the worker) are
//! recorded explicitly with [`record_span`].
//!
//! [`export_chrome_trace`] renders every thread's buffered events as
//! chrome://tracing / Perfetto trace-event JSON (`ph:"X"` complete
//! events, microsecond timestamps).
//!
//! Two off-switches:
//! - **Runtime**: [`set_enabled`]`(false)` makes [`span`] return an inert
//!   guard (one relaxed atomic load on the hot path).  This is what the
//!   serve overhead-guard test uses to A/B tracing cost in one binary.
//! - **Compile time**: the `obs-off` cargo feature replaces [`span`],
//!   [`record_span`], and the exporters with empty inlined stubs and
//!   makes [`Span`] a zero-sized type, so instrumented hot paths compile
//!   to exactly the uninstrumented code.

#[cfg(not(feature = "obs-off"))]
use crate::lock_recover;
#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(not(feature = "obs-off"))]
use std::sync::{Arc, Mutex, OnceLock};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// One completed span: `[start_ns, start_ns + dur_ns)` on thread `tid`,
/// timestamps in nanoseconds since the process trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static span name (`"serve.forward"`, `"gemm"`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (≥ 1).
    pub dur_ns: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
}

/// Events retained per thread.  At ~20 events per served request this
/// keeps the most recent few hundred requests per worker; older events
/// are overwritten (ring semantics), never reallocated.
pub const RING_CAPACITY: usize = 8192;

#[cfg(not(feature = "obs-off"))]
mod imp {
    use super::*;

    pub(super) struct RingInner {
        pub events: Vec<TraceEvent>,
        /// Next write position once `events` reaches capacity.
        pub next: usize,
        /// Total events ever recorded (≥ `events.len()`).
        pub total: u64,
    }

    pub(super) struct Ring {
        pub tid: u64,
        pub inner: Mutex<RingInner>,
    }

    impl Ring {
        pub fn push(&self, ev: TraceEvent) {
            let mut g = lock_recover(&self.inner);
            g.total += 1;
            if g.events.len() < RING_CAPACITY {
                g.events.push(ev);
            } else {
                let at = g.next;
                g.events[at] = ev;
                g.next = (at + 1) % RING_CAPACITY;
            }
        }
    }

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(true);
    pub(super) static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    pub(super) static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

    pub(super) fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    thread_local! {
        pub(super) static LOCAL: std::cell::OnceCell<Arc<Ring>> =
            const { std::cell::OnceCell::new() };
    }

    pub(super) fn with_local_ring(f: impl FnOnce(&Ring)) {
        LOCAL.with(|cell| {
            let ring = cell.get_or_init(|| {
                let ring = Arc::new(Ring {
                    tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    inner: Mutex::new(RingInner {
                        events: Vec::new(),
                        next: 0,
                        total: 0,
                    }),
                });
                lock_recover(&RINGS).push(Arc::clone(&ring));
                ring
            });
            f(ring);
        });
    }
}

// ---------------------------------------------------------------------------
// Recording API (live implementation)
// ---------------------------------------------------------------------------

/// Nanoseconds since the process trace epoch (first observability use).
/// Pairs with [`record_span`] for intervals measured across threads.
#[cfg(not(feature = "obs-off"))]
pub fn now_ns() -> u64 {
    imp::epoch().elapsed().as_nanos() as u64
}

/// Runtime tracing toggle (default on).  Disabling makes [`span`] return
/// an inert guard; already-buffered events are retained.
#[cfg(not(feature = "obs-off"))]
pub fn set_enabled(on: bool) {
    imp::ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
#[cfg(not(feature = "obs-off"))]
pub fn enabled() -> bool {
    imp::ENABLED.load(Ordering::Relaxed)
}

/// A scoped span guard: records a [`TraceEvent`] from construction to
/// drop.  `start_ns == u64::MAX` marks an inert guard (tracing disabled).
#[cfg(not(feature = "obs-off"))]
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
}

#[cfg(not(feature = "obs-off"))]
impl Drop for Span {
    fn drop(&mut self) {
        if self.start_ns != u64::MAX {
            let end = now_ns();
            record_span(self.name, self.start_ns, end);
        }
    }
}

/// Opens a span named `name`; the returned guard records on drop.
#[cfg(not(feature = "obs-off"))]
#[inline]
pub fn span(name: &'static str) -> Span {
    let start_ns = if enabled() { now_ns() } else { u64::MAX };
    Span { name, start_ns }
}

/// Records an already-measured interval (for spans whose start and end
/// live on different threads, e.g. queue wait).  `end_ns ≤ start_ns`
/// records a 1 ns event at `start_ns`.
#[cfg(not(feature = "obs-off"))]
pub fn record_span(name: &'static str, start_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    imp::with_local_ring(|ring| {
        ring.push(TraceEvent {
            name,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns).max(1),
            tid: ring.tid,
        })
    });
}

/// Snapshot of every thread's buffered events, sorted by start time.
#[cfg(not(feature = "obs-off"))]
pub fn snapshot() -> Vec<TraceEvent> {
    let rings: Vec<_> = lock_recover(&imp::RINGS).iter().cloned().collect();
    let mut out = Vec::new();
    for ring in rings {
        out.extend(lock_recover(&ring.inner).events.iter().copied());
    }
    out.sort_by_key(|e| e.start_ns);
    out
}

// audit:allow(dead-pub) the seam the span tests count recorded events
// through.
/// Total events ever recorded (including ones overwritten in the rings).
#[cfg(not(feature = "obs-off"))]
pub fn recorded_total() -> u64 {
    lock_recover(&imp::RINGS)
        .iter()
        .map(|r| lock_recover(&r.inner).total)
        .sum()
}

/// Clears every ring buffer (counters in [`recorded_total`] reset too).
/// Exports after a `clear` contain only events recorded since.
#[cfg(not(feature = "obs-off"))]
pub fn clear() {
    for ring in lock_recover(&imp::RINGS).iter() {
        let mut g = lock_recover(&ring.inner);
        g.events.clear();
        g.next = 0;
        g.total = 0;
    }
}

/// Renders buffered events as chrome://tracing trace-event JSON
/// (loadable in chrome://tracing or https://ui.perfetto.dev).
#[cfg(not(feature = "obs-off"))]
pub fn export_chrome_trace() -> String {
    let events = snapshot();
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Timestamps and durations are microseconds (f64) per the
        // trace-event spec; names are static identifiers, no escaping
        // needed.
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"errflow\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            e.name,
            e.tid,
            e.start_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
        ));
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// obs-off: every recording path compiles to nothing
// ---------------------------------------------------------------------------

/// Zero-sized inert span guard (`obs-off` build).
#[cfg(feature = "obs-off")]
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct Span;

/// No-op (`obs-off` build): returns a zero-sized guard.
#[cfg(feature = "obs-off")]
#[inline(always)]
pub fn span(_name: &'static str) -> Span {
    Span
}

/// No-op (`obs-off` build): always 0.
#[cfg(feature = "obs-off")]
#[inline(always)]
pub fn now_ns() -> u64 {
    0
}

/// No-op (`obs-off` build).
#[cfg(feature = "obs-off")]
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// Always `false` in an `obs-off` build.
#[cfg(feature = "obs-off")]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

/// No-op (`obs-off` build).
#[cfg(feature = "obs-off")]
#[inline(always)]
pub fn record_span(_name: &'static str, _start_ns: u64, _end_ns: u64) {}

/// Always empty in an `obs-off` build.
#[cfg(feature = "obs-off")]
pub fn snapshot() -> Vec<TraceEvent> {
    Vec::new()
}

// audit:allow(dead-pub) the seam `tests/obs_off.rs` proves an `obs-off`
// build records nothing through.
/// Always 0 in an `obs-off` build.
#[cfg(feature = "obs-off")]
pub fn recorded_total() -> u64 {
    0
}

/// No-op (`obs-off` build).
#[cfg(feature = "obs-off")]
pub fn clear() {}

/// An empty trace in an `obs-off` build.
#[cfg(feature = "obs-off")]
pub fn export_chrome_trace() -> String {
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".to_string()
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    /// Tracing state (the enabled toggle, the ring totals) is process
    /// global; tests that flip or count it must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_recover(&LOCK)
    }

    #[test]
    fn span_records_one_event() {
        let _serial = serial();
        set_enabled(true);
        let before = recorded_total();
        {
            let _s = span("test.trace.one");
            std::hint::black_box(1 + 1);
        }
        assert_eq!(recorded_total(), before + 1);
        let evs = snapshot();
        let ev = evs
            .iter()
            .find(|e| e.name == "test.trace.one")
            .copied()
            .unwrap_or(TraceEvent {
                name: "",
                start_ns: 0,
                dur_ns: 0,
                tid: 0,
            });
        assert_eq!(ev.name, "test.trace.one");
        assert!(ev.dur_ns >= 1);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _serial = serial();
        set_enabled(false);
        let before = recorded_total();
        {
            let _s = span("test.trace.disabled");
        }
        record_span("test.trace.disabled", 1, 2);
        set_enabled(true);
        assert_eq!(recorded_total(), before);
        assert!(snapshot().iter().all(|e| e.name != "test.trace.disabled"));
    }

    #[test]
    fn record_span_clamps_inverted_interval() {
        let _serial = serial();
        set_enabled(true);
        record_span("test.trace.inverted", 100, 50);
        let evs = snapshot();
        let ev = evs.iter().find(|e| e.name == "test.trace.inverted");
        assert!(matches!(ev, Some(e) if e.dur_ns == 1 && e.start_ns == 100));
    }

    #[test]
    fn ring_overwrites_beyond_capacity() {
        let _serial = serial();
        set_enabled(true);
        for _ in 0..RING_CAPACITY + 10 {
            record_span("test.trace.flood", 1, 2);
        }
        let mine: usize = snapshot()
            .iter()
            .filter(|e| e.name == "test.trace.flood")
            .count();
        assert!(mine <= RING_CAPACITY);
        assert!(mine >= RING_CAPACITY / 2, "flood events mostly retained");
    }

    #[test]
    fn chrome_export_is_loadable_json_shape() {
        let _serial = serial();
        set_enabled(true);
        {
            let _s = span("test.trace.export");
        }
        let j = export_chrome_trace();
        assert!(j.starts_with("{\"displayTimeUnit\""), "{j}");
        assert!(j.ends_with("]}"), "{j}");
        assert!(j.contains("\"traceEvents\":["));
        assert!(j.contains("\"name\":\"test.trace.export\""));
        assert!(j.contains("\"ph\":\"X\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}

//! Declarative service-level objectives over the telemetry plane.
//!
//! An [`Objective`] names a signal (a retained time series or a pair of
//! registry counters) and a threshold; the [`SloEngine`] evaluates all
//! objectives on each telemetry tick into [`SloState`]s with
//! **hysteresis**: the published state only changes after
//! [`Objective::hysteresis`] consecutive ticks agree on the new raw
//! verdict, so a single noisy sample cannot flap a badge.  Between `Ok`
//! and `Breach` sits `Warn`, entered when the signal crosses
//! `warn_ratio` × threshold (on the breaching side).
//!
//! Objective kinds map onto the serve path's three canonical health
//! questions:
//! - [`SloKind::P99Ceiling`] — "is stage latency under its ceiling?"
//!   (reads the `<series>.p99` tier-0 window's max),
//! - [`SloKind::RatioBudget`] — "are rejections inside budget?"
//!   (cumulative `num / (num + den)` from two registry counters, e.g.
//!   `serve.rejected` vs `serve.submitted`; breach when *above* budget),
//! - [`SloKind::RateFloor`] — "is decode throughput above its floor?"
//!   (reads a rate series' recent mean, e.g. decoded bytes/s).
//!
//! No data is vacuously `Ok`: a budget on a ratio whose denominator is
//! zero, or a ceiling on a series with no points, reports `Ok` rather
//! than `Breach` — an idle server is healthy, not failing.
//!
//! The engine holds no locks of its own beyond its global registration
//! ([`global`]); evaluation reads a [`Sampler`] the caller already
//! locked, and cumulative counters via lock-free handles.

use crate::json::JsonWriter;
use crate::lock_recover;
use crate::registry;
use crate::timeseries::Sampler;
use std::sync::{Mutex, OnceLock};

/// What an objective measures and the threshold it is judged against.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Max of the last `window` tier-0 points of `series` must stay
    /// `< ceiling`.
    P99Ceiling {
        /// Retained series name (typically `<hist>.p99`, in the
        /// histogram's native unit).
        series: String,
        /// Exclusive upper bound in the series' unit.
        ceiling: f64,
        /// How many recent base-tier points to consider.
        window: usize,
    },
    /// Cumulative `num / (num + den)` must stay `<= budget`.
    RatioBudget {
        /// Registry counter of budget-consuming events (e.g. rejections).
        num: String,
        /// Registry counter of the complementary events (e.g. accepted).
        den: String,
        /// Inclusive upper bound on the event ratio.
        budget: f64,
    },
    /// Mean of the last `window` tier-0 points of `series` must stay
    /// `>= floor`.
    RateFloor {
        /// Retained series name (typically a counter's rate series).
        series: String,
        /// Inclusive lower bound in the series' unit per second.
        floor: f64,
        /// How many recent base-tier points to consider.
        window: usize,
    },
}

/// One declarative objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Stable identifier shown on dashboards and the health frame.
    pub name: String,
    /// Signal and threshold.
    pub kind: SloKind,
    /// Fraction of the threshold at which `Warn` begins (e.g. `0.8`
    /// warns a ceiling at 80% of it, a floor at 1/0.8 = 125% … of the
    /// margin side). Clamped to `(0, 1]`.
    pub warn_ratio: f64,
    /// Consecutive ticks a *changed* raw verdict must persist before the
    /// published state moves (≥ 1).
    pub hysteresis: u32,
}

impl Objective {
    /// Convenience constructor with the default warn ratio (0.8) and
    /// hysteresis (3 ticks).
    pub fn new(name: &str, kind: SloKind) -> Self {
        Objective {
            name: name.to_string(),
            kind,
            warn_ratio: 0.8,
            hysteresis: 3,
        }
    }
}

/// Published health state of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    /// Signal comfortably inside the objective.
    Ok,
    /// Signal inside the objective but past the warn fraction.
    Warn,
    /// Objective violated.
    Breach,
}

impl SloState {
    /// Wire encoding (0 = ok, 1 = warn, 2 = breach).
    pub fn code(self) -> u8 {
        match self {
            SloState::Ok => 0,
            SloState::Warn => 1,
            SloState::Breach => 2,
        }
    }

    /// Inverse of [`SloState::code`]; unknown codes read as `Breach`
    /// (fail loud on protocol skew).
    pub fn from_code(c: u8) -> SloState {
        match c {
            0 => SloState::Ok,
            1 => SloState::Warn,
            _ => SloState::Breach,
        }
    }
}

/// Evaluated status of one objective, as published to dashboards and the
/// EFNP health frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Objective name.
    pub name: String,
    /// Hysteresis-filtered state.
    pub state: SloState,
    /// Last measured signal value (0 when no data).
    pub value: f64,
    /// The objective's threshold, for display.
    pub threshold: f64,
}

#[derive(Debug)]
struct Tracked {
    obj: Objective,
    published: SloState,
    candidate: SloState,
    streak: u32,
    last_value: f64,
}

/// Evaluates a set of [`Objective`]s against the telemetry plane (module
/// docs describe semantics and hysteresis).
#[derive(Debug, Default)]
pub struct SloEngine {
    tracked: Vec<Tracked>,
}

impl SloEngine {
    /// Creates an engine tracking `objectives`.
    pub fn new(objectives: Vec<Objective>) -> Self {
        SloEngine {
            tracked: objectives
                .into_iter()
                .map(|obj| Tracked {
                    obj,
                    published: SloState::Ok,
                    candidate: SloState::Ok,
                    streak: 0,
                    last_value: 0.0,
                })
                .collect(),
        }
    }

    /// Replaces the tracked objectives (resets all hysteresis state).
    pub fn install(&mut self, objectives: Vec<Objective>) {
        *self = SloEngine::new(objectives);
    }

    /// Number of tracked objectives.
    pub fn len(&self) -> usize {
        self.tracked.len()
    }

    /// Whether no objectives are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked.is_empty()
    }

    /// Evaluates every objective against `sampler` (already locked by
    /// the caller) and cumulative registry counters, advancing hysteresis
    /// by one tick.
    pub fn evaluate(&mut self, sampler: &Sampler) {
        for t in &mut self.tracked {
            let (raw, value) = raw_verdict(&t.obj, sampler);
            t.last_value = value;
            if raw == t.published {
                // Signal agrees with what we publish: cancel any pending
                // transition.
                t.candidate = raw;
                t.streak = 0;
                continue;
            }
            if raw == t.candidate {
                t.streak += 1;
            } else {
                t.candidate = raw;
                t.streak = 1;
            }
            if t.streak >= t.obj.hysteresis.max(1) {
                t.published = raw;
                t.streak = 0;
            }
        }
    }

    /// Current hysteresis-filtered statuses, in objective order.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.tracked
            .iter()
            .map(|t| SloStatus {
                name: t.obj.name.clone(),
                state: t.published,
                value: t.last_value,
                threshold: threshold_of(&t.obj.kind),
            })
            .collect()
    }

    /// Renders statuses as a JSON array:
    /// `[{"name":..,"state":"ok|warn|breach","value":..,"threshold":..}]`.
    pub fn export_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_array();
        for s in self.statuses() {
            let state = match s.state {
                SloState::Ok => "ok",
                SloState::Warn => "warn",
                SloState::Breach => "breach",
            };
            w.begin_object().key("name").str(&s.name);
            w.key("state").str(state);
            w.key("value").f64(s.value);
            w.key("threshold").f64(s.threshold).end_object();
        }
        w.end_array();
        w.finish()
    }
}

fn threshold_of(kind: &SloKind) -> f64 {
    match kind {
        SloKind::P99Ceiling { ceiling, .. } => *ceiling,
        SloKind::RatioBudget { budget, .. } => *budget,
        SloKind::RateFloor { floor, .. } => *floor,
    }
}

/// Measures one objective's signal and classifies it (no hysteresis).
fn raw_verdict(obj: &Objective, sampler: &Sampler) -> (SloState, f64) {
    let warn = obj.warn_ratio.clamp(1e-6, 1.0);
    match &obj.kind {
        SloKind::P99Ceiling {
            series,
            ceiling,
            window,
        } => match sampler.recent_max(series, (*window).max(1)) {
            None => (SloState::Ok, 0.0),
            Some(v) => {
                let state = if v >= *ceiling {
                    SloState::Breach
                } else if v >= ceiling * warn {
                    SloState::Warn
                } else {
                    SloState::Ok
                };
                (state, v)
            }
        },
        SloKind::RatioBudget { num, den, budget } => {
            let n = registry::counter(num).get() as f64;
            let d = registry::counter(den).get() as f64;
            if n + d == 0.0 {
                return (SloState::Ok, 0.0);
            }
            let ratio = n / (n + d);
            let state = if ratio > *budget {
                SloState::Breach
            } else if ratio > budget * warn {
                SloState::Warn
            } else {
                SloState::Ok
            };
            (state, ratio)
        }
        SloKind::RateFloor {
            series,
            floor,
            window,
        } => match sampler.recent_mean(series, (*window).max(1)) {
            None => (SloState::Ok, 0.0),
            Some(v) => {
                let state = if v < *floor {
                    SloState::Breach
                } else if v < floor / warn {
                    SloState::Warn
                } else {
                    SloState::Ok
                };
                (state, v)
            }
        },
    }
}

/// The process-wide SLO engine the telemetry tick evaluates and the
/// health frame reads.  Starts empty; the serve layer installs its
/// default objectives when telemetry starts.
pub fn global() -> &'static Mutex<SloEngine> {
    static GLOBAL: OnceLock<Mutex<SloEngine>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(SloEngine::default()))
}

/// Convenience: snapshot the global engine's statuses.
pub fn global_statuses() -> Vec<SloStatus> {
    let engine = global();
    lock_recover(engine).statuses()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricSnapshot;
    use crate::timeseries::TierSpec;

    fn sampler_gauge(series: &str, values: &[i64]) -> Sampler {
        let mut s = Sampler::new(&[TierSpec {
            step_ms: 1000,
            len: 64,
        }]);
        for (k, &v) in values.iter().enumerate() {
            s.tick_with(
                1_000 * (k as u64 + 1),
                &[(series.to_string(), MetricSnapshot::Gauge(v))],
            );
        }
        s
    }

    #[test]
    fn empty_series_is_vacuously_ok() {
        let s = Sampler::default();
        let mut e = SloEngine::new(vec![Objective::new(
            "lat",
            SloKind::P99Ceiling {
                series: "missing.p99".into(),
                ceiling: 100.0,
                window: 10,
            },
        )]);
        e.evaluate(&s);
        assert_eq!(e.statuses()[0].state, SloState::Ok);
    }

    #[test]
    fn ceiling_breach_requires_hysteresis_streak() {
        let mut obj = Objective::new(
            "lat",
            SloKind::P99Ceiling {
                series: "g".into(),
                ceiling: 100.0,
                window: 1,
            },
        );
        obj.hysteresis = 3;
        let mut e = SloEngine::new(vec![obj]);
        // Two breaching ticks: still published Ok.
        let s = sampler_gauge("g", &[500]);
        e.evaluate(&s);
        e.evaluate(&s);
        assert_eq!(e.statuses()[0].state, SloState::Ok, "needs 3 ticks");
        // Third consecutive breach flips the published state.
        e.evaluate(&s);
        assert_eq!(e.statuses()[0].state, SloState::Breach);
        // Recovery also needs a streak: one healthy tick is not enough.
        let healthy = sampler_gauge("g", &[10]);
        e.evaluate(&healthy);
        assert_eq!(e.statuses()[0].state, SloState::Breach);
        e.evaluate(&healthy);
        e.evaluate(&healthy);
        assert_eq!(e.statuses()[0].state, SloState::Ok);
    }

    #[test]
    fn flapping_signal_does_not_flip_state() {
        let mut obj = Objective::new(
            "lat",
            SloKind::P99Ceiling {
                series: "g".into(),
                ceiling: 100.0,
                window: 1,
            },
        );
        obj.hysteresis = 2;
        let mut e = SloEngine::new(vec![obj]);
        let bad = sampler_gauge("g", &[500]);
        let good = sampler_gauge("g", &[10]);
        for _ in 0..5 {
            e.evaluate(&bad);
            e.evaluate(&good);
        }
        assert_eq!(
            e.statuses()[0].state,
            SloState::Ok,
            "alternating verdicts never accumulate a streak"
        );
    }

    #[test]
    fn warn_band_sits_below_ceiling() {
        let mut obj = Objective::new(
            "lat",
            SloKind::P99Ceiling {
                series: "g".into(),
                ceiling: 100.0,
                window: 1,
            },
        );
        obj.warn_ratio = 0.8;
        obj.hysteresis = 1;
        let mut e = SloEngine::new(vec![obj]);
        e.evaluate(&sampler_gauge("g", &[85]));
        assert_eq!(e.statuses()[0].state, SloState::Warn);
        let v = e.statuses()[0].value;
        assert!((v - 85.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn ratio_budget_reads_registry_counters() {
        registry::counter("test.slo.rej").add(10);
        registry::counter("test.slo.acc").add(90);
        let mut budget = Objective::new(
            "rej",
            SloKind::RatioBudget {
                num: "test.slo.rej".into(),
                den: "test.slo.acc".into(),
                budget: 0.05,
            },
        );
        budget.hysteresis = 1;
        // Both counters at zero: an idle server is healthy.
        let mut idle = budget.clone();
        idle.kind = SloKind::RatioBudget {
            num: "test.slo.none.a".into(),
            den: "test.slo.none.b".into(),
            budget: 0.05,
        };
        let mut e = SloEngine::new(vec![budget, idle]);
        e.evaluate(&Sampler::default());
        let st = e.statuses();
        assert_eq!(st[0].state, SloState::Breach, "10% rejections > 5%");
        assert!((st[0].value - 0.10).abs() < 1e-9);
        assert_eq!(st[1].state, SloState::Ok, "idle is healthy");
    }

    #[test]
    fn rate_floor_uses_recent_mean() {
        let mut obj = Objective::new(
            "decode",
            SloKind::RateFloor {
                series: "g".into(),
                floor: 100.0,
                window: 4,
            },
        );
        obj.hysteresis = 1;
        let mut e = SloEngine::new(vec![obj]);
        e.evaluate(&sampler_gauge("g", &[50, 60, 70]));
        assert_eq!(e.statuses()[0].state, SloState::Breach);
        e.install(vec![{
            let mut o = Objective::new(
                "decode",
                SloKind::RateFloor {
                    series: "g".into(),
                    floor: 100.0,
                    window: 4,
                },
            );
            o.hysteresis = 1;
            o
        }]);
        e.evaluate(&sampler_gauge("g", &[500, 600, 700]));
        assert_eq!(e.statuses()[0].state, SloState::Ok);
    }

    #[test]
    fn export_json_is_balanced() {
        let mut obj = Objective::new(
            "lat \"p99\"",
            SloKind::P99Ceiling {
                series: "g".into(),
                ceiling: 100.0,
                window: 1,
            },
        );
        obj.hysteresis = 1;
        let mut e = SloEngine::new(vec![obj]);
        e.evaluate(&sampler_gauge("g", &[42]));
        let j = e.export_json();
        assert!(j.contains("\"name\":\"lat \\\"p99\\\"\""), "{j}");
        assert!(j.contains("\"state\":\"ok\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn state_codes_roundtrip() {
        for s in [SloState::Ok, SloState::Warn, SloState::Breach] {
            assert_eq!(SloState::from_code(s.code()), s);
        }
        assert_eq!(SloState::from_code(200), SloState::Breach);
    }
}

//! The serve-side telemetry pump: the thread that keeps the live
//! observability plane of [`errflow_obs`] ticking.
//!
//! `errflow-obs` sits at the bottom of the workspace dependency graph and
//! spawns no threads; its tiered time-series sampler
//! ([`errflow_obs::timeseries`]) and SLO engine ([`errflow_obs::slo`])
//! are caller-driven.  This module provides that caller: a dedicated,
//! pool-accounted thread (via [`errflow_tensor::pool`], the workspace's
//! only thread-spawn site) that once per interval
//!
//! 1. reads a [`StatsSnapshot`] from the server and publishes the few
//!    signals that are *not* already mirrored registry metrics — queue
//!    depth and payload-decode throughput — as gauges,
//! 2. advances the global sampler ([`errflow_obs::timeseries::tick_global`]),
//!    diffing every registry counter/gauge/histogram into tiered
//!    rate/quantile points, and
//! 3. evaluates the installed SLO objectives against the fresh points.
//!
//! Because the registry is process-wide and cumulative, retained history
//! survives across loadgen runs and server rebuilds — the sampler sees
//! monotone counters regardless of which server instance produced them.
//!
//! Lock discipline: step 2 takes the registry lock and the sampler lock
//! *sequentially* (never nested); step 3 is the only site that holds two
//! obs locks at once, always in the order SLO engine → sampler.  No obs
//! lock is ever taken while holding a serve lock.

use crate::stats::StatsSnapshot;
use errflow_obs::slo::{Objective, SloKind};
use errflow_tensor::sync::lock_recover;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the telemetry pump runs.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampling interval; 1 s matches the base retention tier of
    /// [`errflow_obs::timeseries::DEFAULT_TIERS`].
    pub interval: Duration,
    /// Objectives installed into the global SLO engine at startup.  An
    /// empty vector leaves whatever is already installed untouched.
    pub objectives: Vec<Objective>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: Duration::from_secs(1),
            objectives: default_objectives(),
        }
    }
}

/// The default serve SLO set: four objectives, none over the served
/// `rel_bound` (≤ tolerance by construction, see [`crate::stats`]).  Every
/// objective is *vacuously healthy* on an idle server: latency ceilings and
/// the decode floor only see data once traffic produces it, and the ratio
/// objective passes with an empty denominator.
pub fn default_objectives() -> Vec<Objective> {
    vec![
        // The batched forward pass is the stage a regressing kernel shows
        // up in first; p99 of the per-batch distribution must stay under
        // 50 ms.
        Objective::new(
            "forward_p99",
            SloKind::P99Ceiling {
                series: "serve.stage.forward_ns.p99".to_string(),
                ceiling: 50e6,
                window: 30,
            },
        ),
        // Payload decompression p99 under 20 ms per job.
        Objective::new(
            "decompress_p99",
            SloKind::P99Ceiling {
                series: "serve.stage.decompress_ns.p99".to_string(),
                ceiling: 20e6,
                window: 30,
            },
        ),
        // Admission control may shed at most 5% of offered load.
        Objective::new(
            "rejection_budget",
            SloKind::RatioBudget {
                num: "serve.rejected".to_string(),
                den: "serve.submitted".to_string(),
                budget: 0.05,
            },
        ),
        // Decode throughput floor: 50 MB/s of decompressed output, on the
        // `serve.decomp_mbps` gauge the pump publishes once payloads flow.
        Objective::new(
            "decode_mbps",
            SloKind::RateFloor {
                series: "serve.decomp_mbps".to_string(),
                floor: 50.0,
                window: 30,
            },
        ),
    ]
}

/// Shared stop signal: a mutex-guarded flag with a condvar so the pump
/// thread sleeps interruptibly and shutdown never waits a full interval.
#[derive(Debug, Default)]
struct StopCell {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// Handle to a running telemetry pump.  Dropping it stops the thread and
/// joins it; the retained time series and SLO states live in process-wide
/// structures and survive the pump itself.
#[derive(Debug)]
pub struct Telemetry {
    stop: Arc<StopCell>,
    handle: Option<JoinHandle<()>>,
}

impl Telemetry {
    /// Signals the pump to stop and joins it.  Idempotent.
    pub fn stop(&mut self) {
        *lock_recover(&self.stop.stopped) = true;
        self.stop.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts the telemetry pump on a dedicated pool thread.  `stats` is
/// called once per interval to read the live snapshot — pass
/// [`crate::Server::stats_source`] for a real server, or any closure in
/// tests.
pub fn start_telemetry<F>(stats: F, cfg: TelemetryConfig) -> Telemetry
where
    F: Fn() -> StatsSnapshot + Send + 'static,
{
    if !cfg.objectives.is_empty() {
        let engine = errflow_obs::slo::global();
        lock_recover(engine).install(cfg.objectives.clone());
    }
    let stop = Arc::new(StopCell::default());
    let thread_stop = Arc::clone(&stop);
    let interval = cfg.interval;
    let handle = errflow_tensor::pool::global().spawn_dedicated("errflow-telemetry", move || {
        loop {
            telemetry_tick(&stats());
            // Interruptible sleep: wake immediately on stop().
            let mut stopped = lock_recover(&thread_stop.stopped);
            while !*stopped {
                let (g, timed_out) = match thread_stop.cv.wait_timeout(stopped, interval) {
                    Ok((g, t)) => (g, t.timed_out()),
                    Err(poisoned) => {
                        let (g, t) = poisoned.into_inner();
                        (g, t.timed_out())
                    }
                };
                stopped = g;
                if timed_out {
                    break;
                }
            }
            if *stopped {
                return;
            }
        }
    });
    Telemetry {
        stop,
        handle: Some(handle),
    }
}

/// One pump iteration: publish snapshot-only gauges, advance the sampler,
/// evaluate SLOs.  Public within the crate so tests and the CLI can drive
/// a deterministic tick without a thread.
pub fn telemetry_tick(snap: &StatsSnapshot) {
    publish_gauges(snap);
    errflow_obs::timeseries::tick_global();
    // The only double-lock site in the obs plane: SLO engine first, then
    // the sampler it reads.  (`build_metrics_response` in errflow-net
    // takes these one at a time.)
    let engine_mutex = errflow_obs::slo::global();
    let sampler_mutex = errflow_obs::timeseries::global();
    let mut engine = lock_recover(engine_mutex);
    let sampler = lock_recover(sampler_mutex);
    engine.evaluate(&sampler);
}

/// Publishes the snapshot signals that have no mirrored registry metric.
fn publish_gauges(snap: &StatsSnapshot) {
    errflow_obs::gauge("serve.queue_depth").set(snap.queue_depth as i64);
    // Decode throughput in MB/s of decompressed output (integer gauge —
    // GB/s would truncate to 0 for realistic rates).  Published only once
    // payloads have flowed so an idle server's decode-floor SLO stays
    // vacuously healthy instead of breaching on 0.
    if snap.decomp_ns > 0 {
        let mbps = snap.decomp_gbps() * 1e3;
        errflow_obs::gauge("serve.decomp_mbps").set(mbps as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_obs::slo::SloState;
    use errflow_obs::timeseries::TierSpec;
    use errflow_obs::Sampler;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn snap_with(queue_depth: usize, decomp_ns: u64, bytes_out: u64) -> StatsSnapshot {
        StatsSnapshot {
            queue_depth,
            decomp_ns,
            decomp_bytes_out: bytes_out,
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn gauges_publish_from_snapshot() {
        publish_gauges(&snap_with(7, 1_000_000, 200_000_000));
        assert_eq!(errflow_obs::gauge("serve.queue_depth").get(), 7);
        // 200 MB in 1 ms = 200 GB/s = 200_000 MB/s.
        assert_eq!(errflow_obs::gauge("serve.decomp_mbps").get(), 200_000);
    }

    #[test]
    fn idle_server_publishes_no_decode_rate() {
        // Distinct gauge universe: set a sentinel, then publish an idle
        // snapshot and check the decode gauge was left alone.
        errflow_obs::gauge("serve.decomp_mbps").set(-1);
        publish_gauges(&snap_with(0, 0, 0));
        assert_eq!(errflow_obs::gauge("serve.decomp_mbps").get(), -1);
    }

    #[test]
    fn default_objectives_are_vacuously_ok_when_idle() {
        let sampler = Sampler::new(&[TierSpec {
            step_ms: 1000,
            len: 16,
        }]);
        let mut engine = errflow_obs::SloEngine::new(default_objectives());
        engine.evaluate(&sampler);
        for s in engine.statuses() {
            // The ratio objective reads real process-wide counters, which
            // other tests in this process may have bumped — only the
            // series-backed objectives are guaranteed data-free here.
            if s.name != "rejection_budget" {
                assert_eq!(s.state, SloState::Ok, "{s:?}");
            }
        }
        assert_eq!(engine.len(), 4);
    }

    #[test]
    fn pump_thread_ticks_and_stops() {
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let mut t = start_telemetry(
            move || {
                c.fetch_add(1, Ordering::Relaxed);
                snap_with(1, 0, 0)
            },
            TelemetryConfig {
                interval: Duration::from_millis(5),
                // Don't clobber the global engine from a unit test.
                objectives: Vec::new(),
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while calls.load(Ordering::Relaxed) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(calls.load(Ordering::Relaxed) >= 2, "pump never ticked");
        t.stop();
        let after = calls.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(calls.load(Ordering::Relaxed), after, "pump kept running");
        t.stop(); // idempotent
    }
}

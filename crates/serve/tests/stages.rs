//! Per-stage telemetry integration tests: stage attribution must be
//! conservative (each request's stage sum ≤ its end-to-end latency), the
//! breakdown must actually populate, and bound certification must count
//! every completed response.
//!
//! The scratch-pool counters are process-wide, so tests that assert on
//! their deltas serialise on a file-local mutex.

use errflow_nn::{Activation, Mlp};
use errflow_serve::{Request, ServeConfig, Server};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    match GATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn tiny_model() -> Mlp {
    Mlp::new(&[4, 8, 2], Activation::Tanh, Activation::Identity, 3, None)
}

fn calibration(n: usize) -> Vec<Vec<f32>> {
    let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(17);
    (0..n)
        .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn payload(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

#[test]
fn stage_sum_is_bounded_by_end_to_end_latency() {
    let _g = serial();
    let server = Server::new(
        tiny_model(),
        calibration(8),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    for i in 0..20u64 {
        let resp = server
            .process(Request::new(payload(100 + i, 8), 1e-2))
            .expect("request must complete");
        let stages = resp.stages;
        let e2e_ns = resp.latency.as_nanos() as u64;
        assert!(
            stages.sum_ns() <= e2e_ns,
            "stage sum {} ns exceeds end-to-end {} ns ({stages:?})",
            stages.sum_ns(),
            e2e_ns,
        );
        // The payload roundtrip and the forward pass always take
        // measurable time on this model.
        assert!(stages.decompress_ns > 0, "{stages:?}");
        assert!(stages.forward_ns > 0, "{stages:?}");
    }
}

#[test]
fn breakdown_populates_and_bounds_are_certified() {
    let _g = serial();
    let server = Server::new(
        tiny_model(),
        calibration(8),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let n_requests = 12u64;
    for i in 0..n_requests {
        server
            .process(Request::new(payload(200 + i, 8), 1e-2))
            .expect("request must complete");
    }
    let snap = server.stats();
    assert_eq!(snap.completed, n_requests);
    // Per-job stages record one observation per completed request.
    assert_eq!(snap.stages.batch_wait.count, n_requests, "{snap:?}");
    assert_eq!(snap.stages.decompress.count, n_requests, "{snap:?}");
    assert_eq!(snap.stages.respond.count, n_requests, "{snap:?}");
    // Batch-level stages record one observation per batch.
    assert_eq!(snap.stages.plan.count, snap.batches, "{snap:?}");
    assert_eq!(snap.stages.forward.count, snap.batches, "{snap:?}");
    assert!(snap.stages.decompress.mean_us > 0.0, "{snap:?}");
    assert!(snap.stages.forward.mean_us > 0.0, "{snap:?}");
    // Every completed response recorded how much of its tolerance the
    // predicted bound consumed — never more than all of it.
    assert_eq!(snap.bound_margin.count, n_requests, "{snap:?}");
    assert!(snap.bound_margin.max <= 1.0, "{snap:?}");
}

#[test]
fn scratch_pool_counters_are_per_server_deltas() {
    let _g = serial();
    let a = Server::new(
        tiny_model(),
        calibration(8),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    for i in 0..6u64 {
        a.process(Request::new(payload(300 + i, 8), 1e-2))
            .expect("request must complete");
    }
    let snap_a = a.stats();
    assert!(
        snap_a.scratch_hits + snap_a.scratch_misses > 0,
        "server A's decodes must show up in its own delta: {snap_a:?}"
    );
    // A server built *after* A's traffic must not inherit it.
    let b = Server::new(
        tiny_model(),
        calibration(8),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let snap_b = b.stats();
    assert_eq!(
        (snap_b.scratch_hits, snap_b.scratch_misses),
        (0, 0),
        "fresh server must start from a zero scratch delta: {snap_b:?}"
    );
}

//! The load driver end-to-end over its in-process `Client`: a miniature
//! `serve-bench` run must see no failed reply and keep the plan cache hot
//! under a single-tolerance workload.

use errflow_nn::{Activation, Mlp};
use errflow_serve::{report_json, run_loadgen, LoadgenConfig, ServeConfig, Server};
use errflow_tensor::norms::Norm;
use errflow_tensor::rng::StdRng;

#[test]
fn single_tolerance_load_is_cache_hot_and_certified() {
    let model = Mlp::new(&[5, 16, 3], Activation::Tanh, Activation::Identity, 2, None);
    let mut rng = StdRng::seed_from_u64(3);
    let calibration: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..5).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let server = Server::new(
        model,
        calibration,
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let cfg = LoadgenConfig {
        clients: 3,
        requests_per_client: 25,
        samples_per_request: 8,
        tolerances: vec![1e-2],
        norm: Norm::L2,
        seed: 11,
        ..LoadgenConfig::default()
    };
    let load = run_loadgen(server.input_dim(), &cfg, || Ok(&server));
    assert_eq!(load.requests, 75);
    assert_eq!(load.failed, 0, "{:?}", load.first_failure);
    assert!(load.max_rel_bound > 0.0 && load.max_rel_bound <= 1e-2);
    assert!(load.throughput_rps() > 0.0);
    // Every reply was timed at the client, and the ticket hand-off it
    // measures on top of the server's own latency is a finite median.
    assert_eq!(load.rtt.count, 75);
    assert!(load.overhead_p50_us.is_finite());
    let snap = server.stats();
    assert_eq!(snap.completed, 75);
    // One tolerance → one planning miss; everything else hits.
    assert_eq!(snap.cache_misses, 1);
    assert!(snap.cache_hit_rate() > 0.9, "{}", snap.cache_hit_rate());
    assert!(snap.latency.count >= 75);
    assert!(snap.latency.p50_us > 0.0);
    // Every request's payload went through the compression roundtrip, so
    // decompression throughput must have been recorded.
    assert!(snap.decomp_bytes_in > 0);
    assert!(snap.decomp_bytes_out > 0);
    assert!(snap.decomp_gbps() > 0.0);
    // The JSON surface reflects the run.
    let j = report_json(&load, &snap);
    assert!(j.contains("\"requests\":75,\"failed\":0,"), "{j}");
    assert!(j.contains("\"server\":{\"completed\":75,"), "{j}");
    assert!(j.contains("\"decomp\":{"), "{j}");
}

#[test]
fn mixed_tolerances_churn_the_cache_but_stay_sound() {
    let model = Mlp::new(&[5, 16, 3], Activation::Tanh, Activation::Identity, 2, None);
    let mut rng = StdRng::seed_from_u64(4);
    let calibration: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..5).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let server = Server::new(
        model,
        calibration,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let cfg = LoadgenConfig {
        clients: 2,
        requests_per_client: 12,
        samples_per_request: 8,
        // Three distinct buckets → exactly three planning misses.
        tolerances: vec![1e-1, 1e-2, 1e-3],
        norm: Norm::L2,
        seed: 12,
        ..LoadgenConfig::default()
    };
    let load = run_loadgen(server.input_dim(), &cfg, || Ok(&server));
    assert_eq!(load.failed, 0, "{:?}", load.first_failure);
    let snap = server.stats();
    assert_eq!(snap.cache_misses, 3);
    assert!(snap.cache_hits >= 1);
}

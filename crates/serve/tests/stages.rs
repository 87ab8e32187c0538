//! Per-stage telemetry integration tests: stage attribution must be
//! conservative (each request's stage sum ≤ its end-to-end latency), the
//! breakdown must actually populate, and bound certification must count
//! every completed response.
//!
//! The scratch-pool counters are process-wide, so tests that assert on
//! their deltas serialise on a file-local mutex; so do the ones that time
//! a stage or park a worker.

use errflow_compress::{scratch, ChunkedCompressor, Compressor, SzCompressor};
use errflow_nn::{Activation, Mlp};
use errflow_pipeline::planner::{flatten, input_bound, PayloadLayout};
use errflow_pipeline::{Planner, PlannerConfig};
use errflow_serve::{bucket_tolerance, Request, Response, ServeConfig, Server};
use errflow_tensor::norms::Norm;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

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

/// A model wide enough that a few samples make a 4 KiB payload.
fn wide_model() -> Mlp {
    Mlp::new(
        &[256, 32, 4],
        Activation::Tanh,
        Activation::Identity,
        5,
        None,
    )
}

fn wide_payload(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..256).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

fn median(ns: &mut [u64]) -> u64 {
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// A smooth 256-feature field, `n` samples of a few low-frequency modes
/// plus a 1e-4 noise floor: the serving benchmark's `codec_sz` regime.
fn smooth_payload(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|s| {
            (0..256)
                .map(|f| {
                    let (row, col) = (s as f32 / n as f32, f as f32 / 256.0);
                    let tau = std::f32::consts::TAU;
                    0.43 * (tau * (0.8 * col + 0.5 * row)).sin()
                        + 0.22 * (tau * (1.7 * col + 0.9 * row) + 1.0).sin()
                        + rng.gen_range(-1e-4f32..1e-4)
                })
                .collect()
        })
        .collect()
}

/// Median decompress-stage time of `rounds` one-request batches of
/// `samples` on a one-worker server, and median time of the same stream
/// decoded alone through the same compressor and the plan's bound.
fn decode_stage_and_standalone(
    model: &Mlp,
    calibration: &[Vec<f32>],
    samples: &[Vec<f32>],
    tolerance: f64,
    rounds: usize,
) -> (u64, u64) {
    let server = Server::new(
        model.clone(),
        calibration.to_vec(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut served: Vec<u64> = (0..rounds)
        .map(|_| {
            let req = Request {
                samples: samples.to_vec(),
                rel_tolerance: tolerance,
                norm: Norm::L2,
                layout: PayloadLayout::SampleMajor,
            };
            let resp = server.process(req).expect("request must complete");
            resp.stages.decompress_ns
        })
        .collect();

    // The same stream the worker decodes: its compressor, its plan's bound.
    let compressor = ChunkedCompressor::new(SzCompressor::default());
    let plan = Planner::new(model, calibration).plan(&PlannerConfig {
        rel_tolerance: bucket_tolerance(tolerance).1,
        norm: Norm::L2,
        quant_share: ServeConfig::default().quant_share,
    });
    let flat = flatten(samples, PayloadLayout::SampleMajor);
    let stream = compressor
        .compress(&flat, &input_bound(&plan, &compressor, flat.len()))
        .expect("compress");
    let mut out = vec![0.0f32; flat.len()];
    let mut alone: Vec<u64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            let units = compressor.decode_units(&stream, out.len()).expect("units");
            let mut scratch = scratch::acquire();
            for u in &units {
                compressor
                    .decode_unit_into(u, &mut out[u.offset..u.offset + u.len], &mut scratch)
                    .expect("decode");
            }
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    std::hint::black_box(&out);
    (median(&mut served), median(&mut alone))
}

// An optimized build only: unoptimized, the codec is slow enough that the
// stage read under 2x with the probe in it, so the ratio would gate
// nothing (CI runs it in its own release step).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a timing ratio; only meaningful with --release"
)]
fn small_payload_decode_reconciles_with_standalone() {
    // The decompress stage of a one-unit batch is the codec's decode and
    // nothing else worth naming: when the fan-out was re-derived per batch
    // (an env lookup and a cgroup file read, ≈ 14 µs) a 4 KiB payload's
    // stage read 13x the same decode standing alone.
    let _g = serial();
    let (served, alone) = decode_stage_and_standalone(
        &wide_model(),
        &wide_payload(17, 8),
        &wide_payload(400, 4),
        1e-2,
        300,
    );
    assert!(
        served <= 3 * alone,
        "decompress stage median {served} ns is over 3x the standalone decode's {alone} ns"
    );
}

// Release only, like its 4 KiB sibling above.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a timing ratio; only meaningful with --release"
)]
fn large_payload_decode_reconciles_with_standalone() {
    // A 256 x 256 payload (`codec_sz`'s shape, one 64 Ki-value decode
    // unit): the stage is the fused SZ decode into the batch's rows, so it
    // must read within 2x of the same stream decoded alone.  Traced
    // `codec_sz` runs had put `serve.decode_gbps` at 0.81 against
    // `compress.decode_gbps` at 1.03.
    let _g = serial();
    let (served, alone) = decode_stage_and_standalone(
        &wide_model(),
        &smooth_payload(17, 8),
        &smooth_payload(400, 256),
        1e-3,
        100,
    );
    eprintln!(
        "large payload: stage {served} ns, standalone {alone} ns, ratio {:.2}",
        served as f64 / alone as f64
    );
    assert!(
        served <= 2 * alone,
        "decompress stage median {served} ns is over 2x the standalone decode's {alone} ns"
    );
}

/// Serves `requests` as one batch per plan key on the server's single
/// worker: the worker is parked in a completion hook while they queue up.
fn serve_as_one_batch(server: &Server<Mlp>, requests: Vec<Request>) -> Vec<Response> {
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    server
        .try_submit_with(Request::new(wide_payload(1, 1), 1e-1), 0, move |_| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
        })
        .expect("park the worker");
    entered_rx.recv().expect("worker parked");
    let tickets: Vec<_> = requests
        .into_iter()
        .map(|r| server.try_submit(r).expect("queue has room"))
        .collect();
    drop(release_tx);
    tickets
        .into_iter()
        .map(|t| t.wait().expect("request must complete"))
        .collect()
}

#[test]
fn decode_fanout_1_and_2_serve_identical_outputs() {
    // A fan-out of 1 decodes the batch's units inline on the worker; a
    // fan-out of 2 shares them with a pool thread.  Same bytes either way.
    // (On a one-core host both servers clamp to 1 and this compares the
    // inline loop with itself.)
    let _g = serial();
    let serve = |decode_threads: usize| {
        let server = Server::new(
            wide_model(),
            wide_payload(17, 8),
            ServeConfig {
                workers: 1,
                decode_threads,
                ..ServeConfig::default()
            },
        );
        // 300 samples are 76 800 values: two chunk units in one payload.
        let requests = [PayloadLayout::SampleMajor, PayloadLayout::FeatureMajor]
            .into_iter()
            .flat_map(|layout| {
                [1usize, 3, 300, 7]
                    .into_iter()
                    .enumerate()
                    .map(move |(i, n)| Request {
                        samples: wide_payload(500 + i as u64, n),
                        rel_tolerance: 1e-2,
                        norm: Norm::L2,
                        layout,
                    })
            })
            .collect();
        serve_as_one_batch(&server, requests)
    };
    let (one, two) = (serve(1), serve(2));
    assert_eq!(one.len(), 8);
    for (a, b) in one.iter().zip(&two) {
        assert_eq!(a.batch_size, 4, "the four same-key requests share a batch");
        assert_eq!(a.batch_size, b.batch_size);
        assert_eq!(a.rel_bound.to_bits(), b.rel_bound.to_bits());
        assert_eq!(a.outputs.len(), b.outputs.len());
        for (ra, rb) in a.outputs.iter().zip(&b.outputs) {
            let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ra), bits(rb));
        }
    }
}

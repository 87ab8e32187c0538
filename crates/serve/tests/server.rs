//! End-to-end serving tests: concurrent submission against the bounded
//! queue, plan-cache behaviour, and admission-control backpressure.

use errflow_compress::chunked::ChunkedCompressor;
use errflow_compress::{Compressor, SzCompressor};
use errflow_core::quantize_model;
use errflow_nn::{Activation, Mlp, Model};
use errflow_pipeline::planner::{flatten, unflatten, PayloadLayout};
use errflow_pipeline::{Planner, PlannerConfig};
use errflow_quant::QuantFormat;
use errflow_scidata::task::TrainingMode;
use errflow_scidata::{SyntheticTask, TaskKind};
use errflow_serve::{BackendKind, Request, ServeConfig, ServeError, Server};
use errflow_tensor::norms::Norm;
use errflow_tensor::rng::StdRng;
use std::sync::{mpsc, Barrier};

fn model() -> Mlp {
    Mlp::new(
        &[6, 24, 24, 4],
        Activation::Tanh,
        Activation::Identity,
        11,
        None,
    )
}

/// Smooth random-walk samples (compressible, like the planner tests use).
fn samples(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vec<f32>> {
    let mut cur: Vec<f32> = (0..d).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    (0..n)
        .map(|_| {
            for v in &mut cur {
                *v = (*v + rng.gen_range(-0.02f32..0.02)).clamp(-1.0, 1.0);
            }
            cur.clone()
        })
        .collect()
}

fn calibration(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    samples(&mut rng, 32, 6)
}

/// Many submitters race a small queue; every request must come back with
/// the right shape and a certified bound within its tolerance.
#[test]
fn concurrency_smoke_all_results_returned_and_certified() {
    let server = Server::new(
        model(),
        calibration(1),
        ServeConfig {
            workers: 3,
            queue_capacity: 8,
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let submitters = 6;
    let per = 20;
    let tol = 1e-2;
    std::thread::scope(|scope| {
        for s in 0..submitters {
            let server = &server;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + s);
                for _ in 0..per {
                    let payload = samples(&mut rng, 16, 6);
                    let mut req = Request::new(payload, tol);
                    req.norm = Norm::L2;
                    // Blocking submit: backpressure stalls the caller
                    // instead of dropping work.
                    let resp = server.submit(req).unwrap().wait().unwrap();
                    assert_eq!(resp.outputs.len(), 16);
                    assert!(resp.outputs.iter().all(|y| y.len() == 4));
                    assert!(
                        resp.rel_bound <= tol,
                        "bound {} > tolerance {tol}",
                        resp.rel_bound
                    );
                    assert!(resp.batch_size >= 1);
                }
            });
        }
    });
    let snap = server.stats();
    assert_eq!(snap.completed, (submitters * per) as u64);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.queue_depth, 0);
    // Same tolerance everywhere → exactly one planning miss.
    assert_eq!(snap.cache_misses, 1);
    assert!(snap.latency.count == snap.completed);
}

/// The second identical request must be a plan-cache hit and carry the
/// identical plan (same format, same certified bound).
#[test]
fn second_identical_request_hits_the_plan_cache() {
    let server = Server::new(
        model(),
        calibration(2),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let payload = samples(&mut rng, 8, 6);
    let first = server.process(Request::new(payload.clone(), 3e-3)).unwrap();
    let second = server.process(Request::new(payload, 3e-3)).unwrap();
    assert!(!first.cache_hit);
    assert!(second.cache_hit);
    assert_eq!(first.format, second.format);
    assert_eq!(first.rel_bound, second.rel_bound);
    assert_eq!(first.plan_tolerance, second.plan_tolerance);
    let snap = server.stats();
    assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));

    // A different tolerance bucket, norm, or layout is a different plan.
    let mut rng = StdRng::seed_from_u64(6);
    let other = server
        .process(Request::new(samples(&mut rng, 8, 6), 3e-1))
        .unwrap();
    assert!(!other.cache_hit);
    assert_eq!(server.stats().cache_misses, 2);
}

/// A tolerance in quarter-decade bucket `e` (floor `10^(e/4)`).  For
/// `model()` under L2 at the default share, buckets ≤ -7 plan to `Fp32`,
/// -6…-2 to `Fp16` and ≥ -1 to `Int8`.
fn tolerance_in_bucket(e: i32) -> f64 {
    1.05 * 10f64.powf(e as f64 / 4.0)
}

fn l2_sample_major(samples: Vec<Vec<f32>>, rel_tolerance: f64) -> Request {
    Request {
        samples,
        rel_tolerance,
        norm: Norm::L2,
        layout: PayloadLayout::SampleMajor,
    }
}

/// Eight live buckets on one cache slot: every request misses and plans
/// again, yet the quantized + packed weights are a function of the format
/// alone, so the server builds three sets, not sixteen — and what it serves
/// from the shared set is bit-for-bit what `quantize_model` gives on the
/// same reconstructed inputs.
#[test]
fn every_plan_of_a_format_serves_from_one_shared_weight_build() {
    let m = model();
    let cal = calibration(5);
    let server = Server::new(
        m.clone(),
        cal.clone(),
        ServeConfig {
            workers: 1,
            cache_capacity: 1,
            ..ServeConfig::default()
        },
    );
    let planner = Planner::new(&m, &cal);
    let codec = ChunkedCompressor::new(SzCompressor::default());
    let mut rng = StdRng::seed_from_u64(12);
    let mut formats = Vec::new();
    for round in 0..2 {
        for e in -8..0 {
            let tol = tolerance_in_bucket(e);
            let payload = samples(&mut rng, 8, 6);
            let resp = server
                .process(l2_sample_major(payload.clone(), tol))
                .unwrap();
            assert!(!resp.cache_hit, "bucket {e} survived seven other plans");
            assert!(resp.rel_bound <= tol, "bucket {e}: {}", resp.rel_bound);

            let plan = planner.plan(&PlannerConfig {
                rel_tolerance: resp.plan_tolerance,
                norm: Norm::L2,
                quant_share: 0.5,
            });
            assert_eq!(plan.format, resp.format);
            let flat = flatten(&payload, PayloadLayout::SampleMajor);
            let bound = planner.compressor_bound(&plan, &codec, flat.len());
            let recon = codec
                .decompress(&codec.compress(&flat, &bound).unwrap(), flat.len())
                .unwrap();
            let expected = quantize_model(&m, resp.format).forward_batch(&unflatten(
                &recon,
                8,
                6,
                PayloadLayout::SampleMajor,
            ));
            let bits = |ys: &[Vec<f32>]| -> Vec<u32> {
                ys.iter().flatten().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&resp.outputs), bits(&expected), "bucket {e}");
            if round == 0 {
                formats.push(resp.format);
            }
        }
    }
    formats.dedup();
    assert_eq!(
        formats,
        [QuantFormat::Fp32, QuantFormat::Fp16, QuantFormat::Int8]
    );
    let snap = server.stats();
    assert_eq!((snap.cache_hits, snap.cache_misses), (0, 16));
    assert_eq!(snap.weight_builds, 3, "one per distinct format");
    assert_eq!(snap.failed, 0);
}

/// Eight submitters released together onto four workers, walking the five
/// `Fp16` buckets over two cache slots: the cold format's weights are
/// built by whichever worker plans first and by nobody else.
#[test]
fn cold_format_hammered_from_many_threads_is_built_once() {
    let server = Server::new(
        model(),
        calibration(6),
        ServeConfig {
            workers: 4,
            cache_capacity: 2,
            ..ServeConfig::default()
        },
    );
    let submitters = 8;
    let start = Barrier::new(submitters);
    std::thread::scope(|scope| {
        for s in 0..submitters {
            let (server, start) = (&server, &start);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + s as u64);
                start.wait();
                for i in 0..10 {
                    let tol = tolerance_in_bucket(-6 + ((s + i) % 5) as i32);
                    let resp = server
                        .process(l2_sample_major(samples(&mut rng, 4, 6), tol))
                        .unwrap();
                    assert_eq!(resp.format, QuantFormat::Fp16);
                    assert!(resp.rel_bound <= tol);
                }
            });
        }
    });
    let snap = server.stats();
    assert_eq!(snap.completed, 80);
    assert!(snap.cache_misses >= 5, "five buckets, two slots");
    assert_eq!(snap.weight_builds, 1);
}

/// Parks one worker inside a request's completion hook (bucket -1, which
/// no other request here uses) until the returned sender is dropped.
fn hold_a_worker(server: &Server<Mlp>) -> mpsc::Sender<()> {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let req = l2_sample_major(vec![vec![0.0; 6]], tolerance_in_bucket(-1));
    server
        .try_submit_with(req, 0, move |_| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
        })
        .unwrap();
    entered_rx.recv().unwrap();
    release_tx
}

/// Both workers are busy while eight same-plan requests queue up; whichever
/// worker frees first takes all eight in one batched pass, because they sit
/// in one queue and not in one deque per worker.
#[test]
fn requests_queued_behind_two_busy_workers_share_one_forward_pass() {
    let server = Server::new(
        model(),
        calibration(7),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    // The second hold is only admitted once the first has a worker parked,
    // so the two cannot coalesce onto one worker.
    let holds = [hold_a_worker(&server), hold_a_worker(&server)];
    let mut rng = StdRng::seed_from_u64(13);
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            let req = l2_sample_major(samples(&mut rng, 4, 6), tolerance_in_bucket(-6));
            server.try_submit(req).unwrap()
        })
        .collect();
    assert_eq!(server.stats().queue_depth, 8);
    drop(holds);
    for t in tickets {
        assert_eq!(t.wait().unwrap().batch_size, 8);
    }
}

/// With workers stalled (none running), the queue fills to capacity and
/// `try_submit` reports `QueueFull` — the admission-control contract.
#[test]
fn backpressure_rejects_at_capacity_with_workers_stalled() {
    let capacity = 3;
    let mut server = Server::new(
        model(),
        calibration(3),
        ServeConfig {
            workers: 0, // permanently stalled pool
            queue_capacity: capacity,
            ..ServeConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(7);
    let mut tickets = Vec::new();
    for _ in 0..capacity {
        tickets.push(
            server
                .try_submit(Request::new(samples(&mut rng, 4, 6), 1e-2))
                .unwrap(),
        );
    }
    for _ in 0..2 {
        let err = server
            .try_submit(Request::new(samples(&mut rng, 4, 6), 1e-2))
            .unwrap_err();
        assert_eq!(err, ServeError::QueueFull);
    }
    let snap = server.stats();
    assert_eq!(snap.submitted, capacity as u64);
    assert_eq!(snap.rejected, 2);
    assert_eq!(snap.queue_depth, capacity);

    // Shutdown fails the stalled requests instead of hanging their waiters.
    server.shutdown();
    for t in tickets {
        assert_eq!(t.wait().unwrap_err(), ServeError::Shutdown);
    }
}

/// Batched and per-sample inference agree through the full serving path.
#[test]
fn served_predictions_match_direct_inference_shape_and_bound_scaling() {
    let server = Server::new(
        model(),
        calibration(4),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(9);
    let payload = samples(&mut rng, 12, 6);
    // A looser tolerance can only loosen (or keep) the certified bound.
    let tight = server.process(Request::new(payload.clone(), 1e-3)).unwrap();
    let loose = server.process(Request::new(payload, 1e-1)).unwrap();
    assert!(tight.rel_bound <= 1e-3);
    assert!(loose.rel_bound <= 1e-1);
    assert!(tight.rel_bound <= loose.rel_bound);
}

/// The server is generic over `Model`: a scidata `TaskModel` (enum over
/// MLP/ConvNet) serves through the same path, exercising the
/// `forward_batch` delegation.
#[test]
fn serves_task_models_and_every_backend() {
    let task = SyntheticTask::of_kind_small(TaskKind::H2Combustion, 3);
    let m = task.build_model(TrainingMode::Psn);
    let cal: Vec<Vec<f32>> = task.ordered_inputs().iter().take(24).cloned().collect();
    for backend in [BackendKind::Sz, BackendKind::Zfp, BackendKind::Mgard] {
        let server = Server::new(
            m.clone(),
            cal.clone(),
            ServeConfig {
                workers: 2,
                backend,
                ..ServeConfig::default()
            },
        );
        let payload: Vec<Vec<f32>> = task.ordered_inputs().iter().take(16).cloned().collect();
        let mut req = Request::new(payload, 1e-2);
        req.norm = Norm::L2;
        req.layout = PayloadLayout::FeatureMajor;
        let resp = server.process(req).unwrap();
        assert_eq!(resp.outputs.len(), 16);
        assert!(resp.outputs.iter().all(|y| y.len() == m.output_dim()));
        assert!(
            resp.rel_bound <= 1e-2,
            "{}: {}",
            backend.name(),
            resp.rel_bound
        );
    }
}

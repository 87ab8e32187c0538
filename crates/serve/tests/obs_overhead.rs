//! Overhead guard: span tracing must cost < 3% of a served request.
//!
//! Tracing is toggled at runtime (`errflow_obs::trace::set_enabled`) and
//! the same server answers the same request twice in a row, once with it
//! on and once with it off.  Each such round yields one on/off latency
//! ratio, the order within a round alternates so drift cancels, and the
//! guard reads the *median* ratio over the rounds: host interference comes
//! in stretches that can cover every run of one arm's minimum, but a
//! stretch hits both requests of a round alike and cannot reach half of the
//! rounds.  With `--features obs-off` the recording paths compile to no-ops
//! and the guard holds trivially.

use errflow_nn::{Activation, Mlp};
use errflow_serve::{Request, ServeConfig, Server};
use std::time::Instant;

const INPUT_DIM: usize = 256;

// The benchmark's small model.  A request records a fixed handful of spans
// (~µs), so the guard is only meaningful while a request carries enough
// real work for that to be a small share: since the forward pass stopped
// paying 12 ns per activation to libm, a 64-32-8 model no longer does.
fn model() -> Mlp {
    Mlp::new(
        &[INPUT_DIM, 128, 16],
        Activation::Tanh,
        Activation::Identity,
        3,
        None,
    )
}

/// `n` samples on a slow random walk, so the payload compresses like a field.
fn samples(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(seed);
    let mut cur: Vec<f32> = (0..INPUT_DIM)
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    (0..n)
        .map(|_| {
            for v in &mut cur {
                *v = (*v + rng.gen_range(-0.02f32..0.02)).clamp(-1.0, 1.0);
            }
            cur.clone()
        })
        .collect()
}

#[test]
fn tracing_overhead_is_under_three_percent() {
    // One worker and one caller: a request's latency is then its own work,
    // not how the host scheduled four threads on its cores.
    let server = Server::new(
        model(),
        samples(8, 17),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    // 128 samples × 256 features per request: ~1.5 ms of compress + decode +
    // forward in a release build, against a few µs of span recording.
    let payloads: Vec<Vec<Vec<f32>>> = (0..8).map(|i| samples(128, 42 + i)).collect();
    let serve = |tracing: bool, payload: &Vec<Vec<f32>>| {
        errflow_obs::trace::set_enabled(tracing);
        let request = Request::new(payload.clone(), 1e-2);
        let t0 = Instant::now();
        let response = server.process(request).expect("request served");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(response.outputs.len(), payload.len());
        secs
    };
    // Warm up: plan cache, weight build, scratch pool, allocator.
    for payload in &payloads {
        serve(true, payload);
    }

    let rounds = 100;
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            let payload = &payloads[round % payloads.len()];
            let (on, off) = if round % 2 == 0 {
                let off = serve(false, payload);
                (serve(true, payload), off)
            } else {
                (serve(true, payload), serve(false, payload))
            };
            // Keep the ring buffers from growing round over round.
            errflow_obs::trace::clear();
            on / off
        })
        .collect();
    errflow_obs::trace::set_enabled(true);

    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[rounds / 2];
    println!(
        "tracing overhead: median on/off latency ratio {ratio:.4} over {rounds} paired rounds \
         (quartiles {:.4}..{:.4})",
        ratios[rounds / 4],
        ratios[3 * rounds / 4],
    );
    assert!(
        ratio < 1.03,
        "tracing overhead too high: median on/off latency ratio {ratio:.4} over {rounds} \
         paired rounds (limit 1.03)"
    );
}

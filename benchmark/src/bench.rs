//! One benchmark run: set the servers up, warm them, measure the untraced
//! rounds that give the end-to-end metrics, then the traced pass and the
//! probes that give the per-layer ones.

use crate::driver::{run_round, Checker, Client, Counters, Round, Traced};
use crate::gen::{self, Payload};
use crate::metrics::{better_of, metric, unit_of, value_of, Metric};
use crate::probe;
use crate::stats::{mean, median, quantile};
use crate::workload::{Served, Spec, CLIENTS};
use errflow_core::NetworkAnalysis;
use errflow_nn::{Mlp, Model};
use errflow_pipeline::Planner;
use std::path::PathBuf;
use std::time::Instant;

pub struct Plan {
    pub rounds: usize,
    pub round_secs: f64,
    /// Measure the end-to-end metrics (tracing off).
    pub untraced: bool,
    /// Measure the per-layer metrics (traced rounds and probes).
    pub traced: bool,
}

impl Plan {
    fn warm_secs(&self) -> f64 {
        self.round_secs.min(1.0)
    }

    /// Traced rounds, each paired with an untraced one next to it in time
    /// so that their difference is the tracing, not the host's drift.
    fn traced_pairs(&self) -> usize {
        self.rounds.div_ceil(3)
    }

    /// Some two dozen probes share about one round's length.
    fn probe_budget_ns(&self) -> u64 {
        (self.round_secs / 24.0 * 1e9) as u64
    }
}

/// Set-up is repeated, because one sample of a second-scale interval on a
/// shared host says little: at least this many times ...
const SETUPS_MIN: usize = 3;
/// ... and up to this many while they are cheap.
const SETUPS_MAX: usize = 9;
const SETUPS_CHEAP_SECS: f64 = 1.5;

/// Everything of the benchmark's own a workload needs; made outside `setup_s`.
struct Prepared {
    model: Mlp,
    calibration: Vec<Vec<f32>>,
    analysis: NetworkAnalysis,
    analysis_ms: f64,
    pool: Vec<Payload>,
    checker: Checker,
}

impl Prepared {
    fn new(spec: &Spec, seed: u64) -> Self {
        let model = spec.model();
        let calibration = gen::calibration(model.input_dim());
        let t0 = Instant::now();
        let analysis = NetworkAnalysis::of(&model);
        let analysis_ms = t0.elapsed().as_secs_f64() * 1e3;
        let planner = Planner::with_analysis(&model, &calibration, analysis.clone());
        let checker = Checker {
            norm: spec.norm,
            qoi_reference: planner.qoi_reference(spec.norm),
            output_dim: model.output_dim(),
        };
        let pool = gen::pool(seed, &model, spec.samples_per_request);
        Prepared {
            model,
            calibration,
            analysis,
            analysis_ms,
            pool,
            checker,
        }
    }
}

struct Bench {
    spec: Spec,
    prepared: Prepared,
    served: Served,
    setup_secs: Vec<f64>,
}

impl Bench {
    fn start(spec: &Spec, seed: u64, plan: &Plan) -> Result<Self, String> {
        let prepared = Prepared::new(spec, seed);
        let first = &prepared.pool[0].samples;
        let (mut served, secs) = Served::set_up(spec, first)?;
        let mut setup_secs = vec![secs];
        while plan.untraced
            && (setup_secs.len() < SETUPS_MIN
                || (setup_secs.len() < SETUPS_MAX
                    && setup_secs.iter().sum::<f64>() < SETUPS_CHEAP_SECS))
        {
            served.shut_down()?;
            let (again, secs) = Served::set_up(spec, first)?;
            served = again;
            setup_secs.push(secs);
        }
        Ok(Bench {
            spec: *spec,
            prepared,
            served,
            setup_secs,
        })
    }
}

/// One workload's result: the contract's counts and metrics, plus what the
/// printed report shows beside them.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Empty unless the plan measured them.
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub fn run(specs: &[Spec], seed: u64, plan: &Plan) -> Result<Vec<Outcome>, String> {
    let mut benches = Vec::new();
    for spec in specs {
        benches.push(Bench::start(spec, seed, plan)?);
    }
    let outcomes = measure(&benches, seed, plan);
    for b in benches {
        b.served
            .shut_down()
            .map_err(|e| format!("{}: {e}", b.spec.name))?;
    }
    outcomes
}

fn measure(benches: &[Bench], seed: u64, plan: &Plan) -> Result<Vec<Outcome>, String> {
    let mut clients = Vec::new();
    for b in benches {
        let of_one: Result<Vec<Client>, String> = (0..CLIENTS)
            .map(|i| Client::connect(&b.spec, &b.served, &b.prepared.pool, &b.prepared.checker, i))
            .collect();
        clients.push(of_one?);
    }
    for (b, c) in benches.iter().zip(&mut clients) {
        run_round(c, &b.served.server, plan.warm_secs(), false);
    }

    // Rounds go round-robin over the workloads, so that a slow minute on
    // the host lands on all of them and the median over rounds drops it.
    let mut untraced: Vec<Vec<Round>> = benches.iter().map(|_| Vec::new()).collect();
    if plan.untraced {
        for _ in 0..plan.rounds {
            for ((b, c), rounds) in benches.iter().zip(&mut clients).zip(&mut untraced) {
                if benches.len() > 1 {
                    // The others ran since this one last did: re-warm, unrecorded.
                    run_round(c, &b.served.server, plan.round_secs / 10.0, false);
                }
                rounds.push(run_round(c, &b.served.server, plan.round_secs, false));
            }
        }
    }

    let mut outcomes = Vec::new();
    for ((b, c), rounds) in benches.iter().zip(&mut clients).zip(untraced) {
        let mut outcome = Outcome {
            workload: b.spec.name,
            attempted: 0,
            failed: 0,
            first_failure: None,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        println!(
            "== {} (seed {seed}): {CLIENTS} clients x {} in flight, {} samples/request ==",
            b.spec.name, b.spec.in_flight, b.spec.samples_per_request
        );
        println!("  {}", b.spec.why);
        if plan.untraced {
            count(&mut outcome, &rounds)?;
            outcome.end_to_end = end_to_end(&rounds, &b.setup_secs, plan);
            println!(
                "  {:<28} {:>14.6} fraction  ({} of {} attempted)",
                "failed_share",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                outcome.failed,
                outcome.attempted
            );
        }
        if plan.traced {
            let mut plain = Vec::new();
            let mut traced = Vec::new();
            for _ in 0..plan.traced_pairs() {
                plain.push(run_round(c, &b.served.server, plan.round_secs, false));
                traced.push(run_round(c, &b.served.server, plan.round_secs, true));
            }
            count(&mut outcome, &plain)?;
            count(&mut outcome, &traced)?;
            outcome.per_layer = per_layer(b, &plain, traced, plan)?;
            for m in &outcome.per_layer {
                println!("  {:<28} {:>14.4} {}", m.name, m.value, unit_of(m.name));
            }
            print_budget(&outcome.per_layer);
        }
        if let Some(why) = &outcome.first_failure {
            println!("  first failure: {why}");
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Books a pass's rounds into the outcome.  A pass in which no request
/// completed has nothing to report and fails the run.
fn count(outcome: &mut Outcome, rounds: &[Round]) -> Result<(), String> {
    let mut completed = 0;
    for r in rounds {
        outcome.attempted += r.attempted;
        outcome.failed += r.failed;
        completed += r.latencies_ms.len();
        if outcome.first_failure.is_none() {
            outcome.first_failure.clone_from(&r.first_failure);
        }
    }
    if completed == 0 {
        let why = outcome.first_failure.as_deref().unwrap_or("no rounds");
        return Err(format!(
            "{}: no request completed ({why})",
            outcome.workload
        ));
    }
    Ok(())
}

/// On this shared host interference only ever slows a round, and it comes in
/// stretches of seconds: the same binary reads 250 and 370 requests/s in
/// neighbouring rounds of `codec_sz`.  So each timing metric is read from
/// the run's least disturbed rounds, not its middle ones: the best decile
/// over rounds for throughput and p50 (one lucky round does not set it).
/// `compression_ratio` is no timing and stays a median.  Min and max over
/// rounds are printed as the dispersion.
fn end_to_end(rounds: &[Round], setup_secs: &[f64], plan: &Plan) -> Vec<Metric> {
    let sorted = |f: &dyn Fn(&Round) -> f64| {
        let mut v: Vec<f64> = rounds.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let rps = sorted(&Round::throughput_rps);
    let p50 = sorted(&|r| quantile(&r.latencies_ms, 0.5));
    let ratio = sorted(&|r| r.counters.compression_ratio());
    let mut setups = setup_secs.to_vec();
    setups.sort_by(f64::total_cmp);

    let rows = [
        (
            "throughput_rps",
            quantile(&rps, 0.9),
            rps,
            "best decile of rounds".to_string(),
        ),
        (
            "latency_p50_ms",
            quantile(&p50, 0.1),
            p50,
            "best decile of rounds".to_string(),
        ),
        (
            "compression_ratio",
            quantile(&ratio, 0.5),
            ratio,
            "median of rounds".to_string(),
        ),
        (
            "setup_s",
            quantile(&setups, 0.5),
            setups,
            format!("median of {} set-ups", setup_secs.len()),
        ),
    ];
    println!(
        "  over {} rounds x {:.2} s, tracing off",
        plan.rounds, plan.round_secs
    );
    rows.iter()
        .map(|(name, value, all, how)| {
            println!(
                "  {name:<28} {value:>14.4} {:<9} ({} is better; {how}; min {:.4}, max {:.4})",
                unit_of(name),
                better_of(name),
                quantile(all, 0.0),
                quantile(all, 1.0)
            );
            metric(name, *value)
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(
    b: &Bench,
    plain: &[Round],
    traced: Vec<Round>,
    plan: &Plan,
) -> Result<Vec<Metric>, String> {
    let rps =
        |rounds: &[Round]| mean(&rounds.iter().map(Round::throughput_rps).collect::<Vec<_>>());
    let overhead = 1.0 - rps(&traced) / rps(plain);
    let realized = plain
        .iter()
        .chain(&traced)
        .map(|r| r.realized_margin_max)
        .fold(0.0, f64::max);

    // Tail latency with tracing off, over every request of the untraced
    // rounds of this pass.
    let mut untraced_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    untraced_ms.sort_by(f64::total_cmp);

    let mut all = Traced::default();
    let mut n = Counters::default();
    for r in traced {
        n.add(&r.counters);
        if let Some(t) = r.traced {
            all.absorb(t);
        }
    }
    let totals = all.trace.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_batch = ratio(n.batched_jobs, n.batches);
    let mut wire: Vec<f64> = all
        .wire_overhead_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();

    let mut out = vec![
        metric("latency_p99_ms", quantile(&untraced_ms, 0.99)),
        metric("latency_p99_samples", untraced_ms.len() as f64),
        metric("serve.batch_wait_us", of("serve.batch_wait").mean_us()),
        metric("serve.plan_us", of("serve.plan").mean_us()),
        metric("serve.decompress_us", of("serve.decompress").mean_us()),
        metric("serve.forward_us", of("serve.forward").mean_us()),
        metric("serve.respond_us", of("serve.respond").mean_us()),
        // Today: flatten + compress + the producer→consumer hand-off.
        metric("serve.unattributed_us", of("server").mean_self_us()),
        metric("serve.latency_us", of("server").mean_us()),
        metric("serve.mean_batch_size", mean_batch),
        metric(
            "serve.cache_hit_rate",
            ratio(n.cache_hits, n.cache_hits + n.cache_misses),
        ),
        metric(
            "serve.rejected_share",
            ratio(n.rejected, n.rejected + n.submitted),
        ),
        // Bytes per nanosecond.
        metric("serve.decode_gbps", ratio(n.decomp_bytes_out, n.decomp_ns)),
        metric(
            "serve.scratch_hit_rate",
            ratio(n.scratch_hits, n.scratch_hits + n.scratch_misses),
        ),
        metric("net.ingress_us", of("net.ingress").mean_us()),
        metric("net.egress_us", of("net.egress").mean_us()),
        metric("net.wire_overhead_us", median(&mut wire)),
        metric("core.analysis_ms", b.prepared.analysis_ms),
        metric("core.bound_margin_p50", median(&mut all.bound_margins)),
        metric("core.realized_margin_max", realized),
        metric("bench.trace_overhead_share", overhead),
        metric("bench.client_check_us", of("bench.client_check").mean_us()),
    ];

    let shape = probe::Shape {
        spec: &b.spec,
        model: &b.prepared.model,
        calibration: &b.prepared.calibration,
        analysis: &b.prepared.analysis,
        payload: &b.prepared.pool[0],
        batch: mean_batch.round() as usize,
    };
    out.extend(probe::run(&shape, plan.probe_budget_ns(), &mut all.trace));

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", b.spec.name));
    all.trace
        .write_json(&path, b.spec.name)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "  {} spans recorded, trace in {}",
        all.trace.spans.len(),
        path.display()
    );
    Ok(out)
}

/// ROADMAP item 1's layer-budget table: each stage's share of the server's
/// latency beside what the same work costs standing alone at the same
/// shape.  A stage that costs more than twice its probe is a finding.
fn print_budget(per_layer: &[Metric]) {
    let v = |name: &str| value_of(per_layer, name).unwrap_or(f64::NAN);
    let batch = v("serve.mean_batch_size").max(1.0);
    let miss_rate = 1.0 - v("serve.cache_hit_rate");
    let miss_us = v("pipeline.plan_us") + v("core.quantize_model_us") + v("nn.pack_weights_us");
    // A batch's compress and decode intervals are charged whole to each of
    // its requests; the forward probe already ran at the batch's rows.
    let rows = [
        ("batch_wait", v("serve.batch_wait_us"), f64::NAN, "-"),
        (
            "plan",
            v("serve.plan_us"),
            miss_rate * miss_us,
            "miss rate x (pipeline.plan + core.quantize_model + nn.pack_weights)",
        ),
        (
            "decompress",
            v("serve.decompress_us"),
            batch * v("compress.decode_us"),
            "batch x compress.decode",
        ),
        (
            "forward",
            v("serve.forward_us"),
            v("nn.forward_batch_us"),
            "nn.forward_batch at the batch's rows",
        ),
        ("respond", v("serve.respond_us"), f64::NAN, "-"),
        (
            "unattributed",
            v("serve.unattributed_us"),
            batch * (v("pipeline.flatten_us") + v("compress.compress_us")),
            "batch x (pipeline.flatten + compress.compress)",
        ),
    ];
    let latency = v("serve.latency_us");
    println!("  layer budget: server latency {latency:.1} us, mean batch {batch:.2}");
    println!(
        "  {:<13} {:>10} {:>7} {:>14} {:>7}",
        "stage", "server us", "share", "standalone us", "ratio"
    );
    for (stage, inside, alone, what) in rows {
        let r = inside / alone;
        let flag = if r > 2.0 { "  > 2x" } else { "" };
        // No probe for this stage, or (plan on an all-hit workload) no work.
        if alone.is_nan() || alone == 0.0 {
            println!(
                "  {stage:<13} {inside:>10.1} {:>6.1}% {:>14} {:>7}",
                100.0 * inside / latency,
                "-",
                "-"
            );
        } else {
            println!(
                "  {stage:<13} {inside:>10.1} {:>6.1}% {alone:>14.1} {r:>7.2}{flag}  ({what})",
                100.0 * inside / latency
            );
        }
    }
}

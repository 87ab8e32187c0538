//! Command-line interface: train → analyse → plan → run, from the shell.
//!
//! ```sh
//! errflow-cli analyze     --task h2
//! errflow-cli plan        --task borghesi --tol 1e-3 --norm l2 --share 0.5
//! errflow-cli run         --task h2 --tol 1e-2 --backend sz --share 0.5
//! errflow-cli serve-bench --clients 4 --requests 200 --tol 1e-2
//! ```
//!
//! Argument parsing is hand-rolled (no extra dependencies); [`parse_args`]
//! is pure and unit-tested, [`run`] executes a parsed command.

use crate::compress::{Compressor, MgardCompressor, SzCompressor, ZfpCompressor};
use crate::core::NetworkAnalysis;
use crate::net::{NetConfig, NetServer};
use crate::nn::Model;
use crate::pipeline::planner::PayloadLayout;
use crate::pipeline::{Planner, PlannerConfig};
use crate::quant::QuantFormat;
use crate::scidata::task::TrainingMode;
use crate::scidata::{SyntheticTask, TaskKind};
use crate::serve::{report_json, run_loadgen, BackendKind, LoadgenConfig, ServeConfig, Server};
use crate::tensor::norms::Norm;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Train a model and print its spectral analysis and bounds.
    Analyze {
        /// Workload.
        task: TaskKind,
        /// Training mode.
        mode: TrainingMode,
        /// Training epochs.
        epochs: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Print the tolerance-allocation plan for a configuration.
    Plan {
        /// Workload.
        task: TaskKind,
        /// Relative QoI tolerance.
        tol: f64,
        /// Tolerance norm.
        norm: Norm,
        /// Quantization share of the tolerance.
        share: f64,
        /// Use calibrated-magnitude bounds.
        calibrated: bool,
        /// RNG seed.
        seed: u64,
    },
    /// Plan and execute the pipeline on generated data.
    Run {
        /// Workload.
        task: TaskKind,
        /// Relative QoI tolerance.
        tol: f64,
        /// Tolerance norm.
        norm: Norm,
        /// Quantization share.
        share: f64,
        /// Compression backend name.
        backend: String,
        /// RNG seed.
        seed: u64,
    },
    /// Drive the inference server with synthetic closed-loop load and
    /// print a JSON summary.
    ServeBench {
        /// Workload.
        task: TaskKind,
        /// Relative QoI tolerance every client requests.
        tol: f64,
        /// Tolerance norm.
        norm: Norm,
        /// Quantization share of the tolerance.
        share: f64,
        /// Compression backend name.
        backend: String,
        /// Concurrent client threads.
        clients: usize,
        /// Requests per client.
        requests: usize,
        /// Server worker threads.
        workers: usize,
        /// Bounded-queue capacity (admission control limit).
        queue_cap: usize,
        /// Maximum jobs per batched forward pass.
        batch: usize,
        /// Samples per request payload.
        samples: usize,
        /// Distinct tolerance buckets cycled by clients (1 = steady SLO).
        mix: usize,
        /// RNG seed.
        seed: u64,
        /// Smoke mode: shrink the run and fail unless the per-stage
        /// breakdown recorded observations (CI's obs health check).
        smoke: bool,
        /// Write a chrome://tracing trace-event JSON of the run here.
        trace_out: Option<String>,
        /// Drive the load through the wire-protocol TCP frontend instead
        /// of in-process submission.
        net: bool,
        /// Port the net frontend binds (0 = ephemeral; loopback only).
        port: u16,
        /// Dedicated io (acceptor/reader) threads for the net frontend.
        io_threads: usize,
        /// Keep the net frontend (and telemetry plane) alive this many
        /// seconds after the load completes, so external scrapers can
        /// attach (requires --net).
        hold_secs: u64,
    },
    /// One-shot telemetry scrape of a running server over EFNP.
    Scrape {
        /// Server address (`host:port`).
        addr: String,
        /// Output format: Prometheus text or JSON.
        prom: bool,
        /// Retention tier to dump (JSON only; None = all tiers).
        tier: Option<u8>,
        /// Max points per series.
        window: u32,
        /// Run the Prometheus exposition-conformance checker on the
        /// scraped text and fail on violations (requires --prom).
        validate: bool,
        /// Connection/retry budget in seconds.
        timeout_secs: u64,
    },
    /// Live terminal dashboard over a running server's telemetry plane.
    Top {
        /// Server address (`host:port`).
        addr: String,
        /// Milliseconds between frames.
        interval_ms: u64,
        /// Render N frames then exit (None = until interrupted).
        frames: Option<u64>,
    },
    /// Print usage.
    Help,
}

/// Parses CLI arguments (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(c) => c,
    };
    let mut task = TaskKind::H2Combustion;
    let mut mode = TrainingMode::Psn;
    let mut epochs = 10usize;
    let mut seed = 7u64;
    let mut tol = 1e-3f64;
    let mut norm = Norm::LInf;
    let mut share = 0.5f64;
    let mut calibrated = false;
    let mut backend = "sz".to_string();
    let mut clients = 4usize;
    let mut requests = 200usize;
    let mut workers = 4usize;
    let mut queue_cap = 64usize;
    let mut batch = 16usize;
    let mut samples = 64usize;
    let mut mix = 1usize;
    let mut smoke = false;
    let mut trace_out: Option<String> = None;
    let mut net = false;
    let mut port = 0u16;
    let mut io_threads = 1usize;
    let mut hold_secs = 0u64;
    let mut addr = "127.0.0.1:9090".to_string();
    let mut prom = false;
    let mut json = false;
    let mut tier: Option<u8> = None;
    let mut window = 300u32;
    let mut validate = false;
    let mut timeout_secs = 10u64;
    let mut interval_ms = 1000u64;
    let mut frames: Option<u64> = None;
    // serve-bench defaults to a loose tolerance; `plan`/`run` keep 1e-3.
    let serve_bench = cmd == "serve-bench";
    if serve_bench {
        tol = 1e-2;
        norm = Norm::L2;
    }

    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--task" => {
                task = match value("--task")?.as_str() {
                    "h2" | "h2_combustion" => TaskKind::H2Combustion,
                    "borghesi" | "borghesi_flame" => TaskKind::BorghesiFlame,
                    "eurosat" => TaskKind::EuroSat,
                    other => return Err(format!("unknown task: {other}")),
                }
            }
            "--mode" => {
                mode = match value("--mode")?.as_str() {
                    "psn" => TrainingMode::Psn,
                    "plain" => TrainingMode::Plain,
                    "wd" | "weight_decay" => TrainingMode::WeightDecay,
                    other => return Err(format!("unknown mode: {other}")),
                }
            }
            "--epochs" => {
                epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--tol" => tol = value("--tol")?.parse().map_err(|e| format!("--tol: {e}"))?,
            "--norm" => {
                norm = match value("--norm")?.as_str() {
                    "linf" | "l-inf" | "inf" => Norm::LInf,
                    "l2" => Norm::L2,
                    other => return Err(format!("unknown norm: {other}")),
                }
            }
            "--share" => {
                share = value("--share")?
                    .parse()
                    .map_err(|e| format!("--share: {e}"))?
            }
            "--calibrated" => calibrated = true,
            "--backend" => backend = value("--backend")?.clone(),
            "--clients" => {
                clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-cap" => {
                queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--batch" => {
                batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--samples" => {
                samples = value("--samples")?
                    .parse()
                    .map_err(|e| format!("--samples: {e}"))?
            }
            "--mix" => mix = value("--mix")?.parse().map_err(|e| format!("--mix: {e}"))?,
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?.clone()),
            "--net" => net = true,
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--io-threads" => {
                io_threads = value("--io-threads")?
                    .parse()
                    .map_err(|e| format!("--io-threads: {e}"))?
            }
            "--hold-secs" => {
                hold_secs = value("--hold-secs")?
                    .parse()
                    .map_err(|e| format!("--hold-secs: {e}"))?
            }
            "--addr" => addr = value("--addr")?.clone(),
            "--prom" => prom = true,
            "--json" => json = true,
            "--tier" => {
                tier = Some(
                    value("--tier")?
                        .parse()
                        .map_err(|e| format!("--tier: {e}"))?,
                )
            }
            "--window" => {
                window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?
            }
            "--validate" => validate = true,
            "--timeout-secs" => {
                timeout_secs = value("--timeout-secs")?
                    .parse()
                    .map_err(|e| format!("--timeout-secs: {e}"))?
            }
            "--interval-ms" => {
                interval_ms = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--frames" => {
                frames = Some(
                    value("--frames")?
                        .parse()
                        .map_err(|e| format!("--frames: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    match cmd {
        "analyze" => Ok(Command::Analyze {
            task,
            mode,
            epochs,
            seed,
        }),
        "plan" => Ok(Command::Plan {
            task,
            tol,
            norm,
            share,
            calibrated,
            seed,
        }),
        "run" => Ok(Command::Run {
            task,
            tol,
            norm,
            share,
            backend,
            seed,
        }),
        "serve-bench" => Ok(Command::ServeBench {
            task,
            tol,
            norm,
            share,
            backend,
            clients,
            requests,
            workers,
            queue_cap,
            batch,
            samples,
            mix,
            seed,
            smoke,
            trace_out,
            net,
            port,
            io_threads,
            hold_secs,
        }),
        "scrape" => {
            if prom && json {
                return Err("--prom and --json are mutually exclusive".to_string());
            }
            if validate && json {
                return Err("--validate requires --prom".to_string());
            }
            Ok(Command::Scrape {
                addr,
                prom: !json,
                tier,
                window,
                validate,
                timeout_secs,
            })
        }
        "top" => Ok(Command::Top {
            addr,
            interval_ms,
            frames,
        }),
        other => Err(format!("unknown command: {other}")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
errflow-cli — error-controlled scientific inference

USAGE:
  errflow-cli analyze --task <h2|borghesi|eurosat> [--mode psn|plain|wd] [--epochs N] [--seed N]
  errflow-cli plan    --task <...> --tol <rel> [--norm linf|l2] [--share F] [--calibrated] [--seed N]
  errflow-cli run     --task <...> --tol <rel> --backend <sz|zfp|mgard> [--norm linf|l2] [--share F] [--seed N]
  errflow-cli serve-bench [--task <...>] [--tol <rel>] [--norm linf|l2] [--share F] [--backend <...>]
                          [--clients N] [--requests M] [--workers N] [--queue-cap N] [--batch N]
                          [--samples N] [--mix K] [--seed N] [--smoke] [--trace-out FILE]
                          [--net] [--port P] [--io-threads N] [--hold-secs S]
  errflow-cli scrape  [--addr HOST:PORT] [--prom|--json] [--tier N] [--window N] [--validate]
                      [--timeout-secs S]
  errflow-cli top     [--addr HOST:PORT] [--interval-ms N] [--frames N]
  errflow-cli help

serve-bench drives the inference server with N closed-loop clients
submitting M requests each and prints one JSON line: what the clients saw
(throughput, failed replies, rejections, round-trip latency, p50 transport
overhead) beside the server's own stats under `server` (latency
percentiles, per-stage breakdown, plan-cache hit rate).  It exits 1 if any
reply failed, came back short or carried a bound above its tolerance.
--smoke shrinks the run and exits 3 unless the stage breakdown recorded
observations and throughput clears the 25 req/s floor; --trace-out writes
a chrome://tracing trace-event JSON of the run (load it at
chrome://tracing or https://ui.perfetto.dev).  --net routes the same load
through the wire-protocol TCP frontend on 127.0.0.1 (--port, 0 =
ephemeral; --io-threads acceptor/reader threads); with --smoke it also
fails if the ingress/egress stages are empty or the p50 frontend overhead
exceeds 250µs.
--hold-secs keeps the --net frontend and the telemetry plane alive after
the load finishes so scrape/top can attach.

scrape performs one EFNP metrics request against a live server started
with --net: --prom (default) prints Prometheus text (--validate runs the
exposition-conformance checker on it), --json prints the tiered
time-series plus SLO states as JSON (--tier selects one retention tier,
--window caps points per series).

top renders a live terminal dashboard (throughput, per-stage latency
sparklines, cache hit rates, bound-margin distribution, SLO badges)
refreshed every --interval-ms; --frames N exits after N frames.
";

fn backend_by_name(name: &str) -> Result<Box<dyn Compressor>, String> {
    match name {
        "sz" => Ok(Box::new(SzCompressor::default())),
        "zfp" => Ok(Box::new(ZfpCompressor::default())),
        "mgard" => Ok(Box::new(MgardCompressor)),
        other => Err(format!("unknown backend: {other}")),
    }
}

/// Executes a parsed command, returning the process exit code.
pub fn run(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::Analyze {
            task,
            mode,
            epochs,
            seed,
        } => {
            let t = SyntheticTask::of_kind_small(task, seed);
            println!("training {} ({:?}, {epochs} epochs)...", task.name(), mode);
            let model = t.trained_model(mode, epochs);
            let a = NetworkAnalysis::of(&model);
            println!("parameters: {}", model.num_params());
            println!("FLOPs/sample: {:.3e}", model.flops());
            println!("layer spectral norms: {:?}", a.sigmas());
            println!("amplification (Ineq. 5 factor): {:.4}", a.amplification());
            for f in QuantFormat::REDUCED {
                println!(
                    "quantization bound [{}]: {:.4e}",
                    f.label(),
                    a.quantization_bound(f)
                );
            }
            0
        }
        Command::Plan {
            task,
            tol,
            norm,
            share,
            calibrated,
            seed,
        } => {
            let t = SyntheticTask::of_kind_small(task, seed);
            let model = t.trained_model(TrainingMode::Psn, 10);
            let cal: Vec<Vec<f32>> = t.ordered_inputs().iter().take(64).cloned().collect();
            let planner = if calibrated {
                Planner::new_calibrated(&model, &cal, 1.5)
            } else {
                Planner::new(&model, &cal)
            };
            let plan = planner.plan(&PlannerConfig {
                rel_tolerance: tol,
                norm,
                quant_share: share,
            });
            println!("task:                 {}", task.name());
            println!("tolerance:            {tol:.3e} ({norm}, relative)");
            println!("chosen format:        {}", plan.format);
            println!(
                "quantization bound:   {:.4e}",
                plan.certificate.weight_quant
            );
            println!("compression budget:   {:.4e}", plan.certificate.compression);
            println!("input ‖Δx‖₂ budget:   {:.4e}", plan.input_budget_l2);
            println!("total bound:          {:.4e}", plan.certificate.total());
            0
        }
        Command::Run {
            task,
            tol,
            norm,
            share,
            backend,
            seed,
        } => {
            let be = match backend_by_name(&backend) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            };
            let t = SyntheticTask::of_kind_small(task, seed);
            let model = t.trained_model(TrainingMode::Psn, 10);
            let cal: Vec<Vec<f32>> = t.ordered_inputs().iter().take(64).cloned().collect();
            let planner = Planner::new_calibrated(&model, &cal, 1.5);
            let plan = planner.plan(&PlannerConfig {
                rel_tolerance: tol,
                norm,
                quant_share: share,
            });
            let layout = match task {
                TaskKind::EuroSat => PayloadLayout::SampleMajor,
                _ => PayloadLayout::FeatureMajor,
            };
            let inputs: Vec<Vec<f32>> = t.ordered_inputs().iter().take(256).cloned().collect();
            match planner.execute(&plan, be.as_ref(), &inputs, norm, layout) {
                Ok(report) => {
                    println!("format:          {}", plan.format);
                    println!("compression:     {:.1}x", report.stats.ratio());
                    println!("predicted bound: {:.4e}", report.plan.rel_bound);
                    println!("achieved (max):  {:.4e}", report.achieved_rel_error.max);
                    println!(
                        "achieved (geo):  {:.4e}",
                        report.achieved_rel_error.geo_mean
                    );
                    println!("I/O throughput:  {:.3} GB/s", report.io_gbps);
                    println!("exec throughput: {:.3} GB/s", report.exec_gbps);
                    println!("end-to-end:      {:.3} GB/s", report.end_to_end_gbps);
                    let ok = report.achieved_rel_error.max <= report.plan.rel_bound;
                    println!("bound held:      {ok}");
                    i32::from(!ok)
                }
                Err(e) => {
                    eprintln!("pipeline failed: {e}");
                    2
                }
            }
        }
        Command::ServeBench {
            task,
            tol,
            norm,
            share,
            backend,
            clients,
            requests,
            workers,
            queue_cap,
            batch,
            samples,
            mix,
            seed,
            smoke,
            trace_out,
            net,
            port,
            io_threads,
            hold_secs,
        } => {
            if hold_secs > 0 && !net {
                eprintln!("--hold-secs requires --net (nothing to scrape in-process)");
                return 2;
            }
            let backend = match BackendKind::parse(&backend) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            };
            if clients == 0 || requests == 0 || workers == 0 || mix == 0 {
                eprintln!("--clients, --requests, --workers, and --mix must be positive");
                return 2;
            }
            // Smoke mode: a fast run that still exercises every stage.
            let (clients, requests, samples) = if smoke {
                (clients.min(2), requests.min(8), samples.min(16))
            } else {
                (clients, requests, samples)
            };
            let t = SyntheticTask::of_kind_small(task, seed);
            eprintln!(
                "serve-bench: training {} model, then {clients} clients x {requests} requests{}...",
                task.name(),
                if net { " over TCP" } else { "" }
            );
            let model = t.trained_model(TrainingMode::Psn, 6);
            let cal: Vec<Vec<f32>> = t.ordered_inputs().iter().take(64).cloned().collect();
            let server = std::sync::Arc::new(Server::new(
                model,
                cal,
                ServeConfig {
                    workers,
                    queue_capacity: queue_cap,
                    max_batch: batch,
                    quant_share: share,
                    backend,
                    ..ServeConfig::default()
                },
            ));
            // `--mix K` spreads requests over K log-spaced tolerance
            // buckets at and below `--tol` to exercise plan-cache churn;
            // the default K=1 is the steady single-SLO workload.
            let tolerances: Vec<f64> = (0..mix).map(|i| tol * 10f64.powi(-(i as i32))).collect();
            let lg_cfg = LoadgenConfig {
                clients,
                requests_per_client: requests,
                samples_per_request: samples,
                tolerances,
                norm,
                layout: match task {
                    TaskKind::EuroSat => PayloadLayout::SampleMajor,
                    _ => PayloadLayout::FeatureMajor,
                },
                seed,
            };
            // The telemetry pump feeds the live observability plane
            // (tiered time series + SLOs) that `scrape`/`top` read; it
            // runs for the whole bench including any --hold-secs window.
            let _telemetry = crate::serve::start_telemetry(
                server.stats_source(),
                crate::serve::TelemetryConfig::default(),
            );
            let net_cfg = NetConfig {
                io_threads,
                ..NetConfig::default()
            };
            let start = || {
                let server = std::sync::Arc::clone(&server);
                NetServer::start(server, &format!("127.0.0.1:{port}"), net_cfg)
            };
            let frontend = match net.then(start).transpose() {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("failed to start net frontend: {e}");
                    return 2;
                }
            };
            // One driver, two transports: in net mode the same closed loop
            // runs through real sockets.  Either way the line printed is
            // what the clients saw beside what the server counted.
            let load = match &frontend {
                Some(f) => {
                    let addr = f.local_addr();
                    eprintln!("net frontend listening on {addr}");
                    let load = run_loadgen(server.input_dim(), &lg_cfg, || {
                        crate::net::load_client(addr)
                    });
                    crate::net::settle_egress(&server, load.requests - load.failed);
                    load
                }
                None => run_loadgen(server.input_dim(), &lg_cfg, || Ok(&*server)),
            };
            let stats = server.stats();
            println!("{}", report_json(&load, &stats));
            if let Some(f) = frontend.filter(|_| hold_secs > 0) {
                eprintln!(
                    "holding frontend open on {} for {hold_secs}s (scrape/top may attach)...",
                    f.local_addr()
                );
                std::thread::sleep(std::time::Duration::from_secs(hold_secs));
            }
            if let Some(path) = trace_out {
                let trace = crate::obs::trace::export_chrome_trace();
                match std::fs::write(&path, trace) {
                    Ok(()) => eprintln!("trace written to {path}"),
                    Err(e) => {
                        eprintln!("failed to write trace to {path}: {e}");
                        return 2;
                    }
                }
            }
            if smoke {
                // CI health check: the observability surface must have seen
                // the run — every stage histogram populated.
                let s = &stats.stages;
                let stages_ok = s.batch_wait.count > 0
                    && s.plan.count > 0
                    && s.decompress.count > 0
                    && s.forward.count > 0
                    && s.respond.count > 0;
                eprintln!("smoke: stage breakdown populated = {stages_ok}");
                // Throughput floor: the smoke workload (tiny payloads, warm
                // plan cache) sustains thousands of req/s locally; 25 req/s
                // only trips when the serve hot path regresses catastrophically
                // (e.g. the fused decode or prepacked forward re-growing a
                // per-request allocation storm), not on a loaded CI box.
                let throughput_rps = load.throughput_rps();
                eprintln!("smoke: throughput = {throughput_rps:.1} req/s (floor 25)");
                // Net mode additionally gates on the frontend itself: the
                // ingress/egress stages must be populated and the p50
                // overhead over in-process dispatch must stay under the CI
                // budget (the local target is ~100µs; CI machines are
                // noisy, so the gate is 250µs).
                let net_ok = !net || {
                    let frontend_stages_ok = s.ingress.count > 0 && s.egress.count > 0;
                    let overhead = load.overhead_p50_us;
                    eprintln!(
                        "smoke: net frontend stages populated = {frontend_stages_ok}, \
                         p50 overhead = {overhead:.1}us (budget 250us)"
                    );
                    // NaN (no healthy reply) fails the comparison.
                    frontend_stages_ok && overhead <= 250.0
                };
                if !(stages_ok && net_ok && throughput_rps >= 25.0) {
                    return 3;
                }
            }
            // The one number on this path that can be nonzero: replies that
            // failed, came back short, or carried a bound above tolerance.
            i32::from(load.failed > 0)
        }
        Command::Scrape {
            addr,
            prom,
            tier,
            window,
            validate,
            timeout_secs,
        } => {
            use crate::net::proto::TIER_ALL;
            use crate::net::{MetricsFormat, MetricsResponseFrame, NetClient};
            let deadline =
                std::time::Instant::now() + std::time::Duration::from_secs(timeout_secs.max(1));
            // Retry the connect until the deadline: CI starts the server
            // and the scraper concurrently.
            let mut client = loop {
                match NetClient::connect(&addr) {
                    Ok(c) => break c,
                    Err(e) => {
                        if std::time::Instant::now() >= deadline {
                            eprintln!("connect {addr}: {e}");
                            return 2;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                }
            };
            if let Err(e) = client.set_read_timeout(Some(std::time::Duration::from_secs(10))) {
                eprintln!("set timeout: {e}");
                return 2;
            }
            let format = if prom {
                MetricsFormat::Prometheus
            } else {
                MetricsFormat::Json
            };
            let body = match client.scrape(format, tier.unwrap_or(TIER_ALL), window) {
                Ok(MetricsResponseFrame::Text { body, .. }) => body,
                Ok(MetricsResponseFrame::Binary(_)) => {
                    eprintln!("server sent a binary response to a text scrape");
                    return 2;
                }
                Err(e) => {
                    eprintln!("scrape {addr}: {e}");
                    return 2;
                }
            };
            println!("{body}");
            if validate {
                let violations = crate::obs::promcheck::validate(&body);
                if violations.is_empty() {
                    eprintln!("exposition conformance: ok");
                } else {
                    for v in &violations {
                        eprintln!("exposition violation: {v}");
                    }
                    return 3;
                }
            }
            0
        }
        Command::Top {
            addr,
            interval_ms,
            frames,
        } => match crate::top::run_top(&crate::top::TopConfig {
            addr,
            interval_ms,
            frames,
        }) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_help_variants() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn parse_analyze_defaults() {
        let c = parse_args(&args("analyze --task h2")).unwrap();
        assert_eq!(
            c,
            Command::Analyze {
                task: TaskKind::H2Combustion,
                mode: TrainingMode::Psn,
                epochs: 10,
                seed: 7
            }
        );
    }

    #[test]
    fn parse_plan_full() {
        let c = parse_args(&args(
            "plan --task borghesi --tol 1e-4 --norm l2 --share 0.7 --calibrated --seed 11",
        ))
        .unwrap();
        match c {
            Command::Plan {
                task,
                tol,
                norm,
                share,
                calibrated,
                seed,
            } => {
                assert_eq!(task, TaskKind::BorghesiFlame);
                assert_eq!(tol, 1e-4);
                assert_eq!(norm, Norm::L2);
                assert_eq!(share, 0.7);
                assert!(calibrated);
                assert_eq!(seed, 11);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_run_backend() {
        let c = parse_args(&args("run --task eurosat --tol 1e-2 --backend mgard")).unwrap();
        match c {
            Command::Run { task, backend, .. } => {
                assert_eq!(task, TaskKind::EuroSat);
                assert_eq!(backend, "mgard");
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("plan --task mars")).is_err());
        assert!(parse_args(&args("plan --tol nope")).is_err());
        assert!(parse_args(&args("plan --tol")).is_err());
        assert!(parse_args(&args("run --norm l3")).is_err());
    }

    #[test]
    fn parse_serve_bench_defaults_and_overrides() {
        let c = parse_args(&args("serve-bench")).unwrap();
        match c {
            Command::ServeBench {
                task,
                tol,
                norm,
                clients,
                requests,
                workers,
                queue_cap,
                batch,
                samples,
                mix,
                ..
            } => {
                assert_eq!(task, TaskKind::H2Combustion);
                assert_eq!(tol, 1e-2);
                assert_eq!(norm, Norm::L2);
                assert_eq!((clients, requests), (4, 200));
                assert_eq!((workers, queue_cap, batch), (4, 64, 16));
                assert_eq!((samples, mix), (64, 1));
            }
            _ => panic!("wrong command"),
        }
        let c = parse_args(&args(
            "serve-bench --task borghesi --tol 1e-3 --clients 8 --requests 50 \
             --workers 2 --queue-cap 16 --batch 4 --samples 32 --mix 3 --backend zfp",
        ))
        .unwrap();
        match c {
            Command::ServeBench {
                task,
                tol,
                clients,
                requests,
                workers,
                queue_cap,
                batch,
                samples,
                mix,
                backend,
                ..
            } => {
                assert_eq!(task, TaskKind::BorghesiFlame);
                assert_eq!(tol, 1e-3);
                assert_eq!((clients, requests), (8, 50));
                assert_eq!((workers, queue_cap, batch), (2, 16, 4));
                assert_eq!((samples, mix), (32, 3));
                assert_eq!(backend, "zfp");
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&args("serve-bench --clients nope")).is_err());
    }

    #[test]
    fn parse_serve_bench_obs_flags() {
        let c = parse_args(&args("serve-bench --smoke --trace-out /tmp/trace.json")).unwrap();
        match c {
            Command::ServeBench {
                smoke, trace_out, ..
            } => {
                assert!(smoke);
                assert_eq!(trace_out.as_deref(), Some("/tmp/trace.json"));
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&args("serve-bench")).unwrap() {
            Command::ServeBench {
                smoke, trace_out, ..
            } => {
                assert!(!smoke);
                assert_eq!(trace_out, None);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&args("serve-bench --trace-out")).is_err());
    }

    #[test]
    fn parse_serve_bench_net_flags() {
        match parse_args(&args("serve-bench --net --port 9000 --io-threads 2")).unwrap() {
            Command::ServeBench {
                net,
                port,
                io_threads,
                ..
            } => {
                assert!(net);
                assert_eq!(port, 9000);
                assert_eq!(io_threads, 2);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&args("serve-bench")).unwrap() {
            Command::ServeBench {
                net,
                port,
                io_threads,
                ..
            } => {
                assert!(!net);
                assert_eq!(port, 0);
                assert_eq!(io_threads, 1);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&args("serve-bench --port many")).is_err());
        assert!(parse_args(&args("serve-bench --io-threads")).is_err());
    }

    #[test]
    fn parse_serve_bench_hold_secs() {
        match parse_args(&args("serve-bench --net --hold-secs 30")).unwrap() {
            Command::ServeBench { hold_secs, net, .. } => {
                assert_eq!(hold_secs, 30);
                assert!(net);
            }
            _ => panic!("wrong command"),
        }
        match parse_args(&args("serve-bench")).unwrap() {
            Command::ServeBench { hold_secs, .. } => assert_eq!(hold_secs, 0),
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&args("serve-bench --hold-secs soon")).is_err());
    }

    #[test]
    fn parse_scrape() {
        assert_eq!(
            parse_args(&args("scrape")).unwrap(),
            Command::Scrape {
                addr: "127.0.0.1:9090".into(),
                prom: true,
                tier: None,
                window: 300,
                validate: false,
                timeout_secs: 10,
            }
        );
        assert_eq!(
            parse_args(&args(
                "scrape --addr 127.0.0.1:9001 --json --tier 1 --window 64 --timeout-secs 3"
            ))
            .unwrap(),
            Command::Scrape {
                addr: "127.0.0.1:9001".into(),
                prom: false,
                tier: Some(1),
                window: 64,
                validate: false,
                timeout_secs: 3,
            }
        );
        match parse_args(&args("scrape --prom --validate")).unwrap() {
            Command::Scrape { prom, validate, .. } => {
                assert!(prom && validate);
            }
            _ => panic!("wrong command"),
        }
        assert!(parse_args(&args("scrape --prom --json")).is_err());
        assert!(parse_args(&args("scrape --json --validate")).is_err());
        assert!(parse_args(&args("scrape --tier many")).is_err());
    }

    #[test]
    fn parse_top() {
        assert_eq!(
            parse_args(&args("top")).unwrap(),
            Command::Top {
                addr: "127.0.0.1:9090".into(),
                interval_ms: 1000,
                frames: None,
            }
        );
        assert_eq!(
            parse_args(&args(
                "top --addr 127.0.0.1:9002 --interval-ms 250 --frames 5"
            ))
            .unwrap(),
            Command::Top {
                addr: "127.0.0.1:9002".into(),
                interval_ms: 250,
                frames: Some(5),
            }
        );
        assert!(parse_args(&args("top --frames")).is_err());
    }

    #[test]
    fn backend_lookup() {
        assert!(backend_by_name("sz").is_ok());
        assert!(backend_by_name("zfp").is_ok());
        assert!(backend_by_name("mgard").is_ok());
        assert!(backend_by_name("gzip").is_err());
    }
}

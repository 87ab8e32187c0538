//! errflow-benchmark: the repo's one benchmark of the certified serve path.
//! See `README.md` beside this crate for the names it defines.

mod affinity;
mod bench;
mod driver;
mod gen;
mod json;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workload;

use bench::{Outcome, Plan};
use json::Json;
use metrics::{Metric, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const USAGE: &str = "\
usage: errflow-benchmark run   [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       errflow-benchmark smoke [--seed N]

run    measures one workload, or all six round-robin when none is named.
       --trace 0 reports the end-to-end metrics (tracing off), --trace 1 the
       per-layer ones (traced rounds and probes); without it, both.
       --seconds is the measured time per workload and pass (default 15).
smoke  one 0.5 s round per workload and pass; fails unless every named
       metric is reported, finite and has a unit.";

/// The measured time is split into this many rounds.
const ROUNDS: usize = 15;

struct Args {
    smoke: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let smoke = match argv.next().as_deref() {
        Some("run") => false,
        Some("smoke") => true,
        other => return Err(format!("expected `run` or `smoke`, got {other:?}")),
    };
    let mut args = Args {
        smoke,
        workload: None,
        seed: 41,
        seconds: 15.0,
        trace: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 || args.seconds > 600.0 {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The result object the driver reads: exactly these four keys.
fn result_json(o: &Outcome, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Int(o.attempted)),
        ("failed", Json::Int(o.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(metrics::unit_of(m.name).into())),
                    ]),
                )
            })),
        ),
    ])
}

fn real_main() -> Result<(), String> {
    let args = parse(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    let mut specs = workload::specs();
    if let Some(name) = &args.workload {
        specs.retain(|s| s.name == name);
        if specs.is_empty() {
            return Err(format!("no workload named {name}"));
        }
    }
    let plan = if args.smoke {
        Plan {
            rounds: 1,
            round_secs: 0.5,
            untraced: true,
            traced: true,
        }
    } else {
        Plan {
            rounds: ROUNDS,
            round_secs: args.seconds / ROUNDS as f64,
            untraced: args.trace != Some(true),
            traced: args.trace != Some(false),
        }
    };
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before anything spawns a thread: they inherit the placement.
    let pinned = affinity::pin_to_one_cpu();
    println!(
        "errflow-benchmark: seed {}, host has {host_threads} hardware threads, {}",
        args.seed,
        match pinned {
            Some(cpu) => format!("all threads pinned to cpu {cpu}"),
            None => "threads not pinned (timings will drift with their placement)".into(),
        }
    );
    let outcomes = bench::run(&specs, args.seed, &plan)?;

    if args.smoke {
        let mut problems = Vec::new();
        for o in &outcomes {
            let e2e = END_TO_END.iter().map(|(d, _)| d);
            for p in metrics::missing(e2e, &o.end_to_end)
                .into_iter()
                .chain(metrics::missing(PER_LAYER, &o.per_layer))
            {
                problems.push(format!("{}: {p}", o.workload));
            }
        }
        if !problems.is_empty() {
            return Err(format!("smoke failed:\n  {}", problems.join("\n  ")));
        }
        println!(
            "smoke ok: {} workloads x {} metrics",
            outcomes.len(),
            END_TO_END.len() + PER_LAYER.len()
        );
        return Ok(());
    }
    // One result line per workload and pass; with one workload and one
    // pass, this is the single last line the driver reads.
    for o in &outcomes {
        for metrics in [&o.end_to_end, &o.per_layer] {
            if !metrics.is_empty() {
                println!("{}", result_json(o, metrics));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("errflow-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("run --workload net_small --seed 7 --seconds 10 --trace 1").unwrap();
        assert!(!a.smoke);
        assert_eq!(a.workload.as_deref(), Some("net_small"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        let d = args("run").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (41, 15.0, None));
        assert!(args("smoke").unwrap().smoke);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "bench",
            "run --trace 2",
            "run --seconds 0",
            "run --seconds nan",
            "run --seed",
            "run --rounds 3",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            workload: "codec_sz",
            attempted: 1000,
            failed: 1,
            first_failure: None,
            end_to_end: vec![metrics::metric("setup_s", 0.25)],
            per_layer: vec![],
        };
        assert_eq!(
            result_json(&o, &o.end_to_end).to_string(),
            r#"{"correct":false,"attempted":1000,"failed":1,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }
}

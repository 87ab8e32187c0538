//! Regenerates the paper's evaluation and checks its headline claims.
//!
//! ```sh
//! cargo run --release -p errflow-bench --bin repro                    # everything
//! cargo run --release -p errflow-bench --bin repro -- fig06 fig13     # two figures
//! cargo run --release -p errflow-bench --bin repro -- --json EXPERIMENTS.json
//! ```
//!
//! Runs the named registry entries (all by default) at full scale, training
//! each (task, mode) once, and prints their tables.  It then evaluates
//! every predicate of `errflow_bench::checks` that applies to what ran and
//! exits 1 if a gating one fails, citing the offending rows; `--json`
//! writes tables and verdicts as one document (the checked-in
//! `EXPERIMENTS.json` is a run of everything; `python3 -m json.tool` lays
//! it out).

use errflow_bench::checks::{evaluate, Check, Outcome};
use errflow_bench::experiments::{Experiment, REGISTRY, STORE_GBPS};
use errflow_bench::report::Table;
use errflow_bench::tasks::{Models, Scale, SEED};
use errflow_obs::json::JsonWriter;
use errflow_tensor::{pool, simd};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    eprintln!(
        "usage: repro [--json <path>] [<id>...]\nids: {}",
        ids.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json_path = None;
    let mut selected: Vec<&'static Experiment> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = args.next();
            if json_path.is_none() {
                return usage();
            }
        } else if let Some(e) = REGISTRY.iter().find(|e| e.id == arg) {
            selected.push(e);
        } else {
            eprintln!("repro: no experiment or option `{arg}`");
            return usage();
        }
    }
    if selected.is_empty() {
        selected = REGISTRY.iter().collect();
    }

    let t0 = Instant::now();
    let models = Models::new(Scale::Full);
    let mut ran: Vec<(&'static Experiment, Vec<Table>)> = Vec::new();
    for e in selected {
        eprintln!("[repro] {} at {:.1}s", e.id, t0.elapsed().as_secs_f64());
        let tables = (e.tables)(&models);
        println!("# {}: {}\n", e.id, e.title);
        for t in &tables {
            println!("{}", t.render());
        }
        ran.push((e, tables));
    }

    let verdicts = evaluate(&ran);
    println!("# Headline checks\n");
    for (check, o) in &verdicts {
        let verdict = match (o.passed(), check.gating) {
            (true, _) => "pass",
            (false, true) => "FAIL",
            (false, false) => "fail (not gating)",
        };
        println!("{verdict}: {}", check.name);
        if let Some((stress, row)) = &o.worst {
            println!(
                "  {} compared; closest to failing ({stress:.3}): {row}",
                o.compared
            );
        }
        for row in &o.failed {
            println!("  failed: {row}");
        }
    }
    let gating_failures = |(c, o): &&(&Check, Outcome)| c.gating && !o.passed();
    let n_failed = verdicts.iter().filter(gating_failures).count();
    eprintln!(
        "[repro] {} experiments, {} checks, {n_failed} gating failures, {:.1}s",
        ran.len(),
        verdicts.len(),
        t0.elapsed().as_secs_f64()
    );

    if let Some(path) = json_path {
        let doc = to_json(&ran, &verdicts, t0.elapsed().as_secs_f64());
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("repro: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::from(u8::from(n_failed > 0))
}

fn to_json(
    ran: &[(&Experiment, Vec<Table>)],
    verdicts: &[(&Check, Outcome)],
    wall_secs: f64,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command")
        .str("cargo run --release -p errflow-bench --bin repro -- --json EXPERIMENTS.json");
    w.key("host").begin_object();
    w.key("arch").str(std::env::consts::ARCH);
    w.key("os").str(std::env::consts::OS);
    let avx2 = simd::has_avx2() && !simd::force_scalar();
    w.key("simd").str(if avx2 { "avx2" } else { "portable" });
    w.key("hardware_threads")
        .int(pool::hardware_threads() as u64);
    w.end_object();
    w.key("scale").str("full").key("seed").int(SEED);
    w.key("store_gbps").f64(STORE_GBPS);
    w.key("wall_secs").f64((wall_secs * 10.0).round() / 10.0);

    w.key("experiments").begin_array();
    for (e, tables) in ran {
        w.begin_object()
            .key("id")
            .str(e.id)
            .key("title")
            .str(e.title);
        w.key("tables").begin_array();
        for t in tables {
            t.write_json(&mut w);
        }
        w.end_array().end_object();
    }
    w.end_array();

    // `JsonWriter` has no boolean: `gating` and `pass` are 0 or 1.
    w.key("checks").begin_array();
    for (check, o) in verdicts {
        w.begin_object().key("name").str(check.name);
        w.key("gating").int(u8::from(check.gating));
        w.key("pass").int(u8::from(o.passed()));
        w.key("compared").int(o.compared as u64);
        if let Some((stress, row)) = &o.worst {
            w.key("worst_stress").f64(*stress).key("worst_row").str(row);
        }
        w.key("failed").begin_array();
        for row in &o.failed {
            w.str(row);
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
    w.finish()
}

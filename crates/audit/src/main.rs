//! CLI for errflow-audit.
//!
//! ```text
//! errflow-audit [--root PATH] [--ratchet PATH] [--json] [--check]
//!               [--update-ratchet] [--explain] [--strict-panics]
//! ```
//!
//! Default mode prints the human report and exits 0: one summary row per
//! rule (nine, `dead-pub` among them), then every finding, waived ones
//! marked. `--check` exits 1 on any hard-rule finding or ratchet
//! regression (the CI gate). `--explain`
//! appends the entry-point→site call chain under each graph-rule finding.
//! `--strict-panics` also counts indexing/slicing as panic-capable (not part
//! of the CI gate). `--update-ratchet` rewrites the baseline file to the
//! current unwaived counts of every ratcheted rule.

use errflow_audit::{audit_tree, check, render_human, render_json, rules, Ratchet};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    root: PathBuf,
    ratchet_path: PathBuf,
    json: bool,
    check: bool,
    update_ratchet: bool,
    explain: bool,
    strict_panics: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut root: Option<PathBuf> = None;
    let mut ratchet_path: Option<PathBuf> = None;
    let mut json = false;
    let mut check = false;
    let mut update_ratchet = false;
    let mut explain = false;
    let mut strict_panics = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = Some(args.next().ok_or("--root needs a path")?.into()),
            "--ratchet" => ratchet_path = Some(args.next().ok_or("--ratchet needs a path")?.into()),
            "--json" => json = true,
            "--check" => check = true,
            "--update-ratchet" => update_ratchet = true,
            "--explain" => explain = true,
            "--strict-panics" => strict_panics = true,
            "--help" | "-h" => {
                return Err("usage: errflow-audit [--root PATH] [--ratchet PATH] [--json] [--check] [--update-ratchet] [--explain] [--strict-panics]\n\
                            rules: safety-comment, unchecked-contract, unchecked-header-cast, thread-discipline (hard);\n\
                            panic-reach, lock-order, pool-blocking, hot-path-probe, dead-pub (ratcheted, audit:allow(<rule>) waivable)".into())
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    // Default root: the workspace containing this crate, so both
    // `cargo run -p errflow-audit` and a copied binary work.
    let root = root.unwrap_or_else(|| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or(manifest)
    });
    let ratchet_path = ratchet_path.unwrap_or_else(|| root.join("AUDIT_RATCHET.json"));
    Ok(Opts {
        root,
        ratchet_path,
        json,
        check,
        update_ratchet,
        explain,
        strict_panics,
    })
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let findings = match audit_tree(&opts.root, opts.strict_panics) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("errflow-audit: failed to read {}: {e}", opts.root.display());
            return ExitCode::FAILURE;
        }
    };

    let mut ratchet = match std::fs::read_to_string(&opts.ratchet_path) {
        Ok(text) => match Ratchet::parse(&text) {
            Some(r) => r,
            None => {
                eprintln!(
                    "errflow-audit: malformed ratchet file {}",
                    opts.ratchet_path.display()
                );
                return ExitCode::FAILURE;
            }
        },
        Err(_) => Ratchet::default(),
    };

    if opts.update_ratchet {
        let counts = errflow_audit::counts(&findings);
        for rule in rules::SOFT_RULES {
            let open = counts.get(rule).map(|&(open, _)| open).unwrap_or(0);
            ratchet.set(rule, open);
            eprintln!("ratchet updated: {rule} = {open}");
        }
        if let Err(e) = std::fs::write(&opts.ratchet_path, ratchet.render()) {
            eprintln!(
                "errflow-audit: failed to write {}: {e}",
                opts.ratchet_path.display()
            );
            return ExitCode::FAILURE;
        }
    }

    if opts.json {
        print!("{}", render_json(&findings, &ratchet));
    } else {
        print!("{}", render_human(&findings, &ratchet, opts.explain));
    }

    if opts.check {
        let outcome = check(&findings, &ratchet);
        for notice in &outcome.notices {
            eprintln!("notice: {notice}");
        }
        if !outcome.violations.is_empty() {
            for v in &outcome.violations {
                eprintln!("VIOLATION: {v}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("errflow-audit: check passed");
    }
    ExitCode::SUCCESS
}

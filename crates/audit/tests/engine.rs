//! Audit engine tests: each bad fixture fires its rule exactly once, the
//! clean fixture fires nothing, the ratchet logic regresses correctly, and
//! the workspace itself stays clean (the self-audit regression gate).

use errflow_audit::rules::{
    RULE_HEADER_CAST, RULE_PANIC_REACH, RULE_SAFETY, RULE_THREADS, RULE_UNCHECKED,
};
use errflow_audit::{audit_files, audit_tree, check, counts, Finding, Ratchet};
use std::path::Path;

/// The engine on one file at a library path (`rel` keys the rule scoping).
fn audit_source(rel: &str, src: &str) -> Vec<Finding> {
    audit_files(&[(rel.to_string(), src.to_string())], false)
}

/// A path that puts a fixture in scope for every rule at once.
const COMPRESS_PATH: &str = "crates/compress/src/fixture.rs";
const SERVE_PATH: &str = "crates/serve/src/fixture.rs";

fn only_rule(findings: &[Finding], rule: &str) {
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one finding, got: {findings:?}"
    );
    assert_eq!(findings[0].rule, rule);
    assert!(!findings[0].waived);
}

#[test]
fn bare_unsafe_fires_safety_rule_once() {
    let src = include_str!("fixtures/bare_unsafe.rs");
    only_rule(&audit_source(COMPRESS_PATH, src), RULE_SAFETY);
}

#[test]
fn unchecked_without_contract_fires_once_at_the_call() {
    let src = include_str!("fixtures/unchecked_no_contract.rs");
    let findings = audit_source(COMPRESS_PATH, src);
    only_rule(&findings, RULE_UNCHECKED);
    // Flagged at the call inside `head`, not at the definition.
    let call_line = src
        .lines()
        .position(|l| l.contains("load_unchecked(buf, 0)"))
        .expect("fixture contains the call") as u32
        + 1;
    assert_eq!(findings[0].line, call_line);
}

#[test]
fn spawn_outside_pool_fires_thread_rule_once() {
    let src = include_str!("fixtures/spawn_outside_pool.rs");
    only_rule(&audit_source(SERVE_PATH, src), RULE_THREADS);
    // The same source inside pool.rs is allowed.
    assert!(audit_source("crates/tensor/src/pool.rs", src).is_empty());
}

#[test]
fn truncating_cast_fires_header_rule_once() {
    let src = include_str!("fixtures/truncating_cast.rs");
    only_rule(&audit_source(COMPRESS_PATH, src), RULE_HEADER_CAST);
    // Out of the configured decoder scope, the same source is clean.
    assert!(audit_source("crates/tensor/src/fixture.rs", src).is_empty());
}

#[test]
fn library_unwrap_fires_panic_reach_rule_once() {
    let src = include_str!("fixtures/bad_panic.rs");
    only_rule(&audit_source(SERVE_PATH, src), RULE_PANIC_REACH);
    // The same code in a test file or a bin target is out of scope.
    assert!(audit_source("crates/serve/tests/fixture.rs", src).is_empty());
    assert!(audit_source("crates/serve/src/bin/tool.rs", src).is_empty());
}

#[test]
fn net_crate_is_in_panic_reach_scope() {
    // The wire-protocol frontend parses untrusted bytes; its library code
    // is held to the same no-panic standard as serve/compress/obs.
    let src = include_str!("fixtures/bad_panic.rs");
    only_rule(
        &audit_source("crates/net/src/fixture.rs", src),
        RULE_PANIC_REACH,
    );
    assert!(audit_source("crates/net/tests/fixture.rs", src).is_empty());
}

#[test]
fn clean_fixture_has_zero_findings() {
    let src = include_str!("fixtures/clean.rs");
    for path in [COMPRESS_PATH, SERVE_PATH, "crates/tensor/src/fixture.rs"] {
        let findings = audit_source(path, src);
        assert!(
            findings.is_empty(),
            "{path}: unexpected findings {findings:?}"
        );
    }
}

#[test]
fn waived_finding_is_reported_but_not_counted_open() {
    let src = "fn f(v: Option<u32>) -> u32 {\n    \
               // audit:allow(panic-reach) validated upstream\n    v.unwrap()\n}\n";
    let findings = audit_source(SERVE_PATH, src);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived);
    let c = counts(&findings);
    assert_eq!(c[RULE_PANIC_REACH], (0, 1));
}

#[test]
fn ratchet_checks_regress_pass_and_improve() {
    let finding = |waived| Finding {
        rule: RULE_PANIC_REACH,
        file: "crates/serve/src/x.rs".into(),
        line: 1,
        message: "m".into(),
        waived,
        chain: Vec::new(),
    };
    let mut ratchet = Ratchet::default();
    ratchet.set(RULE_PANIC_REACH, 1);

    // At baseline: passes, no notices.
    let at = vec![finding(false)];
    let outcome = check(&at, &ratchet);
    assert!(outcome.violations.is_empty() && outcome.notices.is_empty());

    // Over baseline: violation.
    let over = vec![finding(false), finding(false)];
    assert_eq!(check(&over, &ratchet).violations.len(), 1);

    // Under baseline (waived findings do not count): passes with a
    // ratchet-down notice.
    let under = vec![finding(true)];
    let outcome = check(&under, &ratchet);
    assert!(outcome.violations.is_empty());
    assert_eq!(outcome.notices.len(), 1);
}

#[test]
fn hard_rules_reject_waivers() {
    let src = "fn f(p: *mut u8) {\n    \
               // audit:allow(safety-comment) trust me\n    unsafe { *p = 1 }\n}\n";
    let findings = audit_source(COMPRESS_PATH, src);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived, "annotation is honoured for reporting");
    // ...but --check still fails: hard rules accept no waivers.
    let outcome = check(&findings, &Ratchet::default());
    assert_eq!(outcome.violations.len(), 1);
}

#[test]
fn ratchet_file_roundtrips() {
    let mut r = Ratchet::default();
    r.set(RULE_PANIC_REACH, 14);
    let text = r.render();
    let parsed = Ratchet::parse(&text).expect("parses own output");
    assert_eq!(parsed.baseline(RULE_PANIC_REACH), 14);
    assert!(Ratchet::parse("{\"no-panic\": }").is_none());
}

/// The self-audit gate: the workspace this crate ships in must itself pass
/// `--check` against the committed ratchet.  This is the same invariant CI
/// enforces; keeping it in the test suite means `cargo test` catches a
/// regression before a PR ever reaches CI.
#[test]
fn workspace_passes_its_own_audit() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let findings = audit_tree(root, false).expect("walk workspace");
    let ratchet_text =
        std::fs::read_to_string(root.join("AUDIT_RATCHET.json")).expect("ratchet file present");
    let ratchet = Ratchet::parse(&ratchet_text).expect("ratchet file parses");
    let outcome = check(&findings, &ratchet);
    assert!(
        outcome.violations.is_empty(),
        "workspace audit violations: {:?}",
        outcome.violations
    );
}

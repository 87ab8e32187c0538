//! Phase-2 (call-graph) rule tests: each bad fixture fires its rule exactly
//! once with a usable call-chain trace, each clean fixture fires nothing,
//! and panic-reachability crosses file boundaries.

use errflow_audit::rules::{RULE_HOT_PROBE, RULE_LOCK_ORDER, RULE_PANIC_REACH, RULE_POOL_BLOCK};
use errflow_audit::{audit_files, audit_source, render_human, Finding, Ratchet};

/// Lock/pool fixtures live at a library path *outside* the panic-reach entry
/// crates, so their `.unwrap()` scaffolding never contributes findings.
const TENSOR_PATH: &str = "crates/tensor/src/fixture_graph.rs";

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
fn lock_cycle_fires_once_with_cycle_trace() {
    let src = include_str!("fixtures/lock_cycle.rs");
    let findings = audit_source(TENSOR_PATH, src);
    only_rule(&findings, RULE_LOCK_ORDER);
    let f = &findings[0];
    assert!(
        f.message.contains("lock-order cycle"),
        "message: {}",
        f.message
    );
    assert!(
        f.message.contains("tensor:alpha") && f.message.contains("tensor:beta"),
        "cycle names both locks: {}",
        f.message
    );
    // The chain carries one hop per lock-order edge in the cycle: the
    // alpha→beta acquisition in `forward` and the held call in `backward`.
    assert_eq!(f.chain.len(), 2, "chain: {:?}", f.chain);
    let provs: Vec<&str> = f.chain.iter().map(|h| h.func.as_str()).collect();
    assert!(provs.iter().any(|p| p.contains("forward")), "{provs:?}");
    assert!(
        provs
            .iter()
            .any(|p| p.contains("backward") && p.contains("alpha_total")),
        "{provs:?}"
    );
}

#[test]
fn lock_cycle_chain_appears_in_explain_output() {
    let src = include_str!("fixtures/lock_cycle.rs");
    let findings = audit_source(TENSOR_PATH, src);
    let explained = render_human(&findings, &Ratchet::default(), true);
    assert!(explained.contains("chain:"), "{explained}");
    assert!(explained.contains(" -> "), "{explained}");
    // Without --explain the chain stays out of the human report.
    let plain = render_human(&findings, &Ratchet::default(), false);
    assert!(!plain.contains("chain:"), "{plain}");
}

#[test]
fn consistent_lock_order_is_clean() {
    let src = include_str!("fixtures/lock_clean.rs");
    let findings = audit_source(TENSOR_PATH, src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn pool_job_blocking_on_recv_fires_once() {
    let src = include_str!("fixtures/pool_block.rs");
    let findings = audit_source(TENSOR_PATH, src);
    only_rule(&findings, RULE_POOL_BLOCK);
    let f = &findings[0];
    assert!(f.message.contains("recv"), "message: {}", f.message);
    let line = src
        .lines()
        .position(|l| l.contains("rx.recv()"))
        .expect("fixture parks on recv") as u32
        + 1;
    assert_eq!(f.line, line, "flagged at the recv site");
    // Chain runs job-root → helper.
    assert_eq!(f.chain.len(), 2, "chain: {:?}", f.chain);
    assert!(f.chain[0].func.contains("pool job"), "{:?}", f.chain);
    assert_eq!(f.chain[1].func, "drain_all");
}

#[test]
fn pure_compute_pool_job_is_clean() {
    let src = include_str!("fixtures/pool_clean.rs");
    let findings = audit_source(TENSOR_PATH, src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn pool_machinery_itself_is_exempt_from_pool_blocking() {
    // The same blocking fixture hosted at the pool's own path is the
    // sanctioned parking spot and must not fire.
    let src = include_str!("fixtures/pool_block.rs");
    let findings = audit_source("crates/tensor/src/pool.rs", src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn blocking_while_lock_held_fires_lock_order() {
    let src = "use std::sync::Mutex;\n\
               use std::sync::mpsc::Receiver;\n\
               pub struct S { state: Mutex<u32>, rx: Receiver<u32> }\n\
               impl S {\n\
                   pub fn pump(&mut self) {\n\
                       let mut g = self.state.lock().unwrap();\n\
                       if let Ok(v) = self.rx.recv() {\n\
                           *g += v;\n\
                       }\n\
                   }\n\
               }\n";
    let findings = audit_source(TENSOR_PATH, src);
    only_rule(&findings, RULE_LOCK_ORDER);
    assert!(
        findings[0].message.contains("recv") && findings[0].message.contains("tensor:state"),
        "message: {}",
        findings[0].message
    );
}

#[test]
fn panic_reach_crosses_file_boundaries() {
    // The panic lives in a tensor helper — out of the lexical v1 rule's
    // scope — but is reachable from a serve entry point, so v2 flags it
    // at the helper with the entry→site chain.
    let serve = "pub fn handle(v: Option<u32>) -> u32 {\n    helper_scale(v)\n}\n";
    let tensor = "pub fn helper_scale(v: Option<u32>) -> u32 {\n    v.unwrap() * 3\n}\n";
    let files = vec![
        ("crates/serve/src/entry.rs".to_string(), serve.to_string()),
        (
            "crates/tensor/src/helper.rs".to_string(),
            tensor.to_string(),
        ),
    ];
    let findings = audit_files(&files);
    only_rule(&findings, RULE_PANIC_REACH);
    let f = &findings[0];
    assert_eq!(f.file, "crates/tensor/src/helper.rs");
    assert_eq!(f.line, 2);
    let chain: Vec<(&str, &str)> = f
        .chain
        .iter()
        .map(|h| (h.func.as_str(), h.file.as_str()))
        .collect();
    assert_eq!(
        chain,
        vec![
            ("handle", "crates/serve/src/entry.rs"),
            ("helper_scale", "crates/tensor/src/helper.rs"),
        ]
    );
    assert!(f.message.contains("entry `handle`"), "{}", f.message);
}

#[test]
fn unreachable_helper_panic_does_not_fire() {
    // Same helper, but nothing on an entry path calls it: silent.
    let tensor = "pub fn helper_scale(v: Option<u32>) -> u32 {\n    v.unwrap() * 3\n}\n";
    let files = vec![(
        "crates/tensor/src/helper.rs".to_string(),
        tensor.to_string(),
    )];
    let findings = audit_files(&files);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn waivers_attach_to_the_panic_site_not_the_entry() {
    let serve = "pub fn handle(v: Option<u32>) -> u32 {\n    helper_scale(v)\n}\n";
    let tensor = "pub fn helper_scale(v: Option<u32>) -> u32 {\n    \
                  // audit:allow(panic-reach) validated upstream\n    v.unwrap() * 3\n}\n";
    let files = vec![
        ("crates/serve/src/entry.rs".to_string(), serve.to_string()),
        (
            "crates/tensor/src/helper.rs".to_string(),
            tensor.to_string(),
        ),
    ];
    let findings = audit_files(&files);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].waived);
}

/// The serve worker's batch chain down to the thread budget, as three
/// crates: `decode` and `forward` say what the two stages ask of `tensor`,
/// `pool` how `hardware_threads` answers.
fn hot_path_workspace(decode: &str, forward: &str, pool: &str) -> Vec<(String, String)> {
    let serve = format!(
        "pub fn serve_batch(x: &[f32]) -> usize {{\n    \
             decode_into_rows(x) + forward_batch_matrix(x)\n}}\n\
         fn decode_into_rows(x: &[f32]) -> usize {{\n    {decode}\n}}\n"
    );
    let nn = format!("pub fn forward_batch_matrix(x: &[f32]) -> usize {{\n    {forward}\n}}\n");
    let matrix = "pub fn matmul_transb_prepacked(x: &[f32]) -> usize {\n    \
                      auto_threads(x.len())\n}\n\
                  pub fn auto_threads(flops: usize) -> usize {\n    \
                      if flops < 1 << 18 { 1 } else { hardware_threads() }\n}\n";
    [
        ("crates/serve/src/server.rs", serve.as_str()),
        ("crates/nn/src/model.rs", nn.as_str()),
        ("crates/tensor/src/matrix.rs", matrix),
        ("crates/tensor/src/pool.rs", pool),
    ]
    .map(|(rel, src)| (rel.to_string(), src.to_string()))
    .to_vec()
}

/// `hardware_threads` asking the OS on every call.
const POOL_UNCACHED: &str = "pub fn hardware_threads() -> usize {\n    \
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n";

fn chain_names(f: &Finding) -> Vec<&str> {
    f.chain.iter().map(|h| h.func.as_str()).collect()
}

#[test]
fn uncached_thread_budget_on_the_decode_path_fires_hot_path_probe() {
    let files = hot_path_workspace("x.len().min(hardware_threads())", "x.len()", POOL_UNCACHED);
    let findings = audit_files(&files);
    only_rule(&findings, RULE_HOT_PROBE);
    let f = &findings[0];
    assert_eq!((f.file.as_str(), f.line), ("crates/tensor/src/pool.rs", 2));
    assert!(f.message.contains("available_parallelism"), "{}", f.message);
    assert_eq!(
        chain_names(f),
        ["serve_batch", "decode_into_rows", "hardware_threads"]
    );
    let explained = render_human(&findings, &Ratchet::default(), true);
    assert!(
        explained.contains("decode_into_rows (crates/serve/src/server.rs:4) -> hardware_threads"),
        "{explained}"
    );
}

#[test]
fn uncached_thread_budget_under_every_gemm_fires_hot_path_probe() {
    let files = hot_path_workspace("x.len()", "matmul_transb_prepacked(x)", POOL_UNCACHED);
    let findings = audit_files(&files);
    only_rule(&findings, RULE_HOT_PROBE);
    assert_eq!(
        chain_names(&findings[0]),
        [
            "serve_batch",
            "forward_batch_matrix",
            "matmul_transb_prepacked",
            "auto_threads",
            "hardware_threads"
        ]
    );
}

#[test]
fn once_initialised_thread_budget_is_clean() {
    // The probes sit in a `get_or_init` argument list, one of them behind
    // a helper that only the initialiser calls; `Once::call_once` counts
    // the same way.
    let pool = "use std::sync::{Once, OnceLock};\n\
                fn env_threads() -> Option<usize> {\n    \
                    std::env::var(\"ERRFLOW_THREADS\").ok().and_then(|s| s.parse().ok())\n}\n\
                pub fn hardware_threads() -> usize {\n    \
                    static CORES: OnceLock<usize> = OnceLock::new();\n    \
                    static WARM: Once = Once::new();\n    \
                    WARM.call_once(|| drop(std::fs::read(\"/proc/self/status\")));\n    \
                    *CORES.get_or_init(|| {\n        \
                        env_threads().unwrap_or_else(|| {\n            \
                            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n        \
                        })\n    \
                    })\n}\n";
    let files = hot_path_workspace(
        "x.len().min(hardware_threads())",
        "matmul_transb_prepacked(x)",
        pool,
    );
    let findings = audit_files(&files);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn a_call_made_both_inside_and_outside_an_initialiser_keeps_its_edge() {
    // One line calls `probe` twice: cached and bare.  The bare call is on
    // the per-request path, so the edge to `probe` must survive.
    let pool = "use std::sync::OnceLock;\n\
                fn probe() -> usize {\n    \
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n\
                pub fn hardware_threads() -> usize {\n    \
                    static CORES: OnceLock<usize> = OnceLock::new();\n    \
                    probe() + *CORES.get_or_init(|| probe())\n}\n";
    let files = hot_path_workspace("x.len().min(hardware_threads())", "x.len()", pool);
    let findings = audit_files(&files);
    only_rule(&findings, RULE_HOT_PROBE);
    assert_eq!(
        chain_names(&findings[0]),
        [
            "serve_batch",
            "decode_into_rows",
            "hardware_threads",
            "probe"
        ]
    );
}

#[test]
fn hot_path_probe_roots_at_the_io_loop_and_nowhere_else() {
    let probe = "fn load() -> usize {\n    \
                     std::fs::read_to_string(\"/proc/cpuinfo\").map(|s| s.len()).unwrap_or(0)\n}\n";
    let io = format!("pub fn io_loop() -> usize {{\n    load()\n}}\n{probe}");
    let findings = audit_source("crates/net/src/server.rs", &io);
    only_rule(&findings, RULE_HOT_PROBE);
    assert!(findings[0].message.contains("fs::read_to_string"));
    // The same function reached from anything but a root is set-up code.
    let setup = format!("pub fn bind() -> usize {{\n    load()\n}}\n{probe}");
    let findings = audit_source("crates/net/src/server.rs", &setup);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

//! Golden-file test for the `--json` output schema (version 2): downstream
//! tooling parses this format, so key order, chain encoding, per-rule count
//! blocks, and the ratchet section are all pinned byte-for-byte.  If you
//! change the schema intentionally, bump `version` and regenerate the golden
//! (see the `regenerate` note below).

use errflow_audit::rules::{RULE_PANIC_REACH, RULE_POOL_BLOCK};
use errflow_audit::{audit_files, render_json, Ratchet};

/// The fixed input behind the golden file: one open interprocedural finding
/// (with a two-hop chain), one waived finding, two `dead-pub` findings
/// (`handle` and `also` have no caller; `noisy` is called by `also`), stable
/// paths.
fn golden_input() -> Vec<(String, String)> {
    let serve = "pub fn handle(v: Option<u32>) -> u32 {\n    helper_scale(v)\n}\n";
    let tensor = "pub fn helper_scale(v: Option<u32>) -> u32 {\n    v.unwrap() * 3\n}\n\
                  pub fn noisy(v: Option<u32>) -> u32 {\n    \
                  // audit:allow(panic-reach) fixture waiver\n    v.expect(\"set\")\n}\n";
    let serve2 = "pub fn also(v: Option<u32>) -> u32 {\n    noisy(v)\n}\n";
    vec![
        ("crates/serve/src/entry.rs".to_string(), serve.to_string()),
        ("crates/serve/src/entry2.rs".to_string(), serve2.to_string()),
        (
            "crates/tensor/src/helper.rs".to_string(),
            tensor.to_string(),
        ),
    ]
}

#[test]
fn json_report_matches_golden_schema() {
    let findings = audit_files(&golden_input(), false);
    let mut ratchet = Ratchet::default();
    ratchet.set(RULE_PANIC_REACH, 1);
    ratchet.set("lock-order", 0);
    ratchet.set(RULE_POOL_BLOCK, 0);
    let rendered = render_json(&findings, &ratchet);
    let golden = include_str!("golden/audit_schema.json");
    assert_eq!(
        rendered, golden,
        "JSON schema drifted from tests/golden/audit_schema.json — \
         if intentional, bump the version field and regenerate the golden \
         by printing `render_json` for `golden_input()`"
    );
}

#[test]
fn json_report_is_structurally_sound() {
    // Cheap structural checks that hold for ANY input, not just the golden:
    // version tag first, every finding carries a chain array, counts cover
    // all nine rules, ratchet covers exactly the soft rules.
    let rendered = render_json(&audit_files(&golden_input(), false), &Ratchet::default());
    assert!(rendered.starts_with("{\n  \"version\": 2,\n"));
    assert_eq!(rendered.matches("\"chain\": [").count(), 4);
    for rule in errflow_audit::rules::ALL_RULES {
        assert!(
            rendered.contains(&format!("\"{rule}\": {{\"open\": ")),
            "counts block missing {rule}"
        );
    }
    let ratchet_at = rendered.find("\"ratchet\"").expect("ratchet section");
    for rule in errflow_audit::rules::SOFT_RULES {
        assert!(
            rendered[ratchet_at..].contains(&format!("\"{rule}\": 0")),
            "ratchet section missing {rule}"
        );
    }
}

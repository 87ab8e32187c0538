//! `dead-pub` rule fixtures: which references keep a library `pub` item
//! alive, which do not, and how the waiver and the scope behave.

use errflow_audit::rules::RULE_DEAD_PUB;
use errflow_audit::{audit_files, Finding};

const LIB: &str = "crates/tensor/src/fixture.rs";

/// The `dead-pub` findings over `files`, given as `(path, source)` pairs.
fn dead(files: &[(&str, &str)]) -> Vec<Finding> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|&(p, s)| (p.to_string(), s.to_string()))
        .collect();
    audit_files(&files, false)
        .into_iter()
        .filter(|f| f.rule == RULE_DEAD_PUB)
        .collect()
}

/// The names the findings report, in order.
fn names(findings: &[Finding]) -> Vec<String> {
    findings
        .iter()
        .map(|f| {
            let start = f.message.find('`').expect("quoted item") + 1;
            let end = start + f.message[start..].find('`').expect("closing quote");
            f.message[start..end].to_string()
        })
        .collect()
}

#[test]
fn caller_only_in_a_cfg_test_module_is_a_finding() {
    let src = "pub fn scale(v: f32) -> f32 {\n    v * 2.0\n}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::scale(1.0);\n    }\n}\n";
    let found = dead(&[(LIB, src)]);
    assert_eq!(names(&found), ["pub fn scale"]);
    assert_eq!((found[0].file.as_str(), found[0].line), (LIB, 1));
    assert!(!found[0].waived);
}

#[test]
fn caller_only_under_tests_is_a_finding() {
    let found = dead(&[
        (LIB, "pub fn scale(v: f32) -> f32 {\n    v * 2.0\n}\n"),
        (
            "crates/tensor/tests/scale.rs",
            "fn main() {\n    scale(1.0);\n}\n",
        ),
        (
            "tests/e2e.rs",
            "fn t() {\n    errflow::tensor::scale(1.0);\n}\n",
        ),
    ]);
    assert_eq!(names(&found), ["pub fn scale"]);
}

#[test]
fn callers_in_binaries_examples_and_the_benchmark_count() {
    let lib = "pub fn scale(v: f32) -> f32 {\n    v * 2.0\n}\n";
    for caller in [
        "src/bin/errflow-cli.rs",
        "crates/bench/src/bin/repro.rs",
        "examples/quickstart.rs",
        "benchmark/src/driver.rs",
    ] {
        let found = dead(&[(LIB, lib), (caller, "fn main() {\n    scale(1.0);\n}\n")]);
        assert!(found.is_empty(), "{caller}: {found:?}");
    }
}

#[test]
fn library_items_outside_crates_and_src_are_not_in_scope() {
    // The benchmark crate is a caller only: its own `pub` items are never
    // findings.
    let found = dead(&[(
        "benchmark/src/stats.rs",
        "pub fn median(v: &[f64]) -> f64 {\n    v[0]\n}\n",
    )]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn function_value_and_static_initializer_uses_count() {
    let src = "pub fn fmt_ns(v: u64) -> String {\n    v.to_string()\n}\n\
               pub fn seed() -> u64 {\n    7\n}\n\
               pub const LIMIT: usize = 4;\n\
               pub static TABLE: [fn() -> u64; 1] = [seed];\n\
               pub fn render(v: &[u64]) -> Vec<String> {\n    v.iter().take(LIMIT).copied().map(fmt_ns).collect()\n}\n";
    let caller = "fn main() {\n    let _ = render(&[1]);\n    let _ = TABLE;\n}\n";
    let found = dead(&[(LIB, src), ("src/bin/tool.rs", caller)]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn trait_impl_methods_are_exempt() {
    let src = "pub struct Meters(pub f32);\n\
               impl std::fmt::Display for Meters {\n    \
                   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        \
                       write!(f, \"{} m\", self.0)\n    }\n}\n\
               pub trait Scale {\n    fn scale(&self) -> f32;\n}\n\
               impl Scale for Meters {\n    fn scale(&self) -> f32 {\n        self.0\n    }\n}\n\
               impl Meters {\n    pub fn halve(&self) -> f32 {\n        self.0 / 2.0\n    }\n}\n";
    let found = dead(&[(LIB, src)]);
    assert_eq!(names(&found), ["pub fn Meters::halve"]);
}

#[test]
fn a_pub_use_on_its_own_is_a_finding() {
    let found = dead(&[
        (LIB, "pub fn scale(v: f32) -> f32 {\n    v * 2.0\n}\n"),
        ("src/lib.rs", "pub use errflow_tensor::fixture::scale;\n"),
        (
            "crates/tensor/src/lib.rs",
            "pub mod fixture;\npub use fixture::{scale as double};\n",
        ),
    ]);
    // The renamed re-export is a use of the item: only its alias is named
    // elsewhere, which the rule cannot follow.
    assert!(found.is_empty(), "{found:?}");
    let found = dead(&[
        (LIB, "pub fn scale(v: f32) -> f32 {\n    v * 2.0\n}\n"),
        ("src/lib.rs", "pub use errflow_tensor::fixture::scale;\n"),
    ]);
    assert_eq!(names(&found), ["pub fn scale"]);
}

#[test]
fn self_recursion_only_is_a_finding() {
    let src = "pub fn fact(n: u64) -> u64 {\n    if n == 0 { 1 } else { n * fact(n - 1) }\n}\n";
    assert_eq!(names(&dead(&[(LIB, src)])), ["pub fn fact"]);
}

#[test]
fn a_qualifier_the_resolver_rules_out_is_no_reference() {
    let src = "pub struct A;\npub struct B;\n\
               impl A {\n    pub fn new() -> A {\n        A\n    }\n    pub fn size(&self) -> usize {\n        1\n    }\n}\n\
               impl B {\n    pub fn size() -> usize {\n        2\n    }\n}\n";
    // `B::size` names B's associated fn, not A's method.
    let caller = "fn main() {\n    let _ = A::new();\n    let _ = B::size();\n}\n";
    assert_eq!(
        names(&dead(&[(LIB, src), ("src/bin/tool.rs", caller)])),
        ["pub fn A::size"]
    );
    // `Self::size` inside `impl A` does name A's.
    let src_self = src.replace(
        "        A\n    }",
        "        let _ = Self::size(&A);\n        A\n    }",
    );
    assert!(dead(&[(LIB, &src_self), ("src/bin/tool.rs", caller)]).is_empty());
}

#[test]
fn waiver_marks_the_finding_waived() {
    let src = "// audit:allow(dead-pub) the tests' oracle\n\
               /// Doubles `v`.\n#[inline]\npub fn scale(v: f32) -> f32 {\n    v * 2.0\n}\n";
    let found = dead(&[(LIB, src)]);
    assert_eq!(names(&found), ["pub fn scale"]);
    assert!(found[0].waived);
}

#[test]
fn restricted_visibility_and_test_only_items_are_ignored() {
    let src = "pub(crate) fn scale(v: f32) -> f32 {\n    v * 2.0\n}\n\
               pub(super) const K: u32 = 3;\n\
               #[cfg(test)]\npub fn probe() -> u32 {\n    1\n}\n\
               fn private() {}\n";
    assert!(dead(&[(LIB, src)]).is_empty());
}

#[test]
fn const_and_static_items_are_checked() {
    let src = "pub const UNUSED: u32 = 1;\npub static mut COUNTER: u64 = 0;\n";
    assert_eq!(
        names(&dead(&[(LIB, src)])),
        ["pub const UNUSED", "pub static COUNTER"]
    );
}

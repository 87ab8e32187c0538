//! Workspace walking, report rendering (human + JSON), and the per-rule
//! ratchet baselines for the soft (graph) rules.

use crate::rules::{self, Finding};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never descended into. The audit fixtures are deliberately-bad
/// snippets and must not be linted as workspace source.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "node_modules", "fixtures"];

/// Collects every auditable `.rs` file under `root`, sorted for stable
/// reports, as (workspace-relative path, contents).
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = rel_path(root, &path);
        if rules::classify(&rel) == rules::FileClass::Other {
            continue;
        }
        out.push((rel, fs::read_to_string(&path)?));
    }
    Ok(out)
}

fn rel_path(root: &Path, path: &PathBuf) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Audits every source file under `root` as one workspace (the call-graph
/// rules see cross-file edges); `strict_panics` as in [`rules::audit_files`].
pub fn audit_tree(root: &Path, strict_panics: bool) -> std::io::Result<Vec<Finding>> {
    let files = collect_sources(root)?;
    Ok(rules::audit_files(&files, strict_panics))
}

/// Per-rule counts of unwaived and waived findings.
pub fn counts(findings: &[Finding]) -> BTreeMap<&'static str, (usize, usize)> {
    let mut map: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for rule in rules::ALL_RULES {
        map.insert(rule, (0, 0));
    }
    for f in findings {
        let e = map.entry(f.rule).or_insert((0, 0));
        if f.waived {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }
    map
}

pub fn render_human(findings: &[Finding], ratchet: &Ratchet, explain: bool) -> String {
    let mut out = String::new();
    let counts = counts(findings);
    out.push_str("errflow-audit report\n");
    for (rule, (open, waived)) in &counts {
        let baseline = if rules::SOFT_RULES.contains(rule) {
            format!(" (ratchet baseline {})", ratchet.baseline(rule))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  {rule:<22} {open} findings, {waived} waived{baseline}\n"
        ));
    }
    for f in findings {
        let tag = if f.waived { " [waived]" } else { "" };
        out.push_str(&format!(
            "{}:{} [{}]{} {}\n",
            f.file, f.line, f.rule, tag, f.message
        ));
        if explain && !f.chain.is_empty() {
            out.push_str("    chain:");
            for (i, hop) in f.chain.iter().enumerate() {
                let arrow = if i == 0 { " " } else { " -> " };
                out.push_str(&format!("{arrow}{} ({}:{})", hop.func, hop.file, hop.line));
            }
            out.push('\n');
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON report, schema version 2.  Key order is fixed (`version`,
/// `findings`, `counts`, `ratchet`; per-finding `rule`, `file`, `line`,
/// `waived`, `message`, `chain`) so downstream tooling can golden-test it.
pub fn render_json(findings: &[Finding], ratchet: &Ratchet) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        let chain: Vec<String> = f
            .chain
            .iter()
            .map(|h| {
                format!(
                    "{{\"file\": \"{}\", \"line\": {}, \"func\": \"{}\"}}",
                    json_escape(&h.file),
                    h.line,
                    json_escape(&h.func)
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"waived\": {}, \"message\": \"{}\", \"chain\": [{}]}}{}\n",
            f.rule,
            json_escape(&f.file),
            f.line,
            f.waived,
            json_escape(&f.message),
            chain.join(", "),
            comma
        ));
    }
    out.push_str("  ],\n  \"counts\": {\n");
    let counts = counts(findings);
    let n = counts.len();
    for (i, (rule, (open, waived))) in counts.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        out.push_str(&format!(
            "    \"{rule}\": {{\"open\": {open}, \"waived\": {waived}}}{comma}\n"
        ));
    }
    out.push_str("  },\n  \"ratchet\": {\n");
    let mut soft = rules::SOFT_RULES;
    soft.sort_unstable();
    for (i, rule) in soft.iter().enumerate() {
        let comma = if i + 1 < soft.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{rule}\": {}{comma}\n",
            ratchet.baseline(rule)
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// The checked-in ratchet baseline: per-rule maximum unwaived finding counts.
/// `--check` fails when a ratcheted rule exceeds its baseline; shrink the
/// baseline (via `--update-ratchet`) whenever debt is paid down so the count
/// can only decrease.
#[derive(Debug, Default)]
pub struct Ratchet {
    baselines: BTreeMap<String, usize>,
}

impl Ratchet {
    pub fn baseline(&self, rule: &str) -> usize {
        self.baselines.get(rule).copied().unwrap_or(0)
    }

    pub fn set(&mut self, rule: &str, value: usize) {
        self.baselines.insert(rule.to_string(), value);
    }

    /// Parses the minimal `{"rule": count, ...}` JSON object this tool writes.
    pub fn parse(text: &str) -> Option<Ratchet> {
        let mut baselines = BTreeMap::new();
        let mut rest = text;
        while let Some(q) = rest.find('"') {
            rest = &rest[q + 1..];
            let end = rest.find('"')?;
            let key = &rest[..end];
            rest = &rest[end + 1..];
            let colon = rest.find(':')?;
            rest = &rest[colon + 1..];
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if digits.is_empty() {
                return None;
            }
            baselines.insert(key.to_string(), digits.parse().ok()?);
        }
        Some(Ratchet { baselines })
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let n = self.baselines.len();
        for (i, (rule, count)) in self.baselines.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            out.push_str(&format!("  \"{rule}\": {count}{comma}\n"));
        }
        out.push('}');
        out.push('\n');
        out
    }
}

/// Outcome of `--check`: violations that should fail CI, and improvement
/// notices (count strictly below baseline → the baseline should be ratcheted
/// down, but that is advice, not failure).
pub struct CheckOutcome {
    pub violations: Vec<String>,
    pub notices: Vec<String>,
}

pub fn check(findings: &[Finding], ratchet: &Ratchet) -> CheckOutcome {
    let mut violations = Vec::new();
    let mut notices = Vec::new();
    for (rule, (open, waived)) in counts(findings) {
        if rules::is_hard_rule(rule) {
            if open + waived > 0 {
                violations.push(format!(
                    "rule {rule}: {} finding(s) — this rule accepts no waivers",
                    open + waived
                ));
            }
        } else {
            let baseline = ratchet.baseline(rule);
            if open > baseline {
                violations.push(format!(
                    "rule {rule}: {open} unwaived finding(s) exceed the ratchet baseline of {baseline}"
                ));
            } else if open < baseline {
                notices.push(format!(
                    "rule {rule}: {open} finding(s), below baseline {baseline} — run --update-ratchet to lock in the improvement"
                ));
            }
        }
    }
    CheckOutcome {
        violations,
        notices,
    }
}

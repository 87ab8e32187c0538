//! Rule engine: per-file lexical rules (test spans, fn bodies, allow
//! annotations) plus orchestration of the phase-2 graph analyses.
//!
//! Rule identifiers are stable strings — they appear in reports, in
//! `// audit:allow(<rule>)` annotations, and as keys in the ratchet file.

use crate::callgraph::{self, fn_digraph, CallGraph};
use crate::graph::Digraph;
use crate::lexer::{lex, Lexed, TokKind};
use crate::locks;
use std::collections::HashMap;

pub const RULE_SAFETY: &str = "safety-comment";
pub const RULE_UNCHECKED: &str = "unchecked-contract";
pub const RULE_PANIC_REACH: &str = "panic-reach";
pub const RULE_HEADER_CAST: &str = "unchecked-header-cast";
pub const RULE_THREADS: &str = "thread-discipline";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_POOL_BLOCK: &str = "pool-blocking";
pub const RULE_HOT_PROBE: &str = "hot-path-probe";

pub const ALL_RULES: [&str; 8] = [
    RULE_SAFETY,
    RULE_UNCHECKED,
    RULE_PANIC_REACH,
    RULE_HEADER_CAST,
    RULE_THREADS,
    RULE_LOCK_ORDER,
    RULE_POOL_BLOCK,
    RULE_HOT_PROBE,
];

/// Graph-analysis rules: waivable with `audit:allow`, ratcheted in
/// `AUDIT_RATCHET.json` (the unwaived count may only decrease).
pub const SOFT_RULES: [&str; 4] = [
    RULE_PANIC_REACH,
    RULE_LOCK_ORDER,
    RULE_POOL_BLOCK,
    RULE_HOT_PROBE,
];

/// Rules where a finding — waived or not — fails `--check`. Only the soft
/// (graph) rules accept `audit:allow` annotations; the unsafe/untrusted-input
/// rules must be satisfied structurally.
pub fn is_hard_rule(rule: &str) -> bool {
    !SOFT_RULES.contains(&rule)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `src/*.rs` of a library crate (and the root crate).
    Lib,
    /// `src/bin/*.rs`.
    Bin,
    /// `examples/` or `benches/`.
    Aux,
    /// Integration tests under `tests/`.
    Test,
    Other,
}

pub fn classify(rel: &str) -> FileClass {
    let rel = rel.trim_start_matches("./");
    if rel.contains("/tests/") || rel.starts_with("tests/") {
        FileClass::Test
    } else if rel.contains("/examples/")
        || rel.starts_with("examples/")
        || rel.contains("/benches/")
        || rel.starts_with("benches/")
    {
        FileClass::Aux
    } else if rel.contains("src/bin/") {
        FileClass::Bin
    } else if rel.contains("/src/") || rel.starts_with("src/") {
        FileClass::Lib
    } else {
        FileClass::Other
    }
}

/// One step of a call-chain trace: where a function (or lock-order edge)
/// on the path to a finding lives.
#[derive(Debug, Clone)]
pub struct Hop {
    pub file: String,
    pub line: u32,
    pub func: String,
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// True when an `// audit:allow(rule)` annotation covers the site. Waived
    /// findings are excluded from ratchet counts but still reported, and they
    /// are still fatal for hard rules.
    pub waived: bool,
    /// For graph rules: the entry-point→site call chain (empty for per-file
    /// lexical rules).  Rendered by `--explain` and always present in JSON.
    pub chain: Vec<Hop>,
}

/// Span of a function body as a token-index range `[open_brace, close_brace]`.
struct FnSpan {
    name: String,
    body: (usize, usize),
}

struct FileCtx<'a> {
    rel: &'a str,
    lx: &'a Lexed<'a>,
    class: FileClass,
    /// Token-index ranges covered by `#[cfg(test)] mod ... { }`.
    test_spans: Vec<(usize, usize)>,
    fns: Vec<FnSpan>,
    /// Line → rules waived on that line and the next.
    allows: HashMap<u32, Vec<String>>,
}

impl<'a> FileCtx<'a> {
    fn in_test(&self, tok: usize) -> bool {
        self.class == FileClass::Test || self.test_spans.iter().any(|&(a, b)| tok >= a && tok <= b)
    }

    /// Innermost function body containing token `tok`.
    fn enclosing_fn(&self, tok: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| tok >= f.body.0 && tok <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    fn waived(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|rs| rs.iter().any(|r| r == rule))
        })
    }

    /// True when some comment containing `needle` ends within `window` lines
    /// above (or on) `line`.
    fn comment_near(&self, needle: &str, line: u32, window: u32) -> bool {
        self.lx.comments.iter().any(|c| {
            c.end_line <= line
                && c.end_line + window >= line
                && self.lx.comment_text(c).contains(needle)
        })
    }
}

/// Finds the matching close brace for the open brace at token `open`.
fn match_brace(lx: &Lexed, open: usize) -> usize {
    let mut depth = 0usize;
    for i in open..lx.tokens.len() {
        match lx.tokens[i].kind {
            TokKind::Punct(b'{') => depth += 1,
            TokKind::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    lx.tokens.len().saturating_sub(1)
}

fn build_ctx<'a>(rel: &'a str, lx: &'a Lexed<'a>, class: FileClass) -> FileCtx<'a> {
    // #[cfg(test)] mod spans: `#` `[` ... cfg ... test ... `]` then (more
    // attributes) then `mod name {`.
    let mut test_spans = Vec::new();
    let n = lx.tokens.len();
    let mut i = 0usize;
    while i < n {
        if lx.is_punct(i, b'#') && lx.is_punct(i + 1, b'[') {
            // Find matching `]`.
            let mut depth = 0usize;
            let mut close = i + 1;
            let mut saw_cfg = false;
            let mut saw_test = false;
            for j in i + 1..n {
                match lx.tokens[j].kind {
                    TokKind::Punct(b'[') => depth += 1,
                    TokKind::Punct(b']') => {
                        depth -= 1;
                        if depth == 0 {
                            close = j;
                            break;
                        }
                    }
                    TokKind::Ident => {
                        let t = lx.text(j);
                        saw_cfg |= t == "cfg";
                        saw_test |= t == "test";
                    }
                    _ => {}
                }
            }
            if saw_cfg && saw_test {
                // Skip any further attributes, then expect `mod name {`.
                let mut k = close + 1;
                while lx.is_punct(k, b'#') && lx.is_punct(k + 1, b'[') {
                    let mut d = 0usize;
                    while k < n {
                        match lx.tokens[k].kind {
                            TokKind::Punct(b'[') => d += 1,
                            TokKind::Punct(b']') => {
                                d -= 1;
                                if d == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                if lx.is_ident(k, "mod") {
                    let mut open = k + 1;
                    while open < n && !lx.is_punct(open, b'{') {
                        if lx.is_punct(open, b';') {
                            break; // out-of-line module
                        }
                        open += 1;
                    }
                    if lx.is_punct(open, b'{') {
                        test_spans.push((i, match_brace(lx, open)));
                    }
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }

    // Function spans: `fn` + ident name, scan to the first `{` at paren depth
    // zero (a `;` first means a bodiless trait/extern decl). `fn` followed by
    // `(` is a function-pointer type, not a declaration.
    let mut fns = Vec::new();
    for i in 0..n {
        if lx.is_ident(i, "fn")
            && matches!(lx.tokens.get(i + 1), Some(t) if t.kind == TokKind::Ident)
        {
            let name = lx.text(i + 1).to_string();
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < n {
                match lx.tokens[j].kind {
                    TokKind::Punct(b'(') => depth += 1,
                    TokKind::Punct(b')') => depth -= 1,
                    TokKind::Punct(b';') if depth == 0 => break,
                    TokKind::Punct(b'{') if depth == 0 => {
                        fns.push(FnSpan {
                            name,
                            body: (j, match_brace(lx, j)),
                        });
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }

    // `// audit:allow(rule-a, rule-b) reason` annotations.  The reason may
    // wrap over several comment lines; the waiver attaches to the *end* of
    // the contiguous comment block so it covers the line right below it.
    let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
    for (ci, c) in lx.comments.iter().enumerate() {
        let text = lx.comment_text(c);
        if let Some(at) = text.find("audit:allow(") {
            if let Some(close) = text[at..].find(')') {
                let inner = &text[at + "audit:allow(".len()..at + close];
                let rules: Vec<String> = inner
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let mut end = c.end_line;
                for next in &lx.comments[ci + 1..] {
                    if next.line == end + 1 {
                        end = next.end_line;
                    } else {
                        break;
                    }
                }
                allows.entry(end).or_default().extend(rules);
            }
        }
    }

    FileCtx {
        rel,
        lx,
        class,
        test_spans,
        fns,
        allows,
    }
}

/// Runs the full engine against one source file — the per-file lexical rules
/// plus the graph analyses restricted to this file's own call graph.  `rel`
/// must be the workspace-relative path with `/` separators — rule scoping
/// keys off it.
pub fn audit_source(rel: &str, src: &str) -> Vec<Finding> {
    audit_files(&[(rel.to_string(), src.to_string())])
}

/// Runs every rule across a set of files as one workspace: phase 1 extracts
/// the symbol table and call graph, phase 2 runs the graph analyses, and the
/// per-file lexical rules run alongside.  Findings are sorted by
/// (file, line, rule) for stable reports.
pub fn audit_files(files: &[(String, String)]) -> Vec<Finding> {
    audit_files_opts(files, false)
}

/// [`audit_files`] with `strict_panics`: when set, indexing/slicing sites
/// (`buf[i]`) count as panic-capable too.  Off by default — the workspace
/// convention is that index invariants are covered by `debug_assert!`
/// contracts, and flagging every slice access would drown the signal.
pub fn audit_files_opts(files: &[(String, String)], strict_panics: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for (rel, src) in files {
        let lx = lex(src);
        let class = classify(rel);
        let ctx = build_ctx(rel, &lx, class);
        rule_safety_comment(&ctx, &mut out);
        rule_unchecked_contract(&ctx, &mut out);
        rule_header_cast(&ctx, &mut out);
        rule_thread_discipline(&ctx, &mut out);
    }
    let cg = callgraph::build(files);
    rule_panic_reach(&cg, strict_panics, &mut out);
    locks::analyze(&cg, &mut out);
    rule_hot_path_probe(&cg, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

fn push(ctx: &FileCtx, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
    out.push(Finding {
        rule,
        file: ctx.rel.to_string(),
        line,
        message,
        waived: ctx.waived(rule, line),
        chain: Vec::new(),
    });
}

/// Rule 1: every `unsafe` block / fn / impl / trait carries an adjacent
/// `// SAFETY:` justification (a `# Safety` doc section also satisfies it
/// for `unsafe fn` declarations). `unsafe fn(..)` pointer *types* are not
/// declaration sites and are skipped.
fn rule_safety_comment(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !matches!(ctx.class, FileClass::Lib | FileClass::Bin | FileClass::Aux) {
        return;
    }
    let lx = ctx.lx;
    for i in 0..lx.tokens.len() {
        if !lx.is_ident(i, "unsafe") || ctx.in_test(i) {
            continue;
        }
        let what = if lx.is_punct(i + 1, b'{') {
            "unsafe block"
        } else if lx.is_ident(i + 1, "impl") {
            "unsafe impl"
        } else if lx.is_ident(i + 1, "trait") {
            "unsafe trait"
        } else if lx.is_ident(i + 1, "fn")
            && matches!(lx.tokens.get(i + 2), Some(t) if t.kind == TokKind::Ident)
        {
            "unsafe fn"
        } else if lx.is_ident(i + 1, "extern") {
            "unsafe extern"
        } else {
            continue; // `unsafe fn(..)` pointer type or similar
        };
        let line = lx.tokens[i].line;
        let justified = ctx.comment_near("SAFETY:", line, 6)
            || (what == "unsafe fn" && ctx.comment_near("# Safety", line, 8));
        if !justified {
            push(
                ctx,
                out,
                RULE_SAFETY,
                line,
                format!("{what} without an adjacent `// SAFETY:` justification"),
            );
        }
    }
}

/// Rule 2: `*_unchecked` call sites in compress/tensor must have a
/// `debug_assert!` contract in the enclosing function or a `SAFETY:` note
/// immediately above the call. Definitions (`fn foo_unchecked`) are exempt —
/// the contract belongs at the call site.
fn rule_unchecked_contract(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let scoped =
        ctx.rel.starts_with("crates/compress/src") || ctx.rel.starts_with("crates/tensor/src");
    if !scoped || ctx.class != FileClass::Lib {
        return;
    }
    let lx = ctx.lx;
    for i in 0..lx.tokens.len() {
        let t = &lx.tokens[i];
        if t.kind != TokKind::Ident || !lx.text(i).ends_with("_unchecked") || ctx.in_test(i) {
            continue;
        }
        if i > 0 && lx.is_ident(i - 1, "fn") {
            continue; // definition, not a call
        }
        // Call syntax: `name(` or `name::<..>(`.
        if !(lx.is_punct(i + 1, b'(') || lx.is_punct(i + 1, b':')) {
            continue;
        }
        let has_contract = match ctx.enclosing_fn(i) {
            Some(f) => (f.body.0..=f.body.1).any(|j| {
                lx.tokens[j].kind == TokKind::Ident && lx.text(j).starts_with("debug_assert")
            }),
            None => false,
        };
        if !has_contract && !ctx.comment_near("SAFETY:", t.line, 3) {
            push(
                ctx,
                out,
                RULE_UNCHECKED,
                t.line,
                format!(
                    "`{}` call without a debug_assert! contract in the enclosing fn or an adjacent SAFETY note",
                    lx.text(i)
                ),
            );
        }
    }
}

/// Library paths whose every public-facing function is an analysis entry
/// point for panic-reachability: the serve/decode request paths, the frame
/// parsers facing untrusted bytes, observability (which must never take a
/// server down), and the nn/quant model paths.
const ENTRY_PATHS: [&str; 6] = [
    "crates/serve/src",
    "crates/compress/src",
    "crates/obs/src",
    "crates/net/src",
    "crates/nn/src",
    "crates/quant/src",
];

/// Tooling crates whose panic sites never fire: the audit tool itself and
/// the bench harness are developer-facing, not on any serving path.
const TOOL_PATHS: [&str; 2] = ["crates/audit/src", "crates/bench/src"];

/// Rule 3 (ratcheted): interprocedural panic-reachability.  Every non-test
/// library function in an [`ENTRY_PATHS`] crate is an entry point; panic
/// sites (`unwrap`/`expect`/`panic!`-family, plus indexing under
/// `--strict-panics`) fire in any library function reachable from an entry
/// through the approximate call graph — including helpers in `tensor`,
/// `core`, `pipeline`, and `scidata` that the entry crates call into.
/// Sites may be waived with `// audit:allow(panic-reach) reason`.
fn rule_panic_reach(cg: &CallGraph, strict_panics: bool, out: &mut Vec<Finding>) {
    let g = fn_digraph(cg);
    let seeds: Vec<u32> = (0..cg.fns.len())
        .filter(|&i| {
            let file = cg.file_of(i);
            !cg.fns[i].is_test
                && file.class == FileClass::Lib
                && ENTRY_PATHS.iter().any(|p| file.rel.starts_with(p))
        })
        .map(|i| i as u32)
        .collect();
    let parents = g.bfs_parents(&seeds);
    for (i, f) in cg.fns.iter().enumerate() {
        if parents[i].is_none() || f.is_test {
            continue;
        }
        let file = cg.file_of(i);
        if file.class != FileClass::Lib || TOOL_PATHS.iter().any(|p| file.rel.starts_with(p)) {
            continue;
        }
        for site in &f.panics {
            if site.indexing && !strict_panics {
                continue;
            }
            let chain: Vec<Hop> = Digraph::path_to(&parents, i as u32)
                .into_iter()
                .map(|v| Hop {
                    file: cg.file_of(v as usize).rel.clone(),
                    line: cg.fns[v as usize].line,
                    func: cg.fns[v as usize].name.clone(),
                })
                .collect();
            let via = if chain.len() > 1 {
                format!(" (reachable from entry `{}`)", chain[0].func)
            } else {
                String::new()
            };
            out.push(Finding {
                rule: RULE_PANIC_REACH,
                file: file.rel.clone(),
                line: site.line,
                message: format!(
                    "`{}` reachable from a library entry point{via} — return a typed error or annotate with audit:allow(panic-reach)",
                    site.what
                ),
                waived: cg.waived(i, RULE_PANIC_REACH, site.line),
                chain,
            });
        }
    }
}

/// The per-request loops: `(file suffix, function)` of the serve worker's
/// batch chain and the net frontend's io thread.
const HOT_ROOTS: [(&str, &str); 2] = [
    ("crates/serve/src/server.rs", "serve_batch"),
    ("crates/net/src/server.rs", "io_loop"),
];

/// Rule 8 (ratcheted): nothing reachable from a [`HOT_ROOTS`] function asks
/// the OS what a process constant could answer — an environment lookup,
/// `available_parallelism` (a `sched_getaffinity` plus the cgroup files,
/// ≈ 14 µs) or a `std::fs` call.  One such call per batch was three
/// quarters of a small payload's decompress stage.  A site inside a
/// `get_or_init` / `call_once` argument list runs once and is not a
/// finding; neither is anything only called from one.
fn rule_hot_path_probe(cg: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<u32> = (0..cg.fns.len())
        .filter(|&i| {
            let f = &cg.fns[i];
            !f.is_test
                && HOT_ROOTS
                    .iter()
                    .any(|&(file, name)| f.name == name && cg.file_of(i).rel.ends_with(file))
        })
        .map(|i| i as u32)
        .collect();
    let mut g = Digraph::new(cg.fns.len());
    for (i, f) in cg.fns.iter().enumerate() {
        for &(t, line) in &cg.callees[i] {
            // An edge carries (line, callee), not the call itself: it goes
            // only when every call of that name on that line is inside an
            // initialiser, so `f() + *C.get_or_init(f)` keeps its edge.
            let callee = &cg.fns[t as usize].name;
            let mut same = f
                .calls
                .iter()
                .filter(|c| c.line == line && &c.name == callee)
                .peekable();
            if same.peek().is_none() || !same.all(|c| c.once_init) {
                g.add_edge(i as u32, t);
            }
        }
    }
    let parents = g.bfs_parents(&roots);
    for (i, f) in cg.fns.iter().enumerate() {
        if parents[i].is_none() || f.is_test || cg.file_of(i).class != FileClass::Lib {
            continue;
        }
        for site in &f.probes {
            out.push(Finding {
                rule: RULE_HOT_PROBE,
                file: cg.file_of(i).rel.clone(),
                line: site.line,
                message: format!(
                    "`{}` on a per-request path — resolve it once (OnceLock::get_or_init) and read the cached value",
                    site.what
                ),
                waived: cg.waived(i, RULE_HOT_PROBE, site.line),
                chain: locks::fn_chain(cg, &parents, i as u32),
            });
        }
    }
}

const HEADER_READ_TRIGGERS: [&str; 6] = [
    "from_le_bytes",
    "from_be_bytes",
    "read_u64",
    "read_u32",
    "read_u16",
    "read_varint",
];

/// Rule 4: inside codec decode/parse functions in `compress/src`, a raw
/// `as usize` cast in the same statement as a header-field read is flagged —
/// untrusted counts must flow through the checked helpers in `traits.rs`
/// before they are used for indexing or allocation. `reference.rs` (the
/// frozen seed-parity oracle) is out of scope by configuration.
fn rule_header_cast(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.rel.starts_with("crates/compress/src")
        || ctx.class != FileClass::Lib
        || ctx.rel.ends_with("/reference.rs")
    {
        return;
    }
    let lx = ctx.lx;
    for f in &ctx.fns {
        let lower = f.name.to_lowercase();
        if !(lower.contains("decode") || lower.contains("decompress") || lower.contains("parse")) {
            continue;
        }
        for i in f.body.0..=f.body.1 {
            if !(lx.is_ident(i, "as") && lx.is_ident(i + 1, "usize")) || ctx.in_test(i) {
                continue;
            }
            // Scan back to the start of the statement and look for a read.
            let mut j = i;
            let mut tainted = false;
            while j > f.body.0 {
                j -= 1;
                match lx.tokens[j].kind {
                    TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}') => break,
                    TokKind::Ident => {
                        if HEADER_READ_TRIGGERS.contains(&lx.text(j)) {
                            tainted = true;
                        }
                    }
                    _ => {}
                }
            }
            if tainted {
                push(
                    ctx,
                    out,
                    RULE_HEADER_CAST,
                    lx.tokens[i].line,
                    format!(
                        "raw `as usize` on a header read in `{}` — use the checked helpers in compress::traits",
                        f.name
                    ),
                );
            }
        }
    }
}

/// Rule 5: no `std::thread::spawn` / `thread::Builder` outside
/// `tensor/src/pool.rs`. Scoped `thread::scope` spawns are allowed — they
/// are joined before the caller returns.
fn rule_thread_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.rel.ends_with("tensor/src/pool.rs")
        || !matches!(ctx.class, FileClass::Lib | FileClass::Bin | FileClass::Aux)
    {
        return;
    }
    let lx = ctx.lx;
    for i in 3..lx.tokens.len() {
        let text = match lx.tokens[i].kind {
            TokKind::Ident => lx.text(i),
            _ => continue,
        };
        if !(text == "spawn" || text == "Builder") || ctx.in_test(i) {
            continue;
        }
        let path_call =
            lx.is_punct(i - 1, b':') && lx.is_punct(i - 2, b':') && lx.is_ident(i - 3, "thread");
        if path_call {
            push(
                ctx,
                out,
                RULE_THREADS,
                lx.tokens[i].line,
                format!("`thread::{text}` outside tensor/src/pool.rs — route work through the shared pool"),
            );
        }
    }
}

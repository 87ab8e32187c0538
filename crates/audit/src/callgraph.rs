//! Phase 1 of the audit engine: workspace symbol table and approximate call
//! graph, extracted straight from the lexer token stream (no syn, no deps).
//!
//! Per file we record every function definition (including the enclosing
//! `impl` type), and per function: the calls it makes, its panic-capable
//! sites, its lexical lock-acquisition sequence with the set of locks held
//! at each point, its blocking operations, and its machine probes (env
//! and filesystem reads outside a once-initialiser).  Closures passed to
//! `parallel_for` are carved out as synthetic "job" functions so the
//! pool-blocking rule can treat them as analysis roots.
//!
//! The graph is *approximate* by design — see DESIGN.md §14 for the
//! over/under-approximations.  The two load-bearing choices:
//!
//! * **Name-based resolution.**  A call resolves to every workspace function
//!   with a matching name (filtered by the `Type::` qualifier when present,
//!   with `Self::` rewritten to the caller's impl type).  Method calls whose
//!   names collide with ubiquitous std-collection methods (`push`, `get`,
//!   `len`, …) are dropped instead of linking half the workspace together.
//! * **Lexical guard scopes.**  A `let`-bound lock guard is held from its
//!   acquisition to the end of the enclosing block, ended early by
//!   `drop(guard)` or by a condvar wait that consumes it; a temporary guard
//!   is held to the end of its statement.

use crate::graph::Digraph;
use crate::lexer::{Lexed, TokKind};
use crate::rules::{classify, FileClass};
use std::collections::HashMap;

/// Method names too generic to resolve by name: linking every `.push(` to
/// every workspace `fn push` would collapse the graph into one blob.  Calls
/// through these names are silently unresolved (a documented
/// under-approximation); `Type::name` qualified calls still resolve.
const COMMON_METHODS: [&str; 40] = [
    "new",
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "drain",
    "extend",
    "append",
    "take",
    "swap",
    "truncate",
    "resize",
    "contains",
    "split",
    "first",
    "last",
    "min",
    "max",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "ok_or",
    "ok_or_else",
    "as_ref",
    "as_mut",
    "to_vec",
    "to_string",
    "cmp",
    "eq",
];

/// Rust keywords that look like free calls when followed by `(`.
const KEYWORDS: [&str; 30] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "fn", "let", "mut", "ref", "move",
    "impl", "pub", "use", "mod", "where", "unsafe", "async", "await", "dyn", "break", "continue",
    "else", "enum", "struct", "trait", "type", "const",
];

/// Condvar wait family: consumes the guard passed to it (the lock is
/// released while parked), and parks the calling thread.
const WAIT_FNS: [&str; 5] = [
    "wait",
    "wait_timeout",
    "wait_recover",
    "wait_while",
    "wait_timeout_while",
];

/// Blocking operations recognised lexically.  `lock_only` entries only count
/// when a lock is held (e.g. `send` blocks only on a rendezvous/bounded
/// channel, so it is not flagged on pool paths where it is usually the
/// completion hand-off).
const BLOCKING_METHODS: [(&str, bool); 8] = [
    ("recv", false),
    ("recv_timeout", false),
    ("join", false),
    ("accept", false),
    ("connect", false),
    ("read_to_string", false),
    ("read_to_end", false),
    ("send", true),
];
const BLOCKING_FREE: [(&str, bool); 3] = [("sleep", false), ("poll", false), ("open", false)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(` — receiver type unknown.
    Method,
    /// `name(` with no path or receiver.
    Free,
    /// `Qual::name(`.
    Path,
}

#[derive(Debug, Clone)]
pub struct CallRef {
    pub name: String,
    pub qual: Option<String>,
    pub kind: CallKind,
    pub line: u32,
    /// Lock identities held lexically at the call site.
    pub held: Vec<String>,
    /// Made inside a `get_or_init` / `call_once` argument list: it runs
    /// once per process, whatever calls the enclosing function.
    pub once_init: bool,
}

#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The token that can panic (`unwrap`, `panic`, `[]`, …).
    pub what: String,
    pub line: u32,
    /// True for indexing/slicing sites — only reported under
    /// `--strict-panics` (they panic in debug paths on out-of-bounds).
    pub indexing: bool,
}

#[derive(Debug, Clone)]
pub struct Acquire {
    /// Lock identity: `<crate>:<last receiver field>`.
    pub lock: String,
    pub line: u32,
    /// Locks already held when this one is acquired (lock-order edges).
    pub held: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct BlockOp {
    pub what: String,
    pub line: u32,
    pub held: Vec<String>,
    /// Only a hazard while a lock is held (see [`BLOCKING_METHODS`]).
    pub lock_only: bool,
}

/// A question put to the OS that a cached value could answer: an
/// environment lookup, `available_parallelism` (affinity mask plus cgroup
/// files) or anything under `std::fs`.  Sites inside a `get_or_init` /
/// `call_once` argument list are not recorded.
///
/// Both sides are lexical, and their limits are known:
/// - the exemption reads the method name only, so `.get_or_init(…)` on a
///   per-request `OnceCell` local is exempt although it runs per request;
/// - the `fs` sink is any `fs::` path segment in a body (not after a `.`),
///   so a `use std::fs::File` inside a fn, or a user module named `fs`,
///   is recorded as a probe.  Waive those with `audit:allow`.
#[derive(Debug, Clone)]
pub struct ProbeSite {
    pub what: String,
    pub line: u32,
}

#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    /// Enclosing `impl` type, when any.
    pub qual: Option<String>,
    pub file: usize,
    pub line: u32,
    pub is_test: bool,
    /// Synthetic function for a closure passed to `parallel_for`.
    pub job_root: bool,
    pub calls: Vec<CallRef>,
    pub panics: Vec<PanicSite>,
    pub acquires: Vec<Acquire>,
    pub blocks: Vec<BlockOp>,
    pub probes: Vec<ProbeSite>,
}

#[derive(Debug)]
pub struct FileFacts {
    pub rel: String,
    pub class: FileClass,
    /// Line → rules waived on that line and the next (audit:allow).
    pub allows: HashMap<u32, Vec<String>>,
}

/// The resolved workspace call graph: phase-2 analyses run over this.
pub struct CallGraph {
    pub fns: Vec<FnInfo>,
    pub files: Vec<FileFacts>,
    /// Resolved call edges per function, with the call line in the caller.
    pub callees: Vec<Vec<(u32, u32)>>,
}

impl CallGraph {
    pub fn file_of(&self, f: usize) -> &FileFacts {
        &self.files[self.fns[f].file]
    }

    /// True when `rule` is waived at `line` of the file containing fn `f`.
    pub fn waived(&self, f: usize, rule: &str, line: u32) -> bool {
        let allows = &self.file_of(f).allows;
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| allows.get(l).is_some_and(|rs| rs.iter().any(|r| r == rule)))
    }
}

/// The function-level digraph (edges caller → callee) for BFS analyses.
pub fn fn_digraph(cg: &CallGraph) -> Digraph {
    let mut g = Digraph::new(cg.fns.len());
    for (i, edges) in cg.callees.iter().enumerate() {
        for &(t, _) in edges {
            g.add_edge(i as u32, t);
        }
    }
    g
}

/// Builds the workspace call graph from `(relative path, source)` pairs and
/// their token streams (`lexed[i]` is `files[i]` lexed).
pub fn build(files: &[(String, String)], lexed: &[Lexed]) -> CallGraph {
    let mut fns = Vec::new();
    let mut facts = Vec::new();
    for (idx, ((rel, _), lx)) in files.iter().zip(lexed).enumerate() {
        let class = classify(rel);
        let crate_name = crate_of(rel);
        extract_file(idx, rel, lx, class, crate_name, &mut fns, &mut facts);
    }
    let callees = resolve(&fns);
    CallGraph {
        fns,
        files: facts,
        callees,
    }
}

/// `crates/<name>/… → name`, everything else → `root`.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root")
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

pub(crate) struct Span {
    pub(crate) name: String,
    qual: Option<String>,
    line: u32,
    /// Token range `[open_brace, close_brace]` of the body.
    pub(crate) body: (usize, usize),
    job_root: bool,
}

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

/// Token ranges compiled only under test: a `#[cfg(test)]`-gated module or
/// item (any `cfg` attribute naming `test`), from the attribute to the
/// item's closing `}` or `;`.
pub(crate) fn test_spans(lx: &Lexed) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let n = lx.tokens.len();
    let mut i = 0usize;
    while i < n {
        if lx.is_punct(i, b'#') && lx.is_punct(i + 1, b'[') {
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
                let end = item_end(lx, k);
                if !(lx.is_ident(k, "mod") && lx.is_punct(end, b';')) {
                    // An out-of-line `mod name;` is a file of its own.
                    spans.push((i, end));
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Last token of the item starting at `start`: the `}` closing its first
/// top-level brace, or its terminating `;`, whichever comes first.
pub(crate) fn item_end(lx: &Lexed, start: usize) -> usize {
    let mut depth = 0i32;
    for j in start..lx.tokens.len() {
        match lx.tokens[j].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'{') if depth == 0 => return match_brace(lx, j),
            TokKind::Punct(b';') if depth == 0 => return j,
            _ => {}
        }
    }
    lx.tokens.len().saturating_sub(1)
}

/// An `impl` block: its body's token range and the implemented type's last
/// path segment (`impl Compressor for Huffman { … }` → `Huffman`).
pub(crate) struct ImplSpan {
    pub(crate) body: (usize, usize),
    pub(crate) ty: String,
}

/// The innermost `impl` block whose body contains token `tok`.
pub(crate) fn enclosing_impl(impls: &[ImplSpan], tok: usize) -> Option<&ImplSpan> {
    impls
        .iter()
        .filter(|s| tok >= s.body.0 && tok <= s.body.1)
        .min_by_key(|s| s.body.1 - s.body.0)
}

pub(crate) fn impl_spans(lx: &Lexed) -> Vec<ImplSpan> {
    let n = lx.tokens.len();
    let mut out = Vec::new();
    for i in 0..n {
        if !lx.is_ident(i, "impl") {
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list, tracking angle depth.
        if lx.is_punct(j, b'<') {
            let mut depth = 0i32;
            while j < n {
                match lx.tokens[j].kind {
                    TokKind::Punct(b'<') => depth += 1,
                    TokKind::Punct(b'>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Walk to the body `{`, remembering the last path segment seen and
        // whether a top-level `for` switched us to the implemented type.
        let mut ty: Option<String> = None;
        let mut angle = 0i32;
        while j < n {
            match lx.tokens[j].kind {
                TokKind::Punct(b'<') => angle += 1,
                TokKind::Punct(b'>') => angle -= 1,
                TokKind::Punct(b'{') if angle <= 0 => break,
                TokKind::Punct(b';') => break, // `impl Trait for Type;`-like degenerate
                TokKind::Ident if angle <= 0 => {
                    let t = lx.text(j);
                    if t == "for" {
                        ty = None; // the type after `for` wins
                    } else if t == "where" {
                        break;
                    } else if !matches!(t, "dyn" | "const" | "unsafe" | "mut") && ty.is_none() {
                        // First segment of the (trait or type) path; extend
                        // through `::`.
                        let mut k = j;
                        while lx.is_punct(k + 1, b':')
                            && lx.is_punct(k + 2, b':')
                            && matches!(lx.tokens.get(k + 3), Some(t) if t.kind == TokKind::Ident)
                        {
                            k += 3;
                        }
                        ty = Some(lx.text(k).to_string());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // `j` is at `{` (or past a degenerate impl): find the body.
        while j < n && !lx.is_punct(j, b'{') {
            j += 1;
        }
        if j < n {
            if let Some(ty) = ty {
                out.push(ImplSpan {
                    body: (j, match_brace(lx, j)),
                    ty,
                });
            }
        }
    }
    out
}

/// Named function spans (`fn name … { body }`).  `fn` followed by `(` is a
/// function-pointer type and a `;` before the body a bodiless declaration.
pub(crate) fn fn_spans(lx: &Lexed, impls: &[ImplSpan]) -> Vec<Span> {
    let n = lx.tokens.len();
    let mut out = Vec::new();
    for i in 0..n {
        if !(lx.is_ident(i, "fn")
            && matches!(lx.tokens.get(i + 1), Some(t) if t.kind == TokKind::Ident))
        {
            continue;
        }
        let name = lx.text(i + 1).to_string();
        let mut depth = 0i32;
        let mut j = i + 2;
        while j < n {
            match lx.tokens[j].kind {
                TokKind::Punct(b'(') => depth += 1,
                TokKind::Punct(b')') => depth -= 1,
                TokKind::Punct(b';') if depth == 0 => break,
                TokKind::Punct(b'{') if depth == 0 => {
                    let body = (j, match_brace(lx, j));
                    let qual = enclosing_impl(impls, j).map(|s| s.ty.clone());
                    out.push(Span {
                        name,
                        qual,
                        line: lx.tokens[i].line,
                        body,
                        job_root: false,
                    });
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// Closure bodies passed to `parallel_for` — synthetic job-root spans.  The
/// closure may be a literal last argument (`parallel_for(n, t, |i| { … })`,
/// with optional `move`/`&`) or a reference to a `let`-bound closure in the
/// enclosing function (`parallel_for(n, t, &decode_one)`).
fn job_spans(lx: &Lexed, fns: &[Span]) -> Vec<Span> {
    let n = lx.tokens.len();
    let mut out = Vec::new();
    for i in 0..n {
        if !lx.is_ident(i, "parallel_for") || !lx.is_punct(i + 1, b'(') {
            continue;
        }
        let line = lx.tokens[i].line;
        let close = {
            let mut depth = 0i32;
            let mut j = i + 1;
            loop {
                if j >= n {
                    break n - 1;
                }
                match lx.tokens[j].kind {
                    TokKind::Punct(b'(') => depth += 1,
                    TokKind::Punct(b')') => {
                        depth -= 1;
                        if depth == 0 {
                            break j;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        };
        // Find the start of the last top-level argument.
        let mut depth = 0i32;
        let mut arg_start = i + 2;
        for j in i + 1..close {
            match lx.tokens[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') | TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') | TokKind::Punct(b'}') => depth -= 1,
                TokKind::Punct(b',') if depth == 1 => arg_start = j + 1,
                _ => {}
            }
        }
        let body = closure_body(lx, arg_start, close, fns);
        if let Some(body) = body {
            out.push(Span {
                name: format!("[pool job @{line}]"),
                qual: None,
                line,
                body,
                job_root: true,
            });
        }
    }
    out
}

/// Resolves the token range of a closure body given the start of a
/// `parallel_for` job argument.
fn closure_body(
    lx: &Lexed,
    mut start: usize,
    call_close: usize,
    fns: &[Span],
) -> Option<(usize, usize)> {
    // Skip `&` and `move`.
    while lx.is_punct(start, b'&') || lx.is_ident(start, "move") {
        start += 1;
    }
    if lx.is_punct(start, b'|') {
        // Literal closure: skip the parameter list `|…|`, then expect `{`.
        let mut j = start + 1;
        while j < call_close && !lx.is_punct(j, b'|') {
            j += 1;
        }
        j += 1;
        if lx.is_punct(j, b'{') {
            return Some((j, match_brace(lx, j)));
        }
        // Expression closure `|i| expr`: span to the call's `)`.
        return Some((j, call_close.saturating_sub(1)));
    }
    if matches!(lx.tokens.get(start), Some(t) if t.kind == TokKind::Ident) {
        // `&name`: find `let name = … |…| { … }` in some function span.
        let want = lx.text(start);
        for f in fns {
            for k in f.body.0..f.body.1 {
                if lx.is_ident(k, "let") && lx.is_ident(k + 1, want) && lx.is_punct(k + 2, b'=') {
                    let mut j = k + 3;
                    while lx.is_punct(j, b'&') || lx.is_ident(j, "move") {
                        j += 1;
                    }
                    if lx.is_punct(j, b'|') {
                        let mut m = j + 1;
                        while m < f.body.1 && !lx.is_punct(m, b'|') {
                            m += 1;
                        }
                        m += 1;
                        if lx.is_punct(m, b'{') {
                            return Some((m, match_brace(lx, m)));
                        }
                    }
                }
            }
        }
    }
    None
}

/// `audit:allow(rule-a, rule-b) reason` waiver lines.  The reason may wrap
/// over several comment lines; the waiver attaches to the *end* of the
/// contiguous comment block so it covers the line right below it.
pub(crate) fn allow_lines(lx: &Lexed) -> HashMap<u32, Vec<String>> {
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
    allows
}

/// A lexically-held lock guard.
struct Guard {
    lock: String,
    binding: Option<String>,
    /// Last token index at which the guard is considered held.
    end_tok: usize,
}

fn extract_file(
    file_idx: usize,
    rel: &str,
    lx: &Lexed,
    class: FileClass,
    crate_name: &str,
    fns_out: &mut Vec<FnInfo>,
    facts_out: &mut Vec<FileFacts>,
) {
    let tests = test_spans(lx);
    let impls = impl_spans(lx);
    let mut spans = fn_spans(lx, &impls);
    let jobs = job_spans(lx, &spans);
    spans.extend(jobs);
    // Deterministic order: by body start.
    spans.sort_by_key(|s| s.body.0);

    let in_test =
        |tok: usize| class == FileClass::Test || tests.iter().any(|&(a, b)| tok >= a && tok <= b);

    for si in 0..spans.len() {
        let span = &spans[si];
        // Child spans strictly inside this one are walked separately.
        let children: Vec<(usize, usize)> = spans
            .iter()
            .enumerate()
            .filter(|&(sj, s)| sj != si && s.body.0 > span.body.0 && s.body.1 <= span.body.1)
            .map(|(_, s)| s.body)
            .collect();
        let mut info = FnInfo {
            name: span.name.clone(),
            qual: span.qual.clone(),
            file: file_idx,
            line: span.line,
            is_test: in_test(span.body.0),
            job_root: span.job_root,
            calls: Vec::new(),
            panics: Vec::new(),
            acquires: Vec::new(),
            blocks: Vec::new(),
            probes: Vec::new(),
        };
        walk_body(lx, span, &children, crate_name, &mut info);
        // A named fn that owns a job closure still "calls" it (the serve
        // decode path invokes the same closure inline on the 1-thread
        // branch), so reachability flows into job bodies.
        if !span.job_root {
            for s in spans.iter().filter(|s| s.job_root) {
                if s.body.0 > span.body.0 && s.body.1 <= span.body.1 {
                    info.calls.push(CallRef {
                        name: s.name.clone(),
                        qual: None,
                        kind: CallKind::Free,
                        line: lx.tokens[s.body.0].line,
                        held: Vec::new(),
                        once_init: false,
                    });
                }
            }
        }
        fns_out.push(info);
    }

    facts_out.push(FileFacts {
        rel: rel.to_string(),
        class,
        allows: allow_lines(lx),
    });
}

/// Single forward walk over one function body: statement tracking, guard
/// scopes, and per-site extraction.
fn walk_body(
    lx: &Lexed,
    span: &Span,
    children: &[(usize, usize)],
    crate_name: &str,
    out: &mut FnInfo,
) {
    let (open, close) = span.body;
    let mut guards: Vec<Guard> = Vec::new();
    // Token closing the outermost `get_or_init(…)` / `call_once(…)`
    // argument list entered so far; tokens before it run once per process.
    let mut once_init_end = 0usize;
    let mut stmt_start = open + 1;
    let mut i = open + 1;
    while i < close {
        // Skip nested fn/job bodies entirely.
        if let Some(&(_, c_end)) = children.iter().find(|&&(c_start, _)| c_start == i) {
            i = c_end + 1;
            stmt_start = i;
            continue;
        }
        // Expire guards whose lexical span ended before this token.
        guards.retain(|g| g.end_tok >= i);

        let tok = &lx.tokens[i];
        match tok.kind {
            TokKind::Punct(b';') | TokKind::Punct(b'{') | TokKind::Punct(b'}') => {
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            TokKind::Ident => {}
            _ => {
                // Indexing site: `ident[`, `)[`, `][` (never `#[`, `![`, `=[`).
                if let TokKind::Punct(b'[') = tok.kind {
                    if i > open
                        && (matches!(lx.tokens[i - 1].kind, TokKind::Ident)
                            || matches!(lx.tokens[i - 1].kind, TokKind::Punct(b')'))
                            || matches!(lx.tokens[i - 1].kind, TokKind::Punct(b']')))
                    {
                        out.panics.push(PanicSite {
                            what: "[]".into(),
                            line: tok.line,
                            indexing: true,
                        });
                    }
                }
                i += 1;
                continue;
            }
        }

        let text = lx.text(i);
        let line = tok.line;
        let held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();

        // --- panic-capable sites -----------------------------------------
        let panic_hit = match text {
            "unwrap" | "expect" => i > 0 && lx.is_punct(i - 1, b'.') && lx.is_punct(i + 1, b'('),
            "panic" | "unreachable" | "todo" | "unimplemented" => lx.is_punct(i + 1, b'!'),
            _ => false,
        };
        if panic_hit {
            out.panics.push(PanicSite {
                what: text.to_string(),
                line,
                indexing: false,
            });
        }

        // --- once-initialisers and machine probes ------------------------
        if matches!(text, "get_or_init" | "call_once")
            && i > 0
            && lx.is_punct(i - 1, b'.')
            && lx.is_punct(i + 1, b'(')
        {
            once_init_end = once_init_end.max(matching_paren(lx, i + 1, close));
        }
        let once_init = i < once_init_end;
        let probe = match text {
            "available_parallelism" if lx.is_punct(i + 1, b'(') => Some(text.to_string()),
            "var" | "var_os"
                if lx.is_punct(i + 1, b'(')
                    && i > 2
                    && lx.is_punct(i - 1, b':')
                    && lx.is_punct(i - 2, b':')
                    && lx.is_ident(i - 3, "env") =>
            {
                Some(format!("env::{text}"))
            }
            "fs" if lx.is_punct(i + 1, b':')
                && lx.is_punct(i + 2, b':')
                && !(i > 0 && lx.is_punct(i - 1, b'.')) =>
            {
                Some(format!("fs::{}", lx.text(i + 3)))
            }
            _ => None,
        };
        if let Some(what) = probe.filter(|_| !once_init) {
            out.probes.push(ProbeSite { what, line });
        }

        // --- drop(guard) --------------------------------------------------
        if text == "drop" && lx.is_punct(i + 1, b'(') {
            if let Some(TokKind::Ident) = lx.tokens.get(i + 2).map(|t| t.kind) {
                let name = lx.text(i + 2);
                guards.retain(|g| g.binding.as_deref() != Some(name));
            }
        }

        // --- condvar waits: consume the guard passed in -------------------
        if WAIT_FNS.contains(&text) && lx.is_punct(i + 1, b'(') {
            let args_end = matching_paren(lx, i + 1, close);
            let mut consumed = Vec::new();
            for g in &guards {
                if let Some(b) = &g.binding {
                    if (i + 2..args_end).any(|j| lx.is_ident(j, b)) {
                        consumed.push(b.clone());
                    }
                }
            }
            guards.retain(|g| {
                g.binding
                    .as_ref()
                    .map(|b| !consumed.contains(b))
                    .unwrap_or(true)
            });
            let held_after: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
            out.blocks.push(BlockOp {
                what: text.to_string(),
                line,
                held: held_after,
                lock_only: false,
            });
            i += 1;
            continue;
        }

        // --- lock acquisitions -------------------------------------------
        let acquired = if text == "lock_recover" && lx.is_punct(i + 1, b'(') {
            lock_id_from_args(lx, i + 1, close, crate_name)
        } else if (text == "lock" || text == "try_lock")
            && i > 0
            && lx.is_punct(i - 1, b'.')
            && lx.is_punct(i + 1, b'(')
        {
            lock_id_from_receiver(lx, i - 1, crate_name)
        } else {
            None
        };
        if let Some(lock) = acquired {
            out.acquires.push(Acquire {
                lock: lock.clone(),
                line,
                held: held.clone(),
            });
            let (binding, end_tok) = guard_scope(lx, stmt_start, i, open, close);
            guards.push(Guard {
                lock,
                binding,
                end_tok,
            });
            i += 1;
            continue;
        }

        // --- blocking operations -----------------------------------------
        let block = BLOCKING_METHODS
            .iter()
            .find(|(n, _)| *n == text)
            .filter(|_| i > 0 && lx.is_punct(i - 1, b'.') && lx.is_punct(i + 1, b'('))
            .or_else(|| {
                BLOCKING_FREE
                    .iter()
                    .find(|(n, _)| *n == text)
                    .filter(|_| lx.is_punct(i + 1, b'(') && !lx.is_punct(i.wrapping_sub(1), b'.'))
            });
        if let Some(&(name, lock_only)) = block {
            // `join` must be a no-arg call (JoinHandle::join), not str::join.
            let ok = name != "join" || lx.is_punct(i + 2, b')');
            if ok {
                out.blocks.push(BlockOp {
                    what: name.to_string(),
                    line,
                    held: held.clone(),
                    lock_only,
                });
            }
        }

        // --- calls --------------------------------------------------------
        if lx.is_punct(i + 1, b'(')
            && !KEYWORDS.contains(&text)
            && !(i > 0 && lx.is_ident(i - 1, "fn"))
        {
            let (kind, qual) = if i > 0 && lx.is_punct(i - 1, b'.') {
                (CallKind::Method, None)
            } else if i > 1 && lx.is_punct(i - 1, b':') && lx.is_punct(i - 2, b':') {
                let q = if i > 2 && matches!(lx.tokens[i - 3].kind, TokKind::Ident) {
                    Some(lx.text(i - 3).to_string())
                } else {
                    None
                };
                (CallKind::Path, q)
            } else {
                (CallKind::Free, None)
            };
            out.calls.push(CallRef {
                name: text.to_string(),
                qual,
                kind,
                line,
                held,
                once_init,
            });
        }
        i += 1;
    }
}

fn matching_paren(lx: &Lexed, open: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    for j in open..limit {
        match lx.tokens[j].kind {
            TokKind::Punct(b'(') => depth += 1,
            TokKind::Punct(b')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    limit
}

/// Lock identity from `lock_recover(&self.shards[i].inbox)`-style arguments:
/// the last depth-0 identifier in the argument list, crate-prefixed.
fn lock_id_from_args(lx: &Lexed, open: usize, limit: usize, crate_name: &str) -> Option<String> {
    let end = matching_paren(lx, open, limit);
    let mut bracket = 0i32;
    let mut last: Option<&str> = None;
    for j in open + 1..end {
        match lx.tokens[j].kind {
            TokKind::Punct(b'[') | TokKind::Punct(b'(') => bracket += 1,
            TokKind::Punct(b']') | TokKind::Punct(b')') => bracket -= 1,
            TokKind::Ident if bracket == 0 => {
                let t = lx.text(j);
                if t != "self" && t != "mut" {
                    last = Some(t);
                }
            }
            _ => {}
        }
    }
    last.map(|f| format!("{crate_name}:{f}"))
}

/// Lock identity from the receiver of `.lock()`: the nearest identifier
/// scanning back through the field path (skipping index expressions).
fn lock_id_from_receiver(lx: &Lexed, dot: usize, crate_name: &str) -> Option<String> {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        match lx.tokens[j].kind {
            TokKind::Ident => {
                let t = lx.text(j);
                if t == "self" {
                    continue;
                }
                return Some(format!("{crate_name}:{t}"));
            }
            TokKind::Punct(b']') => {
                // Skip the index expression.
                let mut depth = 0i32;
                loop {
                    match lx.tokens[j].kind {
                        TokKind::Punct(b']') => depth += 1,
                        TokKind::Punct(b'[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
            }
            TokKind::Punct(b'.') | TokKind::Literal => {}
            _ => return None,
        }
    }
    None
}

/// Guard scope: `let g = <acquisition>;` binds to `g` and lives to the end
/// of the enclosing block; anything else is a temporary living to the end of
/// the statement (the next `;` at depth 0, or the `{` opening a control-flow
/// body).
fn guard_scope(
    lx: &Lexed,
    stmt_start: usize,
    acq: usize,
    body_open: usize,
    body_close: usize,
) -> (Option<String>, usize) {
    // Is this a plain `let name = …acquisition…;` statement whose value IS
    // the guard (the matching `)` is immediately followed by `;`)?
    let is_let = lx.is_ident(stmt_start, "let");
    if is_let {
        let mut b = stmt_start + 1;
        if lx.is_ident(b, "mut") {
            b += 1;
        }
        if matches!(lx.tokens.get(b).map(|t| t.kind), Some(TokKind::Ident)) {
            // Look through guard-preserving suffixes — `.unwrap()`,
            // `.expect("…")`, `?` — so `let g = m.lock().unwrap();` still
            // binds the guard to `g`.
            let mut j = matching_paren(lx, acq + 1, body_close) + 1;
            loop {
                if lx.is_punct(j, b'?') {
                    j += 1;
                } else if lx.is_punct(j, b'.')
                    && (lx.is_ident(j + 1, "unwrap") || lx.is_ident(j + 1, "expect"))
                    && lx.is_punct(j + 2, b'(')
                {
                    j = matching_paren(lx, j + 2, body_close) + 1;
                } else {
                    break;
                }
            }
            if lx.is_punct(j, b';') {
                // Held to the end of the innermost enclosing block.
                let end = enclosing_block_end(lx, acq, body_open, body_close);
                return (Some(lx.text(b).to_string()), end);
            }
        }
    }
    // Temporary: end of statement.
    let mut depth = 0i32;
    for j in acq..body_close {
        match lx.tokens[j].kind {
            TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b';') | TokKind::Punct(b'{') if depth <= 0 => {
                return (None, j);
            }
            _ => {}
        }
    }
    (None, body_close)
}

/// Token index of the `}` closing the innermost block containing `tok`.
fn enclosing_block_end(lx: &Lexed, tok: usize, body_open: usize, body_close: usize) -> usize {
    let mut innermost = (body_open, body_close);
    let mut stack: Vec<usize> = Vec::new();
    for j in body_open..=body_close {
        match lx.tokens[j].kind {
            TokKind::Punct(b'{') => stack.push(j),
            TokKind::Punct(b'}') => {
                if let Some(open) = stack.pop() {
                    if open <= tok && j >= tok && (open, j) != (body_open, body_close) {
                        let (co, cc) = innermost;
                        if open >= co && j <= cc {
                            innermost = (open, j);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    innermost.1
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

/// Resolves calls to candidate workspace functions by name (phase-1's
/// central approximation).  Test functions are never call targets.
fn resolve(fns: &[FnInfo]) -> Vec<Vec<(u32, u32)>> {
    let mut by_name: HashMap<&str, Vec<u32>> = HashMap::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.is_test {
            by_name.entry(f.name.as_str()).or_default().push(i as u32);
        }
    }
    let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); fns.len()];
    for (i, f) in fns.iter().enumerate() {
        for call in &f.calls {
            let Some(cands) = by_name.get(call.name.as_str()) else {
                continue;
            };
            let targets: Vec<u32> = match call.kind {
                CallKind::Method => {
                    if COMMON_METHODS.contains(&call.name.as_str()) {
                        continue;
                    }
                    cands.clone()
                }
                CallKind::Free => cands
                    .iter()
                    .copied()
                    .filter(|&c| fns[c as usize].qual.is_none())
                    .collect(),
                CallKind::Path => {
                    let qual = match call.qual.as_deref() {
                        Some("Self") => f.qual.as_deref(),
                        q => q,
                    };
                    let typed: Vec<u32> = cands
                        .iter()
                        .copied()
                        .filter(|&c| fns[c as usize].qual.as_deref() == qual && qual.is_some())
                        .collect();
                    if !typed.is_empty() {
                        typed
                    } else {
                        // Module-path call (`sync::lock_recover`): fall back
                        // to free functions of that name.
                        cands
                            .iter()
                            .copied()
                            .filter(|&c| fns[c as usize].qual.is_none())
                            .collect()
                    }
                }
            };
            for t in targets {
                if t as usize == i {
                    continue; // self-recursion adds nothing to reachability
                }
                if !edges[i].iter().any(|&(e, _)| e == t) {
                    edges[i].push((t, call.line));
                }
            }
        }
    }
    edges
}

//! Rule 9 (`dead-pub`, ratcheted): a `pub` item in library source that no
//! non-test code names is dead weight — delete it, or gate it behind
//! `#[cfg(test)]` when only the crate's own unit tests use it.
//!
//! Items are `pub fn` (free or inherent method), `pub const` and
//! `pub static` declared in `crates/*/src` or the root `src/` (binaries and
//! `main.rs` excluded), outside test code.  Methods of `impl Trait for T`
//! are never candidates: Rust admits no `pub` on them, and the call graph
//! does not resolve trait dispatch anyway.
//!
//! A reference is any identifier token with the item's name in non-test
//! source anywhere in the tree — library, `src/bin`, `examples/`,
//! `benchmark/src` — so function-as-value uses (`.map(fmt_ns)`) and static
//! initializers count.  These do not:
//! - tokens inside the item itself (self-recursion keeps nothing alive),
//!   and the name of another item's declaration (`fn name`, `const NAME`);
//! - a `use` declaration (`pub use` re-exports included), unless it
//!   renames the item with `as`;
//! - `Q::name` where the resolver rules `Q` out: `Q` is another type for an
//!   inherent item, or a type with its own `name` for a free item
//!   (`Self::` reads as the enclosing impl type);
//! - `#[cfg(test)]` spans and files under `tests/`.
//!
//! Matching is by name, so two items sharing a name keep each other alive
//! (an under-report); see DESIGN.md §14.  Waive a deliberate keep with
//! `// audit:allow(dead-pub) reason` in the comment block above the item.

use crate::callgraph::{enclosing_impl, impl_spans, item_end, test_spans, CallGraph, ImplSpan};
use crate::lexer::{Lexed, TokKind};
use crate::rules::{FileClass, Finding, RULE_DEAD_PUB};
use std::collections::{HashMap, HashSet};

/// One candidate item.
struct PubItem<'a> {
    name: &'a str,
    /// Enclosing inherent `impl` type, when any.
    qual: Option<&'a str>,
    kind: &'static str,
    file: usize,
    /// Token range from `pub` to the item's last token.
    span: (usize, usize),
    /// Line of the `pub` keyword, and of the first attribute above it.
    line: u32,
    first_line: u32,
}

struct FileScan<'a> {
    tests: Vec<(usize, usize)>,
    impls: Vec<ImplSpan>,
    lx: &'a Lexed<'a>,
}

impl FileScan<'_> {
    fn in_test(&self, tok: usize) -> bool {
        self.tests.iter().any(|&(a, b)| tok >= a && tok <= b)
    }
}

/// Library source whose `pub` items must have a caller.
fn in_item_scope(rel: &str, class: FileClass) -> bool {
    class == FileClass::Lib
        && (rel.starts_with("crates/") || rel.starts_with("src/"))
        && !(rel == "src/main.rs" || rel.ends_with("/main.rs"))
}

pub fn analyze(cg: &CallGraph, lexed: &[Lexed], out: &mut Vec<Finding>) {
    let scans: Vec<FileScan> = lexed
        .iter()
        .map(|lx| FileScan {
            tests: test_spans(lx),
            impls: impl_spans(lx),
            lx,
        })
        .collect();

    let mut items = Vec::new();
    for (file, scan) in scans.iter().enumerate() {
        let facts = &cg.files[file];
        if in_item_scope(&facts.rel, facts.class) {
            collect_items(file, scan, &mut items);
        }
    }

    // Inherent `Type::name` pairs, for ruling a qualified path out.
    let mut qualified: HashSet<(&str, &str)> = cg
        .fns
        .iter()
        .filter(|f| !f.is_test)
        .filter_map(|f| Some((f.qual.as_deref()?, f.name.as_str())))
        .collect();
    qualified.extend(items.iter().filter_map(|it| Some((it.qual?, it.name))));

    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, it) in items.iter().enumerate() {
        by_name.entry(it.name).or_default().push(i);
    }
    let mut referenced = vec![false; items.len()];
    for (file, scan) in scans.iter().enumerate() {
        if cg.files[file].class == FileClass::Test {
            continue;
        }
        let lx = scan.lx;
        let uses = use_spans(lx);
        for (tok, t) in lx.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let Some(cands) = by_name.get(lx.text(tok)) else {
                continue;
            };
            if scan.in_test(tok)
                || declares(lx, tok)
                || (uses.iter().any(|&(a, b)| tok > a && tok <= b) && !lx.is_ident(tok + 1, "as"))
            {
                continue;
            }
            let path_qual = path_qualifier(scan, tok);
            for &c in cands {
                let it = &items[c];
                if referenced[c] || (it.file == file && tok >= it.span.0 && tok <= it.span.1) {
                    continue;
                }
                let ruled_out = match (path_qual, it.qual) {
                    (Some(q), Some(own)) => q != own,
                    (Some(q), None) => qualified.contains(&(q, it.name)),
                    (None, _) => false,
                };
                referenced[c] |= !ruled_out;
            }
        }
    }

    for (it, _) in items.iter().zip(&referenced).filter(|(_, &r)| !r) {
        let allows = &cg.files[it.file].allows;
        let waived = (it.first_line.saturating_sub(1)..=it.line).any(|l| {
            allows
                .get(&l)
                .is_some_and(|rs| rs.iter().any(|r| r == RULE_DEAD_PUB))
        });
        let name = match it.qual {
            Some(q) => format!("{q}::{}", it.name),
            None => it.name.to_string(),
        };
        out.push(Finding {
            rule: RULE_DEAD_PUB,
            file: cg.files[it.file].rel.clone(),
            line: it.line,
            message: format!(
                "`pub {} {name}` is named by no non-test code — delete it, gate it with #[cfg(test)], or annotate with audit:allow(dead-pub) reason",
                it.kind
            ),
            waived,
            chain: Vec::new(),
        });
    }
}

/// `pub fn` / `pub const` / `pub static` declarations of one file, outside
/// test spans and trait impls.  `pub(crate)` and friends are not `pub`.
fn collect_items<'a>(file: usize, scan: &'a FileScan<'a>, out: &mut Vec<PubItem<'a>>) {
    let lx = scan.lx;
    for i in 0..lx.tokens.len() {
        if !lx.is_ident(i, "pub") || lx.is_punct(i + 1, b'(') || scan.in_test(i) {
            continue;
        }
        // Skip qualifiers: `const fn`, `unsafe fn`, `async fn`, `extern "C" fn`.
        let mut j = i + 1;
        while (lx.is_ident(j, "const")
            && (lx.is_ident(j + 1, "fn") || lx.is_ident(j + 1, "unsafe")))
            || lx.is_ident(j, "unsafe")
            || lx.is_ident(j, "async")
            || lx.is_ident(j, "extern")
            || matches!(lx.tokens.get(j), Some(t) if t.kind == TokKind::Literal)
        {
            j += 1;
        }
        let kind = if lx.is_ident(j, "fn") {
            "fn"
        } else if lx.is_ident(j, "const") {
            "const"
        } else if lx.is_ident(j, "static") {
            if lx.is_ident(j + 1, "mut") {
                j += 1;
            }
            "static"
        } else {
            continue;
        };
        if !matches!(lx.tokens.get(j + 1), Some(t) if t.kind == TokKind::Ident) {
            continue;
        }
        let name = lx.text(j + 1);
        let imp = enclosing_impl(&scan.impls, i);
        if name == "main" || name == "_" {
            continue;
        }
        out.push(PubItem {
            name,
            qual: imp.map(|s| s.ty.as_str()),
            kind,
            file,
            span: (i, item_end(lx, j)),
            line: lx.tokens[i].line,
            first_line: lx.tokens[first_attr(lx, i)].line,
        });
    }
}

/// Token of the first outer attribute (`#[…]`) directly above token `i`.
fn first_attr(lx: &Lexed, mut i: usize) -> usize {
    while i > 0 && lx.is_punct(i - 1, b']') {
        let mut depth = 0i32;
        let mut j = i - 1;
        loop {
            match lx.tokens[j].kind {
                TokKind::Punct(b']') => depth += 1,
                TokKind::Punct(b'[') => depth -= 1,
                _ => {}
            }
            if depth == 0 || j == 0 {
                break;
            }
            j -= 1;
        }
        if j == 0 || !lx.is_punct(j - 1, b'#') {
            break;
        }
        i = j - 1;
    }
    i
}

/// True when token `tok` is the name in an item declaration (`fn name`,
/// `const NAME`, `static [mut] NAME`), not a use of that name.
fn declares(lx: &Lexed, tok: usize) -> bool {
    tok > 0
        && (lx.is_ident(tok - 1, "fn")
            || lx.is_ident(tok - 1, "const")
            || lx.is_ident(tok - 1, "static")
            || (lx.is_ident(tok - 1, "mut") && tok > 1 && lx.is_ident(tok - 2, "static")))
}

/// Token ranges `[use, ;]` of `use` declarations.
fn use_spans(lx: &Lexed) -> Vec<(usize, usize)> {
    (0..lx.tokens.len())
        .filter(|&i| lx.is_ident(i, "use"))
        .map(|i| {
            let end = (i..lx.tokens.len())
                .find(|&j| lx.is_punct(j, b';'))
                .unwrap_or(lx.tokens.len());
            (i, end)
        })
        .collect()
}

/// `Q` of a `Q::name` path whose qualifier names a type (`Self` resolved to
/// the enclosing impl type); `None` for a bare or method-call name and for
/// a qualifier the lexer cannot read (`<T as Tr>::name`, `Self` outside an
/// impl).
fn path_qualifier<'a>(scan: &'a FileScan, tok: usize) -> Option<&'a str> {
    let lx = scan.lx;
    if tok < 3 || !(lx.is_punct(tok - 1, b':') && lx.is_punct(tok - 2, b':')) {
        return None;
    }
    if lx.tokens[tok - 3].kind != TokKind::Ident {
        return None;
    }
    match lx.text(tok - 3) {
        "Self" => enclosing_impl(&scan.impls, tok).map(|s| s.ty.as_str()),
        q => Some(q),
    }
}

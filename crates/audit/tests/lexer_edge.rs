//! Lexer edge-case regressions: constructs that historically desynchronize
//! token positions in hand-rolled lexers — nested block comments, raw
//! strings with `#` guards, string line-continuations — and the
//! doc-comment-adjacency behaviour the SAFETY rule depends on.

use errflow_audit::lexer::{lex, TokKind};
use errflow_audit::{audit_files, Finding};

/// The engine on one file at a library path (`rel` keys the rule scoping).
fn audit_source(rel: &str, src: &str) -> Vec<Finding> {
    audit_files(&[(rel.to_string(), src.to_string())], false)
}

/// Line number of the first occurrence of identifier `name`.
fn ident_line(src: &str, name: &str) -> u32 {
    let lx = lex(src);
    (0..lx.tokens.len())
        .find(|&i| lx.tokens[i].kind == TokKind::Ident && lx.text(i) == name)
        .map(|i| lx.tokens[i].line)
        .unwrap_or_else(|| panic!("ident {name} not found"))
}

#[test]
fn nested_block_comment_keeps_line_sync() {
    let src = "/* outer\n /* inner\n  nested */\n still outer */\nfn after() {}\n";
    assert_eq!(ident_line(src, "after"), 5);
    let lx = lex(src);
    assert_eq!(lx.comments.len(), 1);
    assert_eq!(lx.comments[0].end_line, 4);
}

#[test]
fn raw_string_hash_guards_keep_line_sync() {
    // The `"#` inside the r##-guarded string must not terminate it early —
    // otherwise every token after it is misattributed.
    let src = "let s = r##\"line one\n has \"# inside\n\"##;\nfn after() {}\n";
    assert_eq!(ident_line(src, "after"), 4);
    // And none of the string's contents leak out as tokens.
    let lx = lex(src);
    assert!((0..lx.tokens.len()).all(|i| lx.text(i) != "inside"));
}

#[test]
fn multiline_raw_string_token_positions_stay_valid() {
    let src = "const A: &str = r#\"a\nb\nc\"#;\nconst B: u32 = 7;\n";
    let lx = lex(src);
    // Every token's span must be a valid slice of the source.
    for i in 0..lx.tokens.len() {
        let _ = lx.text(i);
    }
    assert_eq!(ident_line(src, "B"), 4);
}

#[test]
fn backslash_newline_continuation_counts_the_line() {
    let src = "let s = \"one \\\ntwo\";\nfn after() {}\n";
    assert_eq!(ident_line(src, "after"), 3);
}

#[test]
fn unterminated_string_with_trailing_escape_does_not_panic() {
    // A pathological EOF: the escape skip must not push a token span past
    // the end of the buffer.
    let src = "let s = \"abc\\";
    let lx = lex(src);
    for i in 0..lx.tokens.len() {
        let _ = lx.text(i);
    }
}

#[test]
fn safety_note_after_inner_doc_comments_is_honoured() {
    // `//!` inner docs above an item must not break the adjacency window
    // between a SAFETY note and its unsafe block.
    let src = "//! Module docs.\n//! More docs.\n\n\
               fn f(p: *mut u8) {\n    \
               // SAFETY: p is valid for writes by the caller's contract.\n    \
               unsafe { *p = 1 }\n}\n";
    let findings = audit_source("crates/compress/src/fixture.rs", src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn safety_note_stays_adjacent_across_a_raw_string() {
    // A multi-line raw string between the top of the file and the unsafe
    // site: if the lexer miscounts its newlines, the SAFETY note's comment
    // span drifts and the rule misfires.
    let src = "const HELP: &str = r#\"usage:\n  tool [--flag]\n  lines here\n\"#;\n\n\
               fn f(p: *mut u8) {\n    \
               // SAFETY: p is valid for writes by the caller's contract.\n    \
               unsafe { *p = 1 }\n}\n";
    let findings = audit_source("crates/compress/src/fixture.rs", src);
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

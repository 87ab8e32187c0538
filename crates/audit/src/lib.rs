//! errflow-audit: dependency-free static analysis for the errflow workspace.
//!
//! The unsafe SIMD microkernels, unchecked bitstream readers, and
//! lock-sharing thread pool introduced by the performance work are exactly
//! the code where a latent bug silently corrupts the error bounds the system
//! certifies. This crate enforces the workspace's soundness conventions as
//! machine-checked invariants:
//!
//! 1. `safety-comment` — every `unsafe` site carries a `// SAFETY:` note.
//! 2. `unchecked-contract` — `*_unchecked` calls carry a `debug_assert!`
//!    contract or adjacent SAFETY note.
//! 3. `panic-reach` — no `unwrap`/`expect`/`panic!` reachable from a library
//!    entry point through the workspace call graph (ratcheted: the count may
//!    only decrease).
//! 4. `unchecked-header-cast` — untrusted codec header fields flow through
//!    checked-cast helpers before indexing or allocation.
//! 5. `thread-discipline` — no `thread::spawn` outside the shared pool.
//! 6. `lock-order` — no cycles in the workspace lock-order graph, no
//!    blocking operations while a lock is held (ratcheted).
//! 7. `pool-blocking` — functions reachable from `parallel_for` job bodies
//!    must not block a pool worker (ratcheted).
//! 8. `hot-path-probe` — nothing reachable from the serve worker's batch
//!    chain or the net io loop reads the environment, the core count or
//!    the filesystem outside a once-initialiser (ratcheted).
//!
//! The analysis runs in two phases — a hand-rolled lexer
//! (comment/string/char-literal aware) feeding per-file token rules, then a
//! workspace symbol table + approximate call graph (see DESIGN.md §14)
//! feeding the graph rules — no regex over raw lines, no syn, no deps.

pub mod callgraph;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;

pub use report::{
    audit_tree, audit_tree_opts, check, counts, render_human, render_json, CheckOutcome, Ratchet,
};
pub use rules::{audit_files, audit_files_opts, audit_source, Finding, Hop};

//! # errflow-bench
//!
//! The paper's evaluation, regenerated and checked by one binary:
//! `repro [--json <path>] [<id>…]` runs the [`experiments`] registry (Table I,
//! Figs. 2–15, the six [`ablations`]) over shared trained models ([`tasks`])
//! and holds the resulting tables ([`report`]) to the paper's headline
//! claims ([`checks`]).  DESIGN.md §4 has the experiment index,
//! EXPERIMENTS.md the reading of the results.  `gemm-bench` and
//! `compress-bench` are separate binaries that own `BENCH_*.json`.

pub mod ablations;
pub mod checks;
pub mod experiments;
pub mod report;
pub mod tasks;

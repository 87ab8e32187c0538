//! # errflow-tensor
//!
//! Dense linear-algebra substrate for the `errflow` workspace.
//!
//! Everything in the paper's theory is expressed in terms of matrix-vector
//! products, L2/L∞ norms, and spectral norms (largest singular values) of
//! weight matrices.  This crate provides those primitives from scratch:
//!
//! * [`Matrix`] — row-major `f32` dense matrix with GEMM, GEMV and the
//!   element-wise operations needed by the neural-network substrate.
//! * [`gemm`] — the cache-blocked, panel-packed, multi-threaded GEMM/GEMV
//!   kernel every `Matrix` product routes through (with a runtime
//!   AVX2+FMA microkernel on x86-64); the textbook loop survives as
//!   [`Matrix::matmul_naive`] for reference and benchmarking.
//! * [`pool`] — the shared workspace thread pool: persistent workers,
//!   caller participation, per-job concurrency caps.  GEMM row bands,
//!   chunked compression and the serving layer all run on it.
//! * [`norms`] — L1/L2/L∞ vector norms and the L2↔L∞ conversion inequality
//!   used throughout the paper (`(1/√n)‖·‖₂ ≤ ‖·‖∞ ≤ ‖·‖₂`).
//! * [`spectral`] — σ_W by Golub–Kahan–Lanczos bidiagonalization in `f64`
//!   (the quantity the paper estimates by power iteration, its reference
//!   \[17\]), plus a one-sided Jacobi SVD used as an exact cross-check in
//!   tests.
//! * [`conv`] — im2col-based 2-D convolution used by the ResNet models.
//! * [`init`] — deterministic Xavier/He/uniform weight initialisation.
//! * [`rng`] — the seeded, dependency-free PRNG (xoshiro256++) all
//!   randomness in the workspace flows through.
//! * [`transpose`] — the tiled out-of-place transpose behind
//!   [`Matrix::transpose`] and the feature-major payload layout.
//! * [`stats`] — small statistics helpers (mean, variance, geometric mean)
//!   used by the benchmark harness when aggregating achieved errors.

pub mod conv;
pub mod error;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod norms;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod spectral;
pub mod stats;
pub mod sync;
pub mod transpose;

pub use error::TensorError;
pub use matrix::Matrix;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;

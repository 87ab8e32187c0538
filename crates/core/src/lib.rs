//! # errflow-core
//!
//! The paper's primary contribution: **error-flow analysis** for neural
//! networks whose inputs are lossily compressed and whose weights are
//! post-training quantized.
//!
//! Given a trained model, [`NetworkAnalysis`] extracts the per-layer
//! spectral norms σ_W (Eq. 2, via Golub–Kahan–Lanczos) and Table-I
//! quantization step sizes, and evaluates:
//!
//! * the **compression error bound** of Ineq. (5):
//!   `‖Δy‖₂ ≤ (σ_s + Π_l σ_W^(l)) · ‖Δx‖₂`,
//! * the **quantization error bound** (the concentration argument of
//!   §III-B: each layer contributes `q_l √(n₀ n_l) / (2√3)` scaled by the
//!   spectral gains of the surrounding layers),
//! * the **combined bound** of Ineq. (3), which is their sum — the additive
//!   decomposition justified by the path integral of Eq. (4) — returned as
//!   a [`Certificate`] that keeps the two legs apart,
//!
//! in both global and per-output-feature form.  [`flow`] provides the
//! empirical counterpart: the exact two-leg path decomposition
//! `(x, W) → (x̃, W) → (x̃, W̃)` of an observed output error, used to
//! validate that each leg stays under its predicted bound.
//!
//! The bound recurrence in [`bound`] generalizes Eq. (3) from a single
//! residual building block to a *sequence* of blocks (stem → residual
//! blocks → head), which is how the ResNet models decompose; for a single
//! MLP-style block it reduces exactly to the printed Eq. (3)
//! (the test suite's `bound::equation3_bound` implements the printed form
//! verbatim and checks the reduction).

pub mod analysis;
pub mod bound;
pub mod flow;
pub mod quantize;

pub use analysis::{BlockSpec, Certificate, LayerSpec, NetworkAnalysis};
pub use flow::ErrorFlow;
pub use quantize::{quantize_model, quantize_model_mixed};

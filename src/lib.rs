//! # errflow
//!
//! Error-controlled neural-network inference for scientific data analysis.
//!
//! This is the facade crate of the `errflow` workspace — a from-scratch Rust
//! implementation of *Understanding and Estimating Error Propagation in
//! Neural Networks for Scientific Data Analysis* (ICDE 2025).  It re-exports
//! the public API of every sub-crate so downstream users can depend on a
//! single crate:
//!
//! ```
//! use errflow::prelude::*;
//!
//! // Train a tiny PSN-regularised MLP and predict its output error bound
//! // under FP16 weight quantization + lossy input compression.
//! let task = SyntheticTask::h2_combustion_small(42);
//! let model = task.train_quick();
//! let analysis = NetworkAnalysis::of(&model);
//! let bound = analysis.combined_bound(1e-4, QuantFormat::Fp16);
//! assert!(bound.total() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`tensor`] | matrices, norms, spectral norms (power iteration) |
//! | [`nn`] | MLP/ResNet models, training, parameterized spectral normalization |
//! | [`quant`] | numerical formats, Table-I step sizes, affine quantization |
//! | [`compress`] | SZ-, ZFP-, MGARD-class error-bounded lossy compressors |
//! | [`core`] | the paper's error-flow bounds (Inequalities 3 and 5) |
//! | [`scidata`] | synthetic scientific workload generators |
//! | [`pipeline`] | tolerance allocation and the end-to-end inference pipeline |
//! | [`serve`] | concurrent batched inference server with plan caching |
//! | [`net`] | wire-protocol TCP frontend + client for the server |
//! | [`obs`] | metrics registry, span tracing, latency histograms |

pub mod cli;
pub mod top;

pub use errflow_compress as compress;
pub use errflow_core as core;
pub use errflow_net as net;
pub use errflow_nn as nn;
pub use errflow_obs as obs;
pub use errflow_pipeline as pipeline;
pub use errflow_quant as quant;
pub use errflow_scidata as scidata;
pub use errflow_serve as serve;
pub use errflow_tensor as tensor;

/// One-stop imports for the common workflow: build/train a model, analyse its
/// spectra, predict bounds, and plan a compression+quantization pipeline.
pub mod prelude {
    pub use errflow_compress::{
        Compressor, ErrorBound, MgardCompressor, SzCompressor, ZfpCompressor,
    };
    pub use errflow_core::{Certificate, NetworkAnalysis};
    pub use errflow_nn::{Activation, Mlp, Model, TrainConfig};
    pub use errflow_pipeline::{PipelinePlan, Planner, PlannerConfig};
    pub use errflow_quant::QuantFormat;
    pub use errflow_scidata::SyntheticTask;
    pub use errflow_serve::{Request, ServeConfig, Server};
    pub use errflow_tensor::norms::Norm;
    pub use errflow_tensor::Matrix;
}

//! # errflow-pipeline
//!
//! The paper's Fig. 1 framework: given a trained network and a user
//! tolerance on the QoI, split the tolerance between weight quantization
//! and input compression, pick the configuration that maximises inference
//! throughput, and run the resulting error-bounded pipeline.
//!
//! * [`io`] — the HPC storage model (baseline 2.8 GB/s, the paper's
//!   Lustre figure) and effective I/O throughput of compressed reads
//!   (compression ratio vs. decompression CPU time — the Fig. 7/8 trade).
//! * [`stage`] — the load / preprocess / execute time breakdown of Fig. 2.
//! * [`planner`] — tolerance allocation (§IV-D): a configurable share of
//!   the QoI tolerance goes to quantization, the fastest format whose
//!   predicted bound fits is chosen, and *all unutilized tolerance* is
//!   re-allocated to compression.

pub mod io;
pub mod planner;
pub mod ratio_model;
pub mod stage;

pub use io::StorageModel;
pub use planner::{PayloadLayout, PipelinePlan, PipelineReport, PlanTable, Planner, PlannerConfig};
pub use ratio_model::RatioModel;
pub use stage::TimeBreakdown;

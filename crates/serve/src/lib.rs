//! # errflow-serve
//!
//! Concurrent batched inference serving with certified error bounds —
//! the deployment layer over the paper's error-flow pipeline.
//!
//! The offline pipeline (`errflow-pipeline`) answers *"which quantization
//! format and compression budget satisfy this tolerance?"* once, for one
//! dataset.  This crate turns that into a **server**: many clients submit
//! payloads with per-request QoI tolerances, and the server returns
//! predictions that each carry the certified relative error bound of the
//! plan that produced them — never exceeding the tolerance asked for.
//!
//! Architecture (one `Server`):
//!
//! ```text
//!  clients ──▶ admission control ──▶ bounded MPMC queue ──▶ workers
//!              (QueueFull / block)    (Mutex + Condvar)        │
//!                     (dedicated threads on the shared         │
//!                      errflow_tensor::pool thread pool)       │
//!                                                              ▼
//!                     plan cache (LRU over tolerance buckets)  │
//!                     miss: PlanTable::plan + Arc to the       │
//!                     format's weights (built once per format) │
//!                                                              ▼
//!                     per-job chunked compression roundtrip    │
//!                                                              ▼
//!                     same-plan batch → ONE forward_batch GEMM pass
//!                                                              ▼
//!                     responses: predictions + certified bound
//! ```
//!
//! - [`queue`]: the bounded queue with explicit backpressure and
//!   same-key batch draining.
//! - [`cache`]: log-space tolerance bucketing (floors preserve
//!   soundness) and the LRU plan cache with hit/miss counters.
//! - [`batch`]: stacking coalesced jobs into one batched forward pass.
//! - [`server`]: the worker pool and request lifecycle.
//! - [`stats`]: per-instance counters (mirrored into the process-wide
//!   [`errflow_obs`] registry), the end-to-end latency histogram, and the
//!   per-stage breakdown behind `Server::stats`.
//! - [`loadgen`]: the workspace's one closed-loop load driver, generic
//!   over a [`loadgen::Client`] transport (in-process here, sockets in
//!   `errflow-net`, fakes in tests); it counts bad replies instead of
//!   panicking on them and prints the `errflow-cli serve-bench` line.
//! - [`telemetry`]: the pump thread that feeds the live observability
//!   plane — publishes snapshot gauges, advances the tiered time-series
//!   sampler of [`errflow_obs::timeseries`], and evaluates SLOs.

pub mod batch;
pub mod cache;
pub mod loadgen;
pub mod queue;
pub mod server;
pub mod stats;
pub mod telemetry;

pub use cache::{bucket_tolerance, PlanCache, PlanKey};
pub use loadgen::{report_json, run_loadgen, CallError, Client, LoadSummary, LoadgenConfig, Reply};
pub use queue::{BoundedQueue, QueueFull};
pub use server::{BackendKind, Request, Response, ServeConfig, ServeError, Server, Ticket};
pub use stats::{
    BoundMarginSummary, LatencyHistogram, LatencySummary, RequestStages, StageBreakdown,
    StatsSnapshot,
};
pub use telemetry::{default_objectives, start_telemetry, Telemetry, TelemetryConfig};

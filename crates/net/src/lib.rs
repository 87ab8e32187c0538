//! errflow-net: a wire-protocol network frontend for `errflow-serve`.
//!
//! The serve pipeline certifies error-bounded inference in process; this
//! crate puts it on a socket without adding any dependency:
//!
//! * [`proto`] — a compact length-prefixed binary protocol (magic
//!   `EFNP`, versioned 16-byte header, request / response / typed-error
//!   frames) parsed exclusively through the checked little-endian readers
//!   from `errflow_compress`, so forged lengths and truncated frames
//!   surface as typed [`proto::ProtoError`]s, never panics or
//!   over-allocation.
//! * [`poll`] + [`conn`] — readiness-driven nonblocking connection state
//!   machines: partial reads reassemble frames incrementally, partial
//!   writes buffer and resume, `poll(2)` (via a direct libc declaration)
//!   multiplexes many sockets per io thread.
//! * [`server`] — [`server::NetServer`], per-core acceptor/reader threads
//!   with connection limits and idle timeouts, dispatching into the
//!   bounded admission queue of [`errflow_serve::Server`].  Backpressure
//!   ([`errflow_serve::server::ServeError::QueueFull`]) becomes a
//!   *retryable* error frame — never a dropped connection.
//! * [`client`] — [`client::NetClient`], a small blocking client, and its
//!   `impl` of [`errflow_serve::loadgen::Client`]: the socket transport of
//!   the one load driver, which therefore reports client RTT and the
//!   frontend's paired p50 overhead for this path as for the in-process
//!   one.  [`client::settle_egress`] is the run's only socket-specific step.
//! * Telemetry frames — [`proto::FrameType::MetricsRequest`] /
//!   [`proto::FrameType::HealthRequest`] scrape the live time-series and
//!   SLO plane of `errflow-obs`; they are answered entirely on io
//!   threads, so observation never competes with the request path.
//!
//! Responses carry the PR-5 per-stage breakdown extended with `ingress`
//! (first byte → frame decoded) and `egress` (worker fulfilment → frame
//! encoded) so the wire cost is visible per request, not just in
//! aggregate.

pub mod client;
pub mod conn;
pub mod poll;
pub mod proto;
pub mod server;

pub use client::{load_client, settle_egress, NetClient, NetError};
pub use proto::{
    ErrorCode, ErrorFrame, HistogramDump, MetricsFormat, MetricsRequestFrame, MetricsResponseFrame,
    RequestFrame, ResponseFrame, ScrapePayload, TIER_ALL,
};
pub use server::{NetConfig, NetServer};

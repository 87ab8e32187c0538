//! Blocking wire-protocol client for the errflow-net frontend.
//!
//! One [`NetClient`] owns one TCP connection and issues requests
//! synchronously: encode → write → read exactly one reply frame.
//! Applications embedding the client get typed errors ([`NetError`])
//! including the server's own error frames, whose `retryable` flag
//! distinguishes backpressure ([`crate::proto::ErrorCode::QueueFull`])
//! from hard failures.
//!
//! It is also the socket transport of the workspace's one load driver:
//! `impl` [`Client`] `for NetClient` maps a retryable error frame to
//! [`CallError::Busy`] and everything else to [`CallError::Failed`], so
//! [`errflow_serve::loadgen::run_loadgen`] drives real framing, syscalls
//! and loopback queueing with the loop it drives a `&Server` with.
//! [`load_client`] connects for such a run and [`settle_egress`] is its one
//! socket-specific step.

use crate::proto::{
    self, ErrorFrame, FrameHeader, FrameType, MetricsFormat, MetricsRequestFrame,
    MetricsResponseFrame, ProtoError, RequestFrame, ResponseFrame, HEADER_LEN,
};
use errflow_nn::Model;
use errflow_obs::slo::SloStatus;
use errflow_serve::loadgen::{CallError, Client, Reply};
use errflow_serve::server::{Request, Server};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Anything a request can fail with on the client side.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server's reply did not parse.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server(ErrorFrame),
}

impl NetError {
    /// True for transient conditions worth retrying (backpressure).
    pub fn retryable(&self) -> bool {
        match self {
            NetError::Server(e) => e.retryable,
            _ => false,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Proto(e) => write!(f, "protocol error: {e}"),
            NetError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

/// A synchronous connection to a [`crate::server::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects (blocking) with Nagle disabled — frames are latency-bound.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient { stream })
    }

    /// Bounds each blocking read; `None` waits indefinitely.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(t)?;
        Ok(())
    }

    /// Sends one request and blocks for its reply.  A server error frame
    /// comes back as [`NetError::Server`] — check
    /// [`NetError::retryable`] before giving up, backpressure
    /// (`QueueFull`) keeps the connection usable.
    pub fn request(&mut self, req: &RequestFrame) -> Result<ResponseFrame, NetError> {
        let bytes = proto::encode_request(req)?;
        self.stream.write_all(&bytes)?;
        let (header, body) = self.read_frame()?;
        match header.frame_type {
            FrameType::Response => Ok(proto::decode_response(&body)?),
            FrameType::Error => Err(NetError::Server(proto::decode_error(&body)?)),
            other => Err(NetError::Proto(ProtoError::Corrupt(format!(
                "unexpected reply frame type {other:?}"
            )))),
        }
    }

    /// Scrapes the server's telemetry plane: sends one
    /// [`FrameType::MetricsRequest`] and blocks for the
    /// [`FrameType::MetricsResponse`].  `tier` selects a single retention
    /// tier or [`crate::proto::TIER_ALL`]; `window` caps points per series.
    pub fn scrape(
        &mut self,
        format: MetricsFormat,
        tier: u8,
        window: u32,
    ) -> Result<MetricsResponseFrame, NetError> {
        let req = MetricsRequestFrame {
            format,
            tier,
            window,
        };
        let bytes = proto::encode_metrics_request(&req)?;
        self.stream.write_all(&bytes)?;
        let (header, body) = self.read_frame()?;
        match header.frame_type {
            FrameType::MetricsResponse => Ok(proto::decode_metrics_response(&body)?),
            FrameType::Error => Err(NetError::Server(proto::decode_error(&body)?)),
            other => Err(NetError::Proto(ProtoError::Corrupt(format!(
                "unexpected reply frame type {other:?}"
            )))),
        }
    }

    /// Queries the server's SLO states: one [`FrameType::HealthRequest`]
    /// answered by a [`FrameType::HealthResponse`] listing every installed
    /// objective with its published ok/warn/breach state.
    pub fn health(&mut self) -> Result<Vec<SloStatus>, NetError> {
        let bytes = proto::encode_health_request();
        self.stream.write_all(&bytes)?;
        let (header, body) = self.read_frame()?;
        match header.frame_type {
            FrameType::HealthResponse => Ok(proto::decode_health_response(&body)?),
            FrameType::Error => Err(NetError::Server(proto::decode_error(&body)?)),
            other => Err(NetError::Proto(ProtoError::Corrupt(format!(
                "unexpected reply frame type {other:?}"
            )))),
        }
    }

    fn read_frame(&mut self) -> Result<(FrameHeader, Vec<u8>), NetError> {
        let mut head = [0u8; HEADER_LEN];
        read_full(&mut self.stream, &mut head)?;
        let header = proto::parse_header(&head)?;
        let mut body = vec![0u8; header.body_len];
        read_full(&mut self.stream, &mut body)?;
        Ok((header, body))
    }
}

impl Client for NetClient {
    fn call(&mut self, req: Request) -> Result<Reply, CallError> {
        let frame = RequestFrame {
            model_id: 0, // 0 = "any model"
            rel_tolerance: req.rel_tolerance,
            norm: req.norm,
            layout: req.layout,
            samples: req.samples,
        };
        match self.request(&frame) {
            Ok(r) if r.stages.ingress_ns == 0 && r.stages.egress_ns == 0 => Err(CallError::Failed(
                "wire reply carries no frontend stage timings".into(),
            )),
            Ok(r) => Ok(Reply {
                outputs: r.outputs.len(),
                rel_bound: r.rel_bound,
                latency_ns: r.latency_ns,
            }),
            Err(e) if e.retryable() => Err(CallError::Busy),
            Err(e) => Err(CallError::Failed(e.to_string())),
        }
    }
}

/// The `connect` of a socket load run: a connection whose reads time out
/// after 30 s, so a reply that never comes fails its request instead of
/// hanging the run.
pub fn load_client(addr: SocketAddr) -> Result<NetClient, String> {
    let connect = || {
        let client = NetClient::connect(addr)?;
        client.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(client)
    };
    connect().map_err(|e: NetError| e.to_string())
}

/// Waits (at most 500 ms, normally not at all) until `server` has recorded
/// an egress sample for each of `requests` replies.  The egress stage is
/// stamped on the io thread *after* the response bytes hit the socket, so a
/// client can hold its reply a moment before the final stamp lands; call
/// this between a socket load run and [`Server::stats`] so the snapshot
/// covers the whole run.
pub fn settle_egress<M: Model + Clone + Send + Sync + 'static>(server: &Server<M>, requests: u64) {
    let deadline = Instant::now() + Duration::from_millis(500);
    while server.stats().stages.egress.count < requests && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `read_exact` that retries `Interrupted` and maps EOF to a clean error.
fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), NetError> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(NetError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-frame",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(())
}

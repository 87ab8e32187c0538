//! The errflow wire protocol: compact length-prefixed binary frames.
//!
//! Every frame is a fixed 16-byte header followed by a body:
//!
//! ```text
//!  offset  size  field
//!  0       4     magic  b"EFNP"
//!  4       1     protocol version (1)
//!  5       1     frame type: 1 = Request, 2 = Response, 3 = Error,
//!                4 = MetricsRequest, 5 = MetricsResponse,
//!                6 = HealthRequest, 7 = HealthResponse
//!  6       2     reserved (must be 0)
//!  8       8     body length, u64 LE (≤ MAX_BODY)
//! ```
//!
//! All multi-byte fields are little-endian.  Header and body fields are
//! parsed with the checked readers from [`errflow_compress::traits`] —
//! the same helpers the codec decoders use for untrusted streams — so a
//! truncated or forged field yields a typed [`ProtoError`], never a panic
//! or an unchecked allocation.
//!
//! One request frame maps to one response **or** one error frame, in
//! order; the protocol has no request ids (a connection is a closed loop —
//! clients wanting pipelining open several connections).  Error frames
//! carry a `retryable` flag: backpressure ([`ErrorCode::QueueFull`]) is
//! retryable and the connection stays open; malformed framing is not (the
//! byte stream is unsynchronized after it, so the server closes after the
//! error frame is flushed).
//!
//! The **telemetry frames** (types 4–7) follow the same one-in/one-out
//! discipline but are answered entirely on the io thread from the
//! process-wide observability globals — a scrape never enters the serve
//! queue, so it can never block (or be blocked by) a worker.
//! `MetricsRequest` selects an exposition format (Prometheus text, JSON,
//! or the typed binary dump `errflow-cli top` decodes — the workspace
//! carries no JSON parser), a retention tier, and a per-series point
//! window; `HealthRequest` has an empty body and is answered with the
//! hysteresis-filtered SLO states.

use errflow_compress::traits::{read_f32, read_f64, read_len_u32, read_len_u64, read_u64, read_u8};
use errflow_compress::CompressError;
use errflow_obs::slo::{SloState, SloStatus};
use errflow_obs::timeseries::{Point, SeriesDump, TierDump, TieredDump};
use errflow_pipeline::planner::PayloadLayout;
use errflow_quant::QuantFormat;
use errflow_serve::{RequestStages, ServeError};
use errflow_tensor::norms::Norm;

/// Frame magic: "errflow net protocol".
pub const MAGIC: [u8; 4] = *b"EFNP";
/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Upper bound on a frame body: a forged length field beyond this is
/// rejected before any allocation (64 MiB ≈ 16 Mi f32 samples).
pub const MAX_BODY: usize = 1 << 26;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Client → server inference request.
    Request,
    /// Server → client fulfilled response.
    Response,
    /// Server → client typed error.
    Error,
    /// Client → server metrics scrape (format + tier + window selectors).
    MetricsRequest,
    /// Server → client metrics exposition body.
    MetricsResponse,
    /// Client → server SLO health probe (empty body).
    HealthRequest,
    /// Server → client SLO states.
    HealthResponse,
}

impl FrameType {
    /// Wire code of this frame type.
    pub fn code(self) -> u8 {
        match self {
            FrameType::Request => 1,
            FrameType::Response => 2,
            FrameType::Error => 3,
            FrameType::MetricsRequest => 4,
            FrameType::MetricsResponse => 5,
            FrameType::HealthRequest => 6,
            FrameType::HealthResponse => 7,
        }
    }

    fn from_code(code: u8) -> Result<Self, ProtoError> {
        match code {
            1 => Ok(FrameType::Request),
            2 => Ok(FrameType::Response),
            3 => Ok(FrameType::Error),
            4 => Ok(FrameType::MetricsRequest),
            5 => Ok(FrameType::MetricsResponse),
            6 => Ok(FrameType::HealthRequest),
            7 => Ok(FrameType::HealthResponse),
            other => Err(ProtoError::BadFrameType(other)),
        }
    }
}

/// Typed protocol failures.  Every malformed input maps to one of these —
/// decoding never panics and never allocates from an unchecked length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-type code.
    BadFrameType(u8),
    /// Header-declared body length exceeds [`MAX_BODY`].
    BodyTooLarge(u64),
    /// Truncated or internally inconsistent frame content.
    Corrupt(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::BodyTooLarge(n) => {
                write!(f, "declared body length {n} exceeds cap {MAX_BODY}")
            }
            ProtoError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CompressError> for ProtoError {
    fn from(e: CompressError) -> Self {
        ProtoError::Corrupt(e.to_string())
    }
}

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the body decodes as.
    pub frame_type: FrameType,
    /// Exact body length that follows the header.
    pub body_len: usize,
}

/// Parses and validates a frame header from the first [`HEADER_LEN`] bytes
/// of `buf`.  Magic and version are checked before the length field is
/// trusted, so a garbage stream fails fast.
pub fn parse_header(buf: &[u8]) -> Result<FrameHeader, ProtoError> {
    let mut pos = 0usize;
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = read_u8(buf, &mut pos, "frame magic")?;
    }
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = read_u8(buf, &mut pos, "protocol version")?;
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let type_code = read_u8(buf, &mut pos, "frame type")?;
    let frame_type = FrameType::from_code(type_code)?;
    let reserved = (read_u8(buf, &mut pos, "reserved")? as u16)
        | ((read_u8(buf, &mut pos, "reserved")? as u16) << 8);
    if reserved != 0 {
        return Err(ProtoError::Corrupt("nonzero reserved header bytes".into()));
    }
    let body_len = read_len_u64(buf, &mut pos, "frame body length")?;
    if body_len > MAX_BODY {
        return Err(ProtoError::BodyTooLarge(body_len as u64));
    }
    Ok(FrameHeader {
        frame_type,
        body_len,
    })
}

fn put_header(out: &mut Vec<u8>, frame_type: FrameType, body_len: usize) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame_type.code());
    out.extend_from_slice(&[0u8, 0u8]);
    out.extend_from_slice(&(body_len as u64).to_le_bytes());
}

/// Norm wire codes (shared with the serve plan key encoding).
fn norm_code(norm: Norm) -> u8 {
    match norm {
        Norm::L2 => 0,
        Norm::LInf => 1,
    }
}

fn norm_from_code(code: u8) -> Result<Norm, ProtoError> {
    match code {
        0 => Ok(Norm::L2),
        1 => Ok(Norm::LInf),
        other => Err(ProtoError::Corrupt(format!("unknown norm code {other}"))),
    }
}

fn layout_code(layout: PayloadLayout) -> u8 {
    match layout {
        PayloadLayout::FeatureMajor => 0,
        PayloadLayout::SampleMajor => 1,
    }
}

fn layout_from_code(code: u8) -> Result<PayloadLayout, ProtoError> {
    match code {
        0 => Ok(PayloadLayout::FeatureMajor),
        1 => Ok(PayloadLayout::SampleMajor),
        other => Err(ProtoError::Corrupt(format!("unknown layout code {other}"))),
    }
}

/// Wire code of a quantization format (index into [`QuantFormat::ALL`]).
pub fn format_code(f: QuantFormat) -> u8 {
    match f {
        QuantFormat::Fp32 => 0,
        QuantFormat::Tf32 => 1,
        QuantFormat::Fp16 => 2,
        QuantFormat::Bf16 => 3,
        QuantFormat::Int8 => 4,
    }
}

/// Inverse of [`format_code`].
pub fn format_from_code(code: u8) -> Result<QuantFormat, ProtoError> {
    QuantFormat::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| ProtoError::Corrupt(format!("unknown format code {code}")))
}

/// A decoded inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Served-model identifier the client expects (`0` = any model).
    pub model_id: u64,
    /// Relative QoI tolerance.
    pub rel_tolerance: f64,
    /// Norm the tolerance is expressed in.
    pub norm: Norm,
    /// Payload flattening layout.
    pub layout: PayloadLayout,
    /// Input samples (rectangular: every row has the same length).
    pub samples: Vec<Vec<f32>>,
}

/// Encodes a request as a complete frame (header + body).  Fails on a
/// ragged payload — the wire format carries one `(n, dim)` pair.
pub fn encode_request(req: &RequestFrame) -> Result<Vec<u8>, ProtoError> {
    let n = req.samples.len();
    let dim = req.samples.first().map_or(0, Vec::len);
    if req.samples.iter().any(|s| s.len() != dim) {
        return Err(ProtoError::Corrupt("ragged request payload".into()));
    }
    let body_len = 8 + 8 + 1 + 1 + 4 + 4 + n * dim * 4;
    if body_len > MAX_BODY {
        return Err(ProtoError::BodyTooLarge(body_len as u64));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    put_header(&mut out, FrameType::Request, body_len);
    out.extend_from_slice(&req.model_id.to_le_bytes());
    out.extend_from_slice(&req.rel_tolerance.to_le_bytes());
    out.push(norm_code(req.norm));
    out.push(layout_code(req.layout));
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    for s in &req.samples {
        for v in s {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(out)
}

/// Decodes a request body (the bytes after the header).  The declared
/// `(n_samples, dim)` pair must account for exactly the remaining bytes,
/// so a forged count can neither over-allocate nor leave trailing bytes.
pub fn decode_request(body: &[u8]) -> Result<RequestFrame, ProtoError> {
    let mut pos = 0usize;
    let model_id = read_u64(body, &mut pos, "model id")?;
    let rel_tolerance = read_f64(body, &mut pos, "tolerance")?;
    let norm = norm_from_code(read_u8(body, &mut pos, "norm")?)?;
    let layout = layout_from_code(read_u8(body, &mut pos, "layout")?)?;
    let n = read_len_u32(body, &mut pos, "sample count")?;
    let dim = read_len_u32(body, &mut pos, "sample dim")?;
    let payload_bytes = n
        .checked_mul(dim)
        .and_then(|e| e.checked_mul(4))
        .ok_or_else(|| ProtoError::Corrupt("sample count × dim overflows".into()))?;
    let remaining = body.len() - pos;
    if payload_bytes != remaining {
        return Err(ProtoError::Corrupt(format!(
            "payload declares {payload_bytes} bytes but frame carries {remaining}"
        )));
    }
    let mut samples = Vec::with_capacity(n.min(MAX_BODY / 4));
    for _ in 0..n {
        let mut row = Vec::with_capacity(dim);
        for _ in 0..dim {
            row.push(read_f32(body, &mut pos, "sample value")?);
        }
        samples.push(row);
    }
    Ok(RequestFrame {
        model_id,
        rel_tolerance,
        norm,
        layout,
        samples,
    })
}

/// A decoded inference response: outputs plus the certificate and the
/// per-stage timing breakdown (including the net-frontend `ingress` and
/// `egress` stages).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// One prediction per request sample, in order.
    pub outputs: Vec<Vec<f32>>,
    /// Certified relative QoI error bound.
    pub rel_bound: f64,
    /// Tolerance the plan was computed at (the bucket floor).
    pub plan_tolerance: f64,
    /// Weight format the plan selected.
    pub format: QuantFormat,
    /// `true` when the plan came from the cache.
    pub cache_hit: bool,
    /// Jobs that shared this batched forward pass.
    pub batch_size: u32,
    /// Server-side end-to-end latency in nanoseconds (admission →
    /// fulfill; excludes ingress/egress, which are reported as stages).
    pub latency_ns: u64,
    /// Per-stage timing breakdown.
    pub stages: RequestStages,
}

/// Encodes a response as a complete frame.  Fails on ragged outputs.
pub fn encode_response(resp: &ResponseFrame) -> Result<Vec<u8>, ProtoError> {
    let n = resp.outputs.len();
    let dim = resp.outputs.first().map_or(0, Vec::len);
    if resp.outputs.iter().any(|o| o.len() != dim) {
        return Err(ProtoError::Corrupt("ragged response outputs".into()));
    }
    let body_len = 8 + 8 + 1 + 1 + 4 + 8 + 7 * 8 + 4 + 4 + n * dim * 4;
    if body_len > MAX_BODY {
        return Err(ProtoError::BodyTooLarge(body_len as u64));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    put_header(&mut out, FrameType::Response, body_len);
    out.extend_from_slice(&resp.rel_bound.to_le_bytes());
    out.extend_from_slice(&resp.plan_tolerance.to_le_bytes());
    out.push(format_code(resp.format));
    out.push(resp.cache_hit as u8);
    out.extend_from_slice(&resp.batch_size.to_le_bytes());
    out.extend_from_slice(&resp.latency_ns.to_le_bytes());
    let s = &resp.stages;
    for ns in [
        s.ingress_ns,
        s.batch_wait_ns,
        s.plan_ns,
        s.decompress_ns,
        s.forward_ns,
        s.respond_ns,
        s.egress_ns,
    ] {
        out.extend_from_slice(&ns.to_le_bytes());
    }
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    for o in &resp.outputs {
        for v in o {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(out)
}

/// Decodes a response body.
pub fn decode_response(body: &[u8]) -> Result<ResponseFrame, ProtoError> {
    let mut pos = 0usize;
    let rel_bound = read_f64(body, &mut pos, "rel bound")?;
    let plan_tolerance = read_f64(body, &mut pos, "plan tolerance")?;
    let format = format_from_code(read_u8(body, &mut pos, "format")?)?;
    let cache_hit = read_u8(body, &mut pos, "cache hit")? != 0;
    let batch_size = read_len_u32(body, &mut pos, "batch size")? as u32;
    let latency_ns = read_u64(body, &mut pos, "latency")?;
    let mut stage_ns = [0u64; 7];
    for ns in &mut stage_ns {
        *ns = read_u64(body, &mut pos, "stage ns")?;
    }
    let n = read_len_u32(body, &mut pos, "output count")?;
    let dim = read_len_u32(body, &mut pos, "output dim")?;
    let payload_bytes = n
        .checked_mul(dim)
        .and_then(|e| e.checked_mul(4))
        .ok_or_else(|| ProtoError::Corrupt("output count × dim overflows".into()))?;
    let remaining = body.len() - pos;
    if payload_bytes != remaining {
        return Err(ProtoError::Corrupt(format!(
            "outputs declare {payload_bytes} bytes but frame carries {remaining}"
        )));
    }
    let mut outputs = Vec::with_capacity(n.min(MAX_BODY / 4));
    for _ in 0..n {
        let mut row = Vec::with_capacity(dim);
        for _ in 0..dim {
            row.push(read_f32(body, &mut pos, "output value")?);
        }
        outputs.push(row);
    }
    Ok(ResponseFrame {
        outputs,
        rel_bound,
        plan_tolerance,
        format,
        cache_hit,
        batch_size,
        latency_ns,
        stages: RequestStages {
            ingress_ns: stage_ns[0],
            batch_wait_ns: stage_ns[1],
            plan_ns: stage_ns[2],
            decompress_ns: stage_ns[3],
            forward_ns: stage_ns[4],
            respond_ns: stage_ns[5],
            egress_ns: stage_ns[6],
        },
    })
}

/// Wire error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control rejected the request — **retryable** backpressure;
    /// the connection stays open.
    QueueFull,
    /// The request was well-framed but semantically invalid (bad tolerance,
    /// wrong sample dim, wrong model id).
    Invalid,
    /// The server's compression roundtrip failed.
    Compression,
    /// The server is shutting down.
    Shutdown,
    /// The frame itself was malformed; the connection closes after this
    /// error frame because the byte stream is no longer synchronized.
    Malformed,
}

impl ErrorCode {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::QueueFull => 1,
            ErrorCode::Invalid => 2,
            ErrorCode::Compression => 3,
            ErrorCode::Shutdown => 4,
            ErrorCode::Malformed => 5,
        }
    }

    fn from_code(code: u8) -> Result<Self, ProtoError> {
        match code {
            1 => Ok(ErrorCode::QueueFull),
            2 => Ok(ErrorCode::Invalid),
            3 => Ok(ErrorCode::Compression),
            4 => Ok(ErrorCode::Shutdown),
            5 => Ok(ErrorCode::Malformed),
            other => Err(ProtoError::Corrupt(format!("unknown error code {other}"))),
        }
    }
}

/// A typed server-side error delivered to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// What failed.
    pub code: ErrorCode,
    /// `true` when the client may retry the same request on the same
    /// connection (backpressure).
    pub retryable: bool,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}{}: {}",
            self.code,
            if self.retryable { " (retryable)" } else { "" },
            self.message
        )
    }
}

impl ErrorFrame {
    /// Maps a serve-side error to its wire form.  [`ServeError::QueueFull`]
    /// becomes the retryable backpressure code — the connection stays open.
    pub fn from_serve(e: &ServeError) -> Self {
        match e {
            ServeError::QueueFull => ErrorFrame {
                code: ErrorCode::QueueFull,
                retryable: true,
                message: "admission queue full; retry".into(),
            },
            ServeError::Invalid(m) => ErrorFrame {
                code: ErrorCode::Invalid,
                retryable: false,
                message: m.clone(),
            },
            ServeError::Compression(m) => ErrorFrame {
                code: ErrorCode::Compression,
                retryable: false,
                message: m.clone(),
            },
            ServeError::Shutdown => ErrorFrame {
                code: ErrorCode::Shutdown,
                retryable: false,
                message: "server shutting down".into(),
            },
        }
    }

    /// The error frame sent for an unparsable frame, before closing.
    pub fn malformed(e: &ProtoError) -> Self {
        ErrorFrame {
            code: ErrorCode::Malformed,
            retryable: false,
            message: e.to_string(),
        }
    }
}

/// Encodes an error as a complete frame.  The message is truncated to fit
/// [`MAX_BODY`] rather than failing — an error path must not error.
pub fn encode_error(err: &ErrorFrame) -> Vec<u8> {
    let msg = err.message.as_bytes();
    let msg = &msg[..msg.len().min(4096)];
    let body_len = 1 + 1 + 4 + msg.len();
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    put_header(&mut out, FrameType::Error, body_len);
    out.push(err.code.code());
    out.push(err.retryable as u8);
    out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    out.extend_from_slice(msg);
    out
}

/// Decodes an error body.
pub fn decode_error(body: &[u8]) -> Result<ErrorFrame, ProtoError> {
    let mut pos = 0usize;
    let code = ErrorCode::from_code(read_u8(body, &mut pos, "error code")?)?;
    let retryable = read_u8(body, &mut pos, "retryable flag")? != 0;
    let msg_len = read_len_u32(body, &mut pos, "message length")?;
    let remaining = body.len() - pos;
    if msg_len != remaining {
        return Err(ProtoError::Corrupt(format!(
            "error message declares {msg_len} bytes but frame carries {remaining}"
        )));
    }
    let message = String::from_utf8_lossy(&body[pos..]).into_owned();
    Ok(ErrorFrame {
        code,
        retryable,
        message,
    })
}

// ---------------------------------------------------------------------
// Telemetry frames (types 4–7)
// ---------------------------------------------------------------------

/// Exposition format selector of a [`MetricsRequestFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition of the whole registry.
    Prometheus,
    /// JSON exposition of the tiered series.
    Json,
    /// Typed binary dump ([`ScrapePayload`]) — what `errflow-cli top`
    /// decodes (the workspace carries no JSON parser).
    Binary,
}

impl MetricsFormat {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            MetricsFormat::Prometheus => 0,
            MetricsFormat::Json => 1,
            MetricsFormat::Binary => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, ProtoError> {
        match code {
            0 => Ok(MetricsFormat::Prometheus),
            1 => Ok(MetricsFormat::Json),
            2 => Ok(MetricsFormat::Binary),
            other => Err(ProtoError::Corrupt(format!(
                "unknown metrics format code {other}"
            ))),
        }
    }
}

/// Tier selector meaning "all tiers".
pub const TIER_ALL: u8 = 255;

/// Cap on a scrape's per-series point window (tier retention never
/// exceeds this; a forged selector cannot request unbounded work).
pub const MAX_SCRAPE_WINDOW: u32 = 1 << 20;

/// A metrics scrape request: format, tier, and per-series point window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsRequestFrame {
    /// Requested exposition format.
    pub format: MetricsFormat,
    /// Tier index, or [`TIER_ALL`].
    pub tier: u8,
    /// Max points per series (`0` = the tier's full retention).
    pub window: u32,
}

fn check_tier(tier: u8) -> Result<(), ProtoError> {
    if tier != TIER_ALL && tier as usize >= errflow_obs::timeseries::MAX_TIERS {
        return Err(ProtoError::Corrupt(format!(
            "tier selector {tier} out of range (max {}, or {TIER_ALL} for all)",
            errflow_obs::timeseries::MAX_TIERS - 1
        )));
    }
    Ok(())
}

/// Encodes a metrics request as a complete frame.  Rejects an oversized
/// tier selector or window at encode time (the server rejects them at
/// decode time with the same typed error).
pub fn encode_metrics_request(req: &MetricsRequestFrame) -> Result<Vec<u8>, ProtoError> {
    check_tier(req.tier)?;
    if req.window > MAX_SCRAPE_WINDOW {
        return Err(ProtoError::Corrupt(format!(
            "scrape window {} exceeds cap {MAX_SCRAPE_WINDOW}",
            req.window
        )));
    }
    let body_len = 1 + 1 + 4;
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    put_header(&mut out, FrameType::MetricsRequest, body_len);
    out.push(req.format.code());
    out.push(req.tier);
    out.extend_from_slice(&req.window.to_le_bytes());
    Ok(out)
}

/// Decodes a metrics request body, validating the tier selector and
/// window cap.
pub fn decode_metrics_request(body: &[u8]) -> Result<MetricsRequestFrame, ProtoError> {
    let mut pos = 0usize;
    let format = MetricsFormat::from_code(read_u8(body, &mut pos, "metrics format")?)?;
    let tier = read_u8(body, &mut pos, "tier selector")?;
    check_tier(tier)?;
    let window = read_len_u32(body, &mut pos, "scrape window")? as u32;
    if window > MAX_SCRAPE_WINDOW {
        return Err(ProtoError::Corrupt(format!(
            "scrape window {window} exceeds cap {MAX_SCRAPE_WINDOW}"
        )));
    }
    if pos != body.len() {
        return Err(ProtoError::Corrupt(format!(
            "metrics request carries {} trailing bytes",
            body.len() - pos
        )));
    }
    Ok(MetricsRequestFrame {
        format,
        tier,
        window,
    })
}

/// One histogram's point-in-time aggregates in a [`ScrapePayload`]
/// (buckets sparse: only non-zero log₂ buckets travel).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDump {
    /// Registry name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// `(bucket_index, count)` pairs, index-ascending.
    pub buckets: Vec<(u8, u64)>,
}

/// The typed binary body of a [`MetricsFormat::Binary`] scrape: the
/// tiered series dump plus the current cumulative histogram states.  `top`
/// reads the histograms only to leave out the stages that never recorded
/// (`count == 0`); the series carry every plotted value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScrapePayload {
    /// Tiered series (see [`errflow_obs::timeseries::Sampler::dump`]).
    pub dump: TieredDump,
    /// Current cumulative histograms, name-sorted.
    pub hists: Vec<HistogramDump>,
}

/// The body of a metrics response: text for Prometheus/JSON, typed for
/// binary.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricsResponseFrame {
    /// Prometheus or JSON exposition text.
    Text {
        /// Which text format the body is.
        format: MetricsFormat,
        /// The exposition document.
        body: String,
    },
    /// Typed binary scrape payload.
    Binary(ScrapePayload),
}

/// Encodes a metrics response as a complete frame.
pub fn encode_metrics_response(resp: &MetricsResponseFrame) -> Result<Vec<u8>, ProtoError> {
    let mut body = Vec::new();
    match resp {
        MetricsResponseFrame::Text { format, body: text } => {
            if matches!(format, MetricsFormat::Binary) {
                return Err(ProtoError::Corrupt(
                    "text response cannot carry binary format code".into(),
                ));
            }
            body.push(format.code());
            body.extend_from_slice(&(text.len() as u32).to_le_bytes());
            body.extend_from_slice(text.as_bytes());
        }
        MetricsResponseFrame::Binary(p) => {
            body.push(MetricsFormat::Binary.code());
            body.extend_from_slice(&p.dump.now_ms.to_le_bytes());
            body.push(p.dump.tiers.len().min(255) as u8);
            for tier in p.dump.tiers.iter().take(255) {
                body.push(tier.tier);
                body.extend_from_slice(&tier.step_ms.to_le_bytes());
                body.extend_from_slice(&(tier.series.len() as u32).to_le_bytes());
                for s in &tier.series {
                    put_str(&mut body, &s.name);
                    body.extend_from_slice(&(s.points.len() as u32).to_le_bytes());
                    for pt in &s.points {
                        body.extend_from_slice(&pt.t_ms.to_le_bytes());
                        body.extend_from_slice(&pt.v.to_le_bytes());
                    }
                }
            }
            body.extend_from_slice(&(p.hists.len() as u32).to_le_bytes());
            for h in &p.hists {
                put_str(&mut body, &h.name);
                body.extend_from_slice(&h.count.to_le_bytes());
                body.extend_from_slice(&h.sum.to_le_bytes());
                body.push(h.buckets.len().min(64) as u8);
                for (idx, c) in h.buckets.iter().take(64) {
                    body.push(*idx);
                    body.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }
    if body.len() > MAX_BODY {
        return Err(ProtoError::BodyTooLarge(body.len() as u64));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    put_header(&mut out, FrameType::MetricsResponse, body.len());
    out.extend_from_slice(&body);
    Ok(out)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    let b = &b[..b.len().min(MAX_NAME)];
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Cap on a name field in telemetry frames.
const MAX_NAME: usize = 256;

fn read_str(body: &[u8], pos: &mut usize, what: &'static str) -> Result<String, ProtoError> {
    let len = read_len_u32(body, pos, what)?;
    if len > MAX_NAME {
        return Err(ProtoError::Corrupt(format!(
            "{what} length {len} exceeds cap {MAX_NAME}"
        )));
    }
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= body.len())
        .ok_or_else(|| ProtoError::Corrupt(format!("truncated {what}")))?;
    let s = String::from_utf8_lossy(&body[*pos..end]).into_owned();
    *pos = end;
    Ok(s)
}

/// Checks a declared element count against the bytes actually remaining
/// so a forged count can never over-allocate.
fn check_count(
    n: usize,
    elem_bytes: usize,
    body: &[u8],
    pos: usize,
    what: &'static str,
) -> Result<(), ProtoError> {
    let need = n.checked_mul(elem_bytes);
    match need {
        Some(need) if need <= body.len().saturating_sub(pos) => Ok(()),
        _ => Err(ProtoError::Corrupt(format!(
            "{what} declares {n} elements but only {} bytes remain",
            body.len().saturating_sub(pos)
        ))),
    }
}

/// Decodes a metrics response body.
pub fn decode_metrics_response(body: &[u8]) -> Result<MetricsResponseFrame, ProtoError> {
    let mut pos = 0usize;
    let format = MetricsFormat::from_code(read_u8(body, &mut pos, "metrics format")?)?;
    match format {
        MetricsFormat::Prometheus | MetricsFormat::Json => {
            let len = read_len_u32(body, &mut pos, "exposition length")?;
            let remaining = body.len() - pos;
            if len != remaining {
                return Err(ProtoError::Corrupt(format!(
                    "exposition declares {len} bytes but frame carries {remaining}"
                )));
            }
            let text = String::from_utf8_lossy(&body[pos..]).into_owned();
            Ok(MetricsResponseFrame::Text { format, body: text })
        }
        MetricsFormat::Binary => {
            let now_ms = read_u64(body, &mut pos, "scrape timestamp")?;
            let n_tiers = read_u8(body, &mut pos, "tier count")? as usize;
            if n_tiers > errflow_obs::timeseries::MAX_TIERS {
                return Err(ProtoError::Corrupt(format!(
                    "tier count {n_tiers} exceeds cap {}",
                    errflow_obs::timeseries::MAX_TIERS
                )));
            }
            let mut tiers = Vec::with_capacity(n_tiers);
            for _ in 0..n_tiers {
                let tier = read_u8(body, &mut pos, "tier index")?;
                let step_ms = read_u64(body, &mut pos, "tier step")?;
                let n_series = read_len_u32(body, &mut pos, "series count")?;
                // A series is at least 8 bytes (name len + point count).
                check_count(n_series, 8, body, pos, "series count")?;
                let mut series = Vec::with_capacity(n_series);
                for _ in 0..n_series {
                    let name = read_str(body, &mut pos, "series name")?;
                    let n_points = read_len_u32(body, &mut pos, "point count")?;
                    check_count(n_points, 16, body, pos, "point count")?;
                    let mut points = Vec::with_capacity(n_points);
                    for _ in 0..n_points {
                        let t_ms = read_u64(body, &mut pos, "point timestamp")?;
                        let v = read_f64(body, &mut pos, "point value")?;
                        points.push(Point { t_ms, v });
                    }
                    series.push(SeriesDump { name, points });
                }
                tiers.push(TierDump {
                    tier,
                    step_ms,
                    series,
                });
            }
            let n_hists = read_len_u32(body, &mut pos, "histogram count")?;
            // A histogram is at least 21 bytes (name len + count + sum +
            // bucket count).
            check_count(n_hists, 21, body, pos, "histogram count")?;
            let mut hists = Vec::with_capacity(n_hists);
            for _ in 0..n_hists {
                let name = read_str(body, &mut pos, "histogram name")?;
                let count = read_u64(body, &mut pos, "histogram count field")?;
                let sum = read_u64(body, &mut pos, "histogram sum")?;
                let n_buckets = read_u8(body, &mut pos, "bucket count")? as usize;
                if n_buckets > 64 {
                    return Err(ProtoError::Corrupt(format!(
                        "bucket count {n_buckets} exceeds 64"
                    )));
                }
                let mut buckets = Vec::with_capacity(n_buckets);
                for _ in 0..n_buckets {
                    let idx = read_u8(body, &mut pos, "bucket index")?;
                    let c = read_u64(body, &mut pos, "bucket value")?;
                    buckets.push((idx, c));
                }
                hists.push(HistogramDump {
                    name,
                    count,
                    sum,
                    buckets,
                });
            }
            if pos != body.len() {
                return Err(ProtoError::Corrupt(format!(
                    "scrape payload carries {} trailing bytes",
                    body.len() - pos
                )));
            }
            Ok(MetricsResponseFrame::Binary(ScrapePayload {
                dump: TieredDump { now_ms, tiers },
                hists,
            }))
        }
    }
}

/// Encodes a health request (empty body).
pub fn encode_health_request() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    put_header(&mut out, FrameType::HealthRequest, 0);
    out
}

/// Validates a health request body (must be empty).
pub fn decode_health_request(body: &[u8]) -> Result<(), ProtoError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(ProtoError::Corrupt(format!(
            "health request carries {} unexpected bytes",
            body.len()
        )))
    }
}

/// Encodes the SLO states as a complete health-response frame.
pub fn encode_health_response(statuses: &[SloStatus]) -> Result<Vec<u8>, ProtoError> {
    let mut body = Vec::with_capacity(8 + statuses.len() * 48);
    body.extend_from_slice(&(statuses.len() as u32).to_le_bytes());
    for s in statuses {
        put_str(&mut body, &s.name);
        body.push(s.state.code());
        body.extend_from_slice(&s.value.to_le_bytes());
        body.extend_from_slice(&s.threshold.to_le_bytes());
    }
    if body.len() > MAX_BODY {
        return Err(ProtoError::BodyTooLarge(body.len() as u64));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    put_header(&mut out, FrameType::HealthResponse, body.len());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decodes a health response body into SLO statuses.
pub fn decode_health_response(body: &[u8]) -> Result<Vec<SloStatus>, ProtoError> {
    let mut pos = 0usize;
    let n = read_len_u32(body, &mut pos, "slo count")?;
    // A status is at least 21 bytes (name len + state + value + threshold).
    check_count(n, 21, body, pos, "slo count")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = read_str(body, &mut pos, "slo name")?;
        let state = SloState::from_code(read_u8(body, &mut pos, "slo state")?);
        let value = read_f64(body, &mut pos, "slo value")?;
        let threshold = read_f64(body, &mut pos, "slo threshold")?;
        out.push(SloStatus {
            name,
            state,
            value,
            threshold,
        });
    }
    if pos != body.len() {
        return Err(ProtoError::Corrupt(format!(
            "health response carries {} trailing bytes",
            body.len() - pos
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestFrame {
        RequestFrame {
            model_id: 0xDEAD_BEEF_CAFE_0001,
            rel_tolerance: 1e-3,
            norm: Norm::LInf,
            layout: PayloadLayout::SampleMajor,
            samples: vec![vec![1.0, -2.5, 0.25], vec![0.0, 3.5, -0.125]],
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        let frame = encode_request(&req).unwrap();
        let header = parse_header(&frame[..HEADER_LEN]).unwrap();
        assert_eq!(header.frame_type, FrameType::Request);
        assert_eq!(frame.len(), HEADER_LEN + header.body_len);
        let decoded = decode_request(&frame[HEADER_LEN..]).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn response_roundtrip() {
        let resp = ResponseFrame {
            outputs: vec![vec![0.5, -1.5], vec![2.0, 4.0]],
            rel_bound: 9.5e-4,
            plan_tolerance: 1e-3,
            format: QuantFormat::Fp16,
            cache_hit: true,
            batch_size: 3,
            latency_ns: 123_456,
            stages: RequestStages {
                ingress_ns: 10,
                batch_wait_ns: 20,
                plan_ns: 30,
                decompress_ns: 40,
                forward_ns: 50,
                respond_ns: 60,
                egress_ns: 70,
            },
        };
        let frame = encode_response(&resp).unwrap();
        let header = parse_header(&frame[..HEADER_LEN]).unwrap();
        assert_eq!(header.frame_type, FrameType::Response);
        let decoded = decode_response(&frame[HEADER_LEN..]).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn error_roundtrip_and_serve_mapping() {
        let ef = ErrorFrame::from_serve(&ServeError::QueueFull);
        assert_eq!(ef.code, ErrorCode::QueueFull);
        assert!(ef.retryable, "backpressure must be retryable");
        let frame = encode_error(&ef);
        let header = parse_header(&frame[..HEADER_LEN]).unwrap();
        assert_eq!(header.frame_type, FrameType::Error);
        assert_eq!(decode_error(&frame[HEADER_LEN..]).unwrap(), ef);

        let inv = ErrorFrame::from_serve(&ServeError::Invalid("dim".into()));
        assert_eq!(inv.code, ErrorCode::Invalid);
        assert!(!inv.retryable);
    }

    #[test]
    fn header_rejects_bad_magic_version_type() {
        let mut frame = encode_request(&sample_request()).unwrap();
        frame[0] = b'X';
        assert!(matches!(
            parse_header(&frame[..HEADER_LEN]),
            Err(ProtoError::BadMagic(_))
        ));

        let mut frame = encode_request(&sample_request()).unwrap();
        frame[4] = 99;
        assert_eq!(
            parse_header(&frame[..HEADER_LEN]),
            Err(ProtoError::BadVersion(99))
        );

        let mut frame = encode_request(&sample_request()).unwrap();
        frame[5] = 42;
        assert_eq!(
            parse_header(&frame[..HEADER_LEN]),
            Err(ProtoError::BadFrameType(42))
        );
    }

    #[test]
    fn header_rejects_nonzero_reserved_bytes() {
        // Each reserved byte independently (the high byte is shifted into
        // place, so it must trip the check on its own).
        for idx in [6usize, 7] {
            let mut frame = encode_request(&sample_request()).unwrap();
            frame[idx] = 1;
            assert!(
                matches!(
                    parse_header(&frame[..HEADER_LEN]),
                    Err(ProtoError::Corrupt(_))
                ),
                "reserved byte {idx} must reject"
            );
        }
    }

    #[test]
    fn header_rejects_forged_huge_length() {
        let mut frame = encode_request(&sample_request()).unwrap();
        frame[8..16].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert!(matches!(
            parse_header(&frame[..HEADER_LEN]),
            Err(ProtoError::BodyTooLarge(_)) | Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_header_is_typed_error() {
        let frame = encode_request(&sample_request()).unwrap();
        for cut in 0..HEADER_LEN {
            assert!(
                parse_header(&frame[..cut]).is_err(),
                "header cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn truncated_body_is_typed_error() {
        let frame = encode_request(&sample_request()).unwrap();
        let body = &frame[HEADER_LEN..];
        for cut in 0..body.len() {
            assert!(
                decode_request(&body[..cut]).is_err(),
                "body cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn forged_sample_count_cannot_overallocate() {
        let frame = encode_request(&sample_request()).unwrap();
        let mut body = frame[HEADER_LEN..].to_vec();
        // n_samples lives right after model_id(8) + tol(8) + norm(1) +
        // layout(1) = offset 18.
        body[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_request(&body).unwrap_err();
        assert!(matches!(err, ProtoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn zero_length_body_is_typed_error() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[]).is_err());
        assert!(decode_error(&[]).is_err());
    }

    #[test]
    fn ragged_payload_rejected_at_encode() {
        let mut req = sample_request();
        req.samples[1].pop();
        assert!(matches!(encode_request(&req), Err(ProtoError::Corrupt(_))));
    }

    #[test]
    fn format_codes_roundtrip() {
        for f in QuantFormat::ALL {
            assert_eq!(format_from_code(format_code(f)).unwrap(), f);
        }
        assert!(format_from_code(200).is_err());
    }

    fn sample_payload() -> ScrapePayload {
        ScrapePayload {
            dump: TieredDump {
                now_ms: 1_723_000_000_000,
                tiers: vec![
                    TierDump {
                        tier: 0,
                        step_ms: 1000,
                        series: vec![
                            SeriesDump {
                                name: "serve.completed".into(),
                                points: vec![
                                    Point {
                                        t_ms: 1_723_000_000_000,
                                        v: 42.5,
                                    },
                                    Point {
                                        t_ms: 1_723_000_001_000,
                                        v: 43.0,
                                    },
                                ],
                            },
                            SeriesDump {
                                name: "serve.latency_ns.p99".into(),
                                points: vec![Point {
                                    t_ms: 1_723_000_001_000,
                                    v: 1.5e6,
                                }],
                            },
                        ],
                    },
                    TierDump {
                        tier: 1,
                        step_ms: 10_000,
                        series: vec![],
                    },
                ],
            },
            hists: vec![HistogramDump {
                name: "serve.stage.forward_ns".into(),
                count: 7,
                sum: 99_000,
                buckets: vec![(10, 3), (13, 4)],
            }],
        }
    }

    #[test]
    fn metrics_request_roundtrip() {
        for (format, tier, window) in [
            (MetricsFormat::Prometheus, TIER_ALL, 0u32),
            (MetricsFormat::Json, 0, 60),
            (MetricsFormat::Binary, 2, 120),
        ] {
            let req = MetricsRequestFrame {
                format,
                tier,
                window,
            };
            let frame = encode_metrics_request(&req).unwrap();
            let header = parse_header(&frame[..HEADER_LEN]).unwrap();
            assert_eq!(header.frame_type, FrameType::MetricsRequest);
            assert_eq!(frame.len(), HEADER_LEN + header.body_len);
            assert_eq!(decode_metrics_request(&frame[HEADER_LEN..]).unwrap(), req);
        }
    }

    #[test]
    fn oversized_tier_selector_is_rejected_both_ways() {
        let req = MetricsRequestFrame {
            format: MetricsFormat::Prometheus,
            tier: 17,
            window: 0,
        };
        assert!(matches!(
            encode_metrics_request(&req),
            Err(ProtoError::Corrupt(_))
        ));
        // Forge it on the wire: encode a valid request, patch the tier.
        let frame = encode_metrics_request(&MetricsRequestFrame {
            format: MetricsFormat::Prometheus,
            tier: 0,
            window: 0,
        })
        .unwrap();
        let mut body = frame[HEADER_LEN..].to_vec();
        body[1] = 99;
        let err = decode_metrics_request(&body).unwrap_err();
        assert!(
            matches!(&err, ProtoError::Corrupt(m) if m.contains("tier selector")),
            "{err}"
        );
        // TIER_ALL is valid.
        body[1] = TIER_ALL;
        assert!(decode_metrics_request(&body).is_ok());
    }

    #[test]
    fn oversized_scrape_window_is_rejected() {
        let frame = encode_metrics_request(&MetricsRequestFrame {
            format: MetricsFormat::Json,
            tier: TIER_ALL,
            window: 1,
        })
        .unwrap();
        let mut body = frame[HEADER_LEN..].to_vec();
        body[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_metrics_request(&body),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn metrics_text_response_roundtrip() {
        for format in [MetricsFormat::Prometheus, MetricsFormat::Json] {
            let resp = MetricsResponseFrame::Text {
                format,
                body: "# HELP x y\n# TYPE x counter\nx 1\n".into(),
            };
            let frame = encode_metrics_response(&resp).unwrap();
            let header = parse_header(&frame[..HEADER_LEN]).unwrap();
            assert_eq!(header.frame_type, FrameType::MetricsResponse);
            assert_eq!(decode_metrics_response(&frame[HEADER_LEN..]).unwrap(), resp);
        }
    }

    #[test]
    fn metrics_binary_response_roundtrip() {
        let resp = MetricsResponseFrame::Binary(sample_payload());
        let frame = encode_metrics_response(&resp).unwrap();
        let decoded = decode_metrics_response(&frame[HEADER_LEN..]).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn metrics_binary_truncation_is_typed_error() {
        let frame =
            encode_metrics_response(&MetricsResponseFrame::Binary(sample_payload())).unwrap();
        let body = &frame[HEADER_LEN..];
        for cut in 0..body.len() {
            assert!(
                decode_metrics_response(&body[..cut]).is_err(),
                "binary scrape cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn metrics_text_truncation_is_typed_error() {
        let frame = encode_metrics_response(&MetricsResponseFrame::Text {
            format: MetricsFormat::Prometheus,
            body: "# HELP m x\n# TYPE m counter\nm 1\n".into(),
        })
        .unwrap();
        let body = &frame[HEADER_LEN..];
        for cut in 0..body.len() {
            assert!(
                decode_metrics_response(&body[..cut]).is_err(),
                "text scrape cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn forged_series_count_cannot_overallocate() {
        let frame =
            encode_metrics_response(&MetricsResponseFrame::Binary(sample_payload())).unwrap();
        let mut body = frame[HEADER_LEN..].to_vec();
        // Series count of tier 0 lives after format(1) + now_ms(8) +
        // n_tiers(1) + tier(1) + step_ms(8) = offset 19.
        body[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_metrics_response(&body).unwrap_err();
        assert!(matches!(err, ProtoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn health_frames_roundtrip() {
        let req = encode_health_request();
        let header = parse_header(&req[..HEADER_LEN]).unwrap();
        assert_eq!(header.frame_type, FrameType::HealthRequest);
        assert_eq!(header.body_len, 0);
        assert!(decode_health_request(&[]).is_ok());
        assert!(decode_health_request(&[1]).is_err());

        let statuses = vec![
            SloStatus {
                name: "stage.forward.p99".into(),
                state: SloState::Ok,
                value: 1.2e6,
                threshold: 5e6,
            },
            SloStatus {
                name: "bound.cert_rate".into(),
                state: SloState::Breach,
                value: 0.97,
                threshold: 0.999,
            },
        ];
        let frame = encode_health_response(&statuses).unwrap();
        let header = parse_header(&frame[..HEADER_LEN]).unwrap();
        assert_eq!(header.frame_type, FrameType::HealthResponse);
        assert_eq!(
            decode_health_response(&frame[HEADER_LEN..]).unwrap(),
            statuses
        );
    }

    #[test]
    fn health_response_truncation_is_typed_error() {
        let statuses = vec![SloStatus {
            name: "x".into(),
            state: SloState::Warn,
            value: 1.0,
            threshold: 2.0,
        }];
        let frame = encode_health_response(&statuses).unwrap();
        let body = &frame[HEADER_LEN..];
        for cut in 0..body.len() {
            assert!(
                decode_health_response(&body[..cut]).is_err(),
                "health cut at {cut} must fail"
            );
        }
        // Forged count.
        let mut forged = body.to_vec();
        forged[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_health_response(&forged).is_err());
    }

    #[test]
    fn telemetry_frame_headers_use_checked_discipline() {
        // Forged magic/version/reserved on the new frame types reject
        // exactly like inference frames.
        let mut frame = encode_metrics_request(&MetricsRequestFrame {
            format: MetricsFormat::Prometheus,
            tier: TIER_ALL,
            window: 0,
        })
        .unwrap();
        frame[0] = b'Z';
        assert!(matches!(
            parse_header(&frame[..HEADER_LEN]),
            Err(ProtoError::BadMagic(_))
        ));
        let mut frame = encode_health_request();
        frame[4] = 9;
        assert!(matches!(
            parse_header(&frame[..HEADER_LEN]),
            Err(ProtoError::BadVersion(9))
        ));
        let mut frame = encode_health_request();
        frame[6] = 7;
        assert!(matches!(
            parse_header(&frame[..HEADER_LEN]),
            Err(ProtoError::Corrupt(_))
        ));
    }
}

//! The inference server: admission control → plan cache → batched
//! execution → certified responses.
//!
//! A [`Server`] owns one model, the [`PlanTable`] its (expensive,
//! computed-once) spectral [`NetworkAnalysis`] and calibration forwards
//! reduce to, and `workers` threads behind one [`BoundedQueue`].  Each
//! worker runs a batch's whole chain (plan → compression roundtrip →
//! forward → respond) serially, so requests overlap only across workers.
//! Workers are *dedicated* threads registered with the
//! shared workspace pool ([`errflow_tensor::pool`]): they block on the
//! queue (so they sit outside the pool's compute-worker set) while their
//! chunk-decode and GEMM fan-out runs on the pool's compute workers.
//! Each request carries a payload of samples, a
//! relative QoI tolerance, and the norm/layout it is expressed in; the
//! worker pool answers with predictions **plus the certified relative
//! error bound** of the plan that produced them — always ≤ the requested
//! tolerance, because plans are cached at the tolerance bucket's *floor*
//! (see [`crate::cache`]).
//!
//! Request lifecycle:
//!
//! 1. [`Server::try_submit`] validates the payload and applies admission
//!    control: at capacity it returns [`ServeError::QueueFull`]
//!    immediately (callers shed or retry).  [`Server::submit`] blocks
//!    instead.
//! 2. A worker pops a batch of same-plan-key jobs and resolves the plan
//!    through the LRU [`crate::cache::PlanCache`].  A miss is arithmetic:
//!    [`PlanTable::plan`] at the bucket floor, plus an `Arc` to the chosen
//!    format's quantized weights and packed GEMM panels.  Those are a
//!    function of `(model, format)` alone, so the server builds them at
//!    most once per format (≤ 5 resident copies, never evicted) and every
//!    plan of that format shares them.  The worker then runs
//!    every payload through the error-bounded compression roundtrip with
//!    chunk decode fused straight into the batch input matrix's row
//!    slabs, executes **one** batched (packed-weight) forward pass over
//!    it and responds, before it pops the next batch.
//! 3. The caller collects its [`Response`] through the returned
//!    [`Ticket`].

use crate::batch::{extract_rows, transpose_into};
use crate::cache::{bucket_tolerance, PlanCache, PlanKey};
use crate::queue::{BoundedQueue, QueueFull};
use crate::stats::{RequestStages, ServerStats, StatsSnapshot};
use errflow_compress::chunked::ChunkedCompressor;
use errflow_compress::{CompressError, Compressor, MgardCompressor, SzCompressor, ZfpCompressor};
use errflow_core::analysis::format_index;
use errflow_core::{quantize_model, NetworkAnalysis};
use errflow_nn::{Model, PackedWeights};
use errflow_pipeline::planner::{flatten, input_bound, PayloadLayout};
use errflow_pipeline::{PipelinePlan, PlanTable, Planner, PlannerConfig};
use errflow_quant::QuantFormat;
use errflow_tensor::norms::Norm;
use errflow_tensor::sync::lock_recover;
use errflow_tensor::Matrix;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// Which error-bounded compression backend ingests request payloads.
/// Every backend is wrapped in a [`ChunkedCompressor`] so decompression
/// fans out across chunk-decode threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// SZ-class predictive coder.
    Sz,
    /// ZFP-class transform coder.
    Zfp,
    /// MGARD-class multigrid coder.
    Mgard,
}

impl BackendKind {
    /// Parses a backend name as used by the CLI (`sz|zfp|mgard`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "sz" => Ok(BackendKind::Sz),
            "zfp" => Ok(BackendKind::Zfp),
            "mgard" => Ok(BackendKind::Mgard),
            other => Err(format!("unknown backend: {other}")),
        }
    }

    /// The backend's short name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sz => "sz",
            BackendKind::Zfp => "zfp",
            BackendKind::Mgard => "mgard",
        }
    }

    /// The backend with a chunk fan-out of `threads` (the server passes its
    /// resolved [`Inner::decode_threads`]).
    fn build(&self, threads: usize) -> Box<dyn Compressor> {
        match self {
            BackendKind::Sz => {
                Box::new(ChunkedCompressor::new(SzCompressor::default()).with_threads(threads))
            }
            BackendKind::Zfp => {
                Box::new(ChunkedCompressor::new(ZfpCompressor::default()).with_threads(threads))
            }
            BackendKind::Mgard => {
                Box::new(ChunkedCompressor::new(MgardCompressor::default()).with_threads(threads))
            }
        }
    }
}

/// Server construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads.  `0` builds an admission-only server that enqueues
    /// but never executes — useful for backpressure tests.
    pub workers: usize,
    /// Bounded queue capacity (the admission-control limit).
    pub queue_capacity: usize,
    /// Maximum jobs coalesced into one batched forward pass.
    pub max_batch: usize,
    /// Plan-cache capacity (LRU-evicted).
    pub cache_capacity: usize,
    /// Fraction of each tolerance allocated to quantization (planner
    /// policy; see [`PlannerConfig::quant_share`]).
    pub quant_share: f64,
    /// Compression backend for payload ingest.
    pub backend: BackendKind,
    /// Chunk-decode threads per worker, for its [`ChunkedCompressor`] and
    /// the batch-wide decode fan-out alike; [`Server::new`] clamps it to
    /// the hardware once.
    pub decode_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            max_batch: 16,
            cache_capacity: 32,
            quant_share: 0.5,
            backend: BackendKind::Sz,
            decode_threads: 2,
        }
    }
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Input samples (each of the model's input dimension).
    pub samples: Vec<Vec<f32>>,
    /// Relative QoI tolerance the response bound must not exceed.
    pub rel_tolerance: f64,
    /// Norm the tolerance (and bound) are expressed in.
    pub norm: Norm,
    /// How the samples flatten into the compression payload.
    pub layout: PayloadLayout,
}

impl Request {
    // audit:allow(dead-pub) the constructor the serve, stage and bound tests
    // build their requests with; the load generator and the wire fill all
    // four fields themselves.
    /// A request with the default norm (L∞) and feature-major layout.
    pub fn new(samples: Vec<Vec<f32>>, rel_tolerance: f64) -> Self {
        Request {
            samples,
            rel_tolerance,
            norm: Norm::LInf,
            layout: PayloadLayout::FeatureMajor,
        }
    }
}

/// A fulfilled request: predictions plus the certificate they ship with.
#[derive(Debug, Clone)]
pub struct Response {
    /// One prediction per request sample, in order.
    pub outputs: Vec<Vec<f32>>,
    /// Certified relative QoI error bound (≤ the requested tolerance).
    pub rel_bound: f64,
    /// Weight format the plan selected.
    pub format: QuantFormat,
    /// Tolerance the plan was computed at (the request's bucket floor).
    pub plan_tolerance: f64,
    /// `true` when the plan came from the cache.
    pub cache_hit: bool,
    /// Jobs that shared this batched forward pass.
    pub batch_size: usize,
    /// End-to-end latency (admission → response).
    pub latency: Duration,
    /// Where the request's time went (disjoint stage intervals; their sum
    /// is ≤ `latency`).
    pub stages: RequestStages,
}

/// Why a request was rejected or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the queue is at capacity.  Retry later or shed.
    QueueFull,
    /// The request payload failed validation.
    Invalid(String),
    /// The compression roundtrip failed.
    Compression(String),
    /// The server shut down before the request completed.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "queue full (admission control)"),
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServeError::Compression(m) => write!(f, "compression failed: {m}"),
            ServeError::Shutdown => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One-shot response slot a worker fulfills and a client waits on.
#[derive(Debug)]
struct Slot {
    result: Mutex<Option<Result<Response, ServeError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, r: Result<Response, ServeError>) {
        *errflow_tensor::sync::lock_recover(&self.result) = Some(r);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Response, ServeError> {
        // Poison-recovering waits: if a batch worker panics while holding a
        // slot lock, the waiting client gets a ServeError (or the already
        // delivered response), never a cascading panic.
        let mut guard = errflow_tensor::sync::lock_recover(&self.result);
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = errflow_tensor::sync::wait_recover(&self.ready, guard);
        }
    }
}

/// Handle to a pending request; [`Ticket::wait`] blocks for the response.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request completes (or the server shuts down).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.slot.wait()
    }
}

/// How a completed job hands its result back: a [`Slot`] a [`Ticket`]
/// holder blocks on (in-process path), or a completion hook invoked on the
/// worker thread (the `errflow-net` path — the hook must not block; it
/// forwards the result to the connection's io thread).
enum Responder {
    Slot(Arc<Slot>),
    Hook(Box<dyn FnOnce(Result<Response, ServeError>) + Send>),
}

impl Responder {
    fn fulfill(self, r: Result<Response, ServeError>) {
        match self {
            Responder::Slot(slot) => slot.fulfill(r),
            Responder::Hook(hook) => hook(r),
        }
    }
}

/// A queued unit of work.
struct Job {
    samples: Vec<Vec<f32>>,
    key: PlanKey,
    /// Bucket-floor tolerance the plan is computed at.
    plan_tol: f64,
    norm: Norm,
    layout: PayloadLayout,
    responder: Responder,
    /// Frontend frame read + decode time (0 for in-process submissions).
    ingress_ns: u64,
    t0: Instant,
    /// Admission time on the trace clock, so the queue-wait interval can
    /// be recorded as a cross-thread span at dequeue.
    t0_trace_ns: u64,
}

/// One format's share of every plan that selects it: the model quantized
/// to that format and its GEMM panels, packed once.
struct FormatWeights<M> {
    quantized: M,
    /// Packed weight panels for `forward_batch_matrix`; `None` for models
    /// whose forward path is not GEMM-lowered.
    packed: Option<PackedWeights>,
}

/// A plan-cache entry: the per-key arithmetic (the plan, whose
/// `rel_bound` every response carries) and a handle to the per-format
/// weights.
struct CachedPlan<M> {
    plan: PipelinePlan,
    weights: Arc<FormatWeights<M>>,
}

struct Inner<M> {
    model: M,
    table: PlanTable,
    cache: PlanCache<CachedPlan<M>>,
    /// Filled on a format's first plan and kept for the server's life,
    /// indexed by [`format_index`].
    weights: [OnceLock<Arc<FormatWeights<M>>>; 5],
    stats: ServerStats,
    cfg: ServeConfig,
    /// Chunk-decode fan-out per worker: `cfg.decode_threads` clamped to
    /// the hardware once, here.  The shared pool floors its size at 4 to
    /// keep concurrency paths exercised, but fanning the codec out wider
    /// than the cores only adds dispatch overhead (see
    /// [`errflow_tensor::pool::hardware_threads`]).
    decode_threads: usize,
    model_id: u64,
    input_dim: usize,
    /// Process-wide scratch-pool `(hits, misses)` at construction time;
    /// `Server::stats` reports deltas against it so the snapshot describes
    /// *this* server's traffic, not every compressor in the process.
    scratch_base: (u64, u64),
}

impl<M: Model + Clone> Inner<M> {
    /// The shared weights for `format`, quantized and packed by whichever
    /// caller asks first; concurrent first callers wait for that one build.
    fn weights_for(&self, format: QuantFormat) -> Arc<FormatWeights<M>> {
        Arc::clone(self.weights[format_index(format)].get_or_init(|| {
            self.stats.weight_builds.inc();
            let quantized = quantize_model(&self.model, format);
            let packed = quantized.pack_weights();
            Arc::new(FormatWeights { quantized, packed })
        }))
    }
}

/// The concurrent batched inference server.  See the module docs for the
/// request lifecycle.
pub struct Server<M: Model + Clone + Send + Sync + 'static> {
    inner: Arc<Inner<M>>,
    queue: Arc<BoundedQueue<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Norm discriminant for [`PlanKey`].
fn norm_code(norm: Norm) -> u8 {
    match norm {
        Norm::L2 => 0,
        Norm::LInf => 1,
    }
}

/// Layout discriminant for [`PlanKey`].
fn layout_code(layout: PayloadLayout) -> u8 {
    match layout {
        PayloadLayout::FeatureMajor => 0,
        PayloadLayout::SampleMajor => 1,
    }
}

impl<M: Model + Clone + Send + Sync + 'static> Server<M> {
    /// Builds the server: runs the spectral analysis and the calibration
    /// forwards once, keeps the [`PlanTable`] they reduce to, then spawns
    /// the worker pool.  `calibration` fixes the reference QoI magnitudes
    /// that relative tolerances are measured against (as in
    /// [`Planner::new`]).
    pub fn new(model: M, calibration: Vec<Vec<f32>>, cfg: ServeConfig) -> Self {
        assert!(!calibration.is_empty(), "need calibration inputs");
        assert!(
            (0.0..=1.0).contains(&cfg.quant_share),
            "quant_share must be in [0, 1]"
        );
        let input_dim = model.input_dim();
        for x in &calibration {
            assert_eq!(x.len(), input_dim, "calibration sample dim mismatch");
        }
        settle_malloc_thresholds();
        let table =
            *Planner::with_analysis(&model, &calibration, NetworkAnalysis::of(&model)).table();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (input_dim, model.output_dim(), model.num_params()).hash(&mut h);
        model.flops().to_bits().hash(&mut h);
        let inner = Arc::new(Inner {
            model,
            table,
            cache: PlanCache::new(cfg.cache_capacity),
            weights: Default::default(),
            stats: ServerStats::default(),
            cfg,
            decode_threads: cfg
                .decode_threads
                .clamp(1, errflow_tensor::pool::hardware_threads()),
            model_id: h.finish(),
            input_dim,
            scratch_base: errflow_compress::scratch::pool_stats(),
        });
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        // Workers are pool-accounted *dedicated* threads: they block on the
        // queue, so they live outside the compute-worker set, while their
        // chunk-decode fan-out rides the shared pool's compute workers.
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let queue = Arc::clone(&queue);
                errflow_tensor::pool::global()
                    .spawn_dedicated(format!("errflow-serve-{i}"), move || {
                        worker_loop(&inner, &queue)
                    })
            })
            .collect();
        Server {
            inner,
            queue,
            workers,
        }
    }

    /// The served model's input dimension.
    pub fn input_dim(&self) -> usize {
        self.inner.input_dim
    }

    /// Stable identifier of the served model (a structural hash).  The
    /// wire protocol carries it so a client can assert it is talking to
    /// the model it expects; `0` in a request frame means "any model".
    pub fn model_id(&self) -> u64 {
        self.inner.model_id
    }

    /// Validates a request and resolves its plan key + bucket-floor
    /// tolerance (shared by every submission path).
    fn validate(&self, req: &Request) -> Result<(PlanKey, f64), ServeError> {
        if req.samples.is_empty() {
            return Err(ServeError::Invalid("empty payload".into()));
        }
        if req.samples.iter().any(|s| s.len() != self.inner.input_dim) {
            return Err(ServeError::Invalid(format!(
                "sample dim != model input dim {}",
                self.inner.input_dim
            )));
        }
        if !(req.rel_tolerance.is_finite() && req.rel_tolerance > 0.0) {
            return Err(ServeError::Invalid("tolerance must be positive".into()));
        }
        let (bucket, plan_tol) = bucket_tolerance(req.rel_tolerance);
        let key = PlanKey {
            model_id: self.inner.model_id,
            tol_bucket: bucket,
            norm: norm_code(req.norm),
            layout: layout_code(req.layout),
        };
        Ok((key, plan_tol))
    }

    /// The one admission path: validate, enqueue (blocking or not) and
    /// count.  The queue reports a closed queue as "full"; a shut-down
    /// server will never admit, so that is [`ServeError::Shutdown`] and not
    /// a rejection the caller should retry.
    fn admit(
        &self,
        req: Request,
        ingress_ns: u64,
        responder: Responder,
        block: bool,
    ) -> Result<(), ServeError> {
        let _span = errflow_obs::trace::span("serve.enqueue");
        let (key, plan_tol) = self.validate(&req)?;
        let job = Job {
            samples: req.samples,
            key,
            plan_tol,
            norm: req.norm,
            layout: req.layout,
            responder,
            ingress_ns,
            t0: Instant::now(),
            t0_trace_ns: errflow_obs::trace::now_ns(),
        };
        let pushed = if block {
            self.queue.push(job)
        } else {
            self.queue.try_push(job)
        };
        match pushed {
            Ok(()) => {
                self.inner.stats.submitted.inc();
                Ok(())
            }
            Err(QueueFull(_)) if self.queue.is_closed() => Err(ServeError::Shutdown),
            Err(QueueFull(_)) => {
                self.inner.stats.rejected.inc();
                Err(ServeError::QueueFull)
            }
        }
    }

    fn admit_ticket(&self, req: Request, block: bool) -> Result<Ticket, ServeError> {
        let slot = Arc::new(Slot::new());
        self.admit(req, 0, Responder::Slot(Arc::clone(&slot)), block)?;
        Ok(Ticket { slot })
    }

    /// Submits without blocking.  Returns [`ServeError::QueueFull`] when
    /// admission control rejects the request (the payload is dropped; the
    /// caller owns retry policy), [`ServeError::Shutdown`] after shutdown.
    pub fn try_submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.admit_ticket(req, false)
    }

    /// Submits, blocking while the queue is at capacity (backpressure is
    /// exerted on the caller instead of surfacing [`ServeError::QueueFull`]).
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.admit_ticket(req, true)
    }

    /// Convenience: submit (blocking) and wait for the response.
    pub fn process(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Non-blocking submission with a completion hook instead of a
    /// [`Ticket`] — the `errflow-net` ingress path.  The hook runs on the
    /// worker thread that completes the job, so it must not block (the net
    /// frontend forwards the result to the connection's io thread and
    /// returns).  `ingress_ns` is the frontend's frame read + decode time;
    /// it is attributed to the request's [`RequestStages`].
    ///
    /// On [`ServeError::QueueFull`], [`ServeError::Shutdown`] or validation
    /// failure the hook is never invoked and the error returns synchronously,
    /// so the caller can map it to a wire error without waiting.
    pub fn try_submit_with(
        &self,
        req: Request,
        ingress_ns: u64,
        hook: impl FnOnce(Result<Response, ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.admit(req, ingress_ns, Responder::Hook(Box::new(hook)), false)
    }

    /// Records a frontend egress interval (response encode + socket write)
    /// into this server's stage statistics.  Called by the net frontend;
    /// in-process traffic never records egress.
    pub fn note_egress_ns(&self, ns: u64) {
        self.inner.stats.stages.egress.record_ns(ns);
    }

    /// Point-in-time statistics: counters, queue depth, cache hit/miss,
    /// latency distribution.
    pub fn stats(&self) -> StatsSnapshot {
        Self::snapshot_of(&self.inner, &self.queue)
    }

    /// A `'static` snapshot closure over this server's stats — the hook
    /// [`crate::telemetry::start_telemetry`] polls once per interval.  It
    /// holds only `Arc`s, so it outlives the `Server` handle (after
    /// shutdown it keeps reporting the drained server's final counters).
    pub fn stats_source(&self) -> impl Fn() -> StatsSnapshot + Send + Sync + 'static {
        let inner = Arc::clone(&self.inner);
        let queue = Arc::clone(&self.queue);
        move || Self::snapshot_of(&inner, &queue)
    }

    fn snapshot_of(inner: &Inner<M>, queue: &BoundedQueue<Job>) -> StatsSnapshot {
        let s = &inner.stats;
        // The scratch pool is process-wide; report the delta since this
        // server was built (saturating: concurrent pool traffic makes the
        // counters race ahead of the baseline, never behind it).
        let (hits, misses) = errflow_compress::scratch::pool_stats();
        let (base_hits, base_misses) = inner.scratch_base;
        StatsSnapshot {
            submitted: s.submitted.get(),
            rejected: s.rejected.get(),
            completed: s.completed.get(),
            failed: s.failed.get(),
            batches: s.batches.get(),
            batched_jobs: s.batched_jobs.get(),
            queue_depth: queue.len(),
            cache_hits: inner.cache.hits(),
            cache_misses: inner.cache.misses(),
            weight_builds: s.weight_builds.get(),
            decomp_ns: s.decomp_ns.get(),
            decomp_bytes_in: s.decomp_bytes_in.get(),
            decomp_bytes_out: s.decomp_bytes_out.get(),
            scratch_hits: hits.saturating_sub(base_hits),
            scratch_misses: misses.saturating_sub(base_misses),
            latency: s.latency.summary(),
            stages: s.stages.breakdown(),
        }
    }

    /// Graceful shutdown: stop admitting, let workers drain the backlog,
    /// fail anything left (only possible with zero workers) with
    /// [`ServeError::Shutdown`].  Also runs on drop.
    pub fn shutdown(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for job in self.queue.drain() {
            job.responder.fulfill(Err(ServeError::Shutdown));
        }
    }
}

impl<M: Model + Clone + Send + Sync + 'static> Drop for Server<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Allocates and frees one untouched 16 MiB block, once per process.
///
/// A worker's per-batch transients (flat payload, stream, batch matrix,
/// feature-major scratch, activations) come to 1–2 MiB at 256 KiB payloads
/// and are all free again when the batch ends.  glibc sets its mmap and
/// trim thresholds from the largest mmapped block freed *so far* (trim =
/// 2 × that, capped at 32/64 MiB), so whether the worker's arena keeps
/// those pages or `madvise`s them away after every batch — ≈ 190 minor
/// faults per request against ≈ 20, 700 against 830 requests/s on
/// `codec_zfp_fm` — used to depend on which batch sizes the first few
/// requests happened to form.  Freeing a block larger than any batch's
/// transients first settles the thresholds at 16/32 MiB for every run.
/// The block is never written, so it costs one `mmap`/`munmap` pair and no
/// resident memory; on allocators without the heuristic it does nothing.
/// Called by [`Server::new`], so small-payload servers settle too: left to
/// the dynamic heuristic, their set-up time followed the size of each new
/// worker's encoder scratch.
fn settle_malloc_thresholds() {
    static SETTLED: Once = Once::new();
    SETTLED.call_once(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(16 << 20))));
}

/// One worker thread: pop a same-plan batch, serve it start to finish,
/// repeat until the queue is closed and drained.
fn worker_loop<M: Model + Clone + Send + Sync>(inner: &Inner<M>, queue: &BoundedQueue<Job>) {
    let compressor = inner.cfg.backend.build(inner.decode_threads);
    while let Some(batch) = queue.pop_batch(inner.cfg.max_batch.max(1), |j: &Job| j.key) {
        serve_batch(inner, compressor.as_ref(), batch);
    }
}

/// One payload that survived compression, waiting on the fused decode.
struct Pending {
    job: Job,
    wait_ns: u64,
    stream: Vec<u8>,
    /// Samples in the payload, and the batch-matrix row its first one
    /// decodes into.
    n: usize,
    row0: usize,
}

/// Serves one same-plan batch on the calling worker: resolve the plan,
/// compress every payload under the plan's input budget, decode them all
/// into the batch input matrix, run one batched forward pass over it
/// (prepacked weight panels when the model provides them) and fan the
/// responses out.  Payloads that fail either codec half get their error
/// response at that point and drop out of the batch.
fn serve_batch<M: Model + Clone + Send + Sync>(
    inner: &Inner<M>,
    compressor: &dyn Compressor,
    batch: Vec<Job>,
) {
    // Stage attribution invariant: every interval recorded below is a
    // disjoint slice of wall time inside [job.t0, fulfill), so each
    // request's stage sum is ≤ its end-to-end latency.  Batch-level
    // intervals (plan, decompress, forward) are attributed in full to
    // every job in the batch; that keeps the invariant because they
    // are still disjoint from the job's own batch-wait/respond slices.
    // The chain is serial on this thread, so what the stages leave
    // unattributed is flatten + compress.
    let dequeued = Instant::now();
    let dequeued_trace_ns = errflow_obs::trace::now_ns();
    inner.stats.note_batch(batch.len());

    let plan_tol = batch[0].plan_tol;
    let norm = batch[0].norm;
    let t_plan = Instant::now();
    let (cached, hit) = {
        let _span = errflow_obs::trace::span("serve.plan");
        inner.cache.get_or_insert_with(batch[0].key, || {
            let plan = inner.table.plan(&PlannerConfig {
                rel_tolerance: plan_tol,
                norm,
                quant_share: inner.cfg.quant_share,
            });
            CachedPlan {
                plan,
                weights: inner.weights_for(plan.format),
            }
        })
    };
    let plan_ns = t_plan.elapsed().as_nanos() as u64;
    inner.stats.stages.plan.record_ns(plan_ns);

    let fail = |job: Job, e: CompressError| {
        inner.stats.failed.inc();
        job.responder
            .fulfill(Err(ServeError::Compression(e.to_string())));
    };
    let d = inner.input_dim;
    let mut pending: Vec<Pending> = Vec::with_capacity(batch.len());
    let mut total = 0usize;
    for job in batch {
        let wait_ns = dequeued.duration_since(job.t0).as_nanos() as u64;
        inner.stats.stages.batch_wait.record_ns(wait_ns);
        if job.ingress_ns > 0 {
            inner.stats.stages.ingress.record_ns(job.ingress_ns);
        }
        // Queue wait crosses threads, so it is recorded as an explicit
        // interval rather than a scoped guard.
        errflow_obs::trace::record_span("serve.batch_wait", job.t0_trace_ns, dequeued_trace_ns);
        let n = job.samples.len();
        let payload = flatten(&job.samples, job.layout);
        let bound = input_bound(&cached.plan, compressor, payload.len());
        match compressor.compress(&payload, &bound) {
            Ok(stream) => {
                pending.push(Pending {
                    job,
                    wait_ns,
                    stream,
                    n,
                    row0: total,
                });
                total += n;
            }
            Err(e) => fail(job, e),
        }
    }
    if pending.is_empty() {
        return;
    }

    let mut inputs = Matrix::zeros(total, d);
    let t_dec = Instant::now();
    let errors = decode_into_rows(inner, compressor, &pending, &mut inputs);
    let dec_ns = t_dec.elapsed().as_nanos() as u64;

    let bytes_in: u64 = pending.iter().map(|p| p.stream.len() as u64).sum();
    let mut bytes_out = 0u64;
    // Row offsets were fixed when the matrix was carved, so a payload that
    // failed to decode leaves its rows zeroed and the others where they are.
    let mut served = Vec::with_capacity(pending.len());
    for (p, err) in pending.into_iter().zip(errors) {
        match err {
            Some(e) => fail(p.job, e),
            None => {
                inner.stats.stages.decompress.record_ns(dec_ns);
                bytes_out += (p.n * d * 4) as u64;
                served.push(p);
            }
        }
    }
    inner.stats.note_decomp(dec_ns, bytes_in, bytes_out);
    if served.is_empty() {
        return;
    }

    let batch_size = served.len();
    let t_fwd = Instant::now();
    let out = {
        let _span = errflow_obs::trace::span("serve.forward");
        let w = &cached.weights;
        w.quantized.forward_batch_matrix(&inputs, w.packed.as_ref())
    };
    let forward_ns = t_fwd.elapsed().as_nanos() as u64;
    inner.stats.stages.forward.record_ns(forward_ns);

    let t_respond = Instant::now();
    let _respond_span = errflow_obs::trace::span("serve.respond");
    for p in served {
        let job = p.job;
        let outputs = extract_rows(&out, p.row0, p.n);
        // respond_ns is measured *before* the end-to-end latency so the
        // stage sum stays ≤ latency for this request.
        let respond_ns = t_respond.elapsed().as_nanos() as u64;
        inner.stats.stages.respond.record_ns(respond_ns);
        let latency = job.t0.elapsed();
        inner.stats.latency.record(latency);
        inner.stats.completed.inc();
        // egress_ns stays 0 here: the net frontend stamps it into the
        // wire frame during encode (after this fulfill) and records it
        // via `Server::note_egress_ns`.
        job.responder.fulfill(Ok(Response {
            outputs,
            rel_bound: cached.plan.rel_bound,
            format: cached.plan.format,
            plan_tolerance: plan_tol,
            cache_hit: hit,
            batch_size,
            latency,
            stages: RequestStages {
                ingress_ns: job.ingress_ns,
                batch_wait_ns: p.wait_ns,
                plan_ns,
                decompress_ns: dec_ns,
                forward_ns,
                respond_ns,
                egress_ns: 0,
            },
        }));
    }
}

/// Decodes **all** pending payloads' chunk units in one joint fan-out
/// straight into `inputs`, which holds one row per sample in `pending`
/// order.  Sample-major payloads decode zero-copy into their row slab;
/// feature-major payloads decode into a scratch slab and are transposed
/// into place.  Returns each payload's decode error, if it had one.
fn decode_into_rows<M>(
    inner: &Inner<M>,
    compressor: &dyn Compressor,
    pending: &[Pending],
    inputs: &mut Matrix,
) -> Vec<Option<CompressError>> {
    let d = inner.input_dim;
    // Feature-major payloads cannot decode straight into row slabs (their
    // flat layout is the transpose), so they share one scratch slab,
    // addressed by (offset, len) per payload.
    let fm_total: usize = pending
        .iter()
        .filter(|p| matches!(p.job.layout, PayloadLayout::FeatureMajor))
        .map(|p| p.n * d)
        .sum();
    let mut fm_buf = vec![0.0f32; fm_total];
    let errors: Vec<Mutex<Option<CompressError>>> =
        (0..pending.len()).map(|_| Mutex::new(None)).collect();
    // (payload index, scratch offset, row slab) for the post-decode
    // transpose of each feature-major payload.
    let mut fm_transposes: Vec<(usize, usize, &mut [f32])> = Vec::new();
    {
        let _span = errflow_obs::trace::span("serve.decompress");
        // Carve the batch matrix (and the feature-major scratch) into
        // disjoint per-payload slabs.
        let mut rest = inputs.as_mut_slice();
        let mut fm_rest = fm_buf.as_mut_slice();
        let mut fm_off = 0usize;
        // Joint fan-out: every payload's decode units flatten into one
        // task list; each cell hands its (unit, destination) pair to
        // exactly one pool task.
        type Cell<'a> = Mutex<Option<(errflow_compress::DecodeUnit<'a>, &'a mut [f32])>>;
        let mut cells: Vec<Cell> = Vec::new();
        let mut unit_payload: Vec<usize> = Vec::new();
        for (i, p) in pending.iter().enumerate() {
            let want = (p.n * d).min(rest.len());
            let (slab, tail) = rest.split_at_mut(want);
            rest = tail;
            let mut dst: &mut [f32] = match p.job.layout {
                PayloadLayout::SampleMajor => slab,
                PayloadLayout::FeatureMajor => {
                    let (scratch_dst, fm_tail) = fm_rest.split_at_mut(want.min(fm_rest.len()));
                    fm_rest = fm_tail;
                    fm_transposes.push((i, fm_off, slab));
                    fm_off += want;
                    scratch_dst
                }
            };
            match compressor.decode_units(&p.stream, p.n * d) {
                Ok(units) if units.iter().map(|u| u.len).sum::<usize>() == dst.len() => {
                    for u in units {
                        let (head, tail) = dst.split_at_mut(u.len);
                        cells.push(Mutex::new(Some((u, head))));
                        unit_payload.push(i);
                        dst = tail;
                    }
                }
                Ok(_) => {
                    *lock_recover(&errors[i]) = Some(CompressError::CorruptStream(
                        "decode units do not tile the payload".into(),
                    ));
                }
                Err(e) => *lock_recover(&errors[i]) = Some(e),
            }
        }
        let decode_one = |idx: usize| {
            let taken = lock_recover(&cells[idx]).take();
            if let Some((unit, out)) = taken {
                let mut scratch = errflow_compress::scratch::acquire();
                if let Err(e) = compressor.decode_unit_into(&unit, out, &mut scratch) {
                    let Some(&pi) = unit_payload.get(idx) else {
                        return;
                    };
                    let mut slot = lock_recover(&errors[pi]);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            }
        };
        // Runs inline when the fan-out is 1 or there is one unit.
        errflow_tensor::pool::global().parallel_for(cells.len(), inner.decode_threads, &decode_one);
    }
    // Transpose feature-major scratch decodes into their row slabs.
    for (i, off, slab) in fm_transposes {
        if lock_recover(&errors[i]).is_some() {
            continue;
        }
        let n = pending.get(i).map(|p| p.n).unwrap_or(0);
        let src = fm_buf.get(off..off + n * d);
        if !src.is_some_and(|src| transpose_into(src, n, d, slab)) {
            *lock_recover(&errors[i]) = Some(CompressError::CorruptStream(
                "payload does not fill its batch rows".into(),
            ));
        }
    }
    errors.iter().map(|m| lock_recover(m).take()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_compress::ErrorBound;
    use errflow_nn::{Activation, Mlp};

    fn tiny_model() -> Mlp {
        Mlp::new(&[4, 8, 2], Activation::Tanh, Activation::Identity, 3, None)
    }

    fn calibration(n: usize) -> Vec<Vec<f32>> {
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(17);
        (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    #[test]
    fn backend_parsing() {
        assert_eq!(BackendKind::parse("sz"), Ok(BackendKind::Sz));
        assert_eq!(BackendKind::parse("zfp"), Ok(BackendKind::Zfp));
        assert_eq!(BackendKind::parse("mgard"), Ok(BackendKind::Mgard));
        assert!(BackendKind::parse("gzip").is_err());
        assert_eq!(BackendKind::Mgard.name(), "mgard");
    }

    #[test]
    fn invalid_requests_rejected_synchronously() {
        let server = Server::new(
            tiny_model(),
            calibration(8),
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        );
        let empty = Request::new(Vec::new(), 1e-2);
        assert!(matches!(
            server.try_submit(empty),
            Err(ServeError::Invalid(_))
        ));
        let wrong_dim = Request::new(vec![vec![0.0; 3]], 1e-2);
        assert!(matches!(
            server.try_submit(wrong_dim),
            Err(ServeError::Invalid(_))
        ));
        let bad_tol = Request::new(vec![vec![0.0; 4]], -1.0);
        assert!(matches!(
            server.try_submit(bad_tol),
            Err(ServeError::Invalid(_))
        ));
        assert_eq!(server.stats().submitted, 0);
    }

    #[test]
    fn single_request_roundtrip() {
        let server = Server::new(
            tiny_model(),
            calibration(8),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let resp = server
            .process(Request::new(vec![vec![0.1, -0.2, 0.3, 0.0]], 1e-2))
            .unwrap();
        assert_eq!(resp.outputs.len(), 1);
        assert_eq!(resp.outputs[0].len(), 2);
        assert!(resp.rel_bound <= 1e-2, "bound {} > tol", resp.rel_bound);
        assert!(resp.rel_bound > 0.0);
        assert!(resp.plan_tolerance <= 1e-2);
        assert!(!resp.cache_hit, "first request must be a cache miss");
        let snap = server.stats();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn fused_decode_into_matrix_rows_matches_decompress() {
        // The serve hot path decodes payload chunks straight into the
        // batch matrix's row slabs; byte-for-byte it must equal the plain
        // decompress it replaced.
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(23);
        let n_samples = 5_000;
        let d = 4;
        let payload: Vec<f32> = (0..n_samples * d)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let compressor = BackendKind::Sz.build(2);
        let bound = ErrorBound::abs_linf(1e-3);
        let stream = compressor.compress(&payload, &bound).unwrap();
        let expected = compressor.decompress(&stream, payload.len()).unwrap();

        let mut m = Matrix::zeros(n_samples + 10, d); // payload lands mid-matrix
        let slab = &mut m.as_mut_slice()[5 * d..(5 + n_samples) * d];
        let units = compressor.decode_units(&stream, n_samples * d).unwrap();
        let mut scratch = errflow_compress::scratch::acquire();
        for u in &units {
            compressor
                .decode_unit_into(u, &mut slab[u.offset..u.offset + u.len], &mut scratch)
                .unwrap();
        }
        assert_eq!(&m.as_slice()[5 * d..(5 + n_samples) * d], &expected[..]);
        // Rows outside the slab stay untouched.
        assert!(m.row(0).iter().all(|&v| v == 0.0));
        assert!(m.row(n_samples + 9).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn batched_requests_both_layouts() {
        let server = Server::new(
            tiny_model(),
            calibration(8),
            ServeConfig {
                workers: 1,
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(7);
        let samples = |n: usize, rng: &mut errflow_tensor::rng::StdRng| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect()
        };
        let mut tickets = Vec::new();
        for layout in [PayloadLayout::SampleMajor, PayloadLayout::FeatureMajor] {
            for n in [1usize, 3, 7] {
                let req = Request {
                    samples: samples(n, &mut rng),
                    rel_tolerance: 1e-2,
                    norm: Norm::L2,
                    layout,
                };
                tickets.push((n, server.submit(req).unwrap()));
            }
        }
        for (n, t) in tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.outputs.len(), n);
            assert!(resp.outputs.iter().all(|o| o.len() == 2));
            assert!(resp.outputs.iter().flatten().all(|v| v.is_finite()));
            assert!(resp.rel_bound <= 1e-2);
            let s = &resp.stages;
            let sum = s.ingress_ns
                + s.batch_wait_ns
                + s.plan_ns
                + s.decompress_ns
                + s.forward_ns
                + s.respond_ns;
            assert!(
                sum <= resp.latency.as_nanos() as u64,
                "stage sum {sum} exceeds latency {}",
                resp.latency.as_nanos()
            );
        }
        let snap = server.stats();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn shutdown_fails_unserved_requests() {
        let mut server = Server::new(
            tiny_model(),
            calibration(8),
            ServeConfig {
                workers: 0,
                queue_capacity: 4,
                ..ServeConfig::default()
            },
        );
        let ticket = server
            .try_submit(Request::new(vec![vec![0.0; 4]], 1e-2))
            .unwrap();
        server.shutdown();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Shutdown);
        // A closed server is not a full one: nothing to retry, no rejection.
        let req = || Request::new(vec![vec![0.0; 4]], 1e-2);
        assert_eq!(server.try_submit(req()).unwrap_err(), ServeError::Shutdown);
        assert_eq!(
            server.try_submit_with(req(), 0, |_| ()).unwrap_err(),
            ServeError::Shutdown
        );
        assert_eq!(server.submit(req()).unwrap_err(), ServeError::Shutdown);
        assert_eq!(server.stats().rejected, 0);
    }

    #[test]
    fn shutdown_drains_the_backlog_through_the_workers() {
        let mut server = Server::new(
            tiny_model(),
            calibration(8),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        );
        // Park each worker in a completion hook, one at a time so the two
        // holds cannot coalesce onto one worker.
        let holds: Vec<_> = (0..2)
            .map(|_| {
                let (entered_tx, entered_rx) = std::sync::mpsc::channel();
                let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
                let hold = Request::new(vec![vec![0.0; 4]], 1e-1);
                server
                    .try_submit_with(hold, 0, move |_| {
                        let _ = entered_tx.send(());
                        let _ = release_rx.recv();
                    })
                    .unwrap();
                entered_rx.recv().unwrap();
                release_tx
            })
            .collect();
        let tickets: Vec<_> = (0..12)
            .map(|i| {
                let tol = [1e-2, 1e-3, 1e-4][i % 3];
                let req = Request::new(vec![vec![0.1 * i as f32; 4]], tol);
                server.try_submit(req).unwrap()
            })
            .collect();
        assert_eq!(server.stats().queue_depth, 12);
        // The workers are released only once the queue is closed, so the
        // whole backlog is still queued when shutdown starts.
        let queue = Arc::clone(&server.queue);
        let releaser = std::thread::spawn(move || {
            while !queue.is_closed() {
                std::thread::yield_now();
            }
            drop(holds);
        });
        server.shutdown();
        releaser.join().unwrap();
        for t in tickets {
            assert!(t.wait().is_ok(), "an admitted request was not served");
        }
        assert_eq!(server.stats().completed, 14);
    }
}

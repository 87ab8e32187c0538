//! The network frontend: nonblocking acceptor/reader io threads driving
//! [`Conn`] state machines and dispatching decoded requests into an
//! [`errflow_serve::Server`] through its bounded admission queue.
//!
//! Threading: `io_threads` dedicated threads (from
//! [`errflow_tensor::pool::ThreadPool::spawn_dedicated`], so they are
//! accounted outside the compute-worker set).  Thread 0 owns the listener
//! and routes accepted connections round-robin across all io threads; each
//! thread runs a readiness poll loop ([`crate::poll`]) over its own
//! connections plus a wake pipe.  Serve workers never touch sockets:
//! completions are handed back through a per-thread completion queue (the
//! submit hook pushes and wakes), and the io thread encodes + writes.
//!
//! Admission semantics over the wire: [`ServeError::QueueFull`] becomes a
//! **retryable** error frame and the connection stays open — backpressure
//! is never a dropped connection.  Malformed frames get a typed error
//! frame and then the connection closes (framing is unsynchronized).

use crate::conn::{Conn, ConnEvent};
use crate::poll::{poll_fds, PollFd};
use crate::proto::{self, ErrorFrame, ResponseFrame};
use errflow_nn::Model;
use errflow_obs::Counter;
use errflow_serve::server::{Request, Response, ServeError, Server};
use errflow_tensor::sync::lock_recover;
use std::io::{ErrorKind, PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Network frontend construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Dedicated io (acceptor/reader) threads.
    pub io_threads: usize,
    /// Maximum concurrent connections across all io threads; excess
    /// accepts are closed immediately.
    pub max_connections: usize,
    /// Connections idle longer than this (no traffic, nothing in flight)
    /// are closed.
    pub idle_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            io_threads: 1,
            max_connections: 256,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Poll timeout: bounds idle-sweep latency and shutdown response time.
const POLL_TICK: Duration = Duration::from_millis(100);

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    0
}

/// A completed job on its way back to a connection.
struct Completion {
    slot: usize,
    gen: u64,
    result: Result<Response, ServeError>,
    /// When the worker fulfilled the job (egress measurement starts here).
    fulfilled: Instant,
}

/// One io thread's mailbox: freshly accepted connections and completed
/// jobs land here; a byte in the wake pipe interrupts its poll.
struct IoShared {
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    wake_tx: PipeWriter,
    /// A doorbell byte is in the pipe or on its way: later wakes write
    /// nothing, so at most one byte is ever pending and a write never
    /// blocks.  The io thread clears it after taking the byte and before
    /// it drains the mailboxes, so a push that found it set is drained.
    rung: AtomicBool,
}

impl IoShared {
    fn new(wake_tx: PipeWriter) -> Self {
        IoShared {
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            wake_tx,
            rung: AtomicBool::new(false),
        }
    }

    fn wake(&self) {
        if self.rung.swap(true, Ordering::SeqCst) {
            return;
        }
        // A 1-byte write to a pipe costs about a tenth of one to a loopback
        // socket.  A failed one is harmless — the loop re-checks mailboxes
        // on its poll tick anyway — but must not leave the bell marked
        // rung with no byte to take.
        if (&self.wake_tx).write(&[1u8]).is_err() {
            self.rung.store(false, Ordering::SeqCst);
        }
    }

    /// Takes the doorbell byte when there is one; `readable` is what the
    /// poll said about the pipe.
    fn answer(&self, wake_rx: &PipeReader, readable: bool) {
        // The flag guards the read too: the non-Unix poller reports every
        // descriptor ready, and a read from an empty pipe would block.
        if readable && self.rung.load(Ordering::SeqCst) {
            let mut rx = wake_rx;
            while let Err(e) = rx.read(&mut [0u8; 1]) {
                if e.kind() != ErrorKind::Interrupted {
                    break;
                }
            }
            self.rung.store(false, Ordering::SeqCst);
        }
    }
}

/// Process-total net frontend metrics (registered in [`errflow_obs`]).
struct NetMetrics {
    accepted: Counter,
    closed: Counter,
    conn_rejected: Counter,
    requests: Counter,
    responses: Counter,
    backpressure: Counter,
    errors: Counter,
    malformed: Counter,
    scrapes: Counter,
    health: Counter,
}

impl NetMetrics {
    fn new() -> Self {
        NetMetrics {
            accepted: errflow_obs::counter("net.conns_accepted"),
            closed: errflow_obs::counter("net.conns_closed"),
            conn_rejected: errflow_obs::counter("net.conns_rejected"),
            requests: errflow_obs::counter("net.frames_request"),
            responses: errflow_obs::counter("net.frames_response"),
            backpressure: errflow_obs::counter("net.frames_backpressure"),
            errors: errflow_obs::counter("net.frames_error"),
            malformed: errflow_obs::counter("net.frames_malformed"),
            scrapes: errflow_obs::counter("net.frames_metrics"),
            health: errflow_obs::counter("net.frames_health"),
        }
    }
}

/// A running network frontend over one [`Server`].  Dropping it shuts the
/// io threads down (the inner `Server` is owned by the caller and keeps
/// running).
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shards: Vec<Arc<IoShared>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the io threads serving `server`.
    pub fn start<M: Model + Clone + Send + Sync + 'static>(
        server: Arc<Server<M>>,
        addr: &str,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let io_threads = cfg.io_threads.max(1);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conn_count = Arc::new(AtomicUsize::new(0));

        let mut shards = Vec::with_capacity(io_threads);
        let mut wake_rxs = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let (rx, tx) = std::io::pipe()?;
            shards.push(Arc::new(IoShared::new(tx)));
            wake_rxs.push(rx);
        }

        let threads = wake_rxs
            .into_iter()
            .enumerate()
            .map(|(i, wake_rx)| {
                let server = Arc::clone(&server);
                let shutdown = Arc::clone(&shutdown);
                let conn_count = Arc::clone(&conn_count);
                let shards: Vec<Arc<IoShared>> = shards.clone();
                let listener = if i == 0 {
                    Some(listener.try_clone()?)
                } else {
                    None
                };
                Ok(errflow_tensor::pool::global().spawn_dedicated(
                    format!("errflow-net-io-{i}"),
                    move || {
                        io_loop(IoLoop {
                            idx: i,
                            server,
                            listener,
                            wake_rx,
                            shards,
                            shutdown,
                            conn_count,
                            cfg,
                        })
                    },
                ))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(NetServer {
            local_addr,
            shutdown,
            shards,
            threads,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the io threads: open connections are closed, in-flight
    /// completions are dropped.  Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for s in &self.shards {
            s.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything one io thread owns.
struct IoLoop<M: Model + Clone + Send + Sync + 'static> {
    idx: usize,
    server: Arc<Server<M>>,
    listener: Option<TcpListener>,
    wake_rx: PipeReader,
    shards: Vec<Arc<IoShared>>,
    shutdown: Arc<AtomicBool>,
    conn_count: Arc<AtomicUsize>,
    cfg: NetConfig,
}

fn io_loop<M: Model + Clone + Send + Sync + 'static>(io: IoLoop<M>) {
    let metrics = NetMetrics::new();
    let shared = Arc::clone(&io.shards[io.idx]);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut gens: Vec<u64> = Vec::new();
    let mut next_route = 0usize;
    let mut fds: Vec<PollFd> = Vec::new();
    // fds slot → conns slot, offset by the fixed wake/listener entries.
    let mut fd_slots: Vec<usize> = Vec::new();

    while !io.shutdown.load(Ordering::Acquire) {
        fds.clear();
        fd_slots.clear();
        fds.push(PollFd::new(fd_of(&io.wake_rx), false));
        if let Some(l) = &io.listener {
            fds.push(PollFd::new(fd_of(l), false));
        }
        let fixed = fds.len();
        for (slot, c) in conns.iter().enumerate() {
            if let Some(conn) = c {
                if !conn.dead {
                    fds.push(PollFd::new(conn.fd(), conn.wants_write()));
                    fd_slots.push(slot);
                }
            }
        }
        if poll_fds(&mut fds, POLL_TICK).is_err() {
            // A failing poller leaves only degraded operation: behave like
            // a timeout tick and keep serving via the mailbox paths.
            std::thread::sleep(Duration::from_millis(1));
        }
        if io.shutdown.load(Ordering::Acquire) {
            break;
        }

        // Take the doorbell, then drain the mailboxes it rang for.
        shared.answer(&io.wake_rx, fds[0].readable());

        // Adopt connections routed to this thread.
        for stream in std::mem::take(&mut *lock_recover(&shared.inbox)) {
            match Conn::new(stream) {
                Ok(conn) => {
                    alloc_slot(&mut conns, &mut gens, conn);
                }
                Err(_) => {
                    io.conn_count.fetch_sub(1, Ordering::AcqRel);
                    metrics.closed.inc();
                }
            }
        }

        // Deliver completed jobs to their connections.
        for c in std::mem::take(&mut *lock_recover(&shared.completions)) {
            deliver_completion(&io, &metrics, &mut conns, &mut gens, c);
        }

        // Accept new connections (thread 0 only).
        if let Some(listener) = &io.listener {
            accept_loop(
                listener,
                &io,
                &metrics,
                &mut conns,
                &mut gens,
                &mut next_route,
            );
        }

        // Readiness-driven connection events.
        for (i, pfd) in fds.iter().enumerate().skip(fixed) {
            let slot = fd_slots[i - fixed];
            if pfd.readable() {
                handle_readable(&io, &metrics, &shared, &mut conns, &gens, slot);
            }
            if pfd.writable() {
                if let Some(conn) = conns[slot].as_mut() {
                    if conn.flush().is_err() {
                        conn.dead = true;
                    }
                }
            }
            reap(&io, &metrics, &mut conns, &mut gens, slot);
        }

        // Idle + dead-slot sweep.  Dead conns are excluded from the poll
        // set, so they get no readiness event to ride a reap on — sweep
        // them every tick (the completion path also reaps eagerly).
        let now = Instant::now();
        for slot in 0..conns.len() {
            let expire = conns[slot].as_ref().is_some_and(|c| {
                !c.dead
                    && c.inflight == 0
                    && !c.wants_write()
                    && c.idle_for(now) > io.cfg.idle_timeout
            });
            if expire {
                if let Some(c) = conns[slot].as_mut() {
                    c.dead = true;
                }
            }
            reap(&io, &metrics, &mut conns, &mut gens, slot);
        }
    }

    // Shutdown: drop every connection (sockets close on drop).
    for slot in 0..conns.len() {
        if conns[slot].take().is_some() {
            io.conn_count.fetch_sub(1, Ordering::AcqRel);
            metrics.closed.inc();
        }
    }
}

fn alloc_slot(conns: &mut Vec<Option<Conn>>, gens: &mut Vec<u64>, conn: Conn) -> usize {
    for (i, c) in conns.iter_mut().enumerate() {
        if c.is_none() {
            *c = Some(conn);
            return i;
        }
    }
    conns.push(Some(conn));
    gens.push(0);
    conns.len() - 1
}

/// Frees a slot whose connection is dead and fully drained.
fn reap<M: Model + Clone + Send + Sync + 'static>(
    io: &IoLoop<M>,
    metrics: &NetMetrics,
    conns: &mut [Option<Conn>],
    gens: &mut [u64],
    slot: usize,
) {
    let free = match &conns[slot] {
        Some(c) => {
            (c.dead && c.inflight == 0)
                || (c.close_after_flush && !c.wants_write() && c.inflight == 0)
        }
        None => false,
    };
    if free {
        conns[slot] = None;
        gens[slot] = gens[slot].wrapping_add(1);
        io.conn_count.fetch_sub(1, Ordering::AcqRel);
        metrics.closed.inc();
    }
}

fn accept_loop<M: Model + Clone + Send + Sync + 'static>(
    listener: &TcpListener,
    io: &IoLoop<M>,
    metrics: &NetMetrics,
    conns: &mut Vec<Option<Conn>>,
    gens: &mut Vec<u64>,
    next_route: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if io.conn_count.load(Ordering::Acquire) >= io.cfg.max_connections {
                    metrics.conn_rejected.inc();
                    drop(stream); // connection limit: refuse by closing
                    continue;
                }
                io.conn_count.fetch_add(1, Ordering::AcqRel);
                metrics.accepted.inc();
                let target = *next_route % io.shards.len();
                *next_route = next_route.wrapping_add(1);
                if target == io.idx {
                    match Conn::new(stream) {
                        Ok(conn) => {
                            alloc_slot(conns, gens, conn);
                        }
                        Err(_) => {
                            io.conn_count.fetch_sub(1, Ordering::AcqRel);
                            metrics.closed.inc();
                        }
                    }
                } else {
                    lock_recover(&io.shards[target].inbox).push(stream);
                    io.shards[target].wake();
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn handle_readable<M: Model + Clone + Send + Sync + 'static>(
    io: &IoLoop<M>,
    metrics: &NetMetrics,
    shared: &Arc<IoShared>,
    conns: &mut [Option<Conn>],
    gens: &[u64],
    slot: usize,
) {
    let events = match conns[slot].as_mut() {
        Some(conn) => conn.on_readable(),
        None => return,
    };
    for event in events {
        match event {
            ConnEvent::Request { frame, ingress } => {
                metrics.requests.inc();
                let server_model = io.server.model_id();
                if frame.model_id != 0 && frame.model_id != server_model {
                    let ef = ErrorFrame::from_serve(&ServeError::Invalid(format!(
                        "model id {:#x} not served (serving {:#x})",
                        frame.model_id, server_model
                    )));
                    metrics.errors.inc();
                    if let Some(conn) = conns[slot].as_mut() {
                        conn.queue(&proto::encode_error(&ef));
                    }
                    continue;
                }
                let req = Request {
                    samples: frame.samples,
                    rel_tolerance: frame.rel_tolerance,
                    norm: frame.norm,
                    layout: frame.layout,
                };
                let shared = Arc::clone(shared);
                let gen = gens[slot];
                let submitted =
                    io.server
                        .try_submit_with(req, ingress.as_nanos() as u64, move |result| {
                            lock_recover(&shared.completions).push(Completion {
                                slot,
                                gen,
                                result,
                                fulfilled: Instant::now(),
                            });
                            shared.wake();
                        });
                match submitted {
                    Ok(()) => {
                        if let Some(conn) = conns[slot].as_mut() {
                            conn.inflight += 1;
                        }
                    }
                    Err(e) => {
                        // QueueFull → retryable backpressure frame; the
                        // connection stays open in every error case here.
                        if matches!(e, ServeError::QueueFull) {
                            metrics.backpressure.inc();
                        } else {
                            metrics.errors.inc();
                        }
                        if let Some(conn) = conns[slot].as_mut() {
                            conn.queue(&proto::encode_error(&ErrorFrame::from_serve(&e)));
                        }
                    }
                }
            }
            // Telemetry frames are answered right here on the io thread
            // from the process-wide observability globals: a scrape never
            // enters the serve queue, so it cannot block (or be blocked
            // by) a compute worker.
            ConnEvent::Metrics(req) => {
                metrics.scrapes.inc();
                let bytes = build_metrics_response(&req);
                if let Some(conn) = conns[slot].as_mut() {
                    conn.queue(&bytes);
                }
            }
            ConnEvent::Health => {
                metrics.health.inc();
                let statuses = errflow_obs::slo::global_statuses();
                let bytes = match proto::encode_health_response(&statuses) {
                    Ok(b) => b,
                    Err(e) => {
                        metrics.errors.inc();
                        proto::encode_error(&ErrorFrame::malformed(&e))
                    }
                };
                if let Some(conn) = conns[slot].as_mut() {
                    conn.queue(&bytes);
                }
            }
            ConnEvent::Malformed(e) => {
                metrics.malformed.inc();
                if let Some(conn) = conns[slot].as_mut() {
                    conn.queue(&proto::encode_error(&ErrorFrame::malformed(&e)));
                    conn.close_after_flush = true;
                }
            }
            ConnEvent::Closed => {
                if let Some(conn) = conns[slot].as_mut() {
                    conn.dead = true;
                }
            }
        }
    }
    if let Some(conn) = conns[slot].as_mut() {
        if conn.flush().is_err() {
            conn.dead = true;
        }
    }
}

/// Builds the encoded reply to a metrics scrape from the observability
/// globals.  Runs on the io thread; the only locks taken are the obs
/// registry/sampler/SLO mutexes, each briefly and one at a time.
fn build_metrics_response(req: &proto::MetricsRequestFrame) -> Vec<u8> {
    use proto::{MetricsFormat, MetricsResponseFrame, ScrapePayload};
    let tier_sel = if req.tier == proto::TIER_ALL {
        None
    } else {
        Some(req.tier as usize)
    };
    let window = req.window as usize;
    let resp = match req.format {
        MetricsFormat::Prometheus => MetricsResponseFrame::Text {
            format: MetricsFormat::Prometheus,
            body: errflow_obs::export_prometheus(),
        },
        MetricsFormat::Json => {
            let sampler = errflow_obs::timeseries::global();
            let series = lock_recover(sampler).export_json(tier_sel, window);
            let engine = errflow_obs::slo::global();
            let slo = lock_recover(engine).export_json();
            MetricsResponseFrame::Text {
                format: MetricsFormat::Json,
                body: format!("{{\"series\":{series},\"slo\":{slo}}}"),
            }
        }
        MetricsFormat::Binary => {
            let sampler = errflow_obs::timeseries::global();
            let dump = lock_recover(sampler).dump(tier_sel, window);
            let hists = errflow_obs::snapshot_all()
                .into_iter()
                .filter_map(|(name, snap)| match snap {
                    errflow_obs::MetricSnapshot::Histogram(h) => Some(proto::HistogramDump {
                        name,
                        count: h.count,
                        sum: h.sum,
                        buckets: h
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|(_, &c)| c > 0)
                            .map(|(i, &c)| (i as u8, c))
                            .collect(),
                    }),
                    _ => None,
                })
                .collect();
            MetricsResponseFrame::Binary(ScrapePayload { dump, hists })
        }
    };
    match proto::encode_metrics_response(&resp) {
        Ok(b) => b,
        Err(e) => proto::encode_error(&ErrorFrame::malformed(&e)),
    }
}

fn deliver_completion<M: Model + Clone + Send + Sync + 'static>(
    io: &IoLoop<M>,
    metrics: &NetMetrics,
    conns: &mut [Option<Conn>],
    gens: &mut [u64],
    c: Completion,
) {
    let Completion {
        slot,
        gen,
        result,
        fulfilled,
    } = c;
    if slot >= conns.len() || gens[slot] != gen {
        return; // connection was reaped and the slot reused
    }
    let Some(conn) = conns[slot].as_mut() else {
        return;
    };
    conn.inflight = conn.inflight.saturating_sub(1);
    // A dead peer gets nothing; a connection closing after a malformed
    // frame gets nothing *after* the error frame (the protocol closes
    // there — no trailing responses for earlier in-flight requests).
    if !conn.dead && !conn.close_after_flush {
        let bytes = match result {
            Ok(resp) => {
                metrics.responses.inc();
                let mut stages = resp.stages;
                // Egress on the wire covers hand-off + encode; the full
                // interval including the socket write lands in the server
                // histogram below.
                stages.egress_ns = fulfilled.elapsed().as_nanos() as u64;
                match proto::encode_response(&ResponseFrame {
                    outputs: resp.outputs,
                    rel_bound: resp.rel_bound,
                    plan_tolerance: resp.plan_tolerance,
                    format: resp.format,
                    cache_hit: resp.cache_hit,
                    batch_size: resp.batch_size as u32,
                    latency_ns: resp.latency.as_nanos() as u64,
                    stages,
                }) {
                    Ok(b) => b,
                    Err(e) => {
                        metrics.errors.inc();
                        proto::encode_error(&ErrorFrame::malformed(&e))
                    }
                }
            }
            Err(e) => {
                metrics.errors.inc();
                proto::encode_error(&ErrorFrame::from_serve(&e))
            }
        };
        conn.queue(&bytes);
        if conn.flush().is_err() {
            conn.dead = true;
        }
        io.server
            .note_egress_ns(fulfilled.elapsed().as_nanos() as u64);
    }
    // This decrement may be the last thing the slot was waiting on (the
    // peer vanished with requests in flight) — free it here, not on a
    // readiness event a dead conn will never get.
    reap(io, metrics, conns, gens, slot);
}

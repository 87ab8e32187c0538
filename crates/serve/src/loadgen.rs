//! The workspace's one closed-loop load driver, behind `serve-bench`.
//!
//! Each of `clients` threads opens one [`Client`] and sends
//! `requests_per_client` requests back to back (closed loop: call → reply
//! → next), generating spatially-correlated payloads the compressors treat
//! like real fields.  The transport is the [`Client`]'s business: the
//! in-process one (`&Server`) lives here, the socket one (`NetClient`) in
//! `errflow-net`, and tests pass fakes.
//!
//! The driver never panics on what a transport hands back.  A refused call
//! ([`CallError::Busy`]) is counted in `rejections` and retried after a
//! short backoff, so every request is eventually answered and the count
//! measures backpressure, not lost work.  Everything else that goes wrong
//! — a failed connect or call, a reply with the wrong number of outputs, a
//! `rel_bound` that is not ≤ the tolerance asked for — is counted in
//! `failed`, with the first message kept; `serve-bench` exits 1 when that
//! count is nonzero.
//!
//! [`LoadSummary`] holds only what the clients saw.  The server's side of
//! the same run is [`StatsSnapshot`], and [`report_json`] prints the two as
//! one object.

use crate::server::{Request, ServeError, Server};
use crate::stats::{LatencyHistogram, LatencySummary, StatsSnapshot};
use errflow_nn::Model;
use errflow_obs::json::JsonWriter;
use errflow_pipeline::planner::PayloadLayout;
use errflow_tensor::norms::Norm;
use errflow_tensor::rng::StdRng;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client submits (closed loop).
    pub requests_per_client: usize,
    /// Samples per request payload.
    pub samples_per_request: usize,
    /// Tolerances cycled across a client's requests.  A single entry is
    /// the steady-state "one SLO" workload (plan cache should approach a
    /// 100% hit rate); several entries exercise cache churn.
    pub tolerances: Vec<f64>,
    /// Norm every request expresses its tolerance in.
    pub norm: Norm,
    /// Payload layout for every request.
    pub layout: PayloadLayout,
    /// Base RNG seed (client `i` derives its own stream from it).
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 4,
            requests_per_client: 200,
            samples_per_request: 64,
            tolerances: vec![1e-2],
            norm: Norm::L2,
            layout: PayloadLayout::FeatureMajor,
            seed: 7,
        }
    }
}

/// What the driver reads off one answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Predictions returned (must equal the samples sent).
    pub outputs: usize,
    /// Relative QoI error bound the reply carries.
    pub rel_bound: f64,
    /// Server-side end-to-end latency the reply reports, in nanoseconds.
    pub latency_ns: u64,
}

/// Why a [`Client::call`] produced no reply.
#[derive(Debug, Clone, PartialEq)]
pub enum CallError {
    /// Backpressure: the request was refused and is worth re-sending.
    Busy,
    /// Anything else; the request is given up on and counted as failed.
    Failed(String),
}

/// One connection to a server, over whatever transport.
pub trait Client {
    /// Sends `req` and blocks for its reply.  The payload is consumed
    /// either way; the driver rebuilds it if it has to re-send.
    fn call(&mut self, req: Request) -> Result<Reply, CallError>;
}

/// The in-process transport: submit without blocking, wait on the ticket.
impl<M: Model + Clone + Send + Sync + 'static> Client for &Server<M> {
    fn call(&mut self, req: Request) -> Result<Reply, CallError> {
        let resp = match self.try_submit(req) {
            Ok(ticket) => ticket.wait(),
            Err(ServeError::QueueFull) => return Err(CallError::Busy),
            Err(e) => Err(e),
        }
        .map_err(|e| CallError::Failed(e.to_string()))?;
        Ok(Reply {
            outputs: resp.outputs.len(),
            rel_bound: resp.rel_bound,
            latency_ns: resp.latency.as_nanos() as u64,
        })
    }
}

/// What the clients of one load run saw.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Client threads.
    pub clients: usize,
    /// Requests attempted (clients × requests_per_client).
    pub requests: u64,
    /// Requests that ended in anything but a healthy reply (see the module
    /// docs); `requests - failed` were answered within tolerance.
    pub failed: u64,
    /// Message of the first failure (lowest client index first).
    pub first_failure: Option<String>,
    /// [`CallError::Busy`] refusals observed (each was retried).
    pub rejections: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// Client-observed round trip (call → reply) of the healthy replies.
    pub rtt: LatencySummary,
    /// Transport overhead: the exact median over healthy replies of the
    /// round trip minus the server latency *that reply* reports, in
    /// microseconds (NaN without a healthy reply).  Pairing per request
    /// avoids the log₂-histogram bucket quantization a difference of two
    /// p50s would carry.
    pub overhead_p50_us: f64,
    /// Largest `rel_bound` any healthy reply carried.
    pub max_rel_bound: f64,
}

impl LoadSummary {
    /// Healthy replies per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        (self.requests - self.failed) as f64 / self.wall_secs.max(1e-9)
    }
}

/// One client thread's share of a [`LoadSummary`].
#[derive(Default)]
struct Tally {
    failed: u64,
    first_failure: Option<String>,
    rejections: u64,
    max_rel_bound: f64,
    overheads_ns: Vec<u64>,
}

impl Tally {
    fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        self.first_failure.get_or_insert(msg);
    }
}

/// Generates the next spatially-correlated payload: a smooth random walk
/// through `[-1, 1]^d` feature space, so flattened payloads compress like
/// the scientific fields the pipeline targets.
fn next_payload(rng: &mut StdRng, state: &mut [f32], n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            for v in state.iter_mut() {
                *v = (*v + rng.gen_range(-0.02f32..0.02)).clamp(-1.0, 1.0);
            }
            state.to_vec()
        })
        .collect()
}

/// Client `c`'s closed loop.  Healthy round trips go into `rtt`.
fn drive<C: Client>(
    c: usize,
    input_dim: usize,
    cfg: &LoadgenConfig,
    connect: impl Fn() -> Result<C, String>,
    rtt: &LatencyHistogram,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = match connect() {
        Ok(client) => client,
        Err(e) => {
            tally.fail(cfg.requests_per_client as u64, format!("connect: {e}"));
            return tally;
        }
    };
    let n = cfg.samples_per_request;
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(c as u64 * 7919));
    let mut state: Vec<f32> = (0..input_dim)
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    for r in 0..cfg.requests_per_client {
        let tol = cfg.tolerances[r % cfg.tolerances.len()];
        // Snapshot the walk instead of cloning the payload: a call consumes
        // its samples, and the rare refused one regenerates the identical
        // payload from the snapshot, so an accepted request is never copied.
        let snapshot = (rng.clone(), state.clone());
        let mut samples = next_payload(&mut rng, &mut state, n);
        let outcome = loop {
            let sent = Instant::now();
            let req = Request {
                samples,
                rel_tolerance: tol,
                norm: cfg.norm,
                layout: cfg.layout,
            };
            match client.call(req) {
                Ok(reply) => break Ok((reply, sent.elapsed())),
                Err(CallError::Failed(msg)) => break Err(msg),
                Err(CallError::Busy) => {
                    tally.rejections += 1;
                    std::thread::sleep(Duration::from_micros(200));
                    let (mut rng, mut state) = snapshot.clone();
                    samples = next_payload(&mut rng, &mut state, n);
                }
            }
        };
        match outcome {
            Ok((reply, trip)) if reply.outputs == n && reply.rel_bound <= tol => {
                rtt.record(trip);
                let trip_ns = trip.as_nanos() as u64;
                tally
                    .overheads_ns
                    .push(trip_ns.saturating_sub(reply.latency_ns));
                tally.max_rel_bound = tally.max_rel_bound.max(reply.rel_bound);
            }
            Ok((reply, _)) if reply.outputs != n => tally.fail(
                1,
                format!("reply carries {} outputs for {n} samples", reply.outputs),
            ),
            // A bound above the tolerance, or a NaN one.
            Ok((reply, _)) => tally.fail(
                1,
                format!("bound {} exceeds tolerance {tol}", reply.rel_bound),
            ),
            Err(msg) => tally.fail(1, msg),
        }
    }
    tally
}

/// Drives closed-loop load through one `connect()`ed [`Client`] per client
/// thread and returns what those clients saw.  `input_dim` is the served
/// model's input dimension.  A client whose `connect` fails counts its
/// whole share as failed; the other clients still run.
///
/// # Panics
/// Only on an empty configuration (no clients, requests or tolerances) —
/// never on a reply.
pub fn run_loadgen<C: Client>(
    input_dim: usize,
    cfg: &LoadgenConfig,
    connect: impl Fn() -> Result<C, String> + Sync,
) -> LoadSummary {
    assert!(cfg.clients > 0 && cfg.requests_per_client > 0, "empty load");
    assert!(!cfg.tolerances.is_empty(), "need at least one tolerance");
    let rtt = LatencyHistogram::new();
    let share = cfg.requests_per_client as u64;

    let t0 = Instant::now();
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let (connect, rtt) = (&connect, &rtt);
                scope.spawn(move || drive(c, input_dim, cfg, connect, rtt))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();

    let mut all = Tally::default();
    for tally in joined {
        match tally {
            Ok(t) => {
                all.failed += t.failed;
                all.first_failure = all.first_failure.or(t.first_failure);
                all.rejections += t.rejections;
                all.max_rel_bound = all.max_rel_bound.max(t.max_rel_bound);
                all.overheads_ns.extend(t.overheads_ns);
            }
            Err(_) => all.fail(share, "client thread panicked".into()),
        }
    }
    all.overheads_ns.sort_unstable();
    LoadSummary {
        clients: cfg.clients,
        requests: cfg.clients as u64 * share,
        failed: all.failed,
        first_failure: all.first_failure,
        rejections: all.rejections,
        wall_secs,
        rtt: rtt.summary(),
        overhead_p50_us: all
            .overheads_ns
            .get(all.overheads_ns.len() / 2)
            .map_or(f64::NAN, |&ns| ns as f64 / 1e3),
        max_rel_bound: all.max_rel_bound,
    }
}

/// The `serve-bench` line: what the clients saw (`load`) beside what the
/// server counted (`server`, under the `"server"` key), as one JSON object.
/// Stages that recorded nothing (ingress/egress for in-process runs) are
/// omitted — an all-zero summary reads like a measured 0 µs stage, which
/// it is not — and so is `first_failure` when nothing failed.
pub fn report_json(load: &LoadSummary, server: &StatsSnapshot) -> String {
    fn latency(w: &mut JsonWriter, s: &LatencySummary) {
        w.begin_object().key("count").int(s.count);
        w.key("min_us").f64(s.min_us).key("mean_us").f64(s.mean_us);
        w.key("p50_us").f64(s.p50_us).key("p99_us").f64(s.p99_us);
        w.key("max_us").f64(s.max_us).end_object();
    }
    let mut w = JsonWriter::new();
    w.begin_object().key("clients").int(load.clients as u64);
    w.key("requests").int(load.requests);
    w.key("failed").int(load.failed);
    if let Some(msg) = &load.first_failure {
        w.key("first_failure").str(msg);
    }
    w.key("rejections").int(load.rejections);
    w.key("wall_secs").f64(load.wall_secs);
    w.key("throughput_rps").f64(load.throughput_rps());
    latency(w.key("rtt"), &load.rtt);
    w.key("overhead_p50_us").f64(load.overhead_p50_us);
    w.key("max_rel_bound").f64(load.max_rel_bound);

    w.key("server").begin_object();
    w.key("completed").int(server.completed);
    w.key("failed").int(server.failed);
    w.key("rejected").int(server.rejected);
    w.key("batches").int(server.batches);
    w.key("mean_batch_size").f64(server.mean_batch_size());
    latency(w.key("latency"), &server.latency);
    let st = &server.stages;
    w.key("stages").begin_object();
    for (name, s) in [
        ("ingress", &st.ingress),
        ("batch_wait", &st.batch_wait),
        ("plan", &st.plan),
        ("decompress", &st.decompress),
        ("forward", &st.forward),
        ("respond", &st.respond),
        ("egress", &st.egress),
    ] {
        if s.count > 0 {
            latency(w.key(name), s);
        }
    }
    w.end_object();
    let m = &server.bound_margin;
    w.key("bound_margin").begin_object();
    w.key("count").int(m.count).key("p50").f64(m.p50);
    w.key("p99").f64(m.p99).key("max").f64(m.max).end_object();
    w.key("cache").begin_object();
    w.key("hits").int(server.cache_hits);
    w.key("misses").int(server.cache_misses);
    w.key("hit_rate").f64(server.cache_hit_rate()).end_object();
    w.key("decomp").begin_object();
    w.key("bytes_in").int(server.decomp_bytes_in);
    w.key("bytes_out").int(server.decomp_bytes_out);
    w.key("gbps").f64(server.decomp_gbps());
    w.key("scratch_hit_rate").f64(server.scratch_hit_rate());
    w.end_object().end_object().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn cfg(clients: usize, requests_per_client: usize) -> LoadgenConfig {
        LoadgenConfig {
            clients,
            requests_per_client,
            samples_per_request: 4,
            ..LoadgenConfig::default()
        }
    }

    /// `reply(4, 5e-3, _)` is healthy under [`cfg`].
    fn reply(outputs: usize, rel_bound: f64, latency_ns: u64) -> Result<Reply, CallError> {
        Ok(Reply {
            outputs,
            rel_bound,
            latency_ns,
        })
    }

    /// Answers from a fixed script, then healthily.
    struct Scripted(VecDeque<Result<Reply, CallError>>);

    impl Client for Scripted {
        fn call(&mut self, _req: Request) -> Result<Reply, CallError> {
            self.0.pop_front().unwrap_or_else(|| reply(4, 5e-3, 0))
        }
    }

    #[test]
    fn bad_replies_are_counted_not_panicked_on() {
        let script = VecDeque::from([
            Err(CallError::Busy),
            reply(3, 5e-3, 0),
            reply(4, 2e-2, 0),
            reply(4, f64::NAN, 0),
            reply(4, 5e-3, u64::MAX),
        ]);
        let s = run_loadgen(3, &cfg(1, 4), || Ok(Scripted(script.clone())));
        assert_eq!((s.requests, s.failed, s.rejections), (4, 3, 1), "{s:?}");
        let first = s.first_failure.as_deref().unwrap_or_default();
        assert!(first.contains("3 outputs for 4 samples"), "{first}");
        // Only the healthy reply has a round trip, an overhead (saturated
        // at 0: its claimed latency exceeds the trip) and a bound.
        assert_eq!(s.rtt.count, 1);
        assert_eq!(s.overhead_p50_us, 0.0);
        assert_eq!(s.max_rel_bound, 5e-3);

        let failing = VecDeque::from([Err(CallError::Failed("boom".into()))]);
        let s = run_loadgen(3, &cfg(1, 2), || Ok(Scripted(failing.clone())));
        assert_eq!((s.failed, s.rtt.count), (1, 1), "{s:?}");
        assert_eq!(s.first_failure.as_deref(), Some("boom"));
    }

    #[test]
    fn failed_connect_fails_that_clients_share_only() {
        let connects = AtomicUsize::new(0);
        let s = run_loadgen(3, &cfg(2, 5), || {
            if connects.fetch_add(1, Ordering::Relaxed) == 0 {
                Err("refused".to_string())
            } else {
                Ok(Scripted(VecDeque::new()))
            }
        });
        assert_eq!((s.requests, s.failed, s.rtt.count), (10, 5, 5), "{s:?}");
        assert_eq!(s.first_failure.as_deref(), Some("connect: refused"));
        assert!(s.overhead_p50_us.is_finite());
    }

    /// Records every payload it is sent; refuses each request's first
    /// attempt when `refuse` is set.
    struct Recorder<'a> {
        seen: &'a Mutex<Vec<Vec<Vec<f32>>>>,
        refuse: bool,
    }

    impl Client for Recorder<'_> {
        fn call(&mut self, req: Request) -> Result<Reply, CallError> {
            let mut seen = self.seen.lock().unwrap();
            seen.push(req.samples);
            if self.refuse && seen.len() % 2 == 1 {
                return Err(CallError::Busy);
            }
            reply(4, 5e-3, 0)
        }
    }

    #[test]
    fn refused_request_is_resent_bit_identical_and_the_walk_advances() {
        let record = |refuse| {
            let seen = Mutex::new(Vec::new());
            let s = run_loadgen(3, &cfg(1, 3), || {
                Ok(Recorder {
                    seen: &seen,
                    refuse,
                })
            });
            assert_eq!(s.failed, 0, "{s:?}");
            (s.rejections, seen.into_inner().unwrap())
        };
        let (rejections, refused) = record(true);
        let (_, accepted) = record(false);
        assert_eq!((rejections, refused.len(), accepted.len()), (3, 6, 3));
        for (i, payload) in accepted.iter().enumerate() {
            // Attempt and retry carry the payload an unrefused run sends …
            assert_eq!(&refused[2 * i], payload);
            assert_eq!(&refused[2 * i + 1], payload);
        }
        // … and that run's payloads differ from one request to the next.
        assert_ne!(accepted[0], accepted[1]);
        assert_ne!(accepted[1], accepted[2]);
    }

    #[test]
    fn report_json_shape() {
        let decompress = LatencySummary {
            count: 800,
            min_us: 10.0,
            max_us: 90.0,
            mean_us: 40.0,
            p50_us: 35.0,
            p99_us: 88.0,
        };
        let mut server = StatsSnapshot {
            completed: 800,
            cache_hits: 799,
            cache_misses: 1,
            ..StatsSnapshot::default()
        };
        server.stages.decompress = decompress;
        let mut load = LoadSummary {
            clients: 4,
            requests: 800,
            failed: 0,
            first_failure: None,
            rejections: 3,
            wall_secs: 1.25,
            rtt: decompress,
            overhead_p50_us: f64::NAN,
            max_rel_bound: 0.0056,
        };
        let j = report_json(&load, &server);
        let head = "{\"clients\":4,\"requests\":800,\"failed\":0,\"rejections\":3,";
        assert!(j.starts_with(head), "{j}");
        assert!(
            j.contains("\"throughput_rps\":640,\"rtt\":{\"count\":800,"),
            "{j}"
        );
        assert!(j.contains("\"overhead_p50_us\":null,"), "{j}");
        assert!(j.contains("\"server\":{\"completed\":800,"), "{j}");
        assert!(j.contains("\"hit_rate\":0.99875"), "{j}");
        // Only the stage that recorded anything is present.
        let stages = "\"stages\":{\"decompress\":{\"count\":800,\"min_us\":10,\"mean_us\":40,\
                      \"p50_us\":35,\"p99_us\":88,\"max_us\":90}},";
        assert!(j.contains(stages), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        load.failed = 2;
        load.first_failure = Some("bound 1 exceeds \"tol\"".into());
        let j = report_json(&load, &StatsSnapshot::default());
        let failure = "\"failed\":2,\"first_failure\":\"bound 1 exceeds \\\"tol\\\"\",";
        assert!(j.contains(failure) && j.contains("\"stages\":{},"), "{j}");
    }
}

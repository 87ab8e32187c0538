//! The closed-loop load generator: clients, the per-response correctness
//! check, and one measured round.  A bad response is counted, never
//! panicked on.

use crate::gen::Payload;
use crate::trace::{now_ns, Trace};
use crate::workload::{Served, Spec, Transport, CLIENTS};
use errflow_net::NetClient;
use errflow_nn::Mlp;
use errflow_serve::{RequestStages, Server, StatsSnapshot};
use errflow_tensor::norms::{diff_norm, Norm};
use std::time::{Duration, Instant};

/// What both transports' responses have in common.
pub struct Reply {
    pub outputs: Vec<Vec<f32>>,
    pub rel_bound: f64,
    pub server_latency_ns: u64,
    pub stages: RequestStages,
}

/// Checks a response against the uncompressed, unquantized reference.
/// `bound_pass` inside the server compares the planner against itself; this
/// compares the *realized* error against the tolerance the caller asked for.
pub struct Checker {
    pub norm: Norm,
    /// `Planner::qoi_reference(norm)`: what relative tolerances are relative to.
    pub qoi_reference: f64,
    pub output_dim: usize,
}

impl Checker {
    /// `Ok(realized relative error / tolerance)`, at most 1, or why the
    /// response fails.
    pub fn check(&self, reply: &Reply, payload: &Payload, tolerance: f64) -> Result<f64, String> {
        if reply.outputs.len() != payload.reference.len() {
            return Err(format!(
                "{} outputs for {} samples",
                reply.outputs.len(),
                payload.reference.len()
            ));
        }
        if reply.rel_bound.is_nan() || reply.rel_bound > tolerance {
            return Err(format!(
                "certified bound {} exceeds tolerance {tolerance}",
                reply.rel_bound
            ));
        }
        let mut worst = 0.0f64;
        for (y, y_ref) in reply.outputs.iter().zip(&payload.reference) {
            if y.len() != self.output_dim {
                return Err(format!(
                    "output of {} values, model has {}",
                    y.len(),
                    self.output_dim
                ));
            }
            if !y.iter().all(|v| v.is_finite()) {
                return Err("non-finite output".into());
            }
            worst = worst.max(diff_norm(y_ref, y, self.norm) / self.qoi_reference);
        }
        if worst <= tolerance {
            Ok(worst / tolerance)
        } else {
            Err(format!(
                "realized error {worst} exceeds tolerance {tolerance}"
            ))
        }
    }
}

enum Conn<'a> {
    InProcess(&'a Server<Mlp>),
    Net(NetClient),
}

/// What a traced round keeps per request, beyond the counts.
#[derive(Default)]
pub struct Traced {
    pub trace: Trace,
    /// Client RTT minus the server's own latency, per request.
    pub wire_overhead_ns: Vec<u64>,
    /// `rel_bound / tolerance` per request.
    pub bound_margins: Vec<f64>,
}

impl Traced {
    /// Appends what another client or round kept.
    pub fn absorb(&mut self, other: Traced) {
        self.trace.absorb(other.trace);
        self.wire_overhead_ns.extend(other.wire_overhead_ns);
        self.bound_margins.extend(other.bound_margins);
    }
}

#[derive(Default)]
pub struct ClientRound {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Submit → response, of requests that passed the check.
    pub latencies_ns: Vec<u64>,
    pub realized_margin_max: f64,
    pub traced: Option<Traced>,
}

/// A client's walk over the pool and the tolerance cycle.  It continues
/// across rounds.
struct Walk<'a> {
    spec: &'a Spec,
    pool: &'a [Payload],
    client: usize,
    sent: usize,
}

impl<'a> Walk<'a> {
    /// The next request's id, payload and tolerance.  Clients start half a
    /// pool apart so they never send the same payload at the same time, and
    /// they walk disjoint tolerance buckets (client 0 the even ones, client
    /// 1 the odd ones): were they to share buckets, the plan cache's hit
    /// rate would hang on which client happens to run a step ahead.
    fn next(&mut self) -> (u64, &'a Payload, f64) {
        let i = self.sent;
        self.sent += 1;
        let n = self.pool.len();
        let payload = &self.pool[(self.client * n / CLIENTS + i) % n];
        let turn = i * CLIENTS + self.client;
        (turn as u64 + 1, payload, self.spec.tolerance(turn))
    }
}

/// One closed-loop client.  It lives across rounds so that its connection
/// stays open.
pub struct Client<'a> {
    walk: Walk<'a>,
    checker: &'a Checker,
    conn: Conn<'a>,
}

impl<'a> Client<'a> {
    pub fn connect(
        spec: &'a Spec,
        served: &'a Served,
        pool: &'a [Payload],
        checker: &'a Checker,
        index: usize,
    ) -> Result<Self, String> {
        let conn = match (&served.net, spec.transport) {
            (Some(net), Transport::Net) => {
                let client = NetClient::connect(net.local_addr())
                    .and_then(|c| {
                        c.set_read_timeout(Some(Duration::from_secs(30)))
                            .map(|()| c)
                    })
                    .map_err(|e| format!("{}: client {index} cannot connect: {e}", spec.name))?;
                Conn::Net(client)
            }
            _ => Conn::InProcess(&served.server),
        };
        let walk = Walk {
            spec,
            pool,
            client: index,
            sent: 0,
        };
        Ok(Client {
            walk,
            checker,
            conn,
        })
    }

    /// Sends windows of `in_flight` requests until `deadline`.
    pub fn run_until(&mut self, deadline: Instant, traced: bool) -> ClientRound {
        let Client {
            walk,
            checker,
            conn,
        } = self;
        let spec = walk.spec;
        let mut round = ClientRound {
            traced: traced.then(Traced::default),
            ..ClientRound::default()
        };
        while Instant::now() < deadline {
            match conn {
                Conn::InProcess(server) => {
                    let window: Vec<_> = (0..spec.in_flight)
                        .map(|_| {
                            let (id, payload, tol) = walk.next();
                            let request = spec.request(payload.samples.clone(), tol);
                            let sent_ns = now_ns();
                            // A refusal is a failed request, not a retry.
                            (id, payload, tol, sent_ns, server.try_submit(request))
                        })
                        .collect();
                    for (id, payload, tol, sent_ns, ticket) in window {
                        let reply = ticket.and_then(|t| t.wait()).map(|r| Reply {
                            outputs: r.outputs,
                            rel_bound: r.rel_bound,
                            server_latency_ns: r.latency.as_nanos() as u64,
                            stages: r.stages,
                        });
                        let result = reply.map_err(|e| e.to_string());
                        finish(checker, &mut round, id, payload, tol, sent_ns, result);
                    }
                }
                Conn::Net(client) => {
                    let (id, payload, tol) = walk.next();
                    let frame = spec.frame(payload.samples.clone(), tol);
                    let sent_ns = now_ns();
                    let reply = client.request(&frame).map(|r| Reply {
                        outputs: r.outputs,
                        rel_bound: r.rel_bound,
                        server_latency_ns: r.latency_ns,
                        stages: r.stages,
                    });
                    let result = reply.map_err(|e| e.to_string());
                    finish(checker, &mut round, id, payload, tol, sent_ns, result);
                }
            }
        }
        round
    }
}

/// Checks one response and books it into the round.
fn finish(
    checker: &Checker,
    round: &mut ClientRound,
    id: u64,
    payload: &Payload,
    tol: f64,
    sent_ns: u64,
    result: Result<Reply, String>,
) {
    let received_ns = now_ns();
    round.attempted += 1;
    let checked = result.and_then(|reply| {
        let margin = checker.check(&reply, payload, tol)?;
        Ok((reply, margin))
    });
    match checked {
        Ok((reply, margin)) => {
            let rtt = received_ns - sent_ns;
            round.latencies_ns.push(rtt);
            round.realized_margin_max = round.realized_margin_max.max(margin);
            if let Some(t) = &mut round.traced {
                t.wire_overhead_ns
                    .push(rtt.saturating_sub(reply.server_latency_ns));
                t.bound_margins.push(reply.rel_bound / tol);
                record_request(&mut t.trace, id, sent_ns, received_ns, now_ns(), &reply);
            }
        }
        Err(why) => {
            round.failed += 1;
            round.first_failure.get_or_insert(why);
        }
    }
}

/// Builds one request's spans from the client's timestamps and the stage
/// durations the response carries.  The server reports durations, not
/// instants, so its window is placed to end where the reply's egress
/// begins, and its stages are laid end to end from its start; what they
/// leave uncovered is the server span's self time.
fn record_request(
    trace: &mut Trace,
    id: u64,
    sent_ns: u64,
    received_ns: u64,
    checked_ns: u64,
    reply: &Reply,
) {
    let s = &reply.stages;
    let root = trace.push("request", id, None, sent_ns, checked_ns);
    trace.push(
        "bench.client_check",
        id,
        Some(root),
        received_ns,
        checked_ns,
    );
    let server_end = received_ns.saturating_sub(s.egress_ns).max(sent_ns);
    let server_start = server_end
        .saturating_sub(reply.server_latency_ns)
        .max(sent_ns);
    trace.push(
        "net.ingress",
        id,
        Some(root),
        server_start.saturating_sub(s.ingress_ns).max(sent_ns),
        server_start,
    );
    trace.push("net.egress", id, Some(root), server_end, received_ns);
    let server = trace.push("server", id, Some(root), server_start, server_end);
    let mut at = server_start;
    for (name, ns) in [
        ("serve.batch_wait", s.batch_wait_ns),
        ("serve.plan", s.plan_ns),
        ("serve.decompress", s.decompress_ns),
        ("serve.forward", s.forward_ns),
        ("serve.respond", s.respond_ns),
    ] {
        trace.push(name, id, Some(server), at, at + ns);
        at += ns;
    }
}

/// The server counters a round is measured by, as a difference of two
/// `Server::stats()` snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub submitted: u64,
    pub rejected: u64,
    pub batches: u64,
    pub batched_jobs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub decomp_ns: u64,
    pub decomp_bytes_in: u64,
    pub decomp_bytes_out: u64,
    pub scratch_hits: u64,
    pub scratch_misses: u64,
}

impl Counters {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> Self {
        Counters {
            submitted: b.submitted - a.submitted,
            rejected: b.rejected - a.rejected,
            batches: b.batches - a.batches,
            batched_jobs: b.batched_jobs - a.batched_jobs,
            cache_hits: b.cache_hits - a.cache_hits,
            cache_misses: b.cache_misses - a.cache_misses,
            decomp_ns: b.decomp_ns - a.decomp_ns,
            decomp_bytes_in: b.decomp_bytes_in - a.decomp_bytes_in,
            decomp_bytes_out: b.decomp_bytes_out - a.decomp_bytes_out,
            scratch_hits: b.scratch_hits.saturating_sub(a.scratch_hits),
            scratch_misses: b.scratch_misses.saturating_sub(a.scratch_misses),
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.submitted += o.submitted;
        self.rejected += o.rejected;
        self.batches += o.batches;
        self.batched_jobs += o.batched_jobs;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.decomp_ns += o.decomp_ns;
        self.decomp_bytes_in += o.decomp_bytes_in;
        self.decomp_bytes_out += o.decomp_bytes_out;
        self.scratch_hits += o.scratch_hits;
        self.scratch_misses += o.scratch_misses;
    }

    /// Decoded bytes over compressed bytes: the I/O saving the pipeline
    /// exists for.
    pub fn compression_ratio(&self) -> f64 {
        self.decomp_bytes_out as f64 / self.decomp_bytes_in as f64
    }
}

pub struct Round {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Ascending, of the requests that passed.
    pub latencies_ms: Vec<f64>,
    pub realized_margin_max: f64,
    pub counters: Counters,
    pub traced: Option<Traced>,
}

impl Round {
    pub fn throughput_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s
    }
}

/// Runs every client for `secs` and merges what they saw.
pub fn run_round(clients: &mut [Client], server: &Server<Mlp>, secs: f64, traced: bool) -> Round {
    let before = server.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let per_client: Vec<ClientRound> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || c.run_until(deadline, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let counters = Counters::between(&before, &server.stats());

    let mut round = Round {
        wall_s,
        attempted: 0,
        failed: 0,
        first_failure: None,
        latencies_ms: Vec::new(),
        realized_margin_max: 0.0,
        counters,
        traced: traced.then(Traced::default),
    };
    for c in per_client {
        round.attempted += c.attempted;
        round.failed += c.failed;
        round.first_failure = round.first_failure.or(c.first_failure);
        round
            .latencies_ms
            .extend(c.latencies_ns.iter().map(|&ns| ns as f64 / 1e6));
        round.realized_margin_max = round.realized_margin_max.max(c.realized_margin_max);
        if let (Some(all), Some(t)) = (&mut round.traced, c.traced) {
            all.absorb(t);
        }
    }
    round.latencies_ms.sort_by(f64::total_cmp);
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker {
            norm: Norm::L2,
            qoi_reference: 2.0,
            output_dim: 2,
        }
    }

    fn reply(outputs: Vec<Vec<f32>>, rel_bound: f64) -> Reply {
        Reply {
            outputs,
            rel_bound,
            server_latency_ns: 0,
            stages: RequestStages::default(),
        }
    }

    #[test]
    fn check_measures_realized_error_against_the_reference() {
        let payload = Payload {
            samples: vec![vec![0.0; 4]; 2],
            reference: vec![vec![1.0, 1.0], vec![0.0, 2.0]],
        };
        let c = checker();
        // ‖(0.006, 0.008)‖₂ / 2 = 0.005: half of a 1e-2 tolerance.
        let near = reply(vec![vec![1.006, 1.008], vec![0.0, 2.0]], 9e-3);
        let margin = c.check(&near, &payload, 1e-2).unwrap();
        assert!((margin - 0.5).abs() < 1e-4, "{margin}");
        // The same outputs fail a tolerance the realized error exceeds.
        let near = reply(vec![vec![1.006, 1.008], vec![0.0, 2.0]], 1e-3);
        assert!(c
            .check(&near, &payload, 4e-3)
            .unwrap_err()
            .contains("realized"));
    }

    #[test]
    fn check_rejects_malformed_and_uncertified_responses() {
        let payload = Payload {
            samples: vec![vec![0.0; 4]],
            reference: vec![vec![1.0, 1.0]],
        };
        let c = checker();
        let good = vec![vec![1.0f32, 1.0]];
        assert!(c.check(&reply(good.clone(), 1e-2), &payload, 1e-2).is_ok());
        assert!(c.check(&reply(good.clone(), 2e-2), &payload, 1e-2).is_err());
        assert!(c.check(&reply(good, f64::NAN), &payload, 1e-2).is_err());
        assert!(c.check(&reply(vec![], 1e-3), &payload, 1e-2).is_err());
        assert!(c
            .check(&reply(vec![vec![1.0]], 1e-3), &payload, 1e-2)
            .is_err());
        assert!(c
            .check(&reply(vec![vec![1.0, f32::NAN]], 1e-3), &payload, 1e-2)
            .is_err());
    }

    #[test]
    fn request_spans_tile_the_round_trip() {
        let mut t = Trace::default();
        let r = Reply {
            outputs: vec![],
            rel_bound: 0.0,
            server_latency_ns: 600,
            stages: RequestStages {
                ingress_ns: 50,
                batch_wait_ns: 100,
                plan_ns: 10,
                decompress_ns: 200,
                forward_ns: 150,
                respond_ns: 20,
                egress_ns: 30,
            },
        };
        record_request(&mut t, 7, 1000, 2000, 2040, &r);
        let totals = t.totals();
        assert_eq!(totals["request"].total_ns, 1040);
        assert_eq!(totals["server"].total_ns, 600);
        // 600 − (100 + 10 + 200 + 150 + 20): the compress half and the
        // producer→consumer wait, which no stage field covers.
        assert_eq!(totals["server"].self_ns, 120);
        // 1040 − check 40 − ingress 50 − egress 30 − server 600.
        assert_eq!(totals["request"].self_ns, 320);
        assert!(t.spans.iter().all(|s| s.request == 7));
    }
}

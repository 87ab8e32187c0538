//! The six named workloads and how each one's server is set up.  Names are
//! permanent: every later performance claim in this repo is made in them.

use crate::gen;
use errflow_net::{NetClient, NetConfig, NetServer, RequestFrame};
use errflow_nn::{Activation, Mlp};
use errflow_pipeline::PayloadLayout;
use errflow_serve::{BackendKind, Request, ServeConfig, Server};
use errflow_tensor::norms::Norm;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL_SEED: u64 = 11;

/// Closed loop throughout, because callers each wait for their reply.  Two
/// clients keep one request queued while the other's is served, so the
/// server never idles through a client's check of its reply.
pub const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    InProcess,
    /// EFNP over loopback, one io thread, one connection per client.
    Net,
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dims: &'static [usize],
    pub samples_per_request: usize,
    pub norm: Norm,
    pub layout: PayloadLayout,
    /// Requested tolerances are `top_tolerance · 10^(-i/4)` for `i` in
    /// `0..tolerance_buckets`, cycled per client, request by request: one
    /// per quarter-decade bucket of the plan cache.
    pub top_tolerance: f64,
    pub tolerance_buckets: usize,
    pub transport: Transport,
    /// Requests each client submits before it waits for them.
    pub in_flight: usize,
    pub serve: ServeConfig,
}

const SMALL: &[usize] = &[256, 128, 16];
const WIDE: &[usize] = &[256, 512, 512, 16];

pub fn specs() -> Vec<Spec> {
    let base = Spec {
        name: "",
        why: "",
        dims: SMALL,
        samples_per_request: 4,
        norm: Norm::L2,
        layout: PayloadLayout::SampleMajor,
        top_tolerance: 1e-2,
        tolerance_buckets: 1,
        transport: Transport::InProcess,
        in_flight: 1,
        serve: ServeConfig {
            workers: 1,
            max_batch: 16,
            ..ServeConfig::default()
        },
    };
    let codec = |backend| ServeConfig {
        max_batch: 4,
        backend,
        ..base.serve
    };
    vec![
        Spec {
            name: "codec_sz",
            why: "256 KiB payloads on a small model: the SZ compress/decode roundtrip does most of the work",
            samples_per_request: 256,
            serve: codec(BackendKind::Sz),
            ..base
        },
        Spec {
            name: "codec_zfp_fm",
            why: "same codec and serve code used the other way (ZFP, pointwise bound, feature-major transpose)",
            samples_per_request: 256,
            norm: Norm::LInf,
            layout: PayloadLayout::FeatureMajor,
            serve: codec(BackendKind::Zfp),
            ..base
        },
        Spec {
            name: "forward_wide",
            why: "512-wide model on 64-sample payloads: GEMM does most of the work and set-up is the spectral analysis",
            dims: WIDE,
            samples_per_request: 64,
            serve: codec(BackendKind::Sz),
            ..base
        },
        Spec {
            name: "net_small",
            why: "4 KiB payloads over loopback EFNP: framing, syscalls and io-thread hand-off do most of the work",
            transport: Transport::Net,
            ..base
        },
        Spec {
            name: "plan_churn",
            why: "4 live tolerance buckets on 2 plan-cache slots: every request plans, quantizes and packs the weights",
            top_tolerance: 1.05e-1,
            tolerance_buckets: 4,
            serve: ServeConfig {
                cache_capacity: 2,
                ..base.serve
            },
            ..base
        },
        Spec {
            name: "batch_window",
            why: "8 requests in flight per client: the only load where same-plan requests queue up and share a forward pass",
            in_flight: 8,
            ..base
        },
    ]
}

impl Spec {
    pub fn model(&self) -> Mlp {
        Mlp::new(
            self.dims,
            Activation::Tanh,
            Activation::Identity,
            MODEL_SEED,
            None,
        )
    }

    /// The tolerance of a client's `i`-th request.
    pub fn tolerance(&self, i: usize) -> f64 {
        self.top_tolerance * 10f64.powf(-((i % self.tolerance_buckets) as f64) / 4.0)
    }

    pub fn request(&self, samples: Vec<Vec<f32>>, rel_tolerance: f64) -> Request {
        Request {
            samples,
            rel_tolerance,
            norm: self.norm,
            layout: self.layout,
        }
    }

    pub fn frame(&self, samples: Vec<Vec<f32>>, rel_tolerance: f64) -> RequestFrame {
        RequestFrame {
            model_id: 0,
            rel_tolerance,
            norm: self.norm,
            layout: self.layout,
            samples,
        }
    }
}

/// A workload's running server, with its network frontend when it has one.
pub struct Served {
    pub server: Arc<Server<Mlp>>,
    pub net: Option<NetServer>,
}

impl Served {
    /// What `setup_s` times: model build, calibration, `Server::new` (the
    /// spectral analysis), the frontend's start, and one request served on
    /// a cold plan cache.  The payload pool and the reference outputs are
    /// the benchmark's own and are made outside this interval.
    pub fn set_up(spec: &Spec, first: &[Vec<f32>]) -> Result<(Served, f64), String> {
        let t0 = Instant::now();
        let model = spec.model();
        let calibration = gen::calibration(spec.dims[0]);
        let server = Arc::new(Server::new(model, calibration, spec.serve));
        let tol = spec.tolerance(0);
        let (net, served_first) = match spec.transport {
            Transport::InProcess => {
                let r = server.process(spec.request(first.to_vec(), tol));
                (None, r.map(drop).map_err(|e| e.to_string()))
            }
            Transport::Net => {
                // With all six workloads in one process a connection sits
                // idle while the others take their turns.
                let config = NetConfig {
                    idle_timeout: Duration::from_secs(3600),
                    ..NetConfig::default()
                };
                let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0", config)
                    .map_err(|e| format!("{}: frontend failed to start: {e}", spec.name))?;
                let r = NetClient::connect(net.local_addr())
                    .and_then(|mut c| c.request(&spec.frame(first.to_vec(), tol)));
                (Some(net), r.map(drop).map_err(|e| e.to_string()))
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        served_first.map_err(|e| format!("{}: first request failed: {e}", spec.name))?;
        Ok((Served { server, net }, secs))
    }

    /// Stops the frontend, then the server.  An `Err` means a thread still
    /// holds the server after its frontend has gone.
    pub fn shut_down(self) -> Result<(), String> {
        drop(self.net);
        let mut server = Arc::try_unwrap(self.server)
            .map_err(|_| "server still shared after its frontend shut down".to_string())?;
        server.shutdown();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_with_unique_names() {
        let s = specs();
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 6);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        // The synchronous wire client carries one request at a time.
        assert!(s
            .iter()
            .all(|w| w.transport == Transport::InProcess || w.in_flight == 1));
    }

    #[test]
    fn plan_churn_tolerances_land_in_more_buckets_than_the_cache_holds() {
        let s = specs();
        let churn = s.iter().find(|w| w.name == "plan_churn").unwrap();
        let mut buckets: Vec<i32> = (0..16)
            .map(|i| errflow_serve::bucket_tolerance(churn.tolerance(i)).0)
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 4);
        assert!(buckets.len() > churn.serve.cache_capacity);
        assert_eq!(s[0].tolerance(5), 1e-2);
    }
}

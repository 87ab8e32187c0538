//! Outside-in layer probes: timed calls into each crate's public functions
//! at the workload's own shapes, so that a stage's time inside the server
//! can be set beside what the same work costs standing alone.

use crate::gen::Payload;
use crate::metrics::{metric, Metric};
use crate::stats::median;
use crate::trace::{now_ns, Trace};
use crate::workload::Spec;
use errflow_compress::{
    scratch, ChunkedCompressor, Compressor, MgardCompressor, SzCompressor, ZfpCompressor,
};
use errflow_core::{quantize_model, NetworkAnalysis};
use errflow_net::proto::{self, HEADER_LEN};
use errflow_net::ResponseFrame;
use errflow_nn::{Mlp, Model};
use errflow_pipeline::planner::flatten;
use errflow_pipeline::{Planner, PlannerConfig};
use errflow_serve::{BackendKind, RequestStages};
use errflow_tensor::gemm::{self, PackedB};
use errflow_tensor::pool::hardware_threads;
use errflow_tensor::Matrix;
use std::hint::black_box;

/// Calls per sample for the nanosecond-scale `obs` probes.
const OBS_BATCH: usize = 1000;

/// A probe stops at this many calls even with budget left: the median has
/// settled long before, and each call is a span in the trace file.
const CALLS_MAX: usize = 256;

/// The compressor a server worker builds for `backend` (`BackendKind::build`
/// is private to the serve crate).
fn compressor(backend: BackendKind, decode_threads: usize) -> Box<dyn Compressor> {
    let threads = decode_threads.clamp(1, hardware_threads());
    match backend {
        BackendKind::Sz => {
            Box::new(ChunkedCompressor::new(SzCompressor::default()).with_threads(threads))
        }
        BackendKind::Zfp => {
            Box::new(ChunkedCompressor::new(ZfpCompressor::default()).with_threads(threads))
        }
        BackendKind::Mgard => {
            Box::new(ChunkedCompressor::new(MgardCompressor).with_threads(threads))
        }
    }
}

struct Probes<'t> {
    trace: &'t mut Trace,
    budget_ns: u64,
    out: Vec<Metric>,
}

impl Probes<'_> {
    /// Times `f` until the budget is spent (at least three calls, at most
    /// `CALLS_MAX`), records each call as a span named after the metric, and
    /// returns the median in µs.
    fn time_us(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        let began = now_ns();
        let mut samples = Vec::new();
        while samples.len() < 3 || (samples.len() < CALLS_MAX && now_ns() - began < self.budget_ns)
        {
            let t0 = now_ns();
            f();
            let t1 = now_ns();
            self.trace.push(name, 0, None, t0, t1);
            samples.push((t1 - t0) as f64 / 1e3);
        }
        median(&mut samples)
    }

    /// `time_us`, reported under `name` as it is.
    fn timed(&mut self, name: &'static str, f: impl FnMut()) -> f64 {
        let us = self.time_us(name, f);
        self.put(name, us);
        us
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push(metric(name, value));
    }
}

pub struct Shape<'a> {
    pub spec: &'a Spec,
    pub model: &'a Mlp,
    pub calibration: &'a [Vec<f32>],
    pub analysis: &'a NetworkAnalysis,
    pub payload: &'a Payload,
    /// Requests per forward pass, as the traced rounds saw it.
    pub batch: usize,
}

/// Runs every probe once per `budget_ns` and returns the `compress.*`,
/// `pipeline.*`, `core.*` (timed ones), `nn.*`, `tensor.*`, `net.*` (codec
/// ones) and `obs.*` metrics.
pub fn run(shape: &Shape, budget_ns: u64, trace: &mut Trace) -> Vec<Metric> {
    let Shape {
        spec,
        model,
        calibration,
        analysis,
        payload,
        batch,
    } = *shape;
    let mut p = Probes {
        trace,
        budget_ns,
        out: Vec::new(),
    };
    let tolerance = spec.tolerance(0);
    let config = PlannerConfig {
        rel_tolerance: errflow_serve::bucket_tolerance(tolerance).1,
        norm: spec.norm,
        quant_share: spec.serve.quant_share,
    };

    // A plan-cache miss, piece by piece, as `serve::server::worker_loop` does it.
    p.timed("pipeline.plan_us", || {
        let planner = Planner::with_analysis(model, calibration, analysis.clone());
        black_box(planner.plan(&config));
    });
    let planner = Planner::with_analysis(model, calibration, analysis.clone());
    let plan = planner.plan(&config);
    p.timed("core.quantize_model_us", || {
        black_box(quantize_model(model, plan.format));
    });
    let quantized = quantize_model(model, plan.format);
    p.timed("nn.pack_weights_us", || {
        black_box(quantized.pack_weights());
    });
    let packed = quantized.pack_weights();

    // The roundtrip every request pays: flatten, compress, decode.
    p.timed("pipeline.flatten_us", || {
        black_box(flatten(&payload.samples, spec.layout));
    });
    let flat = flatten(&payload.samples, spec.layout);
    let raw_bytes = (flat.len() * 4) as f64;
    let codec = compressor(spec.serve.backend, spec.serve.decode_threads);
    let bound = planner.compressor_bound(&plan, codec.as_ref(), flat.len());
    let mut stream = Vec::new();
    let compress_us = p.timed("compress.compress_us", || {
        stream = codec.compress(&flat, &bound).unwrap_or_default();
    });
    let mut decoded = vec![0.0f32; flat.len()];
    let mut units = 0usize;
    let decode_us = p.timed("compress.decode_us", || {
        let Ok(list) = codec.decode_units(&stream, decoded.len()) else {
            return;
        };
        units = list.len();
        let mut scratch = scratch::acquire();
        for u in &list {
            let dst = &mut decoded[u.offset..u.offset + u.len];
            let _ = codec.decode_unit_into(u, dst, &mut scratch);
        }
    });
    // µs and bytes: bytes / µs / 1e3 = GB/s.
    p.put("compress.compress_gbps", raw_bytes / compress_us / 1e3);
    p.put("compress.decode_gbps", raw_bytes / decode_us / 1e3);
    p.put("compress.ratio", raw_bytes / stream.len() as f64);
    p.put("compress.decode_units", units as f64);

    // One batched forward pass at the rows the server stacks.
    let rows = spec.samples_per_request * batch.max(1);
    let d = model.input_dim();
    let inputs = Matrix::from_fn(rows, d, |r, c| {
        payload.samples[r % spec.samples_per_request][c]
    });
    let forward_us = p.timed("nn.forward_batch_us", || {
        black_box(quantized.forward_batch_matrix(&inputs, packed.as_ref()));
    });
    let flops_per_request = spec.samples_per_request as f64 * model.flops();
    p.put(
        "nn.forward_gflops",
        rows as f64 * model.flops() / forward_us / 1e3,
    );
    // Computed from the layer shapes, not measured.
    p.put("tensor.gemm_flops_per_request", flops_per_request);

    // The largest layer's product alone.
    if let Some(w) = quantized
        .layers()
        .iter()
        .map(|l| l.weights())
        .max_by_key(|w| w.len())
    {
        let (n, k) = w.shape();
        let b = PackedB::pack_transb(w.as_slice(), k, n);
        let a: Vec<f32> = (0..rows * k).map(|i| flat[i % flat.len()]).collect();
        let mut c = vec![0.0f32; rows * n];
        let threads = gemm::auto_threads(rows * k * n);
        let us = p.time_us("tensor.gemm_prepacked_gflops", || {
            c.fill(0.0);
            gemm::gemm_prepacked(rows, &a, &b, &mut c, threads);
            black_box(&c);
        });
        p.put(
            "tensor.gemm_prepacked_gflops",
            2.0 * (rows * k * n) as f64 / us / 1e3,
        );
    }

    // EFNP framing of this request and its response.
    let frame = spec.frame(payload.samples.clone(), tolerance);
    let response = ResponseFrame {
        outputs: payload.reference.clone(),
        rel_bound: tolerance,
        plan_tolerance: config.rel_tolerance,
        format: plan.format,
        cache_hit: true,
        batch_size: 1,
        latency_ns: 1,
        stages: RequestStages::default(),
    };
    let request_bytes = proto::encode_request(&frame).unwrap_or_default();
    let response_bytes = proto::encode_response(&response).unwrap_or_default();
    let body = |bytes: &'_ [u8]| bytes.get(HEADER_LEN..).unwrap_or_default().to_vec();
    let (request_body, response_body) = (body(&request_bytes), body(&response_bytes));
    p.timed("net.encode_request_us", || {
        let _ = black_box(proto::encode_request(&frame));
    });
    p.timed("net.decode_request_us", || {
        let _ = black_box(proto::decode_request(&request_body));
    });
    p.timed("net.encode_response_us", || {
        let _ = black_box(proto::encode_response(&response));
    });
    p.timed("net.decode_response_us", || {
        let _ = black_box(proto::decode_response(&response_body));
    });

    // What the library's own telemetry costs per call; µs per 1000 calls
    // is ns per call.
    p.timed("obs.span_ns", || {
        for _ in 0..OBS_BATCH {
            let _span = errflow_obs::trace::span("bench.probe");
        }
    });
    let counter = errflow_obs::counter("bench.probe.counter");
    p.timed("obs.counter_inc_ns", || {
        for _ in 0..OBS_BATCH {
            counter.inc();
        }
    });
    let histogram = errflow_obs::histogram("bench.probe.histogram");
    p.timed("obs.hist_record_ns", || {
        for i in 0..OBS_BATCH {
            histogram.record(i as u64);
        }
    });
    p.timed("obs.export_prometheus_us", || {
        black_box(errflow_obs::export_prometheus());
    });

    p.put("net.request_bytes", request_bytes.len() as f64);
    p.put("net.response_bytes", response_bytes.len() as f64);
    p.out
}

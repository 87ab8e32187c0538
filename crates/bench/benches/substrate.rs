//! Micro-benchmarks of every substrate the figures depend on: GEMM,
//! spectral-norm estimation, the three compressors (both directions),
//! weight quantization, bound evaluation, and pipeline planning.
//!
//! These measured numbers back the analytical throughput models in
//! DESIGN.md §3 (substitutions 3 and 4).
//!
//! The harness is hand-rolled (adaptive iteration count + median-of-runs
//! timing) so the workspace stays free of external dependencies; the
//! target is opt-in behind the `criterion` feature:
//!
//! ```sh
//! cargo bench -p errflow-bench --features criterion
//! ```

use errflow_compress::{Compressor, ErrorBound, MgardCompressor, SzCompressor, ZfpCompressor};
use errflow_core::{quantize_model, NetworkAnalysis};
use errflow_nn::{Activation, Mlp, Model};
use errflow_pipeline::{Planner, PlannerConfig};
use errflow_quant::QuantFormat;
use errflow_tensor::init;
use errflow_tensor::norms::Norm;
use errflow_tensor::rng::StdRng;
use errflow_tensor::spectral::{power_iteration, PowerIterationOpts};
use std::time::Instant;

/// How work is counted for the derived rate column.
enum Throughput {
    None,
    Bytes(u64),
    Elements(u64),
}

/// Times `f` with an adaptive iteration count and prints one result line.
fn bench<R>(name: &str, throughput: Throughput, mut f: impl FnMut() -> R) {
    // Warm up and size the batch to ~50 ms.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.05 / once) as usize).clamp(1, 10_000);
    // Median of 3 batches rejects scheduler noise.
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let per_iter = samples[1];
    let rate = match throughput {
        Throughput::None => String::new(),
        Throughput::Bytes(b) => format!("  {:8.3} GB/s", b as f64 / per_iter / 1e9),
        Throughput::Elements(n) => format!("  {:8.2} Melem/s", n as f64 / per_iter / 1e6),
    };
    println!("{name:<44} {:>12.1} ns/iter{rate}", per_iter * 1e9);
}

fn smooth_payload(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let t = i as f32 / n as f32;
            (t * 14.0).sin() * 2.0 + 0.3 * (t * 90.0).cos()
        })
        .collect()
}

fn bench_gemm() {
    for n in [64usize, 128, 256] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::uniform(n, n, 1.0, &mut rng);
        let b = init::uniform(n, n, 1.0, &mut rng);
        bench(
            &format!("tensor/gemm/{n}x{n}"),
            Throughput::Elements((2 * n * n * n) as u64),
            || a.matmul(&b).unwrap(),
        );
    }
}

fn bench_spectral() {
    for n in [50usize, 200] {
        let mut rng = StdRng::seed_from_u64(2);
        let w = init::uniform(n, n, 1.0, &mut rng);
        bench(
            &format!("tensor/spectral_norm/power_iteration_{n}"),
            Throughput::None,
            || power_iteration(&w, PowerIterationOpts::default()).unwrap(),
        );
    }
}

fn bench_compressors() {
    let data = smooth_payload(65_536);
    let bound = ErrorBound::rel_linf(1e-4);
    let backends: Vec<Box<dyn Compressor>> = vec![
        Box::new(ZfpCompressor::default()),
        Box::new(SzCompressor::default()),
        Box::new(MgardCompressor::default()),
    ];
    let bytes = (data.len() * 4) as u64;
    for backend in &backends {
        bench(
            &format!("compress/{}/compress", backend.name()),
            Throughput::Bytes(bytes),
            || backend.compress(&data, &bound).unwrap(),
        );
        let stream = backend.compress(&data, &bound).unwrap();
        bench(
            &format!("compress/{}/decompress", backend.name()),
            Throughput::Bytes(bytes),
            || backend.decompress(&stream).unwrap(),
        );
    }
}

fn bench_chunked_and_2d() {
    use errflow_compress::chunked::ChunkedCompressor;
    use errflow_compress::sz2d::Sz2dCompressor;
    let data = smooth_payload(262_144);
    let bound = ErrorBound::abs_linf(1e-4);
    let bytes = (data.len() * 4) as u64;
    let chunked = ChunkedCompressor::new(SzCompressor::default());
    let stream = chunked.compress(&data, &bound).unwrap();
    bench(
        "compress/chunked_sz/decompress",
        Throughput::Bytes(bytes),
        || chunked.decompress(&stream).unwrap(),
    );
    let serial = ChunkedCompressor::new(SzCompressor::default()).with_threads(1);
    bench(
        "compress/chunked_sz/decompress_1thread",
        Throughput::Bytes(bytes),
        || serial.decompress(&stream).unwrap(),
    );
    let sz2d = Sz2dCompressor::new();
    let stream2d = sz2d.compress(&data, 512, 512, &bound).unwrap();
    bench("compress/sz2d/compress", Throughput::Bytes(bytes), || {
        sz2d.compress(&data, 512, 512, &bound).unwrap()
    });
    bench("compress/sz2d/decompress", Throughput::Bytes(bytes), || {
        sz2d.decompress(&stream2d).unwrap()
    });
}

fn bench_huffman() {
    use errflow_compress::huffman;
    let mut rng = StdRng::seed_from_u64(8);
    // Skewed alphabet typical of quantization codes.
    let symbols: Vec<u32> = (0..262_144)
        .map(|_| {
            if rng.gen_bool(0.9) {
                32768
            } else {
                32768 + rng.gen_range(-20i64..20) as u32
            }
        })
        .collect();
    let n = symbols.len() as u64;
    for n_streams in [1usize, 4] {
        let segs = errflow_compress::format::split_slices(&symbols, n_streams);
        let stream = huffman::encode_multi(&segs);
        bench(
            &format!("compress/huffman/encode/{n_streams}-stream"),
            Throughput::Elements(n),
            || huffman::encode_multi(&segs),
        );
        bench(
            &format!("compress/huffman/decode/{n_streams}-stream"),
            Throughput::Elements(n),
            || huffman::decode_multi(&stream).unwrap(),
        );
        bench(
            &format!("compress/huffman/decode-oracle/{n_streams}-stream"),
            Throughput::Elements(n),
            || errflow_compress::reference::huffman_decode_multi(&stream).unwrap(),
        );
    }
}

fn bench_quantization() {
    let mut rng = StdRng::seed_from_u64(3);
    let w = init::uniform(256, 256, 0.5, &mut rng);
    for format in QuantFormat::REDUCED {
        bench(
            &format!("quant/quantize_matrix/{}", format.label()),
            Throughput::Elements((256 * 256) as u64),
            || format.quantize_matrix(&w),
        );
        bench(
            &format!("quant/step_size/{}", format.label()),
            Throughput::Elements((256 * 256) as u64),
            || format.step_size(&w),
        );
    }
}

fn bench_analysis() {
    let model = Mlp::new(
        &[13, 48, 48, 48, 48, 48, 48, 48, 48, 3],
        Activation::PRelu(0.25),
        Activation::Identity,
        4,
        None,
    );
    bench(
        "core/network_analysis/9_layer_mlp",
        Throughput::None,
        || NetworkAnalysis::of(&model),
    );
    let analysis = NetworkAnalysis::of(&model);
    bench("core/combined_bound", Throughput::None, || {
        analysis.combined_bound(1e-4, QuantFormat::Fp16)
    });
    bench("core/per_feature_bounds", Throughput::None, || {
        analysis.per_feature_bounds(1e-4, QuantFormat::Fp16)
    });
    bench("core/quantize_model/fp16", Throughput::None, || {
        quantize_model(&model, QuantFormat::Fp16)
    });
}

fn bench_pipeline() {
    let model = Mlp::new(
        &[9, 50, 50, 9],
        Activation::Tanh,
        Activation::Identity,
        5,
        None,
    );
    let mut rng = StdRng::seed_from_u64(6);
    let calibration: Vec<Vec<f32>> = (0..32)
        .map(|_| init::uniform_vec(9, 1.0, &mut rng))
        .collect();
    bench("pipeline/planner_new", Throughput::None, || {
        Planner::new(&model, &calibration)
    });
    let planner = Planner::new(&model, &calibration);
    bench("pipeline/plan", Throughput::None, || {
        planner.plan(&PlannerConfig {
            rel_tolerance: 1e-3,
            norm: Norm::LInf,
            quant_share: 0.5,
        })
    });
    let x = init::uniform_vec(9, 1.0, &mut rng);
    bench("pipeline/forward/h2_mlp", Throughput::None, || {
        model.forward(&x)
    });
}

fn main() {
    println!("{:<44} {:>20}", "benchmark", "median");
    bench_gemm();
    bench_spectral();
    bench_compressors();
    bench_chunked_and_2d();
    bench_huffman();
    bench_quantization();
    bench_analysis();
    bench_pipeline();
}

//! `gemm-bench` — throughput sweep for the blocked GEMM kernel.
//!
//! Sweeps square sizes and thread counts, comparing the blocked,
//! panel-packed kernel (`errflow_tensor::gemm`) against the retained
//! textbook baseline (`Matrix::matmul_naive`), and emits `BENCH_gemm.json`
//! so the perf trajectory is tracked in-repo from PR 2 onward.
//!
//! ```sh
//! cargo run --release -p errflow-bench --bin gemm-bench            # full sweep
//! cargo run --release -p errflow-bench --bin gemm-bench -- --smoke # CI gate
//! ```
//!
//! `--smoke` runs a reduced sweep and **fails** (exit 1) if the blocked
//! kernel is slower than the naive loop at 512×512, or if the layer
//! epilogue (bias + tanh, `Activation::bias_act`) is not at least 3× a
//! plain `f32::tanh` loop over the same 128 × 512 buffer — the regression
//! gates wired into CI.  The second is the tripwire for an edit that
//! silently de-vectorises the tanh kernel's body.
//!
//! Beside the square sweep it times the layer products the benchmark
//! workloads run (`"serving_layers"`), each with the forward pass of the
//! model it belongs to at the same batch: the standalone numbers that
//! `tensor.gemm_prepacked_gflops` and `nn.forward_batch_us` reconcile with.

use errflow_nn::{tanh_arm, Activation, Mlp, Model};
use errflow_tensor::rng::StdRng;
use errflow_tensor::{gemm, pool, Matrix};
use std::fmt::Write as _;
use std::time::Instant;

struct SizeResult {
    size: usize,
    naive_secs: f64,
    /// `(threads, best_secs)` per swept thread count.
    blocked: Vec<(usize, f64)>,
    /// Single-thread time with `B` packed once up front (the serve
    /// plan-cache pattern: `PackedB` + `gemm_prepacked`).
    prepacked_secs: f64,
    /// Whether the prepacked driver matched `gemm` bit-for-bit.
    prepacked_bitwise: bool,
    max_rel_err: f64,
}

fn gflops(size: usize, secs: f64) -> f64 {
    2.0 * (size as f64).powi(3) / secs / 1e9
}

/// Best-of-`reps` wall time for one invocation of `f`.
fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Reps scaled so small sizes average over noise and big sizes stay cheap.
fn reps_for(size: usize) -> usize {
    match size {
        0..=128 => 20,
        129..=512 => 6,
        513..=1024 => 3,
        _ => 1,
    }
}

fn run_size(size: usize, threads: &[usize], smoke: bool) -> SizeResult {
    let mut rng = StdRng::seed_from_u64(size as u64 ^ 0x9e3779b97f4a7c15);
    let a = Matrix::from_fn(size, size, |_, _| rng.gen_range(-1.0f32..1.0));
    let b = Matrix::from_fn(size, size, |_, _| rng.gen_range(-1.0f32..1.0));
    let reps = if smoke { 2 } else { reps_for(size) };

    let mut naive_out = Matrix::zeros(0, 0);
    let naive_secs = time_best(reps.min(3), || {
        naive_out = a.matmul_naive(&b).expect("square shapes agree");
    });

    let mut blocked = Vec::new();
    let mut max_rel_err = 0.0f64;
    // Parity is measured BLAS-style: elementwise |blocked - naive|
    // normalised by ‖C‖∞, which is insensitive to benign cancellation in
    // near-zero elements (both kernels are exact reorderings of the same
    // sum; they differ only in f32 rounding).
    let c_scale = naive_out.max_abs().max(1.0) as f64;
    let mut blocked_1t = vec![0.0f32; size * size];
    gemm::gemm(
        size,
        size,
        size,
        a.as_slice(),
        b.as_slice(),
        &mut blocked_1t,
        1,
    );
    for &t in threads {
        let mut out = vec![0.0f32; size * size];
        let secs = time_best(reps, || {
            out.fill(0.0);
            gemm::gemm(size, size, size, a.as_slice(), b.as_slice(), &mut out, t);
        });
        blocked.push((t, secs));
        for (&x, &y) in out.iter().zip(naive_out.as_slice()) {
            let rel = ((x as f64) - (y as f64)).abs() / c_scale;
            max_rel_err = max_rel_err.max(rel);
        }
    }
    // Prepacked: pack B once up front (the serve plan-cache pattern), then
    // run the pack-free driver.  Bitwise parity with the single-thread
    // blocked kernel is part of the measurement — the prepacked path runs
    // the identical traversal and microkernels.
    let packed = gemm::PackedB::pack(b.as_slice(), size, size);
    let mut pre_out = vec![0.0f32; size * size];
    let prepacked_secs = time_best(reps, || {
        pre_out.fill(0.0);
        gemm::gemm_prepacked(size, a.as_slice(), &packed, &mut pre_out, 1);
    });
    let prepacked_bitwise = pre_out
        .iter()
        .zip(&blocked_1t)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    SizeResult {
        size,
        naive_secs,
        blocked,
        prepacked_secs,
        prepacked_bitwise,
        max_rel_err,
    }
}

/// `forward_wide`'s model and the one the codec and small-payload
/// workloads share (tanh hidden layers, identity output).
const WIDE: &[usize] = &[256, 512, 512, 16];
const SMALL: &[usize] = &[256, 128, 16];

/// `(m, k, n, model)`: a `m×k · (n×k)ᵀ` layer product and the model whose
/// forward pass runs it at batch `m` — `forward_wide`'s 128-row batch, the
/// codec workloads' 512 rows and a 4-row small-payload batch.
const SERVING_LAYERS: [(usize, usize, usize, &[usize]); 5] = [
    (128, 256, 512, WIDE),
    (128, 512, 512, WIDE),
    (128, 512, 16, WIDE),
    (512, 256, 128, SMALL),
    (4, 256, 128, SMALL),
];

struct LayerResult {
    shape: (usize, usize, usize),
    dims: &'static [usize],
    /// Single-thread `gemm_prepacked` against the packed weights.
    prepacked_secs: f64,
    /// `Mlp::forward_batch_matrix` over the whole model with packed
    /// weights, at the library's own thread budget (`gemm::auto_threads`).
    forward_secs: f64,
    /// The same forward pass packing each layer's weights per batch, as it
    /// would without the serve layer's `PackedWeights`.
    forward_pack_per_batch_secs: f64,
}

impl LayerResult {
    fn prepacked_gflops(&self) -> f64 {
        let (m, k, n) = self.shape;
        2.0 * (m * k * n) as f64 / self.prepacked_secs / 1e9
    }
}

fn run_layer((m, k, n, dims): (usize, usize, usize, &'static [usize]), smoke: bool) -> LayerResult {
    let mut rng = StdRng::seed_from_u64((m * k * n) as u64);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let w: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let packed = gemm::PackedB::pack_transb(&w, k, n);
    let mut c = vec![0.0f32; m * n];
    let reps = if smoke { 5 } else { 200 };
    let prepacked_secs = time_best(reps, || {
        c.fill(0.0);
        gemm::gemm_prepacked(m, &a, &packed, &mut c, 1);
    });
    let model = Mlp::new(dims, Activation::Tanh, Activation::Identity, 7, None);
    let weights = model.pack_weights();
    let x = Matrix::from_fn(m, dims[0], |_, _| rng.gen_range(-1.0f32..1.0));
    // Interleaved, so that both sides of the packing comparison see the
    // same host speed.
    let (mut forward_secs, mut forward_pack_per_batch_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        forward_secs = forward_secs.min(time_best(1, || {
            std::hint::black_box(model.forward_batch_matrix(&x, weights.as_ref()));
        }));
        forward_pack_per_batch_secs = forward_pack_per_batch_secs.min(time_best(1, || {
            std::hint::black_box(model.forward_batch_matrix(&x, None));
        }));
    }
    LayerResult {
        shape: (m, k, n),
        dims,
        prepacked_secs,
        forward_secs,
        forward_pack_per_batch_secs,
    }
}

/// The other half of a dense layer: `tanh(z + bias)` over a 128 × 512
/// batch of pre-activations, by the crate's kernel and by a libm loop.
struct EpilogueResult {
    kernel_ns_per_value: f64,
    libm_ns_per_value: f64,
}

impl EpilogueResult {
    fn speedup_vs_libm(&self) -> f64 {
        self.libm_ns_per_value / self.kernel_ns_per_value
    }
}

fn run_epilogue() -> EpilogueResult {
    const ROWS: usize = 128;
    const COLS: usize = 512;
    let mut rng = StdRng::seed_from_u64(0x7a6e);
    // ±4 puts values on both branches of the kernel and short of saturation.
    let pre: Vec<f32> = (0..ROWS * COLS)
        .map(|_| rng.gen_range(-4.0f32..4.0))
        .collect();
    let bias: Vec<f32> = (0..COLS).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let mut buf = pre.clone();
    // Both arms pay the same refill of `buf`.
    let per_value = |secs: f64| secs * 1e9 / (ROWS * COLS) as f64;
    let kernel = time_best(20, || {
        buf.copy_from_slice(&pre);
        for row in buf.chunks_exact_mut(COLS) {
            Activation::Tanh.bias_act(row, &bias);
        }
        std::hint::black_box(&mut buf);
    });
    let libm = time_best(20, || {
        buf.copy_from_slice(&pre);
        for row in buf.chunks_exact_mut(COLS) {
            for (v, &b) in row.iter_mut().zip(&bias) {
                *v = (*v + b).tanh();
            }
        }
        std::hint::black_box(&mut buf);
    });
    EpilogueResult {
        kernel_ns_per_value: per_value(kernel),
        libm_ns_per_value: per_value(libm),
    }
}

fn to_json(
    results: &[SizeResult],
    layers: &[LayerResult],
    epilogue: &EpilogueResult,
    threads: &[usize],
) -> String {
    let kernel = match gemm::kernel_kind() {
        gemm::KernelKind::Avx512 => "avx512_fma",
        gemm::KernelKind::Avx2Fma => "avx2_fma",
        gemm::KernelKind::Generic => "generic",
    };
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"gemm\",");
    let _ = writeln!(s, "  \"kernel\": \"{kernel}\",");
    let _ = writeln!(
        s,
        "  \"available_parallelism\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(
        s,
        "  \"pool_concurrency\": {},",
        pool::global().max_concurrency()
    );
    let _ = writeln!(
        s,
        "  \"blocking\": {{\"mc\": {}, \"kc\": {}, \"nc\": {}}},",
        gemm::MC,
        gemm::KC,
        gemm::NC
    );
    let _ = writeln!(
        s,
        "  \"threads_swept\": [{}],",
        threads
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        s,
        "  \"epilogue_bias_tanh_128x512\": {{\"tanh_arm\": \"{}\", \"kernel_ns_per_value\": {:.2}, \
         \"libm_ns_per_value\": {:.2}, \"speedup_vs_libm\": {:.2}}},",
        tanh_arm(),
        epilogue.kernel_ns_per_value,
        epilogue.libm_ns_per_value,
        epilogue.speedup_vs_libm()
    );
    s.push_str("  \"serving_layers\": [\n");
    for (i, l) in layers.iter().enumerate() {
        let (m, k, n) = l.shape;
        let dims = l.dims.iter().map(usize::to_string).collect::<Vec<_>>();
        let _ = write!(
            s,
            "    {{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"prepacked_gflops\": {:.3}, \
             \"model\": \"{}\", \"forward_us\": {:.1}, \"forward_pack_per_batch_us\": {:.1}}}",
            l.prepacked_gflops(),
            dims.join("-"),
            l.forward_secs * 1e6,
            l.forward_pack_per_batch_secs * 1e6
        );
        s.push_str(if i + 1 < layers.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"size\": {}, \"naive_gflops\": {:.3}, \"max_rel_err\": {:.3e}, \
             \"prepacked_gflops\": {:.3}, \"prepacked_bitwise\": {}, \"blocked\": [",
            r.size,
            gflops(r.size, r.naive_secs),
            r.max_rel_err,
            gflops(r.size, r.prepacked_secs),
            r.prepacked_bitwise
        );
        for (j, &(t, secs)) in r.blocked.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"threads\": {t}, \"gflops\": {:.3}, \"speedup_vs_naive\": {:.2}}}",
                gflops(r.size, secs),
                r.naive_secs / secs
            );
        }
        s.push_str("]}");
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_gemm.json".to_string());

    let max_t = pool::global().max_concurrency();
    let mut threads: Vec<usize> = vec![1, 2, 4]
        .into_iter()
        .filter(|&t| t == 1 || t <= max_t)
        .collect();
    if max_t > 4 {
        threads.push(max_t);
    }
    let sizes: Vec<usize> = if smoke {
        vec![128, 512]
    } else {
        vec![64, 128, 256, 512, 1024, 2048]
    };

    eprintln!(
        "[gemm-bench] kernel={:?} pool_concurrency={max_t} sizes={sizes:?} threads={threads:?}",
        gemm::kernel_kind()
    );
    let mut results = Vec::new();
    for &size in &sizes {
        let r = run_size(size, &threads, smoke);
        eprintln!(
            "[gemm-bench] {0}x{0}: naive {1:.2} GFLOP/s; blocked {2} (max rel err {3:.1e})",
            size,
            gflops(size, r.naive_secs),
            r.blocked
                .iter()
                .map(|&(t, s)| format!(
                    "{t}T {:.2} GFLOP/s ({:.1}x)",
                    gflops(size, s),
                    r.naive_secs / s
                ))
                .collect::<Vec<_>>()
                .join(", "),
            r.max_rel_err
        );
        assert!(
            r.max_rel_err <= 1e-5,
            "blocked/naive outputs diverged at {size}: {}",
            r.max_rel_err
        );
        assert!(
            r.prepacked_bitwise,
            "prepacked GEMM diverged from gemm() at {size}x{size}"
        );
        eprintln!(
            "[gemm-bench] {0}x{0}: prepacked 1T {1:.2} GFLOP/s",
            size,
            gflops(size, r.prepacked_secs)
        );
        results.push(r);
    }

    let layers: Vec<LayerResult> = SERVING_LAYERS
        .iter()
        .map(|&layer| {
            let l = run_layer(layer, smoke);
            let (m, k, n) = l.shape;
            eprintln!(
                "[gemm-bench] layer {m}x{k}->{n}: prepacked 1T {:.2} GFLOP/s; forward {:?} x {m} rows \
                 {:.1} us ({:.1} us packing B per batch)",
                l.prepacked_gflops(),
                l.dims,
                l.forward_secs * 1e6,
                l.forward_pack_per_batch_secs * 1e6
            );
            l
        })
        .collect();

    let epilogue = run_epilogue();
    eprintln!(
        "[gemm-bench] epilogue bias+tanh 128x512 ({} arm): kernel {:.2} ns/value, libm loop {:.2} ns/value ({:.1}x)",
        tanh_arm(),
        epilogue.kernel_ns_per_value,
        epilogue.libm_ns_per_value,
        epilogue.speedup_vs_libm()
    );

    let json = to_json(&results, &layers, &epilogue, &threads);
    if smoke {
        // CI gate: blocked must beat naive at the largest smoke size.
        let gate = results.last().expect("smoke sweep is nonempty");
        let best_blocked = gate
            .blocked
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        let single_thread = gate.blocked[0].1;
        println!("{json}");
        if single_thread > gate.naive_secs && best_blocked > gate.naive_secs {
            eprintln!(
                "[gemm-bench] FAIL: blocked GEMM slower than naive at {0}x{0} \
                 (blocked {1:.3}s vs naive {2:.3}s)",
                gate.size, single_thread, gate.naive_secs
            );
            std::process::exit(1);
        }
        // CI gate: skipping the per-call pack must not make the kernel
        // slower (25% slack for loaded CI machines).
        if gate.prepacked_secs > single_thread * 1.25 {
            eprintln!(
                "[gemm-bench] FAIL: prepacked GEMM slower than pack-per-call at {0}x{0} \
                 (prepacked {1:.3}s vs blocked {2:.3}s)",
                gate.size, gate.prepacked_secs, single_thread
            );
            std::process::exit(1);
        }
        // CI gate: the tanh kernel must stay vectorised — an edit that makes
        // LLVM fall back to a scalar body costs about 2× and trips this.
        if epilogue.speedup_vs_libm() < 3.0 {
            eprintln!(
                "[gemm-bench] FAIL: bias+tanh epilogue is not 3x a libm tanh loop \
                 (kernel {:.2} ns/value vs libm {:.2} ns/value)",
                epilogue.kernel_ns_per_value, epilogue.libm_ns_per_value
            );
            std::process::exit(1);
        }
        eprintln!("[gemm-bench] smoke OK");
    } else {
        std::fs::write(&out_path, &json).expect("write bench json");
        eprintln!("[gemm-bench] wrote {out_path}");
        println!("{json}");
    }
}

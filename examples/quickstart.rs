//! Quickstart: train a small scientific surrogate, predict its output
//! error bound under compression + quantization, and verify the bound
//! against a real run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use errflow::core::ErrorFlow;
use errflow::prelude::*;
use errflow::scidata::task::TrainingMode;

fn main() {
    // 1. Generate a synthetic H2-combustion workload and train the paper's
    //    2×50 Tanh MLP with parameterized spectral normalization.
    let task = SyntheticTask::h2_combustion_small(42);
    println!(
        "workload: {} ({} samples, {} -> {} features)",
        task.kind,
        task.dataset.len(),
        task.input_dim(),
        task.output_dim()
    );
    let model = task.trained_model(TrainingMode::Psn, 12);

    // 2. Analyse the trained network: per-layer spectral norms feed the
    //    error bounds of Ineq. (3).
    let analysis = NetworkAnalysis::of(&model);
    println!("layer spectral norms: {:?}", analysis.sigmas());
    println!(
        "network amplification (Πσ): {:.3}",
        analysis.amplification()
    );

    // 3. Predict the output error bound for FP16 weights + a 1e-4 input
    //    compression error — *before* touching the data.
    let dx = 1e-4;
    let bound = analysis.combined_bound(dx, QuantFormat::Fp16);
    println!(
        "predicted bound at ||dx||={dx}: compression {:.3e} + quantization {:.3e} = {:.3e}",
        bound.compression,
        bound.weight_quant,
        bound.total()
    );

    // 4. Verify on real data: compress an input with SZ, quantize the
    //    model to FP16, and decompose the observed error along the paper's
    //    two-leg path (Eq. 4).
    let sz = SzCompressor::default();
    let x = task.ordered_inputs()[100].clone();
    let stream = sz
        .compress(&x, &ErrorBound::abs_l2(dx))
        .expect("sz supports L2 bounds");
    let x_tilde = sz.decompress(&stream, x.len()).expect("roundtrip");
    let quantized = errflow::core::quantize_model(&model, QuantFormat::Fp16);
    let flow = ErrorFlow::decompose(&model, &quantized, &x, &x_tilde);
    println!(
        "observed: compression leg {:.3e}, quantization leg {:.3e}, total {:.3e}",
        flow.compression_error(Norm::L2),
        flow.quantization_error(Norm::L2),
        flow.total_error(Norm::L2)
    );
    assert!(flow.total_error(Norm::L2) <= bound.total());
    println!("bound holds: observed total <= predicted bound");
}

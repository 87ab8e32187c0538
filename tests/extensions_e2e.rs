//! Integration tests of the future-work extensions working together on the
//! real workloads: chunked-parallel compression inside the planner, the
//! ratio-model optimizer, model save/load, and row-wise quantization
//! against the refined bound.

use errflow::compress::chunked::ChunkedCompressor;
use errflow::core::NetworkAnalysis;
use errflow::nn::io::{load_mlp, save_mlp};
use errflow::nn::Model;
use errflow::pipeline::planner::{flatten, PayloadLayout};
use errflow::prelude::*;
use errflow::quant::rowwise::{quantize_int8_rowwise, rowwise_injection, rowwise_int8_steps};
use errflow::scidata::task::TrainingMode;
use errflow::scidata::{TaskKind, TaskModel};
use errflow::tensor::norms::diff_norm;

#[test]
fn chunked_backend_in_planner_is_sound_and_consistent() {
    let task = SyntheticTask::h2_combustion_small(17);
    let model = task.trained_model(TrainingMode::Psn, 5);
    let cal: Vec<Vec<f32>> = task.ordered_inputs().iter().take(32).cloned().collect();
    let planner = Planner::new(&model, &cal);
    let plan = planner.plan(&PlannerConfig {
        rel_tolerance: 1e-2,
        norm: Norm::L2,
        quant_share: 0.4,
    });
    let inputs: Vec<Vec<f32>> = task.ordered_inputs().iter().take(200).cloned().collect();
    let chunked = ChunkedCompressor::new(SzCompressor::default()).with_chunk_values(512);
    let report = planner
        .execute(
            &plan,
            &chunked,
            &inputs,
            Norm::L2,
            PayloadLayout::FeatureMajor,
        )
        .unwrap();
    assert!(report.achieved_rel_error.max <= report.predicted_rel_bound);
}

#[test]
fn ratio_model_predicts_task_payload_ratios() {
    let task = SyntheticTask::h2_combustion_small(18);
    let payload = task.compression_payload();
    let sz = SzCompressor::default();
    let model = errflow::pipeline::RatioModel::probe(
        &sz,
        &payload[..payload.len() / 2],
        &[1e-5, 1e-3, 1e-1],
        ErrorBound::rel_linf,
    )
    .unwrap();
    // Predict on the *other* half at an unseen tolerance.
    let (_, stats) = sz
        .roundtrip(&payload[payload.len() / 2..], &ErrorBound::rel_linf(1e-2))
        .unwrap();
    let predicted = model.predict_ratio(1e-2);
    assert!(
        (predicted / stats.ratio()).ln().abs() < 1.0,
        "predicted {predicted:.1}x vs actual {:.1}x",
        stats.ratio()
    );
}

#[test]
fn saved_model_reproduces_bounds_and_outputs() {
    let task = SyntheticTask::h2_combustion_small(20);
    let model = task.trained_model(TrainingMode::Psn, 5);
    let TaskModel::Mlp(mlp) = &model else {
        panic!("h2 is an MLP")
    };
    let loaded = load_mlp(&save_mlp(mlp)).unwrap();
    // Identical outputs…
    for x in task.ordered_inputs().iter().take(20) {
        assert_eq!(mlp.forward(x), loaded.forward(x));
    }
    // …and identical error bounds.
    let a1 = NetworkAnalysis::of(mlp);
    let a2 = NetworkAnalysis::of(&loaded);
    assert!((a1.amplification() - a2.amplification()).abs() < 1e-9);
    for f in QuantFormat::REDUCED {
        assert!(
            (a1.quantization_bound(f) - a2.quantization_bound(f)).abs()
                < 1e-9 * a1.quantization_bound(f).max(1e-12)
        );
    }
}

#[test]
fn rowwise_quantization_respects_refined_bound() {
    // Row-wise INT8 on a trained layer: observed injection per unit input
    // magnitude must stay below the refined ‖q‖₂/(2√3) bound.
    let task = SyntheticTask::h2_combustion_small(21);
    let model = task.trained_model(TrainingMode::Psn, 5);
    let TaskModel::Mlp(mlp) = &model else {
        panic!("h2 is an MLP")
    };
    let layer = &mlp.layers()[0];
    let w = layer.weights();
    let wq = quantize_int8_rowwise(w).dequantize();
    let steps = rowwise_int8_steps(w);
    let refined = rowwise_injection(&steps);
    // ‖ΔW·h‖₂ ≤ (√3 margin over the concentration limit) · ‖h‖₂.
    for x in task.ordered_inputs().iter().take(30) {
        let clean = w.matvec(x).unwrap();
        let noisy = wq.matvec(x).unwrap();
        let err = diff_norm(&clean, &noisy, Norm::L2);
        let h_norm = errflow::tensor::norms::l2(x);
        // The concentration value is an asymptotic mean; allow the usual
        // 2√3 worst-case factor.
        assert!(
            err <= refined * 2.0 * 3f64.sqrt() * h_norm + 1e-9,
            "err={err} refined={refined} ‖h‖={h_norm}"
        );
    }
}

#[test]
fn all_tasks_roundtrip_through_planner_with_all_extensions() {
    for kind in TaskKind::ALL {
        let task = SyntheticTask::of_kind_small(kind, 22);
        let model = task.trained_model(TrainingMode::Psn, 4);
        let cal: Vec<Vec<f32>> = task.ordered_inputs().iter().take(32).cloned().collect();
        let planner = Planner::new_calibrated(&model, &cal, 1.5);
        let inputs: Vec<Vec<f32>> = task.ordered_inputs().iter().take(60).cloned().collect();
        let layout = match kind {
            TaskKind::EuroSat => PayloadLayout::SampleMajor,
            _ => PayloadLayout::FeatureMajor,
        };
        let payload = flatten(&inputs, layout);
        let sz = SzCompressor::default();
        let (plan, _) = planner
            .plan_optimal(1e-1, Norm::L2, &sz, &payload, inputs[0].len())
            .unwrap();
        let report = planner
            .execute(&plan, &sz, &inputs, Norm::L2, layout)
            .unwrap();
        assert!(
            report.achieved_rel_error.max <= report.predicted_rel_bound,
            "{kind:?}"
        );
    }
}

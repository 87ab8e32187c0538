//! Integration tests of the future-work extensions working together on the
//! real workloads: chunked-parallel compression inside the planner and the
//! ratio-model optimizer.

use errflow::compress::chunked::ChunkedCompressor;
use errflow::pipeline::planner::{flatten, PayloadLayout};
use errflow::prelude::*;
use errflow::scidata::task::TrainingMode;
use errflow::scidata::TaskKind;

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
    assert!(report.achieved_rel_error.max <= report.plan.rel_bound);
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
            report.achieved_rel_error.max <= report.plan.rel_bound,
            "{kind:?}"
        );
    }
}

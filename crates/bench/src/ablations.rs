//! The six ablations beyond the paper's figures (DESIGN.md §4): registry
//! entries like the figures, over the same trained models.

use crate::experiments::{
    calibration_inputs, config, first_inputs, layout_for, make_planner, roundtrip,
    worst_output_error, PIPELINE_SAMPLES, SHARES, TRAINING_MODES,
};
use crate::report::{fixed, sci, Table};
use crate::tasks::Models;
use errflow_compress::{ErrorBound, SzCompressor};
use errflow_core::{quantize_model, quantize_model_mixed, NetworkAnalysis};
use errflow_nn::Model;
use errflow_pipeline::planner::flatten;
use errflow_pipeline::PipelinePlan;
use errflow_quant::blockwise::quantize_int8_blockwise;
use errflow_quant::fp::round_mantissa;
use errflow_quant::rowwise::quantize_int8_rowwise;
use errflow_quant::QuantFormat;
use errflow_scidata::task::TrainingMode;
use errflow_scidata::TaskKind;
use errflow_tensor::norms::{diff_norm, Norm};

/// Reduced formats, fastest first: the order an assigner tries them in.
const FASTEST_FIRST: [QuantFormat; 4] = [
    QuantFormat::Int8,
    QuantFormat::Fp16,
    QuantFormat::Bf16,
    QuantFormat::Tf32,
];

/// Bound tightness with PSN vs plain training vs weight decay: the network
/// amplification Πσ and the bound ÷ achieved ratio per training mode, the
/// quantitative form of the Figs. 3–4 baseline comparison.
pub fn psn(models: &Models) -> Vec<Table> {
    let mut table = Table::new(
        "PSN vs baselines: amplification and bound tightness",
        "task mode amplification bound_rel achieved_rel tightness(bound/achieved)",
    );
    let sz = SzCompressor;
    for kind in TaskKind::ALL {
        for (label, mode) in ["psn", "plain", "weight_decay"].iter().zip(TRAINING_MODES) {
            let tt = models.get(kind, mode);
            let inputs = calibration_inputs(tt);
            let layout = layout_for(kind);
            let recon = roundtrip(&sz, &inputs, layout, &ErrorBound::rel_linf(1e-4));
            let mut worst_ach = 0.0f64;
            let mut worst_bound = 0.0f64;
            for (x, xt) in inputs.iter().zip(&recon) {
                let dx = diff_norm(x, xt, Norm::L2);
                let y = tt.model.forward(x);
                let yt = tt.model.forward(xt);
                let refn = Norm::L2.eval(&y).max(f64::MIN_POSITIVE);
                worst_ach = worst_ach.max(diff_norm(&y, &yt, Norm::L2) / refn);
                worst_bound = worst_bound.max(tt.analysis.compression_bound(dx) / refn);
            }
            table.push(vec![
                kind.name().into(),
                (*label).into(),
                fixed(tt.analysis.amplification()),
                sci(worst_bound),
                sci(worst_ach),
                fixed(worst_bound / worst_ach.max(f64::MIN_POSITIVE)),
            ]);
        }
    }
    vec![table]
}

/// Fixed quantization share vs the best share found by exhaustive
/// *execution* vs `Planner::plan_optimal`, which only probes a payload
/// sample through the ratio model (§IV-D's "optimization algorithm").
pub fn allocation(models: &Models) -> Vec<Table> {
    let backend = SzCompressor;
    let mut table = Table::new(
        "Fixed vs best tolerance allocation (SZ, L-infinity)",
        "task qoi_tolerance gbps_share_0.1 gbps_share_0.5 gbps_share_0.9 best_share best_gbps \
         optimizer_share optimizer_gbps",
    );
    for tt in models.all_psn() {
        let planner = make_planner(tt, true);
        let inputs = first_inputs(tt, PIPELINE_SAMPLES);
        let layout = layout_for(tt.task.kind);
        for tol in [1e-4, 1e-3, 1e-2] {
            let execute = |plan: PipelinePlan| -> f64 {
                planner
                    .execute(&plan, &backend, &inputs, Norm::LInf, layout)
                    .map(|r| r.end_to_end_gbps)
                    .unwrap_or(0.0)
            };
            let run =
                |share: f64| -> f64 { execute(planner.plan(&config(tol, Norm::LInf, share))) };
            let mut row = vec![tt.name().into(), sci(tol)];
            row.extend(SHARES.map(|s| fixed(run(s))));
            let mut best = (0.0, 0.0);
            for i in 1..10 {
                let s = i as f64 / 10.0;
                let g = run(s);
                if g > best.1 {
                    best = (s, g);
                }
            }
            // Model-based optimizer (no full execution in the loop).
            let payload = flatten(&inputs, layout);
            let (opt_plan, _) = planner
                .plan_optimal(tol, Norm::LInf, &backend, &payload, inputs[0].len())
                .expect("optimizer");
            // The share that would produce this plan (approximate label).
            let opt_share = opt_plan.predicted_quant_bound / opt_plan.abs_tolerance.max(1e-300);
            row.extend([
                fixed(best.0),
                fixed(best.1),
                fixed(opt_share),
                fixed(execute(opt_plan)),
            ]);
            table.push(row);
        }
    }
    vec![table]
}

/// Mantissa bits vs QoI error on H2: hypothetical formats with a full FP32
/// exponent and m ∈ {4..20} mantissa bits (the conclusion's "lower-precision
/// formats with increased mantissa bits").
pub fn formats(models: &Models) -> Vec<Table> {
    let tt = models.get(TaskKind::H2Combustion, TrainingMode::Psn);
    let mut table = Table::new(
        "Hypothetical formats: mantissa bits vs QoI error (H2)",
        "mantissa_bits achieved_rel_l2 achieved_rel_linf",
    );
    let inputs = first_inputs(tt, 200);
    for m in [4u32, 6, 8, 10, 12, 14, 16, 20] {
        let qm = tt
            .model
            .map_weights(&mut |w| w.map(|v| round_mantissa(v, m)));
        let mut worst_l2 = 0.0f64;
        let mut worst_linf = 0.0f64;
        for x in &inputs {
            let y = tt.model.forward(x);
            let yq = qm.forward(x);
            let r2 = Norm::L2.eval(&y).max(f64::MIN_POSITIVE);
            let ri = Norm::LInf.eval(&y).max(f64::MIN_POSITIVE);
            worst_l2 = worst_l2.max(diff_norm(&y, &yq, Norm::L2) / r2);
            worst_linf = worst_linf.max(diff_norm(&y, &yq, Norm::LInf) / ri);
        }
        table.push(vec![m.to_string().into(), sci(worst_l2), sci(worst_linf)]);
    }
    vec![table]
}

/// The paper's worst-case layer magnitude `√n₀·Πσ̃` vs measured magnitudes
/// × 1.5 (`NetworkAnalysis::of_calibrated`): both quantization bounds beside
/// the achieved error, and the tolerance at which each planner variant first
/// leaves FP32.
pub fn calibration(models: &Models) -> Vec<Table> {
    let mut bounds_table = Table::new(
        "Quantization bound: worst-case vs calibrated (L2, absolute)",
        "task format worst_case calibrated achieved_max",
    );
    let mut unlock_table = Table::new(
        "First reduced-format unlock tolerance (relative, share 0.5)",
        "task worst_case_unlock calibrated_unlock",
    );
    for tt in models.all_psn() {
        let calibrated = NetworkAnalysis::of_calibrated(&tt.model, &calibration_inputs(tt), 1.5);
        for format in QuantFormat::REDUCED {
            let qm = quantize_model(&tt.model, format);
            bounds_table.push(vec![
                tt.name().into(),
                format.label().into(),
                sci(tt.analysis.quantization_bound(format)),
                sci(calibrated.quantization_bound(format)),
                sci(worst_output_error(tt, &qm, 150)),
            ]);
        }
        // First tolerance on a 20-per-decade grid from 1e-8 that leaves
        // FP32; infinite when none up to 1e4 does.
        let unlock = |calibrated: bool| {
            let planner = make_planner(tt, calibrated);
            let leaves_fp32 = |tol: &f64| {
                planner.plan(&config(*tol, Norm::LInf, 0.5)).format != QuantFormat::Fp32
            };
            let mut grid = (0..240).map(|i| 10f64.powf(-8.0 + i as f64 * 0.05));
            sci(grid.find(leaves_fp32).unwrap_or(f64::INFINITY))
        };
        unlock_table.push(vec![tt.name().into(), unlock(false), unlock(true)]);
    }
    vec![bounds_table, unlock_table]
}

/// INT8 per tensor vs row-wise vs block-wise (the paper's Future Work
/// comparison), under the per-tensor Table-I bound — which must dominate all
/// three, since finer granularities only shrink steps.
pub fn granularity(models: &Models) -> Vec<Table> {
    let mut table = Table::new(
        "INT8 granularity: per-tensor vs row-wise vs block-wise (L2, relative)",
        "task tensor_bound per_tensor row_wise block_wise_8",
    );
    for tt in models.all_psn() {
        let per_tensor = quantize_model(&tt.model, QuantFormat::Int8);
        let row = tt
            .model
            .map_weights(&mut |w| quantize_int8_rowwise(w).dequantize());
        let block = tt
            .model
            .map_weights(&mut |w| quantize_int8_blockwise(w, 8).dequantize());
        let mut worst = [0.0f64; 3];
        let mut reference = f64::MIN_POSITIVE;
        for x in &first_inputs(tt, 150) {
            let y = tt.model.forward(x);
            reference = reference.max(Norm::L2.eval(&y));
            for (w, qm) in worst.iter_mut().zip([&per_tensor, &row, &block]) {
                *w = w.max(diff_norm(&y, &qm.forward(x), Norm::L2));
            }
        }
        let mut cells = vec![
            tt.name().into(),
            sci(tt.analysis.quantization_bound(QuantFormat::Int8) / reference),
        ];
        cells.extend(worst.map(|w| sci(w / reference)));
        table.push(cells);
    }
    vec![table]
}

/// Per-layer mixed formats (§IV-D's "significantly larger optimization
/// space"): a greedy assigner moves each layer to the fastest format whose
/// *mixed* bound still fits 5 % of the mean QoI L2 magnitude, against the
/// best uniform format under the same budget.
pub fn mixed_formats(models: &Models) -> Vec<Table> {
    let mut table = Table::new(
        "Per-layer mixed formats vs best uniform (quant budget = 0.05×QoI ref)",
        "task uniform_format uniform_bound mixed_formats mixed_bound mixed_achieved reduced_layers",
    );
    for tt in models.all_psn() {
        let cal = calibration_inputs(tt);
        let analysis = NetworkAnalysis::of_calibrated(&tt.model, &cal, 1.5);
        let n_layers: usize = analysis.blocks().iter().map(|b| b.layers.len()).sum();
        let ref_sum: f64 = cal
            .iter()
            .map(|x| Norm::L2.eval(&tt.model.forward(x)))
            .sum();
        let budget = 0.05 * ref_sum / cal.len() as f64;

        let uniform = FASTEST_FIRST
            .into_iter()
            .find(|&f| analysis.quantization_bound(f) <= budget)
            .unwrap_or(QuantFormat::Fp32);

        let mut mixed = vec![QuantFormat::Fp32; n_layers];
        for l in 0..n_layers {
            for cand in FASTEST_FIRST {
                let mut trial = mixed.clone();
                trial[l] = cand;
                if analysis.combined_bound_mixed(0.0, &trial).quantization <= budget {
                    mixed = trial;
                    break;
                }
            }
        }
        let mixed_bound = analysis.combined_bound_mixed(0.0, &mixed).quantization;
        let achieved = worst_output_error(tt, &quantize_model_mixed(&tt.model, &mixed), 120);
        assert!(achieved <= mixed_bound + 1e-9, "mixed bound violated");
        let reduced = mixed.iter().filter(|f| **f != QuantFormat::Fp32).count();
        table.push(vec![
            tt.name().into(),
            uniform.label().into(),
            sci(analysis.quantization_bound(uniform)),
            mixed
                .iter()
                .map(|f| &f.label()[..1])
                .collect::<String>()
                .into(),
            sci(mixed_bound),
            sci(achieved),
            format!("{reduced}/{n_layers}").into(),
        ]);
    }
    vec![table]
}

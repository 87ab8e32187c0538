//! Cross-crate integration tests: the paper's central claim — predicted
//! bounds dominate achieved errors for every task, compressor, format, and
//! norm — exercised end-to-end through the public facade.

use errflow::core::{quantize_model, ErrorFlow, NetworkAnalysis};
use errflow::pipeline::planner::{flatten, input_bound, unflatten, PayloadLayout};
use errflow::prelude::*;
use errflow::scidata::task::TrainingMode;
use errflow::scidata::TaskKind;
use errflow::tensor::norms::diff_norm;

fn prepare(kind: TaskKind) -> (SyntheticTask, errflow::scidata::TaskModel) {
    let task = SyntheticTask::of_kind_small(kind, 99);
    let model = task.trained_model(TrainingMode::Psn, 5);
    (task, model)
}

fn layout(kind: TaskKind) -> PayloadLayout {
    match kind {
        TaskKind::EuroSat => PayloadLayout::SampleMajor,
        _ => PayloadLayout::FeatureMajor,
    }
}

#[test]
fn combined_bound_holds_for_every_task_compressor_and_format() {
    for kind in TaskKind::ALL {
        let (task, model) = prepare(kind);
        let analysis = NetworkAnalysis::of(&model);
        let inputs: Vec<Vec<f32>> = task.ordered_inputs().iter().take(60).cloned().collect();
        let lay = layout(kind);
        let payload = flatten(&inputs, lay);
        for backend in errflow::compress::all_backends() {
            let bound_spec = ErrorBound::abs_linf(1e-4);
            let stream = backend.compress(&payload, &bound_spec).unwrap();
            let recon_payload = backend.decompress(&stream, payload.len()).unwrap();
            let recon = unflatten(&recon_payload, inputs.len(), inputs[0].len(), lay);
            for format in [QuantFormat::Fp16, QuantFormat::Int8] {
                let qm = quantize_model(&model, format);
                for (x, xt) in inputs.iter().zip(&recon).take(20) {
                    let dx = diff_norm(x, xt, Norm::L2);
                    let predicted = analysis.combined_bound(dx, format).total();
                    let flow = ErrorFlow::decompose(&model, &qm, x, xt);
                    for norm in [Norm::L2, Norm::LInf] {
                        assert!(
                            flow.total_error(norm) <= predicted + 1e-9,
                            "{kind:?}/{}/{format}: {} > {predicted}",
                            backend.name(),
                            flow.total_error(norm)
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn error_flow_legs_individually_bounded() {
    let (task, model) = prepare(TaskKind::H2Combustion);
    let analysis = NetworkAnalysis::of(&model);
    let qm = quantize_model(&model, QuantFormat::Bf16);
    let sz = SzCompressor::default();
    let inputs: Vec<Vec<f32>> = task.ordered_inputs().iter().take(30).cloned().collect();
    for x in &inputs {
        let stream = sz.compress(x, &ErrorBound::abs_l2(1e-3)).unwrap();
        let xt = sz.decompress(&stream, x.len()).unwrap();
        let dx = diff_norm(x, &xt, Norm::L2);
        let flow = ErrorFlow::decompose(&model, &qm, x, &xt);
        assert!(flow.compression_error(Norm::L2) <= analysis.compression_bound(dx) + 1e-9);
        assert!(
            flow.quantization_error(Norm::L2)
                <= analysis.combined_bound(dx, QuantFormat::Bf16).weight_quant + 1e-9
        );
    }
}

#[test]
fn planner_end_to_end_never_violates_tolerance() {
    for kind in TaskKind::ALL {
        let (task, model) = prepare(kind);
        let calibration: Vec<Vec<f32>> = task.ordered_inputs().iter().take(32).cloned().collect();
        let planner = Planner::new(&model, &calibration);
        let inputs: Vec<Vec<f32>> = task.ordered_inputs().iter().take(80).cloned().collect();
        for norm in [Norm::L2, Norm::LInf] {
            for tol in [1e-3, 1e-1] {
                for share in [0.2, 0.8] {
                    let plan = planner.plan(&PlannerConfig {
                        rel_tolerance: tol,
                        norm,
                        quant_share: share,
                    });
                    // The plan itself must respect the budget split.
                    assert!(plan.certificate.total() <= plan.abs_tolerance * (1.0 + 1e-12));
                    let report = planner
                        .execute(&plan, &SzCompressor::default(), &inputs, norm, layout(kind))
                        .unwrap();
                    assert!(
                        report.achieved_rel_error.max <= report.plan.rel_bound + 1e-12,
                        "{kind:?} norm={norm} tol={tol} share={share}: {} > {}",
                        report.achieved_rel_error.max,
                        report.plan.rel_bound
                    );
                }
            }
        }
    }
}

#[test]
fn per_feature_bounds_hold_across_tasks() {
    for kind in [TaskKind::H2Combustion, TaskKind::BorghesiFlame] {
        let (task, model) = prepare(kind);
        let analysis = NetworkAnalysis::of(&model);
        let format = QuantFormat::Fp16;
        let qm = quantize_model(&model, format);
        let bounds = analysis.per_feature_bounds(0.0, format);
        assert_eq!(bounds.len(), task.output_dim());
        for x in task.ordered_inputs().iter().take(40) {
            let y = model.forward(x);
            let yq = qm.forward(x);
            for (i, (&a, &b)) in y.iter().zip(&yq).enumerate() {
                assert!(
                    ((a - b).abs() as f64) <= bounds[i] + 1e-9,
                    "{kind:?} feature {i}"
                );
            }
        }
    }
}

/// Forward pass that shares nothing with `errflow-nn`'s: `f64` accumulation
/// over the *unquantized* weights and libm's `f64::tanh`.  Every other
/// reference in the tree (`ErrorFlow::decompose`, `Planner::execute`, the
/// benchmark's payload pool) runs the model's own activation, so an error
/// in that kernel would be common to both sides and cancel.
fn forward_f64(model: &Mlp, x: &[f32]) -> Vec<f64> {
    let mut h: Vec<f64> = x.iter().map(|&v| v as f64).collect();
    for layer in model.layers() {
        let w = layer.weights();
        h = (0..w.rows())
            .map(|r| {
                let z = layer.bias()[r] as f64
                    + w.row(r)
                        .iter()
                        .zip(&h)
                        .map(|(&wi, hi)| wi as f64 * hi)
                        .sum::<f64>();
                match layer.activation() {
                    Activation::Tanh => z.tanh(),
                    Activation::Identity => z,
                    other => unreachable!("oracle covers Tanh MLPs, got {other:?}"),
                }
            })
            .collect();
    }
    h
}

fn norm_f64(v: impl Iterator<Item = f64>, norm: Norm) -> f64 {
    match norm {
        Norm::L2 => v.map(|e| e * e).sum::<f64>().sqrt(),
        Norm::LInf => v.fold(0.0, |m, e| m.max(e.abs())),
    }
}

/// `n` samples of a smooth `d`-feature field (a few sinusoids plus 1e-4 of
/// noise), the kind of payload the codecs are built for.
fn smooth_field(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    use std::f64::consts::TAU;
    let mut rng = errflow::tensor::rng::StdRng::seed_from_u64(seed);
    let phases: [f64; 3] = std::array::from_fn(|_| TAU * rng.next_f64());
    (0..n)
        .map(|s| {
            (0..d)
                .map(|f| {
                    let (s, f) = (s as f64 / n as f64, f as f64 / d as f64);
                    let smooth = 0.45 * (TAU * (0.8 * f + 0.5 * s) + phases[0]).sin()
                        + 0.25 * (TAU * (1.7 * f + 0.9 * s) + phases[1]).sin()
                        + 0.15 * (TAU * (2.9 * f + 1.9 * s) + phases[2]).sin();
                    (smooth + 1e-4 * (2.0 * rng.next_f64() - 1.0)) as f32
                })
                .collect()
        })
        .collect()
}

#[test]
fn certificate_holds_against_an_f64_oracle_that_shares_no_kernel() {
    // The benchmark's small model and a `forward_wide`-shaped one.
    for dims in [&[256, 128, 16][..], &[256, 512, 512, 16]] {
        let model = Mlp::new(dims, Activation::Tanh, Activation::Identity, 11, None);
        let analysis = NetworkAnalysis::of(&model);
        let amplification = analysis.amplification();
        let planner = Planner::with_analysis(&model, &smooth_field(8, 256, 23), analysis);
        let inputs = smooth_field(16, 256, 41);
        let layout = PayloadLayout::FeatureMajor;
        let payload = flatten(&inputs, layout);
        let oracle: Vec<Vec<f64>> = inputs.iter().map(|x| forward_f64(&model, x)).collect();

        // How far the model's own f32 forward sits from the oracle: the part
        // of the realized error Ineq. 3 has no term for (ROADMAP 3(b)).
        let own = model.forward_batch(&inputs);
        let mut gap = [0.0f64; 2];
        for (y, y64) in own.iter().zip(&oracle) {
            for (g, norm) in gap.iter_mut().zip([Norm::L2, Norm::LInf]) {
                let err = norm_f64(y.iter().zip(y64).map(|(&a, b)| a as f64 - b), norm);
                *g = g.max(err / norm_f64(y64.iter().copied(), norm));
            }
        }
        println!(
            "{dims:?}: f32 forward vs f64 oracle, max relative gap {:.2e} (L2) {:.2e} (Linf)",
            gap[0], gap[1]
        );
        assert!(gap[0] < 1e-5 && gap[1] < 1e-5, "{dims:?}: {gap:?}");

        let mut worst_share = 0.0f64;
        for format in [QuantFormat::Fp32, QuantFormat::Fp16, QuantFormat::Int8] {
            let qm = quantize_model(&model, format);
            let quant_bound = planner.analysis().quantization_bound(format);
            for norm in [Norm::L2, Norm::LInf] {
                for tol in [1e-2, 1e-4] {
                    // The planner's plan, re-pointed at `format`: whatever
                    // the format's own bound leaves of the tolerance goes to
                    // compression (all of it when nothing is left, which
                    // certifies a bound above the tolerance — still a bound).
                    let served = planner.plan(&PlannerConfig {
                        rel_tolerance: tol,
                        norm,
                        quant_share: 0.5,
                    });
                    let left = served.abs_tolerance - quant_bound;
                    let budget = if left > 0.0 {
                        left
                    } else {
                        served.abs_tolerance
                    };
                    // `rel_bound` stays the served plan's; nothing below
                    // reads it.
                    let plan = PipelinePlan {
                        format,
                        input_budget_l2: budget / amplification,
                        certificate: Certificate {
                            compression: budget,
                            weight_quant: quant_bound,
                        },
                        ..served
                    };
                    if format == served.format {
                        assert_eq!(plan.input_budget_l2, served.input_budget_l2);
                        assert_eq!(plan.certificate, served.certificate);
                    }
                    let certified = plan.certificate.total();
                    for backend in errflow::compress::all_backends() {
                        let bound = input_bound(&plan, backend.as_ref(), payload.len());
                        let stream = backend.compress(&payload, &bound).unwrap();
                        let recon = backend.decompress(&stream, payload.len()).unwrap();
                        let recon = unflatten(&recon, inputs.len(), 256, layout);
                        for (y, y64) in qm.forward_batch(&recon).iter().zip(&oracle) {
                            let realized =
                                norm_f64(y.iter().zip(y64).map(|(&a, b)| a as f64 - b), norm);
                            assert!(
                                realized <= certified,
                                "{dims:?}/{}/{format}/{norm}/{tol}: realized {realized:e} > \
                                 certified {certified:e}",
                                backend.name(),
                            );
                            worst_share = worst_share.max(realized / certified);
                        }
                    }
                }
            }
        }
        println!("{dims:?}: realized error used at most {worst_share:.3} of its certified bound");
    }
}

//! End-to-end error-bounded inference pipeline on the turbulent hydrogen
//! combustion workload (the paper's Fig. 1 framework, §IV-D).
//!
//! Given a user tolerance on the reaction-rate QoI, the planner splits it
//! between weight quantization and input compression, picks the fastest
//! admissible numerical format, and runs the pipeline — reporting the
//! throughput of each phase and verifying the achieved error against the
//! predicted bound.
//!
//! ```sh
//! cargo run --release --example combustion_pipeline
//! ```

use errflow::pipeline::planner::PayloadLayout;
use errflow::prelude::*;
use errflow::scidata::task::TrainingMode;

fn main() {
    let task = SyntheticTask::h2_combustion(7);
    let model = task.trained_model(TrainingMode::Psn, 15);
    let calibration: Vec<Vec<f32>> = task.ordered_inputs().iter().take(64).cloned().collect();
    let planner = Planner::new(&model, &calibration);

    let inputs: Vec<Vec<f32>> = task.ordered_inputs().iter().take(1024).cloned().collect();
    let backends: Vec<Box<dyn Compressor>> = vec![
        Box::new(ZfpCompressor::default()),
        Box::new(SzCompressor::default()),
        Box::new(MgardCompressor::default()),
    ];

    println!("tolerance sweep on the H2 reaction-rate QoI (L-infinity, quant share 50%):\n");
    println!(
        "{:>10} {:>8} {:>7} {:>12} {:>12} {:>9} {:>9} {:>9}",
        "tolerance",
        "backend",
        "format",
        "pred_bound",
        "achieved",
        "io_GB/s",
        "ex_GB/s",
        "e2e_GB/s"
    );
    for tol in [1e-4, 1e-3, 1e-2] {
        for backend in &backends {
            let cfg = PlannerConfig {
                rel_tolerance: tol,
                norm: Norm::LInf,
                quant_share: 0.5,
            };
            let plan = planner.plan(&cfg);
            let report = planner
                .execute(
                    &plan,
                    backend.as_ref(),
                    &inputs,
                    Norm::LInf,
                    PayloadLayout::FeatureMajor,
                )
                .expect("pipeline run");
            assert!(
                report.achieved_rel_error.max <= report.plan.rel_bound,
                "bound violated"
            );
            println!(
                "{:>10.0e} {:>8} {:>7} {:>12.3e} {:>12.3e} {:>9.2} {:>9.2} {:>9.2}",
                tol,
                backend.name(),
                plan.format.label(),
                report.plan.rel_bound,
                report.achieved_rel_error.max,
                report.io_gbps,
                report.exec_gbps,
                report.end_to_end_gbps,
            );
        }
    }
    println!("\nall achieved errors stayed under their predicted bounds");
}

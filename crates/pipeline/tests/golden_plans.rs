//! Golden plans: `Planner::plan` on the benchmark's small model must keep
//! producing the plans it produced before the arithmetic moved into
//! [`errflow_pipeline::PlanTable`] — bit for bit, because the served
//! `rel_bound` and the compressor's input budget (hence `compression_ratio`)
//! are functions of these fields and of nothing else.
//!
//! The rows were first recorded with the planner of the commit before the
//! table existed (2a4b063), whose σ came from `f32` power iteration; that
//! commit's own rows differed from them only through the 16 × 128 layer's σ
//! (4.7e-9 relative, the Jacobi fallback that iteration sometimes took).
//!
//! Re-recorded when `errflow-nn` replaced libm's `tanhf` with its own
//! ≤ 2-ulp kernel: the calibration forwards that set the QoI reference now
//! round their 128 hidden activations differently in the last `f32` bit.
//! Against the rows above, `abs_tolerance`/`predicted_total_bound` moved by
//! ≤ 2.3e-12 relative (≤ 10 047 `f64` ulps) on the L2 rows — the reference
//! is a norm over 8 × 16 outputs, where last-bit changes average out — and
//! by 6.5e-9 relative on the L∞ rows, whose reference is a maximum and so
//! follows single `f32` outputs; `compression_budget` and `input_budget_l2`
//! moved by ≤ 1.2e-8 relative (largest on the Int8 rows, where the budget
//! is a difference); `predicted_quant_bound` (weights only) and every chosen
//! format did not move.  A codec's output changes with its budget only where
//! a residual sits within that relative distance of a quantization-bin edge,
//! so few symbols can step to a neighbouring bin.  Measured: 32 smooth
//! 256 × 256 payloads compressed under six of the old and the new
//! `input_budget_l2` values above (192 streams a backend) differ in total
//! size by +1.0e-5 relative for SZ (68 streams changed length), −2.2e-7 for
//! MGARD (40) and not at all for ZFP — an order short of moving
//! `compression_ratio` by 1e-4.  (The benchmark's `compression_ratio` read
//! within 0.025 % of the parent's on every seed and workload; that residue is
//! the request mix — it is the median over 1 s rounds of decoded ÷ compressed
//! bytes, and which of the 64 pool payloads land in a round depends on how
//! many requests the server gets through.)
//!
//! Re-recorded when σ_W moved from `f32` power iteration to `f64`
//! Golub–Kahan–Lanczos (`errflow_tensor::spectral`): the 128 × 256 layer's σ
//! rose by 3.45e-7 relative (power iteration stopped on its 1e-10
//! relative-change test that far below the Jacobi value; Lanczos lands
//! within 2e-14 of it) and the 16 × 128 layer's by 4.7e-9, so Πσ rose by
//! 3.5e-7.  `input_budget_l2` (the compression budget divided by the
//! amplification) fell by 3.5e-7 to 4.6e-7 relative, `predicted_quant_bound`
//! rose by 1.4e-7 to 1.5e-7 (the quantization term scales with the σ of the
//! layers around each injection), `compression_budget` (the tolerance minus
//! that term) fell by ≤ 1.1e-7, `predicted_total_bound` moved by one `f64` ulp
//! on three rows and `abs_tolerance` not at all; every chosen
//! format is unchanged.

use errflow_core::NetworkAnalysis;
use errflow_nn::{Activation, Mlp};
use errflow_pipeline::{PipelinePlan, Planner, PlannerConfig};
use errflow_quant::QuantFormat::{self, Fp16, Fp32, Int8};
use errflow_tensor::norms::Norm;
use std::f64::consts::TAU;

/// The benchmark's calibration recipe (`benchmark/src/gen.rs`: field seed
/// 23, payload 0, 8 samples), restated because the benchmark crate is
/// outside the workspace.
fn calibration(d: usize) -> Vec<Vec<f32>> {
    const MODES: [(f64, f64, f64); 4] = [
        (0.43, 0.8, 0.5),
        (0.22, 1.7, 0.9),
        (0.14, 2.3, 1.4),
        (0.11, 2.9, 1.9),
    ];
    const N: usize = 8;
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
    let seed = 23u64;
    let mut rng = seed;
    let phases: [f64; 4] = std::array::from_fn(|_| TAU * splitmix(&mut rng));
    let mut noise = seed ^ 0xA24B_AED4_963E_E407;
    (0..N)
        .map(|s| {
            (0..d)
                .map(|f| {
                    let smooth: f64 = MODES
                        .iter()
                        .zip(phases)
                        .map(|(&(amplitude, feature_cycles, sample_cycles), phase)| {
                            let turns = feature_cycles * f as f64 / d as f64
                                + sample_cycles * s as f64 / N as f64;
                            amplitude * (TAU * turns + phase).sin()
                        })
                        .sum();
                    (smooth + 1e-4 * (2.0 * splitmix(&mut noise) - 1.0)) as f32
                })
                .collect()
        })
        .collect()
}

/// `(rel_tolerance, norm, quant_share)` for every golden row, in row order.
fn grid() -> Vec<PlannerConfig> {
    let mut grid = Vec::new();
    // `plan_churn`: the four requested tolerances, then the quarter-decade
    // bucket floors the server actually plans them at (serve's defaults:
    // L2 on that workload, share 0.5).
    for i in 0..4 {
        grid.push((1.05e-1 * 10f64.powf(-(i as f64) / 4.0), Norm::L2, 0.5));
    }
    for i in 4..8 {
        grid.push((10f64.powf(-(i as f64) / 4.0), Norm::L2, 0.5));
    }
    for tol in [1e-6, 1e-3, 0.3] {
        for norm in [Norm::L2, Norm::LInf] {
            for share in [0.1, 0.5, 0.9] {
                grid.push((tol, norm, share));
            }
        }
    }
    grid.into_iter()
        .map(|(rel_tolerance, norm, quant_share)| PlannerConfig {
            rel_tolerance,
            norm,
            quant_share,
        })
        .collect()
}

fn bits(p: &PipelinePlan) -> [u64; 6] {
    [
        p.abs_tolerance,
        p.certificate.weight_quant,
        p.certificate.compression,
        p.input_budget_l2,
        p.certificate.total(),
        p.rel_bound,
    ]
    .map(f64::to_bits)
}

/// `abs_tolerance, certificate.weight_quant, certificate.compression,
/// input_budget_l2, certificate.total(), rel_bound` as `f64::to_bits`.
/// The first five were recorded as the planner's `abs_tolerance,
/// predicted_quant_bound, compression_budget, input_budget_l2,
/// predicted_total_bound` before `Certificate` carried the legs; the sixth
/// as the bound the server answered with then,
/// `(predicted_total_bound / qoi_reference(norm)).min(rel_tolerance)`.
/// It reads the tolerance itself on every row; on rows 6 and 8 the
/// unclamped quotient is one ulp above it.
#[rustfmt::skip]
const GOLDEN: [(QuantFormat, [u64; 6]); 26] = [
    (Fp16, [0x3fd175822416d86f, 0x3f7ed64b12ac3bec, 0x3fd0fa28f7cc277f, 0x3fb380978a6f014b, 0x3fd175822416d86f, 0x3fbae147ae147ae1]),
    (Fp16, [0x3fc3a2c74c8c9749, 0x3f7ed64b12ac3bec, 0x3fc2ac14f3f7356a, 0x3fa5730dc03916d5, 0x3fc3a2c74c8c9749, 0x3fae3b41982f6884]),
    (Fp16, [0x3fb61587d40f4e1f, 0x3f7ed64b12ac3bec, 0x3fb4282322e48a60, 0x3f9727a31d5a62cc, 0x3fb61587d40f4e1f, 0x3fa1001a85c1d6f8]),
    (Fp16, [0x3fa8d66d816dfae2, 0x3f7ed64b12ac3bec, 0x3fa4fba41f187364, 0x3f881a996d3679b9, 0x3fa8d66d816dfae2, 0x3f931ebc44307149]),
    (Fp16, [0x3fd0a0acb4a80b15, 0x3f7ed64b12ac3bec, 0x3fd02553885d5a25, 0x3fb28c1a2431b2dc, 0x3fd0a0acb4a80b15, 0x3fb999999999999a]),
    (Fp16, [0x3fc2b36879aa77b4, 0x3f7ed64b12ac3bec, 0x3fc1bcb6211515d5, 0x3fa460148a0f7900, 0x3fc2b36879aa77b4, 0x3faccab8602d2697]),
    (Fp16, [0x3fb50850993325d4, 0x3f7ed64b12ac3bec, 0x3fb31aebe8086215, 0x3f95f26117453cf9, 0x3fb50850993325d4, 0x3fa030dc4ea03a72]),
    (Fp16, [0x3fa7a7a53e505ca7, 0x3f7ed64b12ac3bec, 0x3fa3ccdbdbfad52a, 0x3f86bec84642f4bf, 0x3fa7a7a53e505ca8, 0x3f9235a71c5ee5cc]),
    (Fp32, [0x3ec5cb4efea606d3, 0x0000000000000000, 0x3ec5cb4efea606d3, 0x3ea909278d0942ba, 0x3ec5cb4efea606d3, 0x3eb0c6f7a0b5ed8d]),
    (Fp32, [0x3ec5cb4efea606d3, 0x0000000000000000, 0x3ec5cb4efea606d3, 0x3ea909278d0942ba, 0x3ec5cb4efea606d3, 0x3eb0c6f7a0b5ed8d]),
    (Fp32, [0x3ec5cb4efea606d3, 0x0000000000000000, 0x3ec5cb4efea606d3, 0x3ea909278d0942ba, 0x3ec5cb4efea606d3, 0x3eb0c6f7a0b5ed8d]),
    (Fp32, [0x3eb31f49d16fc9bc, 0x0000000000000000, 0x3eb31f49d16fc9bc, 0x3e95f76546d7dbd5, 0x3eb31f49d16fc9bc, 0x3eb0c6f7a0b5ed8d]),
    (Fp32, [0x3eb31f49d16fc9bc, 0x0000000000000000, 0x3eb31f49d16fc9bc, 0x3e95f76546d7dbd5, 0x3eb31f49d16fc9bc, 0x3eb0c6f7a0b5ed8d]),
    (Fp32, [0x3eb31f49d16fc9bc, 0x0000000000000000, 0x3eb31f49d16fc9bc, 0x3e95f76546d7dbd5, 0x3eb31f49d16fc9bc, 0x3eb0c6f7a0b5ed8d]),
    (Fp32, [0x3f65488b24ae22aa, 0x0000000000000000, 0x3f65488b24ae22aa, 0x3f4872f09fbb0b2a, 0x3f65488b24ae22aa, 0x3f50624dd2f1a9fc]),
    (Fp32, [0x3f65488b24ae22aa, 0x0000000000000000, 0x3f65488b24ae22aa, 0x3f4872f09fbb0b2a, 0x3f65488b24ae22aa, 0x3f50624dd2f1a9fc]),
    (Fp32, [0x3f65488b24ae22aa, 0x0000000000000000, 0x3f65488b24ae22aa, 0x3f4872f09fbb0b2a, 0x3f65488b24ae22aa, 0x3f50624dd2f1a9fc]),
    (Fp32, [0x3f52ac8e16872b02, 0x0000000000000000, 0x3f52ac8e16872b02, 0x3f357398e72eccae, 0x3f52ac8e16872b02, 0x3f50624dd2f1a9fc]),
    (Fp32, [0x3f52ac8e16872b02, 0x0000000000000000, 0x3f52ac8e16872b02, 0x3f357398e72eccae, 0x3f52ac8e16872b02, 0x3f50624dd2f1a9fc]),
    (Fp32, [0x3f52ac8e16872b02, 0x0000000000000000, 0x3f52ac8e16872b02, 0x3f357398e72eccae, 0x3f52ac8e16872b02, 0x3f50624dd2f1a9fc]),
    (Fp16, [0x3fe8f1030efc109f, 0x3f7ed64b12ac3bec, 0x3fe8b35678d6b827, 0x3fcc5fd90ee2fa26, 0x3fe8f1030efc109f, 0x3fd3333333333333]),
    (Int8, [0x3fe8f1030efc109f, 0x3fc39ea9eb21cbc4, 0x3fe4095894339dae, 0x3fc70444227260f4, 0x3fe8f1030efc109f, 0x3fd3333333333333]),
    (Int8, [0x3fe8f1030efc109f, 0x3fc39ea9eb21cbc4, 0x3fe4095894339dae, 0x3fc70444227260f4, 0x3fe8f1030efc109f, 0x3fd3333333333333]),
    (Fp16, [0x3fd5e23682666666, 0x3f7ed64b12ac3bec, 0x3fd566dd561bb576, 0x3fb895c5565269ff, 0x3fd5e23682666666, 0x3fd3333333333333]),
    (Int8, [0x3fd5e23682666666, 0x3fc39ea9eb21cbc4, 0x3fc825c319ab0108, 0x3fabbd36fae26f33, 0x3fd5e23682666666, 0x3fd3333333333333]),
    (Int8, [0x3fd5e23682666666, 0x3fc39ea9eb21cbc4, 0x3fc825c319ab0108, 0x3fabbd36fae26f33, 0x3fd5e23682666666, 0x3fd3333333333333]),
];

#[test]
fn table_driven_plan_reproduces_the_recorded_plans_bit_for_bit() {
    let model = Mlp::new(
        &[256, 128, 16],
        Activation::Tanh,
        Activation::Identity,
        11,
        None,
    );
    let planner = Planner::with_analysis(&model, &calibration(256), NetworkAnalysis::of(&model));
    let grid = grid();
    assert_eq!(grid.len(), GOLDEN.len());
    for (cfg, (format, want)) in grid.iter().zip(GOLDEN) {
        let p = planner.plan(cfg);
        assert_eq!(p.format, format, "{cfg:?}");
        assert_eq!(bits(&p), want, "{cfg:?}: {p:?}");
    }
}

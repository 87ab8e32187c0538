//! Tolerance allocation and end-to-end pipeline execution (§IV-D).
//!
//! Given a user tolerance on the QoI, the planner:
//!
//! 1. allocates `quant_share` of it to quantization,
//! 2. picks the *fastest* format whose predicted quantization bound fits
//!    the allocation (falling back to FP32),
//! 3. re-allocates **all unutilized tolerance** — including the slack
//!    between the chosen format's bound and its allocation — to input
//!    compression, inverting Ineq. (3) for the admissible `‖Δx‖₂`,
//! 4. converts that input budget into the compressor's native bound mode.
//!
//! [`Planner::execute`] then runs the full pipeline on real data:
//! compress → (simulated) store/read → decompress → infer with quantized
//! weights, reporting achieved QoI error (which the bound must dominate),
//! compression stats, and the I/O / execution / end-to-end throughputs the
//! paper plots in Figs. 10–15.

use crate::io::StorageModel;
use errflow_compress::{Compressor, ErrorBound};
use errflow_core::{quantize_model, Certificate, NetworkAnalysis};
use errflow_nn::Model;
use errflow_quant::throughput::ExecutionModel;
use errflow_quant::QuantFormat;
use errflow_tensor::norms::{diff_norm, Norm};
use errflow_tensor::stats::Summary;
use errflow_tensor::transpose::{transpose_into, transpose_rows_into};

/// How per-sample feature vectors are laid out in the flat compression
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadLayout {
    /// `payload[f·n + s] = samples[s][f]` — feature-major.  For gridded
    /// workloads with spatially-ordered samples this keeps each feature's
    /// field contiguous and smooth (high compressibility).
    FeatureMajor,
    /// `payload[s·d + f] = samples[s][f]` — sample-major.  Natural for
    /// image workloads where each sample is itself a smooth field.
    SampleMajor,
}

/// Flattens samples into a payload buffer.
pub fn flatten(samples: &[Vec<f32>], layout: PayloadLayout) -> Vec<f32> {
    if samples.is_empty() {
        return Vec::new();
    }
    let d = samples[0].len();
    match layout {
        // One `memcpy` per row into a buffer sized up front; ragged rows
        // concatenate as they are.
        PayloadLayout::SampleMajor => {
            let mut out = Vec::with_capacity(samples.iter().map(Vec::len).sum());
            for row in samples {
                out.extend_from_slice(row);
            }
            out
        }
        PayloadLayout::FeatureMajor => {
            let mut out = vec![0.0f32; samples.len() * d];
            transpose_rows_into(samples.len(), d, |s| &samples[s], &mut out);
            out
        }
    }
}

/// Inverse of [`flatten`].
pub fn unflatten(flat: &[f32], n: usize, d: usize, layout: PayloadLayout) -> Vec<Vec<f32>> {
    assert_eq!(flat.len(), n * d, "payload size mismatch");
    if d == 0 {
        return vec![Vec::new(); n];
    }
    let transposed;
    let sample_major = match layout {
        PayloadLayout::SampleMajor => flat,
        PayloadLayout::FeatureMajor => {
            let mut rows = vec![0.0f32; n * d];
            transpose_into(flat, d, n, &mut rows);
            transposed = rows;
            &transposed[..]
        }
    };
    sample_major.chunks(d).map(<[f32]>::to_vec).collect()
}

/// Planner inputs: the user's QoI tolerance and the allocation policy.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Relative tolerance on the QoI (e.g. `1e-3`).
    pub rel_tolerance: f64,
    /// Norm the tolerance is expressed in.
    pub norm: Norm,
    /// Fraction of the tolerance allocated to quantization (paper sweeps
    /// 0.1–0.9; Fig. 10 prioritizes quantization with a high share).
    pub quant_share: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            rel_tolerance: 1e-3,
            norm: Norm::LInf,
            quant_share: 0.5,
        }
    }
}

/// The planner's decision for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelinePlan {
    /// Chosen weight format.
    pub format: QuantFormat,
    /// Absolute QoI tolerance implied by the relative one.
    pub abs_tolerance: f64,
    /// Admissible input-error L2 norm (`certificate.compression /
    /// amplification`): the compressor's input, not a leg of the bound.
    pub input_budget_l2: f64,
    /// The absolute bound's two legs: the chosen format's quantization
    /// bound and the budget left for compression after it.
    pub certificate: Certificate,
    /// `certificate.total()` relative to the reference QoI, clamped to the
    /// requested tolerance (an all-to-compression split can land an ulp
    /// above it): the bound a served response carries.
    pub rel_bound: f64,
}

/// Outcome of executing a plan on real data.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The plan that was executed.
    pub plan: PipelinePlan,
    /// Compression round-trip statistics (real measured times).
    pub stats: errflow_compress::CompressionStats,
    /// Effective I/O throughput in GB/s (simulated read + measured decode).
    pub io_gbps: f64,
    /// Model-execution throughput in GB/s of ingested input data.
    pub exec_gbps: f64,
    /// End-to-end throughput: the slower of the two phases.
    pub end_to_end_gbps: f64,
    /// Achieved relative QoI errors across samples (in the plan's norm).
    pub achieved_rel_error: Summary,
}

/// Everything [`Planner::plan`] reads, evaluated once: the reference QoI
/// magnitudes, the formats fastest-first, each format's quantization bound
/// and the network's amplification.  None of it depends on the tolerance,
/// so a plan is a handful of comparisons on this table — cheap enough to
/// sit inside a tolerance-allocation loop (§IV-D) or a server's plan-cache
/// miss, with no model in reach.
#[derive(Debug, Clone, Copy)]
pub struct PlanTable {
    qoi_ref_l2: f64,
    qoi_ref_linf: f64,
    /// Each format with its `NetworkAnalysis::quantization_bound`, in the
    /// order the selector walks (fastest first).
    formats_by_speed: [(QuantFormat, f64); 5],
    amplification: f64,
}

impl PlanTable {
    /// Mean reference QoI magnitude in the given norm.
    pub fn qoi_reference(&self, norm: Norm) -> f64 {
        match norm {
            Norm::L2 => self.qoi_ref_l2,
            Norm::LInf => self.qoi_ref_linf,
        }
    }

    /// Allocates the tolerance per §IV-D (see module docs).
    pub fn plan(&self, cfg: &PlannerConfig) -> PipelinePlan {
        assert!(
            (0.0..=1.0).contains(&cfg.quant_share),
            "quant_share must be in [0, 1]"
        );
        let abs_tol = cfg.rel_tolerance * self.qoi_reference(cfg.norm);
        let quant_budget = abs_tol * cfg.quant_share;
        let (chosen, chosen_bound) = self
            .formats_by_speed
            .into_iter()
            .find(|&(_, b)| b <= quant_budget)
            .unwrap_or((QuantFormat::Fp32, 0.0));
        // All unutilized tolerance flows to compression.
        let certificate = Certificate {
            compression: (abs_tol - chosen_bound).max(0.0),
            weight_quant: chosen_bound,
        };
        PipelinePlan {
            format: chosen,
            abs_tolerance: abs_tol,
            input_budget_l2: certificate.compression / self.amplification,
            certificate,
            rel_bound: (certificate.total() / self.qoi_reference(cfg.norm)).min(cfg.rel_tolerance),
        }
    }
}

/// Formats ordered fastest-first for a model of `flops` per sample (the
/// "best" order the selector walks), each with its quantization bound.
fn formats_by_speed(
    exec: &ExecutionModel,
    flops: f64,
    analysis: &NetworkAnalysis,
) -> [(QuantFormat, f64); 5] {
    let mut fmts = QuantFormat::ALL;
    fmts.sort_by(|a, b| {
        exec.samples_per_sec(flops, *b)
            .partial_cmp(&exec.samples_per_sec(flops, *a))
            // A degenerate executor profile (zero/NaN throughput) keeps
            // the declaration order rather than panicking the planner.
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    fmts.map(|f| (f, analysis.quantization_bound(f)))
}

/// Converts a plan's input budget into the compressor's bound.
///
/// Backends with L2 support take the budget directly; L∞-only backends
/// (ZFP) get a pointwise budget of `B/√n`, which implies the L2 bound.
pub fn input_bound(
    plan: &PipelinePlan,
    compressor: &dyn Compressor,
    payload_len: usize,
) -> ErrorBound {
    let l2_bound = ErrorBound::abs_l2(plan.input_budget_l2);
    if compressor.supports(&l2_bound) {
        l2_bound
    } else {
        let n = payload_len.max(1) as f64;
        ErrorBound::abs_linf(plan.input_budget_l2 / n.sqrt())
    }
}

/// Fig. 1's "error flow analysis" box: couples a model's
/// [`NetworkAnalysis`] with the throughput models and reference QoI
/// magnitudes needed to turn relative tolerances into plans.
pub struct Planner<'m, M: Model> {
    model: &'m M,
    analysis: NetworkAnalysis,
    table: PlanTable,
    exec: ExecutionModel,
    storage: StorageModel,
}

impl<'m, M: Model> Planner<'m, M> {
    /// Builds a planner, calibrating reference QoI magnitudes (the
    /// denominators of relative errors) on the given inputs.
    pub fn new(model: &'m M, calibration_inputs: &[Vec<f32>]) -> Self {
        Self::with_analysis(model, calibration_inputs, NetworkAnalysis::of(model))
    }

    /// Builds a planner whose quantization bounds use **calibrated layer
    /// magnitudes** (the extension described in
    /// [`NetworkAnalysis::of_calibrated`]) instead of the paper's
    /// worst-case `√n₀·Πσ̃`.  Tighter bounds unlock reduced-precision
    /// formats at tighter tolerances, at the cost of a data-dependence
    /// assumption covered by `safety_factor`.
    pub fn new_calibrated(
        model: &'m M,
        calibration_inputs: &[Vec<f32>],
        safety_factor: f64,
    ) -> Self {
        let analysis = NetworkAnalysis::of_calibrated(model, calibration_inputs, safety_factor);
        Self::with_analysis(model, calibration_inputs, analysis)
    }

    /// Builds a planner around a **precomputed** analysis (the spectral
    /// analysis is the expensive part of construction).  Everything
    /// [`Planner::plan`] needs is evaluated here, into a [`PlanTable`];
    /// callers that plan repeatedly for the same model (e.g. the serving
    /// layer) construct once and keep [`Planner::table`].
    pub fn with_analysis(
        model: &'m M,
        calibration_inputs: &[Vec<f32>],
        analysis: NetworkAnalysis,
    ) -> Self {
        assert!(
            !calibration_inputs.is_empty(),
            "need calibration inputs for relative tolerances"
        );
        let mut l2_acc = 0.0;
        let mut linf_acc = 0.0;
        for x in calibration_inputs {
            let y = model.forward(x);
            l2_acc += Norm::L2.eval(&y);
            linf_acc += Norm::LInf.eval(&y);
        }
        let n = calibration_inputs.len() as f64;
        let exec = ExecutionModel::default();
        let table = PlanTable {
            qoi_ref_l2: (l2_acc / n).max(f64::MIN_POSITIVE),
            qoi_ref_linf: (linf_acc / n).max(f64::MIN_POSITIVE),
            formats_by_speed: formats_by_speed(&exec, model.flops(), &analysis),
            amplification: analysis.amplification().max(f64::MIN_POSITIVE),
        };
        Planner {
            model,
            analysis,
            table,
            exec,
            storage: StorageModel::default(),
        }
    }

    /// Overrides the storage model.
    pub fn with_storage_model(mut self, storage: StorageModel) -> Self {
        self.storage = storage;
        self
    }

    /// The underlying spectral analysis.
    pub fn analysis(&self) -> &NetworkAnalysis {
        &self.analysis
    }

    /// The model-free planning table: what a caller that plans repeatedly
    /// for this model keeps instead of the planner.
    pub fn table(&self) -> &PlanTable {
        &self.table
    }

    /// Mean reference QoI magnitude in the given norm.
    pub fn qoi_reference(&self, norm: Norm) -> f64 {
        self.table.qoi_reference(norm)
    }

    /// Allocates the tolerance per §IV-D (see module docs).
    pub fn plan(&self, cfg: &PlannerConfig) -> PipelinePlan {
        self.table.plan(cfg)
    }

    /// **Future-work extension** (§IV-D: "the need for an optimization
    /// algorithm to automate the determination of the optimal strategy"):
    /// sweeps the quantization share and returns the plan with the highest
    /// *predicted* end-to-end throughput, scoring candidates with a probed
    /// [`crate::ratio_model::RatioModel`] instead of compressing the full
    /// payload per candidate.
    ///
    /// `payload_sample` should be a representative slice of the data the
    /// pipeline will stream; `sample_dim` is the per-sample feature count
    /// (for the L∞→pointwise conversion of L∞-only backends).
    pub fn plan_optimal(
        &self,
        rel_tolerance: f64,
        norm: Norm,
        compressor: &dyn Compressor,
        payload_sample: &[f32],
        sample_dim: usize,
    ) -> Result<(PipelinePlan, f64), errflow_compress::CompressError> {
        // Probe across the input-budget range the share sweep can produce.
        let budgets: Vec<f64> = (0..5)
            .map(|i| {
                let share = 0.02 + 0.96 * i as f64 / 4.0;
                self.plan(&PlannerConfig {
                    rel_tolerance,
                    norm,
                    quant_share: share,
                })
                .input_budget_l2
                .max(1e-12)
            })
            .collect();
        let supports_l2 = compressor.supports(&errflow_compress::ErrorBound::abs_l2(1.0));
        let n = payload_sample.len().max(1) as f64;
        let d = sample_dim.max(1) as f64;
        let make_bound = |budget: f64| {
            if supports_l2 {
                // Whole-sample L2 budget scaled to the probe buffer size.
                errflow_compress::ErrorBound::abs_l2(budget * (n / d).sqrt())
            } else {
                errflow_compress::ErrorBound::abs_linf(budget / d.sqrt())
            }
        };
        let mut probe_tols = budgets.clone();
        probe_tols.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        probe_tols.dedup();
        let model = crate::ratio_model::RatioModel::probe(
            compressor,
            payload_sample,
            &probe_tols,
            make_bound,
        )?;

        let mut best: Option<(PipelinePlan, f64)> = None;
        for i in 0..19 {
            let share = 0.05 * (i + 1) as f64;
            let plan = self.plan(&PlannerConfig {
                rel_tolerance,
                norm,
                quant_share: share,
            });
            let ratio = model.predict_ratio(plan.input_budget_l2.max(1e-12));
            let decode = model.predict_decode_gbps(plan.input_budget_l2.max(1e-12));
            // Effective I/O GB/s: read compressed + decode.
            let io = 1.0 / (1.0 / (ratio * self.storage.bandwidth_gbps) + 1.0 / decode.max(1e-9));
            let exec = self
                .exec
                .ingest_gbps(self.model.flops(), sample_dim * 4, plan.format);
            let score = io.min(exec);
            if best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((plan, score));
            }
        }
        Ok(best.expect("at least one share evaluated"))
    }

    /// [`input_bound`] as a method (the planner itself adds nothing to it).
    pub fn compressor_bound(
        &self,
        plan: &PipelinePlan,
        compressor: &dyn Compressor,
        payload_len: usize,
    ) -> ErrorBound {
        input_bound(plan, compressor, payload_len)
    }

    /// Executes the planned pipeline on real samples.
    ///
    /// The samples are flattened per `layout`, compressed under the plan's
    /// input budget, decompressed (timed), and run through the quantized
    /// model; achieved errors are measured against full-precision inference
    /// on the original inputs.
    pub fn execute(
        &self,
        plan: &PipelinePlan,
        compressor: &dyn Compressor,
        samples: &[Vec<f32>],
        norm: Norm,
        layout: PayloadLayout,
    ) -> Result<PipelineReport, errflow_compress::CompressError> {
        assert!(!samples.is_empty(), "cannot execute on no samples");
        let d = samples[0].len();
        let payload = flatten(samples, layout);
        let bound = input_bound(plan, compressor, payload.len());
        let (recon_payload, mut stats) = {
            let _span = errflow_obs::trace::span("pipeline.roundtrip");
            compressor.roundtrip(&payload, &bound)?
        };
        // Small payloads make one-shot wall-clock timing noisy; re-time the
        // decompression over enough repetitions for a stable GB/s figure.
        if stats.decompress_secs < 5e-3 {
            let stream = compressor.compress(&payload, &bound)?;
            let reps = ((5e-3 / stats.decompress_secs.max(1e-7)) as usize).clamp(3, 200);
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                compressor.decompress(&stream, payload.len())?;
            }
            stats.decompress_secs = t0.elapsed().as_secs_f64() / reps as f64;
        }
        let recon = unflatten(&recon_payload, samples.len(), d, layout);

        let quantized = {
            let _span = errflow_obs::trace::span("pipeline.quantize");
            quantize_model(self.model, plan.format)
        };
        let _fwd_span = errflow_obs::trace::span("pipeline.forward");
        let mut rel_errors = Vec::with_capacity(samples.len());
        for (x, xt) in samples.iter().zip(&recon) {
            let y = self.model.forward(x);
            let yq = quantized.forward(xt);
            let denom = norm.eval(&y).max(self.qoi_reference(norm) * 1e-6);
            rel_errors.push(diff_norm(&y, &yq, norm) / denom);
        }

        let io_gbps = self.storage.effective_read_gbps(&stats);
        let exec_gbps = self
            .exec
            .ingest_gbps(self.model.flops(), d * 4, plan.format);
        Ok(PipelineReport {
            plan: *plan,
            stats,
            io_gbps,
            exec_gbps,
            end_to_end_gbps: io_gbps.min(exec_gbps),
            achieved_rel_error: Summary::of(&rel_errors).expect("nonempty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_compress::{MgardCompressor, SzCompressor, ZfpCompressor};
    use errflow_nn::{Activation, Mlp};
    use errflow_tensor::rng::StdRng;

    fn model() -> Mlp {
        Mlp::new(
            &[6, 32, 32, 4],
            Activation::Tanh,
            Activation::Identity,
            11,
            None,
        )
    }

    fn samples(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Spatially-correlated samples: smooth trajectory through feature
        // space, so the payload compresses like a field.
        let mut cur: Vec<f32> = (0..d).map(|_| rng.gen_range(-0.5..0.5)).collect();
        (0..n)
            .map(|_| {
                for v in &mut cur {
                    *v = (*v + rng.gen_range(-0.02..0.02f32)).clamp(-1.0, 1.0);
                }
                cur.clone()
            })
            .collect()
    }

    #[test]
    fn flatten_roundtrip_both_layouts() {
        let s = samples(7, 3, 1);
        for layout in [PayloadLayout::FeatureMajor, PayloadLayout::SampleMajor] {
            let flat = flatten(&s, layout);
            assert_eq!(flat.len(), 21);
            let back = unflatten(&flat, 7, 3, layout);
            assert_eq!(back, s);
        }
    }

    /// Tile-edge shapes: `flatten` → `unflatten` is the identity for both
    /// layouts, and feature-major puts sample `s`, feature `f` at `f·n + s`.
    #[test]
    fn flatten_unflatten_identity_at_tile_edges() {
        for n in [0usize, 1, 3, 15, 16, 17, 255, 256, 257] {
            for d in [0usize, 1, 3, 15, 16, 17, 255, 256, 257] {
                let s: Vec<Vec<f32>> = (0..n)
                    .map(|i| (0..d).map(|f| (i * d + f) as f32).collect())
                    .collect();
                for layout in [PayloadLayout::FeatureMajor, PayloadLayout::SampleMajor] {
                    let flat = flatten(&s, layout);
                    assert_eq!(flat.len(), n * d);
                    assert_eq!(unflatten(&flat, n, d, layout), s, "{n}x{d} {layout:?}");
                }
                let fm = flatten(&s, PayloadLayout::FeatureMajor);
                for (i, sample) in s.iter().enumerate().step_by(7) {
                    for (f, &v) in sample.iter().enumerate().step_by(5) {
                        assert_eq!(fm[f * n + i], v);
                    }
                }
            }
        }
        // Sample-major is plain concatenation, whatever the row lengths.
        let empty_rows = vec![Vec::new(); 3];
        assert!(flatten(&empty_rows, PayloadLayout::SampleMajor).is_empty());
        let ragged = vec![vec![1.0, 2.0, 3.0], vec![], vec![4.0], vec![5.0, 6.0]];
        assert_eq!(
            flatten(&ragged, PayloadLayout::SampleMajor),
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
    }

    #[test]
    fn plan_allocates_within_tolerance() {
        let m = model();
        let planner = Planner::new(&m, &samples(20, 6, 2));
        let plan = planner.plan(&PlannerConfig {
            rel_tolerance: 1e-3,
            norm: Norm::L2,
            quant_share: 0.5,
        });
        assert!(plan.certificate.weight_quant <= plan.abs_tolerance * 0.5 + 1e-15);
        assert!(plan.certificate.total() <= plan.abs_tolerance + 1e-15);
        assert!(plan.input_budget_l2 > 0.0);
    }

    #[test]
    fn tight_tolerance_forces_fp32() {
        let m = model();
        let planner = Planner::new(&m, &samples(20, 6, 3));
        let plan = planner.plan(&PlannerConfig {
            rel_tolerance: 1e-9,
            norm: Norm::L2,
            quant_share: 0.5,
        });
        assert_eq!(plan.format, QuantFormat::Fp32);
        assert_eq!(plan.certificate.weight_quant, 0.0);
    }

    #[test]
    fn loose_tolerance_picks_fast_format() {
        let m = model();
        let planner = Planner::new(&m, &samples(20, 6, 4));
        let plan = planner.plan(&PlannerConfig {
            rel_tolerance: 10.0,
            norm: Norm::L2,
            quant_share: 0.9,
        });
        // With an enormous budget, the fastest format (INT8) wins.
        assert_eq!(plan.format, QuantFormat::Int8);
    }

    #[test]
    fn larger_share_unlocks_lower_precision_sooner() {
        let m = model();
        let planner = Planner::new(&m, &samples(20, 6, 5));
        // Find a tolerance where shares disagree.
        let mut found = false;
        for exp in -60..-5 {
            let tol = 10f64.powf(exp as f64 / 10.0);
            let lo = planner
                .plan(&PlannerConfig {
                    rel_tolerance: tol,
                    norm: Norm::L2,
                    quant_share: 0.1,
                })
                .format;
            let hi = planner
                .plan(&PlannerConfig {
                    rel_tolerance: tol,
                    norm: Norm::L2,
                    quant_share: 0.9,
                })
                .format;
            if lo == QuantFormat::Fp32 && hi != QuantFormat::Fp32 {
                found = true;
                break;
            }
        }
        assert!(found, "no tolerance separates 10% and 90% shares");
    }

    #[test]
    fn execute_respects_bound_for_all_backends() {
        let m = model();
        let cal = samples(30, 6, 6);
        let planner = Planner::new(&m, &cal);
        let cfg = PlannerConfig {
            rel_tolerance: 1e-2,
            norm: Norm::L2,
            quant_share: 0.3,
        };
        let plan = planner.plan(&cfg);
        let data = samples(200, 6, 7);
        let backends: Vec<Box<dyn Compressor>> = vec![
            Box::new(SzCompressor::default()),
            Box::new(ZfpCompressor::default()),
            Box::new(MgardCompressor::default()),
        ];
        for be in &backends {
            let report = planner
                .execute(
                    &plan,
                    be.as_ref(),
                    &data,
                    Norm::L2,
                    PayloadLayout::FeatureMajor,
                )
                .unwrap();
            // The achieved relative error must stay below the predicted
            // relative bound (the paper's headline validation).
            assert!(
                report.achieved_rel_error.max <= report.plan.rel_bound,
                "{}: achieved {} > bound {}",
                be.name(),
                report.achieved_rel_error.max,
                report.plan.rel_bound
            );
            assert!(report.io_gbps > 0.0);
            assert!(report.exec_gbps > 0.0);
            assert!(report.end_to_end_gbps <= report.io_gbps);
            assert!(report.end_to_end_gbps <= report.exec_gbps);
        }
    }

    #[test]
    fn plan_optimal_beats_or_matches_fixed_shares() {
        let m = model();
        let cal = samples(40, 6, 31);
        let planner = Planner::new_calibrated(&m, &cal, 1.5);
        let data = samples(400, 6, 32);
        let payload = flatten(&data, PayloadLayout::FeatureMajor);
        let sz = SzCompressor::default();
        let (best_plan, best_score) = planner
            .plan_optimal(1e-2, Norm::L2, &sz, &payload, 6)
            .unwrap();
        assert!(best_score > 0.0);
        assert!(best_plan.certificate.total() <= best_plan.abs_tolerance * (1.0 + 1e-12));
        // The optimal plan must still execute soundly.
        let report = planner
            .execute(
                &best_plan,
                &sz,
                &data,
                Norm::L2,
                PayloadLayout::FeatureMajor,
            )
            .unwrap();
        assert!(report.achieved_rel_error.max <= report.plan.rel_bound);
    }

    #[test]
    fn plan_optimal_works_for_linf_only_backend() {
        let m = model();
        let cal = samples(40, 6, 33);
        let planner = Planner::new(&m, &cal);
        let data = samples(300, 6, 34);
        let payload = flatten(&data, PayloadLayout::FeatureMajor);
        let zfp = ZfpCompressor::default();
        let (plan, score) = planner
            .plan_optimal(1e-1, Norm::LInf, &zfp, &payload, 6)
            .unwrap();
        assert!(score > 0.0);
        assert!(plan.input_budget_l2 > 0.0);
    }

    #[test]
    fn calibrated_planner_unlocks_formats_at_tighter_tolerances() {
        let m = model();
        let cal = samples(40, 6, 21);
        let worst = Planner::new(&m, &cal);
        let tight = Planner::new_calibrated(&m, &cal, 1.5);
        let unlock = |p: &Planner<Mlp>| -> f64 {
            for i in 0..200 {
                let tol = 10f64.powf(-8.0 + i as f64 * 0.05);
                let plan = p.plan(&PlannerConfig {
                    rel_tolerance: tol,
                    norm: Norm::L2,
                    quant_share: 0.5,
                });
                if plan.format != QuantFormat::Fp32 {
                    return tol;
                }
            }
            f64::INFINITY
        };
        let u_worst = unlock(&worst);
        let u_tight = unlock(&tight);
        assert!(
            u_tight < u_worst,
            "calibrated {u_tight:.2e} should unlock before worst-case {u_worst:.2e}"
        );
    }

    #[test]
    fn calibrated_planner_execution_still_sound() {
        let m = model();
        let cal = samples(40, 6, 22);
        let planner = Planner::new_calibrated(&m, &cal, 1.5);
        let plan = planner.plan(&PlannerConfig {
            rel_tolerance: 1e-2,
            norm: Norm::L2,
            quant_share: 0.5,
        });
        let data = samples(150, 6, 23);
        let report = planner
            .execute(
                &plan,
                &SzCompressor::default(),
                &data,
                Norm::L2,
                PayloadLayout::FeatureMajor,
            )
            .unwrap();
        assert!(report.achieved_rel_error.max <= report.plan.rel_bound);
    }

    #[test]
    fn zfp_gets_linf_bound_sz_gets_l2() {
        let m = model();
        let planner = Planner::new(&m, &samples(10, 6, 8));
        let plan = planner.plan(&PlannerConfig::default());
        let sz = SzCompressor::default();
        let zfp = ZfpCompressor::default();
        let b_sz = planner.compressor_bound(&plan, &sz, 600);
        let b_zfp = planner.compressor_bound(&plan, &zfp, 600);
        assert!(b_sz.mode.is_l2());
        assert!(!b_zfp.mode.is_l2());
        // ZFP's pointwise budget implies the L2 budget.
        assert!(b_zfp.tolerance <= b_sz.tolerance);
    }

    #[test]
    #[should_panic(expected = "quant_share")]
    fn invalid_share_panics() {
        let m = model();
        let planner = Planner::new(&m, &samples(5, 6, 9));
        planner.plan(&PlannerConfig {
            rel_tolerance: 1e-3,
            norm: Norm::L2,
            quant_share: 1.5,
        });
    }
}

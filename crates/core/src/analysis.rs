//! [`NetworkAnalysis`]: extracting the bound parameters from a trained
//! model and evaluating the paper's error bounds.

use crate::bound::{network_amplification, propagate_network, FlowState};
use errflow_nn::{Model, ShortcutView};
use errflow_quant::QuantFormat;
use errflow_tensor::norms::l2;
use errflow_tensor::spectral::spectral_norm;

/// Bound-relevant description of one layer, extracted once from the weights.
#[derive(Debug, Clone)]
pub struct LayerSpec {
    /// Spectral norm σ_W of the (lowered) weight matrix (Eq. 2).
    pub sigma: f64,
    /// Activation Lipschitz constant `C = sup φ′` (§III-A).
    pub lipschitz: f64,
    /// √(patch multiplicity) of the im2col lowering (1 for dense layers).
    pub replication: f64,
    /// Rows of the weight matrix (the `n_l` of the `√(n₀ n_l)` injection).
    pub quant_rows: usize,
    /// `min(rows, cols)` of the weight matrix (the σ̃ inflation dimension).
    pub min_dim: usize,
    /// Scalar inputs to the layer.
    pub in_elems: usize,
    /// Scalar outputs of the layer.
    pub out_elems: usize,
    /// L2 norm of each weight row — the per-feature operator norms used by
    /// the per-feature QoI bounds (Figs. 3–6, right panels).
    pub row_norms: Vec<f64>,
    /// Table-I average step size per format, indexed by [`format_index`].
    pub q_steps: [f64; 5],
    /// Measured bound on this layer's input magnitude `‖h^{(l-1)}‖₂`
    /// (calibration data maximum × safety factor).  `None` = use the
    /// paper's worst-case `√n₀·Πσ̃` — see
    /// [`NetworkAnalysis::of_calibrated`].
    pub calibrated_input_magnitude: Option<f64>,
}

/// Bound-relevant description of one residual building block (Eq. 1).
#[derive(Debug, Clone)]
pub struct BlockSpec {
    /// The residual branch's layers.
    pub layers: Vec<LayerSpec>,
    /// Spectral norm σ_s of the shortcut (0 = none, 1 = identity).
    pub shortcut_sigma: f64,
    /// Operator norm of a fixed post-block linear map (e.g. GAP), else 1.
    pub output_scale: f64,
}

/// Stable index of a format into [`LayerSpec::q_steps`]: its position in
/// [`QuantFormat::ALL`], the order [`QuantFormat::step_sizes`] fills.
pub fn format_index(format: QuantFormat) -> usize {
    match format {
        QuantFormat::Fp32 => 0,
        QuantFormat::Tf32 => 1,
        QuantFormat::Fp16 => 2,
        QuantFormat::Bf16 => 3,
        QuantFormat::Int8 => 4,
    }
}

/// The two additive legs of Ineq. (3): what a plan certifies and a served
/// response's `rel_bound` is a quotient of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// Compression leg, a theorem: `(σ_s + Πσ)·‖Δx‖₂` composed across
    /// blocks (the Lipschitz argument of Ineq. 5).
    pub compression: f64,
    /// Weight-quantization leg: the concentration estimate of §III-B (each
    /// rounding error uniform and independent), not a worst case.
    pub weight_quant: f64,
}

impl Certificate {
    /// The combined bound (the right-hand side of Ineq. 3).
    pub fn total(&self) -> f64 {
        self.compression + self.weight_quant
    }
}

/// Spectral/step-size summary of a trained network plus bound evaluation.
///
/// Constructed once per model ([`NetworkAnalysis::of`]); all bound queries
/// are then closed-form arithmetic, which is what makes the paper's
/// framework cheap enough to run inside a tolerance-allocation loop.
#[derive(Debug, Clone)]
pub struct NetworkAnalysis {
    blocks: Vec<BlockSpec>,
    input_dim: usize,
    output_dim: usize,
}

impl NetworkAnalysis {
    /// Extracts the analysis from a model: spectral norms via
    /// Golub–Kahan–Lanczos, Table-I step sizes per format, per-row norms.
    pub fn of(model: &impl Model) -> Self {
        let blocks = model
            .blocks()
            .iter()
            .map(|bv| BlockSpec {
                layers: bv
                    .layers
                    .iter()
                    .map(|lv| {
                        let w = lv.weights;
                        let row_norms = (0..w.rows()).map(|r| l2(w.row(r))).collect();
                        LayerSpec {
                            sigma: spectral_norm(w),
                            lipschitz: lv.activation.lipschitz(),
                            replication: lv.replication,
                            quant_rows: w.rows(),
                            min_dim: w.rows().min(w.cols()),
                            in_elems: lv.in_elems,
                            out_elems: lv.out_elems,
                            row_norms,
                            q_steps: QuantFormat::step_sizes(w),
                            calibrated_input_magnitude: None,
                        }
                    })
                    .collect(),
                shortcut_sigma: match bv.shortcut {
                    ShortcutView::None => 0.0,
                    ShortcutView::Identity => 1.0,
                    ShortcutView::Projection(m) => spectral_norm(m),
                },
                output_scale: bv.output_scale,
            })
            .collect();
        NetworkAnalysis {
            blocks,
            input_dim: model.input_dim(),
            output_dim: model.output_dim(),
        }
    }

    /// **Extension beyond the paper**: analysis with *calibrated* layer
    /// magnitudes.
    ///
    /// The paper bounds every layer's activation magnitude by the
    /// worst-case `√n₀·Π σ̃` (inputs fill the `[-1,1]` box and every layer
    /// amplifies maximally), which makes the quantization injections very
    /// conservative for deep networks.  This constructor instead measures
    /// `max ‖h^{(l-1)}‖₂` over `calibration_inputs` and multiplies by
    /// `safety_factor` (≥ 1; it must absorb the input perturbation and the
    /// quantized-weight inflation the calibration runs don't see — 1.5 is a
    /// robust default, validated by the `calibrated_bounds_*` tests and the
    /// `ablation_calibration` bench).  The compression amplification is
    /// unchanged; only the quantization injection magnitudes tighten.
    pub fn of_calibrated(
        model: &impl Model,
        calibration_inputs: &[Vec<f32>],
        safety_factor: f64,
    ) -> Self {
        assert!(safety_factor >= 1.0, "safety factor must be ≥ 1");
        assert!(
            !calibration_inputs.is_empty(),
            "calibration needs at least one input"
        );
        let mut analysis = Self::of(model);
        let n_layers: usize = analysis.blocks.iter().map(|b| b.layers.len()).sum();
        let mut maxima = vec![0.0f64; n_layers];
        for x in calibration_inputs {
            for (m, v) in maxima.iter_mut().zip(model.layer_input_magnitudes(x)) {
                *m = m.max(v);
            }
        }
        let mut it = maxima.into_iter();
        for block in &mut analysis.blocks {
            for layer in &mut block.layers {
                let measured = it.next().expect("one magnitude per layer");
                layer.calibrated_input_magnitude = Some(measured * safety_factor);
            }
        }
        analysis
    }

    /// The per-block specs (for reporting and ablations).
    pub fn blocks(&self) -> &[BlockSpec] {
        &self.blocks
    }

    /// Network input dimension `n₀`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Network output (QoI) dimension.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// All layer spectral norms, flattened in forward order.
    pub fn sigmas(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.layers.iter().map(|l| l.sigma))
            .collect()
    }

    /// Network-wide compression-error amplification: multiplying by
    /// `‖Δx‖₂` yields Ineq. (5).
    pub fn amplification(&self) -> f64 {
        network_amplification(&self.blocks)
    }

    /// Compression-only output error bound (Ineq. 5) for an input error of
    /// L2 norm `dx_l2`.
    pub fn compression_bound(&self, dx_l2: f64) -> f64 {
        self.amplification() * dx_l2
    }

    /// Quantization-only output error bound for the given format, assuming
    /// exact inputs normalized to `[-1, 1]` (so `‖x‖₂ ≤ √n₀`).
    pub fn quantization_bound(&self, format: QuantFormat) -> f64 {
        self.combined_bound(0.0, format).weight_quant
    }

    /// The combined bound of Ineq. (3): compression term + quantization
    /// term for input error `dx_l2` and the given weight format.
    ///
    /// The quantization term uses the noisy-input magnitude `√n₀ + ‖Δx‖₂`
    /// (the paper assumes `√n₀`; the extra `dx` term keeps the bound sound
    /// for inputs that leave the normalized box after reconstruction).
    pub fn combined_bound(&self, dx_l2: f64, format: QuantFormat) -> Certificate {
        self.certify(dx_l2, |l| l.q_steps[format_index(format)])
    }

    /// **Future-work extension** (§IV-D: "the granularity of quantization
    /// can be improved by enabling per-layer quantization with different
    /// formats, thereby introducing a significantly larger optimization
    /// space"): the combined bound with one format *per layer*, `formats`
    /// flattened in block/layer order.  Reduces to
    /// [`NetworkAnalysis::combined_bound`] when all entries are equal.
    pub fn combined_bound_mixed(&self, dx_l2: f64, formats: &[QuantFormat]) -> Certificate {
        let n_layers: usize = self.blocks.iter().map(|b| b.layers.len()).sum();
        assert_eq!(formats.len(), n_layers, "one format per layer");
        let mut it = formats.iter();
        self.certify(dx_l2, |l| {
            l.q_steps[format_index(*it.next().expect("count checked"))]
        })
    }

    /// The propagation both combined bounds share: `step` gives each
    /// layer's quantization step, called in block/layer order.
    fn certify(&self, dx_l2: f64, mut step: impl FnMut(&LayerSpec) -> f64) -> Certificate {
        let qs: Vec<Vec<f64>> = self
            .blocks
            .iter()
            .map(|b| b.layers.iter().map(&mut step).collect())
            .collect();
        let state = propagate_network(
            &self.blocks,
            &qs,
            FlowState {
                error: 0.0,
                magnitude: (self.input_dim as f64).sqrt() + dx_l2,
            },
        );
        Certificate {
            compression: self.compression_bound(dx_l2),
            weight_quant: state.error,
        }
    }

    /// Per-output-feature combined bounds: for feature `i`, the final
    /// layer's operator norm is replaced by the L2 norm of its `i`-th weight
    /// row (`Δy_i = W_row_i · Δh`), and its injection dimension drops to 1.
    ///
    /// Requires the network to end in a shortcut-free block whose last layer
    /// is dense (true for all three of the paper's workloads); otherwise the
    /// global bound is returned for every feature.
    pub fn per_feature_bounds(&self, dx_l2: f64, format: QuantFormat) -> Vec<f64> {
        let last = self.blocks.last().expect("nonempty network");
        let last_layer = last.layers.last().expect("nonempty block");
        let feature_friendly = last.shortcut_sigma == 0.0
            && last_layer.replication == 1.0
            && last_layer.row_norms.len() == self.output_dim;
        if !feature_friendly {
            let global = self.combined_bound(dx_l2, format).total();
            return vec![global; self.output_dim];
        }
        (0..self.output_dim)
            .map(|i| {
                let mut clone = self.clone();
                {
                    let lb = clone.blocks.last_mut().expect("nonempty");
                    let ll = lb.layers.last_mut().expect("nonempty");
                    ll.sigma = ll.row_norms[i];
                    ll.quant_rows = 1;
                    ll.min_dim = 1;
                }
                clone.combined_bound(dx_l2, format).total()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound;
    use crate::quantize::quantize_model;
    use errflow_nn::{Activation, ConvNet, Mlp};
    use errflow_tensor::conv::MapShape;
    use errflow_tensor::norms::{diff_norm, Norm};
    use errflow_tensor::rng::StdRng;

    /// The printed single-block Ineq. (3) for MLP-style networks (one block,
    /// dense layers, no shortcut).  Returns `None` for other architectures.
    /// The oracle the recurrence is cross-checked against.
    fn equation3(a: &NetworkAnalysis, dx_l2: f64, format: QuantFormat) -> Option<Certificate> {
        if a.blocks.len() != 1 {
            return None;
        }
        let b = &a.blocks[0];
        if b.layers.iter().any(|l| l.replication != 1.0) {
            return None;
        }
        let sigmas: Vec<f64> = b.layers.iter().map(|l| l.sigma).collect();
        let qs: Vec<f64> = b
            .layers
            .iter()
            .map(|l| l.q_steps[format_index(format)])
            .collect();
        let rows: Vec<usize> = b.layers.iter().map(|l| l.quant_rows).collect();
        let min_dims: Vec<usize> = b.layers.iter().map(|l| l.min_dim).collect();
        let (comp, quant) = bound::equation3_bound(
            b.shortcut_sigma,
            &sigmas,
            &qs,
            &rows,
            &min_dims,
            a.input_dim,
        );
        Some(Certificate {
            compression: comp * dx_l2,
            weight_quant: quant,
        })
    }

    #[test]
    fn format_index_is_the_position_in_all() {
        for (i, f) in QuantFormat::ALL.into_iter().enumerate() {
            assert_eq!(format_index(f), i, "{f}");
        }
    }

    fn mlp() -> Mlp {
        Mlp::new(
            &[9, 50, 50, 9],
            Activation::Tanh,
            Activation::Identity,
            42,
            None,
        )
    }

    fn random_inputs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn analysis_extracts_shapes() {
        let a = NetworkAnalysis::of(&mlp());
        assert_eq!(a.input_dim(), 9);
        assert_eq!(a.output_dim(), 9);
        assert_eq!(a.blocks().len(), 1);
        assert_eq!(a.sigmas().len(), 3);
        assert!(a.amplification() > 0.0);
    }

    #[test]
    fn compression_bound_dominates_observed_error() {
        let model = mlp();
        let a = NetworkAnalysis::of(&model);
        let mut rng = StdRng::seed_from_u64(7);
        for x in random_inputs(20, 9, 8) {
            let dx = 1e-3f32;
            let xt: Vec<f32> = x.iter().map(|&v| v + rng.gen_range(-dx..dx)).collect();
            let dx_l2 = diff_norm(&x, &xt, Norm::L2);
            let y = model.forward(&x);
            let yt = model.forward(&xt);
            let err = diff_norm(&y, &yt, Norm::L2);
            let bound = a.compression_bound(dx_l2);
            assert!(err <= bound + 1e-9, "err={err} bound={bound}");
        }
    }

    #[test]
    fn quantization_bound_dominates_observed_error() {
        let model = mlp();
        let a = NetworkAnalysis::of(&model);
        for format in QuantFormat::REDUCED {
            let qm = quantize_model(&model, format);
            let bound = a.quantization_bound(format);
            for x in random_inputs(10, 9, 9) {
                let y = model.forward(&x);
                let yq = qm.forward(&x);
                let err = diff_norm(&y, &yq, Norm::L2);
                assert!(err <= bound + 1e-9, "{format}: err={err} bound={bound}");
            }
        }
    }

    #[test]
    fn combined_bound_dominates_observed_error() {
        let model = mlp();
        let a = NetworkAnalysis::of(&model);
        let mut rng = StdRng::seed_from_u64(10);
        let format = QuantFormat::Fp16;
        let qm = quantize_model(&model, format);
        for x in random_inputs(10, 9, 11) {
            let dx = 1e-4f32;
            let xt: Vec<f32> = x.iter().map(|&v| v + rng.gen_range(-dx..dx)).collect();
            let dx_l2 = diff_norm(&x, &xt, Norm::L2);
            let y = model.forward(&x);
            let yq = qm.forward(&xt);
            let err = diff_norm(&y, &yq, Norm::L2);
            let b = a.combined_bound(dx_l2, format);
            assert!(err <= b.total() + 1e-9, "err={err} bound={}", b.total());
            // L∞ is also covered (‖·‖∞ ≤ ‖·‖₂).
            let err_inf = diff_norm(&y, &yq, Norm::LInf);
            assert!(err_inf <= b.total() + 1e-9);
        }
    }

    #[test]
    fn combined_is_sum_of_parts() {
        let a = NetworkAnalysis::of(&mlp());
        let b = a.combined_bound(1e-3, QuantFormat::Bf16);
        assert!((b.total() - (b.compression + b.weight_quant)).abs() < 1e-15);
        assert!(b.compression > 0.0 && b.weight_quant > 0.0);
    }

    #[test]
    fn bound_monotone_in_input_error() {
        let a = NetworkAnalysis::of(&mlp());
        let b1 = a.combined_bound(1e-5, QuantFormat::Fp16).total();
        let b2 = a.combined_bound(1e-3, QuantFormat::Fp16).total();
        assert!(b2 > b1);
    }

    #[test]
    fn bound_orders_formats_as_paper() {
        // TF32 ≈ FP16 < BF16 < INT8 in predicted quantization error.
        let a = NetworkAnalysis::of(&mlp());
        let q = |f| a.quantization_bound(f);
        assert!(q(QuantFormat::Fp32) == 0.0);
        assert!((q(QuantFormat::Tf32) - q(QuantFormat::Fp16)).abs() < 0.3 * q(QuantFormat::Fp16));
        assert!(q(QuantFormat::Bf16) > q(QuantFormat::Fp16));
        assert!(q(QuantFormat::Int8) > q(QuantFormat::Bf16));
    }

    #[test]
    fn equation3_matches_recurrence_closely_and_is_dominated() {
        let a = NetworkAnalysis::of(&mlp());
        for format in QuantFormat::REDUCED {
            let rec = a.combined_bound(1e-4, format);
            let eq3 = equation3(&a, 1e-4, format).expect("single-block MLP");
            assert!((rec.compression - eq3.compression).abs() < 1e-12);
            assert!(rec.weight_quant >= eq3.weight_quant - 1e-12);
            assert!(
                rec.weight_quant <= eq3.weight_quant * 2.0,
                "{format}: rec={} eq3={}",
                rec.weight_quant,
                eq3.weight_quant
            );
        }
    }

    #[test]
    fn per_feature_bounds_dominated_by_global_and_observed() {
        let model = mlp();
        let a = NetworkAnalysis::of(&model);
        let format = QuantFormat::Fp16;
        let global = a.combined_bound(1e-4, format).total();
        let per = a.per_feature_bounds(1e-4, format);
        assert_eq!(per.len(), 9);
        for &b in &per {
            assert!(b <= global + 1e-12, "per-feature ≤ global");
            assert!(b > 0.0);
        }
        // Observed per-feature errors stay below their bounds.
        let qm = quantize_model(&model, format);
        let mut rng = StdRng::seed_from_u64(13);
        for x in random_inputs(5, 9, 14) {
            let xt: Vec<f32> = x
                .iter()
                .map(|&v| v + rng.gen_range(-1e-4..1e-4f32))
                .collect();
            let y = model.forward(&x);
            let yq = qm.forward(&xt);
            for i in 0..9 {
                let err = (y[i] - yq[i]).abs() as f64;
                assert!(
                    err <= per[i] + 1e-9,
                    "feature {i}: err={err} bound={}",
                    per[i]
                );
            }
        }
    }

    #[test]
    fn convnet_bounds_dominate_observed() {
        let model = ConvNet::new(MapShape::new(2, 8, 8), 4, 1, 3, Activation::Relu, 21, None);
        let a = NetworkAnalysis::of(&model);
        assert_eq!(a.blocks().len(), 3); // stem + block + head
        let format = QuantFormat::Bf16;
        let qm = quantize_model(&model, format);
        let mut rng = StdRng::seed_from_u64(22);
        for x in random_inputs(5, 128, 23) {
            let xt: Vec<f32> = x
                .iter()
                .map(|&v| v + rng.gen_range(-1e-3..1e-3f32))
                .collect();
            let dx_l2 = diff_norm(&x, &xt, Norm::L2);
            let y = model.forward(&x);
            let yq = qm.forward(&xt);
            let err = diff_norm(&y, &yq, Norm::L2);
            let b = a.combined_bound(dx_l2, format).total();
            assert!(err <= b + 1e-9, "err={err} bound={b}");
        }
        let _ = rng;
    }

    #[test]
    fn mixed_format_bound_reduces_to_uniform() {
        let a = NetworkAnalysis::of(&mlp());
        for f in QuantFormat::REDUCED {
            let uniform = a.combined_bound(1e-4, f);
            let mixed = a.combined_bound_mixed(1e-4, &[f, f, f]);
            assert!((uniform.total() - mixed.total()).abs() < 1e-15 * uniform.total());
        }
    }

    #[test]
    fn mixed_format_bound_dominates_observed() {
        use crate::quantize::quantize_model_mixed;
        let model = mlp();
        let a = NetworkAnalysis::of(&model);
        // Cheap formats where the bound allows, FP32 where it does not.
        let formats = [QuantFormat::Int8, QuantFormat::Fp16, QuantFormat::Fp32];
        let bound = a.combined_bound_mixed(0.0, &formats).total();
        let qm = quantize_model_mixed(&model, &formats);
        for x in random_inputs(10, 9, 171) {
            let err = diff_norm(&model.forward(&x), &qm.forward(&x), Norm::L2);
            assert!(err <= bound + 1e-9, "err={err} bound={bound}");
        }
        // And it must sit between the all-FP16-ish extremes sensibly.
        let all_int8 = a.quantization_bound(QuantFormat::Int8);
        assert!(a.combined_bound_mixed(0.0, &formats).weight_quant <= all_int8);
    }

    #[test]
    #[should_panic(expected = "one format per layer")]
    fn mixed_format_wrong_arity_panics() {
        let a = NetworkAnalysis::of(&mlp());
        a.combined_bound_mixed(0.0, &[QuantFormat::Fp16]);
    }

    #[test]
    fn calibrated_bounds_tighter_and_still_sound() {
        let model = mlp();
        let inputs = random_inputs(40, 9, 77);
        let worst = NetworkAnalysis::of(&model);
        let cal = NetworkAnalysis::of_calibrated(&model, &inputs, 1.5);
        for format in QuantFormat::REDUCED {
            let b_worst = cal.quantization_bound(format);
            let b_paper = worst.quantization_bound(format);
            assert!(
                b_worst <= b_paper,
                "{format}: calibration loosened the bound"
            );
            // Soundness on fresh data (not in the calibration set).
            let qm = quantize_model(&model, format);
            for x in random_inputs(15, 9, 78) {
                let y = model.forward(&x);
                let yq = qm.forward(&x);
                let err = diff_norm(&y, &yq, Norm::L2);
                assert!(
                    err <= b_worst + 1e-9,
                    "{format}: calibrated bound violated ({err} > {b_worst})"
                );
            }
        }
    }

    #[test]
    fn calibrated_bounds_much_tighter_for_deep_networks() {
        // The motivation for the extension: a 9-layer stack's worst-case
        // Πσ̃ magnitude is wildly pessimistic.
        let model = Mlp::new(
            &[13, 48, 48, 48, 48, 48, 48, 48, 48, 3],
            Activation::Relu,
            Activation::Identity,
            55,
            None,
        );
        let inputs = random_inputs(30, 13, 56);
        let worst = NetworkAnalysis::of(&model);
        let cal = NetworkAnalysis::of_calibrated(&model, &inputs, 1.5);
        let ratio =
            worst.quantization_bound(QuantFormat::Fp16) / cal.quantization_bound(QuantFormat::Fp16);
        assert!(ratio > 3.0, "expected large tightening, got {ratio}x");
    }

    #[test]
    fn layer_input_magnitudes_align_with_block_layers() {
        let model = ConvNet::new(MapShape::new(2, 6, 6), 4, 2, 3, Activation::Relu, 61, None);
        let n_layers: usize = model.blocks().iter().map(|b| b.layers.len()).sum();
        let mags = model.layer_input_magnitudes(&vec![0.3; 72]);
        assert_eq!(mags.len(), n_layers);
        assert!(mags.iter().all(|&m| m.is_finite() && m >= 0.0));
    }

    #[test]
    #[should_panic(expected = "safety factor")]
    fn calibration_rejects_sub_unit_safety() {
        let model = mlp();
        NetworkAnalysis::of_calibrated(&model, &random_inputs(2, 9, 1), 0.5);
    }

    #[test]
    fn psn_network_has_much_tighter_amplification() {
        // The PSN + spectral-penalty training keeps Πσ small; an untrained
        // PSN model's α starts at the raw σ, so compare a trained-style
        // construction: shrink alphas manually via map over weights.
        let plain = Mlp::new(
            &[9, 50, 50, 9],
            Activation::Tanh,
            Activation::Identity,
            30,
            None,
        );
        // Normalize each layer to σ = 1 — what PSN with α = 1 would give.
        let normalized = plain.map_weights(&mut |w| {
            let s = spectral_norm(w) as f32;
            w.scale(1.0 / s)
        });
        let a_plain = NetworkAnalysis::of(&plain);
        let a_norm = NetworkAnalysis::of(&normalized);
        assert!((a_norm.amplification() - 1.0).abs() < 1e-3);
        // Plain Xavier init has σ > 1 per layer at these widths.
        assert!(a_plain.amplification() > a_norm.amplification());
    }
}

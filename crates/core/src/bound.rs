//! The bound arithmetic: Ineq. (5), the quantization concentration bound,
//! and the combined Ineq. (3), generalized to block sequences.
//!
//! All arithmetic is `f64`: the estimator itself must not suffer the
//! rounding it reasons about.

use crate::analysis::{BlockSpec, LayerSpec};

/// `√3`, which appears in every quantization term (the standard deviation
/// of a centered uniform step is `q/√12 = q/(2√3)`).
const SQRT3: f64 = 1.732_050_807_568_877_2;

/// Inflated spectral norm of a quantized layer:
/// `σ_W̃ ≤ σ_W + q·√min(n_{l-1}, n_l)/√3` (§III-B).
pub fn quantized_spectral_inflation(sigma: f64, q: f64, min_dim: usize) -> f64 {
    sigma + q * (min_dim as f64).sqrt() / SQRT3
}

/// Error-amplification gain of one layer under compression only:
/// `C · σ_W · replication` (the activation's Lipschitz constant times the
/// operator norm of the lowered weight matrix).
pub fn layer_gain(layer: &LayerSpec) -> f64 {
    layer.lipschitz * layer.sigma * layer.replication
}

/// Gain of one layer with quantized weights (σ inflated per the paper).
pub fn layer_gain_quantized(layer: &LayerSpec, q: f64) -> f64 {
    layer.lipschitz
        * quantized_spectral_inflation(layer.sigma, q, layer.min_dim)
        * layer.replication
}

/// Additive error injected by quantizing one layer's weights, per unit of
/// incoming activation magnitude: `q·√(rows)·replication/(2√3)` — the
/// concentration limit of `‖ΔW·h̃‖₂ / ‖h̃‖₂` (§III-B).
pub fn layer_quant_injection(layer: &LayerSpec, q: f64) -> f64 {
    q * (layer.quant_rows as f64).sqrt() * layer.replication / (2.0 * SQRT3)
}

/// Compression-error amplification of one block (Ineq. 5 applied to the
/// block): `(σ_s + Π_l C_l σ_l ρ_l) · output_scale`.
pub fn block_amplification(block: &BlockSpec) -> f64 {
    let path: f64 = block.layers.iter().map(layer_gain).product();
    (block.shortcut_sigma + path) * block.output_scale
}

/// Compression-error amplification of a whole network: the product of its
/// blocks' amplifications.  Multiplying by `‖Δx‖₂` yields the network-wide
/// Ineq. (5).
pub fn network_amplification(blocks: &[BlockSpec]) -> f64 {
    blocks.iter().map(block_amplification).product()
}

/// State threaded through the combined-bound recurrence:
/// `error` bounds `‖Δh‖₂`, `magnitude` bounds `‖h̃‖₂` (needed by the
/// quantization injections downstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowState {
    /// Bound on the L2 norm of the accumulated error.
    pub error: f64,
    /// Bound on the L2 norm of the (noisy) activations.
    pub magnitude: f64,
}

/// Propagates the flow state through one block with per-layer quantization
/// steps `qs` (use zeros for unquantized propagation).
///
/// For a single block with `magnitude = √n₀`, `error = ‖Δx‖₂` and plain
/// dense layers this recurrence expands to exactly the quantization sum in
/// Ineq. (3) with σ̃ kept on *every* propagation factor — a slightly safer
/// variant of the printed bound, which relaxes the factors after the
/// injecting layer to plain σ (see `equation3_bound` in the tests).
pub fn propagate_block(block: &BlockSpec, qs: &[f64], state: FlowState) -> FlowState {
    assert_eq!(qs.len(), block.layers.len(), "one q per layer");
    let mut path_err = state.error;
    let mut path_mag = state.magnitude;
    for (layer, &q) in block.layers.iter().zip(qs) {
        let gain = layer_gain_quantized(layer, q);
        // The injection scales with the layer's input magnitude: worst-case
        // (the running √n₀·Πσ̃ bound) unless a calibrated measurement is
        // available, in which case the tighter of the two applies.
        let mag = match layer.calibrated_input_magnitude {
            Some(c) => c.min(path_mag),
            None => path_mag,
        };
        // The injection lands on the pre-activation z; the activation's
        // Lipschitz constant applies to it like to everything else.
        let inject = layer.lipschitz * layer_quant_injection(layer, q) * mag;
        path_err = gain * path_err + inject;
        // σ̃ already bounds the *quantized* operator norm, so the magnitude
        // needs no separate injection term.
        path_mag *= gain;
    }
    FlowState {
        error: (path_err + block.shortcut_sigma * state.error) * block.output_scale,
        magnitude: (path_mag + block.shortcut_sigma * state.magnitude) * block.output_scale,
    }
}

/// Propagates through a block sequence.
pub fn propagate_network(blocks: &[BlockSpec], qs: &[Vec<f64>], state: FlowState) -> FlowState {
    assert_eq!(qs.len(), blocks.len(), "one q-vector per block");
    blocks
        .iter()
        .zip(qs)
        .fold(state, |s, (b, q)| propagate_block(b, q, s))
}

/// The printed Ineq. (3), verbatim, for a **single** residual building
/// block with dense layers:
///
/// ```text
/// ‖Δy‖₂ ≤ (σ_s + Π σ_l)·‖Δx‖₂
///        + Σ_l [ Π_{i<l}(σ_i + q_i√min(n_{i-1},n_i)/√3)
///              · Π_{j>l} σ_j · q_l √(n₀ n_l)/(2√3) ]
/// ```
///
/// `n0` is the block's input dimension; `sigmas[l]`, `qs[l]`, `rows[l]`,
/// `min_dims[l]` describe layer `l`.  Returns `(compression_term_per_unit_dx,
/// quantization_term)` so callers can scale the first by `‖Δx‖₂`.  The
/// oracle the recurrence's tests check [`propagate_block`] against.
#[cfg(test)]
pub(crate) fn equation3_bound(
    shortcut_sigma: f64,
    sigmas: &[f64],
    qs: &[f64],
    rows: &[usize],
    min_dims: &[usize],
    n0: usize,
) -> (f64, f64) {
    let len = sigmas.len();
    assert!(len == qs.len() && len == rows.len() && len == min_dims.len());
    let compression = shortcut_sigma + sigmas.iter().product::<f64>();
    let mut quantization = 0.0;
    for l in 0..len {
        let mut prefix = 1.0;
        for i in 0..l {
            prefix *= quantized_spectral_inflation(sigmas[i], qs[i], min_dims[i]);
        }
        let suffix: f64 = sigmas[l + 1..].iter().product();
        let inject = qs[l] * ((n0 * rows[l]) as f64).sqrt() / (2.0 * SQRT3);
        quantization += prefix * suffix * inject;
    }
    (compression, quantization)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_layer(sigma: f64, rows: usize, cols: usize) -> LayerSpec {
        LayerSpec {
            sigma,
            lipschitz: 1.0,
            replication: 1.0,
            quant_rows: rows,
            min_dim: rows.min(cols),
            in_elems: cols,
            out_elems: rows,
            row_norms: vec![sigma; rows],
            q_steps: [0.0; 5],
            calibrated_input_magnitude: None,
        }
    }

    #[test]
    fn calibrated_magnitude_tightens_injection() {
        let mut layer = dense_layer(1.0, 4, 4);
        let block_worst = BlockSpec {
            layers: vec![layer.clone()],
            shortcut_sigma: 0.0,
            output_scale: 1.0,
        };
        layer.calibrated_input_magnitude = Some(0.5);
        let block_cal = BlockSpec {
            layers: vec![layer],
            shortcut_sigma: 0.0,
            output_scale: 1.0,
        };
        let s0 = FlowState {
            error: 0.0,
            magnitude: 2.0,
        };
        let worst = propagate_block(&block_worst, &[0.01], s0);
        let cal = propagate_block(&block_cal, &[0.01], s0);
        assert!(cal.error < worst.error);
        // Calibration never loosens: min(c, path_mag).
        assert!((cal.error - worst.error * 0.25).abs() < 1e-15);
    }

    fn mlp_block(sigmas: &[(f64, usize, usize)]) -> BlockSpec {
        BlockSpec {
            layers: sigmas
                .iter()
                .map(|&(s, r, c)| dense_layer(s, r, c))
                .collect(),
            shortcut_sigma: 0.0,
            output_scale: 1.0,
        }
    }

    #[test]
    fn inflation_formula() {
        // σ̃ = 2 + 0.1·√9/√3 = 2 + 0.3/1.732... ·√9 → 2 + 0.1·3/√3.
        let inflated = quantized_spectral_inflation(2.0, 0.1, 9);
        assert!((inflated - (2.0 + 0.3 / SQRT3)).abs() < 1e-12);
        assert_eq!(quantized_spectral_inflation(2.0, 0.0, 9), 2.0);
    }

    #[test]
    fn amplification_of_plain_mlp_is_sigma_product() {
        let block = mlp_block(&[(2.0, 8, 4), (3.0, 8, 8), (0.5, 2, 8)]);
        assert!((block_amplification(&block) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn amplification_with_shortcut_adds_sigma_s() {
        let mut block = mlp_block(&[(2.0, 8, 8), (0.5, 8, 8)]);
        block.shortcut_sigma = 1.0; // identity shortcut
        assert!((block_amplification(&block) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn output_scale_multiplies() {
        let mut block = mlp_block(&[(2.0, 8, 8)]);
        block.output_scale = 0.25;
        assert!((block_amplification(&block) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn network_amplification_is_product_of_blocks() {
        let b1 = mlp_block(&[(2.0, 4, 4)]);
        let b2 = mlp_block(&[(3.0, 4, 4)]);
        assert!((network_amplification(&[b1, b2]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn propagate_without_quantization_matches_amplification() {
        let block = mlp_block(&[(2.0, 8, 4), (1.5, 8, 8)]);
        let s = propagate_block(
            &block,
            &[0.0, 0.0],
            FlowState {
                error: 0.1,
                magnitude: 2.0,
            },
        );
        assert!((s.error - 0.1 * 3.0).abs() < 1e-12);
        assert!((s.magnitude - 2.0 * 3.0).abs() < 1e-12);
    }

    #[test]
    fn propagate_with_quantization_adds_injections() {
        let block = mlp_block(&[(1.0, 4, 4)]);
        let q = 0.01;
        let s0 = FlowState {
            error: 0.0,
            magnitude: 2.0, // √4 = input magnitude
        };
        let s = propagate_block(&block, &[q], s0);
        // error = inject·M = q·√4/(2√3)·2
        let expected = q * 2.0 / (2.0 * SQRT3) * 2.0;
        assert!(
            (s.error - expected).abs() < 1e-12,
            "{} vs {expected}",
            s.error
        );
        assert!(s.magnitude > 2.0 * 1.0, "magnitude grows by σ inflation");
    }

    #[test]
    fn recurrence_reduces_to_equation3_single_layer() {
        // One layer, no shortcut: both forms must agree exactly.
        let sigma = 1.7;
        let q = 0.02;
        let (rows, cols) = (6usize, 4usize);
        let block = mlp_block(&[(sigma, rows, cols)]);
        let n0 = cols;
        let dx = 0.05;
        let (comp, quant) = equation3_bound(0.0, &[sigma], &[q], &[rows], &[rows.min(cols)], n0);
        let state = propagate_block(
            &block,
            &[q],
            FlowState {
                error: dx,
                magnitude: (n0 as f64).sqrt(),
            },
        );
        // The recurrence folds compression and quantization together; the
        // printed form separates them.  For one layer:
        // recurrence error = σ̃·dx + inject·√n0; printed = σ·dx + inject·√n0.
        let printed_total = comp * dx + quant;
        assert!(
            state.error >= printed_total - 1e-12,
            "recurrence must dominate"
        );
        let slack = (state.error - printed_total).abs();
        // Difference is exactly the inflation acting on dx.
        let inflation = quantized_spectral_inflation(sigma, q, rows.min(cols)) - sigma;
        assert!((slack - inflation * dx).abs() < 1e-12);
    }

    #[test]
    fn recurrence_dominates_equation3_deep_block() {
        let specs = [(1.5, 50usize, 9usize), (1.2, 50, 50), (0.8, 9, 50)];
        let sigmas: Vec<f64> = specs.iter().map(|s| s.0).collect();
        let rows: Vec<usize> = specs.iter().map(|s| s.1).collect();
        let min_dims: Vec<usize> = specs.iter().map(|s| s.1.min(s.2)).collect();
        let qs = vec![1e-3; 3];
        let n0 = 9usize;
        let dx = 1e-4;
        let (comp, quant) = equation3_bound(0.0, &sigmas, &qs, &rows, &min_dims, n0);
        let printed = comp * dx + quant;
        let block = mlp_block(&specs);
        let state = propagate_block(
            &block,
            &qs,
            FlowState {
                error: dx,
                magnitude: (n0 as f64).sqrt(),
            },
        );
        assert!(state.error >= printed - 1e-15);
        // And the two stay within a small factor of each other (tightness).
        assert!(state.error < printed * 1.5, "{} vs {printed}", state.error);
    }

    #[test]
    fn zero_quantization_collapses_equation3_to_inequality5() {
        let sigmas = [2.0, 0.5, 3.0];
        let (comp, quant) = equation3_bound(0.0, &sigmas, &[0.0; 3], &[4, 4, 4], &[4, 4, 4], 4);
        assert_eq!(quant, 0.0);
        assert!((comp - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bigger_step_bigger_bound() {
        let sigmas = [1.5, 1.5];
        let mk = |q: f64| equation3_bound(0.0, &sigmas, &[q, q], &[32, 8], &[8, 8], 8).1;
        assert!(mk(1e-2) > mk(1e-3));
        assert!(mk(1e-3) > mk(1e-4));
    }

    #[test]
    fn prop_recurrence_monotone_in_error() {
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(0x3B0);
        for _ in 0..64 {
            let sigma = rng.gen_range(0.1f64..3.0);
            let q = rng.gen_range(0.0f64..0.1);
            let e1 = rng.gen_range(0.0f64..1.0);
            let e2 = rng.gen_range(0.0f64..1.0);
            let block = mlp_block(&[(sigma, 8, 8)]);
            let run = |e: f64| {
                propagate_block(
                    &block,
                    &[q],
                    FlowState {
                        error: e,
                        magnitude: 3.0,
                    },
                )
                .error
            };
            let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
            assert!(run(lo) <= run(hi) + 1e-12);
        }
    }

    #[test]
    fn prop_recurrence_dominates_printed_form() {
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(0x3B1);
        for _ in 0..64 {
            let s1 = rng.gen_range(0.2f64..2.5);
            let s2 = rng.gen_range(0.2f64..2.5);
            let q = 10f64.powf(rng.gen_range(-6.0f64..-2.0));
            let dx = rng.gen_range(0.0f64..0.1);
            let specs = [(s1, 16usize, 8usize), (s2, 4, 16)];
            let block = mlp_block(&specs);
            let (comp, quant) = equation3_bound(0.0, &[s1, s2], &[q, q], &[16, 4], &[8, 4], 8);
            let state = propagate_block(
                &block,
                &[q, q],
                FlowState {
                    error: dx,
                    magnitude: 8f64.sqrt(),
                },
            );
            assert!(state.error >= comp * dx + quant - 1e-12);
        }
    }
}

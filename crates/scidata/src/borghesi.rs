//! Synthetic BorghesiFlame workload: 13 thermochemical state variables →
//! 3 filtered dissipation rates.
//!
//! The paper's Borghesi network consumes "mixture fraction gradients,
//! progress variable gradients, and several other derived parameters" and
//! predicts three dissipation rates (mixture-fraction, progress-variable,
//! and cross-dissipation).  Dissipation rates are quadratic in gradients,
//! which is what makes this QoI *highly sensitive* to input perturbations
//! (the paper: a 10⁻³ input change moves the QoI by 10⁻²).  The synthetic
//! target keeps exactly that structure: squared-gradient combinations with
//! steep exponential weighting.

use crate::field::{turbulence_field, Field};
use crate::normalize::Normalizer;
use errflow_nn::Dataset;
use errflow_tensor::rng::SliceRandom;
use errflow_tensor::rng::StdRng;

/// Number of thermochemical input variables.
pub const NUM_VARS: usize = 13;

/// Dissipation-rate surrogate over normalized inputs.
///
/// `x\[0\]` plays the mixture fraction Z, `x\[1\]` the progress variable C,
/// `x[2..6]` their gradients, and the rest derived parameters.  Rates are
/// gradient-quadratic with exponential state weighting — steep by design.
pub fn dissipation_rates(x: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), NUM_VARS);
    let z = x[0];
    let c = x[1];
    let gz2 = x[2] * x[2] + x[3] * x[3];
    let gc2 = x[4] * x[4] + x[5] * x[5];
    let cross = x[2] * x[4] + x[3] * x[5];
    let weight = (1.6 * z - 0.8 * c).exp(); // steep state dependence
    let chi_z = 2.0 * gz2 * weight + 0.1 * x[6];
    let chi_c = 2.0 * gc2 * (0.9 + 0.5 * c * c) + 0.1 * x[7];
    let chi_zc = 2.0 * cross * (1.0 + 0.4 * z) + 0.05 * x[8] * x[9];
    vec![chi_z, chi_c, chi_zc]
}

/// The generated workload.
#[derive(Debug, Clone)]
pub struct BorghesiWorkload {
    /// The 13 input-variable fields (spatially ordered, for compression).
    pub variable_fields: Vec<Field>,
    /// Normalized training set.
    pub dataset: Dataset,
    /// The fitted input scaler.
    pub normalizer: Normalizer,
}

/// Generates the workload on a `grid × grid` domain.
pub fn generate(grid: usize, n_samples: usize, seed: u64) -> BorghesiWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    // Mixture fraction and progress variable from moderately rough
    // turbulence; gradients derived by finite differences; the remaining
    // variables are smooth derived fields.
    let z = turbulence_field(grid, grid, seed.wrapping_add(1), 1.8);
    let c = turbulence_field(grid, grid, seed.wrapping_add(2), 1.6);
    let zx = z.grad_x();
    let zy = z.grad_y();
    let cx = c.grad_x();
    let cy = c.grad_y();
    let mut variable_fields = vec![z.clone(), c.clone(), zx, zy, cx, cy];
    for extra in 0..(NUM_VARS - 6) {
        variable_fields.push(turbulence_field(
            grid,
            grid,
            seed.wrapping_add(10 + extra as u64),
            2.0,
        ));
    }

    let mut indices: Vec<usize> = (0..grid * grid).collect();
    indices.shuffle(&mut rng);
    indices.truncate(n_samples.min(grid * grid));
    let raw: Vec<Vec<f32>> = indices
        .iter()
        .map(|&idx| variable_fields.iter().map(|f| f.data[idx]).collect())
        .collect();
    let normalizer = Normalizer::fit(&raw);
    let inputs = normalizer.apply_all(&raw);
    let targets: Vec<Vec<f32>> = inputs.iter().map(|x| dissipation_rates(x)).collect();
    BorghesiWorkload {
        variable_fields,
        dataset: Dataset::new(inputs, targets),
        normalizer,
    }
}

/// Spatially-ordered flat payload for compression experiments.
pub fn compression_payload(w: &BorghesiWorkload) -> Vec<f32> {
    w.variable_fields
        .iter()
        .flat_map(|f| f.data.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let w = generate(32, 150, 1);
        assert_eq!(w.variable_fields.len(), 13);
        assert_eq!(w.dataset.len(), 150);
        assert_eq!(w.dataset.inputs[0].len(), 13);
        assert_eq!(w.dataset.targets[0].len(), 3);
    }

    #[test]
    fn inputs_normalized() {
        let w = generate(32, 200, 2);
        for x in &w.dataset.inputs {
            assert!(x.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn higher_sensitivity_than_h2() {
        // The defining property: dissipation rates respond much more
        // strongly to input perturbations than the H2 reaction rates.
        let w = generate(32, 100, 3);
        let mut borghesi_sens = 0.0f32;
        for x in w.dataset.inputs.iter().take(50) {
            let r = dissipation_rates(x);
            let xp: Vec<f32> = x.iter().map(|&v| v + 1e-3).collect();
            let rp = dissipation_rates(&xp);
            let d: f32 = r
                .iter()
                .zip(&rp)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            borghesi_sens = borghesi_sens.max(d);
        }
        let h2w = crate::h2::generate(32, 100, 3);
        let mut h2_sens = 0.0f32;
        for x in h2w.dataset.inputs.iter().take(50) {
            let r = crate::h2::reaction_rates(x);
            let xp: Vec<f32> = x.iter().map(|&v| v + 1e-3).collect();
            let rp = crate::h2::reaction_rates(&xp);
            let d: f32 = r
                .iter()
                .zip(&rp)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            h2_sens = h2_sens.max(d);
        }
        assert!(
            borghesi_sens > 2.0 * h2_sens,
            "borghesi {borghesi_sens} vs h2 {h2_sens}"
        );
    }

    #[test]
    fn gradient_fields_are_rougher_than_state_fields() {
        let w = generate(64, 10, 4);
        let roughness = |f: &Field| -> f32 {
            let mut acc = 0.0;
            let range = f.data.iter().cloned().fold(f32::MIN, f32::max)
                - f.data.iter().cloned().fold(f32::MAX, f32::min);
            for win in f.data.windows(2) {
                acc += ((win[1] - win[0]) / range.max(1e-9)).abs();
            }
            acc
        };
        assert!(roughness(&w.variable_fields[2]) > roughness(&w.variable_fields[0]));
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(
            generate(16, 30, 5).dataset.inputs,
            generate(16, 30, 5).dataset.inputs
        );
    }

    #[test]
    fn payload_size() {
        let w = generate(16, 10, 6);
        assert_eq!(compression_payload(&w).len(), 13 * 256);
    }
}

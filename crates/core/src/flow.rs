//! Empirical error-flow decomposition — the measurable counterpart of the
//! path integral of Eq. (4).
//!
//! The paper computes the total output error along the two-leg path
//! `(x, W) → (x̃, W) → (x̃, W̃)`: first perturb the input (compression leg,
//! weights fixed), then perturb the weights (quantization leg, noisy input
//! fixed).  [`ErrorFlow::decompose`] evaluates both legs exactly by running
//! the three inferences, so each observed leg can be checked against its
//! predicted bound — this is how Figs. 3–6 pair "achieved" with "predicted".

use errflow_nn::Model;
use errflow_tensor::norms::Norm;

/// The exact two-leg decomposition of one sample's output error.
#[derive(Debug, Clone)]
pub struct ErrorFlow {
    /// Reference output `y(x, W)`.
    pub reference: Vec<f32>,
    /// Compression leg `y(x̃, W) − y(x, W)`.
    pub compression_leg: Vec<f32>,
    /// Quantization leg `y(x̃, W̃) − y(x̃, W)`.
    pub quantization_leg: Vec<f32>,
    /// Total error `y(x̃, W̃) − y(x, W)`.
    pub total: Vec<f32>,
}

impl ErrorFlow {
    /// Runs the three inferences and decomposes the error.
    ///
    /// `model` holds the original weights `W`; `quantized` holds `W̃`;
    /// `x` is the original input and `x_tilde` its lossy reconstruction.
    pub fn decompose<M: Model>(model: &M, quantized: &M, x: &[f32], x_tilde: &[f32]) -> Self {
        let y = model.forward(x);
        let y_c = model.forward(x_tilde);
        let y_q = quantized.forward(x_tilde);
        let compression_leg: Vec<f32> = y_c.iter().zip(&y).map(|(&a, &b)| a - b).collect();
        let quantization_leg: Vec<f32> = y_q.iter().zip(&y_c).map(|(&a, &b)| a - b).collect();
        let total: Vec<f32> = y_q.iter().zip(&y).map(|(&a, &b)| a - b).collect();
        ErrorFlow {
            reference: y,
            compression_leg,
            quantization_leg,
            total,
        }
    }

    /// Norm of the compression leg.
    pub fn compression_error(&self, norm: Norm) -> f64 {
        norm.eval(&self.compression_leg)
    }

    /// Norm of the quantization leg.
    pub fn quantization_error(&self, norm: Norm) -> f64 {
        norm.eval(&self.quantization_leg)
    }

    /// Norm of the total error.
    pub fn total_error(&self, norm: Norm) -> f64 {
        norm.eval(&self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::quantize_model;
    use errflow_nn::{Activation, Mlp};
    use errflow_quant::QuantFormat;
    use errflow_tensor::rng::StdRng;

    fn setup() -> (Mlp, Mlp, Vec<f32>, Vec<f32>) {
        let model = Mlp::new(&[6, 24, 6], Activation::Tanh, Activation::Identity, 5, None);
        let qm = quantize_model(&model, QuantFormat::Bf16);
        let mut rng = StdRng::seed_from_u64(6);
        let x: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let xt: Vec<f32> = x
            .iter()
            .map(|&v| v + rng.gen_range(-1e-3..1e-3f32))
            .collect();
        (model, qm, x, xt)
    }

    #[test]
    fn legs_telescope_exactly() {
        let (m, q, x, xt) = setup();
        let flow = ErrorFlow::decompose(&m, &q, &x, &xt);
        for i in 0..flow.total.len() {
            let sum = flow.compression_leg[i] + flow.quantization_leg[i];
            assert!((sum - flow.total[i]).abs() < 1e-6, "telescoping at {i}");
        }
    }

    #[test]
    fn total_error_bounded_by_leg_sum() {
        // Triangle inequality on the decomposition.
        let (m, q, x, xt) = setup();
        let flow = ErrorFlow::decompose(&m, &q, &x, &xt);
        for norm in [Norm::L2, Norm::LInf] {
            assert!(
                flow.total_error(norm)
                    <= flow.compression_error(norm) + flow.quantization_error(norm) + 1e-9
            );
        }
    }

    #[test]
    fn zero_perturbations_give_zero_legs() {
        let (m, _, x, _) = setup();
        let flow = ErrorFlow::decompose(&m, &m, &x, &x);
        assert_eq!(flow.total_error(Norm::L2), 0.0);
        assert_eq!(flow.compression_error(Norm::LInf), 0.0);
        assert_eq!(flow.quantization_error(Norm::LInf), 0.0);
    }

    #[test]
    fn compression_leg_independent_of_quantized_model() {
        let (m, q, x, xt) = setup();
        let q2 = quantize_model(&m, QuantFormat::Int8);
        let f1 = ErrorFlow::decompose(&m, &q, &x, &xt);
        let f2 = ErrorFlow::decompose(&m, &q2, &x, &xt);
        assert_eq!(f1.compression_leg, f2.compression_leg);
        assert_ne!(f1.quantization_leg, f2.quantization_leg);
    }
}

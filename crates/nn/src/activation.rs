//! Activation functions and their derivative bounds.
//!
//! The error theory (§III-A) requires every activation to have a globally
//! bounded first derivative `C = sup_z φ′(z)`; the bound then multiplies the
//! per-layer error amplification.  For Tanh, ReLU and LeakyReLU (slope ≤ 1)
//! the paper notes `C = 1` and drops the constant; GeLU's derivative peaks
//! slightly above 1, which [`Activation::lipschitz`] reports exactly so the
//! bound stays sound for GeLU networks too.
//!
//! Every `tanh` here — Tanh itself, its derivative and GeLU's inner one —
//! is the crate's own kernel (`tanh.rs`), never libm's.

use crate::tanh::tanh;

/// Supported nonlinearities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Identity (used for output layers of regression heads).
    Identity,
    /// Hyperbolic tangent — the H2-combustion MLP's activation.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative-side slope (must be in `[0, 1]`
    /// for `C = 1`; larger slopes are still handled, with `C = slope`).
    LeakyRelu(f32),
    /// Parametric ReLU: like LeakyReLU but the slope is a learnable
    /// parameter owned by the layer.  The value here is the current slope.
    PRelu(f32),
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(&self, z: f32) -> f32 {
        match *self {
            Activation::Identity => z,
            Activation::Tanh => tanh(z),
            Activation::Relu => relu(z),
            Activation::LeakyRelu(a) | Activation::PRelu(a) => leaky_relu(a, z),
            Activation::Gelu => gelu(z),
        }
    }

    /// First derivative `φ′(z)` (sub-gradient at kinks).
    #[inline]
    pub fn derivative(&self, z: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Tanh => {
                let t = tanh(z);
                1.0 - t * t
            }
            Activation::Relu => {
                if z > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(a) | Activation::PRelu(a) => {
                if z > 0.0 {
                    1.0
                } else {
                    *a
                }
            }
            Activation::Gelu => {
                let inner = GELU_C * (z + 0.044715 * z * z * z);
                let t = tanh(inner);
                let sech2 = 1.0 - t * t;
                0.5 * (1.0 + t) + 0.5 * z * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * z * z)
            }
        }
    }

    /// Global derivative bound `C = sup_z φ′(z)` — the constant of §III-A.
    pub fn lipschitz(&self) -> f64 {
        match self {
            Activation::Identity | Activation::Tanh | Activation::Relu => 1.0,
            Activation::LeakyRelu(a) | Activation::PRelu(a) => (*a as f64).abs().max(1.0),
            // max of d/dz of the tanh-approximated GeLU (≈1.12899, attained
            // near z ≈ 1.0; slightly above the exact GeLU's 1.0830).
            Activation::Gelu => 1.1290,
        }
    }

    /// Applies the activation to a whole slice, in place.
    pub fn apply_slice(&self, z: &mut [f32]) {
        self.sweep(z, None);
    }

    /// The layer epilogue `z[i] ← φ(z[i] + bias[i])` in one pass over `z`.
    ///
    /// # Panics
    /// If `z` and `bias` differ in length.
    pub fn bias_act(&self, z: &mut [f32], bias: &[f32]) {
        assert_eq!(z.len(), bias.len(), "one bias per pre-activation");
        self.sweep(z, Some(bias));
    }

    /// Matches the variant once per slice, so each arm is a loop over one
    /// fixed element function.
    fn sweep(&self, z: &mut [f32], bias: Option<&[f32]>) {
        match *self {
            Activation::Identity => map_slice(z, bias, |v| v),
            Activation::Tanh => crate::tanh::sweep(z, bias),
            Activation::Relu => map_slice(z, bias, relu),
            Activation::LeakyRelu(a) | Activation::PRelu(a) => {
                map_slice(z, bias, |v| leaky_relu(a, v))
            }
            Activation::Gelu => map_slice(z, bias, gelu),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::Tanh => "tanh",
            Activation::Relu => "relu",
            Activation::LeakyRelu(_) => "leaky_relu",
            Activation::PRelu(_) => "prelu",
            Activation::Gelu => "gelu",
        }
    }
}

/// `z[i] ← f(z[i] + bias[i])`, or `z[i] ← f(z[i])` without a bias.
#[inline(always)]
pub(crate) fn map_slice(z: &mut [f32], bias: Option<&[f32]>, f: impl Fn(f32) -> f32) {
    match bias {
        Some(bias) => {
            for (v, &b) in z.iter_mut().zip(bias) {
                *v = f(*v + b);
            }
        }
        None => {
            for v in z {
                *v = f(*v);
            }
        }
    }
}

#[inline(always)]
fn relu(z: f32) -> f32 {
    z.max(0.0)
}

#[inline(always)]
fn leaky_relu(a: f32, z: f32) -> f32 {
    if z >= 0.0 {
        z
    } else {
        a * z
    }
}

/// √(2/π)
const GELU_C: f32 = 0.797_884_6;

/// tanh approximation: 0.5 z (1 + tanh(√(2/π)(z + 0.044715 z³)))
#[inline(always)]
fn gelu(z: f32) -> f32 {
    0.5 * z * (1.0 + tanh(GELU_C * (z + 0.044715 * z * z * z)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_values() {
        assert_eq!(Activation::Tanh.apply(0.0), 0.0);
        assert!((Activation::Tanh.apply(100.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relu_values_and_derivative() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.derivative(3.0), 1.0);
        assert_eq!(Activation::Relu.derivative(-3.0), 0.0);
    }

    #[test]
    fn leaky_relu_slope() {
        let a = Activation::LeakyRelu(0.1);
        assert_eq!(a.apply(-10.0), -1.0);
        assert_eq!(a.derivative(-1.0), 0.1);
    }

    #[test]
    fn prelu_behaves_like_leaky() {
        let p = Activation::PRelu(0.25);
        assert_eq!(p.apply(-4.0), -1.0);
        assert_eq!(p.apply(4.0), 4.0);
    }

    #[test]
    fn gelu_known_points() {
        let g = Activation::Gelu;
        assert!((g.apply(0.0)).abs() < 1e-7);
        // GeLU(x) → x for large x, → 0 for very negative x.
        assert!((g.apply(10.0) - 10.0).abs() < 1e-3);
        assert!(g.apply(-10.0).abs() < 1e-3);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let acts = [
            Activation::Tanh,
            Activation::LeakyRelu(0.2),
            Activation::Gelu,
        ];
        let h = 1e-3f32;
        for act in acts {
            for &z in &[-2.0f32, -0.5, 0.3, 1.0, 2.5] {
                let fd = (act.apply(z + h) - act.apply(z - h)) / (2.0 * h);
                let an = act.derivative(z);
                assert!(
                    (fd - an).abs() < 1e-2,
                    "{}: z={z} fd={fd} analytic={an}",
                    act.label()
                );
            }
        }
    }

    #[test]
    fn lipschitz_bounds_observed_derivatives() {
        // C must dominate φ′ everywhere we sample — the soundness condition
        // the error theory rests on.
        for act in [
            Activation::Identity,
            Activation::Tanh,
            Activation::Relu,
            Activation::LeakyRelu(0.3),
            Activation::PRelu(0.5),
            Activation::Gelu,
        ] {
            let c = act.lipschitz();
            let mut z = -8.0f32;
            while z < 8.0 {
                assert!(
                    (act.derivative(z) as f64) <= c + 1e-6,
                    "{} violates C at z={z}",
                    act.label()
                );
                z += 0.01;
            }
        }
    }

    #[test]
    fn tanh_relu_leaky_have_unit_lipschitz() {
        // The paper: "For common activations including Tanh, ReLU and
        // LeakyReLU ... we have C = 1."
        assert_eq!(Activation::Tanh.lipschitz(), 1.0);
        assert_eq!(Activation::Relu.lipschitz(), 1.0);
        assert_eq!(Activation::LeakyRelu(0.1).lipschitz(), 1.0);
    }

    #[test]
    fn apply_slice_matches_scalar() {
        let mut v = vec![-1.0f32, 0.0, 2.0];
        Activation::Relu.apply_slice(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn slice_sweeps_match_apply_bitwise_for_every_variant() {
        // 19 elements: two full AVX2 vectors and a tail.
        let z: Vec<f32> = (0..19).map(|i| (i as f32 - 9.0) * 0.37).collect();
        let bias: Vec<f32> = (0..19).map(|i| (i as f32 * 0.61).sin()).collect();
        for act in [
            Activation::Identity,
            Activation::Tanh,
            Activation::Relu,
            Activation::LeakyRelu(0.3),
            Activation::PRelu(0.5),
            Activation::Gelu,
        ] {
            let mut plain = z.clone();
            act.apply_slice(&mut plain);
            let mut fused = z.clone();
            act.bias_act(&mut fused, &bias);
            for i in 0..z.len() {
                assert_eq!(plain[i].to_bits(), act.apply(z[i]).to_bits(), "{act:?}");
                let want = act.apply(z[i] + bias[i]);
                assert_eq!(fused[i].to_bits(), want.to_bits(), "{act:?}");
            }
        }
    }
}

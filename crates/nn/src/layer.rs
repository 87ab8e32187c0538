//! Dense and convolutional layers with cached forward / backward passes.
//!
//! A [`Layer`] owns a *raw* parameter matrix.  Without PSN the raw matrix is
//! the weight matrix; with PSN enabled the effective weights are the Eq. (6)
//! reparameterisation `W = α·V/σ_V`, rebuilt by [`Layer::refresh`] after
//! every optimiser step.  Convolutions are lowered to GEMM via im2col, so a
//! conv layer's weight matrix has shape `(out_ch, in_ch·kh·kw)` — the same
//! lowering under which its spectral norm enters the error bounds.

use crate::activation::Activation;
use crate::psn::PsnState;
use errflow_tensor::conv::{col2im, im2col, ConvSpec, MapShape};
use errflow_tensor::Matrix;

/// Structural kind of a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerKind {
    /// Fully connected: `z = W h + b`.
    Dense,
    /// 2-D convolution lowered to GEMM over im2col patches.
    Conv {
        /// Kernel/stride/padding description.
        spec: ConvSpec,
        /// Input feature-map shape.
        in_shape: MapShape,
        /// Output feature-map shape (derived from `spec` and `in_shape`).
        out_shape: MapShape,
    },
}

/// One trainable layer: weights, bias, activation, and optional PSN state.
#[derive(Debug, Clone)]
pub struct Layer {
    raw: Matrix,
    bias: Vec<f32>,
    activation: Activation,
    kind: LayerKind,
    psn: Option<PsnState>,
    w_eff: Matrix,
}

/// Gradients of one layer's parameters, accumulated over a batch.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Gradient w.r.t. the raw parameter matrix.
    pub d_raw: Matrix,
    /// Gradient w.r.t. the bias vector.
    pub d_bias: Vec<f32>,
    /// Gradient w.r.t. the PSN scale α (0 when PSN is off).
    pub d_alpha: f32,
}

impl LayerGrads {
    /// Zero gradients matching `layer`'s parameter shapes.
    pub fn zeros_like(layer: &Layer) -> Self {
        LayerGrads {
            d_raw: Matrix::zeros(layer.raw.rows(), layer.raw.cols()),
            d_bias: vec![0.0; layer.bias.len()],
            d_alpha: 0.0,
        }
    }

    /// Accumulates another gradient contribution.
    pub fn accumulate(&mut self, other: &LayerGrads) {
        self.d_raw
            .axpy(1.0, &other.d_raw)
            // audit:allow(panic-reach) gradient tensors share the layer's shape by construction
            .expect("gradient shapes match");
        for (a, &b) in self.d_bias.iter_mut().zip(&other.d_bias) {
            *a += b;
        }
        self.d_alpha += other.d_alpha;
    }

    /// Scales all gradients (for batch averaging).
    pub fn scale(&mut self, s: f32) {
        self.d_raw.map_inplace(|v| v * s);
        for b in &mut self.d_bias {
            *b *= s;
        }
        self.d_alpha *= s;
    }
}

/// Forward-pass cache needed for the backward pass.
#[derive(Debug, Clone)]
pub struct LayerCache {
    input: Vec<f32>,
    preact: Vec<f32>,
    patches: Option<Matrix>,
}

impl Layer {
    /// Creates a dense layer from an already-initialised weight matrix.
    pub fn dense(weights: Matrix, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(weights.rows(), bias.len(), "bias length must match rows");
        let w_eff = weights.clone();
        Layer {
            raw: weights,
            bias,
            activation,
            kind: LayerKind::Dense,
            psn: None,
            w_eff,
        }
    }

    /// Creates a conv layer; `weights` must have shape
    /// `(out_ch, in_ch·kh·kw)` and `bias` one entry per output channel.
    pub fn conv(
        weights: Matrix,
        bias: Vec<f32>,
        activation: Activation,
        spec: ConvSpec,
        in_shape: MapShape,
    ) -> Self {
        let (oh, ow) = spec
            .output_hw(in_shape.height, in_shape.width)
            // audit:allow(panic-reach) the constructor validates kernel-fits-input; misuse is a programming error
            .expect("kernel must fit input");
        let out_shape = MapShape::new(weights.rows(), oh, ow);
        assert_eq!(
            weights.cols(),
            in_shape.channels * spec.kh * spec.kw,
            "conv weight cols must equal in_ch*kh*kw"
        );
        assert_eq!(weights.rows(), bias.len());
        let w_eff = weights.clone();
        Layer {
            raw: weights,
            bias,
            activation,
            kind: LayerKind::Conv {
                spec,
                in_shape,
                out_shape,
            },
            psn: None,
            w_eff,
        }
    }

    /// Enables parameterized spectral normalization on this layer.
    pub fn with_psn(mut self, seed: u64) -> Self {
        self.psn = Some(PsnState::new(&self.raw, seed));
        self.refresh();
        self
    }

    /// Rebuilds the cached effective weights (and, with PSN, refreshes the
    /// σ_V power-iteration estimate).  Call after every parameter update.
    pub fn refresh(&mut self) {
        if let Some(psn) = &mut self.psn {
            psn.update_sigma(&self.raw);
            self.w_eff = psn.effective_weights(&self.raw);
        } else {
            self.w_eff = self.raw.clone();
        }
    }

    /// The effective weight matrix used by inference (PSN-normalised when
    /// PSN is enabled).
    pub fn weights(&self) -> &Matrix {
        &self.w_eff
    }

    /// Replaces the effective weights directly (used to build quantized
    /// model copies).  Disables PSN on the copy: a quantized model is a
    /// frozen artifact, not a training configuration.
    pub fn with_weights(&self, w: Matrix) -> Layer {
        assert_eq!(w.shape(), self.w_eff.shape());
        Layer {
            raw: w.clone(),
            bias: self.bias.clone(),
            activation: self.activation,
            kind: self.kind,
            psn: None,
            w_eff: w,
        }
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Structural kind.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// PSN scale α, when PSN is enabled.
    pub fn alpha(&self) -> Option<f32> {
        self.psn.as_ref().map(|p| p.alpha)
    }

    /// Number of scalar inputs.
    pub fn in_dim(&self) -> usize {
        match self.kind {
            LayerKind::Dense => self.raw.cols(),
            LayerKind::Conv { in_shape, .. } => in_shape.len(),
        }
    }

    /// Number of scalar outputs.
    pub fn out_dim(&self) -> usize {
        match self.kind {
            LayerKind::Dense => self.raw.rows(),
            LayerKind::Conv { out_shape, .. } => out_shape.len(),
        }
    }

    /// Multiply-accumulate FLOPs for one forward pass (2 per MAC).
    pub fn flops(&self) -> f64 {
        match self.kind {
            LayerKind::Dense => 2.0 * self.raw.rows() as f64 * self.raw.cols() as f64,
            LayerKind::Conv { out_shape, .. } => {
                2.0 * self.raw.rows() as f64
                    * self.raw.cols() as f64
                    * (out_shape.height * out_shape.width) as f64
            }
        }
    }

    /// √(patch multiplicity): the factor by which the im2col lowering can
    /// amplify an input perturbation's L2 norm.  `1` for dense layers; for a
    /// conv each input element appears in at most `⌈kh/s⌉·⌈kw/s⌉` patches.
    pub fn replication(&self) -> f64 {
        match self.kind {
            LayerKind::Dense => 1.0,
            LayerKind::Conv { spec, .. } => {
                let ky = spec.kh.div_ceil(spec.stride);
                let kx = spec.kw.div_ceil(spec.stride);
                ((ky * kx) as f64).sqrt()
            }
        }
    }

    /// Forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.forward_cached(x).0
    }

    /// Forward pass that also returns the cache for [`Layer::backward`].
    pub fn forward_cached(&self, x: &[f32]) -> (Vec<f32>, LayerCache) {
        match self.kind {
            LayerKind::Dense => {
                // audit:allow(panic-reach) input length is the layer's in_dim contract, checked by the model driver
                let mut z = self.w_eff.matvec(x).expect("dense input length");
                let preact = z.iter().zip(&self.bias).map(|(zi, b)| zi + b).collect();
                self.activation.bias_act(&mut z, &self.bias);
                (
                    z,
                    LayerCache {
                        input: x.to_vec(),
                        preact,
                        patches: None,
                    },
                )
            }
            LayerKind::Conv {
                spec,
                in_shape,
                out_shape,
            } => {
                // audit:allow(panic-reach) conv input shape is fixed by the layer spec at construction
                let patches = im2col(x, in_shape, spec).expect("conv input shape");
                // audit:allow(panic-reach) im2col output dims match w_eff by construction
                let zmat = self.w_eff.matmul(&patches).expect("conv gemm");
                let hw = out_shape.height * out_shape.width;
                let mut z = zmat.into_vec();
                for c in 0..out_shape.channels {
                    let b = self.bias[c];
                    for v in &mut z[c * hw..(c + 1) * hw] {
                        *v += b;
                    }
                }
                let preact = z.clone();
                self.activation.apply_slice(&mut z);
                (
                    z,
                    LayerCache {
                        input: x.to_vec(),
                        preact,
                        patches: Some(patches),
                    },
                )
            }
        }
    }

    /// Backward pass: given `∂L/∂y`, returns `∂L/∂x` and parameter grads.
    pub fn backward(&self, cache: &LayerCache, d_out: &[f32]) -> (Vec<f32>, LayerGrads) {
        // δ = ∂L/∂z = ∂L/∂y ⊙ φ′(z).
        let delta: Vec<f32> = d_out
            .iter()
            .zip(&cache.preact)
            .map(|(&g, &z)| g * self.activation.derivative(z))
            .collect();
        match self.kind {
            LayerKind::Dense => {
                // dW = δ xᵀ, db = δ, dx = Wᵀ δ.
                let mut d_w = Matrix::zeros(self.raw.rows(), self.raw.cols());
                #[allow(clippy::needless_range_loop)] // indexes δ and dW rows together
                for r in 0..d_w.rows() {
                    let dr = delta[r];
                    if dr != 0.0 {
                        let row = d_w.row_mut(r);
                        for (c, g) in row.iter_mut().enumerate() {
                            *g = dr * cache.input[c];
                        }
                    }
                }
                // audit:allow(panic-reach) backward mirrors forward's validated shapes
                let d_x = self.w_eff.matvec_t(&delta).expect("dense backward");
                let (d_raw, d_alpha) = self.project_grads(d_w);
                (
                    d_x,
                    LayerGrads {
                        d_raw,
                        d_bias: delta,
                        d_alpha,
                    },
                )
            }
            LayerKind::Conv {
                spec,
                in_shape,
                out_shape,
            } => {
                let hw = out_shape.height * out_shape.width;
                // audit:allow(panic-reach) delta length is channels*hw from the forward pass
                let d_z = Matrix::from_vec(out_shape.channels, hw, delta).expect("dz shape");
                // audit:allow(panic-reach) forward_cached always populates patches for conv layers
                let patches = cache.patches.as_ref().expect("conv cache has patches");
                // dW = dZ · patchesᵀ  (computed without materialising ᵀ).
                // audit:allow(panic-reach) dZ and patches dims agree by construction
                let d_w = d_z.matmul(&patches.transpose()).expect("conv weight grad");
                let d_bias: Vec<f32> = (0..out_shape.channels)
                    .map(|c| d_z.row(c).iter().sum())
                    .collect();
                let d_patches = self
                    .w_eff
                    .transpose()
                    .matmul(&d_z)
                    // audit:allow(panic-reach) w_eff^T and dZ dims agree by construction
                    .expect("conv patch grad");
                // audit:allow(panic-reach) d_patches shape mirrors the validated im2col shape
                let d_x = col2im(&d_patches, in_shape, spec).expect("conv input grad");
                let (d_raw, d_alpha) = self.project_grads(d_w);
                (
                    d_x,
                    LayerGrads {
                        d_raw,
                        d_bias,
                        d_alpha,
                    },
                )
            }
        }
    }

    /// Routes a gradient w.r.t. effective weights through PSN when enabled.
    fn project_grads(&self, d_w: Matrix) -> (Matrix, f32) {
        match &self.psn {
            Some(psn) => psn.backward(&self.raw, &d_w),
            None => (d_w, 0.0),
        }
    }

    /// Mutable access to the raw parameter matrix (for the optimiser).
    pub fn raw_mut(&mut self) -> &mut [f32] {
        self.raw.as_mut_slice()
    }

    /// Mutable access to the bias (for the optimiser).
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Mutable access to α when PSN is enabled (for the optimiser).
    pub fn alpha_mut(&mut self) -> Option<&mut f32> {
        self.psn.as_mut().map(|p| &mut p.alpha)
    }

    /// `true` when PSN is enabled.
    pub fn has_psn(&self) -> bool {
        self.psn.is_some()
    }

    /// Replaces this layer's parameters with externally-loaded values
    /// (e.g. from [`crate::io`]).  Shapes must match; PSN state is dropped
    /// because a loaded model is a frozen artifact.
    pub fn load_parameters(&mut self, weights: Matrix, bias: Vec<f32>) {
        assert_eq!(
            weights.shape(),
            self.raw.shape(),
            "loaded weight shape mismatch"
        );
        assert_eq!(bias.len(), self.bias.len(), "loaded bias length mismatch");
        self.raw = weights.clone();
        self.w_eff = weights;
        self.bias = bias;
        self.psn = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::init;
    use errflow_tensor::rng::StdRng;

    fn dense_layer(seed: u64) -> Layer {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = init::xavier_uniform(3, 4, &mut rng);
        Layer::dense(w, vec![0.1, -0.2, 0.3], Activation::Tanh)
    }

    #[test]
    fn dense_forward_shape() {
        let l = dense_layer(1);
        let y = l.forward(&[0.5, -0.5, 0.25, 1.0]);
        assert_eq!(y.len(), 3);
        assert_eq!(l.in_dim(), 4);
        assert_eq!(l.out_dim(), 3);
    }

    #[test]
    fn dense_forward_matches_manual() {
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let l = Layer::dense(w, vec![0.0, 0.0], Activation::Identity);
        let y = l.forward(&[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn dense_backward_matches_finite_differences() {
        let l = dense_layer(2);
        let x = vec![0.3f32, -0.7, 0.2, 0.9];
        let (y, cache) = l.forward_cached(&x);
        // L = Σ y_i² / 2 → dL/dy = y.
        let (dx, grads) = l.backward(&cache, &y);

        let loss = |layer: &Layer, input: &[f32]| -> f32 {
            layer.forward(input).iter().map(|&v| v * v * 0.5).sum()
        };
        let h = 1e-3f32;
        // Input gradient.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
            assert!((fd - dx[i]).abs() < 1e-2, "dx[{i}]: fd={fd} an={}", dx[i]);
        }
        // Weight gradient (spot check).
        let mut lp = l.clone();
        lp.raw_mut()[0] += h;
        lp.refresh();
        let mut lm = l.clone();
        lm.raw_mut()[0] -= h;
        lm.refresh();
        let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
        assert!(
            (fd - grads.d_raw.as_slice()[0]).abs() < 1e-2,
            "dW[0]: fd={fd} an={}",
            grads.d_raw.as_slice()[0]
        );
        // Bias gradient (spot check).
        let mut lb = l.clone();
        lb.bias_mut()[1] += h;
        let mut lb2 = l.clone();
        lb2.bias_mut()[1] -= h;
        let fdb = (loss(&lb, &x) - loss(&lb2, &x)) / (2.0 * h);
        assert!((fdb - grads.d_bias[1]).abs() < 1e-2);
    }

    #[test]
    fn conv_forward_and_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let in_shape = MapShape::new(2, 6, 6);
        let spec = ConvSpec::square(3, 1, 1);
        let w = init::he_uniform(4, 2 * 9, &mut rng);
        let l = Layer::conv(w, vec![0.0; 4], Activation::Relu, spec, in_shape);
        assert_eq!(l.in_dim(), 72);
        assert_eq!(l.out_dim(), 4 * 36);
        let x = init::uniform_vec(72, 1.0, &mut rng);
        let (y, cache) = l.forward_cached(&x);
        assert_eq!(y.len(), 144);
        let (dx, grads) = l.backward(&cache, &vec![1.0; 144]);
        assert_eq!(dx.len(), 72);
        assert_eq!(grads.d_raw.shape(), (4, 18));
        assert_eq!(grads.d_bias.len(), 4);
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let in_shape = MapShape::new(1, 4, 4);
        let spec = ConvSpec::square(3, 1, 1);
        let w = init::he_uniform(2, 9, &mut rng);
        let l = Layer::conv(w, vec![0.05, -0.05], Activation::Tanh, spec, in_shape);
        let x = init::uniform_vec(16, 1.0, &mut rng);
        let (y, cache) = l.forward_cached(&x);
        let (dx, grads) = l.backward(&cache, &y);
        let loss = |layer: &Layer, input: &[f32]| -> f32 {
            layer.forward(input).iter().map(|&v| v * v * 0.5).sum()
        };
        let h = 1e-3f32;
        for i in (0..16).step_by(5) {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
            assert!((fd - dx[i]).abs() < 1e-2, "dx[{i}]: fd={fd} an={}", dx[i]);
        }
        let mut lp = l.clone();
        lp.raw_mut()[3] += h;
        lp.refresh();
        let mut lm = l.clone();
        lm.raw_mut()[3] -= h;
        lm.refresh();
        let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
        assert!((fd - grads.d_raw.as_slice()[3]).abs() < 1e-2);
    }

    #[test]
    fn psn_layer_alpha_controls_spectral_norm() {
        use errflow_tensor::spectral::svd_spectral_norm;
        let l = dense_layer(5).with_psn(9);
        let alpha = l.alpha().unwrap() as f64;
        let sigma = svd_spectral_norm(l.weights());
        assert!((sigma - alpha).abs() < 1e-2 * alpha.max(1.0));
    }

    #[test]
    fn with_weights_swaps_and_freezes() {
        let l = dense_layer(6).with_psn(10);
        let new_w = Matrix::filled(3, 4, 0.25);
        let frozen = l.with_weights(new_w.clone());
        assert_eq!(frozen.weights(), &new_w);
        assert!(!frozen.has_psn());
    }

    #[test]
    fn replication_factors() {
        let l = dense_layer(7);
        assert_eq!(l.replication(), 1.0);
        let mut rng = StdRng::seed_from_u64(8);
        let conv = Layer::conv(
            init::he_uniform(2, 9, &mut rng),
            vec![0.0; 2],
            Activation::Relu,
            ConvSpec::square(3, 1, 1),
            MapShape::new(1, 4, 4),
        );
        assert_eq!(conv.replication(), 3.0); // √9
        let strided = Layer::conv(
            init::he_uniform(2, 9, &mut rng),
            vec![0.0; 2],
            Activation::Relu,
            ConvSpec::square(3, 2, 1),
            MapShape::new(1, 8, 8),
        );
        assert_eq!(strided.replication(), 2.0); // √(⌈3/2⌉²) = 2
    }

    #[test]
    fn flops_counts() {
        let l = dense_layer(9);
        assert_eq!(l.flops(), 2.0 * 3.0 * 4.0);
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let l = dense_layer(10);
        let x = vec![1.0f32, 0.0, 0.0, 0.0];
        let (y, cache) = l.forward_cached(&x);
        let (_, g1) = l.backward(&cache, &y);
        let mut acc = LayerGrads::zeros_like(&l);
        acc.accumulate(&g1);
        acc.accumulate(&g1);
        acc.scale(0.5);
        for (a, b) in acc.d_raw.as_slice().iter().zip(g1.d_raw.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}

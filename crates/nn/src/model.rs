//! Model architectures and the *block view* the error-flow core consumes.
//!
//! The paper's Eq. (1) describes an `L`-layer residual building block
//! `y = F(x, {W}) + W_s x`, with MLPs as the `W_s = 0` special case.  Both
//! model types here ([`Mlp`] and the compact ResNet [`ConvNet`]) expose
//! their structure as a sequence of [`BlockView`]s matching that equation,
//! which is the only interface `errflow-core` needs to evaluate the bounds.

use crate::activation::Activation;
use crate::layer::{Layer, LayerCache, LayerGrads};
use errflow_tensor::conv::{global_avg_pool, ConvSpec, MapShape};
use errflow_tensor::rng::StdRng;
use errflow_tensor::{init, Matrix};

/// Read-only view of one linear/conv layer inside a block.
#[derive(Debug, Clone, Copy)]
pub struct LayerView<'a> {
    /// Effective weight matrix (PSN-normalised when PSN is on).  For conv
    /// layers this is the im2col-lowered matrix `(out_ch, in_ch·kh·kw)`.
    pub weights: &'a Matrix,
    /// Activation applied after the linear map.
    pub activation: Activation,
    /// √(patch multiplicity) of the im2col lowering (1 for dense layers).
    pub replication: f64,
    /// Number of scalar inputs to the layer.
    pub in_elems: usize,
    /// Number of scalar outputs of the layer.
    pub out_elems: usize,
}

/// Read-only view of a block's shortcut path (`W_s` in Eq. 1).
#[derive(Debug, Clone, Copy)]
pub enum ShortcutView<'a> {
    /// No shortcut (`W_s = 0`) — plain feed-forward; σ_s = 0.
    None,
    /// Identity shortcut — σ_s = 1.
    Identity,
    /// Linear projection shortcut with the given matrix.
    Projection(&'a Matrix),
}

/// Read-only view of one residual building block (Eq. 1).
#[derive(Debug, Clone)]
pub struct BlockView<'a> {
    /// The layers of the residual branch `F`, in order.
    pub layers: Vec<LayerView<'a>>,
    /// The shortcut path.
    pub shortcut: ShortcutView<'a>,
    /// Operator norm of any fixed (weight-free, never-quantized) linear map
    /// applied after the block — e.g. global average pooling contributes
    /// `1/√(h·w)`.  `1.0` when there is none.
    pub output_scale: f64,
}

/// A model's weight matrices packed once into the GEMM kernel's panel
/// layout (see [`errflow_tensor::gemm::PackedB`]).
///
/// Produced by [`Model::pack_weights`] and consumed by
/// [`Model::forward_batch_matrix`]: the serving layer packs each plan-cache
/// entry's quantized weights at insert time, so cache hits never re-pack.
pub struct PackedWeights {
    layers: Vec<errflow_tensor::gemm::PackedB>,
}

impl PackedWeights {
    /// Packed panels for layer `i`, in [`Mlp::layers`] order.
    pub fn layer(&self, i: usize) -> Option<&errflow_tensor::gemm::PackedB> {
        self.layers.get(i)
    }

    /// Extra bytes held by the panel buffers (for cache accounting).
    pub fn packed_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(errflow_tensor::gemm::PackedB::packed_bytes)
            .sum()
    }
}

/// Common interface over the paper's model families.
pub trait Model {
    /// Runs inference on a single input.
    fn forward(&self, x: &[f32]) -> Vec<f32>;

    /// Runs inference on a batch of inputs.
    ///
    /// The default loops [`Model::forward`]; architectures whose layers
    /// lower to GEMM (e.g. [`Mlp`]) override it with a single batched
    /// matrix-matrix pass per layer, which is what the serving layer's
    /// request batcher relies on for throughput.
    fn forward_batch(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        xs.iter().map(|x| self.forward(x)).collect()
    }

    /// Packs the weight matrices for [`Model::forward_batch_matrix`].
    ///
    /// Returns `None` (the default) when the architecture has no batched
    /// GEMM path to feed — callers then run unpacked.
    fn pack_weights(&self) -> Option<PackedWeights> {
        None
    }

    /// Batched forward over a row-stacked input matrix (one sample per
    /// row), optionally reusing weights packed by [`Model::pack_weights`].
    ///
    /// This is the zero-copy serving entry point: the batcher decodes
    /// payloads straight into the input matrix's row slabs and hands the
    /// whole slab here without the per-sample `Vec` round trip.  The
    /// default routes through [`Model::forward_batch`]; GEMM-lowered
    /// architectures override it to stay in matrix form end to end.
    fn forward_batch_matrix(&self, x: &Matrix, _packed: Option<&PackedWeights>) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
        let outs = self.forward_batch(&rows);
        // audit:allow(panic-reach) per-sample outputs all have the model's output_dim
        Matrix::from_rows(&outs).expect("batch outputs share the output dim")
    }

    /// Number of scalar inputs (`n_0` in the paper).
    fn input_dim(&self) -> usize;

    /// Number of scalar outputs (the QoI dimension).
    fn output_dim(&self) -> usize;

    /// Structural decomposition into residual building blocks.
    fn blocks(&self) -> Vec<BlockView<'_>>;

    /// Forward-pass FLOPs per sample.
    fn flops(&self) -> f64;

    /// Total trainable parameter count.
    fn num_params(&self) -> usize;

    /// Returns a copy of the model with every weight matrix transformed by
    /// `f` (weights only — biases are kept in full precision, matching the
    /// paper's weight-only quantization).  The copy is frozen: PSN state is
    /// dropped because the transformed weights are a deployment artifact.
    fn map_weights(&self, f: &mut dyn FnMut(&Matrix) -> Matrix) -> Self
    where
        Self: Sized;

    /// L2 norms of the *inputs* to each layer during a forward pass on `x`,
    /// flattened in the same order as [`Model::blocks`] flattens layers.
    ///
    /// Used by the calibrated-magnitude bound extension: the worst-case
    /// activation bound `√n₀·Πσ̃` can be replaced by measured magnitudes
    /// (times a safety factor), tightening the quantization injections.
    fn layer_input_magnitudes(&self, x: &[f32]) -> Vec<f64>;
}

// ---------------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------------

/// A multi-layer perceptron — the architecture of the H2-combustion network
/// (2 hidden layers × 50 neurons, Tanh) and the Borghesi-flame network
/// (8 hidden layers, ReLU-family).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[9, 50, 50, 9]`.
    ///
    /// Hidden layers use `hidden_act`; the final layer uses `output_act`
    /// (usually [`Activation::Identity`] for regression QoIs).  When
    /// `psn_seed` is `Some`, every layer is wrapped in parameterized
    /// spectral normalization.
    pub fn new(
        dims: &[usize],
        hidden_act: Activation,
        output_act: Activation,
        seed: u64,
        psn_seed: Option<u64>,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let (fan_out, fan_in) = (dims[i + 1], dims[i]);
            let act = if i + 2 == dims.len() {
                output_act
            } else {
                hidden_act
            };
            let w = match act {
                Activation::Tanh => init::xavier_uniform(fan_out, fan_in, &mut rng),
                _ => init::he_uniform(fan_out, fan_in, &mut rng),
            };
            let mut layer = Layer::dense(w, vec![0.0; fan_out], act);
            if let Some(ps) = psn_seed {
                layer = layer.with_psn(ps.wrapping_add(i as u64));
            }
            layers.push(layer);
        }
        Mlp { layers }
    }

    /// Wraps pre-built layers (all must be dense).
    pub fn from_layers(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty());
        Mlp { layers }
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// `true` when every layer lowers to a dense GEMM.
    fn all_dense(&self) -> bool {
        self.layers
            .iter()
            .all(|l| matches!(l.kind(), crate::layer::LayerKind::Dense))
    }

    /// Mutable layer access (for the optimiser).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Forward pass caching per-layer state for [`Mlp::backward`].
    pub fn forward_cached(&self, x: &[f32]) -> (Vec<f32>, Vec<LayerCache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut h = x.to_vec();
        for layer in &self.layers {
            let (next, cache) = layer.forward_cached(&h);
            caches.push(cache);
            h = next;
        }
        (h, caches)
    }

    /// Backward pass from `∂L/∂y`; returns per-layer gradients (same order
    /// as [`Mlp::layers`]).
    pub fn backward(&self, caches: &[LayerCache], d_out: &[f32]) -> Vec<LayerGrads> {
        let mut grads: Vec<Option<LayerGrads>> = (0..self.layers.len()).map(|_| None).collect();
        let mut d = d_out.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (d_in, g) = layer.backward(&caches[i], &d);
            grads[i] = Some(g);
            d = d_in;
        }
        // audit:allow(panic-reach) layer grads accumulate over identical architectures
        grads.into_iter().map(|g| g.expect("filled")).collect()
    }
}

impl Model for Mlp {
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut h = x.to_vec();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Batched forward as one GEMM per layer: `H ← act(H·Wᵀ + b)` with the
    /// batch stacked row-wise.  Falls back to the per-sample loop if any
    /// layer is not dense.
    ///
    /// Delegates to [`Model::forward_batch_matrix`] (unpacked), so both
    /// entry points share one GEMM pipeline.
    fn forward_batch(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        if xs.is_empty() {
            return Vec::new();
        }
        if !self.all_dense() {
            return xs.iter().map(|x| self.forward(x)).collect();
        }
        // audit:allow(panic-reach) forward output length is the next layer's input contract
        let h = Matrix::from_rows(xs).expect("batch rows share the input dim");
        let out = self.forward_batch_matrix(&h, None);
        (0..out.rows()).map(|r| out.row(r).to_vec()).collect()
    }

    /// One [`PackedB`](errflow_tensor::gemm::PackedB) per dense layer,
    /// packed through the same transposed layout `matmul_transb` uses, so
    /// packed and unpacked products are bitwise identical.
    fn pack_weights(&self) -> Option<PackedWeights> {
        if !self.all_dense() {
            return None;
        }
        Some(PackedWeights {
            layers: self
                .layers
                .iter()
                .map(|l| {
                    let w = l.weights();
                    errflow_tensor::gemm::PackedB::pack_transb(w.as_slice(), w.cols(), w.rows())
                })
                .collect(),
        })
    }

    /// `H ← act(H·Wᵀ + b)` per layer, staying in matrix form end to end;
    /// layers whose panels are in `packed` skip the per-call `B` pack.
    fn forward_batch_matrix(&self, x: &Matrix, packed: Option<&PackedWeights>) -> Matrix {
        if !self.all_dense() {
            let rows: Vec<Vec<f32>> = (0..x.rows()).map(|r| x.row(r).to_vec()).collect();
            let outs: Vec<Vec<f32>> = rows.iter().map(|r| self.forward(r)).collect();
            // audit:allow(panic-reach) batch rows share the model input_dim, checked at entry
            return Matrix::from_rows(&outs).expect("batch outputs share the output dim");
        }
        let mut h: Option<Matrix> = None;
        for (li, layer) in self.layers.iter().enumerate() {
            let cur = h.as_ref().unwrap_or(x);
            let mut z = match packed.and_then(|p| p.layer(li)) {
                Some(pb) => cur
                    .matmul_transb_prepacked(pb)
                    // audit:allow(panic-reach) matmul dims follow from the layer chain's validated shapes
                    .expect("packed panels match the layer weights"),
                None => cur
                    .matmul_transb(layer.weights())
                    // audit:allow(panic-reach) bias length equals the layer's output rows by construction
                    .expect("batch/weight dims agree"),
            };
            for r in 0..z.rows() {
                layer.activation().bias_act(z.row_mut(r), layer.bias());
            }
            h = Some(z);
        }
        h.unwrap_or_else(|| Matrix::zeros(x.rows(), self.output_dim()))
    }

    fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    fn output_dim(&self) -> usize {
        // audit:allow(panic-reach) models are non-empty by construction (validated in new)
        self.layers.last().expect("nonempty").out_dim()
    }

    fn blocks(&self) -> Vec<BlockView<'_>> {
        // An MLP is one residual block with W_s = 0 (paper §III-A).
        vec![BlockView {
            layers: self.layers.iter().map(layer_view).collect(),
            shortcut: ShortcutView::None,
            output_scale: 1.0,
        }]
    }

    fn flops(&self) -> f64 {
        self.layers.iter().map(Layer::flops).sum()
    }

    fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights().len() + l.bias().len())
            .sum()
    }

    fn map_weights(&self, f: &mut dyn FnMut(&Matrix) -> Matrix) -> Self {
        Mlp {
            layers: self
                .layers
                .iter()
                .map(|l| l.with_weights(f(l.weights())))
                .collect(),
        }
    }

    fn layer_input_magnitudes(&self, x: &[f32]) -> Vec<f64> {
        let mut mags = Vec::with_capacity(self.layers.len());
        let mut h = x.to_vec();
        for layer in &self.layers {
            mags.push(errflow_tensor::norms::l2(&h));
            h = layer.forward(&h);
        }
        mags
    }
}

fn layer_view(layer: &Layer) -> LayerView<'_> {
    LayerView {
        weights: layer.weights(),
        activation: layer.activation(),
        replication: layer.replication(),
        in_elems: layer.in_dim(),
        out_elems: layer.out_dim(),
    }
}

// ---------------------------------------------------------------------------
// ConvNet (compact ResNet)
// ---------------------------------------------------------------------------

/// One identity-shortcut residual block: `y = φ(conv₂(φ(conv₁(x))) + x)`.
#[derive(Debug, Clone)]
struct ResBlock {
    conv1: Layer,
    conv2: Layer,
    post_act: Activation,
}

/// Cache for one residual block's backward pass.
#[derive(Debug, Clone)]
pub struct ResBlockCache {
    c1: LayerCache,
    c2: LayerCache,
    pre_sum: Vec<f32>,
}

/// A compact ResNet for image classification: stem conv → residual blocks →
/// global average pooling → dense head.
///
/// This is the EuroSAT-workload stand-in (DESIGN.md §3, substitution 2): the
/// same structural elements as ResNet-18 (3×3 convs, identity shortcuts,
/// GAP, linear classifier head) at a CPU-trainable scale.
#[derive(Debug, Clone)]
pub struct ConvNet {
    input_shape: MapShape,
    stem: Layer,
    blocks: Vec<ResBlock>,
    head: Layer,
    feature_shape: MapShape,
}

/// Full forward cache of a [`ConvNet`].
#[derive(Debug, Clone)]
pub struct ConvNetCache {
    stem: LayerCache,
    blocks: Vec<ResBlockCache>,
    gap_input_len: usize,
    head: LayerCache,
}

impl ConvNet {
    /// Builds a compact ResNet.
    ///
    /// * `input_shape` — e.g. 13 spectral bands × 16×16 pixels.
    /// * `stem_channels` — width of the stem conv (kept through the blocks).
    /// * `num_blocks` — number of identity-shortcut residual blocks.
    /// * `num_classes` — output dimension of the dense head.
    pub fn new(
        input_shape: MapShape,
        stem_channels: usize,
        num_blocks: usize,
        num_classes: usize,
        act: Activation,
        seed: u64,
        psn_seed: Option<u64>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = ConvSpec::square(3, 1, 1);
        let maybe_psn = |layer: Layer, idx: u64| -> Layer {
            match psn_seed {
                Some(ps) => layer.with_psn(ps.wrapping_add(idx)),
                None => layer,
            }
        };
        let stem_w = init::he_uniform(stem_channels, input_shape.channels * 9, &mut rng);
        let stem = maybe_psn(
            Layer::conv(stem_w, vec![0.0; stem_channels], act, spec, input_shape),
            0,
        );
        let feature_shape = MapShape::new(stem_channels, input_shape.height, input_shape.width);
        let mut blocks = Vec::with_capacity(num_blocks);
        for b in 0..num_blocks {
            let w1 = init::he_uniform(stem_channels, stem_channels * 9, &mut rng);
            let w2 = init::he_uniform(stem_channels, stem_channels * 9, &mut rng);
            let conv1 = maybe_psn(
                Layer::conv(w1, vec![0.0; stem_channels], act, spec, feature_shape),
                (2 * b + 1) as u64,
            );
            // conv2 is Identity-activated: the nonlinearity applies post-sum.
            let conv2 = maybe_psn(
                Layer::conv(
                    w2,
                    vec![0.0; stem_channels],
                    Activation::Identity,
                    spec,
                    feature_shape,
                ),
                (2 * b + 2) as u64,
            );
            blocks.push(ResBlock {
                conv1,
                conv2,
                post_act: act,
            });
        }
        let head_w = init::he_uniform(num_classes, stem_channels, &mut rng);
        let head = maybe_psn(
            Layer::dense(head_w, vec![0.0; num_classes], Activation::Identity),
            (2 * num_blocks + 1) as u64,
        );
        ConvNet {
            input_shape,
            stem,
            blocks,
            head,
            feature_shape,
        }
    }

    /// Input feature-map shape.
    pub fn input_shape(&self) -> MapShape {
        self.input_shape
    }

    /// Width (channel count) of the stem and residual blocks.
    pub fn feature_channels(&self) -> usize {
        self.feature_shape.channels
    }

    /// The post-block / hidden activation.
    pub fn activation(&self) -> Activation {
        self.blocks
            .first()
            .map(|b| b.post_act)
            .unwrap_or_else(|| self.stem.activation())
    }

    /// Number of residual blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Forward pass with full caching for [`ConvNet::backward`].
    pub fn forward_cached(&self, x: &[f32]) -> (Vec<f32>, ConvNetCache) {
        let (mut h, stem_cache) = self.stem.forward_cached(x);
        let mut block_caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (a, c1) = block.conv1.forward_cached(&h);
            let (f, c2) = block.conv2.forward_cached(&a);
            let pre_sum: Vec<f32> = f.iter().zip(&h).map(|(&fi, &xi)| fi + xi).collect();
            let mut y = pre_sum.clone();
            block.post_act.apply_slice(&mut y);
            block_caches.push(ResBlockCache { c1, c2, pre_sum });
            h = y;
        }
        let gap_input_len = h.len();
        let pooled = global_avg_pool(&h, self.feature_shape);
        let (out, head_cache) = self.head.forward_cached(&pooled);
        (
            out,
            ConvNetCache {
                stem: stem_cache,
                blocks: block_caches,
                gap_input_len,
                head: head_cache,
            },
        )
    }

    /// Backward pass; returns gradients in parameter order
    /// `[stem, block0.conv1, block0.conv2, ..., head]`.
    pub fn backward(&self, cache: &ConvNetCache, d_out: &[f32]) -> Vec<LayerGrads> {
        let (d_pooled, head_grads) = self.head.backward(&cache.head, d_out);
        // GAP backward: each spatial location gets d/hw.
        let hw = self.feature_shape.height * self.feature_shape.width;
        let mut d_h = vec![0.0f32; cache.gap_input_len];
        for c in 0..self.feature_shape.channels {
            let g = d_pooled[c] / hw as f32;
            for v in &mut d_h[c * hw..(c + 1) * hw] {
                *v = g;
            }
        }
        let mut rev_block_grads: Vec<(LayerGrads, LayerGrads)> = Vec::new();
        for (block, bc) in self.blocks.iter().zip(&cache.blocks).rev() {
            // d(pre_sum) = d_y ⊙ φ′(pre_sum)
            let d_s: Vec<f32> = d_h
                .iter()
                .zip(&bc.pre_sum)
                .map(|(&g, &z)| g * block.post_act.derivative(z))
                .collect();
            let (d_a, g2) = block.conv2.backward(&bc.c2, &d_s);
            let (d_x_path, g1) = block.conv1.backward(&bc.c1, &d_a);
            // Shortcut adds d_s directly to the input gradient.
            d_h = d_x_path.iter().zip(&d_s).map(|(&a, &b)| a + b).collect();
            rev_block_grads.push((g1, g2));
        }
        let (_, stem_grads) = self.stem.backward(&cache.stem, &d_h);
        let mut grads = Vec::with_capacity(2 + 2 * self.blocks.len());
        grads.push(stem_grads);
        for (g1, g2) in rev_block_grads.into_iter().rev() {
            grads.push(g1);
            grads.push(g2);
        }
        grads.push(head_grads);
        grads
    }

    /// All trainable layers in parameter order (matching
    /// [`ConvNet::backward`]'s gradient order).
    pub fn layers_mut(&mut self) -> Vec<&mut Layer> {
        let mut v: Vec<&mut Layer> = Vec::with_capacity(2 + 2 * self.blocks.len());
        v.push(&mut self.stem);
        for b in &mut self.blocks {
            v.push(&mut b.conv1);
            v.push(&mut b.conv2);
        }
        v.push(&mut self.head);
        v
    }

    /// All layers, immutable, in parameter order.
    pub fn layers(&self) -> Vec<&Layer> {
        let mut v: Vec<&Layer> = Vec::with_capacity(2 + 2 * self.blocks.len());
        v.push(&self.stem);
        for b in &self.blocks {
            v.push(&b.conv1);
            v.push(&b.conv2);
        }
        v.push(&self.head);
        v
    }
}

impl Model for ConvNet {
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.forward_cached(x).0
    }

    fn input_dim(&self) -> usize {
        self.input_shape.len()
    }

    fn output_dim(&self) -> usize {
        self.head.out_dim()
    }

    fn blocks(&self) -> Vec<BlockView<'_>> {
        let mut views = Vec::with_capacity(2 + self.blocks.len());
        views.push(BlockView {
            layers: vec![layer_view(&self.stem)],
            shortcut: ShortcutView::None,
            output_scale: 1.0,
        });
        for (i, b) in self.blocks.iter().enumerate() {
            let last = i + 1 == self.blocks.len();
            // GAP follows the final block; its exact operator norm is
            // 1/√(h·w) per channel.
            let output_scale = if last {
                1.0 / ((self.feature_shape.height * self.feature_shape.width) as f64).sqrt()
            } else {
                1.0
            };
            views.push(BlockView {
                layers: vec![layer_view(&b.conv1), layer_view(&b.conv2)],
                shortcut: ShortcutView::Identity,
                output_scale,
            });
        }
        views.push(BlockView {
            layers: vec![layer_view(&self.head)],
            shortcut: ShortcutView::None,
            output_scale: 1.0,
        });
        views
    }

    fn flops(&self) -> f64 {
        self.layers().iter().map(|l| l.flops()).sum()
    }

    fn num_params(&self) -> usize {
        self.layers()
            .iter()
            .map(|l| l.weights().len() + l.bias().len())
            .sum()
    }

    fn layer_input_magnitudes(&self, x: &[f32]) -> Vec<f64> {
        use errflow_tensor::norms::l2;
        let mut mags = Vec::with_capacity(2 + 2 * self.blocks.len());
        mags.push(l2(x));
        let mut h = self.stem.forward(x);
        for block in &self.blocks {
            mags.push(l2(&h)); // conv1 input = block input
            let a = block.conv1.forward(&h);
            mags.push(l2(&a)); // conv2 input
            let f = block.conv2.forward(&a);
            let mut y: Vec<f32> = f.iter().zip(&h).map(|(&fi, &xi)| fi + xi).collect();
            block.post_act.apply_slice(&mut y);
            h = y;
        }
        let pooled = global_avg_pool(&h, self.feature_shape);
        mags.push(l2(&pooled)); // head input
        mags
    }

    fn map_weights(&self, f: &mut dyn FnMut(&Matrix) -> Matrix) -> Self {
        ConvNet {
            input_shape: self.input_shape,
            stem: self.stem.with_weights(f(self.stem.weights())),
            blocks: self
                .blocks
                .iter()
                .map(|b| ResBlock {
                    conv1: b.conv1.with_weights(f(b.conv1.weights())),
                    conv2: b.conv2.with_weights(f(b.conv2.weights())),
                    post_act: b.post_act,
                })
                .collect(),
            head: self.head.with_weights(f(self.head.weights())),
            feature_shape: self.feature_shape,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use errflow_tensor::norms::l2;

    fn small_mlp() -> Mlp {
        Mlp::new(
            &[4, 8, 8, 3],
            Activation::Tanh,
            Activation::Identity,
            1,
            None,
        )
    }

    #[test]
    fn mlp_shapes() {
        let m = small_mlp();
        assert_eq!(m.input_dim(), 4);
        assert_eq!(m.output_dim(), 3);
        assert_eq!(m.forward(&[0.1, 0.2, 0.3, 0.4]).len(), 3);
        assert_eq!(m.flops(), 2.0 * (8. * 4. + 8. * 8. + 3. * 8.));
        assert_eq!(m.num_params(), 8 * 4 + 8 + 8 * 8 + 8 + 3 * 8 + 3);
    }

    #[test]
    fn mlp_block_view_is_single_block_no_shortcut() {
        let m = small_mlp();
        let blocks = m.blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].layers.len(), 3);
        assert!(matches!(blocks[0].shortcut, ShortcutView::None));
    }

    #[test]
    fn mlp_backward_matches_finite_differences() {
        let m = small_mlp();
        let x = vec![0.2f32, -0.4, 0.6, -0.8];
        let (y, caches) = m.forward_cached(&x);
        let grads = m.backward(&caches, &y); // L = ½Σy²
        let loss = |model: &Mlp, input: &[f32]| -> f32 {
            model.forward(input).iter().map(|&v| 0.5 * v * v).sum()
        };
        let h = 1e-3f32;
        // Check a weight in each layer.
        for li in 0..3 {
            let mut mp = m.clone();
            mp.layers_mut()[li].raw_mut()[0] += h;
            mp.layers_mut()[li].refresh();
            let mut mm = m.clone();
            mm.layers_mut()[li].raw_mut()[0] -= h;
            mm.layers_mut()[li].refresh();
            let fd = (loss(&mp, &x) - loss(&mm, &x)) / (2.0 * h);
            let an = grads[li].d_raw.as_slice()[0];
            assert!(
                (fd - an).abs() < 2e-2 * fd.abs().max(1.0),
                "layer {li}: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn mlp_map_weights_quantizes_all_layers() {
        let m = small_mlp();
        let zeroed = m.map_weights(&mut |_w| Matrix::zeros(_w.rows(), _w.cols()));
        let y = zeroed.forward(&[1.0, 1.0, 1.0, 1.0]);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn psn_mlp_layers_have_alpha() {
        let m = Mlp::new(
            &[4, 8, 3],
            Activation::Relu,
            Activation::Identity,
            2,
            Some(100),
        );
        assert!(m.layers().iter().all(|l| l.alpha().is_some()));
    }

    fn small_convnet() -> ConvNet {
        ConvNet::new(MapShape::new(2, 6, 6), 4, 2, 3, Activation::Relu, 7, None)
    }

    #[test]
    fn convnet_shapes() {
        let m = small_convnet();
        assert_eq!(m.input_dim(), 72);
        assert_eq!(m.output_dim(), 3);
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<f32> = (0..72).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert_eq!(m.forward(&x).len(), 3);
    }

    #[test]
    fn convnet_block_views() {
        let m = small_convnet();
        let blocks = m.blocks();
        // stem + 2 residual + head
        assert_eq!(blocks.len(), 4);
        assert!(matches!(blocks[0].shortcut, ShortcutView::None));
        assert!(matches!(blocks[1].shortcut, ShortcutView::Identity));
        assert_eq!(blocks[1].layers.len(), 2);
        // GAP scale on the last residual block.
        assert!((blocks[2].output_scale - 1.0 / 6.0).abs() < 1e-12);
        assert!(matches!(blocks[3].shortcut, ShortcutView::None));
    }

    #[test]
    fn convnet_backward_matches_finite_differences() {
        let m = small_convnet();
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<f32> = (0..72).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let (y, cache) = m.forward_cached(&x);
        let grads = m.backward(&cache, &y);
        assert_eq!(grads.len(), 6); // stem + 2*2 + head
        let loss = |model: &ConvNet, input: &[f32]| -> f32 {
            model.forward(input).iter().map(|&v| 0.5 * v * v).sum()
        };
        let h = 1e-2f32;
        // Head weight check (index 5 in grad order).
        let mut mp = m.clone();
        mp.layers_mut()[5].raw_mut()[0] += h;
        mp.layers_mut()[5].refresh();
        let mut mm = m.clone();
        mm.layers_mut()[5].raw_mut()[0] -= h;
        mm.layers_mut()[5].refresh();
        let fd = (loss(&mp, &x) - loss(&mm, &x)) / (2.0 * h);
        let an = grads[5].d_raw.as_slice()[0];
        assert!(
            (fd - an).abs() < 5e-2 * fd.abs().max(1.0),
            "head: fd={fd} an={an}"
        );
        // Stem weight check.
        let mut sp = m.clone();
        sp.layers_mut()[0].raw_mut()[0] += h;
        sp.layers_mut()[0].refresh();
        let mut sm = m.clone();
        sm.layers_mut()[0].raw_mut()[0] -= h;
        sm.layers_mut()[0].refresh();
        let fd = (loss(&sp, &x) - loss(&sm, &x)) / (2.0 * h);
        let an = grads[0].d_raw.as_slice()[0];
        assert!(
            (fd - an).abs() < 5e-2 * fd.abs().max(0.1),
            "stem: fd={fd} an={an}"
        );
    }

    #[test]
    fn convnet_residual_identity_path_works() {
        // Zero the residual-branch weights: blocks become (post-activated)
        // identity, so the network output depends only on stem + head.
        let m = small_convnet();
        let mut idx = 0usize;
        let zeroed = m.map_weights(&mut |w| {
            let is_block_layer = idx >= 1 && idx <= 4;
            idx += 1;
            if is_block_layer {
                Matrix::zeros(w.rows(), w.cols())
            } else {
                w.clone()
            }
        });
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<f32> = (0..72).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y = zeroed.forward(&x);
        assert_eq!(y.len(), 3);
        assert!(l2(&y) > 0.0, "identity path must carry signal");
    }

    #[test]
    fn convnet_flops_positive_and_dominated_by_convs() {
        let m = small_convnet();
        assert!(m.flops() > m.layers()[5].flops() * 10.0);
    }

    #[test]
    fn mlp_forward_batch_matches_per_sample() {
        let m = Mlp::new(
            &[7, 24, 24, 5],
            Activation::PRelu(0.25),
            Activation::Identity,
            13,
            None,
        );
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<Vec<f32>> = (0..9)
            .map(|_| (0..7).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let batched = m.forward_batch(&xs);
        assert_eq!(batched.len(), xs.len());
        for (x, yb) in xs.iter().zip(&batched) {
            let y = m.forward(x);
            assert_eq!(y.len(), yb.len());
            for (a, b) in y.iter().zip(yb) {
                assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
        assert!(m.forward_batch(&[]).is_empty());
    }

    #[test]
    fn mlp_forward_batch_matrix_packed_bitwise_matches_unpacked() {
        let m = Mlp::new(
            &[6, 40, 40, 4],
            Activation::Tanh,
            Activation::Identity,
            31,
            None,
        );
        let mut rng = StdRng::seed_from_u64(6);
        for batch in [1usize, 9, 300] {
            let x = Matrix::from_fn(batch, 6, |_, _| rng.gen_range(-1.0f32..1.0));
            let unpacked = m.forward_batch_matrix(&x, None);
            let packed = m.pack_weights().expect("dense MLP packs");
            assert!(packed.packed_bytes() > 0);
            let got = m.forward_batch_matrix(&x, Some(&packed));
            assert_eq!(got, unpacked, "batch={batch}");
            // And both agree with the row-vector entry point.
            let rows: Vec<Vec<f32>> = (0..batch).map(|r| x.row(r).to_vec()).collect();
            let via_rows = m.forward_batch(&rows);
            for (r, want) in via_rows.iter().enumerate() {
                assert_eq!(got.row(r), want.as_slice(), "batch={batch} row={r}");
            }
        }
    }

    #[test]
    fn convnet_pack_weights_is_none_and_matrix_path_falls_back() {
        let m = small_convnet();
        assert!(m.pack_weights().is_none());
        let mut rng = StdRng::seed_from_u64(8);
        let x = Matrix::from_fn(3, 72, |_, _| rng.gen_range(0.0f32..1.0));
        let out = m.forward_batch_matrix(&x, None);
        assert_eq!(out.shape(), (3, 3));
        for r in 0..3 {
            assert_eq!(out.row(r), m.forward(x.row(r)).as_slice());
        }
    }

    #[test]
    fn convnet_forward_batch_falls_back_to_per_sample() {
        let m = small_convnet();
        let mut rng = StdRng::seed_from_u64(5);
        let xs: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..72).map(|_| rng.gen_range(0.0f32..1.0)).collect())
            .collect();
        let batched = m.forward_batch(&xs);
        for (x, yb) in xs.iter().zip(&batched) {
            assert_eq!(&m.forward(x), yb);
        }
    }
}

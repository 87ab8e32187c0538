//! Training loop with the paper's three regularisation modes.
//!
//! Figs. 3–4 compare error bounds for networks trained three ways:
//! *parameterized spectral normalization* (the paper's method, with the
//! squared-sum spectral penalty `λ Σ α_l²` added to the loss), the plain
//! *baseline*, and *baseline w. weight decay*.  [`Regularizer`] selects the
//! mode; [`train_mlp`] / [`train_convnet`] run mini-batch training with
//! manual backprop and one of the [`crate::optim`] optimisers.

use crate::layer::{Layer, LayerGrads};
use crate::loss::Loss;
use crate::model::{ConvNet, Mlp};
use crate::optim::{Adam, Optimizer, Sgd};
use errflow_tensor::rng::SliceRandom;
use errflow_tensor::rng::StdRng;

/// An in-memory supervised dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Input vectors (normalized to `[-1, 1]` per the paper's preprocessing).
    pub inputs: Vec<Vec<f32>>,
    /// Target vectors (one-hot for classification).
    pub targets: Vec<Vec<f32>>,
}

impl Dataset {
    /// Creates a dataset; inputs and targets must be the same length.
    pub fn new(inputs: Vec<Vec<f32>>, targets: Vec<Vec<f32>>) -> Self {
        assert_eq!(inputs.len(), targets.len(), "inputs/targets must pair up");
        Dataset { inputs, targets }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Splits off the last `fraction` of samples as a held-out set.
    pub fn split(mut self, fraction: f64) -> (Dataset, Dataset) {
        let keep = ((self.len() as f64) * (1.0 - fraction)).round() as usize;
        let test_in = self.inputs.split_off(keep);
        let test_t = self.targets.split_off(keep);
        (self, Dataset::new(test_in, test_t))
    }
}

/// Training-time regularisation mode (the paper's Figs. 3–4 comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regularizer {
    /// Plain training — the "baseline" curves.
    None,
    /// Decoupled weight decay with the given coefficient — the
    /// "baseline w. weight decay" curves.
    WeightDecay(f32),
    /// PSN spectral penalty `λ Σ_l α_l²` — requires a PSN-enabled model.
    SpectralPenalty(f32),
}

/// Which optimiser to construct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with the given momentum (the paper's H2/EuroSAT setting).
    Sgd {
        /// Classical momentum coefficient (0 disables momentum).
        momentum: f32,
    },
    /// Adam (the paper's Borghesi-flame setting).
    Adam,
}

/// Hyper-parameters for a training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Optimiser selection.
    pub optimizer: OptimizerKind,
    /// Loss function.
    pub loss: Loss,
    /// Regularisation mode.
    pub regularizer: Regularizer,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 0.05,
            optimizer: OptimizerKind::Sgd { momentum: 0.9 },
            loss: Loss::Mse,
            regularizer: Regularizer::None,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub loss_history: Vec<f64>,
}

fn build_optimizer(cfg: &TrainConfig) -> Box<dyn Optimizer> {
    let wd = match cfg.regularizer {
        Regularizer::WeightDecay(wd) => wd,
        _ => 0.0,
    };
    match cfg.optimizer {
        OptimizerKind::Sgd { momentum } => Box::new(
            Sgd::new(cfg.lr)
                .with_momentum(momentum)
                .with_weight_decay(wd),
        ),
        OptimizerKind::Adam => Box::new(Adam::new(cfg.lr).with_weight_decay(wd)),
    }
}

/// Applies one optimiser step to a set of layers given accumulated grads,
/// injecting the spectral penalty's `2λα` term, then refreshes the layers'
/// effective weights.
fn apply_step(
    layers: &mut [&mut Layer],
    grads: &[LayerGrads],
    opt: &mut dyn Optimizer,
    spectral_lambda: f32,
) {
    assert_eq!(layers.len(), grads.len());
    for (i, (layer, grad)) in layers.iter_mut().zip(grads).enumerate() {
        opt.step(3 * i, layer.raw_mut(), grad.d_raw.as_slice());
        opt.step(3 * i + 1, layer.bias_mut(), &grad.d_bias);
        if let Some(alpha) = layer.alpha_mut() {
            let d_alpha = grad.d_alpha + 2.0 * spectral_lambda * *alpha;
            let mut slot = [*alpha];
            opt.step(3 * i + 2, &mut slot, &[d_alpha]);
            *alpha = slot[0];
        }
        layer.refresh();
    }
}

fn shuffled_indices(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx
}

/// Trains an [`Mlp`] in place; returns the per-epoch loss history.
pub fn train_mlp(model: &mut Mlp, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut opt = build_optimizer(cfg);
    let lambda = match cfg.regularizer {
        Regularizer::SpectralPenalty(l) => l,
        _ => 0.0,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut history = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        let order = shuffled_indices(data.len(), &mut rng);
        let mut epoch_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let mut acc: Vec<LayerGrads> =
                model.layers().iter().map(LayerGrads::zeros_like).collect();
            for &s in chunk {
                let (y, caches) = model.forward_cached(&data.inputs[s]);
                let (loss, d_y) = cfg.loss.eval(&y, &data.targets[s]);
                epoch_loss += loss as f64;
                let grads = model.backward(&caches, &d_y);
                for (a, g) in acc.iter_mut().zip(&grads) {
                    a.accumulate(g);
                }
            }
            let scale = 1.0 / chunk.len() as f32;
            for a in &mut acc {
                a.scale(scale);
            }
            let mut layers: Vec<&mut Layer> = model.layers_mut().iter_mut().collect();
            apply_step(&mut layers, &acc, opt.as_mut(), lambda);
        }
        history.push(epoch_loss / data.len() as f64);
    }
    TrainReport {
        loss_history: history,
    }
}

/// Trains a [`ConvNet`] in place; returns the per-epoch loss history.
pub fn train_convnet(model: &mut ConvNet, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut opt = build_optimizer(cfg);
    let lambda = match cfg.regularizer {
        Regularizer::SpectralPenalty(l) => l,
        _ => 0.0,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut history = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        let order = shuffled_indices(data.len(), &mut rng);
        let mut epoch_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let mut acc: Vec<LayerGrads> = model
                .layers()
                .iter()
                .map(|l| LayerGrads::zeros_like(l))
                .collect();
            for &s in chunk {
                let (y, cache) = model.forward_cached(&data.inputs[s]);
                let (loss, d_y) = cfg.loss.eval(&y, &data.targets[s]);
                epoch_loss += loss as f64;
                let grads = model.backward(&cache, &d_y);
                for (a, g) in acc.iter_mut().zip(&grads) {
                    a.accumulate(g);
                }
            }
            let scale = 1.0 / chunk.len() as f32;
            for a in &mut acc {
                a.scale(scale);
            }
            let mut layers = model.layers_mut();
            apply_step(&mut layers, &acc, opt.as_mut(), lambda);
        }
        history.push(epoch_loss / data.len() as f64);
    }
    TrainReport {
        loss_history: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::model::Model;
    use errflow_tensor::conv::MapShape;

    fn final_loss(report: &TrainReport) -> f64 {
        *report
            .loss_history
            .last()
            .expect("trained at least one epoch")
    }

    /// Tiny regression problem: learn y = [x0 + x1, x0 − x1].
    fn linear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            inputs.push(vec![a, b]);
            targets.push(vec![a + b, a - b]);
        }
        Dataset::new(inputs, targets)
    }

    #[test]
    fn mlp_learns_linear_map() {
        let data = linear_dataset(256, 1);
        let mut model = Mlp::new(&[2, 16, 2], Activation::Tanh, Activation::Identity, 2, None);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.05,
            ..Default::default()
        };
        let report = train_mlp(&mut model, &data, &cfg);
        assert!(
            final_loss(&report) < 1e-3,
            "final loss = {}",
            final_loss(&report)
        );
        assert!(final_loss(&report) < report.loss_history[0]);
    }

    #[test]
    fn psn_mlp_learns_and_alpha_tracks_sigma() {
        use errflow_tensor::spectral::svd_spectral_norm;
        let data = linear_dataset(256, 3);
        let mut model = Mlp::new(
            &[2, 16, 2],
            Activation::Tanh,
            Activation::Identity,
            4,
            Some(500),
        );
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.05,
            regularizer: Regularizer::SpectralPenalty(1e-4),
            ..Default::default()
        };
        let report = train_mlp(&mut model, &data, &cfg);
        assert!(final_loss(&report) < 5e-3, "loss={}", final_loss(&report));
        // After training, each layer's spectral norm equals its α.
        for l in model.layers() {
            let alpha = l.alpha().unwrap() as f64;
            let sigma = svd_spectral_norm(l.weights());
            assert!(
                (sigma - alpha).abs() < 2e-2 * alpha.max(1.0),
                "σ={sigma} α={alpha}"
            );
        }
    }

    #[test]
    fn spectral_penalty_shrinks_alphas() {
        let data = linear_dataset(128, 5);
        let train_with = |lambda: f32| -> f64 {
            let mut model = Mlp::new(
                &[2, 16, 2],
                Activation::Tanh,
                Activation::Identity,
                6,
                Some(700),
            );
            let cfg = TrainConfig {
                epochs: 40,
                regularizer: Regularizer::SpectralPenalty(lambda),
                ..Default::default()
            };
            train_mlp(&mut model, &data, &cfg);
            model
                .layers()
                .iter()
                .map(|l| l.alpha().unwrap() as f64)
                .product()
        };
        let loose = train_with(0.0);
        let tight = train_with(1e-2);
        assert!(
            tight < loose,
            "penalty should shrink Πα: λ=0 → {loose}, λ=1e-2 → {tight}"
        );
    }

    #[test]
    fn adam_trains_mlp() {
        let data = linear_dataset(256, 7);
        let mut model = Mlp::new(&[2, 16, 2], Activation::Relu, Activation::Identity, 8, None);
        let cfg = TrainConfig {
            epochs: 40,
            lr: 0.01,
            optimizer: OptimizerKind::Adam,
            ..Default::default()
        };
        let report = train_mlp(&mut model, &data, &cfg);
        assert!(final_loss(&report) < 1e-2, "loss={}", final_loss(&report));
    }

    #[test]
    fn convnet_learns_simple_classification() {
        // Two classes: bright-top vs bright-bottom images.
        let mut rng = StdRng::seed_from_u64(9);
        let shape = MapShape::new(1, 6, 6);
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..64 {
            let top: bool = rng.next_f64() < 0.5;
            let mut img = vec![0.0f32; 36];
            for y in 0..6 {
                for x in 0..6 {
                    let base = if (y < 3) == top { 0.8 } else { -0.8 };
                    img[y * 6 + x] = base + rng.gen_range(-0.1f32..0.1);
                }
            }
            inputs.push(img);
            targets.push(if top { vec![1.0, 0.0] } else { vec![0.0, 1.0] });
        }
        let data = Dataset::new(inputs, targets);
        let mut model = ConvNet::new(shape, 4, 1, 2, Activation::Relu, 10, None);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 8,
            lr: 0.05,
            loss: Loss::SoftmaxCrossEntropy,
            ..Default::default()
        };
        let report = train_convnet(&mut model, &data, &cfg);
        assert!(
            final_loss(&report) < 0.2,
            "final CE loss = {}",
            final_loss(&report)
        );
        // Check accuracy on the training set.
        let correct = data
            .inputs
            .iter()
            .zip(&data.targets)
            .filter(|(x, t)| {
                let y = model.forward(x);
                crate::loss::argmax(&y) == crate::loss::argmax(t)
            })
            .count();
        assert!(correct >= 60, "accuracy {correct}/64");
    }

    #[test]
    fn dataset_split() {
        let data = linear_dataset(100, 11);
        let (train, test) = data.split(0.2);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let mut model = Mlp::new(&[2, 4, 2], Activation::Tanh, Activation::Identity, 1, None);
        train_mlp(&mut model, &Dataset::default(), &TrainConfig::default());
    }
}

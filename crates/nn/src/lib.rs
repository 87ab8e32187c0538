//! # errflow-nn
//!
//! Neural-network substrate: the models the paper evaluates, trained from
//! scratch with manual backpropagation.
//!
//! * [`activation`] — Tanh / ReLU / LeakyReLU / PReLU / GeLU with the
//!   Lipschitz constants `C = sup φ′` the error theory needs (§III-A).
//! * [`psn`] — **parameterized spectral normalization** (Eq. 6): the
//!   reparameterisation `W = α·V/σ_V` that pins each layer's spectral norm
//!   to the learnable `α`, plus the squared-sum spectral penalty.
//! * [`layer`] — dense and convolutional layers (conv lowered to GEMM via
//!   im2col) with cached forward / backward passes.
//! * [`model`] — [`Mlp`] and [`ConvNet`] (compact ResNet) implementing the
//!   [`Model`] trait, which exposes the *block view* the error-flow core
//!   consumes: per-layer weight matrices, activations, dimensions, and
//!   shortcut structure matching the paper's Eq. (1).
//! * [`optim`] — SGD (with momentum/weight decay) and Adam.
//! * [`loss`] — MSE and softmax cross-entropy with analytic gradients.
//! * [`train`] — the training loop with the three regularisation modes the
//!   paper compares: plain, weight decay, and PSN.

pub mod activation;
pub mod io;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod psn;
mod tanh;
pub mod train;

pub use activation::Activation;
pub use layer::{Layer, LayerKind};
pub use model::{BlockView, ConvNet, LayerView, Mlp, Model, PackedWeights, ShortcutView};
pub use optim::{Adam, Optimizer, Sgd};
pub use tanh::tanh_arm;
pub use train::{Dataset, Regularizer, TrainConfig, TrainReport};

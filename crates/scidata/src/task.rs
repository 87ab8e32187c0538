//! [`SyntheticTask`]: one of the paper's three workloads packaged with its
//! architecture, optimizer, and training modes.

use crate::{borghesi, eurosat, h2};
use errflow_nn::loss::Loss;
use errflow_nn::train::{train_convnet, train_mlp, OptimizerKind, TrainConfig, TrainReport};
use errflow_nn::{Activation, BlockView, ConvNet, Dataset, Mlp, Model, Regularizer};
use errflow_tensor::conv::MapShape;
use errflow_tensor::Matrix;

/// Which scientific workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// 9-species hydrogen combustion: reaction-rate regression (Tanh MLP,
    /// SGD) — low QoI sensitivity.
    H2Combustion,
    /// n-dodecane jet flame: dissipation-rate regression (8-hidden-layer
    /// PReLU MLP, Adam) — high QoI sensitivity.
    BorghesiFlame,
    /// Multispectral land-use classification (compact ResNet, SGD); the QoI
    /// is the 10-dim final feature map.
    EuroSat,
}

impl TaskKind {
    /// All three workloads, in the paper's presentation order.
    pub const ALL: [TaskKind; 3] = [
        TaskKind::H2Combustion,
        TaskKind::BorghesiFlame,
        TaskKind::EuroSat,
    ];

    /// Short name used by figure binaries.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::H2Combustion => "h2_combustion",
            TaskKind::BorghesiFlame => "borghesi_flame",
            TaskKind::EuroSat => "eurosat",
        }
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Training regularisation mode (the Figs. 3–4 comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingMode {
    /// Plain training ("baseline").
    Plain,
    /// Weight decay ("baseline w. weight decay").
    WeightDecay,
    /// Parameterized spectral normalization + spectral penalty (the
    /// paper's method).
    Psn,
}

/// A task-specific model: MLP for the combustion tasks, ConvNet for
/// EuroSAT.  Implements [`Model`] by delegation so the analysis and
/// pipeline layers stay architecture-agnostic.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a handful of models exist per process
pub enum TaskModel {
    /// MLP-backed model.
    Mlp(Mlp),
    /// Compact-ResNet-backed model.
    Conv(ConvNet),
}

impl Model for TaskModel {
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        match self {
            TaskModel::Mlp(m) => m.forward(x),
            TaskModel::Conv(m) => m.forward(x),
        }
    }

    fn forward_batch(&self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        match self {
            TaskModel::Mlp(m) => m.forward_batch(xs),
            TaskModel::Conv(m) => m.forward_batch(xs),
        }
    }

    fn input_dim(&self) -> usize {
        match self {
            TaskModel::Mlp(m) => m.input_dim(),
            TaskModel::Conv(m) => m.input_dim(),
        }
    }

    fn output_dim(&self) -> usize {
        match self {
            TaskModel::Mlp(m) => m.output_dim(),
            TaskModel::Conv(m) => m.output_dim(),
        }
    }

    fn blocks(&self) -> Vec<BlockView<'_>> {
        match self {
            TaskModel::Mlp(m) => m.blocks(),
            TaskModel::Conv(m) => m.blocks(),
        }
    }

    fn flops(&self) -> f64 {
        match self {
            TaskModel::Mlp(m) => m.flops(),
            TaskModel::Conv(m) => m.flops(),
        }
    }

    fn num_params(&self) -> usize {
        match self {
            TaskModel::Mlp(m) => m.num_params(),
            TaskModel::Conv(m) => m.num_params(),
        }
    }

    fn map_weights(&self, f: &mut dyn FnMut(&Matrix) -> Matrix) -> Self {
        match self {
            TaskModel::Mlp(m) => TaskModel::Mlp(m.map_weights(f)),
            TaskModel::Conv(m) => TaskModel::Conv(m.map_weights(f)),
        }
    }

    fn layer_input_magnitudes(&self, x: &[f32]) -> Vec<f64> {
        match self {
            TaskModel::Mlp(m) => m.layer_input_magnitudes(x),
            TaskModel::Conv(m) => m.layer_input_magnitudes(x),
        }
    }
}

/// A generated workload instance: dataset + compression payload + the
/// recipe for building and training the paper's model for it.
#[derive(Debug, Clone)]
pub struct SyntheticTask {
    /// Which workload this is.
    pub kind: TaskKind,
    /// Normalized supervised dataset (shuffled grid samples / images).
    pub dataset: Dataset,
    payload: Vec<f32>,
    ordered_inputs: Vec<Vec<f32>>,
    seed: u64,
    image_size: usize,
}

impl SyntheticTask {
    /// Full-size H2Combustion workload (64×64 grid, 1500 samples).
    pub fn h2_combustion(seed: u64) -> Self {
        Self::h2_sized(seed, 64, 1500)
    }

    /// Reduced H2Combustion for quick runs and doc examples.
    pub fn h2_combustion_small(seed: u64) -> Self {
        Self::h2_sized(seed, 24, 200)
    }

    fn h2_sized(seed: u64, grid: usize, n: usize) -> Self {
        let w = h2::generate(grid, n, seed);
        let payload = h2::compression_payload(&w);
        let ordered_inputs = ordered_grid_inputs(
            &w.species_fields
                .iter()
                .map(|f| f.data.as_slice())
                .collect::<Vec<_>>(),
            &w.normalizer,
        );
        SyntheticTask {
            kind: TaskKind::H2Combustion,
            dataset: w.dataset,
            payload,
            ordered_inputs,
            seed,
            image_size: 0,
        }
    }

    /// Full-size BorghesiFlame workload (64×64 grid, 1500 samples).
    pub fn borghesi(seed: u64) -> Self {
        Self::borghesi_sized(seed, 64, 1500)
    }

    /// Reduced BorghesiFlame workload.
    pub fn borghesi_small(seed: u64) -> Self {
        Self::borghesi_sized(seed, 24, 200)
    }

    fn borghesi_sized(seed: u64, grid: usize, n: usize) -> Self {
        let w = borghesi::generate(grid, n, seed);
        let payload = borghesi::compression_payload(&w);
        let ordered_inputs = ordered_grid_inputs(
            &w.variable_fields
                .iter()
                .map(|f| f.data.as_slice())
                .collect::<Vec<_>>(),
            &w.normalizer,
        );
        SyntheticTask {
            kind: TaskKind::BorghesiFlame,
            dataset: w.dataset,
            payload,
            ordered_inputs,
            seed,
            image_size: 0,
        }
    }

    /// Full-size EuroSAT workload (12×12 px, 300 images).
    pub fn eurosat(seed: u64) -> Self {
        Self::eurosat_sized(seed, 12, 300)
    }

    /// Reduced EuroSAT workload.
    pub fn eurosat_small(seed: u64) -> Self {
        Self::eurosat_sized(seed, 8, 80)
    }

    fn eurosat_sized(seed: u64, size: usize, n: usize) -> Self {
        let imgs = eurosat::generate_images(size, n, seed);
        let payload = eurosat::compression_payload(&imgs);
        let ordered_inputs = imgs.iter().map(|im| im.pixels.clone()).collect();
        SyntheticTask {
            kind: TaskKind::EuroSat,
            dataset: eurosat::to_dataset(&imgs),
            payload,
            ordered_inputs,
            seed,
            image_size: size,
        }
    }

    /// Builds the given kind at its full size.
    pub fn of_kind(kind: TaskKind, seed: u64) -> Self {
        match kind {
            TaskKind::H2Combustion => Self::h2_combustion(seed),
            TaskKind::BorghesiFlame => Self::borghesi(seed),
            TaskKind::EuroSat => Self::eurosat(seed),
        }
    }

    /// Builds the given kind at its reduced size.
    pub fn of_kind_small(kind: TaskKind, seed: u64) -> Self {
        match kind {
            TaskKind::H2Combustion => Self::h2_combustion_small(seed),
            TaskKind::BorghesiFlame => Self::borghesi_small(seed),
            TaskKind::EuroSat => Self::eurosat_small(seed),
        }
    }

    /// Network input dimension.
    pub fn input_dim(&self) -> usize {
        self.dataset.inputs[0].len()
    }

    /// QoI dimension.
    pub fn output_dim(&self) -> usize {
        self.dataset.targets[0].len()
    }

    // audit:allow(dead-pub) the field data the codec contract tests
    // (`tests/compressor_contracts.rs`) and the ratio-model test run on.
    /// The spatially-ordered field data the I/O experiments compress.
    pub fn compression_payload(&self) -> &[f32] {
        &self.payload
    }

    /// Normalized per-sample inputs in *spatial grid order* (or image
    /// order for EuroSAT).  This is the ordering the inference pipeline
    /// actually streams: flattening it feature-major keeps each field
    /// contiguous and smooth, so the compressors see realistic data.
    pub fn ordered_inputs(&self) -> &[Vec<f32>] {
        &self.ordered_inputs
    }

    /// Builds the paper's architecture for this task, untrained.
    pub fn build_model(&self, mode: TrainingMode) -> TaskModel {
        let psn = match mode {
            TrainingMode::Psn => Some(self.seed.wrapping_mul(31).wrapping_add(1000)),
            _ => None,
        };
        match self.kind {
            TaskKind::H2Combustion => TaskModel::Mlp(Mlp::new(
                &[9, 50, 50, 9],
                Activation::Tanh,
                Activation::Identity,
                self.seed.wrapping_add(1),
                psn,
            )),
            TaskKind::BorghesiFlame => {
                let mut dims = vec![13];
                dims.extend(std::iter::repeat_n(48, 8));
                dims.push(3);
                TaskModel::Mlp(Mlp::new(
                    &dims,
                    Activation::PRelu(0.25),
                    Activation::Identity,
                    self.seed.wrapping_add(2),
                    psn,
                ))
            }
            TaskKind::EuroSat => TaskModel::Conv(ConvNet::new(
                MapShape::new(eurosat::NUM_BANDS, self.image_size, self.image_size),
                8,
                2,
                eurosat::NUM_CLASSES,
                Activation::Relu,
                self.seed.wrapping_add(3),
                psn,
            )),
        }
    }

    /// The paper's training configuration for this task: SGD for
    /// H2/EuroSAT, Adam for Borghesi; MSE for regression QoIs, softmax
    /// cross-entropy for classification.
    pub fn train_config(&self, mode: TrainingMode, epochs: usize) -> TrainConfig {
        // The spectral-penalty strength is per-task: deeper stacks (the
        // 9-layer Borghesi MLP, the conv ResNet) need a stronger pull on
        // Πσ to keep the quantization bound practical, while the shallow
        // H2 MLP would collapse under the same λ.
        let lambda = match self.kind {
            TaskKind::H2Combustion => 2e-4,
            TaskKind::BorghesiFlame => 2e-2,
            TaskKind::EuroSat => 2e-3,
        };
        let regularizer = match mode {
            TrainingMode::Plain => Regularizer::None,
            TrainingMode::WeightDecay => Regularizer::WeightDecay(1e-4),
            TrainingMode::Psn => Regularizer::SpectralPenalty(lambda),
        };
        let (optimizer, lr, loss) = match self.kind {
            TaskKind::H2Combustion => (OptimizerKind::Sgd { momentum: 0.9 }, 0.05, Loss::Mse),
            TaskKind::BorghesiFlame => (OptimizerKind::Adam, 0.002, Loss::Mse),
            TaskKind::EuroSat => (
                OptimizerKind::Sgd { momentum: 0.9 },
                0.05,
                Loss::SoftmaxCrossEntropy,
            ),
        };
        TrainConfig {
            epochs,
            batch_size: 16,
            lr,
            optimizer,
            loss,
            regularizer,
            seed: self.seed.wrapping_add(99),
        }
    }

    /// Trains a model built by [`SyntheticTask::build_model`] on this task.
    pub fn train(&self, model: &mut TaskModel, cfg: &TrainConfig) -> TrainReport {
        match model {
            TaskModel::Mlp(m) => train_mlp(m, &self.dataset, cfg),
            TaskModel::Conv(m) => train_convnet(m, &self.dataset, cfg),
        }
    }

    // audit:allow(dead-pub) README.md's quickstart shows this call.
    /// Builds and trains the PSN model with a small epoch budget — enough
    /// for examples, doc tests, and bound validation (the error bounds hold
    /// for any weights; training only shapes the spectra).
    pub fn train_quick(&self) -> TaskModel {
        self.trained_model(TrainingMode::Psn, 8)
    }

    /// Builds and trains a model in the given mode.
    pub fn trained_model(&self, mode: TrainingMode, epochs: usize) -> TaskModel {
        let mut model = self.build_model(mode);
        let cfg = self.train_config(mode, epochs);
        self.train(&mut model, &cfg);
        model
    }
}

/// Builds normalized per-grid-point feature vectors in row-major spatial
/// order from a set of same-sized fields.
fn ordered_grid_inputs(
    fields: &[&[f32]],
    normalizer: &crate::normalize::Normalizer,
) -> Vec<Vec<f32>> {
    let n = fields.first().map_or(0, |f| f.len());
    (0..n)
        .map(|idx| {
            let raw: Vec<f32> = fields.iter().map(|f| f[idx]).collect();
            normalizer.apply(&raw)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_inputs_cover_grid_and_are_smooth() {
        let t = SyntheticTask::h2_combustion_small(5);
        let ordered = t.ordered_inputs();
        assert_eq!(ordered.len(), 24 * 24);
        assert_eq!(ordered[0].len(), 9);
        // Consecutive grid points differ by much less than the data range.
        let mut jumps = 0;
        for w in ordered.windows(2) {
            if (w[1][0] - w[0][0]).abs() > 0.5 {
                jumps += 1;
            }
        }
        assert!(jumps < 24, "ordering is not spatially smooth: {jumps}");
    }

    #[test]
    fn eurosat_ordered_inputs_are_the_images() {
        let t = SyntheticTask::eurosat_small(6);
        assert_eq!(t.ordered_inputs().len(), 80);
        assert_eq!(t.ordered_inputs()[0].len(), t.input_dim());
    }

    #[test]
    fn h2_task_shapes() {
        let t = SyntheticTask::h2_combustion_small(1);
        assert_eq!(t.input_dim(), 9);
        assert_eq!(t.output_dim(), 9);
        assert!(!t.compression_payload().is_empty());
        let m = t.build_model(TrainingMode::Plain);
        assert_eq!(m.input_dim(), 9);
        assert_eq!(m.output_dim(), 9);
    }

    #[test]
    fn borghesi_task_shapes() {
        let t = SyntheticTask::borghesi_small(2);
        assert_eq!(t.input_dim(), 13);
        assert_eq!(t.output_dim(), 3);
        let m = t.build_model(TrainingMode::Psn);
        // 8 hidden layers + output = 9 dense layers.
        match &m {
            TaskModel::Mlp(mlp) => assert_eq!(mlp.layers().len(), 9),
            _ => panic!("borghesi is an MLP"),
        }
    }

    #[test]
    fn eurosat_task_shapes() {
        let t = SyntheticTask::eurosat_small(3);
        assert_eq!(t.input_dim(), 13 * 64);
        assert_eq!(t.output_dim(), 10);
        let m = t.build_model(TrainingMode::Plain);
        assert!(matches!(m, TaskModel::Conv(_)));
        assert_eq!(m.input_dim(), 13 * 64);
    }

    #[test]
    fn training_reduces_loss_on_all_tasks() {
        for kind in TaskKind::ALL {
            let t = SyntheticTask::of_kind_small(kind, 7);
            let mut m = t.build_model(TrainingMode::Psn);
            let cfg = t.train_config(TrainingMode::Psn, 5);
            let report = t.train(&mut m, &cfg);
            let first = report.loss_history[0];
            let last = *report.loss_history.last().unwrap();
            assert!(
                last < first,
                "{kind}: loss did not decrease ({first} → {last})"
            );
        }
    }

    #[test]
    fn task_model_delegates_model_trait() {
        let t = SyntheticTask::h2_combustion_small(4);
        let m = t.build_model(TrainingMode::Plain);
        assert!(m.flops() > 0.0);
        assert!(m.num_params() > 0);
        assert_eq!(m.blocks().len(), 1);
        let x = vec![0.1f32; 9];
        let zeroed = m.map_weights(&mut |w| Matrix::zeros(w.rows(), w.cols()));
        assert!(zeroed.forward(&x).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn kind_names() {
        assert_eq!(TaskKind::H2Combustion.name(), "h2_combustion");
        assert_eq!(TaskKind::EuroSat.to_string(), "eurosat");
    }
}

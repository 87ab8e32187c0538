//! The trained models the experiments share: each (task, training mode) is
//! generated, trained and analysed at most once per run, when first read.

use errflow_core::NetworkAnalysis;
use errflow_scidata::task::TrainingMode;
use errflow_scidata::{SyntheticTask, TaskKind, TaskModel};
use std::cell::OnceCell;

/// The seed of every workload and every training run.
pub const SEED: u64 = 7;

/// Workload size.  `repro` always runs [`Scale::Full`] — the reduced run
/// hides violations (Fig. 6 printed none at the reduced size and two at full
/// size) — and only this crate's debug-mode tests pass [`Scale::Smoke`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes and epochs the recorded figures use.
    Full,
    /// Smaller grids and 4 epochs.
    Smoke,
}

/// A workload with its trained model and spectral analysis.
pub struct TrainedTask {
    /// The generated workload.
    pub task: SyntheticTask,
    /// The trained model.
    pub model: TaskModel,
    /// Spectral analysis of the trained weights.
    pub analysis: NetworkAnalysis,
}

impl TrainedTask {
    /// Generates, trains, and analyses one workload.
    pub fn prepare(kind: TaskKind, mode: TrainingMode, scale: Scale) -> Self {
        let (task, epochs) = match (scale, kind) {
            (Scale::Smoke, _) => (SyntheticTask::of_kind_small(kind, SEED), 4),
            (Scale::Full, TaskKind::EuroSat) => (SyntheticTask::of_kind(kind, SEED), 16),
            (Scale::Full, TaskKind::BorghesiFlame) => (SyntheticTask::of_kind(kind, SEED), 25),
            (Scale::Full, TaskKind::H2Combustion) => (SyntheticTask::of_kind(kind, SEED), 15),
        };
        let model = task.trained_model(mode, epochs);
        let analysis = NetworkAnalysis::of(&model);
        TrainedTask {
            task,
            model,
            analysis,
        }
    }

    /// Task name for table rows.
    pub fn name(&self) -> &'static str {
        self.task.kind.name()
    }
}

/// The models of one run: each (task, mode) is trained the first time an
/// experiment asks for it and shared from then on.
pub struct Models {
    scale: Scale,
    trained: [[OnceCell<TrainedTask>; 3]; 3],
}

impl Models {
    /// An empty store at the given scale.
    pub fn new(scale: Scale) -> Self {
        Models {
            scale,
            trained: Default::default(),
        }
    }

    /// The model of `kind` trained in `mode`.
    pub fn get(&self, kind: TaskKind, mode: TrainingMode) -> &TrainedTask {
        self.trained[kind as usize][mode as usize].get_or_init(|| {
            eprintln!("[repro] training {kind} ({mode:?})");
            TrainedTask::prepare(kind, mode, self.scale)
        })
    }

    /// The PSN models (the paper's default setup) of all three tasks, in the
    /// paper's order.
    pub fn all_psn(&self) -> Vec<&TrainedTask> {
        let psn = |&kind| self.get(kind, TrainingMode::Psn);
        TaskKind::ALL.iter().map(psn).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trains_a_model_once_and_hands_the_same_one_back() {
        let models = Models::new(Scale::Smoke);
        let t = models.get(TaskKind::H2Combustion, TrainingMode::Psn);
        assert_eq!(t.name(), "h2_combustion");
        assert!(t.analysis.amplification() > 0.0);
        assert!(std::ptr::eq(
            t,
            models.get(TaskKind::H2Combustion, TrainingMode::Psn)
        ));
    }
}

//! Standard (undefended) training.

use super::{run_epochs, CheckpointSession, Trainer, TrainerAux};
use crate::config::TrainConfig;
use crate::report::TrainReport;
use simpadv_data::Dataset;
use simpadv_nn::Classifier;
use simpadv_resilience::PersistError;

/// Plain empirical-risk minimization on clean examples — the paper's
/// "Vanilla classifier". Defenseless against any gradient attack; its
/// Figure 1/2 curves calibrate how fast attacks succeed.
#[derive(Debug, Clone, Copy, Default)]
pub struct VanillaTrainer;

impl VanillaTrainer {
    /// Creates the trainer.
    pub fn new() -> Self {
        VanillaTrainer
    }
}

impl Trainer for VanillaTrainer {
    fn train_resumable(
        &mut self,
        clf: &mut Classifier,
        data: &Dataset,
        config: &TrainConfig,
        session: &mut CheckpointSession,
    ) -> Result<TrainReport, PersistError> {
        run_epochs(
            &self.id(),
            clf,
            data,
            config,
            session,
            TrainerAux::None,
            |clf, opt, _aux, _epoch, _idx, x, y| clf.train_batch(x, y, opt),
        )
    }

    fn id(&self) -> String {
        "vanilla".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;
    use simpadv_data::{SynthConfig, SynthDataset};
    use simpadv_nn::{accuracy, GradientModel};

    #[test]
    fn learns_clean_data() {
        let data = SynthDataset::Mnist.generate(&SynthConfig::new(200, 1));
        let mut clf = ModelSpec::small_mlp().build(0);
        let config = TrainConfig::new(8, 0);
        let report = VanillaTrainer::new().train(&mut clf, &data, &config);
        assert_eq!(report.epochs(), 8);
        assert!(report.final_loss() < report.epoch_losses[0], "loss should fall");
        let acc = accuracy(&clf.logits(data.images()), data.labels());
        assert!(acc > 0.9, "train accuracy {acc}");
    }

    #[test]
    fn report_counts_two_passes_per_batch() {
        let data = SynthDataset::Mnist.generate(&SynthConfig::new(64, 1));
        let mut clf = ModelSpec::small_mlp().build(0);
        let config = TrainConfig::new(1, 0).with_batch_size(32);
        let report = VanillaTrainer::new().train(&mut clf, &data, &config);
        // 2 batches × (1 forward + 1 backward)
        assert_eq!(report.forward_passes[0], 2);
        assert_eq!(report.backward_passes[0], 2);
    }

    #[test]
    fn training_is_deterministic() {
        let data = SynthDataset::Mnist.generate(&SynthConfig::new(100, 1));
        let config = TrainConfig::new(2, 5);
        let mut a = ModelSpec::small_mlp().build(0);
        let mut b = ModelSpec::small_mlp().build(0);
        let ra = VanillaTrainer::new().train(&mut a, &data, &config);
        let rb = VanillaTrainer::new().train(&mut b, &data, &config);
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
        assert_eq!(a.logits(data.images()), b.logits(data.images()));
    }

    #[test]
    fn resuming_into_another_architecture_is_a_typed_error() {
        let dir = std::env::temp_dir().join("simpadv-vanilla-resume-mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let data = SynthDataset::Mnist.generate(&SynthConfig::new(32, 1));
        let config = TrainConfig::new(2, 0);
        let mut session = CheckpointSession::new(&dir, 1).unwrap();
        let mut mlp = ModelSpec::small_mlp().build(0);
        VanillaTrainer::new().train_resumable(&mut mlp, &data, &config, &mut session).unwrap();

        // the snapshot holds small-MLP weights; the run now trains the CNN
        let mut cnn = ModelSpec::small_cnn().build(0);
        let untouched = cnn.clone().logits(data.images());
        let mut session = CheckpointSession::new(&dir, 1).unwrap().with_resume(true);
        let config = TrainConfig::new(3, 0);
        let err = VanillaTrainer::new()
            .train_resumable(&mut cnn, &data, &config, &mut session)
            .unwrap_err();
        assert!(matches!(err, PersistError::StateMismatch { .. }), "{err}");
        assert_eq!(cnn.logits(data.images()), untouched, "a refused resume wrote weights");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

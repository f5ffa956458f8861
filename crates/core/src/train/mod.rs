//! Adversarial-training methods: the paper's proposed trainer and every
//! baseline it is compared against.

mod atda;
mod bim_adv;
mod fgsm_adv;
mod free_adv;
mod proposed;
mod state;
mod vanilla;

pub use atda::AtdaTrainer;
pub use bim_adv::BimAdvTrainer;
pub use fgsm_adv::FgsmAdvTrainer;
pub use free_adv::FreeAdvTrainer;
pub use proposed::ProposedTrainer;
pub use state::{
    dataset_crc, set_checkpoint_policy, CheckpointPolicy, CheckpointSession, TrainState,
    TrainerAux, TRAIN_STATE_VERSION,
};
pub use vanilla::VanillaTrainer;

use crate::config::TrainConfig;
use crate::report::TrainReport;
use simpadv_data::Dataset;
use simpadv_nn::{Classifier, Optimizer, Sgd, StateDict};
use simpadv_resilience::PersistError;

/// An adversarial-training method.
///
/// Implementations differ only in *which examples each batch trains on*;
/// architecture, optimizer and schedule come from the shared
/// [`TrainConfig`], keeping the paper's "same hyper-parameter setting"
/// comparison honest.
pub trait Trainer {
    /// Trains `clf` on `data`, checkpointing and/or resuming through
    /// `session`, and reports per-epoch losses, wall-clock times and
    /// gradient-pass counts. With a disabled session this is exactly
    /// [`Trainer::train`] minus the panic on persistence errors.
    ///
    /// Resume contract: running `k` epochs, crashing, and resuming to
    /// `n` epochs is bitwise identical to running `n` epochs straight —
    /// weights, aux state, losses and logical work all match.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`] from saving, loading or validating snapshots.
    fn train_resumable(
        &mut self,
        clf: &mut Classifier,
        data: &Dataset,
        config: &TrainConfig,
        session: &mut CheckpointSession,
    ) -> Result<TrainReport, PersistError>;

    /// Trains `clf` on `data` and reports per-epoch losses, wall-clock
    /// times and gradient-pass counts.
    ///
    /// Checkpointing is off unless an ambient [`CheckpointPolicy`] is
    /// installed (see [`set_checkpoint_policy`]), in which case this call
    /// gets its own numbered checkpoint subdirectory.
    ///
    /// # Panics
    ///
    /// Panics when the ambient policy is active and persistence fails —
    /// the infallible signature predates checkpointing and is kept for
    /// the experiment harnesses.
    #[expect(clippy::panic, reason = "R1: documented `# Panics` contract")]
    fn train(&mut self, clf: &mut Classifier, data: &Dataset, config: &TrainConfig) -> TrainReport {
        state::session_from_policy(&self.id())
            .and_then(|mut session| self.train_resumable(clf, data, config, &mut session))
            .unwrap_or_else(|e| panic!("checkpointing failed: {e}"))
    }

    /// A short identifier such as `"fgsm-adv"` or `"bim(10)-adv"`.
    fn id(&self) -> String;
}

/// Shared epoch loop: drives `step` once per batch and handles timing,
/// pass counting, loss averaging — and checkpoint/resume — uniformly
/// across trainers.
///
/// `step(clf, opt, aux, epoch, indices, images, labels)` performs
/// whatever the method does with one batch and returns the batch loss it
/// optimized; `aux` is the trainer's persistent state, owned by the loop
/// so snapshots can capture it at epoch boundaries.
///
/// Tracing: the whole run sits in a `train` span and every epoch in a
/// nested `epoch` span whose [`simpadv_trace::SpanTiming`] is what lands
/// in the report — so `TrainReport::epoch_seconds` comes from the span's
/// monotonic clock and `TrainReport::epoch_work` from its logical clock.
/// Checkpoint saves/resumes emit `checkpoint` spans and counters *outside*
/// the `epoch` spans, keeping the epoch event stream identical whether or
/// not checkpointing is on.
pub(crate) fn run_epochs<F>(
    trainer_id: &str,
    clf: &mut Classifier,
    data: &Dataset,
    config: &TrainConfig,
    session: &mut CheckpointSession,
    mut aux: TrainerAux,
    mut step: F,
) -> Result<TrainReport, PersistError>
where
    F: FnMut(
        &mut Classifier,
        &mut dyn Optimizer,
        &mut TrainerAux,
        usize,
        &[usize],
        &simpadv_tensor::Tensor,
        &[usize],
    ) -> f32,
{
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let _train_span = simpadv_trace::span!(
        "train",
        trainer = trainer_id,
        epochs = config.epochs,
        batch_size = config.batch_size,
        seed = config.seed
    );
    let mut report = TrainReport::new(trainer_id);
    let mut opt = Sgd::new(config.learning_rate).with_momentum(config.momentum);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut start_epoch = 0usize;
    // The dataset fingerprint is only needed when snapshots exist; the
    // scan is O(dataset), so skip it for plain runs.
    let data_crc = if session.is_enabled() { dataset_crc(data) } else { 0 };
    if let Some(snapshot) = session.load_for_resume()? {
        snapshot.check_resumable(trainer_id, config, data_crc)?;
        snapshot.validate_finite()?;
        let _resume_span = simpadv_trace::span!("checkpoint", action = "resume");
        rng = StdRng::from_state(snapshot.rng_words());
        snapshot.model.restore(clf.network_mut())?;
        opt.restore_state(snapshot.optim);
        report = snapshot.report;
        aux = snapshot.aux;
        start_epoch = snapshot.next_epoch;
    }
    for epoch in start_epoch..config.epochs {
        if config.lr_decay < 1.0 {
            opt.set_learning_rate(config.learning_rate * config.lr_decay.powi(epoch as i32));
        }
        clf.reset_pass_counters();
        let span = simpadv_trace::span!("epoch", index = epoch);
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        for (idx, images, labels) in data.batches(config.batch_size, &mut rng) {
            loss_sum += step(clf, &mut opt, &mut aux, epoch, &idx, &images, &labels);
            batches += 1;
        }
        let loss = if batches > 0 { loss_sum / batches as f32 } else { 0.0 };
        simpadv_trace::gauge("loss", f64::from(loss));
        simpadv_trace::observe("loss_hist", f64::from(loss));
        let timing = span.finish();
        report.push_epoch(loss, &timing, clf.forward_passes(), clf.backward_passes());
        if session.should_save(epoch, config.epochs) {
            let _save_span = simpadv_trace::span!("checkpoint", action = "save", epoch = epoch);
            let snapshot = TrainState {
                version: TRAIN_STATE_VERSION,
                trainer_id: trainer_id.to_string(),
                config: *config,
                next_epoch: epoch + 1,
                rng: rng.state().to_vec(),
                data_crc,
                model: StateDict::capture(clf.network()),
                optim: opt.snapshot_state(),
                report: report.clone(),
                aux: aux.clone(),
            };
            snapshot.validate_finite()?;
            session.save(&snapshot)?;
        }
    }
    Ok(report)
}

/// Trains on the concatenation of the clean batch and pre-built
/// adversarial examples — the "mixture of original and adversarial
/// examples" that FGSM-Adv, BIM-Adv and the proposed method all use.
pub(crate) fn train_on_mixture(
    clf: &mut Classifier,
    opt: &mut dyn Optimizer,
    clean: &simpadv_tensor::Tensor,
    adv: &simpadv_tensor::Tensor,
    labels: &[usize],
) -> f32 {
    let x = simpadv_tensor::Tensor::concat_rows(&[clean, adv]);
    let mut y = labels.to_vec();
    y.extend_from_slice(labels);
    clf.train_batch(&x, &y, opt)
}

//! Servable model envelopes.
//!
//! The server consumes two on-disk payload shapes without caring which
//! trainer produced them:
//!
//! 1. the `SavedModel` JSON written by `simpadv-cli train --out`
//!    (`{spec, state, trained_on, method}`) — mirrored here as
//!    [`ServedModel`] so the serve crate does not depend on the CLI;
//! 2. the `TrainState` JSON that `train --checkpoint-dir` streams into a
//!    [`CheckpointStore`] generation (recognizable by its `trainer_id`
//!    field). The CLI always trains the default MLP topology, so the
//!    rebuild uses [`ModelSpec::default_mlp`]; weights of any other
//!    topology fail [`ServedModel::restore`] with a typed error.
//!
//! Both arrive sealed (CRC-checked envelope) — the store unseals its
//! generations itself; standalone files go through
//! [`ServedModel::load_file`], which mirrors the CLI's legacy plain-JSON
//! fallback.

use crate::error::ServeError;
use serde::{Deserialize, Serialize};
use simpadv::train::TrainState;
use simpadv::ModelSpec;
use simpadv_nn::{Classifier, StateDict};
use simpadv_resilience::{read_sealed_json, CheckpointStore, PersistError};
use std::path::Path;

/// A model in servable form: topology spec plus captured weights.
///
/// Field names intentionally match the CLI's `SavedModel` so the two
/// serialize to byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServedModel {
    /// Network topology, rebuildable via [`ModelSpec::build`].
    pub spec: ModelSpec,
    /// Trained weights.
    pub state: StateDict,
    /// Dataset the model was trained on (informational).
    pub trained_on: String,
    /// Training method id (informational; shown in `/healthz`).
    pub method: String,
}

impl ServedModel {
    /// Captures a trained classifier into a servable envelope.
    pub fn capture(spec: &ModelSpec, clf: &Classifier, trained_on: &str, method: &str) -> Self {
        ServedModel {
            spec: spec.clone(),
            state: StateDict::capture(clf.network()),
            trained_on: trained_on.to_string(),
            method: method.to_string(),
        }
    }

    /// Rebuilds the classifier this envelope describes.
    ///
    /// The seed only shapes the pre-restore initialization, which the
    /// restored state overwrites entirely.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the stored weights contain NaN/Inf or
    /// do not fit the spec's network (a missing, extra or mis-shaped
    /// entry).
    pub fn restore(&self) -> Result<Classifier, ServeError> {
        self.state.validate_finite()?;
        let mut clf = self.spec.build(0);
        self.state.restore(clf.network_mut())?;
        Ok(clf)
    }

    /// Serializes to the plain-JSON payload stored inside a checkpoint
    /// generation (the store adds the sealed envelope itself).
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when encoding fails.
    pub fn to_payload(&self) -> Result<Vec<u8>, ServeError> {
        Ok(serde_json::to_string(self)
            .map_err(|e| ServeError::Persist(PersistError::Encode(e.to_string())))?
            .into_bytes())
    }

    /// Publishes this model as the next generation of `store`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the weights are non-finite or the
    /// write fails.
    pub fn publish(&self, store: &CheckpointStore) -> Result<u64, ServeError> {
        self.state.validate_finite()?;
        Ok(store.save(&self.to_payload()?)?)
    }

    /// Decodes a checkpoint-generation payload in either supported
    /// shape (`SavedModel` mirror first, then `TrainState`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] with a decode detail when the payload
    /// matches neither shape.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let text = String::from_utf8(payload.to_vec()).map_err(|_| {
            ServeError::Persist(PersistError::Decode("payload is not UTF-8".into()))
        })?;
        if let Ok(model) = serde_json::from_str::<ServedModel>(&text) {
            return Ok(model);
        }
        let state: TrainState = serde_json::from_str(&text).map_err(|e| {
            ServeError::Persist(PersistError::Decode(format!(
                "payload is neither a saved model nor a train state: {e}"
            )))
        })?;
        Ok(ServedModel {
            spec: ModelSpec::default_mlp(),
            state: state.model,
            trained_on: "checkpoint".to_string(),
            method: state.trainer_id,
        })
    }

    /// Loads a standalone sealed model file (as written by
    /// `simpadv-cli train --out`), falling back to legacy plain JSON
    /// exactly like the CLI loader does.
    ///
    /// # Errors
    ///
    /// [`ServeError::Persist`] when the file is unreadable in both
    /// formats.
    pub fn load_file(path: &Path) -> Result<Self, ServeError> {
        match read_sealed_json::<ServedModel>(path) {
            Ok(model) => Ok(model),
            Err(PersistError::BadHeader { .. }) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ServeError::Io(format!("read {}: {e}", path.display())))?;
                Ok(serde_json::from_str(&text)
                    .map_err(|e| ServeError::Persist(PersistError::Decode(e.to_string())))?)
            }
            Err(e) => Err(ServeError::Persist(e)),
        }
    }
}

/// Loads generation `gen` of `store` and rebuilds its classifier.
///
/// # Errors
///
/// [`ServeError::Persist`] when the generation is damaged, decodes into
/// neither payload shape, or its weights do not restore.
pub(crate) fn load_generation(
    store: &CheckpointStore,
    gen: u64,
) -> Result<(ServedModel, Classifier), ServeError> {
    let served = ServedModel::decode(&store.load(gen)?)?;
    let clf = served.restore()?;
    Ok((served, clf))
}

/// Scans `store` for the newest generation that decodes and restores into
/// a servable model, returning it with its generation number.
///
/// Damaged, undecodable or unrestorable generations are skipped (newest
/// first), each skip reported through the `serve/generation_skipped`
/// counter so the monitoring plane sees silent fallbacks.
///
/// # Errors
///
/// [`ServeError::NoModel`] when no generation is servable.
pub fn load_latest_servable(store: &CheckpointStore) -> Result<(u64, ServedModel), ServeError> {
    latest_servable(store).map(|(gen, served, _)| (gen, served))
}

/// [`load_latest_servable`], also returning the restored classifier.
pub(crate) fn latest_servable(
    store: &CheckpointStore,
) -> Result<(u64, ServedModel, Classifier), ServeError> {
    let mut gens = store.generations()?;
    gens.reverse();
    for gen in gens {
        match load_generation(store, gen) {
            Ok((served, clf)) => return Ok((gen, served, clf)),
            Err(_) => {
                simpadv_trace::counter_with(
                    "serve/generation_skipped",
                    1,
                    &[("generation", simpadv_trace::FieldValue::U64(gen))],
                );
            }
        }
    }
    Err(ServeError::NoModel(format!("no servable generation in {}", store.dir().display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> (ModelSpec, Classifier) {
        let spec = ModelSpec::small_mlp();
        let clf = spec.build(7);
        (spec, clf)
    }

    #[test]
    fn payload_round_trips_bitwise() {
        let (spec, clf) = tiny_model();
        let model = ServedModel::capture(&spec, &clf, "mnist", "proposed");
        let decoded = ServedModel::decode(&model.to_payload().unwrap()).unwrap();
        assert_eq!(model, decoded);
    }

    #[test]
    fn restored_classifier_matches_original_logits() {
        let (spec, mut clf) = tiny_model();
        let model = ServedModel::capture(&spec, &clf, "mnist", "proposed");
        let mut restored = model.restore().unwrap();
        let x = simpadv_tensor::Tensor::linspace(0.0, 1.0, simpadv_data::IMAGE_PIXELS)
            .reshape(&[1, simpadv_data::IMAGE_PIXELS]);
        use simpadv_nn::GradientModel;
        let a = clf.logits(&x);
        let b = restored.logits(&x);
        assert_eq!(a.as_slice(), b.as_slice(), "restore must be bitwise");
    }

    #[test]
    fn decode_rejects_garbage_with_detail() {
        let err = ServedModel::decode(b"{\"neither\": true}").unwrap_err();
        assert!(err.to_string().contains("neither"), "{err}");
    }

    /// `spec` paired with the weights of a network built from `weights`.
    fn mismatched(spec: ModelSpec, weights: &ModelSpec) -> ServedModel {
        ServedModel::capture(&spec, &weights.build(3), "mnist", "proposed")
    }

    fn assert_state_mismatch(result: Result<Classifier, ServeError>) {
        match result {
            Err(ServeError::Persist(PersistError::StateMismatch { .. })) => {}
            other => panic!("expected a state mismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_weights_of_another_topology() {
        let mlp = ModelSpec::default_mlp();
        assert_state_mismatch(mismatched(mlp.clone(), &ModelSpec::small_mlp()).restore());
        assert_state_mismatch(mismatched(mlp.clone(), &ModelSpec::small_cnn()).restore());
        assert_state_mismatch(mismatched(ModelSpec::small_cnn(), &mlp).restore());
        let mut empty = mismatched(mlp.clone(), &mlp);
        empty.state.entries.clear();
        assert_state_mismatch(empty.restore());
    }

    #[test]
    fn train_state_payload_of_another_topology_decodes_but_refuses_to_restore() {
        use simpadv::train::{TrainerAux, TRAIN_STATE_VERSION};
        let (_, clf) = tiny_model();
        let state = TrainState {
            version: TRAIN_STATE_VERSION,
            trainer_id: "proposed".into(),
            config: simpadv::TrainConfig::new(1, 0),
            next_epoch: 1,
            rng: vec![0; 4],
            data_crc: 0,
            model: StateDict::capture(clf.network()),
            optim: simpadv_nn::OptimState::default(),
            report: simpadv::TrainReport::new("proposed"),
            aux: TrainerAux::None,
        };
        // decode assumes the default MLP for a train-state payload
        let decoded =
            ServedModel::decode(serde_json::to_string(&state).unwrap().as_bytes()).unwrap();
        assert_eq!(decoded.spec, ModelSpec::default_mlp());
        assert_state_mismatch(decoded.restore());
    }
}

//! A checkpoint generation whose weights do not fit its model spec is
//! skipped like a damaged one: the engine opens on, and keeps serving, the
//! newest generation that restores, and a rescan over the misfit returns
//! `Ok` instead of taking the watcher down.
//!
//! This binary owns the process-global tracer (memory sink), so the skip
//! counters it counts cannot come from another test binary.

use simpadv::train::{TrainState, TrainerAux, TRAIN_STATE_VERSION};
use simpadv::{ModelSpec, TrainConfig, TrainReport};
use simpadv_nn::{OptimState, StateDict};
use simpadv_resilience::CheckpointStore;
use simpadv_serve::{BatchConfig, Engine, PredictRequest, ServedModel, SwapReport};
use simpadv_trace::FieldValue;

/// Publishes `spec` with the weights of a network built from `weights`.
fn publish(store: &CheckpointStore, spec: ModelSpec, weights: &ModelSpec) -> u64 {
    ServedModel::capture(&spec, &weights.build(1), "mnist", "test").publish(store).unwrap()
}

/// Saves a `TrainState` payload (which serving rebuilds as the default
/// MLP) holding the weights of a network built from `weights`.
fn save_train_state(store: &CheckpointStore, weights: &ModelSpec) -> u64 {
    let state = TrainState {
        version: TRAIN_STATE_VERSION,
        trainer_id: "vanilla".into(),
        config: TrainConfig::new(1, 0),
        next_epoch: 1,
        rng: vec![0; 4],
        data_crc: 0,
        model: StateDict::capture(weights.build(2).network()),
        optim: OptimState::default(),
        report: TrainReport::new("vanilla"),
        aux: TrainerAux::None,
    };
    store.save(serde_json::to_string(&state).unwrap().as_bytes()).unwrap()
}

fn skipped_generations(events: &[simpadv_trace::Event]) -> Vec<u64> {
    events
        .iter()
        .filter(|e| e.path == "serve/generation_skipped")
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match v {
                FieldValue::U64(g) if k.as_str() == "generation" => Some(*g),
                _ => None,
            })
        })
        .collect()
}

#[test]
fn misfit_generations_are_skipped_at_open_and_on_rescan() {
    let handle = simpadv_trace::install_memory();
    let dir = std::env::temp_dir().join("simpadv-serve-misfit-generation");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let mlp = ModelSpec::default_mlp();
    let good = publish(&store, mlp.clone(), &mlp);
    let cnn_weights = publish(&store, mlp.clone(), &ModelSpec::small_cnn());

    let engine = Engine::new(CheckpointStore::open(&dir).unwrap(), BatchConfig::default()).unwrap();
    assert_eq!(engine.current_generation(), good, "the misfit newest generation was installed");
    assert_eq!(skipped_generations(&handle.take()), vec![cnn_weights]);

    // a rescan looks at every generation newer than the serving one,
    // newest first, so the earlier misfit is skipped again
    let small_weights = save_train_state(&store, &ModelSpec::small_mlp());
    let report = engine.rescan().unwrap();
    assert_eq!(report, SwapReport { installed: None, skipped: 2 });
    assert_eq!(engine.current_generation(), good);
    assert_eq!(engine.stats().skipped_generations, 2);
    assert_eq!(skipped_generations(&handle.take()), vec![small_weights, cnn_weights]);

    // the engine still answers from the valid generation
    let request = PredictRequest {
        pixels: vec![0.5; simpadv_data::IMAGE_PIXELS],
        label: Some(3),
        adversarial: false,
    };
    let responses = engine.infer_batch(&[request]).unwrap();
    assert_eq!(responses[0].generation, good);
    let _ = std::fs::remove_dir_all(&dir);
}

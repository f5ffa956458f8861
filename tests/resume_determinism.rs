//! Crash-safety acceptance: training `k` epochs, "crashing", and resuming
//! from the checkpoint directory must be bitwise identical to an
//! uninterrupted run — weights, persistent adversarial examples, rng
//! state, eval accuracies and the meta-stripped `train/epoch*` trace
//! stream — at 1 and 4 worker threads. A second stage walks the
//! fault-injection matrix: a failure forced at every registered failpoint
//! must leave the checkpoint directory recoverable.

use simpadv::train::{CheckpointSession, ProposedTrainer, TrainState, Trainer};
use simpadv::{EvalSuite, ModelSpec, TrainConfig};
use simpadv_data::{SynthConfig, SynthDataset};
use simpadv_nn::StateDict;
use simpadv_resilience::{failpoint, CheckpointStore, PersistError};
use simpadv_runtime::set_global_threads;
use simpadv_trace::{Event, EventKind, MemorySink};

const EPOCHS: usize = 6;
const CRASH_AFTER: usize = 3;

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("simpadv-resume-determinism").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The `train/epoch*` event stream with nondeterministic parts removed:
/// sequence numbers zeroed (the partial + resumed streams are
/// concatenated, so absolute positions differ), wall-clock/pool `meta`
/// stripped, histograms dropped (they flush at uninstall time, outside
/// the epoch stream).
fn epoch_stream(events: Vec<Event>) -> Vec<Event> {
    events
        .into_iter()
        .filter(|e| e.path.starts_with("train/epoch") && e.kind != EventKind::Histogram)
        .map(|mut e| {
            e.seq = 0;
            e.meta.clear();
            e
        })
        .collect()
}

/// Loads the newest valid snapshot from a checkpoint directory.
fn latest_snapshot(dir: &std::path::Path) -> TrainState {
    let store = CheckpointStore::open(dir).unwrap();
    let (_, bytes) = store.load_latest_valid().unwrap().expect("a valid generation");
    serde_json::from_str(&String::from_utf8(bytes).unwrap()).unwrap()
}

struct RunOutcome {
    weights: StateDict,
    losses: Vec<f32>,
    work: Vec<u64>,
    accuracies: Vec<f32>,
    snapshot: TrainState,
    events: Vec<Event>,
}

/// Trains the Proposed defense under a checkpoint session, capturing the
/// trace stream, then runs the Table I eval battery (outside the capture,
/// so only training events are compared).
fn run_training(dir: &std::path::Path, epochs: usize, resume: bool) -> RunOutcome {
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(120, 1));
    let test = SynthDataset::Mnist.generate(&SynthConfig::new(80, 2));
    let mut clf = ModelSpec::small_mlp().build(0);
    let mut session = CheckpointSession::new(dir, 1).unwrap().with_resume(resume);
    let (sink, handle) = MemorySink::new();
    simpadv_trace::install_sink(Box::new(sink));
    let report = ProposedTrainer::paper_defaults(0.3)
        .train_resumable(&mut clf, &train, &TrainConfig::new(epochs, 7), &mut session)
        .unwrap();
    simpadv_trace::uninstall();
    let accuracies = EvalSuite::paper(0.3).run(&mut clf, &test).accuracies;
    RunOutcome {
        weights: StateDict::capture(clf.network()),
        losses: report.epoch_losses,
        work: report.epoch_work,
        accuracies,
        snapshot: latest_snapshot(dir),
        events: handle.take(),
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Crash/resume equivalence at one thread count.
fn assert_resume_bitwise_identical(threads: usize) {
    set_global_threads(threads);
    let tag = format!("t{threads}");

    // Uninterrupted EPOCHS-epoch run.
    let straight_dir = fresh_dir(&format!("straight-{tag}"));
    let straight = run_training(&straight_dir, EPOCHS, false);

    // CRASH_AFTER epochs, process "dies", resume to EPOCHS.
    let crash_dir = fresh_dir(&format!("crash-{tag}"));
    let partial = run_training(&crash_dir, CRASH_AFTER, false);
    let resumed = run_training(&crash_dir, EPOCHS, true);

    assert_eq!(
        straight.weights, resumed.weights,
        "[{tag}] resumed weights must match the straight run bitwise"
    );
    assert_eq!(bits(&straight.losses), bits(&resumed.losses), "[{tag}] loss curves diverged");
    assert_eq!(straight.work, resumed.work, "[{tag}] logical epoch work diverged");
    assert_eq!(
        bits(&straight.accuracies),
        bits(&resumed.accuracies),
        "[{tag}] eval accuracies diverged"
    );
    // The final snapshots carry the full state: persistent adversarial
    // examples (aux), rng words, epoch cursor.
    assert_eq!(straight.snapshot.aux, resumed.snapshot.aux, "[{tag}] aux batches diverged");
    assert_eq!(straight.snapshot.rng, resumed.snapshot.rng, "[{tag}] rng state diverged");
    assert_eq!(straight.snapshot.next_epoch, EPOCHS);
    assert_eq!(resumed.snapshot.next_epoch, EPOCHS);
    assert_eq!(straight.snapshot.model, resumed.snapshot.model);

    // Meta-stripped trace streams: epochs 0..CRASH_AFTER from the partial
    // run followed by CRASH_AFTER..EPOCHS from the resumed run must
    // replay the straight run's epoch stream event for event.
    let mut stitched = epoch_stream(partial.events);
    stitched.extend(epoch_stream(resumed.events));
    let straight_stream = epoch_stream(straight.events);
    assert!(!straight_stream.is_empty(), "[{tag}] expected epoch events");
    assert_eq!(straight_stream, stitched, "[{tag}] trace streams diverged");
}

/// One forced failure per registered failpoint; the store must stay
/// recoverable after each.
fn assert_failpoint_matrix_recoverable() {
    let good = b"generation-one".to_vec();
    let next = b"generation-two".to_vec();
    for &site in failpoint::registered_sites() {
        failpoint::disarm_all();
        let dir = fresh_dir(&format!("failpoint-{site}"));
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(&good).unwrap();

        // Injection mode per site: control-flow sites error out, data
        // sites (mid-write/corrupt) damage the bytes silently.
        let (spec, silent) = match site {
            "mid-write" => ("short:4", true),
            "corrupt" => ("flip:0", true),
            _ => ("error", false),
        };
        failpoint::arm(site, spec).unwrap();
        let result = store.save(&next);
        failpoint::disarm_all();
        if silent {
            result.unwrap_or_else(|e| panic!("silent damage at {site} must not error: {e}"));
        } else {
            let err = result.expect_err("armed control-flow site must fail the save");
            assert!(
                matches!(err, PersistError::Injected { .. } | PersistError::Io { .. }),
                "unexpected error at {site}: {err}"
            );
        }

        let (_, recovered) = store
            .load_latest_valid()
            .unwrap()
            .unwrap_or_else(|| panic!("no valid generation left after {site}"));
        match site {
            // The rename happened before the injected failure: the new
            // generation is durable and intact.
            "post-rename" => assert_eq!(recovered, next, "site {site}"),
            // Everything earlier either never produced the new file or
            // left it detectably damaged: fall back to the old one.
            _ => assert_eq!(recovered, good, "site {site}"),
        }
    }
    failpoint::disarm_all();
}

/// A damaged newest generation must not stop a resume: the session skips
/// it and fast-forwards from the newest *valid* snapshot.
#[expect(clippy::disallowed_methods, reason = "R9: damages a persisted file on purpose")]
fn assert_damaged_generation_falls_back(reference: &[f32]) {
    let dir = fresh_dir("damaged-fallback");
    let first = run_training(&dir, EPOCHS, false);
    assert_eq!(bits(&first.losses), bits(reference));
    // Plant a newer, corrupted generation above every real one.
    let store = CheckpointStore::open(&dir).unwrap();
    let top = *store.generations().unwrap().last().unwrap();
    let mut bytes = store.load(top).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(dir.join(format!("ckpt-{:08}.ckpt", top + 1)), &bytes).unwrap();
    // Resuming must skip the damaged generation, land on the completed
    // snapshot, and fast-forward without training a single extra epoch.
    let resumed = run_training(&dir, EPOCHS, true);
    assert_eq!(bits(&resumed.losses), bits(reference), "fallback resume diverged");
    assert_eq!(resumed.weights, first.weights);
}

// Everything observing process-global state (worker threads, the trace
// sink, the failpoint registry) lives in this one test so parallel test
// threads cannot race it.
#[test]
fn crash_resume_is_bitwise_identical_and_failures_recoverable() {
    assert_resume_bitwise_identical(1);
    assert_resume_bitwise_identical(4);
    set_global_threads(1);

    assert_failpoint_matrix_recoverable();

    let straight_dir = fresh_dir("straight-reference");
    let reference = run_training(&straight_dir, EPOCHS, false).losses;
    assert_damaged_generation_falls_back(&reference);
}

//! Measures how the deterministic runtime scales: matmul, attack
//! crafting, and training-epoch throughput at 1, 2, 4, and all-core
//! thread counts, cross-checking that every thread count produces
//! bitwise-identical numerics. Writes `results/runtime_scaling.json`.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "R8: the terminal is its interface")]

use serde::Serialize;
use simpadv::experiments::ExperimentScale;
use simpadv::train::{ProposedTrainer, Trainer};
use simpadv::{ModelSpec, TrainConfig};
use simpadv_attacks::parallel::craft_parallel;
use simpadv_attacks::Bim;
use simpadv_bench::{baseline::run_with_baseline, write_artifact, BenchOpts};
use simpadv_data::SynthDataset;
use simpadv_nn::Classifier;
use simpadv_runtime::{available_threads, set_global_threads, Runtime};
use simpadv_tensor::Tensor;
use simpadv_trace::clock::WallTimer;

/// Epochs per timed training run (each run re-trains from the same seed).
const TIMED_EPOCHS: usize = 3;
/// Matmul timing repetitions.
const MATMUL_REPS: usize = 5;

#[derive(Debug, Serialize)]
struct ScalingPoint {
    threads: usize,
    matmul_gmacs_per_s: f64,
    attack_examples_per_s: f64,
    epochs_per_s: f64,
    epoch_speedup_vs_serial: f64,
}

#[derive(Debug, Serialize)]
struct ScalingReport {
    train_samples: usize,
    test_samples: usize,
    timed_epochs: usize,
    available_threads: usize,
    bitwise_identical: bool,
    points: Vec<ScalingPoint>,
}

/// One timed training run; returns (epochs/s, final-loss bits).
fn time_training(scale: &ExperimentScale, data: &simpadv_data::Dataset) -> (f64, u32) {
    let mut clf = ModelSpec::default_mlp().build(scale.seed);
    let config = TrainConfig::new(TIMED_EPOCHS, scale.seed).with_lr_decay(0.97);
    let report = ProposedTrainer::paper_defaults(0.3).train(&mut clf, data, &config);
    (1.0 / report.mean_epoch_seconds().max(1e-9), report.final_loss().to_bits())
}

/// Times BIM(10) batch crafting; returns (examples/s, output checksum bits).
fn time_crafting(model: &Classifier, x: &Tensor, y: &[usize]) -> (f64, u64) {
    let rt = Runtime::global();
    let start = WallTimer::start();
    let adv = craft_parallel(&rt, model, &|_| Box::new(Bim::new(0.3, 10)), x, y);
    let rate = y.len() as f64 / start.elapsed_seconds().max(1e-9);
    let checksum =
        adv.as_slice().iter().fold(0u64, |h, v| h.rotate_left(5) ^ u64::from(v.to_bits()));
    (rate, checksum)
}

/// Times a row-parallel matmul; returns giga-MACs per second.
fn time_matmul() -> f64 {
    let a = Tensor::full(&[512, 784], 0.5);
    let b = Tensor::full(&[784, 256], 0.25);
    let macs = (512 * 784 * 256 * MATMUL_REPS) as f64;
    let start = WallTimer::start();
    for _ in 0..MATMUL_REPS {
        let c = a.matmul(&b);
        std::hint::black_box(&c);
    }
    macs / start.elapsed_seconds().max(1e-9) / 1e9
}

fn measure(scale: &ExperimentScale, threads_override: Option<usize>) -> ScalingReport {
    let (train, test) = scale.load(SynthDataset::Mnist);
    let craft_model = ModelSpec::default_mlp().build(scale.seed);
    let craft_x = test.images().clone();
    let craft_y = test.labels().to_vec();

    let all = available_threads();
    let mut counts: Vec<usize> = vec![1, 2, 4, all];
    if let Some(n) = threads_override {
        counts.push(n);
    }
    counts.sort_unstable();
    counts.dedup();

    let mut points = Vec::new();
    let mut loss_bits = Vec::new();
    let mut craft_bits = Vec::new();
    let mut serial_epochs_per_s = 0.0f64;
    for &threads in &counts {
        set_global_threads(threads);
        let gmacs = time_matmul();
        let (craft_rate, checksum) = time_crafting(&craft_model, &craft_x, &craft_y);
        let (epochs_per_s, bits) = time_training(scale, &train);
        if threads == 1 {
            serial_epochs_per_s = epochs_per_s;
        }
        loss_bits.push(bits);
        craft_bits.push(checksum);
        let speedup = epochs_per_s / serial_epochs_per_s.max(1e-12);
        println!(
            "threads {threads:>2}: matmul {gmacs:7.2} GMAC/s | craft {craft_rate:8.1} ex/s \
             | train {epochs_per_s:6.3} epochs/s ({speedup:4.2}x vs serial)"
        );
        points.push(ScalingPoint {
            threads,
            matmul_gmacs_per_s: gmacs,
            attack_examples_per_s: craft_rate,
            epochs_per_s,
            epoch_speedup_vs_serial: speedup,
        });
    }
    set_global_threads(1);

    let bitwise_identical = loss_bits.iter().all(|&b| b == loss_bits[0])
        && craft_bits.iter().all(|&b| b == craft_bits[0]);
    println!(
        "numerics across thread counts: {}",
        if bitwise_identical { "bitwise identical" } else { "MISMATCH" }
    );
    assert!(bitwise_identical, "thread counts disagreed — determinism contract broken");

    ScalingReport {
        train_samples: scale.train_samples,
        test_samples: scale.test_samples,
        timed_epochs: TIMED_EPOCHS,
        available_threads: all,
        bitwise_identical,
        points,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = BenchOpts::from_args(&args);
    opts.apply(); // thread count is re-set per measured point below
    let scale = opts.scale;
    let threads_override = opts.threads;
    eprintln!("runtime scaling at scale {scale:?}");

    // This bin measures wall throughput, not accuracies: the baseline
    // artifact carries the trace counters and wall stats only.
    let (report, baseline_path) = run_with_baseline(
        &opts,
        "runtime_scaling",
        |_| Vec::new(),
        || measure(&scale, threads_override),
    )?;
    match write_artifact("runtime_scaling.json", &report) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("artifact write failed: {e}"),
    }
    if let Some(path) = baseline_path {
        eprintln!("wrote baseline {}", path.display());
    }
    opts.finish();
    Ok(())
}

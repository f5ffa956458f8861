//! The batch workloads: `train-mlp` (the four Table I trainers),
//! `attack-eval` (the white-box battery) and `train-cnn` (Proposed on the
//! small CNN). Each repeats a fixed unit of work for the run's time
//! budget; the first unit is a warm-up whose time is not kept.

use crate::attrib::{self, Attrib};
use crate::probe;
use crate::report::{geomean, median, quantile, secs, Fnv, Report};
use crate::{Opts, RunMode};
use simpadv::train::{
    AtdaTrainer, BimAdvTrainer, FgsmAdvTrainer, ProposedTrainer, Trainer, VanillaTrainer,
};
use simpadv::{EvalSuite, ModelSpec, TrainConfig};
use simpadv_data::{Dataset, SynthConfig, SynthDataset};
use simpadv_nn::{Classifier, Layer};
use simpadv_runtime::split_seed;
use std::time::Instant;

/// Perturbation budget of every workload (the paper's mnist ε).
pub const EPSILON: f32 = 0.3;
/// Training-set size of `train-mlp` and `attack-eval`'s pre-training.
const MLP_SAMPLES: usize = 1000;
/// Training-set size of `train-cnn`.
const CNN_SAMPLES: usize = 256;
/// Test examples `attack-eval` runs the battery over.
const EVAL_EXAMPLES: usize = 400;
/// Epochs of plain training that give `attack-eval` its model.
const PRETRAIN_EPOCHS: usize = 2;
/// Batch size of every trainer.
const BATCH: usize = 64;
/// Fewest set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest timed units per run mode.
const MIN_UNITS: usize = 3;

/// The Table I trainers of `train-mlp`, in run order.
const TRAINERS: [&str; 4] = ["proposed", "fgsm-adv", "atda", "bim10-adv"];

fn trainer(id: &str) -> Box<dyn Trainer> {
    match id {
        "proposed" => Box::new(ProposedTrainer::paper_defaults(EPSILON)),
        "fgsm-adv" => Box::new(FgsmAdvTrainer::new(EPSILON)),
        "atda" => Box::new(AtdaTrainer::new(EPSILON)),
        _ => Box::new(BimAdvTrainer::new(EPSILON, 10)),
    }
}

/// Which batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    TrainMlp,
    AttackEval,
    TrainCnn,
}

impl Job {
    fn spec(self) -> ModelSpec {
        match self {
            Job::TrainCnn => ModelSpec::small_cnn(),
            _ => ModelSpec::default_mlp(),
        }
    }

    fn trainers(self) -> &'static [&'static str] {
        match self {
            Job::TrainMlp => &TRAINERS,
            Job::TrainCnn => &TRAINERS[..1],
            Job::AttackEval => &[],
        }
    }
}

/// Inputs and model made by set-up.
struct Setup {
    train: Dataset,
    test: Option<Dataset>,
    /// The model every unit starts from (trained for `attack-eval`).
    model: Classifier,
    generate_s: f64,
}

fn setup(job: Job, seed: u64) -> Setup {
    let t = Instant::now();
    let samples = if job == Job::TrainCnn { CNN_SAMPLES } else { MLP_SAMPLES };
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(samples, seed));
    let test = (job == Job::AttackEval).then(|| {
        SynthDataset::Mnist.generate(&SynthConfig::new(EVAL_EXAMPLES, split_seed(seed, 3)))
    });
    let generate_s = secs(t);
    let mut model = job.spec().build(split_seed(seed, 1));
    if job == Job::AttackEval {
        let config = TrainConfig::new(PRETRAIN_EPOCHS, split_seed(seed, 2));
        VanillaTrainer::new().train(&mut model, &train, &config);
    }
    Setup { train, test, model, generate_s }
}

/// Runs set-up and appends its time to `times`.
fn timed_setup(job: Job, seed: u64, times: &mut Vec<f64>) -> Setup {
    let t = Instant::now();
    let s = setup(job, seed);
    times.push(secs(t));
    s
}

/// The model a unit runs on: the plain one, or the same weights behind
/// the benchmark's layer probes.
fn unit_model(job: Job, s: &Setup, mode: RunMode, seed: u64) -> Classifier {
    let mut m = match mode {
        RunMode::Bench => {
            let mut m = probe::build(&job.spec(), split_seed(seed, 1));
            m.network_mut().load_state(&s.model.network().state());
            m
        }
        _ => s.model.clone(),
    };
    // The digest counts the unit's passes only, not pre-training's.
    m.reset_pass_counters();
    m
}

/// One timed part of a unit: a trainer call or a battery pass.
struct Part {
    name: &'static str,
    seconds: f64,
    digest: u64,
    finite: bool,
    dense_rows: u64,
}

/// Runs one unit in `mode`; in bench mode also returns its recordings.
fn unit(job: Job, s: &Setup, mode: RunMode, seed: u64) -> (Vec<Part>, Attrib) {
    let mut attrib = Attrib::default();
    let mut parts = Vec::new();
    let calls: Vec<&'static str> =
        if job == Job::AttackEval { vec!["battery"] } else { job.trainers().to_vec() };
    for name in calls {
        let mut model = unit_model(job, s, mode, seed);
        let memory = (mode == RunMode::Program).then(simpadv_trace::install_memory);
        if mode == RunMode::Bench {
            probe::enable();
        }
        let t = Instant::now();
        let (digest, finite) = {
            let _span =
                probe::open(if name == "battery" { "core.eval" } else { "core.train" }, 0, true);
            let mut h = Fnv::default();
            let finite = if let Some(test) = &s.test {
                let result = EvalSuite::paper(EPSILON).run(&mut model, test);
                h.floats(&result.accuracies);
                result.accuracies.iter().all(|a| a.is_finite())
            } else {
                let config = TrainConfig::new(1, split_seed(seed, 2)).with_batch_size(BATCH);
                let report = trainer(name).train(&mut model, &s.train, &config);
                h.floats(&report.epoch_losses);
                report.epoch_losses.iter().all(|l| l.is_finite())
            };
            for (_, tensor) in model.network().state() {
                h.floats(tensor.as_slice());
            }
            h.u64(model.forward_passes());
            h.u64(model.backward_passes());
            (h.finish(), finite)
        };
        let seconds = secs(t);
        let mut dense_rows = 0;
        if mode == RunMode::Bench {
            let rec = probe::disable();
            dense_rows = rec
                .spans
                .iter()
                .filter(|sp| sp.name.starts_with("nn.dense.fwd"))
                .map(|sp| sp.rows)
                .sum();
            attrib.add(rec);
        }
        if let Some(handle) = memory {
            simpadv_trace::uninstall();
            drop(handle.take());
        }
        parts.push(Part { name, seconds, digest, finite, dense_rows });
    }
    attrib.units = 1;
    attrib.wall_ns = (parts.iter().map(|p| p.seconds).sum::<f64>() * 1e9) as u64;
    (parts, attrib)
}

/// Runs a batch workload and reports its metrics.
pub fn run(job: Job, opts: &Opts, workload: &str) -> Report {
    let mut r = Report::default();
    // Set-up runs before the warm-up and again before every unit, so its
    // repetitions spread over the run as the units do. Each replaces the
    // one before, so earlier ones do not count in the peak memory.
    let mut setup_times = Vec::new();
    let mut s = timed_setup(job, opts.seed, &mut setup_times);

    let modes: &[RunMode] = if opts.trace {
        &[RunMode::Plain, RunMode::Bench, RunMode::Program]
    } else {
        &[RunMode::Plain]
    };
    let budget = if opts.trace { 0.8 * opts.seconds } else { opts.seconds };
    let mut attrib = Attrib::default();
    let (warm, _) = unit(job, &s, RunMode::Plain, opts.seed);
    let reference: Vec<u64> = warm.iter().map(|p| p.digest).collect();
    let warm_finite = warm.iter().all(|p| p.finite);
    // Units rotate through the run modes until the budget is spent.
    let mut units: Vec<(RunMode, Vec<Part>)> = Vec::new();
    let mut traced = Vec::new();
    let t = Instant::now();
    while secs(t) < budget
        || units.len() < MIN_UNITS * modes.len()
        || setup_times.len() < SETUP_REPS
    {
        drop(s);
        s = timed_setup(job, opts.seed, &mut setup_times);
        let mode = modes[units.len() % modes.len()];
        let (parts, one) = unit(job, &s, mode, opts.seed);
        if mode == RunMode::Bench {
            traced.push(one);
        }
        units.push((mode, parts));
    }
    r.line(format!("units timed: {}", units.len()));
    // The exact counts of every traced unit, which must all be equal.
    let unit_counts: Vec<u64> = traced.iter().map(Attrib::counts_digest).collect();
    for one in traced {
        attrib.absorb(one);
    }

    // Correctness: every unit's digests equal the warm-up's and, at the
    // default seed, the recorded one. A planted mismatch flips one bit of
    // the digest every unit is compared with.
    let warm_digest = combine(&reference);
    let shown = if opts.plant { warm_digest ^ 1 } else { warm_digest };
    let expected = crate::expected::digest(workload, opts.seed);
    let recorded_ok = expected.is_none_or(|e| e == shown);
    for (_, parts) in &units {
        let digests: Vec<u64> = parts.iter().map(|p| p.digest).collect();
        let unit_ok = combine(&digests) == shown && recorded_ok;
        for p in parts {
            r.outcome(p.finite && warm_finite && unit_ok);
        }
    }
    r.line(format!(
        "digest {shown:016x} (recorded for seed {}: {})",
        crate::DEFAULT_SEED,
        crate::expected::digest(workload, crate::DEFAULT_SEED)
            .map_or("none".into(), |d| format!("{d:016x}"))
    ));

    let plain: Vec<&Vec<Part>> =
        units.iter().filter(|(m, _)| *m == RunMode::Plain).map(|(_, p)| p).collect();
    let names: Vec<&'static str> = warm.iter().map(|p| p.name).collect();
    let mut medians = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let xs: Vec<f64> = plain.iter().map(|parts| parts[i].seconds).collect();
        let label =
            if *name == "battery" { "battery_s".to_string() } else { format!("epoch_s.{name}") };
        r.line(format!(
            "{label} = {:.5} s median (q1 {:.5}, q3 {:.5}, n={})",
            median(&xs),
            quantile(&xs, 0.25),
            quantile(&xs, 0.75),
            xs.len()
        ));
        medians.push(median(&xs));
    }
    let items = if job == Job::AttackEval { EVAL_EXAMPLES } else { s.train.len() } as f64;
    let unit_s = geomean(&medians);
    let total_s: f64 = medians.iter().sum();

    if opts.trace {
        let bench: Vec<&Vec<Part>> =
            units.iter().filter(|(m, _)| *m == RunMode::Bench).map(|(_, p)| p).collect();
        for (i, name) in names.iter().enumerate() {
            if let Some(parts) = bench.first() {
                r.line(format!("nn.dense.rows.{name} = {} per call", parts[i].dense_rows));
            }
        }
        let wall = |mode: RunMode| {
            let xs: Vec<f64> = units
                .iter()
                .filter(|(m, _)| *m == mode)
                .map(|(_, p)| p.iter().map(|p| p.seconds).sum())
                .collect();
            median(&xs)
        };
        let base = wall(RunMode::Plain);
        let frac = |x: f64| if base > 0.0 { x / base - 1.0 } else { 0.0 };
        let ctx = attrib::Context {
            threads: simpadv_runtime::Runtime::global().threads(),
            model: &s.model,
            train: (job != Job::AttackEval).then_some((&s.train, BATCH)),
            epochs_per_unit: job.trainers().len() as u64,
            region: if job == Job::AttackEval { (EVAL_EXAMPLES, 100) } else { (BATCH, 16) },
            generate_s: s.generate_s,
        };
        attrib::per_layer(&attrib, &ctx, &mut r);
        r.metric("trace.program_overhead_frac", frac(wall(RunMode::Program)), "frac");
        r.metric("trace.bench_overhead_frac", frac(wall(RunMode::Bench)), "frac");
        let repeat = unit_counts.windows(2).all(|w| w[0] == w[1]);
        let recorded = crate::expected::counts(workload, opts.seed);
        let counts = unit_counts.first().copied().unwrap_or(0);
        r.line(format!(
            "counts digest per unit {counts:016x} (repeats exactly in all {} units: {repeat}; \
             recorded for seed {}: {})",
            unit_counts.len(),
            crate::DEFAULT_SEED,
            crate::expected::counts(workload, crate::DEFAULT_SEED)
                .map_or("none".into(), |d| format!("{d:016x}"))
        ));
        r.outcome(repeat && recorded.is_none_or(|c| c == counts));
        crate::write_spans(workload, opts.seed, &attrib.spans);
    } else {
        r.metric("setup_s", median(&setup_times), "s");
        r.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        r.metric("unit_ms", unit_s * 1e3, "ms");
        r.metric("rate_per_s", items * medians.len() as f64 / total_s, "1/s");
    }
    r.line(format!(
        "setup_s = {:.5} s median of {} (data.generate_s {:.5})",
        median(&setup_times),
        setup_times.len(),
        s.generate_s
    ));
    r
}

/// One digest for a unit's parts, in order.
fn combine(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for d in digests {
        h.u64(*d);
    }
    h.finish()
}

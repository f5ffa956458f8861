//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--plant-mismatch]
//! ```
//!
//! Runs one workload against the public API of the simpadv crates for
//! about `S` seconds, checks its outputs, and prints detail lines followed
//! by one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, from a separate traced run. Exits 1 when any
//! output was wrong. See `perfbench/README.md`.

mod attrib;
mod expected;
mod jobs;
mod probe;
mod report;
mod serve;

use std::io::Write as _;

/// The workload seed used when none is given; the recorded digests are
/// for this seed.
pub const DEFAULT_SEED: u64 = 2019;

/// The seed reserved for checking a claimed gain: never used while
/// writing the change that claims it.
pub const CHECK_SEED: u64 = 4099;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["train-mlp", "attack-eval", "train-cnn", "serve-open-loop"];

/// End-to-end metrics and their units (`--trace 0`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "frac"),
    ("unit_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics and their units (`--trace 1`). A metric a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("tensor.matmul.calls", "count"),
    ("tensor.matmul.gmac_s", "GMAC/s"),
    ("tensor.matmul_tn.calls", "count"),
    ("tensor.matmul_tn.gmac_s", "GMAC/s"),
    ("tensor.matmul_nt.calls", "count"),
    ("tensor.matmul_nt.gmac_s", "GMAC/s"),
    ("tensor.im2col.calls", "count"),
    ("tensor.im2col.gb_s", "GB/s"),
    ("tensor.col2im.calls", "count"),
    ("tensor.col2im.gb_s", "GB/s"),
    ("tensor.busy_s", "s"),
    ("nn.dense.fwd_train_s", "s"),
    ("nn.dense.bwd_train_s", "s"),
    ("nn.dense.fwd_eval_s", "s"),
    ("nn.dense.bwd_eval_s", "s"),
    ("nn.dense.rows", "count"),
    ("nn.conv2d.fwd_train_s", "s"),
    ("nn.conv2d.bwd_train_s", "s"),
    ("nn.conv2d.fwd_eval_s", "s"),
    ("nn.conv2d.bwd_eval_s", "s"),
    ("nn.relu.s", "s"),
    ("nn.maxpool.s", "s"),
    ("nn.sgd_step_s", "s"),
    ("nn.replica_clone_s", "s"),
    ("nn.useful_mac_frac", "frac"),
    ("attacks.example_steps", "count"),
    ("attacks.busy_s", "s"),
    ("attacks.step_us", "us"),
    ("core.train.self_s", "s"),
    ("core.eval.self_s", "s"),
    ("data.generate_s", "s"),
    ("data.batch_s", "s"),
    ("runtime.regions", "count"),
    ("runtime.region_overhead_us", "us"),
    ("runtime.parallel_efficiency", "frac"),
    ("serve.healthz_rtt_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.json_decode_us", "us"),
    ("serve.json_encode_us", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.batch_forward_us", "us"),
    ("serve.batch_occupancy_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.mismatch", "count"),
    ("serve.generator_lag_ms_p99", "ms"),
    ("resilience.publish_s", "s"),
    ("resilience.load_s", "s"),
    ("trace.program_overhead_frac", "frac"),
    ("trace.bench_overhead_frac", "frac"),
];

/// How a unit of work is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The plain program, nothing traced: what end-to-end runs measure.
    Plain,
    /// The program behind the benchmark's probes.
    Bench,
    /// The plain program with its own tracer on an in-memory sink.
    Program,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip one bit of the reported digest: proves a mismatch fails the run.
    pub plant: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        plant: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--plant-mismatch" => opts.plant = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(opts)
}

/// Writes the kept spans as JSON lines under `.perfbench/` in the
/// working directory; a failure to write is reported, not fatal.
pub fn write_spans(workload: &str, seed: u64, spans: &[probe::Span]) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"parent\":{},\"rows\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.thread, s.parent, s.rows
            )?;
        }
        out.flush()
    });
    match result {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = simpadv_runtime::Runtime::global().threads();
    println!(
        "perfbench workload={} seed={} (default {DEFAULT_SEED}, check seed {CHECK_SEED}) seconds={} \
         trace={} threads={threads} available_parallelism={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        simpadv_runtime::available_threads()
    );
    let mut r = match opts.workload.as_str() {
        "train-mlp" => jobs::run(jobs::Job::TrainMlp, &opts, "train-mlp"),
        "attack-eval" => jobs::run(jobs::Job::AttackEval, &opts, "attack-eval"),
        "train-cnn" => jobs::run(jobs::Job::TrainCnn, &opts, "train-cnn"),
        _ => serve::run(&opts),
    };
    let success = (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64;
    r.metric("success_rate", success, "frac");
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = r.metrics.iter().find(|(n, _, _)| n == name).map_or(0.0, |m| m.1);
        metrics.push(((*name).to_string(), value, *unit));
    }
    for line in &r.lines {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    r.metrics = metrics;
    println!("{}", r.to_json());
    if r.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed the correctness check",
            r.failed, r.attempted
        );
        std::process::exit(1);
    }
}

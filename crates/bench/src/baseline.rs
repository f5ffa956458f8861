//! `--baseline` mode: runs the experiment under an in-memory trace and
//! emits the `BENCH_<experiment>.json` artifact the CI perf gate
//! compares against (see `simpadv_obs::artifact` for the schema and the
//! comparison itself).
//!
//! The runner deliberately does **not** wrap the experiment in an extra
//! span: the recorded stream must have the exact shape a plain traced
//! run produces, so `trace diff` between a baseline dump and a normal
//! `--trace` capture stays empty.

use crate::BenchOpts;
use simpadv_obs::{diff, Artifact, DiffOptions, Row, SpanTree};
use simpadv_trace::{Event, FieldValue};
use std::collections::BTreeMap;
use std::error::Error;
use std::path::PathBuf;

/// One row per trainer: the logical cost of every `train` span, summed
/// by its `trainer` field (spans without one group under `"unknown"`).
fn trainer_rows(tree: &SpanTree) -> Vec<Row> {
    let mut by_trainer: BTreeMap<String, [u64; 6]> = BTreeMap::new();
    tree.walk(&mut |node| {
        if node.name != "train" {
            return;
        }
        let id = node
            .fields
            .iter()
            .find_map(|(k, v)| match v {
                FieldValue::Str(s) if k == "trainer" => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "unknown".to_string());
        let epochs = node.children.iter().filter(|c| c.name == "epoch").count() as u64;
        let t = &node.total;
        let add = [1, epochs, t.forward, t.backward, t.flops, t.attack_steps];
        let sum = by_trainer.entry(id).or_default();
        sum.iter_mut().zip(add).for_each(|(s, a)| *s += a);
    });
    let names = ["runs", "epochs", "forward", "backward", "flops", "attack_steps"];
    by_trainer
        .into_iter()
        .map(|(id, sums)| Row::new(id, &names.into_iter().zip(sums).collect::<Vec<_>>()))
        .collect()
}

/// Mean wall seconds per `epoch` span in the tree (`None` without any).
fn mean_epoch_wall_s(tree: &SpanTree) -> Option<f64> {
    let mut walls = Vec::new();
    tree.walk(&mut |node| {
        if node.name == "epoch" {
            walls.push(node.total.wall_us as f64 / 1e6);
        }
    });
    (!walls.is_empty()).then(|| walls.iter().sum::<f64>() / walls.len() as f64)
}

fn build_artifact(
    opts: &BenchOpts,
    experiment: &str,
    accuracies: Vec<(String, f64)>,
    streams: &[Vec<Event>],
) -> Result<Artifact, Box<dyn Error>> {
    let trees =
        streams.iter().map(|s| simpadv_obs::build_tree(s)).collect::<Result<Vec<_>, _>>()?;
    let epoch_walls: Vec<f64> = trees.iter().filter_map(mean_epoch_wall_s).collect();
    let total_walls: Vec<f64> =
        trees.iter().map(|t| t.roots.iter().map(|r| r.total.wall_us as f64 / 1e6).sum()).collect();
    let divergent = streams
        .iter()
        .skip(1)
        .filter(|r| !diff(&streams[0], r, &DiffOptions::default()).logically_identical())
        .count();

    let mut a = Artifact::new(experiment);
    a.push_scale("train_samples", opts.scale.train_samples);
    a.push_scale("test_samples", opts.scale.test_samples);
    a.push_scale("epochs", opts.scale.epochs);
    a.push_scale("seed", opts.scale.seed);
    a.rows = trainer_rows(&trees[0]);
    a.accuracies = accuracies;
    a.events = streams[0].len() as u64;
    a.trace_digest = simpadv_obs::logical_digest(&streams[0]);
    a.meta.push("threads", opts.threads.unwrap_or(0) as f64);
    a.meta.push("threads_available", simpadv_runtime::available_threads() as f64);
    a.meta.push("repeat", streams.len() as f64);
    a.meta.push_wall("wall_per_epoch_s", &epoch_walls);
    a.meta.push_wall("wall_total_s", &total_walls);
    a.meta.push("divergent_repeats", divergent as f64);
    Ok(a)
}

fn dump_jsonl(path: &std::path::Path, events: &[Event]) -> Result<(), Box<dyn Error>> {
    let mut text = String::new();
    for ev in events {
        text.push_str(&ev.to_json_line());
        text.push('\n');
    }
    simpadv_resilience::atomic_write(path, text.as_bytes())?;
    Ok(())
}

/// Runs `run` once (or `--repeat` times under `--baseline`) and, in
/// baseline mode, writes `BENCH_<experiment>.json` to the current
/// directory (the repository root, by convention) and the repeat-0
/// trace to `--trace FILE` when given. Returns the first run's result
/// and the artifact path, if one was written.
///
/// `accuracies` projects the experiment result onto the named scalar
/// series the perf gate pins down.
///
/// # Errors
///
/// Returns trace-reconstruction and I/O errors from artifact
/// production; plain (non-baseline) runs never fail here.
pub fn run_with_baseline<T>(
    opts: &BenchOpts,
    experiment: &str,
    accuracies: impl Fn(&T) -> Vec<(String, f64)>,
    mut run: impl FnMut() -> T,
) -> Result<(T, Option<PathBuf>), Box<dyn Error>> {
    if !opts.baseline {
        return Ok((run(), None));
    }
    let mut streams: Vec<Vec<Event>> = Vec::with_capacity(opts.repeat);
    let mut first: Option<T> = None;
    for _ in 0..opts.repeat {
        let handle = simpadv_trace::install_memory();
        let result = run();
        simpadv_trace::flush();
        streams.push(handle.take());
        if first.is_none() {
            first = Some(result);
        }
    }
    simpadv_trace::uninstall();
    let Some(result) = first else {
        return Err("baseline mode needs --repeat >= 1".into());
    };

    let artifact = build_artifact(opts, experiment, accuracies(&result), &streams)?;
    if let Some(path) = &opts.trace {
        dump_jsonl(path, &streams[0])?;
    }
    let out = PathBuf::from(format!("BENCH_{experiment}.json"));
    simpadv_resilience::write_json_atomic(&out, &artifact)?;
    let _: Artifact = crate::verify_artifact(&out)?;
    Ok((result, Some(out)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_trace::span;

    fn baseline_opts(dir: &std::path::Path) -> BenchOpts {
        let mut opts = BenchOpts::from_args(&["--smoke".to_string()]);
        opts.baseline = true;
        opts.trace = Some(dir.join("trace.jsonl"));
        opts
    }

    fn tiny_traced_workload() -> u64 {
        let _t = span!("train", trainer = "proposed", epochs = 1_u64);
        {
            let _e = span!("epoch", index = 0_u64);
            simpadv_trace::clock::tick_forward(3);
        }
        42
    }

    #[test]
    fn non_baseline_runs_pass_through() {
        let opts = BenchOpts::from_args(&[]);
        let (v, path) =
            run_with_baseline(&opts, "unit", |_| Vec::new(), || 7_u64).expect("plain run");
        assert_eq!(v, 7);
        assert!(path.is_none());
    }

    #[test]
    fn baseline_mode_writes_artifact_and_trace_dump() {
        let _tracer = crate::tracer_lock();
        let dir = std::env::temp_dir().join("simpadv-bench-baseline-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut opts = baseline_opts(&dir);
        opts.repeat = 2;
        // the artifact lands in the cwd (the package root under `cargo
        // test`); read it and clean it up
        let out = run_with_baseline(
            &opts,
            "unittest",
            |v| vec![("answer".into(), *v as f64)],
            tiny_traced_workload,
        );
        let (v, path) = out.expect("baseline run");
        assert_eq!(v, 42);
        let path = path.expect("artifact written");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        std::fs::remove_file(&path).expect("artifact cleanup");
        let artifact: Artifact = serde_json::from_str(&text).expect("valid artifact");
        assert_eq!(artifact.experiment, "unittest");
        assert_eq!(artifact.meta.get("repeat"), Some(2.0));
        assert_eq!(artifact.meta.get("divergent_repeats"), Some(0.0));
        assert_eq!(artifact.rows.len(), 1);
        assert_eq!(artifact.rows[0].name, "proposed");
        assert_eq!(artifact.rows[0].get("forward"), Some(3));
        assert_eq!(artifact.rows[0].get("epochs"), Some(1));
        assert_eq!(artifact.accuracies, vec![("answer".to_string(), 42.0)]);

        let dump = std::fs::read_to_string(dir.join("trace.jsonl")).expect("dump readable");
        let events = simpadv_obs::read_events(&dump).expect("dump parses");
        assert_eq!(events.len() as u64, artifact.events);
        assert_eq!(simpadv_obs::logical_digest(&events), artifact.trace_digest);
    }
}

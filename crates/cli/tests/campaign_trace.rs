//! End-to-end acceptance for cross-process campaign tracing, driven
//! through the real `simpadv-cli` binary: a chaos campaign (one killed
//! cell, at least one retry) assembled with `trace assemble` must yield
//! the same logical span tree as an uninterrupted reference, the
//! assembly itself must be thread-invariant, the raw tree must be
//! single-rooted with one subtree per cell attempt, and a serve request
//! carrying the client's traceparent header must stitch under the
//! client's span.
//!
//! This binary owns the process-global tracer for the serve test;
//! keeping it separate from other CLI test binaries means that global
//! state cannot bleed across them.

use simpadv::ModelSpec;
use simpadv_resilience::CheckpointStore;
use simpadv_serve::{client, BatchConfig, PredictRequest, ServeConfig, ServedModel, Server};
use simpadv_trace::EventKind;
use std::path::{Path, PathBuf};

fn cli() -> &'static str {
    env!("CARGO_BIN_EXE_simpadv-cli")
}

/// Runs the CLI binary, returning (success, combined stdout+stderr).
#[expect(clippy::disallowed_types, reason = "R12: drives the CLI binary as a child")]
fn run_cli(args: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(cli()).args(args).output().expect("spawn simpadv-cli");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("simpadv-cli-trace-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared tiny grid: 2 cells (vanilla at two training scales),
/// traced into `traces`.
fn grid_args(dir: &Path, out: &Path, traces: &Path) -> Vec<String> {
    [
        "sweep",
        "--dir",
        dir.to_str().unwrap(),
        "--methods",
        "vanilla",
        "--eps",
        "0.3",
        "--samples-list",
        "16,24",
        "--threads-list",
        "1",
        "--epochs",
        "1",
        "--test-samples",
        "16",
        "--seed",
        "2019",
        "--trace-dir",
        traces.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn load_artifact(path: &Path) -> simpadv_obs::Artifact {
    let text = std::fs::read_to_string(path).unwrap();
    simpadv_obs::parse_artifact(&text).unwrap()
}

fn run_campaign(args: &[String]) -> (bool, String) {
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    run_cli(&refs)
}

/// `trace assemble <dir> --project logical` into `out`, returning the
/// written bytes.
fn assemble_logical(traces: &Path, out: &Path, threads: &str) -> Vec<u8> {
    let (ok, log) = run_cli(&[
        "trace",
        "assemble",
        traces.to_str().unwrap(),
        "--project",
        "logical",
        "--threads",
        threads,
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "trace assemble failed:\n{log}");
    std::fs::read(out).unwrap()
}

/// Reads every `*.jsonl` in a campaign trace dir as (name, content).
fn read_trace_dir(dir: &Path) -> Vec<(String, String)> {
    let mut inputs = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            inputs.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    inputs
}

fn count_named(node: &simpadv_obs::SpanNode, name: &str) -> usize {
    usize::from(node.name == name)
        + node.children.iter().map(|c| count_named(c, name)).sum::<usize>()
}

#[test]
fn chaos_campaign_assembles_to_the_uninterrupted_logical_tree() {
    // Uninterrupted reference campaign, traced.
    let ref_dir = tmpdir("ref");
    let ref_out = ref_dir.join("BENCH_sweep.json");
    let ref_traces = ref_dir.join("traces");
    let (ok, log) = run_campaign(&grid_args(&ref_dir, &ref_out, &ref_traces));
    assert!(ok, "reference campaign failed:\n{log}");

    // Chaos campaign: SIGKILL the first cell attempt shortly after
    // spawn; the retry resumes from checkpoints. The kill must land
    // before the attempt finishes. In the test build on a 2-CPU x86-64
    // machine this grid's campaign takes about 260 ms for its two
    // cells, and 12 chaos campaigns per kill delay spent a retry in
    // 12/12 at 25, 50, 75 and 100 ms but only 2/12 at 150 ms: a first
    // attempt lives 100-150 ms, so 50 ms leaves a margin of at least 2x.
    let chaos_dir = tmpdir("chaos");
    let chaos_out = chaos_dir.join("BENCH_sweep.json");
    let chaos_traces = chaos_dir.join("traces");
    let mut args = grid_args(&chaos_dir, &chaos_out, &chaos_traces);
    args.extend(
        ["--chaos-kill-cell-after-us", "50000", "--chaos-kill-cell-times", "1"].map(str::to_string),
    );
    let (ok, log) = run_campaign(&args);
    assert!(ok, "chaos campaign failed:\n{log}");

    let (reference, interrupted) = (load_artifact(&ref_out), load_artifact(&chaos_out));
    assert!(
        interrupted.meta.get("retries_spent").expect("meta") >= 1.0,
        "the kill must have cost a retry"
    );
    assert!(
        interrupted.meta.get("attempts_total").expect("meta") >= 3.0,
        "2 cells plus at least one retry"
    );
    assert_eq!(
        (&interrupted.rows, &interrupted.accuracies),
        (&reference.rows, &reference.accuracies),
        "chaos must not change logical rows"
    );

    // The assembled logical projection is identical between the
    // uninterrupted and the chaos+retry campaign, byte for byte.
    let ref_logical = assemble_logical(&ref_traces, &ref_dir.join("campaign.jsonl"), "1");
    let chaos_logical = assemble_logical(&chaos_traces, &chaos_dir.join("campaign.jsonl"), "1");
    assert!(!ref_logical.is_empty());
    assert_eq!(
        ref_logical, chaos_logical,
        "chaos+retry must assemble to the uninterrupted logical tree"
    );

    // ... and the assembly itself is thread-invariant.
    let chaos_t4 = assemble_logical(&chaos_traces, &chaos_dir.join("campaign-t4.jsonl"), "4");
    assert_eq!(chaos_logical, chaos_t4, "assembly must not depend on --threads");

    // The raw assembled tree is single-rooted, with one `sweep/attempt`
    // subtree per charged cell attempt.
    let assembly = simpadv_obs::assemble(&read_trace_dir(&chaos_traces)).unwrap();
    let tree = simpadv_obs::build_tree(&assembly.events).unwrap();
    assert_eq!(tree.roots.len(), 1, "assembled stream must be single-rooted");
    assert_eq!(tree.roots[0].name, "campaign");
    let attempts = count_named(&tree.roots[0], "sweep/attempt");
    assert_eq!(
        Some(attempts as f64),
        interrupted.meta.get("attempts_total"),
        "one attempt subtree per charged attempt"
    );

    // The unified campaign flamegraph folds the whole tree under the
    // synthetic root and carries work from inside the cell processes.
    let (ok, log) = run_cli(&["sweep", "trace", chaos_traces.to_str().unwrap()]);
    assert!(ok, "sweep trace failed:\n{log}");
    assert!(log.contains("campaign;sweep"), "flamegraph must fold under the root:\n{log}");
    assert!(log.contains("sweep/attempt"), "flamegraph must show attempt frames:\n{log}");
}

fn request(seed: u64) -> PredictRequest {
    let pixels = (0..simpadv_data::IMAGE_PIXELS)
        .map(|i| (((i as u64).wrapping_mul(37).wrapping_add(seed * 11) % 251) as f32) / 251.0)
        .collect();
    PredictRequest { pixels, label: Some((seed % 10) as usize), adversarial: false }
}

#[test]
fn serve_requests_stitch_under_the_clients_span() {
    let dir = tmpdir("serve");
    let trace_path = dir.join("loadgen.jsonl");
    simpadv_trace::install_file(&trace_path, simpadv_trace::TraceFormat::Jsonl).unwrap();
    simpadv_trace::set_trace_root(simpadv_trace::context::derive_trace_id("loadgen", 7));

    let models = dir.join("models");
    let store = CheckpointStore::open(&models).unwrap();
    let spec = ModelSpec::small_mlp();
    let clf = spec.build(1);
    ServedModel::capture(&spec, &clf, "mnist", "test").publish(&store).unwrap();

    let mut cfg = ServeConfig::for_dir(&models);
    cfg.batch = BatchConfig { batch_max: 4, batch_timeout_us: 200, queue_cap: 32 };
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr();
    client::wait_ready(&addr, 5_000_000).unwrap();

    // One traced client request: `predict` encodes the open span's
    // context into `X-Simpadv-Traceparent`.
    let client_ctx = {
        let span = simpadv_trace::span!("loadgen", requests = 1u64);
        let ctx = span.context().expect("tracing is on with a trace root set");
        match client::predict(&addr, &request(3)).unwrap() {
            client::PredictOutcome::Predicted(_) => {}
            client::PredictOutcome::Rejected(_) => panic!("queue cannot be full"),
        }
        ctx
    };
    server.shutdown();
    simpadv_trace::uninstall();

    // The server's request span carries the propagated identity: same
    // trace, parented on the client's span.
    let content = std::fs::read_to_string(&trace_path).unwrap();
    let events = simpadv_obs::read_events(&content).unwrap();
    let open = events
        .iter()
        .find(|e| e.kind == EventKind::SpanOpen && e.path.ends_with("serve/request"))
        .expect("a serve/request span must have been traced");
    let ctx = open.ctx.expect("request span must carry a campaign context");
    assert_eq!(ctx.trace_id, client_ctx.trace_id, "request must join the client's trace");
    assert_eq!(ctx.parent, Some(client_ctx.span_id), "request must parent on the client span");

    // And the collector hangs the request under the client's span in
    // the assembled campaign tree.
    let assembly = simpadv_obs::assemble(&[("loadgen.jsonl".to_string(), content)]).unwrap();
    let tree = simpadv_obs::build_tree(&assembly.events).unwrap();
    assert_eq!(tree.roots.len(), 1);
    let mut stitched = false;
    tree.walk(&mut |node| {
        if node.name == "loadgen" {
            stitched = count_named(node, "serve/request") >= 1;
        }
    });
    assert!(stitched, "serve/request must be a descendant of the loadgen span");
}

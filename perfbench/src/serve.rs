//! The `serve-open-loop` workload: an in-process `Server` over a published
//! default-MLP checkpoint, driven by an open-loop generator.
//!
//! Requests are 90 % clean and 10 % PGD-adversarial inputs from a pool
//! crafted during set-up. They are due on a seeded Poisson schedule and
//! are sent, each on its own connection, by `nproc` sender threads;
//! latency is timed from the due time. Each sender waits for its answer
//! before it sends again, so at most `nproc` requests are in flight and
//! a batch holds at most `nproc` rows. Every answer is compared bitwise
//! with offline inference on the same checkpoint generation.

use crate::jobs::{EPSILON, SETUP_REPS};
use crate::report::{median, quantile, secs, tail, Report};
use crate::{probe, Opts, RunMode};
use rand::{RngExt, SeedableRng};
use simpadv::train::{Trainer, VanillaTrainer};
use simpadv::{ModelSpec, TrainConfig};
use simpadv_attacks::{Attack, Pgd};
use simpadv_data::{SynthConfig, SynthDataset, IMAGE_PIXELS};
use simpadv_nn::{Classifier, GradientModel, Layer};
use simpadv_resilience::CheckpointStore;
use simpadv_runtime::split_seed;
use simpadv_serve::client::{self, PredictOutcome};
use simpadv_serve::{
    load_latest_servable, PredictRequest, PredictResponse, ServeConfig, ServedModel, Server,
    StatsSnapshot,
};
use simpadv_tensor::Tensor;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Low rate (requests/s): requests nearly always meet an idle batcher.
pub const LOW_RPS: f64 = 200.0;
/// High rate (requests/s): the two senders overlap more often, so more
/// batches hold two rows.
pub const HIGH_RPS: f64 = 500.0;
/// Requests sent at each fixed rate: at least ten lie beyond p99.
const REQUESTS: usize = 1100;
/// Requests per capacity window, and the fewest windows a run measures.
const WINDOW: usize = 600;
const MIN_WINDOWS: usize = 3;
/// Training examples for the served model and the request pool size.
const TRAIN_SAMPLES: usize = 1000;
const POOL: usize = 200;
/// One pool entry in this many is adversarial.
const ADV_EVERY: usize = 10;

/// One pool entry: the request and the logits offline inference gives.
struct Entry {
    request: PredictRequest,
    logits: Vec<u32>,
}

struct Setup {
    server: Server,
    dir: PathBuf,
    pool: Vec<Entry>,
    model: Classifier,
    generate_s: f64,
    publish_s: f64,
    load_s: f64,
}

fn setup(seed: u64, rep: usize) -> Setup {
    let t = Instant::now();
    let train = SynthDataset::Mnist.generate(&SynthConfig::new(TRAIN_SAMPLES, seed));
    let pool_data = SynthDataset::Mnist.generate(&SynthConfig::new(POOL, split_seed(seed, 3)));
    let generate_s = secs(t);
    let spec = ModelSpec::default_mlp();
    let mut clf = spec.build(split_seed(seed, 1));
    VanillaTrainer::new().train(&mut clf, &train, &TrainConfig::new(2, split_seed(seed, 2)));

    let dir = PathBuf::from(format!(".perfbench/serve-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let store = CheckpointStore::open(&dir).expect("open the checkpoint store");
    let generation = ServedModel::capture(&spec, &clf, "synth-mnist", "vanilla")
        .publish(&store)
        .expect("publish the served model");
    let publish_s = secs(t);
    let t = Instant::now();
    let (loaded, served) = load_latest_servable(&store).expect("load the published model");
    let mut model = served.restore().expect("restore the published model");
    let load_s = secs(t);
    assert_eq!(loaded, generation, "the store must serve what was published");

    let mut pool = Vec::with_capacity(POOL);
    let adv_rows: Vec<usize> = (0..POOL).filter(|i| i % ADV_EVERY == ADV_EVERY - 1).collect();
    let adv_x = pool_data.images().gather_rows(&adv_rows);
    let adv_y: Vec<usize> = adv_rows.iter().map(|&i| pool_data.labels()[i]).collect();
    let crafted = Pgd::new(EPSILON, 10, split_seed(seed, 4)).perturb(&mut model, &adv_x, &adv_y);
    for i in 0..POOL {
        let adversarial = i % ADV_EVERY == ADV_EVERY - 1;
        let x = if adversarial {
            crafted.rows(i / ADV_EVERY..i / ADV_EVERY + 1)
        } else {
            pool_data.images().rows(i..i + 1)
        };
        let logits = model.logits(&x).as_slice().iter().map(|v| v.to_bits()).collect();
        let request = PredictRequest {
            pixels: x.as_slice().to_vec(),
            label: Some(pool_data.labels()[i]),
            adversarial,
        };
        pool.push(Entry { request, logits });
    }
    let server = Server::start(ServeConfig::for_dir(&dir)).expect("start the server");
    client::wait_ready(&server.local_addr(), 5_000_000).expect("server ready");
    Setup { server, dir, pool, model, generate_s, publish_s, load_s }
}

impl Setup {
    /// Digest of the offline logits of the whole pool.
    fn pool_digest(&self) -> u64 {
        let mut h = crate::report::Fnv::default();
        for e in &self.pool {
            for &bits in &e.logits {
                h.u64(u64::from(bits));
            }
        }
        h.finish()
    }

    fn stop(self) {
        drop(self.server.shutdown());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
struct Phase {
    /// Per request, ms from due time to answer.
    latency_ms: Vec<f64>,
    /// Per request, ms the sender started late.
    lag_ms: Vec<f64>,
    failed: usize,
    mismatched: usize,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }

    /// Counts every request, and the failed or mismatched ones, in `r`.
    fn tally(&self, r: &mut Report) {
        r.attempted += self.latency_ms.len() as u64;
        r.failed += (self.failed + self.mismatched) as u64;
    }
}

/// Sends `n` requests due on a Poisson schedule at `rate` from `senders`
/// threads and checks every answer.
fn open_loop(addr: &str, pool: &[Entry], rate: f64, n: usize, seed: u64, senders: usize) -> Phase {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut due = Vec::with_capacity(n);
    let mut at = 0.0f64;
    let mut picks = Vec::with_capacity(n);
    for _ in 0..n {
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        if rate.is_finite() {
            at += -u.ln() / rate;
        }
        due.push(Duration::from_secs_f64(at));
        picks.push(rng.random_range(0..pool.len()));
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<Vec<Sent>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            return out;
                        }
                        let due_at = start + due[index];
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let lag = Instant::now().saturating_duration_since(due_at);
                        let entry = &pool[picks[index]];
                        let _span = probe::open("serve.request", 1, false);
                        let answer = client::predict(addr, &entry.request);
                        let latency = Instant::now().saturating_duration_since(due_at);
                        out.push(Sent {
                            index,
                            latency_ms: latency.as_secs_f64() * 1e3,
                            lag_ms: lag.as_secs_f64() * 1e3,
                            ok: matches!(answer, Ok(PredictOutcome::Predicted(_))),
                            matched: matches!(&answer, Ok(PredictOutcome::Predicted(resp)) if same_answer(resp, entry)),
                        });
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    let mut all: Vec<Sent> = results.into_iter().flatten().collect();
    all.sort_by_key(|s| s.index);
    let mut phase = Phase::default();
    for s in all {
        phase.latency_ms.push(s.latency_ms);
        phase.lag_ms.push(s.lag_ms);
        phase.failed += usize::from(!s.ok);
        phase.mismatched += usize::from(s.ok && !s.matched);
    }
    phase
}

/// Mean requests per dispatched batch between two stats snapshots.
fn occupancy(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let (b, a) = (&before.batch_occupancy, &after.batch_occupancy);
    let batches = a.batches - b.batches;
    let rows = a.mean * a.batches as f64 - b.mean * b.batches as f64;
    if batches > 0 {
        rows / batches as f64
    } else {
        0.0
    }
}

/// One sent request, as a sender thread saw it.
struct Sent {
    index: usize,
    latency_ms: f64,
    lag_ms: f64,
    /// Answered 200.
    ok: bool,
    /// Answered bitwise as offline inference does.
    matched: bool,
}

fn same_answer(resp: &PredictResponse, entry: &Entry) -> bool {
    resp.generation == 1
        && resp.logits.len() == entry.logits.len()
        && resp.logits.iter().zip(&entry.logits).all(|(a, b)| a.to_bits() == *b)
}

/// Runs the serving workload.
pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    // Each set-up replaces the one before, so only one server runs and
    // earlier set-ups do not count in the peak memory.
    let mut last: Option<Setup> = None;
    let mut digests = Vec::new();
    let mut runs: Vec<[f64; 4]> = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            previous.stop();
        }
        let t = Instant::now();
        let s = setup(opts.seed, rep);
        runs.push([secs(t), s.generate_s, s.publish_s, s.load_s]);
        digests.push(s.pool_digest());
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    let of = |i: usize| median(&runs.iter().map(|x| x[i]).collect::<Vec<_>>());
    let (setup_s, generate_s, publish_s, load_s) = (of(0), of(1), of(2), of(3));
    // The offline answers every response is compared with: the same in
    // every set-up, and at the default seed equal to the recorded digest.
    let expected = crate::expected::digest("serve-open-loop", opts.seed);
    let shown = if opts.plant { digests[0] ^ 1 } else { digests[0] };
    r.outcome(digests.iter().all(|&d| d == shown) && expected.is_none_or(|e| e == shown));
    r.line(format!(
        "digest {shown:016x} (recorded for seed {}: {})",
        crate::DEFAULT_SEED,
        crate::expected::digest("serve-open-loop", crate::DEFAULT_SEED)
            .map_or("none".into(), |d| format!("{d:016x}"))
    ));
    let addr = s.server.local_addr();
    let senders = simpadv_runtime::available_threads();
    // Warm-up: connections, allocator and caches, not timed.
    let warm = open_loop(&addr, &s.pool, LOW_RPS, 50, split_seed(opts.seed, 9), senders);
    warm.tally(&mut r);

    if opts.trace {
        trace_run(opts, &s, &addr, senders, generate_s, &mut r);
        r.metric("resilience.publish_s", publish_s, "s");
        r.metric("resilience.load_s", load_s, "s");
    } else {
        let started = Instant::now();
        let mut phases = Vec::new();
        for (name, rate, stream) in [("low-rate", LOW_RPS, 5), ("high-rate", HIGH_RPS, 6)] {
            let before = s.server.stats();
            let seed = split_seed(opts.seed, stream);
            let phase = open_loop(&addr, &s.pool, rate, REQUESTS, seed, senders);
            let after = s.server.stats();
            phase.tally(&mut r);
            let (label, value) = tail(&phase.latency_ms);
            r.line(format!(
                "serve_p50_ms.{name} = {:.4} ms, serve_{label}_ms.{name} = {value:.4} ms \
                 (n={}, generator lag p99 {:.4} ms, batch occupancy mean {:.3}, largest batch \
                 so far {})",
                phase.p(0.5),
                phase.latency_ms.len(),
                quantile(&phase.lag_ms, 0.99),
                occupancy(&before, &after),
                after.batch_occupancy.max
            ));
            phases.push(phase);
        }
        // Capacity: every sender sends back to back (the open loop at an
        // unbounded rate), in windows until the run's time is spent.
        let mut window_rps = Vec::new();
        while secs(started) < opts.seconds || window_rps.len() < MIN_WINDOWS {
            let seed = split_seed(opts.seed, 100 + window_rps.len() as u64);
            let t = Instant::now();
            let phase = open_loop(&addr, &s.pool, f64::INFINITY, WINDOW, seed, senders);
            phase.tally(&mut r);
            window_rps.push(WINDOW as f64 / secs(t));
        }
        let capacity = median(&window_rps);
        r.line(format!(
            "serve_capacity_rps = {capacity:.1} median (q1 {:.1}, q3 {:.1}, n={} windows of {WINDOW})",
            quantile(&window_rps, 0.25),
            quantile(&window_rps, 0.75),
            window_rps.len()
        ));
        let low = &phases[0];
        r.metric("setup_s", setup_s, "s");
        r.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        r.metric("unit_ms", low.p(0.5), "ms");
        r.metric("rate_per_s", capacity, "1/s");
    }
    r.line(format!(
        "setup_s = {setup_s:.5} s median of {} (data.generate_s {generate_s:.5}, \
         resilience.publish_s {publish_s:.5}, resilience.load_s {load_s:.5})",
        runs.len()
    ));
    s.stop();
    r
}

/// The traced run: request-path and batcher attribution, plus the
/// overhead of the benchmark's spans and of the program's tracer.
fn trace_run(opts: &Opts, s: &Setup, addr: &str, senders: usize, generate_s: f64, r: &mut Report) {
    let budget = 0.5 * opts.seconds;
    let segment = 200;
    let modes = [RunMode::Plain, RunMode::Bench, RunMode::Program];
    let mut p50s: Vec<(RunMode, f64)> = Vec::new();
    let t = Instant::now();
    while secs(t) < budget || p50s.len() < 2 * modes.len() {
        let mode = modes[p50s.len() % modes.len()];
        let memory = (mode == RunMode::Program).then(simpadv_trace::install_memory);
        if mode == RunMode::Bench {
            probe::enable();
        }
        let seed = split_seed(opts.seed, 200 + p50s.len() as u64);
        let phase = open_loop(addr, &s.pool, LOW_RPS, segment, seed, senders);
        if mode == RunMode::Bench {
            drop(probe::disable());
        }
        if let Some(handle) = memory {
            simpadv_trace::uninstall();
            drop(handle.take());
        }
        phase.tally(r);
        p50s.push((mode, phase.p(0.5)));
    }
    let of = |mode: RunMode| {
        median(&p50s.iter().filter(|(m, _)| *m == mode).map(|x| x.1).collect::<Vec<_>>())
    };
    let base = of(RunMode::Plain);
    r.metric("trace.bench_overhead_frac", of(RunMode::Bench) / base - 1.0, "frac");
    r.metric("trace.program_overhead_frac", of(RunMode::Program) / base - 1.0, "frac");

    let before = s.server.stats();
    let high = open_loop(addr, &s.pool, HIGH_RPS, REQUESTS, split_seed(opts.seed, 6), senders);
    let after = s.server.stats();
    high.tally(r);
    let occupancy = occupancy(&before, &after);
    r.metric("serve.batch_occupancy_mean", occupancy, "count");
    r.metric("serve.rejected", after.rejected as f64, "count");
    r.metric("serve.mismatch", high.mismatched as f64, "count");
    r.metric("serve.generator_lag_ms_p99", quantile(&high.lag_ms, 0.99), "ms");

    // Batcher: in-process submits at the observed occupancy.
    let engine = s.server.engine();
    let rows = (occupancy.round() as usize).max(1);
    let batch: Vec<PredictRequest> = s.pool.iter().take(rows).map(|e| e.request.clone()).collect();
    let forward_s = crate::attrib::per_call(50, || {
        black_box(engine.infer_batch(&batch).expect("infer a batch"));
    });
    let single = crate::attrib::per_call(50, || {
        black_box(engine.infer_batch(&batch[..1]).expect("infer one request"));
    });
    let mut waits = Vec::with_capacity(1000);
    for i in 0..1000 {
        let t = Instant::now();
        let resp = engine.submit(s.pool[i % s.pool.len()].request.clone());
        let ok = resp.is_ok_and(|resp| same_answer(&resp, &s.pool[i % s.pool.len()]));
        r.outcome(ok);
        waits.push((secs(t) - single) * 1e6);
    }
    r.metric("serve.batch_forward_us", forward_s * 1e6, "us");
    r.metric("serve.queue_wait_us.p50", quantile(&waits, 0.5), "us");
    r.metric("serve.queue_wait_us.p99", quantile(&waits, 0.99), "us");

    // Request path: connection and HTTP with no model work, then the
    // parse and JSON steps replayed on recorded bodies.
    let mut rtts = Vec::with_capacity(300);
    for _ in 0..300 {
        let t = Instant::now();
        r.outcome(client::healthz(addr).is_ok());
        rtts.push(secs(t) * 1e6);
    }
    r.metric("serve.healthz_rtt_us", median(&rtts), "us");
    let body = serde_json::to_string(&s.pool[0].request).expect("encode a request");
    let mut wire = Vec::new();
    simpadv_serve::protocol::write_request(&mut wire, "POST", "/predict", body.as_bytes())
        .expect("frame a request");
    let parse_s = crate::attrib::per_call(100, || {
        let mut reader = std::io::BufReader::new(&wire[..]);
        black_box(simpadv_serve::protocol::read_request(&mut reader).expect("parse a request"));
    });
    let decode_s = crate::attrib::per_call(100, || {
        black_box(serde_json::from_str::<PredictRequest>(&body).expect("decode a request"));
    });
    let mut m = s.model.clone();
    let x = Tensor::from_vec(s.pool[0].request.pixels.clone(), &[1, IMAGE_PIXELS]);
    let logits = m.logits(&x);
    let response =
        PredictResponse { prediction: 0, logits: logits.as_slice().to_vec(), generation: 1 };
    let encode_s = crate::attrib::per_call(100, || {
        black_box(serde_json::to_string(&response).expect("encode a response"));
    });
    r.metric("serve.http_parse_us", parse_s * 1e6, "us");
    r.metric("serve.json_decode_us", decode_s * 1e6, "us");
    r.metric("serve.json_encode_us", encode_s * 1e6, "us");

    // The forward the batcher runs, behind the layer probes, per request.
    let mut probed = probe::build(&ModelSpec::default_mlp(), split_seed(opts.seed, 1));
    probed.network_mut().load_state(&s.model.network().state());
    let pixels: Vec<f32> = batch.iter().flat_map(|q| q.pixels.iter().copied()).collect();
    let xs = Tensor::from_vec(pixels, &[rows, IMAGE_PIXELS]);
    let n = 200;
    probe::enable();
    let t = Instant::now();
    for _ in 0..n {
        let _span = probe::open("core.serve", rows as u64, true);
        black_box(probed.logits(&xs));
    }
    let wall = t.elapsed();
    let mut attrib = crate::attrib::Attrib::default();
    attrib.add(probe::disable());
    attrib.units = (n * rows) as u64;
    attrib.wall_ns = wall.as_nanos() as u64;
    let ctx = crate::attrib::Context {
        threads: simpadv_runtime::Runtime::global().threads(),
        model: &s.model,
        train: None,
        epochs_per_unit: 0,
        region: (rows, 16),
        generate_s,
    };
    crate::attrib::per_layer(&attrib, &ctx, r);
    r.line(format!(
        "request path: healthz rtt p50 {:.1} us, forward of {rows} rows {:.1} us, queue wait p50 {:.1} us",
        median(&rtts),
        forward_s * 1e6,
        quantile(&waits, 0.5)
    ));
}

//! Per-layer attribution for the batch workloads (`train-mlp`,
//! `attack-eval`, `train-cnn`): folds the spans and ledgers of the traced
//! units into the per-layer metrics, replaying kernels and library calls
//! where a span alone cannot say it (kernel throughput, optimizer steps,
//! parallel-region overhead, batch gathering, attack element-wise work).

use crate::probe::{self, KernelShape, Recording, Span};
use crate::report::Report;
use simpadv_data::{Dataset, IMAGE_PIXELS};
use simpadv_nn::{Classifier, GradientModel, Layer, Optimizer, Sgd};
use simpadv_runtime::Runtime;
use simpadv_tensor::{col2im, im2col, Conv2dGeometry, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Longest a single replay may measure, in seconds.
const REPLAY_BUDGET_S: f64 = 0.04;

/// Spans and ledgers of every traced unit of one run, folded together.
#[derive(Debug, Default)]
pub struct Attrib {
    /// Traced units (rounds, battery passes).
    pub units: u64,
    /// Summed wall time of the traced units.
    pub wall_ns: u64,
    /// Per unit-span name (`core.train`, `core.eval`): self time.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Per layer-span name: `(calls, busy ns, rows)`.
    pub busy: BTreeMap<&'static str, (u64, u64, u64)>,
    pub kernels: BTreeMap<KernelShape, u64>,
    pub passes: BTreeMap<&'static str, (u64, u64)>,
    pub wasted_macs: u64,
    pub worker_threads: u64,
    pub replicas: u64,
    /// Every span, kept for the span file written at the end.
    pub spans: Vec<Span>,
}

/// Spans kept for the span file; beyond this only the aggregates grow.
const SPAN_CAP: usize = 400_000;

impl Attrib {
    /// Folds in one recording window.
    pub fn add(&mut self, rec: Recording) {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &rec.spans {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut one = Attrib {
            kernels: rec.kernels,
            passes: rec.passes,
            wasted_macs: rec.wasted_macs,
            worker_threads: rec.worker_threads,
            replicas: rec.replicas,
            ..Attrib::default()
        };
        for s in &rec.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.name.starts_with("core.") {
                let covered = probe::union_ns(children.remove(&s.id).unwrap_or_default());
                *one.self_ns.entry(s.name).or_insert(0) += dur.saturating_sub(covered);
            } else {
                let e = one.busy.entry(s.name).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += dur;
                e.2 += s.rows;
            }
        }
        one.spans = rec.spans;
        self.absorb(one);
    }

    /// Folds another attribution in.
    pub fn absorb(&mut self, other: Attrib) {
        self.units += other.units;
        self.wall_ns += other.wall_ns;
        for (k, v) in other.self_ns {
            *self.self_ns.entry(k).or_insert(0) += v;
        }
        for (k, (n, ns, rows)) in other.busy {
            let e = self.busy.entry(k).or_insert((0, 0, 0));
            e.0 += n;
            e.1 += ns;
            e.2 += rows;
        }
        for (k, n) in other.kernels {
            *self.kernels.entry(k).or_insert(0) += n;
        }
        for (k, (n, rows)) in other.passes {
            let e = self.passes.entry(k).or_insert((0, 0));
            e.0 += n;
            e.1 += rows;
        }
        self.wasted_macs += other.wasted_macs;
        self.worker_threads += other.worker_threads;
        self.replicas += other.replicas;
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    fn busy_s(&self, name: &str) -> f64 {
        self.busy.get(name).map_or(0.0, |e| e.1 as f64 * 1e-9)
    }

    fn pass(&self, kind: &str) -> (u64, u64) {
        self.passes.get(kind).copied().unwrap_or((0, 0))
    }

    /// The exact counts of the traced units (kernel calls and shapes,
    /// passes, rows, replicas) as one digest: they must repeat exactly.
    pub fn counts_digest(&self) -> u64 {
        let mut h = crate::report::Fnv::default();
        for ((k, a, b, c), n) in &self.kernels {
            h.bytes(k.as_bytes());
            for x in [*a as u64, *b as u64, *c as u64, *n] {
                h.u64(x);
            }
        }
        for (k, (n, rows)) in &self.passes {
            h.bytes(k.as_bytes());
            h.u64(*n);
            h.u64(*rows);
        }
        h.u64(self.replicas);
        h.u64(self.wasted_macs);
        h.finish()
    }
}

/// Kernel totals from replaying every recorded shape.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTotals {
    pub calls: u64,
    /// MACs for matmuls, bytes for im2col/col2im ("computed" from shapes).
    pub work: f64,
    pub busy_s: f64,
}

/// Runs `f` until the replay budget is spent (at least `min` times) and
/// returns seconds per call.
pub fn per_call(min: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut n = 0u64;
    while n < min.max(1) || t.elapsed().as_secs_f64() < REPLAY_BUDGET_S {
        f();
        n += 1;
        if n >= 10_000 {
            break;
        }
    }
    t.elapsed().as_secs_f64() / n as f64
}

fn filled(shape: &[usize], seed: u64) -> Tensor {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(&mut rng, shape, -1.0, 1.0)
}

/// Replays every recorded kernel shape through the tensor crate's public
/// functions and totals calls, computed work and busy time per kernel.
pub fn replay_kernels(
    kernels: &BTreeMap<KernelShape, u64>,
) -> BTreeMap<&'static str, KernelTotals> {
    let mut out: BTreeMap<&'static str, KernelTotals> = BTreeMap::new();
    for (&(kernel, a, b, c), &count) in kernels {
        let (secs, work) = match kernel {
            "matmul" | "matmul_tn" | "matmul_nt" => {
                // (m, k, n): m×k times k×n, operands laid out per kernel.
                let (m, k, n) = (a, b, c);
                let (lhs, rhs) = match kernel {
                    "matmul" => (filled(&[m, k], 1), filled(&[k, n], 2)),
                    "matmul_tn" => (filled(&[k, m], 1), filled(&[k, n], 2)),
                    _ => (filled(&[m, k], 1), filled(&[n, k], 2)),
                };
                let secs = per_call(3, || {
                    black_box(match kernel {
                        "matmul" => lhs.matmul(&rhs),
                        "matmul_tn" => lhs.matmul_tn(&rhs),
                        _ => lhs.matmul_nt(&rhs),
                    });
                });
                (secs, (m * k * n) as f64)
            }
            _ => {
                let (n, ch, side) = (a, b, c);
                let geom = Conv2dGeometry::new(side, side, 3, 3, 1, 1);
                let bytes = geom.im2col_bytes(n, ch) as f64;
                let input = filled(&[n, ch, side, side], 3);
                let cols = im2col(&input, ch, &geom);
                let secs = if kernel == "im2col" {
                    per_call(3, || {
                        black_box(im2col(&input, ch, &geom));
                    })
                } else {
                    per_call(3, || {
                        black_box(col2im(&cols, n, ch, &geom));
                    })
                };
                (secs, bytes)
            }
        };
        let e = out.entry(kernel).or_default();
        e.calls += count;
        e.work += work * count as f64;
        e.busy_s += secs * count as f64;
    }
    out
}

/// A model whose input gradient is a fixed tensor: lets `signed_step` be
/// replayed for its element-wise work alone.
#[derive(Debug, Clone)]
struct FixedGrad(Tensor);

impl GradientModel for FixedGrad {
    fn logits(&mut self, x: &Tensor) -> Tensor {
        x.clone()
    }
    fn loss_and_input_grad(&mut self, _x: &Tensor, _y: &[usize]) -> (f32, Tensor) {
        (0.0, self.0.clone())
    }
    fn custom_input_grad(&mut self, _x: &Tensor, _g: &mut dyn FnMut(&Tensor) -> Tensor) -> Tensor {
        self.0.clone()
    }
    fn num_classes(&self) -> usize {
        simpadv_data::CLASS_COUNT
    }
}

/// Seconds of one attack step's element-wise work on `rows` rows: one
/// `signed_step` (sign, scale, add and the `project_ball` it ends with)
/// on a model that hands back a fixed gradient, minus the time that model
/// takes to clone the gradient.
pub fn attack_elementwise_s(rows: usize) -> f64 {
    let rows = rows.max(1);
    let x = filled(&[rows, IMAGE_PIXELS], 4).abs();
    let mut model = FixedGrad(filled(&[rows, IMAGE_PIXELS], 5));
    let y = vec![0; rows];
    let step_s = per_call(3, || {
        black_box(simpadv_attacks::signed_step(&mut model, &x, &x, &y, 0.03, 0.3));
    });
    let clone_s = per_call(3, || {
        black_box(model.0.clone());
    });
    (step_s - clone_s).max(0.0)
}

/// What the batch workloads need besides the spans to fill every metric.
pub struct Context<'a> {
    pub threads: usize,
    /// Model whose optimizer steps and clones are replayed.
    pub model: &'a Classifier,
    /// Training set and batch size, when the unit trains.
    pub train: Option<(&'a Dataset, usize)>,
    /// Epochs per unit (trainer calls in a round).
    pub epochs_per_unit: u64,
    /// `(len, chunk)` of the unit's typical parallel region.
    pub region: (usize, usize),
    pub generate_s: f64,
}

/// Fills every per-layer metric this attribution can measure and prints
/// the per-layer table. Metrics are per unit.
pub fn per_layer(a: &Attrib, ctx: &Context<'_>, r: &mut Report) {
    let units = a.units.max(1) as f64;
    let wall_s = a.wall_ns as f64 * 1e-9;
    let kt = replay_kernels(&a.kernels);
    let k = |name: &str| kt.get(name).copied().unwrap_or_default();
    for name in ["matmul", "matmul_tn", "matmul_nt"] {
        let t = k(name);
        r.metric(format!("tensor.{name}.calls"), t.calls as f64 / units, "count");
        r.metric(format!("tensor.{name}.gmac_s"), rate(t.work, t.busy_s) * 1e-9, "GMAC/s");
    }
    for name in ["im2col", "col2im"] {
        let t = k(name);
        r.metric(format!("tensor.{name}.calls"), t.calls as f64 / units, "count");
        r.metric(format!("tensor.{name}.gb_s"), rate(t.work, t.busy_s) * 1e-9, "GB/s");
    }
    let tensor_busy: f64 = kt.values().map(|t| t.busy_s).sum();
    r.metric("tensor.busy_s", tensor_busy / units, "s");

    for layer in ["dense", "conv2d"] {
        for part in ["fwd_train", "bwd_train", "fwd_eval", "bwd_eval"] {
            let s = a.busy_s(&format!("nn.{layer}.{part}"));
            r.metric(format!("nn.{layer}.{part}_s"), s / units, "s");
        }
    }
    let dense_rows: u64 = ["nn.dense.fwd_train", "nn.dense.fwd_eval"]
        .iter()
        .map(|n| a.busy.get(n).map_or(0, |e| e.2))
        .sum();
    r.metric("nn.dense.rows", dense_rows as f64 / units, "count");
    r.metric("nn.relu.s", a.busy_s("nn.relu") / units, "s");
    r.metric("nn.maxpool.s", a.busy_s("nn.maxpool") / units, "s");
    let steps = a.pass("bwd_train").0;
    let sgd_s = if steps > 0 {
        let mut clf = ctx.model.clone();
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        per_call(3, || opt.step(&mut clf.network_mut().params())) * steps as f64
    } else {
        0.0
    };
    r.metric("nn.sgd_step_s", sgd_s / units, "s");
    r.metric("nn.replica_clone_s", a.busy_s("nn.clone") / units, "s");
    let total_macs: f64 = ["matmul", "matmul_tn", "matmul_nt"].iter().map(|n| k(n).work).sum();
    let useful = if total_macs > 0.0 { 1.0 - a.wasted_macs as f64 / total_macs } else { 0.0 };
    r.metric("nn.useful_mac_frac", useful, "frac");

    let (attack_steps, attack_rows) = a.pass("bwd_eval");
    let mean_rows = if attack_steps > 0 { attack_rows as usize / attack_steps as usize } else { 0 };
    let elementwise_s =
        if attack_steps > 0 { attack_elementwise_s(mean_rows) * attack_steps as f64 } else { 0.0 };
    let eval_layers_s: f64 =
        a.busy.iter().filter(|(n, _)| n.ends_with("_eval")).map(|(_, e)| e.1 as f64 * 1e-9).sum();
    let attacks_s = if attack_steps > 0 { eval_layers_s + elementwise_s } else { 0.0 };
    r.metric("attacks.example_steps", attack_rows as f64 / units, "count");
    r.metric("attacks.busy_s", attacks_s / units, "s");
    let step_us = if attack_steps > 0 { attacks_s / attack_steps as f64 * 1e6 } else { 0.0 };
    r.metric("attacks.step_us", step_us, "us");

    let self_of = |n: &str| a.self_ns.get(n).map_or(0.0, |&v| v as f64 * 1e-9);
    r.metric("core.train.self_s", self_of("core.train") / units, "s");
    r.metric("core.eval.self_s", self_of("core.eval") / units, "s");

    r.metric("data.generate_s", ctx.generate_s, "s");
    let batch_s = match ctx.train {
        Some((data, batch)) => {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            per_call(3, || {
                for b in data.batches(batch, &mut rng) {
                    black_box(b);
                }
            }) * ctx.epochs_per_unit as f64
        }
        None => 0.0,
    };
    r.metric("data.batch_s", batch_s, "s");

    let (len, chunk) = ctx.region;
    let rt = Runtime::global();
    let region_s = per_call(20, || {
        black_box(rt.par_chunks(len, chunk, |range| range.len()));
    });
    let regions = a.worker_threads as f64 / units;
    r.metric("runtime.regions", regions, "count");
    r.metric("runtime.region_overhead_us", region_s * 1e6, "us");
    let layer_busy: f64 =
        a.busy.iter().filter(|(n, _)| *n != &"nn.clone").map(|(_, e)| e.1 as f64 * 1e-9).sum();
    let efficiency = if wall_s > 0.0 { layer_busy / (ctx.threads as f64 * wall_s) } else { 0.0 };
    r.metric("runtime.parallel_efficiency", efficiency, "frac");

    // The per-layer table: one row per module.
    let nn_busy = layer_busy + a.busy_s("nn.clone");
    let nn_calls: u64 = a.busy.values().map(|e| e.0).sum();
    let core_self = self_of("core.train") + self_of("core.eval");
    let share = |s: f64| if wall_s > 0.0 { 100.0 * s / wall_s } else { 0.0 };
    r.line(format!(
        "per-layer table ({} traced units, {:.4} s wall per unit)",
        a.units,
        wall_s / units
    ));
    r.line(format!(
        "  {:<10} {:>12} {:>12} {:>16} {:>10} {:>10} {:>7}",
        "layer", "calls/unit", "rows/unit", "computed/unit", "busy s", "self s", "share%"
    ));
    let mut row = |name: &str, calls: f64, rows: f64, work: String, busy: f64, own: f64| {
        r.line(format!(
            "  {name:<10} {calls:>12.1} {rows:>12.1} {work:>16} {busy:>10.5} {own:>10.5} {:>7.1}",
            share(busy * units)
        ));
    };
    let tensor_calls: u64 = kt.values().map(|t| t.calls).sum();
    let macs = format!("{:.4} GMAC", total_macs / units * 1e-9);
    row("core", 1.0, 0.0, String::new(), wall_s / units, core_self / units);
    row(
        "nn",
        nn_calls as f64 / units,
        dense_rows as f64 / units,
        macs.clone(),
        nn_busy / units,
        (nn_busy - tensor_busy).max(0.0) / units,
    );
    row("tensor", tensor_calls as f64 / units, 0.0, macs, tensor_busy / units, tensor_busy / units);
    row(
        "attacks",
        attack_steps as f64 / units,
        attack_rows as f64 / units,
        String::new(),
        attacks_s / units,
        elementwise_s / units,
    );
    row("runtime", regions, 0.0, String::new(), regions * region_s, regions * region_s);
    row("data", 0.0, 0.0, String::new(), batch_s, batch_s);
    let counts: Vec<String> = kt.iter().map(|(n, t)| format!("{n}={}", t.calls)).collect();
    r.line(format!(
        "exact counts over {} units: nn.dense.rows={dense_rows} attacks.example_steps={attack_rows} \
         replicas={} macs={total_macs:.0} {} (digest {:016x})",
        a.units,
        a.replicas,
        counts.join(" "),
        a.counts_digest()
    ));
}

fn rate(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

//! The benchmark's own tracing: spans recorded around calls into the
//! program's public API, and `Layer` wrappers that time every layer of a
//! real model while delegating all work to it.
//!
//! Spans are kept in memory. Each has a name, start, end, thread and
//! parent; a span opened on a runtime worker thread (where no span of the
//! benchmark is open) takes the current unit span as its parent. Layer
//! wrappers also keep a ledger of the tensor kernels their layer ran, by
//! shape, so the kernels can be replayed at exactly those shapes.

use simpadv_data::{CLASS_COUNT, IMAGE_PIXELS, IMAGE_SIDE};
use simpadv_nn::{
    Classifier, Conv2d, Dense, Flatten, Layer, MaxPool2d, Mode, ParamRef, Relu, Reshape, Sequential,
};
use simpadv_tensor::Tensor;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the probe's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
    pub parent: u64,
    /// Rows the call processed (0 where rows mean nothing).
    pub rows: u64,
}

/// A tensor kernel call shape: `(kernel, m, k, n)` for the matmuls,
/// `(kernel, batch, channels, side)` for im2col/col2im.
pub type KernelShape = (&'static str, usize, usize, usize);

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    kernels: BTreeMap<KernelShape, u64>,
    /// Threads other than the main one that cloned a model replica.
    worker_threads: BTreeSet<u64>,
    replicas: u64,
    passes: BTreeMap<&'static str, (u64, u64)>,
    wasted_macs: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static CURRENT_UNIT: AtomicU64 = AtomicU64::new(0);
static STORE: Mutex<Option<Store>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn store() -> MutexGuard<'static, Option<Store>> {
    STORE.lock().expect("probe store poisoned by a panicking recorder")
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's small id; the first thread to ask (`main`) gets 0.
pub fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording into an empty store.
pub fn enable() {
    thread_id();
    now_ns();
    *store() = Some(Store::default());
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and hands back everything recorded since [`enable`].
pub fn disable() -> Recording {
    ENABLED.store(false, Ordering::SeqCst);
    let s = store().take().unwrap_or_default();
    Recording {
        spans: s.spans,
        kernels: s.kernels,
        worker_threads: s.worker_threads.len() as u64,
        replicas: s.replicas,
        passes: s.passes,
        wasted_macs: s.wasted_macs,
    }
}

/// What one recording window captured.
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    pub kernels: BTreeMap<KernelShape, u64>,
    /// Distinct spawned worker threads that ran model work: each parallel
    /// region spawns fresh scoped threads, so this counts regions that fanned out.
    pub worker_threads: u64,
    /// Model replicas cloned (one per parallel task).
    pub replicas: u64,
    /// Whole-network passes by kind (`fwd_train`, `bwd_train`,
    /// `fwd_eval`, `bwd_eval`) as `(passes, rows)`, noted at the first layer.
    pub passes: BTreeMap<&'static str, (u64, u64)>,
    /// Multiply-accumulates whose result nothing reads: weight gradients
    /// of eval-mode backward passes (attacks discard them) and the input
    /// gradient of the first weighted layer in train mode.
    pub wasted_macs: u64,
}

/// An open span; closes (and records) on drop when recording is on.
pub struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    rows: u64,
    unit: bool,
}

/// Opens a span. A `unit` span becomes the parent of spans that worker
/// threads open while it is open.
pub fn open(name: &'static str, rows: u64, unit: bool) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    if unit {
        CURRENT_UNIT.store(id, Ordering::SeqCst);
    }
    Some(Open { id, name, start_ns: now_ns(), rows, unit })
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.pop();
            s.last().copied()
        });
        let parent =
            parent.unwrap_or_else(
                || {
                    if self.unit {
                        0
                    } else {
                        CURRENT_UNIT.load(Ordering::SeqCst)
                    }
                },
            );
        if self.unit {
            CURRENT_UNIT.store(0, Ordering::SeqCst);
        }
        let span = Span {
            id: self.id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            thread: thread_id(),
            parent,
            rows: self.rows,
        };
        if let Some(s) = store().as_mut() {
            s.spans.push(span);
        }
    }
}

fn note_kernel(shape: KernelShape) {
    if let Some(s) = store().as_mut() {
        *s.kernels.entry(shape).or_insert(0) += 1;
    }
}

fn note_pass(kind: &'static str, rows: usize) {
    if let Some(s) = store().as_mut() {
        let e = s.passes.entry(kind).or_insert((0, 0));
        e.0 += 1;
        e.1 += rows as u64;
    }
}

fn note_wasted(macs: usize) {
    if let Some(s) = store().as_mut() {
        s.wasted_macs += macs as u64;
    }
}

fn note_replica() {
    let thread = thread_id();
    if let Some(s) = store().as_mut() {
        s.replicas += 1;
        if thread != 0 {
            s.worker_threads.insert(thread);
        }
    }
}

/// The layer kinds the benchmark attributes time to.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Dense { inp: usize, out: usize },
    Conv { cin: usize, cout: usize, k: usize, side: usize },
    Relu,
    MaxPool,
    Shape,
}

/// A timing wrapper around one layer of a real model.
#[derive(Debug)]
struct Probed {
    inner: Box<dyn Layer>,
    kind: Kind,
    /// The first layer: one clone of it is one model replica, one call
    /// of it one network pass.
    first: bool,
    /// The first layer with weights: its input gradient is read only
    /// by attacks (eval mode), never by a train step.
    first_weighted: bool,
    mode: Mode,
    rows: usize,
}

impl Probed {
    fn boxed(inner: Box<dyn Layer>, kind: Kind, first: bool) -> Box<dyn Layer> {
        let first_weighted = false;
        Box::new(Probed { inner, kind, first, first_weighted, mode: Mode::Eval, rows: 0 })
    }

    fn first_weighted(inner: Box<dyn Layer>, kind: Kind, first: bool) -> Box<dyn Layer> {
        let (mode, rows) = (Mode::Eval, 0);
        Box::new(Probed { inner, kind, first, first_weighted: true, mode, rows })
    }

    fn span_name(&self, backward: bool) -> &'static str {
        let train = self.mode == Mode::Train;
        match (self.kind, backward, train) {
            (Kind::Dense { .. }, false, true) => "nn.dense.fwd_train",
            (Kind::Dense { .. }, true, true) => "nn.dense.bwd_train",
            (Kind::Dense { .. }, false, false) => "nn.dense.fwd_eval",
            (Kind::Dense { .. }, true, false) => "nn.dense.bwd_eval",
            (Kind::Conv { .. }, false, true) => "nn.conv2d.fwd_train",
            (Kind::Conv { .. }, true, true) => "nn.conv2d.bwd_train",
            (Kind::Conv { .. }, false, false) => "nn.conv2d.fwd_eval",
            (Kind::Conv { .. }, true, false) => "nn.conv2d.bwd_eval",
            (Kind::Relu, ..) => "nn.relu",
            (Kind::MaxPool, ..) => "nn.maxpool",
            (Kind::Shape, ..) => "nn.shape",
        }
    }

    /// Records the kernels the wrapped layer runs for this call (the
    /// shapes follow `Dense` and `Conv2d` in `simpadv-nn`).
    fn note_kernels(&self, backward: bool) {
        let r = self.rows;
        let eval = self.mode == Mode::Eval;
        let train_first = !eval && self.first_weighted;
        match (self.kind, backward) {
            (Kind::Dense { inp, out }, false) => note_kernel(("matmul", r, inp, out)),
            (Kind::Dense { inp, out }, true) => {
                note_kernel(("matmul_tn", inp, r, out));
                note_kernel(("matmul_nt", r, out, inp));
                if eval || train_first {
                    note_wasted(inp * r * out);
                }
            }
            (Kind::Conv { cin, cout, k, side }, false) => {
                note_kernel(("im2col", r, cin, side));
                note_kernel(("matmul_nt", r * side * side, cin * k * k, cout));
            }
            (Kind::Conv { cin, cout, k, side }, true) => {
                note_kernel(("matmul_tn", cout, r * side * side, cin * k * k));
                note_kernel(("matmul", r * side * side, cout, cin * k * k));
                note_kernel(("col2im", r, cin, side));
                if eval || train_first {
                    note_wasted(cout * r * side * side * cin * k * k);
                }
            }
            _ => {}
        }
    }
}

impl Layer for Probed {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.mode = mode;
        self.rows = input.shape()[0];
        if !enabled() {
            return self.inner.forward(input, mode);
        }
        let _span = open(self.span_name(false), self.rows as u64, false);
        self.note_kernels(false);
        if self.first {
            note_pass(if mode == Mode::Train { "fwd_train" } else { "fwd_eval" }, self.rows);
        }
        self.inner.forward(input, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        if !enabled() {
            return self.inner.backward(grad_output);
        }
        let _span = open(self.span_name(true), self.rows as u64, false);
        self.note_kernels(true);
        if self.first {
            let train = self.mode == Mode::Train;
            note_pass(if train { "bwd_train" } else { "bwd_eval" }, self.rows);
        }
        self.inner.backward(grad_output)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        self.inner.params()
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        let _span = open("nn.clone", 0, false);
        if self.first && enabled() {
            note_replica();
        }
        Box::new(Probed {
            inner: self.inner.clone_box(),
            kind: self.kind,
            first: self.first,
            first_weighted: self.first_weighted,
            mode: self.mode,
            rows: self.rows,
        })
    }

    fn state(&self) -> Vec<(String, Tensor)> {
        self.inner.state()
    }

    fn load_state(&mut self, state: &[(String, Tensor)]) {
        self.inner.load_state(state);
    }
}

/// The same model as `spec.build(seed)`, every layer wrapped in a probe.
///
/// The layer list mirrors `ModelSpec::build`; the weights are then loaded
/// from the real build, and the benchmark's digests check that the
/// wrapped model computes bitwise what the plain one does.
pub fn build(spec: &simpadv::ModelSpec, seed: u64) -> Classifier {
    use rand::SeedableRng;
    let reference = spec.build(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net = Sequential::empty();
    match spec {
        simpadv::ModelSpec::Mlp { hidden } => {
            let mut width = IMAGE_PIXELS;
            for (i, &h) in hidden.iter().enumerate() {
                let dense = Box::new(Dense::new(width, h, &mut rng));
                let kind = Kind::Dense { inp: width, out: h };
                net.push(if i == 0 {
                    Probed::first_weighted(dense, kind, true)
                } else {
                    Probed::boxed(dense, kind, false)
                });
                net.push(Probed::boxed(Box::new(Relu::new()), Kind::Relu, false));
                width = h;
            }
            let head = Box::new(Dense::new(width, CLASS_COUNT, &mut rng));
            let kind = Kind::Dense { inp: width, out: CLASS_COUNT };
            net.push(if hidden.is_empty() {
                Probed::first_weighted(head, kind, true)
            } else {
                Probed::boxed(head, kind, false)
            });
        }
        simpadv::ModelSpec::Cnn { c1, c2 } => {
            let s = IMAGE_SIDE;
            let shape = Reshape::new(&[1, s, s]);
            net.push(Probed::boxed(Box::new(shape), Kind::Shape, true));
            for (cin, cout, side) in [(1, *c1, s), (*c1, *c2, s / 2)] {
                let conv = Box::new(Conv2d::new(cin, cout, 3, 1, 1, side, side, &mut rng));
                let kind = Kind::Conv { cin, cout, k: 3, side };
                net.push(if cin == 1 {
                    Probed::first_weighted(conv, kind, false)
                } else {
                    Probed::boxed(conv, kind, false)
                });
                net.push(Probed::boxed(Box::new(Relu::new()), Kind::Relu, false));
                net.push(Probed::boxed(Box::new(MaxPool2d::new(2, 2)), Kind::MaxPool, false));
            }
            net.push(Probed::boxed(Box::new(Flatten::new()), Kind::Shape, false));
            let head_in = (s / 4) * (s / 4) * c2;
            let head = Dense::new(head_in, CLASS_COUNT, &mut rng);
            net.push(Probed::boxed(
                Box::new(head),
                Kind::Dense { inp: head_in, out: CLASS_COUNT },
                false,
            ));
        }
    }
    let state = reference.network().state();
    assert_eq!(
        net.state().iter().map(|(k, t)| (k.clone(), t.shape().to_vec())).collect::<Vec<_>>(),
        state.iter().map(|(k, t)| (k.clone(), t.shape().to_vec())).collect::<Vec<_>>(),
        "probed model layout differs from ModelSpec::build"
    );
    net.load_state(&state);
    Classifier::new(net, CLASS_COUNT)
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_nn::GradientModel;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn probed_models_compute_bitwise_what_plain_ones_do() {
        for spec in [simpadv::ModelSpec::default_mlp(), simpadv::ModelSpec::small_cnn()] {
            let mut plain = spec.build(5);
            let mut probed = build(&spec, 5);
            let x = Tensor::full(&[3, IMAGE_PIXELS], 0.25);
            assert_eq!(
                plain.loss_and_input_grad(&x, &[1, 2, 3]),
                probed.loss_and_input_grad(&x, &[1, 2, 3])
            );
        }
    }
}

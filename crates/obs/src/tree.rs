//! Span-tree reconstruction and cost attribution.
//!
//! A JSONL trace is a flat, well-nested stream of `span_open` /
//! `span_close` events (the tracer emits from a single orchestrator
//! thread and suppresses workers, so nesting is guaranteed for healthy
//! traces). This module rebuilds the tree, attaches each span's cost
//! vector — wall microseconds from `meta`, logical counters from
//! `fields` — and derives **self** cost (a span's total minus its
//! children's totals), the quantity flamegraphs and hot-spot tables are
//! built from.

use crate::error::ObsError;
use simpadv_trace::{Event, EventKind, FieldValue};
use std::collections::BTreeMap;

/// The cost a span accumulated while open: one non-logical wall reading
/// plus the four logical clock counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostVector {
    /// Wall microseconds (non-logical: from event `meta`).
    pub wall_us: u64,
    /// Model forward passes (logical).
    pub forward: u64,
    /// Model backward passes (logical).
    pub backward: u64,
    /// Multiply-accumulate proxy (logical).
    pub flops: u64,
    /// Signed-gradient attack steps (logical).
    pub attack_steps: u64,
}

impl CostVector {
    /// Adds `other` into `self`, counter-wise.
    pub fn add(&mut self, other: &CostVector) {
        self.wall_us += other.wall_us;
        self.forward += other.forward;
        self.backward += other.backward;
        self.flops += other.flops;
        self.attack_steps += other.attack_steps;
    }

    /// Counter-wise `self - other`, saturating at zero (children's
    /// truncated wall readings can never drive a parent negative).
    pub fn saturating_sub(&self, other: &CostVector) -> CostVector {
        CostVector {
            wall_us: self.wall_us.saturating_sub(other.wall_us),
            forward: self.forward.saturating_sub(other.forward),
            backward: self.backward.saturating_sub(other.backward),
            flops: self.flops.saturating_sub(other.flops),
            attack_steps: self.attack_steps.saturating_sub(other.attack_steps),
        }
    }

    /// Total gradient work: forward plus backward passes.
    pub fn work(&self) -> u64 {
        self.forward + self.backward
    }

    /// Flops per wall second — the throughput figure. Like every
    /// wall-derived number it is non-logical ("meta"): never compare it
    /// across machines or thread counts for a determinism check.
    pub fn flops_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.flops as f64 / (self.wall_us as f64 / 1e6)
    }
}

fn field_u64(pairs: &[(String, FieldValue)], key: &str) -> u64 {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            FieldValue::U64(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

fn close_cost(ev: &Event) -> CostVector {
    CostVector {
        wall_us: field_u64(&ev.meta, "wall_us"),
        forward: field_u64(&ev.fields, "forward"),
        backward: field_u64(&ev.fields, "backward"),
        flops: field_u64(&ev.fields, "flops"),
        attack_steps: field_u64(&ev.fields, "attack_steps"),
    }
}

/// One reconstructed span occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Leaf name (the last path segment this span contributed; may
    /// itself contain `/` — e.g. the resilience store's
    /// `checkpoint/save` span).
    pub name: String,
    /// Full `/`-joined path as emitted.
    pub path: String,
    /// Sequence number of the `span_open` event.
    pub open_seq: u64,
    /// The open event's logical fields (trainer id, epoch index, ...).
    pub fields: Vec<(String, FieldValue)>,
    /// Total cost between open and close (children included).
    pub total: CostVector,
    /// Child spans, in emission order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The span's own cost: total minus the sum of its children's
    /// totals (saturating per counter).
    pub fn self_cost(&self) -> CostVector {
        let mut child = CostVector::default();
        for c in &self.children {
            child.add(&c.total);
        }
        self.total.saturating_sub(&child)
    }
}

/// The reconstructed forest of a trace (traces routinely hold several
/// top-level spans — one `train` per trainer plus evaluation spans).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Top-level spans in emission order.
    pub roots: Vec<SpanNode>,
    /// Total events consumed (spans and point events alike).
    pub events: u64,
}

impl SpanTree {
    /// Visits every node depth-first, parents before children.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a SpanNode)) {
        fn go<'a>(node: &'a SpanNode, visit: &mut impl FnMut(&'a SpanNode)) {
            visit(node);
            for c in &node.children {
                go(c, visit);
            }
        }
        for r in &self.roots {
            go(r, visit);
        }
    }
}

/// Rebuilds the span tree from an event stream.
///
/// Counter/gauge/histogram events are counted but do not form nodes.
///
/// # Errors
///
/// * [`ObsError::EmptyTrace`] when `events` holds no events at all;
/// * [`ObsError::UnbalancedClose`] when a `span_close` does not match
///   the innermost open span;
/// * [`ObsError::UnclosedSpans`] when the stream ends mid-span.
pub fn build_tree(events: &[Event]) -> Result<SpanTree, ObsError> {
    if events.is_empty() {
        return Err(ObsError::EmptyTrace);
    }
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::SpanOpen => {
                // Leaf name = the open path minus the parent's path; a
                // foreign prefix (defensive) keeps the full path as name.
                let name = match stack.last() {
                    Some(parent)
                        if ev.path.len() > parent.path.len() + 1
                            && ev.path.starts_with(&parent.path)
                            && ev.path.as_bytes()[parent.path.len()] == b'/' =>
                    {
                        ev.path[parent.path.len() + 1..].to_string()
                    }
                    Some(_) => ev.path.clone(),
                    None => ev.path.clone(),
                };
                stack.push(SpanNode {
                    name,
                    path: ev.path.clone(),
                    open_seq: ev.seq,
                    fields: ev.fields.clone(),
                    total: CostVector::default(),
                    children: Vec::new(),
                });
            }
            EventKind::SpanClose => {
                let Some(mut node) = stack.pop() else {
                    return Err(ObsError::UnbalancedClose {
                        seq: ev.seq,
                        path: ev.path.clone(),
                        expected: None,
                    });
                };
                if node.path != ev.path {
                    return Err(ObsError::UnbalancedClose {
                        seq: ev.seq,
                        path: ev.path.clone(),
                        expected: Some(node.path),
                    });
                }
                node.total = close_cost(ev);
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => roots.push(node),
                }
            }
            EventKind::Counter | EventKind::Gauge | EventKind::Histogram => {}
        }
    }
    if !stack.is_empty() {
        return Err(ObsError::UnclosedSpans {
            open: stack.iter().map(|n| n.path.clone()).collect(),
        });
    }
    Ok(SpanTree { roots, events: events.len() as u64 })
}

/// Aggregate attribution for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Span occurrences at this path.
    pub count: u64,
    /// Summed total cost (children included).
    pub total: CostVector,
    /// Summed self cost (children excluded).
    pub self_cost: CostVector,
}

/// Folds the tree into per-path totals and self costs.
///
/// For every path, `total == self_cost + Σ children totals` holds by
/// construction (saturating on the wall counter).
pub fn attribute(tree: &SpanTree) -> BTreeMap<String, PathStat> {
    let mut out: BTreeMap<String, PathStat> = BTreeMap::new();
    tree.walk(&mut |node| {
        let stat = out.entry(node.path.clone()).or_default();
        stat.count += 1;
        stat.total.add(&node.total);
        stat.self_cost.add(&node.self_cost());
    });
    out
}

/// Sort key for the hot-spot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopBy {
    /// Self wall microseconds (the default — where time actually went).
    SelfWall,
    /// Total wall microseconds.
    TotalWall,
    /// Self gradient work (forward + backward).
    SelfWork,
    /// Total gradient work.
    TotalWork,
    /// Self flops.
    SelfFlops,
    /// Total flops.
    TotalFlops,
}

impl TopBy {
    /// Parses a `--by` value.
    pub fn parse(s: &str) -> Option<TopBy> {
        match s {
            "self-wall" => Some(TopBy::SelfWall),
            "total-wall" => Some(TopBy::TotalWall),
            "self-work" => Some(TopBy::SelfWork),
            "total-work" => Some(TopBy::TotalWork),
            "self-flops" => Some(TopBy::SelfFlops),
            "total-flops" => Some(TopBy::TotalFlops),
            _ => None,
        }
    }

    fn key(&self, stat: &PathStat) -> u64 {
        match self {
            TopBy::SelfWall => stat.self_cost.wall_us,
            TopBy::TotalWall => stat.total.wall_us,
            TopBy::SelfWork => stat.self_cost.work(),
            TopBy::TotalWork => stat.total.work(),
            TopBy::SelfFlops => stat.self_cost.flops,
            TopBy::TotalFlops => stat.total.flops,
        }
    }
}

/// One row of the hot-spot table.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpot {
    /// Span path.
    pub path: String,
    /// Its attribution.
    pub stat: PathStat,
}

/// The `limit` hottest paths by `by`, ties broken by path for a
/// deterministic table.
pub fn hot_spots(tree: &SpanTree, by: TopBy, limit: usize) -> Vec<HotSpot> {
    let mut spots: Vec<HotSpot> =
        attribute(tree).into_iter().map(|(path, stat)| HotSpot { path, stat }).collect();
    spots.sort_by(|a, b| by.key(&b.stat).cmp(&by.key(&a.stat)).then(a.path.cmp(&b.path)));
    spots.truncate(limit);
    spots
}

/// Renders the hot-spot table as `trace top` prints it. The throughput
/// column is wall-derived and therefore non-logical (hence the `meta`
/// marker in its header); the `flops` counter counts multiply-
/// accumulates, so the rate is in MMAC/s.
pub fn render_top(spots: &[HotSpot]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>5} {:>11} {:>11} {:>10} {:>10} {:>12} {:>14}\n",
        "span", "count", "self_ms", "total_ms", "fwd", "bwd", "flops", "mmac/s(meta)"
    ));
    for s in spots {
        out.push_str(&format!(
            "{:<44} {:>5} {:>11.3} {:>11.3} {:>10} {:>10} {:>12} {:>14.1}\n",
            s.path,
            s.stat.count,
            s.stat.self_cost.wall_us as f64 / 1e3,
            s.stat.total.wall_us as f64 / 1e3,
            s.stat.total.forward,
            s.stat.total.backward,
            s.stat.total.flops,
            s.stat.total.flops_per_sec() / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(seq: u64, path: &str) -> Event {
        Event {
            seq,
            kind: EventKind::SpanOpen,
            path: path.into(),
            fields: Vec::new(),
            meta: Vec::new(),
            ctx: None,
        }
    }

    fn close(seq: u64, path: &str, wall: u64, forward: u64, flops: u64) -> Event {
        Event {
            seq,
            kind: EventKind::SpanClose,
            path: path.into(),
            fields: vec![
                ("forward".into(), FieldValue::U64(forward)),
                ("backward".into(), FieldValue::U64(0)),
                ("flops".into(), FieldValue::U64(flops)),
                ("attack_steps".into(), FieldValue::U64(0)),
            ],
            meta: vec![("wall_us".into(), FieldValue::U64(wall))],
            ctx: None,
        }
    }

    fn sample() -> Vec<Event> {
        vec![
            open(0, "train"),
            open(1, "train/epoch"),
            close(2, "train/epoch", 30, 4, 400),
            open(3, "train/epoch"),
            close(4, "train/epoch", 50, 6, 600),
            close(5, "train", 100, 10, 1000),
        ]
    }

    #[test]
    fn rebuilds_nesting_totals_and_self_cost() {
        let tree = build_tree(&sample()).expect("balanced");
        assert_eq!(tree.roots.len(), 1);
        let train = &tree.roots[0];
        assert_eq!(train.name, "train");
        assert_eq!(train.children.len(), 2);
        assert_eq!(train.total.wall_us, 100);
        let own = train.self_cost();
        assert_eq!(own.wall_us, 100 - 30 - 50);
        assert_eq!(own.forward, 0);
        assert_eq!(own.flops, 0);
        assert_eq!(train.children[1].total.forward, 6);
    }

    #[test]
    fn attribution_aggregates_per_path() {
        let tree = build_tree(&sample()).expect("balanced");
        let attr = attribute(&tree);
        assert_eq!(attr["train/epoch"].count, 2);
        assert_eq!(attr["train/epoch"].total.wall_us, 80);
        assert_eq!(attr["train/epoch"].self_cost.wall_us, 80);
        assert_eq!(attr["train"].self_cost.wall_us, 20);
        // total == self + children, per path family
        assert_eq!(
            attr["train"].total.wall_us,
            attr["train"].self_cost.wall_us + attr["train/epoch"].total.wall_us
        );
    }

    #[test]
    fn multi_segment_leaf_names_survive() {
        let events = vec![
            open(0, "train"),
            open(1, "train/checkpoint/save"),
            close(2, "train/checkpoint/save", 5, 0, 0),
            close(3, "train", 10, 0, 0),
        ];
        let tree = build_tree(&events).expect("balanced");
        assert_eq!(tree.roots[0].children[0].name, "checkpoint/save");
    }

    #[test]
    fn empty_trace_is_typed() {
        assert_eq!(build_tree(&[]), Err(ObsError::EmptyTrace));
    }

    #[test]
    fn single_span_trace_attributes_everything_to_itself() {
        // The degenerate trace one `bench kernels` workload iteration
        // produces: one root span, no children. Total must equal self
        // on every axis, and attribution must carry the full cost.
        let events = vec![open(0, "kernel/matmul"), close(1, "kernel/matmul", 42, 1, 105)];
        let tree = build_tree(&events).expect("balanced");
        assert_eq!(tree.roots.len(), 1);
        let node = &tree.roots[0];
        assert_eq!(node.name, "kernel/matmul");
        assert!(node.children.is_empty());
        assert_eq!(node.total, node.self_cost());
        assert_eq!(node.total.wall_us, 42);
        assert_eq!(node.total.forward, 1);
        assert_eq!(node.total.flops, 105);

        let attr = attribute(&tree);
        assert_eq!(attr.len(), 1);
        let stat = &attr["kernel/matmul"];
        assert_eq!(stat.count, 1);
        assert_eq!(stat.total, stat.self_cost);
        assert_eq!(stat.total.flops, 105);
    }

    #[test]
    fn single_span_with_zero_cost_close_stays_zeroed() {
        // A span that closes without ticking any counter must not
        // invent cost: self == total == zero, and hot_spots still
        // lists it (rank order over one element is trivially stable).
        let events = vec![open(0, "idle"), close(1, "idle", 0, 0, 0)];
        let tree = build_tree(&events).expect("balanced");
        assert_eq!(tree.roots[0].self_cost(), CostVector::default());
        let top = hot_spots(&tree, TopBy::SelfFlops, 10);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].path, "idle");
    }

    #[test]
    fn mismatched_close_is_typed() {
        let events = vec![open(0, "a"), close(1, "b", 1, 0, 0)];
        match build_tree(&events) {
            Err(ObsError::UnbalancedClose { path, expected, .. }) => {
                assert_eq!(path, "b");
                assert_eq!(expected.as_deref(), Some("a"));
            }
            other => panic!("expected UnbalancedClose, got {other:?}"),
        }
    }

    #[test]
    fn close_without_open_is_typed() {
        let events = vec![close(0, "a", 1, 0, 0)];
        assert!(matches!(
            build_tree(&events),
            Err(ObsError::UnbalancedClose { expected: None, .. })
        ));
    }

    #[test]
    fn unclosed_span_is_typed() {
        let events = vec![open(0, "train"), open(1, "train/epoch")];
        match build_tree(&events) {
            Err(ObsError::UnclosedSpans { open }) => {
                assert_eq!(open, vec!["train".to_string(), "train/epoch".to_string()]);
            }
            other => panic!("expected UnclosedSpans, got {other:?}"),
        }
    }

    #[test]
    fn hot_spots_sort_by_requested_key() {
        let tree = build_tree(&sample()).expect("balanced");
        let top = hot_spots(&tree, TopBy::SelfWall, 10);
        assert_eq!(top[0].path, "train/epoch");
        let top = hot_spots(&tree, TopBy::TotalWall, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].path, "train");
        let table = render_top(&top);
        assert!(table.contains("train"));
        assert!(table.contains("mmac/s(meta)"));
    }

    #[test]
    fn throughput_is_flops_over_wall_seconds() {
        let c = CostVector { wall_us: 2_000_000, flops: 4_000_000, ..CostVector::default() };
        assert!((c.flops_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert_eq!(CostVector::default().flops_per_sec(), 0.0);
    }

    #[test]
    fn topby_parses_all_keys() {
        for s in ["self-wall", "total-wall", "self-work", "total-work", "self-flops", "total-flops"]
        {
            assert!(TopBy::parse(s).is_some(), "{s}");
        }
        assert!(TopBy::parse("wat").is_none());
    }
}

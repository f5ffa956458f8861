//! Property-based tests for the observatory's structural invariants:
//! self-cost attribution telescopes, collapsed flamegraph stacks round-trip
//! to the tree's totals, a trace always diffs clean against itself, and
//! the campaign collector assembles a single-rooted, telescoping tree
//! whatever mix of torn, missing, and healthy per-process traces it is
//! handed, and the artifact parser answers any bytes with a value or a
//! typed error, never a panic.

use proptest::prelude::*;
use simpadv_obs::{
    assemble, attribute, build_tree, collapse, diff, normalize, parse_artifact, parse_collapsed,
    prefix_totals, render_collapsed, Artifact, CostVector, DiffOptions, FlameWeight, ObsError,
    SpanNode,
};
use simpadv_trace::{Event, EventKind, FieldValue, TraceContext};

const NAMES: &[&str] = &["train", "epoch", "attack", "eval", "checkpoint"];

fn close_fields(own: &CostVector) -> Vec<(String, FieldValue)> {
    vec![
        ("forward".to_string(), FieldValue::U64(own.forward)),
        ("backward".to_string(), FieldValue::U64(own.backward)),
        ("flops".to_string(), FieldValue::U64(own.flops)),
        ("attack_steps".to_string(), FieldValue::U64(own.attack_steps)),
    ]
}

/// Interprets a byte string as open/close commands, producing a balanced
/// event stream whose close totals are coherent (every parent's total is
/// its children's totals plus its own contribution, exactly as the real
/// tracer's delta counters behave).
fn build_events(cmds: &[u8]) -> Vec<Event> {
    let mut events = Vec::new();
    // (path, accumulated cost of already-closed children)
    let mut stack: Vec<(String, CostVector)> = Vec::new();
    let mut seq = 0u64;
    let close_top =
        |stack: &mut Vec<(String, CostVector)>, events: &mut Vec<Event>, seq: &mut u64, b: u8| {
            let Some((path, children)) = stack.pop() else { return };
            let own = CostVector {
                wall_us: u64::from(b) * 10 + 1,
                forward: u64::from(b % 7),
                backward: u64::from(b % 5),
                flops: u64::from(b) * 3,
                attack_steps: u64::from(b % 3),
            };
            let mut total = children;
            total.add(&own);
            events.push(Event {
                seq: *seq,
                kind: EventKind::SpanClose,
                path: path.clone(),
                fields: close_fields(&total),
                meta: vec![("wall_us".to_string(), FieldValue::U64(total.wall_us))],
                ctx: None,
            });
            *seq += 1;
            if let Some((_, parent_children)) = stack.last_mut() {
                parent_children.add(&total);
            }
        };
    for &b in cmds {
        if b % 4 < 2 && stack.len() < 4 {
            let name = NAMES[usize::from(b / 4) % NAMES.len()];
            let path = match stack.last() {
                Some((p, _)) => format!("{p}/{name}"),
                None => name.to_string(),
            };
            events.push(Event {
                seq,
                kind: EventKind::SpanOpen,
                path: path.clone(),
                fields: Vec::new(),
                meta: Vec::new(),
                ctx: None,
            });
            seq += 1;
            stack.push((path, CostVector::default()));
        } else {
            close_top(&mut stack, &mut events, &mut seq, b);
        }
    }
    while !stack.is_empty() {
        close_top(&mut stack, &mut events, &mut seq, 9);
    }
    events
}

fn commands() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..255, 1..48)
}

proptest! {
    #[test]
    fn self_cost_telescopes_to_total_minus_children(cmds in commands()) {
        let events = build_events(&cmds);
        if events.is_empty() {
            return Ok(());
        }
        let tree = build_tree(&events).expect("constructed balanced");
        let mut holds = true;
        tree.walk(&mut |node| {
            let mut children = CostVector::default();
            for c in &node.children {
                children.add(&c.total);
            }
            let mut back = node.self_cost();
            back.add(&children);
            // coherent construction means no saturation: self + children == total
            holds &= back == node.total;
        });
        prop_assert!(holds);
    }

    #[test]
    fn collapsed_stacks_parse_back_to_the_trees_weights(cmds in commands()) {
        let events = build_events(&cmds);
        if events.is_empty() {
            return Ok(());
        }
        let tree = build_tree(&events).expect("constructed balanced");
        let folded = render_collapsed(&collapse(&tree, FlameWeight::Wall));
        let totals = prefix_totals(&parse_collapsed(&folded).expect("own output parses"));
        for (path, stat) in attribute(&tree) {
            let frames = path.replace('/', ";");
            prop_assert_eq!(totals.get(&frames).copied(), Some(stat.total.wall_us));
        }
    }

    #[test]
    fn diff_against_self_is_always_empty(cmds in commands()) {
        let events = build_events(&cmds);
        let report = diff(&events, &events, &DiffOptions::default());
        prop_assert!(report.logically_identical());
        prop_assert!(report.wall_warnings.is_empty());
        prop_assert_eq!(report.events_a, events.len());
    }
}

/// How one generated cell's trace file ends up on disk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Balanced, complete trace.
    Healthy,
    /// Complete trace plus a torn half-written final line (writer
    /// killed mid-write) — the collector salvages it.
    Torn,
    /// The file never appeared: the child died before its first flush —
    /// the collector marks the attempt an orphan.
    Missing,
    /// The train span never closed: the process died with it open — the
    /// collector auto-closes it as crashed.
    Crashed,
}

fn fate_of(b: u8) -> Fate {
    match b % 4 {
        0 => Fate::Healthy,
        1 => Fate::Torn,
        2 => Fate::Missing,
        _ => Fate::Crashed,
    }
}

/// Builds a campaign trace directory as `(file name, content)` pairs:
/// one orchestrator trace plus one anchored cell trace per fate byte
/// (except `Missing`, which is anchored but never written).
fn campaign_inputs(fates: &[u8]) -> Vec<(String, String)> {
    let cx =
        |span: u64, parent: Option<u64>| Some(TraceContext { trace_id: 42, span_id: span, parent });
    let u = |k: &str, v: u64| (k.to_string(), FieldValue::U64(v));
    let s = |k: &str, v: &str| (k.to_string(), FieldValue::Str(v.to_string()));
    let ev = |seq: u64,
              kind: EventKind,
              path: &str,
              fields: Vec<(String, FieldValue)>,
              wall: u64,
              ctx: Option<TraceContext>| {
        let meta = if kind == EventKind::SpanClose {
            vec![("wall_us".to_string(), FieldValue::U64(wall))]
        } else {
            Vec::new()
        };
        Event { seq, kind, path: path.to_string(), fields, meta, ctx }.to_json_line()
    };
    let mut inputs = Vec::new();
    let mut orch = Vec::new();
    let mut seq = 0u64;
    orch.push(ev(
        seq,
        EventKind::SpanOpen,
        "sweep",
        vec![u("cells", fates.len() as u64)],
        0,
        cx(1, None),
    ));
    seq += 1;
    for (i, &b) in fates.iter().enumerate() {
        let fate = fate_of(b);
        let epochs = u64::from(b / 4) % 3 + 1;
        let cell_span = 10 + (i as u64) * 10;
        let attempt_span = cell_span + 1;
        let name = format!("c{i:03}.attempt001.jsonl");
        orch.push(ev(
            seq,
            EventKind::SpanOpen,
            "sweep/sweep/cell",
            vec![u("index", i as u64)],
            0,
            cx(cell_span, Some(1)),
        ));
        seq += 1;
        orch.push(ev(
            seq,
            EventKind::SpanOpen,
            "sweep/sweep/cell/sweep/attempt",
            vec![u("n", 1), s("trace_file", &name)],
            0,
            cx(attempt_span, Some(cell_span)),
        ));
        seq += 1;
        orch.push(ev(seq, EventKind::SpanClose, "sweep/sweep/cell/sweep/attempt", vec![], 5, None));
        seq += 1;
        orch.push(ev(seq, EventKind::SpanClose, "sweep/sweep/cell", vec![], 6, None));
        seq += 1;

        if fate == Fate::Missing {
            continue;
        }
        let mut cell = Vec::new();
        let mut cseq = 0u64;
        cell.push(ev(
            cseq,
            EventKind::SpanOpen,
            "train",
            vec![s("trainer", "vanilla")],
            0,
            cx(1000 + (i as u64) * 100, Some(attempt_span)),
        ));
        cseq += 1;
        for e in 0..epochs {
            cell.push(ev(
                cseq,
                EventKind::SpanOpen,
                "train/epoch",
                vec![u("index", e)],
                0,
                cx(1000 + (i as u64) * 100 + 1 + e, Some(1000 + (i as u64) * 100)),
            ));
            cseq += 1;
            cell.push(ev(
                cseq,
                EventKind::SpanClose,
                "train/epoch",
                vec![u("forward", 2), u("flops", 20)],
                10,
                None,
            ));
            cseq += 1;
        }
        if fate != Fate::Crashed {
            cell.push(ev(
                cseq,
                EventKind::SpanClose,
                "train",
                vec![u("forward", 2 * epochs), u("flops", 20 * epochs)],
                10 * epochs + 2,
                None,
            ));
        }
        let mut text = cell.join("\n");
        if fate == Fate::Torn {
            text.push_str("\n{\"seq\":99,\"ki");
        }
        inputs.push((name, text));
    }
    orch.push(ev(seq, EventKind::SpanClose, "sweep", vec![], 100, None));
    inputs.push(("orchestrator.001.jsonl".to_string(), orch.join("\n")));
    inputs
}

/// Parent ≥ Σ children, elementwise, down the whole subtree.
fn telescopes(node: &SpanNode) -> bool {
    let mut sum = CostVector::default();
    for c in &node.children {
        sum.add(&c.total);
    }
    node.total.wall_us >= sum.wall_us
        && node.total.forward >= sum.forward
        && node.total.backward >= sum.backward
        && node.total.flops >= sum.flops
        && node.total.attack_steps >= sum.attack_steps
        && node.children.iter().all(telescopes)
}

fn count_named(node: &SpanNode, name: &str) -> usize {
    usize::from(node.name == name)
        + node.children.iter().map(|c| count_named(c, name)).sum::<usize>()
}

fn fate_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..255, 1..6)
}

proptest! {
    #[test]
    fn assembled_campaigns_are_single_rooted_and_telescope(fates in fate_bytes()) {
        let inputs = campaign_inputs(&fates);
        let assembly = assemble(&inputs).expect("assembles");
        let tree = build_tree(&assembly.events).expect("balanced assembly");
        // one synthetic campaign root, one cell subtree per grid cell
        prop_assert_eq!(tree.roots.len(), 1);
        let root = &tree.roots[0];
        prop_assert_eq!(root.name.as_str(), "campaign");
        prop_assert_eq!(count_named(root, "sweep/cell"), fates.len());
        prop_assert_eq!(count_named(root, "sweep/attempt"), fates.len());
        // grafting moves cost between processes but never breaks
        // parent >= sum(children)
        prop_assert!(telescopes(root), "telescoping violated for {:?}", fates);
    }

    #[test]
    fn every_fate_lands_in_the_right_assembly_bucket(fates in fate_bytes()) {
        let inputs = campaign_inputs(&fates);
        let assembly = assemble(&inputs).expect("assembles");
        let tree = build_tree(&assembly.events).expect("balanced assembly");
        let missing: Vec<String> = fates.iter().enumerate()
            .filter(|(_, b)| fate_of(**b) == Fate::Missing)
            .map(|(i, _)| format!("c{i:03}.attempt001.jsonl"))
            .collect();
        let torn: Vec<String> = fates.iter().enumerate()
            .filter(|(_, b)| fate_of(**b) == Fate::Torn)
            .map(|(i, _)| format!("c{i:03}.attempt001.jsonl"))
            .collect();
        let crashed = fates.iter().filter(|b| fate_of(**b) == Fate::Crashed).count();
        prop_assert_eq!(&assembly.orphans, &missing);
        prop_assert_eq!(&assembly.salvaged, &torn);
        // every died-before-flush attempt is an explicit orphan node
        prop_assert_eq!(count_named(&tree.roots[0], "orphan"), missing.len());
        // every died-mid-span process is one crashed train span
        prop_assert_eq!(assembly.crashed_spans as usize, crashed);
    }

    #[test]
    fn assembly_is_invariant_under_input_order(fates in fate_bytes()) {
        let mut inputs = campaign_inputs(&fates);
        let forward = assemble(&inputs).expect("assembles");
        inputs.reverse();
        let backward = assemble(&inputs).expect("assembles");
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn normalized_campaigns_are_balanced_and_purely_logical(fates in fate_bytes()) {
        let assembly = assemble(&campaign_inputs(&fates)).expect("assembles");
        let logical = normalize(&assembly.events).expect("normalizes");
        build_tree(&logical).expect("normalized stream is balanced");
        for event in &logical {
            prop_assert!(event.meta.is_empty(), "meta must be stripped: {:?}", event);
            prop_assert!(event.ctx.is_none(), "ctx must be stripped: {:?}", event);
        }
    }
}

/// The committed artifacts `bench compare --all .` self-gates.
const COMMITTED: [&str; 2] =
    [include_str!("../../../BENCH_table1.json"), include_str!("../../../BENCH_kernels.json")];

proptest! {
    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        // The result type is the whole property: a value or an
        // `ObsError`, and returning at all means no panic.
        let _: Result<Artifact, ObsError> = parse_artifact(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn committed_artifact_prefixes_are_typed_truncations(which in 0usize..2, cut in 0usize..1_000_000) {
        let text = COMMITTED[which].trim_end();
        prop_assert!(parse_artifact::<Artifact>(text).is_ok(), "committed artifact {} parses", which);
        let prefix = &text[..cut % text.len()];
        let result = parse_artifact::<Artifact>(prefix);
        prop_assert!(
            matches!(result, Err(ObsError::TruncatedArtifact { .. })),
            "prefix of {} bytes: {:?}",
            prefix.len(),
            result.err()
        );
    }

    #[test]
    fn committed_artifact_byte_flips_parse_or_fail_typed(
        which in 0usize..2,
        at in 0usize..1_000_000,
        byte in 0u8..=255,
    ) {
        let mut bytes = COMMITTED[which].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _: Result<Artifact, ObsError> = parse_artifact(&String::from_utf8_lossy(&bytes));
    }
}

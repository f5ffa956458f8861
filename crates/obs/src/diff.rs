//! `trace diff A B`: the executable determinism line.
//!
//! Logical content — event kinds, paths, `fields`, sequence numbers,
//! i.e. everything [`Event::without_meta`] keeps — must be **bitwise
//! identical** between the two traces; any difference is a hard failure
//! the CLI turns into a non-zero exit. Wall-clock content lives in
//! `meta` and is only *annotated*: per-path wall totals drifting beyond
//! a configurable threshold produce warnings, never failures.

use simpadv_trace::{Event, EventKind, FieldValue};
use std::collections::BTreeMap;

/// Thresholds for the advisory wall-time comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative drift (percent) above which a span path's wall total is
    /// flagged.
    pub wall_threshold_pct: f64,
    /// Ignore paths whose larger wall total is below this floor —
    /// microsecond spans drift wildly in relative terms and mean nothing.
    pub min_wall_us: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { wall_threshold_pct: 25.0, min_wall_us: 1_000 }
    }
}

/// How many logical mismatches are described in detail (the total is
/// always exact).
const MAX_DETAILS: usize = 10;

/// The structured outcome of a trace comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Events in trace A.
    pub events_a: usize,
    /// Events in trace B.
    pub events_b: usize,
    /// Descriptions of the first logical mismatches (at most 10).
    pub logical: Vec<String>,
    /// Exact count of logical mismatches (length differences included).
    pub logical_total: usize,
    /// Advisory wall-drift annotations.
    pub wall_warnings: Vec<String>,
}

impl DiffReport {
    /// Whether the two traces carry identical logical content — the
    /// pass/fail verdict of `trace diff`.
    pub fn logically_identical(&self) -> bool {
        self.logical_total == 0
    }

    /// Renders the report as `trace diff` prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace A: {} events, trace B: {} events\n",
            self.events_a, self.events_b
        ));
        if self.logically_identical() {
            out.push_str("logical content: identical\n");
        } else {
            out.push_str(&format!("logical content: {} difference(s)\n", self.logical_total));
            for d in &self.logical {
                out.push_str(&format!("  {d}\n"));
            }
            if self.logical_total > self.logical.len() {
                out.push_str(&format!(
                    "  ... and {} more\n",
                    self.logical_total - self.logical.len()
                ));
            }
        }
        if self.wall_warnings.is_empty() {
            out.push_str("wall time: within threshold\n");
        } else {
            out.push_str(&format!("wall time: {} drift warning(s)\n", self.wall_warnings.len()));
            for w in &self.wall_warnings {
                out.push_str(&format!("  warning: {w}\n"));
            }
        }
        out
    }
}

fn describe_mismatch(i: usize, a: &Event, b: &Event) -> String {
    let (a, b) = (a.without_meta(), b.without_meta());
    let what = if a.kind != b.kind {
        format!("kind {:?} vs {:?}", a.kind, b.kind)
    } else if a.path != b.path {
        format!("path '{}' vs '{}'", a.path, b.path)
    } else if a.seq != b.seq {
        format!("seq {} vs {}", a.seq, b.seq)
    } else {
        format!("fields {:?} vs {:?}", a.fields, b.fields)
    };
    format!("event {i} ({} '{}'): {what}", kind_str(a.kind), a.path)
}

fn kind_str(kind: EventKind) -> &'static str {
    match kind {
        EventKind::SpanOpen => "span_open",
        EventKind::SpanClose => "span_close",
        EventKind::Counter => "counter",
        EventKind::Gauge => "gauge",
        EventKind::Histogram => "histogram",
    }
}

fn wall_us(ev: &Event) -> u64 {
    ev.meta
        .iter()
        .find(|(k, _)| k == "wall_us")
        .and_then(|(_, v)| match v {
            FieldValue::U64(n) => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

/// Per-path wall totals over the `span_close` events of a stream.
fn wall_totals(events: &[Event]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for ev in events {
        if ev.kind == EventKind::SpanClose {
            *out.entry(ev.path.clone()).or_insert(0) += wall_us(ev);
        }
    }
    out
}

/// Compares two event streams: exact on logical content, advisory on
/// wall time. Never fails — malformed traces are the reader's problem;
/// empty and unbalanced streams compare fine.
pub fn diff(a: &[Event], b: &[Event], opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport { events_a: a.len(), events_b: b.len(), ..DiffReport::default() };

    for (i, (ea, eb)) in a.iter().zip(b.iter()).enumerate() {
        if ea.without_meta() != eb.without_meta() {
            report.logical_total += 1;
            if report.logical.len() < MAX_DETAILS {
                report.logical.push(describe_mismatch(i, ea, eb));
            }
        }
    }
    let (longer, shorter, which) =
        if a.len() >= b.len() { (a.len(), b.len(), "A") } else { (b.len(), a.len(), "B") };
    if longer != shorter {
        report.logical_total += longer - shorter;
        if report.logical.len() < MAX_DETAILS {
            report.logical.push(format!(
                "trace {which} has {} extra event(s) past index {shorter}",
                longer - shorter
            ));
        }
    }

    let (wa, wb) = (wall_totals(a), wall_totals(b));
    let mut paths: Vec<&String> = wa.keys().chain(wb.keys()).collect();
    paths.sort();
    paths.dedup();
    for path in paths {
        let (ta, tb) = (*wa.get(path).unwrap_or(&0), *wb.get(path).unwrap_or(&0));
        if ta.max(tb) < opts.min_wall_us {
            continue;
        }
        let drift_pct =
            if ta == 0 { f64::INFINITY } else { (tb as f64 - ta as f64).abs() / ta as f64 * 100.0 };
        if drift_pct > opts.wall_threshold_pct {
            report.wall_warnings.push(format!(
                "{path}: wall {:.3}ms -> {:.3}ms ({}{:.0}%)",
                ta as f64 / 1e3,
                tb as f64 / 1e3,
                if tb >= ta { "+" } else { "-" },
                if drift_pct.is_finite() { drift_pct } else { 100.0 }
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind, path: &str, flops: u64, wall: u64) -> Event {
        Event {
            seq,
            kind,
            path: path.into(),
            fields: vec![("flops".into(), FieldValue::U64(flops))],
            meta: vec![("wall_us".into(), FieldValue::U64(wall))],
            ctx: None,
        }
    }

    #[test]
    fn identical_logical_content_passes_despite_wall_differences() {
        let a =
            vec![ev(0, EventKind::SpanOpen, "t", 0, 0), ev(1, EventKind::SpanClose, "t", 5, 2000)];
        let mut b = a.clone();
        b[1].meta = vec![("wall_us".into(), FieldValue::U64(2100))];
        let r = diff(&a, &b, &DiffOptions::default());
        assert!(r.logically_identical());
        assert!(r.wall_warnings.is_empty(), "5% drift is under the default threshold");
        assert!(r.render().contains("identical"));
    }

    #[test]
    fn logical_counter_change_is_a_difference() {
        let a = vec![ev(0, EventKind::SpanClose, "t", 5, 1000)];
        let mut b = a.clone();
        b[0].fields = vec![("flops".into(), FieldValue::U64(6))];
        let r = diff(&a, &b, &DiffOptions::default());
        assert_eq!(r.logical_total, 1);
        assert!(!r.logically_identical());
        assert!(r.logical[0].contains("fields"));
    }

    #[test]
    fn length_mismatch_counts_every_extra_event() {
        let a = vec![ev(0, EventKind::SpanOpen, "t", 0, 0)];
        let b = [
            a.clone(),
            vec![ev(1, EventKind::SpanClose, "t", 0, 0), ev(2, EventKind::Counter, "c", 0, 0)],
        ]
        .concat();
        let r = diff(&a, &b, &DiffOptions::default());
        assert_eq!(r.logical_total, 2);
        assert!(r.logical.iter().any(|d| d.contains("trace B has 2 extra")));
    }

    #[test]
    fn wall_drift_beyond_threshold_warns_but_does_not_fail() {
        let a = vec![ev(0, EventKind::SpanClose, "t", 5, 10_000)];
        let mut b = a.clone();
        b[0].meta = vec![("wall_us".into(), FieldValue::U64(20_000))];
        let r = diff(&a, &b, &DiffOptions::default());
        assert!(r.logically_identical());
        assert_eq!(r.wall_warnings.len(), 1);
        assert!(r.wall_warnings[0].contains("+100%"));
        assert!(r.render().contains("warning"));
    }

    #[test]
    fn tiny_spans_are_exempt_from_wall_warnings() {
        let a = vec![ev(0, EventKind::SpanClose, "t", 5, 10)];
        let mut b = a.clone();
        b[0].meta = vec![("wall_us".into(), FieldValue::U64(900))];
        let r = diff(&a, &b, &DiffOptions::default());
        assert!(r.wall_warnings.is_empty(), "both totals are under min_wall_us");
    }

    #[test]
    fn empty_traces_compare_clean() {
        let r = diff(&[], &[], &DiffOptions::default());
        assert!(r.logically_identical());
        assert!(r.wall_warnings.is_empty());
    }

    #[test]
    fn self_comparison_is_always_empty() {
        let a = vec![
            ev(0, EventKind::SpanOpen, "t", 0, 0),
            ev(1, EventKind::Gauge, "t/loss", 3, 0),
            ev(2, EventKind::SpanClose, "t", 9, 5000),
        ];
        let r = diff(&a, &a, &DiffOptions::default());
        assert!(r.logically_identical());
        assert!(r.wall_warnings.is_empty());
    }
}

//! `BENCH_*.json`: the one benchmark-artifact schema and the one
//! comparison every perf gate runs.
//!
//! Every producer — the table/figure baselines, the kernel lab, the
//! serve load generator and the sweep campaign — writes an [`Artifact`].
//! Its top-level sections are LOGICAL: a pure function of the
//! experiment's inputs and seeds, bitwise identical on any machine at
//! any `--threads`.
//!
//! * `scale` — named identity strings (sizes, seeds, the attack, a
//!   kernel's group and shape), compared for equality;
//! * `rows` — keyed by name, each holding named integer counters and
//!   named float values (a trainer's passes and flops, a kernel
//!   workload's counters and bytes, a served generation's accuracy
//!   counts, a sweep cell's loss, a quarantined cell);
//! * `accuracies` — named final accuracies;
//! * `events` / `trace_digest` — the size and [`logical_digest`] of the
//!   run's trace (zero and empty for producers without one).
//!
//! Everything the wall clock touches lives in `meta` and can only warn.
//! [`compare`] fails on any logical difference, floats included: the
//! JSON shim round-trips `f64` exactly, so no tolerance is needed.

use crate::error::ObsError;
use serde::{Deserialize, Serialize};
use simpadv_trace::Event;
use std::collections::BTreeMap;

/// Schema version of [`Artifact`]; bump on any field change.
pub const SCHEMA_VERSION: u64 = 2;

/// Default `--wall-threshold` for [`compare`]: wall drift (percent)
/// above which a warning is attached.
pub const DEFAULT_WALL_THRESHOLD_PCT: f64 = 25.0;

/// The wall-clock caveat every artifact carries in `meta.notes`.
pub const WALL_NOTE: &str = "wall statistics are machine-dependent; the reference container \
     runs on 1 CPU, so gate on the logical counters and treat wall numbers as indicative";

/// Run-condition meta values: a difference between the two sides warns.
const RUN_CONDITIONS: [&str; 2] = ["threads", "threads_available"];

/// Meta values that warn when nonzero in the candidate, with the reason.
const NONZERO_WARNINGS: [(&str, &str); 3] = [
    ("divergent_repeats", "repeats were not logically identical to the first"),
    ("rejected", "requests were shed to backpressure"),
    ("retries_spent", "retries were spent; the environment was unstable"),
];

/// One logical row: named counters and named values, keyed by `name`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row key, unique within the artifact.
    pub name: String,
    /// Named logical integers, compared exactly.
    pub counters: Vec<(String, u64)>,
    /// Named logical floats, compared bitwise.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// A row named `name` holding `counters`.
    pub fn new(name: impl Into<String>, counters: &[(&str, u64)]) -> Row {
        let counters = counters.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        Row { name: name.into(), counters, values: Vec::new() }
    }

    /// Appends a float value.
    pub fn value(mut self, name: &str, value: f64) -> Row {
        self.values.push((name.to_string(), value));
        self
    }

    /// The counter named `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Machine-dependent numbers and free-text notes. Never gated.
///
/// Value names follow a convention [`compare`] warns by: a name whose
/// last `/`-segment starts with `wall` and ends in `_s` is a wall
/// duration in seconds and warns on drift; [`RUN_CONDITIONS`] warn when
/// they differ; [`NONZERO_WARNINGS`] warn when nonzero in the candidate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Meta {
    /// Named numbers (wall statistics, rates, run conditions, effort).
    pub values: Vec<(String, f64)>,
    /// Named text (the wall caveat, quarantine causes).
    pub notes: Vec<(String, String)>,
}

impl Meta {
    /// Appends a named number.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// Appends the median of `samples` as `name`, and their min and max
    /// as `name.min` / `name.max` (zeroes when empty).
    pub fn push_wall(&mut self, name: &str, samples: &[f64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (median, min, max) = match sorted.len() {
            0 => (0.0, 0.0, 0.0),
            n if n % 2 == 1 => (sorted[n / 2], sorted[0], sorted[n - 1]),
            n => ((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0, sorted[0], sorted[n - 1]),
        };
        self.push(name, median);
        self.push(format!("{name}.min"), min);
        self.push(format!("{name}.max"), max);
    }

    /// The number named `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The note named `name`, if present.
    pub fn note(&self, name: &str) -> Option<&str> {
        self.notes.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// One `BENCH_*.json` artifact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Artifact {
    /// Always [`SCHEMA_VERSION`] for artifacts this code writes.
    pub schema_version: u64,
    /// Experiment tag (`table1`, `kernels`, `serve`, `sweep`, ...).
    pub experiment: String,
    /// Named logical identity of the workload, compared for equality.
    pub scale: Vec<(String, String)>,
    /// Keyed logical rows.
    pub rows: Vec<Row>,
    /// Named final accuracies.
    pub accuracies: Vec<(String, f64)>,
    /// Events in the run's logical trace.
    pub events: u64,
    /// [`logical_digest`] of that trace.
    pub trace_digest: String,
    /// Machine-dependent numbers, quarantined.
    pub meta: Meta,
}

impl Artifact {
    /// An empty current-schema artifact for `experiment`, carrying the
    /// standing wall caveat.
    pub fn new(experiment: impl Into<String>) -> Artifact {
        Artifact {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.into(),
            meta: Meta {
                values: Vec::new(),
                notes: vec![("wall".to_string(), WALL_NOTE.to_string())],
            },
            ..Artifact::default()
        }
    }

    /// Appends a scale entry.
    pub fn push_scale(&mut self, name: &str, value: impl ToString) {
        self.scale.push((name.to_string(), value.to_string()));
    }

    /// The row named `name`, if present.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// FNV-1a (64-bit) over the JSONL rendering of every event's logical
/// projection ([`Event::without_meta`]), newline-separated. Stable
/// across machines and thread counts whenever the logical stream is.
pub fn logical_digest(events: &[Event]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for ev in events {
        for byte in ev.without_meta().to_json_line().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    format!("{h:016x}")
}

/// The perf gate's verdict: hard logical regressions vs advisory
/// warnings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// Logical mismatches — any entry fails the gate.
    pub regressions: Vec<String>,
    /// Advisory annotations (wall drift, run conditions, effort).
    pub warnings: Vec<String>,
}

impl CompareReport {
    /// Whether the candidate passes the gate.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the report as `bench compare` prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.passed() {
            out.push_str("logical content: matches the baseline\n");
        } else {
            out.push_str(&format!("logical regressions: {}\n", self.regressions.len()));
            for r in &self.regressions {
                out.push_str(&format!("  FAIL {r}\n"));
            }
        }
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        out
    }
}

/// Matches two named lists by key: a key on one side only is a
/// regression naming `what`; `same` judges the pairs present on both.
fn keyed<'a, T>(
    out: &mut Vec<String>,
    what: &str,
    base: &'a [T],
    cand: &'a [T],
    key: impl Fn(&T) -> &str,
    mut same: impl FnMut(&mut Vec<String>, &'a T, &'a T),
) {
    let cand_by_key: BTreeMap<&str, &T> = cand.iter().map(|c| (key(c), c)).collect();
    for b in base {
        match cand_by_key.get(key(b)) {
            None => out.push(format!("{what} '{}' missing from candidate", key(b))),
            Some(c) => same(out, b, c),
        }
    }
    for c in cand {
        if !base.iter().any(|b| key(b) == key(c)) {
            out.push(format!("{what} '{}' absent from baseline", key(c)));
        }
    }
}

/// Matches two named lists: a name on one side only, or a pair that
/// `same` rejects, is a regression naming `what`.
fn named<T: std::fmt::Debug>(
    out: &mut Vec<String>,
    what: &str,
    base: &[(String, T)],
    cand: &[(String, T)],
    same: fn(&T, &T) -> bool,
) {
    keyed(
        out,
        what,
        base,
        cand,
        |(k, _)| k,
        |out, (k, b), (_, c)| {
            if !same(b, c) {
                out.push(format!("{what} '{k}' changed {b:?} -> {c:?}"));
            }
        },
    );
}

/// Logical floats are compared exactly, bit for bit.
fn bitwise(a: &f64, b: &f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Compares a candidate artifact against a baseline.
///
/// Fails (an entry in `regressions`) on any logical difference: schema
/// version, experiment, a scale entry, a row or a row's counter/value
/// missing on either side or changed, an accuracy missing or changed by
/// even one ulp, the event count or the trace digest. Warns on: wall
/// drift beyond `wall_threshold_pct`, differing run conditions, a meta
/// value missing from the candidate, nonzero candidate effort counters
/// ([`NONZERO_WARNINGS`]), and notes that differ (e.g. quarantine causes,
/// which are timing-dependent).
pub fn compare(
    baseline: &Artifact,
    candidate: &Artifact,
    wall_threshold_pct: f64,
) -> CompareReport {
    let mut report = CompareReport::default();
    let (b, c) = (baseline, candidate);
    let reg = &mut report.regressions;
    if b.schema_version != c.schema_version {
        reg.push(format!("schema version {} vs {}", b.schema_version, c.schema_version));
    }
    if b.experiment != c.experiment {
        reg.push(format!("experiment '{}' vs '{}'", b.experiment, c.experiment));
    }
    named(reg, "scale", &b.scale, &c.scale, String::eq);
    keyed(
        reg,
        "row",
        &b.rows,
        &c.rows,
        |r| &r.name,
        |out, br, cr| {
            named(out, &format!("row '{}': counter", br.name), &br.counters, &cr.counters, u64::eq);
            named(out, &format!("row '{}': value", br.name), &br.values, &cr.values, bitwise);
        },
    );
    named(reg, "accuracy", &b.accuracies, &c.accuracies, bitwise);
    if b.events != c.events {
        reg.push(format!("trace event count {} vs {}", b.events, c.events));
    }
    if b.trace_digest != c.trace_digest {
        reg.push(format!("trace logical digest {} vs {}", b.trace_digest, c.trace_digest));
    }
    report.warnings = meta_warnings(&b.meta, &c.meta, wall_threshold_pct);
    report
}

/// Whether a meta value name denotes a wall duration in seconds.
fn is_wall_seconds(name: &str) -> bool {
    let leaf = name.rsplit('/').next().unwrap_or(name);
    leaf.starts_with("wall") && leaf.ends_with("_s")
}

fn meta_warnings(base: &Meta, cand: &Meta, wall_threshold_pct: f64) -> Vec<String> {
    let mut out = Vec::new();
    for (name, b) in &base.values {
        let Some(c) = cand.get(name) else {
            out.push(format!("meta '{name}' missing from candidate"));
            continue;
        };
        if RUN_CONDITIONS.contains(&name.as_str()) && *b != c {
            out.push(format!("run conditions differ: {name} {b} (baseline) vs {c} (candidate)"));
        }
        if is_wall_seconds(name) && *b > 0.0 {
            let drift_pct = (c - b).abs() / b * 100.0;
            if drift_pct > wall_threshold_pct {
                let sign = if c >= *b { "+" } else { "-" };
                out.push(format!("{name} {b:.3e}s -> {c:.3e}s ({sign}{drift_pct:.0}%)"));
            }
        }
    }
    for (name, why) in NONZERO_WARNINGS {
        if let Some(v) = cand.get(name).filter(|v| *v > 0.0) {
            out.push(format!("candidate {name} = {v}: {why}"));
        }
    }
    for (name, b) in &base.notes {
        if let Some(c) = cand.note(name).filter(|c| c != b) {
            out.push(format!("note '{name}' differs: '{b}' vs '{c}'"));
        }
    }
    out
}

/// Parses a `BENCH_*.json` artifact with truncation-aware errors — the
/// artifact-file sibling of [`crate::read_events`]'s torn-tail handling.
///
/// A text that is a strict *prefix* of valid JSON (structure still open
/// at end of input, or the file is empty) is the signature of a writer
/// killed between write and rename, and maps to
/// [`ObsError::TruncatedArtifact`]; any other failure is
/// [`ObsError::Parse`] at the line where parsing stopped making sense.
///
/// # Errors
///
/// [`ObsError::TruncatedArtifact`] or [`ObsError::Parse`] as above.
pub fn parse_artifact<T: serde::Deserialize>(text: &str) -> Result<T, ObsError> {
    match serde_json::from_str(text) {
        Ok(value) => Ok(value),
        Err(e) => {
            if looks_truncated(text) {
                Err(ObsError::TruncatedArtifact { message: e.to_string() })
            } else {
                Err(ObsError::Parse {
                    line: line_of_failure(text, &e.to_string()),
                    message: e.to_string(),
                })
            }
        }
    }
}

/// Whether `text` could be the prefix of a valid JSON document: input
/// ran out with a string or bracket structure still open, or before any
/// value at all. A mismatched closer or trailing garbage means corrupt,
/// not truncated.
fn looks_truncated(text: &str) -> bool {
    let mut stack: Vec<u8> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for &b in text.as_bytes() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => stack.push(b),
            // the guard pops unconditionally: a matching closer falls
            // through to the no-op arm with its bracket consumed
            b'}' if stack.pop() != Some(b'{') => return false,
            b']' if stack.pop() != Some(b'[') => return false,
            _ => {}
        }
    }
    in_string || !stack.is_empty() || text.trim().is_empty()
}

/// Best-effort line number for a parse failure: the shim reports `at
/// byte N`, which this converts to a 1-based line.
fn line_of_failure(text: &str, message: &str) -> usize {
    let byte = message
        .rsplit_once("at byte ")
        .and_then(|(_, n)| n.trim().parse::<usize>().ok())
        .unwrap_or(0);
    1 + text.as_bytes().iter().take(byte).filter(|b| **b == b'\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpadv_trace::{EventKind, FieldValue};

    /// A training baseline, as `table1 --baseline` writes it.
    fn table1() -> Artifact {
        let mut a = Artifact::new("table1");
        a.push_scale("train_samples", 200);
        a.push_scale("test_samples", 100);
        a.push_scale("epochs", 6);
        a.push_scale("seed", 2019);
        for (trainer, forward, steps) in [("fgsm-adv", 96, 48), ("proposed", 204, 156)] {
            a.rows.push(Row::new(
                trainer,
                &[
                    ("runs", 2),
                    ("epochs", 12),
                    ("forward", forward),
                    ("backward", forward),
                    ("flops", 2_195_251_200),
                    ("attack_steps", steps),
                ],
            ));
        }
        a.accuracies = vec![
            ("mnist/Proposed/original".into(), 0.9900000095367432),
            ("mnist/Proposed/fgsm".into(), 0.03999999910593033),
        ];
        a.events = 2565;
        a.trace_digest = "e02cbcc94b1100a3".into();
        a.meta.push("threads", 1.0);
        a.meta.push("threads_available", 1.0);
        a.meta.push("repeat", 1.0);
        a.meta.push_wall("wall_per_epoch_s", &[0.17]);
        a.meta.push_wall("wall_total_s", &[13.2]);
        a.meta.push("divergent_repeats", 0.0);
        a
    }

    /// A kernel scoreboard: group and shape are scale identity.
    fn kernels() -> Artifact {
        let mut a = Artifact::new("kernels");
        a.push_scale("matmul/64x784x128", "matmul [64, 784, 128]");
        a.push_scale("attack/signed_step/16x784", "attack [16, 784]");
        a.rows.push(Row::new(
            "matmul/64x784x128",
            &[
                ("forward", 0),
                ("backward", 0),
                ("flops", 6_422_528),
                ("attack_steps", 0),
                ("bytes", 634_880),
            ],
        ));
        a.rows.push(Row::new(
            "attack/signed_step/16x784",
            &[
                ("forward", 1),
                ("backward", 1),
                ("flops", 200_704),
                ("attack_steps", 1),
                ("bytes", 200_704),
            ],
        ));
        a.events = 40;
        a.trace_digest = "00000000deadbeef".into();
        a.meta.push("threads", 1.0);
        a.meta.push("threads_available", 1.0);
        a.meta.push_wall("matmul/64x784x128/wall_per_iter_s", &[1e-4, 9e-5, 2e-4]);
        a.meta.push("matmul/64x784x128/gmac_s", 64.0);
        a
    }

    /// A serve artifact: served/skipped and per-generation counts.
    fn serve() -> Artifact {
        let mut a = Artifact::new("serve");
        a.push_scale("requests", 100);
        a.push_scale("attack", "pgd");
        a.push_scale("seed", 2019);
        a.rows.push(Row::new("server", &[("served", 100), ("skipped_generations", 0)]));
        for (traffic, requests, correct) in [("clean", 90, 81), ("adversarial", 10, 6)] {
            a.rows.push(Row::new(
                format!("generation1/{traffic}"),
                &[("requests", requests), ("labeled", requests), ("correct", correct)],
            ));
        }
        a.meta.push("threads", 2.0);
        a.meta.push("wall_total_s", 1.5);
        a.meta.push("throughput_rps", 66.7);
        a.meta.push("latency_p99_us", 5_000.0);
        a.meta.push("rejected", 0.0);
        a
    }

    /// A sweep aggregate: completed cells and a quarantined one.
    fn sweep() -> Artifact {
        let mut a = Artifact::new("sweep");
        a.push_scale("dataset", "mnist");
        a.push_scale("methods", "vanilla,proposed");
        a.push_scale("epsilons", 0.3);
        a.rows.push(Row::new("campaign", &[("completed", 2)]));
        for (id, loss, acc) in
            [("c000-vanilla-e300m-s32-t1", 1.5, 0.4), ("c001-proposed-e300m-s32-t1", 1.1, 0.7)]
        {
            a.rows.push(
                Row::new(id, &[("samples", 32), ("threads", 1)])
                    .value("eps", f64::from(0.3f32))
                    .value("final_loss", loss),
            );
            a.accuracies.push((format!("{id}/original"), 0.9));
            a.accuracies.push((format!("{id}/fgsm"), acc));
        }
        a.rows.push(Row::new("quarantined/c002-proposed-e300m-s32-t2", &[]));
        a.meta
            .notes
            .push(("quarantined/c002-proposed-e300m-s32-t2".into(), "exited with code 3".into()));
        a.meta.push("wall_total_s", 4.2);
        a.meta.push("attempts_total", 7.0);
        a.meta.push("retries_spent", 0.0);
        a
    }

    fn every_kind() -> [Artifact; 4] {
        [table1(), kernels(), serve(), sweep()]
    }

    fn nudge(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// Every single-field logical change to `a`, each paired with a
    /// fragment the regression message must contain.
    fn planted(a: &Artifact) -> Vec<(String, Artifact)> {
        let mut out = Vec::new();
        let mut plant = |expect: String, edit: &dyn Fn(&mut Artifact)| {
            let mut cand = a.clone();
            edit(&mut cand);
            out.push((expect, cand));
        };
        plant("schema version".into(), &|c| c.schema_version = 1);
        plant("experiment".into(), &|c| c.experiment.push('x'));
        plant("event count".into(), &|c| c.events += 1);
        plant("digest".into(), &|c| c.trace_digest = "0000000000000000".into());
        plant("row 'extra' absent from baseline".into(), &|c| c.rows.push(Row::new("extra", &[])));
        plant("accuracy 'extra' absent".into(), &|c| c.accuracies.push(("extra".into(), 0.5)));
        for (i, (k, _)) in a.scale.iter().enumerate() {
            plant(format!("scale '{k}' changed"), &|c| c.scale[i].1.push('0'));
            plant(format!("scale '{k}' missing"), &|c| {
                c.scale.remove(i);
            });
        }
        for (r, row) in a.rows.iter().enumerate() {
            plant(format!("row '{}' missing", row.name), &|c| {
                c.rows.remove(r);
            });
            for (i, (k, _)) in row.counters.iter().enumerate() {
                let name = format!("row '{}': counter '{k}'", row.name);
                plant(format!("{name} changed"), &|c| c.rows[r].counters[i].1 += 1);
                plant(format!("{name} missing"), &|c| {
                    c.rows[r].counters.remove(i);
                });
            }
            for (i, (k, _)) in row.values.iter().enumerate() {
                let name = format!("row '{}': value '{k}'", row.name);
                plant(format!("{name} changed"), &|c| {
                    c.rows[r].values[i].1 = nudge(c.rows[r].values[i].1)
                });
            }
        }
        for (i, (k, _)) in a.accuracies.iter().enumerate() {
            plant(format!("accuracy '{k}' changed"), &|c| {
                c.accuracies[i].1 = nudge(c.accuracies[i].1)
            });
            plant(format!("accuracy '{k}' missing"), &|c| {
                c.accuracies.remove(i);
            });
        }
        out
    }

    #[test]
    fn fixtures_cover_every_former_field_class() {
        let [t, k, s, w] = every_kind();
        assert!(!t.accuracies.is_empty() && t.row("proposed").is_some());
        assert!(k.scale.iter().any(|(_, v)| v.contains("[64, 784, 128]")), "kernel shape is scale");
        assert!(k.rows.iter().all(|r| r.get("bytes").is_some()));
        let server = s.row("server").expect("server row");
        assert!(server.get("served").is_some() && server.get("skipped_generations").is_some());
        assert!(w.rows.iter().any(|r| r.name.starts_with("quarantined/")));
        assert!(w.rows.iter().any(|r| r.values.iter().any(|(k, _)| k == "final_loss")));
    }

    #[test]
    fn every_planted_logical_change_fails_and_names_the_field() {
        for base in every_kind() {
            let clean = compare(&base, &base, DEFAULT_WALL_THRESHOLD_PCT);
            assert!(clean.passed() && clean.warnings.is_empty(), "{}: {clean:?}", base.experiment);
            for (expect, cand) in planted(&base) {
                let report = compare(&base, &cand, DEFAULT_WALL_THRESHOLD_PCT);
                assert!(!report.passed(), "{}: planted '{expect}' passed", base.experiment);
                assert!(
                    report.regressions.iter().any(|r| r.contains(&expect)),
                    "{}: no regression names '{expect}': {:?}",
                    base.experiment,
                    report.regressions
                );
            }
        }
    }

    #[test]
    fn former_warnings_still_only_warn() {
        let cases = [
            (table1(), "wall_per_epoch_s", 0.6, "wall_per_epoch_s"),
            (table1(), "threads", 4.0, "run conditions differ: threads"),
            (table1(), "divergent_repeats", 1.0, "divergent_repeats = 1"),
            (kernels(), "matmul/64x784x128/wall_per_iter_s", 1e-3, "wall_per_iter_s"),
            (serve(), "wall_total_s", 9.0, "wall_total_s"),
            (serve(), "rejected", 2.0, "rejected = 2"),
            (sweep(), "retries_spent", 3.0, "retries_spent = 3"),
        ];
        let mut cause = sweep();
        cause.meta.notes[1].1 = "killed by signal".into();
        let mut edited: Vec<(Artifact, Artifact, &str)> = cases
            .into_iter()
            .map(|(base, name, value, expect)| {
                let mut cand = base.clone();
                cand.meta.values.iter_mut().filter(|(k, _)| k == name).for_each(|m| m.1 = value);
                (base, cand, expect)
            })
            .collect();
        edited.push((sweep(), cause, "differs: 'exited with code 3' vs 'killed by signal'"));
        for (base, cand, expect) in edited {
            let report = compare(&base, &cand, DEFAULT_WALL_THRESHOLD_PCT);
            assert!(report.passed(), "{}: '{expect}' must not fail: {report:?}", base.experiment);
            assert!(
                report.warnings.iter().any(|w| w.contains(expect)),
                "{}: no warning names '{expect}': {:?}",
                base.experiment,
                report.warnings
            );
        }
    }

    #[test]
    fn every_kind_round_trips_exactly_and_meta_never_gates() {
        for a in every_kind() {
            let text = serde_json::to_string_pretty(&a).expect("serializable");
            assert_eq!(parse_artifact::<Artifact>(&text).expect("parseable"), a);
            let mut cand = a.clone();
            cand.meta.values.iter_mut().for_each(|(_, v)| *v = *v * 7.0 + 1.0);
            cand.meta.values.push(("extra".into(), 1.0));
            cand.meta.notes.clear();
            assert!(compare(&a, &cand, DEFAULT_WALL_THRESHOLD_PCT).passed(), "{}", a.experiment);
        }
    }

    #[test]
    fn push_wall_records_median_min_max() {
        let mut m = Meta::default();
        m.push_wall("w_s", &[3.0, 1.0, 2.0]);
        m.push_wall("e_s", &[4.0, 2.0]);
        m.push_wall("z_s", &[]);
        assert_eq!(
            (m.get("w_s"), m.get("w_s.min"), m.get("w_s.max")),
            (Some(2.0), Some(1.0), Some(3.0))
        );
        assert_eq!(m.get("e_s"), Some(3.0));
        assert_eq!(m.get("z_s.max"), Some(0.0));
    }

    fn close(seq: u64, flops: u64, wall: u64) -> Event {
        Event {
            seq,
            kind: EventKind::SpanClose,
            path: "train".into(),
            fields: vec![("flops".into(), FieldValue::U64(flops))],
            meta: vec![("wall_us".into(), FieldValue::U64(wall))],
            ctx: None,
        }
    }

    #[test]
    fn digest_ignores_meta_but_tracks_logical_change() {
        let a = vec![close(0, 800, 10)];
        assert_eq!(logical_digest(&a), logical_digest(&[close(0, 800, 99)]));
        assert_ne!(logical_digest(&a), logical_digest(&[close(0, 801, 10)]));
    }

    #[test]
    fn corrupt_artifacts_are_parse_errors_with_a_line() {
        // Balanced but invalid: a mismatched closer.
        let err = parse_artifact::<serde::Value>("{\"a\": ]}").unwrap_err();
        assert!(matches!(err, ObsError::Parse { .. }), "{err}");
        // Trailing garbage after a complete value.
        let err = parse_artifact::<serde::Value>("{}\ngarbage").unwrap_err();
        match err {
            ObsError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Parse, got {other}"),
        }
        // A well-formed file of the wrong shape (a v1 artifact) is a
        // parse error too, never a silent pass.
        let err = parse_artifact::<Artifact>("{\"schema_version\": 1, \"workloads\": []}");
        assert!(matches!(err, Err(ObsError::Parse { .. })), "{err:?}");
    }
}

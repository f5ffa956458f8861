//! The telemetry event model and its JSONL schema.
//!
//! Every event is one JSON object per line:
//!
//! ```json
//! {"seq":3,"kind":"span_close","path":"train/epoch",
//!  "fields":{"forward":12,"backward":12},"meta":{"wall_us":532}}
//! ```
//!
//! `fields` carries **logical** payload — values that are bitwise
//! identical across thread counts under the workspace determinism
//! contract — while `meta` carries non-logical measurements (wall time,
//! pool utilisation). Comparing two traces for determinism means
//! comparing events with `meta` stripped (see [`Event::without_meta`]).

use crate::context::{TraceContext, CONTEXT_SCHEMA_VERSION};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// A single telemetry field value.
///
/// Floating-point equality is **bitwise** (`to_bits`), so comparing
/// events compares logical payloads exactly, as the determinism contract
/// requires.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned counter/index.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point measurement.
    F64(f64),
    /// Free-form label (trainer id, attack id, check name…).
    Str(String),
}

impl PartialEq for FieldValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FieldValue::Bool(a), FieldValue::Bool(b)) => a == b,
            (FieldValue::U64(a), FieldValue::U64(b)) => a == b,
            (FieldValue::I64(a), FieldValue::I64(b)) => a == b,
            (FieldValue::F64(a), FieldValue::F64(b)) => a.to_bits() == b.to_bits(),
            (FieldValue::Str(a), FieldValue::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl Serialize for FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::U64(v) => Value::U64(*v),
            FieldValue::I64(v) => Value::I64(*v),
            FieldValue::F64(v) => Value::F64(*v),
            FieldValue::Str(v) => Value::String(v.clone()),
        }
    }
}

impl Deserialize for FieldValue {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value {
            Value::Bool(v) => Ok(FieldValue::Bool(*v)),
            Value::U64(v) => Ok(FieldValue::U64(*v)),
            Value::I64(v) => Ok(FieldValue::I64(*v)),
            Value::F64(v) => Ok(FieldValue::F64(*v)),
            Value::String(v) => Ok(FieldValue::Str(v.clone())),
            other => Err(serde::Error::custom(format!("invalid field value {other:?}"))),
        }
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span began; `fields` holds the user-supplied span attributes.
    SpanOpen,
    /// A span ended; `fields` holds the logical clock deltas accumulated
    /// while it was open, `meta` holds wall time and pool statistics.
    SpanClose,
    /// A monotonic count (reset events, audit checks…).
    Counter,
    /// A point-in-time measurement (accuracy, drift…).
    Gauge,
    /// A flushed histogram: bucket counts plus count/sum/min/max.
    Histogram,
}

impl EventKind {
    /// The schema string for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Histogram => "histogram",
        }
    }

    /// Parses a schema string back into a kind.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "span_open" => EventKind::SpanOpen,
            "span_close" => EventKind::SpanClose,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            "histogram" => EventKind::Histogram,
            _ => return None,
        })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One telemetry event.
///
/// Events are totally ordered by `seq`, a counter the tracer assigns
/// under its emission lock. Because workers inside parallel regions are
/// suppressed (only the orchestrating thread emits), the sequence — and
/// every value in `fields` — is identical for any `--threads` setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Deterministic emission index within the trace.
    pub seq: u64,
    /// What this event records.
    pub kind: EventKind,
    /// Slash-joined span path (`train/epoch`, `eval_suite/eval_clean`…).
    pub path: String,
    /// Logical payload — deterministic across thread counts.
    pub fields: Vec<(String, FieldValue)>,
    /// Non-logical payload — wall time, pool statistics.
    pub meta: Vec<(String, FieldValue)>,
    /// Cross-process identity of a `SpanOpen` event, when the tracer has
    /// a campaign context. Logical like `fields`: the ids derive from
    /// the thread-invariant sequence, so they survive determinism
    /// comparisons. Absent (and unserialized) for uncorrelated runs,
    /// which keeps their traces byte-identical to the pre-context
    /// schema.
    pub ctx: Option<TraceContext>,
}

impl Event {
    /// A copy with `meta` cleared — the logical projection two
    /// determinism-compared traces must agree on.
    pub fn without_meta(&self) -> Event {
        Event { meta: Vec::new(), ..self.clone() }
    }

    /// Renders the event as one JSONL line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics if JSON rendering fails, which cannot happen for a
    /// well-formed event (the schema has no fallible cases).
    #[expect(clippy::panic, reason = "R1: sanctioned try_* wrapper")]
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| panic!("{e}"))
    }
}

fn pairs_to_object(pairs: &[(String, FieldValue)]) -> Value {
    Value::Object(pairs.iter().map(|(k, v)| (k.clone(), Serialize::to_value(v))).collect())
}

fn object_to_pairs(value: &Value, key: &str) -> Result<Vec<(String, FieldValue)>, serde::Error> {
    match value {
        Value::Object(entries) => {
            entries.iter().map(|(k, v)| Ok((k.clone(), FieldValue::from_value(v)?))).collect()
        }
        other => Err(serde::Error::custom(format!("`{key}` must be an object, got {other:?}"))),
    }
}

fn ctx_to_value(ctx: &TraceContext) -> Value {
    let mut entries = vec![
        ("v".to_string(), Value::U64(CONTEXT_SCHEMA_VERSION)),
        ("trace".to_string(), Value::String(format!("{:032x}", ctx.trace_id))),
        ("span".to_string(), Value::String(format!("{:016x}", ctx.span_id))),
    ];
    if let Some(parent) = ctx.parent {
        entries.push(("parent".to_string(), Value::String(format!("{parent:016x}"))));
    }
    Value::Object(entries)
}

fn ctx_hex_u128(value: &Value, key: &str, width: usize) -> Result<u128, serde::Error> {
    let Value::String(s) = value else {
        return Err(serde::Error::custom(format!("ctx `{key}` must be a hex string")));
    };
    if s.len() != width || !s.chars().all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c)) {
        return Err(serde::Error::custom(format!(
            "ctx `{key}` must be {width} lowercase hex digits, got {s:?}"
        )));
    }
    u128::from_str_radix(s, 16)
        .map_err(|e| serde::Error::custom(format!("ctx `{key}` out of range: {e}")))
}

fn ctx_from_value(value: &Value) -> Result<TraceContext, serde::Error> {
    let Value::Object(entries) = value else {
        return Err(serde::Error::custom("`ctx` must be an object"));
    };
    let mut version = None;
    let mut trace = None;
    let mut span = None;
    let mut parent = None;
    for (k, v) in entries {
        match k.as_str() {
            "v" => match v {
                Value::U64(n) => version = Some(*n),
                other => {
                    return Err(serde::Error::custom(format!(
                        "ctx `v` must be an integer, got {other:?}"
                    )))
                }
            },
            "trace" => trace = Some(ctx_hex_u128(v, "trace", 32)?),
            "span" => span = Some(ctx_hex_u128(v, "span", 16)? as u64),
            "parent" => parent = Some(ctx_hex_u128(v, "parent", 16)? as u64),
            other => {
                return Err(serde::Error::custom(format!("unknown ctx key `{other}`")));
            }
        }
    }
    match version {
        Some(CONTEXT_SCHEMA_VERSION) => {}
        Some(other) => {
            return Err(serde::Error::custom(format!("unsupported ctx schema version {other}")))
        }
        None => return Err(serde::Error::custom("ctx missing `v`")),
    }
    Ok(TraceContext {
        trace_id: trace.ok_or_else(|| serde::Error::custom("ctx missing `trace`"))?,
        span_id: span.ok_or_else(|| serde::Error::custom("ctx missing `span`"))?,
        parent,
    })
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("seq".to_string(), Value::U64(self.seq)),
            ("kind".to_string(), Value::String(self.kind.as_str().to_string())),
            ("path".to_string(), Value::String(self.path.clone())),
            ("fields".to_string(), pairs_to_object(&self.fields)),
            ("meta".to_string(), pairs_to_object(&self.meta)),
        ];
        // `ctx` is appended only when present, so context-free traces
        // remain byte-identical to the pre-context schema.
        if let Some(ctx) = &self.ctx {
            entries.push(("ctx".to_string(), ctx_to_value(ctx)));
        }
        Value::Object(entries)
    }
}

impl Deserialize for Event {
    /// Strict schema: the five keys `seq`, `kind`, `path`, `fields`,
    /// `meta` (all required, with a known `kind` string) plus an
    /// optional `ctx` object that is itself strictly validated (version
    /// `v`, hex `trace`/`span`/`parent`, nothing else). Any other key is
    /// an error — `trace summarize` turns that into a non-zero exit,
    /// which is what CI's schema check relies on.
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let Value::Object(entries) = value else {
            return Err(serde::Error::custom("event must be a JSON object"));
        };
        let mut seq = None;
        let mut kind = None;
        let mut path = None;
        let mut fields = None;
        let mut meta = None;
        let mut ctx = None;
        for (k, v) in entries {
            match k.as_str() {
                "seq" => match v {
                    Value::U64(n) => seq = Some(*n),
                    other => {
                        return Err(serde::Error::custom(format!(
                            "`seq` must be a non-negative integer, got {other:?}"
                        )))
                    }
                },
                "kind" => match v {
                    Value::String(s) => {
                        kind = Some(EventKind::parse(s).ok_or_else(|| {
                            serde::Error::custom(format!("unknown event kind `{s}`"))
                        })?);
                    }
                    other => {
                        return Err(serde::Error::custom(format!(
                            "`kind` must be a string, got {other:?}"
                        )))
                    }
                },
                "path" => match v {
                    Value::String(s) => path = Some(s.clone()),
                    other => {
                        return Err(serde::Error::custom(format!(
                            "`path` must be a string, got {other:?}"
                        )))
                    }
                },
                "fields" => fields = Some(object_to_pairs(v, "fields")?),
                "meta" => meta = Some(object_to_pairs(v, "meta")?),
                "ctx" => ctx = Some(ctx_from_value(v)?),
                other => {
                    return Err(serde::Error::custom(format!("unknown event key `{other}`")));
                }
            }
        }
        Ok(Event {
            seq: seq.ok_or_else(|| serde::Error::custom("event missing `seq`"))?,
            kind: kind.ok_or_else(|| serde::Error::custom("event missing `kind`"))?,
            path: path.ok_or_else(|| serde::Error::custom("event missing `path`"))?,
            fields: fields.ok_or_else(|| serde::Error::custom("event missing `fields`"))?,
            meta: meta.ok_or_else(|| serde::Error::custom("event missing `meta`"))?,
            ctx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 7,
            kind: EventKind::SpanClose,
            path: "train/epoch".to_string(),
            fields: vec![
                ("forward".to_string(), FieldValue::U64(12)),
                ("loss".to_string(), FieldValue::F64(0.125)),
                ("trainer".to_string(), FieldValue::Str("proposed".to_string())),
                ("ok".to_string(), FieldValue::Bool(true)),
            ],
            meta: vec![("wall_us".to_string(), FieldValue::U64(532))],
            ctx: None,
        }
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let ev = sample();
        let line = ev.to_json_line();
        assert!(!line.contains('\n'));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ev);
        // a second render is byte-identical (stable key order)
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn float_fields_roundtrip_bitwise() {
        for v in [0.1f64, 1.0 / 3.0, 1e-17, -0.0, 12345.678901234567] {
            let ev = Event {
                seq: 0,
                kind: EventKind::Gauge,
                path: "g".to_string(),
                fields: vec![("value".to_string(), FieldValue::F64(v))],
                meta: Vec::new(),
                ctx: None,
            };
            let back: Event = serde_json::from_str(&ev.to_json_line()).unwrap();
            assert_eq!(back, ev, "value {v}");
        }
    }

    #[test]
    fn without_meta_strips_only_meta() {
        let ev = sample();
        let logical = ev.without_meta();
        assert!(logical.meta.is_empty());
        assert_eq!(logical.fields, ev.fields);
        assert_eq!(logical.seq, ev.seq);
    }

    #[test]
    fn schema_violations_are_rejected() {
        // unknown kind
        assert!(serde_json::from_str::<Event>(
            r#"{"seq":0,"kind":"bogus","path":"p","fields":{},"meta":{}}"#
        )
        .is_err());
        // missing key
        assert!(serde_json::from_str::<Event>(r#"{"seq":0,"kind":"gauge","fields":{},"meta":{}}"#)
            .is_err());
        // extra key
        assert!(serde_json::from_str::<Event>(
            r#"{"seq":0,"kind":"gauge","path":"p","fields":{},"meta":{},"x":1}"#
        )
        .is_err());
        // nested field value
        assert!(serde_json::from_str::<Event>(
            r#"{"seq":0,"kind":"gauge","path":"p","fields":{"a":[1]},"meta":{}}"#
        )
        .is_err());
        // not an object
        assert!(serde_json::from_str::<Event>("[1,2]").is_err());
    }

    #[test]
    fn ctx_roundtrips_and_is_optional() {
        let mut ev = sample();
        ev.kind = EventKind::SpanOpen;
        ev.ctx = Some(TraceContext {
            trace_id: 0xFEED_FACE_CAFE,
            span_id: 0xABCD,
            parent: Some(0x1234),
        });
        let line = ev.to_json_line();
        assert!(line.contains("\"ctx\""));
        assert!(line.contains("\"parent\""));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.to_json_line(), line);

        // A root context omits the parent key entirely.
        ev.ctx = Some(TraceContext { trace_id: 1, span_id: 2, parent: None });
        let line = ev.to_json_line();
        assert!(!line.contains("parent"));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back.ctx.unwrap().parent, None);

        // No context, no ctx key: byte-identical to the old schema.
        ev.ctx = None;
        assert!(!ev.to_json_line().contains("ctx"));
    }

    #[test]
    fn ctx_schema_violations_are_rejected() {
        let prefix = r#"{"seq":0,"kind":"span_open","path":"p","fields":{},"meta":{},"#;
        for bad in [
            // missing version
            r#""ctx":{"trace":"00000000000000000000000000000001","span":"0000000000000002"}}"#,
            // wrong version
            r#""ctx":{"v":9,"trace":"00000000000000000000000000000001","span":"0000000000000002"}}"#,
            // unknown ctx key
            r#""ctx":{"v":1,"trace":"00000000000000000000000000000001","span":"0000000000000002","x":1}}"#,
            // wrong width
            r#""ctx":{"v":1,"trace":"01","span":"0000000000000002"}}"#,
            // uppercase hex
            r#""ctx":{"v":1,"trace":"0000000000000000000000000000000A","span":"0000000000000002"}}"#,
            // missing span
            r#""ctx":{"v":1,"trace":"00000000000000000000000000000001"}}"#,
            // not an object
            r#""ctx":7}"#,
        ] {
            let line = format!("{prefix}{bad}");
            assert!(serde_json::from_str::<Event>(&line).is_err(), "should reject {line}");
        }
    }

    #[test]
    fn field_value_equality_is_bitwise_for_floats() {
        assert_eq!(FieldValue::F64(0.5), FieldValue::F64(0.5));
        assert_ne!(FieldValue::F64(0.0), FieldValue::F64(-0.0));
        assert_ne!(FieldValue::U64(1), FieldValue::I64(1));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".to_string()));
    }

    #[test]
    fn kind_strings_roundtrip() {
        for kind in [
            EventKind::SpanOpen,
            EventKind::SpanClose,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Histogram,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(EventKind::parse("nope"), None);
    }
}

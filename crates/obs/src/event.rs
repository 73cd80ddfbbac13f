//! The trace event vocabulary and its JSONL serialization.
//!
//! A trace is a flat stream of [`TraceEvent`]s. Span structure is encoded
//! by ids: every [`TraceEvent::SpanStart`] names its parent, every other
//! event names the span it belongs to. Timestamps are microseconds since
//! the owning [`Tracer`](crate::Tracer)'s epoch and are globally
//! nondecreasing within one trace (the tracer serializes event emission),
//! so a JSONL artifact can be validated for monotonicity line by line.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Value;
use crate::timeline::TimelineSample;

/// A span identifier, unique within one trace. `0` is reserved for "no
/// span" (the id handed out by a disabled tracer).
pub type SpanId = u64;

/// A typed value attached to a span at start time.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer field (counts, widths, indices).
    U64(u64),
    /// A floating-point field.
    F64(f64),
    /// A string field (names, verdicts).
    Str(String),
    /// A boolean field.
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(n) => write!(f, "{n}"),
            FieldValue::F64(x) => write!(f, "{x}"),
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> Self {
        FieldValue::U64(n)
    }
}

impl From<u32> for FieldValue {
    fn from(n: u32) -> Self {
        FieldValue::U64(n as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(n: usize) -> Self {
        FieldValue::U64(n as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(x: f64) -> Self {
        FieldValue::F64(x)
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}

impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldValue::Bool(b)
    }
}

impl FieldValue {
    fn to_json(&self) -> Value {
        match self {
            FieldValue::U64(n) => Value::from(*n),
            FieldValue::F64(x) => Value::Number(*x),
            FieldValue::Str(s) => Value::from(s.as_str()),
            FieldValue::Bool(b) => Value::Bool(*b),
        }
    }

    fn from_json(v: &Value) -> Result<FieldValue, String> {
        match v {
            Value::Bool(b) => Ok(FieldValue::Bool(*b)),
            Value::String(s) => Ok(FieldValue::Str(s.clone())),
            // Non-negative integral numbers decode as U64 so counts
            // round-trip; everything else stays a float.
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Ok(FieldValue::U64(*n as u64))
            }
            Value::Number(n) => Ok(FieldValue::F64(*n)),
            other => Err(format!("field value cannot be {other:?}")),
        }
    }
}

/// One line of a trace.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A span was entered.
    SpanStart {
        /// The span's id (unique, nonzero).
        id: SpanId,
        /// The enclosing span, if any.
        parent: Option<SpanId>,
        /// The span's phase name (e.g. `encode`, `solve`, `member`).
        name: String,
        /// Microseconds since the tracer's epoch.
        at_us: u64,
        /// Small sequential id of the thread that opened the span.
        thread: u64,
        /// Typed key/value context attached at start time.
        fields: Vec<(String, FieldValue)>,
    },
    /// A span was closed.
    SpanEnd {
        /// The span being closed.
        id: SpanId,
        /// Microseconds since the tracer's epoch.
        at_us: u64,
    },
    /// A monotone unsigned counter observation (last value wins).
    Counter {
        /// The span the counter belongs to (`None` = trace-global).
        span: Option<SpanId>,
        /// Counter name (e.g. `clauses`, `propagations`).
        name: String,
        /// Observed value.
        value: u64,
        /// Microseconds since the tracer's epoch.
        at_us: u64,
    },
    /// A point-in-time floating-point measurement (heartbeats, trends).
    Gauge {
        /// The span the gauge belongs to (`None` = trace-global).
        span: Option<SpanId>,
        /// Gauge name (e.g. `lbd_ema`).
        name: String,
        /// Observed value.
        value: f64,
        /// Microseconds since the tracer's epoch.
        at_us: u64,
    },
    /// A string annotation (verdicts, stop reasons).
    Mark {
        /// The span the mark belongs to (`None` = trace-global).
        span: Option<SpanId>,
        /// Mark name (e.g. `verdict`).
        name: String,
        /// The annotation text.
        value: String,
        /// Microseconds since the tracer's epoch.
        at_us: u64,
    },
    /// A solver search-state sample. The event timestamp is
    /// the tracer's clock; the sample's own `at_us` is relative to its
    /// solve's start.
    Sample {
        /// The span the sample belongs to (`None` = trace-global).
        span: Option<SpanId>,
        /// Microseconds since the tracer's epoch.
        at_us: u64,
        /// The captured search state.
        sample: TimelineSample,
    },
}

impl TraceEvent {
    /// The event's timestamp in microseconds since the tracer epoch.
    pub fn at_us(&self) -> u64 {
        match self {
            TraceEvent::SpanStart { at_us, .. }
            | TraceEvent::SpanEnd { at_us, .. }
            | TraceEvent::Counter { at_us, .. }
            | TraceEvent::Gauge { at_us, .. }
            | TraceEvent::Mark { at_us, .. }
            | TraceEvent::Sample { at_us, .. } => *at_us,
        }
    }

    /// Serializes the event as a single-line JSON object (the JSONL trace
    /// format, one event per line).
    pub fn to_json(&self) -> Value {
        let span_entry = |span: &Option<SpanId>| match span {
            Some(id) => Value::from(*id),
            None => Value::Null,
        };
        match self {
            TraceEvent::SpanStart {
                id,
                parent,
                name,
                at_us,
                thread,
                fields,
            } => {
                let mut map = BTreeMap::new();
                map.insert("type".to_string(), Value::from("span_start"));
                map.insert("id".to_string(), Value::from(*id));
                map.insert("parent".to_string(), span_entry(parent));
                map.insert("name".to_string(), Value::from(name.as_str()));
                map.insert("us".to_string(), Value::from(*at_us));
                map.insert("thread".to_string(), Value::from(*thread));
                if !fields.is_empty() {
                    map.insert(
                        "fields".to_string(),
                        Value::Object(
                            fields
                                .iter()
                                .map(|(k, v)| (k.clone(), v.to_json()))
                                .collect(),
                        ),
                    );
                }
                Value::Object(map)
            }
            TraceEvent::SpanEnd { id, at_us } => Value::object([
                ("type", Value::from("span_end")),
                ("id", Value::from(*id)),
                ("us", Value::from(*at_us)),
            ]),
            TraceEvent::Counter {
                span,
                name,
                value,
                at_us,
            } => Value::object([
                ("type", Value::from("counter")),
                ("span", span_entry(span)),
                ("name", Value::from(name.as_str())),
                ("value", Value::from(*value)),
                ("us", Value::from(*at_us)),
            ]),
            TraceEvent::Gauge {
                span,
                name,
                value,
                at_us,
            } => Value::object([
                ("type", Value::from("gauge")),
                ("span", span_entry(span)),
                ("name", Value::from(name.as_str())),
                ("value", Value::Number(*value)),
                ("us", Value::from(*at_us)),
            ]),
            TraceEvent::Mark {
                span,
                name,
                value,
                at_us,
            } => Value::object([
                ("type", Value::from("mark")),
                ("span", span_entry(span)),
                ("name", Value::from(name.as_str())),
                ("value", Value::from(value.as_str())),
                ("us", Value::from(*at_us)),
            ]),
            TraceEvent::Sample {
                span,
                at_us,
                sample,
            } => Value::object([
                ("type", Value::from("sample")),
                ("span", span_entry(span)),
                ("sample", sample.to_json()),
                ("us", Value::from(*at_us)),
            ]),
        }
    }

    /// Parses an event from the JSON object produced by
    /// [`TraceEvent::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found
    /// (missing key, wrong type, unknown event type).
    pub fn from_json(v: &Value) -> Result<TraceEvent, String> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("event object has no string `type`")?;
        let u64_key = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("`{kind}` event needs unsigned integer `{key}`"))
        };
        let str_key = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{kind}` event needs string `{key}`"))
        };
        let opt_span = |key: &str| -> Result<Option<SpanId>, String> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 => Ok(Some(*n as u64)),
                Some(other) => Err(format!("`{kind}` event has malformed `{key}`: {other:?}")),
            }
        };
        match kind {
            "span_start" => {
                let fields = match v.get("fields") {
                    None => Vec::new(),
                    Some(Value::Object(map)) => map
                        .iter()
                        .map(|(k, fv)| Ok((k.clone(), FieldValue::from_json(fv)?)))
                        .collect::<Result<Vec<_>, String>>()?,
                    Some(other) => return Err(format!("malformed `fields`: {other:?}")),
                };
                Ok(TraceEvent::SpanStart {
                    id: u64_key("id")?,
                    parent: opt_span("parent")?,
                    name: str_key("name")?,
                    at_us: u64_key("us")?,
                    thread: u64_key("thread")?,
                    fields,
                })
            }
            "span_end" => Ok(TraceEvent::SpanEnd {
                id: u64_key("id")?,
                at_us: u64_key("us")?,
            }),
            "counter" => Ok(TraceEvent::Counter {
                span: opt_span("span")?,
                name: str_key("name")?,
                value: u64_key("value")?,
                at_us: u64_key("us")?,
            }),
            "gauge" => Ok(TraceEvent::Gauge {
                span: opt_span("span")?,
                name: str_key("name")?,
                value: v
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("`gauge` event needs numeric `value`")?,
                at_us: u64_key("us")?,
            }),
            "mark" => Ok(TraceEvent::Mark {
                span: opt_span("span")?,
                name: str_key("name")?,
                value: str_key("value")?,
                at_us: u64_key("us")?,
            }),
            "sample" => Ok(TraceEvent::Sample {
                span: opt_span("span")?,
                at_us: u64_key("us")?,
                sample: TimelineSample::from_json(
                    v.get("sample").ok_or("`sample` event needs `sample`")?,
                )?,
            }),
            other => Err(format!("unknown trace event type `{other}`")),
        }
    }
}

/// Parses a JSONL trace artifact: one [`TraceEvent`] per non-empty line.
///
/// # Errors
///
/// Reports the 1-based line number alongside the underlying JSON or
/// structural error.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = crate::json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events
            .push(TraceEvent::from_json(&value).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: TraceEvent) {
        let text = event.to_json().to_json();
        let parsed = TraceEvent::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, event, "{text}");
    }

    #[test]
    fn every_event_kind_round_trips() {
        roundtrip(TraceEvent::SpanStart {
            id: 1,
            parent: None,
            name: "route".into(),
            at_us: 0,
            thread: 0,
            // Alphabetical: the JSON object sorts keys, so parsing
            // returns fields in sorted order.
            fields: vec![
                ("certified".into(), FieldValue::Bool(true)),
                ("encoding".into(), FieldValue::Str("log".into())),
                ("ratio".into(), FieldValue::F64(0.5)),
                ("width".into(), FieldValue::U64(4)),
            ],
        });
        roundtrip(TraceEvent::SpanStart {
            id: 2,
            parent: Some(1),
            name: "encode".into(),
            at_us: 10,
            thread: 1,
            fields: vec![],
        });
        roundtrip(TraceEvent::SpanEnd { id: 2, at_us: 42 });
        roundtrip(TraceEvent::Counter {
            span: Some(2),
            name: "clauses".into(),
            value: 1234,
            at_us: 40,
        });
        roundtrip(TraceEvent::Gauge {
            span: None,
            name: "lbd_ema".into(),
            value: 3.25,
            at_us: 41,
        });
        roundtrip(TraceEvent::Mark {
            span: Some(1),
            name: "verdict".into(),
            value: "sat".into(),
            at_us: 43,
        });
        roundtrip(TraceEvent::Sample {
            span: Some(2),
            at_us: 44,
            sample: TimelineSample {
                at_us: 41,
                cause: crate::timeline::SampleCause::Restart,
                conflicts: 512,
                decisions: 900,
                propagations: 40_000,
                restarts: 3,
                trail: 17,
                level: 4,
                tier_core: 5,
                tier_mid: 9,
                tier_local: 30,
                arena_live_bytes: 8192,
                arena_dead_bytes: 256,
                lbd_ema: 3.5,
                conflicts_per_sec: 1000.5,
                propagations_per_sec: 80_000.25,
            },
        });
    }

    #[test]
    fn parse_jsonl_skips_blank_lines_and_reports_line_numbers() {
        let a = TraceEvent::SpanStart {
            id: 1,
            parent: None,
            name: "a".into(),
            at_us: 0,
            thread: 0,
            fields: vec![],
        };
        let b = TraceEvent::SpanEnd { id: 1, at_us: 5 };
        let text = format!("{}\n\n{}\n", a.to_json().to_json(), b.to_json().to_json());
        assert_eq!(parse_jsonl(&text).unwrap(), vec![a, b]);

        let err = parse_jsonl("{\"type\":\"nope\"}").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let err = parse_jsonl("{}\n").unwrap_err();
        assert!(err.contains("no string `type`"), "{err}");
    }

    #[test]
    fn malformed_events_are_rejected() {
        let v = crate::json::parse("{\"type\":\"span_end\",\"id\":-1,\"us\":0}").unwrap();
        assert!(TraceEvent::from_json(&v).is_err());
        let v = crate::json::parse("{\"type\":\"gauge\",\"name\":\"g\",\"us\":0}").unwrap();
        assert!(TraceEvent::from_json(&v).is_err());
    }
}

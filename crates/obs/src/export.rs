//! Standard-format trace exporters: Chrome trace-event JSON (loadable
//! in Perfetto / `chrome://tracing`) and folded stacks (the input
//! format of inferno / `flamegraph.pl`).
//!
//! The converters work from the same validated [`SpanForest`] the
//! reports use, so a JSONL artifact that passes `trace report` exports
//! cleanly: spans become `ph:"X"` duration events, portfolio members
//! get their own named track rows, and
//! counters/gauges/search-state samples become `ph:"C"` counter
//! tracks (suffixed per member so concurrent solvers stay separable).

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::event::{FieldValue, SpanId, TraceEvent};
use crate::json::Value;
use crate::tree::{SpanForest, SpanNode};

/// The process id stamped on every exported event (the trace is one
/// logical process).
const PID: u64 = 1;

/// First tid handed to a member track row; ordinary spans keep
/// their recording thread as tid, which stays far below this.
const TRACK_TID_BASE: u64 = 1000;

fn field_json(value: &FieldValue) -> Value {
    match value {
        FieldValue::U64(n) => Value::from((*n).min(1 << 53)),
        FieldValue::F64(x) if x.is_finite() => Value::Number(*x),
        FieldValue::F64(_) => Value::Null,
        FieldValue::Str(s) => Value::string(s.clone()),
        FieldValue::Bool(b) => Value::Bool(*b),
    }
}

/// The display label of a portfolio `member` span, the one kind of span
/// that earns its own track row.
fn track_label(node: &SpanNode) -> Option<String> {
    if node.name != "member" {
        return None;
    }
    let index = node
        .field("index")
        .map_or_else(|| "?".into(), |f| f.to_string());
    let strategy = node
        .field("strategy")
        .map(|f| format!(" ({f})"))
        .unwrap_or_default();
    Some(format!("member {index}{strategy}"))
}

/// Per-span track assignment: members open fresh rows that
/// their whole subtree inherits; everything else rides its thread.
struct Tracks {
    tids: HashMap<SpanId, u64>,
    suffix: HashMap<SpanId, String>,
    names: Vec<(u64, String)>,
}

impl Tracks {
    fn assign(forest: &SpanForest) -> Tracks {
        let mut tracks = Tracks {
            tids: HashMap::new(),
            suffix: HashMap::new(),
            names: Vec::new(),
        };
        let mut next = TRACK_TID_BASE;
        // walk is depth-first in start order, so a parent's assignment
        // is always present before its children ask for it.
        forest.walk(|node, _| {
            let inherited = node
                .parent
                .and_then(|p| tracks.tids.get(&p).copied())
                .unwrap_or(node.thread);
            let inherited_suffix = node.parent.and_then(|p| tracks.suffix.get(&p).cloned());
            match track_label(node) {
                Some(label) => {
                    let tid = next;
                    next += 1;
                    tracks.names.push((tid, label.clone()));
                    tracks.tids.insert(node.id, tid);
                    tracks.suffix.insert(node.id, label);
                }
                None => {
                    tracks.tids.insert(node.id, inherited);
                    if let Some(s) = inherited_suffix {
                        tracks.suffix.insert(node.id, s);
                    }
                }
            }
        });
        tracks
    }

    fn tid(&self, span: SpanId) -> u64 {
        self.tids.get(&span).copied().unwrap_or(0)
    }

    /// The ` (member N)`-style suffix that keeps counter series from
    /// concurrent solvers on separate tracks.
    fn counter_suffix(&self, span: Option<SpanId>) -> String {
        span.and_then(|id| self.suffix.get(&id))
            .map(|label| format!(" [{label}]"))
            .unwrap_or_default()
    }
}

/// Converts a trace event stream to a Chrome trace-event document
/// (`{"traceEvents": [...]}`), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Spans become complete (`ph:"X"`) duration events — unclosed spans
/// degrade to begin (`ph:"B"`) events so truncated artifacts still
/// render. Portfolio members are lifted onto their own named track rows
/// (thread-name metadata events), and counters, gauges and search-state
/// samples become `ph:"C"` counter tracks, suffixed with the owning
/// member's label.
///
/// # Errors
///
/// Fails when the stream violates span-tree invariants (same
/// validation as [`SpanForest::from_events`]).
pub fn chrome_trace(events: &[TraceEvent]) -> Result<Value, String> {
    let forest = SpanForest::from_events(events)?;
    let tracks = Tracks::assign(&forest);
    let mut out: Vec<Value> = Vec::new();

    out.push(Value::object([
        ("name", Value::from("process_name")),
        ("ph", Value::from("M")),
        ("pid", Value::from(PID)),
        ("args", Value::object([("name", Value::from("satroute"))])),
    ]));
    for (tid, label) in &tracks.names {
        out.push(Value::object([
            ("name", Value::from("thread_name")),
            ("ph", Value::from("M")),
            ("pid", Value::from(PID)),
            ("tid", Value::from(*tid)),
            (
                "args",
                Value::object([("name", Value::string(label.clone()))]),
            ),
        ]));
    }

    for node in forest.spans() {
        let mut args = BTreeMap::new();
        for (key, value) in &node.fields {
            args.insert(key.clone(), field_json(value));
        }
        for (key, value) in &node.marks {
            args.insert(key.clone(), Value::string(value.clone()));
        }
        let mut event = vec![
            ("name", Value::string(node.name.clone())),
            ("cat", Value::from("span")),
            ("ts", Value::from(node.start_us)),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tracks.tid(node.id))),
            ("args", Value::Object(args)),
        ];
        match node.end_us {
            Some(end) => {
                event.push(("ph", Value::from("X")));
                event.push(("dur", Value::from(end.saturating_sub(node.start_us))));
            }
            None => event.push(("ph", Value::from("B"))),
        }
        out.push(Value::object(event));
    }

    let counter = |name: String, at_us: u64, tid: u64, series: Vec<(&str, Value)>| {
        Value::object([
            ("name", Value::string(name)),
            ("ph", Value::from("C")),
            ("ts", Value::from(at_us)),
            ("pid", Value::from(PID)),
            ("tid", Value::from(tid)),
            ("args", Value::object(series)),
        ])
    };
    for event in events {
        match event {
            TraceEvent::Counter {
                span,
                name,
                value,
                at_us,
            } => {
                let suffix = tracks.counter_suffix(*span);
                out.push(counter(
                    format!("{name}{suffix}"),
                    *at_us,
                    span.map(|s| tracks.tid(s)).unwrap_or(0),
                    vec![("value", Value::from((*value).min(1 << 53)))],
                ));
            }
            TraceEvent::Gauge {
                span,
                name,
                value,
                at_us,
            } => {
                let suffix = tracks.counter_suffix(*span);
                let value = if value.is_finite() { *value } else { 0.0 };
                out.push(counter(
                    format!("{name}{suffix}"),
                    *at_us,
                    span.map(|s| tracks.tid(s)).unwrap_or(0),
                    vec![("value", Value::Number(value))],
                ));
            }
            TraceEvent::Sample {
                span,
                at_us,
                sample,
            } => {
                let suffix = tracks.counter_suffix(*span);
                let tid = span.map(|s| tracks.tid(s)).unwrap_or(0);
                let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
                out.push(counter(
                    format!("search{suffix}"),
                    *at_us,
                    tid,
                    vec![
                        ("trail", Value::from(sample.trail)),
                        ("level", Value::from(sample.level)),
                    ],
                ));
                out.push(counter(
                    format!("learnt tiers{suffix}"),
                    *at_us,
                    tid,
                    vec![
                        ("core", Value::from(sample.tier_core)),
                        ("mid", Value::from(sample.tier_mid)),
                        ("local", Value::from(sample.tier_local)),
                    ],
                ));
                out.push(counter(
                    format!("arena bytes{suffix}"),
                    *at_us,
                    tid,
                    vec![
                        ("live", Value::from(sample.arena_live_bytes)),
                        ("dead", Value::from(sample.arena_dead_bytes)),
                    ],
                ));
                out.push(counter(
                    format!("rates{suffix}"),
                    *at_us,
                    tid,
                    vec![
                        (
                            "conflicts/s",
                            Value::Number(finite(sample.conflicts_per_sec)),
                        ),
                        (
                            "kprops/s",
                            Value::Number(finite(sample.propagations_per_sec) / 1e3),
                        ),
                    ],
                ));
                out.push(counter(
                    format!("lbd ema{suffix}"),
                    *at_us,
                    tid,
                    vec![("lbd", Value::Number(finite(sample.lbd_ema)))],
                ));
            }
            _ => {}
        }
    }

    Ok(Value::object([
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", Value::from("ms")),
    ]))
}

/// Renders the forest as folded stacks (`root;child;leaf <self µs>`
/// per line), the input format of inferno / `flamegraph.pl`. Identical
/// stacks are merged; zero-self-time frames are dropped.
pub fn collapsed_stacks(forest: &SpanForest) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    let mut stack: Vec<String> = Vec::new();
    forest.walk(|node, depth| {
        stack.truncate(depth);
        let frame = match track_label(node) {
            Some(label) => label,
            None => node.name.clone(),
        };
        stack.push(frame);
        let self_us = forest.self_us(node.id);
        if self_us > 0 {
            *weights.entry(stack.join(";")).or_insert(0) += self_us;
        }
    });
    let mut out = String::new();
    for (path, weight) in weights {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{SampleCause, TimelineSample};

    fn span_start(id: SpanId, parent: Option<SpanId>, name: &str, at_us: u64) -> TraceEvent {
        TraceEvent::SpanStart {
            id,
            parent,
            name: name.into(),
            at_us,
            thread: 0,
            fields: vec![],
        }
    }

    fn demo_events() -> Vec<TraceEvent> {
        vec![
            span_start(1, None, "route", 0),
            TraceEvent::SpanStart {
                id: 2,
                parent: Some(1),
                name: "member".into(),
                at_us: 10,
                thread: 1,
                fields: vec![
                    ("index".into(), FieldValue::U64(0)),
                    ("strategy".into(), FieldValue::Str("log/s1".into())),
                ],
            },
            TraceEvent::Counter {
                span: Some(2),
                name: "conflicts".into(),
                value: 64,
                at_us: 20,
            },
            // The member's solver samples on its own `solve` span.
            span_start(3, Some(2), "solve", 25),
            TraceEvent::Sample {
                span: Some(3),
                at_us: 30,
                sample: TimelineSample {
                    at_us: 20,
                    cause: SampleCause::Conflict,
                    conflicts: 64,
                    trail: 12,
                    level: 4,
                    tier_core: 1,
                    tier_mid: 2,
                    tier_local: 3,
                    arena_live_bytes: 512,
                    arena_dead_bytes: 16,
                    lbd_ema: 3.0,
                    conflicts_per_sec: 100.0,
                    propagations_per_sec: 5000.0,
                    ..TimelineSample::default()
                },
            },
            TraceEvent::SpanEnd { id: 3, at_us: 80 },
            TraceEvent::SpanEnd { id: 2, at_us: 90 },
            TraceEvent::SpanEnd { id: 1, at_us: 100 },
        ]
    }

    #[test]
    fn chrome_trace_emits_every_span_once_with_member_tracks() {
        let doc = chrome_trace(&demo_events()).unwrap();
        // Strict JSON round-trip.
        let text = doc.to_json();
        let parsed = crate::json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();

        let of_ph = |ph: &str| -> Vec<&Value> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .collect()
        };
        assert_eq!(of_ph("X").len(), 3, "{text}");
        assert!(of_ph("B").is_empty());
        // member span rides its own named track
        let member = of_ph("X")
            .into_iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("member"))
            .unwrap();
        let tid = member.get("tid").and_then(Value::as_f64).unwrap() as u64;
        assert!(tid >= TRACK_TID_BASE);
        let thread_names: Vec<&str> = of_ph("M")
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
            })
            .collect();
        assert_eq!(thread_names, vec!["member 0 (log/s1)"]);
        // one plain counter + five sample-derived counter series, all
        // attributed to the enclosing member span
        let counters = of_ph("C");
        assert_eq!(counters.len(), 6, "{text}");
        assert!(counters.iter().all(|c| {
            c.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| n.ends_with("[member 0 (log/s1)]"))
        }));
    }

    #[test]
    fn chrome_trace_timestamps_are_monotone_per_track() {
        let doc = chrome_trace(&demo_events()).unwrap();
        let binding = doc;
        let events = binding.get("traceEvents").unwrap().as_array().unwrap();
        let mut last: HashMap<(u64, String), f64> = HashMap::new();
        for e in events {
            let Some(ts) = e.get("ts").and_then(Value::as_f64) else {
                continue; // metadata events carry no timestamp
            };
            let tid = e.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let name = e.get("name").and_then(Value::as_str).unwrap().to_string();
            let key = (tid, name);
            if let Some(prev) = last.get(&key) {
                assert!(ts >= *prev, "track {key:?} went backwards");
            }
            last.insert(key, ts);
        }
    }

    #[test]
    fn unclosed_spans_become_begin_events() {
        let events = vec![span_start(1, None, "half", 0)];
        let doc = chrome_trace(&events).unwrap();
        let text = doc.to_json();
        assert!(text.contains("\"ph\":\"B\""), "{text}");
        assert!(!text.contains("\"dur\""), "{text}");
    }

    #[test]
    fn collapsed_stacks_fold_nested_self_time() {
        let events = vec![
            span_start(1, None, "route", 0),
            span_start(2, Some(1), "solve", 10),
            TraceEvent::SpanEnd { id: 2, at_us: 80 },
            TraceEvent::SpanEnd { id: 1, at_us: 100 },
        ];
        let forest = SpanForest::from_events(&events).unwrap();
        let folded = collapsed_stacks(&forest);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["route 30", "route;solve 70"]);
    }
}

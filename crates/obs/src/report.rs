//! Trace report analysis: aggregate a [`SpanForest`] into per-phase,
//! per-encoding and per-member tables, rendered as text or JSON — plus the [`TimelineReport`] time-series view built from
//! search-state samples.

use std::collections::BTreeMap;

use crate::event::{FieldValue, SpanId};
use crate::json::Value;
use crate::timeline::TimelineSample;
use crate::tree::{SpanForest, SpanNode};

/// Aggregated timing for one phase name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of total wall time across those spans, in microseconds.
    pub total_us: u64,
    /// Sum of self time (total minus children) across those spans.
    pub self_us: u64,
}

/// CNF-size statistics recorded by one `encode` span.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodingStats {
    /// The encoding's catalog name (`direct`, `log`, `muldirect`, ...).
    pub encoding: String,
    /// Number of variables in the emitted formula.
    pub variables: u64,
    /// Number of clauses.
    pub clauses: u64,
    /// Number of literal occurrences.
    pub literals: u64,
    /// Wall time of the encode span, in microseconds.
    pub total_us: u64,
}

/// Solver statistics recorded by one portfolio `member` span (or a
/// single `solve` span outside a portfolio).
#[derive(Clone, Debug, PartialEq)]
pub struct MemberStats {
    /// Member index within the portfolio (0 for a lone solve).
    pub index: u64,
    /// Strategy label, when recorded.
    pub strategy: Option<String>,
    /// Conflicts reached.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Wall time of the member span, in microseconds.
    pub total_us: u64,
    /// Propagations per second of member wall time.
    pub props_per_sec: f64,
    /// Final outcome mark (`sat`/`unsat`/stop reason), when recorded.
    pub outcome: Option<String>,
}

/// The analyzed view of one trace artifact.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Wall time covered by the trace: max end over all root spans, µs.
    pub wall_us: u64,
    /// Per-phase aggregates keyed by span name.
    pub phases: BTreeMap<String, PhaseStats>,
    /// One entry per `encode` span carrying CNF-size counters.
    pub encodings: Vec<EncodingStats>,
    /// One entry per solver member span.
    pub members: Vec<MemberStats>,
    /// Warnings carried over from forest reconstruction.
    pub warnings: Vec<String>,
}

fn field_str(node: &SpanNode, name: &str) -> Option<String> {
    match node.field(name) {
        Some(FieldValue::Str(s)) => Some(s.clone()),
        Some(other) => Some(other.to_string()),
        None => None,
    }
}

fn field_u64(node: &SpanNode, name: &str) -> Option<u64> {
    match node.field(name) {
        Some(FieldValue::U64(n)) => Some(*n),
        _ => None,
    }
}

impl TraceReport {
    /// Analyzes a reconstructed span forest.
    pub fn from_forest(forest: &SpanForest) -> TraceReport {
        let mut report = TraceReport {
            warnings: forest.warnings.clone(),
            ..TraceReport::default()
        };
        report.wall_us = forest
            .roots()
            .iter()
            .filter_map(|id| forest.node(*id))
            .filter_map(|n| n.end_us.map(|end| end.saturating_sub(n.start_us)))
            .max()
            .unwrap_or(0);
        for node in forest.spans() {
            let entry = report.phases.entry(node.name.clone()).or_default();
            entry.count += 1;
            entry.total_us += node.total_us();
            entry.self_us += forest.self_us(node.id);

            if node.name == "encode" {
                report.encodings.push(EncodingStats {
                    encoding: field_str(node, "encoding").unwrap_or_else(|| "?".to_string()),
                    variables: node.counters.get("variables").copied().unwrap_or(0),
                    clauses: node.counters.get("clauses").copied().unwrap_or(0),
                    literals: node.counters.get("literals").copied().unwrap_or(0),
                    total_us: node.total_us(),
                });
            }
            if node.name == "member" {
                let total_us = node.total_us();
                let propagations = node.counters.get("propagations").copied().unwrap_or(0);
                let secs = total_us as f64 / 1e6;
                report.members.push(MemberStats {
                    index: field_u64(node, "index").unwrap_or(0),
                    strategy: field_str(node, "strategy"),
                    conflicts: node.counters.get("conflicts").copied().unwrap_or(0),
                    decisions: node.counters.get("decisions").copied().unwrap_or(0),
                    propagations,
                    total_us,
                    props_per_sec: if secs > 0.0 {
                        propagations as f64 / secs
                    } else {
                        0.0
                    },
                    outcome: node
                        .marks
                        .get("outcome")
                        .or_else(|| node.marks.get("stop_reason"))
                        .cloned(),
                });
            }
        }
        report.members.sort_by_key(|m| m.index);
        report
    }

    /// Renders the report (tree + tables) as human-readable text.
    pub fn render_text(&self, forest: &SpanForest) -> String {
        let mut out = String::new();
        let fmt_us = |us: u64| format!("{:.3}s", us as f64 / 1e6);

        out.push_str("span tree\n");
        forest.walk(|node, depth| {
            let indent = "  ".repeat(depth + 1);
            let mut line = format!("{indent}{} {}", node.name, fmt_us(node.total_us()));
            if node.end_us.is_none() {
                line.push_str(" (unclosed)");
            }
            let annotations: Vec<String> = node
                .fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .chain(node.marks.iter().map(|(k, v)| format!("{k}={v}")))
                .collect();
            if !annotations.is_empty() {
                line.push_str(&format!(" [{}]", annotations.join(" ")));
            }
            out.push_str(&line);
            out.push('\n');
        });

        out.push_str(&format!("\nwall time: {}\n", fmt_us(self.wall_us)));
        out.push_str("\nper-phase timing\n");
        out.push_str(&format!(
            "  {:<22} {:>6} {:>12} {:>12}\n",
            "phase", "count", "total", "self"
        ));
        for (name, stats) in &self.phases {
            out.push_str(&format!(
                "  {:<22} {:>6} {:>12} {:>12}\n",
                name,
                stats.count,
                fmt_us(stats.total_us),
                fmt_us(stats.self_us)
            ));
        }

        if !self.encodings.is_empty() {
            out.push_str("\nper-encoding CNF size\n");
            out.push_str(&format!(
                "  {:<14} {:>10} {:>10} {:>12} {:>10}\n",
                "encoding", "vars", "clauses", "literals", "time"
            ));
            for e in &self.encodings {
                out.push_str(&format!(
                    "  {:<14} {:>10} {:>10} {:>12} {:>10}\n",
                    e.encoding,
                    e.variables,
                    e.clauses,
                    e.literals,
                    fmt_us(e.total_us)
                ));
            }
        }

        if !self.members.is_empty() {
            out.push_str("\nper-member solving\n");
            out.push_str(&format!(
                "  {:<3} {:<16} {:>10} {:>10} {:>12} {:>12} {:>10} {}\n",
                "#", "strategy", "conflicts", "decisions", "props", "props/s", "time", "outcome"
            ));
            for m in &self.members {
                out.push_str(&format!(
                    "  {:<3} {:<16} {:>10} {:>10} {:>12} {:>12.0} {:>10} {}\n",
                    m.index,
                    m.strategy.as_deref().unwrap_or("-"),
                    m.conflicts,
                    m.decisions,
                    m.propagations,
                    m.props_per_sec,
                    fmt_us(m.total_us),
                    m.outcome.as_deref().unwrap_or("-")
                ));
            }
        }

        for warning in &self.warnings {
            out.push_str(&format!("\nwarning: {warning}"));
        }
        if !self.warnings.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> Value {
        let phases = Value::Object(
            self.phases
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        Value::object([
                            ("count", Value::from(s.count)),
                            ("total_us", Value::from(s.total_us)),
                            ("self_us", Value::from(s.self_us)),
                        ]),
                    )
                })
                .collect(),
        );
        let encodings = Value::array(self.encodings.iter().map(|e| {
            Value::object([
                ("encoding", Value::string(e.encoding.clone())),
                ("variables", Value::from(e.variables)),
                ("clauses", Value::from(e.clauses)),
                ("literals", Value::from(e.literals)),
                ("total_us", Value::from(e.total_us)),
            ])
        }));
        let members = Value::array(self.members.iter().map(|m| {
            Value::object([
                ("index", Value::from(m.index)),
                (
                    "strategy",
                    m.strategy
                        .as_ref()
                        .map(|s| Value::string(s.clone()))
                        .unwrap_or(Value::Null),
                ),
                ("conflicts", Value::from(m.conflicts)),
                ("decisions", Value::from(m.decisions)),
                ("propagations", Value::from(m.propagations)),
                ("props_per_sec", Value::Number(m.props_per_sec)),
                ("total_us", Value::from(m.total_us)),
                (
                    "outcome",
                    m.outcome
                        .as_ref()
                        .map(|s| Value::string(s.clone()))
                        .unwrap_or(Value::Null),
                ),
            ])
        }));
        Value::object([
            ("wall_us", Value::from(self.wall_us)),
            ("phases", phases),
            ("encodings", encodings),
            ("members", members),
            (
                "warnings",
                Value::array(self.warnings.iter().map(|w| Value::string(w.clone()))),
            ),
        ])
    }
}

/// Rate of change between two cumulative samples, per second.
fn rate(first: Option<&TimelineSample>, last: Option<&TimelineSample>) -> f64 {
    match (first, last) {
        (Some(a), Some(b)) if b.at_us > a.at_us => {
            b.conflicts.saturating_sub(a.conflicts) as f64 / ((b.at_us - a.at_us) as f64 / 1e6)
        }
        _ => 0.0,
    }
}

/// One search-state time series: the samples attached to one span,
/// with its trajectory summarized.
#[derive(Clone, Debug)]
pub struct TimelineSeries {
    /// The span the samples were attached to.
    pub span: SpanId,
    /// Display label: the nearest `member` ancestor
    /// (`member 0 (log/s1)`), else the span name.
    pub label: String,
    /// The samples, in time order.
    pub samples: Vec<TimelineSample>,
    /// Conflict rate over the first half of the series (conflicts/s).
    pub early_rate: f64,
    /// Conflict rate over the second half of the series (conflicts/s).
    pub late_rate: f64,
    /// Live learnt clauses at the first sample.
    pub learnt_first: u64,
    /// Live learnt clauses at the last sample.
    pub learnt_last: u64,
    /// Restarts at the last sample.
    pub restarts: u64,
    /// Mean conflicts between restarts over the series (0 with no
    /// restarts).
    pub restart_cadence: f64,
}

impl TimelineSeries {
    fn from_span(forest: &SpanForest, node: &SpanNode) -> TimelineSeries {
        let mut samples = node.samples.clone();
        samples.sort_by_key(|s| s.at_us);
        let mid = samples.len() / 2;
        let last = samples.last();
        let restarts = last.map_or(0, |s| s.restarts);
        let conflicts = last.map_or(0, |s| s.conflicts);
        // A portfolio member's samples sit on the `solve` span beneath
        // it; label the series by that nearest ancestor.
        let label =
            match std::iter::successors(Some(node), |n| n.parent.and_then(|p| forest.node(p)))
                .find(|n| n.name == "member")
            {
                Some(member) => format!(
                    "member {} ({})",
                    field_u64(member, "index").unwrap_or(0),
                    field_str(member, "strategy").unwrap_or_else(|| "?".into()),
                ),
                None => node.name.clone(),
            };
        TimelineSeries {
            span: node.id,
            label,
            early_rate: rate(samples.first(), samples.get(mid)),
            late_rate: rate(samples.get(mid), last),
            learnt_first: samples.first().map_or(0, TimelineSample::learnts),
            learnt_last: last.map_or(0, TimelineSample::learnts),
            restarts,
            restart_cadence: if restarts > 0 {
                conflicts as f64 / restarts as f64
            } else {
                0.0
            },
            samples,
        }
    }
}

/// The time-series view of a trace: one [`TimelineSeries`] per span
/// that carried search-state samples, behind `satroute trace
/// timeline`.
#[derive(Clone, Debug, Default)]
pub struct TimelineReport {
    /// Series in span start order.
    pub series: Vec<TimelineSeries>,
    /// Warnings carried over from forest reconstruction.
    pub warnings: Vec<String>,
}

impl TimelineReport {
    /// Collects every sampled span of the forest into a series.
    pub fn from_forest(forest: &SpanForest) -> TimelineReport {
        TimelineReport {
            series: forest
                .spans()
                .into_iter()
                .filter(|n| !n.samples.is_empty())
                .map(|n| TimelineSeries::from_span(forest, n))
                .collect(),
            warnings: forest.warnings.clone(),
        }
    }

    /// Whether any samples were found at all.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders per-series sample tables and trajectory summaries.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.series.is_empty() {
            out.push_str(
                "no search-state samples in this trace \
                 (a traced solve writes them)\n",
            );
            return out;
        }
        for series in &self.series {
            out.push_str(&format!(
                "timeline: {} ({} samples)\n",
                series.label,
                series.samples.len()
            ));
            out.push_str(&format!(
                "  {:>9} {:<8} {:>10} {:>10} {:>8} {:>7} {:>6} {:>6} {:>6}\n",
                "t", "cause", "conflicts", "confl/s", "learnts", "trail", "level", "lbd", "rst"
            ));
            // Long series elide the middle: the interesting action is
            // at the start (ramp-up) and the end (where it stopped).
            let n = series.samples.len();
            let (head, tail) = if n > 28 { (8, n - 16) } else { (n, n) };
            for (i, s) in series.samples.iter().enumerate() {
                if i == head && head < tail {
                    out.push_str(&format!("  ... {} samples elided ...\n", tail - head));
                }
                if i >= head && i < tail {
                    continue;
                }
                out.push_str(&format!(
                    "  {:>8.3}s {:<8} {:>10} {:>10.0} {:>8} {:>7} {:>6} {:>6.1} {:>6}\n",
                    s.at_us as f64 / 1e6,
                    s.cause.as_str(),
                    s.conflicts,
                    s.conflicts_per_sec,
                    s.learnts(),
                    s.trail,
                    s.level,
                    s.lbd_ema,
                    s.restarts,
                ));
            }
            out.push_str(&format!(
                "  trajectory: conflict rate {:.0}/s -> {:.0}/s, learnt DB {} -> {}, \
                 {} restarts (every ~{:.0} conflicts)\n",
                series.early_rate,
                series.late_rate,
                series.learnt_first,
                series.learnt_last,
                series.restarts,
                series.restart_cadence,
            ));
        }
        for warning in &self.warnings {
            out.push_str(&format!("warning: {warning}\n"));
        }
        out
    }

    /// Renders the report as a JSON document (full sample series).
    pub fn to_json(&self) -> Value {
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        Value::object([
            (
                "series",
                Value::array(self.series.iter().map(|s| {
                    Value::object([
                        ("span", Value::from(s.span)),
                        ("label", Value::string(s.label.clone())),
                        ("early_rate", Value::Number(finite(s.early_rate))),
                        ("late_rate", Value::Number(finite(s.late_rate))),
                        ("learnt_first", Value::from(s.learnt_first)),
                        ("learnt_last", Value::from(s.learnt_last)),
                        ("restarts", Value::from(s.restarts)),
                        ("restart_cadence", Value::Number(finite(s.restart_cadence))),
                        (
                            "samples",
                            Value::array(s.samples.iter().map(TimelineSample::to_json)),
                        ),
                    ])
                })),
            ),
            (
                "warnings",
                Value::array(self.warnings.iter().map(|w| Value::string(w.clone()))),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn start(id: u64, parent: Option<u64>, name: &str, at: u64) -> TraceEvent {
        TraceEvent::SpanStart {
            id,
            parent,
            name: name.into(),
            at_us: at,
            thread: 0,
            fields: vec![],
        }
    }

    #[test]
    fn report_aggregates_phases_encodings_and_members() {
        let events = vec![
            start(1, None, "route", 0),
            TraceEvent::SpanStart {
                id: 2,
                parent: Some(1),
                name: "encode".into(),
                at_us: 100,
                thread: 0,
                fields: vec![("encoding".into(), FieldValue::Str("log".into()))],
            },
            TraceEvent::Counter {
                span: Some(2),
                name: "variables".into(),
                value: 20,
                at_us: 150,
            },
            TraceEvent::Counter {
                span: Some(2),
                name: "clauses".into(),
                value: 60,
                at_us: 150,
            },
            TraceEvent::Counter {
                span: Some(2),
                name: "literals".into(),
                value: 140,
                at_us: 150,
            },
            TraceEvent::SpanEnd { id: 2, at_us: 200 },
            TraceEvent::SpanStart {
                id: 3,
                parent: Some(1),
                name: "member".into(),
                at_us: 200,
                thread: 1,
                fields: vec![
                    ("index".into(), FieldValue::U64(0)),
                    ("strategy".into(), FieldValue::Str("log".into())),
                ],
            },
            TraceEvent::Counter {
                span: Some(3),
                name: "propagations".into(),
                value: 5_000,
                at_us: 900_000,
            },
            TraceEvent::Mark {
                span: Some(3),
                name: "outcome".into(),
                value: "sat".into(),
                at_us: 900_001,
            },
            TraceEvent::SpanEnd {
                id: 3,
                at_us: 1_000_200,
            },
            TraceEvent::SpanEnd {
                id: 1,
                at_us: 1_000_300,
            },
        ];
        let forest = SpanForest::from_events(&events).unwrap();
        let report = TraceReport::from_forest(&forest);

        assert_eq!(report.wall_us, 1_000_300);
        assert_eq!(report.phases["route"].count, 1);
        assert_eq!(report.phases["encode"].total_us, 100);
        // route self = 1_000_300 − (100 + 1_000_000) = 200
        assert_eq!(report.phases["route"].self_us, 200);

        assert_eq!(report.encodings.len(), 1);
        assert_eq!(report.encodings[0].encoding, "log");
        assert_eq!(report.encodings[0].clauses, 60);

        assert_eq!(report.members.len(), 1);
        let m = &report.members[0];
        assert_eq!(m.propagations, 5_000);
        assert_eq!(m.outcome.as_deref(), Some("sat"));
        assert!((m.props_per_sec - 5_000.0 / 1.0002).abs() < 1.0);

        let text = report.render_text(&forest);
        assert!(text.contains("per-encoding CNF size"), "{text}");
        assert!(text.contains("per-member solving"), "{text}");
        assert!(text.contains("encoding=log"), "{text}");

        let json = report.to_json();
        assert_eq!(
            json.get("phases")
                .and_then(|p| p.get("encode"))
                .and_then(|e| e.get("count"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        // JSON must round-trip through the parser.
        crate::json::parse(&json.to_json()).unwrap();
    }

    #[test]
    fn timeline_report_summarizes_trajectories() {
        let mut events = vec![TraceEvent::SpanStart {
            id: 1,
            parent: None,
            name: "member".into(),
            at_us: 0,
            thread: 0,
            fields: vec![
                ("index".into(), FieldValue::U64(2)),
                ("strategy".into(), FieldValue::Str("log".into())),
            ],
        }];
        // Decaying conflict rate: equal time steps, shrinking deltas.
        let cum = [0u64, 1000, 1800, 2400, 2800];
        for (i, conflicts) in cum.iter().enumerate() {
            events.push(TraceEvent::Sample {
                span: Some(1),
                at_us: (i as u64 + 1) * 100,
                sample: TimelineSample {
                    at_us: i as u64 * 1_000_000,
                    conflicts: *conflicts,
                    restarts: i as u64,
                    tier_core: i as u64,
                    tier_local: 10 * i as u64,
                    ..TimelineSample::default()
                },
            });
        }
        events.push(TraceEvent::SpanEnd { id: 1, at_us: 600 });
        let forest = SpanForest::from_events(&events).unwrap();
        let report = TimelineReport::from_forest(&forest);
        assert_eq!(report.series.len(), 1);
        let s = &report.series[0];
        assert_eq!(s.label, "member 2 (log)");
        assert_eq!(s.samples.len(), 5);
        // First half: 1800 conflicts over 2s; second half: 1000 over 2s.
        assert!((s.early_rate - 900.0).abs() < 1.0, "{}", s.early_rate);
        assert!((s.late_rate - 500.0).abs() < 1.0, "{}", s.late_rate);
        assert_eq!(s.learnt_first, 0);
        assert_eq!(s.learnt_last, 44);
        assert_eq!(s.restarts, 4);
        assert!((s.restart_cadence - 700.0).abs() < 1.0);
        let text = report.render_text();
        assert!(text.contains("timeline: member 2 (log)"), "{text}");
        assert!(text.contains("trajectory:"), "{text}");
        crate::json::parse(&report.to_json().to_json()).unwrap();
        assert!(TimelineReport::from_forest(&SpanForest::default()).is_empty());
    }
}

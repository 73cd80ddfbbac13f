//! Span-tree reconstruction.
//!
//! [`SpanForest`] is the validated tree built from any event stream —
//! live from a [`BufferSink`](crate::tracer::BufferSink) or parsed back
//! from a JSONL artifact. Reconstruction checks the structural invariants
//! the tracer guarantees on write: no orphan parents, nondecreasing
//! timestamps, ends after starts.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::event::{FieldValue, SpanId, TraceEvent};
use crate::timeline::TimelineSample;

/// A reconstructed span with its measurements and children.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span's id.
    pub id: SpanId,
    /// The parent span, if any.
    pub parent: Option<SpanId>,
    /// The span's phase name.
    pub name: String,
    /// Start timestamp (µs since trace epoch).
    pub start_us: u64,
    /// End timestamp (µs since trace epoch); `None` if never closed
    /// (tolerated with a warning so a truncated artifact still reports).
    pub end_us: Option<u64>,
    /// The thread that opened the span.
    pub thread: u64,
    /// Fields attached at start time.
    pub fields: Vec<(String, FieldValue)>,
    /// Counter observations attached to the span (last value wins).
    pub counters: BTreeMap<String, u64>,
    /// Last observed value of each gauge attached to the span.
    pub gauges: BTreeMap<String, f64>,
    /// String annotations attached to the span (last value wins).
    pub marks: BTreeMap<String, String>,
    /// Search-state samples attached to the span, in emit order.
    pub samples: Vec<TimelineSample>,
    /// Child span ids, in start order.
    pub children: Vec<SpanId>,
}

impl SpanNode {
    /// Total wall time of the span in microseconds (0 if unclosed).
    pub fn total_us(&self) -> u64 {
        self.end_us
            .map(|end| end.saturating_sub(self.start_us))
            .unwrap_or(0)
    }

    /// A field attached at start time, by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A validated forest of spans reconstructed from a trace.
#[derive(Clone, Debug, Default)]
pub struct SpanForest {
    nodes: HashMap<SpanId, SpanNode>,
    roots: Vec<SpanId>,
    /// Non-fatal issues found during reconstruction (unclosed spans,
    /// measurements on unknown spans).
    pub warnings: Vec<String>,
}

impl SpanForest {
    /// Builds a forest from an event stream, validating structure.
    ///
    /// # Errors
    ///
    /// Fails on hard violations a correct tracer can never produce:
    /// duplicate span ids, a parent id that never started, a `SpanEnd`
    /// for an unknown span or before its start, or timestamps that go
    /// backwards between consecutive events.
    pub fn from_events(events: &[TraceEvent]) -> Result<SpanForest, String> {
        let mut forest = SpanForest::default();
        let mut last_us = 0u64;
        for (i, event) in events.iter().enumerate() {
            let at = event.at_us();
            if at < last_us {
                return Err(format!(
                    "event {i} timestamp {at}µs precedes previous {last_us}µs"
                ));
            }
            last_us = at;
            match event {
                TraceEvent::SpanStart {
                    id,
                    parent,
                    name,
                    at_us,
                    thread,
                    fields,
                } => {
                    if *id == 0 {
                        return Err(format!("event {i}: span id 0 is reserved"));
                    }
                    if forest.nodes.contains_key(id) {
                        return Err(format!("event {i}: duplicate span id {id}"));
                    }
                    match parent {
                        Some(p) => {
                            let Some(parent_node) = forest.nodes.get_mut(p) else {
                                return Err(format!(
                                    "event {i}: span {id} ({name}) has orphan parent {p}"
                                ));
                            };
                            parent_node.children.push(*id);
                        }
                        None => forest.roots.push(*id),
                    }
                    forest.nodes.insert(
                        *id,
                        SpanNode {
                            id: *id,
                            parent: *parent,
                            name: name.clone(),
                            start_us: *at_us,
                            end_us: None,
                            thread: *thread,
                            fields: fields.clone(),
                            counters: BTreeMap::new(),
                            gauges: BTreeMap::new(),
                            marks: BTreeMap::new(),
                            samples: Vec::new(),
                            children: Vec::new(),
                        },
                    );
                }
                TraceEvent::SpanEnd { id, at_us } => {
                    let Some(node) = forest.nodes.get_mut(id) else {
                        return Err(format!("event {i}: end of unknown span {id}"));
                    };
                    if node.end_us.is_some() {
                        return Err(format!("event {i}: span {id} ended twice"));
                    }
                    if *at_us < node.start_us {
                        return Err(format!("event {i}: span {id} ends before it starts"));
                    }
                    node.end_us = Some(*at_us);
                }
                TraceEvent::Counter {
                    span, name, value, ..
                } => forest.attach(*span, |n| {
                    n.counters.insert(name.clone(), *value);
                }),
                TraceEvent::Gauge {
                    span, name, value, ..
                } => forest.attach(*span, |n| {
                    n.gauges.insert(name.clone(), *value);
                }),
                TraceEvent::Mark {
                    span, name, value, ..
                } => forest.attach(*span, |n| {
                    n.marks.insert(name.clone(), value.clone());
                }),
                TraceEvent::Sample { span, sample, .. } => forest.attach(*span, |n| {
                    n.samples.push(*sample);
                }),
            }
        }
        for node in forest.nodes.values() {
            if node.end_us.is_none() {
                forest
                    .warnings
                    .push(format!("span {} ({}) never closed", node.id, node.name));
            }
        }
        forest.warnings.sort();
        Ok(forest)
    }

    fn attach(&mut self, span: Option<SpanId>, apply: impl FnOnce(&mut SpanNode)) {
        match span {
            None => {} // trace-global measurement: kept only in the raw stream
            Some(id) => match self.nodes.get_mut(&id) {
                Some(node) => apply(node),
                None => self
                    .warnings
                    .push(format!("measurement on unknown span {id}")),
            },
        }
    }

    /// Root spans in start order.
    pub fn roots(&self) -> &[SpanId] {
        &self.roots
    }

    /// Looks up a span by id.
    pub fn node(&self, id: SpanId) -> Option<&SpanNode> {
        self.nodes.get(&id)
    }

    /// The number of spans in the forest.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the forest has no spans.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All spans, in start order.
    pub fn spans(&self) -> Vec<&SpanNode> {
        let mut all: Vec<&SpanNode> = self.nodes.values().collect();
        all.sort_by_key(|n| (n.start_us, n.id));
        all
    }

    /// Spans with the given name, in start order.
    pub fn spans_named(&self, name: &str) -> Vec<&SpanNode> {
        self.spans()
            .into_iter()
            .filter(|n| n.name == name)
            .collect()
    }

    /// Self time of a span: total minus the sum of its children's
    /// totals, saturating at zero (children running concurrently on
    /// other threads can overlap the parent).
    pub fn self_us(&self, id: SpanId) -> u64 {
        let Some(node) = self.nodes.get(&id) else {
            return 0;
        };
        let children: u64 = node
            .children
            .iter()
            .filter_map(|c| self.nodes.get(c))
            .map(SpanNode::total_us)
            .sum();
        node.total_us().saturating_sub(children)
    }

    /// Walks the forest depth-first in start order, calling `visit` with
    /// each node and its depth.
    pub fn walk(&self, mut visit: impl FnMut(&SpanNode, usize)) {
        fn go(
            forest: &SpanForest,
            id: SpanId,
            depth: usize,
            visit: &mut impl FnMut(&SpanNode, usize),
        ) {
            let Some(node) = forest.nodes.get(&id) else {
                return;
            };
            visit(node, depth);
            for child in &node.children {
                go(forest, *child, depth + 1, visit);
            }
        }
        for root in &self.roots {
            go(self, *root, 0, &mut visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{BufferSink, Tracer};

    #[test]
    fn live_tree_reconstructs_nesting_and_measurements() {
        let buffer = BufferSink::new();
        let tracer = Tracer::to_sink(buffer.clone());
        {
            let route = tracer.span("route");
            {
                let encode = tracer.span("encode");
                encode.counter("clauses", 128);
                encode.gauge("ratio", 0.5);
            }
            route.mark("verdict", "unsat");
        }
        let forest = SpanForest::from_events(&buffer.events()).unwrap();
        assert_eq!(forest.roots().len(), 1);
        let root = forest.node(forest.roots()[0]).unwrap();
        assert_eq!(root.name, "route");
        assert_eq!(root.marks.get("verdict").map(String::as_str), Some("unsat"));
        assert_eq!(root.children.len(), 1);
        let encode = forest.node(root.children[0]).unwrap();
        assert_eq!(encode.name, "encode");
        assert_eq!(encode.counters.get("clauses"), Some(&128));
        assert_eq!(encode.gauges.get("ratio"), Some(&0.5));
        assert!(forest.warnings.is_empty(), "{:?}", forest.warnings);
    }

    #[test]
    fn orphan_parents_and_backward_time_are_hard_errors() {
        let orphan = vec![TraceEvent::SpanStart {
            id: 2,
            parent: Some(1),
            name: "child".into(),
            at_us: 0,
            thread: 0,
            fields: vec![],
        }];
        assert!(SpanForest::from_events(&orphan)
            .unwrap_err()
            .contains("orphan parent"));

        let backwards = vec![
            TraceEvent::SpanStart {
                id: 1,
                parent: None,
                name: "a".into(),
                at_us: 10,
                thread: 0,
                fields: vec![],
            },
            TraceEvent::SpanEnd { id: 1, at_us: 5 },
        ];
        assert!(SpanForest::from_events(&backwards)
            .unwrap_err()
            .contains("precedes"));
    }

    #[test]
    fn unclosed_spans_warn_rather_than_fail() {
        let events = vec![TraceEvent::SpanStart {
            id: 1,
            parent: None,
            name: "half".into(),
            at_us: 0,
            thread: 0,
            fields: vec![],
        }];
        let forest = SpanForest::from_events(&events).unwrap();
        assert_eq!(forest.warnings.len(), 1);
        assert_eq!(forest.node(1).unwrap().total_us(), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_saturates() {
        let events = vec![
            TraceEvent::SpanStart {
                id: 1,
                parent: None,
                name: "p".into(),
                at_us: 0,
                thread: 0,
                fields: vec![],
            },
            TraceEvent::SpanStart {
                id: 2,
                parent: Some(1),
                name: "c1".into(),
                at_us: 10,
                thread: 1,
                fields: vec![],
            },
            TraceEvent::SpanStart {
                id: 3,
                parent: Some(1),
                name: "c2".into(),
                at_us: 10,
                thread: 2,
                fields: vec![],
            },
            TraceEvent::SpanEnd { id: 2, at_us: 80 },
            TraceEvent::SpanEnd { id: 3, at_us: 90 },
            TraceEvent::SpanEnd { id: 1, at_us: 100 },
        ];
        let forest = SpanForest::from_events(&events).unwrap();
        // children total 70 + 80 = 150 > parent total 100 → saturate
        assert_eq!(forest.self_us(1), 0);
        assert_eq!(forest.self_us(2), 70);
        assert_eq!(forest.node(1).unwrap().total_us(), 100);
    }
}

//! The [`Tracer`] handle and RAII [`SpanGuard`]s.
//!
//! A `Tracer` is a cheap-to-clone handle that is either *disabled* (the
//! default — every operation is a no-op and allocates nothing) or backed
//! by a shared core that assigns span ids, tracks per-thread span stacks
//! for implicit parenting, and fans events out to sinks. Timestamps are
//! taken and dispatched under one lock, so the event stream every sink
//! sees is globally ordered by nondecreasing time — a property the trace
//! validator ([`crate::tree::SpanForest`]) checks on read-back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use crate::event::{FieldValue, SpanId, TraceEvent};

/// A destination for trace events.
///
/// Sinks are invoked under the tracer's emit lock, in timestamp order.
/// They should buffer rather than block (see
/// [`TraceWriter`](crate::writer::TraceWriter)).
pub trait TraceSink: Send {
    /// Receives one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes any buffered events to their final destination.
    fn flush(&mut self) {}
}

struct TracerInner {
    epoch: Instant,
    next_span: AtomicU64,
    emit: Mutex<EmitState>,
}

struct EmitState {
    sinks: Vec<Box<dyn TraceSink>>,
    /// Per-thread stack of open spans, for implicit parenting.
    stacks: HashMap<ThreadId, Vec<SpanId>>,
    /// Stable small integers for thread ids ([`ThreadId`] has no public
    /// numeric representation).
    thread_ids: HashMap<ThreadId, u64>,
    /// High-water mark so timestamps are nondecreasing across threads
    /// even if `Instant` arithmetic rounds differently between calls.
    last_us: u64,
}

impl EmitState {
    fn thread_index(&mut self, id: ThreadId) -> u64 {
        let next = self.thread_ids.len() as u64;
        *self.thread_ids.entry(id).or_insert(next)
    }
}

/// A handle for recording hierarchical spans and measurements.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled); every
/// layer of the pipeline takes a `Tracer` by value and threads clones to
/// its children. The disabled tracer is the `Default`, so tracing is
/// strictly opt-in and costs one branch per call site when off.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing. Span guards still measure elapsed
    /// time, so timing-compatibility views keep working without a trace.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Builds an enabled tracer fanning out to `sinks`.
    pub fn with_sinks(sinks: Vec<Box<dyn TraceSink>>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                emit: Mutex::new(EmitState {
                    sinks,
                    stacks: HashMap::new(),
                    thread_ids: HashMap::new(),
                    last_us: 0,
                }),
            })),
        }
    }

    /// Builds an enabled tracer with a single sink.
    pub fn to_sink(sink: impl TraceSink + 'static) -> Tracer {
        Tracer::with_sinks(vec![Box::new(sink)])
    }

    /// Whether events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`, parented to the current thread's
    /// innermost open span (if any).
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, std::iter::empty::<(&str, FieldValue)>())
    }

    /// Opens a span with attached fields, parented implicitly like
    /// [`Tracer::span`].
    pub fn span_with<K: Into<String>>(
        &self,
        name: &str,
        fields: impl IntoIterator<Item = (K, FieldValue)>,
    ) -> SpanGuard {
        self.open(name, Parent::CurrentThread, fields)
    }

    /// Opens a span under an explicit parent id — for work handed to
    /// another thread (portfolio members), where the per-thread stack of
    /// the spawning thread is not visible.
    pub fn span_under<K: Into<String>>(
        &self,
        parent: SpanId,
        name: &str,
        fields: impl IntoIterator<Item = (K, FieldValue)>,
    ) -> SpanGuard {
        self.open(name, Parent::Explicit(parent), fields)
    }

    fn open<K: Into<String>>(
        &self,
        name: &str,
        parent: Parent,
        fields: impl IntoIterator<Item = (K, FieldValue)>,
    ) -> SpanGuard {
        let start = Instant::now();
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: Tracer::disabled(),
                id: 0,
                start,
                closed: false,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current().id();
        let fields: Vec<(String, FieldValue)> =
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
        let mut state = inner.emit.lock().unwrap();
        let parent = match parent {
            Parent::Explicit(p) => (p != 0).then_some(p),
            Parent::CurrentThread => state.stacks.get(&thread).and_then(|s| s.last().copied()),
        };
        let thread_index = state.thread_index(thread);
        state.stacks.entry(thread).or_default().push(id);
        let at_us = stamp(inner, &mut state);
        dispatch(
            &mut state,
            &TraceEvent::SpanStart {
                id,
                parent,
                name: name.to_string(),
                at_us,
                thread: thread_index,
                fields,
            },
        );
        drop(state);
        SpanGuard {
            tracer: self.clone(),
            id,
            start,
            closed: false,
        }
    }

    /// Records a counter observation attached to `span` (0 = global).
    pub fn counter(&self, span: SpanId, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.emit.lock().unwrap();
        let at_us = stamp(inner, &mut state);
        dispatch(
            &mut state,
            &TraceEvent::Counter {
                span: (span != 0).then_some(span),
                name: name.to_string(),
                value,
                at_us,
            },
        );
    }

    /// Records a gauge observation attached to `span` (0 = global).
    pub fn gauge(&self, span: SpanId, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.emit.lock().unwrap();
        let at_us = stamp(inner, &mut state);
        dispatch(
            &mut state,
            &TraceEvent::Gauge {
                span: (span != 0).then_some(span),
                name: name.to_string(),
                value,
                at_us,
            },
        );
    }

    /// Records a search-state sample attached to `span` (0 = global).
    pub fn sample(&self, span: SpanId, sample: &crate::timeline::TimelineSample) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.emit.lock().unwrap();
        let at_us = stamp(inner, &mut state);
        dispatch(
            &mut state,
            &TraceEvent::Sample {
                span: (span != 0).then_some(span),
                at_us,
                sample: *sample,
            },
        );
    }

    /// Records a string annotation attached to `span` (0 = global).
    pub fn mark(&self, span: SpanId, name: &str, value: &str) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.emit.lock().unwrap();
        let at_us = stamp(inner, &mut state);
        dispatch(
            &mut state,
            &TraceEvent::Mark {
                span: (span != 0).then_some(span),
                name: name.to_string(),
                value: value.to_string(),
                at_us,
            },
        );
    }

    /// Flushes all sinks. Also runs automatically when the last clone of
    /// an enabled tracer is dropped (via each sink's own drop).
    pub fn flush(&self) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.emit.lock().unwrap();
        for sink in &mut state.sinks {
            sink.flush();
        }
    }

    fn close_span(&self, id: SpanId) {
        let Some(inner) = &self.inner else { return };
        let thread = std::thread::current().id();
        let mut state = inner.emit.lock().unwrap();
        if let Some(stack) = state.stacks.get_mut(&thread) {
            // Usually the innermost span; tolerate out-of-order closes
            // (guards moved across scopes) by removing wherever it sits.
            if let Some(pos) = stack.iter().rposition(|s| *s == id) {
                stack.remove(pos);
            }
        }
        let at_us = stamp(inner, &mut state);
        dispatch(&mut state, &TraceEvent::SpanEnd { id, at_us });
    }
}

enum Parent {
    CurrentThread,
    Explicit(SpanId),
}

fn stamp(inner: &TracerInner, state: &mut EmitState) -> u64 {
    let now = inner.epoch.elapsed().as_micros() as u64;
    state.last_us = state.last_us.max(now);
    state.last_us
}

fn dispatch(state: &mut EmitState, event: &TraceEvent) {
    for sink in &mut state.sinks {
        sink.record(event);
    }
}

/// An open span. Dropping (or calling [`SpanGuard::close`]) emits the
/// matching `SpanEnd` event.
///
/// The guard measures wall time even when its tracer is disabled, so
/// call sites can use `guard.close()` as their single source of elapsed
/// time whether or not a trace is being recorded.
#[must_use = "dropping the guard immediately would close the span at once"]
pub struct SpanGuard {
    tracer: Tracer,
    id: SpanId,
    start: Instant,
    closed: bool,
}

impl SpanGuard {
    /// The span's id — 0 when the tracer is disabled. Pass to
    /// [`Tracer::span_under`] or the counter/gauge/mark methods to attach
    /// children and measurements from other threads.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Records a counter attached to this span.
    pub fn counter(&self, name: &str, value: u64) {
        self.tracer.counter(self.id, name, value);
    }

    /// Records a gauge attached to this span.
    pub fn gauge(&self, name: &str, value: f64) {
        self.tracer.gauge(self.id, name, value);
    }

    /// Records a string annotation attached to this span.
    pub fn mark(&self, name: &str, value: &str) {
        self.tracer.mark(self.id, name, value);
    }

    /// Closes the span and returns its wall-clock duration (measured
    /// locally, so it is accurate even with a disabled tracer).
    pub fn close(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.end();
        elapsed
    }

    fn end(&mut self) {
        if !self.closed {
            self.closed = true;
            if self.id != 0 {
                self.tracer.close_span(self.id);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.end();
    }
}

/// A sink that appends events to a shared in-memory buffer, for reading
/// a run back in process ([`SpanForest::from_events`] over
/// [`BufferSink::events`]) and for tests.
///
/// [`SpanForest::from_events`]: crate::tree::SpanForest::from_events
#[derive(Clone, Default)]
pub struct BufferSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl BufferSink {
    /// Creates an empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// A snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert_but_still_times() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let span = tracer.span("work");
        assert_eq!(span.id(), 0);
        span.counter("n", 1);
        let elapsed = span.close();
        assert!(elapsed >= Duration::ZERO);
    }

    #[test]
    fn implicit_parenting_follows_the_thread_stack() {
        let buf = BufferSink::new();
        let tracer = Tracer::to_sink(buf.clone());
        let outer = tracer.span("outer");
        let inner = tracer.span("inner");
        inner.counter("clauses", 7);
        drop(inner);
        let sibling = tracer.span("sibling");
        drop(sibling);
        drop(outer);

        let events = buf.events();
        let parents: Vec<(String, Option<SpanId>)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpanStart { name, parent, .. } => Some((name.clone(), *parent)),
                _ => None,
            })
            .collect();
        assert_eq!(
            parents,
            vec![
                ("outer".to_string(), None),
                ("inner".to_string(), Some(1)),
                ("sibling".to_string(), Some(1)),
            ]
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Counter { span: Some(2), name, value: 7, .. } if name == "clauses")));
    }

    #[test]
    fn explicit_parenting_crosses_threads() {
        let buf = BufferSink::new();
        let tracer = Tracer::to_sink(buf.clone());
        let root = tracer.span("portfolio");
        let root_id = root.id();
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let t = tracer.clone();
                std::thread::spawn(move || {
                    let m = t.span_under(root_id, "member", [("index", FieldValue::U64(i))]);
                    m.counter("conflicts", 10 * (i + 1));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(root);

        let events = buf.events();
        let member_parents: Vec<Option<SpanId>> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpanStart { name, parent, .. } if name == "member" => Some(*parent),
                _ => None,
            })
            .collect();
        assert_eq!(member_parents, vec![Some(root_id), Some(root_id)]);
        let threads: std::collections::HashSet<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpanStart { thread, .. } => Some(*thread),
                _ => None,
            })
            .collect();
        assert!(threads.len() >= 2, "expected multiple thread ids");
    }

    #[test]
    fn timestamps_are_globally_nondecreasing() {
        let buf = BufferSink::new();
        let tracer = Tracer::to_sink(buf.clone());
        let root = tracer.span("root");
        let root_id = root.id();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = tracer.clone();
                std::thread::spawn(move || {
                    for j in 0..50 {
                        let s =
                            t.span_under(root_id, "tick", [("i", FieldValue::U64(i * 100 + j))]);
                        s.gauge("x", j as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(root);
        let events = buf.events();
        assert!(events.len() > 400);
        for pair in events.windows(2) {
            assert!(
                pair[0].at_us() <= pair[1].at_us(),
                "timestamps went backwards: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}

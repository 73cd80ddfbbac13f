//! Tracing and observability for the satroute workspace.
//!
//! The pipeline — routing-problem → conflict graph → CNF encoding →
//! SAT solving → decode/verify — is instrumented with hierarchical
//! spans. A [`Tracer`] hands out RAII [`SpanGuard`]s; each span records
//! its parent, start/end timestamps (µs since the tracer's epoch) and
//! opening thread, and can carry typed [counters](SpanGuard::counter),
//! [gauges](SpanGuard::gauge) and string [marks](SpanGuard::mark).
//! A traced solver also writes its work counters, its `outcome` mark and
//! periodic search-state [samples](TimelineSample) onto its solve span,
//! so a trace is a run's one event stream; a solve stopped by a budget
//! keeps its last samples as a [`Postmortem`]. Events fan out to
//! pluggable [`TraceSink`]s: the in-memory [`BufferSink`], the buffered
//! JSONL [`TraceWriter`] (one JSON object per line, flushed on drop)
//! that backs `--trace` artifacts, and the [`ProgressLogger`] behind
//! `--progress`. [`SpanForest`] re-builds and validates the span tree
//! from any event stream, and [`TraceReport`] turns it into the
//! per-phase / per-encoding / per-member tables behind `satroute trace
//! report`.
//!
//! Alongside the trace, a [`MetricsRegistry`] aggregates named atomic
//! counters, gauges and log-bucketed histograms (p50/p90/p99/max) fed
//! from the solver and pipeline hot paths; its snapshots render to JSON
//! or Prometheus-style text. The `satroute bench` regression harness is
//! built on top of it.
//!
//! The default [`Tracer`] and [`MetricsRegistry`] are disabled and
//! free: call sites thread them unconditionally and pay one branch
//! when observability is off.

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod report;
pub mod table;
pub mod timeline;
pub mod tracer;
pub mod tree;
pub mod writer;

pub use event::{parse_jsonl, FieldValue, SpanId, TraceEvent};
pub use export::{chrome_trace, collapsed_stacks};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use report::{EncodingStats, MemberStats, PhaseStats, TimelineReport, TraceReport};
pub use table::{Align, TextTable};
pub use timeline::{Postmortem, SampleCause, TimelineSample};
pub use tracer::{BufferSink, SpanGuard, TraceSink, Tracer};
pub use tree::{SpanForest, SpanNode};
pub use writer::{ProgressLogger, TraceWriter};

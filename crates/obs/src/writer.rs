//! Trace sinks that write: the buffered JSONL artifact writer and the
//! human-readable progress logger.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::event::{SpanId, TraceEvent};
use crate::tracer::TraceSink;

/// A [`TraceSink`] that writes one JSON object per line through a
/// [`BufWriter`].
///
/// Recording is best-effort — an unwritable artifact must not abort
/// the solve it is observing — but failures are not silent: the first
/// failed write prints a single warning to stderr, and the error is
/// retained so [`finish`](TraceWriter::finish) can report it. Handles
/// are cheap clones of one shared buffer: give one to the
/// [`Tracer`](crate::tracer::Tracer) and keep another to call
/// `finish()` once the run completes (the CLI does this for `--trace`
/// and `bench run` outputs). If `finish` is never called, the buffer
/// still flushes when the last handle drops, errors ignored as before.
pub struct TraceWriter<W: Write + Send> {
    core: Arc<Mutex<WriterCore<W>>>,
}

struct WriterCore<W: Write + Send> {
    out: BufWriter<W>,
    first_error: Option<io::Error>,
    warned: bool,
}

impl<W: Write + Send> WriterCore<W> {
    fn note_error(&mut self, err: io::Error) {
        if !self.warned {
            self.warned = true;
            eprintln!(
                "satroute: warning: trace artifact write failed: {err} \
                 (further write errors suppressed)"
            );
        }
        if self.first_error.is_none() {
            self.first_error = Some(err);
        }
    }
}

impl<W: Write + Send> Clone for TraceWriter<W> {
    fn clone(&self) -> Self {
        TraceWriter {
            core: Arc::clone(&self.core),
        }
    }
}

impl TraceWriter<File> {
    /// Creates (truncating) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_path(path: impl AsRef<Path>) -> io::Result<TraceWriter<File>> {
        Ok(TraceWriter::to_writer(File::create(path)?))
    }
}

impl<W: Write + Send> TraceWriter<W> {
    /// Wraps any writer (a file, a pipe, a `Vec<u8>` in tests).
    pub fn to_writer(out: W) -> TraceWriter<W> {
        TraceWriter {
            core: Arc::new(Mutex::new(WriterCore {
                out: BufWriter::new(out),
                first_error: None,
                warned: false,
            })),
        }
    }

    /// Flushes the shared buffer and reports the first I/O error the
    /// writer encountered — from any earlier write or from this flush.
    ///
    /// Call this on the handle kept outside the tracer once the traced
    /// run completes; other clones (e.g. the one inside a `Tracer`)
    /// remain usable but writes after `finish` only land on the next
    /// flush or final drop.
    ///
    /// # Errors
    ///
    /// Returns the first write error seen over the writer's lifetime,
    /// or the flush error if the buffered tail cannot be written.
    pub fn finish(self) -> io::Result<()> {
        let mut core = self.core.lock().unwrap();
        let flushed = core.out.flush();
        if let Some(err) = core.first_error.take() {
            return Err(err);
        }
        flushed
    }
}

impl<W: Write + Send> TraceSink for TraceWriter<W> {
    fn record(&mut self, event: &TraceEvent) {
        let mut core = self.core.lock().unwrap();
        if let Err(err) = writeln!(core.out, "{}", event.to_json().to_json()) {
            core.note_error(err);
        }
    }

    fn flush(&mut self) {
        let mut core = self.core.lock().unwrap();
        if let Err(err) = core.out.flush() {
            core.note_error(err);
        }
    }
}

/// A [`TraceSink`] that writes one human-readable line per solve start,
/// search-state sample and solve outcome — the CLI's `--progress`.
///
/// It reads what a solver writes onto its solve span: the `num_vars` and
/// `num_clauses` counters at the start of a solve, `sample` events, and
/// the `outcome` mark that ends the solve. Every line carries the label
/// and the trace clock (`[label +1.2s]`), and the writer is flushed after
/// each line so progress stays visible when stderr is redirected to a
/// file. Write errors are ignored: progress output must never abort a
/// solve.
///
/// Sample lines are rate-limited: one is dropped when less than the
/// [minimum interval](ProgressLogger::with_min_interval) — 100 ms by
/// default — has passed on the trace clock since the last line, so a hot
/// solve cannot drown stderr. Start and outcome lines always pass.
pub struct ProgressLogger {
    label: String,
    out: Box<dyn Write + Send>,
    min_interval_us: u64,
    last_line_us: Option<u64>,
    /// Variables and start time of every solve that has started and not
    /// yet ended, by span.
    solves: HashMap<Option<SpanId>, (u64, u64)>,
}

impl ProgressLogger {
    /// Logs to standard error with a `label` prefix.
    pub fn stderr(label: impl Into<String>) -> Self {
        ProgressLogger::to_writer(label, Box::new(io::stderr()))
    }

    /// Logs to an arbitrary writer.
    pub fn to_writer(label: impl Into<String>, out: Box<dyn Write + Send>) -> Self {
        ProgressLogger {
            label: label.into(),
            out,
            min_interval_us: 100_000,
            last_line_us: None,
            solves: HashMap::new(),
        }
    }

    /// Sets the minimum interval between a line and the next sample line
    /// (`Duration::ZERO` disables throttling).
    #[must_use]
    pub fn with_min_interval(mut self, min_interval: Duration) -> Self {
        self.min_interval_us = u64::try_from(min_interval.as_micros()).unwrap_or(u64::MAX);
        self
    }

    fn line(&mut self, at_us: u64, text: std::fmt::Arguments) {
        self.last_line_us = Some(at_us);
        let secs = at_us as f64 / 1e6;
        let _ = writeln!(self.out, "[{} +{secs:.1}s] {text}", self.label);
        let _ = self.out.flush();
    }
}

impl TraceSink for ProgressLogger {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Counter {
                span,
                name,
                value,
                at_us,
            } => match name.as_str() {
                "num_vars" => {
                    self.solves.insert(*span, (*value, *at_us));
                }
                "num_clauses" => {
                    if let Some(&(vars, _)) = self.solves.get(span) {
                        self.line(*at_us, format_args!("start: {vars} vars, {value} clauses"));
                    }
                }
                _ => {}
            },
            TraceEvent::Sample { at_us, sample, .. } => {
                let recent = self
                    .last_line_us
                    .is_some_and(|last| at_us.saturating_sub(last) < self.min_interval_us);
                if !recent {
                    self.line(
                        *at_us,
                        format_args!(
                            "{}: {} conflicts, {} decisions, {} props, {:.0} conflicts/s, \
                             learnts={} (core {} / mid {} / local {}), lbd~{:.1}",
                            sample.cause.as_str(),
                            sample.conflicts,
                            sample.decisions,
                            sample.propagations,
                            sample.conflicts_per_sec,
                            sample.learnts(),
                            sample.tier_core,
                            sample.tier_mid,
                            sample.tier_local,
                            sample.lbd_ema,
                        ),
                    );
                }
            }
            TraceEvent::Mark {
                span,
                name,
                value,
                at_us,
            } if name == "outcome" => {
                if let Some((_, start_us)) = self.solves.remove(span) {
                    let secs = at_us.saturating_sub(start_us) as f64 / 1e6;
                    self.line(*at_us, format_args!("done in {secs:.3}s: {value}"));
                }
            }
            _ => {}
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{parse_jsonl, FieldValue};
    use crate::tracer::Tracer;
    use std::sync::{Arc, Mutex};

    /// A writer handing its bytes to a shared buffer, to observe what the
    /// tracer wrote after it is dropped.
    #[derive(Clone)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer that always fails, to exercise the error path.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }
    }

    #[test]
    fn writes_one_valid_json_object_per_line() {
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        {
            let tracer = Tracer::to_sink(TraceWriter::to_writer(shared.clone()));
            let root = tracer.span_with("route", [("k", FieldValue::U64(4))]);
            root.counter("edges", 12);
            root.mark("verdict", "sat");
        }
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let events = parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 4, "{text}");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn finish_flushes_and_reports_success() {
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let writer = TraceWriter::to_writer(shared.clone());
        let handle = writer.clone();
        {
            let tracer = Tracer::to_sink(writer);
            drop(tracer.span("route"));
        }
        handle.finish().expect("healthy writer finishes cleanly");
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert!(parse_jsonl(&text).unwrap().len() >= 2);
    }

    /// A traced solve's start counters, `samples` samples and outcome
    /// mark, as a solver writes them.
    fn traced_solve(tracer: &Tracer, samples: u64) {
        let span = tracer.span("solve");
        span.counter("num_vars", 3);
        span.counter("num_clauses", 4);
        for conflicts in 1..=samples {
            let sample = crate::timeline::TimelineSample {
                conflicts,
                ..Default::default()
            };
            tracer.sample(span.id(), &sample);
        }
        span.mark("outcome", "sat");
    }

    #[test]
    fn progress_logger_writes_lines() {
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let logger = ProgressLogger::to_writer("t", Box::new(shared.clone()))
            .with_min_interval(Duration::ZERO);
        traced_solve(&Tracer::to_sink(logger), 2);
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("] start: 3 vars, 4 clauses"), "{text}");
        assert!(text.contains("] conflict: 2 conflicts"), "{text}");
        assert!(text.contains("] done in "), "{text}");
        assert!(text.ends_with(": sat\n"), "{text}");
        // Every line carries the label and the trace clock.
        assert!(text.lines().all(|l| l.starts_with("[t +")), "{text}");
        assert_eq!(text.lines().count(), 4, "{text}");
    }

    #[test]
    fn progress_logger_throttles_intermediate_events() {
        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        // A one-hour interval: no sample can pass after the start line.
        let logger = ProgressLogger::to_writer("t", Box::new(shared.clone()))
            .with_min_interval(Duration::from_secs(3600));
        traced_solve(&Tracer::to_sink(logger), 100);
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        // Start and outcome lines always land; the 100 samples are dropped.
        assert_eq!(text.lines().count(), 2, "{text}");
        assert!(text.contains("start:"), "{text}");
        assert!(text.contains("done in"), "{text}");
    }

    #[test]
    fn finish_surfaces_the_first_write_error() {
        let writer = TraceWriter::to_writer(Broken);
        let handle = writer.clone();
        {
            let tracer = Tracer::to_sink(writer);
            // These writes fail; the run must survive them.
            drop(tracer.span("route"));
            drop(tracer.span("solve"));
        }
        let err = handle.finish().expect_err("broken writer must report");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }
}

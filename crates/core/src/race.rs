//! The one worker pool behind [`run_portfolio`](crate::run_portfolio) and
//! cube-and-conquer ([`ConquerRequest`](crate::ConquerRequest)).
//!
//! A race runs `jobs` solves on a fixed set of scoped worker threads, each
//! claiming the next job index from one shared counter, so at most
//! `workers` jobs run at once and the rest queue. Every job solves under a
//! copy of the caller's [`RunContext`] with one absolute deadline shared by
//! all jobs and the race's stop token, inside a job span opened under an
//! explicit parent, and a stopped job's postmortem is labelled with the
//! job's index. The first job whose outcome passes the win test stops the
//! others through the stop token. That token is a
//! [`child`](CancellationToken::child) of the caller's: cancelling the
//! caller's token stops the race, but a win never cancels the caller's
//! token.
//!
//! Jobs are never split once claimed, so taking the next index balances
//! load without per-worker queues or a lock order to get wrong.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use satroute_obs::{FieldValue, SpanId};
use satroute_solver::{CancellationToken, RunContext};

use crate::strategy::{ColoringOutcome, ColoringReport};

/// `cap` (default: the machine's parallelism, or 1 if it cannot be
/// queried) clamped to `1..=jobs`.
pub(crate) fn workers(cap: Option<usize>, jobs: usize) -> usize {
    cap.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .clamp(1, jobs.max(1))
}

/// Where a race runs: the caller's context and launch instant, the span
/// the job spans hang under, and the number of worker threads.
pub(crate) struct Pool<'a> {
    pub(crate) ctx: &'a RunContext,
    pub(crate) start: Instant,
    pub(crate) parent: SpanId,
    pub(crate) workers: usize,
}

/// One finished job.
pub(crate) struct Job {
    /// The worker thread that ran it.
    pub(crate) worker: usize,
    /// The job's report; a job stopped by the winner reports
    /// [`StopReason::Cancelled`](satroute_solver::StopReason::Cancelled).
    pub(crate) report: ColoringReport,
    /// The job's own wall time (its span's duration).
    pub(crate) wall_time: Duration,
}

/// The outcome of [`Pool::race`].
pub(crate) struct Race {
    /// The first job to finish with a winning outcome, if any.
    pub(crate) winner: Option<usize>,
    /// Every job, in index order.
    pub(crate) jobs: Vec<Job>,
    /// Launch to the winning answer, or to the last job finishing when
    /// nothing won.
    pub(crate) wall_time: Duration,
}

impl Pool<'_> {
    /// Runs jobs `0..jobs` and returns every job's report.
    ///
    /// Job `i` on worker `w` opens a `span` span with the fields
    /// `fields(i, w)`, runs `job(i, w, ctx)` with the job's context, labels
    /// the report's postmortem with `i`, and puts the report's counters
    /// and outcome mark on the span. A job
    /// claimed after the race was won still runs, on a cancelled token, so
    /// every job reports.
    pub(crate) fn race(
        &self,
        jobs: usize,
        span: &str,
        fields: impl Fn(usize, usize) -> Vec<(&'static str, FieldValue)> + Sync,
        wins: fn(&ColoringOutcome) -> bool,
        job: impl Fn(usize, usize, RunContext) -> ColoringReport + Sync,
    ) -> Race {
        let ctx = self.ctx;
        // One absolute deadline, so jobs claimed late still race the same
        // instant; `RunBudget::deadline` takes the earlier of `wall` and
        // `deadline_at`.
        let mut budget = ctx.budget;
        if let Some(deadline) = budget.deadline(self.start) {
            budget.deadline_at = Some(deadline);
            budget.wall = None;
        }
        let stop = ctx
            .cancel
            .as_ref()
            .map_or_else(CancellationToken::new, CancellationToken::child);
        let winner = OnceLock::new();
        let run_job = |idx: usize, worker: usize| {
            // An explicit parent: the worker thread's span stack is empty.
            let job_span = ctx
                .tracer
                .span_under(self.parent, span, fields(idx, worker));
            let job_ctx = RunContext {
                budget,
                cancel: Some(stop.clone()),
                ..ctx.clone()
            };
            let mut report = job(idx, worker, job_ctx);
            if let Some(pm) = &mut report.postmortem {
                pm.member = Some(idx as u64);
            }
            report.trace_onto(&job_span);
            if wins(&report.outcome) && winner.set((idx, self.start.elapsed())).is_ok() {
                stop.cancel();
            }
            let wall_time = job_span.close();
            Job {
                worker,
                report,
                wall_time,
            }
        };

        let (next, run_job) = (&AtomicUsize::new(0), &run_job);
        let mut finished: Vec<(usize, Job)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..self.workers)
                .map(|worker| {
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= jobs {
                                return done;
                            }
                            done.push((idx, run_job(idx, worker)));
                        }
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        finished.sort_unstable_by_key(|&(idx, _)| idx);
        let winner = winner.get().copied();
        Race {
            winner: winner.map(|(idx, _)| idx),
            jobs: finished.into_iter().map(|(_, job)| job).collect(),
            wall_time: winner.map_or_else(|| self.start.elapsed(), |(_, at)| at),
        }
    }
}

//! Benchmark harness: the `satroute bench` suites and the programs that
//! print the paper's structural artifacts.
//!
//! The paper's measured results are suites of `satroute bench run` (see
//! `DESIGN.md`, experiment index); the binaries in `src/bin/` print what
//! the suites do not model:
//!
//! | artifact                     | how to regenerate |
//! |------------------------------|-------------------|
//! | Table 1 — clause sets of log/direct/muldirect | `table1` |
//! | Figure 1 — the four ITE trees for a 13-value domain | `figure1` |
//! | Table 2 — encodings × symmetry on unroutable configs | `satroute bench run --suite paper` |
//! | §6 prose — all encodings on routable configs | `satroute bench run --suite routable` |
//! | §6 prose — 2- and 3-strategy portfolios, clause sharing | `satroute bench run --suite portfolio` |
//! | ablation A1 — formula sizes per encoding | `sizes` |
//! | ablation A3 — greedy router vs SAT | `sequential_vs_sat` |
//! | ablation A6 — ITE tree shapes | `tree_shapes` |
//!
//! The [`suite`] / [`artifact`] / [`compare`](mod@compare) modules implement the
//! regression harness: pinned deterministic suites whose runs are
//! recorded as `BENCH_*.json` baselines, rendered as Table 2-style grids,
//! and diffed/gated against each other (see the crate README, "Benchmark
//! regression harness"). The JSON document model these share lives in
//! [`satroute_obs::json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod compare;
pub mod suite;

pub use artifact::{BenchArtifact, BenchCell, EnvFingerprint, HistogramSummary, WallTime, SCHEMA};
pub use compare::{compare, Comparison, GateOptions, Regression};
pub use suite::{run_suite, SuiteId, SuiteOptions};

/// Unwraps a CLI-argument result, printing `error: <msg>` to stderr and
/// exiting with status 2 on failure — the uniform bad-usage exit of the
/// bench binaries (a user error is not a crash; no backtrace).
pub fn exit_on_cli_error<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

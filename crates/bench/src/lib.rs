//! Benchmark harness: the `satroute bench` suites, their artifacts and
//! their gate.
//!
//! Every measured result of the reproduction, the paper's and the
//! ablations' alike, is a suite of `satroute bench run` (see `DESIGN.md`,
//! experiment index). The crate has no `cargo bench` targets and no
//! programs: every timing and every count comes from a suite.
//!
//! | artifact                     | how to regenerate |
//! |------------------------------|-------------------|
//! | Table 1 — clause sets of log/direct/muldirect | pinned by `satroute_core` unit tests; printed by `satroute encode` on a 2-vertex `.col` |
//! | Figure 1 — the four ITE trees for a 13-value domain | pinned by `satroute_core` unit tests (`ite`, `hier`) |
//! | Table 2 — encodings × symmetry on unroutable configs | `satroute bench run --suite paper` |
//! | §6 prose — all encodings on routable configs | `satroute bench run --suite routable` |
//! | §6 prose — 2- and 3-strategy portfolios | their members' cells of `satroute bench run --suite paper` |
//! | §6 prose — clause sharing | `satroute bench run --suite portfolio` |
//! | ablations A1 (formula sizes), A3 (greedy router vs SAT), A6 (ITE tree shapes) | `satroute bench run --suite ablation` |
//!
//! The [`suite`] / [`artifact`] / [`compare`](mod@compare) modules implement the
//! regression harness: pinned deterministic suites whose runs are
//! recorded as `BENCH_*.json` baselines, rendered as Table 2-style grids,
//! and diffed/gated against each other (see the workspace README,
//! "Benchmark regression harness"). The JSON document model these share
//! lives in [`satroute_obs::json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod compare;
pub mod suite;

pub use artifact::{BenchArtifact, BenchCell, EnvFingerprint, HistogramSummary, WallTime, SCHEMA};
pub use compare::{compare, Comparison, Regression};
pub use suite::{run_suite, SuiteId, SuiteOptions};

//! Search-state samples and the budget postmortems built from them.
//!
//! The CDCL solver takes a [`TimelineSample`] at conflict-interval and
//! restart/reduce/GC/inprocessing/finish boundaries — never per
//! propagation — whenever its tracer is enabled, and writes it onto the
//! solve's span as a `sample` trace event. A sample captures where the
//! search *was*: trail depth, decision level, learnt-database tiers,
//! arena occupancy, the LBD trend and windowed rates.
//!
//! Each solver also keeps its last [`POSTMORTEM_WINDOW`] samples, so a
//! solve that stops on a budget or cancellation reports a [`Postmortem`]:
//! the trailing samples, the terminal learnt/arena state, and the
//! assumptions of the stopped probe.

use crate::json::Value;

/// Which solver boundary produced a [`TimelineSample`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SampleCause {
    /// The fixed conflict-interval heartbeat.
    #[default]
    Conflict,
    /// A restart boundary (backtrack to level 0).
    Restart,
    /// A learnt-database reduction.
    Reduce,
    /// A compacting arena garbage collection.
    Gc,
    /// The final sample taken when a solve returns.
    Finish,
    /// An inprocessing round (vivification / subsumption / BVE).
    Inprocess,
}

impl SampleCause {
    /// The cause's stable lowercase name (used in JSONL artifacts).
    pub fn as_str(self) -> &'static str {
        match self {
            SampleCause::Conflict => "conflict",
            SampleCause::Restart => "restart",
            SampleCause::Reduce => "reduce",
            SampleCause::Gc => "gc",
            SampleCause::Finish => "finish",
            SampleCause::Inprocess => "inprocess",
        }
    }

    /// Parses a cause name produced by [`SampleCause::as_str`].
    pub fn parse(s: &str) -> Option<SampleCause> {
        Some(match s {
            "conflict" => SampleCause::Conflict,
            "restart" => SampleCause::Restart,
            "reduce" => SampleCause::Reduce,
            "gc" => SampleCause::Gc,
            "finish" => SampleCause::Finish,
            "inprocess" => SampleCause::Inprocess,
            _ => return None,
        })
    }
}

impl std::fmt::Display for SampleCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One point-in-time capture of CDCL search state.
///
/// Counters are cumulative (conflicts since the solver was created);
/// rates are windowed over the interval since the previous sample, so a
/// trajectory of samples shows decay without post-processing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimelineSample {
    /// Microseconds since the solve started.
    pub at_us: u64,
    /// The boundary that produced the sample.
    pub cause: SampleCause,
    /// Cumulative conflicts.
    pub conflicts: u64,
    /// Cumulative decisions.
    pub decisions: u64,
    /// Cumulative propagations.
    pub propagations: u64,
    /// Cumulative restarts.
    pub restarts: u64,
    /// Assigned literals on the trail.
    pub trail: u64,
    /// Current decision level.
    pub level: u64,
    /// Live learnt clauses in the core tier (LBD ≤ 3).
    pub tier_core: u64,
    /// Live learnt clauses in the mid tier.
    pub tier_mid: u64,
    /// Live learnt clauses in the local tier.
    pub tier_local: u64,
    /// Bytes held by live clauses in the arena.
    pub arena_live_bytes: u64,
    /// Bytes held by deleted clauses awaiting compaction.
    pub arena_dead_bytes: u64,
    /// Exponential moving average of learnt-clause LBD.
    pub lbd_ema: f64,
    /// Conflicts per second over the window since the previous sample.
    pub conflicts_per_sec: f64,
    /// Propagations per second over the window since the previous sample.
    pub propagations_per_sec: f64,
}

impl TimelineSample {
    /// Live learnt clauses summed over the tiers.
    pub fn learnts(&self) -> u64 {
        self.tier_core + self.tier_mid + self.tier_local
    }

    /// Serializes the sample to a JSON object (the payload of a `sample`
    /// trace event and of postmortem artifacts).
    pub fn to_json(&self) -> Value {
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        Value::object([
            ("at_us", Value::from(self.at_us)),
            ("cause", Value::from(self.cause.as_str())),
            ("conflicts", Value::from(self.conflicts)),
            ("decisions", Value::from(self.decisions)),
            ("propagations", Value::from(self.propagations)),
            ("restarts", Value::from(self.restarts)),
            ("trail", Value::from(self.trail)),
            ("level", Value::from(self.level)),
            ("tier_core", Value::from(self.tier_core)),
            ("tier_mid", Value::from(self.tier_mid)),
            ("tier_local", Value::from(self.tier_local)),
            ("arena_live_bytes", Value::from(self.arena_live_bytes)),
            ("arena_dead_bytes", Value::from(self.arena_dead_bytes)),
            ("lbd_ema", Value::Number(finite(self.lbd_ema))),
            (
                "conflicts_per_sec",
                Value::Number(finite(self.conflicts_per_sec)),
            ),
            (
                "propagations_per_sec",
                Value::Number(finite(self.propagations_per_sec)),
            ),
        ])
    }

    /// Parses a sample from the object produced by
    /// [`TimelineSample::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed key.
    pub fn from_json(v: &Value) -> Result<TimelineSample, String> {
        let u64_key = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("sample needs unsigned integer `{key}`"))
        };
        let f64_key = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("sample needs numeric `{key}`"))
        };
        let cause = v
            .get("cause")
            .and_then(Value::as_str)
            .and_then(SampleCause::parse)
            .ok_or("sample needs a valid `cause`")?;
        Ok(TimelineSample {
            at_us: u64_key("at_us")?,
            cause,
            conflicts: u64_key("conflicts")?,
            decisions: u64_key("decisions")?,
            propagations: u64_key("propagations")?,
            restarts: u64_key("restarts")?,
            trail: u64_key("trail")?,
            level: u64_key("level")?,
            tier_core: u64_key("tier_core")?,
            tier_mid: u64_key("tier_mid")?,
            tier_local: u64_key("tier_local")?,
            arena_live_bytes: u64_key("arena_live_bytes")?,
            arena_dead_bytes: u64_key("arena_dead_bytes")?,
            lbd_ema: f64_key("lbd_ema")?,
            conflicts_per_sec: f64_key("conflicts_per_sec")?,
            propagations_per_sec: f64_key("propagations_per_sec")?,
        })
    }
}

/// How many trailing samples a [`Postmortem`] keeps.
pub const POSTMORTEM_WINDOW: usize = 16;

/// The structured crash-dump of a run that stopped without an answer:
/// what the search looked like when the budget tripped.
///
/// Built from the solver's last samples when a traced solve returns
/// with a stop reason (deadline, conflict limit, cancellation); attached
/// to coloring and member reports and to a stopped pipeline's error, and
/// printed by the CLI.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Postmortem {
    /// The stop reason's stable name (`deadline`, `conflict-limit`,
    /// `cancelled`).
    pub stop_reason: String,
    /// The portfolio member index of the run, when it was one.
    pub member: Option<u64>,
    /// The last [`POSTMORTEM_WINDOW`] samples, oldest first.
    pub samples: Vec<TimelineSample>,
    /// The pipeline phase that dominated wall time, when the caller
    /// knows the breakdown (e.g. `sat_solving`).
    pub hottest_phase: Option<String>,
    /// The stopped solve's assumptions as DIMACS literals, sorted and
    /// deduplicated (so reruns diff cleanly); empty for a solve without
    /// assumptions.
    pub assumptions: Vec<i64>,
}

impl Postmortem {
    /// The terminal sample, if any was recorded.
    pub fn last_sample(&self) -> Option<&TimelineSample> {
        self.samples.last()
    }

    /// Conflict rate over the trailing window (first to last sample),
    /// in conflicts per second; 0 with fewer than two samples.
    pub fn window_conflict_rate(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(first), Some(last)) if last.at_us > first.at_us => {
                let dc = last.conflicts.saturating_sub(first.conflicts) as f64;
                dc / ((last.at_us - first.at_us) as f64 / 1e6)
            }
            _ => 0.0,
        }
    }

    /// Renders the postmortem as human-readable lines (the CLI's
    /// `--progress` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let label = self
            .member
            .map(|m| format!(" (member {m})"))
            .unwrap_or_default();
        out.push_str(&format!(
            "postmortem{label}: stopped: {}\n",
            self.stop_reason
        ));
        if let Some(phase) = &self.hottest_phase {
            out.push_str(&format!("  hottest phase: {phase}\n"));
        }
        if let Some(last) = self.last_sample() {
            out.push_str(&format!(
                "  at +{:.3}s: {} conflicts, {} decisions, {} restarts, trail {} @ level {}\n",
                last.at_us as f64 / 1e6,
                last.conflicts,
                last.decisions,
                last.restarts,
                last.trail,
                last.level,
            ));
            out.push_str(&format!(
                "  learnt DB: {} clauses (core {} / mid {} / local {}), lbd~{:.1}\n",
                last.learnts(),
                last.tier_core,
                last.tier_mid,
                last.tier_local,
                last.lbd_ema,
            ));
            out.push_str(&format!(
                "  arena: {} live / {} dead bytes\n",
                last.arena_live_bytes, last.arena_dead_bytes,
            ));
        }
        out.push_str(&format!(
            "  last-window rate: {:.0} conflicts/s over {} samples\n",
            self.window_conflict_rate(),
            self.samples.len(),
        ));
        if !self.assumptions.is_empty() {
            let lits: Vec<String> = self.assumptions.iter().map(|l| l.to_string()).collect();
            out.push_str(&format!("  assumptions: {}\n", lits.join(" ")));
        }
        out
    }

    /// Renders the postmortem as a JSON document.
    pub fn to_json(&self) -> Value {
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        Value::object([
            ("stop_reason", Value::string(self.stop_reason.clone())),
            (
                "member",
                self.member.map(Value::from).unwrap_or(Value::Null),
            ),
            (
                "window_conflict_rate",
                Value::Number(finite(self.window_conflict_rate())),
            ),
            (
                "hottest_phase",
                self.hottest_phase
                    .as_ref()
                    .map(|s| Value::string(s.clone()))
                    .unwrap_or(Value::Null),
            ),
            (
                "assumptions",
                Value::array(self.assumptions.iter().map(|l| Value::Number(*l as f64))),
            ),
            (
                "samples",
                Value::array(self.samples.iter().map(TimelineSample::to_json)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> TimelineSample {
        TimelineSample {
            at_us: i * 1000,
            cause: SampleCause::Conflict,
            conflicts: i * 10,
            decisions: i * 20,
            propagations: i * 100,
            trail: 5,
            level: 3,
            tier_core: 1,
            tier_mid: 2,
            tier_local: 3,
            arena_live_bytes: 640,
            arena_dead_bytes: 64,
            lbd_ema: 4.5,
            conflicts_per_sec: 10_000.0,
            propagations_per_sec: 1e6,
            ..TimelineSample::default()
        }
    }

    #[test]
    fn samples_survive_encode_decode_and_json_round_trips() {
        for cause in [
            SampleCause::Conflict,
            SampleCause::Restart,
            SampleCause::Reduce,
            SampleCause::Gc,
            SampleCause::Finish,
            SampleCause::Inprocess,
        ] {
            let mut s = sample(7);
            s.cause = cause;
            let parsed = TimelineSample::from_json(&s.to_json()).unwrap();
            assert_eq!(parsed, s);
            // JSON text parses back through the strict parser.
            let text = s.to_json().to_json();
            let reparsed = TimelineSample::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(reparsed, s);
        }
    }

    #[test]
    fn postmortem_summarizes_the_trailing_window() {
        let pm = Postmortem {
            stop_reason: "conflict-limit".into(),
            samples: (25..=40).map(sample).collect(),
            ..Postmortem::default()
        };
        assert_eq!(pm.stop_reason, "conflict-limit");
        assert_eq!(pm.samples.len(), POSTMORTEM_WINDOW);
        assert_eq!(pm.last_sample().unwrap().conflicts, 400);
        // Window: conflicts grow 10 per ms → 10_000/s.
        let rate = pm.window_conflict_rate();
        assert!((rate - 10_000.0).abs() < 1.0, "{rate}");
        let text = pm.render_text();
        assert!(text.contains("stopped: conflict-limit"), "{text}");
        assert!(text.contains("learnt DB"), "{text}");
        crate::json::parse(&pm.to_json().to_json()).unwrap();
    }
}

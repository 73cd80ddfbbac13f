//! The solver flight recorder: fixed-interval search-state samples in a
//! lock-free bounded ring, and the budget postmortems built from them.
//!
//! A [`FlightRecorder`] is threaded through solve requests exactly like
//! [`Tracer`](crate::tracer::Tracer) and
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry): the disabled
//! handle (the `Default`) records nothing and costs one branch per
//! boundary, so call sites attach it unconditionally. The CDCL solver
//! feeds it [`TimelineSample`]s at conflict-interval and
//! restart/reduce/GC boundaries — never per propagation — capturing
//! where the search *was*: trail depth, decision level, learnt-database
//! tiers, arena occupancy, the LBD trend and windowed rates.
//!
//! The ring is bounded and overwrites oldest-first, so a recorder on a
//! runaway solve holds the *recent* history — exactly what a
//! [`Postmortem`] needs when a budget trips: the last K samples, the
//! terminal learnt/arena state, and the failed-assumption set if the
//! stop happened inside an assumption probe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::Value;

/// Which solver boundary produced a [`TimelineSample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SampleCause {
    /// The fixed conflict-interval heartbeat.
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

    fn from_code(code: u64) -> SampleCause {
        match code {
            1 => SampleCause::Restart,
            2 => SampleCause::Reduce,
            3 => SampleCause::Gc,
            4 => SampleCause::Finish,
            5 => SampleCause::Inprocess,
            _ => SampleCause::Conflict,
        }
    }

    fn code(self) -> u64 {
        match self {
            SampleCause::Conflict => 0,
            SampleCause::Restart => 1,
            SampleCause::Reduce => 2,
            SampleCause::Gc => 3,
            SampleCause::Finish => 4,
            SampleCause::Inprocess => 5,
        }
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
    pub cause: SampleCauseField,
    /// Portfolio member or cube index, when the run is labelled.
    pub member: Option<u64>,
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

/// Newtype wrapper so [`TimelineSample`] can derive `Default`
/// (defaulting to [`SampleCause::Conflict`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SampleCauseField(pub SampleCause);

impl Default for SampleCauseField {
    fn default() -> Self {
        SampleCauseField(SampleCause::Conflict)
    }
}

impl From<SampleCause> for SampleCauseField {
    fn from(c: SampleCause) -> Self {
        SampleCauseField(c)
    }
}

impl std::ops::Deref for SampleCauseField {
    type Target = SampleCause;
    fn deref(&self) -> &SampleCause {
        &self.0
    }
}

/// Total live learnt clauses across the three tiers.
impl TimelineSample {
    /// Live learnt clauses summed over the tiers.
    pub fn learnts(&self) -> u64 {
        self.tier_core + self.tier_mid + self.tier_local
    }

    /// Serializes the sample to a JSON object (the payload of a `sample`
    /// trace event and of postmortem artifacts).
    pub fn to_json(&self) -> Value {
        let finite = |x: f64| if x.is_finite() { x } else { 0.0 };
        let mut entries = vec![
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
        ];
        if let Some(m) = self.member {
            entries.push(("member", Value::from(m)));
        }
        Value::object(entries)
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
        let member = match v.get("member") {
            None | Some(Value::Null) => None,
            Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
            Some(other) => return Err(format!("sample has malformed `member`: {other:?}")),
        };
        Ok(TimelineSample {
            at_us: u64_key("at_us")?,
            cause: cause.into(),
            member,
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

    fn encode(&self, index: u64) -> [u64; SLOT_WORDS] {
        [
            index,
            self.at_us,
            self.cause.code() | (self.member.map_or(0, |m| (m << 8) | MEMBER_SET)),
            self.conflicts,
            self.decisions,
            self.propagations,
            self.restarts,
            self.trail,
            self.level,
            self.tier_core,
            self.tier_mid,
            self.tier_local,
            self.arena_live_bytes,
            self.arena_dead_bytes,
            self.lbd_ema.to_bits(),
            self.conflicts_per_sec.to_bits(),
            self.propagations_per_sec.to_bits(),
        ]
    }

    fn decode(words: &[u64; SLOT_WORDS]) -> (u64, TimelineSample) {
        let tag = words[2];
        let sample = TimelineSample {
            at_us: words[1],
            cause: SampleCause::from_code(tag & CAUSE_MASK).into(),
            member: (tag & MEMBER_SET != 0).then_some(tag >> 8),
            conflicts: words[3],
            decisions: words[4],
            propagations: words[5],
            restarts: words[6],
            trail: words[7],
            level: words[8],
            tier_core: words[9],
            tier_mid: words[10],
            tier_local: words[11],
            arena_live_bytes: words[12],
            arena_dead_bytes: words[13],
            lbd_ema: f64::from_bits(words[14]),
            conflicts_per_sec: f64::from_bits(words[15]),
            propagations_per_sec: f64::from_bits(words[16]),
        };
        (words[0], sample)
    }
}

const SLOT_WORDS: usize = 17;
const CAUSE_MASK: u64 = 0x7f;
const MEMBER_SET: u64 = 0x80;

/// One seqlock-protected slot of the ring: an even sequence number means
/// the words are consistent; writers flip it odd for the duration of the
/// store. Every access is an atomic word operation, so the whole ring is
/// safe code with no torn reads possible.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct Ring {
    /// Next global sample index; `index % capacity` picks the slot.
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

/// A lock-free, bounded, overwrite-oldest ring buffer of
/// [`TimelineSample`]s — the solver's flight recorder.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled); the
/// disabled recorder is the `Default`, so call sites thread it
/// unconditionally and pay a single branch when recording is off —
/// the same contract as [`Tracer`](crate::tracer::Tracer) and
/// [`MetricsRegistry`](crate::metrics::MetricsRegistry).
///
/// Clones share one ring. [`FlightRecorder::labelled`] derives a handle
/// that stamps a member/cube id into every sample it records, so a
/// portfolio feeds one ring from many threads and the samples stay
/// attributable. Writers never block: two threads racing for the same
/// slot (one full lap apart) drop the late sample instead of waiting.
///
/// # Examples
///
/// ```
/// use satroute_obs::timeline::{FlightRecorder, SampleCause, TimelineSample};
///
/// let recorder = FlightRecorder::with_capacity(4);
/// for i in 0..6 {
///     recorder.record(&TimelineSample {
///         conflicts: i,
///         cause: SampleCause::Conflict.into(),
///         ..TimelineSample::default()
///     });
/// }
/// let kept: Vec<u64> = recorder.samples().iter().map(|s| s.conflicts).collect();
/// assert_eq!(kept, vec![2, 3, 4, 5]); // bounded: oldest overwritten
/// ```
#[derive(Clone, Default)]
pub struct FlightRecorder {
    ring: Option<Arc<Ring>>,
    label: Option<u64>,
}

/// Default ring capacity: enough for the recent past of a long solve
/// (at the solver's sampling interval this is minutes of history) while
/// staying a few dozen KiB.
pub const DEFAULT_RING_CAPACITY: usize = 256;

impl FlightRecorder {
    /// An enabled recorder with the [default
    /// capacity](DEFAULT_RING_CAPACITY).
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder keeping the most recent `capacity` samples
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Some(Arc::new(Ring {
                cursor: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Slot::empty()).collect(),
            })),
            label: None,
        }
    }

    /// A recorder that records nothing; every operation is one branch.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Whether samples are actually kept.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// A handle on the same ring that stamps `member` (a portfolio
    /// member or cube index) into every sample it records.
    #[must_use]
    pub fn labelled(&self, member: u64) -> FlightRecorder {
        FlightRecorder {
            ring: self.ring.clone(),
            label: Some(member),
        }
    }

    /// The member label this handle stamps, if any.
    pub fn label(&self) -> Option<u64> {
        self.label
    }

    /// The ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.slots.len())
    }

    /// Records one sample, overwriting the oldest when the ring is full.
    /// Lock-free: a writer finding its slot mid-write (a racer one full
    /// lap ahead) drops the sample rather than waiting.
    pub fn record(&self, sample: &TimelineSample) {
        let Some(ring) = &self.ring else { return };
        let mut stamped = *sample;
        if self.label.is_some() {
            stamped.member = self.label;
        }
        let index = ring.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(index % ring.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq % 2 != 0 {
            return; // another writer owns the slot; drop, don't block
        }
        if slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        for (word, value) in slot.words.iter().zip(stamped.encode(index)) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Samples recorded so far, oldest first. Slots being overwritten
    /// concurrently are skipped, never torn.
    pub fn samples(&self) -> Vec<TimelineSample> {
        let Some(ring) = &self.ring else {
            return Vec::new();
        };
        let mut indexed = Vec::with_capacity(ring.slots.len());
        for slot in ring.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 != 0 {
                continue; // never written, or a writer is mid-store
            }
            let mut words = [0u64; SLOT_WORDS];
            for (out, word) in words.iter_mut().zip(slot.words.iter()) {
                *out = word.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // overwritten while reading
            }
            indexed.push(TimelineSample::decode(&words));
        }
        indexed.sort_by_key(|(index, _)| *index);
        indexed.into_iter().map(|(_, sample)| sample).collect()
    }

    /// The most recent `k` samples, oldest of the window first.
    pub fn last(&self, k: usize) -> Vec<TimelineSample> {
        let mut all = self.samples();
        let skip = all.len().saturating_sub(k);
        all.drain(..skip);
        all
    }

    /// Number of samples ever recorded (monotone; may exceed
    /// [`FlightRecorder::capacity`]).
    pub fn recorded(&self) -> u64 {
        self.ring
            .as_ref()
            .map_or(0, |r| r.cursor.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("label", &self.label)
            .finish()
    }
}

/// How many trailing samples a [`Postmortem`] keeps.
pub const POSTMORTEM_WINDOW: usize = 16;

/// The structured crash-dump of a run that stopped without an answer:
/// what the search looked like when the budget tripped.
///
/// Built from a [`FlightRecorder`] when a solve returns with a stop
/// reason (deadline, conflict/decision/memory limit, cancellation);
/// attached to coloring/member/cube reports and printed by the CLI on
/// `--progress` runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Postmortem {
    /// The stop reason's stable name (`deadline`, `conflict-limit`,
    /// `memory-limit`, `decision-limit`, `cancelled`).
    pub stop_reason: String,
    /// Member/cube label of the run, when it had one.
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
    /// Assembles a postmortem from the recorder's trailing window.
    /// Samples not matching the recorder's label (other members sharing
    /// the ring) are filtered out.
    pub fn from_recorder(recorder: &FlightRecorder, stop_reason: impl Into<String>) -> Postmortem {
        let label = recorder.label();
        let mut samples = recorder.samples();
        if label.is_some() {
            samples.retain(|s| s.member == label);
        }
        let skip = samples.len().saturating_sub(POSTMORTEM_WINDOW);
        samples.drain(..skip);
        Postmortem {
            stop_reason: stop_reason.into(),
            member: label,
            samples,
            hottest_phase: None,
            assumptions: Vec::new(),
        }
    }

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
            cause: SampleCause::Conflict.into(),
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
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        assert!(!r.is_enabled());
        r.record(&sample(1));
        assert!(r.samples().is_empty());
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.recorded(), 0);
        // A labelled view of a disabled recorder stays disabled.
        assert!(!r.labelled(3).is_enabled());
    }

    #[test]
    fn ring_keeps_the_most_recent_samples_in_order() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20 {
            r.record(&sample(i));
        }
        let got: Vec<u64> = r.samples().iter().map(|s| s.conflicts / 10).collect();
        assert_eq!(got, (12..20).collect::<Vec<_>>());
        assert_eq!(r.recorded(), 20);
        let tail: Vec<u64> = r.last(3).iter().map(|s| s.conflicts / 10).collect();
        assert_eq!(tail, vec![17, 18, 19]);
    }

    #[test]
    fn labelled_handles_stamp_member_ids_into_a_shared_ring() {
        let r = FlightRecorder::with_capacity(16);
        let a = r.labelled(0);
        let b = r.labelled(1);
        a.record(&sample(1));
        b.record(&sample(2));
        a.record(&sample(3));
        let members: Vec<Option<u64>> = r.samples().iter().map(|s| s.member).collect();
        assert_eq!(members, vec![Some(0), Some(1), Some(0)]);
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
            s.cause = cause.into();
            s.member = Some(42);
            let (idx, decoded) = TimelineSample::decode(&s.encode(9));
            assert_eq!(idx, 9);
            assert_eq!(decoded, s);
            let parsed = TimelineSample::from_json(&s.to_json()).unwrap();
            assert_eq!(parsed, s);
            // JSON text parses back through the strict parser.
            let text = s.to_json().to_json();
            let reparsed = TimelineSample::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(reparsed, s);
        }
    }

    #[test]
    fn concurrent_writers_never_tear_samples() {
        let r = FlightRecorder::with_capacity(32);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let w = r.labelled(t);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        w.record(&sample(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for s in r.samples() {
            // Every field of a sample is internally consistent with the
            // generator above; a torn read would break these relations.
            let i = s.conflicts / 10;
            assert_eq!(s.decisions, i * 20);
            assert_eq!(s.propagations, i * 100);
            assert_eq!(s.at_us, i * 1000);
            assert!(s.member.is_some_and(|m| m < 4));
        }
    }

    #[test]
    fn postmortem_summarizes_the_trailing_window() {
        let r = FlightRecorder::with_capacity(64);
        for i in 1..=40 {
            r.record(&sample(i));
        }
        let pm = Postmortem::from_recorder(&r, "conflict-limit");
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

    #[test]
    fn postmortem_filters_other_members_samples() {
        let r = FlightRecorder::with_capacity(64);
        let a = r.labelled(0);
        let b = r.labelled(1);
        for i in 1..=5 {
            a.record(&sample(i));
            b.record(&sample(100 + i));
        }
        let pm = Postmortem::from_recorder(&a, "deadline");
        assert_eq!(pm.member, Some(0));
        assert!(pm.samples.iter().all(|s| s.member == Some(0)));
        assert_eq!(pm.samples.len(), 5);
    }
}

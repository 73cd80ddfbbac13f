//! Aggregated metrics: counters, gauges and log-bucketed histograms.
//!
//! A [`MetricsRegistry`] is the numeric counterpart of the span
//! [`Tracer`](crate::tracer::Tracer): where a trace records *when* each
//! phase ran, the registry accumulates *how much* — conflicts,
//! propagations, learnt-clause LBDs, per-phase wall times, CNF sizes.
//! Like the tracer it is disabled by default and free to thread through
//! call sites: the handles hand out by a disabled registry are a single
//! `Option` check on the hot path and never allocate.
//!
//! Instruments:
//!
//! * [`Counter`] — monotonic `u64`, relaxed atomic adds.
//! * [`Gauge`] — last-written `f64` (stored as bits in an `AtomicU64`).
//! * [`Histogram`] — fixed log-linear buckets (4 sub-buckets per power
//!   of two, so every bucket is at most 25 % wide) over `u64` samples,
//!   with [`p50`](HistogramSnapshot::p50) / `p90` / `p99` / `max`
//!   estimation. Recording is lock-free: one relaxed add into the
//!   bucket array plus count/sum/max updates.
//!
//! [`MetricsRegistry::snapshot`] produces an immutable
//! [`MetricsSnapshot`]. To isolate one run, give it a registry of its own.
//! Snapshots render to the hand-rolled JSON document model
//! ([`MetricsSnapshot::to_json`]) and to Prometheus-style text
//! exposition ([`MetricsSnapshot::to_prometheus`]).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Value;

// ---------------------------------------------------------------------------
// Log-linear bucketing
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two. With 4, the relative width of any
/// bucket above the exact range is `2^(msb-2) / lower ≤ 1/4`.
const SUBBUCKETS: u64 = 4;

/// Bucket count: index 0 holds the value 0, indices 1–3 are exact
/// values, and `4·(msb-1) + sub` covers `msb ∈ 2..=63`, `sub ∈ 0..4`,
/// for a maximum index of `4·62 + 3 = 251`.
pub const NUM_BUCKETS: usize = 252;

/// Maps a sample to its bucket index.
///
/// Values below 4 map to themselves (exact); larger values map to one
/// of four linear sub-buckets within their power-of-two octave.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        (SUBBUCKETS * (msb - 1) + ((v >> (msb - 2)) & (SUBBUCKETS - 1))) as usize
    }
}

/// The smallest sample value that lands in `idx`.
#[must_use]
pub fn bucket_lower(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        idx
    } else {
        let msb = idx / SUBBUCKETS + 1;
        let sub = idx % SUBBUCKETS;
        (SUBBUCKETS + sub) << (msb - 2)
    }
}

/// The largest sample value that lands in `idx`.
#[must_use]
pub fn bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        idx
    } else {
        let msb = idx / SUBBUCKETS + 1;
        let sub = idx % SUBBUCKETS;
        let lower = (SUBBUCKETS + sub) << (msb - 2);
        lower + ((1u64 << (msb - 2)) - 1)
    }
}

// ---------------------------------------------------------------------------
// Instrument cores
// ---------------------------------------------------------------------------

struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((idx, n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonic counter handle. The default handle is disabled: every
/// operation is a single `Option` check.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one (no-op when disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-written `f64` gauge handle (disabled by default).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge (no-op when disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    #[must_use]
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// A log-bucketed histogram handle (disabled by default).
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample (no-op when disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Whether this handle feeds a live registry.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// An immutable view of the current bucket contents (empty when
    /// disabled).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |core| core.snapshot())
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

/// A registry of named instruments.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled).
/// Registration takes a short-lived lock; the returned handles are
/// lock-free, so resolve them once outside the hot loop.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl MetricsRegistry {
    /// A live registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// The disabled registry: hands out disabled handles, records
    /// nothing, costs one branch per operation.
    #[must_use]
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            let mut map = inner.counters.lock().unwrap();
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Resolves (registering on first use) the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            let mut map = inner.gauges.lock().unwrap();
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Resolves (registering on first use) the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            let mut map = inner.histograms.lock().unwrap();
            Arc::clone(
                map.entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        }))
    }

    /// An immutable view of every registered instrument.
    ///
    /// Instruments written concurrently with the snapshot land in the
    /// snapshot or the next one; each individual instrument reads
    /// atomically enough for reporting (count/sum/buckets may be
    /// momentarily skewed by in-flight records).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, core)| (name.clone(), core.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// An immutable view of one histogram: sparse `(bucket index, count)`
/// pairs plus count/sum/max.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<(usize, u64)>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, not bucketed).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all recorded samples, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`).
    ///
    /// Walks the cumulative bucket counts to the bucket holding the
    /// `⌈q·count⌉`-th smallest sample and reports that bucket's upper
    /// bound (clamped to the observed max) — so the estimate always
    /// falls in the same log-bucket as the exact order statistic,
    /// bounding the relative error at the bucket width (≤ 25 %).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        #[allow(clippy::cast_precision_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Compact JSON summary: count, sum, mean, p50/p90/p99, max.
    #[must_use]
    pub fn summary_json(&self) -> Value {
        Value::object([
            ("count", Value::from(self.count)),
            ("sum", Value::from(self.sum)),
            ("mean", Value::Number(self.mean())),
            ("p50", Value::from(self.p50())),
            ("p90", Value::from(self.p90())),
            ("p99", Value::from(self.p99())),
            ("max", Value::from(self.max)),
        ])
    }
}

/// An immutable view of every instrument in a registry at one moment.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value by name, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram view by name, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing was registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Full JSON document: `{"counters": {..}, "gauges": {..},
    /// "histograms": {name: {count, sum, mean, p50, p90, p99, max}}}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            (
                "counters",
                Value::object(
                    self.counters
                        .iter()
                        .map(|(name, &v)| (name.as_str(), Value::from(v))),
                ),
            ),
            (
                "gauges",
                Value::object(
                    self.gauges
                        .iter()
                        .map(|(name, &v)| (name.as_str(), Value::Number(v))),
                ),
            ),
            (
                "histograms",
                Value::object(
                    self.histograms
                        .iter()
                        .map(|(name, h)| (name.as_str(), h.summary_json())),
                ),
            ),
        ])
    }

    /// Prometheus-style text exposition. Metric names are sanitized to
    /// `[a-zA-Z0-9_]` and prefixed with `satroute_`; histograms emit
    /// cumulative `_bucket{le="…"}` series plus `_sum` and `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 9);
            out.push_str("satroute_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0;
            for &(idx, count) in &h.buckets {
                cumulative += count;
                let le = bucket_upper(idx);
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bucket_scheme_is_a_partition() {
        // Every bucket's bounds round-trip through bucket_index, and
        // consecutive buckets tile the integers without gaps.
        for idx in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(idx)), idx);
            assert_eq!(bucket_index(bucket_upper(idx)), idx);
            if idx + 1 < NUM_BUCKETS {
                assert_eq!(bucket_lower(idx + 1), bucket_upper(idx) + 1);
            }
        }
        // Relative bucket width stays within 25 % above the exact range.
        for idx in SUBBUCKETS as usize..NUM_BUCKETS {
            let lower = bucket_lower(idx);
            let width = bucket_upper(idx) - lower + 1;
            assert!(width * 4 <= lower, "bucket {idx} wider than 25%");
        }
        // Extremes are representable.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let registry = MetricsRegistry::disabled();
        assert!(!registry.is_enabled());
        let c = registry.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = registry.histogram("h");
        h.record(7);
        assert_eq!(h.snapshot().count(), 0);
        assert!(registry.snapshot().is_empty());
        // Default handles are disabled too.
        Counter::default().inc();
        Gauge::default().set(1.0);
        Histogram::default().record(1);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("solver.conflicts");
        c.add(41);
        c.inc();
        // Re-resolving the same name reaches the same cell.
        assert_eq!(registry.counter("solver.conflicts").get(), 42);
        let g = registry.gauge("solver.props_per_sec");
        g.set(1.5e6);
        assert!((registry.gauge("solver.props_per_sec").get() - 1.5e6).abs() < 1e-9);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("solver.conflicts"), Some(42));
        assert_eq!(snap.gauge("solver.props_per_sec"), Some(1.5e6));
    }

    /// Satellite: for 10k sampled values the reported p50/p90/p99 fall
    /// within one log-bucket of the exact order statistics.
    #[test]
    fn quantiles_are_within_one_bucket_of_exact() {
        let mut rng = StdRng::seed_from_u64(0x5eed_ca5e);
        for scale in [10u64, 1_000, 1_000_000, u64::from(u32::MAX)] {
            let registry = MetricsRegistry::new();
            let h = registry.histogram("samples");
            let mut values: Vec<u64> = (0..10_000)
                .map(|_| {
                    // Mix of uniform and heavy-tail draws.
                    let base = rng.gen_range(0..scale);
                    if rng.gen_range(0..10u32) == 0 {
                        base.saturating_mul(17)
                    } else {
                        base
                    }
                })
                .collect();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let snap = h.snapshot();
            for (q, reported) in [(0.50, snap.p50()), (0.90, snap.p90()), (0.99, snap.p99())] {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let rank = ((q * values.len() as f64).ceil() as usize).max(1);
                let exact = values[rank - 1];
                let (got, want) = (bucket_index(reported), bucket_index(exact));
                assert!(
                    got.abs_diff(want) <= 1,
                    "scale {scale} q {q}: reported {reported} (bucket {got}) \
                     vs exact {exact} (bucket {want})"
                );
            }
            assert_eq!(snap.max(), *values.last().unwrap());
        }
    }

    /// Satellite: hammer one histogram from 8 threads, total count must
    /// come out exact.
    #[test]
    fn concurrent_recording_loses_nothing() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 25_000;
        let registry = MetricsRegistry::new();
        let h = registry.histogram("hot");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), THREADS * PER_THREAD);
        let bucket_total: u64 = (0..NUM_BUCKETS)
            .map(|idx| {
                snap.buckets
                    .iter()
                    .find(|&&(i, _)| i == idx)
                    .map_or(0, |&(_, n)| n)
            })
            .sum();
        assert_eq!(bucket_total, THREADS * PER_THREAD);
        assert_eq!(snap.max(), THREADS * PER_THREAD - 1);
        // Sum of 0..N-1.
        assert_eq!(
            snap.sum(),
            (THREADS * PER_THREAD) * (THREADS * PER_THREAD - 1) / 2
        );
    }

    #[test]
    fn json_and_prometheus_exposition() {
        let registry = MetricsRegistry::new();
        registry.counter("solver.conflicts").add(3);
        registry.gauge("solver.props_per_sec").set(2.0);
        let h = registry.histogram("solver.lbd");
        h.record(2);
        h.record(5);
        let snap = registry.snapshot();

        let json = snap.to_json();
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("solver.conflicts"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
        let hist = json
            .get("histograms")
            .and_then(|h| h.get("solver.lbd"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Value::as_f64), Some(2.0));
        // Round-trips through the parser.
        let reparsed = crate::json::parse(&json.to_json()).unwrap();
        assert_eq!(
            reparsed
                .get("histograms")
                .and_then(|h| h.get("solver.lbd"))
                .and_then(|h| h.get("max"))
                .and_then(Value::as_f64),
            Some(5.0)
        );

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE satroute_solver_conflicts counter"));
        assert!(text.contains("satroute_solver_conflicts 3"));
        assert!(text.contains("# TYPE satroute_solver_lbd histogram"));
        assert!(text.contains("satroute_solver_lbd_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("satroute_solver_lbd_sum 7"));
    }
}

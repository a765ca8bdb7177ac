//! Process-wide runtime metrics: a lock-cheap registry of named counters,
//! gauges, and log2-bucketed histograms (see DESIGN.md §12).
//!
//! The trace layer (`sb-trace`) answers *algorithmic* questions — rounds,
//! settled counts, per-phase work — for one run with a sink threaded
//! through it. This crate answers *operational* questions — cache hit
//! rates, worker-pool utilization, arena reuse, phase latency percentiles —
//! for the whole process, with no plumbing: instrumented code grabs a
//! handle from the [`global`] registry once and bumps an atomic thereafter.
//!
//! Design rules:
//!
//! * **Registration locks, increments don't.** The registry is a mutexed
//!   `BTreeMap` touched only when a series is first created and when a
//!   snapshot is taken. Handles are `Arc`-shared atomics; `inc`/`add`/
//!   `observe` are relaxed atomic ops.
//! * **Names are `sb_<crate>_<name>`** (Prometheus-style), with optional
//!   `{label="value"}` dimensions. The `BTreeMap` keying makes every
//!   snapshot deterministically ordered.
//! * **Every series declares a [`Class`].** `Logical` series count events
//!   fixed by the algorithm (cache hits, arena reuses, compaction items):
//!   they must be identical at 1 and N threads, and the CLI's determinism
//!   test pins exactly that. `Runtime` series (durations, pieces claimed,
//!   idle time) legitimately vary with parallelism and are excluded from
//!   that comparison.
//!
//! Histograms reuse the `settled_bucket` idiom from
//! `sb_trace::summary`: bucket 0 counts zero observations, bucket `i`
//! counts values in `[2^(i-1), 2^i)`, clamped to the last bucket.

mod json;
mod snapshot;

pub use json::{escape as escape_json, parse as parse_json_value, JsonValue, MAX_SAFE_JSON_INT};
pub use snapshot::{HistogramSnapshot, Series, SeriesValue, Snapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets in a [`Histogram`]. Bucket 0 counts zero-valued
/// observations; bucket `i` counts values in `[2^(i-1), 2^i)`; the last
/// bucket absorbs everything from `2^(BUCKETS-2)` up. 32 buckets cover the
/// microsecond durations and byte counts the runtime records (up to ~2^30)
/// without saturating.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Bucket index for an observation: 0 for zero, else `floor(log2(v)) + 1`,
/// clamped to the last bucket — the same law as the trace layer's
/// settled-per-round histogram.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`None` for the open last bucket),
/// used for Prometheus `le` labels.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i == 0 {
        Some(0)
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// Whether a series is invariant under thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Determined by the algorithm alone: identical at 1 and N threads.
    Logical,
    /// Scheduling- or wall-clock-dependent: excluded from determinism
    /// comparisons.
    Runtime,
}

impl Class {
    /// Stable lower-case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Logical => "logical",
            Class::Runtime => "runtime",
        }
    }

    /// Inverse of [`Class::as_str`].
    pub fn parse(s: &str) -> Option<Class> {
        match s {
            "logical" => Some(Class::Logical),
            "runtime" => Some(Class::Runtime),
            _ => None,
        }
    }
}

/// Monotonically increasing event count.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (entries live, bytes held).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the level by one (a connection opened, a request queued).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lower the level by one (saturating at zero).
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Lower the level by `n` (saturating at zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// Log2-bucketed distribution of non-negative observations.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-data snapshot of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    class: Class,
    instrument: Instrument,
}

/// One series identity: family name plus sorted label pairs.
type SeriesKey = (String, Vec<(String, String)>);

/// A set of named metric series. Most code uses the process-wide
/// [`global`] registry; tests build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, Slot>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn slot(&self, name: &str, labels: &[(&str, &str)], class: Class, make: Instrument) -> Slot {
        let key = key(name, labels);
        let mut map = self.series.lock().unwrap();
        let slot = map.entry(key).or_insert_with(|| Slot {
            class,
            instrument: make.clone(),
        });
        assert_eq!(
            slot.instrument.kind(),
            make.kind(),
            "metric {name} re-registered as a different kind"
        );
        slot.clone()
    }

    /// Get or create the counter `name` (no labels).
    pub fn counter(&self, name: &str, class: Class) -> Counter {
        self.counter_with(name, &[], class)
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], class: Class) -> Counter {
        let slot = self.slot(
            name,
            labels,
            class,
            Instrument::Counter(Arc::new(AtomicU64::new(0))),
        );
        match slot.instrument {
            Instrument::Counter(c) => Counter(c),
            _ => unreachable!("slot() checks the kind"),
        }
    }

    /// Get or create the gauge `name` (no labels).
    pub fn gauge(&self, name: &str, class: Class) -> Gauge {
        self.gauge_with(name, &[], class)
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], class: Class) -> Gauge {
        let slot = self.slot(
            name,
            labels,
            class,
            Instrument::Gauge(Arc::new(AtomicU64::new(0))),
        );
        match slot.instrument {
            Instrument::Gauge(g) => Gauge(g),
            _ => unreachable!("slot() checks the kind"),
        }
    }

    /// Get or create the histogram `name` (no labels).
    pub fn histogram(&self, name: &str, class: Class) -> Histogram {
        self.histogram_with(name, &[], class)
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], class: Class) -> Histogram {
        let slot = self.slot(
            name,
            labels,
            class,
            Instrument::Histogram(Arc::new(HistogramCore::default())),
        );
        match slot.instrument {
            Instrument::Histogram(h) => Histogram(h),
            _ => unreachable!("slot() checks the kind"),
        }
    }

    /// Point-in-time copy of every series, deterministically ordered by
    /// (name, labels).
    pub fn snapshot(&self) -> Snapshot {
        let map = self.series.lock().unwrap();
        Snapshot {
            series: map
                .iter()
                .map(|((name, labels), slot)| Series {
                    name: name.clone(),
                    labels: labels.clone(),
                    class: slot.class,
                    value: match &slot.instrument {
                        Instrument::Counter(c) => SeriesValue::Counter(c.load(Ordering::Relaxed)),
                        Instrument::Gauge(g) => SeriesValue::Gauge(g.load(Ordering::Relaxed)),
                        Instrument::Histogram(h) => {
                            SeriesValue::Histogram(Histogram(Arc::clone(h)).snapshot())
                        }
                    },
                })
                .collect(),
        }
    }

    /// Zero every registered series in place (handles stay valid). Test
    /// hook: lets one process measure several runs independently.
    pub fn reset(&self) {
        let map = self.series.lock().unwrap();
        for slot in map.values() {
            match &slot.instrument {
                Instrument::Counter(c) | Instrument::Gauge(c) => c.store(0, Ordering::Relaxed),
                Instrument::Histogram(h) => {
                    for b in &h.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.sum.store(0, Ordering::Relaxed);
                    h.count.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The process-wide registry every instrumented layer reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let r = Registry::new();
        let a = r.counter("sb_test_events", Class::Logical);
        let b = r.counter("sb_test_events", Class::Logical);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn labeled_series_are_distinct_and_label_order_is_canonical() {
        let r = Registry::new();
        let x = r.counter_with(
            "sb_test_phase",
            &[("phase", "a"), ("mode", "m")],
            Class::Runtime,
        );
        let y = r.counter_with(
            "sb_test_phase",
            &[("mode", "m"), ("phase", "a")],
            Class::Runtime,
        );
        let z = r.counter_with(
            "sb_test_phase",
            &[("phase", "b"), ("mode", "m")],
            Class::Runtime,
        );
        x.inc();
        assert_eq!(y.get(), 1, "label order must not split a series");
        assert_eq!(z.get(), 0);
    }

    #[test]
    fn gauge_set_add_sub() {
        let r = Registry::new();
        let g = r.gauge("sb_test_level", Class::Runtime);
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauges saturate at zero");
    }

    #[test]
    fn histogram_buckets_follow_log2_law() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), Some(0));
        assert_eq!(bucket_upper_bound(1), Some(1));
        assert_eq!(bucket_upper_bound(2), Some(3));
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);

        let r = Registry::new();
        let h = r.histogram("sb_test_latency_us", Class::Runtime);
        for v in [0, 1, 3, 100] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 104);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[bucket_index(100)], 1);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let r = Registry::new();
        r.counter("sb_z_last", Class::Logical).inc();
        r.counter("sb_a_first", Class::Logical).inc();
        r.counter_with("sb_m_mid", &[("k", "b")], Class::Logical)
            .inc();
        r.counter_with("sb_m_mid", &[("k", "a")], Class::Logical)
            .inc();
        let names: Vec<String> = r.snapshot().series.iter().map(|s| s.key_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names[0], "sb_a_first");
    }

    #[test]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("sb_test_dual", Class::Logical);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.gauge("sb_test_dual", Class::Logical)
        }));
        assert!(got.is_err());
    }

    #[test]
    fn reset_zeroes_without_invalidating_handles() {
        let r = Registry::new();
        let c = r.counter("sb_test_reset", Class::Logical);
        let h = r.histogram("sb_test_reset_hist", Class::Runtime);
        c.add(7);
        h.observe(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("sb_metrics_selftest_total", Class::Runtime);
        let before = c.get();
        global()
            .counter("sb_metrics_selftest_total", Class::Runtime)
            .inc();
        assert_eq!(c.get(), before + 1);
    }
}

//! Instrumentation shared by every algorithm in the study.
//!
//! The paper's explanations are couched in *rounds* and *work* ("GM requires
//! on the order of 14,000 iterations… MM-Rand finds the remaining matches in
//! another 400"). Wall-clock alone cannot confirm those claims on different
//! hardware, so every solver in this repository reports a [`Counters`] block
//! alongside its result, and the bench harness prints both.
//!
//! A [`Counters`] block can additionally carry an `sb-trace` sink. When it
//! does, solvers emit *phase spans* (via [`Counters::phase`]) and *round
//! records* (via [`Counters::round_scope`] / [`Counters::finish_round`])
//! into the sink as they run; when it does not — the default — those same
//! calls cost one branch on an `Option` and nothing else.

use sb_trace::{CounterDelta, SpanId, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cheap, thread-safe event counters for one algorithm invocation.
#[derive(Debug, Default)]
pub struct Counters {
    /// Outer synchronous rounds (iterations of the algorithm's main loop).
    rounds: AtomicU64,
    /// Flat data-parallel kernel launches (BSP executor increments this).
    kernel_launches: AtomicU64,
    /// Total elements processed across all kernels / parallel loops.
    work_items: AtomicU64,
    /// Edge relaxations / neighbor scans performed.
    edges_scanned: AtomicU64,
    /// Optional trace sink. `None` (the default) keeps every trace call a
    /// single branch; solvers never pay for observability they didn't ask
    /// for.
    trace: Option<Arc<TraceSink>>,
}

impl Counters {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh counters that report phase spans and round records into
    /// `sink`. A disabled sink is dropped here so the hot path stays
    /// identical to [`Counters::new`].
    pub fn with_trace(sink: Arc<TraceSink>) -> Self {
        Counters {
            trace: sink.is_enabled().then_some(sink),
            ..Default::default()
        }
    }

    /// The attached trace sink, if any (always enabled when present).
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// Whether trace events are being recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Open a phase span named `name` (`decompose`, `induced-solve`, …).
    ///
    /// The returned guard closes the span on drop, attributing to it the
    /// counter movement that happened while it was open. With no sink
    /// attached this constructs a no-op guard.
    pub fn phase(&self, name: &'static str) -> PhaseGuard<'_> {
        let open = self
            .trace
            .as_ref()
            .and_then(|sink| sink.begin_span(name))
            .map(|id| (id, self.snapshot()));
        PhaseGuard {
            counters: self,
            open,
            name,
            start: Instant::now(),
        }
    }

    /// Begin observing one synchronous round over `active` work items.
    ///
    /// Pair with [`Counters::finish_round`]. Does *not* bump the round
    /// counter — solvers keep their existing `add_rounds(1)` calls. With no
    /// sink attached this returns an inert scope and costs one branch.
    #[inline]
    pub fn round_scope(&self, active: u64) -> RoundScope {
        RoundScope {
            open: self.trace.is_some().then(|| RoundScopeInner {
                start: Instant::now(),
                at_open: self.snapshot(),
                active,
            }),
        }
    }

    /// Close a round scope, emitting one round record. `settled` is only
    /// invoked when tracing is live, so callers may put real counting work
    /// in it without taxing untraced runs.
    pub fn finish_round(&self, scope: RoundScope, settled: impl FnOnce() -> u64) {
        self.finish_round_flagged(scope, false, settled);
    }

    /// [`Counters::finish_round`] with an explicit `vacuous` marker: pass
    /// `true` for a termination-check round that settled nothing by
    /// construction (e.g. a dense sweep that only observed emptiness), so
    /// trace consumers can compare *productive* round counts across
    /// frontier modes (`sb_trace::productive_rounds_per_phase`).
    pub fn finish_round_flagged(
        &self,
        scope: RoundScope,
        vacuous: bool,
        settled: impl FnOnce() -> u64,
    ) {
        let Some(inner) = scope.open else {
            return;
        };
        let sink = self
            .trace
            .as_ref()
            .expect("round scope opened without a sink");
        let now = self.snapshot();
        sink.record_round(
            inner.active,
            settled(),
            now.edges_scanned
                .saturating_sub(inner.at_open.edges_scanned),
            now.work_items.saturating_sub(inner.at_open.work_items),
            inner.start.elapsed().as_micros() as u64,
            vacuous,
        );
    }

    /// Record `k` completed rounds (usually `k = 1`).
    ///
    /// Every round loop counts its rounds here, so this is also where a
    /// stopped job stops: inside [`crate::stop::run_stoppable`] it first
    /// runs [`crate::stop::check`], and the rounds are not counted if the
    /// job stops.
    #[inline]
    pub fn add_rounds(&self, k: u64) {
        crate::stop::check();
        self.rounds.fetch_add(k, Ordering::Relaxed);
    }

    /// Record a kernel launch over `n` items.
    #[inline]
    pub fn add_kernel(&self, n: u64) {
        self.kernel_launches.fetch_add(1, Ordering::Relaxed);
        self.work_items.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` processed work items outside a kernel launch.
    #[inline]
    pub fn add_work(&self, n: u64) {
        self.work_items.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` scanned edges.
    #[inline]
    pub fn add_edges(&self, n: u64) {
        self.edges_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Kernel launches.
    pub fn kernel_launches(&self) -> u64 {
        self.kernel_launches.load(Ordering::Relaxed)
    }

    /// Total work items.
    pub fn work_items(&self) -> u64 {
        self.work_items.load(Ordering::Relaxed)
    }

    /// Total scanned edges.
    pub fn edges_scanned(&self) -> u64 {
        self.edges_scanned.load(Ordering::Relaxed)
    }

    /// Fold another counter block into this one (e.g. a subphase).
    pub fn merge(&self, other: &Counters) {
        self.rounds.fetch_add(other.rounds(), Ordering::Relaxed);
        self.kernel_launches
            .fetch_add(other.kernel_launches(), Ordering::Relaxed);
        self.work_items
            .fetch_add(other.work_items(), Ordering::Relaxed);
        self.edges_scanned
            .fetch_add(other.edges_scanned(), Ordering::Relaxed);
    }

    /// Snapshot as a plain struct for reporting.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            rounds: self.rounds(),
            kernel_launches: self.kernel_launches(),
            work_items: self.work_items(),
            edges_scanned: self.edges_scanned(),
        }
    }
}

/// Open phase span: created by [`Counters::phase`], closes on drop.
///
/// On close it attributes to the span the difference between the counters
/// now and when the span was opened, so nested spans (which share the same
/// `Counters`) each see their own inclusive delta.
#[must_use = "a phase guard records its span when dropped"]
pub struct PhaseGuard<'a> {
    counters: &'a Counters,
    open: Option<(SpanId, CounterSnapshot)>,
    name: &'static str,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        // Unlike the trace span, the latency histogram is fed on every
        // run: phases are coarse (a handful per solve), so one registry
        // lookup plus three relaxed atomics per phase is noise, and it
        // means `--metrics` reports percentiles without `--trace`.
        sb_metrics::global()
            .histogram_with(
                "sb_par_phase_duration_us",
                &[("phase", self.name)],
                sb_metrics::Class::Runtime,
            )
            .observe(self.start.elapsed().as_micros() as u64);
        if let Some((id, at_open)) = self.open.take() {
            let sink = self
                .counters
                .trace
                .as_ref()
                .expect("phase guard opened without a sink");
            let now = self.counters.snapshot();
            sink.end_span(id, now.delta_since(&at_open));
        }
    }
}

/// In-flight round observation; see [`Counters::round_scope`].
#[must_use = "pass the scope to Counters::finish_round to record the round"]
pub struct RoundScope {
    open: Option<RoundScopeInner>,
}

struct RoundScopeInner {
    start: Instant,
    at_open: CounterSnapshot,
    active: u64,
}

/// Plain-old-data snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Outer synchronous rounds.
    pub rounds: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Total work items.
    pub work_items: u64,
    /// Scanned edges.
    pub edges_scanned: u64,
}

impl CounterSnapshot {
    /// Counter movement since `earlier`, as a trace delta.
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterDelta {
        CounterDelta {
            rounds: self.rounds.saturating_sub(earlier.rounds),
            kernel_launches: self.kernel_launches.saturating_sub(earlier.kernel_launches),
            work_items: self.work_items.saturating_sub(earlier.work_items),
            edges_scanned: self.edges_scanned.saturating_sub(earlier.edges_scanned),
        }
    }

    /// This snapshot as a trace delta (movement since zero).
    pub fn as_delta(&self) -> CounterDelta {
        self.delta_since(&CounterSnapshot::default())
    }
}

/// A linear cost model turning counters into device time for the GPU-sim
/// substitute (see DESIGN.md §2).
///
/// The host CPU cannot reproduce one decisive property of the K40c: the
/// ~30× gap between *streamed* (coalesced) and *gathered* (random) memory
/// traffic, which is what makes neighbor-chasing solvers expensive relative
/// to the decompositions' streaming passes on real GPUs. The model charges
/// each counter class its K40c-derived unit cost:
///
/// * `per_launch` — kernel launch latency (~8 µs on Kepler);
/// * `per_stream_item` — one coalesced 8-byte item at ~288 GB/s (~0.028 ns);
/// * `per_gather` — one dependent random read at an effective ~10 GB/s
///   random-access bandwidth (~0.8 ns).
///
/// Every solver and decomposition accounts its traffic in these classes
/// (`work_items` = streamed, `edges_scanned` = gathered), so
/// [`GpuCostModel::modeled_ms`] is a deterministic function of the
/// algorithm's communication structure — the quantity the paper's GPU
/// comparisons actually measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCostModel {
    /// Kernel launch latency in microseconds.
    pub per_launch_us: f64,
    /// Cost per streamed (coalesced) item in nanoseconds.
    pub per_stream_ns: f64,
    /// Cost per gathered (random) read in nanoseconds.
    pub per_gather_ns: f64,
}

impl Default for GpuCostModel {
    fn default() -> Self {
        Self::K40C
    }
}

impl GpuCostModel {
    /// Constants derived from the NVidia Tesla K40c datasheet (288 GB/s
    /// peak bandwidth, Kepler launch latency) and published random-access
    /// bandwidth measurements for Kepler-class parts.
    pub const K40C: GpuCostModel = GpuCostModel {
        per_launch_us: 8.0,
        per_stream_ns: 0.028,
        per_gather_ns: 0.8,
    };

    /// Modeled device milliseconds for a counter snapshot.
    pub fn modeled_ms(&self, s: &CounterSnapshot) -> f64 {
        (s.kernel_launches as f64 * self.per_launch_us) * 1e-3
            + (s.work_items as f64 * self.per_stream_ns) * 1e-6
            + (s.edges_scanned as f64 * self.per_gather_ns) * 1e-6
    }
}

/// Wall-clock stopwatch used by the bench harness.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed milliseconds as `f64`.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.add_rounds(2);
        c.add_kernel(100);
        c.add_kernel(50);
        c.add_work(5);
        c.add_edges(9);
        let s = c.snapshot();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.kernel_launches, 2);
        assert_eq!(s.work_items, 155);
        assert_eq!(s.edges_scanned, 9);
    }

    #[test]
    fn counters_merge() {
        let a = Counters::new();
        let b = Counters::new();
        a.add_rounds(1);
        b.add_rounds(3);
        b.add_edges(7);
        a.merge(&b);
        assert_eq!(a.rounds(), 4);
        assert_eq!(a.edges_scanned(), 7);
    }

    #[test]
    fn counters_parallel_increments() {
        use rayon::prelude::*;
        let c = Counters::new();
        (0..1000).into_par_iter().for_each(|_| c.add_rounds(1));
        assert_eq!(c.rounds(), 1000);
    }

    #[test]
    fn gpu_model_is_linear_in_counters() {
        let m = GpuCostModel::K40C;
        let s1 = CounterSnapshot {
            rounds: 1,
            kernel_launches: 10,
            work_items: 1_000_000,
            edges_scanned: 1_000_000,
        };
        let s2 = CounterSnapshot {
            rounds: 2,
            kernel_launches: 20,
            work_items: 2_000_000,
            edges_scanned: 2_000_000,
        };
        assert!((m.modeled_ms(&s2) - 2.0 * m.modeled_ms(&s1)).abs() < 1e-9);
        // Gathers dominate streams by the coalescing gap.
        let gathers = CounterSnapshot {
            edges_scanned: 1_000_000,
            ..Default::default()
        };
        let streams = CounterSnapshot {
            work_items: 1_000_000,
            ..Default::default()
        };
        assert!(m.modeled_ms(&gathers) > 10.0 * m.modeled_ms(&streams));
    }

    #[test]
    fn untraced_counters_have_inert_guards() {
        let c = Counters::new();
        assert!(!c.tracing());
        {
            let _phase = c.phase("solve");
            let scope = c.round_scope(10);
            c.add_rounds(1);
            // The settled closure must not run when tracing is off.
            c.finish_round(scope, || panic!("settled computed without a sink"));
        }
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn traced_counters_emit_spans_and_rounds() {
        use sb_trace::{total_delta, TraceEvent, TraceSink};
        use std::sync::Arc;

        let sink = Arc::new(TraceSink::enabled());
        let c = Counters::with_trace(sink.clone());
        assert!(c.tracing());
        {
            let _solve = c.phase("solve");
            for round in 0..3u64 {
                let scope = c.round_scope(100 - round);
                c.add_rounds(1);
                c.add_work(10);
                c.add_edges(7);
                c.finish_round(scope, || 5);
            }
        }
        let events = sink.events();
        let rounds: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Round { record, .. } => Some(*record),
                _ => None,
            })
            .collect();
        assert_eq!(rounds.len(), 3);
        // Indices assigned by the sink: contiguous from zero.
        assert_eq!(
            rounds.iter().map(|r| r.round).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Each round saw exactly its own counter movement.
        assert!(rounds.iter().all(|r| r.edges_scanned == 7));
        assert!(rounds.iter().all(|r| r.work_items == 10));
        assert!(rounds.iter().all(|r| r.settled == 5));
        // The span delta equals the final snapshot.
        assert_eq!(total_delta(&events), c.snapshot().as_delta());
    }

    #[test]
    fn disabled_sink_degrades_to_untraced() {
        use sb_trace::TraceSink;
        use std::sync::Arc;

        let c = Counters::with_trace(Arc::new(TraceSink::disabled()));
        assert!(!c.tracing());
        let _phase = c.phase("solve");
        let scope = c.round_scope(1);
        c.finish_round(scope, || unreachable!());
    }

    #[test]
    fn stopwatch_monotone() {
        let w = Stopwatch::start();
        let a = w.elapsed();
        let b = w.elapsed();
        assert!(b >= a);
        assert!(w.elapsed_ms() >= 0.0);
    }
}

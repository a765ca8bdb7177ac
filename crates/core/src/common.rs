//! Shared run configuration and reporting types.

use sb_graph::csr::Graph;
use sb_par::counters::{CounterSnapshot, Counters, Stopwatch};
use sb_par::frontier::{Scratch, ScratchStats};
use sb_trace::{TraceSink, TraceSummary};
use std::sync::Arc;
use std::time::Duration;

/// Which execution model a composite algorithm targets.
///
/// The paper evaluates every algorithm on a 20-core Xeon and a K40c GPU.
/// Here `Cpu` selects the CPU algorithm family (GM / VB / worklist Luby) on
/// the rayon pool, and `GpuSim` selects the GPU family (LMAX / EB / flat
/// Luby) expressed as bulk-synchronous kernels on `sb_par::bsp::BspExecutor`
/// — the documented K40c substitute (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Multicore-CPU algorithm family.
    Cpu,
    /// GPU-sim (bulk-synchronous kernel) algorithm family.
    GpuSim,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arch::Cpu => write!(f, "cpu"),
            Arch::GpuSim => write!(f, "gpu"),
        }
    }
}

/// How a solver's synchronous round loop tracks its live set.
///
/// `Dense` is the paper-faithful formulation: every round sweeps the full
/// participant list fixed at entry, skipping decided vertices with an O(1)
/// status check. `Compact` keeps the live set as a flat worklist compacted
/// between rounds (`sb_par::frontier`), borrows its per-call working arrays
/// from a scratch arena, and — on the GPU-sim pipeline — runs masked solves
/// directly against the zero-copy `EdgeView` instead of materializing an
/// induced CSR. Both modes produce valid solutions; for GM / LMAX / Luby /
/// VB the outputs are byte-identical across the two (pinned by
/// `tests/frontier.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrontierMode {
    /// Full-sweep rounds over a participant list fixed at entry.
    Dense,
    /// Worklist compaction between rounds + scratch-arena buffer reuse.
    #[default]
    Compact,
}

impl std::fmt::Display for FrontierMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontierMode::Dense => write!(f, "dense"),
            FrontierMode::Compact => write!(f, "compact"),
        }
    }
}

impl std::str::FromStr for FrontierMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(FrontierMode::Dense),
            "compact" => Ok(FrontierMode::Compact),
            other => Err(format!(
                "frontier mode must be dense or compact, got '{other}'"
            )),
        }
    }
}

/// Per-run options shared by every solver entry point.
#[derive(Debug, Clone, Default)]
pub struct SolveOpts {
    /// Trace sink for phase spans and round records (`None` = untraced).
    pub trace: Option<Arc<TraceSink>>,
    /// Live-set strategy for every round loop in the run.
    pub frontier: FrontierMode,
}

impl SolveOpts {
    /// Options for an untraced run in the given mode.
    pub fn with_mode(frontier: FrontierMode) -> SolveOpts {
        SolveOpts {
            trace: None,
            frontier,
        }
    }

    /// A fresh counter block for one run: reporting into the options'
    /// trace sink when tracing was requested, plain otherwise.
    pub fn counters(&self) -> Counters {
        match &self.trace {
            Some(sink) => Counters::with_trace(sink.clone()),
            None => Counters::new(),
        }
    }
}

/// One composite run in flight: what every phase of it shares — the
/// input, architecture, seed and frontier mode, the run's counter block
/// and scratch arena — plus the decomposition time already spent (zero
/// when the decomposition was supplied) and the solve clock.
pub(crate) struct RunCtx<'a> {
    pub g: &'a Graph,
    pub arch: Arch,
    pub seed: u64,
    pub mode: FrontierMode,
    pub counters: &'a Counters,
    pub scratch: Scratch,
    decompose_time: Duration,
    clock: Stopwatch,
}

impl<'a> RunCtx<'a> {
    /// Start the solve phases of a run (the solve clock starts here).
    pub fn new(
        g: &'a Graph,
        arch: Arch,
        seed: u64,
        mode: FrontierMode,
        counters: &'a Counters,
        decompose_time: Duration,
    ) -> RunCtx<'a> {
        RunCtx {
            g,
            arch,
            seed,
            mode,
            counters,
            scratch: Scratch::new(),
            decompose_time,
            clock: Stopwatch::start(),
        }
    }

    /// The finished run's stats, solve time measured since [`RunCtx::new`].
    pub fn finish(self) -> RunStats {
        let solve_time = self.clock.elapsed();
        RunStats {
            scratch: self.scratch.stats(),
            ..RunStats::from_counters(self.decompose_time, solve_time, self.counters)
        }
    }
}

/// Timing and work breakdown of one solver run, reported next to every
/// result so benches can separate decomposition cost from solve cost —
/// the distinction Figures 2–5 of the paper turn on.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Time spent decomposing the input (zero for baselines).
    pub decompose_time: Duration,
    /// Time spent in the solver phases.
    pub solve_time: Duration,
    /// Work counters accumulated across decomposition and solving.
    pub counters: CounterSnapshot,
    /// Round-convergence digest, present when the run was traced (see
    /// `sb_trace`): rounds to converge, round-time percentiles, and
    /// settled-per-round histogram.
    pub trace: Option<TraceSummary>,
    /// Scratch-arena allocation behavior of the run (fresh allocations vs
    /// pool reuses) — zeroed for runs without an arena (repairs).
    pub scratch: ScratchStats,
}

impl RunStats {
    /// Assemble the stats of a finished run from its counter block,
    /// attaching the trace digest when the run was traced.
    pub fn from_counters(
        decompose_time: Duration,
        solve_time: Duration,
        counters: &Counters,
    ) -> RunStats {
        RunStats {
            decompose_time,
            solve_time,
            counters: counters.snapshot(),
            trace: counters.trace_sink().and_then(|s| s.summary()),
            scratch: ScratchStats::default(),
        }
    }

    /// Total wall-clock time.
    pub fn total_time(&self) -> Duration {
        self.decompose_time + self.solve_time
    }

    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_time().as_secs_f64() * 1e3
    }

    /// Modeled K40c device time for this run's counters (see
    /// `sb_par::counters::GpuCostModel`). This is the figure reported for
    /// `Arch::GpuSim` runs: host wall-clock cannot express the
    /// coalesced-vs-gather bandwidth gap that governs real GPU graph codes,
    /// but the counters record exactly the traffic in each class.
    pub fn modeled_gpu_ms(&self) -> f64 {
        sb_par::counters::GpuCostModel::K40C.modeled_ms(&self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_display() {
        assert_eq!(Arch::Cpu.to_string(), "cpu");
        assert_eq!(Arch::GpuSim.to_string(), "gpu");
    }

    #[test]
    fn runstats_total() {
        let s = RunStats {
            decompose_time: Duration::from_millis(3),
            solve_time: Duration::from_millis(7),
            counters: CounterSnapshot::default(),
            trace: None,
            scratch: ScratchStats::default(),
        };
        assert_eq!(s.total_time(), Duration::from_millis(10));
        assert!((s.total_ms() - 10.0).abs() < 1e-9);
    }
}

//! Maximal independent set (Section V of the paper).
//!
//! Baselines: [`luby`] (Algorithm LubyMIS — fresh random priorities each
//! round; worklist form for the CPU, flat-kernel form for the GPU-sim
//! executor) and [`greedy`] (the Blelloch et al. parallelized greedy with
//! static priorities, kept as an ablation).
//!
//! [`oriented`] implements the bounded-degree MIS used by MIS-Deg2 on the
//! degree-≤2 subgraph: deterministic Cole–Vishkin color reduction over the
//! vertex-id orientation (the documented substitute for Kothapalli &
//! Pindiproli \[21\]; the paper likewise uses "the vertex numbers to induce
//! the required orientation").
//!
//! Composites ([`decomp`]): MIS-Bridge, MIS-Rand, MIS-Deg2 (Algorithms
//! 10–12), including the paper's sparser-side-first ordering heuristic.

pub mod decomp;
pub mod greedy;
pub mod luby;
pub mod oriented;

use crate::common::{Arch, RunCtx, RunStats, SolveOpts};
use crate::solver::{self, Algo, Decomposition};
use sb_graph::csr::Graph;
use std::time::Duration;

/// Shared live-set scan for the MIS solvers: the undecided vertices passing
/// `allowed`, as an order-stable compacted worklist. Every solver in this
/// family fixes its participant set with exactly this predicate; keeping the
/// scan in one place pins them to the same compaction primitive.
pub(crate) fn undecided_participants(status: &[u8], allowed: Option<&[bool]>) -> Vec<u32> {
    sb_par::frontier::compact_range(status.len(), |v| {
        status[v as usize] == status::UNDECIDED && allowed.is_none_or(|a| a[v as usize])
    })
}

/// Vertex status during MIS construction.
pub mod status {
    /// Not yet decided.
    pub const UNDECIDED: u8 = 0;
    /// In the independent set.
    pub const IN: u8 = 1;
    /// Excluded (has a neighbor in the set).
    pub const OUT: u8 = 2;
}

/// Result of an MIS run.
#[derive(Debug, Clone)]
pub struct MisRun {
    /// Membership flags.
    pub in_set: Vec<bool>,
    /// Timing and counters.
    pub stats: RunStats,
}

impl MisRun {
    /// Number of vertices in the independent set.
    pub fn size(&self) -> usize {
        self.in_set.iter().filter(|&&b| b).count()
    }
}

/// Run an MIS algorithm on `g`: LubyMIS (the paper's baseline on both
/// architectures) or one of the composites MIS-Bridge, MIS-Rand,
/// MIS-Degk (Algorithms 10–12; for k ≤ 2 the low subgraph is solved with
/// the oriented bounded-degree algorithm, otherwise with Luby) and
/// MIS-Bicc.
///
/// `decomp` is `None` to decompose inline or a precomputed decomposition
/// matching `algo` (solve phases only, zero reported decomposition time,
/// the same set); see [`crate::matching::maximal_matching`].
pub fn maximal_independent_set(
    g: &Graph,
    algo: Algo,
    decomp: Option<&Decomposition>,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
) -> MisRun {
    use Decomposition as D;
    let counters = opts.counters();
    let (inline, decompose_time) = match decomp {
        Some(_) => (None, Duration::ZERO),
        None => Decomposition::compute(g, algo, seed, &counters),
    };
    let mut run = RunCtx::new(g, arch, seed, opts.frontier, &counters, decompose_time);
    let mut status = vec![status::UNDECIDED; g.num_vertices()];
    let st = &mut status;
    match (algo, decomp.or(inline.as_ref())) {
        (Algo::Baseline, None) => decomp::baseline(&mut run, st),
        (Algo::Bridge, Some(D::Bridge(d))) => decomp::mis_bridge(&mut run, d, st),
        (Algo::Rand { .. }, Some(D::Rand(d))) => decomp::mis_rand(&mut run, d, st),
        (Algo::Degk { .. }, Some(D::Degk(d))) => decomp::mis_degk(&mut run, d, st),
        (Algo::Bicc, Some(D::Bicc(d))) => decomp::mis_bicc(&mut run, d, st),
        (algo, d) => solver::mismatch(algo, d),
    }
    let stats = run.finish();
    MisRun {
        in_set: status.iter().map(|&s| s == status::IN).collect(),
        stats,
    }
}

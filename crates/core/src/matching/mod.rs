//! Maximal matching (Section III of the paper).
//!
//! Baselines: [`gm`] (Algorithm GM — the greedy lowest-id proposal matcher
//! used on multicore CPUs, plus the random-edge-priority variant of Blelloch
//! et al. as an ablation) and [`lmax`] (Algorithm LMAX — the local-max
//! matcher of Birn et al., expressed as bulk-synchronous kernels for the
//! GPU-sim executor).
//!
//! Composites ([`decomp`]): MM-Bridge, MM-Rand, MM-Degk (Algorithms 4–6),
//! each of which decomposes the input, matches the pieces, and extends the
//! partial matching over what remains.

pub mod decomp;
pub mod gm;
pub mod ii;
pub mod lmax;

use crate::common::{Arch, FrontierMode, RunCtx, RunStats, SolveOpts};
use crate::solver::{self, Algo, Decomposition};
use sb_graph::csr::{Graph, INVALID};
use sb_graph::view::EdgeView;
use sb_par::bsp::BspExecutor;
use sb_par::counters::Counters;
use std::time::Duration;

/// Result of a matching run: the mate array plus timing/work breakdown.
#[derive(Debug, Clone)]
pub struct MatchingRun {
    /// `mate[v]` is `v`'s partner or `INVALID`.
    pub mate: Vec<u32>,
    /// Timing and counters.
    pub stats: RunStats,
}

impl MatchingRun {
    /// Number of matched edges.
    pub fn cardinality(&self) -> usize {
        crate::verify::matching_cardinality(&self.mate)
    }
}

/// Run a maximal-matching algorithm on `g`: the architecture's baseline
/// (GM on CPU, LMAX on GPU-sim) or one of the composites MM-Bridge,
/// MM-Rand, MM-Degk (Algorithms 4–6) and MM-Bicc.
///
/// `decomp` is `None` to decompose inline (timed and counted as part of
/// the run) or a precomputed decomposition matching `algo`, in which case
/// only the solve phases run, with zero reported decomposition time; the
/// mate array is the same either way. `seed` drives every random choice
/// (RAND partition, LMAX edge weights), making runs reproducible
/// independent of thread count. `opts` carries the trace sink and the
/// frontier mode (see [`crate::common::FrontierMode`]).
pub fn maximal_matching(
    g: &Graph,
    algo: Algo,
    decomp: Option<&Decomposition>,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
) -> MatchingRun {
    use Decomposition as D;
    let counters = opts.counters();
    let (inline, decompose_time) = match decomp {
        Some(_) => (None, Duration::ZERO),
        None => Decomposition::compute(g, algo, seed, &counters),
    };
    let mut run = RunCtx::new(g, arch, seed, opts.frontier, &counters, decompose_time);
    let mut mate = vec![INVALID; g.num_vertices()];
    let m = &mut mate;
    match (algo, decomp.or(inline.as_ref())) {
        (Algo::Baseline, None) => decomp::baseline(&mut run, m),
        (Algo::Bridge, Some(D::Bridge(d))) => decomp::mm_bridge(&mut run, d, m),
        (Algo::Rand { .. }, Some(D::Rand(d))) => decomp::mm_rand(&mut run, d, m),
        (Algo::Degk { .. }, Some(D::Degk(d))) => decomp::mm_degk(&mut run, d, m),
        (Algo::Bicc, Some(D::Bicc(d))) => decomp::mm_bicc(&mut run, d, m),
        (algo, d) => solver::mismatch(algo, d),
    }
    MatchingRun {
        mate,
        stats: run.finish(),
    }
}

/// Extend the partial matching in `mate` to a maximal matching of the
/// subgraph of `g` restricted to `view` and to unmatched vertices passing
/// `allowed`, using the baseline solver of `arch` in the run's mode.
///
/// On the CPU, GM runs directly against the filtered view (its adjacency
/// cursor skips non-admitted arcs amortized-free). In `Dense` mode the GPU
/// pipeline first materializes the admitted piece — on-device that is a
/// handful of cheap streaming passes, whereas per-arc class checks inside
/// the solver's kernels would be gathers; the materialization work is
/// charged to the counters (and hence to the modeled device time).
/// In `Compact` mode LMAX instead runs zero-copy against the masked view:
/// per-arc admit checks ride along the already-compacted worklist sweeps.
/// Both paths key LMAX edge weights by *original* edge id — the dense path
/// carries the new-id → original-id map of the materialization — so dense
/// and compact are byte-identical on masked views too (pinned by
/// `tests/frontier.rs`).
pub(crate) fn base_extend(
    run: &mut RunCtx<'_>,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    seed: u64,
) {
    let (g, counters, mode, scratch) = (run.g, run.counters, run.mode, &mut run.scratch);
    match run.arch {
        Arch::Cpu => gm::gm_extend(g, view, mate, allowed, counters, mode, scratch),
        Arch::GpuSim => {
            let exec = BspExecutor::inheriting(counters);
            if mode == FrontierMode::Dense && !view.is_full() {
                let orig_ids = view.admitted_edge_ids(g);
                let sub = materialize_for_gpu(g, view, exec.counters());
                let (full, ids) = (EdgeView::full(), Some(orig_ids.as_slice()));
                lmax::lmax_extend(&sub, full, mate, allowed, seed, ids, &exec, mode, scratch);
            } else {
                lmax::lmax_extend(g, view, mate, allowed, seed, None, &exec, mode, scratch);
            }
            counters.merge(exec.counters());
        }
    }
}

/// Materialize a filtered view for a GPU pipeline phase, charging the
/// streaming passes (classify scan + CSR fill) to `counters`.
pub(crate) fn materialize_for_gpu(g: &Graph, view: EdgeView<'_>, counters: &Counters) -> Graph {
    let sub = view.materialize(g);
    counters.add_kernel(g.num_edges() as u64);
    counters.add_kernel(4 * sub.num_edges() as u64);
    sub
}

/// The paper's rule of thumb for MM-Rand's partition count (§III-B):
/// "we use the partition size k close to the average degree of the graph".
/// Clamped to `[2, 128]` so degenerate graphs stay usable.
pub fn suggested_partitions(g: &Graph) -> usize {
    (g.avg_degree().round() as usize).clamp(2, 128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_graph::builder::from_edge_list;

    #[test]
    fn suggested_partitions_tracks_average_degree() {
        // Cycle: average degree 2.
        let c = from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(suggested_partitions(&c), 2);
        // K6: average degree 5.
        let mut e = Vec::new();
        for i in 0..6u32 {
            for j in i + 1..6 {
                e.push((i, j));
            }
        }
        let k6 = from_edge_list(6, &e);
        assert_eq!(suggested_partitions(&k6), 5);
        // Edgeless: clamped to 2.
        assert_eq!(suggested_partitions(&Graph::empty(4)), 2);
    }

    #[test]
    fn rand_with_suggested_partitions_is_maximal() {
        let g = from_edge_list(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        let k = suggested_partitions(&g);
        let algo = Algo::Rand { partitions: k };
        let run = maximal_matching(&g, algo, None, Arch::Cpu, 3, &SolveOpts::default());
        crate::verify::check_maximal_matching(&g, &run.mate).unwrap();
    }
}

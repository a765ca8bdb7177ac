//! Decomposition-based maximal matching (Algorithms 4–6 of the paper).
//!
//! Each composite receives its decomposition (computed inline and timed
//! separately by [`super::maximal_matching`], or supplied), matches the
//! decomposition pieces with the architecture's baseline solver, and then
//! extends the partial matching over the remaining edges. The pieces live
//! on the parent graph's vertex ids, so one `mate` array flows through all
//! phases.

use super::base_extend;
use crate::common::RunCtx;
use sb_decompose::bicc::BiccDecomposition;
use sb_decompose::bridge::BridgeDecomposition;
use sb_decompose::degk::DegkDecomposition;
use sb_decompose::rand_part::RandDecomposition;
use sb_graph::csr::INVALID;
use sb_graph::view::EdgeView;

/// Run the architecture's baseline matcher on the whole graph (no
/// decomposition). This is the comparison bar in Figure 3.
pub(super) fn baseline(run: &mut RunCtx<'_>, mate: &mut [u32]) {
    let _span = run.counters.phase("solve");
    base_extend(run, EdgeView::full(), mate, None, run.seed);
}

/// Algorithm 4 — MM-Bridge.
///
/// Match the 2-edge-connected components `G_c`, then maximally match the
/// subgraph of `G` induced by the still-unmatched bridge vertices.
pub(super) fn mm_bridge(run: &mut RunCtx<'_>, d: &BridgeDecomposition, mate: &mut [u32]) {
    let (g, seed) = (run.g, run.seed);
    // Phase 1: M_c on the components.
    {
        let _span = run.counters.phase("induced-solve");
        base_extend(run, d.component_view(), mate, None, seed);
    }
    // Phase 2: M_b on G[V'], V' = unmatched bridge vertices.
    {
        let _span = run.counters.phase("cross-solve");
        let mut allowed = vec![false; g.num_vertices()];
        for v in d.bridge_vertices(g) {
            if mate[v as usize] == INVALID {
                allowed[v as usize] = true;
            }
        }
        base_extend(run, EdgeView::full(), mate, Some(&allowed), seed ^ 1);
    }
}

/// Algorithm 5 — MM-Rand.
///
/// Match the union of the induced partition subgraphs, then extend over the
/// cross-edge subgraph `G_{k+1}`.
pub(super) fn mm_rand(run: &mut RunCtx<'_>, d: &RandDecomposition, mate: &mut [u32]) {
    let seed = run.seed;
    // Phase 1: M_IS on G[V_1] ∪ … ∪ G[V_k].
    {
        let _span = run.counters.phase("induced-solve");
        base_extend(run, d.induced_view(), mate, None, seed ^ 2);
    }
    // Phase 2: M_{k+1} on the unmatched part of G_{k+1} (the solver skips
    // matched endpoints, which is exactly the G_{k+1}[V'] restriction).
    {
        let _span = run.counters.phase("cross-solve");
        base_extend(run, d.cross_view(), mate, None, seed ^ 3);
    }
}

/// Algorithm 6 — MM-Degk.
///
/// Match `G_H` first, then extend over `G_L ∪ G_C` restricted to unmatched
/// vertices.
pub(super) fn mm_degk(run: &mut RunCtx<'_>, d: &DegkDecomposition, mate: &mut [u32]) {
    let seed = run.seed;
    // Phase 1: M_H on G_H.
    {
        let _span = run.counters.phase("induced-solve");
        base_extend(run, d.high_view(), mate, None, seed ^ 4);
    }
    // Phase 2: M_LC on G_LC = G_L ∪ G_C (every edge with a low endpoint —
    // the low-degree fringe).
    {
        let _span = run.counters.phase("fringe-peel");
        base_extend(run, d.low_cross_view(), mate, None, seed ^ 5);
    }
}

/// MM-Bicc (extension, after Hochbaum \[16\]).
///
/// Removing the articulation vertices splits the graph into the interiors
/// of its blocks, which are pairwise disconnected — a maximal matching of
/// that remainder is found in one parallel solve, then extended over the
/// articulation vertices and their edges.
pub(super) fn mm_bicc(run: &mut RunCtx<'_>, d: &BiccDecomposition, mate: &mut [u32]) {
    let seed = run.seed;
    // Phase 1: block interiors (non-articulation vertices).
    {
        let _span = run.counters.phase("induced-solve");
        let interior: Vec<bool> = d.is_articulation.iter().map(|&a| !a).collect();
        base_extend(run, EdgeView::full(), mate, Some(&interior), seed);
    }
    // Phase 2: extend over the articulation vertices.
    {
        let _span = run.counters.phase("cleanup");
        base_extend(run, EdgeView::full(), mate, None, seed ^ 1);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{maximal_matching, MatchingRun};
    use crate::common::{Arch, SolveOpts};
    use crate::solver::Algo;
    use crate::verify::check_maximal_matching;
    use sb_graph::builder::from_edge_list;
    use sb_graph::csr::Graph;

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
            .collect();
        from_edge_list(n, &edges)
    }

    fn mm(g: &Graph, algo: Algo, arch: Arch, seed: u64) -> MatchingRun {
        maximal_matching(g, algo, None, arch, seed, &SolveOpts::default())
    }

    #[test]
    fn all_algorithms_produce_maximal_matchings_both_archs() {
        let graphs = [
            random_graph(300, 900, 1),
            random_graph(500, 700, 2),
            from_edge_list(64, &(0..63u32).map(|i| (i, i + 1)).collect::<Vec<_>>()),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for algo in Algo::all(4, 2) {
                for arch in [Arch::Cpu, Arch::GpuSim] {
                    let run = mm(g, algo, arch, 42);
                    check_maximal_matching(g, &run.mate)
                        .unwrap_or_else(|e| panic!("graph {gi}, {algo:?} on {arch}: {e}"));
                }
            }
        }
    }

    #[test]
    fn decomposition_time_reported_separately() {
        let g = random_graph(400, 1200, 3);
        let run = mm(&g, Algo::Rand { partitions: 4 }, Arch::Cpu, 7);
        assert!(run.stats.decompose_time > std::time::Duration::ZERO);
        assert!(run.stats.solve_time > std::time::Duration::ZERO);
        let base = mm(&g, Algo::Baseline, Arch::Cpu, 7);
        assert_eq!(base.stats.decompose_time, std::time::Duration::ZERO);
    }

    #[test]
    fn mm_bridge_on_tree_matches_via_bridge_phase() {
        // A tree is all bridges: phase 1 has nothing to do, phase 2 must
        // still deliver a maximal matching.
        let g = from_edge_list(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let run = mm(&g, Algo::Bridge, Arch::Cpu, 1);
        check_maximal_matching(&g, &run.mate).unwrap();
        assert!(run.cardinality() >= 2);
    }

    #[test]
    fn mm_rand_single_partition_degenerates_to_baseline_shape() {
        let g = random_graph(200, 600, 5);
        let run = mm(&g, Algo::Rand { partitions: 1 }, Arch::Cpu, 9);
        check_maximal_matching(&g, &run.mate).unwrap();
    }

    #[test]
    fn mm_degk_various_k() {
        let g = random_graph(300, 1500, 8);
        for k in [0, 1, 2, 4, 16] {
            let run = mm(&g, Algo::Degk { k }, Arch::Cpu, 3);
            check_maximal_matching(&g, &run.mate).unwrap_or_else(|e| panic!("k = {k}: {e}"));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = random_graph(250, 800, 10);
        let a = mm(&g, Algo::Rand { partitions: 5 }, Arch::GpuSim, 77);
        let b = mm(&g, Algo::Rand { partitions: 5 }, Arch::GpuSim, 77);
        assert_eq!(a.mate, b.mate);
    }
}

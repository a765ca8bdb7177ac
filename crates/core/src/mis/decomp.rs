//! Decomposition-based MIS (Algorithms 10–12 of the paper).

use super::luby::{luby_extend, luby_extend_bsp};
use super::oriented::oriented_mis_extend;
use super::status::{IN, OUT, UNDECIDED};
use crate::common::{Arch, FrontierMode, RunCtx};
use crate::matching::materialize_for_gpu;
use rayon::prelude::*;
use sb_decompose::bicc::BiccDecomposition;
use sb_decompose::bridge::BridgeDecomposition;
use sb_decompose::degk::DegkDecomposition;
use sb_decompose::rand_part::RandDecomposition;
use sb_graph::csr::{Graph, VertexId};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u8;
use sb_par::bsp::BspExecutor;
use sb_par::counters::Counters;
use std::sync::atomic::Ordering;

/// Run the architecture's Luby form in the run's mode over the undecided
/// vertices of `g` passing `allowed`, restricted to the edges of `view`.
///
/// In `Dense` mode, GPU phases over a filtered view materialize the piece
/// first (see `matching::base_extend`). In `Compact` mode both
/// architectures solve against the view zero-copy: Luby's decisions depend
/// only on vertex ids and the admitted edge set, so skipping the induced
/// CSR build cannot change the output.
fn base_mis_extend(
    run: &mut RunCtx<'_>,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    seed: u64,
) {
    let (g, counters, mode, scratch) = (run.g, run.counters, run.mode, &mut run.scratch);
    match run.arch {
        Arch::Cpu => luby_extend(g, view, status, allowed, seed, counters, mode, scratch),
        Arch::GpuSim => {
            let exec = BspExecutor::inheriting(counters);
            if mode == FrontierMode::Dense && !view.is_full() {
                let sub = materialize_for_gpu(g, view, exec.counters());
                let full = EdgeView::full();
                luby_extend_bsp(&sub, full, status, allowed, seed, &exec, mode, scratch);
            } else {
                luby_extend_bsp(g, view, status, allowed, seed, &exec, mode, scratch);
            }
            counters.merge(exec.counters());
        }
    }
}

/// Exclude (in the full graph `g`) every undecided vertex with an IN
/// neighbor — the "remove from G vertices that are in I_A or have a
/// neighbor in I_A" step between phases.
fn exclude_dominated(g: &Graph, status: &mut [u8], counters: &Counters) {
    counters.add_edges(2 * g.num_edges() as u64);
    let st = as_atomic_u8(status);
    (0..g.num_vertices()).into_par_iter().for_each(|v| {
        if st[v].load(Ordering::Relaxed) != UNDECIDED {
            return;
        }
        if g.neighbors(v as VertexId)
            .iter()
            .any(|&w| st[w as usize].load(Ordering::Relaxed) == IN)
        {
            st[v].store(OUT, Ordering::Relaxed);
        }
    });
}

/// LubyMIS on the whole graph — the Figure 5 baseline.
pub(super) fn baseline(run: &mut RunCtx<'_>, status: &mut [u8]) {
    let _span = run.counters.phase("solve");
    base_mis_extend(run, EdgeView::full(), status, None, run.seed);
}

/// Average degree over the non-isolated vertices of a view — the sparsity
/// measure the paper uses to pick which side to solve first.
fn busy_avg_degree(g: &Graph, view: EdgeView<'_>) -> f64 {
    let busy = (0..g.num_vertices())
        .into_par_iter()
        .filter(|&v| view.has_arc(g, v as VertexId))
        .count();
    if busy == 0 {
        0.0
    } else {
        2.0 * view.num_edges(g) as f64 / busy as f64
    }
}

/// Algorithm 10 — MIS-Bridge.
///
/// Solve `∪ H_i = G_c` minus bridge endpoints and the bridge graph `G_B`,
/// sparser side first, extending through the full graph in between.
pub(super) fn mis_bridge(run: &mut RunCtx<'_>, d: &BridgeDecomposition, status: &mut [u8]) {
    let (g, seed) = (run.g, run.seed);
    let n = g.num_vertices();
    let mut is_bridge_vertex = vec![false; n];
    for v in d.bridge_vertices(g) {
        is_bridge_vertex[v as usize] = true;
    }

    let comp_side: Vec<bool> = (0..n).map(|v| !is_bridge_vertex[v]).collect();
    if busy_avg_degree(g, d.component_view()) <= busy_avg_degree(g, d.bridge_view()) {
        // I_A on ∪ H_i first.
        {
            let _span = run.counters.phase("induced-solve");
            base_mis_extend(run, d.component_view(), status, Some(&comp_side), seed);
        }
        let _span = run.counters.phase("cross-solve");
        exclude_dominated(g, status, run.counters);
        base_mis_extend(run, EdgeView::full(), status, None, seed ^ 1);
    } else {
        // I_B first. Note: an MIS of the bare bridge graph G_B would not be
        // independent in G (two bridge endpoints can share a non-bridge
        // edge), so I_B is computed on G restricted to the bridge vertices —
        // the subgraph Algorithm 10's "MIS of G_B" must mean for I_A ∪ I_B
        // to be an MIS of G.
        {
            let _span = run.counters.phase("induced-solve");
            base_mis_extend(run, EdgeView::full(), status, Some(&is_bridge_vertex), seed);
        }
        let _span = run.counters.phase("cross-solve");
        exclude_dominated(g, status, run.counters);
        base_mis_extend(run, EdgeView::full(), status, None, seed ^ 1);
    }
}

/// Algorithm 11 — MIS-Rand.
///
/// Solve `H = ∪ (G_i \ G_{k+1})` (induced subgraphs minus cross-edge
/// endpoints) and the cross graph, sparser side first.
pub(super) fn mis_rand(run: &mut RunCtx<'_>, d: &RandDecomposition, status: &mut [u8]) {
    let (g, seed) = (run.g, run.seed);
    let n = g.num_vertices();
    let cross_endpoint: Vec<bool> = {
        let mut m = vec![false; n];
        for (e, &[u, v]) in g.edge_list().iter().enumerate() {
            if d.class[e] == sb_decompose::rand_part::RandDecomposition::CROSS {
                m[u as usize] = true;
                m[v as usize] = true;
            }
        }
        m
    };
    let h_side: Vec<bool> = (0..n).map(|v| !cross_endpoint[v]).collect();

    if busy_avg_degree(g, d.induced_view()) <= busy_avg_degree(g, d.cross_view()) {
        {
            let _span = run.counters.phase("induced-solve");
            base_mis_extend(run, d.induced_view(), status, Some(&h_side), seed ^ 2);
        }
        let _span = run.counters.phase("cross-solve");
        exclude_dominated(g, status, run.counters);
        base_mis_extend(run, EdgeView::full(), status, None, seed ^ 3);
    } else {
        // Same subtlety as MIS-Bridge: cross-edge endpoints can also share
        // intra-partition edges, so I_B runs on G restricted to them.
        {
            let _span = run.counters.phase("induced-solve");
            base_mis_extend(
                run,
                EdgeView::full(),
                status,
                Some(&cross_endpoint),
                seed ^ 2,
            );
        }
        let _span = run.counters.phase("cross-solve");
        exclude_dominated(g, status, run.counters);
        base_mis_extend(run, EdgeView::full(), status, None, seed ^ 3);
    }
}

/// Algorithm 12 — MIS-Degk (the paper's MIS-Deg2 for k = 2).
///
/// Solve the degree-≤k side first — with the deterministic oriented
/// algorithm when k ≤ 2 (paths and cycles), otherwise with Luby — then
/// extend through the remainder.
pub(super) fn mis_degk(run: &mut RunCtx<'_>, d: &DegkDecomposition, status: &mut [u8]) {
    let (g, seed) = (run.g, run.seed);
    let k = d.k;
    let n = g.num_vertices();
    let low_side: Vec<bool> = (0..n).map(|v| !d.is_high[v]).collect();

    // The degree-≤k fringe is peeled first (oriented Cole–Vishkin for
    // k ≤ 2, Luby otherwise).
    {
        let _span = run.counters.phase("fringe-peel");
        if k <= 2 {
            let view = d.low_view();
            oriented_mis_extend(g, view, status, Some(&low_side), run.counters);
        } else {
            base_mis_extend(run, d.low_view(), status, Some(&low_side), seed ^ 4);
        }
    }
    {
        let _span = run.counters.phase("cross-solve");
        exclude_dominated(g, status, run.counters);
        base_mis_extend(run, EdgeView::full(), status, None, seed ^ 5);
    }
}

/// MIS-Bicc (extension, after Hochbaum \[16\]).
///
/// An MIS of the block interiors (the graph minus articulation vertices,
/// whose pieces are pairwise disconnected), then exclusion through the
/// full graph and a final solve over what remains.
pub(super) fn mis_bicc(run: &mut RunCtx<'_>, d: &BiccDecomposition, status: &mut [u8]) {
    let (g, seed) = (run.g, run.seed);
    let interior: Vec<bool> = d.is_articulation.iter().map(|&a| !a).collect();
    {
        let _span = run.counters.phase("induced-solve");
        base_mis_extend(run, EdgeView::full(), status, Some(&interior), seed);
    }
    {
        let _span = run.counters.phase("cleanup");
        exclude_dominated(g, status, run.counters);
        base_mis_extend(run, EdgeView::full(), status, None, seed ^ 1);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{maximal_independent_set, MisRun};
    use crate::common::{Arch, SolveOpts};
    use crate::solver::Algo;
    use crate::verify::check_maximal_independent_set;
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

    fn mis(g: &Graph, algo: Algo, arch: Arch, seed: u64) -> MisRun {
        maximal_independent_set(g, algo, None, arch, seed, &SolveOpts::default())
    }

    #[test]
    fn all_algorithms_maximal_both_archs() {
        let graphs = [
            random_graph(300, 900, 1),
            random_graph(400, 600, 2),
            from_edge_list(80, &(0..79u32).map(|i| (i, i + 1)).collect::<Vec<_>>()),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for algo in Algo::all(4, 2) {
                for arch in [Arch::Cpu, Arch::GpuSim] {
                    let run = mis(g, algo, arch, 23);
                    check_maximal_independent_set(g, &run.in_set)
                        .unwrap_or_else(|e| panic!("graph {gi}, {algo:?} on {arch}: {e}"));
                }
            }
        }
    }

    #[test]
    fn deg2_on_chain_heavy_graph_uses_oriented_path_fast() {
        // Hub with many chains — the lp1 shape where MIS-Deg2 shines.
        let mut edges = vec![];
        for c in 0..30u32 {
            let b = 1 + 4 * c;
            edges.push((0, b));
            edges.push((b, b + 1));
            edges.push((b + 1, b + 2));
            edges.push((b + 2, b + 3));
        }
        let g = from_edge_list(121, &edges);
        let run = mis(&g, Algo::Degk { k: 2 }, Arch::Cpu, 3);
        check_maximal_independent_set(&g, &run.in_set).unwrap();
        // Chains alone guarantee a large independent set.
        assert!(run.size() >= 60);
    }

    #[test]
    fn degk_with_large_k_falls_back_to_luby() {
        let g = random_graph(200, 800, 5);
        let run = mis(&g, Algo::Degk { k: 8 }, Arch::Cpu, 7);
        check_maximal_independent_set(&g, &run.in_set).unwrap();
    }

    #[test]
    fn bridge_on_tree_and_on_cycle() {
        let tree = from_edge_list(15, &(0..14u32).map(|i| (i / 2, i + 1)).collect::<Vec<_>>());
        let run = mis(&tree, Algo::Bridge, Arch::Cpu, 1);
        check_maximal_independent_set(&tree, &run.in_set).unwrap();

        let mut edges: Vec<(u32, u32)> = (0..19).map(|i| (i, i + 1)).collect();
        edges.push((19, 0));
        let cyc = from_edge_list(20, &edges);
        let run = mis(&cyc, Algo::Bridge, Arch::GpuSim, 2);
        check_maximal_independent_set(&cyc, &run.in_set).unwrap();
    }

    #[test]
    fn rand_partition_sweep() {
        let g = random_graph(300, 1200, 9);
        for k in [1, 2, 5, 10] {
            let run = mis(&g, Algo::Rand { partitions: k }, Arch::Cpu, 11);
            check_maximal_independent_set(&g, &run.in_set)
                .unwrap_or_else(|e| panic!("k = {k}: {e}"));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = random_graph(250, 750, 12);
        let a = mis(&g, Algo::Degk { k: 2 }, Arch::Cpu, 5);
        let b = mis(&g, Algo::Degk { k: 2 }, Arch::Cpu, 5);
        assert_eq!(a.in_set, b.in_set);
    }

    #[test]
    fn stats_breakdown_present() {
        let g = random_graph(300, 900, 13);
        let run = mis(&g, Algo::Degk { k: 2 }, Arch::Cpu, 3);
        assert!(run.stats.decompose_time > std::time::Duration::ZERO);
        assert!(run.stats.counters.rounds > 0);
    }
}

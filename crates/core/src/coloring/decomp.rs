//! Decomposition-based coloring (Algorithms 7–9 of the paper).

use super::{eb, vb, vb_window};
use crate::common::{Arch, FrontierMode, RunCtx};
use crate::matching::materialize_for_gpu;
use rayon::prelude::*;
use sb_decompose::bicc::BiccDecomposition;
use sb_decompose::bridge::BridgeDecomposition;
use sb_decompose::degk::DegkDecomposition;
use sb_decompose::rand_part::RandDecomposition;
use sb_graph::csr::{Graph, VertexId, INVALID};
use sb_graph::view::EdgeView;
use sb_par::bsp::BspExecutor;
use sb_par::counters::Counters;

/// Color the vertices of `worklist` against the edges of `view`, with the
/// architecture's baseline, drawing colors from `base` upward using a
/// FORBIDDEN window of `window` entries (CPU/VB only; EB's window is its
/// 32-bit mask). In `Dense` mode GPU phases over a filtered view
/// materialize the piece first (streaming is cheap on-device; see
/// `matching::base_extend`); in `Compact` mode both architectures run
/// worklist-compacted solvers zero-copy against the masked view.
fn base_color_extend(
    run: &mut RunCtx<'_>,
    view: EdgeView<'_>,
    color: &mut [u32],
    worklist: Vec<VertexId>,
    base: u32,
    window: usize,
) {
    let (g, counters, scratch) = (run.g, run.counters, &mut run.scratch);
    match (run.arch, run.mode) {
        (Arch::Cpu, FrontierMode::Dense) => {
            vb::vb_extend(g, view, color, worklist, window, base, counters)
        }
        (Arch::Cpu, FrontierMode::Compact) => {
            vb::vb_extend_frontier(g, view, color, worklist, window, base, counters, scratch)
        }
        (Arch::GpuSim, FrontierMode::Dense) => {
            let exec = BspExecutor::inheriting(counters);
            if view.is_full() {
                eb::eb_extend(g, EdgeView::full(), color, worklist, base, &exec);
            } else {
                let sub = materialize_for_gpu(g, view, exec.counters());
                eb::eb_extend(&sub, EdgeView::full(), color, worklist, base, &exec);
            }
            counters.merge(exec.counters());
        }
        (Arch::GpuSim, FrontierMode::Compact) => {
            let exec = BspExecutor::inheriting(counters);
            eb::eb_extend_frontier(g, view, color, worklist, base, &exec, scratch);
            counters.merge(exec.counters());
        }
    }
}

/// The architecture's baseline colorer on the whole graph (Figure 4's bar).
pub(super) fn baseline(run: &mut RunCtx<'_>, color: &mut [u32]) {
    let g = run.g;
    let _span = run.counters.phase("solve");
    base_color_extend(
        run,
        EdgeView::full(),
        color,
        g.vertices().collect(),
        0,
        vb_window(g),
    );
}

/// Uncolor the lower-id endpoint of every monochromatic edge admitted by
/// `removed` (the decomposition's dropped edges); returns the uncolored
/// vertices. This is the "validity of C is tested with respect to G" step
/// of Algorithms 7 and 8 — only removed edges can actually conflict.
fn reset_conflicts(
    g: &Graph,
    removed: EdgeView<'_>,
    removed_count: usize,
    color: &mut [u32],
    counters: &Counters,
) -> Vec<VertexId> {
    counters.add_kernel(g.num_edges() as u64);
    counters.add_edges(2 * removed_count as u64);
    let mut losers: Vec<VertexId> = g
        .edge_list()
        .par_iter()
        .enumerate()
        .filter_map(|(e, &[u, v])| {
            if !removed.admits(e as u32) {
                return None;
            }
            let cu = color[u as usize];
            (cu != INVALID && cu == color[v as usize]).then_some(u.min(v))
        })
        .collect();
    losers.par_sort_unstable();
    losers.dedup();
    for &v in &losers {
        color[v as usize] = INVALID;
    }
    losers
}

/// Algorithm 7 — COLOR-Bridge.
///
/// Color `G_c` (the 2-edge-connected components share one palette), test
/// validity against the bridges, recolor the conflicted vertices in `G`.
pub(super) fn color_bridge(run: &mut RunCtx<'_>, d: &BridgeDecomposition, color: &mut [u32]) {
    let g = run.g;
    {
        let _span = run.counters.phase("induced-solve");
        base_color_extend(
            run,
            d.component_view(),
            color,
            g.vertices().collect(),
            0,
            vb_window(g),
        );
    }
    // Only bridge edges can conflict.
    {
        let _span = run.counters.phase("cross-solve");
        let conflicted = reset_conflicts(g, d.bridge_view(), d.bridges.len(), color, run.counters);
        base_color_extend(run, EdgeView::full(), color, conflicted, 0, vb_window(g));
    }
}

/// Algorithm 8 — COLOR-Rand.
///
/// Color the induced partition subgraphs with an identical palette, then
/// recolor the endpoints that conflict across cross edges.
pub(super) fn color_rand(run: &mut RunCtx<'_>, d: &RandDecomposition, color: &mut [u32]) {
    let g = run.g;
    {
        let _span = run.counters.phase("induced-solve");
        base_color_extend(
            run,
            d.induced_view(),
            color,
            g.vertices().collect(),
            0,
            vb_window(g),
        );
    }
    // Only cross edges can conflict.
    {
        let _span = run.counters.phase("cross-solve");
        let conflicted = reset_conflicts(g, d.cross_view(), d.m_cross, color, run.counters);
        base_color_extend(run, EdgeView::full(), color, conflicted, 0, vb_window(g));
    }
}

/// Algorithm 9 — COLOR-Degk.
///
/// Color `G_H` with the baseline; the cross edges cannot conflict because
/// `G_L` is then colored with a fresh palette of `k + 1` colors above
/// `max(C_H)` using a `(k+1)`-entry FORBIDDEN window (degree ≤ k inside
/// `G_L` guarantees the palette suffices).
pub(super) fn color_degk(run: &mut RunCtx<'_>, d: &DegkDecomposition, color: &mut [u32]) {
    let k = d.k;
    {
        let _span = run.counters.phase("induced-solve");
        let high: Vec<VertexId> = d.high_vertices();
        // Window for the high phase: the average degree of G_H (the paper's
        // VB rule applied to the graph actually being colored).
        let high_window = if high.is_empty() {
            2
        } else {
            (2 * d.m_high).div_ceil(high.len()).max(2)
        };
        base_color_extend(run, d.high_view(), color, high, 0, high_window);
    }
    {
        let _span = run.counters.phase("fringe-peel");
        let base = color
            .par_iter()
            .filter(|&&c| c != INVALID)
            .max()
            .map_or(0, |&c| c + 1);
        // Low side: small palette, (k+1)-entry FORBIDDEN window. Only G_L
        // edges can conflict (cross edges lead to colors below `base`), so
        // the window scan runs on the low view.
        let low: Vec<VertexId> = d.low_vertices();
        base_color_extend(run, d.low_view(), color, low, base, k + 1);
    }
}

/// COLOR-Bicc (extension, after Hochbaum \[16\]).
///
/// Phase 1 colors the non-articulation vertices: with the articulation
/// vertices withheld, the remaining pieces (block interiors) are pairwise
/// disconnected and share one palette; no conflicts are possible across
/// blocks. Phase 2 colors the (few) articulation vertices against their
/// already-colored neighborhoods.
pub(super) fn color_bicc(run: &mut RunCtx<'_>, d: &BiccDecomposition, color: &mut [u32]) {
    let g = run.g;
    {
        let _span = run.counters.phase("induced-solve");
        let interior: Vec<VertexId> = (0..g.num_vertices() as u32)
            .filter(|&v| !d.is_articulation[v as usize])
            .collect();
        // The interior pieces must not see the withheld articulation
        // vertices as neighbors (they are uncolored anyway), so the full
        // view is safe.
        base_color_extend(run, EdgeView::full(), color, interior, 0, vb_window(g));
    }
    {
        let _span = run.counters.phase("cleanup");
        let cuts: Vec<VertexId> = (0..g.num_vertices() as u32)
            .filter(|&v| d.is_articulation[v as usize])
            .collect();
        base_color_extend(run, EdgeView::full(), color, cuts, 0, vb_window(g));
    }
}

#[cfg(test)]
mod tests {
    use super::super::{vertex_coloring, ColoringRun};
    use crate::common::{Arch, SolveOpts};
    use crate::solver::Algo;
    use crate::verify::check_coloring;
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

    fn color(g: &Graph, algo: Algo, arch: Arch, seed: u64) -> ColoringRun {
        vertex_coloring(g, algo, None, arch, seed, &SolveOpts::default())
    }

    #[test]
    fn all_algorithms_proper_both_archs() {
        let graphs = [
            random_graph(300, 1200, 1),
            random_graph(400, 800, 2),
            from_edge_list(50, &(0..49u32).map(|i| (i, i + 1)).collect::<Vec<_>>()),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            for algo in Algo::all(3, 2) {
                for arch in [Arch::Cpu, Arch::GpuSim] {
                    let run = color(g, algo, arch, 11);
                    check_coloring(g, &run.color)
                        .unwrap_or_else(|e| panic!("graph {gi}, {algo:?} on {arch}: {e}"));
                }
            }
        }
    }

    #[test]
    fn degk_uses_small_palette_on_low_side() {
        // Star of chains: the low side is huge; Degk must stay within
        // max(C_H) + k + 1 colors total.
        let mut edges = vec![];
        for c in 0..20u32 {
            // chains of length 3 off hub 0: vertices 1 + 3c .. 3c+3
            let b = 1 + 3 * c;
            edges.push((0, b));
            edges.push((b, b + 1));
            edges.push((b + 1, b + 2));
        }
        let g = from_edge_list(61, &edges);
        let run = color(&g, Algo::Degk { k: 2 }, Arch::Cpu, 5);
        check_coloring(&g, &run.color).unwrap();
        assert!(
            run.num_colors() <= 5,
            "Degk palette should be tiny, used {}",
            run.num_colors()
        );
    }

    #[test]
    fn color_counts_stay_close_to_baseline() {
        // §IV-D: decomposition algorithms use only a few percent more colors.
        let g = random_graph(500, 3000, 3);
        let base = color(&g, Algo::Baseline, Arch::Cpu, 1).num_colors();
        for algo in [
            Algo::Bridge,
            Algo::Rand { partitions: 4 },
            Algo::Degk { k: 2 },
        ] {
            let c = color(&g, algo, Arch::Cpu, 1).num_colors();
            assert!(
                c <= base + base / 2 + 3,
                "{algo:?} used {c} colors vs baseline {base}"
            );
        }
    }

    #[test]
    fn bridge_coloring_on_tree() {
        // A tree: every edge is a bridge, G_c is edgeless — everything is
        // colored in the conflict-fix phase.
        let g = from_edge_list(15, &(0..14u32).map(|i| (i / 2, i + 1)).collect::<Vec<_>>());
        for arch in [Arch::Cpu, Arch::GpuSim] {
            let run = color(&g, Algo::Bridge, arch, 2);
            check_coloring(&g, &run.color).unwrap();
        }
    }

    #[test]
    fn rand_partitions_sweep() {
        let g = random_graph(300, 1500, 4);
        for k in [1, 2, 4, 8] {
            let run = color(&g, Algo::Rand { partitions: k }, Arch::Cpu, 6);
            check_coloring(&g, &run.color).unwrap();
        }
    }

    #[test]
    fn degk_k_sweep_both_archs() {
        let g = random_graph(300, 900, 5);
        for k in [1, 2, 3, 8] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                let run = color(&g, Algo::Degk { k }, arch, 7);
                check_coloring(&g, &run.color).unwrap_or_else(|e| panic!("k={k} {arch}: {e}"));
            }
        }
    }
}

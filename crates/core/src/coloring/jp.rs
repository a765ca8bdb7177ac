//! Jones–Plassmann coloring — ablation baseline.
//!
//! The classic independent-set-based colorer (§IV-A of the paper reviews
//! it): vertices get priorities; each round, every uncolored vertex whose
//! priority beats all its uncolored neighbors takes the smallest color
//! unused in its neighborhood. No conflicts are ever produced, at the cost
//! of more rounds than speculative coloring. Kept as a comparison point for
//! the VB/EB baselines, together with the ordering heuristics of
//! Hasenplaugh et al. (the paper's reference \[14\]): largest-degree-first
//! and smallest-degree-last.

use sb_graph::csr::{Graph, VertexId, INVALID};
use sb_par::atomic::as_atomic_u32;
use sb_par::counters::Counters;
use sb_par::frontier::Scratch;
use sb_par::rng::hash2;
use std::sync::atomic::Ordering;

/// Vertex-ordering heuristic for Jones–Plassmann (Hasenplaugh et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JpOrdering {
    /// Uniform random priorities (the original Jones–Plassmann).
    Random,
    /// Largest-degree-first: high-degree vertices color early, which tends
    /// to reduce the color count on skewed-degree graphs.
    LargestDegreeFirst,
    /// Smallest-degree-last: iteratively peel minimum-degree vertices; the
    /// peel level (latest peeled = highest priority) approximates the
    /// degeneracy ordering and bounds colors by the graph's degeneracy + 1.
    SmallestDegreeLast,
}

/// Per-vertex priority keys for an ordering (higher = colors earlier).
fn priorities(g: &Graph, ordering: JpOrdering, seed: u64, counters: &Counters) -> Vec<u64> {
    let n = g.num_vertices();
    match ordering {
        JpOrdering::Random => (0..n).map(|v| hash2(seed, v as u64)).collect(),
        JpOrdering::LargestDegreeFirst => (0..n)
            .map(|v| {
                // Degree in the high bits, hash tiebreak in the low bits.
                ((g.degree(v as VertexId) as u64) << 32) | (hash2(seed, v as u64) & 0xFFFF_FFFF)
            })
            .collect(),
        JpOrdering::SmallestDegreeLast => {
            // Degeneracy-style peel: raise a threshold k; while any vertex
            // has residual degree ≤ k, peel it (cascading through a
            // worklist, so each vertex and arc is touched O(1) times —
            // a per-round full rescan would be quadratic on paths).
            let mut level = vec![u32::MAX; n];
            let mut residual: Vec<u32> = (0..n).map(|v| g.degree(v as VertexId) as u32).collect();
            let mut remaining = n;
            let mut k = 0u32;
            let mut round = 0u32;
            while remaining > 0 {
                counters.add_rounds(1);
                let mut frontier: Vec<VertexId> = (0..n as u32)
                    .filter(|&v| level[v as usize] == u32::MAX && residual[v as usize] <= k)
                    .collect();
                for &v in &frontier {
                    level[v as usize] = round;
                }
                while let Some(v) = frontier.pop() {
                    remaining -= 1;
                    for &w in g.neighbors(v) {
                        if level[w as usize] == u32::MAX {
                            residual[w as usize] -= 1;
                            if residual[w as usize] <= k {
                                level[w as usize] = round;
                                frontier.push(w);
                            }
                        }
                    }
                }
                k += 1;
                round += 1;
            }
            // Latest-peeled (dense core) gets the highest priority.
            (0..n)
                .map(|v| ((level[v] as u64) << 32) | (hash2(seed, v as u64) & 0xFFFF_FFFF))
                .collect()
        }
    }
}

/// Color `g` with Jones–Plassmann under the given ordering heuristic.
///
/// One worklist form serves every frontier mode: JP's worklist *is* its
/// frontier, so there is no separate dense sweep. Outputs are
/// byte-identical across thread counts: decisions are double-buffered
/// through a proposal array, so they depend only on pre-round colors,
/// never on iteration order.
pub fn jp_color_ordered(
    g: &Graph,
    ordering: JpOrdering,
    seed: u64,
    counters: &Counters,
) -> Vec<u32> {
    let mut scratch = Scratch::new();
    let n = g.num_vertices();
    let keys = priorities(g, ordering, seed, counters);
    let prio = |v: VertexId| (keys[v as usize], v);
    let mut color = vec![INVALID; n];
    let mut proposal = scratch.take_u32(n, INVALID);
    let mut work = scratch.take_frontier();
    work.reset_range(n, |_| true);

    while !work.is_empty() {
        let round = counters.round_scope(work.len() as u64);
        let before = work.len();
        counters.add_rounds(1);
        counters.add_work(work.len() as u64);
        {
            let color_at = as_atomic_u32(&mut color);
            let prop_at = as_atomic_u32(&mut proposal);
            // Pass A — double-buffered decision: only local maxima among
            // uncolored neighbors propose a color, reading pre-round colors
            // only, so no conflicts can arise.
            work.for_each(|v| {
                counters.add_edges(g.degree(v) as u64);
                let pv = prio(v);
                let mut is_max = true;
                for &w in g.neighbors(v) {
                    if color_at[w as usize].load(Ordering::Relaxed) == INVALID && prio(w) > pv {
                        is_max = false;
                        break;
                    }
                }
                if !is_max {
                    return;
                }
                // Smallest color unused by (colored) neighbors.
                let deg = g.degree(v);
                let mut used = vec![false; deg + 1];
                for &w in g.neighbors(v) {
                    let c = color_at[w as usize].load(Ordering::Relaxed);
                    if c != INVALID && (c as usize) <= deg {
                        used[c as usize] = true;
                    }
                }
                let c = used.iter().position(|&u| !u).unwrap() as u32;
                prop_at[v as usize].store(c, Ordering::Relaxed);
            });
            // Pass B — apply and clear proposals (disjoint per-vertex
            // writes, so parallel application equals sequential).
            work.for_each(|v| {
                let p = prop_at[v as usize].load(Ordering::Relaxed);
                if p != INVALID {
                    color_at[v as usize].store(p, Ordering::Relaxed);
                    prop_at[v as usize].store(INVALID, Ordering::Relaxed);
                }
            });
        }
        {
            // Order-stable live-set compaction, so output is unchanged.
            let color_ro: &[u32] = &color;
            work.compact(|v| color_ro[v as usize] == INVALID);
        }
        counters.finish_round(round, || (before - work.len()) as u64);
    }
    scratch.recycle_frontier(work);
    scratch.recycle_u32(proposal);
    color
}

/// Color `g` with the original random-priority Jones–Plassmann.
pub fn jp_color(g: &Graph, seed: u64, counters: &Counters) -> Vec<u32> {
    jp_color_ordered(g, JpOrdering::Random, seed, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_coloring, color_count};
    use sb_graph::builder::from_edge_list;

    #[test]
    fn proper_on_path_cycle_clique() {
        let path = from_edge_list(30, &(0..29u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let c = jp_color(&path, 1, &Counters::new());
        check_coloring(&path, &c).unwrap();
        assert!(color_count(&c) <= 3);

        let mut edges: Vec<(u32, u32)> = (0..29).map(|i| (i, i + 1)).collect();
        edges.push((29, 0));
        let cyc = from_edge_list(30, &edges);
        let c = jp_color(&cyc, 2, &Counters::new());
        check_coloring(&cyc, &c).unwrap();

        let mut k6 = Vec::new();
        for i in 0..6u32 {
            for j in i + 1..6 {
                k6.push((i, j));
            }
        }
        let g = from_edge_list(6, &k6);
        let c = jp_color(&g, 3, &Counters::new());
        check_coloring(&g, &c).unwrap();
        assert_eq!(color_count(&c), 6);
    }

    #[test]
    fn never_exceeds_delta_plus_one() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for trial in 0..5 {
            let n = 200;
            let edges: Vec<(u32, u32)> = (0..n * 4)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = from_edge_list(n, &edges);
            let c = jp_color(&g, trial, &Counters::new());
            check_coloring(&g, &c).unwrap();
            assert!(color_count(&c) <= g.max_degree() + 1);
        }
    }

    #[test]
    fn all_orderings_proper_and_sl_bounds_degeneracy() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let n = 300;
        let edges: Vec<(u32, u32)> = (0..n * 5)
            .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
            .collect();
        let g = from_edge_list(n, &edges);
        for ordering in [
            JpOrdering::Random,
            JpOrdering::LargestDegreeFirst,
            JpOrdering::SmallestDegreeLast,
        ] {
            let c = jp_color_ordered(&g, ordering, 4, &Counters::new());
            check_coloring(&g, &c).unwrap_or_else(|e| panic!("{ordering:?}: {e}"));
            assert!(color_count(&c) <= g.max_degree() + 1, "{ordering:?}");
        }
    }

    #[test]
    fn sl_uses_few_colors_on_star_of_cliques() {
        // A 2-degenerate-ish shape where peel order matters: a hub joined
        // to many triangles. SL must stay within a small palette even
        // though the hub degree is large.
        let mut edges = Vec::new();
        for t in 0..20u32 {
            let a = 1 + 2 * t;
            let b = a + 1;
            edges.push((0, a));
            edges.push((a, b));
            edges.push((0, b));
        }
        let g = from_edge_list(41, &edges);
        let c = jp_color_ordered(&g, JpOrdering::SmallestDegreeLast, 3, &Counters::new());
        check_coloring(&g, &c).unwrap();
        assert!(
            color_count(&c) <= 4,
            "SL should track degeneracy, used {}",
            color_count(&c)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = from_edge_list(50, &(0..49u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert_eq!(
            jp_color(&g, 4, &Counters::new()),
            jp_color(&g, 4, &Counters::new())
        );
    }
}

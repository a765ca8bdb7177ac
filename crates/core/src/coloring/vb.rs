//! Algorithm VB — vertex-based speculative coloring (Deveci et al.),
//! the multicore-CPU baseline.
//!
//! Each round, every uncolored vertex scans its neighbors' *current* colors,
//! marks the ones falling in its FORBIDDEN window `[offset, offset+s)`, and
//! speculatively takes the smallest free color in the window (bumping the
//! window by `s` when it is saturated). A detection pass then uncolors the
//! lower-id endpoint of every monochromatic edge; the survivors are final.
//!
//! Reading live colors (rather than double-buffering) is the behavior of
//! the published speculative colorers: within one worker's chunk the scan
//! is effectively sequential-greedy, so conflicts arise only from genuine
//! cross-thread races — which is why these algorithms converge in a handful
//! of rounds in practice.

use sb_graph::csr::{Graph, VertexId, INVALID};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u32;
use sb_par::counters::Counters;
use sb_par::frontier::Scratch;
use std::sync::atomic::Ordering;

/// Color every vertex in `worklist` (which must currently be uncolored),
/// respecting the existing colors in `color`, using FORBIDDEN windows of
/// `window` entries starting at `base`.
///
/// Colors are drawn from `base` upward. Pass `base = 0` for a fresh
/// coloring; COLOR-Degk passes `base = max(C_H) + 1` and `window = k + 1`.
///
/// VB has one form in both frontier modes: its retry list already holds
/// only the vertices still to color, compacted every round, and the
/// per-call `offset` array is borrowed from `scratch`. On one thread the
/// output is a function of the input alone; across threads VB is the
/// documented interleaving-dependent exception (it reads live colors).
#[allow(clippy::too_many_arguments)]
pub fn vb_extend(
    g: &Graph,
    view: EdgeView<'_>,
    color: &mut [u32],
    worklist: Vec<VertexId>,
    window: usize,
    base: u32,
    counters: &Counters,
    scratch: &mut Scratch,
) {
    assert!(window >= 1);
    assert_eq!(color.len(), g.num_vertices());
    let mut work = scratch.take_frontier();
    work.reset_from(&worklist);
    let mut offset = scratch.take_u32(g.num_vertices(), base);

    while !work.is_empty() {
        let round = counters.round_scope(work.len() as u64);
        let before = work.len();
        counters.add_rounds(1);
        counters.add_work(work.len() as u64);
        {
            let color_at = as_atomic_u32(color);

            // Speculative coloring pass.
            work.for_each(|v| {
                counters.add_edges(g.degree(v) as u64);
                let off = offset[v as usize];
                // FORBIDDEN window as a small bit mask (window is the average
                // degree or k+1 — tens of entries, so a few u64 words).
                let words = window.div_ceil(64);
                let mut forb = [0u64; 4];
                let mut heap_forb;
                let forb: &mut [u64] = if words <= 4 {
                    &mut forb[..words]
                } else {
                    heap_forb = vec![0u64; words];
                    &mut heap_forb
                };
                for (w, _) in view.arcs(g, v) {
                    let c = color_at[w as usize].load(Ordering::Relaxed);
                    if c != INVALID && c >= off {
                        let d = (c - off) as usize;
                        if d < window {
                            forb[d / 64] |= 1 << (d % 64);
                        }
                    }
                }
                let mut pick = INVALID;
                for (wi, &word) in forb.iter().enumerate() {
                    let limit = (window - wi * 64).min(64);
                    // Lowest clear bit; if it falls past the window edge,
                    // no free color exists in this word.
                    let b = (!word).trailing_zeros() as usize;
                    if b < limit {
                        pick = off + (wi * 64 + b) as u32;
                        break;
                    }
                }
                color_at[v as usize].store(pick, Ordering::Relaxed);
            });
        }

        // Window bump for saturated vertices (sequential over work is fine —
        // saturation is rare).
        for &v in work.as_slice() {
            if color[v as usize] == INVALID {
                offset[v as usize] += window as u32;
            }
        }

        // Conflict detection: the lower-id endpoint of a monochromatic edge
        // stays on the worklist. The filter reads the round's colors
        // unmodified; the survivors are uncolored afterwards.
        {
            let color_ref: &[u32] = color;
            work.compact(|v| {
                let c = color_ref[v as usize];
                if c == INVALID {
                    return true; // window saturated, retry with bumped offset
                }
                view.arcs(g, v)
                    .any(|(w, _)| color_ref[w as usize] == c && w > v)
            });
        }
        for &v in work.as_slice() {
            color[v as usize] = INVALID;
        }
        counters.finish_round(round, || (before - work.len()) as u64);
    }
    scratch.recycle_u32(offset);
    scratch.recycle_frontier(work);
}

/// Fresh VB coloring of the whole graph with the paper's CPU window size
/// (average degree).
pub fn vb_color(g: &Graph, counters: &Counters) -> Vec<u32> {
    let mut color = vec![INVALID; g.num_vertices()];
    let worklist: Vec<VertexId> = g.vertices().collect();
    let window = super::vb_window(g);
    let scratch = &mut Scratch::new();
    vb_extend(
        g,
        EdgeView::full(),
        &mut color,
        worklist,
        window,
        0,
        counters,
        scratch,
    );
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_coloring, color_count};
    use sb_graph::builder::from_edge_list;

    #[test]
    fn colors_a_path_with_two_colors_mostly() {
        let n = 100u32;
        let g = from_edge_list(
            n as usize,
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let c = vb_color(&g, &Counters::new());
        check_coloring(&g, &c).unwrap();
        assert!(color_count(&c) <= 3);
    }

    #[test]
    fn colors_complete_graph_with_exactly_n() {
        let n = 8u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        let g = from_edge_list(n as usize, &edges);
        let c = vb_color(&g, &Counters::new());
        check_coloring(&g, &c).unwrap();
        assert_eq!(color_count(&c), n as usize);
    }

    #[test]
    fn window_smaller_than_degree_still_terminates() {
        // K8 with window 2: every vertex needs offset bumps.
        let n = 8u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        let g = from_edge_list(n as usize, &edges);
        let mut color = vec![INVALID; 8];
        vb_extend(
            &g,
            EdgeView::full(),
            &mut color,
            g.vertices().collect(),
            2,
            0,
            &Counters::new(),
            &mut Scratch::new(),
        );
        check_coloring(&g, &color).unwrap();
    }

    #[test]
    fn respects_existing_colors_and_base() {
        // Star: center pre-colored 0; leaves colored from base 5 with window 3.
        let g = from_edge_list(4, &[(0, 1), (0, 2), (0, 3)]);
        let mut color = vec![INVALID; 4];
        color[0] = 0;
        vb_extend(
            &g,
            EdgeView::full(),
            &mut color,
            vec![1, 2, 3],
            3,
            5,
            &Counters::new(),
            &mut Scratch::new(),
        );
        check_coloring(&g, &color).unwrap();
        for &c in &color[1..4] {
            assert!(c >= 5, "leaf colored {c} below base");
        }
    }

    #[test]
    fn valid_on_random_graphs() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for trial in 0..6 {
            let n = 200 + 70 * trial;
            let edges: Vec<(u32, u32)> = (0..n * 5)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = from_edge_list(n, &edges);
            let c = vb_color(&g, &Counters::new());
            check_coloring(&g, &c).unwrap();
            // Greedy bound: at most Δ+1 colors.
            assert!(color_count(&c) <= g.max_degree() + 1);
        }
    }

    #[test]
    fn empty_worklist_noop() {
        let g = from_edge_list(3, &[(0, 1)]);
        let mut color = vec![7, 8, 9];
        vb_extend(
            &g,
            EdgeView::full(),
            &mut color,
            vec![],
            4,
            0,
            &Counters::new(),
            &mut Scratch::new(),
        );
        assert_eq!(color, vec![7, 8, 9]);
    }
}

//! Algorithm EB — edge-based coloring (Deveci et al.), the GPU baseline.
//!
//! Designed for SIMD machines: the speculative pass gives every uncolored
//! vertex the smallest color available in a 32-color window tracked as one
//! 32-bit availability integer; conflict detection is a flat kernel over
//! the *edges*, resetting the lower-id endpoint of every monochromatic
//! edge. Expressed as bulk-synchronous kernels on the GPU-sim executor.

use crate::common::FrontierMode;
use sb_graph::csr::{Graph, VertexId, INVALID};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u32;
use sb_par::bsp::BspExecutor;
use sb_par::frontier::Scratch;
use std::sync::atomic::Ordering;

/// Color every vertex in `targets` (currently uncolored), respecting
/// existing colors, with colors drawn from `base` upward.
///
/// Each round runs a speculative kernel over the targets, an edge kernel
/// that resets the lower-id endpoint of every monochromatic edge, and a
/// bookkeeping kernel. `mode` selects the lists those kernels sweep:
///
/// - `Dense` (the published SIMD colorer) keeps the target list whole,
///   skipping colored targets with an O(1) check. Conflict detection runs
///   device-wide over all `m` edges, and the third kernel counts the
///   targets still uncolored.
/// - `Compact` compacts the targets to the uncolored ones and runs
///   conflict detection over a *live edge list*: admitted edges whose
///   endpoints are both uncolored targets. That removes `Dense`'s
///   per-round `2m` edge charge; the third kernel compacts both lists.
///
/// Restricting detection to live edges is lossless because a
/// monochromatic edge can only arise between two vertices freshly colored
/// in the *same* round: a fresh pick lies in the picker's 32-color window
/// with every in-window stable neighbor color masked, and stable colors
/// outside the window cannot collide with an in-window pick. Both
/// endpoints of such an edge are uncolored targets at round start, i.e.
/// the edge is on the live list. This assumes the entry coloring is
/// proper on admitted edges among already-colored vertices — the
/// composites guarantee it (they reset conflicted vertices before
/// recoloring); `Dense` would silently repair an improper entry,
/// `Compact` does not.
#[allow(clippy::too_many_arguments)]
pub fn eb_extend(
    g: &Graph,
    view: EdgeView<'_>,
    color: &mut [u32],
    targets: Vec<VertexId>,
    base: u32,
    exec: &BspExecutor,
    mode: FrontierMode,
    scratch: &mut Scratch,
) {
    let n = g.num_vertices();
    assert_eq!(color.len(), n);
    let edges = g.edge_list();
    let mut offset = scratch.take_u32(n, base);
    let mut vfront = scratch.take_frontier();
    vfront.reset_from(&targets);
    // Compact's live edges; `Dense` sweeps the whole edge range instead.
    let mut efront = scratch.take_frontier();
    if mode == FrontierMode::Compact {
        let mut is_target = scratch.take_u8(n, 0);
        for &v in &targets {
            is_target[v as usize] = 1;
        }
        let color_ro: &[u32] = color;
        let is_t: &[u8] = &is_target;
        efront.reset_range(edges.len(), |e| {
            let [u, v] = edges[e as usize];
            view.admits(e)
                && is_t[u as usize] == 1
                && is_t[v as usize] == 1
                && color_ro[u as usize] == INVALID
                && color_ro[v as usize] == INVALID
        });
        scratch.recycle_u8(is_target);
    }
    let counters = exec.counters();
    let mut remaining = vfront.len();

    while remaining > 0 {
        let scope = counters.round_scope(remaining as u64);
        let before = remaining;
        {
            let color_at = as_atomic_u32(color);
            let off_at = as_atomic_u32(&mut offset);

            // Kernel 1: speculative assignment from the 32-bit window.
            exec.kernel_over(vfront.as_slice(), |v| {
                if color_at[v as usize].load(Ordering::Relaxed) != INVALID {
                    return;
                }
                counters.add_edges(g.degree(v) as u64);
                let off = off_at[v as usize].load(Ordering::Relaxed);
                let mut forbidden: u32 = 0;
                for (w, _) in view.arcs(g, v as VertexId) {
                    let c = color_at[w as usize].load(Ordering::Relaxed);
                    if c != INVALID && c >= off {
                        let d = c - off;
                        if d < 32 {
                            forbidden |= 1 << d;
                        }
                    }
                }
                if forbidden != u32::MAX {
                    let bit = (!forbidden).trailing_zeros();
                    color_at[v as usize].store(off + bit, Ordering::Relaxed);
                } else {
                    // Window saturated: widen next round.
                    off_at[v as usize].store(off + 32, Ordering::Relaxed);
                    color_at[v as usize].store(INVALID, Ordering::Relaxed);
                }
            });

            // Kernel 2: edge-based conflict detection; the lower-id endpoint
            // of a monochromatic edge is reset.
            let resolve = |e: usize| {
                let [u, v] = edges[e];
                let cu = color_at[u as usize].load(Ordering::Relaxed);
                if cu != INVALID && cu == color_at[v as usize].load(Ordering::Relaxed) {
                    color_at[u.min(v) as usize].store(INVALID, Ordering::Relaxed);
                }
            };
            match mode {
                FrontierMode::Dense => {
                    counters.add_edges(2 * edges.len() as u64);
                    exec.kernel(edges.len(), |e| {
                        if view.admits(e as u32) {
                            resolve(e);
                        }
                    });
                }
                FrontierMode::Compact => {
                    counters.add_edges(2 * efront.len() as u64);
                    exec.kernel_over(efront.as_slice(), |e| resolve(e as usize));
                }
            }
        }

        // Kernel 3: over both lists (`Dense` has no edge list), counting
        // the uncolored targets or compacting to them.
        counters.add_kernel((vfront.len() + efront.len()) as u64);
        let color_ro: &[u32] = color;
        remaining = match mode {
            FrontierMode::Dense => vfront
                .as_slice()
                .iter()
                .filter(|&&v| color_ro[v as usize] == INVALID)
                .count(),
            FrontierMode::Compact => {
                vfront.compact(|v| color_ro[v as usize] == INVALID);
                efront.compact(|e| {
                    let [u, v] = edges[e as usize];
                    color_ro[u as usize] == INVALID && color_ro[v as usize] == INVALID
                });
                vfront.len()
            }
        };
        exec.end_round();
        counters.finish_round(scope, || before.saturating_sub(remaining) as u64);
    }
    scratch.recycle_u32(offset);
    scratch.recycle_frontier(vfront);
    scratch.recycle_frontier(efront);
}

/// Fresh EB coloring of the whole graph.
pub fn eb_color(g: &Graph, exec: &BspExecutor) -> Vec<u32> {
    let mut color = vec![INVALID; g.num_vertices()];
    let worklist: Vec<VertexId> = g.vertices().collect();
    let (mode, scratch) = (FrontierMode::Dense, &mut Scratch::new());
    eb_extend(
        g,
        EdgeView::full(),
        &mut color,
        worklist,
        0,
        exec,
        mode,
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
    fn path_and_cycle() {
        let n = 50u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edge_list(n as usize, &edges);
        let c = eb_color(&g, &BspExecutor::new());
        check_coloring(&g, &c).unwrap();

        edges.push((n - 1, 0));
        let cy = from_edge_list(n as usize, &edges);
        let c = eb_color(&cy, &BspExecutor::new());
        check_coloring(&cy, &c).unwrap();
        assert!(color_count(&c) <= 3);
    }

    #[test]
    fn clique_larger_than_window_terminates() {
        // K40 needs 40 colors — more than one 32-bit window.
        let n = 40u32;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                edges.push((i, j));
            }
        }
        let g = from_edge_list(n as usize, &edges);
        let c = eb_color(&g, &BspExecutor::new());
        check_coloring(&g, &c).unwrap();
        assert_eq!(color_count(&c), 40);
    }

    #[test]
    fn respects_existing_colors() {
        let g = from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut color = vec![INVALID; 4];
        color[1] = 0;
        color[2] = 1;
        eb_extend(
            &g,
            EdgeView::full(),
            &mut color,
            vec![0, 3],
            0,
            &BspExecutor::new(),
            FrontierMode::Dense,
            &mut Scratch::new(),
        );
        check_coloring(&g, &color).unwrap();
        assert_eq!(color[1], 0);
        assert_eq!(color[2], 1);
    }

    #[test]
    fn kernel_accounting_present() {
        let g = from_edge_list(10, &(0..9u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let exec = BspExecutor::new();
        let _ = eb_color(&g, &exec);
        let s = exec.counters().snapshot();
        assert!(s.kernel_launches >= 3, "at least one round of 3 kernels");
        assert!(s.rounds >= 1);
    }

    #[test]
    fn valid_on_random_graphs() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = 150 + 80 * trial;
            let edges: Vec<(u32, u32)> = (0..n * 6)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = from_edge_list(n, &edges);
            let c = eb_color(&g, &BspExecutor::new());
            check_coloring(&g, &c).unwrap();
            assert!(color_count(&c) <= g.max_degree() + 1);
        }
    }
}

//! Algorithm EB — edge-based coloring (Deveci et al.), the GPU baseline.
//!
//! Designed for SIMD machines: the speculative pass gives every uncolored
//! vertex the smallest color available in a 32-color window tracked as one
//! 32-bit availability integer; conflict detection is a flat kernel over
//! the *edges*, resetting the lower-id endpoint of every monochromatic
//! edge. Expressed as bulk-synchronous kernels on the GPU-sim executor.

use sb_graph::csr::{Graph, VertexId, INVALID};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u32;
use sb_par::bsp::BspExecutor;
use sb_par::frontier::Scratch;
use std::sync::atomic::Ordering;

/// Color every vertex in `targets` (currently uncolored), respecting
/// existing colors, with colors drawn from `base` upward.
///
/// Full-sweep rounds: every kernel runs device-wide over the vertex (or
/// edge) range, skipping non-targets with an O(1) check — the structure of
/// the published SIMD colorer.
pub fn eb_extend(
    g: &Graph,
    view: EdgeView<'_>,
    color: &mut [u32],
    targets: Vec<VertexId>,
    base: u32,
    exec: &BspExecutor,
) {
    let n = g.num_vertices();
    assert_eq!(color.len(), n);
    let mut offset: Vec<u32> = vec![base; n];
    let mut remaining = targets.len();
    let counters = exec.counters();

    while remaining > 0 {
        let scope = counters.round_scope(remaining as u64);
        let before = remaining;
        {
            let color_at = as_atomic_u32(color);
            let off_at = as_atomic_u32(&mut offset);

            // Kernel 1: speculative assignment from the 32-bit window,
            // swept over the (static) target list each round.
            exec.kernel_over(&targets, |v| {
                if color_at[v as usize].load(Ordering::Relaxed) != INVALID {
                    return;
                }
                exec.counters().add_edges(g.degree(v) as u64);
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
            let edges = g.edge_list();
            exec.counters().add_edges(2 * edges.len() as u64);
            exec.kernel(edges.len(), |e| {
                if !view.admits(e as u32) {
                    return;
                }
                let [u, v] = edges[e];
                let cu = color_at[u as usize].load(Ordering::Relaxed);
                if cu != INVALID && cu == color_at[v as usize].load(Ordering::Relaxed) {
                    color_at[u.min(v) as usize].store(INVALID, Ordering::Relaxed);
                }
            });
        }

        // Kernel 3: count of still-uncolored targets.
        remaining = {
            let color_ref: &[u32] = color;
            exec.counters().add_kernel(targets.len() as u64);
            targets
                .iter()
                .filter(|&&v| color_ref[v as usize] == INVALID)
                .count()
        };
        exec.end_round();
        counters.finish_round(scope, || before.saturating_sub(remaining) as u64);
    }
}

/// Frontier form of [`eb_extend`]: the speculative kernel runs over a
/// compacted worklist of still-uncolored targets, and conflict detection
/// runs over a *live edge list* — admitted edges whose endpoints are both
/// uncolored targets — instead of the full device-wide edge sweep, killing
/// the dense form's per-round `2m` edge charge.
///
/// Restricting detection to live edges is lossless because a monochromatic
/// edge can only arise between two vertices freshly colored in the *same*
/// round: a fresh pick lies in the picker's 32-color window with every
/// in-window stable neighbor color masked, and stable colors outside the
/// window cannot collide with an in-window pick. Both endpoints of such an
/// edge are uncolored targets at round start, i.e. the edge is on the live
/// list. This assumes the entry coloring is proper on admitted edges among
/// already-colored vertices — the composites guarantee it (they reset
/// conflicted vertices before recoloring); the dense form would silently
/// repair an improper entry, this form does not.
pub(crate) fn eb_extend_frontier(
    g: &Graph,
    view: EdgeView<'_>,
    color: &mut [u32],
    targets: Vec<VertexId>,
    base: u32,
    exec: &BspExecutor,
    scratch: &mut Scratch,
) {
    let n = g.num_vertices();
    assert_eq!(color.len(), n);
    let mut offset = scratch.take_u32(n, base);
    let mut is_target = scratch.take_u8(n, 0);
    for &v in &targets {
        is_target[v as usize] = 1;
    }
    let mut vfront = scratch.take_frontier();
    vfront.reset_from(&targets);
    let edges = g.edge_list();
    let mut efront = scratch.take_frontier();
    {
        let color_ro: &[u32] = color;
        let is_t: &[u8] = &is_target;
        efront.reset_range(edges.len(), |e| {
            if !view.admits(e) {
                return false;
            }
            let [u, v] = edges[e as usize];
            is_t[u as usize] == 1
                && is_t[v as usize] == 1
                && color_ro[u as usize] == INVALID
                && color_ro[v as usize] == INVALID
        });
    }
    let counters = exec.counters();

    while !vfront.is_empty() {
        let before = vfront.len();
        let scope = counters.round_scope(before as u64);
        {
            let color_at = as_atomic_u32(color);
            let off_at = as_atomic_u32(&mut offset);

            // Kernel 1: speculative assignment over the live targets (every
            // one is uncolored by the frontier invariant).
            exec.kernel_over(vfront.as_slice(), |v| {
                exec.counters().add_edges(g.degree(v) as u64);
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

            // Kernel 2: conflict detection over the live edges only.
            exec.counters().add_edges(2 * efront.len() as u64);
            exec.kernel_over(efront.as_slice(), |e| {
                let [u, v] = edges[e as usize];
                let cu = color_at[u as usize].load(Ordering::Relaxed);
                if cu != INVALID && cu == color_at[v as usize].load(Ordering::Relaxed) {
                    color_at[u.min(v) as usize].store(INVALID, Ordering::Relaxed);
                }
            });
        }

        // Kernel 3: compaction of both live lists — takes the place of the
        // dense form's uncolored-count kernel.
        exec.counters()
            .add_kernel((vfront.len() + efront.len()) as u64);
        {
            let color_ro: &[u32] = color;
            vfront.compact(|v| color_ro[v as usize] == INVALID);
            efront.compact(|e| {
                let [u, v] = edges[e as usize];
                color_ro[u as usize] == INVALID && color_ro[v as usize] == INVALID
            });
        }
        exec.end_round();
        counters.finish_round(scope, || (before - vfront.len()) as u64);
    }
    scratch.recycle_u32(offset);
    scratch.recycle_u8(is_target);
    scratch.recycle_frontier(vfront);
    scratch.recycle_frontier(efront);
}

/// Fresh EB coloring of the whole graph.
pub fn eb_color(g: &Graph, exec: &BspExecutor) -> Vec<u32> {
    let mut color = vec![INVALID; g.num_vertices()];
    let worklist: Vec<VertexId> = g.vertices().collect();
    eb_extend(g, EdgeView::full(), &mut color, worklist, 0, exec);
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

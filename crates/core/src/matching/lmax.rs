//! Algorithm LMAX — the GPU matching baseline (Birn et al.).
//!
//! Every vertex points at its heaviest live incident edge (weights are
//! random, fixed per seed); an edge whose two endpoints point at each other
//! is a local maximum and enters the matching. Expressed as flat
//! device-wide kernels per round (point, match) on the bulk-synchronous
//! executor — full sweeps over the vertex range each round, the structure
//! of the era's CUDA codes (and the cost structure the decomposition-based
//! composites attack).
//!
//! Unlike GM's lowest-id rule, random weights give a constant expected
//! fraction of matches per round, so LMAX needs O(log n) rounds; the paper
//! exploits the *similarity* of the two proposal models to transfer the
//! MM-Rand conclusions from CPU to GPU.

use sb_graph::csr::{Graph, INVALID};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u32;
use sb_par::bsp::BspExecutor;
use sb_par::frontier::Scratch;
use sb_par::rng::hash2;
use std::sync::atomic::Ordering;

/// Extend `mate` to a maximal matching of the subgraph of `g` induced by
/// unmatched vertices passing `allowed`, using local-max rounds on the
/// BSP executor.
pub fn lmax_extend(
    g: &Graph,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    seed: u64,
    exec: &BspExecutor,
) {
    lmax_extend_with_ids(g, view, mate, allowed, seed, exec, None);
}

/// [`lmax_extend`] with an explicit edge-identity map: `weight_ids[e]` is
/// the id to key edge `e`'s random weight by (and to break weight ties
/// with). Callers running LMAX on a *materialized* subgraph pass the
/// new-id → original-id map (`EdgeView::admitted_edge_ids`) so the solve
/// is byte-identical to running zero-copy against the masked view of the
/// parent: materialization renumbers edges by rank among the kept ones —
/// a strictly increasing map — so per-edge weights and tie-break order
/// both transfer exactly. `None` keys weights by the local edge id.
pub(crate) fn lmax_extend_with_ids(
    g: &Graph,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    seed: u64,
    exec: &BspExecutor,
    weight_ids: Option<&[u32]>,
) {
    let n = g.num_vertices();
    assert_eq!(mate.len(), n);
    if let Some(ids) = weight_ids {
        assert_eq!(ids.len(), g.num_edges());
    }
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    let weight = |e: u32| {
        let id = weight_ids.map_or(e, |ids| ids[e as usize]);
        (hash2(seed, id as u64), id)
    };

    // The vertex set of the (sub)graph being matched, fixed at entry (the
    // composites pass already-reduced instances; there is no per-round
    // worklist compaction).
    let participants: Vec<u32> = (0..n as u32)
        .filter(|&v| mate[v as usize] == INVALID && allow(v as usize) && view.has_arc(g, v))
        .collect();
    let mut pointer = vec![INVALID; n];
    let counters = exec.counters();
    let unmatched = |mate: &[u32]| {
        participants
            .iter()
            .filter(|&&v| mate[v as usize] == INVALID)
            .count() as u64
    };

    while !participants.is_empty() {
        let active = if counters.tracing() {
            unmatched(mate)
        } else {
            0
        };
        let scope = counters.round_scope(active);
        let any_pointer;
        {
            let mate_at = as_atomic_u32(mate);
            let ptr_at = as_atomic_u32(&mut pointer);

            // Kernel 1: every unmatched vertex points at its heaviest live
            // incident edge; the device-wide flag records whether any live
            // edge remains.
            let flag = std::sync::atomic::AtomicBool::new(false);
            exec.kernel_over(&participants, |v| {
                if mate_at[v as usize].load(Ordering::Relaxed) != INVALID {
                    ptr_at[v as usize].store(INVALID, Ordering::Relaxed);
                    return;
                }
                exec.counters().add_edges(g.degree(v) as u64);
                let mut best = INVALID;
                let mut best_key = (0u64, 0u32);
                let mut first = true;
                for (w, e) in view.arcs(g, v) {
                    if mate_at[w as usize].load(Ordering::Relaxed) == INVALID && allow(w as usize) {
                        let key = weight(e);
                        if first || key > best_key {
                            best_key = key;
                            best = w;
                            first = false;
                        }
                    }
                }
                ptr_at[v as usize].store(best, Ordering::Relaxed);
                if best != INVALID {
                    flag.store(true, Ordering::Relaxed);
                }
            });
            any_pointer = flag.load(Ordering::Relaxed);

            // Kernel 2: mutual pointers match.
            if any_pointer {
                exec.kernel_over(&participants, |v| {
                    if mate_at[v as usize].load(Ordering::Relaxed) != INVALID {
                        return;
                    }
                    let p = ptr_at[v as usize].load(Ordering::Relaxed);
                    if p != INVALID && v < p && ptr_at[p as usize].load(Ordering::Relaxed) == v {
                        mate_at[v as usize].store(p, Ordering::Relaxed);
                        mate_at[p as usize].store(v, Ordering::Relaxed);
                    }
                });
            }
        }
        exec.end_round();
        // A no-pointer sweep settles nothing and only observes that the
        // solve is finished: mark it vacuous so cross-mode round
        // accounting can discount it (the frontier form skips this sweep
        // whenever its worklist empties first).
        counters.finish_round_flagged(scope, !any_pointer, || {
            active.saturating_sub(unmatched(mate))
        });
        if !any_pointer {
            break;
        }
    }
}

/// Frontier form of [`lmax_extend`]: the same point/match kernels per
/// round, launched over a compacted worklist of still-unmatched
/// participants, with the `pointer` array borrowed from `scratch`.
///
/// Byte-identical to [`lmax_extend`] for any seed and thread count: edge
/// weights are keyed by edge id (unaffected by compaction), and a kernel-2
/// read of `pointer[p]` only ever targets a vertex that was unmatched at
/// round start — i.e. a frontier member with a fresh kernel-1 pointer — so
/// the stale pointers of matched vertices are never consulted. The
/// productive round structure is preserved exactly; the dense form's
/// final no-pointer sweep is skipped whenever the worklist empties first,
/// and is marked `vacuous` in the trace when either form does run it.
/// Compaction is charged as a third kernel over the live set.
pub(crate) fn lmax_extend_frontier(
    g: &Graph,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    seed: u64,
    exec: &BspExecutor,
    scratch: &mut Scratch,
) {
    let n = g.num_vertices();
    assert_eq!(mate.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    let weight = |e: u32| (hash2(seed, e as u64), e);

    let mut live = scratch.take_frontier();
    {
        let mate_ro: &[u32] = mate;
        live.reset_range(n, |v| {
            mate_ro[v as usize] == INVALID && allow(v as usize) && view.has_arc(g, v)
        });
    }
    let mut pointer = scratch.take_u32(n, INVALID);
    let counters = exec.counters();

    while !live.is_empty() {
        // Every live vertex is unmatched by the frontier invariant, so the
        // dense form's tracing-only unmatched count is just the live count.
        let active = live.len() as u64;
        let scope = counters.round_scope(active);
        let any_pointer;
        {
            let mate_at = as_atomic_u32(mate);
            let ptr_at = as_atomic_u32(&mut pointer);

            // Kernel 1: point at the heaviest live incident edge.
            let flag = std::sync::atomic::AtomicBool::new(false);
            exec.kernel_over(live.as_slice(), |v| {
                exec.counters().add_edges(g.degree(v) as u64);
                let mut best = INVALID;
                let mut best_key = (0u64, 0u32);
                let mut first = true;
                for (w, e) in view.arcs(g, v) {
                    if mate_at[w as usize].load(Ordering::Relaxed) == INVALID && allow(w as usize) {
                        let key = weight(e);
                        if first || key > best_key {
                            best_key = key;
                            best = w;
                            first = false;
                        }
                    }
                }
                ptr_at[v as usize].store(best, Ordering::Relaxed);
                if best != INVALID {
                    flag.store(true, Ordering::Relaxed);
                }
            });
            any_pointer = flag.load(Ordering::Relaxed);

            // Kernel 2: mutual pointers match.
            if any_pointer {
                exec.kernel_over(live.as_slice(), |v| {
                    if mate_at[v as usize].load(Ordering::Relaxed) != INVALID {
                        return;
                    }
                    let p = ptr_at[v as usize].load(Ordering::Relaxed);
                    if p != INVALID && v < p && ptr_at[p as usize].load(Ordering::Relaxed) == v {
                        mate_at[v as usize].store(p, Ordering::Relaxed);
                        mate_at[p as usize].store(v, Ordering::Relaxed);
                    }
                });
            }
        }
        if any_pointer {
            // Kernel 3: frontier compaction (the dense form instead rescans
            // the full participant list inside the next kernel 1).
            exec.counters().add_kernel(live.len() as u64);
            let mate_ro: &[u32] = mate;
            live.compact(|v| mate_ro[v as usize] == INVALID);
        }
        exec.end_round();
        counters.finish_round_flagged(scope, !any_pointer, || active - live.len() as u64);
        if !any_pointer {
            break;
        }
    }
    scratch.recycle_u32(pointer);
    scratch.recycle_frontier(live);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_maximal_matching, matching_cardinality};
    use sb_graph::builder::from_edge_list;

    fn run_lmax(g: &Graph, seed: u64) -> (Vec<u32>, u64) {
        let exec = BspExecutor::new();
        let mut mate = vec![INVALID; g.num_vertices()];
        lmax_extend(g, EdgeView::full(), &mut mate, None, seed, &exec);
        (mate, exec.counters().rounds())
    }

    #[test]
    fn single_edge_and_triangle() {
        let g = from_edge_list(2, &[(0, 1)]);
        let (mate, _) = run_lmax(&g, 1);
        assert_eq!(mate, vec![1, 0]);

        let t = from_edge_list(3, &[(0, 1), (1, 2), (0, 2)]);
        let (mate, _) = run_lmax(&t, 1);
        check_maximal_matching(&t, &mate).unwrap();
        assert_eq!(matching_cardinality(&mate), 1);
    }

    #[test]
    fn maximal_on_random_graphs_all_seeds() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..6 {
            let n = 200 + 50 * trial;
            let edges: Vec<(u32, u32)> = (0..n * 4)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = from_edge_list(n, &edges);
            let (mate, _) = run_lmax(&g, trial as u64);
            check_maximal_matching(&g, &mate).unwrap();
        }
    }

    #[test]
    fn logarithmic_rounds_on_path() {
        // Random weights avoid GM's linear-round pathology on paths.
        let n: u32 = 512;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edge_list(n as usize, &edges);
        let (mate, rounds) = run_lmax(&g, 3);
        check_maximal_matching(&g, &mate).unwrap();
        assert!(
            rounds < 64,
            "local-max on a path should need O(log n) rounds, got {rounds}"
        );
    }

    #[test]
    fn respects_mask_and_partial_matching() {
        let g = from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut mate = vec![INVALID; 5];
        mate[0] = 1;
        mate[1] = 0;
        let allowed = vec![true, true, true, true, false];
        let exec = BspExecutor::new();
        lmax_extend(&g, EdgeView::full(), &mut mate, Some(&allowed), 9, &exec);
        // (0,1) untouched; only (2,3) can match; 4 is masked out.
        assert_eq!(mate, vec![1, 0, 3, 2, INVALID]);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = from_edge_list(64, &(0..63u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let (a, _) = run_lmax(&g, 5);
        let (b, _) = run_lmax(&g, 5);
        assert_eq!(a, b);
    }
}

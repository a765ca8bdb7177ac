//! Algorithm LMAX — the GPU matching baseline (Birn et al.).
//!
//! Every vertex points at its heaviest live incident edge (weights are
//! random, fixed per seed); an edge whose two endpoints point at each other
//! is a local maximum and enters the matching. Expressed as flat
//! device-wide kernels per round (point, match) on the bulk-synchronous
//! executor. In `FrontierMode::Dense` every round sweeps the full vertex
//! range, the structure of the era's CUDA codes (and the cost structure
//! the decomposition-based composites attack).
//!
//! Unlike GM's lowest-id rule, random weights give a constant expected
//! fraction of matches per round, so LMAX needs O(log n) rounds; the paper
//! exploits the *similarity* of the two proposal models to transfer the
//! MM-Rand conclusions from CPU to GPU.

use crate::common::FrontierMode;
use sb_graph::csr::{Graph, INVALID};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u32;
use sb_par::bsp::BspExecutor;
use sb_par::frontier::{Frontier, Scratch};
use sb_par::rng::hash2;
use std::sync::atomic::Ordering;

/// Extend `mate` to a maximal matching of the subgraph of `g` restricted
/// to the edges admitted by `view` and the unmatched vertices passing
/// `allowed`, using local-max rounds on the BSP executor.
///
/// `weight_ids[e]`, when given, is the id to key edge `e`'s random weight
/// by (and to break weight ties with). A caller running LMAX on a
/// *materialized* subgraph passes the new-id → original-id map
/// (`EdgeView::admitted_edge_ids`), so the solve is byte-identical to
/// running zero-copy against the masked view of the parent:
/// materialization renumbers edges by rank among the kept ones — a
/// strictly increasing map — so per-edge weights and tie-break order both
/// transfer exactly. `None` keys weights by the local edge id.
///
/// Each round launches the point and match kernels over the live list.
/// `mode` selects what happens to that list between rounds:
///
/// - `Dense` (the era's CUDA structure) keeps it whole: every round sweeps
///   the participant list fixed at entry, and kernel 1's matched check
///   skips settled vertices.
/// - `Compact` drops matched vertices after every productive round,
///   charged as a third kernel over the live set. A kernel-2 read of
///   `pointer[p]` only ever targets a vertex unmatched at round start — a
///   live vertex with a fresh kernel-1 pointer — so stale pointers are
///   never consulted and the matching is byte-identical to `Dense` for
///   any seed and thread count.
///
/// A round in which no vertex finds a live edge settles nothing and only
/// observes that the solve is finished. It is marked vacuous in the trace,
/// and `Compact` skips it whenever its list empties first.
#[allow(clippy::too_many_arguments)]
pub fn lmax_extend(
    g: &Graph,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    seed: u64,
    weight_ids: Option<&[u32]>,
    exec: &BspExecutor,
    mode: FrontierMode,
    scratch: &mut Scratch,
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

    let mut live = scratch.take_frontier();
    {
        let mate_ro: &[u32] = mate;
        live.reset_range(n, |v| {
            mate_ro[v as usize] == INVALID && allow(v as usize) && view.has_arc(g, v)
        });
    }
    let mut pointer = scratch.take_u32(n, INVALID);
    let counters = exec.counters();
    // Compact's list holds only unmatched vertices between rounds.
    let unmatched = |live: &Frontier, mate: &[u32]| match mode {
        FrontierMode::Dense => live
            .as_slice()
            .iter()
            .filter(|&&v| mate[v as usize] == INVALID)
            .count() as u64,
        FrontierMode::Compact => live.len() as u64,
    };

    while !live.is_empty() {
        let active = if counters.tracing() {
            unmatched(&live, mate)
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
            exec.kernel_over(live.as_slice(), |v| {
                if mate_at[v as usize].load(Ordering::Relaxed) != INVALID {
                    ptr_at[v as usize].store(INVALID, Ordering::Relaxed);
                    return;
                }
                counters.add_edges(g.degree(v) as u64);
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
        if any_pointer && mode == FrontierMode::Compact {
            // Kernel 3: frontier compaction.
            counters.add_kernel(live.len() as u64);
            let mate_ro: &[u32] = mate;
            live.compact(|v| mate_ro[v as usize] == INVALID);
        }
        exec.end_round();
        counters.finish_round_flagged(scope, !any_pointer, || {
            active.saturating_sub(unmatched(&live, mate))
        });
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

    /// LMAX on the full view from `mate` in `mode`; returns its rounds.
    fn lmax(
        g: &Graph,
        mate: &mut [u32],
        allowed: Option<&[bool]>,
        seed: u64,
        mode: FrontierMode,
    ) -> u64 {
        let (exec, full, s) = (BspExecutor::new(), EdgeView::full(), &mut Scratch::new());
        lmax_extend(g, full, mate, allowed, seed, None, &exec, mode, s);
        exec.counters().rounds()
    }

    /// LMAX from an empty matching in both modes, which must agree;
    /// returns the dense run's matching and rounds.
    fn run_lmax(g: &Graph, seed: u64) -> (Vec<u32>, u64) {
        let [dense, compact] = [FrontierMode::Dense, FrontierMode::Compact].map(|mode| {
            let mut mate = vec![INVALID; g.num_vertices()];
            let rounds = lmax(g, &mut mate, None, seed, mode);
            (mate, rounds)
        });
        assert_eq!(dense.0, compact.0);
        dense
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
        lmax(&g, &mut mate, Some(&allowed), 9, FrontierMode::Dense);
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

//! Algorithm GM — the multicore-CPU matching baseline.
//!
//! The paper's implementation of the Blelloch et al. greedy matcher: every
//! unmatched vertex proposes to its lowest-id unmatched neighbor; mutual
//! proposals become matches; repeat. Proposal chains with strictly
//! decreasing ids guarantee at least one match per round, but long chains
//! match only one edge each — the *vain tendency* (§III-C) that makes GM
//! take ~14 000 rounds on the rgg instances and that MM-Rand's
//! sparsification breaks.
//!
//! [`gm_random_extend`] is the random-edge-priority variant closer to the
//! original Blelloch formulation, kept as an ablation: it shows the vain
//! tendency is a property of the deterministic lowest-id rule.

use crate::common::FrontierMode;
use rayon::prelude::*;
use sb_graph::csr::{Graph, VertexId, INVALID};
use sb_graph::view::EdgeView;
use sb_par::atomic::{as_atomic_u32, as_atomic_usize};
use sb_par::counters::Counters;
use sb_par::frontier::Scratch;
use sb_par::rng::hash2;
use std::sync::atomic::Ordering;

/// Extend `mate` to a maximal matching of the subgraph of `g` restricted to
/// the edges admitted by `view` and the unmatched vertices passing
/// `allowed` (lowest-id proposal rule).
///
/// Each round every live vertex holds a proposal to its lowest-id live
/// neighbor, mutual proposals match, and the live set is compacted to the
/// unmatched vertices that still have a proposal. `mode` selects which
/// live vertices recompute their proposal:
///
/// - `Dense` (the published form) rescans every live vertex each round.
///   On the rgg instances GM runs ~14 000 rounds, so that rescan dominates
///   `edges_scanned`.
/// - `Compact` caches proposals across rounds and rescans a vertex only
///   when it is *dirty*: a neighbor matched since its proposal was
///   computed. Every fresh match scatters dirty marks over its
///   neighborhood, one scatter per vertex over the whole run. A clean
///   vertex's cached proposal is what the rescan would produce — its dead
///   prefix stays dead and its target is still unmatched, or it would have
///   been dirtied — so the matching is byte-identical to `Dense` at any
///   thread count, while `edges_scanned` drops from O(rounds · live) to
///   O(m).
pub fn gm_extend(
    g: &Graph,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    counters: &Counters,
    mode: FrontierMode,
    scratch: &mut Scratch,
) {
    let n = g.num_vertices();
    assert_eq!(mate.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);

    // Live vertices: unmatched, allowed, with at least one admitted arc.
    let mut live = scratch.take_frontier();
    {
        let mate_ro: &[u32] = mate;
        live.reset_range(n, |v| {
            mate_ro[v as usize] == INVALID && allow(v as usize) && view.has_arc(g, v)
        });
    }
    // Proposal target per vertex (only entries of live vertices are read).
    let mut proposal = scratch.take_u32(n, INVALID);
    // Cursor into the sorted adjacency list: matched/disallowed neighbors
    // never come back, so each vertex's scan is amortized O(degree).
    let mut cursor = scratch.take_usize(n, 0);
    // Compact's cache state: the proposal may be stale. All start dirty.
    let dirty = scratch.take_marks(n, true);

    while !live.is_empty() {
        let round = counters.round_scope(live.len() as u64);
        let before = live.len();
        counters.add_rounds(1);
        counters.add_work(live.len() as u64);
        {
            let mate_at = as_atomic_u32(mate);
            let prop_at = as_atomic_u32(&mut proposal);
            let cur_at = as_atomic_usize(&mut cursor);
            let dirty = &dirty;

            // Phase 1: propose to the lowest-id live neighbor. Non-admitted
            // arcs are skipped permanently (the view is static).
            let propose = |v: u32| {
                let nbrs = g.neighbors(v);
                let eids = g.edge_ids_of(v);
                let mut c = cur_at[v as usize].load(Ordering::Relaxed);
                let mut scanned = 0u64;
                while c < nbrs.len() {
                    let w = nbrs[c] as usize;
                    if view.admits(eids[c])
                        && mate_at[w].load(Ordering::Relaxed) == INVALID
                        && allow(w)
                    {
                        break;
                    }
                    c += 1;
                    scanned += 1;
                }
                counters.add_edges(scanned + 1);
                cur_at[v as usize].store(c, Ordering::Relaxed);
                let p = if c < nbrs.len() { nbrs[c] } else { INVALID };
                prop_at[v as usize].store(p, Ordering::Relaxed);
            };
            match mode {
                FrontierMode::Dense => live.for_each(propose),
                FrontierMode::Compact => live.for_each(|v| {
                    if dirty.get(v) {
                        dirty.put(v, false);
                        propose(v);
                    }
                }),
            }

            // Phase 2: mutual proposals match. Pairs are disjoint, so the
            // two stores per pair race with nothing.
            live.for_each(|v| {
                let p = prop_at[v as usize].load(Ordering::Relaxed);
                if p != INVALID && v < p && prop_at[p as usize].load(Ordering::Relaxed) == v {
                    mate_at[v as usize].store(p, Ordering::Relaxed);
                    mate_at[p as usize].store(v, Ordering::Relaxed);
                }
            });

            // Phase 2b (Compact): every vertex matched this round dirties
            // its neighbors' cached proposals. Each vertex matches at most
            // once, so these scatters total O(m) over the whole run.
            if mode == FrontierMode::Compact {
                live.for_each(|v| {
                    if mate_at[v as usize].load(Ordering::Relaxed) == INVALID {
                        return;
                    }
                    counters.add_edges(g.degree(v) as u64);
                    for (w, _) in view.arcs(g, v) {
                        dirty.put(w, true);
                    }
                });
            }
        }

        // Phase 3: drop matched vertices and vertices with no live neighbor
        // (their neighborhoods can only shrink further).
        {
            let mate_ro: &[u32] = mate;
            let prop_ro: &[u32] = &proposal;
            live.compact(|v| mate_ro[v as usize] == INVALID && prop_ro[v as usize] != INVALID);
        }
        counters.finish_round(round, || (before - live.len()) as u64);
    }
    scratch.recycle_u32(proposal);
    scratch.recycle_usize(cursor);
    scratch.recycle_marks(dirty);
    scratch.recycle_frontier(live);
}

/// The random-edge-priority variant (Blelloch-style): each vertex proposes
/// along its minimum-weight live incident edge, weights fixed per `seed`.
pub fn gm_random_extend(
    g: &Graph,
    view: EdgeView<'_>,
    mate: &mut [u32],
    allowed: Option<&[bool]>,
    seed: u64,
    counters: &Counters,
) {
    let n = g.num_vertices();
    assert_eq!(mate.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    let weight = |e: u32| hash2(seed, e as u64);

    let mut live: Vec<VertexId> = (0..n)
        .filter(|&v| mate[v] == INVALID && allow(v) && view.has_arc(g, v as VertexId))
        .map(|v| v as VertexId)
        .collect();
    let mut proposal = vec![INVALID; n];

    while !live.is_empty() {
        let round = counters.round_scope(live.len() as u64);
        let before = live.len();
        counters.add_rounds(1);
        counters.add_work(live.len() as u64);
        {
            let mate_at = as_atomic_u32(mate);
            let prop_at = as_atomic_u32(&mut proposal);

            live.par_iter().for_each(|&v| {
                counters.add_edges(g.degree(v) as u64);
                let mut best = INVALID;
                let mut best_key = (u64::MAX, u32::MAX);
                for (w, e) in view.arcs(g, v) {
                    if mate_at[w as usize].load(Ordering::Relaxed) == INVALID && allow(w as usize) {
                        let key = (weight(e), e);
                        if key < best_key {
                            best_key = key;
                            best = w;
                        }
                    }
                }
                prop_at[v as usize].store(best, Ordering::Relaxed);
            });

            live.par_iter().for_each(|&v| {
                let p = prop_at[v as usize].load(Ordering::Relaxed);
                if p != INVALID && v < p && prop_at[p as usize].load(Ordering::Relaxed) == v {
                    mate_at[v as usize].store(p, Ordering::Relaxed);
                    mate_at[p as usize].store(v, Ordering::Relaxed);
                }
            });
        }
        live = live
            .into_par_iter()
            .filter(|&v| mate[v as usize] == INVALID && proposal[v as usize] != INVALID)
            .collect();
        counters.finish_round(round, || (before - live.len()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_maximal_matching, matching_cardinality};
    use sb_graph::builder::from_edge_list;

    /// GM on the full view from `mate` in `mode`; returns its counters.
    fn gm(g: &Graph, mate: &mut [u32], allowed: Option<&[bool]>, mode: FrontierMode) -> Counters {
        let (c, s) = (Counters::new(), &mut Scratch::new());
        gm_extend(g, EdgeView::full(), mate, allowed, &c, mode, s);
        c
    }

    /// GM from an empty matching in both modes, which must agree.
    fn run_gm(g: &Graph) -> Vec<u32> {
        let [dense, compact] = [FrontierMode::Dense, FrontierMode::Compact].map(|mode| {
            let mut mate = vec![INVALID; g.num_vertices()];
            gm(g, &mut mate, None, mode);
            mate
        });
        assert_eq!(dense, compact);
        dense
    }

    #[test]
    fn path_matches_maximally() {
        let g = from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mate = run_gm(&g);
        check_maximal_matching(&g, &mate).unwrap();
        assert!(matching_cardinality(&mate) >= 2);
    }

    #[test]
    fn single_edge() {
        let g = from_edge_list(2, &[(0, 1)]);
        let mate = run_gm(&g);
        assert_eq!(mate, vec![1, 0]);
    }

    #[test]
    fn star_matches_exactly_one() {
        let g = from_edge_list(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mate = run_gm(&g);
        check_maximal_matching(&g, &mate).unwrap();
        assert_eq!(matching_cardinality(&mate), 1);
    }

    #[test]
    fn respects_allowed_mask() {
        // Only vertices {2, 3} allowed: the matching may touch nothing else.
        let g = from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut mate = vec![INVALID; 4];
        let allowed = vec![false, false, true, true];
        gm(&g, &mut mate, Some(&allowed), FrontierMode::Dense);
        assert_eq!(mate, vec![INVALID, INVALID, 3, 2]);
    }

    #[test]
    fn extends_existing_matching_without_touching_it() {
        let g = from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut mate = vec![INVALID; 4];
        mate[1] = 2;
        mate[2] = 1;
        gm(&g, &mut mate, None, FrontierMode::Dense);
        // (1,2) already matched; 0 and 3 have no unmatched neighbors.
        assert_eq!(mate, vec![INVALID, 2, 1, INVALID]);
        check_maximal_matching(&g, &mate).unwrap();
    }

    #[test]
    fn vain_tendency_visible_on_path() {
        // Lowest-id proposals serialize along an increasing-id path: rounds
        // grow linearly. This is the measured pathology the paper describes.
        let n = 64;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edge_list(n as usize, &edges);
        let mut mate = vec![INVALID; n as usize];
        let c = gm(&g, &mut mate, None, FrontierMode::Dense);
        check_maximal_matching(&g, &mate).unwrap();
        assert!(
            c.rounds() >= (n as u64) / 4,
            "expected vain-tendency round blowup, got {} rounds",
            c.rounds()
        );

        // The random-priority variant should need far fewer rounds.
        let c2 = Counters::new();
        let mut mate2 = vec![INVALID; n as usize];
        gm_random_extend(&g, EdgeView::full(), &mut mate2, None, 7, &c2);
        check_maximal_matching(&g, &mate2).unwrap();
        assert!(
            c2.rounds() * 2 < c.rounds(),
            "random priorities ({}) should beat lowest-id ({})",
            c2.rounds(),
            c.rounds()
        );
    }

    #[test]
    fn random_variant_valid_on_random_graphs() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for trial in 0..6 {
            let n = 150 + trial * 60;
            let edges: Vec<(u32, u32)> = (0..n * 3)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = from_edge_list(n, &edges);
            let mut mate = vec![INVALID; n];
            gm_random_extend(
                &g,
                EdgeView::full(),
                &mut mate,
                None,
                trial as u64,
                &Counters::new(),
            );
            check_maximal_matching(&g, &mate).unwrap();
            check_maximal_matching(&g, &run_gm(&g)).unwrap();
        }
    }

    #[test]
    fn empty_graph_noop() {
        let g = Graph::empty(3);
        let mut mate = vec![INVALID; 3];
        gm(&g, &mut mate, None, FrontierMode::Dense);
        assert_eq!(mate, vec![INVALID; 3]);
    }
}

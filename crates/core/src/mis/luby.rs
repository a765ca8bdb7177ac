//! Algorithm LubyMIS — the classic algorithm of Luby (1986), as the paper
//! cites it ("uses randomization to break symmetry… at least half the
//! vertices eliminated per iteration").
//!
//! Each round: every undecided vertex *marks* itself with probability
//! `1/(2d)` (`d` = its degree in the residual graph; degree-0 vertices join
//! outright); for every edge with both endpoints marked, the endpoint of
//! smaller `(degree, id)` unmarks; surviving marks join the set and their
//! neighbors drop out. Expected O(log n) rounds, with distinctly larger
//! constants than the modern local-minimum variant — this round count is
//! the cost the MIS composites attack.
//!
//! Both [`luby_extend`] forms are *full-sweep* over the graph being
//! solved, as in the era's published implementations: the participant list
//! is fixed once at entry (the vertex set of the — possibly reduced —
//! graph, e.g. Algorithm 11's "reduced graph R"), and every round sweeps
//! that whole list, skipping decided vertices with an O(1) status check,
//! until a counting pass finds no undecided participant. There is no
//! per-round worklist compaction.
//! [`luby_extend_compacted`] is the modern optimization of the problem
//! (worklist compaction + local-minimum selection), kept as an ablation —
//! it is strictly stronger than the published baselines.

use super::status::{IN, OUT, UNDECIDED};
use super::undecided_participants;
use rayon::prelude::*;
use sb_graph::csr::{Graph, VertexId};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u8;
use sb_par::bsp::BspExecutor;
use sb_par::counters::Counters;
use sb_par::frontier::Scratch;
use sb_par::rng::hash3;
use std::sync::atomic::Ordering;

/// Decide every undecided vertex passing `allowed` (IN or OUT) so that the
/// IN vertices form an MIS of the subgraph of `g` induced by those vertices
/// and the edges of `view`. Full-sweep rounds (see module docs).
pub fn luby_extend(
    g: &Graph,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    seed: u64,
    counters: &Counters,
) {
    let n = g.num_vertices();
    assert_eq!(status.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    // The vertex set of the (sub)graph being solved, fixed at entry.
    let participants: Vec<VertexId> = undecided_participants(status, allowed);
    // Residual degree and mark flag, refreshed each round.
    let mut degree = vec![0u32; n];
    let mut marked = vec![0u8; n];
    let mut round = 0u64;
    let mut undecided = participants.len();

    while !participants.is_empty() {
        round += 1;
        let scope = counters.round_scope(undecided as u64);
        counters.add_rounds(1);
        counters.add_work(3 * participants.len() as u64);
        let remaining;
        {
            let st = as_atomic_u8(status);
            let deg_at = sb_par::atomic::as_atomic_u32(&mut degree);
            let mk = as_atomic_u8(&mut marked);

            // Sweep 1: residual degree + probabilistic marking.
            participants.par_iter().for_each(|&v| {
                if st[v as usize].load(Ordering::Relaxed) != UNDECIDED {
                    mk[v as usize].store(0, Ordering::Relaxed);
                    return;
                }
                counters.add_edges(g.degree(v) as u64);
                let mut d = 0u32;
                for (w, _) in view.arcs(g, v) {
                    if st[w as usize].load(Ordering::Relaxed) == UNDECIDED && allow(w as usize) {
                        d += 1;
                    }
                }
                deg_at[v as usize].store(d, Ordering::Relaxed);
                let m = if d == 0 {
                    1 // isolated in the residual graph: always a candidate
                } else {
                    // Mark with probability 1/(2d).
                    u8::from(hash3(seed, round, v as u64) < u64::MAX / (2 * d as u64))
                };
                mk[v as usize].store(m, Ordering::Relaxed);
            });

            // Sweep 2: resolve marked conflicts — the endpoint of smaller
            // (residual degree, id) unmarks, so the survivors are the local
            // maxima among the marked and hence independent.
            let survives = |v: u32| -> bool {
                if mk[v as usize].load(Ordering::Relaxed) == 0 {
                    return false;
                }
                let dv = (deg_at[v as usize].load(Ordering::Relaxed), v);
                for (w, _) in view.arcs(g, v) {
                    let sw = st[w as usize].load(Ordering::Relaxed);
                    // A neighbor that already turned IN this round blocks
                    // (it was a marked competitor we may have missed).
                    if sw == IN
                        || (sw == UNDECIDED
                            && allow(w as usize)
                            && mk[w as usize].load(Ordering::Relaxed) == 1
                            && (deg_at[w as usize].load(Ordering::Relaxed), w) > dv)
                    {
                        return false;
                    }
                }
                true
            };
            participants.par_iter().for_each(|&v| {
                if st[v as usize].load(Ordering::Relaxed) != UNDECIDED {
                    return;
                }
                counters.add_edges(deg_at[v as usize].load(Ordering::Relaxed) as u64);
                if survives(v) {
                    st[v as usize].store(IN, Ordering::Relaxed);
                }
            });

            // Sweep 3: neighbors of fresh IN vertices drop out; count what
            // is still undecided for the termination test.
            remaining = participants
                .par_iter()
                .filter(|&&v| {
                    if st[v as usize].load(Ordering::Relaxed) != UNDECIDED {
                        return false;
                    }
                    for (w, _) in view.arcs(g, v) {
                        if st[w as usize].load(Ordering::Relaxed) == IN {
                            st[v as usize].store(OUT, Ordering::Relaxed);
                            return false;
                        }
                    }
                    true
                })
                .count();
        }
        counters.finish_round(scope, || (undecided - remaining) as u64);
        undecided = remaining;
        if remaining == 0 {
            break;
        }
    }
}

/// Flat bulk-synchronous form of [`luby_extend`] for the GPU-sim executor:
/// the same full-sweep rounds as three device-wide kernels.
pub fn luby_extend_bsp(
    g: &Graph,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    seed: u64,
    exec: &BspExecutor,
) {
    let n = g.num_vertices();
    assert_eq!(status.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    let participants: Vec<u32> = undecided_participants(status, allowed);
    let mut degree = vec![0u32; n];
    let mut marked = vec![0u8; n];
    let mut round = 0u64;
    let mut undecided = participants.len();
    let counters = exec.counters();

    while !participants.is_empty() {
        round += 1;
        let scope = counters.round_scope(undecided as u64);
        {
            let st = as_atomic_u8(status);
            let deg_at = sb_par::atomic::as_atomic_u32(&mut degree);
            let mk = as_atomic_u8(&mut marked);

            // Kernel 1: residual degree + probabilistic marking.
            exec.kernel_over(&participants, |v| {
                let vi = v as usize;
                if st[vi].load(Ordering::Relaxed) != UNDECIDED {
                    mk[vi].store(0, Ordering::Relaxed);
                    return;
                }
                exec.counters().add_edges(g.degree(v) as u64);
                let mut d = 0u32;
                for (w, _) in view.arcs(g, v) {
                    if st[w as usize].load(Ordering::Relaxed) == UNDECIDED && allow(w as usize) {
                        d += 1;
                    }
                }
                deg_at[vi].store(d, Ordering::Relaxed);
                let m = if d == 0 {
                    1
                } else {
                    u8::from(hash3(seed, round, v as u64) < u64::MAX / (2 * d as u64))
                };
                mk[vi].store(m, Ordering::Relaxed);
            });

            // Kernel 2: conflict resolution — local maxima among the marked
            // (by residual degree, then id) join the set.
            exec.kernel_over(&participants, |v| {
                let vi = v as usize;
                if st[vi].load(Ordering::Relaxed) != UNDECIDED
                    || mk[vi].load(Ordering::Relaxed) == 0
                {
                    return;
                }
                exec.counters()
                    .add_edges(deg_at[vi].load(Ordering::Relaxed) as u64);
                let dv = (deg_at[vi].load(Ordering::Relaxed), v);
                let beaten = view.arcs(g, v).any(|(w, _)| {
                    let sw = st[w as usize].load(Ordering::Relaxed);
                    sw == IN
                        || (sw == UNDECIDED
                            && allow(w as usize)
                            && mk[w as usize].load(Ordering::Relaxed) == 1
                            && (deg_at[w as usize].load(Ordering::Relaxed), w) > dv)
                });
                if !beaten {
                    st[vi].store(IN, Ordering::Relaxed);
                }
            });

            // Kernel 3: exclusion.
            exec.kernel_over(&participants, |v| {
                let vi = v as usize;
                if st[vi].load(Ordering::Relaxed) != UNDECIDED {
                    return;
                }
                exec.counters().add_edges(g.degree(v) as u64);
                if view
                    .arcs(g, v)
                    .any(|(w, _)| st[w as usize].load(Ordering::Relaxed) == IN)
                {
                    st[vi].store(OUT, Ordering::Relaxed);
                }
            });
        }

        // Kernel 4: termination count over the participant list.
        let remaining = {
            let st: &[u8] = status;
            exec.counters().add_kernel(participants.len() as u64);
            participants
                .iter()
                .filter(|&&v| st[v as usize] == UNDECIDED)
                .count()
        };
        exec.end_round();
        counters.finish_round(scope, || (undecided - remaining) as u64);
        undecided = remaining;
        if remaining == 0 {
            break;
        }
    }
}

/// Frontier form of [`luby_extend`]: identical marking/conflict/exclusion
/// rounds, but the live set is kept as a compacted worklist
/// (`sb_par::frontier`) instead of re-sweeping the full participant list,
/// and the per-call `degree`/`marked` arrays are borrowed from `scratch`.
///
/// Byte-identical to [`luby_extend`] for any seed and thread count: the
/// frontier holds exactly the undecided participants at every round start
/// (a vertex that leaves `UNDECIDED` never returns), and every read of
/// `marked`/`degree` in the dense form is guarded by an `UNDECIDED` status
/// check, so the stale entries of decided vertices are never consulted.
/// `hash3(seed, round, v)` uses the same round numbering. Only the counters
/// differ: each round charges the live set, not the whole participant list.
///
/// Beyond skipping decided vertices, this form scans strictly fewer arcs:
/// conflict resolution compacts down to the *marked* candidates (an
/// unmarked vertex can never join, and the dense form's `survives` bails
/// before touching its arcs), and exclusion runs as a scatter from the
/// round's winners rather than a gather over every live vertex. The
/// scatter is valid from round 2 on — a live vertex can only have acquired
/// an IN neighbor through this round's winners, because the previous
/// round's exclusion cleared all others. Round 1 gathers, so IN vertices
/// decided by *earlier* extend calls (outside `allowed`) still exclude
/// their neighbors exactly as in the dense form.
pub(crate) fn luby_extend_frontier(
    g: &Graph,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    seed: u64,
    counters: &Counters,
    scratch: &mut Scratch,
) {
    let n = g.num_vertices();
    assert_eq!(status.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    let mut work = scratch.take_frontier();
    work.reset_range(n, |v| status[v as usize] == UNDECIDED && allow(v as usize));
    let mut degree = scratch.take_u32(n, 0);
    let marked = scratch.take_marks(n, false);
    // Compacted marked-candidate / winner sets, reused across rounds.
    let mut cand = scratch.take_frontier();
    let mut winners = scratch.take_frontier();
    let mut round = 0u64;

    while !work.is_empty() {
        round += 1;
        let live = work.len();
        let scope = counters.round_scope(live as u64);
        counters.add_rounds(1);
        counters.add_work(3 * live as u64);
        {
            let st = as_atomic_u8(status);
            let deg_at = sb_par::atomic::as_atomic_u32(&mut degree);
            let mk = &marked;

            // Sweep 1: residual degree + probabilistic marking. Every live
            // vertex is undecided by the frontier invariant, so the dense
            // form's status check is vacuous here.
            work.for_each(|v| {
                counters.add_edges(g.degree(v) as u64);
                let mut d = 0u32;
                for (w, _) in view.arcs(g, v) {
                    if st[w as usize].load(Ordering::Relaxed) == UNDECIDED && allow(w as usize) {
                        d += 1;
                    }
                }
                deg_at[v as usize].store(d, Ordering::Relaxed);
                let m = d == 0 // isolated in the residual graph: always a candidate
                    || hash3(seed, round, v as u64) < u64::MAX / (2 * d.max(1) as u64);
                mk.put(v, m);
            });

            // Sweep 2: conflict resolution over the marked candidates only.
            // An unmarked vertex can never join, so the selection skips both
            // its closure invocation and its residual-degree charge.
            work.select_marked_into(mk, &mut cand);
            cand.for_each(|v| {
                counters.add_edges(deg_at[v as usize].load(Ordering::Relaxed) as u64);
                let dv = (deg_at[v as usize].load(Ordering::Relaxed), v);
                let beaten = view.arcs(g, v).any(|(w, _)| {
                    let sw = st[w as usize].load(Ordering::Relaxed);
                    sw == IN
                        || (sw == UNDECIDED
                            && allow(w as usize)
                            && mk.get(w)
                            && (deg_at[w as usize].load(Ordering::Relaxed), w) > dv)
                });
                if !beaten {
                    st[v as usize].store(IN, Ordering::Relaxed);
                }
            });

            // Sweep 3: exclusion. Round 1 gathers over the live set so IN
            // vertices left by earlier extend calls still exclude their
            // neighbors; later rounds scatter from this round's winners —
            // the only possible source of new IN neighbors.
            if round == 1 {
                work.for_each(|v| {
                    if st[v as usize].load(Ordering::Relaxed) != UNDECIDED {
                        return;
                    }
                    if view
                        .arcs(g, v)
                        .any(|(w, _)| st[w as usize].load(Ordering::Relaxed) == IN)
                    {
                        st[v as usize].store(OUT, Ordering::Relaxed);
                    }
                });
            } else {
                cand.select_into(
                    |v| st[v as usize].load(Ordering::Relaxed) == IN,
                    &mut winners,
                );
                winners.for_each(|u| {
                    counters.add_edges(g.degree(u) as u64);
                    for (w, _) in view.arcs(g, u) {
                        if st[w as usize].load(Ordering::Relaxed) == UNDECIDED && allow(w as usize)
                        {
                            st[w as usize].store(OUT, Ordering::Relaxed);
                        }
                    }
                });
            }
        }
        let st_now: &[u8] = status;
        work.compact(|v| st_now[v as usize] == UNDECIDED);
        counters.finish_round(scope, || (live - work.len()) as u64);
    }
    scratch.recycle_u32(degree);
    scratch.recycle_marks(marked);
    scratch.recycle_frontier(winners);
    scratch.recycle_frontier(cand);
    scratch.recycle_frontier(work);
}

/// Frontier form of [`luby_extend_bsp`]: the same per-round kernels,
/// launched over the compacted live worklist, with the dense
/// termination-count kernel replaced by the compaction pass. Byte-identical
/// outputs to [`luby_extend_bsp`] (same argument as
/// [`luby_extend_frontier`]); kernel launch counts match the dense form
/// (four per round), but conflict resolution launches over the marked
/// candidates and exclusion scatters from the round's winners (round 1
/// gathers, as in [`luby_extend_frontier`]).
pub(crate) fn luby_extend_bsp_frontier(
    g: &Graph,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    seed: u64,
    exec: &BspExecutor,
    scratch: &mut Scratch,
) {
    let n = g.num_vertices();
    assert_eq!(status.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    let mut work = scratch.take_frontier();
    work.reset_range(n, |v| status[v as usize] == UNDECIDED && allow(v as usize));
    let mut degree = scratch.take_u32(n, 0);
    let marked = scratch.take_marks(n, false);
    let mut cand = scratch.take_frontier();
    let mut winners = scratch.take_frontier();
    let mut round = 0u64;
    let counters = exec.counters();

    while !work.is_empty() {
        round += 1;
        let live = work.len();
        let scope = counters.round_scope(live as u64);
        {
            let st = as_atomic_u8(status);
            let deg_at = sb_par::atomic::as_atomic_u32(&mut degree);
            let mk = &marked;

            // Kernel 1: residual degree + probabilistic marking.
            exec.kernel_over(work.as_slice(), |v| {
                let vi = v as usize;
                exec.counters().add_edges(g.degree(v) as u64);
                let mut d = 0u32;
                for (w, _) in view.arcs(g, v) {
                    if st[w as usize].load(Ordering::Relaxed) == UNDECIDED && allow(w as usize) {
                        d += 1;
                    }
                }
                deg_at[vi].store(d, Ordering::Relaxed);
                let m = d == 0 || hash3(seed, round, v as u64) < u64::MAX / (2 * d.max(1) as u64);
                mk.put(v, m);
            });

            // Kernel 2: conflict resolution, launched over the marked
            // candidates only (an unmarked vertex can never join).
            work.select_marked_into(mk, &mut cand);
            exec.kernel_over(cand.as_slice(), |v| {
                let vi = v as usize;
                exec.counters()
                    .add_edges(deg_at[vi].load(Ordering::Relaxed) as u64);
                let dv = (deg_at[vi].load(Ordering::Relaxed), v);
                let beaten = view.arcs(g, v).any(|(w, _)| {
                    let sw = st[w as usize].load(Ordering::Relaxed);
                    sw == IN
                        || (sw == UNDECIDED
                            && allow(w as usize)
                            && mk.get(w)
                            && (deg_at[w as usize].load(Ordering::Relaxed), w) > dv)
                });
                if !beaten {
                    st[vi].store(IN, Ordering::Relaxed);
                }
            });

            // Kernel 3: exclusion — round 1 gathers (stale IN vertices from
            // earlier extend calls exclude too), later rounds scatter from
            // the winners.
            if round == 1 {
                exec.kernel_over(work.as_slice(), |v| {
                    let vi = v as usize;
                    if st[vi].load(Ordering::Relaxed) != UNDECIDED {
                        return;
                    }
                    exec.counters().add_edges(g.degree(v) as u64);
                    if view
                        .arcs(g, v)
                        .any(|(w, _)| st[w as usize].load(Ordering::Relaxed) == IN)
                    {
                        st[vi].store(OUT, Ordering::Relaxed);
                    }
                });
            } else {
                cand.select_into(
                    |v| st[v as usize].load(Ordering::Relaxed) == IN,
                    &mut winners,
                );
                exec.kernel_over(winners.as_slice(), |u| {
                    exec.counters().add_edges(g.degree(u) as u64);
                    for (w, _) in view.arcs(g, u) {
                        if st[w as usize].load(Ordering::Relaxed) == UNDECIDED && allow(w as usize)
                        {
                            st[w as usize].store(OUT, Ordering::Relaxed);
                        }
                    }
                });
            }
        }

        // Kernel 4: frontier compaction — takes the place of the dense
        // form's termination-count kernel.
        exec.counters().add_kernel(live as u64);
        let st_now: &[u8] = status;
        work.compact(|v| st_now[v as usize] == UNDECIDED);
        exec.end_round();
        counters.finish_round(scope, || (live - work.len()) as u64);
    }
    scratch.recycle_u32(degree);
    scratch.recycle_marks(marked);
    scratch.recycle_frontier(winners);
    scratch.recycle_frontier(cand);
    scratch.recycle_frontier(work);
}

/// Worklist-compacted Luby — the modern optimization of the same algorithm,
/// kept as an ablation: every round touches only still-undecided vertices.
/// The reproduction's baselines do NOT use this (see module docs).
pub fn luby_extend_compacted(
    g: &Graph,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    seed: u64,
    counters: &Counters,
) {
    let n = g.num_vertices();
    assert_eq!(status.len(), n);
    let allow = |v: usize| allowed.is_none_or(|a| a[v]);
    let mut work: Vec<VertexId> = undecided_participants(status, allowed);
    let mut round = 0u64;

    while !work.is_empty() {
        round += 1;
        let scope = counters.round_scope(work.len() as u64);
        let before = work.len();
        counters.add_rounds(1);
        counters.add_work(work.len() as u64);
        {
            let st = as_atomic_u8(status);
            let prio = |v: VertexId| (hash3(seed, round, v as u64), v);
            work.par_iter().for_each(|&v| {
                counters.add_edges(g.degree(v) as u64);
                let pv = prio(v);
                let mut is_min = true;
                for (w, _) in view.arcs(g, v) {
                    let sw = st[w as usize].load(Ordering::Relaxed);
                    if sw == IN || (sw == UNDECIDED && allow(w as usize) && prio(w) < pv) {
                        is_min = false;
                        break;
                    }
                }
                if is_min {
                    st[v as usize].store(IN, Ordering::Relaxed);
                }
            });
            work.par_iter().for_each(|&v| {
                if st[v as usize].load(Ordering::Relaxed) != UNDECIDED {
                    return;
                }
                if view
                    .arcs(g, v)
                    .any(|(w, _)| st[w as usize].load(Ordering::Relaxed) == IN)
                {
                    st[v as usize].store(OUT, Ordering::Relaxed);
                }
            });
        }
        work.retain(|&v| status[v as usize] == UNDECIDED);
        counters.finish_round(scope, || (before - work.len()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_maximal_independent_set;
    use sb_graph::builder::from_edge_list;

    fn in_set_of(status: &[u8]) -> Vec<bool> {
        status.iter().map(|&s| s == IN).collect()
    }

    #[test]
    fn path_mis_valid() {
        let g = from_edge_list(20, &(0..19u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let mut st = vec![UNDECIDED; 20];
        luby_extend(&g, EdgeView::full(), &mut st, None, 3, &Counters::new());
        check_maximal_independent_set(&g, &in_set_of(&st)).unwrap();
        assert!(st.iter().all(|&s| s != UNDECIDED));
    }

    #[test]
    fn isolated_vertices_always_join() {
        let g = from_edge_list(5, &[(0, 1)]);
        let mut st = vec![UNDECIDED; 5];
        luby_extend(&g, EdgeView::full(), &mut st, None, 1, &Counters::new());
        assert_eq!(st[2], IN);
        assert_eq!(st[3], IN);
        assert_eq!(st[4], IN);
    }

    #[test]
    fn respects_allowed_mask() {
        let g = from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let allowed = vec![false, true, true, false];
        let mut st = vec![UNDECIDED; 4];
        luby_extend(
            &g,
            EdgeView::full(),
            &mut st,
            Some(&allowed),
            2,
            &Counters::new(),
        );
        assert_eq!(st[0], UNDECIDED);
        assert_eq!(st[3], UNDECIDED);
        // Among {1, 2}: exactly one joins (they are adjacent).
        assert_eq!(usize::from(st[1] == IN) + usize::from(st[2] == IN), 1);
    }

    #[test]
    fn logarithmic_rounds_on_long_path() {
        let n: u32 = 2048;
        let g = from_edge_list(
            n as usize,
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let c = Counters::new();
        let mut st = vec![UNDECIDED; n as usize];
        luby_extend(&g, EdgeView::full(), &mut st, None, 5, &c);
        check_maximal_independent_set(&g, &in_set_of(&st)).unwrap();
        assert!(
            c.rounds() < 60,
            "Luby should finish fast, got {}",
            c.rounds()
        );
    }

    #[test]
    fn all_three_forms_valid_on_random_graphs() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..5 {
            let n = 200;
            let edges: Vec<(u32, u32)> = (0..600)
                .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
                .collect();
            let g = from_edge_list(n, &edges);

            let mut st1 = vec![UNDECIDED; n];
            luby_extend(
                &g,
                EdgeView::full(),
                &mut st1,
                None,
                trial,
                &Counters::new(),
            );
            check_maximal_independent_set(&g, &in_set_of(&st1)).unwrap();

            let mut st2 = vec![UNDECIDED; n];
            luby_extend_bsp(
                &g,
                EdgeView::full(),
                &mut st2,
                None,
                trial,
                &BspExecutor::new(),
            );
            check_maximal_independent_set(&g, &in_set_of(&st2)).unwrap();

            let mut st3 = vec![UNDECIDED; n];
            luby_extend_compacted(
                &g,
                EdgeView::full(),
                &mut st3,
                None,
                trial,
                &Counters::new(),
            );
            check_maximal_independent_set(&g, &in_set_of(&st3)).unwrap();
        }
    }

    #[test]
    fn classic_needs_more_rounds_than_local_min() {
        // The published baseline's cost driver: classic 1/(2d) marking
        // converges in visibly more rounds than the modern local-minimum
        // rule on the same graph.
        let n = 4096u32;
        let g = from_edge_list(
            n as usize,
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let c_classic = Counters::new();
        let mut a = vec![UNDECIDED; n as usize];
        luby_extend(&g, EdgeView::full(), &mut a, None, 9, &c_classic);
        check_maximal_independent_set(&g, &in_set_of(&a)).unwrap();
        let c_modern = Counters::new();
        let mut b = vec![UNDECIDED; n as usize];
        luby_extend_compacted(&g, EdgeView::full(), &mut b, None, 9, &c_modern);
        check_maximal_independent_set(&g, &in_set_of(&b)).unwrap();
        assert!(
            c_classic.rounds() > c_modern.rounds(),
            "classic {} rounds vs local-min {}",
            c_classic.rounds(),
            c_modern.rounds()
        );
    }

    #[test]
    fn extends_partial_solution() {
        let g = from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut st = vec![UNDECIDED; 5];
        st[0] = IN;
        st[1] = OUT;
        luby_extend(&g, EdgeView::full(), &mut st, None, 9, &Counters::new());
        check_maximal_independent_set(&g, &in_set_of(&st)).unwrap();
        assert_eq!(st[0], IN, "pre-decided vertices untouched");
    }

    #[test]
    fn full_sweep_cost_reflects_whole_graph() {
        // The whole point: every round charges n work items even when only
        // a few vertices remain undecided.
        let g = from_edge_list(100, &(0..99u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let c = Counters::new();
        let mut st = vec![UNDECIDED; 100];
        luby_extend(&g, EdgeView::full(), &mut st, None, 4, &c);
        let s = c.snapshot();
        assert!(s.work_items >= 2 * 100 * s.rounds);
    }

    #[test]
    fn scratch_arena_stops_allocating_after_first_solve() {
        use sb_datasets::suite::{generate, GraphId, Scale};
        let g = generate(GraphId::CoAuthorsCiteseer, Scale::Tiny, 99);
        let n = g.num_vertices();
        let mut scratch = Scratch::new();
        let view = EdgeView::full();

        let mut first = vec![0u8; n];
        luby_extend_frontier(
            &g,
            view,
            &mut first,
            None,
            7,
            &Counters::new(),
            &mut scratch,
        );
        let after_first = scratch.stats();
        assert!(after_first.fresh_allocs > 0, "first solve must allocate");

        let mut second = vec![0u8; n];
        luby_extend_frontier(
            &g,
            view,
            &mut second,
            None,
            7,
            &Counters::new(),
            &mut scratch,
        );
        let after_second = scratch.stats();
        assert_eq!(
            after_second.fresh_allocs, after_first.fresh_allocs,
            "second solve on a warm arena must not allocate"
        );
        assert!(after_second.reuses > after_first.reuses);
        assert_eq!(first, second, "same seed on a warm arena must not diverge");
    }
}

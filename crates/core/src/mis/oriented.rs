//! Deterministic MIS for degree-≤2 subgraphs via id-orientation.
//!
//! MIS-Deg2 (Algorithm 12) solves the degree-≤2 piece `G_L` with the
//! orientation-based symmetry breaker of Kothapalli & Pindiproli \[21\]; as
//! in the paper, "vertex numbers induce the required orientation". This
//! module implements the canonical such algorithm:
//!
//! 1. Orient every edge from the lower to the higher endpoint. Splitting
//!    each vertex's (≤ 2) out-edges by head rank yields two rooted forests
//!    `F1`, `F2` that together cover every edge.
//! 2. Run Cole–Vishkin deterministic coin tossing on each forest —
//!    `O(log* n)` synchronous rounds reduce the initial id-coloring to ≤ 6
//!    colors per forest, giving a ≤ 36-color product coloring proper on all
//!    of `G_L`.
//! 3. Collapse to 3 colors class by class (a free color in `{0,1,2}` always
//!    exists at degree ≤ 2), then harvest the MIS color class by color
//!    class — a constant number of parallel rounds in total.
//!
//! No randomness anywhere: the speed of MIS-Deg2 on low-degree-heavy graphs
//! (lp1's 10.5× CPU speedup) comes from replacing Luby's O(log n) random
//! rounds with this O(log* n) deterministic schedule.

use super::status::{IN, OUT, UNDECIDED};
use super::undecided_participants;
use rayon::prelude::*;
use sb_graph::csr::{Graph, VertexId, INVALID};
use sb_graph::view::EdgeView;
use sb_par::atomic::as_atomic_u8;
use sb_par::counters::Counters;
use std::sync::atomic::{AtomicU8, Ordering};

/// One Cole–Vishkin step: the code of the lowest bit where `c` differs from
/// the parent's color `cp` (roots pass `cp = c ^ 1`).
#[inline]
fn cv_step(c: u32, cp: u32) -> u32 {
    let k = (c ^ cp).trailing_zeros();
    (k << 1) | ((c >> k) & 1)
}

/// Decide every undecided vertex passing `allowed` so the IN vertices form
/// an MIS of the subgraph of `g` induced by them.
///
/// Requires every participating vertex to have at most 2 participating
/// neighbors (the `G_L` guarantee of the DEG2 decomposition); panics in
/// debug builds otherwise.
///
/// The algorithm has no round-over-round frontier (the participant set is
/// fixed at entry), so every frontier mode runs this one form.
pub fn oriented_mis_extend(
    g: &Graph,
    view: EdgeView<'_>,
    status: &mut [u8],
    allowed: Option<&[bool]>,
    counters: &Counters,
) {
    let n = g.num_vertices();
    assert_eq!(status.len(), n);
    let parts: Vec<VertexId> = undecided_participants(status, allowed);
    if parts.is_empty() {
        return;
    }
    let active: Vec<bool> = {
        let mut a = vec![false; n];
        for &v in &parts {
            a[v as usize] = true;
        }
        a
    };

    // Step 1: id-orientation → two forests. parent1 = smaller out-neighbor,
    // parent2 = larger out-neighbor (out-neighbor = active neighbor with a
    // larger id). Parents have strictly larger ids → both relations are
    // acyclic, i.e. rooted forests.
    let parent_pairs: Vec<(u32, u32)> = parts
        .par_iter()
        .map(|&v| {
            counters.add_edges(g.degree(v) as u64);
            let mut outs = [INVALID; 2];
            let mut cnt = 0;
            let mut deg_active = 0;
            for (w, _) in view.arcs(g, v) {
                if active[w as usize] {
                    deg_active += 1;
                    if w > v {
                        debug_assert!(cnt < 2, "degree > 2 among participants at {v}");
                        if cnt < 2 {
                            outs[cnt] = w;
                            cnt += 1;
                        }
                    }
                }
            }
            debug_assert!(deg_active <= 2, "degree > 2 among participants at {v}");
            let _ = deg_active;
            if cnt == 2 && outs[0] > outs[1] {
                outs.swap(0, 1);
            }
            (outs[0], outs[1])
        })
        .collect();
    // Dense index of each participant for the color arrays.
    let mut dense = vec![u32::MAX; n];
    for (i, &v) in parts.iter().enumerate() {
        dense[v as usize] = i as u32;
    }

    // Step 2: Cole–Vishkin on both forests simultaneously.
    let mut c1: Vec<u32> = parts.to_vec();
    let mut c2: Vec<u32> = parts.to_vec();
    loop {
        let max1 = c1.par_iter().copied().max().unwrap();
        let max2 = c2.par_iter().copied().max().unwrap();
        if max1 < 6 && max2 < 6 {
            break;
        }
        let scope = counters.round_scope(parts.len() as u64);
        counters.add_rounds(1);
        counters.add_work(parts.len() as u64);
        let step = |colors: &Vec<u32>, which: usize| -> Vec<u32> {
            parts
                .par_iter()
                .enumerate()
                .map(|(i, _)| {
                    let p = if which == 0 {
                        parent_pairs[i].0
                    } else {
                        parent_pairs[i].1
                    };
                    let c = colors[i];
                    let cp = if p == INVALID {
                        c ^ 1
                    } else {
                        colors[dense[p as usize] as usize]
                    };
                    cv_step(c, cp)
                })
                .collect()
        };
        if max1 >= 6 {
            c1 = step(&c1, 0);
        }
        if max2 >= 6 {
            c2 = step(&c2, 1);
        }
        // Color-reduction rounds decide nothing; they only shrink the
        // palette.
        counters.finish_round(scope, || 0);
    }

    // Product coloring, proper on every participating edge.
    let mut color: Vec<u32> = c1.iter().zip(&c2).map(|(&a, &b)| a * 6 + b).collect();

    // Bucket participants by product color once, so the class-by-class
    // passes below touch each vertex O(1) times in total instead of
    // sweeping all participants per class.
    let buckets: Vec<Vec<u32>> = {
        let mut b: Vec<Vec<u32>> = vec![Vec::new(); 36];
        for (i, _) in parts.iter().enumerate() {
            b[color[i] as usize].push(i as u32);
        }
        b
    };

    // Step 3a: collapse 36 → 3 colors, one class at a time. Class members
    // are pairwise non-adjacent, so each pass is safely parallel.
    for bucket in buckets.iter().skip(3) {
        let scope = counters.round_scope(bucket.len() as u64);
        counters.add_rounds(1);
        let updates: Vec<(u32, u32)> = bucket
            .par_iter()
            .map(|&i| {
                let v = parts[i as usize];
                let mut used = [false; 3];
                for (w, _) in view.arcs(g, v) {
                    if active[w as usize] {
                        let cw = color[dense[w as usize] as usize];
                        if cw < 3 {
                            used[cw as usize] = true;
                        }
                    }
                }
                let free = used.iter().position(|&u| !u).expect("degree ≤ 2") as u32;
                (i, free)
            })
            .collect();
        for (i, c) in updates {
            color[i as usize] = c;
        }
        counters.finish_round(scope, || 0);
    }
    // Re-bucket into the final three classes.
    let classes: Vec<Vec<u32>> = {
        let mut b: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for (i, _) in parts.iter().enumerate() {
            b[color[i] as usize].push(i as u32);
        }
        b
    };

    // Step 3b: harvest the MIS from the 3-coloring. Joining members
    // immediately exclude their active neighbors, so each class pass is
    // O(class size).
    {
        let st = as_atomic_u8(status);
        let undecided = |st: &[AtomicU8]| {
            parts
                .iter()
                .filter(|&&v| st[v as usize].load(Ordering::Relaxed) == UNDECIDED)
                .count() as u64
        };
        for class in classes {
            let live = if counters.tracing() { undecided(st) } else { 0 };
            let scope = counters.round_scope(live);
            counters.add_rounds(1);
            class.par_iter().for_each(|&i| {
                let v = parts[i as usize];
                if st[v as usize].load(Ordering::Relaxed) != UNDECIDED {
                    return;
                }
                // Join unless a neighbor already joined (any IN neighbor in
                // this graph blocks, whether or not it participates here).
                let blocked = view
                    .arcs(g, v)
                    .any(|(w, _)| st[w as usize].load(Ordering::Relaxed) == IN);
                if blocked {
                    st[v as usize].store(OUT, Ordering::Relaxed);
                    return;
                }
                st[v as usize].store(IN, Ordering::Relaxed);
                // Exclude active undecided neighbors (idempotent stores).
                for (w, _) in view.arcs(g, v) {
                    if active[w as usize] && st[w as usize].load(Ordering::Relaxed) == UNDECIDED {
                        st[w as usize].store(OUT, Ordering::Relaxed);
                    }
                }
            });
            counters.finish_round(scope, || live.saturating_sub(undecided(st)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_maximal_independent_set;
    use sb_graph::builder::from_edge_list;
    use sb_graph::csr::Graph;

    fn solve(g: &Graph) -> Vec<bool> {
        let mut st = vec![UNDECIDED; g.num_vertices()];
        oriented_mis_extend(g, EdgeView::full(), &mut st, None, &Counters::new());
        assert!(st.iter().all(|&s| s != UNDECIDED), "all must be decided");
        st.iter().map(|&s| s == IN).collect()
    }

    #[test]
    fn long_path() {
        let n = 1000u32;
        let g = from_edge_list(
            n as usize,
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        let mis = solve(&g);
        check_maximal_independent_set(&g, &mis).unwrap();
        // MIS of a path has ≥ ⌈n/3⌉ vertices.
        assert!(mis.iter().filter(|&&b| b).count() >= (n as usize).div_ceil(3));
    }

    #[test]
    fn cycles_even_and_odd() {
        for n in [3u32, 4, 5, 6, 7, 100, 101] {
            let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            edges.push((n - 1, 0));
            let g = from_edge_list(n as usize, &edges);
            let mis = solve(&g);
            check_maximal_independent_set(&g, &mis).unwrap_or_else(|e| panic!("n = {n}: {e}"));
        }
    }

    #[test]
    fn union_of_paths_cycles_isolated() {
        // Path 0-1-2, cycle 3-4-5-3, isolated 6,7.
        let g = from_edge_list(8, &[(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
        let mis = solve(&g);
        check_maximal_independent_set(&g, &mis).unwrap();
        assert!(mis[6] && mis[7]);
    }

    #[test]
    fn adversarial_id_orders() {
        // Paths where ids zig-zag — the case that breaks naive single-forest
        // orientations.
        let g = from_edge_list(6, &[(5, 0), (0, 3), (3, 1), (1, 4), (4, 2)]);
        let mis = solve(&g);
        check_maximal_independent_set(&g, &mis).unwrap();
    }

    #[test]
    fn respects_mask_and_prior_status() {
        let g = from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut st = vec![UNDECIDED; 5];
        st[0] = IN;
        st[1] = OUT;
        let allowed = vec![true, true, true, true, false];
        oriented_mis_extend(
            &g,
            EdgeView::full(),
            &mut st,
            Some(&allowed),
            &Counters::new(),
        );
        assert_eq!(st[0], IN);
        assert_eq!(st[4], UNDECIDED, "masked vertex untouched");
        // {2,3}: one of them joins.
        assert_eq!(usize::from(st[2] == IN) + usize::from(st[3] == IN), 1);
    }

    #[test]
    fn random_degree_two_graphs() {
        // Random unions of paths/cycles with shuffled ids.
        use rand::{seq::SliceRandom, RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for trial in 0..10 {
            let n = 300usize;
            let mut ids: Vec<u32> = (0..n as u32).collect();
            ids.shuffle(&mut rng);
            let mut edges = Vec::new();
            let mut i = 0;
            while i + 1 < n {
                let len = 2 + rng.random_range(0..6);
                let seg = &ids[i..n.min(i + len)];
                for w in seg.windows(2) {
                    edges.push((w[0], w[1]));
                }
                if seg.len() > 2 && rng.random_bool(0.3) {
                    edges.push((seg[0], *seg.last().unwrap())); // close a cycle
                }
                i += len;
            }
            let g = from_edge_list(n, &edges);
            assert!(g.max_degree() <= 2);
            let mis = solve(&g);
            check_maximal_independent_set(&g, &mis)
                .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        }
    }

    #[test]
    fn deterministic() {
        let g = from_edge_list(50, &(0..49u32).map(|i| (i, i + 1)).collect::<Vec<_>>());
        assert_eq!(solve(&g), solve(&g));
    }
}

//! Edit batches for `serve_mixed` mutation streams.
//!
//! With two daemon workers, a stream's pipelined batches may commit in
//! either order. The generator therefore never lets two batches of a
//! stream touch the same vertex pair: each add is a pair absent from the
//! base graph and never used before, each remove is a base edge never used
//! before. The final graph is then base ∪ adds ∖ removes whatever order
//! the batches landed in, and the benchmark can verify the stream's last
//! solution against it.

use crate::inputs::Rng;
use std::collections::HashSet;

/// Edits per batch: ten, half removals and half insertions, the 10-edit
/// batch of the incremental-repair ablation (`ablate_incremental`), where
/// repair beats a fresh solve by two to three orders of magnitude.
pub const ADDS: usize = 5;
pub const REMOVES: usize = 5;

fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// One stream's edit source and the edits it has issued.
pub struct EditStream {
    n: u32,
    base: HashSet<(u32, u32)>,
    /// Base edges in a seeded order; removes take them front to back.
    removable: Vec<(u32, u32)>,
    next_remove: usize,
    /// Pairs already added.
    used: HashSet<(u32, u32)>,
    rng: Rng,
}

/// One batch: its wire form and its edits.
#[derive(Debug, Clone)]
pub struct Batch {
    pub wire: String,
    pub adds: Vec<(u32, u32)>,
    pub removes: Vec<(u32, u32)>,
}

impl EditStream {
    pub fn new(n: usize, edges: &[(u32, u32)], seed: u64) -> EditStream {
        let mut rng = Rng::new(seed);
        let base: HashSet<(u32, u32)> = edges.iter().map(|&(u, v)| key(u, v)).collect();
        let mut removable: Vec<(u32, u32)> = base.iter().copied().collect();
        removable.sort_unstable();
        for i in (1..removable.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            removable.swap(i, j);
        }
        EditStream {
            n: u32::try_from(n).expect("vertex count fits u32"),
            base,
            removable,
            next_remove: 0,
            used: HashSet::new(),
            rng,
        }
    }

    /// The next batch, or `None` once the stream has too few base edges
    /// left to remove.
    pub fn next_batch(&mut self) -> Option<Batch> {
        if self.next_remove + REMOVES > self.removable.len() {
            return None;
        }
        let mut adds = Vec::with_capacity(ADDS);
        while adds.len() < ADDS {
            let u = self.rng.below(u64::from(self.n)) as u32;
            let v = self.rng.below(u64::from(self.n)) as u32;
            let k = key(u, v);
            if u != v && !self.base.contains(&k) && self.used.insert(k) {
                adds.push(k);
            }
        }
        // Adds are never base edges, so removes cannot collide with them.
        let removes = self.removable[self.next_remove..self.next_remove + REMOVES].to_vec();
        self.next_remove += REMOVES;
        let wire = adds
            .iter()
            .map(|(u, v)| format!("+{u}-{v}"))
            .chain(removes.iter().map(|(u, v)| format!("-{u}-{v}")))
            .collect::<Vec<_>>()
            .join(",");
        Some(Batch {
            wire,
            adds,
            removes,
        })
    }

    /// Edge list of base ∪ adds ∖ removes over the given batches.
    pub fn final_edges<'a>(&self, batches: impl IntoIterator<Item = &'a Batch>) -> Vec<(u32, u32)> {
        let mut edges = self.base.clone();
        for b in batches {
            edges.extend(b.adds.iter().copied());
            for r in &b.removes {
                edges.remove(r);
            }
        }
        let mut out: Vec<(u32, u32)> = edges.into_iter().collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> Vec<(u32, u32)> {
        (0..n).map(|v| (v, (v + 1) % n)).collect()
    }

    #[test]
    fn batches_never_share_a_vertex_pair() {
        let mut s = EditStream::new(64, &ring(64), 3);
        let mut seen = HashSet::new();
        for _ in 0..12 {
            let b = s.next_batch().unwrap();
            assert_eq!(b.adds.len() + b.removes.len(), ADDS + REMOVES);
            for &e in b.adds.iter().chain(&b.removes) {
                assert!(seen.insert(e), "pair {e:?} reused");
                assert_ne!(e.0, e.1);
            }
        }
    }

    /// Apply batches one edit at a time, in the given order, to an edge set.
    fn replay(base: &[(u32, u32)], batches: &[&Batch]) -> Vec<(u32, u32)> {
        let mut edges: HashSet<(u32, u32)> = base.iter().map(|&(u, v)| key(u, v)).collect();
        for b in batches {
            for tok in b.wire.split(',') {
                let (add, body) = match tok.strip_prefix('+') {
                    Some(rest) => (true, rest),
                    None => (false, &tok[1..]),
                };
                let (u, v) = body.split_once('-').unwrap();
                let e = key(u.parse().unwrap(), v.parse().unwrap());
                if add {
                    edges.insert(e);
                } else {
                    edges.remove(&e);
                }
            }
        }
        let mut out: Vec<_> = edges.into_iter().collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn final_graph_does_not_depend_on_commit_order() {
        let base = ring(200);
        let mut s = EditStream::new(200, &base, 11);
        let batches: Vec<Batch> = (0..30).map(|_| s.next_batch().unwrap()).collect();
        let forward: Vec<&Batch> = batches.iter().collect();
        let mut shuffled = forward.clone();
        let mut rng = Rng::new(5);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let reversed: Vec<&Batch> = forward.iter().rev().copied().collect();
        let expect = s.final_edges(batches.iter());
        assert_eq!(replay(&base, &forward), expect);
        assert_eq!(replay(&base, &reversed), expect);
        assert_eq!(replay(&base, &shuffled), expect);
        // The edits really change the graph.
        let mut keyed: Vec<(u32, u32)> = base.iter().map(|&(u, v)| key(u, v)).collect();
        keyed.sort_unstable();
        assert_ne!(expect, keyed);
    }

    #[test]
    fn a_stream_stops_when_its_base_edges_run_out() {
        let mut s = EditStream::new(64, &ring(64), 3);
        let full = 64 / REMOVES;
        for _ in 0..full {
            assert!(s.next_batch().is_some());
        }
        assert!(s.next_batch().is_none());
    }
}

//! Edge-list ingestion.
//!
//! Applies the paper's preprocessing (§II-D): directed edges are converted to
//! undirected, self-loops are ignored, duplicates are merged. Each edge is
//! normalized to `(min, max)` on push; [`GraphBuilder::build`] drops
//! self-loops, sorts the list by `(u, v)` in parallel — skipped when it
//! already arrives sorted, as files written by
//! [`write_edge_list`](crate::io::write_edge_list), overlay materialization
//! and subgraph remapping do — and dedups it. The edge's rank in that list
//! is its edge id.
//!
//! One sequential pass then counts degrees and a second scatters both arcs
//! of every edge in edge order, which writes each row already sorted: row
//! `x` first receives its lower neighbors `u < x`, from edges `(u, x)` in
//! increasing `u`, all of which precede `x`'s own run; then its upper
//! neighbors `v > x`, from the contiguous run `(x, v)` in increasing `v`.

use crate::csr::{Graph, VertexId};
use rayon::prelude::*;

/// Accumulates edges and produces a [`Graph`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<[VertexId; 2]>,
}

impl GraphBuilder {
    /// Builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Add one edge; direction and duplicates are irrelevant, self-loops are
    /// dropped at build time.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push(u, v);
        self
    }

    /// Add many edges.
    pub fn edges<I>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in it {
            self.push(u, v);
        }
        self
    }

    /// Add one edge in place (non-consuming form for loops).
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push([u.min(v), u.max(v)]);
    }

    /// Reserve capacity for `extra` more edges.
    pub fn reserve(&mut self, extra: usize) {
        self.edges.reserve(extra);
    }

    /// Grow the declared vertex count to at least `n` (never shrinks).
    /// Streaming readers that discover the id range as they parse call
    /// this per chunk instead of pre-declaring a size.
    pub fn ensure_vertices(&mut self, n: usize) {
        assert!(n < u32::MAX as usize, "vertex ids must fit in u32");
        self.n = self.n.max(n);
    }

    /// Current declared vertex count.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn raw_len(&self) -> usize {
        self.edges.len()
    }

    /// Finalize into an immutable CSR graph.
    pub fn build(self) -> Graph {
        let Self { n, mut edges } = self;
        // Normalize happened on push; drop self-loops, sort, dedup.
        edges.retain(|&[u, v]| u != v);
        if !edges.is_sorted() {
            edges.par_sort_unstable();
        }
        edges.dedup();
        let m = edges.len();
        assert!(m < u32::MAX as usize, "edge ids must fit in u32");

        // Row starts: degree over both arc directions, then a prefix sum.
        let mut offsets = vec![0usize; n + 1];
        for &[u, v] in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for x in 0..n {
            offsets[x + 1] += offsets[x];
        }

        // Scatter both arcs of each edge in edge order; every row fills
        // in increasing neighbor order (see the module docs).
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; 2 * m];
        let mut edge_ids = vec![0u32; 2 * m];
        for (e, &[u, v]) in edges.iter().enumerate() {
            for (x, y) in [(u, v), (v, u)] {
                let slot = &mut cursor[x as usize];
                neighbors[*slot] = y;
                edge_ids[*slot] = e as u32;
                *slot += 1;
            }
        }

        let g = Graph::from_parts(offsets, neighbors, edge_ids, edges);
        debug_assert!(g.validate().is_ok());
        g
    }
}

/// Build a graph directly from an edge slice.
pub fn from_edge_list(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
    GraphBuilder::new(n).edges(edges.iter().copied()).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedup_selfloop_symmetrize() {
        // (2,1) duplicates (1,2); (3,3) is a self-loop.
        let g = GraphBuilder::new(4)
            .edges([(1, 2), (2, 1), (3, 3), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        g.validate().unwrap();
    }

    #[test]
    fn rows_sorted_with_aligned_edge_ids() {
        let g = GraphBuilder::new(6)
            .edges([(5, 0), (0, 3), (0, 1), (4, 0), (0, 2)])
            .build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
        for (w, e) in g.arcs(0) {
            assert_eq!(g.edge(e), (0, w));
        }
        g.validate().unwrap();
    }

    #[test]
    fn star_and_path_shapes() {
        let star = from_edge_list(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(star.degree(0), 4);
        assert_eq!(star.max_degree(), 4);
        let path = from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(path.degree(0), 1);
        assert_eq!(path.degree(1), 2);
        path.validate().unwrap();
    }

    #[test]
    fn larger_random_graph_validates() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 2000usize;
        let mut b = GraphBuilder::new(n);
        for _ in 0..10_000 {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            b.push(u, v);
        }
        let g = b.build();
        g.validate().unwrap();
        // Handshake identity.
        let degsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn edge_ids_are_dense_and_consistent() {
        let g = from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut seen = vec![false; g.num_edges()];
        for v in g.vertices() {
            for (_, e) in g.arcs(v) {
                seen[e as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// One vertex's `(neighbor, edge id)` pairs, by neighbor.
    type Row = Vec<(u32, u32)>;

    /// Reference CSR from a `BTreeSet` of normalized edges: the edge list in
    /// `(u, v)` order with edge id = rank, and every vertex's row.
    fn reference(n: usize, raw: &[(u32, u32)]) -> (Vec<[u32; 2]>, Vec<Row>) {
        let set: std::collections::BTreeSet<[u32; 2]> = raw
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| [u.min(v), u.max(v)])
            .collect();
        let edges: Vec<[u32; 2]> = set.into_iter().collect();
        let mut rows = vec![Vec::new(); n];
        for (e, &[u, v]) in edges.iter().enumerate() {
            rows[u as usize].push((v, e as u32));
            rows[v as usize].push((u, e as u32));
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        (edges, rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn build_matches_btreeset_reference(
            shape in (1usize..40).prop_flat_map(|n| (
                n..n + 1,
                proptest::collection::vec((0..n as u32, 0..n as u32, 0u8..4), 0..120),
                (0usize..4, 0u64..1 << 32, 0u8..8),
            ))
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let (n, draws, (isolated, shuffle_seed, empty)) = shape;
            // Duplicates in both orientations, self-loops and ids at n - 1;
            // one case in eight is an empty list.
            let mut raw = Vec::new();
            for (u, v, kind) in draws {
                match kind {
                    0 => raw.push((u, v)),
                    1 => raw.extend([(u, v), (v, u)]),
                    2 => raw.push((u, u)),
                    _ => raw.push((n as u32 - 1, v)),
                }
            }
            if empty == 0 {
                raw.clear();
            }
            // Trailing isolated vertices past every id in use.
            let n = n + isolated;
            let (edges, rows) = reference(n, &raw);
            raw.sort_unstable_by_key(|&(u, v)| (u.min(v), u.max(v)));
            let sorted = raw.clone();
            let reversed: Vec<_> = raw.iter().rev().copied().collect();
            raw.shuffle(&mut rand::rngs::StdRng::seed_from_u64(shuffle_seed));
            for (order, input) in [("sorted", sorted), ("reversed", reversed), ("shuffled", raw)] {
                let g = from_edge_list(n, &input);
                prop_assert_eq!(g.num_vertices(), n, "{}", order);
                prop_assert_eq!(g.edge_list(), &edges[..], "{}", order);
                for v in g.vertices() {
                    let want = &rows[v as usize];
                    let nb: Vec<u32> = want.iter().map(|&(w, _)| w).collect();
                    let ids: Vec<u32> = want.iter().map(|&(_, e)| e).collect();
                    prop_assert_eq!(g.neighbors(v), &nb[..], "{} row {}", order, v);
                    prop_assert_eq!(g.edge_ids_of(v), &ids[..], "{} row {}", order, v);
                }
            }
        }
    }
}

//! Dynamic-graph edit logs and overlay views.
//!
//! Production traffic mutates graphs; rebuilding the CSR for every edge
//! change throws away both the build work and every warm solver state
//! keyed to the old structure. An [`EditLog`] records a sequence of
//! structural edits (add/remove edge, add vertex) against an immutable
//! base [`Graph`], and an [`Overlay`] resolves the log into its *net
//! effect* — the set of edges added relative to the base, the set
//! removed, and the grown vertex count — so solvers can read the edited
//! structure (degrees, sorted adjacency, edge membership) without
//! touching the base CSR.
//!
//! Semantics are sequential and idempotent-at-the-end: the log is
//! replayed in order, and only the final membership of each edge
//! matters. Adding an edge that exists is a no-op, removing one that
//! does not exist is a no-op, self-loops are dropped, and orientation is
//! normalized to `(min, max)` exactly as [`crate::builder::GraphBuilder`]
//! does — so [`EditLog::materialize`] is *byte-identical* to rebuilding
//! from the edited edge list directly (pinned by `tests/properties.rs`).
//!
//! Vertex ids obey the same hardening bound as file ingestion
//! ([`crate::io`]): ids above [`MAX_EDIT_VERTEX`] are rejected at parse
//! time and panic at push time, mirroring `IoError::IdOverflow`.

use crate::csr::{Graph, VertexId};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;

/// Largest vertex id an edit may reference — the same bound the
/// edge-list reader enforces (`io::MAX_VERTEX_ID`), so a shrunk fuzz
/// case replays identically whether it arrives via file or edit log.
pub const MAX_EDIT_VERTEX: u64 = u32::MAX as u64 - 2;

/// One structural edit against a base graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Add the undirected edge `{u, v}` (self-loops dropped, duplicates
    /// merged, endpoints beyond the current vertex count grow it).
    AddEdge(VertexId, VertexId),
    /// Remove the undirected edge `{u, v}` if present.
    RemoveEdge(VertexId, VertexId),
    /// Grow the vertex count to at least `n` (never shrinks).
    AddVertex(usize),
}

/// Error from parsing a wire-format edit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditParseError {
    /// Malformed token (not `+u-v`, `-u-v`, or `v:n`).
    Parse(String),
    /// A vertex id exceeded [`MAX_EDIT_VERTEX`] — the io hardening bound.
    IdOverflow(u64),
}

impl fmt::Display for EditParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditParseError::Parse(tok) => write!(f, "malformed edit token '{tok}'"),
            EditParseError::IdOverflow(id) => {
                write!(f, "vertex id {id} exceeds the maximum {MAX_EDIT_VERTEX}")
            }
        }
    }
}

impl std::error::Error for EditParseError {}

/// An ordered sequence of edits against a base graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditLog {
    edits: Vec<Edit>,
}

fn assert_id(v: VertexId) {
    assert!(
        v as u64 <= MAX_EDIT_VERTEX,
        "vertex id {v} exceeds the maximum {MAX_EDIT_VERTEX}"
    );
}

impl EditLog {
    /// An empty log.
    pub fn new() -> EditLog {
        EditLog::default()
    }

    /// Append an add-edge edit.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert_id(u);
        assert_id(v);
        self.edits.push(Edit::AddEdge(u, v));
        self
    }

    /// Append a remove-edge edit.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        assert_id(u);
        assert_id(v);
        self.edits.push(Edit::RemoveEdge(u, v));
        self
    }

    /// Append a grow-vertex-count edit.
    pub fn add_vertex(&mut self, n: usize) -> &mut Self {
        assert!(
            n as u64 <= MAX_EDIT_VERTEX + 1,
            "vertex count {n} exceeds the maximum {}",
            MAX_EDIT_VERTEX + 1
        );
        self.edits.push(Edit::AddVertex(n));
        self
    }

    /// Append one edit (already-validated form).
    pub fn push(&mut self, e: Edit) -> &mut Self {
        match e {
            Edit::AddEdge(u, v) => self.add_edge(u, v),
            Edit::RemoveEdge(u, v) => self.remove_edge(u, v),
            Edit::AddVertex(n) => self.add_vertex(n),
        }
    }

    /// Append every edit of `other`, in order.
    pub fn extend(&mut self, other: &EditLog) -> &mut Self {
        self.edits.extend_from_slice(&other.edits);
        self
    }

    /// The edits, in application order.
    pub fn edits(&self) -> &[Edit] {
        &self.edits
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Render the wire format: comma-separated `+u-v` (add edge),
    /// `-u-v` (remove edge), `v:n` (grow vertex count) tokens.
    /// [`EditLog::parse`] inverts it.
    pub fn wire(&self) -> String {
        let toks: Vec<String> = self
            .edits
            .iter()
            .map(|e| match *e {
                Edit::AddEdge(u, v) => format!("+{u}-{v}"),
                Edit::RemoveEdge(u, v) => format!("-{u}-{v}"),
                Edit::AddVertex(n) => format!("v:{n}"),
            })
            .collect();
        toks.join(",")
    }

    /// Parse the wire format produced by [`EditLog::wire`]. Rejects
    /// vertex ids above [`MAX_EDIT_VERTEX`] with the same hardening
    /// posture as the edge-list reader.
    pub fn parse(s: &str) -> Result<EditLog, EditParseError> {
        let mut log = EditLog::new();
        let s = s.trim();
        if s.is_empty() {
            return Ok(log);
        }
        let id = |tok: &str, part: &str| -> Result<VertexId, EditParseError> {
            let raw: u64 = part
                .parse()
                .map_err(|_| EditParseError::Parse(tok.to_string()))?;
            if raw > MAX_EDIT_VERTEX {
                return Err(EditParseError::IdOverflow(raw));
            }
            Ok(raw as VertexId)
        };
        for tok in s.split(',') {
            let tok = tok.trim();
            if let Some(rest) = tok.strip_prefix("v:") {
                let n: u64 = rest
                    .parse()
                    .map_err(|_| EditParseError::Parse(tok.to_string()))?;
                if n > MAX_EDIT_VERTEX + 1 {
                    return Err(EditParseError::IdOverflow(n));
                }
                log.edits.push(Edit::AddVertex(n as usize));
            } else if let Some(rest) = tok.strip_prefix('+') {
                let (u, v) = rest
                    .split_once('-')
                    .ok_or_else(|| EditParseError::Parse(tok.to_string()))?;
                let (u, v) = (id(tok, u)?, id(tok, v)?);
                log.edits.push(Edit::AddEdge(u, v));
            } else if let Some(rest) = tok.strip_prefix('-') {
                let (u, v) = rest
                    .split_once('-')
                    .ok_or_else(|| EditParseError::Parse(tok.to_string()))?;
                let (u, v) = (id(tok, u)?, id(tok, v)?);
                log.edits.push(Edit::RemoveEdge(u, v));
            } else {
                return Err(EditParseError::Parse(tok.to_string()));
            }
        }
        Ok(log)
    }

    /// Resolve the log against `base` into an [`Overlay`].
    pub fn apply<'g>(&self, base: &'g Graph) -> Overlay<'g> {
        Overlay::new(base, self)
    }

    /// Build the edited graph as a fresh heap CSR. Byte-identical to
    /// `from_edge_list(new_n, base edges − removed + added)`.
    pub fn materialize(&self, base: &Graph) -> Graph {
        self.apply(base).materialize()
    }
}

/// The net effect of an [`EditLog`] on a base graph, readable without
/// rebuilding the CSR.
///
/// `added` holds normalized edges present in the edited graph but not
/// the base; `removed` holds base edges absent from the edited graph.
/// Adjacency deltas are indexed per endpoint so [`Overlay::neighbors`]
/// merges the (sorted) base row with the (sorted) delta in one pass.
#[derive(Debug)]
pub struct Overlay<'g> {
    base: &'g Graph,
    n: usize,
    added: BTreeSet<(u32, u32)>,
    removed: BTreeSet<(u32, u32)>,
    added_adj: HashMap<u32, Vec<u32>>,
    removed_adj: HashMap<u32, Vec<u32>>,
}

impl<'g> Overlay<'g> {
    fn new(base: &'g Graph, log: &EditLog) -> Overlay<'g> {
        let base_n = base.num_vertices();
        let mut n = base_n;
        let mut added: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut removed: BTreeSet<(u32, u32)> = BTreeSet::new();
        let in_base =
            |u: u32, v: u32| (u as usize) < base_n && (v as usize) < base_n && base.has_edge(u, v);
        for &e in log.edits() {
            match e {
                Edit::AddEdge(u, v) => {
                    if u == v {
                        continue; // self-loops drop, as in the builder
                    }
                    let key = (u.min(v), u.max(v));
                    n = n.max(key.1 as usize + 1);
                    if in_base(key.0, key.1) {
                        removed.remove(&key);
                    } else {
                        added.insert(key);
                    }
                }
                Edit::RemoveEdge(u, v) => {
                    let key = (u.min(v), u.max(v));
                    if !added.remove(&key) && in_base(key.0, key.1) {
                        removed.insert(key);
                    }
                }
                Edit::AddVertex(want) => n = n.max(want),
            }
        }
        let mut added_adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(u, v) in &added {
            added_adj.entry(u).or_default().push(v);
            added_adj.entry(v).or_default().push(u);
        }
        let mut removed_adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(u, v) in &removed {
            removed_adj.entry(u).or_default().push(v);
            removed_adj.entry(v).or_default().push(u);
        }
        for adj in added_adj.values_mut().chain(removed_adj.values_mut()) {
            adj.sort_unstable();
        }
        Overlay {
            base,
            n,
            added,
            removed,
            added_adj,
            removed_adj,
        }
    }

    /// The base graph this overlay edits.
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// Vertex count of the edited graph.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Edge count of the edited graph.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() - self.removed.len() + self.added.len()
    }

    /// Normalized edges present in the edited graph but not the base.
    pub fn added_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.added.iter().copied()
    }

    /// Normalized base edges absent from the edited graph.
    pub fn removed_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.removed.iter().copied()
    }

    /// Degree of `v` in the edited graph.
    pub fn degree(&self, v: VertexId) -> usize {
        let base = if (v as usize) < self.base.num_vertices() {
            self.base.degree(v)
        } else {
            0
        };
        base + self.added_adj.get(&v).map_or(0, Vec::len)
            - self.removed_adj.get(&v).map_or(0, Vec::len)
    }

    /// Whether `{u, v}` is an edge of the edited graph.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let key = (u.min(v), u.max(v));
        if self.added.contains(&key) {
            return true;
        }
        if self.removed.contains(&key) {
            return false;
        }
        (key.1 as usize) < self.base.num_vertices() && self.base.has_edge(key.0, key.1)
    }

    /// Sorted neighbors of `v` in the edited graph (merges the base row
    /// with the adjacency delta; allocates one small vector).
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let base: &[u32] = if (v as usize) < self.base.num_vertices() {
            self.base.neighbors(v)
        } else {
            &[]
        };
        let empty: &[u32] = &[];
        let add = self.added_adj.get(&v).map_or(empty, Vec::as_slice);
        let rem = self.removed_adj.get(&v).map_or(empty, Vec::as_slice);
        let mut out = Vec::with_capacity(base.len() + add.len() - rem.len());
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < base.len() || j < add.len() {
            let take_base = j >= add.len() || (i < base.len() && base[i] < add[j]);
            if take_base {
                let w = base[i];
                i += 1;
                // Skip removed base neighbors (both lists sorted).
                while k < rem.len() && rem[k] < w {
                    k += 1;
                }
                if k < rem.len() && rem[k] == w {
                    k += 1;
                    continue;
                }
                out.push(w);
            } else {
                out.push(add[j]);
                j += 1;
            }
        }
        out
    }

    /// Every vertex whose incident structure changed: endpoints of added
    /// and removed edges plus all vertices new to the edited graph.
    /// Sorted, deduplicated.
    pub fn touched(&self) -> Vec<VertexId> {
        let mut t: Vec<u32> = self
            .added
            .iter()
            .chain(self.removed.iter())
            .flat_map(|&(u, v)| [u, v])
            .collect();
        t.extend(self.base.num_vertices() as u32..self.n as u32);
        t.sort_unstable();
        t.dedup();
        t
    }

    /// The full edited edge list (normalized, sorted).
    pub fn edge_pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges());
        let mut add = self.added.iter().copied().peekable();
        for &[u, v] in self.base.edge_list() {
            let key = (u, v);
            while add.peek().is_some_and(|&a| a < key) {
                out.push(add.next().unwrap());
            }
            if !self.removed.contains(&key) {
                out.push(key);
            }
        }
        out.extend(add);
        out
    }

    /// Build the edited graph as a fresh heap CSR.
    pub fn materialize(&self) -> Graph {
        crate::builder::from_edge_list(self.n, &self.edge_pairs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edge_list;

    fn path4() -> Graph {
        from_edge_list(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn add_remove_net_effect() {
        let g = path4();
        let mut log = EditLog::new();
        log.add_edge(0, 3) // new
            .add_edge(1, 0) // duplicate of base (0,1) — no-op
            .remove_edge(1, 2) // base edge out
            .remove_edge(0, 3) // cancels the add
            .add_edge(3, 0); // back in
        let ov = log.apply(&g);
        assert_eq!(ov.num_vertices(), 4);
        assert_eq!(ov.num_edges(), 3);
        assert!(ov.has_edge(0, 3));
        assert!(!ov.has_edge(1, 2));
        assert!(ov.has_edge(0, 1));
        assert_eq!(ov.neighbors(0), vec![1, 3]);
        assert_eq!(ov.neighbors(1), vec![0]);
        assert_eq!(ov.degree(2), 1);
        assert_eq!(ov.touched(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn vertex_growth_and_selfloops() {
        let g = path4();
        let mut log = EditLog::new();
        log.add_edge(2, 2) // self-loop drops
            .add_edge(3, 6) // grows n to 7
            .add_vertex(9);
        let ov = log.apply(&g);
        assert_eq!(ov.num_vertices(), 9);
        assert_eq!(ov.degree(6), 1);
        assert_eq!(ov.degree(8), 0);
        assert_eq!(ov.neighbors(6), vec![3]);
        let m = ov.materialize();
        assert_eq!(m.num_vertices(), 9);
        assert_eq!(m.num_edges(), 4);
        m.validate().unwrap();
    }

    #[test]
    fn materialize_equals_direct_build() {
        let g = path4();
        let mut log = EditLog::new();
        log.remove_edge(0, 1).add_edge(1, 3).add_edge(3, 1);
        let edited = log.materialize(&g);
        let direct = from_edge_list(4, &[(1, 2), (2, 3), (1, 3)]);
        assert_eq!(edited.edge_list(), direct.edge_list());
        assert_eq!(edited.num_vertices(), direct.num_vertices());
        for v in edited.vertices() {
            assert_eq!(edited.neighbors(v), direct.neighbors(v));
            assert_eq!(edited.edge_ids_of(v), direct.edge_ids_of(v));
        }
    }

    #[test]
    fn remove_absent_is_noop() {
        let g = path4();
        let mut log = EditLog::new();
        log.remove_edge(0, 3).remove_edge(2, 1).remove_edge(1, 2);
        let ov = log.apply(&g);
        assert_eq!(ov.num_edges(), 2);
        assert!(!ov.has_edge(1, 2));
    }

    #[test]
    fn wire_round_trip() {
        let mut log = EditLog::new();
        log.add_edge(3, 1).remove_edge(0, 2).add_vertex(12);
        let wire = log.wire();
        assert_eq!(wire, "+3-1,-0-2,v:12");
        assert_eq!(EditLog::parse(&wire).unwrap(), log);
        assert_eq!(EditLog::parse("").unwrap(), EditLog::new());
        assert_eq!(EditLog::parse(" +1-2 , v:4 ").unwrap().len(), 2);
    }

    #[test]
    fn parse_rejects_overflow_and_garbage() {
        // The io hardening bound: u32::MAX and u32::MAX-1 are rejected,
        // u32::MAX-2 is the largest accepted id.
        let max_ok = MAX_EDIT_VERTEX;
        assert!(EditLog::parse(&format!("+0-{max_ok}")).is_ok());
        for bad in [u32::MAX as u64, u32::MAX as u64 - 1] {
            assert_eq!(
                EditLog::parse(&format!("+0-{bad}")),
                Err(EditParseError::IdOverflow(bad))
            );
        }
        assert!(EditLog::parse(&format!("v:{}", MAX_EDIT_VERTEX + 2)).is_err());
        for garbage in ["x", "+1", "-1", "+1-2-3", "+a-b", "1-2", "+1-2;+3-4"] {
            assert!(EditLog::parse(garbage).is_err(), "{garbage}");
        }
    }

    #[test]
    fn overlay_on_empty_base() {
        let g = Graph::empty(0);
        let mut log = EditLog::new();
        log.add_edge(0, 1).add_edge(1, 2);
        let ov = log.apply(&g);
        assert_eq!(ov.num_vertices(), 3);
        assert_eq!(ov.num_edges(), 2);
        assert_eq!(ov.neighbors(1), vec![0, 2]);
        let m = ov.materialize();
        m.validate().unwrap();
        assert_eq!(m.num_edges(), 2);
    }
}

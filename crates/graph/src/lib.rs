//! CSR graph substrate for the symmetry-breaking study.
//!
//! Everything in this repository operates on [`Graph`]: an immutable,
//! undirected graph in compressed-sparse-row form with stable *edge ids*
//! (both arcs of an undirected edge share one id), which the edge-centric
//! algorithms (LMAX matching, EB coloring, BRIDGE marking) rely on.
//!
//! Submodules:
//! * [`csr`] — the graph type itself and its accessors.
//! * [`builder`] — edge-list ingestion: direction symmetrization,
//!   self-loop removal, a parallel sort (skipped when the list arrives
//!   sorted) and dedup (the paper's preprocessing), then one sequential
//!   CSR scatter whose rows come out sorted.
//! * [`bfs`] — level-synchronous parallel BFS (Step 1 of BRIDGE).
//! * [`components`] — parallel connected components.
//! * [`subgraph`] — vertex- and edge-induced subgraph materialization with
//!   id remapping.
//! * [`view`] — zero-copy edge-filtered views (the output form of the
//!   light-weight decompositions).
//! * [`editlog`] — dynamic-graph edit logs and overlay views: the delta
//!   substrate for incremental re-solving.
//! * [`io`] — edge-list and Matrix-Market readers/writers so the original
//!   SuiteSparse inputs drop in when available.
//! * [`stats`] — the Table II statistics (%DEG2, average degree, …).
//! * [`store`] — storage backends: heap vectors vs shared read-only file
//!   mappings (the out-of-core substrate).
//! * [`sbg`] — the `.sbg` on-disk CSR format: writer + zero-copy mapped
//!   loader.
//! * [`renumber`] — degree-ordered vertex renumbering for convert-time
//!   locality, with the stored new→old permutation.

pub mod bfs;
pub mod builder;
pub mod components;
pub mod csr;
pub mod editlog;
pub mod io;
pub mod renumber;
pub mod sbg;
pub mod stats;
pub mod store;
pub mod subgraph;
pub mod view;

pub use builder::GraphBuilder;
pub use csr::{Graph, VertexId, INVALID};
pub use editlog::{Edit, EditLog, Overlay};
pub use sbg::{map_sbg, write_sbg, SbgError};
pub use stats::GraphStats;
pub use store::{FileIdent, GraphStore, Mapping};
pub use view::EdgeView;

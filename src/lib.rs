//! # symmetry-breaking
//!
//! Decomposition-based parallel symmetry breaking: maximal matching, vertex
//! coloring, and maximal independent set over light-weight graph
//! decompositions (BRIDGE / RAND / DEGk), reproducing *"A Study of Graph
//! Decomposition Algorithms for Parallel Symmetry Breaking"* (Nayyaroddeen,
//! Gambhir, Kothapalli; IPDPS-W 2017).
//!
//! This crate is the façade over the workspace: it re-exports the public
//! API of the substrate crates so applications depend on one crate.
//!
//! ```
//! use symmetry_breaking::prelude::*;
//!
//! // Build a graph, pick an algorithm + architecture, verify the result.
//! let g = from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
//! let algo = Algo::Rand { partitions: 2 };
//! let run = maximal_matching(&g, algo, None, Arch::Cpu, 42, &SolveOpts::default());
//! check_maximal_matching(&g, &run.mate).unwrap();
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

pub mod loadgen;

pub use sb_core as core;
pub use sb_datasets as datasets;
pub use sb_decompose as decompose;
pub use sb_engine as engine;
pub use sb_graph as graph;
pub use sb_par as par;
pub use sb_trace as trace;

/// One-stop imports for applications.
pub mod prelude {
    pub use sb_core::coloring::{vertex_coloring, ColoringRun};
    pub use sb_core::common::{Arch, FrontierMode, RunStats, SolveOpts};
    pub use sb_core::matching::{maximal_matching, suggested_partitions, MatchingRun};
    pub use sb_core::mis::{maximal_independent_set, MisRun};
    pub use sb_core::repair::repair;
    pub use sb_core::solver::{solve, Algo, Decomposition, Problem, Solution, Solver};
    pub use sb_core::verify::{
        check_coloring, check_independent_set, check_matching, check_maximal_independent_set,
        check_maximal_matching, color_count, matching_cardinality,
    };
    pub use sb_datasets::suite::{generate, load_or_generate, spec, GraphId, Scale};
    pub use sb_decompose::{
        decompose_bridge, decompose_degk, decompose_metis_like, decompose_rand,
    };
    pub use sb_engine::{
        parse_jobs, run_batch_compare, BatchOptions, BatchReport, CancelToken, Client, Engine,
        EngineConfig, GraphSource, JobSpec, ServeConfig, Server, ServerHandle, Session,
        SharedEngine,
    };
    pub use sb_graph::builder::{from_edge_list, GraphBuilder};
    pub use sb_graph::csr::{Graph, VertexId, INVALID};
    pub use sb_graph::editlog::{Edit, EditLog, Overlay, MAX_EDIT_VERTEX};
    pub use sb_graph::renumber::{renumber_by_degree, unpermute_labels};
    pub use sb_graph::sbg::{map_sbg, read_sbg_perm, write_sbg, SbgError};
    pub use sb_graph::stats::GraphStats;
    pub use sb_graph::store::{FileIdent, GraphStore, Mapping};
    pub use sb_par::counters::Counters;
    pub use sb_par::frontier::{Frontier, Scratch};
    pub use sb_trace::{TraceSink, TraceSummary};
}

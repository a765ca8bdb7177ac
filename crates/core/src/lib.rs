//! Decomposition-based parallel symmetry breaking.
//!
//! This crate is the reproduction of the paper's contribution: for each of
//! the three symmetry-breaking problems it provides the published baseline
//! algorithms and the three decomposition-based composites built on top of
//! them, on both execution models (multicore-CPU via rayon, GPU-sim via the
//! bulk-synchronous executor in `sb_par::bsp`).
//!
//! | Problem | Baselines | Decomposition composites |
//! |---------|-----------|--------------------------|
//! | Maximal matching ([`matching`]) | GM (greedy proposal), LMAX (local-max), Israeli–Itai | MM-Bridge, MM-Rand, MM-Degk, MM-Bicc† |
//! | Vertex coloring ([`coloring`]) | VB (vertex-based), EB (edge-based), JP with LF/SL orderings | COLOR-Bridge, COLOR-Rand, COLOR-Degk, COLOR-Bicc† |
//! | Maximal independent set ([`mis`]) | LubyMIS (classic 1986), greedy (static priorities) | MIS-Bridge, MIS-Rand, MIS-Deg2, MIS-Bicc† |
//!
//! † `*-Bicc` are extensions beyond the paper's evaluated set, after the
//! Hochbaum-style block decomposition its related work builds on.
//!
//! Every solver *extends* a partial solution over a vertex mask, which is
//! how the composites (Algorithms 4–12 of the paper) chain phases without
//! remapping vertex ids: decomposition pieces share the parent graph's id
//! space (see `sb_graph::subgraph`), phase 1 fills part of the solution
//! array, and phase 2 continues on the rest.
//!
//! [`solver`] is the registry: the one module that knows the solver
//! vocabulary ([`Problem`] × [`Algo`] = [`Solver`], their parse and label,
//! [`Decomposition`], [`Solution`]) and the one dispatch on the problem,
//! [`solve`]. Each family has one entry point with one signature —
//! [`matching::maximal_matching`], [`coloring::vertex_coloring`],
//! [`mis::maximal_independent_set`] — taking `(graph, algo, decomp, arch,
//! seed, &SolveOpts)`: `decomp: None` decomposes inline, `Some` runs the
//! solve phases over a precomputed (e.g. cached) decomposition, and the
//! trace sink and frontier mode ride in [`common::SolveOpts`].
//! [`repair::repair`] is the incremental counterpart of [`solve`].
//!
//! Use [`verify`] to check any produced solution against an independent
//! implementation of the problem definition.

pub mod coloring;
pub mod common;
pub mod matching;
pub mod mis;
pub mod repair;
pub mod solver;
pub mod verify;

pub use common::{Arch, RunStats};
pub use solver::{solve, Algo, Decomposition, Problem, Solution, Solver};

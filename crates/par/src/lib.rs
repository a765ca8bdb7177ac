//! Parallel primitives and execution substrates for the symmetry-breaking study.
//!
//! This crate provides the two execution models the study runs on:
//!
//! * **CPU-parallel** — thin wrappers over [rayon] used by the multicore-CPU
//!   algorithm family (module [`prim`]), plus parallel scans and stream
//!   compaction which the graph and decomposition crates build on.
//! * **GPU-sim** — a bulk-synchronous executor (module [`bsp`]) that runs a
//!   sequence of flat data-parallel *kernels* with a barrier between kernels,
//!   counting launches and per-kernel work. The GPU algorithm family (LMAX,
//!   EB, flat Luby) is written against this executor; it substitutes for the
//!   NVidia K40c of the original paper while preserving the algorithmic
//!   structure that drives the paper's round-count comparisons.
//!
//! Supporting modules: [`atomic`] (atomic min/CAS helpers and a concurrent
//! bitset), [`frontier`] (active-set worklist compaction and the scratch
//! buffer arena the frontier solver variants borrow their per-call working
//! memory from), [`counters`] (instrumentation shared by all algorithms plus the
//! K40c cost model), [`exec`] (thread-pool scoping — the one place thread
//! counts are pinned for ablations and tests), [`rng`] (counter-based
//! splittable random numbers so parallel algorithms are deterministic for a
//! given seed regardless of thread count), [`stop`] (stopping a job at its
//! next round once its deadline passes or its cancel token fires), and
//! [`union_find`] (lock-free disjoint sets).

pub mod atomic;
pub mod bsp;
pub mod counters;
pub mod exec;
pub mod frontier;
pub mod prim;
pub mod rng;
pub mod stop;
pub mod union_find;

pub use bsp::BspExecutor;
pub use counters::{Counters, PhaseGuard, RoundScope};
pub use exec::{current_threads, with_threads};
pub use frontier::{compact_active, compact_range, Frontier, Scratch, ScratchStats};

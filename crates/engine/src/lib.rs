//! `sb-engine` — the cached-decomposition batch-solve engine.
//!
//! The paper's cost argument is that a light decomposition pays for itself
//! because its cost is amortized over the downstream solve. This crate
//! amortizes one step further: across *jobs*. A batch of jobs
//! (`graph × decomposition × problem × algo × arch × mode`) runs through
//! one [`Engine`], which fingerprints graphs ([`fingerprint`]), memoizes
//! parsed graphs and decompositions in bounded LRU caches ([`cache`])
//! keyed by `(fingerprint, decomposition, params, seed)`, and runs each
//! job on the calling thread with its own thread pin, trace sink, and a
//! stop that ends it at its next round once its timeout passes or its
//! cancel token fires ([`batch`]). N jobs on one graph pay for ingestion
//! and each distinct decomposition once.
//!
//! The cached path is byte-identical to the fresh path: solver outputs are
//! pure functions of `(graph, decomposition, algo, arch, seed, mode)`, and
//! decompositions are pure functions of `(graph, params, seed)` — the
//! sb-fuzz engine axis enforces this end to end. The solver vocabulary
//! (`Solver`, `Decomposition`, `Solution`) and the dispatch both come from
//! `sb_core::solver`; the engine only decides where a decomposition comes
//! from (its cache or a fresh `Decomposition::compute`).
//!
//! Surfaces: `sbreak batch <jobs.toml>` (see [`jobs`] for the file
//! format), the `table1` bench runner (`results/BENCH_engine.json`), and
//! the library API ([`Engine::solve_on`], [`Engine::run_job`],
//! [`run_batch_compare`]).

pub mod batch;
pub mod cache;
pub mod engine;
pub mod fingerprint;
pub mod jobs;
pub mod protocol;
pub mod report;
pub mod serve;
pub mod session;

pub use batch::{run_batch_compare, BatchOptions, JobOutcome, JobRecord};
pub use cache::CacheStats;
pub use engine::{EditOutcome, Engine, EngineConfig, GraphSource};
pub use fingerprint::{fingerprint_graph, fingerprint_with_edits, fingerprint_with_edits_from};
pub use jobs::{parse_jobs, JobSpec};
pub use report::BatchReport;
pub use serve::{Client, ServeConfig, Server, ServerHandle};
pub use session::{CancelToken, Session, SharedEngine};

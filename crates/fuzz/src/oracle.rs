//! The differential oracle: run one solver configuration across the
//! frontier-mode × thread-count matrix and cross-check everything the
//! project's contracts promise (DESIGN.md §10–§11).
//!
//! Per case the oracle runs both frontier modes (dense, compact) at 1 and
//! N threads — four runs — and checks:
//!
//! 1. **Validity + maximality** of every run against the sequential
//!    oracles in `sb_core::verify`.
//! 2. **Byte-equality** where the contract promises it: all four runs for
//!    matching and MIS; the 1-thread runs across both modes for coloring
//!    (VB's speculative conflict resolution is interleaving-dependent at
//!    N).
//! 3. **Trace/counter accounting**: the top-level span deltas of the
//!    trace must sum to exactly the run's counter snapshot.
//! 4. **Round accounting**: per-phase round records are thread-invariant
//!    within a mode (matching and MIS), and *productive* round counts are
//!    frontier-mode-invariant for the LMAX (GPU-sim) matching family.

use crate::config::SolverConfig;
use sb_core::common::{FrontierMode, RunStats, SolveOpts};
use sb_core::solver::{solve, Algo, Problem, Solution};
use sb_core::Arch;
use sb_graph::csr::{Graph, INVALID};
use sb_par::with_threads;
use sb_trace::{total_delta, TraceEvent, TraceSink};
use std::sync::Arc;

/// A deliberate solver corruption, used to self-validate the harness: the
/// planted bug must be caught by the oracle and minimized by the shrinker
/// before any clean run is trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// No corruption: the real solvers.
    #[default]
    None,
    /// Un-match the lowest matched pair after every matching solve,
    /// leaving an edge with two free endpoints — a maximality violation
    /// on any graph with at least one edge.
    CorruptMatching,
    /// Corrupt every cached decomposition in the engine between priming
    /// and the cache-hit run ([`check_engine_case`]) — simulating a stale
    /// or mis-keyed cache entry. The engine axis must catch the resulting
    /// cached-vs-fresh divergence; the solver matrix ignores it.
    StaleDecompCache,
    /// Serve the stream's *prior* solution instead of running the repair
    /// on every edit batch ([`check_edit_chain`]) — the footprint of a
    /// stale-stream bug where a dynamic-graph service answers from the
    /// pre-edit solution. The edit axis must flag it whenever a batch
    /// actually invalidates the prior (and must stay clean when every
    /// batch happens to preserve it).
    StaleRepair,
}

/// One contract violation found by the oracle.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which check tripped: `validity`, `equality`, `accounting`,
    /// `rounds`, or `serve`.
    pub kind: &'static str,
    /// Human-readable description naming the runs involved.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

struct RunOutput {
    tag: String,
    mode: FrontierMode,
    threads: usize,
    out: Solution,
    stats: RunStats,
    events: Vec<TraceEvent>,
}

fn run_one(
    g: &Graph,
    cfg: &SolverConfig,
    seed: u64,
    mode: FrontierMode,
    threads: usize,
    mutation: Mutation,
) -> RunOutput {
    with_threads(threads, || {
        let sink = Arc::new(TraceSink::enabled());
        let opts = SolveOpts {
            trace: Some(sink.clone()),
            frontier: mode,
        };
        let (mut out, stats) = solve(g, cfg.solver, None, cfg.arch, seed, &opts);
        match &mut out {
            Solution::Mate(mate) if mutation == Mutation::CorruptMatching => {
                if let Some(v) = mate.iter().position(|&m| m != INVALID) {
                    let m = mate[v] as usize;
                    mate[v] = INVALID;
                    mate[m] = INVALID;
                }
            }
            _ => {}
        }
        RunOutput {
            tag: format!("{mode}@{threads}t"),
            mode,
            threads,
            out,
            stats,
            events: sink.events(),
        }
    })
}

fn check_valid(g: &Graph, run: &RunOutput) -> Result<(), Failure> {
    run.out.verify(g).map_err(|e| Failure {
        kind: "validity",
        detail: format!("{}: {e}", run.tag),
    })
}

/// Run `cfg` on `g` across the mode × thread matrix and cross-check every
/// documented contract. `wide` is the N used for the wide runs (1 means
/// the matrix degenerates to the two modes at one thread — still useful,
/// but thread-invariance becomes vacuous).
pub fn check_case(
    g: &Graph,
    cfg: &SolverConfig,
    seed: u64,
    wide: usize,
    mutation: Mutation,
) -> Result<(), Failure> {
    let combos = [
        (FrontierMode::Dense, 1),
        (FrontierMode::Compact, 1),
        (FrontierMode::Dense, wide.max(1)),
        (FrontierMode::Compact, wide.max(1)),
    ];
    let runs: Vec<RunOutput> = combos
        .iter()
        .map(|&(mode, t)| run_one(g, cfg, seed, mode, t, mutation))
        .collect();

    // 1. Every run valid and maximal.
    for run in &runs {
        check_valid(g, run)?;
    }

    // 2. Byte-equality where the contract promises it. The first run is
    // on one thread, where every problem is byte-stable.
    let problem = cfg.solver.problem;
    for run in runs[1..]
        .iter()
        .filter(|r| problem.byte_stable_at(r.threads))
    {
        if run.out != runs[0].out {
            return Err(Failure {
                kind: "equality",
                detail: format!("{} differs from {}", run.tag, runs[0].tag),
            });
        }
    }

    // 3. Trace/counter accounting: top-level span deltas must sum to the
    // run's counter snapshot (every counted unit of work happens inside
    // some phase span).
    for run in &runs {
        let td = total_delta(&run.events);
        let c = &run.stats.counters;
        if (
            td.rounds,
            td.kernel_launches,
            td.work_items,
            td.edges_scanned,
        ) != (c.rounds, c.kernel_launches, c.work_items, c.edges_scanned)
        {
            return Err(Failure {
                kind: "accounting",
                detail: format!(
                    "{}: span deltas {td:?} != counter snapshot \
                     (rounds {}, launches {}, work {}, edges {})",
                    run.tag, c.rounds, c.kernel_launches, c.work_items, c.edges_scanned
                ),
            });
        }
    }

    // 4a. Per-phase round records are thread-invariant within a mode for
    // the seed-deterministic families (matching, MIS).
    if cfg.solver.problem != Problem::Color {
        for mode in [FrontierMode::Dense, FrontierMode::Compact] {
            let pair: Vec<&RunOutput> = runs.iter().filter(|r| r.mode == mode).collect();
            let a = sb_trace::rounds_per_phase(&pair[0].events);
            let b = sb_trace::rounds_per_phase(&pair[1].events);
            if a != b {
                return Err(Failure {
                    kind: "rounds",
                    detail: format!(
                        "{mode} rounds vary with threads: {a:?} at {}t vs {b:?} at {}t",
                        pair[0].threads, pair[1].threads
                    ),
                });
            }
        }
    }

    // 4b. Productive (non-vacuous) round counts are frontier-mode
    // invariant for the LMAX matching family on the GPU-sim pipeline —
    // the §10 contract this PR's vacuous-round fix establishes.
    if cfg.solver.problem == Problem::Mm && cfg.arch == Arch::GpuSim {
        let base = sb_trace::productive_rounds_per_phase(&runs[0].events);
        for run in &runs[1..] {
            let got = sb_trace::productive_rounds_per_phase(&run.events);
            if got != base {
                return Err(Failure {
                    kind: "rounds",
                    detail: format!(
                        "productive rounds differ: {base:?} ({}) vs {got:?} ({})",
                        runs[0].tag, run.tag
                    ),
                });
            }
        }
    }

    Ok(())
}

/// The engine configuration axis: run `cfg` once through a cap-0 engine
/// (never caches — the fresh reference), then through a caching engine
/// twice (prime, then cache hit), and check the cached-vs-fresh contract:
///
/// 1. The primed and cache-hit solutions are **byte-identical** to the
///    fresh one — a decomposition served from the cache must not change
///    any output bit.
/// 2. All three solutions have identical `verify` outcomes (and for the
///    real solvers, all must verify).
/// 3. For decomposed solvers the hit run actually *was* a cache hit —
///    otherwise the axis silently tested nothing.
///
/// [`Mutation::StaleDecompCache`] corrupts every cached decomposition
/// between priming and the hit run; this check must then fail (the
/// planted-bug self-test for the axis).
pub fn check_engine_case(
    g: &Graph,
    cfg: &SolverConfig,
    seed: u64,
    mutation: Mutation,
) -> Result<(), Failure> {
    use sb_engine::{Engine, EngineConfig};

    let SolverConfig { solver, arch } = *cfg;
    let g = Arc::new(g.clone());
    let opts = SolveOpts::default();

    // Fresh reference: a cap-0 engine never caches anything.
    let mut fresh_engine = Engine::with_cap(0);
    let fresh = fresh_engine.solve_on(&g, solver, arch, seed, &opts);

    // Cached path: prime, (maybe corrupt,) then solve again on the hit.
    let mut cached_engine = Engine::new(EngineConfig::default());
    let primed = cached_engine.solve_on(&g, solver, arch, seed, &opts);
    if mutation == Mutation::StaleDecompCache {
        cached_engine.corrupt_cached_decompositions();
    }
    let hit = cached_engine.solve_on(&g, solver, arch, seed, &opts);

    let decomposed = solver.algo != Algo::Baseline;
    if decomposed && hit.decomp_cached != Some(true) {
        return Err(Failure {
            kind: "accounting",
            detail: format!(
                "engine axis: second solve did not hit the decomposition \
                 cache (decomp_cached = {:?})",
                hit.decomp_cached
            ),
        });
    }

    for (tag, sol) in [("primed", &primed.solution), ("cache-hit", &hit.solution)] {
        if sol != &fresh.solution {
            return Err(Failure {
                kind: "equality",
                detail: format!("engine axis: {tag} output differs from cap-0 fresh output"),
            });
        }
    }
    let fresh_verify = fresh.solution.verify(&g);
    for (tag, sol) in [("primed", &primed.solution), ("cache-hit", &hit.solution)] {
        let v = sol.verify(&g);
        if v.is_ok() != fresh_verify.is_ok() {
            return Err(Failure {
                kind: "validity",
                detail: format!(
                    "engine axis: {tag} verify outcome {v:?} differs from fresh {fresh_verify:?}"
                ),
            });
        }
    }
    if let Err(e) = fresh_verify {
        return Err(Failure {
            kind: "validity",
            detail: format!("engine axis: fresh solution fails verification: {e}"),
        });
    }
    Ok(())
}

/// The edit axis driven by an explicit edit sequence: chain `seq` over
/// `g` per frontier mode, repairing the prior solution across each batch
/// with the family's `sb_core::repair` entry point, and check the
/// dynamic-graph contracts (DESIGN.md §16):
///
/// 1. **Validity + maximality per batch**: every repaired solution must
///    pass the sequential oracle *on the edited graph*.
/// 2. **Repaired-vs-fresh agreement**: a fresh solve of the edited graph
///    must agree with the repaired solution on validity (both verify) —
///    checked on the first mode so each batch pays one fresh solve, not
///    two.
/// 3. **Mode-invariance**: repairs are sequential and deterministic, and
///    single-thread initial solves are mode-invariant for every family,
///    so the final repaired output must be byte-identical across
///    frontier modes.
///
/// [`Mutation::StaleRepair`] serves the prior unrepaired instead; any
/// batch that invalidates the prior must then trip check 1 or 2.
pub fn check_edit_chain(
    g: &Graph,
    cfg: &SolverConfig,
    seed: u64,
    wide: usize,
    mutation: Mutation,
    seq: &[sb_graph::editlog::EditLog],
) -> Result<(), Failure> {
    use sb_core::repair;

    let modes = [FrontierMode::Dense, FrontierMode::Compact];
    let mut finals: Vec<(FrontierMode, Solution)> = Vec::new();
    for (mi, &mode) in modes.iter().enumerate() {
        let opts = SolveOpts {
            trace: None,
            frontier: mode,
        };
        let mut cur = g.clone();
        let mut prior = run_one(g, cfg, seed, mode, 1, Mutation::None).out;
        for (bi, batch) in seq.iter().enumerate() {
            let next = batch.materialize(&cur);
            let repaired = if mutation == Mutation::StaleRepair {
                prior.clone()
            } else {
                repair::repair(&cur, batch, &prior, &opts).0
            };
            let tag = format!("{mode} batch {bi} [{}]", batch.wire());
            let repaired_check = repaired.verify(&next);
            if mi == 0 {
                let fresh = run_one(&next, cfg, seed, mode, wide.max(1), Mutation::None);
                let fresh_ok = check_valid(&next, &fresh).is_ok();
                if repaired_check.is_ok() != fresh_ok {
                    return Err(Failure {
                        kind: "edit-validity",
                        detail: format!(
                            "{tag}: repaired ({}) and fresh ({}) disagree on validity: {}",
                            if repaired_check.is_ok() {
                                "valid"
                            } else {
                                "invalid"
                            },
                            if fresh_ok { "valid" } else { "invalid" },
                            repaired_check.err().unwrap_or_else(|| "-".into()),
                        ),
                    });
                }
            }
            if let Err(e) = repaired_check {
                return Err(Failure {
                    kind: "edit-validity",
                    detail: format!("{tag}: repaired solution invalid on the edited graph: {e}"),
                });
            }
            cur = next;
            prior = repaired;
        }
        finals.push((mode, prior));
    }
    for (mode, out) in &finals[1..] {
        if out != &finals[0].1 {
            return Err(Failure {
                kind: "edit-equality",
                detail: format!(
                    "final repaired output at {mode} differs from {}",
                    finals[0].0
                ),
            });
        }
    }
    Ok(())
}

/// Batches per derived edit sequence ([`check_edit_case`]); the
/// minimizer re-derives with the same shape.
pub const EDIT_BATCHES: usize = 2;
/// Edits per derived batch.
pub const EDIT_BATCH_SIZE: usize = 3;

/// The edit axis with the sequence derived from `(g, seed)` — what the
/// sweep runs per case. Two batches of up to three edits keep the axis
/// roughly as expensive as one extra mode pass.
pub fn check_edit_case(
    g: &Graph,
    cfg: &SolverConfig,
    seed: u64,
    wide: usize,
    mutation: Mutation,
) -> Result<(), Failure> {
    let seq = crate::gen::edit_sequence(g, seed, EDIT_BATCHES, EDIT_BATCH_SIZE);
    check_edit_chain(g, cfg, seed, wide, mutation, &seq)
}

/// A resident loopback `sbreak serve` daemon shared by every serve-axis
/// check of one fuzz sweep, so the sweep pays the bind/connect cost once
/// and the daemon's caches accumulate real cross-case traffic.
pub struct ServeOracle {
    handle: sb_engine::ServerHandle,
    client: std::sync::Mutex<sb_engine::Client>,
}

impl ServeOracle {
    /// Bind a loopback daemon with default serve settings.
    pub fn spawn() -> Result<ServeOracle, String> {
        let handle = sb_engine::Server::spawn(sb_engine::ServeConfig::default())
            .map_err(|e| format!("cannot spawn serve oracle: {e}"))?;
        let client = sb_engine::Client::connect(handle.addr())
            .map_err(|e| format!("cannot connect to serve oracle: {e}"))?;
        Ok(ServeOracle {
            handle,
            client: std::sync::Mutex::new(client),
        })
    }

    /// Shut the daemon down and join its threads.
    pub fn stop(self) {
        self.handle.shutdown();
        drop(self.client);
        self.handle.join();
    }
}

/// Recover the undirected edge list from a CSR graph (each edge once,
/// lower endpoint first) — the form `inline:` graph sources carry.
fn edge_list(g: &Graph) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..g.num_vertices() as u32 {
        for &v in g.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// The serve axis: route the case through the loopback daemon as an
/// `inline:` graph with `want_solution`, and byte-compare the returned
/// solution text against an in-process cap-0 engine running the *same*
/// `JobSpec`. Any divergence — outcome, detail, or a single solution
/// byte — is a `serve` failure: the wire protocol, admission pipeline,
/// and shared caches must be invisible to the solver contract.
///
/// [`Mutation::CorruptMatching`] corrupts the in-process reference before
/// the comparison, so the planted-bug self-test covers this axis too.
pub fn check_serve_case(
    g: &Graph,
    cfg: &SolverConfig,
    seed: u64,
    mutation: Mutation,
    serve: &ServeOracle,
) -> Result<(), Failure> {
    use sb_engine::protocol::SolveParams;
    use sb_engine::{Engine, GraphSource};

    let fail = |detail: String| Failure {
        kind: "serve",
        detail,
    };
    // JSON numbers are f64 on both ends of the wire, and the protocol
    // rejects integers above 2^53-1 rather than rounding them; fold the
    // fuzzer's full-width seed into the representable range.
    let seed = seed & sb_metrics::MAX_SAFE_JSON_INT;
    let mut params = SolveParams::new(
        &GraphSource::encode_inline(g.num_vertices(), &edge_list(g)),
        cfg.solver.problem.name(),
        &cfg.solver.algo.label(),
    );
    params.id = format!("fuzz-{}-{seed}", cfg.label());
    params.arch = cfg.arch.to_string();
    params.seed = seed;
    params.want_solution = true;
    let job = params
        .to_job_spec()
        .map_err(|e| fail(format!("config does not cross the wire: {e}")))?;

    let mut fresh = Engine::with_cap(0);
    let mut reference = fresh.run_job(&job, None);
    if mutation == Mutation::CorruptMatching {
        if let Some(Solution::Mate(mate)) = &mut reference.solution {
            if let Some(v) = mate.iter().position(|&m| m != INVALID) {
                let m = mate[v] as usize;
                mate[v] = INVALID;
                mate[m] = INVALID;
            }
        }
    }

    let reply = lock_client(&serve.client)
        .solve(&params)
        .map_err(|e| fail(format!("daemon round-trip failed: {e}")))?;
    if reply.status() != "ok" {
        return Err(fail(format!(
            "daemon answered {:?} ({:?}) but the in-process engine ran \
             to {:?}",
            reply.status(),
            reply.str_field("detail").unwrap_or_default(),
            reference.outcome
        )));
    }
    let expected = reference
        .solution
        .as_ref()
        .map(|s| s.render())
        .unwrap_or_default();
    let served = reply.str_field("solution").unwrap_or_default();
    if served != expected {
        return Err(fail(format!(
            "served solution differs from the in-process engine \
             ({} served bytes vs {} expected)",
            served.len(),
            expected.len()
        )));
    }
    if reply.str_field("detail") != Some(reference.detail.as_str()) {
        return Err(fail(format!(
            "served detail {:?} differs from in-process detail {:?}",
            reply.str_field("detail"),
            reference.detail
        )));
    }
    Ok(())
}

fn lock_client(
    m: &std::sync::Mutex<sb_engine::Client>,
) -> std::sync::MutexGuard<'_, sb_engine::Client> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(label: &str) -> SolverConfig {
        label.parse().unwrap()
    }
    use sb_graph::builder::from_edge_list;

    #[test]
    fn clean_solver_passes_on_a_path() {
        let g = from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        for cfg in SolverConfig::all() {
            check_case(&g, &cfg, 7, 2, Mutation::None)
                .unwrap_or_else(|f| panic!("{}: {f}", cfg.label()));
        }
    }

    #[test]
    fn planted_corruption_is_caught_as_validity_failure() {
        let g = from_edge_list(2, &[(0, 1)]);
        let cfg = cfg("mm-baseline@cpu");
        let f = check_case(&g, &cfg, 7, 2, Mutation::CorruptMatching).unwrap_err();
        assert_eq!(f.kind, "validity");
    }

    /// A chain with chord edges: dense enough that a corrupted
    /// decomposition visibly changes solver output (a bare chain's
    /// matchings are too rigid to diverge).
    fn chorded_graph() -> Graph {
        let n = 32u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.extend((0..n).map(|i| (i, (i * 7 + 3) % n)));
        from_edge_list(n as usize, &edges)
    }

    #[test]
    fn engine_axis_clean_solvers_pass() {
        let g = chorded_graph();
        for cfg in SolverConfig::all() {
            check_engine_case(&g, &cfg, 9, Mutation::None)
                .unwrap_or_else(|f| panic!("{}: {f}", cfg.label()));
        }
    }

    #[test]
    fn engine_axis_catches_planted_stale_cache() {
        let g = chorded_graph();
        let cfg = cfg("color-rand:3@cpu");
        let f = check_engine_case(&g, &cfg, 9, Mutation::StaleDecompCache).unwrap_err();
        assert!(
            f.kind == "equality" || f.kind == "validity",
            "want cached-vs-fresh divergence, got {f}"
        );
    }

    #[test]
    fn engine_axis_stale_cache_is_noop_for_undecomposed_solvers() {
        // Baseline solvers cache no decomposition, so the planted stale
        // entry has nothing to corrupt: the check must still pass.
        let g = chorded_graph();
        let cfg = cfg("mm-baseline@cpu");
        check_engine_case(&g, &cfg, 9, Mutation::StaleDecompCache).unwrap();
    }

    #[test]
    fn edit_axis_clean_matrix_passes() {
        // Every registered configuration survives a derived edit chain:
        // repairs verify per batch, agree with fresh solves, and are
        // mode-invariant.
        let g = chorded_graph();
        for cfg in SolverConfig::all() {
            check_edit_case(&g, &cfg, 9, 2, Mutation::None)
                .unwrap_or_else(|f| panic!("{}: {f}", cfg.label()));
        }
    }

    /// Two disjoint triangles: dismantling the first and wiring vertex 0
    /// into every vertex of the second invalidates any pre-edit solution
    /// of every family, whatever the solver chose. A maximal matching
    /// matches exactly one triangle-1 edge (now gone); a MIS takes
    /// exactly one triangle-1 vertex (0 becomes adjacent to the whole
    /// second triangle, 1/2 leave an isolated unclaimed vertex); a
    /// greedy coloring gives each triangle the palette {0,1,2}, so 0
    /// must collide with one of its three new neighbors.
    fn stale_repair_case() -> (Graph, [sb_graph::editlog::EditLog; 1]) {
        let g = from_edge_list(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
        let seq = [sb_graph::editlog::EditLog::parse("-0-1,-0-2,-1-2,+0-3,+0-4,+0-5").unwrap()];
        (g, seq)
    }

    #[test]
    fn edit_axis_catches_a_planted_stale_repair_per_family() {
        let (g, seq) = stale_repair_case();
        for cfg in [
            cfg("mm-baseline@cpu"),
            cfg("mis-baseline@cpu"),
            cfg("color-baseline@cpu"),
        ] {
            let f = match check_edit_chain(&g, &cfg, 7, 2, Mutation::StaleRepair, &seq) {
                Err(f) => f,
                Ok(()) => panic!("{}: stale repair not caught", cfg.label()),
            };
            assert_eq!(f.kind, "edit-validity", "{}: {f}", cfg.label());
            // The same chain with the real repair passes.
            check_edit_chain(&g, &cfg, 7, 2, Mutation::None, &seq)
                .unwrap_or_else(|f| panic!("{}: {f}", cfg.label()));
        }
    }

    #[test]
    fn edit_axis_stale_repair_is_noop_on_a_net_noop_batch() {
        // A batch whose net effect is empty (remove then re-add the same
        // edge) leaves the graph unchanged, so the unrepaired prior stays
        // valid and the planted bug must NOT fire — pinning that the
        // self-test is about edits that matter, not generic corruption.
        use sb_graph::editlog::EditLog;
        let g = from_edge_list(2, &[(0, 1)]);
        let seq = [EditLog::parse("-0-1,+0-1").unwrap()];
        let cfg = cfg("mm-baseline@cpu");
        check_edit_chain(&g, &cfg, 7, 2, Mutation::StaleRepair, &seq).unwrap();
    }

    #[test]
    fn serve_axis_clean_matrix_passes_through_one_daemon() {
        // Every registered configuration crosses the wire cleanly, all
        // through one resident daemon — cross-case cache reuse included.
        let g = chorded_graph();
        let daemon = ServeOracle::spawn().unwrap();
        for cfg in SolverConfig::all() {
            check_serve_case(&g, &cfg, 9, Mutation::None, &daemon)
                .unwrap_or_else(|f| panic!("{}: {f}", cfg.label()));
        }
        daemon.stop();
    }

    #[test]
    fn serve_axis_catches_a_diverging_solution() {
        // Planted-bug self-test: corrupting the in-process reference must
        // surface as a byte-level serve divergence.
        let g = chorded_graph();
        let daemon = ServeOracle::spawn().unwrap();
        let cfg = cfg("mm-baseline@cpu");
        let f = check_serve_case(&g, &cfg, 9, Mutation::CorruptMatching, &daemon).unwrap_err();
        assert_eq!(f.kind, "serve");
        assert!(f.detail.contains("differs"), "{f}");
        daemon.stop();
    }
}

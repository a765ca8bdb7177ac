//! Job scheduling: cache admission, the stop, the batch driver.
//!
//! Each job runs inline on the thread that owns it — the `sbreak batch`
//! loop or a serve worker — inside [`sb_par::stop::run_stoppable`]. Once
//! its timeout or the caller's deadline passes, or its cancel token fires,
//! the job stops at its next round check and is answered `timeout` or
//! `cancelled`; any other panic is answered `failed`. Cache admission
//! happens *only after* a job completes cleanly and verifies: a stopped or
//! failed job inserts nothing, so it can never poison the caches for the
//! jobs behind it.

use crate::cache::DEFAULT_TENANT;
use crate::engine::{DecompKey, Engine, GraphSource};
use crate::fingerprint::fingerprint_graph;
use crate::jobs::JobSpec;
use crate::report::BatchReport;
use sb_core::common::SolveOpts;
use sb_core::solver::{self, Algo, Decomposition, Problem, Solution};
use sb_graph::csr::Graph;
use sb_par::counters::Stopwatch;
use sb_par::exec::{current_threads, with_threads};
use sb_par::stop::{run_stoppable, CancelToken, Stopped};
use sb_trace::TraceSink;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Solved and verified.
    Ok,
    /// The job's timeout or its caller's deadline passed, and the job
    /// stopped at its next round check.
    TimedOut,
    /// The job errored (load failure, solver panic, failed verification).
    Failed(String),
    /// The client cancelled the job before it finished.
    Cancelled,
}

impl JobOutcome {
    /// Fixed-vocabulary outcome cell for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::TimedOut => "timeout",
            JobOutcome::Failed(_) => "failed",
            JobOutcome::Cancelled => "cancelled",
        }
    }
}

/// Everything recorded about one job's run.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job label from the jobs file.
    pub label: String,
    /// Graph-source cache key.
    pub graph: String,
    /// `solver@arch/frontier` summary.
    pub config: String,
    /// Solver seed.
    pub seed: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Solution summary (Ok) or error text (Failed); empty on timeout.
    pub detail: String,
    /// Whether the parsed graph came from the cache.
    pub graph_cached: bool,
    /// Decomposition provenance: cached / computed / baseline (`None`).
    pub decomp_cached: Option<bool>,
    /// Measured decomposition time (0 on a cache hit).
    pub decompose_ms: f64,
    /// Solver time.
    pub solve_ms: f64,
    /// End-to-end wall clock for the job, ingestion included.
    pub wall_ms: f64,
    /// Wall clock of the matching job in the cache-disabled reference run
    /// (filled by [`run_batch_compare`]).
    pub fresh_wall_ms: Option<f64>,
    /// The solution itself (Ok jobs only) for byte-equality checks and
    /// `--out-dir` rendering.
    pub solution: Option<Solution>,
    /// Fingerprint of the graph the job solved (Ok jobs only), so
    /// [`run_batch_compare`] can tell a stale graph-cache entry from a
    /// legitimately different coloring.
    pub fingerprint: Option<u64>,
}

/// Batch-level options.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// When set, each job records a trace written to
    /// `<trace_dir>/<label>.jsonl`.
    pub trace_dir: Option<PathBuf>,
}

/// Cache-probe result for one job: what the engine already holds. Taken
/// under the engine lock (or `&mut Engine`), then released while the job
/// computes.
pub(crate) struct JobProbe {
    cached_graph: Option<(Arc<Graph>, u64)>,
    cached_decomp: Option<Arc<Decomposition>>,
    fingerprint_seed: u64,
}

/// How a job may reach the engine: directly (`&mut Engine`, the
/// batch path) or through a shared lock ([`crate::session::SharedEngine`],
/// the serve path). The probe→compute→commit pipeline in
/// [`run_job_shared`] only touches the engine through this, so the serve
/// path holds the lock for microseconds around cache operations, never
/// across a solve.
pub(crate) trait EngineAccess {
    /// Run `f` with exclusive access to the engine.
    fn with_engine<R>(&mut self, f: impl FnOnce(&mut Engine) -> R) -> R;
}

impl EngineAccess for Engine {
    fn with_engine<R>(&mut self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(self)
    }
}

impl Engine {
    /// Probe both caches for `job`'s inputs, refreshing recency and
    /// hit/miss statistics. Cheap: two map lookups and two `Arc` clones.
    pub(crate) fn probe_job(&mut self, src_key: &String, algo: Algo, seed: u64) -> JobProbe {
        let cached_graph = self.graphs.get(src_key).cloned();
        let cached_decomp = match &cached_graph {
            Some((_, fp)) if algo != Algo::Baseline => {
                self.decomps.get(&DecompKey::new(*fp, algo, seed)).cloned()
            }
            _ => None,
        };
        JobProbe {
            cached_graph,
            cached_decomp,
            fingerprint_seed: self.fingerprint_seed,
        }
    }

    /// Run one job through the caches, inline on this thread, stopping it at
    /// its next round check once its `timeout_ms` passes. Cache inserts
    /// happen only after a clean, verified finish.
    pub fn run_job(&mut self, job: &JobSpec, trace: Option<Arc<TraceSink>>) -> JobRecord {
        run_job_shared(self, DEFAULT_TENANT, job, trace, None, None)
    }

    /// Run a batch of jobs in order through this engine's caches.
    pub fn run_batch(
        &mut self,
        jobs: &[JobSpec],
        opts: &BatchOptions,
    ) -> Result<BatchReport, String> {
        if let Some(dir) = &opts.trace_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create trace dir {}: {e}", dir.display()))?;
        }
        let sw = Stopwatch::start();
        let mut records = Vec::with_capacity(jobs.len());
        for job in jobs {
            let sink = opts
                .trace_dir
                .as_ref()
                .map(|_| Arc::new(TraceSink::enabled()));
            let record = self.run_job(job, sink.clone());
            if let (Some(dir), Some(sink)) = (&opts.trace_dir, sink) {
                let path = dir.join(format!("{}.jsonl", job.label));
                sink.save_jsonl(&path)
                    .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
            }
            records.push(record);
        }
        Ok(BatchReport {
            jobs: records,
            graph_cache: self.graphs.stats(),
            decomp_cache: self.decomps.stats(),
            total_wall_ms: sw.elapsed().as_secs_f64() * 1e3,
            fresh_total_wall_ms: None,
        })
    }
}

/// The probe→compute→commit job pipeline shared by [`Engine::run_job`]
/// (direct access, no cancellation) and the serve path (locked access,
/// deadline + cancel token). Cache state is only touched inside
/// `access.with_engine` closures.
///
/// The job runs on the calling thread under one stop: the tighter of its
/// own `timeout_ms` and the caller's remaining `deadline`, both counted
/// from now, and `cancel`. Both are checked before anything else runs.
pub(crate) fn run_job_shared<A: EngineAccess>(
    access: &mut A,
    tenant: &str,
    job: &JobSpec,
    trace: Option<Arc<TraceSink>>,
    cancel: Option<&CancelToken>,
    deadline: Option<Duration>,
) -> JobRecord {
    let started = Instant::now();
    let budget = match (job.timeout_ms.map(Duration::from_millis), deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let config = format!("{}@{}/{}", job.solver.label(), job.arch, job.frontier);
    let mut record = JobRecord {
        label: job.label.clone(),
        graph: job.graph.clone(),
        config,
        seed: job.seed,
        outcome: JobOutcome::Ok,
        detail: String::new(),
        graph_cached: false,
        decomp_cached: None,
        decompose_ms: 0.0,
        solve_ms: 0.0,
        wall_ms: 0.0,
        fresh_wall_ms: None,
        solution: None,
        fingerprint: None,
    };
    let run = run_stoppable(budget.map(|b| started + b), cancel, || {
        run_pipeline(access, tenant, job, trace, &mut record)
    });
    let failure = match run {
        Ok(Ok(())) => None,
        Ok(Err(e)) | Err(Stopped::Failed(e)) => Some((JobOutcome::Failed(e.clone()), e)),
        Err(Stopped::TimedOut) => {
            let ms = budget.unwrap_or_default().as_millis();
            Some((JobOutcome::TimedOut, format!("exceeded {ms} ms")))
        }
        Err(Stopped::Cancelled) => Some((JobOutcome::Cancelled, "cancelled".into())),
    };
    if let Some((outcome, detail)) = failure {
        record.outcome = outcome;
        record.detail = detail;
    }
    record.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    record
}

/// The body of [`run_job_shared`]: resolve the source, probe the caches,
/// load and fingerprint whatever the probe missed, decompose, solve,
/// self-verify, and commit, filling `record` as it goes. Fields set before
/// a stop (the source key, cache provenance) stay in the record.
fn run_pipeline<A: EngineAccess>(
    access: &mut A,
    tenant: &str,
    job: &JobSpec,
    trace: Option<Arc<TraceSink>>,
    record: &mut JobRecord,
) -> Result<(), String> {
    let src = GraphSource::parse(&job.graph, job.scale, job.effective_graph_seed())?;
    let src_key = src.key();
    record.graph = src_key.clone();
    let algo = job.solver.algo;
    let probe = access.with_engine(|e| e.probe_job(&src_key, algo, job.seed));
    record.graph_cached = probe.cached_graph.is_some();
    if algo != Algo::Baseline {
        record.decomp_cached = Some(probe.cached_decomp.is_some());
    }
    let (graph, fingerprint, loaded_graph) = match probe.cached_graph {
        Some((g, fp)) => (g, fp, false),
        None => {
            let g = Arc::new(src.load()?);
            let fp = fingerprint_graph(&g, probe.fingerprint_seed);
            (g, fp, true)
        }
    };
    let opts = SolveOpts {
        trace,
        frontier: job.frontier,
    };
    let fresh_decomp = probe.cached_decomp.is_none();
    let work = || {
        let (decomp, decompose_time) = match probe.cached_decomp {
            Some(d) => (Some(d), Duration::ZERO),
            None => {
                // Counted apart from the solve, as on the engine's
                // synchronous path.
                let (d, dt) = Decomposition::compute(&graph, algo, job.seed, &opts.counters());
                (d.map(Arc::new), dt)
            }
        };
        let decomp_ref = decomp.as_deref();
        let (solution, stats) =
            solver::solve(&graph, job.solver, decomp_ref, job.arch, job.seed, &opts);
        (decomp, decompose_time, solution, stats)
    };
    let (decomp, decompose_time, solution, stats) = match job.threads {
        Some(t) => with_threads(t, work),
        None => work(),
    };
    record.decompose_ms = decompose_time.as_secs_f64() * 1e3;
    record.solve_ms = stats.solve_time.as_secs_f64() * 1e3;
    solution
        .verify(&graph)
        .map_err(|e| format!("verification failed: {e}"))?;
    // Clean finish: only now may the caches learn anything from this job.
    access.with_engine(|e| {
        if loaded_graph {
            let bytes = graph.resident_bytes() as u64;
            e.graphs
                .insert_weighted_for(tenant, src_key, (graph, fingerprint), bytes);
        }
        if let Some(d) = decomp.filter(|_| fresh_decomp) {
            let bytes = d.approx_bytes();
            let key = DecompKey::new(fingerprint, algo, job.seed);
            e.decomps.insert_weighted_for(tenant, key, d, bytes);
        }
    });
    record.detail = solution.summary();
    record.solution = Some(solution);
    record.fingerprint = Some(fingerprint);
    Ok(())
}

/// Whether the cached and fresh runs of one job, both `ok` (so each
/// solution already passed verification against the graph it ran on),
/// honor the cached-vs-fresh contract at pool width `threads`: both ran on
/// the same graph, and where [`Problem::byte_stable_at`] promises it, both
/// produced the same bytes.
fn cached_agrees_with_fresh(
    problem: Problem,
    threads: usize,
    cached: &JobRecord,
    fresh: &JobRecord,
) -> bool {
    cached.fingerprint == fresh.fingerprint
        && (!problem.byte_stable_at(threads) || cached.solution == fresh.solution)
}

/// Run `jobs` twice — once through a caching engine with `cfg`, once
/// through a cache-disabled engine — check the outputs agree, and return
/// the cached run's report annotated with the fresh wall clocks. An Ok/Ok
/// pair that breaks the contract is a hard error (the stale-cache oracle):
/// both legs must have solved the same graph, matchings and MIS must be
/// byte-equal, and colorings too when the job ran on one thread.
pub fn run_batch_compare(
    jobs: &[JobSpec],
    cfg: crate::engine::EngineConfig,
    opts: &BatchOptions,
) -> Result<BatchReport, String> {
    let mut cached_engine = Engine::new(cfg);
    let mut report = cached_engine.run_batch(jobs, opts)?;
    let mut fresh_engine = Engine::new(crate::engine::EngineConfig {
        cache_cap: 0,
        ..cfg
    });
    let fresh = fresh_engine.run_batch(jobs, &BatchOptions::default())?;
    // A job runs at its own `threads` pin, else in the caller's pool.
    for ((job, cached), fresh) in jobs.iter().zip(&mut report.jobs).zip(&fresh.jobs) {
        cached.fresh_wall_ms = Some(fresh.wall_ms);
        let threads = job.threads.unwrap_or_else(current_threads);
        if cached.solution.is_some()
            && fresh.solution.is_some()
            && !cached_agrees_with_fresh(job.solver.problem, threads, cached, fresh)
        {
            return Err(format!(
                "job '{}': cached and fresh outputs diverge — stale cache entry",
                cached.label
            ));
        }
        if cached.outcome.label() != fresh.outcome.label() {
            return Err(format!(
                "job '{}': cached run {} but fresh run {}",
                cached.label,
                cached.outcome.label(),
                fresh.outcome.label()
            ));
        }
    }
    report.fresh_total_wall_ms = Some(fresh.total_wall_ms);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::jobs::parse_jobs;
    use sb_graph::csr::INVALID;

    const BATCH: &str = r#"
[defaults]
graph = "gen:lp1"
scale = 0.05
seed = 11
graph_seed = 42

[[job]]
label = "mm"
problem = "mm"
algo = "rand:4"

[[job]]
label = "color"
problem = "color"
algo = "degk"

[[job]]
label = "mis"
problem = "mis"
algo = "degk"
"#;

    #[test]
    fn batch_amortizes_graph_and_decomposition() {
        let jobs = parse_jobs(BATCH, "t").unwrap();
        let mut engine = Engine::with_cap(8);
        let report = engine.run_batch(&jobs, &BatchOptions::default()).unwrap();
        assert!(report.all_ok(), "{:?}", report.jobs);
        // Job 1 loads the graph; jobs 2 and 3 reuse it.
        assert!(!report.jobs[0].graph_cached);
        assert!(report.jobs[1].graph_cached);
        assert!(report.jobs[2].graph_cached);
        // color and mis share the DEG2 decomposition.
        assert_eq!(report.jobs[1].decomp_cached, Some(false));
        assert_eq!(report.jobs[2].decomp_cached, Some(true));
        assert_eq!(report.jobs[2].decompose_ms, 0.0);
    }

    #[test]
    fn compare_matches_and_fills_fresh_times() {
        let jobs = parse_jobs(BATCH, "t").unwrap();
        let report =
            run_batch_compare(&jobs, EngineConfig::default(), &BatchOptions::default()).unwrap();
        assert!(report.all_ok());
        for job in &report.jobs {
            assert!(job.fresh_wall_ms.is_some());
            assert!(job.fingerprint.is_some());
        }
        assert!(report.fresh_total_wall_ms.is_some());
    }

    /// An `ok` record of `solution` on the graph with fingerprint `fp`.
    fn ok(fp: u64, solution: Solution) -> JobRecord {
        JobRecord {
            label: "j".into(),
            graph: "gen:lp1".into(),
            config: String::new(),
            seed: 0,
            outcome: JobOutcome::Ok,
            detail: String::new(),
            graph_cached: false,
            decomp_cached: None,
            decompose_ms: 0.0,
            solve_ms: 0.0,
            wall_ms: 0.0,
            fresh_wall_ms: None,
            solution: Some(solution),
            fingerprint: Some(fp),
        }
    }

    #[test]
    fn colorings_agree_across_widths_only_when_both_are_valid_choices() {
        // A path 0-1-2 has two valid 2-colorings.
        let a = ok(7, Solution::Color(vec![0, 1, 0]));
        let b = ok(7, Solution::Color(vec![1, 0, 1]));
        assert!(cached_agrees_with_fresh(Problem::Color, 4, &a, &b));
        assert!(!cached_agrees_with_fresh(Problem::Color, 1, &a, &b));
        assert!(cached_agrees_with_fresh(Problem::Color, 1, &a, &a));
        // A stale graph-cache entry: the cached leg solved another graph,
        // so its coloring disagrees at every width, even an equal one.
        let stale = ok(8, Solution::Color(vec![1, 0, 1]));
        for (t, fresh) in [(1, &a), (4, &a), (1, &b), (4, &b)] {
            assert!(!cached_agrees_with_fresh(Problem::Color, t, &stale, fresh));
        }
        // Two maximal matchings of the path 0-1-2-3 that differ: byte
        // equality is required at every width.
        let m1 = ok(7, Solution::Mate(vec![1, 0, 3, 2]));
        let m2 = ok(7, Solution::Mate(vec![INVALID, 2, 1, INVALID]));
        for threads in [1, 2, 4] {
            assert!(!cached_agrees_with_fresh(Problem::Mm, threads, &m1, &m2));
            assert!(cached_agrees_with_fresh(Problem::Mm, threads, &m1, &m1));
        }
        let s1 = ok(7, Solution::Set(vec![true, false, true]));
        let s2 = ok(7, Solution::Set(vec![false, true, false]));
        assert!(!cached_agrees_with_fresh(Problem::Mis, 4, &s1, &s2));
    }

    #[test]
    fn timeout_reports_and_does_not_poison_cache() {
        let mut jobs = parse_jobs(BATCH, "t").unwrap();
        jobs.truncate(1);
        jobs[0].timeout_ms = Some(0); // fires before the job starts
        let mut engine = Engine::with_cap(8);
        let report = engine.run_batch(&jobs, &BatchOptions::default()).unwrap();
        assert_eq!(report.jobs[0].outcome, JobOutcome::TimedOut);
        assert!(report.jobs[0].solution.is_none());
        assert_eq!(
            engine.graph_cache_stats().inserts,
            0,
            "a timed-out job must not insert into the graph cache"
        );
        assert_eq!(engine.decomp_cache_stats().inserts, 0);
        // The same job without a timeout then runs fine.
        jobs[0].timeout_ms = None;
        let report = engine.run_batch(&jobs, &BatchOptions::default()).unwrap();
        assert_eq!(report.jobs[0].outcome, JobOutcome::Ok);
    }

    #[test]
    fn bad_graph_source_fails_the_job_not_the_batch() {
        let text = "[[job]]\ngraph = \"gen:nope\"\nproblem = \"mm\"\nalgo = \"bicc\"\n\
                    [[job]]\ngraph = \"gen:lp1\"\nscale = 0.05\nproblem = \"mm\"\nalgo = \"bicc\"\n";
        let jobs = parse_jobs(text, "t").unwrap();
        let mut engine = Engine::with_cap(8);
        let report = engine.run_batch(&jobs, &BatchOptions::default()).unwrap();
        assert!(matches!(report.jobs[0].outcome, JobOutcome::Failed(_)));
        assert!(report.jobs[0].detail.contains("unknown graph"));
        assert_eq!(report.jobs[1].outcome, JobOutcome::Ok);
    }

    #[test]
    fn traces_written_per_job() {
        let dir = std::env::temp_dir().join("sb-engine-test-traces");
        std::fs::remove_dir_all(&dir).ok();
        let jobs = parse_jobs(BATCH, "t").unwrap();
        let mut engine = Engine::with_cap(8);
        let opts = BatchOptions {
            trace_dir: Some(dir.clone()),
        };
        engine.run_batch(&jobs, &opts).unwrap();
        for label in ["mm", "color", "mis"] {
            let path = dir.join(format!("{label}.jsonl"));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(!text.is_empty(), "empty trace for {label}");
        }
        // The cached decomposition must NOT re-emit a decompose span.
        let mis = std::fs::read_to_string(dir.join("mis.jsonl")).unwrap();
        assert!(
            !mis.contains("\"decompose\""),
            "cache-hit job should not record a decompose phase"
        );
        let color = std::fs::read_to_string(dir.join("color.jsonl")).unwrap();
        assert!(
            color.contains("decompose"),
            "cache-miss job records decompose"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

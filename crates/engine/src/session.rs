//! Shared-engine sessions: the concurrency layer under `sbreak serve`.
//!
//! A [`SharedEngine`] wraps one [`Engine`] in a mutex so many connections
//! can solve against the same graph/decomposition LRUs. The lock is only
//! held for cache probes and commits (microseconds); each solve runs
//! inline on the calling thread (a serve worker) via the
//! probe→compute→commit pipeline in [`crate::batch`], so N workers solve
//! concurrently while sharing every cache hit. Each [`Session`] is bound
//! to a tenant name, which is what the per-tenant byte quotas in
//! [`crate::cache::Lru`] charge against.

use crate::batch::{run_job_shared, EngineAccess};
use crate::engine::{Engine, EngineConfig};
use crate::jobs::JobSpec;
use crate::JobRecord;
pub use sb_par::stop::CancelToken;
use sb_trace::TraceSink;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One [`Engine`] behind a mutex, shared by every session of a server.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<Mutex<Engine>>,
}

impl SharedEngine {
    /// A shared engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> SharedEngine {
        SharedEngine {
            inner: Arc::new(Mutex::new(Engine::new(cfg))),
        }
    }

    /// Lock the engine directly (stats snapshots, tests). Keep the hold
    /// short: every in-flight request's probe/commit serializes here.
    ///
    /// A poisoned mutex (a panic while holding the lock) is recovered
    /// rather than propagated: cache state is only ever mutated through
    /// the LRU's own methods, which keep it structurally consistent, and
    /// a serve daemon must outlive one bad request.
    pub fn lock(&self) -> MutexGuard<'_, Engine> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// A session running jobs as `tenant`.
    pub fn session(&self, tenant: &str) -> Session {
        Session {
            engine: self.clone(),
            tenant: tenant.to_string(),
        }
    }
}

impl EngineAccess for SharedEngine {
    fn with_engine<R>(&mut self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.lock())
    }
}

/// A tenant-scoped handle onto a [`SharedEngine`].
pub struct Session {
    engine: SharedEngine,
    tenant: String,
}

impl Session {
    /// Run one job against the shared caches on this thread: probe under
    /// the lock, solve with the lock released, commit under the lock only
    /// on a clean, verified finish. Once `deadline` (or the job's own
    /// `timeout_ms`, whichever is tighter) passes, the job stops at its
    /// next round check with [`crate::JobOutcome::TimedOut`]; once
    /// `cancel` fires, with [`crate::JobOutcome::Cancelled`].
    pub fn run_job(
        &self,
        job: &JobSpec,
        trace: Option<Arc<TraceSink>>,
        cancel: Option<&CancelToken>,
        deadline: Option<Duration>,
    ) -> JobRecord {
        let mut engine = self.engine.clone();
        run_job_shared(&mut engine, &self.tenant, job, trace, cancel, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::parse_jobs;
    use crate::JobOutcome;
    use std::thread;

    fn job_text(label: &str, problem: &str, algo: &str) -> String {
        format!(
            "[[job]]\nlabel = \"{label}\"\ngraph = \"gen:lp1\"\nscale = 0.05\n\
             graph_seed = 42\nseed = 11\nproblem = \"{problem}\"\nalgo = \"{algo}\"\n"
        )
    }

    fn one_job(label: &str, problem: &str, algo: &str) -> JobSpec {
        parse_jobs(&job_text(label, problem, algo), "t")
            .unwrap()
            .remove(0)
    }

    #[test]
    fn sessions_share_cache_across_tenants() {
        let shared = SharedEngine::new(EngineConfig::default());
        let a = shared.session("tenant-a");
        let b = shared.session("tenant-b");
        let job = one_job("j", "color", "degk");
        let first = a.run_job(&job, None, None, None);
        assert_eq!(first.outcome, JobOutcome::Ok);
        assert_eq!(first.decomp_cached, Some(false));
        let second = b.run_job(&job, None, None, None);
        assert_eq!(second.outcome, JobOutcome::Ok);
        assert!(second.graph_cached, "tenant b reuses tenant a's graph");
        assert_eq!(
            second.decomp_cached,
            Some(true),
            "tenant b hits tenant a's decomposition"
        );
        assert_eq!(first.solution, second.solution);
    }

    #[test]
    fn concurrent_sessions_agree_with_sequential_results() {
        let shared = SharedEngine::new(EngineConfig::default());
        let job = one_job("j", "mm", "rand:4");
        let reference = Engine::with_cap(0).run_job(&job, None);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let session = shared.session(&format!("t{i}"));
                let job = job.clone();
                thread::spawn(move || session.run_job(&job, None, None, None))
            })
            .collect();
        for h in handles {
            let record = h.join().unwrap();
            assert_eq!(record.outcome, JobOutcome::Ok);
            assert_eq!(
                record.solution, reference.solution,
                "shared-cache result must be byte-identical to a fresh solve"
            );
        }
    }

    #[test]
    fn cancel_token_aborts_without_cache_inserts() {
        let shared = SharedEngine::new(EngineConfig::default());
        let session = shared.session("t");
        let job = one_job("j", "mm", "rand:4");
        let cancel = CancelToken::new();
        cancel.cancel();
        let record = session.run_job(&job, None, Some(&cancel), None);
        assert_eq!(record.outcome, JobOutcome::Cancelled);
        assert!(record.solution.is_none());
        let engine = shared.lock();
        assert_eq!(engine.graph_cache_stats().inserts, 0);
        assert_eq!(engine.decomp_cache_stats().inserts, 0);
    }

    #[test]
    fn deadline_expiry_reports_timeout_and_never_poisons() {
        let shared = SharedEngine::new(EngineConfig::default());
        let session = shared.session("t");
        let job = one_job("j", "mm", "rand:4");
        let record = session.run_job(&job, None, None, Some(Duration::ZERO));
        assert_eq!(record.outcome, JobOutcome::TimedOut);
        assert_eq!(shared.lock().graph_cache_stats().inserts, 0);
        // The same job with a sane budget then runs and commits.
        let record = session.run_job(&job, None, None, Some(Duration::from_secs(120)));
        assert_eq!(record.outcome, JobOutcome::Ok);
        assert_eq!(shared.lock().graph_cache_stats().inserts, 1);
    }

    #[test]
    fn tenant_quota_protects_other_tenants_through_sessions() {
        // End-to-end fairness: tiny decomp cache + byte quota; tenant "b"
        // floods distinct decompositions while "a" holds one under quota.
        let shared = SharedEngine::new(EngineConfig {
            cache_cap: 3,
            tenant_quota_bytes: Some(10_000_000),
            ..EngineConfig::default()
        });
        let a = shared.session("a");
        let b = shared.session("b");
        let job = one_job("a1", "color", "degk");
        assert_eq!(a.run_job(&job, None, None, None).outcome, JobOutcome::Ok);
        for (i, seed) in [1u64, 2, 3, 4].iter().enumerate() {
            let mut flood = one_job(&format!("b{i}"), "mm", "rand:4");
            flood.seed = *seed; // distinct RAND seeds → distinct decomp keys
            assert_eq!(b.run_job(&flood, None, None, None).outcome, JobOutcome::Ok);
        }
        // Tenant a's decomposition must still be resident: the same job
        // again is a cache hit.
        let again = a.run_job(&job, None, None, None);
        assert_eq!(
            again.decomp_cached,
            Some(true),
            "flooding tenant evicted a protected tenant's entry"
        );
    }
}

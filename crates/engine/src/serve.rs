//! `sbreak serve` — a resident multi-tenant solve service.
//!
//! One process holds one [`SharedEngine`] (graph + decomposition LRUs with
//! per-tenant byte quotas) and accepts JSONL requests over TCP (see
//! [`crate::protocol`]). Connections are cheap reader threads; solves are
//! executed by a fixed pool of `workers` threads fed from a **bounded**
//! queue — when the queue is full the request is rejected immediately with
//! an `overloaded` response (admission control) instead of building an
//! unbounded backlog. Deadlines are measured from admission, so a request
//! that waited out its budget in the queue is answered `timeout` without
//! ever spawning a solve; cancellation releases the coordinator exactly
//! like the batch watchdog does, so neither path can poison the caches.
//!
//! The `stats` op exports the sb-metrics cache counters, per-tenant byte
//! usage, and sb-trace per-phase latency percentiles aggregated across all
//! completed solves; its shape is pinned by the golden-output tests.
//!
//! Everything here is std-only networking: loopback TCP, line-buffered,
//! no external dependencies, so the whole service builds offline.

use crate::cache::CacheStats;
use crate::engine::{EngineConfig, GraphSource};
use crate::jobs::JobSpec;
use crate::protocol::{
    ack_response_json, cancel_ack_json, cancelled_response_json, error_response_json,
    mutate_response_json, overloaded_response_json, parse_request, solve_response_json,
    timeout_response_json, MutateParams, Reply, Request, SolveParams,
};
use crate::session::{CancelToken, SharedEngine};
use crate::{JobOutcome, JobRecord};
use sb_core::common::SolveOpts;
use sb_core::repair;
use sb_core::solver::Solution;
use sb_graph::csr::Graph;
use sb_graph::editlog::EditLog;
use sb_par::exec::with_threads;
use sb_trace::{span_durations, TraceSink};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long blocking reads and drains wait before re-checking the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(100);

/// Longest request line a connection may send, in bytes, newline
/// excluded. The largest real request — a `mutate` carrying its `edits`
/// string — is tens of KB at the batch sizes in use. A longer line is
/// answered with a typed `bad_request` and the connection is closed, so a
/// client that never sends a newline cannot grow the read buffer without
/// bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Solve worker threads. Connections beyond this share the pool.
    pub workers: usize,
    /// Bound on the admission queue; a solve arriving with the queue full
    /// is answered `overloaded` immediately.
    pub queue_cap: usize,
    /// Configuration for the shared engine (cache caps, tenant quotas).
    pub engine: EngineConfig,
    /// Deadline applied to solves that don't carry their own
    /// `deadline_ms`. `None` = wait forever.
    pub default_deadline_ms: Option<u64>,
    /// Thread pin applied to solves that don't carry their own `threads`.
    pub default_threads: Option<usize>,
    /// Honor the `debug_sleep_ms` test hook. Integration tests only;
    /// a production server rejects the field as a bad request.
    pub allow_debug: bool,
    /// Bound on resident mutation streams. Admitting a mutate that would
    /// push the stream table past this evicts the least-recently-touched
    /// idle stream (its next mutate re-primes with a fresh solve), so the
    /// table cannot grow without bound under tenant churn.
    pub max_streams: usize,
    /// Once a mutation stream's accumulated edit log reaches this many
    /// edits, the commit rebases the stream: the materialized edited
    /// graph becomes the stream's new base and the log restarts empty.
    /// Keeps per-mutate fingerprinting and cache-miss re-materialization
    /// O(rebase window), not O(stream lifetime).
    pub rebase_log_edits: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            engine: EngineConfig::default(),
            default_deadline_ms: None,
            default_threads: None,
            allow_debug: false,
            max_streams: 256,
            rebase_log_edits: 1024,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A connection's write half, shared between its reader thread (control
/// responses) and whichever worker finishes its solves. One response is
/// one line; the mutex keeps lines whole under interleaving.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, line: &str) {
        let mut s = lock(&self.stream);
        // A dead peer is not the server's problem: the solve already
        // committed (or not) before we got here.
        let _ = s.write_all(line.as_bytes());
        let _ = s.write_all(b"\n");
        let _ = s.flush();
    }
}

/// One admitted solve or mutate waiting for a worker.
struct QueuedJob {
    writer: Arc<ConnWriter>,
    conn_id: u64,
    params: SolveParams,
    /// `Some(batch)` makes this a mutate: the edit batch to stream into
    /// the tenant's solver stream before repairing its solution.
    edits: Option<EditLog>,
    job: JobSpec,
    enqueued: Instant,
    deadline: Option<Duration>,
    cancel: CancelToken,
}

/// Monotone response counters for the `stats` op.
#[derive(Default)]
struct Counts {
    received: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    bad_request: AtomicU64,
    overloaded: AtomicU64,
    timeout: AtomicU64,
    cancelled: AtomicU64,
}

/// Monotone repair counters for the `stats` op's `repairs` block.
#[derive(Default)]
struct RepairCounts {
    /// Mutate requests admitted to a worker.
    requests: AtomicU64,
    /// Mutates answered by repairing a prior solution.
    repaired: AtomicU64,
    /// Mutates answered by a fresh solve (stream priming).
    fresh: AtomicU64,
    /// Individual edits applied across all mutates.
    edits_applied: AtomicU64,
    /// Cached decompositions patched across edits.
    decomps_patched: AtomicU64,
    /// Streams rebased onto their materialized graph (log reset).
    rebases: AtomicU64,
    /// Idle streams evicted to honor `max_streams`.
    streams_evicted: AtomicU64,
}

/// Per-stream mutation state. A stream is one tenant's edit history
/// against one `(graph, solver config, seed)`: the edits since the last
/// rebase, the materialized edited graph they produced, and the solution
/// to repair from on the next batch. Streams are keyed by tenant, so one
/// tenant's edits can never leak into another's solutions even when both
/// caches share the underlying base graph.
#[derive(Clone)]
struct MutationState {
    /// The stream's current base graph: the source graph at first, then
    /// whatever the last rebase materialized.
    base: Arc<Graph>,
    /// `base`'s engine fingerprint, carried so a rebased (heap) base is
    /// never re-hashed O(m) per mutate.
    base_fp: u64,
    /// Edit log accumulated since `base` (in arrival order). Bounded by
    /// `rebase_log_edits`: a commit that crosses the threshold adopts the
    /// materialized graph as the new `base` and clears this.
    log: EditLog,
    /// The materialized `base + log` graph (shared with the graph cache).
    /// Its cache fingerprint is not stored: `apply_edits_from` re-derives
    /// it from `(base_fp, log)` on every batch.
    graph: Arc<Graph>,
    /// The solution for `graph` — the repair seed for the next batch.
    prior: Solution,
    /// Cumulative edit count (for the response's `edits_total`).
    edits_total: u64,
}

/// Stream key: `(tenant, graph cache key, config#seed)`.
type StreamKey = (String, String, String);

/// One mutation stream's slot in the stream table. The inner mutex
/// serializes the whole read-compute-commit of a mutate, so pipelined
/// mutates on the same stream can never both read the same prior and
/// lose an acknowledged batch (same-stream requests queue on the slot;
/// distinct streams stay parallel across workers).
#[derive(Default)]
struct StreamSlot {
    /// `None` until the stream's first committed mutate.
    state: Mutex<Option<MutationState>>,
    /// Last-touched stamp from `Shared::stream_clock`, for idle-stream
    /// eviction. Written only under the stream-table lock.
    touched: AtomicU64,
}

/// Latency samples aggregated across completed solves.
#[derive(Default)]
struct LatencyAgg {
    /// End-to-end wall clock of `ok` solves, milliseconds.
    wall_ms: Vec<f64>,
    /// Per-phase durations from each solve's trace, microseconds.
    phases_us: BTreeMap<String, Vec<u64>>,
}

const MAX_SAMPLES: usize = 65_536;

/// Global-registry handles for the serve surface (`sbreak profile`).
/// All `Runtime`: arrival order and queue occupancy depend on scheduling.
struct ServeMetrics {
    requests: sb_metrics::Counter,
    overloaded: sb_metrics::Counter,
    timeouts: sb_metrics::Counter,
    queue_depth: sb_metrics::Gauge,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        use sb_metrics::Class::Runtime;
        let r = sb_metrics::global();
        ServeMetrics {
            requests: r.counter("sb_serve_requests", Runtime),
            overloaded: r.counter("sb_serve_overloaded", Runtime),
            timeouts: r.counter("sb_serve_timeouts", Runtime),
            queue_depth: r.gauge("sb_serve_queue_depth", Runtime),
        }
    }
}

/// State shared by the listener, connection readers, and solve workers.
struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    engine: SharedEngine,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    shutdown: AtomicBool,
    counts: Counts,
    latency: Mutex<LatencyAgg>,
    /// Cancel tokens for in-flight solves, keyed by `(connection, id)` so
    /// a `cancel` op can only reach requests from its own connection.
    pending: Mutex<HashMap<(u64, String), CancelToken>>,
    /// Mutation streams for the `mutate` op, keyed per tenant. Bounded by
    /// `cfg.max_streams` (idle streams are evicted LRU on admission).
    mutations: Mutex<HashMap<StreamKey, Arc<StreamSlot>>>,
    /// Monotone stamp source for `StreamSlot::touched`.
    stream_clock: AtomicU64,
    repairs: RepairCounts,
    /// Connection reader threads still running, or finished since the
    /// last accept (`listen_loop` joins those); joined at shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
    metrics: ServeMetrics,
    started: Instant,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Trip the shutdown flag once: wake every worker and kick the
    /// listener out of `accept` with a throwaway self-connection.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            self.available.notify_all();
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn clear_pending(&self, conn_id: u64, id: &str) {
        if !id.is_empty() {
            lock(&self.pending).remove(&(conn_id, id.to_string()));
        }
    }

    /// Sleep in shutdown/cancel-aware slices (the `debug_sleep_ms` hook).
    fn debug_sleep(&self, ms: u64, cancel: &CancelToken) {
        let until = Instant::now() + Duration::from_millis(ms);
        loop {
            if self.shutting_down() || cancel.is_cancelled() {
                return;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            thread::sleep(left.min(Duration::from_millis(10)));
        }
    }

    /// Admit or reject one solve or mutate (`edits: Some`). Called on the
    /// connection thread, so it must never block on anything but the
    /// queue mutex.
    fn admit(
        self: &Arc<Shared>,
        writer: &Arc<ConnWriter>,
        conn_id: u64,
        p: SolveParams,
        edits: Option<EditLog>,
    ) {
        self.counts.received.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.inc();
        if p.debug_sleep_ms > 0 && !self.cfg.allow_debug {
            self.counts.bad_request.fetch_add(1, Ordering::Relaxed);
            writer.send(&error_response_json(
                &p.id,
                "bad_request",
                "debug_sleep_ms requires a debug-enabled server",
            ));
            return;
        }
        // Parsed once already (protocol rejects malformed specs), so this
        // cannot fail here.
        let mut job = match p.to_job_spec() {
            Ok(job) => job,
            Err(e) => {
                self.counts.bad_request.fetch_add(1, Ordering::Relaxed);
                writer.send(&error_response_json(&p.id, "bad_request", &e));
                return;
            }
        };
        if job.threads.is_none() {
            job.threads = self.cfg.default_threads;
        }
        let deadline = p
            .deadline_ms
            .or(self.cfg.default_deadline_ms)
            .map(Duration::from_millis);
        let mut q = lock(&self.queue);
        if self.shutting_down() {
            writer.send(&error_response_json(
                &p.id,
                "shutting_down",
                "server is shutting down",
            ));
            return;
        }
        if q.len() >= self.cfg.queue_cap {
            drop(q);
            self.counts.overloaded.fetch_add(1, Ordering::Relaxed);
            self.metrics.overloaded.inc();
            writer.send(&overloaded_response_json(
                &p.id,
                self.cfg.queue_cap,
                self.cfg.queue_cap,
            ));
            return;
        }
        let cancel = CancelToken::new();
        if !p.id.is_empty() {
            lock(&self.pending).insert((conn_id, p.id.clone()), cancel.clone());
        }
        q.push_back(QueuedJob {
            writer: writer.clone(),
            conn_id,
            params: p,
            edits,
            job,
            enqueued: Instant::now(),
            deadline,
            cancel,
        });
        self.metrics.queue_depth.inc();
        drop(q);
        self.available.notify_one();
    }

    /// Worker side: run one dequeued job end to end and answer its
    /// connection.
    fn process(&self, item: QueuedJob) {
        self.metrics.queue_depth.dec();
        let QueuedJob {
            writer,
            conn_id,
            params,
            edits,
            job,
            enqueued,
            deadline,
            cancel,
        } = item;
        let done = |counter: &AtomicU64, line: String| {
            counter.fetch_add(1, Ordering::Relaxed);
            writer.send(&line);
            self.clear_pending(conn_id, &params.id);
        };
        if self.shutting_down() {
            return done(
                &self.counts.failed,
                error_response_json(&params.id, "shutting_down", "server is shutting down"),
            );
        }
        if cancel.is_cancelled() {
            return done(
                &self.counts.cancelled,
                cancelled_response_json(&params.id, "cancelled while queued"),
            );
        }
        if params.debug_sleep_ms > 0 {
            self.debug_sleep(params.debug_sleep_ms, &cancel);
        }
        // The deadline spans queue wait + solve: hand the session only
        // what's left, and skip the solve entirely if nothing is.
        let waited = enqueued.elapsed();
        let remaining = deadline.map(|d| d.saturating_sub(waited));
        if remaining.as_ref().is_some_and(|r| r.is_zero()) {
            self.metrics.timeouts.inc();
            return done(
                &self.counts.timeout,
                timeout_response_json(
                    &params.id,
                    &format!("deadline expired after {} ms in queue", waited.as_millis()),
                ),
            );
        }
        let queue_ms = waited.as_secs_f64() * 1e3;
        if let Some(batch) = &edits {
            let (counter, line) = self.run_mutate(&params, &job, batch, &cancel, queue_ms);
            return done(counter, line);
        }
        let sink = Arc::new(TraceSink::enabled());
        let session = self.engine.session(&params.tenant);
        let record = session.run_job(&job, Some(sink.clone()), Some(&cancel), remaining);
        let counter = match &record.outcome {
            crate::JobOutcome::Ok => {
                let mut agg = lock(&self.latency);
                if agg.wall_ms.len() < MAX_SAMPLES {
                    agg.wall_ms.push(record.wall_ms);
                }
                for (phase, us) in span_durations(&sink.events()) {
                    let samples = agg.phases_us.entry(phase).or_default();
                    if samples.len() < MAX_SAMPLES {
                        samples.push(us);
                    }
                }
                &self.counts.ok
            }
            crate::JobOutcome::TimedOut => {
                self.metrics.timeouts.inc();
                &self.counts.timeout
            }
            crate::JobOutcome::Cancelled => &self.counts.cancelled,
            crate::JobOutcome::Failed(_) => &self.counts.failed,
        };
        done(
            counter,
            solve_response_json(&params.id, &record, queue_ms, params.want_solution),
        );
    }

    /// Fetch (or create) the slot for `key`, stamp it touched, and evict
    /// least-recently-touched *idle* streams if the table outgrew
    /// `max_streams`. A slot is idle exactly when the table holds its
    /// only reference (`strong_count == 1`): slots are only ever cloned
    /// out of the table under this same lock, so an in-flight mutate —
    /// computing or merely queued on the slot mutex — is never evicted
    /// from under itself.
    fn stream_slot(&self, key: StreamKey) -> Arc<StreamSlot> {
        let cap = self.cfg.max_streams.max(1);
        let mut map = lock(&self.mutations);
        let slot = map.entry(key).or_default().clone();
        slot.touched.store(
            self.stream_clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        while map.len() > cap {
            let victim = map
                .iter()
                .filter(|(_, s)| Arc::strong_count(s) == 1)
                .min_by_key(|(_, s)| s.touched.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                break; // every stream is in flight; stay over cap briefly
            };
            map.remove(&victim);
            self.repairs.streams_evicted.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }

    /// Worker side of the `mutate` op: append `edits` to the tenant's
    /// stream for `(graph, config, seed)`, repair the stream's prior
    /// solution across the batch (or prime the stream with a fresh solve
    /// on the first mutate), and commit the advanced stream state only on
    /// a clean, uncancelled finish. Returns the response counter to bump
    /// and the response line.
    ///
    /// The stream's slot mutex is held across the whole
    /// read-compute-commit, so concurrent workers draining pipelined
    /// mutates of one stream serialize instead of racing: without it, two
    /// batches could read the same prior state and the later commit would
    /// silently drop the earlier acknowledged batch.
    ///
    /// Cancellation discipline mirrors the batch watchdog: a cancel
    /// observed at the commit gate discards the new stream state — the
    /// stream stays at its previous position and the batch can be
    /// resubmitted. Whatever the edit landed in the shared caches
    /// (the materialized graph, patched decompositions) is valid data
    /// under its own `(base, edit log)` key, so leaving it is a warm
    /// cache, not poison.
    fn run_mutate(
        &self,
        params: &SolveParams,
        job: &JobSpec,
        edits: &EditLog,
        cancel: &CancelToken,
        queue_ms: f64,
    ) -> (&AtomicU64, String) {
        self.repairs.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let fail = |detail: String| {
            (
                &self.counts.failed,
                error_response_json(&params.id, "failed", &detail),
            )
        };
        let src = match GraphSource::parse(&job.graph, job.scale, job.effective_graph_seed()) {
            Ok(src) => src,
            Err(e) => return fail(e),
        };
        let src_key = src.key();
        let config = format!("{}@{}/{}", job.solver.label(), job.arch, job.frontier);
        let stream_key: StreamKey = (
            params.tenant.clone(),
            src_key.clone(),
            format!("{config}#{}", job.seed),
        );
        // Serialize against other mutates of the same stream for the rest
        // of this function: the commit below must only ever extend the
        // state read here.
        let slot = self.stream_slot(stream_key);
        let mut stream = lock(&slot.state);
        let prev = stream.clone();
        // The stream carries its own base (the source graph until the
        // first rebase, the last rebase's materialization after). Only
        // the first touch of a stream loads the source through the shared
        // graph cache — a resident tenant never re-reads it.
        let (base, base_fp, graph_cached) = match &prev {
            Some(st) => (st.base.clone(), st.base_fp, true),
            None => match self.engine.lock().graph(&src) {
                Ok(t) => t,
                Err(e) => return fail(e),
            },
        };
        let mut accumulated = prev.as_ref().map(|s| s.log.clone()).unwrap_or_default();
        accumulated.extend(edits);
        // Materialize `base + accumulated` (memoized) and carry the base's
        // cached decompositions across to the new fingerprint.
        let out = self
            .engine
            .lock()
            .apply_edits_from(&params.tenant, &base, base_fp, &accumulated);
        let sink = Arc::new(TraceSink::enabled());
        let opts = SolveOpts {
            trace: Some(sink.clone()),
            frontier: job.frontier,
        };
        // Repair from the prior when the stream has one (the stream key
        // pins the solver family, and the prior's variant names it).
        let repair_run = prev
            .as_ref()
            .map(|st| repair::repair(&st.graph, edits, &st.prior, &opts));
        let repaired = repair_run.is_some();
        let (solution, stats, decomp_cached) = match repair_run {
            Some((solution, stats)) => (solution, stats, None),
            None => {
                let solve = || {
                    self.engine.lock().solve_on_fingerprinted(
                        &out.graph,
                        out.fingerprint,
                        job.solver,
                        job.arch,
                        job.seed,
                        &opts,
                    )
                };
                let o = match job.threads {
                    Some(t) => with_threads(t, solve),
                    None => solve(),
                };
                (o.solution, o.stats, o.decomp_cached)
            }
        };
        // Commit gate: advance the stream only if nobody cancelled while
        // we computed. The slot guard drops on the early return, so the
        // stream stays exactly where the cancelled batch found it.
        if self.shutting_down() || cancel.is_cancelled() {
            return (
                &self.counts.cancelled,
                cancelled_response_json(&params.id, "cancelled before commit"),
            );
        }
        let edits_total = prev.map_or(0, |s| s.edits_total) + edits.len() as u64;
        let bump = |c: &AtomicU64, n: u64| c.fetch_add(n, Ordering::Relaxed);
        // Rebase once the window fills: the materialized graph becomes
        // the stream's base and the log restarts, so fingerprinting and
        // re-materialization stay O(window) for arbitrarily old streams.
        let (base, base_fp, log) = if accumulated.len() >= self.cfg.rebase_log_edits.max(1) {
            bump(&self.repairs.rebases, 1);
            (out.graph.clone(), out.fingerprint, EditLog::new())
        } else {
            (base, base_fp, accumulated)
        };
        *stream = Some(MutationState {
            base,
            base_fp,
            log,
            graph: out.graph.clone(),
            prior: solution.clone(),
            edits_total,
        });
        drop(stream);
        bump(
            if repaired {
                &self.repairs.repaired
            } else {
                &self.repairs.fresh
            },
            1,
        );
        bump(&self.repairs.edits_applied, edits.len() as u64);
        bump(&self.repairs.decomps_patched, out.decomps_patched as u64);
        let record = JobRecord {
            label: if params.id.is_empty() {
                "mutate".into()
            } else {
                params.id.clone()
            },
            graph: src_key,
            config,
            seed: job.seed,
            outcome: JobOutcome::Ok,
            detail: solution.summary(),
            graph_cached,
            decomp_cached,
            decompose_ms: stats.decompose_time.as_secs_f64() * 1e3,
            solve_ms: stats.solve_time.as_secs_f64() * 1e3,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            fresh_wall_ms: None,
            solution: Some(solution),
            fingerprint: Some(out.fingerprint),
        };
        {
            let mut agg = lock(&self.latency);
            if agg.wall_ms.len() < MAX_SAMPLES {
                agg.wall_ms.push(record.wall_ms);
            }
            for (phase, us) in span_durations(&sink.events()) {
                let samples = agg.phases_us.entry(phase).or_default();
                if samples.len() < MAX_SAMPLES {
                    samples.push(us);
                }
            }
        }
        (
            &self.counts.ok,
            mutate_response_json(
                solve_response_json(&params.id, &record, queue_ms, params.want_solution),
                repaired,
                edits.len() as u64,
                edits_total,
                out.decomps_patched as u64,
            ),
        )
    }

    /// Render the `stats` response. Values change run to run; the *shape*
    /// is pinned by the golden tests.
    fn stats_json(&self) -> String {
        let c = &self.counts;
        let count = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (graph_stats, decomp_stats, tenants) = {
            let engine = self.engine.lock();
            let mut tenants: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for (tenant, bytes) in engine.graphs.tenant_usage() {
                tenants.entry(tenant).or_default().0 = bytes;
            }
            for (tenant, bytes) in engine.decomps.tenant_usage() {
                tenants.entry(tenant).or_default().1 = bytes;
            }
            (
                engine.graph_cache_stats(),
                engine.decomp_cache_stats(),
                tenants,
            )
        };
        let cache = |s: &CacheStats| {
            format!(
                "{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{},\"hit_rate\":{:.4}}}",
                s.hits,
                s.misses,
                s.inserts,
                s.evictions,
                s.hit_rate()
            )
        };
        let tenants = tenants
            .iter()
            .map(|(t, (g, d))| {
                format!(
                    "{{\"tenant\":\"{}\",\"graph_bytes\":{g},\"decomp_bytes\":{d}}}",
                    sb_metrics::escape_json(t)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let agg = lock(&self.latency);
        let phases = agg
            .phases_us
            .iter()
            .map(|(phase, samples)| {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                format!(
                    "\"{}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                    sb_metrics::escape_json(phase),
                    sorted.len(),
                    percentile_u64(&sorted, 0.50),
                    percentile_u64(&sorted, 0.99),
                    sorted.last().copied().unwrap_or(0)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut wall = agg.wall_ms.clone();
        drop(agg);
        wall.sort_by(|a, b| a.total_cmp(b));
        format!(
            "{{\"status\":\"ok\",\"op\":\"stats\",\"uptime_ms\":{},\
             \"workers\":{},\"queue_cap\":{},\"queue_depth\":{},\
             \"requests\":{{\"received\":{},\"ok\":{},\"error\":{},\"bad_request\":{},\
             \"overloaded\":{},\"timeout\":{},\"cancelled\":{}}},\
             \"repairs\":{{\"requests\":{},\"repaired\":{},\"fresh\":{},\
             \"edits_applied\":{},\"decomps_patched\":{},\"rebases\":{},\
             \"evicted\":{},\"streams\":{}}},\
             \"solve_wall_ms\":{{\"count\":{},\"p50\":{:.3},\"p99\":{:.3}}},\
             \"graph_cache\":{},\"decomp_cache\":{},\
             \"tenants\":[{}],\"phase_latency_us\":{{{}}}}}",
            self.started.elapsed().as_millis(),
            self.cfg.workers,
            self.cfg.queue_cap,
            lock(&self.queue).len(),
            count(&c.received),
            count(&c.ok),
            count(&c.failed),
            count(&c.bad_request),
            count(&c.overloaded),
            count(&c.timeout),
            count(&c.cancelled),
            count(&self.repairs.requests),
            count(&self.repairs.repaired),
            count(&self.repairs.fresh),
            count(&self.repairs.edits_applied),
            count(&self.repairs.decomps_patched),
            count(&self.repairs.rebases),
            count(&self.repairs.streams_evicted),
            lock(&self.mutations).len(),
            wall.len(),
            percentile_f64(&wall, 0.50),
            percentile_f64(&wall, 0.99),
            cache(&graph_stats),
            cache(&decomp_stats),
            tenants,
            phases,
        )
    }
}

/// Nearest-rank percentile over a sorted slice (0 for empty input).
pub fn percentile_u64(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Nearest-rank percentile over a sorted slice (0.0 for empty input).
pub fn percentile_f64(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The serve daemon. [`Server::spawn`] binds, starts the worker pool and
/// listener, and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind `cfg.addr` and start serving. Returns once the listener is
    /// accepting; solves run until [`ServerHandle::shutdown`] or a client
    /// `shutdown` op.
    pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            engine: SharedEngine::new(cfg.engine),
            cfg,
            addr,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counts: Counts::default(),
            latency: Mutex::new(LatencyAgg::default()),
            pending: Mutex::new(HashMap::new()),
            mutations: Mutex::new(HashMap::new()),
            stream_clock: AtomicU64::new(0),
            repairs: RepairCounts::default(),
            conns: Mutex::new(Vec::new()),
            metrics: ServeMetrics::new(),
            started: Instant::now(),
        });
        let worker_handles = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let listener_handle = {
            let shared = shared.clone();
            thread::spawn(move || listen_loop(&shared, &listener))
        };
        Ok(ServerHandle {
            addr,
            shared,
            listener: Some(listener_handle),
            workers: worker_handles,
        })
    }
}

/// A running server: its bound address and the levers to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine, for inspecting cache state in tests.
    pub fn engine(&self) -> SharedEngine {
        self.shared.engine.clone()
    }

    /// Trip shutdown: stop accepting, drain the queue with
    /// `shutting_down` responses, stop the workers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the server stops — via [`ServerHandle::shutdown`] or a
    /// client `shutdown` op — then join every thread.
    pub fn join(mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        for h in conns {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let mut q = lock(&shared.queue);
        let job = loop {
            if let Some(job) = q.pop_front() {
                break Some(job);
            }
            if shared.shutting_down() {
                break None;
            }
            q = shared
                .available
                .wait(q)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        };
        drop(q);
        match job {
            Some(job) => shared.process(job),
            None => return,
        }
    }
}

fn listen_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut next_conn = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down() {
            // The wake-up kick from begin_shutdown, or a late client.
            return;
        }
        let conn_id = next_conn;
        next_conn += 1;
        let shared2 = shared.clone();
        let handle = thread::spawn(move || serve_connection(&shared2, stream, conn_id));
        // Join the readers of closed connections as new ones arrive: an
        // exited thread that is never joined keeps its stack mapped.
        let mut conns = lock(&shared.conns);
        for done in conns.extract_if(.., |h| h.is_finished()) {
            let _ = done.join();
        }
        conns.push(handle);
    }
}

/// Read JSONL requests off one connection until EOF or shutdown.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    // A finite read timeout lets the reader observe shutdown without a
    // request arriving. No Nagle: responses are single small lines and
    // the client is blocked on them.
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter {
            stream: Mutex::new(w),
        }),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        if shared.shutting_down() {
            break;
        }
        // The cap counts the whole accumulated line: a partial line stays
        // in `line` across read timeouts, so each read may only take what
        // is left of the budget (one byte past it marks an overflow).
        let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                shared.counts.bad_request.fetch_add(1, Ordering::Relaxed);
                writer.send(&error_response_json(
                    "",
                    "bad_request",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ));
                let _ = lock(&writer.stream).shutdown(Shutdown::Both);
                break;
            }
            Ok(_) => {
                match std::str::from_utf8(&line) {
                    Ok(text) => handle_line(shared, &writer, conn_id, text.trim()),
                    Err(_) => {
                        shared.counts.bad_request.fetch_add(1, Ordering::Relaxed);
                        writer.send(&error_response_json(
                            "",
                            "bad_request",
                            "request line is not valid UTF-8",
                        ));
                    }
                }
                line.clear();
            }
            // Timed out mid-wait (or mid-line: whatever was read stays in
            // `line` and the next read appends to it — framing holds).
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    // The peer is gone (or we're stopping): release any of its solves
    // still queued or running. Workers discard cancelled work unsent.
    let mut pending = lock(&shared.pending);
    pending.retain(|(cid, _), token| {
        if *cid == conn_id {
            token.cancel();
            false
        } else {
            true
        }
    });
}

fn handle_line(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, conn_id: u64, line: &str) {
    if line.is_empty() {
        return;
    }
    match parse_request(line) {
        Err(detail) => {
            // Best-effort id echo so a pipelining client can correlate
            // the rejection.
            let id = sb_metrics::parse_json_value(line)
                .ok()
                .and_then(|v| v.get("id").and_then(|i| i.as_str().map(String::from)))
                .unwrap_or_default();
            shared.counts.bad_request.fetch_add(1, Ordering::Relaxed);
            writer.send(&error_response_json(&id, "bad_request", &detail));
        }
        Ok(Request::Ping) => writer.send(&ack_response_json("ping")),
        Ok(Request::Stats) => writer.send(&shared.stats_json()),
        Ok(Request::Cancel { id }) => {
            let found = lock(&shared.pending)
                .get(&(conn_id, id.clone()))
                .map(|token| token.cancel())
                .is_some();
            writer.send(&cancel_ack_json(&id, found));
        }
        Ok(Request::Shutdown) => {
            writer.send(&ack_response_json("shutdown"));
            shared.begin_shutdown();
        }
        Ok(Request::Solve(p)) => shared.admit(writer, conn_id, *p, None),
        Ok(Request::Mutate(m)) => match m.edit_log() {
            // Validated at parse time, so the error arm is unreachable in
            // practice; answer it typed anyway rather than panicking.
            Ok(edits) => shared.admit(writer, conn_id, m.solve, Some(edits)),
            Err(detail) => {
                shared.counts.bad_request.fetch_add(1, Ordering::Relaxed);
                writer.send(&error_response_json(&m.solve.id, "bad_request", &detail));
            }
        },
    }
}

/// A blocking JSONL client for [`Server`] — used by `sbreak loadgen`, the
/// integration tests, and the fuzz serve axis.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a serve daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one raw request line.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Block for the next response line.
    pub fn recv(&mut self) -> Result<Reply, String> {
        let mut line = String::new();
        loop {
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => {
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        line.clear();
                        continue;
                    }
                    return Reply::parse(trimmed);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read error: {e}")),
            }
        }
    }

    /// Send one line and block for one response.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        self.send_line(line)
            .map_err(|e| format!("write error: {e}"))?;
        self.recv()
    }

    /// Run one solve to completion.
    pub fn solve(&mut self, params: &SolveParams) -> Result<Reply, String> {
        self.request(&params.to_json())
    }

    /// Stream one edit batch into a solver stream and block for the
    /// repaired (or stream-priming) solution.
    pub fn mutate(&mut self, params: &MutateParams) -> Result<Reply, String> {
        self.request(&params.to_json())
    }

    /// Fetch the server's statistics document.
    pub fn stats(&mut self) -> Result<Reply, String> {
        self.request("{\"op\":\"stats\"}")
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<Reply, String> {
        self.request("{\"op\":\"ping\"}")
    }

    /// Ask the server to shut down (acknowledged before it stops).
    pub fn shutdown(&mut self) -> Result<Reply, String> {
        self.request("{\"op\":\"shutdown\"}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poll `done` every few milliseconds for up to ten seconds.
    fn wait_until(mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn closed_connection_threads_are_reaped() {
        let server = Server::spawn(ServeConfig::default()).expect("bind loopback");
        let ping = || {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).unwrap();
            assert!(line.contains("ping"), "unexpected reply {line:?}");
            stream
        };
        for _ in 0..64 {
            drop(ping());
        }
        let conns = || lock(&server.shared.conns);
        wait_until(|| conns().iter().all(JoinHandle::is_finished));
        // The next accept joins every finished reader before it pushes.
        let open = ping();
        wait_until(|| conns().len() <= 2);
        let held = conns().len();
        assert!(held <= 2, "{held} handles held after 64 closed connections");
        drop(open);
        server.shutdown();
        server.join();
    }
}

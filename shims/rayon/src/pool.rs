//! The worker-pool execution engine behind the parallel iterators.
//!
//! Design (see DESIGN.md §9 for the full discussion):
//!
//! * A **pool** is `num_threads`-way parallelism: `num_threads - 1` detached
//!   worker threads plus the calling thread, which always participates. The
//!   global pool is built lazily on first use (`RAYON_NUM_THREADS` or the
//!   host's available parallelism); explicit pools come from
//!   [`crate::ThreadPoolBuilder`].
//! * A parallel call splits its work into **pieces** and publishes one job to
//!   the pool. Workers and the caller all run the same work-stealing claim
//!   loop: each participant owns a bounded deque — a contiguous piece range
//!   packed into one `AtomicU64` — pops chunks from its own bottom, and
//!   steals the top half of a victim's range when its own deque runs dry.
//!   Chunk size starts coarse and halves under observed steal pressure, so
//!   uniform workloads pay near-zero claim traffic while skewed workloads
//!   rebalance (see DESIGN.md §14).
//! * The **caller always runs the claim loop itself**, so every parallel call
//!   makes progress even if all workers are busy elsewhere — the pool only
//!   ever accelerates, it can never deadlock a caller.
//! * Workers never block while holding work, and a parallel call issued
//!   *from inside* a worker (nested parallelism) is detected via a
//!   thread-local flag and inlined sequentially, so there is no cyclic
//!   waiting anywhere in the engine.
//! * A panic in a piece is caught, the remaining pieces are drained quickly
//!   (each claim re-checks a poison flag), and the payload is re-thrown on
//!   the calling thread once every outstanding piece has finished — the same
//!   observable behavior as rayon.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Pool observability (DESIGN.md §12): every series is `Runtime`-class —
/// piece counts, idle time, and wait time all legitimately vary with
/// thread count and scheduling. Handles are resolved once and cached.
struct PoolMetrics {
    /// Parallel calls dispatched through a pool's claim loop.
    par_calls: sb_metrics::Counter,
    /// Parallel calls degraded to sequential inline execution (1-thread
    /// pool, nested call, or a single piece).
    inline_calls: sb_metrics::Counter,
    /// Work pieces claimed and executed, across callers and workers.
    pieces_claimed: sb_metrics::Counter,
    /// Job copies published to worker queues.
    jobs_published: sb_metrics::Counter,
    /// `ThreadPool::install` scopes entered.
    installs: sb_metrics::Counter,
    /// Worker threads spawned (across all pools ever started).
    threads_started: sb_metrics::Counter,
    /// Time workers spent parked waiting for a job, microseconds.
    worker_idle_us: sb_metrics::Counter,
    /// Time callers spent waiting for stragglers after exhausting the
    /// claim counter themselves, microseconds.
    caller_wait_us: sb_metrics::Counter,
    /// Successful steals: a participant took the top half of a victim's
    /// piece range.
    steals: sb_metrics::Counter,
    /// Steal attempts that lost the CAS race or found the victim drained
    /// between the scan and the attempt.
    steal_failures: sb_metrics::Counter,
    /// Chunk sizes (in pieces) claimed by pop/steal operations, log2
    /// buckets — shows how far the adaptive chunk size decayed under steal
    /// pressure.
    chunk_pieces: sb_metrics::Histogram,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        use sb_metrics::Class::Runtime;
        let r = sb_metrics::global();
        PoolMetrics {
            par_calls: r.counter("sb_pool_par_calls", Runtime),
            inline_calls: r.counter("sb_pool_inline_calls", Runtime),
            pieces_claimed: r.counter("sb_pool_pieces_claimed", Runtime),
            jobs_published: r.counter("sb_pool_jobs_published", Runtime),
            installs: r.counter("sb_pool_installs", Runtime),
            threads_started: r.counter("sb_pool_threads_started", Runtime),
            worker_idle_us: r.counter("sb_pool_worker_idle_us", Runtime),
            caller_wait_us: r.counter("sb_pool_caller_wait_us", Runtime),
            steals: r.counter("sb_pool_steals", Runtime),
            steal_failures: r.counter("sb_pool_steal_failures", Runtime),
            chunk_pieces: r.histogram("sb_pool_chunk_pieces", Runtime),
        }
    })
}

/// Pack a half-open piece range `[lo, hi)` into one `AtomicU64` word so a
/// pop or steal is a single compare-exchange — no Chase–Lev ABA concerns,
/// because the whole deque state moves atomically.
#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// The pool's claim discipline (DESIGN.md §14). Every participant of one
/// parallel call (caller + worker copies) calls [`StealClaim::claim`]
/// once, and each piece index in `0..pieces` is handed to exactly one of
/// them.
///
/// Each participant owns one bounded deque — a contiguous range of piece
/// indices in a packed `AtomicU64`. Owners pop adaptive-size chunks from
/// the bottom (`lo`); when dry, they scan the other slots and steal the
/// **top half** of a victim's range (`hi` side), depositing the stolen
/// range into their own empty slot. The chunk size starts coarse (half a
/// slot's initial share) and halves per observed steal, floor 1: uniform
/// workloads touch their own cache line a handful of times, skewed
/// workloads decay to fine-grained rebalancing.
struct StealClaim {
    /// One packed `[lo, hi)` range per slot. Invariant: a slot is written
    /// by arbitrary thieves via CAS, but *stored* (non-CAS) only by its
    /// owner, and only while empty — see the deposit comment in `claim`.
    deques: Vec<AtomicU64>,
    /// Participants that have entered `claim`, used to hand out unique
    /// slot indices. Participants ≤ num_threads = slot count by
    /// construction of `run`.
    joined: AtomicUsize,
    /// Total successful steals in this call — the pressure signal the
    /// adaptive chunk size keys off.
    steals: AtomicUsize,
    /// Starting chunk size: half of one slot's initial share.
    initial_chunk: usize,
}

impl StealClaim {
    fn new(pieces: usize, slots: usize) -> StealClaim {
        let slots = slots.max(1);
        // Contiguous static partition; slots past the work end start empty.
        let share = pieces.div_ceil(slots);
        let deques = (0..slots)
            .map(|s| {
                let lo = (s * share).min(pieces);
                let hi = ((s + 1) * share).min(pieces);
                AtomicU64::new(pack(lo as u32, hi as u32))
            })
            .collect();
        StealClaim {
            deques,
            joined: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            initial_chunk: share.div_ceil(2).max(1),
        }
    }

    /// Chunk size under current steal pressure: start coarse, halve per
    /// observed steal (saturating at a 64x reduction), floor 1.
    fn chunk_size(&self) -> usize {
        let pressure = self.steals.load(Ordering::Relaxed).min(6) as u32;
        (self.initial_chunk >> pressure).max(1)
    }

    /// Run this participant's claim loop. `run_piece` returns `false` when
    /// the call is poisoned and the loop should drain without executing
    /// further pieces.
    fn claim(&self, run_piece: &(dyn Fn(usize) -> bool + Sync)) {
        let slots = self.deques.len();
        let me = self.joined.fetch_add(1, Ordering::Relaxed) % slots;
        let mut claimed = 0u64;
        'work: loop {
            // Pop chunks from the bottom of our own deque until it is dry.
            loop {
                let cur = self.deques[me].load(Ordering::Acquire);
                let (lo, hi) = unpack(cur);
                if lo >= hi {
                    break;
                }
                let take = self.chunk_size().min((hi - lo) as usize) as u32;
                if self.deques[me]
                    .compare_exchange(
                        cur,
                        pack(lo + take, hi),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_err()
                {
                    // A thief moved `hi` under us; reload and retry.
                    continue;
                }
                metrics().chunk_pieces.observe(u64::from(take));
                claimed += u64::from(take);
                for i in lo..lo + take {
                    if !run_piece(i as usize) {
                        break 'work;
                    }
                }
            }
            // Own deque dry: scan the other slots for a victim and steal
            // the top half of its range.
            let mut saw_work = false;
            for d in 1..slots {
                let victim = (me + d) % slots;
                let cur = self.deques[victim].load(Ordering::Acquire);
                let (lo, hi) = unpack(cur);
                if lo >= hi {
                    continue;
                }
                saw_work = true;
                let take = ((hi - lo) as usize).div_ceil(2) as u32;
                if self.deques[victim]
                    .compare_exchange(
                        cur,
                        pack(lo, hi - take),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // Deposit the stolen range into our own slot. A plain
                    // store (not CAS) is sound: only the owner stores to
                    // its slot, and only while the slot is empty — a
                    // concurrent thief's CAS on this slot either read the
                    // pre-store empty word (so it skipped us as drained) or
                    // the post-store word (an ordinary race-free steal).
                    self.deques[me].store(pack(hi - take, hi), Ordering::Release);
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    metrics().steals.inc();
                    continue 'work;
                }
                metrics().steal_failures.inc();
            }
            if !saw_work {
                // Every deque observed empty: all pieces are claimed
                // (in-flight chunks belong to participants executing them).
                break;
            }
            // Lost every steal race this scan; back off briefly and rescan.
            std::hint::spin_loop();
        }
        if claimed > 0 {
            metrics().pieces_claimed.add(claimed);
        }
    }
}

/// Pieces-per-thread oversubscription factor: the per-owner deques make
/// claims nearly free (uniform loads pop a handful of coarse chunks),
/// so we can afford a finer split that gives steal-half rebalancing real
/// granularity on skewed workloads.
const STEAL_PIECES_PER_THREAD: usize = 16;

/// Below this many base items a parallel call runs sequentially inline —
/// dispatch costs more than the work (compare `prim::BLOCK`).
pub(crate) const SEQ_THRESHOLD: usize = 4096;

thread_local! {
    /// Set while this thread is executing a piece on behalf of a pool, so
    /// nested parallel calls degrade to sequential inline execution.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Pool stack pushed by `ThreadPool::install`.
    static CURRENT: std::cell::RefCell<Vec<Arc<PoolCore>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// True while executing on a pool worker (nested calls must inline).
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// One published parallel job: a lifetime-erased claim-loop runner that any
/// number of threads may call concurrently, plus the copy accounting the
/// caller waits on before its stack frame (which the runner borrows) dies.
struct Job {
    /// The claim-loop runner. SAFETY: points into the stack frame of the
    /// caller, which blocks in [`PoolCore::run`] until `copies_left == 0`.
    runner: &'static (dyn Fn() + Sync),
    /// Copies published minus copies finished; guarded by `lock`.
    lock: Mutex<usize>,
    cv: Condvar,
}

impl Job {
    fn copy_done(&self) {
        let mut left = self.lock.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    fn wait_all_copies(&self) {
        let mut left = self.lock.lock().unwrap();
        while *left > 0 {
            left = self.cv.wait(left).unwrap();
        }
    }
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

/// Shared pool state: worker threads pull jobs from the queue.
pub(crate) struct PoolCore {
    num_threads: usize,
    queue: Mutex<Queue>,
    available: Condvar,
}

impl PoolCore {
    fn start(num_threads: usize) -> Arc<PoolCore> {
        let core = Arc::new(PoolCore {
            num_threads,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        for i in 0..num_threads.saturating_sub(1) {
            let c = Arc::clone(&core);
            std::thread::Builder::new()
                .name(format!("sb-pool-{i}"))
                .spawn(move || c.worker_loop())
                .expect("spawn pool worker");
        }
        metrics()
            .threads_started
            .add(num_threads.saturating_sub(1) as u64);
        core
    }

    fn worker_loop(&self) {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let idle_from = Instant::now();
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.available.wait(q).unwrap();
                }
            };
            metrics()
                .worker_idle_us
                .add(idle_from.elapsed().as_micros() as u64);
            // A panic in the runner is already captured into the job's
            // poison slot by the runner itself (see `run`), so the worker
            // thread survives every job.
            (job.runner)();
            job.copy_done();
        }
    }

    /// Degree of parallelism this pool provides (workers + caller).
    pub(crate) fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `pieces` work items: `piece_fn(i)` for every `i in 0..pieces`,
    /// claimed dynamically by the caller and up to `num_threads - 1`
    /// workers. Returns when every piece has finished. Re-throws the first
    /// piece panic on the calling thread.
    pub(crate) fn run(self: &Arc<Self>, pieces: usize, piece_fn: &(dyn Fn(usize) + Sync)) {
        if pieces == 0 {
            return;
        }
        metrics().par_calls.inc();
        let claim = StealClaim::new(pieces, self.num_threads);
        let poisoned = AtomicBool::new(false);
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        // Shared piece executor. Returns false once the call is poisoned,
        // telling the claim loop to drain fast. Keeps the engine alive
        // through piece panics: record the first payload, re-throw it on
        // the caller.
        let run_piece = |i: usize| -> bool {
            if poisoned.load(Ordering::Relaxed) {
                return false;
            }
            if let Err(payload) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| piece_fn(i)))
            {
                poisoned.store(true, Ordering::Relaxed);
                let mut slot = panic_slot.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            true
        };
        let runner = || claim.claim(&run_piece);

        let copies = (self.num_threads - 1).min(pieces.saturating_sub(1));
        let job = if copies > 0 {
            let erased: &(dyn Fn() + Sync) = &runner;
            // SAFETY: `runner` borrows this stack frame. The transmute to
            // 'static is sound because we do not return before
            // `wait_all_copies()` observes that every published copy has
            // finished calling it (workers call `copy_done` strictly after
            // their last use of `runner`).
            let erased: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(erased) };
            let job = Arc::new(Job {
                runner: erased,
                lock: Mutex::new(copies),
                cv: Condvar::new(),
            });
            {
                let mut q = self.queue.lock().unwrap();
                for _ in 0..copies {
                    q.jobs.push_back(Arc::clone(&job));
                }
            }
            metrics().jobs_published.add(copies as u64);
            self.available.notify_all();
            Some(job)
        } else {
            None
        };

        // The caller is one of the pool's threads: claim pieces too. Its
        // runner exits only when the claim counter is exhausted, i.e. every
        // piece is claimed; stragglers finish before `wait_all_copies`.
        // While claiming, the caller counts as a worker so nested parallel
        // calls inside a piece inline instead of re-entering the pool.
        {
            struct Restore(bool);
            impl Drop for Restore {
                fn drop(&mut self) {
                    IN_WORKER.with(|w| w.set(self.0));
                }
            }
            let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
            runner();
        }
        if let Some(job) = job {
            let wait_from = Instant::now();
            job.wait_all_copies();
            metrics()
                .caller_wait_us
                .add(wait_from.elapsed().as_micros() as u64);
        }
        if let Some(payload) = panic_slot.into_inner().unwrap() {
            std::panic::resume_unwind(payload);
        }
    }

    fn shutdown(&self) {
        let mut q = self.queue.lock().unwrap();
        q.shutdown = true;
        drop(q);
        self.available.notify_all();
    }
}

/// Default parallelism: `RAYON_NUM_THREADS` if set and positive, else the
/// host's available parallelism.
fn default_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The lazily-built global pool backing parallel calls made outside any
/// `ThreadPool::install` scope.
fn global() -> &'static Arc<PoolCore> {
    static GLOBAL: OnceLock<Arc<PoolCore>> = OnceLock::new();
    GLOBAL.get_or_init(|| PoolCore::start(default_num_threads()))
}

/// The pool governing parallel calls on this thread right now: the
/// innermost `install`, else the global pool.
pub(crate) fn current() -> Arc<PoolCore> {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(|| Arc::clone(global()))
}

/// Effective parallelism for a call issued on this thread: 1 inside a
/// worker (nested calls inline), else the current pool's thread count.
pub(crate) fn effective_parallelism() -> usize {
    if in_worker() {
        1
    } else {
        current().num_threads()
    }
}

/// Execute `pieces` claims of `piece_fn` with the current pool, sequentially
/// when parallelism is unavailable (1-thread pool or nested call).
pub(crate) fn execute(pieces: usize, piece_fn: &(dyn Fn(usize) + Sync)) {
    let pool = if in_worker() { None } else { Some(current()) };
    match pool {
        Some(pool) if pool.num_threads() > 1 && pieces > 1 => pool.run(pieces, piece_fn),
        _ => {
            if pieces > 0 {
                metrics().inline_calls.inc();
            }
            for i in 0..pieces {
                piece_fn(i);
            }
        }
    }
}

/// How many pieces a workload of `work_items` base items should split into
/// under the current pool, or 1 when it should stay sequential.
pub(crate) fn piece_count(work_items: usize) -> usize {
    let threads = effective_parallelism();
    if threads <= 1 || work_items < SEQ_THRESHOLD {
        return 1;
    }
    (threads * STEAL_PIECES_PER_THREAD).min(work_items)
}

/// Guard that pushes a pool as this thread's current for a scope.
pub(crate) struct InstallGuard;

impl InstallGuard {
    pub(crate) fn push(core: Arc<PoolCore>) -> InstallGuard {
        metrics().installs.inc();
        CURRENT.with(|c| c.borrow_mut().push(core));
        InstallGuard
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Owned handle used by [`crate::ThreadPool`]: shuts the workers down (and
/// lets them drain the queue) when the last handle drops.
pub(crate) struct PoolHandle {
    pub(crate) core: Arc<PoolCore>,
}

impl PoolHandle {
    pub(crate) fn new(num_threads: usize) -> PoolHandle {
        let n = if num_threads == 0 {
            default_num_threads()
        } else {
            num_threads
        };
        PoolHandle {
            core: PoolCore::start(n),
        }
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.core.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a claim with `participants` scoped threads and return how
    /// many times each piece index was handed out.
    fn drive(d: &StealClaim, pieces: usize, participants: usize) -> Vec<usize> {
        let counts: Vec<AtomicUsize> = (0..pieces).map(|_| AtomicUsize::new(0)).collect();
        let run_piece = |i: usize| -> bool {
            counts[i].fetch_add(1, Ordering::Relaxed);
            true
        };
        std::thread::scope(|s| {
            for _ in 0..participants {
                s.spawn(|| d.claim(&run_piece));
            }
        });
        counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn steal_claim_hands_out_each_piece_exactly_once() {
        // Shapes chosen to hit: single slot (no thieves), pieces < slots
        // (empty tail slots), pieces not divisible by slots, fewer
        // participants than slots (unowned non-empty slots must be stolen),
        // and chunk sizes spanning several halvings.
        for (pieces, slots, parts) in [
            (1, 1, 1),
            (7, 4, 3),
            (64, 4, 4),
            (5, 8, 5),
            (129, 2, 2),
            (1000, 8, 8),
            (33, 8, 2),
        ] {
            let d = StealClaim::new(pieces, slots);
            let counts = drive(&d, pieces, parts);
            assert!(
                counts.iter().all(|&c| c == 1),
                "pieces={pieces} slots={slots} parts={parts}: {counts:?}"
            );
        }
    }

    #[test]
    fn steal_claim_rebalances_away_from_a_stuck_owner() {
        // Slot 0's owner stalls inside its first chunk; the other
        // participant must drain its own partition and then steal the rest
        // of slot 0's range, so the call still covers every piece.
        let pieces = 64;
        let d = StealClaim::new(pieces, 2);
        let counts: Vec<AtomicUsize> = (0..pieces).map(|_| AtomicUsize::new(0)).collect();
        let run_piece = |i: usize| -> bool {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            counts[i].fetch_add(1, Ordering::Relaxed);
            true
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| d.claim(&run_piece));
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert!(
            d.steals.load(Ordering::Relaxed) > 0,
            "the free participant never stole from the stuck owner"
        );
    }

    #[test]
    fn steal_claim_chunk_size_decays_under_pressure() {
        let d = StealClaim::new(1024, 4);
        assert_eq!(d.chunk_size(), 128);
        d.steals.store(1, Ordering::Relaxed);
        assert_eq!(d.chunk_size(), 64);
        d.steals.store(6, Ordering::Relaxed);
        assert_eq!(d.chunk_size(), 2);
        // Pressure saturates: the floor is 1 piece, never 0.
        d.steals.store(1000, Ordering::Relaxed);
        assert_eq!(d.chunk_size(), 2);
        let tiny = StealClaim::new(3, 4);
        tiny.steals.store(1000, Ordering::Relaxed);
        assert_eq!(tiny.chunk_size(), 1);
    }

    #[test]
    fn steal_claim_poison_drains_without_running_pieces() {
        // Once run_piece reports poison, participants must exit their claim
        // loops promptly instead of spinning on unclaimed work.
        let d = StealClaim::new(256, 2);
        let executed = AtomicUsize::new(0);
        let run_piece = |_i: usize| -> bool {
            executed.fetch_add(1, Ordering::Relaxed);
            false
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| d.claim(&run_piece));
            }
        });
        assert!(executed.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn packed_range_roundtrips() {
        for (lo, hi) in [(0u32, 0u32), (0, 1), (17, 4096), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack(pack(lo, hi)), (lo, hi));
        }
    }
}

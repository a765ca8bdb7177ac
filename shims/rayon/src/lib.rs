//! Multi-threaded drop-in for the subset of the `rayon` API this workspace
//! uses.
//!
//! The build environment has no network access and no crates.io cache, so
//! the real `rayon` cannot be fetched. This shim preserves the API shape —
//! `par_iter`, `into_par_iter`, `par_sort_unstable`, `ThreadPoolBuilder`,
//! `install`, … — on top of a real execution engine (the private `pool`
//! module): a lazily-initialized global worker pool on `std::thread`, chunked
//! parallel-for with work-stealing chunk claiming (per-thread deques,
//! steal-half rebalancing), early-exit cancellation for `find_any`,
//! order-respecting parallel `map`/`collect`, and a parallel merge sort
//! behind `par_sort_unstable`.
//!
//! Results are interleaving-independent by construction: order-sensitive
//! consumers reassemble per-piece results in base order, and the solvers
//! built on top are written against atomics and tolerate any interleaving
//! (`tests/concurrency.rs` exercises exactly that). The one deliberate
//! contract change versus sequential execution is [`iter::ParallelIterator::
//! find_any`], which returns *some* match rather than the first.
//!
//! Swapping the real crate back in is a one-line `Cargo.toml` change; no
//! source edits are required.

pub mod iter;
mod pool;
mod sort;

/// The traits user code imports with `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{FromParallelIterator, IndexedParallelIterator, ParallelIterator};
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSlice,
        ParallelSliceMut,
    };
}

/// `collection.into_par_iter()` — consuming parallel iteration.
pub trait IntoParallelIterator {
    /// Element type of the resulting iterator.
    type Item: Send;
    /// The parallel iterator this collection converts into.
    type Iter: iter::ParallelIterator<Item = Self::Item>;

    /// Consume `self`, yielding its parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// `collection.par_iter()` — borrowing parallel iteration over slices (and
/// anything that derefs to a slice, e.g. `Vec`).
pub trait IntoParallelRefIterator<T: Sync> {
    /// Borrowing parallel iteration, named like rayon's form.
    fn par_iter(&self) -> iter::SliceParIter<'_, T>;
}

impl<T: Sync> IntoParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> iter::SliceParIter<'_, T> {
        iter::SliceParIter { slice: self }
    }
}

/// `collection.par_iter_mut()` — mutably-borrowing parallel iteration.
pub trait IntoParallelRefMutIterator<T: Send> {
    /// Mutably-borrowing parallel iteration, named like rayon's form.
    fn par_iter_mut(&mut self) -> iter::SliceParIterMut<'_, T>;
}

impl<T: Send> IntoParallelRefMutIterator<T> for [T] {
    fn par_iter_mut(&mut self) -> iter::SliceParIterMut<'_, T> {
        iter::SliceParIterMut { slice: self }
    }
}

/// Chunked traversal of shared slices.
pub trait ParallelSlice<T: Sync> {
    /// `slice.par_chunks(n)` — parallel iteration over `n`-sized chunks.
    fn par_chunks(&self, chunk_size: usize) -> iter::ChunksParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> iter::ChunksParIter<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        iter::ChunksParIter {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Chunked/sorting traversal of mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// `slice.par_chunks_mut(n)` — parallel iteration over mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> iter::ChunksMutParIter<'_, T>;

    /// `slice.par_sort_unstable()` — parallel unstable merge sort.
    fn par_sort_unstable(&mut self)
    where
        T: Ord;

    /// `slice.par_sort_unstable_by(cmp)` — parallel unstable merge sort
    /// with a comparator.
    fn par_sort_unstable_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync + Send;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> iter::ChunksMutParIter<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        iter::ChunksMutParIter {
            slice: self,
            size: chunk_size,
        }
    }

    fn par_sort_unstable(&mut self)
    where
        T: Ord,
    {
        sort::par_sort_unstable_by(self, T::cmp);
    }

    fn par_sort_unstable_by<F>(&mut self, cmp: F)
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync + Send,
    {
        sort::par_sort_unstable_by(self, cmp);
    }
}

/// Run two closures, potentially in parallel: `b` is offered to the current
/// pool while the calling thread runs `a` (and claims `b` back if no worker
/// picks it up first).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    use std::sync::Mutex;
    let slot_a: Mutex<(Option<A>, Option<RA>)> = Mutex::new((Some(a), None));
    let slot_b: Mutex<(Option<B>, Option<RB>)> = Mutex::new((Some(b), None));
    pool::execute(2, &|i| {
        if i == 0 {
            let mut s = slot_a.lock().unwrap();
            let f = s.0.take().expect("join closure claimed twice");
            s.1 = Some(f());
        } else {
            let mut s = slot_b.lock().unwrap();
            let f = s.0.take().expect("join closure claimed twice");
            s.1 = Some(f());
        }
    });
    (
        slot_a.into_inner().unwrap().1.unwrap(),
        slot_b.into_inner().unwrap().1.unwrap(),
    )
}

/// Parallelism of the pool governing this thread: the innermost
/// [`ThreadPool::install`], else the lazily-built global pool.
pub fn current_num_threads() -> usize {
    pool::effective_parallelism()
}

/// Error type returned by [`ThreadPoolBuilder::build`]; never constructed.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error (shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A real worker pool: `num_threads - 1` worker threads plus the installing
/// caller. Workers shut down when the pool drops.
pub struct ThreadPool {
    handle: pool::PoolHandle,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.current_num_threads())
            .finish()
    }
}

impl ThreadPool {
    /// Run `op` with this pool as the calling thread's current pool: every
    /// parallel call inside `op` executes on this pool's workers (plus the
    /// calling thread itself).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let _guard = pool::InstallGuard::push(std::sync::Arc::clone(&self.handle.core));
        op()
    }

    /// Configured degree of parallelism.
    pub fn current_num_threads(&self) -> usize {
        self.handle.core.num_threads()
    }
}

/// Builder matching `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request a degree of parallelism; 0 (the default) means the host's
    /// available parallelism (or `RAYON_NUM_THREADS`).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool, spawning its worker threads.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            handle: pool::PoolHandle::new(self.num_threads),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Big enough to clear the sequential threshold so the pool really runs.
    const N: usize = 100_000;

    fn quad_pool() -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn par_iter_matches_sequential() {
        let v: Vec<u32> = (0..N as u32).collect();
        let s: u64 = v.par_iter().map(|&x| x as u64).sum();
        assert_eq!(s, (N as u64 - 1) * N as u64 / 2);
        let doubled: Vec<u32> = v.into_par_iter().map(|x| 2 * x).collect();
        assert_eq!(doubled[N - 1], 2 * (N as u32 - 1));
    }

    #[test]
    fn parallel_collect_preserves_order() {
        quad_pool().install(|| {
            let got: Vec<usize> = (0..N).into_par_iter().map(|i| i * 3).collect();
            assert!(got.iter().enumerate().all(|(i, &x)| x == i * 3));
            let evens: Vec<usize> = (0..N).into_par_iter().filter(|i| i % 2 == 0).collect();
            assert!(evens.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(evens.len(), N / 2);
        });
    }

    #[test]
    fn parallel_for_each_touches_everything_once() {
        quad_pool().install(|| {
            let cells: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            cells.par_iter().for_each(|c| {
                c.fetch_add(1, Ordering::Relaxed);
            });
            assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn enumerate_offsets_survive_splitting() {
        quad_pool().install(|| {
            let v: Vec<u32> = (0..N as u32).collect();
            let ok: Vec<bool> = v
                .par_iter()
                .enumerate()
                .map(|(i, &x)| i == x as usize)
                .collect();
            assert!(ok.into_iter().all(|b| b));
        });
    }

    #[test]
    fn zip_lines_up_across_pieces() {
        quad_pool().install(|| {
            let a: Vec<u64> = (0..N as u64).collect();
            let b: Vec<u64> = (0..N as u64).map(|x| x * 2).collect();
            let s: u64 = a
                .par_iter()
                .zip(b.par_iter())
                .map(|(&x, &y)| y - 2 * x)
                .sum();
            assert_eq!(s, 0);
        });
    }

    #[test]
    fn fold_sees_items_in_order() {
        quad_pool().install(|| {
            let last = (0..N)
                .into_par_iter()
                .fold(None::<usize>, |prev, i| {
                    if let Some(p) = prev {
                        assert_eq!(i, p + 1, "fold order broke");
                    }
                    Some(i)
                })
                .unwrap();
            assert_eq!(last, N - 1);
        });
    }

    #[test]
    fn find_any_finds_and_cancels() {
        quad_pool().install(|| {
            // Any-match contract: the needle is found wherever it sits.
            let hit = (0..N).into_par_iter().find_any(|&i| i == N - 7);
            assert_eq!(hit, Some(N - 7));
            assert_eq!((0..N).into_par_iter().find_any(|&i| i > N), None);
            // Early exit: far fewer predicate calls than items once a match
            // (at the very front) raises the cancellation flag.
            let calls = AtomicUsize::new(0);
            let found = (0..N).into_par_iter().find_any(|&i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i % 4 == 0
            });
            assert!(found.is_some());
            assert!(
                calls.load(Ordering::Relaxed) < N / 2,
                "cancellation flag did not stop the scan ({} calls)",
                calls.load(Ordering::Relaxed)
            );
        });
    }

    #[test]
    fn slice_ops() {
        let mut v: Vec<u32> = (0..N as u32).rev().collect();
        quad_pool().install(|| {
            v.par_sort_unstable();
            assert!(v.windows(2).all(|w| w[0] <= w[1]));
            v.par_sort_unstable_by(|a, b| b.cmp(a));
            assert!(v.windows(2).all(|w| w[0] >= w[1]));
            assert_eq!(v.par_chunks(1 << 10).count(), N.div_ceil(1 << 10));
            assert_eq!(v.par_chunks(1 << 10).map(|c| c.len()).sum::<usize>(), N);
            let mut w = vec![1u32; N];
            w.par_chunks_mut(1 << 10).for_each(|c| c[0] = 7);
            assert_eq!(w.iter().filter(|&&x| x == 7).count(), N.div_ceil(1 << 10));
        });
    }

    #[test]
    fn sort_matches_std_on_adversarial_patterns() {
        quad_pool().install(|| {
            for pat in 0..4u32 {
                let mut v: Vec<u32> = (0..N as u32)
                    .map(|i| match pat {
                        0 => i % 17,
                        1 => N as u32 - i,
                        2 => i,
                        _ => i.wrapping_mul(2654435761) >> 7,
                    })
                    .collect();
                let mut want = v.clone();
                want.sort_unstable();
                v.par_sort_unstable();
                assert_eq!(v, want, "pattern {pat}");
            }
        });
    }

    #[test]
    fn pool_installs_and_reports_threads() {
        let pool = quad_pool();
        assert_eq!(pool.install(|| 41 + 1), 42);
        assert_eq!(pool.current_num_threads(), 4);
        assert_eq!(pool.install(super::current_num_threads), 4);
    }

    #[test]
    fn nested_parallelism_inlines() {
        quad_pool().install(|| {
            let total: usize = (0..N)
                .into_par_iter()
                .map(|_| super::current_num_threads())
                .sum();
            // Pieces running on workers (and on the installing caller while
            // it executes pieces) see themselves as single-threaded.
            assert_eq!(total, N);
        });
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = quad_pool().install(|| super::join(|| 2 + 2, || "ok"));
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = quad_pool();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..N).into_par_iter().for_each(|i| {
                    if i == N / 2 {
                        panic!("boom");
                    }
                });
            })
        }));
        assert!(caught.is_err(), "piece panic must reach the caller");
        // The pool survives the panic and keeps executing.
        let s: usize = pool.install(|| (0..N).into_par_iter().map(|_| 1usize).sum());
        assert_eq!(s, N);
    }

    #[test]
    fn parallel_calls_cover_every_item_once() {
        let pool = quad_pool();
        pool.install(|| {
            let cells: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            cells.par_iter().for_each(|c| {
                c.fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                cells.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "missed or repeated items"
            );
            let s: u64 = (0..N as u64).into_par_iter().sum();
            assert_eq!(s, (N as u64 - 1) * N as u64 / 2);
        });
    }

    #[test]
    fn skewed_workload_completes_under_stealing() {
        // One item ~1000x heavier than the rest: the static partitions are
        // badly imbalanced, so steal-half rebalancing carries the load.
        let pool = quad_pool();
        pool.install(|| {
            let heavy = N / 2;
            let s: u64 = (0..N)
                .into_par_iter()
                .map(|i| {
                    let spins = if i == heavy { 100_000u64 } else { 100 };
                    let mut acc = i as u64;
                    for k in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    acc & 1
                })
                .sum();
            assert!(s <= N as u64);
        });
    }

    #[test]
    fn many_pools_build_and_drop() {
        for nt in [1usize, 2, 3, 8] {
            let pool = super::ThreadPoolBuilder::new()
                .num_threads(nt)
                .build()
                .unwrap();
            let s: u64 = pool.install(|| (0..N as u64).into_par_iter().sum());
            assert_eq!(s, (N as u64 - 1) * N as u64 / 2);
        }
    }
}

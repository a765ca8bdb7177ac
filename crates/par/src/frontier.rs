//! Active-frontier compaction and scratch-arena reuse.
//!
//! Every solver in the study is a synchronous round loop, and by the later
//! rounds only a small fraction of vertices is still live. In dense mode a
//! solver re-sweeps the full participant list each round (the paper's
//! baselines do exactly that — see `sb_core::mis::luby`); in compact mode
//! it keeps the live set as a flat worklist and *compacts* it between
//! rounds, so each round's sweeps touch only still-live vertices or edges.
//!
//! Three pieces live here:
//!
//! * [`Frontier`] — a ping-pong pair of index buffers plus a reusable
//!   per-block count buffer. [`Frontier::compact`] filters the current
//!   worklist into the spare buffer with the same order-stable blocked
//!   flag–scan–scatter pipeline as [`crate::prim::compact_indices`], then
//!   swaps the buffers; no allocation happens once the buffers have grown
//!   to their high-water mark (round 1).
//! * [`ByteMarks`] — a per-index mark byte array that kernels set and read
//!   concurrently (GM's dirty marks, Luby's marked candidates).
//! * [`Scratch`] — a typed buffer arena. Solvers borrow per-call working
//!   arrays (`degree`, `marked`, `proposal`, FORBIDDEN offsets, …) from it
//!   instead of `vec![0; n]`-ing fresh ones, and give them back when done.
//!   The arena counts fresh allocations vs reuses so tests can pin that a
//!   second solve on the same arena allocates nothing.
//!
//! The standalone [`compact_active`] is the same primitive over a
//! caller-owned destination, kept public for the criterion microbench and
//! for one-shot callers that have no `Frontier` at hand.

use rayon::prelude::*;

use crate::prim::BLOCK;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Frontier/arena observability (DESIGN.md §12). Every series here is
/// `Logical`-class: compaction counts, items scanned, and arena
/// allocation behavior are fixed by the algorithm and must be identical
/// at 1 and N threads — the CLI determinism test pins that.
struct FrontierMetrics {
    /// Compaction passes executed (one per `compact_active_with` call).
    compactions: sb_metrics::Counter,
    /// Worklist items scanned across all compaction passes.
    items_scanned: sb_metrics::Counter,
    /// Scratch-arena buffers that had to be freshly allocated.
    scratch_fresh_allocs: sb_metrics::Counter,
    /// Scratch-arena buffers handed out without allocating.
    scratch_reuses: sb_metrics::Counter,
}

fn metrics() -> &'static FrontierMetrics {
    static METRICS: OnceLock<FrontierMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        use sb_metrics::Class::Logical;
        let r = sb_metrics::global();
        FrontierMetrics {
            compactions: r.counter("sb_par_frontier_compactions", Logical),
            items_scanned: r.counter("sb_par_frontier_items_scanned", Logical),
            scratch_fresh_allocs: r.counter("sb_par_scratch_fresh_allocs", Logical),
            scratch_reuses: r.counter("sb_par_scratch_reuses", Logical),
        }
    })
}

/// Filter `src` into `dst` (cleared first), keeping order: the parallel
/// filter-compact primitive behind [`Frontier::compact`].
///
/// Order-stable and deterministic: the output equals
/// `src.iter().filter(|&&i| keep(i))` regardless of thread count. Inputs at
/// or below one block run sequentially — a parallel two-pass costs more
/// than the loop at that size.
pub fn compact_active<F>(src: &[u32], keep: F, dst: &mut Vec<u32>)
where
    F: Fn(u32) -> bool + Sync + Send,
{
    let mut counts = Vec::new();
    compact_active_with(src, keep, dst, &mut counts);
}

/// [`compact_active`] with a caller-owned per-block count buffer, so
/// repeated compactions (the round loop) allocate nothing at steady state.
fn compact_active_with<F>(src: &[u32], keep: F, dst: &mut Vec<u32>, counts: &mut Vec<usize>)
where
    F: Fn(u32) -> bool + Sync + Send,
{
    dst.clear();
    let n = src.len();
    let m = metrics();
    m.compactions.inc();
    m.items_scanned.add(n as u64);
    if n == 0 {
        return;
    }
    if n <= BLOCK {
        dst.extend(src.iter().copied().filter(|&i| keep(i)));
        return;
    }
    let nblocks = n.div_ceil(BLOCK);
    // Pass 1: survivors per block, written into the reused count buffer.
    counts.clear();
    counts.resize(nblocks, 0);
    counts.par_iter_mut().enumerate().for_each(|(b, c)| {
        let lo = b * BLOCK;
        let hi = n.min(lo + BLOCK);
        *c = src[lo..hi].iter().filter(|&&i| keep(i)).count();
    });
    let total: usize = counts.iter().sum();
    // Pass 2: scatter each block into its exact slot range.
    dst.resize(total, 0);
    let mut slices: Vec<&mut [u32]> = Vec::with_capacity(nblocks);
    {
        let mut rest: &mut [u32] = dst;
        for &len in counts.iter() {
            let (head, tail) = rest.split_at_mut(len);
            slices.push(head);
            rest = tail;
        }
    }
    src.par_chunks(BLOCK)
        .zip(slices.into_par_iter())
        .for_each(|(chunk, slot)| {
            let mut j = 0;
            for &i in chunk {
                if keep(i) {
                    slot[j] = i;
                    j += 1;
                }
            }
            debug_assert_eq!(j, slot.len());
        });
}

/// Compact the index range `0..n` into a fresh order-stable worklist.
///
/// Convenience entry for the initial participant scan a solver does once at
/// entry (the per-round path goes through [`Frontier::compact`], which
/// reuses buffers). Equivalent to `(0..n).filter(keep).collect()`.
pub fn compact_range<F>(n: usize, keep: F) -> Vec<u32>
where
    F: Fn(u32) -> bool + Sync + Send,
{
    crate::prim::compact_indices(n, |i| keep(i as u32))
}

/// A ping-pong active-set worklist for synchronous round loops.
///
/// The current worklist lives in one buffer; [`Frontier::compact`] filters
/// it into the other and swaps. Both buffers (and the internal per-block
/// count buffer) keep their capacity across rounds and across solver calls
/// when the frontier is recycled through a [`Scratch`].
#[derive(Debug, Default)]
pub struct Frontier {
    cur: Vec<u32>,
    spare: Vec<u32>,
    counts: Vec<usize>,
}

impl Frontier {
    /// Empty frontier with no capacity.
    pub fn new() -> Frontier {
        Frontier::default()
    }

    /// Take ownership of an existing worklist as the current frontier.
    pub fn from_vec(items: Vec<u32>) -> Frontier {
        Frontier {
            cur: items,
            ..Frontier::default()
        }
    }

    /// Reset to the indices `i in 0..n` with `keep(i)`, in increasing
    /// order, reusing the buffers' capacity.
    pub fn reset_range<F>(&mut self, n: usize, keep: F)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        // Fill the spare with 0..n, then compact — two streaming passes,
        // both allocation-free at steady state.
        self.spare.clear();
        self.spare.extend(0..n as u32);
        std::mem::swap(&mut self.cur, &mut self.spare);
        self.compact(keep);
    }

    /// Reset to a copy of an existing worklist, reusing buffer capacity.
    pub fn reset_from(&mut self, items: &[u32]) {
        self.cur.clear();
        self.cur.extend_from_slice(items);
    }

    /// Current worklist.
    pub fn as_slice(&self) -> &[u32] {
        &self.cur
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.cur.len()
    }

    /// Whether no item is live.
    pub fn is_empty(&self) -> bool {
        self.cur.is_empty()
    }

    /// Drop every item failing `keep`, preserving order (ping-pong swap).
    pub fn compact<F>(&mut self, keep: F)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        compact_active_with(&self.cur, keep, &mut self.spare, &mut self.counts);
        std::mem::swap(&mut self.cur, &mut self.spare);
    }

    /// Parallel sweep over the live items.
    pub fn for_each<F>(&self, f: F)
    where
        F: Fn(u32) + Sync + Send,
    {
        self.cur.par_iter().for_each(|&v| f(v));
    }

    /// `dst := {v in self : pred(v)}`, order-stable, reusing `dst`'s
    /// buffers.
    pub fn select_into<F>(&self, pred: F, dst: &mut Frontier)
    where
        F: Fn(u32) -> bool + Sync + Send,
    {
        compact_active_with(&self.cur, pred, &mut dst.cur, &mut dst.counts);
    }

    /// `dst := self ∩ marks` — the conflict/winner-mask step.
    pub fn select_marked_into(&self, marks: &ByteMarks, dst: &mut Frontier) {
        self.select_into(|v| marks.get(v), dst);
    }

    /// Capacity currently held across both buffers (for reuse accounting).
    fn capacity(&self) -> usize {
        self.cur.capacity() + self.spare.capacity()
    }
}

/// A per-vertex (or per-edge) mark array shared across a parallel sweep,
/// one byte per index.
///
/// Solvers write marks from inside kernels (`put`) and read them from
/// neighbors (`get`). Backed by an arena `Vec<u8>` (see
/// [`Scratch::take_marks`]); accesses go through `AtomicU8` views of the
/// same memory (the `crate::atomic` cast idiom), so kernels may mark
/// concurrently.
pub struct ByteMarks {
    buf: Vec<u8>,
}

impl ByteMarks {
    fn at(&self, i: u32) -> &AtomicU8 {
        // SAFETY: `AtomicU8` has the same layout as `u8`, the index is in
        // bounds (caller contract, checked in debug), and every access to
        // the buffer while it is shared goes through these atomic views.
        debug_assert!((i as usize) < self.buf.len());
        unsafe { &*(self.buf.as_ptr().add(i as usize) as *const AtomicU8) }
    }

    /// Set or clear index `i`'s mark (atomic; racing distinct indices is fine).
    pub fn put(&self, i: u32, val: bool) {
        self.at(i).store(val as u8, Ordering::Relaxed);
    }

    /// Read index `i`'s mark.
    pub fn get(&self, i: u32) -> bool {
        self.at(i).load(Ordering::Relaxed) != 0
    }
}

/// Allocation statistics of a [`Scratch`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScratchStats {
    /// Buffers handed out that had to be freshly allocated (or regrown).
    pub fresh_allocs: u64,
    /// Buffers handed out from the pool without allocating.
    pub reuses: u64,
}

/// A typed buffer arena for per-solver working memory.
///
/// One `Scratch` lives for a whole composite run; each solver phase
/// borrows the arrays it needs (`take_*`), uses them for its round loop,
/// and returns them (`recycle_*`). The first call per shape allocates; all
/// later calls reuse, so a run's allocation count stops growing after its
/// first solve — [`Scratch::stats`] exposes the counts so tests can pin
/// exactly that.
#[derive(Debug, Default)]
pub struct Scratch {
    u8s: Vec<Vec<u8>>,
    u32s: Vec<Vec<u32>>,
    usizes: Vec<Vec<usize>>,
    frontiers: Vec<Frontier>,
    fresh_allocs: u64,
    reuses: u64,
}

fn take_buf<T: Copy>(
    pool: &mut Vec<Vec<T>>,
    n: usize,
    fill: T,
    fresh: &mut u64,
    reuses: &mut u64,
) -> Vec<T> {
    match pool.pop() {
        Some(mut b) if b.capacity() >= n => {
            *reuses += 1;
            b.clear();
            b.resize(n, fill);
            b
        }
        _ => {
            *fresh += 1;
            vec![fill; n]
        }
    }
}

impl Scratch {
    /// Fresh, empty arena.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Borrow a `u8` buffer of length `n`, every entry set to `fill`.
    pub fn take_u8(&mut self, n: usize, fill: u8) -> Vec<u8> {
        take_buf(
            &mut self.u8s,
            n,
            fill,
            &mut self.fresh_allocs,
            &mut self.reuses,
        )
    }

    /// Borrow a `u32` buffer of length `n`, every entry set to `fill`.
    pub fn take_u32(&mut self, n: usize, fill: u32) -> Vec<u32> {
        take_buf(
            &mut self.u32s,
            n,
            fill,
            &mut self.fresh_allocs,
            &mut self.reuses,
        )
    }

    /// Borrow a `usize` buffer of length `n`, every entry set to `fill`.
    pub fn take_usize(&mut self, n: usize, fill: usize) -> Vec<usize> {
        take_buf(
            &mut self.usizes,
            n,
            fill,
            &mut self.fresh_allocs,
            &mut self.reuses,
        )
    }

    /// Borrow an empty [`Frontier`] (its buffers keep the capacity they had
    /// when recycled).
    pub fn take_frontier(&mut self) -> Frontier {
        match self.frontiers.pop() {
            Some(mut f) => {
                if f.capacity() > 0 {
                    self.reuses += 1;
                } else {
                    self.fresh_allocs += 1;
                }
                f.cur.clear();
                f.spare.clear();
                f
            }
            None => {
                self.fresh_allocs += 1;
                Frontier::new()
            }
        }
    }

    /// Borrow a mark array covering `0..n`, every mark set to `fill`
    /// (backed by the arena's `u8` pool).
    pub fn take_marks(&mut self, n: usize, fill: bool) -> ByteMarks {
        ByteMarks {
            buf: self.take_u8(n, fill as u8),
        }
    }

    /// Return a `u8` buffer to the pool.
    pub fn recycle_u8(&mut self, b: Vec<u8>) {
        self.u8s.push(b);
    }

    /// Return a mark array to the pool.
    pub fn recycle_marks(&mut self, marks: ByteMarks) {
        self.u8s.push(marks.buf);
    }

    /// Return a `u32` buffer to the pool.
    pub fn recycle_u32(&mut self, b: Vec<u32>) {
        self.u32s.push(b);
    }

    /// Return a `usize` buffer to the pool.
    pub fn recycle_usize(&mut self, b: Vec<usize>) {
        self.usizes.push(b);
    }

    /// Return a frontier (with its grown buffers) to the pool.
    pub fn recycle_frontier(&mut self, f: Frontier) {
        self.frontiers.push(f);
    }

    /// Allocation counters accumulated so far.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            fresh_allocs: self.fresh_allocs,
            reuses: self.reuses,
        }
    }
}

impl Drop for Scratch {
    /// Publish the arena's lifetime totals to the global metrics registry,
    /// so arena behavior is observable (`--metrics`) without any caller
    /// plumbing. Untouched arenas (including the empties `mem::take`
    /// leaves behind) publish nothing.
    fn drop(&mut self) {
        if self.fresh_allocs == 0 && self.reuses == 0 {
            return;
        }
        let m = metrics();
        m.scratch_fresh_allocs.add(self.fresh_allocs);
        m.scratch_reuses.add(self.reuses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn want(src: &[u32], keep: impl Fn(u32) -> bool) -> Vec<u32> {
        src.iter().copied().filter(|&i| keep(i)).collect()
    }

    #[test]
    fn compact_active_matches_filter_small_and_large() {
        for n in [0usize, 1, 57, 1000, BLOCK * 2 + 55] {
            let src: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7) % 1000).collect();
            let keep = |i: u32| i % 3 == 1;
            let mut dst = Vec::new();
            compact_active(&src, keep, &mut dst);
            assert_eq!(dst, want(&src, keep), "n = {n}");
        }
    }

    #[test]
    fn compact_active_reuses_destination_capacity() {
        let src: Vec<u32> = (0..(BLOCK * 2) as u32).collect();
        let mut dst = Vec::new();
        compact_active(&src, |_| true, &mut dst);
        let cap = dst.capacity();
        let ptr = dst.as_ptr();
        compact_active(&src, |i| i % 2 == 0, &mut dst);
        assert_eq!(dst.capacity(), cap);
        assert_eq!(dst.as_ptr(), ptr, "no reallocation on a shrinking pass");
        assert_eq!(dst.len(), BLOCK);
    }

    #[test]
    fn frontier_reset_and_pingpong() {
        let mut f = Frontier::new();
        f.reset_range(10, |i| i != 3);
        assert_eq!(f.as_slice(), &[0, 1, 2, 4, 5, 6, 7, 8, 9]);
        f.compact(|i| i % 2 == 0);
        assert_eq!(f.as_slice(), &[0, 2, 4, 6, 8]);
        assert_eq!(f.len(), 5);
        f.compact(|_| false);
        assert!(f.is_empty());
        // Reset reuses the same buffers.
        f.reset_range(4, |_| true);
        assert_eq!(f.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn frontier_multi_block_stable() {
        let n = BLOCK * 3 + 17;
        let mut f = Frontier::new();
        f.reset_range(n, |i| i % 5 != 0);
        let expect: Vec<u32> = (0..n as u32).filter(|i| i % 5 != 0).collect();
        assert_eq!(f.as_slice(), expect.as_slice());
        f.compact(|i| i % 2 == 0);
        let expect: Vec<u32> = expect.into_iter().filter(|i| i % 2 == 0).collect();
        assert_eq!(f.as_slice(), expect.as_slice());
    }

    #[test]
    fn frontier_compaction_allocates_nothing_at_steady_state() {
        let mut f = Frontier::new();
        f.reset_range(BLOCK * 2, |_| true);
        f.compact(|_| true); // both buffers now at high-water capacity
        let cur_cap = f.cur.capacity();
        let spare_cap = f.spare.capacity();
        for round in 0..6 {
            f.compact(move |i| i % (round + 2) != 0);
        }
        assert_eq!(
            f.cur.capacity().max(f.spare.capacity()),
            cur_cap.max(spare_cap)
        );
    }

    #[test]
    fn scratch_reuses_buffers() {
        let mut s = Scratch::new();
        let a = s.take_u32(100, 7);
        assert_eq!(a, vec![7u32; 100]);
        let ptr = a.as_ptr();
        s.recycle_u32(a);
        let b = s.take_u32(50, 9);
        assert_eq!(b.as_ptr(), ptr, "recycled buffer handed back out");
        assert_eq!(b, vec![9u32; 50]);
        let st = s.stats();
        assert_eq!(st.fresh_allocs, 1);
        assert_eq!(st.reuses, 1);
    }

    #[test]
    fn scratch_regrows_undersized_buffers() {
        let mut s = Scratch::new();
        let a = s.take_u8(10, 0);
        s.recycle_u8(a);
        let b = s.take_u8(10_000, 1); // does not fit: fresh allocation
        assert_eq!(b.len(), 10_000);
        assert_eq!(s.stats().fresh_allocs, 2);
    }

    #[test]
    fn scratch_frontier_roundtrip() {
        let mut s = Scratch::new();
        let mut f = s.take_frontier();
        f.reset_range(1000, |_| true);
        s.recycle_frontier(f);
        let f2 = s.take_frontier();
        assert!(f2.is_empty(), "recycled frontier comes back cleared");
        assert!(f2.capacity() >= 1000, "but keeps its capacity");
        let st = s.stats();
        assert_eq!(st.fresh_allocs, 1);
        assert_eq!(st.reuses, 1);
    }
}

//! Splittable parallel iterators over the engine in the `pool` module.
//!
//! Every chain starts from an indexed base (a range, slice, `Vec`, or chunk
//! view), composes element-wise adaptors (`map`, `filter`, `filter_map`,
//! `flat_map_iter`, `copied`, `cloned`, `enumerate`, `zip`), and ends in a
//! consumer (`for_each`, `collect`, `sum`, `count`, `min`/`max`, `fold`,
//! `find_any`, …). A consumer splits the chain into pieces at base-index
//! boundaries, publishes them to the current pool, and each piece is run as
//! a plain sequential `std` iterator by whichever thread claims it. Results
//! are reassembled **in piece order**, so order-sensitive consumers
//! (`collect`, `fold`) see exactly the sequential outcome; `find_any` is the
//! one deliberately order-free consumer (see its docs).

use crate::pool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A work item that can be cut at base-index boundaries and lowered to a
/// sequential iterator. `Send` because pieces migrate to worker threads.
pub trait ParallelIterator: Sized + Send {
    /// Element type produced by the chain.
    type Item: Send;
    /// The sequential iterator a piece lowers to.
    type Seq: Iterator<Item = Self::Item>;

    /// Number of *base* positions remaining (exact for indexed chains, an
    /// upper bound on yielded items for `filter`-like chains). Used only to
    /// size pieces.
    fn base_len(&self) -> usize;

    /// Estimated underlying work in scalar elements, for the go-parallel
    /// decision. Equal to `base_len` except for chunked bases, where each
    /// base item covers a whole sub-slice.
    fn work_hint(&self) -> usize {
        self.base_len()
    }

    /// Split at base position `index` (`0 <= index <= base_len`).
    fn split_at(self, index: usize) -> (Self, Self);

    /// Lower this (piece of the) chain to a sequential iterator.
    fn into_seq(self) -> Self::Seq;

    // ---- adaptors -------------------------------------------------------

    /// Parallel `map`.
    fn map<R: Send, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Parallel `filter`.
    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Parallel `filter_map`.
    fn filter_map<R: Send, F>(self, f: F) -> FilterMap<Self, F>
    where
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
    {
        FilterMap {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Rayon's `flat_map_iter`: `f` returns a *sequential* iterable that is
    /// flattened within the piece that produced it.
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        FlatMapIter {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Parallel `copied`.
    fn copied<'a, T>(self) -> Copied<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: Copy + Send + Sync + 'a,
    {
        Copied { base: self }
    }

    /// Parallel `cloned`.
    fn cloned<'a, T>(self) -> Cloned<Self>
    where
        Self: ParallelIterator<Item = &'a T>,
        T: Clone + Send + Sync + 'a,
    {
        Cloned { base: self }
    }

    // ---- consumers ------------------------------------------------------

    /// Run `f` on every item. Barrier semantics: returns only when every
    /// piece (on every thread) has finished.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(self, &|seq| seq.for_each(&f));
    }

    /// Collect into `C`, preserving the sequential order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Sum of all items (associative reduction over per-piece sums).
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        drive(self, &|seq| seq.sum::<S>()).into_iter().sum()
    }

    /// Number of items.
    fn count(self) -> usize {
        drive(self, &|seq| seq.count()).into_iter().sum()
    }

    /// Maximum item (ties resolved toward the earliest piece).
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive(self, &|seq| seq.max()).into_iter().flatten().max()
    }

    /// Minimum item (ties resolved toward the earliest piece).
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive(self, &|seq| seq.min()).into_iter().flatten().min()
    }

    /// *Some* item matching `predicate`, or `None`.
    ///
    /// Under real parallelism this is **not** the first match in sequential
    /// order: pieces race, a hit raises a shared cancellation flag, and
    /// every other piece early-exits at its next item boundary. Call sites
    /// must only rely on the any-match contract.
    fn find_any<P>(self, predicate: P) -> Option<Self::Item>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        let found = AtomicBool::new(false);
        drive(self, &|seq| {
            for item in seq {
                if found.load(Ordering::Relaxed) {
                    return None;
                }
                if predicate(&item) {
                    found.store(true, Ordering::Relaxed);
                    return Some(item);
                }
            }
            None
        })
        .into_iter()
        .flatten()
        .next()
    }

    /// True if any item matches `predicate` (early-exiting).
    fn any<P>(self, predicate: P) -> bool
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        self.find_any(predicate).is_some()
    }

    /// True if every item matches `predicate` (early-exiting).
    fn all<P>(self, predicate: P) -> bool
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        self.find_any(|item| !predicate(item)).is_none()
    }

    /// Sequential-semantics fold: items are produced in parallel, then
    /// folded left-to-right in base order on the calling thread. Matches
    /// `std::iter::Iterator::fold` exactly (the accumulator visits items in
    /// order), unlike rayon's fold/reduce pair — this is the contract the
    /// workspace's call sites were written against.
    fn fold<A, F>(self, init: A, f: F) -> A
    where
        F: FnMut(A, Self::Item) -> A,
    {
        let items: Vec<Self::Item> = self.collect();
        items.into_iter().fold(init, f)
    }
}

/// Indexed chains know their exact length and split positionally, which is
/// what `enumerate` and `zip` need to stay correct across splits.
pub trait IndexedParallelIterator: ParallelIterator {
    /// Exact number of items (`base_len` for indexed chains).
    fn len(&self) -> usize {
        self.base_len()
    }

    /// True when the chain yields nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number each item with its global position.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Pair positionally with another indexed chain (truncates to the
    /// shorter side, like `std`).
    fn zip<B: IndexedParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }
}

// ---- driver -------------------------------------------------------------

/// Split `iter` into pieces, run `consume` over each piece's sequential
/// iterator on the current pool, and return the per-piece results in piece
/// order.
fn drive<P, R, C>(iter: P, consume: &C) -> Vec<R>
where
    P: ParallelIterator,
    R: Send,
    C: Fn(P::Seq) -> R + Sync + ?Sized,
{
    let pieces = pool::piece_count(iter.work_hint()).min(iter.base_len().max(1));
    if pieces <= 1 {
        return vec![consume(iter.into_seq())];
    }
    let parts = split_into(iter, pieces);
    let n = parts.len();
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    pool::execute(n, &|i| {
        let part = slots[i]
            .lock()
            .unwrap()
            .take()
            .expect("piece claimed twice");
        let r = consume(part.into_seq());
        *results[i].lock().unwrap() = Some(r);
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("piece produced no result"))
        .collect()
}

/// Cut `iter` into `k` contiguous pieces of near-equal base length.
fn split_into<P: ParallelIterator>(iter: P, k: usize) -> Vec<P> {
    let mut out = Vec::with_capacity(k);
    let mut rest = iter;
    for i in (1..k).rev() {
        let len = rest.base_len();
        // Size of the remaining i+1 pieces balances to len/(i+1) each.
        let cut = len - len / (i + 1);
        let (left, right) = rest.split_at(cut);
        out.push(right);
        rest = left;
    }
    out.push(rest);
    out.reverse();
    out
}

// ---- collect targets ----------------------------------------------------

/// Order-preserving parallel collection (rayon's `FromParallelIterator`).
pub trait FromParallelIterator<T: Send>: Sized {
    /// Build `Self` from the chain's items in sequential order.
    fn from_par_iter<P: ParallelIterator<Item = T>>(iter: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(iter: P) -> Self {
        let parts = drive(iter, &|seq| seq.collect::<Vec<T>>());
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

// ---- bases --------------------------------------------------------------

/// Parallel iterator over an integer range.
pub struct RangeParIter<T> {
    pub(crate) lo: T,
    pub(crate) hi: T,
}

/// Integer endpoint types for parallel ranges. A single generic
/// `Range<T>` impl (rather than one impl per type) keeps rustc's integer
/// literal fallback working for `(0..n).into_par_iter()`.
pub trait RangeInt: Copy + Ord + Send {
    /// `hi - lo` as a count.
    fn delta(lo: Self, hi: Self) -> usize;
    /// `lo + offset`.
    fn add(lo: Self, offset: usize) -> Self;
}

macro_rules! range_int {
    ($t:ty) => {
        impl RangeInt for $t {
            fn delta(lo: $t, hi: $t) -> usize {
                (hi - lo) as usize
            }

            fn add(lo: $t, offset: usize) -> $t {
                lo + offset as $t
            }
        }
    };
}

range_int!(usize);
range_int!(u32);
range_int!(u64);
range_int!(i32);
range_int!(i64);

impl<T: RangeInt> ParallelIterator for RangeParIter<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type Seq = std::ops::Range<T>;

    fn base_len(&self) -> usize {
        T::delta(self.lo, self.hi)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = T::add(self.lo, index);
        (
            RangeParIter {
                lo: self.lo,
                hi: mid,
            },
            RangeParIter {
                lo: mid,
                hi: self.hi,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.lo..self.hi
    }
}

impl<T: RangeInt> IndexedParallelIterator for RangeParIter<T> where
    std::ops::Range<T>: Iterator<Item = T>
{
}

impl<T: RangeInt> crate::IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type Iter = RangeParIter<T>;

    fn into_par_iter(self) -> Self::Iter {
        RangeParIter {
            lo: self.start,
            hi: self.end.max(self.start),
        }
    }
}

/// Parallel iterator over `&[T]`.
pub struct SliceParIter<'a, T> {
    pub(crate) slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;

    fn base_len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index);
        (SliceParIter { slice: l }, SliceParIter { slice: r })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

impl<T: Sync> IndexedParallelIterator for SliceParIter<'_, T> {}

/// Parallel iterator over `&mut [T]`.
pub struct SliceParIterMut<'a, T> {
    pub(crate) slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for SliceParIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn base_len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index);
        (SliceParIterMut { slice: l }, SliceParIterMut { slice: r })
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

impl<T: Send> IndexedParallelIterator for SliceParIterMut<'_, T> {}

/// Owning parallel iterator over a `Vec`.
pub struct VecParIter<T> {
    pub(crate) vec: Vec<T>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;

    fn base_len(&self) -> usize {
        self.vec.len()
    }

    fn split_at(mut self, index: usize) -> (Self, Self) {
        let right = self.vec.split_off(index);
        (self, VecParIter { vec: right })
    }

    fn into_seq(self) -> Self::Seq {
        self.vec.into_iter()
    }
}

impl<T: Send> IndexedParallelIterator for VecParIter<T> {}

impl<T: Send> crate::IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;

    fn into_par_iter(self) -> Self::Iter {
        VecParIter { vec: self }
    }
}

/// Parallel iterator over `slice.par_chunks(size)`.
pub struct ChunksParIter<'a, T> {
    pub(crate) slice: &'a [T],
    pub(crate) size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksParIter<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;

    fn base_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn work_hint(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at(mid);
        (
            ChunksParIter {
                slice: l,
                size: self.size,
            },
            ChunksParIter {
                slice: r,
                size: self.size,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.size)
    }
}

impl<T: Sync> IndexedParallelIterator for ChunksParIter<'_, T> {}

/// Parallel iterator over `slice.par_chunks_mut(size)`.
pub struct ChunksMutParIter<'a, T> {
    pub(crate) slice: &'a mut [T],
    pub(crate) size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMutParIter<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn base_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn work_hint(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(mid);
        (
            ChunksMutParIter {
                slice: l,
                size: self.size,
            },
            ChunksMutParIter {
                slice: r,
                size: self.size,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}

impl<T: Send> IndexedParallelIterator for ChunksMutParIter<'_, T> {}

// ---- adaptors -----------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential tail of a [`Map`] piece; the closure is shared via `Arc` so
/// `F` needs no `Clone` bound (matching rayon).
pub struct MapSeq<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I: Iterator, R, F: Fn(I::Item) -> R> Iterator for MapSeq<I, F> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.inner.next().map(|x| (self.f)(x))
    }
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send,
{
    type Item = R;
    type Seq = MapSeq<P::Seq, F>;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn work_hint(&self) -> usize {
        self.base.work_hint()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            Map {
                base: l,
                f: Arc::clone(&self.f),
            },
            Map { base: r, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        MapSeq {
            inner: self.base.into_seq(),
            f: self.f,
        }
    }
}

impl<P, R, F> IndexedParallelIterator for Map<P, F>
where
    P: IndexedParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send,
{
}

/// See [`ParallelIterator::filter`]. Not indexed: lengths after filtering
/// are unknowable without running the predicate.
pub struct Filter<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential tail of a [`Filter`] piece.
pub struct FilterSeq<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I: Iterator, F: Fn(&I::Item) -> bool> Iterator for FilterSeq<I, F> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        loop {
            let x = self.inner.next()?;
            if (self.f)(&x) {
                return Some(x);
            }
        }
    }
}

impl<P, F> ParallelIterator for Filter<P, F>
where
    P: ParallelIterator,
    F: Fn(&P::Item) -> bool + Sync + Send,
{
    type Item = P::Item;
    type Seq = FilterSeq<P::Seq, F>;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn work_hint(&self) -> usize {
        self.base.work_hint()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            Filter {
                base: l,
                f: Arc::clone(&self.f),
            },
            Filter { base: r, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        FilterSeq {
            inner: self.base.into_seq(),
            f: self.f,
        }
    }
}

/// See [`ParallelIterator::filter_map`]. Not indexed.
pub struct FilterMap<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential tail of a [`FilterMap`] piece.
pub struct FilterMapSeq<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I: Iterator, R, F: Fn(I::Item) -> Option<R>> Iterator for FilterMapSeq<I, F> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        loop {
            if let Some(r) = (self.f)(self.inner.next()?) {
                return Some(r);
            }
        }
    }
}

impl<P, R, F> ParallelIterator for FilterMap<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> Option<R> + Sync + Send,
{
    type Item = R;
    type Seq = FilterMapSeq<P::Seq, F>;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn work_hint(&self) -> usize {
        self.base.work_hint()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FilterMap {
                base: l,
                f: Arc::clone(&self.f),
            },
            FilterMap { base: r, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        FilterMapSeq {
            inner: self.base.into_seq(),
            f: self.f,
        }
    }
}

/// See [`ParallelIterator::flat_map_iter`]. Not indexed.
pub struct FlatMapIter<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential tail of a [`FlatMapIter`] piece.
pub struct FlatMapIterSeq<I, U: IntoIterator, F> {
    inner: I,
    f: Arc<F>,
    cur: Option<U::IntoIter>,
}

impl<I: Iterator, U: IntoIterator, F: Fn(I::Item) -> U> Iterator for FlatMapIterSeq<I, U, F> {
    type Item = U::Item;

    fn next(&mut self) -> Option<U::Item> {
        loop {
            if let Some(it) = &mut self.cur {
                if let Some(x) = it.next() {
                    return Some(x);
                }
            }
            self.cur = Some((self.f)(self.inner.next()?).into_iter());
        }
    }
}

impl<P, U, F> ParallelIterator for FlatMapIter<P, F>
where
    P: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(P::Item) -> U + Sync + Send,
{
    type Item = U::Item;
    type Seq = FlatMapIterSeq<P::Seq, U, F>;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn work_hint(&self) -> usize {
        self.base.work_hint()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FlatMapIter {
                base: l,
                f: Arc::clone(&self.f),
            },
            FlatMapIter { base: r, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        FlatMapIterSeq {
            inner: self.base.into_seq(),
            f: self.f,
            cur: None,
        }
    }
}

/// See [`ParallelIterator::copied`].
pub struct Copied<P> {
    base: P,
}

impl<'a, T, P> ParallelIterator for Copied<P>
where
    P: ParallelIterator<Item = &'a T>,
    T: Copy + Send + Sync + 'a,
{
    type Item = T;
    type Seq = std::iter::Copied<P::Seq>;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn work_hint(&self) -> usize {
        self.base.work_hint()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (Copied { base: l }, Copied { base: r })
    }

    fn into_seq(self) -> Self::Seq {
        self.base.into_seq().copied()
    }
}

impl<'a, T, P> IndexedParallelIterator for Copied<P>
where
    P: IndexedParallelIterator<Item = &'a T>,
    T: Copy + Send + Sync + 'a,
{
}

/// See [`ParallelIterator::cloned`].
pub struct Cloned<P> {
    base: P,
}

impl<'a, T, P> ParallelIterator for Cloned<P>
where
    P: ParallelIterator<Item = &'a T>,
    T: Clone + Send + Sync + 'a,
{
    type Item = T;
    type Seq = std::iter::Cloned<P::Seq>;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn work_hint(&self) -> usize {
        self.base.work_hint()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (Cloned { base: l }, Cloned { base: r })
    }

    fn into_seq(self) -> Self::Seq {
        self.base.into_seq().cloned()
    }
}

impl<'a, T, P> IndexedParallelIterator for Cloned<P>
where
    P: IndexedParallelIterator<Item = &'a T>,
    T: Clone + Send + Sync + 'a,
{
}

/// See [`IndexedParallelIterator::enumerate`]. The split offset keeps
/// global positions correct on worker threads.
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

/// Sequential tail of an [`Enumerate`] piece: positions resume at `offset`.
pub struct EnumerateSeq<I> {
    inner: std::iter::Enumerate<I>,
    offset: usize,
}

impl<I: Iterator> Iterator for EnumerateSeq<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(i, x)| (i + self.offset, x))
    }
}

impl<P: IndexedParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq = EnumerateSeq<P::Seq>;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    fn work_hint(&self) -> usize {
        self.base.work_hint()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            Enumerate {
                base: l,
                offset: self.offset,
            },
            Enumerate {
                base: r,
                offset: self.offset + index,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        EnumerateSeq {
            inner: self.base.into_seq().enumerate(),
            offset: self.offset,
        }
    }
}

impl<P: IndexedParallelIterator> IndexedParallelIterator for Enumerate<P> {}

/// See [`IndexedParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn base_len(&self) -> usize {
        self.a.base_len().min(self.b.base_len())
    }

    fn work_hint(&self) -> usize {
        self.a.work_hint().min(self.b.work_hint())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {}

//! Atomic helpers used by the parallel graph algorithms.
//!
//! The hook-style algorithms in this study (LCA marking, label propagation,
//! proposal matching) are expressed as races that are resolved with atomic
//! min/once operations; this module centralizes those patterns plus a
//! concurrent bitset used for edge marking.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Atomically lower `a` to `min(a, v)`; returns the previous value.
#[inline]
pub fn fetch_min_u32(a: &AtomicU32, v: u32) -> u32 {
    a.fetch_min(v, Ordering::Relaxed)
}

/// Atomically raise `a` to `max(a, v)`; returns the previous value.
#[inline]
pub fn fetch_max_u32(a: &AtomicU32, v: u32) -> u32 {
    a.fetch_max(v, Ordering::Relaxed)
}

/// Write `v` into `a` only if `a` currently holds `empty`.
/// Returns `true` when this call performed the write (won the race).
#[inline]
pub fn store_once_u32(a: &AtomicU32, empty: u32, v: u32) -> bool {
    a.compare_exchange(empty, v, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

/// Reinterpret a `&mut [u32]` as a slice of atomics for the duration of a
/// parallel phase. Safe because `AtomicU32` has the same layout as `u32` and
/// the exclusive borrow guarantees no other non-atomic access coexists.
#[inline]
pub fn as_atomic_u32(xs: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: AtomicU32 is repr(transparent)-compatible in layout with u32
    // (guaranteed same size/alignment per std docs), and we hold the unique
    // mutable borrow, so converting to a shared slice of atomics is sound.
    unsafe { &*(xs as *mut [u32] as *const [AtomicU32]) }
}

/// Reinterpret a `&mut [u8]` as atomics; see [`as_atomic_u32`]. Used for
/// the status/marked byte arrays the MIS and frontier solvers race on.
#[inline]
pub fn as_atomic_u8(xs: &mut [u8]) -> &[AtomicU8] {
    // SAFETY: same argument as `as_atomic_u32`.
    unsafe { &*(xs as *mut [u8] as *const [AtomicU8]) }
}

/// Reinterpret a `&mut [u64]` as atomics; see [`as_atomic_u32`].
#[inline]
pub fn as_atomic_u64(xs: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: same argument as `as_atomic_u32`.
    unsafe { &*(xs as *mut [u64] as *const [AtomicU64]) }
}

/// Reinterpret a `&mut [usize]` as atomics; see [`as_atomic_u32`].
#[inline]
pub fn as_atomic_usize(xs: &mut [usize]) -> &[AtomicUsize] {
    // SAFETY: same argument as `as_atomic_u32`.
    unsafe { &*(xs as *mut [usize] as *const [AtomicUsize]) }
}

/// A fixed-capacity concurrent bitset.
///
/// Supports lock-free set/test; used to mark tree edges during the BRIDGE
/// decomposition's parallel LCA walks and to flag conflicted vertices in the
/// coloring algorithms.
#[derive(Debug)]
pub struct AtomicBitSet {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitSet {
    /// Create a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`; returns `true` if the bit was previously clear.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        self.words[i >> 6].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Clear bit `i`; returns `true` if the bit was previously set.
    #[inline]
    pub fn clear(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        self.words[i >> 6].fetch_and(!mask, Ordering::Relaxed) & mask != 0
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6].load(Ordering::Relaxed) & (1u64 << (i & 63)) != 0
    }

    /// Reset every bit to clear.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Count set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterate over the indices of set bits (sequential).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn bitset_set_get_clear() {
        let bs = AtomicBitSet::new(130);
        assert_eq!(bs.len(), 130);
        assert!(!bs.get(0) && !bs.get(129));
        assert!(bs.set(129));
        assert!(!bs.set(129), "second set reports already-set");
        assert!(bs.get(129));
        assert!(bs.clear(129));
        assert!(!bs.clear(129));
        assert!(!bs.get(129));
    }

    #[test]
    fn bitset_count_and_iter() {
        let bs = AtomicBitSet::new(200);
        for i in (0..200).step_by(3) {
            bs.set(i);
        }
        assert_eq!(bs.count_ones(), (0..200).step_by(3).count());
        let ones: Vec<usize> = bs.iter_ones().collect();
        assert_eq!(ones, (0..200).step_by(3).collect::<Vec<_>>());
        bs.clear_all();
        assert_eq!(bs.count_ones(), 0);
    }

    #[test]
    fn bitset_concurrent_sets_each_bit_claimed_once() {
        let bs = AtomicBitSet::new(1024);
        // Every bit is targeted by 8 racing setters; exactly one must win.
        let wins: usize = (0..8 * 1024usize)
            .into_par_iter()
            .map(|j| usize::from(bs.set(j % 1024)))
            .sum();
        assert_eq!(wins, 1024);
        assert_eq!(bs.count_ones(), 1024);
    }

    #[test]
    fn store_once_single_winner() {
        let a = AtomicU32::new(u32::MAX);
        let winners: usize = (0..64u32)
            .into_par_iter()
            .map(|v| usize::from(store_once_u32(&a, u32::MAX, v)))
            .sum();
        assert_eq!(winners, 1);
        assert!(a.load(Ordering::Relaxed) < 64);
    }

    #[test]
    fn atomic_views_share_storage() {
        let mut xs = vec![5u32, 6, 7];
        {
            let at = as_atomic_u32(&mut xs);
            at[1].store(42, Ordering::Relaxed);
            fetch_min_u32(&at[0], 1);
            fetch_max_u32(&at[2], 100);
        }
        assert_eq!(xs, vec![1, 42, 100]);
    }

    #[test]
    fn bitset_empty() {
        let bs = AtomicBitSet::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.count_ones(), 0);
        assert_eq!(bs.iter_ones().count(), 0);
    }
}

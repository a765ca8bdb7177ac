//! Bulk-synchronous "GPU-sim" executor.
//!
//! The original study runs its GPU algorithm family (LMAX matching, EB
//! coloring, flat Luby MIS) on an NVidia K40c. What characterizes those codes
//! — and what drives the paper's GPU-side conclusions — is their *shape*:
//! every step is a flat data-parallel kernel over all n elements, kernels are
//! separated by device-wide barriers, and the cost of a run is (number of
//! kernel launches) × (launch overhead) + total work. This module provides a
//! [`BspExecutor`] with exactly that contract: algorithms submit kernels, the
//! executor runs each kernel to completion (a barrier) before the next one
//! starts, and it accounts launches and work in a [`Counters`] block.
//!
//! This is the documented substitute for the K40c (see DESIGN.md §2): it does
//! not model SM occupancy or memory coalescing, but it preserves the
//! round/launch structure that the paper's GPU comparisons turn on.
//!
//! Kernels execute on the rayon layer's worker pool, so each launch is a
//! genuinely parallel sweep and the `kernel(…)` return is a real barrier
//! (the pool's claim loop finishes every grid point before returning). The
//! number of kernel *launches* an algorithm performs is a property of the
//! algorithm, not of the pool width — `tests/determinism.rs` pins that
//! launch counts are identical at 1 and N threads.

use crate::counters::Counters;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bulk-synchronous executor: runs flat kernels with a barrier after each.
#[derive(Debug, Default)]
pub struct BspExecutor {
    counters: Counters,
}

impl BspExecutor {
    /// New executor with zeroed accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// New executor whose counters report into the same trace sink as
    /// `parent` (if any), so BSP rounds show up in the run's trace. The
    /// counters themselves start at zero — callers merge them back into
    /// `parent` when the device phase finishes, exactly as with
    /// [`BspExecutor::new`].
    pub fn inheriting(parent: &Counters) -> Self {
        match parent.trace_sink() {
            Some(sink) => BspExecutor {
                counters: Counters::with_trace(sink.clone()),
            },
            None => Self::default(),
        }
    }

    /// Launch a kernel over the index grid `0..n`.
    ///
    /// Every grid point runs `body(i)`; the call returns only when all grid
    /// points have finished (the inter-kernel barrier).
    pub fn kernel<F>(&self, n: usize, body: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        self.counters.add_kernel(n as u64);
        (0..n).into_par_iter().for_each(body);
    }

    /// Launch a kernel over an explicit work-list (frontier) of indices.
    ///
    /// GPU codes compact their active set between rounds; this is the
    /// corresponding launch form.
    pub fn kernel_over<F>(&self, items: &[u32], body: F)
    where
        F: Fn(u32) + Sync + Send,
    {
        self.counters.add_kernel(items.len() as u64);
        items.par_iter().for_each(|&i| body(i));
    }

    /// Launch a counting-reduction kernel: number of `i in 0..n` with `pred(i)`.
    pub fn count<F>(&self, n: usize, pred: F) -> usize
    where
        F: Fn(usize) -> bool + Sync + Send,
    {
        self.counters.add_kernel(n as u64);
        (0..n).into_par_iter().filter(|&i| pred(i)).count()
    }

    /// Launch a sum-reduction kernel over `0..n`.
    pub fn sum<F>(&self, n: usize, f: F) -> u64
    where
        F: Fn(usize) -> u64 + Sync + Send,
    {
        self.counters.add_kernel(n as u64);
        (0..n).into_par_iter().map(f).sum()
    }

    /// Launch a kernel that also produces a device-side "any flag changed"
    /// signal — the standard convergence test for iterative GPU codes.
    pub fn kernel_any<F>(&self, n: usize, body: F) -> bool
    where
        F: Fn(usize) -> bool + Sync + Send,
    {
        self.counters.add_kernel(n as u64);
        let flag = AtomicU64::new(0);
        (0..n).into_par_iter().for_each(|i| {
            if body(i) {
                flag.store(1, Ordering::Relaxed);
            }
        });
        flag.load(Ordering::Relaxed) != 0
    }

    /// Mark the end of one outer algorithm round.
    pub fn end_round(&self) {
        self.counters.add_rounds(1);
    }

    /// Accounting block for this executor.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn kernel_touches_every_grid_point_once() {
        let exec = BspExecutor::new();
        let cells: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        exec.kernel(1000, |i| {
            cells[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        let s = exec.counters().snapshot();
        assert_eq!(s.kernel_launches, 1);
        assert_eq!(s.work_items, 1000);
    }

    #[test]
    fn kernel_over_worklist() {
        let exec = BspExecutor::new();
        let cells: Vec<AtomicU32> = (0..10).map(|_| AtomicU32::new(0)).collect();
        exec.kernel_over(&[1, 3, 5], |i| {
            cells[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        let touched: Vec<u32> = cells.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(touched, vec![0, 1, 0, 1, 0, 1, 0, 0, 0, 0]);
        assert_eq!(exec.counters().work_items(), 3);
    }

    #[test]
    fn reductions() {
        let exec = BspExecutor::new();
        assert_eq!(exec.count(100, |i| i % 2 == 0), 50);
        assert_eq!(exec.sum(10, |i| i as u64), 45);
        assert_eq!(exec.counters().kernel_launches(), 2);
    }

    #[test]
    fn kernel_any_signals_change() {
        let exec = BspExecutor::new();
        assert!(exec.kernel_any(100, |i| i == 37));
        assert!(!exec.kernel_any(100, |_| false));
        assert!(!exec.kernel_any(0, |_| true), "empty grid changes nothing");
    }

    #[test]
    fn rounds_accumulate() {
        let exec = BspExecutor::new();
        for _ in 0..5 {
            exec.kernel(1, |_| {});
            exec.end_round();
        }
        assert_eq!(exec.counters().rounds(), 5);
        assert_eq!(exec.counters().kernel_launches(), 5);
    }
}

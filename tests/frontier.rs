//! Frontier-compaction equivalence: the compacted-worklist solvers
//! (`FrontierMode::Compact`, the default) must produce byte-identical
//! assignments to the dense full-sweep forms wherever that identity is
//! documented, while scanning strictly fewer edges.
//!
//! The byte-identity pins run at 1 and `wide()` threads in both modes;
//! below them, a randomized property test drives the worklist `Frontier`
//! directly against a plain boolean-array model over seeded op sequences
//! whose sizes straddle the one-block seam where compaction switches from
//! a sequential filter to the parallel count-and-scatter.
//!
//! VB coloring is the documented exception: its speculative
//! color-then-fix loop is interleaving-dependent, so cross-mode
//! identity is only pinned at one thread; wider pools assert validity.

use std::sync::Arc;
use symmetry_breaking::par::with_threads;
use symmetry_breaking::prelude::*;
use symmetry_breaking::trace::{TraceEvent, TraceSink};

fn graph() -> Graph {
    generate(GraphId::CoAuthorsCiteseer, Scale::Tiny, 99)
}

/// Widest pool for the 1-vs-N comparisons (CI runs 1 and 4).
fn wide() -> usize {
    std::env::var("SBREAK_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1)
}

fn mm(g: &Graph, algo: Algo, arch: Arch, mode: FrontierMode) -> MatchingRun {
    maximal_matching(g, algo, None, arch, 7, &SolveOpts::with_mode(mode))
}

fn mis(g: &Graph, algo: Algo, arch: Arch, mode: FrontierMode) -> MisRun {
    maximal_independent_set(g, algo, None, arch, 7, &SolveOpts::with_mode(mode))
}

#[test]
fn gm_matching_frontier_byte_identical_to_dense() {
    let g = graph();
    for threads in [1, wide()] {
        with_threads(threads, || {
            for algo in [
                Algo::Baseline,
                Algo::Rand { partitions: 5 },
                Algo::Degk { k: 2 },
            ] {
                let dense = mm(&g, algo, Arch::Cpu, FrontierMode::Dense).mate;
                let compact = mm(&g, algo, Arch::Cpu, FrontierMode::Compact).mate;
                assert_eq!(
                    dense, compact,
                    "{algo:?} dense/compact diverged at {threads} threads"
                );
                check_maximal_matching(&g, &compact).unwrap();
            }
        });
    }
}

#[test]
fn lmax_matching_frontier_byte_identical_to_dense_on_full_view() {
    // The GPU-sim baseline runs LMAX over the full edge set in both modes
    // (no materialization, no edge-id remap), so identity holds directly.
    let g = graph();
    for threads in [1, wide()] {
        with_threads(threads, || {
            let dense = mm(&g, Algo::Baseline, Arch::GpuSim, FrontierMode::Dense).mate;
            let compact = mm(&g, Algo::Baseline, Arch::GpuSim, FrontierMode::Compact).mate;
            assert_eq!(
                dense, compact,
                "LMAX dense/compact diverged at {threads} threads"
            );
            check_maximal_matching(&g, &compact).unwrap();
        });
    }
}

#[test]
fn lmax_matching_frontier_byte_identical_to_dense_on_masked_views() {
    // The composite phases hand LMAX *masked* RAND/DEGk views. The dense
    // path materializes the admitted piece (renumbering edges) while the
    // compact path solves zero-copy with original edge ids; both key the
    // random weights by original id, so the masked solves must also be
    // byte-identical at every thread count.
    let g = graph();
    for threads in [1, wide()] {
        with_threads(threads, || {
            for algo in [Algo::Rand { partitions: 5 }, Algo::Degk { k: 2 }] {
                let dense = mm(&g, algo, Arch::GpuSim, FrontierMode::Dense).mate;
                let compact = mm(&g, algo, Arch::GpuSim, FrontierMode::Compact).mate;
                assert_eq!(
                    dense, compact,
                    "{algo:?} on gpu-sim dense/compact diverged at {threads} threads"
                );
                check_maximal_matching(&g, &compact).unwrap();
            }
        });
    }
}

#[test]
fn luby_mis_frontier_byte_identical_to_dense() {
    let g = graph();
    for threads in [1, wide()] {
        with_threads(threads, || {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                for algo in [Algo::Baseline, Algo::Rand { partitions: 5 }] {
                    let dense = mis(&g, algo, arch, FrontierMode::Dense).in_set;
                    let compact = mis(&g, algo, arch, FrontierMode::Compact).in_set;
                    assert_eq!(
                        dense, compact,
                        "{algo:?}/{arch} dense/compact diverged at {threads} threads"
                    );
                    check_maximal_independent_set(&g, &compact).unwrap();
                }
            }
        });
    }
}

#[test]
fn vb_coloring_frontier_identical_at_one_thread_valid_at_many() {
    let g = graph();
    with_threads(1, || {
        let dense = vertex_coloring(
            &g,
            Algo::Baseline,
            None,
            Arch::Cpu,
            7,
            &SolveOpts::with_mode(FrontierMode::Dense),
        )
        .color;
        let compact = vertex_coloring(
            &g,
            Algo::Baseline,
            None,
            Arch::Cpu,
            7,
            &SolveOpts::with_mode(FrontierMode::Compact),
        )
        .color;
        assert_eq!(dense, compact, "VB dense/compact diverged at 1 thread");
    });
    with_threads(wide(), || {
        for mode in [FrontierMode::Dense, FrontierMode::Compact] {
            let run = vertex_coloring(
                &g,
                Algo::Baseline,
                None,
                Arch::Cpu,
                7,
                &SolveOpts::with_mode(mode),
            );
            check_coloring(&g, &run.color).unwrap();
        }
    });
}

#[test]
fn compact_mode_scans_fewer_edges() {
    let g = graph();
    let dense = mm(&g, Algo::Baseline, Arch::Cpu, FrontierMode::Dense);
    let compact = mm(&g, Algo::Baseline, Arch::Cpu, FrontierMode::Compact);
    assert!(
        compact.stats.counters.edges_scanned < dense.stats.counters.edges_scanned,
        "GM compact scanned {} edges, dense {}",
        compact.stats.counters.edges_scanned,
        dense.stats.counters.edges_scanned,
    );
    let dense = mis(&g, Algo::Baseline, Arch::Cpu, FrontierMode::Dense);
    let compact = mis(&g, Algo::Baseline, Arch::Cpu, FrontierMode::Compact);
    assert!(
        compact.stats.counters.edges_scanned < dense.stats.counters.edges_scanned,
        "Luby compact scanned {} edges, dense {}",
        compact.stats.counters.edges_scanned,
        dense.stats.counters.edges_scanned,
    );
}

#[test]
fn frontier_rounds_shrink_monotonically() {
    // The frontier only ever loses vertices, so both the active size and
    // the edges scanned per round must be non-increasing over a Luby solve.
    let g = graph();
    let sink = Arc::new(TraceSink::enabled());
    let opts = SolveOpts {
        trace: Some(sink.clone()),
        frontier: FrontierMode::Compact,
    };
    maximal_independent_set(&g, Algo::Baseline, None, Arch::Cpu, 7, &opts);
    let rounds: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Round { record, .. } => Some(record),
            _ => None,
        })
        .collect();
    assert!(rounds.len() > 1, "expected a multi-round solve");
    for pair in rounds.windows(2) {
        assert!(
            pair[1].active <= pair[0].active,
            "active grew between rounds: {} -> {}",
            pair[0].active,
            pair[1].active
        );
        assert!(
            pair[1].edges_scanned <= pair[0].edges_scanned,
            "edge scans grew between rounds: {} -> {}",
            pair[0].edges_scanned,
            pair[1].edges_scanned
        );
    }
}

#[test]
fn runstats_carry_the_scratch_arena_snapshot() {
    let g = graph();
    let run = mis(&g, Algo::Degk { k: 2 }, Arch::Cpu, FrontierMode::Compact);
    assert!(
        run.stats.scratch.fresh_allocs > 0,
        "a compact-mode run must report its arena allocations via RunStats"
    );
    // Dense runs the same solver bodies, so its baselines borrow from the
    // arena too.
    let dense = FrontierMode::Dense;
    let opts = SolveOpts::with_mode(dense);
    let color = vertex_coloring(&g, Algo::Baseline, None, Arch::Cpu, 7, &opts);
    for (problem, stats) in [
        ("mm", mm(&g, Algo::Baseline, Arch::Cpu, dense).stats),
        ("color", color.stats),
        ("mis", mis(&g, Algo::Baseline, Arch::Cpu, dense).stats),
    ] {
        assert!(
            stats.scratch.fresh_allocs > 0,
            "a dense {problem} run must report its arena allocations via RunStats"
        );
    }
}

// ---- randomized Frontier equivalence against a boolean-array model ----

/// splitmix64 finalizer: the property tests' only randomness source, so
/// every run (and every failure) replays from `(n, seed)` alone.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Round-`round` survival predicate (~3/4 keep, so sets shrink but live a
/// few rounds). `round == u64::MAX` is the initial population.
fn keep(seed: u64, round: u64, i: u32) -> bool {
    mix(seed ^ round.wrapping_mul(0x0000_0100_0000_01B3) ^ i as u64) & 3 != 0
}

/// Round-`round` mark bit (~1/2 set) for the `select_marked_into` op.
fn marked(seed: u64, round: u64, i: u32) -> bool {
    mix(seed ^ round.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ i as u64) & 1 == 0
}

/// Which shrink op round `round` applies (shared by model and drivers).
fn op_of(seed: u64, round: u64) -> u64 {
    mix(seed ^ 0x000F_F1CE ^ round) % 4
}

/// Replay the op sequence against a plain boolean array: the ground truth
/// the `Frontier` must reproduce member-for-member.
fn model_ops(n: usize, seed: u64, rounds: u64) -> Vec<Vec<u32>> {
    let mut active: Vec<bool> = (0..n as u32).map(|i| keep(seed, u64::MAX, i)).collect();
    let mut log = Vec::new();
    for round in 0..rounds {
        let members: Vec<u32> = (0..n as u32).filter(|&i| active[i as usize]).collect();
        let done = members.is_empty();
        log.push(members);
        if done {
            break;
        }
        // Ops 0, 1, and 3 drop by the survival predicate; op 2 drops by
        // the mark bits. All four are intersections, so the model needs no
        // per-op branches beyond the predicate choice.
        let by_marks = op_of(seed, round) == 2;
        for i in 0..n as u32 {
            let stay = if by_marks {
                marked(seed, round, i)
            } else {
                keep(seed, round, i)
            };
            active[i as usize] = active[i as usize] && stay;
        }
    }
    log
}

/// Compaction's block size (`sb_par::prim::BLOCK`, crate-private there):
/// inputs above it take the parallel count-and-scatter path.
const BLOCK: usize = 1 << 14;

/// Drive a `Frontier` through the same seeded sequence, rotating over
/// every shrink op the kernels use (`compact`, `select_into`,
/// `select_marked_into`, `reset_from`), and log its member list before each
/// op. Also returns one bit per op (`1 << op_of(..)`) that ran on more than
/// one block of input.
fn drive_ops(n: usize, seed: u64, rounds: u64) -> (Vec<Vec<u32>>, u8) {
    let mut scratch = Scratch::new();
    let mut cur = scratch.take_frontier();
    let mut aux = scratch.take_frontier();
    // The selects' destination starts out holding a larger set, so every
    // select writes into reused buffers and a reused per-block count array.
    aux.reset_range(n, |_| true);
    let mut log = Vec::new();
    let mut above_block = 0u8;
    cur.reset_range(n, move |i| keep(seed, u64::MAX, i));
    for round in 0..rounds {
        let members = cur.as_slice().to_vec();
        let done = cur.is_empty();
        log.push(members.clone());
        if done {
            break;
        }
        let op = op_of(seed, round);
        if cur.len() > BLOCK {
            above_block |= 1 << op;
        }
        match op {
            0 => cur.compact(move |i| keep(seed, round, i)),
            1 => {
                cur.select_into(move |i| keep(seed, round, i), &mut aux);
                std::mem::swap(&mut cur, &mut aux);
            }
            2 => {
                let marks = scratch.take_marks(n, false);
                for i in 0..n as u32 {
                    if marked(seed, round, i) {
                        marks.put(i, true);
                    }
                }
                cur.select_marked_into(&marks, &mut aux);
                std::mem::swap(&mut cur, &mut aux);
                scratch.recycle_marks(marks);
            }
            _ => {
                let survivors: Vec<u32> = members
                    .into_iter()
                    .filter(|&i| keep(seed, round, i))
                    .collect();
                cur.reset_from(&survivors);
            }
        }
    }
    scratch.recycle_frontier(cur);
    scratch.recycle_frontier(aux);
    (log, above_block)
}

#[test]
fn worklist_frontier_matches_the_boolean_array_model() {
    // Compaction filters sequentially up to one 2^14-item block and runs
    // the two-pass parallel count-and-scatter above it, so sizes straddle
    // that seam (16383/16384/16385) and a two-block tail (32769), next to
    // small and empty sets. Each (n, seed) pair replays a full op
    // sequence, under both pool widths.
    const ROUNDS: u64 = 12;
    let mut above_block = 0u8;
    for threads in [1, wide()] {
        with_threads(threads, || {
            for &n in &[
                0usize, 1, 5, 63, 64, 65, 127, 128, 129, 1000, 16383, 16384, 16385, 32769,
            ] {
                for salt in 0..4u64 {
                    let seed = mix(n as u64 ^ salt.wrapping_mul(0x0005_DEEC_E66D));
                    let expect = model_ops(n, seed, ROUNDS);
                    let (list, ops) = drive_ops(n, seed, ROUNDS);
                    above_block |= ops;
                    assert_eq!(
                        list, expect,
                        "Frontier diverged from the boolean-array model \
                         (n={n}, seed={seed:#x}, {threads} threads)"
                    );
                }
            }
        });
    }
    // Pin that the seam sizes really drive `compact`, `select_into` and
    // `select_marked_into` (ops 0–2) through the parallel path.
    assert_eq!(
        above_block & 0b111,
        0b111,
        "ops run on more than one block: {above_block:#06b}"
    );
}

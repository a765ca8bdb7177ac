//! Concurrency suite: the rayon layer runs a real worker pool, so every
//! solver here executes on genuinely concurrent threads. These tests drive
//! each solver family (GM/LMAX/II matching, VB/EB/JP coloring,
//! Luby/greedy/oriented MIS) and each decomposition (bridge, rand, degk)
//! at 1, 2, 4, and 8 threads, passing every result through the independent
//! `sb_core::verify` checkers — legality must hold under every
//! interleaving (Blelloch–Fineman–Shun's correctness argument for the
//! atomics-based rounds, made empirical).
//!
//! Environment knobs (both optional):
//! * `SBREAK_TEST_THREADS=<n>` caps the thread axis (CI runs 1 and 4).
//! * `SBREAK_STRESS_ITERS=<n>` overrides the stress-test iteration count.

use symmetry_breaking::core::coloring::jp::jp_color;
use symmetry_breaking::core::matching::ii::ii_extend;
use symmetry_breaking::core::mis::greedy::greedy_mis;
use symmetry_breaking::core::mis::oriented::oriented_mis_extend;
use symmetry_breaking::core::mis::status;
use symmetry_breaking::graph::view::EdgeView;
use symmetry_breaking::par::with_threads;
use symmetry_breaking::prelude::*;

/// Pool widths under test: 1, 2, 4, 8, capped by `SBREAK_TEST_THREADS`.
fn thread_axis() -> Vec<usize> {
    let cap = std::env::var("SBREAK_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(1);
    [1, 2, 4, 8].into_iter().filter(|&t| t <= cap).collect()
}

/// Random-geometric stand-in (the paper's rgg family).
fn rgg() -> Graph {
    generate(GraphId::Rgg23, Scale::Tiny, 7)
}

/// Kronecker/R-MAT stand-in (skewed degrees stress the claim loop).
fn rmat() -> Graph {
    generate(GraphId::KronLogn20, Scale::Tiny, 7)
}

#[test]
fn matching_verifier_clean_at_every_width() {
    let algos = [
        Algo::Baseline, // GM on CPU, LMAX on GPU-sim
        Algo::Bridge,
        Algo::Rand { partitions: 4 },
        Algo::Degk { k: 2 },
    ];
    for (gname, g) in [("rgg", rgg()), ("rmat", rmat())] {
        for arch in [Arch::Cpu, Arch::GpuSim] {
            for algo in algos {
                for &t in &thread_axis() {
                    let mate = with_threads(t, || {
                        maximal_matching(&g, algo, None, arch, 11, &SolveOpts::default())
                    })
                    .mate;
                    check_maximal_matching(&g, &mate).unwrap_or_else(|e| {
                        panic!("{gname} / {algo:?} / {arch} @ {t} threads: {e}")
                    });
                }
            }
        }
    }
}

#[test]
fn coloring_verifier_clean_at_every_width() {
    let algos = [
        Algo::Baseline, // VB on CPU, EB on GPU-sim
        Algo::Bridge,
        Algo::Rand { partitions: 2 },
        Algo::Degk { k: 2 },
    ];
    for (gname, g) in [("rgg", rgg()), ("rmat", rmat())] {
        for arch in [Arch::Cpu, Arch::GpuSim] {
            for algo in algos {
                for &t in &thread_axis() {
                    let color = with_threads(t, || {
                        vertex_coloring(&g, algo, None, arch, 11, &SolveOpts::default())
                    })
                    .color;
                    check_coloring(&g, &color).unwrap_or_else(|e| {
                        panic!("{gname} / {algo:?} / {arch} @ {t} threads: {e}")
                    });
                }
            }
        }
    }
}

#[test]
fn mis_verifier_clean_at_every_width() {
    let algos = [
        Algo::Baseline, // Luby on both archs
        Algo::Bridge,
        Algo::Rand { partitions: 4 },
        Algo::Degk { k: 2 }, // oriented solver on the low subgraph
    ];
    for (gname, g) in [("rgg", rgg()), ("rmat", rmat())] {
        for arch in [Arch::Cpu, Arch::GpuSim] {
            for algo in algos {
                for &t in &thread_axis() {
                    let in_set = with_threads(t, || {
                        maximal_independent_set(&g, algo, None, arch, 11, &SolveOpts::default())
                    })
                    .in_set;
                    check_maximal_independent_set(&g, &in_set).unwrap_or_else(|e| {
                        panic!("{gname} / {algo:?} / {arch} @ {t} threads: {e}")
                    });
                }
            }
        }
    }
}

/// The ablation baselines that are called directly rather than through the
/// dispatch enums: II matching, JP coloring, greedy MIS, and the oriented
/// bounded-degree MIS (on a cycle, where its degree precondition holds).
#[test]
fn ablation_baselines_verifier_clean_at_every_width() {
    let g = rgg();
    let n = 2_000u32;
    let cycle_edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let cycle = from_edge_list(n as usize, &cycle_edges);

    for &t in &thread_axis() {
        with_threads(t, || {
            let mut mate = vec![INVALID; g.num_vertices()];
            ii_extend(&g, EdgeView::full(), &mut mate, None, 5, &Counters::new());
            check_maximal_matching(&g, &mate).unwrap_or_else(|e| panic!("II @ {t} threads: {e}"));

            let color = jp_color(&g, 5, &Counters::new());
            check_coloring(&g, &color).unwrap_or_else(|e| panic!("JP @ {t} threads: {e}"));

            let mut st = vec![status::UNDECIDED; g.num_vertices()];
            greedy_mis(&g, &mut st, 5, &Counters::new());
            let in_set: Vec<bool> = st.iter().map(|&s| s == status::IN).collect();
            check_maximal_independent_set(&g, &in_set)
                .unwrap_or_else(|e| panic!("greedy MIS @ {t} threads: {e}"));

            let mut st = vec![status::UNDECIDED; cycle.num_vertices()];
            oriented_mis_extend(&cycle, EdgeView::full(), &mut st, None, &Counters::new());
            let in_set: Vec<bool> = st.iter().map(|&s| s == status::IN).collect();
            check_maximal_independent_set(&cycle, &in_set)
                .unwrap_or_else(|e| panic!("oriented MIS @ {t} threads: {e}"));
        });
    }
}

/// Regression for the shim's `find_any` early-exit path as the verifiers
/// use it: a planted violation must be caught at every pool width (any
/// witness is acceptable — the contract is any-match, not first-match).
#[test]
fn verifiers_catch_planted_violations_at_every_width() {
    let g = rgg();
    let mut color = jp_color(&g, 5, &Counters::new());
    check_coloring(&g, &color).unwrap();
    let e = g.edge_list()[g.num_edges() / 2];
    color[e[0] as usize] = 3;
    color[e[1] as usize] = 3;

    let mate = maximal_matching(
        &g,
        Algo::Baseline,
        None,
        Arch::Cpu,
        5,
        &SolveOpts::default(),
    )
    .mate;
    let mut broken_mate = mate.clone();
    // Unmatch one matched pair: edge (v, mate[v]) then extends the matching.
    let v = (0..g.num_vertices()).find(|&v| mate[v] != INVALID).unwrap();
    let w = mate[v] as usize;
    broken_mate[v] = INVALID;
    broken_mate[w] = INVALID;

    for &t in &thread_axis() {
        with_threads(t, || {
            assert!(
                check_coloring(&g, &color).is_err(),
                "planted monochromatic edge missed @ {t} threads"
            );
            assert!(
                check_maximal_matching(&g, &broken_mate).is_err(),
                "planted free edge missed @ {t} threads"
            );
            // The untouched results still pass at this width.
            check_maximal_matching(&g, &mate).unwrap();
        });
    }
}

/// Stress: the paper's two headline pipelines, repeated at the widest pool
/// on a ~50k-vertex graph, behind a watchdog so a deadlock fails fast
/// instead of hanging the suite. Every iteration must be verifier-clean.
#[test]
fn stress_mm_rand_and_mis_degk_at_max_threads() {
    let opts = SolveOpts::default();
    let iters: usize = std::env::var("SBREAK_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let threads = *thread_axis().last().unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        // Rgg23 at default scale is a 60k-vertex random geometric graph.
        let g = generate(GraphId::Rgg23, Scale::Default, 3);
        with_threads(threads, || {
            for i in 0..iters {
                let seed = 100 + i as u64;
                let r = maximal_matching(
                    &g,
                    Algo::Rand { partitions: 10 },
                    None,
                    Arch::Cpu,
                    seed,
                    &opts,
                );
                check_maximal_matching(&g, &r.mate)
                    .unwrap_or_else(|e| panic!("MM-Rand iter {i}: {e}"));
                let m =
                    maximal_independent_set(&g, Algo::Degk { k: 2 }, None, Arch::Cpu, seed, &opts);
                check_maximal_independent_set(&g, &m.in_set)
                    .unwrap_or_else(|e| panic!("MIS-Deg2 iter {i}: {e}"));
            }
        });
        tx.send(()).ok();
    });

    match rx.recv_timeout(std::time::Duration::from_secs(600)) {
        Ok(()) => worker.join().expect("stress worker panicked"),
        Err(_) => panic!("stress test exceeded the 600 s watchdog (deadlock or livelock)"),
    }
}

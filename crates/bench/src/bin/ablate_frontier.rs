//! Frontier-representation A/B: every solver family runs in `dense` mode
//! (full-sweep rounds, the pre-frontier behavior) and `compact` mode
//! (ping-pong worklists + scratch-arena reuse) on the same graphs with the
//! same seeds. Reports wall-clock and total `edges_scanned` per mode and
//! **asserts** that compaction reduced the scanned-edge total vs dense for
//! every workload.
//!
//! Exits non-zero on a violation, so CI can run this as a perf smoke leg
//! (`--reps 1` there: the edge assertion is deterministic).
//!
//! The default graph is the 60k-vertex `rgg-n-2-23-s0` stand-in: GM's vain
//! tendency makes it the paper's round-count worst case (§III-C), which is
//! exactly where dense rescans hurt the most.
//!
//! The table is saved as `results/BENCH_frontier.json`.

use sb_bench::harness::{load_suite, time_min, BenchConfig};
use sb_bench::report::{fmt_ms, fmt_x};
use sb_bench::schemas;
use sb_core::common::{Arch, FrontierMode, SolveOpts};
use sb_core::matching::maximal_matching;
use sb_core::mis::maximal_independent_set;
use sb_core::solver::Algo;
use sb_core::verify::{check_maximal_independent_set, check_maximal_matching};
use std::path::Path;

fn main() {
    let mut cfg = BenchConfig::from_env();
    if cfg.filter.is_empty() {
        cfg.filter = "rgg-n-2-23".into(); // GM's vain-tendency showcase
    }
    let suite = load_suite(&cfg);
    let schema = schemas::ablate_frontier();
    let mut t = schema.table();

    let mut failures = 0usize;
    for (sp, g) in &suite.graphs {
        type Run<'a> = Box<dyn Fn(FrontierMode) -> (f64, u64) + 'a>;
        let workloads: Vec<(String, Run)> = vec![
            (
                format!("{} / GM", sp.name),
                Box::new(|mode| {
                    let opts = SolveOpts::with_mode(mode);
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_matching(g, Algo::Baseline, None, Arch::Cpu, cfg.seed, &opts)
                    });
                    check_maximal_matching(g, &r.mate).unwrap();
                    (ms, r.stats.counters.edges_scanned)
                }),
            ),
            (
                format!("{} / LubyMIS", sp.name),
                Box::new(|mode| {
                    let opts = SolveOpts::with_mode(mode);
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_independent_set(g, Algo::Baseline, None, Arch::Cpu, cfg.seed, &opts)
                    });
                    check_maximal_independent_set(g, &r.in_set).unwrap();
                    (ms, r.stats.counters.edges_scanned)
                }),
            ),
            (
                format!("{} / LubyMIS (gpu-sim)", sp.name),
                Box::new(|mode| {
                    let opts = SolveOpts::with_mode(mode);
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_independent_set(
                            g,
                            Algo::Baseline,
                            None,
                            Arch::GpuSim,
                            cfg.seed,
                            &opts,
                        )
                    });
                    check_maximal_independent_set(g, &r.in_set).unwrap();
                    (ms, r.stats.counters.edges_scanned)
                }),
            ),
        ];
        for (label, run) in workloads {
            let (dense_ms, dense_edges) = run(FrontierMode::Dense);
            let (compact_ms, compact_edges) = run(FrontierMode::Compact);
            if compact_edges >= dense_edges {
                eprintln!(
                    "FAIL: {label}: compact scanned {compact_edges} edges, \
                     dense {dense_edges} — compaction must reduce the total"
                );
                failures += 1;
            }
            let reduction = if compact_edges > 0 {
                fmt_x(dense_edges as f64 / compact_edges as f64)
            } else {
                "-".to_string()
            };
            t.row(vec![
                label,
                fmt_ms(dense_ms),
                fmt_ms(compact_ms),
                dense_edges.to_string(),
                compact_edges.to_string(),
                reduction,
            ]);
        }
    }
    t.emit(&schema.name);
    if let Err(e) = t.save_json(Path::new("results"), "BENCH_frontier") {
        eprintln!("warning: could not save results/BENCH_frontier.json: {e}");
    } else {
        println!("[saved results/BENCH_frontier.json]");
    }
    if failures > 0 {
        eprintln!("{failures} frontier assertion(s) failed");
        std::process::exit(1);
    }
    println!("\ncompact < dense edges — OK");
}

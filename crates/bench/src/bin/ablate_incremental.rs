//! Incremental-repair ablation: for every Table I suite graph and every
//! solver family (GM matching, LubyMIS, JP coloring), solve the base
//! graph once, then apply a deterministic edit batch of size 1 / 10 /
//! 100 / 1000 (half removals of live edges, half random insertions) and
//! compare two ways of answering for the edited graph:
//!
//! * **repair** — `sb_core::repair::repair` patches the prior solution
//!   through the zero-rebuild edit overlay, cost proportional to the
//!   batch;
//! * **fresh** — materialize the edited CSR and re-run the static solver
//!   from scratch, which is what a non-incremental consumer pays.
//!
//! The run **asserts**, exiting non-zero on any violation:
//!
//! * every repaired solution verifies as valid *and maximal* (matching,
//!   MIS) or conflict-free (coloring) on the materialized edited graph;
//! * at batch sizes ≤ 100 the repair path scans strictly fewer edges
//!   than the fresh path — the regime the dynamic layer exists for. The
//!   gate compares the deterministic `edges_scanned` work counters, not
//!   wall clock, so a noisy shared runner at `--reps 1` cannot flake it;
//!   the wall-clock comparison is additionally asserted only when
//!   `--reps` ≥ 2 (and is reported in the table either way). The
//!   1000-edit rows are informational: at that batch the touched
//!   neighborhood can approach the whole graph and the advantage
//!   legitimately erodes.
//!
//! The table is saved as `results/BENCH_incremental.json`; CI runs this
//! as a perf-smoke leg and uploads the regenerated report.

use sb_bench::harness::{load_suite, time_min, BenchConfig};
use sb_bench::report::fmt_ms;
use sb_bench::schemas;
use sb_core::common::{Arch, SolveOpts};
use sb_core::repair::repair;
use sb_core::solver::{solve, Algo, Problem, Solver};
use sb_graph::csr::Graph;
use sb_graph::editlog::EditLog;
use sb_par::rng::{bounded, hash3};
use std::path::Path;

const BATCHES: [usize; 4] = [1, 10, 100, 1000];
/// Largest batch size the repair-beats-fresh assertion applies to.
const ASSERT_MAX_BATCH: usize = 100;

/// Deterministic edit batch: alternate removing a live edge and adding a
/// random non-loop pair, so the batch both shrinks and grows structure.
/// Removals sample without replacement from the base edge list; draws are
/// `hash3`-derived so the batch depends only on `(graph, seed, size)`.
fn edit_batch(g: &Graph, seed: u64, size: usize) -> EditLog {
    let n = g.num_vertices() as u64;
    let mut live: Vec<(u32, u32)> = g.edge_list().iter().map(|&[u, v]| (u, v)).collect();
    let mut log = EditLog::new();
    let mut draw = 0u64;
    let mut rng = |bound: u64| {
        draw += 1;
        bounded(hash3(seed ^ 0x1BC2, draw, bound), bound.max(1))
    };
    for i in 0..size {
        if i % 2 == 0 && !live.is_empty() {
            let j = rng(live.len() as u64) as usize;
            let (u, v) = live.swap_remove(j);
            log.remove_edge(u, v);
        } else if n >= 2 {
            let u = rng(n) as u32;
            let mut v = rng(n) as u32;
            if u == v {
                v = (v + 1) % n as u32;
            }
            log.add_edge(u, v);
        }
    }
    log
}

fn main() {
    let cfg = BenchConfig::from_env();
    let suite = load_suite(&cfg);
    let schema = schemas::ablate_incremental();
    let mut t = schema.table();
    let opts = SolveOpts::with_mode(cfg.frontier);

    let mut failures = 0usize;
    for (sp, g) in &suite.graphs {
        // One prior solve per family; every batch size repairs from it.
        let priors = [
            (Problem::Mm, "GM"),
            (Problem::Mis, "LubyMIS"),
            (Problem::Color, "JP-color"),
        ]
        .map(|(problem, algo)| {
            let solver = Solver {
                problem,
                algo: Algo::Baseline,
            };
            let (prior, _) = solve(g, solver, None, Arch::Cpu, cfg.seed, &opts);
            (solver, algo, prior)
        });

        for batch_size in BATCHES {
            let batch = edit_batch(g, cfg.seed, batch_size);
            let edited = batch.materialize(g);

            for (solver, algo, prior) in &priors {
                let (repair_ms, (repaired, rstats)) =
                    time_min(cfg.reps, || repair(g, &batch, prior, &opts));
                let (fresh_ms, (_, fstats)) = time_min(cfg.reps, || {
                    let g2 = batch.materialize(g);
                    solve(&g2, *solver, None, Arch::Cpu, cfg.seed, &opts)
                });
                let valid = repaired.verify(&edited);
                let repair_edges = rstats.counters.edges_scanned;
                let fresh_edges = fstats.counters.edges_scanned;
                if let Err(e) = &valid {
                    eprintln!(
                        "FAIL: {} / {algo} @ batch {batch_size}: repaired solution invalid: {e}",
                        sp.name
                    );
                    failures += 1;
                }
                let wins = repair_ms < fresh_ms;
                if batch_size <= ASSERT_MAX_BATCH {
                    // The gate is the deterministic work counter; the
                    // wall-clock comparison joins it only with enough
                    // reps to smooth scheduler noise on shared runners.
                    if repair_edges >= fresh_edges {
                        eprintln!(
                            "FAIL: {} / {algo} @ batch {batch_size}: repair scanned \
                             {repair_edges} edges, not fewer than fresh ({fresh_edges})",
                            sp.name
                        );
                        failures += 1;
                    }
                    if cfg.reps >= 2 && !wins {
                        eprintln!(
                            "FAIL: {} / {algo} @ batch {batch_size}: repair ({}) not cheaper \
                             than fresh ({})",
                            sp.name,
                            fmt_ms(repair_ms),
                            fmt_ms(fresh_ms)
                        );
                        failures += 1;
                    }
                }
                t.row(vec![
                    format!("{} / {algo}", sp.name),
                    batch_size.to_string(),
                    fmt_ms(repair_ms),
                    fmt_ms(fresh_ms),
                    format!("{:.1}", fresh_ms / repair_ms.max(1e-6)),
                    repair_edges.to_string(),
                    fresh_edges.to_string(),
                    if valid.is_ok() { "yes" } else { "NO" }.to_string(),
                    if wins { "yes" } else { "no" }.to_string(),
                ]);
            }
        }
    }

    t.emit(&schema.name);
    if let Err(e) = t.save_json(Path::new("results"), "BENCH_incremental") {
        eprintln!("warning: could not save results/BENCH_incremental.json: {e}");
    } else {
        println!("[saved results/BENCH_incremental.json]");
    }
    if failures > 0 {
        eprintln!("{failures} incremental assertion(s) failed");
        std::process::exit(1);
    }
    println!(
        "\nrepairs valid and scanning fewer edges than fresh at batch <= {ASSERT_MAX_BATCH} — OK"
    );
}

//! `fuzz_smoke` — the CI entry point for the differential fuzzer.
//!
//! Two phases, both required to pass:
//!
//! 1. **Planted-bug self-tests**: a short sweep with the
//!    `CorruptMatching` mutation planted (the oracle must catch it and
//!    the shrinker minimize it to ≤ 8 vertices), a stale decomposition
//!    cache entry on the engine axis, and a stale repair (the pre-edit
//!    solution served unrepaired) on the edit axis — per solver family. A harness that cannot find a known bug
//!    proves nothing with a clean run.
//! 2. **Clean sweep**: the real solvers over the adversarial suite ×
//!    configuration matrix under a wall-clock budget. Any counterexample
//!    fails the run; its minimized case file and regression skeleton are
//!    printed (and written under `--out`).
//!
//! ```text
//! fuzz_smoke [--seed S] [--budget-secs T] [--threads N] [--out DIR]
//!            [--min-cases K] [--seeds-per-config C] [--axes all|edit]
//! ```
//!
//! `--axes edit` narrows the run to the dynamic-graph layer: only the
//! stale-repair self-test runs in phase 1, and the clean sweep drops the
//! engine and serve axes so the budget is spent chaining edit sequences.

use sb_fuzz::{run_fuzz, FuzzOptions, Mutation};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    seed: u64,
    budget_secs: u64,
    threads: usize,
    out: PathBuf,
    min_cases: usize,
    seeds_per_config: usize,
    edit_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0xF022_5EED,
        budget_secs: 60,
        threads: 4,
        out: PathBuf::from("results/fuzz"),
        min_cases: 500,
        seeds_per_config: 2,
        edit_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--budget-secs" => {
                args.budget_secs = val("--budget-secs")?
                    .parse()
                    .map_err(|e| format!("--budget-secs: {e}"))?
            }
            "--threads" => {
                args.threads = val("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => args.out = PathBuf::from(val("--out")?),
            "--min-cases" => {
                args.min_cases = val("--min-cases")?
                    .parse()
                    .map_err(|e| format!("--min-cases: {e}"))?
            }
            "--seeds-per-config" => {
                args.seeds_per_config = val("--seeds-per-config")?
                    .parse()
                    .map_err(|e| format!("--seeds-per-config: {e}"))?
            }
            "--axes" => {
                args.edit_only = match val("--axes")?.as_str() {
                    "all" => false,
                    "edit" => true,
                    other => return Err(format!("--axes takes 'all' or 'edit', got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz_smoke: {e}");
            return ExitCode::from(2);
        }
    };

    // Phase 1: the harness must catch and minimize a planted bug.
    // (Skipped with --axes edit, which self-tests only the edit layer.)
    if !args.edit_only {
        if let Err(code) = run_static_self_tests(&args) {
            return code;
        }
    }

    // Phase 1c: the edit axis must catch a planted stale repair — the
    // dynamic-graph layer answering from the pre-edit solution — for
    // every solver family. Two disjoint triangles; the batch dismantles
    // the first and wires vertex 0 into every vertex of the second, which
    // invalidates any prior matching, MIS, or greedy coloring.
    {
        use sb_fuzz::SolverConfig;
        use sb_graph::editlog::EditLog;
        let g =
            sb_graph::builder::from_edge_list(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]);
        let seq = [EditLog::parse("-0-1,-0-2,-1-2,+0-3,+0-4,+0-5").unwrap()];
        for label in ["mm-baseline@cpu", "mis-baseline@cpu", "color-baseline@cpu"] {
            let cfg: SolverConfig = label.parse().expect("a registry label");
            match sb_fuzz::oracle::check_edit_chain(
                &g,
                &cfg,
                9,
                args.threads,
                Mutation::StaleRepair,
                &seq,
            ) {
                Err(f) => println!(
                    "self-test: planted stale repair caught on {} ({f})",
                    cfg.label()
                ),
                Ok(()) => {
                    eprintln!(
                        "self-test FAILED: stale repair not caught on {}",
                        cfg.label()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // Phase 2: budgeted clean sweep of the real solvers.
    let report = run_fuzz(&FuzzOptions {
        master_seed: args.seed,
        budget: Some(Duration::from_secs(args.budget_secs)),
        wide_threads: args.threads,
        seeds_per_config: args.seeds_per_config,
        out_dir: Some(args.out.clone()),
        engine_axis: !args.edit_only,
        serve_axis: !args.edit_only,
        ..FuzzOptions::default()
    });
    println!(
        "clean sweep{}: {} cases ({} configs covered) in {:.1}s{}",
        if args.edit_only { " [edit axis]" } else { "" },
        report.cases_run,
        report.configs_covered,
        report.elapsed.as_secs_f64(),
        if report.truncated { " [truncated]" } else { "" }
    );

    if !report.counterexamples.is_empty() {
        for cex in &report.counterexamples {
            eprintln!(
                "\ncounterexample: {} on '{}' seed {} — {}: {}",
                cex.config, cex.graph, cex.seed, cex.kind, cex.detail
            );
            eprintln!(
                "  minimized to n={} m={} ({} evals{})",
                cex.shrunk.n,
                cex.shrunk.edges.len(),
                cex.shrunk.evals,
                if cex.shrunk.budget_exhausted {
                    ", shrink budget exhausted"
                } else {
                    ""
                }
            );
            if let Some(path) = &cex.case_path {
                eprintln!("  case file: {}", path.display());
            }
            eprintln!("  regression skeleton:\n{}", cex.regression);
        }
        return ExitCode::FAILURE;
    }
    if report.cases_run < args.min_cases {
        eprintln!(
            "clean sweep ran only {} cases (< {}): raise --budget-secs",
            report.cases_run, args.min_cases
        );
        return ExitCode::FAILURE;
    }
    println!("zero counterexamples");
    ExitCode::SUCCESS
}

/// Phases 1–1b: planted bugs in the static layers (matching corruption,
/// stale engine cache). Returns `Err` with the failing exit code so
/// `main` can bubble it with `?`.
fn run_static_self_tests(args: &Args) -> Result<(), ExitCode> {
    let planted = run_fuzz(&FuzzOptions {
        master_seed: args.seed,
        max_cases: Some(60),
        wide_threads: args.threads,
        seeds_per_config: 1,
        mutation: Mutation::CorruptMatching,
        max_counterexamples: 1,
        shrink_evals: 300,
        ..FuzzOptions::default()
    });
    match planted.counterexamples.first() {
        Some(cex) if cex.shrunk.n <= 8 => {
            println!(
                "self-test: planted matching bug caught on '{}' ({}), shrunk {} -> {} vertices \
                 in {} oracle evals",
                cex.graph, cex.config, cex.orig_n, cex.shrunk.n, cex.shrunk.evals
            );
        }
        Some(cex) => {
            eprintln!(
                "self-test FAILED: planted bug caught but only shrunk to {} vertices (want <= 8)",
                cex.shrunk.n
            );
            return Err(ExitCode::FAILURE);
        }
        None => {
            eprintln!(
                "self-test FAILED: planted matching bug not caught in {} cases",
                planted.cases_run
            );
            return Err(ExitCode::FAILURE);
        }
    }

    // Phase 1b: the engine axis must catch a planted stale cache entry.
    // A chain with chord edges is dense enough that a corrupted RAND
    // decomposition visibly changes the coloring.
    {
        use sb_fuzz::SolverConfig;
        let n = 32u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.extend((0..n).map(|i| (i, (i * 7 + 3) % n)));
        let g = sb_graph::builder::from_edge_list(n as usize, &edges);
        let cfg: SolverConfig = "color-rand:3@cpu".parse().expect("a registry label");
        match sb_fuzz::oracle::check_engine_case(&g, &cfg, 9, Mutation::StaleDecompCache) {
            Err(f) => println!("self-test: planted stale decomposition cache caught ({f})"),
            Ok(()) => {
                eprintln!("self-test FAILED: stale decomposition cache not caught");
                return Err(ExitCode::FAILURE);
            }
        }
    }

    Ok(())
}

//! Per-figure experiment runners, shared by the bench binaries and the
//! integration tests.

use crate::harness::{
    color_rand_partitions, mis_rand_partitions, mm_rand_partitions, time_min, Suite,
};
use crate::report::{fmt_ms, fmt_x, mean, Table};
use crate::schemas;
use sb_core::coloring::vertex_coloring;
use sb_core::common::{Arch, FrontierMode, SolveOpts};
use sb_core::matching::maximal_matching;
use sb_core::mis::maximal_independent_set;
use sb_core::solver::Algo;
use sb_core::verify::{
    check_coloring, check_maximal_independent_set, check_maximal_matching, color_count,
};
use sb_datasets::suite::GraphId;
use sb_decompose::{decompose_bridge, decompose_degk, decompose_metis_like, decompose_rand};
use sb_graph::stats::GraphStats;
use sb_par::counters::Counters;
use sb_trace::TraceSink;
use std::path::Path;
use std::sync::Arc;

/// The figure-of-merit for one run: wall-clock on the CPU arch, modeled
/// K40c device time on GPU-sim (DESIGN.md §2 — host wall-clock cannot
/// express the coalesced/gather bandwidth gap, the counters can).
fn effective_ms(arch: Arch, wall_ms: f64, stats: &sb_core::common::RunStats) -> f64 {
    match arch {
        Arch::Cpu => wall_ms,
        Arch::GpuSim => stats.modeled_gpu_ms(),
    }
}

/// When `--trace-dir` is set, run `f` once more with an enabled sink and
/// save the JSONL to `<dir>/<name>.jsonl`. The extra run is separate from
/// the timed repetitions so the reported timings stay trace-free.
fn dump_trace<T>(dir: Option<&Path>, name: &str, f: impl FnOnce(Option<Arc<TraceSink>>) -> T) {
    let Some(dir) = dir else { return };
    let sink = Arc::new(TraceSink::enabled());
    f(Some(sink.clone()));
    let save = std::fs::create_dir_all(dir)
        .and_then(|()| sink.save_jsonl(&dir.join(format!("{name}.jsonl"))));
    if let Err(e) = save {
        eprintln!("warning: could not save trace {name}.jsonl: {e}");
    }
}

/// Table II: measured statistics of every suite graph next to the paper's
/// values for the real graph.
pub fn table2(suite: &Suite) -> Table {
    let mut t = schemas::table2().table();
    for (sp, g) in &suite.graphs {
        let s = GraphStats::compute(g);
        let diam = sb_graph::bfs::pseudo_diameter(g, 0, &Counters::new());
        let bridges = sb_decompose::bridge::find_bridges(g, &Counters::new());
        let pct_bridges = if g.num_edges() == 0 {
            0.0
        } else {
            100.0 * bridges.len() as f64 / g.num_edges() as f64
        };
        t.row(vec![
            sp.name.into(),
            sp.class.into(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            format!("{:.1}", s.pct_deg_le2),
            format!("{:.1}", sp.paper.pct_deg2),
            format!("{pct_bridges:.1}"),
            format!("{:.1}", sp.paper.pct_bridges),
            format!("{:.1}", s.avg_degree),
            format!("{:.1}", sp.paper.avg_degree),
            diam.to_string(),
        ]);
    }
    t
}

/// Figure 2: time of each decomposition technique per graph (RAND with 10
/// partitions, DEG2, plus the METIS-like stand-in for Remark 1).
pub fn decomposition_figure(suite: &Suite, seed: u64, reps: usize) -> Table {
    let mut t = schemas::fig2().table();
    for (sp, g) in &suite.graphs {
        let (bridge_ms, _) = time_min(reps, || decompose_bridge(g, &Counters::new()));
        let (rand_ms, _) = time_min(reps, || decompose_rand(g, 10, seed, &Counters::new()));
        let (deg2_ms, _) = time_min(reps, || decompose_degk(g, 2, &Counters::new()));
        let (metis_ms, _) = time_min(reps, || decompose_metis_like(g, 8, &Counters::new()));
        t.row(vec![
            sp.name.into(),
            fmt_ms(bridge_ms),
            fmt_ms(rand_ms),
            fmt_ms(deg2_ms),
            fmt_ms(metis_ms),
        ]);
    }
    t
}

/// Figure 3: maximal matching — baseline (GM on CPU / LMAX on GPU) vs the
/// three decomposition composites; the headline number is MM-Rand's
/// speedup. Returns the table and the average MM-Rand speedup computed the
/// paper's way (excluding the rgg instances, footnote 1).
pub fn matching_figure(
    suite: &Suite,
    arch: Arch,
    seed: u64,
    reps: usize,
    trace_dir: Option<&Path>,
    mode: FrontierMode,
) -> (Table, Option<f64>) {
    let opts = SolveOpts::with_mode(mode);
    let mut t = schemas::fig3(arch).table();
    let mut speedups = Vec::new();
    for (sp, g) in &suite.graphs {
        let (base_ms, base) = time_min(reps, || {
            maximal_matching(g, Algo::Baseline, None, arch, seed, &opts)
        });
        check_maximal_matching(g, &base.mate).expect("baseline matching invalid");
        let base_ms = effective_ms(arch, base_ms, &base.stats);
        let (bridge_ms, r) = time_min(reps, || {
            maximal_matching(g, Algo::Bridge, None, arch, seed, &opts)
        });
        check_maximal_matching(g, &r.mate).expect("MM-Bridge invalid");
        let bridge_ms = effective_ms(arch, bridge_ms, &r.stats);
        let k = mm_rand_partitions(arch, sp);
        let (rand_ms, rand_run) = time_min(reps, || {
            maximal_matching(g, Algo::Rand { partitions: k }, None, arch, seed, &opts)
        });
        check_maximal_matching(g, &rand_run.mate).expect("MM-Rand invalid");
        let rand_ms = effective_ms(arch, rand_ms, &rand_run.stats);
        let (degk_ms, r2) = time_min(reps, || {
            maximal_matching(g, Algo::Degk { k: 2 }, None, arch, seed, &opts)
        });
        check_maximal_matching(g, &r2.mate).expect("MM-Degk invalid");
        let degk_ms = effective_ms(arch, degk_ms, &r2.stats);

        dump_trace(
            trace_dir,
            &format!("fig3_{arch}_{}_baseline", sp.name),
            |t| {
                let topts = SolveOpts {
                    trace: t,
                    frontier: mode,
                };
                maximal_matching(g, Algo::Baseline, None, arch, seed, &topts)
            },
        );
        dump_trace(trace_dir, &format!("fig3_{arch}_{}_rand", sp.name), |t| {
            let topts = SolveOpts {
                trace: t,
                frontier: mode,
            };
            maximal_matching(g, Algo::Rand { partitions: k }, None, arch, seed, &topts)
        });

        let speedup = base_ms / rand_ms;
        if !matches!(sp.id, GraphId::Rgg23 | GraphId::Rgg24) {
            speedups.push(speedup);
        }
        t.row(vec![
            sp.name.into(),
            fmt_ms(base_ms),
            fmt_ms(bridge_ms),
            fmt_ms(rand_ms),
            fmt_ms(degk_ms),
            fmt_x(speedup),
            base.stats.counters.rounds.to_string(),
            rand_run.stats.counters.rounds.to_string(),
        ]);
    }
    (t, mean(&speedups))
}

/// Figure 4: coloring — VB/EB baseline vs the composites. The paper's
/// headline: COLOR-Degk speedup on the CPU, COLOR-Rand on the GPU.
pub fn coloring_figure(
    suite: &Suite,
    arch: Arch,
    seed: u64,
    reps: usize,
    trace_dir: Option<&Path>,
    mode: FrontierMode,
) -> (Table, Option<f64>) {
    let opts = SolveOpts::with_mode(mode);
    let mut t = schemas::fig4(arch).table();
    let mut speedups = Vec::new();
    for (sp, g) in &suite.graphs {
        let (base_ms, base) = time_min(reps, || {
            vertex_coloring(g, Algo::Baseline, None, arch, seed, &opts)
        });
        check_coloring(g, &base.color).expect("baseline coloring invalid");
        let base_ms = effective_ms(arch, base_ms, &base.stats);
        let (bridge_ms, rb) = time_min(reps, || {
            vertex_coloring(g, Algo::Bridge, None, arch, seed, &opts)
        });
        check_coloring(g, &rb.color).expect("COLOR-Bridge invalid");
        let bridge_ms = effective_ms(arch, bridge_ms, &rb.stats);
        let kp = color_rand_partitions(arch);
        let (rand_ms, rr) = time_min(reps, || {
            vertex_coloring(g, Algo::Rand { partitions: kp }, None, arch, seed, &opts)
        });
        check_coloring(g, &rr.color).expect("COLOR-Rand invalid");
        let rand_ms = effective_ms(arch, rand_ms, &rr.stats);
        let (degk_ms, rd) = time_min(reps, || {
            vertex_coloring(g, Algo::Degk { k: 2 }, None, arch, seed, &opts)
        });
        check_coloring(g, &rd.color).expect("COLOR-Degk invalid");
        let degk_ms = effective_ms(arch, degk_ms, &rd.stats);

        let (winner_ms, winner_colors) = match arch {
            Arch::Cpu => (degk_ms, color_count(&rd.color)),
            Arch::GpuSim => (rand_ms, color_count(&rr.color)),
        };
        let winner_algo = match arch {
            Arch::Cpu => Algo::Degk { k: 2 },
            Arch::GpuSim => Algo::Rand { partitions: kp },
        };
        dump_trace(
            trace_dir,
            &format!("fig4_{arch}_{}_baseline", sp.name),
            |t| {
                let topts = SolveOpts {
                    trace: t,
                    frontier: mode,
                };
                vertex_coloring(g, Algo::Baseline, None, arch, seed, &topts)
            },
        );
        dump_trace(trace_dir, &format!("fig4_{arch}_{}_winner", sp.name), |t| {
            let topts = SolveOpts {
                trace: t,
                frontier: mode,
            };
            vertex_coloring(g, winner_algo, None, arch, seed, &topts)
        });
        let speedup = base_ms / winner_ms;
        speedups.push(speedup);
        t.row(vec![
            sp.name.into(),
            fmt_ms(base_ms),
            fmt_ms(bridge_ms),
            fmt_ms(rand_ms),
            fmt_ms(degk_ms),
            fmt_x(speedup),
            color_count(&base.color).to_string(),
            winner_colors.to_string(),
        ]);
    }
    (t, mean(&speedups))
}

/// Figure 5: MIS — LubyMIS baseline vs the composites; headline is the
/// MIS-Deg2 speedup. The GPU average excludes the outlier instances c-73
/// and lp1 as in the paper (footnote 2).
pub fn mis_figure(
    suite: &Suite,
    arch: Arch,
    seed: u64,
    reps: usize,
    trace_dir: Option<&Path>,
    mode: FrontierMode,
) -> (Table, Option<f64>) {
    let opts = SolveOpts::with_mode(mode);
    let mut t = schemas::fig5(arch).table();
    let mut speedups = Vec::new();
    for (sp, g) in &suite.graphs {
        let (base_ms, base) = time_min(reps, || {
            maximal_independent_set(g, Algo::Baseline, None, arch, seed, &opts)
        });
        check_maximal_independent_set(g, &base.in_set).expect("LubyMIS invalid");
        let base_ms = effective_ms(arch, base_ms, &base.stats);
        let (bridge_ms, r) = time_min(reps, || {
            maximal_independent_set(g, Algo::Bridge, None, arch, seed, &opts)
        });
        check_maximal_independent_set(g, &r.in_set).expect("MIS-Bridge invalid");
        let bridge_ms = effective_ms(arch, bridge_ms, &r.stats);
        let k = mis_rand_partitions(arch);
        let (rand_ms, r2) = time_min(reps, || {
            maximal_independent_set(g, Algo::Rand { partitions: k }, None, arch, seed, &opts)
        });
        check_maximal_independent_set(g, &r2.in_set).expect("MIS-Rand invalid");
        let rand_ms = effective_ms(arch, rand_ms, &r2.stats);
        let (deg2_ms, r3) = time_min(reps, || {
            maximal_independent_set(g, Algo::Degk { k: 2 }, None, arch, seed, &opts)
        });
        check_maximal_independent_set(g, &r3.in_set).expect("MIS-Deg2 invalid");
        let deg2_ms = effective_ms(arch, deg2_ms, &r3.stats);

        dump_trace(
            trace_dir,
            &format!("fig5_{arch}_{}_baseline", sp.name),
            |t| {
                let topts = SolveOpts {
                    trace: t,
                    frontier: mode,
                };
                maximal_independent_set(g, Algo::Baseline, None, arch, seed, &topts)
            },
        );
        dump_trace(trace_dir, &format!("fig5_{arch}_{}_deg2", sp.name), |t| {
            let topts = SolveOpts {
                trace: t,
                frontier: mode,
            };
            maximal_independent_set(g, Algo::Degk { k: 2 }, None, arch, seed, &topts)
        });

        let speedup = base_ms / deg2_ms;
        let excluded = arch == Arch::GpuSim && matches!(sp.id, GraphId::C73 | GraphId::Lp1);
        if !excluded {
            speedups.push(speedup);
        }
        t.row(vec![
            sp.name.into(),
            fmt_ms(base_ms),
            fmt_ms(bridge_ms),
            fmt_ms(rand_ms),
            fmt_ms(deg2_ms),
            fmt_x(speedup),
            base.stats.counters.rounds.to_string(),
        ]);
    }
    (t, mean(&speedups))
}

/// Table I: best decomposition + average speedup per (problem, arch),
/// assembled by running the three figures on both architectures.
pub fn table1(suite: &Suite, seed: u64, reps: usize, mode: FrontierMode) -> Table {
    let mut t = schemas::table1().table();
    let (_, mm_cpu) = matching_figure(suite, Arch::Cpu, seed, reps, None, mode);
    let (_, mm_gpu) = matching_figure(suite, Arch::GpuSim, seed, reps, None, mode);
    let (_, col_cpu) = coloring_figure(suite, Arch::Cpu, seed, reps, None, mode);
    let (_, col_gpu) = coloring_figure(suite, Arch::GpuSim, seed, reps, None, mode);
    let (_, mis_cpu) = mis_figure(suite, Arch::Cpu, seed, reps, None, mode);
    let (_, mis_gpu) = mis_figure(suite, Arch::GpuSim, seed, reps, None, mode);
    let f = |x: Option<f64>| x.map_or("-".into(), fmt_x);
    t.row(vec![
        "MM".into(),
        "RAND".into(),
        f(mm_cpu),
        "RAND".into(),
        f(mm_gpu),
        "RAND 3.5x".into(),
        "RAND 2.53x".into(),
    ]);
    t.row(vec![
        "COLOR".into(),
        "DEGk".into(),
        f(col_cpu),
        "RAND".into(),
        f(col_gpu),
        "DEGk 1.27x".into(),
        "RAND 1x".into(),
    ]);
    t.row(vec![
        "MIS".into(),
        "DEGk".into(),
        f(mis_cpu),
        "DEGk".into(),
        f(mis_gpu),
        "DEGk 3.39x".into(),
        "DEGk 2.16x".into(),
    ]);
    t
}

/// Table I's batched twin: for every suite graph, run the paper's three
/// headline composites (MM-Rand at the paper's partition count, COLOR-Deg2,
/// MIS-Deg2) as one `sb-engine` batch, cached vs fresh. The three jobs
/// share one graph ingestion and — for COLOR/MIS — one DEG2 decomposition,
/// so the report's speedup column quantifies what the cache amortizes.
///
/// `scale`/`graph_seed` must match how the suite was generated so the job
/// keys resolve to the same graphs (`--data-dir` file suites regenerate).
pub fn engine_amortization(
    suite: &Suite,
    arch: Arch,
    seed: u64,
    scale: f64,
    mode: FrontierMode,
) -> Result<sb_engine::BatchReport, String> {
    use sb_core::solver::{Problem, Solver};
    use sb_engine::{run_batch_compare, BatchOptions, EngineConfig, JobSpec};

    let mut jobs = Vec::new();
    for (sp, _) in &suite.graphs {
        let job = |problem: Problem, algo: Algo| JobSpec {
            label: format!("{}-{}", sp.name.replace('/', "_"), problem.name()),
            graph: format!("gen:{}", sp.name),
            scale,
            graph_seed: Some(seed),
            solver: Solver { problem, algo },
            arch,
            frontier: mode,
            seed,
            threads: None,
            timeout_ms: None,
        };
        let k = mm_rand_partitions(arch, sp);
        jobs.push(job(Problem::Mm, Algo::Rand { partitions: k }));
        jobs.push(job(Problem::Color, Algo::Degk { k: 2 }));
        jobs.push(job(Problem::Mis, Algo::Degk { k: 2 }));
    }
    run_batch_compare(&jobs, EngineConfig::default(), &BatchOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{load_suite, BenchConfig};
    use sb_datasets::suite::Scale;

    fn tiny_suite(filter: &str) -> Suite {
        load_suite(&BenchConfig {
            scale: Scale::Tiny,
            filter: filter.into(),
            ..Default::default()
        })
    }

    #[test]
    fn table2_has_row_per_graph() {
        let suite = tiny_suite("lp1");
        let t = table2(&suite);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][0], "lp1");
    }

    #[test]
    fn decomposition_figure_runs() {
        let suite = tiny_suite("c-73");
        let t = decomposition_figure(&suite, 1, 1);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn matching_figure_verifies_and_reports() {
        let suite = tiny_suite("webbase");
        for mode in [FrontierMode::Dense, FrontierMode::Compact] {
            let (t, avg) = matching_figure(&suite, Arch::Cpu, 3, 1, None, mode);
            assert_eq!(t.rows.len(), 1);
            assert!(avg.unwrap() > 0.0);
        }
    }

    #[test]
    fn coloring_and_mis_figures_run_gpu() {
        let suite = tiny_suite("coAuthors");
        for mode in [FrontierMode::Dense, FrontierMode::Compact] {
            let (t, s) = coloring_figure(&suite, Arch::GpuSim, 3, 1, None, mode);
            assert_eq!(t.rows.len(), 1);
            assert!(s.unwrap() > 0.0);
            let (t, s) = mis_figure(&suite, Arch::GpuSim, 3, 1, None, mode);
            assert_eq!(t.rows.len(), 1);
            assert!(s.unwrap() > 0.0);
        }
    }

    #[test]
    fn trace_dir_saves_a_jsonl_per_algo() {
        let dir = std::env::temp_dir().join("sb-bench-test-traces");
        std::fs::remove_dir_all(&dir).ok();
        let suite = tiny_suite("lp1");
        let _ = matching_figure(&suite, Arch::Cpu, 3, 1, Some(&dir), FrontierMode::Compact);
        let base = dir.join("fig3_cpu_lp1_baseline.jsonl");
        let rand = dir.join("fig3_cpu_lp1_rand.jsonl");
        for p in [&base, &rand] {
            let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            let events = sb_trace::parse_jsonl(&text).unwrap();
            assert!(!events.is_empty(), "{p:?} must hold events");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_amortization_batches_three_jobs_per_graph() {
        let suite = tiny_suite("lp1");
        let rep = engine_amortization(&suite, Arch::Cpu, 42, 0.05, FrontierMode::Compact).unwrap();
        assert_eq!(rep.jobs.len(), 3);
        assert!(rep.all_ok());
        assert!(rep.speedup().is_some());
        // COLOR-Deg2 and MIS-Deg2 share one DEG2 decomposition: the later
        // job must hit the cache.
        assert!(rep.jobs.iter().any(|j| j.decomp_cached == Some(true)));
        // All three share one graph ingestion.
        assert!(rep.jobs.iter().filter(|j| j.graph_cached).count() >= 2);
    }

    #[test]
    fn mis_gpu_average_excludes_outliers() {
        // With only the excluded graphs in the suite, the average is None.
        let mut cfg = BenchConfig {
            scale: Scale::Tiny,
            filter: "lp1".into(),
            ..Default::default()
        };
        cfg.arch = Arch::GpuSim;
        let suite = load_suite(&cfg);
        let (_, avg) = mis_figure(&suite, Arch::GpuSim, 1, 1, None, FrontierMode::Compact);
        assert!(avg.is_none());
    }
}

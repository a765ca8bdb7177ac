//! Out-of-core ablation: every Table I suite graph is serialized to the
//! `.sbg` on-disk CSR format, mapped back read-only, and each solver
//! workload (GM matching, LubyMIS, JP coloring) runs on both the heap
//! CSR and the mapped one with the same seed and frontier mode. The run
//! **asserts**:
//!
//! * the mapped graph compares equal to the heap graph (same offsets,
//!   adjacency, and edge ids — the format round trip is lossless);
//! * every solver output is byte-identical between the two backings
//!   (the mapped arrays are a transparent `Slab` behind the accessor
//!   API, so no solver may observe the difference);
//! * the scanned-edge totals coincide (same logical work).
//!
//! Exits non-zero on any violation, so CI can run this as a smoke leg.
//! Reports wall-clock per backing plus what each representation charges
//! the allocator: a mapped graph's resident footprint is the struct
//! header only — the array bytes stay in the kernel page cache, which
//! is the point of the format at 10–100× scale (`--scale 10` and up).
//!
//! The table is saved as `results/BENCH_outofcore.json`.

use sb_bench::harness::{load_suite, time_min, BenchConfig};
use sb_bench::report::fmt_ms;
use sb_bench::schemas;
use sb_core::coloring::vertex_coloring;
use sb_core::common::{Arch, SolveOpts};
use sb_core::matching::maximal_matching;
use sb_core::mis::maximal_independent_set;
use sb_core::solver::Algo;
use sb_graph::csr::Graph;
use sb_graph::sbg::{map_sbg, write_sbg};
use std::path::Path;

fn main() {
    let cfg = BenchConfig::from_env();
    let suite = load_suite(&cfg);
    let schema = schemas::ablate_outofcore();
    let mut t = schema.table();

    let dir = std::env::temp_dir().join(format!("sbreak-outofcore-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));

    let mut failures = 0usize;
    for (sp, g) in &suite.graphs {
        let path = dir.join(format!("{}.sbg", sp.name.replace('/', "_")));
        let file_bytes = write_sbg(g, None, &path)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let mapped =
            map_sbg(&path).unwrap_or_else(|e| panic!("cannot map {}: {e}", path.display()));
        if mapped != **g {
            eprintln!("FAIL: {}: mapped graph differs from heap CSR", sp.name);
            failures += 1;
            continue;
        }

        let opts = SolveOpts::with_mode(cfg.frontier);
        type Run<'a> = Box<dyn Fn(&Graph) -> (f64, u64, Vec<u8>) + 'a>;
        let workloads: Vec<(&str, Run)> = vec![
            (
                "GM",
                Box::new(|g: &Graph| {
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_matching(g, Algo::Baseline, None, Arch::Cpu, cfg.seed, &opts)
                    });
                    let bytes = r.mate.iter().flat_map(|m| m.to_le_bytes()).collect();
                    (ms, r.stats.counters.edges_scanned, bytes)
                }),
            ),
            (
                "LubyMIS",
                Box::new(|g: &Graph| {
                    let (ms, r) = time_min(cfg.reps, || {
                        maximal_independent_set(g, Algo::Baseline, None, Arch::Cpu, cfg.seed, &opts)
                    });
                    let bytes = r.in_set.iter().map(|&b| b as u8).collect();
                    (ms, r.stats.counters.edges_scanned, bytes)
                }),
            ),
            (
                "JP-color",
                Box::new(|g: &Graph| {
                    let (ms, r) = time_min(cfg.reps, || {
                        vertex_coloring(g, Algo::Baseline, None, Arch::Cpu, cfg.seed, &opts)
                    });
                    let bytes = r.color.iter().flat_map(|c| c.to_le_bytes()).collect();
                    (ms, r.stats.counters.edges_scanned, bytes)
                }),
            ),
        ];
        for (algo, run) in workloads {
            let (heap_ms, heap_edges, heap_out) = run(g);
            let (mapped_ms, mapped_edges, mapped_out) = run(&mapped);
            let identical = heap_out == mapped_out && heap_edges == mapped_edges;
            if !identical {
                eprintln!(
                    "FAIL: {} / {algo}: mapped output diverged from heap \
                     ({heap_edges} vs {mapped_edges} edges scanned)",
                    sp.name
                );
                failures += 1;
            }
            t.row(vec![
                format!("{} / {algo}", sp.name),
                fmt_ms(heap_ms),
                fmt_ms(mapped_ms),
                heap_edges.to_string(),
                mapped_edges.to_string(),
                format!("{:.1}", file_bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.1}", g.resident_bytes() as f64 / (1024.0 * 1024.0)),
                mapped.resident_bytes().to_string(),
                if identical { "yes" } else { "NO" }.to_string(),
            ]);
        }
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();

    t.emit(&schema.name);
    if let Err(e) = t.save_json(Path::new("results"), "BENCH_outofcore") {
        eprintln!("warning: could not save results/BENCH_outofcore.json: {e}");
    } else {
        println!("[saved results/BENCH_outofcore.json]");
    }
    if failures > 0 {
        eprintln!("{failures} out-of-core assertion(s) failed");
        std::process::exit(1);
    }
    println!("\nmapped == heap graphs, byte-identical solver outputs — OK");
}

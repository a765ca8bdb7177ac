//! Criterion micro-benchmarks for the MIS algorithms (Figure 5's
//! per-algorithm view), plus the greedy-baseline and oriented-vs-Luby
//! ablations from DESIGN.md §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_core::common::{Arch, SolveOpts};
use sb_core::mis::greedy::greedy_mis;
use sb_core::mis::luby::{luby_extend, luby_extend_compacted};
use sb_core::mis::maximal_independent_set;
use sb_core::mis::oriented::oriented_mis_extend;
use sb_core::solver::Algo;
use sb_datasets::suite::{generate, GraphId, Scale};
use sb_par::counters::Counters;
use std::hint::black_box;

fn bench_mis(c: &mut Criterion) {
    let mut group = c.benchmark_group("mis");
    group.sample_size(10);
    for id in [GraphId::Lp1, GraphId::WebGoogle] {
        let g = generate(id, Scale::Factor(0.2), 42);
        let name = format!("{id:?}");
        for (algo, label) in [
            (Algo::Baseline, "luby"),
            (Algo::Bridge, "bridge"),
            (Algo::Rand { partitions: 10 }, "rand10"),
            (Algo::Degk { k: 2 }, "deg2"),
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{label}/{arch}"), &name),
                    &g,
                    |b, g| {
                        b.iter(|| {
                            black_box(maximal_independent_set(
                                g,
                                algo,
                                None,
                                arch,
                                7,
                                &SolveOpts::default(),
                            ))
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_low_degree_solvers(c: &mut Criterion) {
    // Ablation: on a pure degree-≤2 graph, the deterministic oriented
    // algorithm vs Luby — the source of MIS-Deg2's wins.
    let mut group = c.benchmark_group("mis_low_degree_solver");
    group.sample_size(10);
    let g = generate(GraphId::GermanyOsm, Scale::Factor(0.2), 42);
    let d = sb_decompose::decompose_degk(&g, 2, &Counters::new());
    let low_side: Vec<bool> = d.is_high.iter().map(|&h| !h).collect();
    group.bench_function("oriented", |b| {
        b.iter(|| {
            let mut st = vec![0u8; g.num_vertices()];
            oriented_mis_extend(&g, d.low_view(), &mut st, Some(&low_side), &Counters::new());
            black_box(st)
        })
    });
    group.bench_function("luby", |b| {
        b.iter(|| {
            let mut st = vec![0u8; g.num_vertices()];
            luby_extend(
                &g,
                d.low_view(),
                &mut st,
                Some(&low_side),
                7,
                &Counters::new(),
            );
            black_box(st)
        })
    });
    group.finish();
}

fn bench_baseline_engineering(c: &mut Criterion) {
    // The reproduction finding (EXPERIMENTS.md): how much of the paper's
    // MIS speedup is an artifact of the classic full-sweep baseline vs
    // modern baseline engineering.
    let mut group = c.benchmark_group("mis_baseline_engineering");
    group.sample_size(10);
    let g = generate(GraphId::CoAuthorsCiteseer, Scale::Factor(0.2), 42);
    group.bench_function("classic_luby_full_sweep", |b| {
        b.iter(|| {
            let mut st = vec![0u8; g.num_vertices()];
            luby_extend(
                &g,
                sb_graph::view::EdgeView::full(),
                &mut st,
                None,
                7,
                &Counters::new(),
            );
            black_box(st)
        })
    });
    group.bench_function("local_min_compacted", |b| {
        b.iter(|| {
            let mut st = vec![0u8; g.num_vertices()];
            luby_extend_compacted(
                &g,
                sb_graph::view::EdgeView::full(),
                &mut st,
                None,
                7,
                &Counters::new(),
            );
            black_box(st)
        })
    });
    group.bench_function("greedy_static_priorities", |b| {
        b.iter(|| {
            let mut st = vec![0u8; g.num_vertices()];
            greedy_mis(&g, &mut st, 7, &Counters::new());
            black_box(st)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mis,
    bench_low_degree_solvers,
    bench_baseline_engineering
);
criterion_main!(benches);

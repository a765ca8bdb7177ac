//! Criterion micro-benchmarks for the matching algorithms (Figure 3's
//! per-algorithm view), plus the DEGk-threshold and proposal-rule
//! ablations from DESIGN.md §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_core::common::{Arch, SolveOpts};
use sb_core::matching::gm::{gm_extend, gm_random_extend};
use sb_core::matching::ii::ii_extend;
use sb_core::matching::maximal_matching;
use sb_core::solver::Algo;
use sb_datasets::suite::{generate, GraphId, Scale};
use sb_graph::csr::INVALID;
use sb_par::counters::Counters;
use std::hint::black_box;

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    for id in [GraphId::Webbase1M, GraphId::CoAuthorsCiteseer] {
        let g = generate(id, Scale::Factor(0.2), 42);
        let name = format!("{id:?}");
        for (algo, label) in [
            (Algo::Baseline, "baseline"),
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
                            black_box(maximal_matching(
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

fn bench_proposal_rules(c: &mut Criterion) {
    // Ablation: lowest-id proposals (vain tendency) vs random priorities.
    let mut group = c.benchmark_group("matching_proposal_rule");
    group.sample_size(10);
    let g = generate(GraphId::Rgg23, Scale::Factor(0.1), 42);
    group.bench_function("lowest_id", |b| {
        b.iter(|| {
            let mut mate = vec![INVALID; g.num_vertices()];
            gm_extend(
                &g,
                sb_graph::view::EdgeView::full(),
                &mut mate,
                None,
                &Counters::new(),
            );
            black_box(mate)
        })
    });
    group.bench_function("random_priority", |b| {
        b.iter(|| {
            let mut mate = vec![INVALID; g.num_vertices()];
            gm_random_extend(
                &g,
                sb_graph::view::EdgeView::full(),
                &mut mate,
                None,
                7,
                &Counters::new(),
            );
            black_box(mate)
        })
    });
    group.bench_function("israeli_itai", |b| {
        b.iter(|| {
            let mut mate = vec![INVALID; g.num_vertices()];
            ii_extend(
                &g,
                sb_graph::view::EdgeView::full(),
                &mut mate,
                None,
                7,
                &Counters::new(),
            );
            black_box(mate)
        })
    });
    group.finish();
}

fn bench_degk_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_degk_threshold");
    group.sample_size(10);
    let g = generate(GraphId::RoadCentral, Scale::Factor(0.15), 42);
    for k in [1usize, 2, 3, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(maximal_matching(
                    &g,
                    Algo::Degk { k },
                    None,
                    Arch::Cpu,
                    7,
                    &SolveOpts::default(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_proposal_rules,
    bench_degk_threshold
);
criterion_main!(benches);

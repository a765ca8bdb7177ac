//! Criterion micro-benchmarks for the coloring algorithms (Figure 4's
//! per-algorithm view), plus the FORBIDDEN-window and Jones–Plassmann
//! ablations from DESIGN.md §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sb_core::coloring::jp::{jp_color_ordered, JpOrdering};
use sb_core::coloring::vb::vb_extend;
use sb_core::coloring::vertex_coloring;
use sb_core::common::{Arch, SolveOpts};
use sb_core::solver::Algo;
use sb_datasets::suite::{generate, GraphId, Scale};
use sb_graph::csr::INVALID;
use sb_par::counters::Counters;
use std::hint::black_box;

fn bench_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("coloring");
    group.sample_size(10);
    for id in [GraphId::GermanyOsm, GraphId::WebGoogle] {
        let g = generate(id, Scale::Factor(0.2), 42);
        let name = format!("{id:?}");
        for (algo, label) in [
            (Algo::Baseline, "baseline"),
            (Algo::Bridge, "bridge"),
            (Algo::Rand { partitions: 2 }, "rand2"),
            (Algo::Degk { k: 2 }, "deg2"),
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                group.bench_with_input(
                    BenchmarkId::new(format!("{label}/{arch}"), &name),
                    &g,
                    |b, g| {
                        b.iter(|| {
                            black_box(vertex_coloring(
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

fn bench_forbidden_window(c: &mut Criterion) {
    // Ablation: VB's FORBIDDEN-window size (the paper sets it to the
    // average degree on the CPU).
    let mut group = c.benchmark_group("coloring_forbidden_window");
    group.sample_size(10);
    let g = generate(GraphId::CitPatents, Scale::Factor(0.15), 42);
    for window in [2usize, 4, 8, 16, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| {
                let mut color = vec![INVALID; g.num_vertices()];
                vb_extend(
                    &g,
                    sb_graph::view::EdgeView::full(),
                    &mut color,
                    g.vertices().collect(),
                    w,
                    0,
                    &Counters::new(),
                );
                black_box(color)
            })
        });
    }
    group.finish();
}

fn bench_jones_plassmann(c: &mut Criterion) {
    // Hasenplaugh et al. ordering heuristics vs the speculative baseline.
    let mut group = c.benchmark_group("coloring_jp_vs_vb");
    group.sample_size(10);
    let g = generate(GraphId::CoAuthorsCiteseer, Scale::Factor(0.2), 42);
    for (ordering, label) in [
        (JpOrdering::Random, "jp_random"),
        (JpOrdering::LargestDegreeFirst, "jp_largest_first"),
        (JpOrdering::SmallestDegreeLast, "jp_smallest_last"),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(jp_color_ordered(&g, ordering, 7, &Counters::new())))
        });
    }
    group.bench_function("vb", |b| {
        b.iter(|| {
            black_box(vertex_coloring(
                &g,
                Algo::Baseline,
                None,
                Arch::Cpu,
                7,
                &SolveOpts::default(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_coloring,
    bench_forbidden_window,
    bench_jones_plassmann
);
criterion_main!(benches);

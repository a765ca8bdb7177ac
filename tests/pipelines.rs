//! End-to-end pipelines spanning every crate: generate a Table II
//! stand-in, decompose it, solve all three problems with every algorithm
//! on both execution models, and verify each solution independently.

use symmetry_breaking::prelude::*;

/// Representative shapes: chain-heavy (lp1), dense-core (c-73), heavy-tail
//  (kron), and geometric (rgg).
fn test_graphs() -> Vec<(GraphId, Graph)> {
    [
        GraphId::Lp1,
        GraphId::C73,
        GraphId::KronLogn20,
        GraphId::Rgg23,
    ]
    .into_iter()
    .map(|id| (id, generate(id, Scale::Tiny, 2024)))
    .collect()
}

#[test]
fn matching_pipeline_all_algorithms() {
    for (id, g) in test_graphs() {
        for algo in [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions: 10 },
            Algo::Degk { k: 2 },
            Algo::Bicc,
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                let run = maximal_matching(&g, algo, None, arch, 7, &SolveOpts::default());
                check_maximal_matching(&g, &run.mate)
                    .unwrap_or_else(|e| panic!("{id:?} {algo:?} {arch}: {e}"));
                assert!(
                    run.cardinality() > 0,
                    "{id:?} {algo:?} {arch}: empty matching"
                );
            }
        }
    }
}

#[test]
fn coloring_pipeline_all_algorithms() {
    for (id, g) in test_graphs() {
        for algo in [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions: 2 },
            Algo::Degk { k: 2 },
            Algo::Bicc,
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                let run = vertex_coloring(&g, algo, None, arch, 7, &SolveOpts::default());
                check_coloring(&g, &run.color)
                    .unwrap_or_else(|e| panic!("{id:?} {algo:?} {arch}: {e}"));
                // Any proper coloring needs at least 2 colors on a graph
                // with an edge and at most Δ+1 with these greedy schemes.
                assert!(run.num_colors() >= 2, "{id:?} {algo:?} {arch}");
                assert!(
                    run.num_colors() <= g.max_degree() + 2,
                    "{id:?} {algo:?} {arch}: {} colors for Δ = {}",
                    run.num_colors(),
                    g.max_degree()
                );
            }
        }
    }
}

#[test]
fn mis_pipeline_all_algorithms() {
    for (id, g) in test_graphs() {
        for algo in [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions: 10 },
            Algo::Degk { k: 2 },
            Algo::Bicc,
        ] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                let run = maximal_independent_set(&g, algo, None, arch, 7, &SolveOpts::default());
                check_maximal_independent_set(&g, &run.in_set)
                    .unwrap_or_else(|e| panic!("{id:?} {algo:?} {arch}: {e}"));
                assert!(run.size() > 0, "{id:?} {algo:?} {arch}: empty MIS");
            }
        }
    }
}

#[test]
fn decomposition_pieces_partition_every_suite_graph() {
    for id in GraphId::ALL {
        let g = generate(id, Scale::Tiny, 7);
        let c = Counters::new();

        let b = decompose_bridge(&g, &c);
        assert_eq!(
            b.component_graph(&g).num_edges() + b.bridge_graph(&g).num_edges(),
            g.num_edges(),
            "{id:?}: bridge pieces must partition edges"
        );

        let r = decompose_rand(&g, 5, 3, &c);
        assert_eq!(
            r.m_induced + r.m_cross,
            g.num_edges(),
            "{id:?}: rand pieces must partition edges"
        );

        let d = decompose_degk(&g, 2, &c);
        assert_eq!(
            d.m_high + d.m_low + d.m_cross,
            g.num_edges(),
            "{id:?}: degk pieces must partition edges"
        );
        assert!(
            d.low_graph(&g).max_degree() <= 2,
            "{id:?}: G_L must be degree ≤ 2"
        );

        let m = decompose_metis_like(&g, 4, &c);
        assert_eq!(
            m.induced_view().num_edges(&g) + m.cross_view().num_edges(&g),
            g.num_edges(),
            "{id:?}: metis-like pieces must partition edges"
        );
    }
}

#[test]
fn solution_quality_is_comparable_across_algorithms() {
    let opts = SolveOpts::default();
    // Decomposition must not degrade solution quality materially:
    // matchings within 25% of the baseline's cardinality, MIS within 25%,
    // colors within 50% (§IV-D reports a few percent in the paper).
    for (id, g) in test_graphs() {
        let base_m = maximal_matching(&g, Algo::Baseline, None, Arch::Cpu, 3, &opts).cardinality();
        let rand_m = maximal_matching(&g, Algo::Rand { partitions: 10 }, None, Arch::Cpu, 3, &opts)
            .cardinality();
        assert!(
            (rand_m as f64) > 0.75 * base_m as f64,
            "{id:?}: MM-Rand cardinality {rand_m} vs baseline {base_m}"
        );

        let base_i = maximal_independent_set(&g, Algo::Baseline, None, Arch::Cpu, 3, &opts).size();
        let deg2_i =
            maximal_independent_set(&g, Algo::Degk { k: 2 }, None, Arch::Cpu, 3, &opts).size();
        assert!(
            (deg2_i as f64) > 0.75 * base_i as f64,
            "{id:?}: MIS-Deg2 size {deg2_i} vs baseline {base_i}"
        );
    }
}

#[test]
fn io_round_trip_through_files() {
    let g = generate(GraphId::C73, Scale::Tiny, 5);
    let dir = std::env::temp_dir().join("sb-integration-io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("c73.edges");
    let f = std::fs::File::create(&path).unwrap();
    symmetry_breaking::graph::io::write_edge_list(&g, f).unwrap();
    let g2 = symmetry_breaking::graph::io::read_path(&path).unwrap();
    assert_eq!(g, g2);
    std::fs::remove_dir_all(&dir).ok();
}

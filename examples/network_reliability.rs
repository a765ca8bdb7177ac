//! Network reliability triage with the BICC decomposition.
//!
//! In an infrastructure network, an *articulation vertex* is a single point
//! of failure (its loss disconnects the network) and a *bridge* is a single
//! link of failure. The block–cut tree shows how the network decomposes at
//! those weak points. This drives the Hochbaum-style decomposition
//! machinery (`sb_decompose::bicc`) that also powers the `*-Bicc`
//! extension solvers.
//!
//! ```sh
//! cargo run --release --example network_reliability
//! ```

use std::time::Instant;
use symmetry_breaking::decompose::{decompose_bicc, decompose_bridge};
use symmetry_breaking::prelude::*;

fn main() {
    // A road network: the classic shape where single points of failure
    // dominate (dead ends, long polylines between junctions).
    let g = generate(GraphId::RoadCentral, Scale::Factor(0.5), 13);
    println!(
        "network: {} nodes, {} links",
        g.num_vertices(),
        g.num_edges()
    );

    let t = Instant::now();
    let bicc = decompose_bicc(&g, &Counters::new());
    let bicc_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let bridges = decompose_bridge(&g, &Counters::new());
    let bridge_ms = t.elapsed().as_secs_f64() * 1e3;

    let cuts = bicc.articulation_points();
    println!(
        "\nsingle points of failure : {} articulation nodes ({:.1}% of nodes) [{bicc_ms:.1} ms]",
        cuts.len(),
        100.0 * cuts.len() as f64 / g.num_vertices() as f64
    );
    println!(
        "single links of failure  : {} bridges ({:.1}% of links) [{bridge_ms:.1} ms]",
        bridges.bridges.len(),
        100.0 * bridges.bridges.len() as f64 / g.num_edges() as f64
    );
    println!(
        "resilient blocks         : {} (largest carries {} links)",
        bicc.num_blocks,
        largest_block(&bicc)
    );

    // The block-cut tree: its leaves are blocks that hang off a single
    // articulation vertex — the "peripheral" parts of the network.
    let tree = bicc.block_cut_tree(&g);
    let mut degree_of_block = vec![0usize; bicc.num_blocks];
    for &(b, _) in &tree {
        degree_of_block[b as usize] += 1;
    }
    let leaves = degree_of_block.iter().filter(|&&d| d == 1).count();
    println!(
        "block-cut tree           : {} attachment edges, {} leaf blocks",
        tree.len(),
        leaves
    );

    // Sanity: every bridge must be a singleton block.
    for &e in bridges.bridges.iter().take(1000) {
        let b = bicc.edge_block[e as usize];
        assert_eq!(
            bicc.block_edges(b).len(),
            1,
            "bridge {e} must form its own block"
        );
    }
    println!("\ninvariant checked: every bridge is a singleton block ✓");

    // The same decomposition drives the extension solvers:
    let run = maximal_independent_set(&g, Algo::Bicc, None, Arch::Cpu, 5, &SolveOpts::default());
    check_maximal_independent_set(&g, &run.in_set).unwrap();
    println!(
        "MIS-Bicc: {} facility sites selected in {:.1} ms — verified",
        run.size(),
        run.stats.total_ms()
    );
}

fn largest_block(b: &symmetry_breaking::decompose::BiccDecomposition) -> usize {
    let mut counts = vec![0usize; b.num_blocks];
    for &x in &b.edge_block {
        counts[x as usize] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

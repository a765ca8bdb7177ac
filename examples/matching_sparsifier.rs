//! Multilevel graph coarsening via maximal matching.
//!
//! Multilevel partitioners (the paper's §III cites matching's role in
//! partitioning [15]) coarsen a graph by computing a maximal matching and
//! contracting every matched pair. This example builds the full coarsening
//! hierarchy with MM-Rand and reports the shrink rate per level.
//!
//! ```sh
//! cargo run --release --example matching_sparsifier
//! ```

use std::time::Instant;
use symmetry_breaking::prelude::*;

/// Contract matched pairs; unmatched vertices survive alone.
fn contract(g: &Graph, mate: &[u32]) -> Graph {
    let n = g.num_vertices();
    // Supervertex id: the smaller endpoint of a matched pair, else self.
    let mut super_of = vec![0u32; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        let m = mate[v as usize];
        if m == INVALID || v < m {
            super_of[v as usize] = next;
            next += 1;
        }
    }
    for v in 0..n as u32 {
        let m = mate[v as usize];
        if m != INVALID && m < v {
            super_of[v as usize] = super_of[m as usize];
        }
    }
    let mut b = GraphBuilder::new(next as usize);
    for &[u, v] in g.edge_list() {
        let (su, sv) = (super_of[u as usize], super_of[v as usize]);
        if su != sv {
            b.push(su, sv);
        }
    }
    b.build()
}

fn main() {
    let mut g = generate(GraphId::Rgg23, Scale::Factor(0.3), 5);
    println!(
        "level 0: |V| = {}, |E| = {}",
        g.num_vertices(),
        g.num_edges()
    );

    let t = Instant::now();
    let mut level = 0;
    while g.num_vertices() > 200 && level < 20 {
        let run = maximal_matching(
            &g,
            Algo::Rand { partitions: 10 },
            None,
            Arch::Cpu,
            level,
            &SolveOpts::default(),
        );
        check_maximal_matching(&g, &run.mate).unwrap();
        let matched = matching_cardinality(&run.mate);
        let coarse = contract(&g, &run.mate);
        level += 1;
        println!(
            "level {level}: matched {matched} pairs → |V| = {}, |E| = {} ({:.1}% shrink)",
            coarse.num_vertices(),
            coarse.num_edges(),
            100.0 * (1.0 - coarse.num_vertices() as f64 / g.num_vertices() as f64)
        );
        if coarse.num_vertices() == g.num_vertices() {
            break; // nothing left to contract
        }
        g = coarse;
    }
    println!(
        "\ncoarsening hierarchy of {level} levels built in {:.1} ms",
        t.elapsed().as_secs_f64() * 1e3
    );
}

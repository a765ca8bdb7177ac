//! Conflict-free job scheduling via repeated MIS.
//!
//! Jobs that share a resource cannot run in the same round; scheduling is
//! repeated maximal-independent-set extraction on the conflict graph (each
//! MIS is one execution wave). This is the classic MIS application the
//! paper's §V cites (scheduling, work distribution), here on a
//! collaboration-shaped conflict graph.
//!
//! ```sh
//! cargo run --release --example scheduling_mis
//! ```

use std::time::Instant;
use symmetry_breaking::graph::subgraph::induce_vertices_same_ids;
use symmetry_breaking::prelude::*;

/// Peel the conflict graph wave by wave; returns the wave of each job.
fn schedule(g: &Graph, algo: Algo, seed: u64) -> Vec<u32> {
    let n = g.num_vertices();
    let mut wave = vec![u32::MAX; n];
    let mut remaining: Vec<bool> = vec![true; n];
    let mut left = n;
    let mut round = 0u32;
    let mut current = g.clone();
    while left > 0 {
        let run = maximal_independent_set(
            &current,
            algo,
            None,
            Arch::Cpu,
            seed + round as u64,
            &SolveOpts::default(),
        );
        check_maximal_independent_set(&current, &run.in_set).unwrap();
        for v in 0..n {
            if remaining[v] && run.in_set[v] {
                wave[v] = round;
                remaining[v] = false;
                left -= 1;
            }
        }
        // Jobs already scheduled leave the conflict graph.
        current = induce_vertices_same_ids(&current, |v| remaining[v as usize]);
        round += 1;
    }
    wave
}

fn main() {
    let g = generate(GraphId::CoAuthorsCiteseer, Scale::Factor(0.3), 11);
    println!(
        "conflict graph: {} jobs, {} conflicts, max degree {}",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree()
    );

    for (algo, label) in [
        (Algo::Baseline, "LubyMIS  "),
        (Algo::Degk { k: 2 }, "MIS-Deg2 "),
    ] {
        let t = Instant::now();
        let wave = schedule(&g, algo, 3);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let waves = wave.iter().max().unwrap() + 1;
        // Validate: no conflicting pair shares a wave.
        for &[u, v] in g.edge_list() {
            assert_ne!(wave[u as usize], wave[v as usize], "conflict within a wave");
        }
        let first_wave = wave.iter().filter(|&&w| w == 0).count();
        println!(
            "{label}: schedule of {waves} waves in {ms:>8.2} ms ({first_wave} jobs in wave 0)"
        );
    }
    println!("\nschedules verified: no two conflicting jobs share a wave ✓");
}

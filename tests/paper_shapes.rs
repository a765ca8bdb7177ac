//! The reproduction as a test suite: the paper's qualitative findings,
//! asserted on counters (not wall-clock) at test scale so they are stable
//! on any host and pinned against regressions.

use symmetry_breaking::prelude::*;

const SEED: u64 = 2017; // the paper's year, why not

/// §III-C — the *vain tendency*: GM's lowest-id proposals serialize on the
/// spatially-numbered rgg instances; MM-Rand's sparsification breaks the
/// chains. Measured in proposal rounds.
#[test]
fn vain_tendency_and_its_rand_cure() {
    let opts = SolveOpts::default();
    let g = generate(GraphId::Rgg23, Scale::Factor(0.15), SEED);
    let base = maximal_matching(&g, Algo::Baseline, None, Arch::Cpu, SEED, &opts);
    let rand = maximal_matching(
        &g,
        Algo::Rand { partitions: 10 },
        None,
        Arch::Cpu,
        SEED,
        &opts,
    );
    check_maximal_matching(&g, &base.mate).unwrap();
    check_maximal_matching(&g, &rand.mate).unwrap();
    assert!(
        base.stats.counters.rounds >= 4 * rand.stats.counters.rounds,
        "expected GM rounds ({}) ≫ MM-Rand rounds ({})",
        base.stats.counters.rounds,
        rand.stats.counters.rounds
    );
}

/// §III-C footnote: the vain tendency is a property of the deterministic
/// tie-breaking — random priorities (Blelloch's original rule) already
/// remove it without any decomposition.
#[test]
fn vain_tendency_is_the_tie_break_rule() {
    use symmetry_breaking::core::matching::gm::{gm_extend, gm_random_extend};
    use symmetry_breaking::graph::EdgeView;
    let g = generate(GraphId::Rgg23, Scale::Factor(0.1), SEED);

    let c_det = Counters::new();
    let mut m1 = vec![INVALID; g.num_vertices()];
    gm_extend(&g, EdgeView::full(), &mut m1, None, &c_det);

    let c_rnd = Counters::new();
    let mut m2 = vec![INVALID; g.num_vertices()];
    gm_random_extend(&g, EdgeView::full(), &mut m2, None, SEED, &c_rnd);

    assert!(
        c_det.rounds() >= 10 * c_rnd.rounds(),
        "lowest-id rounds ({}) should dwarf random-priority rounds ({})",
        c_det.rounds(),
        c_rnd.rounds()
    );
}

/// §III-D — the RAND partition count matters: the induced edge fraction is
/// 1/k, so k near the average degree balances phase-1 sparsity against
/// phase-2 cross work. On the kron stand-in (avg degree ≈ 85), k = 10 leaves
/// the induced union far denser than k = 100 does.
#[test]
fn kron_needs_more_partitions() {
    let g = generate(GraphId::KronLogn20, Scale::Factor(0.25), SEED);
    let d10 = decompose_rand(&g, 10, SEED, &Counters::new());
    let d100 = decompose_rand(&g, 100, SEED, &Counters::new());
    // Induced average degree at k=10 is still high (≈ avg/10 ≈ 8.5),
    // at k=100 it is below 1 — the paper's reason for raising k.
    let n = g.num_vertices() as f64;
    assert!(2.0 * d10.m_induced as f64 / n > 4.0);
    assert!(2.0 * d100.m_induced as f64 / n < 2.0);
}

/// Figure 2 — cost ordering of the decompositions, in accounted work:
/// DEG2 and RAND are single classify passes; BRIDGE pays BFS rounds plus
/// LCA-walk gathers on top.
#[test]
fn decomposition_cost_ordering() {
    let g = generate(GraphId::GermanyOsm, Scale::Factor(0.3), SEED);
    let c_rand = Counters::new();
    decompose_rand(&g, 10, SEED, &c_rand);
    let c_degk = Counters::new();
    decompose_degk(&g, 2, &c_degk);
    let c_bridge = Counters::new();
    decompose_bridge(&g, &c_bridge);

    let work = |c: &Counters| c.work_items() + c.edges_scanned();
    assert!(
        work(&c_bridge) > 3 * work(&c_rand),
        "BRIDGE ({}) should cost several RANDs ({})",
        work(&c_bridge),
        work(&c_rand)
    );
    assert!(work(&c_bridge) > 3 * work(&c_degk));
    // BFS depth on the high-pseudo-diameter road graph dominates rounds.
    assert!(c_bridge.rounds() > 20 * c_rand.rounds().max(1));
}

/// §V-C — MIS-Deg2 wins on degree-≤2-heavy graphs and not on rgg, in
/// accounted work against the classic full-sweep Luby baseline. The
/// paper's cost structure is that of its era's dense baselines, so this
/// pin holds `FrontierMode::Dense` fixed — the compacted form narrows
/// exactly this gap (DESIGN.md §10, `ablate_frontier`).
#[test]
fn mis_deg2_crossover() {
    let dense = SolveOpts::with_mode(FrontierMode::Dense);
    let work = |r: &symmetry_breaking::prelude::MisRun| {
        r.stats.counters.work_items + r.stats.counters.edges_scanned
    };

    // lp1: > 90% of vertices have degree ≤ 2 → Deg2 must do less work.
    let lp1 = generate(GraphId::Lp1, Scale::Factor(0.4), SEED);
    let base = maximal_independent_set(&lp1, Algo::Baseline, None, Arch::Cpu, SEED, &dense);
    let deg2 = maximal_independent_set(&lp1, Algo::Degk { k: 2 }, None, Arch::Cpu, SEED, &dense);
    check_maximal_independent_set(&lp1, &base.in_set).unwrap();
    check_maximal_independent_set(&lp1, &deg2.in_set).unwrap();
    assert!(
        work(&deg2) < work(&base),
        "on lp1, MIS-Deg2 work ({}) should undercut LubyMIS ({})",
        work(&deg2),
        work(&base)
    );

    // rgg: no degree-≤2 vertices → the decomposition is pure overhead.
    let rgg = generate(GraphId::Rgg23, Scale::Factor(0.1), SEED);
    let base = maximal_independent_set(&rgg, Algo::Baseline, None, Arch::Cpu, SEED, &dense);
    let deg2 = maximal_independent_set(&rgg, Algo::Degk { k: 2 }, None, Arch::Cpu, SEED, &dense);
    assert!(
        work(&deg2) >= work(&base),
        "on rgg, MIS-Deg2 ({}) cannot beat LubyMIS ({})",
        work(&deg2),
        work(&base)
    );
}

/// §IV (Algorithm 9) — COLOR-Degk's structural guarantee: the low side is
/// colored with at most k+1 fresh colors above max(C_H), so the total
/// palette is |colors(G_H)| + k + 1 at worst.
#[test]
fn color_degk_palette_bound() {
    for id in [GraphId::Lp1, GraphId::GermanyOsm, GraphId::Webbase1M] {
        let g = generate(id, Scale::Tiny, SEED);
        let run = vertex_coloring(
            &g,
            Algo::Degk { k: 2 },
            None,
            Arch::Cpu,
            SEED,
            &SolveOpts::default(),
        );
        check_coloring(&g, &run.color).unwrap();
        let d = decompose_degk(&g, 2, &Counters::new());
        let high_colors: std::collections::BTreeSet<u32> = g
            .vertices()
            .filter(|&v| d.is_high[v as usize])
            .map(|v| run.color[v as usize])
            .collect();
        assert!(
            run.num_colors() <= high_colors.len() + 3,
            "{id:?}: {} colors vs {} high colors + 3",
            run.num_colors(),
            high_colors.len()
        );
    }
}

/// §V-C — MIS-Bridge is never competitive: its decomposition alone costs
/// about as much as solving the problem.
#[test]
fn mis_bridge_noncompetitive() {
    let opts = SolveOpts::default();
    let g = generate(GraphId::RoadCentral, Scale::Factor(0.3), SEED);
    let base = maximal_independent_set(&g, Algo::Baseline, None, Arch::Cpu, SEED, &opts);
    let bridge = maximal_independent_set(&g, Algo::Bridge, None, Arch::Cpu, SEED, &opts);
    let work = |r: &symmetry_breaking::prelude::MisRun| {
        r.stats.counters.work_items + r.stats.counters.edges_scanned
    };
    assert!(work(&bridge) > work(&base));
}

/// The GPU cost model orders algorithms by their communication structure:
/// for matching on the heavy-tailed kron stand-in, MM-Rand's modeled device
/// time undercuts LMAX's (the paper's Figure 3b direction), while MM-Bridge
/// stays above both. Pinned against the era's dense baselines (see
/// `mis_deg2_crossover`): compacted worklists shrink LMAX's full-sweep
/// traffic, which is the very overhead the paper's decompositions attack.
#[test]
fn gpu_model_matching_ordering_on_kron() {
    let dense = SolveOpts::with_mode(FrontierMode::Dense);
    let g = generate(GraphId::KronLogn20, Scale::Factor(0.5), SEED);
    let base = maximal_matching(&g, Algo::Baseline, None, Arch::GpuSim, SEED, &dense);
    let rand = maximal_matching(
        &g,
        Algo::Rand { partitions: 100 },
        None,
        Arch::GpuSim,
        SEED,
        &dense,
    );
    let bridge = maximal_matching(&g, Algo::Bridge, None, Arch::GpuSim, SEED, &dense);
    let ms = |r: &MatchingRun| r.stats.modeled_gpu_ms();
    assert!(
        ms(&rand) < ms(&base),
        "kron GPU: MM-Rand modeled {:.3} ms should beat LMAX {:.3} ms",
        ms(&rand),
        ms(&base)
    );
    assert!(ms(&bridge) > ms(&base));
}

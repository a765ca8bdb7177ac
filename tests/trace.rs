//! End-to-end tests of the sb-trace subsystem: JSONL replay fidelity,
//! round-record bookkeeping, and the paper's round-convergence claims
//! restated on trace evidence instead of raw counters.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use symmetry_breaking::graph::EdgeView;
use symmetry_breaking::prelude::*;
use symmetry_breaking::trace::{parse_jsonl, rounds_per_phase, total_delta, TraceEvent};

/// Default options with `sink` attached.
fn traced(sink: &Arc<TraceSink>) -> SolveOpts {
    SolveOpts {
        trace: Some(sink.clone()),
        ..SolveOpts::default()
    }
}

const SEED: u64 = 2017;

/// Serialize a sink's trace to a JSONL string.
fn to_jsonl(sink: &TraceSink) -> String {
    let mut buf = Vec::new();
    sink.write_jsonl(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// Rounds recorded under `phase`, zero if the phase never appears.
fn phase_rounds(events: &[TraceEvent], phase: &str) -> u64 {
    rounds_per_phase(events)
        .into_iter()
        .find(|(p, _)| p == phase)
        .map_or(0, |(_, c)| c)
}

/// Per-round sums over all round records:
/// (rounds, settled, edges_scanned, work_items), plus round 0's active size.
fn round_sums(events: &[TraceEvent]) -> (u64, u64, u64, u64, u64) {
    let mut rounds = 0;
    let mut settled = 0;
    let mut edges = 0;
    let mut work = 0;
    let mut first_active = 0;
    for e in events {
        if let TraceEvent::Round { record, .. } = e {
            if rounds == 0 {
                first_active = record.active;
            }
            rounds += 1;
            settled += record.settled;
            edges += record.edges_scanned;
            work += record.work_items;
        }
    }
    (rounds, settled, edges, work, first_active)
}

/// The acceptance check of the trace design: writing a run's trace to
/// JSONL, parsing it back, and summing the top-level span deltas must
/// reconstruct the run's final counter snapshot *exactly* — every counter
/// increment of every composite happens inside some top-level phase span.
#[test]
fn jsonl_replay_reconstructs_counter_totals() {
    let g = generate(GraphId::Lp1, Scale::Tiny, SEED);

    let mm_algos = [
        Algo::Baseline,
        Algo::Bridge,
        Algo::Rand { partitions: 3 },
        Algo::Degk { k: 2 },
    ];
    for algo in mm_algos {
        let sink = Arc::new(TraceSink::enabled());
        let run = maximal_matching(&g, algo, None, Arch::Cpu, SEED, &traced(&sink));
        let events = parse_jsonl(&to_jsonl(&sink)).unwrap();
        assert_eq!(
            total_delta(&events),
            run.stats.counters.as_delta(),
            "matching {algo:?}: replayed span deltas must equal the run's counters"
        );
    }

    let color_algos = [
        Algo::Baseline,
        Algo::Rand { partitions: 2 },
        Algo::Degk { k: 2 },
    ];
    for algo in color_algos {
        let sink = Arc::new(TraceSink::enabled());
        let run = vertex_coloring(&g, algo, None, Arch::Cpu, SEED, &traced(&sink));
        let events = parse_jsonl(&to_jsonl(&sink)).unwrap();
        assert_eq!(
            total_delta(&events),
            run.stats.counters.as_delta(),
            "coloring {algo:?}: replayed span deltas must equal the run's counters"
        );
    }

    let mis_algos = [
        Algo::Baseline,
        Algo::Rand { partitions: 3 },
        Algo::Degk { k: 2 },
        Algo::Bicc,
    ];
    for algo in mis_algos {
        let sink = Arc::new(TraceSink::enabled());
        let run = maximal_independent_set(&g, algo, None, Arch::Cpu, SEED, &traced(&sink));
        let events = parse_jsonl(&to_jsonl(&sink)).unwrap();
        assert_eq!(
            total_delta(&events),
            run.stats.counters.as_delta(),
            "mis {algo:?}: replayed span deltas must equal the run's counters"
        );
    }
}

/// §III-C on trace evidence: on the spatially-numbered rgg stand-in, the
/// *cross-solve phase* of MM-Rand converges in strictly fewer rounds than
/// baseline GM's whole solve — the round records themselves, not
/// wall-clock, carry the claim.
#[test]
fn rand_cross_phase_beats_gm_rounds_on_trace() {
    let g = generate(GraphId::Rgg23, Scale::Factor(0.15), SEED);

    let base_sink = Arc::new(TraceSink::enabled());
    let base = maximal_matching(
        &g,
        Algo::Baseline,
        None,
        Arch::Cpu,
        SEED,
        &traced(&base_sink),
    );
    let rand_sink = Arc::new(TraceSink::enabled());
    let rand = maximal_matching(
        &g,
        Algo::Rand { partitions: 10 },
        None,
        Arch::Cpu,
        SEED,
        &traced(&rand_sink),
    );
    check_maximal_matching(&g, &base.mate).unwrap();
    check_maximal_matching(&g, &rand.mate).unwrap();

    let solve = phase_rounds(&base_sink.events(), "solve");
    let cross = phase_rounds(&rand_sink.events(), "cross-solve");
    assert!(solve > 0 && cross > 0, "both phases must record rounds");
    assert!(
        cross < solve,
        "MM-Rand cross-solve rounds ({cross}) must beat GM solve rounds ({solve})"
    );
    // The summary digest carries the same convergence evidence.
    let summary = rand_sink.summary().unwrap();
    assert_eq!(summary.total_rounds, round_sums(&rand_sink.events()).0);
}

/// Round indices are assigned by the sink: contiguous from 0 and monotone
/// within every span, across all solver layers of a decomposed run.
#[test]
fn round_indices_are_contiguous_and_monotone_per_span() {
    let g = generate(GraphId::Lp1, Scale::Tiny, SEED);
    let sink = Arc::new(TraceSink::enabled());
    maximal_independent_set(
        &g,
        Algo::Degk { k: 2 },
        None,
        Arch::Cpu,
        SEED,
        &traced(&sink),
    );

    let mut next: HashMap<Option<u32>, u64> = HashMap::new();
    let mut total = 0u64;
    for e in sink.events() {
        if let TraceEvent::Round { span, record, .. } = e {
            let expected = next.entry(span).or_insert(0);
            assert_eq!(
                record.round, *expected,
                "round index within span {span:?} must be contiguous from 0"
            );
            *expected += 1;
            total += 1;
        }
    }
    assert!(total > 0, "a decomposed MIS run must record rounds");
}

/// A disabled sink behaves exactly like no sink at all: same output, same
/// counters, no events, no summary.
#[test]
fn disabled_sink_matches_untraced_run() {
    let g = generate(GraphId::Lp1, Scale::Tiny, SEED);
    let plain = maximal_matching(
        &g,
        Algo::Rand { partitions: 3 },
        None,
        Arch::Cpu,
        SEED,
        &SolveOpts::default(),
    );
    let sink = Arc::new(TraceSink::disabled());
    let traced = maximal_matching(
        &g,
        Algo::Rand { partitions: 3 },
        None,
        Arch::Cpu,
        SEED,
        &traced(&sink),
    );
    assert_eq!(plain.mate, traced.mate);
    assert_eq!(
        plain.stats.counters.as_delta(),
        traced.stats.counters.as_delta()
    );
    assert!(sink.events().is_empty());
    assert!(sink.summary().is_none());
    assert!(traced.stats.trace.is_none());
}

/// Strategy: an arbitrary undirected graph with up to `nmax` vertices and
/// `mmax` raw edges (dedup may shrink).
fn arb_graph(nmax: usize, mmax: usize) -> impl Strategy<Value = Graph> {
    (2..nmax).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..mmax)
            .prop_map(move |edges| from_edge_list(n, &edges))
    })
}

/// Assert the per-round records of a direct solver sum to its final
/// counter snapshot: one record per round, every edge scan / work item
/// attributed to exactly one round, and the settled column summing to
/// `expected_settled` (how many items the solver decided in total).
fn assert_rounds_account_for(
    sink: &TraceSink,
    counters: &Counters,
    expected_settled: u64,
) -> Result<(), TestCaseError> {
    let snap = counters.snapshot();
    let (rounds, settled, edges, work, _) = round_sums(&sink.events());
    prop_assert_eq!(rounds, snap.rounds, "one round record per counted round");
    prop_assert_eq!(edges, snap.edges_scanned, "edge scans attributed to rounds");
    prop_assert_eq!(work, snap.work_items, "work items attributed to rounds");
    prop_assert_eq!(settled, expected_settled, "settled sums to items decided");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gm_round_records_sum_to_totals(g in arb_graph(80, 200)) {
        use symmetry_breaking::core::matching::gm::gm_extend;
        let sink = Arc::new(TraceSink::enabled());
        let c = Counters::with_trace(sink.clone());
        let mut mate = vec![INVALID; g.num_vertices()];
        gm_extend(&g, EdgeView::full(), &mut mate, None, &c, FrontierMode::Dense, &mut Scratch::new());
        // GM drains its worklist completely: every initially-live vertex
        // (degree > 0) is eventually settled — matched or dropped.
        let live = g.vertices().filter(|&v| g.degree(v) > 0).count() as u64;
        assert_rounds_account_for(&sink, &c, live)?;
    }

    #[test]
    fn ii_round_records_sum_to_totals(g in arb_graph(80, 200), seed in 0u64..50) {
        use symmetry_breaking::core::matching::ii::ii_extend;
        let sink = Arc::new(TraceSink::enabled());
        let c = Counters::with_trace(sink.clone());
        let mut mate = vec![INVALID; g.num_vertices()];
        ii_extend(&g, EdgeView::full(), &mut mate, None, seed, &c);
        // II terminates when no live edge remains, which can strand
        // unmatched participants: settled sums to the matched count.
        let matched = mate.iter().filter(|&&m| m != INVALID).count() as u64;
        assert_rounds_account_for(&sink, &c, matched)?;
    }

    #[test]
    fn vb_round_records_sum_to_totals(g in arb_graph(80, 200)) {
        use symmetry_breaking::core::coloring::vb::vb_extend;
        let sink = Arc::new(TraceSink::enabled());
        let c = Counters::with_trace(sink.clone());
        let mut color = vec![INVALID; g.num_vertices()];
        let worklist: Vec<VertexId> = g.vertices().collect();
        let window = g.max_degree() + 1;
        vb_extend(&g, EdgeView::full(), &mut color, worklist, window, 0, &c, &mut Scratch::new());
        // VB colors every worklist vertex, so all n are settled.
        assert_rounds_account_for(&sink, &c, g.num_vertices() as u64)?;
    }

    #[test]
    fn luby_round_records_sum_to_totals(g in arb_graph(80, 200), seed in 0u64..50) {
        use symmetry_breaking::core::mis::luby::luby_extend;
        use symmetry_breaking::core::mis::status::UNDECIDED;
        let sink = Arc::new(TraceSink::enabled());
        let c = Counters::with_trace(sink.clone());
        let mut status = vec![UNDECIDED; g.num_vertices()];
        let (mode, scratch) = (FrontierMode::Dense, &mut Scratch::new());
        luby_extend(&g, EdgeView::full(), &mut status, None, seed, &c, mode, scratch);
        // Luby decides IN/OUT for every participant, so all n are settled.
        assert_rounds_account_for(&sink, &c, g.num_vertices() as u64)?;
    }
}

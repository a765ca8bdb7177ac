//! Cost-model transparency: the raw counter breakdown behind every modeled
//! GPU number in Figures 3–5.
//!
//! For one graph (default: `kron-g500-logn20`), print each algorithm's
//! kernel launches, streamed items, gathered reads, the three cost-model
//! terms, and the resulting modeled K40c milliseconds — so a reader can
//! audit exactly where a modeled time comes from and re-derive any figure
//! cell by hand.

use sb_bench::harness::{load_suite, BenchConfig};
use sb_bench::report::Table;
use sb_bench::schemas;
use sb_core::coloring::vertex_coloring;
use sb_core::common::{Arch, SolveOpts};
use sb_core::matching::maximal_matching;
use sb_core::mis::maximal_independent_set;
use sb_core::solver::Algo;
use sb_par::counters::{CounterSnapshot, GpuCostModel};

fn row(label: &str, s: CounterSnapshot, t: &mut Table) {
    let m = GpuCostModel::K40C;
    let launch_ms = s.kernel_launches as f64 * m.per_launch_us * 1e-3;
    let stream_ms = s.work_items as f64 * m.per_stream_ns * 1e-6;
    let gather_ms = s.edges_scanned as f64 * m.per_gather_ns * 1e-6;
    t.row(vec![
        label.into(),
        s.rounds.to_string(),
        s.kernel_launches.to_string(),
        s.work_items.to_string(),
        s.edges_scanned.to_string(),
        format!("{launch_ms:.3}"),
        format!("{stream_ms:.3}"),
        format!("{gather_ms:.3}"),
        format!("{:.3}", launch_ms + stream_ms + gather_ms),
    ]);
}

fn main() {
    let opts = SolveOpts::default();
    let mut cfg = BenchConfig::from_env();
    if cfg.filter.is_empty() {
        cfg.filter = "kron-g500-logn20".into();
    }
    let suite = load_suite(&cfg);
    let m = GpuCostModel::K40C;
    println!(
        "cost model (K40c): {:.1} µs/launch, {:.3} ns/streamed item, {:.2} ns/gathered read",
        m.per_launch_us, m.per_stream_ns, m.per_gather_ns
    );

    for (sp, g) in &suite.graphs {
        let schema = schemas::model_report(sp.name, g.num_vertices(), g.num_edges());
        let mut t = schema.table();
        let arch = Arch::GpuSim;
        row(
            "LMAX (baseline)",
            maximal_matching(g, Algo::Baseline, None, arch, cfg.seed, &opts)
                .stats
                .counters,
            &mut t,
        );
        row(
            "MM-Rand(100)",
            maximal_matching(
                g,
                Algo::Rand { partitions: 100 },
                None,
                arch,
                cfg.seed,
                &opts,
            )
            .stats
            .counters,
            &mut t,
        );
        row(
            "EB (baseline)",
            vertex_coloring(g, Algo::Baseline, None, arch, cfg.seed, &opts)
                .stats
                .counters,
            &mut t,
        );
        row(
            "COLOR-Deg2",
            vertex_coloring(g, Algo::Degk { k: 2 }, None, arch, cfg.seed, &opts)
                .stats
                .counters,
            &mut t,
        );
        row(
            "LubyMIS (baseline)",
            maximal_independent_set(g, Algo::Baseline, None, arch, cfg.seed, &opts)
                .stats
                .counters,
            &mut t,
        );
        row(
            "MIS-Deg2",
            maximal_independent_set(g, Algo::Degk { k: 2 }, None, arch, cfg.seed, &opts)
                .stats
                .counters,
            &mut t,
        );
        t.emit(&schema.name);
    }
}

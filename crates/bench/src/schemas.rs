//! The schema registry: one constructor per results table the bench
//! binaries (and `sbreak batch`) can write, each yielding the table's
//! output name, title, and column headers.
//!
//! This is the single source of truth for every `results/*.csv` /
//! `results/*.json` schema. Runners build their [`Table`]s from here
//! ([`TableSchema::table`]), and the golden tests pin the rendered
//! registry ([`render_registry`]) so any schema drift — a renamed column,
//! a reordered header, a changed title — fails CI until the goldens are
//! regenerated with `SBREAK_BLESS=1`.

use crate::report::Table;
use sb_core::common::Arch;

/// Name, title, and headers of one results table.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Output stem: the table saves to `results/<name>.{csv,json}`.
    pub name: String,
    /// Table caption.
    pub title: String,
    /// Column headers, in order.
    pub headers: Vec<String>,
}

impl TableSchema {
    fn new(name: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> TableSchema {
        TableSchema {
            name: name.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// An empty [`Table`] with this schema's title and headers.
    pub fn table(&self) -> Table {
        let refs: Vec<&str> = self.headers.iter().map(|s| s.as_str()).collect();
        Table::new(self.title.clone(), &refs)
    }

    /// One-table rendering for the registry golden: name, title, headers.
    pub fn render(&self) -> String {
        format!(
            "{}\n  title:   {}\n  headers: {}\n",
            self.name,
            self.title,
            self.headers.join(" | ")
        )
    }
}

fn arch_time_unit(arch: Arch) -> &'static str {
    match arch {
        Arch::Cpu => "wall ms",
        Arch::GpuSim => "modeled K40c ms",
    }
}

/// Table I — the summary table.
pub fn table1() -> TableSchema {
    TableSchema::new(
        "table1",
        "Table I — summary (decomposition, avg speedup) per problem and arch",
        &[
            "problem",
            "CPU decomposition",
            "CPU speedup",
            "GPU decomposition",
            "GPU speedup",
            "paper CPU",
            "paper GPU",
        ],
    )
}

/// Table II — dataset statistics.
pub fn table2() -> TableSchema {
    TableSchema::new(
        "table2",
        "Table II — dataset statistics (measured stand-in vs paper)",
        &[
            "graph",
            "class",
            "|V|",
            "|E|",
            "%DEG2",
            "%DEG2 (paper)",
            "%BRIDGES",
            "%BRIDGES (paper)",
            "avg deg",
            "avg deg (paper)",
            "pseudo-diam",
        ],
    )
}

/// Figure 2 — decomposition times.
pub fn fig2() -> TableSchema {
    TableSchema::new(
        "fig2",
        "Figure 2 — decomposition time (ms)",
        &["graph", "BRIDGE", "RAND(10)", "DEG2", "METIS-like(8)"],
    )
}

/// Figure 3 — maximal matching (per arch).
pub fn fig3(arch: Arch) -> TableSchema {
    TableSchema::new(
        format!("fig3_{arch}"),
        format!(
            "Figure 3 ({arch}) — maximal matching time ({})",
            arch_time_unit(arch)
        ),
        &[
            "graph",
            "baseline",
            "MM-Bridge",
            "MM-Rand",
            "MM-Deg2",
            "rand speedup",
            "baseline rounds",
            "rand rounds",
        ],
    )
}

/// Figure 4 — coloring (per arch; the headline column follows the paper's
/// winner for the arch).
pub fn fig4(arch: Arch) -> TableSchema {
    let headline = match arch {
        Arch::Cpu => "degk speedup",
        Arch::GpuSim => "rand speedup",
    };
    TableSchema::new(
        format!("fig4_{arch}"),
        format!(
            "Figure 4 ({arch}) — coloring time ({})",
            arch_time_unit(arch)
        ),
        &[
            "graph",
            "baseline",
            "COLOR-Bridge",
            "COLOR-Rand",
            "COLOR-Deg2",
            headline,
            "colors base",
            "colors winner",
        ],
    )
}

/// Figure 5 — MIS (per arch).
pub fn fig5(arch: Arch) -> TableSchema {
    TableSchema::new(
        format!("fig5_{arch}"),
        format!("Figure 5 ({arch}) — MIS time ({})", arch_time_unit(arch)),
        &[
            "graph",
            "LubyMIS",
            "MIS-Bridge",
            "MIS-Rand",
            "MIS-Deg2",
            "deg2 speedup",
            "luby rounds",
        ],
    )
}

/// §IV-D color-overhead table.
pub fn color_overhead() -> TableSchema {
    TableSchema::new(
        "color_overhead",
        "§IV-D — extra colors vs baseline (% relative / absolute Δ)",
        &[
            "arch",
            "COLOR-Bridge",
            "COLOR-Rand",
            "COLOR-Deg2",
            "paper (relative)",
        ],
    )
}

/// §III-C iteration-count table.
pub fn ablate_iterations() -> TableSchema {
    TableSchema::new(
        "ablate_iterations",
        "§III-C — proposal rounds: GM vs MM-Rand vs random-priority GM",
        &[
            "graph",
            "GM rounds",
            "MM-Rand rounds",
            "GM-randprio rounds",
            "round ratio GM/MM-Rand",
        ],
    )
}

/// Partition-count sweep (one table per problem per arch).
pub fn ablate_partitions(problem: &str, arch: Arch) -> TableSchema {
    let caption = match problem {
        "mm" => format!("MM-Rand ({arch}) vs partition count (ms)"),
        _ => format!("COLOR-Rand ({arch}) vs partition count (ms)"),
    };
    TableSchema::new(
        format!("ablate_partitions_{problem}_{arch}"),
        caption,
        &["graph", "k=2", "k=4", "k=10", "k=20", "k=50", "k=100"],
    )
}

/// BRIDGE-vs-BICC extension table (per arch).
pub fn ablate_bicc(arch: Arch) -> TableSchema {
    TableSchema::new(
        format!("ablate_bicc_{arch}"),
        format!("Extension — BRIDGE vs BICC composites ({arch}, ms)"),
        &[
            "graph",
            "MM base",
            "MM-Bridge",
            "MM-Bicc",
            "COLOR base",
            "COLOR-Bridge",
            "COLOR-Bicc",
            "MIS base",
            "MIS-Bridge",
            "MIS-Bicc",
        ],
    )
}

/// Frontier-representation A/B table (also saved as
/// `BENCH_frontier.json`): dense full sweeps vs compact worklists, per
/// workload.
pub fn ablate_frontier() -> TableSchema {
    TableSchema::new(
        "ablate_frontier",
        "Frontier representation — dense vs compact per workload",
        &[
            "workload",
            "dense ms",
            "compact ms",
            "dense edges",
            "compact edges",
            "edge reduction",
        ],
    )
}

/// Out-of-core ablation (also saved as `BENCH_outofcore.json`): each
/// Table I workload solved twice — from the in-heap CSR and from a
/// read-only mapping of the same graph serialized to `.sbg` — with the
/// solver outputs byte-compared. `heap/mapped resident` is what each
/// representation charges the allocator (the mapping's array bytes live
/// in page cache, not the heap).
pub fn ablate_outofcore() -> TableSchema {
    TableSchema::new(
        "ablate_outofcore",
        "Out-of-core — heap CSR vs mapped .sbg per workload (outputs byte-compared)",
        &[
            "workload",
            "heap ms",
            "mapped ms",
            "heap edges",
            "mapped edges",
            "file MB",
            "heap resident MB",
            "mapped resident bytes",
            "identical",
        ],
    )
}

/// Incremental-repair ablation (also saved as `BENCH_incremental.json`):
/// each Table I workload is solved once on the base graph, then an edit
/// batch of the given size is answered two ways — repairing the prior
/// solution through the edit overlay vs materializing the edited CSR and
/// solving fresh. `valid` is the verifier's verdict on the repaired
/// solution against the edited graph; `repair wins` records whether the
/// repair path was strictly cheaper on wall clock. The asserted gate at
/// batch ≤ 100 is the deterministic `repair edges` < `fresh edges`
/// comparison (wall clock is asserted too when `--reps` ≥ 2).
pub fn ablate_incremental() -> TableSchema {
    TableSchema::new(
        "ablate_incremental",
        "Incremental repair — patch prior solution vs fresh solve per edit-batch size",
        &[
            "workload",
            "batch",
            "repair ms",
            "fresh ms",
            "speedup",
            "repair edges",
            "fresh edges",
            "valid",
            "repair wins",
        ],
    )
}

/// Strong-scaling table (also saved as `BENCH_threads.json`). The column
/// set depends on the thread axis; `host` is the recorded host parallelism.
/// Besides the solver workloads, the table carries a skewed-workload row
/// that exercises the pool's work stealing; on a host without real
/// parallelism every speedup cell is annotated host-limited and the saved
/// JSON carries `host_limited: true`.
pub fn ablate_threads(threads: &[usize], host: usize) -> TableSchema {
    let headers: Vec<String> = std::iter::once("workload".to_string())
        .chain(threads.iter().map(|t| format!("{t} thr (ms)")))
        .chain(std::iter::once("speedup".to_string()))
        .collect();
    let refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    TableSchema::new(
        "ablate_threads",
        format!("Strong scaling — wall ms per thread count (host parallelism: {host})"),
        &refs,
    )
}

/// GPU cost-model audit table (one per graph).
pub fn model_report(graph_name: &str, num_vertices: usize, num_edges: usize) -> TableSchema {
    TableSchema::new(
        format!("model_report_{}", graph_name.replace('/', "_")),
        format!("{graph_name} — GPU counter breakdown (|V| = {num_vertices}, |E| = {num_edges})"),
        &[
            "algorithm",
            "rounds",
            "launches",
            "streamed",
            "gathered",
            "launch ms",
            "stream ms",
            "gather ms",
            "modeled ms",
        ],
    )
}

/// The engine batch report (`BENCH_engine.json`), mirrored from
/// `sb-engine` so the registry covers every results writer in the tree.
pub fn bench_engine() -> TableSchema {
    TableSchema::new(
        "BENCH_engine",
        sb_engine::report::REPORT_TITLE,
        &sb_engine::report::RECORD_KEYS,
    )
}

/// The serve loadgen report (`BENCH_serve.json`): client-observed latency
/// and throughput per phase (cold first-touch vs warm resident caches).
pub fn bench_serve() -> TableSchema {
    TableSchema::new(
        "BENCH_serve",
        "Serve loadgen — client-side latency per phase (cold vs warm caches)",
        &[
            "phase",
            "clients",
            "requests",
            "ok",
            "overloaded",
            "timeout",
            "error",
            "p50 ms",
            "p99 ms",
            "mean ms",
            "rps",
            "decomp hits",
        ],
    )
}

/// Every schema, instantiated with canonical parameters (both arches;
/// thread axis `1,2,4` at host parallelism 8; the `model_report` default
/// graph with the example sizes used in its documentation). The golden
/// registry test pins this rendering.
pub fn all() -> Vec<TableSchema> {
    let mut v = vec![table1(), table2(), fig2()];
    for arch in [Arch::Cpu, Arch::GpuSim] {
        v.push(fig3(arch));
        v.push(fig4(arch));
        v.push(fig5(arch));
    }
    v.push(color_overhead());
    v.push(ablate_iterations());
    for arch in [Arch::Cpu, Arch::GpuSim] {
        v.push(ablate_partitions("mm", arch));
        v.push(ablate_partitions("color", arch));
    }
    for arch in [Arch::Cpu, Arch::GpuSim] {
        v.push(ablate_bicc(arch));
    }
    v.push(ablate_frontier());
    v.push(ablate_outofcore());
    v.push(ablate_incremental());
    v.push(ablate_threads(&[1, 2, 4], 8));
    v.push(model_report("kron-g500-logn20", 52_000, 2_100_000));
    v.push(bench_engine());
    v.push(bench_serve());
    v
}

/// Render the whole registry as one text block (the golden file).
pub fn render_registry() -> String {
    let mut out = String::from(
        "# Results schema registry — every results/* table writer.\n\
         # Regenerate with: SBREAK_BLESS=1 cargo test --test golden\n\n",
    );
    for schema in all() {
        out.push_str(&schema.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in all() {
            assert!(seen.insert(s.name.clone()), "duplicate schema {}", s.name);
        }
    }

    #[test]
    fn schema_tables_accept_matching_rows() {
        let mut t = fig2().table();
        t.row(vec![
            "lp1".into(),
            "1".into(),
            "2".into(),
            "3".into(),
            "4".into(),
        ]);
        assert!(t.to_markdown().contains("Figure 2"));
    }

    #[test]
    fn engine_schema_mirrors_sb_engine() {
        let s = bench_engine();
        assert_eq!(s.headers.len(), sb_engine::report::RECORD_KEYS.len());
        assert_eq!(s.headers[0], "job");
    }

    #[test]
    fn registry_renders_every_schema() {
        let text = render_registry();
        for s in all() {
            assert!(text.contains(&s.name), "registry must list {}", s.name);
        }
    }
}

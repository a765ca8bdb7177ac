//! Benchmark harness for the symmetry-breaking study.
//!
//! One binary per table/figure of the paper (see DESIGN.md §4):
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table2` | Table II — dataset statistics |
//! | `fig2` | Figure 2 — decomposition times |
//! | `fig3` | Figure 3 — maximal matching (`--arch cpu` / `--arch gpu`) |
//! | `fig4` | Figure 4 — coloring |
//! | `fig5` | Figure 5 — MIS |
//! | `table1` | Table I — best decomposition + average speedup summary |
//! | `color_overhead` | §IV-D color-count overhead discussion |
//! | `ablate_partitions` | §III-D / §IV-D partition-count sweeps |
//! | `ablate_iterations` | §III-C iteration-count narrative (vain tendency) |
//! | `ablate_bicc` | extension: BRIDGE vs BICC composites |
//! | `ablate_threads` | extension: strong scaling over rayon pool sizes |
//! | `ablate_frontier` | extension: dense full-sweep rounds vs compacted worklists (writes `results/BENCH_frontier.json`, self-asserts the edge-scan reduction) |
//! | `model_report` | GPU cost-model audit: raw counter breakdown per algorithm |
//!
//! Shared flags (all binaries): `--scale <f>` (dataset size multiplier,
//! default 1.0), `--seed <u64>`, `--graphs <substring>` (filter), `--reps
//! <n>` (timing repetitions, minimum is reported), `--data-dir <path>`
//! (directory of real SuiteSparse `.mtx` files, used when present),
//! `--frontier dense|compact` (solver round representation, default
//! `compact`). Figure binaries also take `--arch cpu|gpu`.
//!
//! Every run verifies every solution it times and writes its table to
//! `results/<name>.csv` next to printing it.

pub mod harness;
pub mod perfdiff;
pub mod report;
pub mod runners;
pub mod schemas;

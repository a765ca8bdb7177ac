//! Reproduce the partition-count discussions (§III-D, §IV-D): MM-Rand
//! slows down as RAND partitions increase past the average degree, and
//! COLOR-Rand slows down because cross edges (hence conflicts) increase.

use sb_bench::harness::{load_suite, time_min, BenchConfig};
use sb_bench::report::fmt_ms;
use sb_bench::schemas;
use sb_core::coloring::vertex_coloring;
use sb_core::common::SolveOpts;
use sb_core::matching::maximal_matching;
use sb_core::solver::Algo;
use sb_core::verify::{check_coloring, check_maximal_matching};

const KS: [usize; 6] = [2, 4, 10, 20, 50, 100];

fn main() {
    let opts = SolveOpts::default();
    let cfg = BenchConfig::from_env();
    let suite = load_suite(&cfg);
    let arch = cfg.arch;

    let mm_schema = schemas::ablate_partitions("mm", arch);
    let col_schema = schemas::ablate_partitions("color", arch);
    let mut mm = mm_schema.table();
    let mut col = col_schema.table();
    for (sp, g) in &suite.graphs {
        let mut mm_row = vec![sp.name.to_string()];
        let mut col_row = vec![sp.name.to_string()];
        for k in KS {
            let (ms, run) = time_min(cfg.reps, || {
                maximal_matching(g, Algo::Rand { partitions: k }, None, arch, cfg.seed, &opts)
            });
            check_maximal_matching(g, &run.mate).unwrap();
            mm_row.push(fmt_ms(ms));
            let (ms, run) = time_min(cfg.reps, || {
                vertex_coloring(g, Algo::Rand { partitions: k }, None, arch, cfg.seed, &opts)
            });
            check_coloring(g, &run.color).unwrap();
            col_row.push(fmt_ms(ms));
        }
        mm.row(mm_row);
        col.row(col_row);
    }
    mm.emit(&mm_schema.name);
    col.emit(&col_schema.name);
}

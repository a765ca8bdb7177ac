//! Workload inputs: the Table II stand-ins as edge-list files, the six
//! Table I CPU configurations, the seeded random source, and the output
//! checks against the reference verifiers.

use sb_core::verify;
use sb_graph::csr::{Graph, INVALID};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Vertex-budget multiplier passed to `sbreak generate` for every graph.
/// At 0.1 the suite spans 3k–150k edges and one cold pass over all 72
/// jobs takes well under a second, so a run holds thousands of jobs.
pub const SCALE: f64 = 0.1;

/// The twelve Table II graphs, in table order.
pub const GRAPHS: [&str; 12] = [
    "c-73",
    "lp1",
    "Cit-Patents",
    "coAuthorsCiteseer",
    "germany-osm",
    "road-central",
    "kron-g500-logn20",
    "kron-g500-logn21",
    "rgg-n-2-23-s0",
    "rgg-n-2-24-s0",
    "web-Google",
    "webbase-1M",
];

/// Table I's six CPU configurations for one graph: MM baseline/RAND(P),
/// COLOR baseline/DEG2, MIS baseline/DEG2, with the paper's per-graph
/// partition count (P = 100 on the Kronecker graphs, 10 elsewhere).
pub fn configs(graph: &str) -> [(&'static str, String); 6] {
    let p = if graph.starts_with("kron") { 100 } else { 10 };
    [
        ("mm", "baseline".into()),
        ("mm", format!("rand:{p}")),
        ("color", "baseline".into()),
        ("color", "degk:2".into()),
        ("mis", "baseline".into()),
        ("mis", "degk:2".into()),
    ]
}

/// SplitMix64: the benchmark's only random source, so one `--seed` fixes
/// every generated input, schedule and edit batch.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seed for graph generation, derived from the workload seed. Solver seeds
/// are derived separately, so the program sees only the generated files
/// and request fields.
pub fn graph_seed(seed: u64) -> u64 {
    Rng::new(seed).next_u64() % 1_000_000
}

pub fn solver_seed(seed: u64) -> u64 {
    let mut r = Rng::new(seed);
    r.next_u64();
    r.next_u64() % 1_000_000
}

pub fn graph_path(dir: &Path, graph: &str) -> PathBuf {
    dir.join(format!("{graph}.edges"))
}

/// Write every suite graph into `dir` with `sbreak generate`.
pub fn generate_all(sbreak: &Path, dir: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for graph in GRAPHS {
        let out = graph_path(dir, graph);
        let status = Command::new(sbreak)
            .arg("generate")
            .arg(graph)
            .args(["--scale", &SCALE.to_string()])
            .args(["--seed", &graph_seed(seed).to_string()])
            .arg("-o")
            .arg(&out)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run sbreak generate: {e}"))?;
        if !status.success() {
            return Err(format!("sbreak generate {graph} failed: {status}"));
        }
    }
    Ok(())
}

/// Read a generated graph with the reference reader.
pub fn load(path: &Path) -> Result<Graph, String> {
    sb_graph::io::read_path(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn ids(line: &str, n: usize) -> Result<Vec<u32>, String> {
    line.split_whitespace()
        .map(|t| {
            t.parse::<u32>()
                .ok()
                .filter(|&x| x != INVALID)
                .ok_or_else(|| format!("bad solution line '{line}'"))
        })
        .collect::<Result<Vec<u32>, String>>()
        .and_then(|v| {
            if v.first().is_some_and(|&x| x as usize >= n) {
                Err(format!("vertex out of range in '{line}'"))
            } else {
                Ok(v)
            }
        })
}

/// Check a rendered solution (the text `sbreak` writes: `u v` matched
/// pairs, `v c` colors, or `v` set members per line) with the reference
/// verifiers.
pub fn verify_solution(g: &Graph, problem: &str, text: &str) -> Result<(), String> {
    let n = g.num_vertices();
    let lines = text.lines().filter(|l| !l.trim().is_empty());
    match problem {
        "mm" => {
            let mut mate = vec![INVALID; n];
            for line in lines {
                match ids(line, n)?[..] {
                    [u, v] if (v as usize) < n => {
                        mate[u as usize] = v;
                        mate[v as usize] = u;
                    }
                    _ => return Err(format!("bad matching line '{line}'")),
                }
            }
            verify::check_maximal_matching(g, &mate)
        }
        "color" => {
            let mut color = vec![INVALID; n];
            for line in lines {
                match ids(line, n)?[..] {
                    [v, c] => color[v as usize] = c,
                    _ => return Err(format!("bad coloring line '{line}'")),
                }
            }
            verify::check_coloring(g, &color)
        }
        "mis" => {
            let mut in_set = vec![false; n];
            for line in lines {
                match ids(line, n)?[..] {
                    [v] => in_set[v as usize] = true,
                    _ => return Err(format!("bad MIS line '{line}'")),
                }
            }
            verify::check_maximal_independent_set(g, &in_set)
        }
        other => Err(format!("unknown problem {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        sb_graph::builder::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn verifies_each_rendered_family() {
        let g = path4();
        assert!(verify_solution(&g, "mm", "0 1\n2 3\n").is_ok());
        assert!(verify_solution(&g, "mm", "1 2\n").is_ok());
        assert!(verify_solution(&g, "mm", "0 1\n").is_err(), "not maximal");
        assert!(verify_solution(&g, "color", "0 0\n1 1\n2 0\n3 1\n").is_ok());
        assert!(verify_solution(&g, "color", "0 0\n1 0\n2 1\n3 0\n").is_err());
        assert!(verify_solution(&g, "mis", "0\n2\n").is_ok());
        assert!(verify_solution(&g, "mis", "0\n").is_err(), "not maximal");
        assert!(verify_solution(&g, "mis", "9\n").is_err(), "out of range");
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(graph_seed(7), graph_seed(7));
        assert_ne!(graph_seed(7), graph_seed(8));
        assert_ne!(graph_seed(7), solver_seed(7));
    }
}

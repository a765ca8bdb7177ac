//! The solver registry: the one module that knows the solver vocabulary.
//!
//! The paper studies one matrix — three problems × {baseline, BRIDGE,
//! RAND, DEGk} × {CPU, GPU} — and every composite in it has the same
//! shape: decompose, then extend a partial solution with the
//! architecture's baseline. This module names that matrix once:
//!
//! * [`Problem`] × [`Algo`] = [`Solver`], with the one parser and label
//!   that jobs files, the serve wire, `sbreak` and fuzz case files share;
//! * [`Arch`]'s spellings;
//! * [`Decomposition`], the cacheable product of the decompose phase;
//! * [`Solution`], a solver output in family-agnostic form;
//! * [`solve`], the one dispatch on the problem.
//!
//! Each family keeps one entry point with one signature —
//! [`maximal_matching`], [`vertex_coloring`], [`maximal_independent_set`]
//! — taking `decomp: Option<&Decomposition>`: `None` decomposes inline
//! under a `decompose` phase span charged to the run's counters, `Some`
//! runs the solve phases only, byte-identical to the inline path at the
//! same seed.

use crate::coloring::vertex_coloring;
use crate::common::{Arch, RunStats, SolveOpts};
use crate::matching::maximal_matching;
use crate::mis::maximal_independent_set;
use crate::verify;
use sb_decompose::bicc::{decompose_bicc, BiccDecomposition};
use sb_decompose::bridge::{decompose_bridge, BridgeDecomposition};
use sb_decompose::degk::{decompose_degk, DegkDecomposition};
use sb_decompose::rand_part::{decompose_rand, RandDecomposition};
use sb_graph::csr::{Graph, INVALID};
use sb_par::counters::{Counters, Stopwatch};
use std::str::FromStr;
use std::time::Duration;

/// One of the three symmetry-breaking problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Maximal matching.
    Mm,
    /// Vertex coloring.
    Color,
    /// Maximal independent set.
    Mis,
}

impl Problem {
    /// Every problem, in label order.
    pub const ALL: [Problem; 3] = [Problem::Mm, Problem::Color, Problem::Mis];

    /// Short name: `mm`, `color` or `mis`.
    pub fn name(self) -> &'static str {
        match self {
            Problem::Mm => "mm",
            Problem::Color => "color",
            Problem::Mis => "mis",
        }
    }

    /// Whether two runs of the same job on the same graph must produce
    /// byte-identical solutions at pool width `threads`. Matching and MIS
    /// are byte-stable at every width. A coloring is only at one thread:
    /// VB's speculative conflict resolution is interleaving-dependent
    /// (DESIGN.md §9), so at more any verified coloring is a valid answer.
    pub fn byte_stable_at(self, threads: usize) -> bool {
        self != Problem::Color || threads <= 1
    }
}

impl FromStr for Problem {
    type Err = String;

    fn from_str(s: &str) -> Result<Problem, String> {
        Problem::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown problem '{s}' (expected mm, color, or mis)"))
    }
}

/// Which algorithm of a problem family to run. The decomposition a
/// composite consumes follows from the variant; the same decomposition
/// serves all three families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The architecture's baseline (GM/LMAX, VB/EB, Luby).
    Baseline,
    /// The BRIDGE composites (Algorithms 4, 7, 10).
    Bridge,
    /// The RAND composites (Algorithms 5, 8, 11).
    Rand {
        /// Number of RAND partitions.
        partitions: usize,
    },
    /// The DEGk composites (Algorithms 6, 9, 12).
    Degk {
        /// Degree threshold (paper: 2).
        k: usize,
    },
    /// The BICC composites (extension after Hochbaum; not part of the
    /// paper's evaluated set).
    Bicc,
}

impl Algo {
    /// The five algorithms, RAND and DEGk at the given parameters.
    pub fn all(partitions: usize, k: usize) -> [Algo; 5] {
        [
            Algo::Baseline,
            Algo::Bridge,
            Algo::Rand { partitions },
            Algo::Degk { k },
            Algo::Bicc,
        ]
    }

    /// Parse an algorithm for `problem`: `baseline`, `bridge`,
    /// `rand[:P]`, `degk[:K]` or `bicc`. RAND and DEGk also take the
    /// parameter glued on (`rand3`). A missing parameter takes the
    /// family default: 10 partitions for mm/mis, 2 for color, k = 2. A
    /// zero or non-numeric parameter is an error; the parameterless
    /// algorithms accept and ignore a positive one.
    pub fn parse(s: &str, problem: Problem) -> Result<Algo, String> {
        let (name, param) = match s.split_once(':') {
            Some((name, p)) => (name, Some(p)),
            None => ["rand", "degk"]
                .into_iter()
                .find_map(|n| Some((n, s.strip_prefix(n).filter(|p| !p.is_empty())?)))
                .map_or((s, None), |(n, p)| (n, Some(p))),
        };
        let param = match param.map(str::parse::<usize>) {
            None => None,
            Some(Ok(v)) if v >= 1 => Some(v),
            Some(_) => {
                return Err(format!(
                    "algo '{s}': the parameter must be a positive integer"
                ))
            }
        };
        Ok(match name {
            "baseline" => Algo::Baseline,
            "bridge" => Algo::Bridge,
            "rand" => Algo::Rand {
                partitions: param.unwrap_or(match problem {
                    Problem::Color => 2,
                    Problem::Mm | Problem::Mis => 10,
                }),
            },
            "degk" => Algo::Degk {
                k: param.unwrap_or(2),
            },
            "bicc" => Algo::Bicc,
            _ => {
                return Err(format!(
                    "unknown algo '{s}' (expected baseline, bridge, rand[:P], degk[:K], or bicc)"
                ))
            }
        })
    }

    /// Canonical spelling: `baseline`, `bridge`, `rand:P`, `degk:K`, `bicc`.
    pub fn label(self) -> String {
        match self {
            Algo::Baseline => "baseline".into(),
            Algo::Bridge => "bridge".into(),
            Algo::Rand { partitions } => format!("rand:{partitions}"),
            Algo::Degk { k } => format!("degk:{k}"),
            Algo::Bicc => "bicc".into(),
        }
    }

    /// Whether the decomposition depends on the solver seed (only RAND's
    /// partition draw does).
    pub fn uses_seed(self) -> bool {
        matches!(self, Algo::Rand { .. })
    }
}

/// One problem × algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Solver {
    /// The problem solved.
    pub problem: Problem,
    /// The algorithm solving it.
    pub algo: Algo,
}

impl Solver {
    /// Parse the `(problem, algo)` pair as jobs files, the serve wire and
    /// `sbreak solve --problem/--algo` spell it.
    pub fn parse(problem: &str, algo: &str) -> Result<Solver, String> {
        let problem = problem.parse()?;
        Ok(Solver {
            problem,
            algo: Algo::parse(algo, problem)?,
        })
    }

    /// Label like `mm-rand:10`; [`FromStr`] inverts it.
    pub fn label(self) -> String {
        format!("{}-{}", self.problem.name(), self.algo.label())
    }
}

impl FromStr for Solver {
    type Err = String;

    /// Parse a [`Solver::label`] (`mm-rand:10`; `mm-rand10` also works).
    fn from_str(s: &str) -> Result<Solver, String> {
        let (problem, algo) = s
            .split_once('-')
            .ok_or_else(|| format!("bad solver label '{s}' (expected e.g. mm-rand:3)"))?;
        Solver::parse(problem, algo)
    }
}

impl FromStr for Arch {
    type Err = String;

    fn from_str(s: &str) -> Result<Arch, String> {
        match s {
            "cpu" => Ok(Arch::Cpu),
            "gpu" | "gpu-sim" | "gpusim" => Ok(Arch::GpuSim),
            _ => Err(format!("unknown arch '{s}' (expected cpu or gpu)")),
        }
    }
}

/// A computed decomposition: the input a composite's solve phases run
/// over, and the unit the engine caches and shares across families.
#[derive(Debug)]
pub enum Decomposition {
    /// BRIDGE result.
    Bridge(BridgeDecomposition),
    /// RAND result.
    Rand(RandDecomposition),
    /// DEGk result.
    Degk(DegkDecomposition),
    /// BICC result.
    Bicc(BiccDecomposition),
}

impl Decomposition {
    /// Decompose `g` as `algo` needs, charging the work (and a `decompose`
    /// phase span) to `counters`; returns the decomposition and the time it
    /// took. The baseline needs none: `(None, 0)`, and no span. RAND draws
    /// its partition from `seed`.
    pub fn compute(
        g: &Graph,
        algo: Algo,
        seed: u64,
        counters: &Counters,
    ) -> (Option<Decomposition>, Duration) {
        if algo == Algo::Baseline {
            return (None, Duration::ZERO);
        }
        let sw = Stopwatch::start();
        let d = {
            let _span = counters.phase("decompose");
            match algo {
                Algo::Baseline => unreachable!(),
                Algo::Bridge => Decomposition::Bridge(decompose_bridge(g, counters)),
                Algo::Rand { partitions } => {
                    Decomposition::Rand(decompose_rand(g, partitions, seed, counters))
                }
                Algo::Degk { k } => Decomposition::Degk(decompose_degk(g, k, counters)),
                Algo::Bicc => Decomposition::Bicc(decompose_bicc(g, counters)),
            }
        };
        (Some(d), sw.elapsed())
    }

    /// Estimated resident size for cache weighting. The per-edge class
    /// vector dominates every variant; auxiliary component tables are the
    /// same order and not worth itemizing.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Decomposition::Bridge(d) => (d.class.len() + 4 * d.bridges.len()) as u64,
            Decomposition::Rand(d) => d.class.len() as u64,
            Decomposition::Degk(d) => d.class.len() as u64,
            Decomposition::Bicc(d) => d.is_articulation.len() as u64,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Decomposition::Bridge(_) => "BRIDGE",
            Decomposition::Rand(_) => "RAND",
            Decomposition::Degk(_) => "DEGk",
            Decomposition::Bicc(_) => "BICC",
        }
    }
}

/// The panic for an `(algo, decomposition)` pair that does not match.
pub(crate) fn mismatch(algo: Algo, d: Option<&Decomposition>) -> ! {
    panic!(
        "algo {} paired with {}",
        algo.label(),
        d.map_or("no decomposition", Decomposition::kind)
    )
}

/// A solver output in family-agnostic form, rendered and compared
/// byte-for-byte across cached, fresh and repaired paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solution {
    /// `mate[v]` per vertex (matching).
    Mate(Vec<u32>),
    /// Color per vertex.
    Color(Vec<u32>),
    /// In-set flag per vertex (MIS).
    Set(Vec<bool>),
}

impl Solution {
    /// Canonical text rendering — what `sbreak solve -o` and `batch
    /// --out-dir` write: `u v` per matched pair, `v c` per vertex, or one
    /// IN vertex per line.
    pub fn render(&self) -> String {
        match self {
            Solution::Mate(mate) => mate
                .iter()
                .enumerate()
                .filter(|&(v, &m)| (m as usize) > v && m != INVALID)
                .map(|(v, &m)| format!("{v} {m}\n"))
                .collect(),
            Solution::Color(color) => color
                .iter()
                .enumerate()
                .map(|(v, c)| format!("{v} {c}\n"))
                .collect(),
            Solution::Set(in_set) => in_set
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(v, _)| format!("{v}\n"))
                .collect(),
        }
    }

    /// Check the solution against the sequential oracles in [`verify`].
    pub fn verify(&self, g: &Graph) -> Result<(), String> {
        match self {
            Solution::Mate(mate) => verify::check_maximal_matching(g, mate),
            Solution::Color(color) => verify::check_coloring(g, color),
            Solution::Set(in_set) => verify::check_maximal_independent_set(g, in_set),
        }
    }

    /// One-phrase result summary for reports.
    pub fn summary(&self) -> String {
        match self {
            Solution::Mate(mate) => {
                format!("matching of {} edges", verify::matching_cardinality(mate))
            }
            Solution::Color(color) => {
                let colors = color
                    .iter()
                    .filter(|&&c| c != INVALID)
                    .max()
                    .map_or(0, |&c| c as usize + 1);
                format!("{colors} colors")
            }
            Solution::Set(in_set) => {
                format!("MIS of {} vertices", in_set.iter().filter(|&&b| b).count())
            }
        }
    }
}

/// Run `solver` on `g` through its family's entry point — the one place
/// that dispatches on the problem. `decomp` is `None` to decompose inline
/// or a precomputed [`Decomposition`] matching `solver.algo` (a mismatch
/// panics).
pub fn solve(
    g: &Graph,
    solver: Solver,
    decomp: Option<&Decomposition>,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
) -> (Solution, RunStats) {
    let algo = solver.algo;
    match solver.problem {
        Problem::Mm => {
            let run = maximal_matching(g, algo, decomp, arch, seed, opts);
            (Solution::Mate(run.mate), run.stats)
        }
        Problem::Color => {
            let run = vertex_coloring(g, algo, decomp, arch, seed, opts);
            (Solution::Color(run.color), run.stats)
        }
        Problem::Mis => {
            let run = maximal_independent_set(g, algo, decomp, arch, seed, opts);
            (Solution::Set(run.in_set), run.stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_graph::builder::from_edge_list;

    fn s(problem: Problem, algo: Algo) -> Solver {
        Solver { problem, algo }
    }

    #[test]
    fn every_accepted_spelling_parses_to_the_same_solver() {
        use Algo::*;
        use Problem::*;
        // `(problem, algo)` pairs as jobs files, the serve wire and
        // `sbreak solve` spell them, with the family defaults.
        let pairs: &[(&str, &str, Option<Solver>)] = &[
            ("mm", "baseline", Some(s(Mm, Baseline))),
            ("mm", "bridge", Some(s(Mm, Bridge))),
            ("mm", "rand", Some(s(Mm, Rand { partitions: 10 }))),
            ("color", "rand", Some(s(Color, Rand { partitions: 2 }))),
            ("mis", "rand", Some(s(Mis, Rand { partitions: 10 }))),
            ("mm", "degk", Some(s(Mm, Degk { k: 2 }))),
            ("color", "degk", Some(s(Color, Degk { k: 2 }))),
            ("mis", "bicc", Some(s(Mis, Bicc))),
            ("mm", "rand:10", Some(s(Mm, Rand { partitions: 10 }))),
            ("color", "rand:4", Some(s(Color, Rand { partitions: 4 }))),
            ("mis", "degk:3", Some(s(Mis, Degk { k: 3 }))),
            ("mm", "bridge:5", Some(s(Mm, Bridge))),
            ("mm", "rand3", Some(s(Mm, Rand { partitions: 3 }))),
            ("mm", "rand:0", None),
            ("mm", "degk:0", None),
            ("mm", "bridge:0", None),
            ("mm", "rand:x", None),
            ("mm", "rand:", None),
            ("mm", "rand0", None),
            ("mm", "randx", None),
            ("mm", "quux", None),
            ("mm", "baseline5", None),
            ("lp", "rand", None),
            ("", "baseline", None),
        ];
        for &(problem, algo, want) in pairs {
            assert_eq!(
                Solver::parse(problem, algo).ok(),
                want,
                "({problem}, {algo})"
            );
        }
        // Labels, as reports and fuzz case files carry them (the case-file
        // form before `@`; the colon was once omitted).
        let labels: &[(&str, Option<Solver>)] = &[
            ("mm-baseline", Some(s(Mm, Baseline))),
            ("mm-rand:3", Some(s(Mm, Rand { partitions: 3 }))),
            ("mm-rand3", Some(s(Mm, Rand { partitions: 3 }))),
            ("mis-degk2", Some(s(Mis, Degk { k: 2 }))),
            ("color-degk:2", Some(s(Color, Degk { k: 2 }))),
            ("color-bicc", Some(s(Color, Bicc))),
            ("mm-rand0", None),
            ("mm-rand:0", None),
            ("mis-degk:0", None),
            ("mm-randx", None),
            ("tsp-baseline", None),
            ("mm", None),
            ("", None),
        ];
        for &(label, want) in labels {
            assert_eq!(label.parse::<Solver>().ok(), want, "{label}");
        }
        let archs = [
            ("cpu", Some(Arch::Cpu)),
            ("gpu", Some(Arch::GpuSim)),
            ("gpu-sim", Some(Arch::GpuSim)),
            ("gpusim", Some(Arch::GpuSim)),
            ("tpu", None),
            ("", None),
        ];
        for (spelling, want) in archs {
            assert_eq!(spelling.parse::<Arch>().ok(), want, "{spelling}");
        }
        for arch in [Arch::Cpu, Arch::GpuSim] {
            assert_eq!(arch.to_string().parse::<Arch>(), Ok(arch));
        }
        // label∘parse is the identity on labels, parse∘label on solvers.
        for problem in Problem::ALL {
            for algo in Algo::all(3, 2) {
                let solver = s(problem, algo);
                let label = solver.label();
                assert_eq!(label.parse::<Solver>(), Ok(solver), "{label}");
                assert_eq!(label.parse::<Solver>().unwrap().label(), label);
            }
        }
        assert_eq!(s(Mm, Baseline).label(), "mm-baseline");
        assert_eq!(s(Color, Rand { partitions: 2 }).label(), "color-rand:2");
        assert_eq!(s(Mis, Degk { k: 2 }).label(), "mis-degk:2");
    }

    #[test]
    #[should_panic(expected = "algo rand:3 paired with BRIDGE")]
    fn a_mismatched_decomposition_panics_naming_both() {
        let g = from_edge_list(3, &[(0, 1), (1, 2)]);
        let (d, _) = Decomposition::compute(&g, Algo::Bridge, 0, &Counters::new());
        let algo = Algo::Rand { partitions: 3 };
        let opts = SolveOpts::default();
        maximal_matching(&g, algo, d.as_ref(), Arch::Cpu, 0, &opts);
    }
}

//! The solver configuration matrix the fuzzer sweeps, with stable string
//! labels so counterexample files can name — and replay — the exact
//! configuration that failed.

use sb_core::solver::{Algo, Problem, Solver};
use sb_core::Arch;
use std::str::FromStr;

/// One solver configuration: a registry [`Solver`] on one architecture.
/// Frontier mode and thread count are *not* part of the configuration —
/// the oracle runs every configuration at dense/compact × 1/N and
/// cross-checks, which is the whole point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Problem × algorithm.
    pub solver: Solver,
    /// Architecture.
    pub arch: Arch,
}

/// RAND partition count used across the fuzz matrix (small, so tiny
/// graphs still split into several non-trivial pieces).
pub const FUZZ_PARTITIONS: usize = 3;
/// DEGk threshold used across the fuzz matrix (the paper's k = 2).
pub const FUZZ_K: usize = 2;

impl SolverConfig {
    /// Every configuration: 3 families × 5 algorithms × 2 architectures =
    /// 30, swept family by family.
    pub fn all() -> Vec<SolverConfig> {
        let mut v = Vec::with_capacity(30);
        for problem in [Problem::Mm, Problem::Mis, Problem::Color] {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                for algo in Algo::all(FUZZ_PARTITIONS, FUZZ_K) {
                    let solver = Solver { problem, algo };
                    v.push(SolverConfig { solver, arch });
                }
            }
        }
        v
    }

    /// Stable label `<solver label>@<arch>`, e.g. `mm-rand:3@gpu`;
    /// [`FromStr`] inverts it.
    pub fn label(&self) -> String {
        format!("{}@{}", self.solver.label(), self.arch)
    }
}

impl FromStr for SolverConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<SolverConfig, String> {
        let (solver, arch) = s
            .split_once('@')
            .ok_or_else(|| format!("bad config label '{s}' (expected e.g. mm-rand:3@gpu)"))?;
        Ok(SolverConfig {
            solver: solver.parse()?,
            arch: arch.parse()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_complete_and_labels_round_trip() {
        let all = SolverConfig::all();
        assert_eq!(all.len(), 30);
        for cfg in all {
            let label = cfg.label();
            assert_eq!(label.parse::<SolverConfig>(), Ok(cfg), "{label}");
        }
        // Case files written before labels carried the colon still replay.
        let glued = "mm-rand3@gpu".parse::<SolverConfig>().unwrap();
        assert_eq!(glued.label(), "mm-rand:3@gpu");
    }

    #[test]
    fn bad_labels_are_rejected() {
        for bad in [
            "",
            "mm-rand3",
            "mm-randx@gpu",
            "tsp-baseline@cpu",
            "mm@cpu",
            "mm-rand0@cpu",
            "mm-rand:0@cpu",
            "mis-degk:0@cpu",
            "mm-rand:3@tpu",
        ] {
            assert!(bad.parse::<SolverConfig>().is_err(), "{bad}");
        }
    }
}

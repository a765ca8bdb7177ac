//! Vertex coloring (Section IV of the paper).
//!
//! Baselines: [`vb`] (Algorithm VB — the vertex-based speculative colorer of
//! Deveci et al. with a fixed-size FORBIDDEN window, which the paper found
//! to be the best multicore-CPU baseline), [`eb`] (Algorithm EB — the
//! edge-based variant with a 32-bit availability mask, the GPU baseline),
//! and [`jp`] (Jones–Plassmann, kept as an ablation baseline).
//!
//! Composites ([`decomp`]): COLOR-Bridge, COLOR-Rand, COLOR-Degk
//! (Algorithms 7–9). COLOR-Degk is the paper's CPU winner: after coloring
//! `G_H`, the degree-≤k remainder needs only a (k+1)-entry FORBIDDEN window
//! above `max(C_H)`.

pub mod decomp;
pub mod eb;
pub mod jp;
pub mod vb;

use crate::common::{Arch, RunCtx, RunStats, SolveOpts};
use crate::solver::{self, Algo, Decomposition};
use sb_graph::csr::{Graph, INVALID};
use std::time::Duration;

/// Result of a coloring run.
#[derive(Debug, Clone)]
pub struct ColoringRun {
    /// Color per vertex (dense from 0; no `INVALID` left on success).
    pub color: Vec<u32>,
    /// Timing and counters.
    pub stats: RunStats,
}

impl ColoringRun {
    /// Number of distinct colors used.
    pub fn num_colors(&self) -> usize {
        crate::verify::color_count(&self.color)
    }
}

/// Run a vertex-coloring algorithm on `g`: the architecture's baseline
/// (VB on CPU, EB on GPU-sim) or one of the composites COLOR-Bridge,
/// COLOR-Rand, COLOR-Degk (Algorithms 7–9) and COLOR-Bicc.
///
/// `decomp` is `None` to decompose inline or a precomputed decomposition
/// matching `algo` (solve phases only, zero reported decomposition time,
/// the same coloring); see [`crate::matching::maximal_matching`].
pub fn vertex_coloring(
    g: &Graph,
    algo: Algo,
    decomp: Option<&Decomposition>,
    arch: Arch,
    seed: u64,
    opts: &SolveOpts,
) -> ColoringRun {
    use Decomposition as D;
    let counters = opts.counters();
    let (inline, decompose_time) = match decomp {
        Some(_) => (None, Duration::ZERO),
        None => Decomposition::compute(g, algo, seed, &counters),
    };
    let mut run = RunCtx::new(g, arch, seed, opts.frontier, &counters, decompose_time);
    let mut color = vec![INVALID; g.num_vertices()];
    let c = &mut color;
    match (algo, decomp.or(inline.as_ref())) {
        (Algo::Baseline, None) => decomp::baseline(&mut run, c),
        (Algo::Bridge, Some(D::Bridge(d))) => decomp::color_bridge(&mut run, d, c),
        (Algo::Rand { .. }, Some(D::Rand(d))) => decomp::color_rand(&mut run, d, c),
        (Algo::Degk { .. }, Some(D::Degk(d))) => decomp::color_degk(&mut run, d, c),
        (Algo::Bicc, Some(D::Bicc(d))) => decomp::color_bicc(&mut run, d, c),
        (algo, d) => solver::mismatch(algo, d),
    }
    ColoringRun {
        color,
        stats: run.finish(),
    }
}

/// FORBIDDEN-window size the paper uses for VB on the CPU: the average
/// degree of the graph being colored (at least 2).
pub(crate) fn vb_window(g: &Graph) -> usize {
    (g.avg_degree().ceil() as usize).max(2)
}

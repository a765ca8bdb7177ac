//! The engine proper: graph sources, the two LRU caches, and the cached
//! solve path.

use crate::cache::{CacheStats, Lru};
use crate::fingerprint::{self, fingerprint_graph, fingerprint_with_edits_from};
use sb_core::common::{Arch, RunStats, SolveOpts};
use sb_core::solver::{self, Algo, Decomposition, Solution, Solver};
use sb_datasets::suite::{generate, spec, GraphId, Scale};
use sb_decompose::degk::DegkDecomposition;
use sb_decompose::rand_part::RandDecomposition;
use sb_graph::csr::Graph;
use sb_graph::editlog::{EditLog, Overlay};
use sb_par::counters::Counters;
use sb_par::rng::{bounded, hash2};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Where a job's graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// A Table II stand-in generated at the given scale factor and seed.
    Gen {
        /// Registry entry.
        id: GraphId,
        /// Registry name (`lp1`, `web-Google`, …).
        name: String,
        /// Multiplier on the default vertex budget.
        scale: f64,
        /// Generation seed.
        seed: u64,
    },
    /// An edge-list or Matrix-Market file on disk.
    File(PathBuf),
    /// A graph carried inline in the source string itself
    /// (`inline:<n>:<u>-<v>,<u>-<v>,...`). This is the wire form `sbreak
    /// serve` clients and the fuzz serve axis use to ship exact graphs —
    /// vertex count included, so trailing isolated vertices survive —
    /// without touching the filesystem.
    Inline {
        /// Vertex count.
        n: usize,
        /// Undirected edge list.
        edges: Vec<(u32, u32)>,
    },
}

impl GraphSource {
    /// Render `(n, edges)` in the `inline:` source-string form accepted by
    /// [`GraphSource::parse`].
    pub fn encode_inline(n: usize, edges: &[(u32, u32)]) -> String {
        let body: Vec<String> = edges.iter().map(|(u, v)| format!("{u}-{v}")).collect();
        format!("inline:{n}:{}", body.join(","))
    }

    /// Parse a job's `graph` field: `gen:<name>` resolves against the
    /// Table II registry, `inline:` carries the graph in the string, and
    /// anything else is a path.
    pub fn parse(input: &str, scale: f64, seed: u64) -> Result<GraphSource, String> {
        if let Some(body) = input.strip_prefix("inline:") {
            let (n, edge_text) = body
                .split_once(':')
                .ok_or("inline graph must be 'inline:<n>:<u>-<v>,...'")?;
            let n: usize = n
                .parse()
                .map_err(|_| format!("bad inline vertex count '{n}'"))?;
            let mut edges = Vec::new();
            for pair in edge_text.split(',').filter(|p| !p.is_empty()) {
                let (u, v) = pair
                    .split_once('-')
                    .ok_or_else(|| format!("bad inline edge '{pair}' (expected 'u-v')"))?;
                let u: u32 = u
                    .parse()
                    .map_err(|_| format!("bad inline endpoint '{u}'"))?;
                let v: u32 = v
                    .parse()
                    .map_err(|_| format!("bad inline endpoint '{v}'"))?;
                if (u as usize) >= n || (v as usize) >= n {
                    return Err(format!("inline edge {u}-{v} out of range for n={n}"));
                }
                edges.push((u, v));
            }
            return Ok(GraphSource::Inline { n, edges });
        }
        if let Some(name) = input.strip_prefix("gen:") {
            let id = GraphId::ALL
                .into_iter()
                .find(|&id| spec(id).name == name)
                .ok_or_else(|| {
                    let names: Vec<&str> =
                        GraphId::ALL.into_iter().map(|id| spec(id).name).collect();
                    format!("unknown graph '{name}'; available: {}", names.join(", "))
                })?;
            Ok(GraphSource::Gen {
                id,
                name: name.to_string(),
                scale,
                seed,
            })
        } else {
            Ok(GraphSource::File(PathBuf::from(input)))
        }
    }

    /// The graph-cache key. Generated graphs key on `(name, scale, seed)`;
    /// files key on their path (content changes on disk between jobs of
    /// one batch are not tracked).
    pub fn key(&self) -> String {
        match self {
            GraphSource::Gen {
                name, scale, seed, ..
            } => format!("gen:{name}@{scale}#{seed}"),
            GraphSource::File(p) => format!("file:{}", p.display()),
            GraphSource::Inline { n, edges } => {
                // Content-hash the edge list so distinct inline graphs get
                // distinct keys without embedding the whole list.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                let mut mix = |x: u64| {
                    h ^= x;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                };
                mix(*n as u64);
                for &(u, v) in edges {
                    mix(((u as u64) << 32) | v as u64);
                }
                format!("inline:{n}:{}#{h:016x}", edges.len())
            }
        }
    }

    /// Load (generate, read, or materialize) the graph.
    pub fn load(&self) -> Result<Graph, String> {
        match self {
            GraphSource::Gen {
                id, scale, seed, ..
            } => Ok(generate(*id, Scale::Factor(*scale), *seed)),
            GraphSource::File(p) => {
                sb_graph::io::read_path(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
            }
            GraphSource::Inline { n, edges } => Ok(sb_graph::builder::from_edge_list(*n, edges)),
        }
    }
}

/// Decomposition-cache key: graph content, decomposition, params, seed.
/// The algorithm names the decomposition, so every problem family's
/// composite of one kind shares the entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecompKey {
    /// Seeded content fingerprint of the graph.
    pub fingerprint: u64,
    /// The decomposing algorithm and its parameters (never the baseline).
    pub algo: Algo,
    /// Solver seed for seed-dependent decompositions, 0 otherwise.
    pub seed: u64,
}

impl DecompKey {
    /// The key for `algo`'s decomposition of the graph with `fingerprint`
    /// at `seed`.
    pub fn new(fingerprint: u64, algo: Algo, seed: u64) -> DecompKey {
        DecompKey {
            fingerprint,
            algo,
            seed: if algo.uses_seed() { seed } else { 0 },
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Bound on each LRU cache (graphs and decompositions); 0 disables
    /// caching entirely.
    pub cache_cap: usize,
    /// Seed for the graph fingerprint hash.
    pub fingerprint_seed: u64,
    /// Per-tenant resident-byte quota applied to each cache (`None` =
    /// unlimited, the single-tenant default). See [`crate::cache::Lru`]
    /// for the burst-then-protect eviction semantics.
    pub tenant_quota_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_cap: 64,
            fingerprint_seed: fingerprint::DEFAULT_SEED,
            tenant_quota_bytes: None,
        }
    }
}

/// Outcome of one cached solve (see [`Engine::solve_on`]).
#[derive(Debug)]
pub struct SolveOutcome {
    /// The verified-comparable output.
    pub solution: Solution,
    /// Solver stats; `decompose_time` is the *measured* decomposition time
    /// on a cache miss and zero on a hit.
    pub stats: RunStats,
    /// `Some(true)` when the decomposition came from the cache,
    /// `Some(false)` when it was computed here, `None` for baselines.
    pub decomp_cached: Option<bool>,
}

/// The multi-tenant batch-solve engine: two bounded LRUs (parsed graphs by
/// source key; decompositions by `(fingerprint, algorithm, seed)`) and
/// the scheduling machinery in [`crate::batch`].
pub struct Engine {
    pub(crate) fingerprint_seed: u64,
    pub(crate) graphs: Lru<String, (Arc<Graph>, u64)>,
    pub(crate) decomps: Lru<DecompKey, Arc<Decomposition>>,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Engine {
        let mut graphs = Lru::with_metrics(cfg.cache_cap, "graph");
        let mut decomps = Lru::with_metrics(cfg.cache_cap, "decomp");
        graphs.set_tenant_quota(cfg.tenant_quota_bytes);
        decomps.set_tenant_quota(cfg.tenant_quota_bytes);
        Engine {
            fingerprint_seed: cfg.fingerprint_seed,
            graphs,
            decomps,
        }
    }

    /// An engine with the given cache bound and default fingerprint seed.
    pub fn with_cap(cache_cap: usize) -> Engine {
        Engine::new(EngineConfig {
            cache_cap,
            ..EngineConfig::default()
        })
    }

    /// Graph-cache statistics.
    pub fn graph_cache_stats(&self) -> CacheStats {
        self.graphs.stats()
    }

    /// Decomposition-cache statistics.
    pub fn decomp_cache_stats(&self) -> CacheStats {
        self.decomps.stats()
    }

    /// Fetch (or load and memoize) the graph for `src`. Returns the shared
    /// graph, its fingerprint, and whether it came from the cache.
    pub fn graph(&mut self, src: &GraphSource) -> Result<(Arc<Graph>, u64, bool), String> {
        let key = src.key();
        if let Some((g, fp)) = self.graphs.get(&key) {
            return Ok((g.clone(), *fp, true));
        }
        let g = Arc::new(src.load()?);
        let fp = fingerprint_graph(&g, self.fingerprint_seed);
        let bytes = g.resident_bytes() as u64;
        self.graphs.insert_weighted(key, (g.clone(), fp), bytes);
        Ok((g, fp, false))
    }

    /// Solve `solver` on an already-loaded graph through the decomposition
    /// cache. This is the synchronous library path (current thread pool,
    /// no stop of its own); [`Engine::run_job`] wraps the same computation
    /// with source resolution, thread pinning, and a timeout.
    pub fn solve_on(
        &mut self,
        g: &Arc<Graph>,
        solver: Solver,
        arch: Arch,
        seed: u64,
        opts: &SolveOpts,
    ) -> SolveOutcome {
        let fp = fingerprint_graph(g, self.fingerprint_seed);
        self.solve_on_fingerprinted(g, fp, solver, arch, seed, opts)
    }

    /// [`Engine::solve_on`] with the graph's cache fingerprint supplied by
    /// the caller instead of recomputed. This is how edited graphs keep
    /// their `(base, edit log)` identity: [`Engine::apply_edits`] keys its
    /// patched decompositions under
    /// [`crate::fingerprint::fingerprint_with_edits`], and solves against
    /// the materialized graph must probe under that same key (the
    /// heap content hash of the materialized CSR would both miss the
    /// patched entries and cost O(m) on every call).
    pub fn solve_on_fingerprinted(
        &mut self,
        g: &Arc<Graph>,
        fp: u64,
        solver: Solver,
        arch: Arch,
        seed: u64,
        opts: &SolveOpts,
    ) -> SolveOutcome {
        if solver.algo == Algo::Baseline {
            let (solution, stats) = solver::solve(g, solver, None, arch, seed, opts);
            return SolveOutcome {
                solution,
                stats,
                decomp_cached: None,
            };
        }
        let key = DecompKey::new(fp, solver.algo, seed);
        let (d, cached, decompose_time) = match self.decomps.get(&key) {
            Some(d) => (d.clone(), true, Duration::ZERO),
            None => {
                // Counted apart from the solve (into the same trace sink),
                // so the run's stats cover the solve phases only.
                let (d, dt) = Decomposition::compute(g, solver.algo, seed, &opts.counters());
                let d = Arc::new(d.expect("a decomposing algorithm"));
                let bytes = d.approx_bytes();
                self.decomps.insert_weighted(key, d.clone(), bytes);
                (d, false, dt)
            }
        };
        let (solution, mut stats) = solver::solve(g, solver, Some(&d), arch, seed, opts);
        stats.decompose_time = decompose_time;
        SolveOutcome {
            solution,
            stats,
            decomp_cached: Some(cached),
        }
    }

    /// Apply an edit log against a loaded base graph: materialize the
    /// edited CSR (memoized under its `(base, edit log)` fingerprint) and
    /// *patch* every cached decomposition of the base across to the new
    /// fingerprint instead of letting it go cold — the warm entries follow
    /// the graph. DEGk patches by re-testing only edit-touched vertex
    /// degrees; RAND extends its pure per-vertex hash draw; BRIDGE and
    /// BICC recompute (2-edge-connectivity and block structure are global
    /// invariants a local edit can reshape). Patched entries are
    /// byte-identical to freshly computed ones — the fuzz engine axis and
    /// the unit tests below pin this.
    ///
    /// Cache inserts are charged to `tenant` (use
    /// [`crate::cache::DEFAULT_TENANT`]-equivalent semantics by passing
    /// `"default"`-style names; serve passes the session tenant).
    pub fn apply_edits(&mut self, tenant: &str, base: &Arc<Graph>, edits: &EditLog) -> EditOutcome {
        let base_fp = fingerprint_graph(base, self.fingerprint_seed);
        self.apply_edits_from(tenant, base, base_fp, edits)
    }

    /// [`Engine::apply_edits`] when the base's fingerprint is already
    /// known. The base never gets re-hashed: `base_fp` both seeds the
    /// edit fingerprint and selects which cached decompositions to patch.
    /// This is what keeps a long-lived serve mutation stream O(batch)
    /// after a rebase — the stream's base is then a materialized heap
    /// graph whose content hash would be O(m) per mutate, but the stream
    /// carries the fingerprint it got from the rebase instead.
    ///
    /// `base_fp` must be the fingerprint this engine would assign `base`
    /// (from [`Engine::graph`], a prior [`EditOutcome::fingerprint`], or
    /// [`fingerprint_graph`] under the engine's seed); a mismatched pair
    /// can only miss warm entries and create duplicate keys, never alias
    /// a wrong graph.
    pub fn apply_edits_from(
        &mut self,
        tenant: &str,
        base: &Arc<Graph>,
        base_fp: u64,
        edits: &EditLog,
    ) -> EditOutcome {
        let fp = fingerprint_with_edits_from(base_fp, edits, self.fingerprint_seed);
        if edits.is_empty() {
            // No edits: the base *is* the edited graph, and its cached
            // decompositions are already keyed under `fp` (the edit
            // fingerprint degenerates to the base's). Patching here would
            // re-insert every entry onto its own key — re-charging other
            // tenants' bytes to this one for no structural change.
            return EditOutcome {
                graph: base.clone(),
                fingerprint: fp,
                graph_cached: true,
                decomps_patched: 0,
            };
        }
        let key = format!("edit:{fp:016x}");
        if let Some((g, cached_fp)) = self.graphs.get(&key) {
            return EditOutcome {
                graph: g.clone(),
                fingerprint: *cached_fp,
                graph_cached: true,
                decomps_patched: 0,
            };
        }
        let overlay = edits.apply(base);
        let edited = Arc::new(overlay.materialize());
        let mut decomps_patched = 0;
        for old_key in self.decomps.keys() {
            if old_key.fingerprint != base_fp {
                continue;
            }
            let new_key = DecompKey::new(fp, old_key.algo, old_key.seed);
            let Some(old) = self.decomps.get(&old_key).cloned() else {
                continue;
            };
            let patched = patch_decomposition(&old, &overlay, &edited, old_key.algo, old_key.seed);
            let bytes = patched.approx_bytes();
            self.decomps
                .insert_weighted_for(tenant, new_key, Arc::new(patched), bytes);
            decomps_patched += 1;
        }
        let bytes = edited.resident_bytes() as u64;
        self.graphs
            .insert_weighted_for(tenant, key, (edited.clone(), fp), bytes);
        EditOutcome {
            graph: edited,
            fingerprint: fp,
            graph_cached: false,
            decomps_patched,
        }
    }

    /// Test hook: corrupt every cached decomposition in place (rotate
    /// every edge's class / flip every articulation flag), simulating a
    /// stale entry left behind for a different graph. Returns how many
    /// entries were corrupted. Used by the fuzz layer's planted
    /// stale-cache self-test — a correct engine never mutates a cached
    /// view, so the byte-equality oracle must catch this.
    #[doc(hidden)]
    pub fn corrupt_cached_decompositions(&mut self) -> usize {
        let mut corrupted = 0;
        for key in self.decomps.keys() {
            let Some(entry) = self.decomps.get_mut(&key) else {
                continue;
            };
            let Some(d) = Arc::get_mut(entry) else {
                continue;
            };
            match d {
                Decomposition::Bridge(b) => {
                    for c in &mut b.class {
                        *c ^= 1;
                    }
                }
                Decomposition::Rand(r) => {
                    for c in &mut r.class {
                        *c ^= 1;
                    }
                }
                Decomposition::Degk(d) => {
                    for c in &mut d.class {
                        *c = (*c + 1) % 3;
                    }
                }
                Decomposition::Bicc(b) => {
                    for a in &mut b.is_articulation {
                        *a = !*a;
                    }
                }
            }
            corrupted += 1;
        }
        corrupted
    }
}

/// Outcome of [`Engine::apply_edits`].
#[derive(Debug)]
pub struct EditOutcome {
    /// The materialized edited graph (shared from the cache when warm).
    pub graph: Arc<Graph>,
    /// The `(base, edit log)` fingerprint — the cache identity of the
    /// edited graph; pass it to [`Engine::solve_on_fingerprinted`].
    pub fingerprint: u64,
    /// Whether the edited graph was already resident.
    pub graph_cached: bool,
    /// How many cached decompositions of the base were patched across.
    pub decomps_patched: usize,
}

/// Carry one cached decomposition of the base graph across an edit,
/// producing the decomposition of `edited` byte-identical to computing it
/// fresh. DEGk re-tests degrees only for edit-touched vertices (untouched
/// degrees cannot change); RAND's per-vertex draw is the pure hash of
/// `(seed, v)`, so existing draws are reused verbatim and new vertices
/// drawn on demand. Per-edge class vectors are re-derived over the edited
/// edge list in either case — edge ids shift on rebuild, so the class
/// array cannot be spliced, but deriving a class from two vertex flags is
/// O(1) per edge with no graph traversal. BRIDGE and BICC recompute.
fn patch_decomposition(
    old: &Decomposition,
    overlay: &Overlay<'_>,
    edited: &Graph,
    algo: Algo,
    seed: u64,
) -> Decomposition {
    let n = edited.num_vertices();
    match old {
        Decomposition::Degk(old) => {
            let k = old.k;
            let mut is_high = old.is_high.clone();
            is_high.resize(n, false);
            for v in overlay.touched() {
                is_high[v as usize] = edited.degree(v) > k;
            }
            let class: Vec<u8> = edited
                .edge_list()
                .iter()
                .map(|&[u, v]| match (is_high[u as usize], is_high[v as usize]) {
                    (true, true) => DegkDecomposition::HIGH,
                    (false, false) => DegkDecomposition::LOW,
                    _ => DegkDecomposition::CROSS,
                })
                .collect();
            let mut counts = [0usize; 3];
            for &c in &class {
                counts[c as usize] += 1;
            }
            Decomposition::Degk(DegkDecomposition {
                k,
                is_high,
                class,
                m_high: counts[0],
                m_low: counts[1],
                m_cross: counts[2],
            })
        }
        Decomposition::Rand(old) => {
            let k = old.k;
            let base_n = old.part.len();
            let mut part = old.part.clone();
            part.resize(n, 0);
            for (v, p) in part.iter_mut().enumerate().skip(base_n) {
                *p = bounded(hash2(seed, v as u64), k as u64) as u32;
            }
            let class: Vec<u8> = edited
                .edge_list()
                .iter()
                .map(|&[u, v]| u8::from(part[u as usize] != part[v as usize]))
                .collect();
            let m_cross = class
                .iter()
                .filter(|&&c| c == RandDecomposition::CROSS)
                .count();
            Decomposition::Rand(RandDecomposition {
                k,
                part,
                m_induced: edited.num_edges() - m_cross,
                m_cross,
                class,
            })
        }
        Decomposition::Bridge(_) | Decomposition::Bicc(_) => {
            let (d, _) = Decomposition::compute(edited, algo, seed, &Counters::new());
            d.expect("BRIDGE and BICC decompose")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::common::FrontierMode;
    use sb_core::solver::Problem;
    use sb_graph::builder::from_edge_list;

    fn chain_graph(n: u32) -> Arc<Graph> {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Arc::new(from_edge_list(n as usize, &edges))
    }

    fn by_label(label: &str) -> Solver {
        label.parse().unwrap()
    }

    #[test]
    fn cached_path_matches_direct_opts_path_bytewise() {
        // The core byte-identity contract: engine (fresh miss, then cache
        // hit) == the family entry point decomposing inline, for every
        // solver family on both archs in every frontier mode.
        let g = chain_graph(40);
        for problem in Problem::ALL {
            for algo in Algo::all(3, 2) {
                let solver = Solver { problem, algo };
                for arch in [Arch::Cpu, Arch::GpuSim] {
                    for mode in [FrontierMode::Dense, FrontierMode::Compact] {
                        let opts = SolveOpts::with_mode(mode);
                        let tag = format!("{}@{arch}/{mode}", solver.label());
                        let mut engine = Engine::with_cap(8);
                        let fresh = engine.solve_on(&g, solver, arch, 7, &opts);
                        let hit = engine.solve_on(&g, solver, arch, 7, &opts);
                        assert_eq!(fresh.solution, hit.solution, "cache hit diverged for {tag}");
                        if algo != Algo::Baseline {
                            assert_eq!(fresh.decomp_cached, Some(false));
                            assert_eq!(hit.decomp_cached, Some(true));
                        }
                        let (direct, _) = solver::solve(&g, solver, None, arch, 7, &opts);
                        assert_eq!(
                            fresh.solution, direct,
                            "engine output differs from the inline path for {tag}"
                        );
                        fresh.solution.verify(&g).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn decompositions_shared_across_problem_families() {
        // COLOR-Degk2 and MIS-Degk2 on the same graph share one DEGk
        // decomposition; the second solve must be a cache hit.
        let g = chain_graph(64);
        let mut engine = Engine::with_cap(8);
        let opts = SolveOpts::default();
        let a = engine.solve_on(&g, by_label("color-degk:2"), Arch::Cpu, 5, &opts);
        let b = engine.solve_on(&g, by_label("mis-degk:2"), Arch::Cpu, 5, &opts);
        assert_eq!(a.decomp_cached, Some(false));
        assert_eq!(b.decomp_cached, Some(true), "DEGk must be shared");
        b.solution.verify(&g).unwrap();
    }

    #[test]
    fn rand_cache_key_includes_seed() {
        let g = chain_graph(64);
        let mut engine = Engine::with_cap(8);
        let opts = SolveOpts::default();
        let solver = by_label("mm-rand:4");
        assert_eq!(
            engine
                .solve_on(&g, solver, Arch::Cpu, 1, &opts)
                .decomp_cached,
            Some(false)
        );
        assert_eq!(
            engine
                .solve_on(&g, solver, Arch::Cpu, 2, &opts)
                .decomp_cached,
            Some(false),
            "different seed must not hit RAND's cache entry"
        );
        // Seed-independent DEGk: different seeds share.
        let dk = by_label("mm-degk:2");
        assert_eq!(
            engine.solve_on(&g, dk, Arch::Cpu, 1, &opts).decomp_cached,
            Some(false)
        );
        assert_eq!(
            engine.solve_on(&g, dk, Arch::Cpu, 2, &opts).decomp_cached,
            Some(true)
        );
    }

    #[test]
    fn cap_zero_never_caches() {
        let g = chain_graph(32);
        let mut engine = Engine::with_cap(0);
        let opts = SolveOpts::default();
        let solver = by_label("mis-degk:2");
        let a = engine.solve_on(&g, solver, Arch::Cpu, 3, &opts);
        let b = engine.solve_on(&g, solver, Arch::Cpu, 3, &opts);
        assert_eq!(a.decomp_cached, Some(false));
        assert_eq!(b.decomp_cached, Some(false));
        assert_eq!(a.solution, b.solution, "fresh runs are deterministic");
    }

    #[test]
    fn corrupt_hook_changes_cached_output() {
        // The stale-cache planted bug: after corrupting the cached view,
        // the cached run must diverge from a fresh engine's run.
        let n: u32 = 32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.extend((0..n).map(|i| (i, (i * 7 + 3) % n)));
        let g = Arc::new(from_edge_list(n as usize, &edges));
        let opts = SolveOpts::default();
        let solver = by_label("color-rand:3");
        let mut engine = Engine::with_cap(8);
        let clean = engine.solve_on(&g, solver, Arch::Cpu, 9, &opts);
        assert!(engine.corrupt_cached_decompositions() > 0);
        let stale = engine.solve_on(&g, solver, Arch::Cpu, 9, &opts);
        assert_eq!(stale.decomp_cached, Some(true));
        assert_ne!(
            clean.solution, stale.solution,
            "swapping every edge's induced/cross class must change the output"
        );
    }

    #[test]
    fn graph_cache_by_source_key() {
        let mut engine = Engine::with_cap(4);
        let src = GraphSource::parse("gen:lp1", 0.05, 42).unwrap();
        let (a, fp_a, hit_a) = engine.graph(&src).unwrap();
        let (b, fp_b, hit_b) = engine.graph(&src).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(fp_a, fp_b);
        assert!(Arc::ptr_eq(&a, &b));
        // Different generation seed = different key and fingerprint.
        let other = GraphSource::parse("gen:lp1", 0.05, 43).unwrap();
        let (_, fp_c, hit_c) = engine.graph(&other).unwrap();
        assert!(!hit_c);
        assert_ne!(fp_a, fp_c);
        assert!(GraphSource::parse("gen:nope", 1.0, 1).is_err());
    }

    #[test]
    fn inline_source_roundtrips_and_keeps_isolated_vertices() {
        let edges = vec![(0u32, 1u32), (1, 2)];
        let text = GraphSource::encode_inline(5, &edges);
        assert_eq!(text, "inline:5:0-1,1-2");
        let src = GraphSource::parse(&text, 1.0, 0).unwrap();
        assert_eq!(src, GraphSource::Inline { n: 5, edges });
        let g = src.load().unwrap();
        assert_eq!(g.num_vertices(), 5, "trailing isolated vertices survive");
        assert_eq!(g.num_edges(), 2);
        // Distinct graphs get distinct cache keys; same graph, same key.
        let same = GraphSource::parse("inline:5:0-1,1-2", 0.3, 9).unwrap();
        assert_eq!(src.key(), same.key());
        let other = GraphSource::parse("inline:5:0-1,1-3", 1.0, 0).unwrap();
        assert_ne!(src.key(), other.key());
        // Empty edge lists are legal; malformed ones are not.
        assert!(GraphSource::parse("inline:3:", 1.0, 0).is_ok());
        assert!(GraphSource::parse("inline:3", 1.0, 0).is_err());
        assert!(GraphSource::parse("inline:3:0-9", 1.0, 0).is_err());
        assert!(GraphSource::parse("inline:3:0+1", 1.0, 0).is_err());
    }

    fn edit_script() -> EditLog {
        let mut log = EditLog::new();
        log.add_edge(0, 20).remove_edge(5, 6).add_edge(40, 41);
        log
    }

    #[test]
    fn apply_edits_patches_decompositions_byte_identically() {
        // Prime the cache with every decomposition family, apply edits,
        // then check each patched solve equals a fresh engine's solve on
        // the materialized edited graph — byte for byte.
        let g = chain_graph(40);
        let opts = SolveOpts::default();
        let solvers = [
            by_label("mm-degk:2"),
            by_label("mm-rand:3"),
            by_label("mis-bridge"),
            by_label("color-bicc"),
        ];
        let mut engine = Engine::with_cap(16);
        for &s in &solvers {
            engine.solve_on(&g, s, Arch::Cpu, 7, &opts);
        }
        let log = edit_script();
        let out = engine.apply_edits("default", &g, &log);
        assert!(!out.graph_cached);
        assert_eq!(out.decomps_patched, 4, "all four primed entries follow");
        assert_eq!(out.graph.num_vertices(), 42);
        for &s in &solvers {
            let patched =
                engine.solve_on_fingerprinted(&out.graph, out.fingerprint, s, Arch::Cpu, 7, &opts);
            assert_eq!(
                patched.decomp_cached,
                Some(true),
                "patched entry missed for {}",
                s.label()
            );
            let fresh = Engine::with_cap(0).solve_on(&out.graph, s, Arch::Cpu, 7, &opts);
            assert_eq!(
                patched.solution,
                fresh.solution,
                "patched decomposition diverged for {}",
                s.label()
            );
            patched.solution.verify(&out.graph).unwrap();
        }
        // Re-applying the same log is a warm graph hit.
        let again = engine.apply_edits("default", &g, &log);
        assert!(again.graph_cached);
        assert!(Arc::ptr_eq(&again.graph, &out.graph));
    }

    #[test]
    fn apply_edits_from_chains_across_a_rebase() {
        // A rebased mutation stream adopts a materialized graph as its
        // base and keeps extending via `apply_edits_from` with the
        // fingerprint from the previous hop. Decompositions must keep
        // following the chain, and each hop's patched solve must equal a
        // fresh engine's solve on the same materialized graph.
        let g = chain_graph(40);
        let opts = SolveOpts::default();
        let solver = by_label("mis-degk:2");
        let mut engine = Engine::with_cap(16);
        engine.solve_on(&g, solver, Arch::Cpu, 7, &opts);

        let hop1 = engine.apply_edits("default", &g, &edit_script());
        assert_eq!(hop1.decomps_patched, 1);
        engine.solve_on_fingerprinted(&hop1.graph, hop1.fingerprint, solver, Arch::Cpu, 7, &opts);

        // Rebase: hop1's materialization is the new base; its stored
        // fingerprint stands in for an O(m) re-hash.
        let mut log2 = EditLog::new();
        log2.remove_edge(10, 11).add_edge(0, 39);
        let hop2 = engine.apply_edits_from("default", &hop1.graph, hop1.fingerprint, &log2);
        assert!(!hop2.graph_cached);
        assert_eq!(hop2.decomps_patched, 1, "hop1's entry follows the rebase");
        let patched = engine.solve_on_fingerprinted(
            &hop2.graph,
            hop2.fingerprint,
            solver,
            Arch::Cpu,
            7,
            &opts,
        );
        assert_eq!(patched.decomp_cached, Some(true));
        let fresh = Engine::with_cap(0).solve_on(&hop2.graph, solver, Arch::Cpu, 7, &opts);
        assert_eq!(patched.solution, fresh.solution);
        patched.solution.verify(&hop2.graph).unwrap();

        // An empty log under a precomputed fingerprint is the base
        // itself, with the same identity.
        let noop =
            engine.apply_edits_from("default", &hop2.graph, hop2.fingerprint, &EditLog::new());
        assert!(noop.graph_cached);
        assert_eq!(noop.fingerprint, hop2.fingerprint);
        assert!(Arc::ptr_eq(&noop.graph, &hop2.graph));
    }

    #[test]
    fn apply_edits_empty_log_shares_base_fingerprint() {
        let g = chain_graph(12);
        let mut engine = Engine::with_cap(8);
        let primed = engine.solve_on(
            &g,
            by_label("mis-degk:2"),
            Arch::Cpu,
            3,
            &SolveOpts::default(),
        );
        assert_eq!(primed.decomp_cached, Some(false));
        let out = engine.apply_edits("default", &g, &EditLog::new());
        assert_eq!(
            out.fingerprint,
            fingerprint_graph(&g, fingerprint::DEFAULT_SEED),
            "no edits = the base's own identity"
        );
        let hit = engine.solve_on_fingerprinted(
            &out.graph,
            out.fingerprint,
            by_label("mis-degk:2"),
            Arch::Cpu,
            3,
            &SolveOpts::default(),
        );
        assert_eq!(hit.decomp_cached, Some(true));
        assert_eq!(hit.solution, primed.solution);
    }
}

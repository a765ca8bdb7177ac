//! `sbreak` — command-line front end for the symmetry-breaking library.
//!
//! ```text
//! sbreak generate <graph> [--scale F] [--seed S] -o out.edges
//! sbreak convert  <input> <out.sbg> [--renumber degree] [--scale F] [--seed S]
//! sbreak stats     <input> [--bridges] [--blocks]
//! sbreak decompose <input> --method bridge|rand:K|degk:K|metis:K|bicc
//! sbreak solve     <input> --problem mm|color|mis
//!                          [--algo baseline|bridge|rand:K|degk:K|bicc]
//!                          [--arch cpu|gpu] [--seed S] [-o solution.txt]
//! sbreak fuzz      [--seed S] [--budget-secs T] [--max-cases K]
//!                  [--threads N] [-o results/fuzz] [--replay case.txt]
//! sbreak batch     <jobs.toml> [--cache-cap N] [--compare-fresh]
//!                  [--trace-dir d] [--out-dir d] [-o BENCH_engine.json]
//! sbreak profile   <trace.jsonl> [--top K] [--metrics snapshot.json]
//! sbreak perfdiff  <baseline.json> <candidate.json>
//!                  [--rel-tol F] [--abs-floor F] [--strict]
//! sbreak serve     [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!                  [--cache-cap N] [--tenant-quota BYTES] [--deadline-ms T]
//! sbreak loadgen   [gen:<graph>] [--addr HOST:PORT] [--clients N]
//!                  [--repeats R] [--scale F] [--seed S] [--workers N]
//!                  [--shutdown] [-o <dir>]
//! ```
//!
//! `<input>` is an edge-list, Matrix-Market (`.mtx`), or binary CSR
//! (`.sbg`) file, or `gen:<graph>` for a Table II stand-in (e.g.
//! `gen:germany-osm`). Solutions are always verified before they are
//! reported or written.
//!
//! `convert` serializes any input to the `.sbg` on-disk CSR format
//! (DESIGN.md §15). Every command that takes `<input>` accepts the
//! resulting file and loads it through a zero-copy read-only mapping —
//! the out-of-core path for graphs that should cost page cache, not
//! heap. `--renumber degree` reorders vertices by descending degree at
//! convert time and stores the new→old permutation in the file, so
//! solver output maps back to original ids.
//!
//! `--trace <out.jsonl>` (on `solve` and `decompose`) records phase spans
//! and per-round records to a JSONL file and prints a one-line summary.
//!
//! `--metrics <out.json>` (on `solve`, `batch`, and `fuzz`) writes the
//! process-wide `sb-metrics` registry snapshot — worker-pool, engine-cache,
//! and frontier/scratch series plus per-phase latency histograms — as JSON
//! (Prometheus text when the path ends in `.prom`) on exit. `profile` digests a recorded trace into per-phase round-time
//! percentiles and the hottest rounds (pass the snapshot back via
//! `--metrics` for the cache/arena summary); `perfdiff` compares two
//! BENCH-shaped reports and exits nonzero when an enforced cell regressed:
//! `edges` columns (Logical class — deterministic work totals) always,
//! `ms`/`us` columns (Runtime class — host timing) only under `--strict`
//! (DESIGN.md §12).
//!
//! `--threads <n>` pins the parallel execution to an `n`-thread pool (the
//! rayon layer runs a real worker pool); the default is the host's
//! available parallelism.
//!
//! `--frontier dense|compact` (on `solve`) picks the round-loop live-set
//! strategy: `compact` (the default) iterates compacted worklists of
//! still-undecided vertices, and `dense` rescans `0..n` every round (the
//! paper-era behavior, kept as the reference the fuzz oracle compares
//! against).
//!
//! `serve` runs the resident multi-tenant solve daemon: JSONL requests
//! over TCP against one shared cached-decomposition engine (DESIGN.md
//! §13). `loadgen` drives a serve daemon (or an in-process one when no
//! `--addr` is given) through a cold pass and a concurrent warm pass and
//! writes client-observed latency percentiles to
//! `results/BENCH_serve.json`.
//!
//! `batch` runs a jobs file through the cached-decomposition engine
//! (`sb-engine`): N jobs on one graph pay for ingestion and each distinct
//! decomposition once. `--cache-cap 0` disables the caches (the reference
//! path), `--compare-fresh` additionally re-runs everything cache-disabled
//! and hard-errors when the two outputs of a job diverge: both legs must
//! have solved the same graph (equal fingerprints), matchings and MIS
//! must be byte-equal, and colorings too when the job ran on one thread
//! (VB's conflict resolution is interleaving-dependent).

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use symmetry_breaking::decompose::{decompose_bicc, decompose_metis_like};
use symmetry_breaking::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage:\n  sbreak generate <graph> [--scale F] [--seed S] -o <file>\n  \
         sbreak convert <input> <out.sbg> [--renumber degree] [--scale F] [--seed S]\n  \
         sbreak stats <input> [--bridges] [--blocks] [--scale F] [--seed S]\n  \
         sbreak decompose <input> --method bridge|rand:K|degk:K|metis:K|bicc [--seed S] [--trace <out.jsonl>]\n  \
         sbreak solve <input> --problem mm|color|mis [--algo baseline|bridge|rand:K|degk:K|bicc]\n  \
         \x20            [--arch cpu|gpu] [--frontier dense|compact] [--seed S] [--threads N]\n  \
         \x20            [-o <file>] [--trace <out.jsonl>]\n  \
         sbreak fuzz [--seed S] [--budget-secs T] [--max-cases K] [--threads N]\n  \
         \x20           [-o <dir>] [--replay <case.txt>]\n  \
         sbreak batch <jobs.toml> [--cache-cap N] [--compare-fresh] [--threads N]\n  \
         \x20            [--trace-dir <dir>] [--out-dir <dir>] [-o <report.json>]\n  \
         sbreak profile <trace.jsonl> [--top K] [--metrics <snapshot.json>]\n  \
         sbreak perfdiff <baseline.json> <candidate.json> [--rel-tol F] [--abs-floor F] [--strict]\n  \
         sbreak serve [--addr H:P] [--workers N] [--queue-cap N] [--cache-cap N]\n  \
         \x20            [--tenant-quota BYTES] [--deadline-ms T] [--threads N]\n  \
         sbreak loadgen [gen:<graph>] [--addr H:P] [--clients N] [--repeats R]\n  \
         \x20              [--scale F] [--seed S] [--workers N] [--shutdown] [-o <dir>]\n\n\
         <input>: an edge-list/.mtx/.sbg path, or gen:<table-II-name> (e.g. gen:lp1)\n\
         --metrics <out.json> (solve/batch/fuzz): write the metrics registry snapshot on exit"
    );
    std::process::exit(2)
}

/// Resolve a Table II name to its `GraphId`.
fn graph_id_by_name(name: &str) -> Option<GraphId> {
    GraphId::ALL
        .into_iter()
        .find(|&id| symmetry_breaking::datasets::suite::spec(id).name == name)
}

fn load_input(input: &str, scale: Scale, seed: u64) -> Result<Graph, String> {
    if let Some(name) = input.strip_prefix("gen:") {
        let id = graph_id_by_name(name).ok_or_else(|| {
            let names: Vec<&str> = GraphId::ALL
                .into_iter()
                .map(|id| symmetry_breaking::datasets::suite::spec(id).name)
                .collect();
            format!("unknown graph '{name}'; available: {}", names.join(", "))
        })?;
        Ok(generate(id, scale, seed))
    } else {
        symmetry_breaking::graph::io::read_path(Path::new(input))
            .map_err(|e| format!("cannot read {input}: {e}"))
    }
}

struct Flags {
    positional: Vec<String>,
    scale: Scale,
    seed: u64,
    arch: Arch,
    frontier: FrontierMode,
    method: Option<String>,
    problem: Option<String>,
    algo: String,
    output: Option<String>,
    trace: Option<String>,
    bridges: bool,
    blocks: bool,
    threads: Option<usize>,
    budget_secs: Option<u64>,
    max_cases: Option<usize>,
    replay: Option<String>,
    cache_cap: Option<usize>,
    trace_dir: Option<String>,
    out_dir: Option<String>,
    compare_fresh: bool,
    metrics: Option<String>,
    top: usize,
    rel_tol: f64,
    abs_floor: f64,
    strict: bool,
    addr: Option<String>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    tenant_quota: Option<u64>,
    deadline_ms: Option<u64>,
    clients: Option<usize>,
    repeats: Option<usize>,
    shutdown: bool,
    renumber: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        scale: Scale::Default,
        seed: 42,
        arch: Arch::Cpu,
        frontier: FrontierMode::default(),
        method: None,
        problem: None,
        algo: "baseline".into(),
        output: None,
        trace: None,
        bridges: false,
        blocks: false,
        threads: None,
        budget_secs: None,
        max_cases: None,
        replay: None,
        cache_cap: None,
        trace_dir: None,
        out_dir: None,
        compare_fresh: false,
        metrics: None,
        top: 5,
        rel_tol: 0.10,
        abs_floor: 0.5,
        strict: false,
        addr: None,
        workers: None,
        queue_cap: None,
        tenant_quota: None,
        deadline_ms: None,
        clients: None,
        repeats: None,
        shutdown: false,
        renumber: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--scale" => {
                f.scale = Scale::Factor(
                    val("--scale")?
                        .parse()
                        .map_err(|_| "--scale takes a float".to_string())?,
                )
            }
            "--seed" => {
                f.seed = val("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--arch" => f.arch = val("--arch")?.parse()?,
            "--frontier" => f.frontier = val("--frontier")?.parse()?,
            "--method" => f.method = Some(val("--method")?),
            "--problem" => f.problem = Some(val("--problem")?),
            "--algo" => f.algo = val("--algo")?,
            "-o" | "--output" => f.output = Some(val("-o")?),
            "--trace" => f.trace = Some(val("--trace")?),
            "--threads" => {
                f.threads = Some(match val("--threads")?.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--threads takes a positive integer".to_string()),
                })
            }
            "--budget-secs" => {
                f.budget_secs = Some(
                    val("--budget-secs")?
                        .parse()
                        .map_err(|_| "--budget-secs takes a u64".to_string())?,
                )
            }
            "--max-cases" => {
                f.max_cases = Some(
                    val("--max-cases")?
                        .parse()
                        .map_err(|_| "--max-cases takes a positive integer".to_string())?,
                )
            }
            "--replay" => f.replay = Some(val("--replay")?),
            "--cache-cap" => {
                f.cache_cap = Some(
                    val("--cache-cap")?
                        .parse()
                        .map_err(|_| "--cache-cap takes a non-negative integer".to_string())?,
                )
            }
            "--metrics" => f.metrics = Some(val("--metrics")?),
            "--top" => {
                f.top = match val("--top")?.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--top takes a positive integer".to_string()),
                }
            }
            "--rel-tol" => {
                f.rel_tol = match val("--rel-tol")?.parse::<f64>() {
                    Ok(x) if x >= 0.0 => x,
                    _ => return Err("--rel-tol takes a non-negative float".to_string()),
                }
            }
            "--abs-floor" => {
                f.abs_floor = match val("--abs-floor")?.parse::<f64>() {
                    Ok(x) if x >= 0.0 => x,
                    _ => return Err("--abs-floor takes a non-negative float".to_string()),
                }
            }
            "--strict" => f.strict = true,
            "--addr" => f.addr = Some(val("--addr")?),
            "--workers" => {
                f.workers = Some(match val("--workers")?.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--workers takes a positive integer".to_string()),
                })
            }
            "--queue-cap" => {
                f.queue_cap = Some(match val("--queue-cap")?.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--queue-cap takes a positive integer".to_string()),
                })
            }
            "--tenant-quota" => {
                f.tenant_quota = Some(
                    val("--tenant-quota")?
                        .parse()
                        .map_err(|_| "--tenant-quota takes a byte count (u64)".to_string())?,
                )
            }
            "--deadline-ms" => {
                f.deadline_ms = Some(
                    val("--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms takes a u64".to_string())?,
                )
            }
            "--clients" => {
                f.clients = Some(match val("--clients")?.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--clients takes a positive integer".to_string()),
                })
            }
            "--repeats" => {
                f.repeats = Some(match val("--repeats")?.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err("--repeats takes a positive integer".to_string()),
                })
            }
            "--shutdown" => f.shutdown = true,
            "--renumber" => f.renumber = Some(val("--renumber")?),
            "--trace-dir" => f.trace_dir = Some(val("--trace-dir")?),
            "--out-dir" => f.out_dir = Some(val("--out-dir")?),
            "--compare-fresh" => f.compare_fresh = true,
            "--bridges" => f.bridges = true,
            "--blocks" => f.blocks = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

/// Build the trace sink requested by `--trace`, if any.
fn trace_sink(f: &Flags) -> Option<Arc<TraceSink>> {
    f.trace.as_ref().map(|_| Arc::new(TraceSink::enabled()))
}

/// Write the recorded trace to the `--trace` path and print its summary.
fn flush_trace(f: &Flags, sink: &Option<Arc<TraceSink>>) -> Result<(), String> {
    let (Some(path), Some(sink)) = (f.trace.as_ref(), sink.as_ref()) else {
        return Ok(());
    };
    sink.save_jsonl(Path::new(path))
        .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    if let Some(summary) = sink.summary() {
        println!("{}", summary.render_line());
    }
    println!("[trace written to {path}]");
    Ok(())
}

/// Write the process-wide metrics snapshot to the `--metrics` path, if
/// one was requested. Runs after the command body so the snapshot sees
/// everything the run recorded (on `solve`/`batch`/`fuzz`).
fn flush_metrics(f: &Flags) -> Result<(), String> {
    let Some(path) = f.metrics.as_ref() else {
        return Ok(());
    };
    let snap = sb_metrics::global().snapshot();
    let body = if path.ends_with(".prom") {
        snap.to_prometheus()
    } else {
        snap.to_json()
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write metrics {path}: {e}"))?;
    println!("[metrics written to {path}: {} series]", snap.series.len());
    Ok(())
}

fn write_or_print(output: &Option<String>, content: &str) -> Result<(), String> {
    match output {
        Some(path) => {
            let mut fh =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            fh.write_all(content.as_bytes())
                .map_err(|e| format!("write failed: {e}"))?;
            println!("[written to {path}]");
            Ok(())
        }
        None => {
            println!("{content}");
            Ok(())
        }
    }
}

fn cmd_generate(f: &Flags) -> Result<(), String> {
    let name = f.positional.first().ok_or("generate needs a graph name")?;
    let id = graph_id_by_name(name).ok_or_else(|| format!("unknown graph '{name}'"))?;
    let g = generate(id, f.scale, f.seed);
    let out = f.output.as_ref().ok_or("generate needs -o <file>")?;
    let fh = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    symmetry_breaking::graph::io::write_edge_list(&g, fh).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} vertices, {} edges) to {out}",
        name,
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_convert(f: &Flags) -> Result<(), String> {
    let input = f.positional.first().ok_or("convert needs an input")?;
    let out = f
        .positional
        .get(1)
        .cloned()
        .or_else(|| f.output.clone())
        .ok_or("convert needs an output path (second positional or -o)")?;
    let g = load_input(input, f.scale, f.seed)?;
    let (g, perm) = match f.renumber.as_deref() {
        None | Some("none") => (g, None),
        Some("degree") => {
            let (h, p) = symmetry_breaking::graph::renumber::renumber_by_degree(&g);
            (h, Some(p))
        }
        Some(other) => {
            return Err(format!(
                "unknown --renumber mode '{other}' (expected 'degree' or 'none')"
            ))
        }
    };
    let bytes = symmetry_breaking::graph::sbg::write_sbg(&g, perm.as_deref(), Path::new(&out))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} vertices, {} edges, {bytes} bytes{}",
        g.num_vertices(),
        g.num_edges(),
        if perm.is_some() {
            " (degree-renumbered, permutation stored)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_stats(f: &Flags) -> Result<(), String> {
    let input = f.positional.first().ok_or("stats needs an input")?;
    let g = load_input(input, f.scale, f.seed)?;
    let s = GraphStats::compute(&g);
    println!("vertices      {}", s.num_vertices);
    println!("edges         {}", s.num_edges);
    println!("avg degree    {:.2}", s.avg_degree);
    println!("max degree    {}", s.max_degree);
    println!("%deg≤2        {:.1}", s.pct_deg_le2);
    println!("isolated      {}", s.isolated);
    if f.bridges {
        let b = symmetry_breaking::decompose::bridge::find_bridges(&g, &Counters::new());
        println!(
            "bridges       {} ({:.1}% of edges)",
            b.len(),
            100.0 * b.len() as f64 / s.num_edges.max(1) as f64
        );
    }
    if f.blocks {
        let p = decompose_bicc(&g, &Counters::new());
        println!("blocks        {}", p.num_blocks);
        println!("articulation  {}", p.articulation_points().len());
    }
    Ok(())
}

fn cmd_decompose(f: &Flags) -> Result<(), String> {
    let input = f.positional.first().ok_or("decompose needs an input")?;
    let method = f.method.as_ref().ok_or("decompose needs --method")?;
    let g = load_input(input, f.scale, f.seed)?;
    let sink = trace_sink(f);
    let c = match &sink {
        Some(s) => Counters::with_trace(s.clone()),
        None => Counters::new(),
    };
    let sw = std::time::Instant::now();
    let summary = if let Some(param) = method.strip_prefix("metis") {
        let k =
            match param.strip_prefix(':') {
                None if param.is_empty() => 8,
                Some(k) => k.parse().ok().filter(|&k| k >= 1).ok_or_else(|| {
                    format!("'{method}': the parameter must be a positive integer")
                })?,
                None => return Err(format!("unknown method '{method}'")),
            };
        let d = {
            let _span = c.phase("decompose");
            decompose_metis_like(&g, k, &c)
        };
        format!(
            "METIS-like(k={k}): cut = {} edges ({:.1}%)",
            d.cut,
            100.0 * d.cut as f64 / g.num_edges().max(1) as f64
        )
    } else {
        let algo = Algo::parse(method, Problem::Mm)?;
        match Decomposition::compute(&g, algo, f.seed, &c).0 {
            Some(Decomposition::Bridge(d)) => format!(
                "BRIDGE: {} bridges ({:.1}%), {} two-edge-connected components",
                d.bridges.len(),
                100.0 * d.bridges.len() as f64 / g.num_edges().max(1) as f64,
                d.components.count
            ),
            Some(Decomposition::Rand(d)) => format!(
                "RAND(k={}): {} induced edges ({:.1}%), {} cross edges",
                d.k,
                d.m_induced,
                100.0 * d.induced_edge_fraction(),
                d.m_cross
            ),
            Some(Decomposition::Degk(d)) => format!(
                "DEG{}: |V_H| = {}, G_H {} edges, G_L {} edges, G_C {} edges",
                d.k,
                d.high_vertices().len(),
                d.m_high,
                d.m_low,
                d.m_cross
            ),
            Some(Decomposition::Bicc(d)) => format!(
                "BICC: {} blocks, {} articulation points",
                d.num_blocks,
                d.articulation_points().len()
            ),
            None => return Err(format!("unknown method '{method}'")),
        }
    };
    println!("{summary}");
    println!(
        "decomposed in {:.2} ms ({} rounds)",
        sw.elapsed().as_secs_f64() * 1e3,
        c.rounds()
    );
    flush_trace(f, &sink)?;
    Ok(())
}

fn cmd_solve(f: &Flags) -> Result<(), String> {
    let input = f.positional.first().ok_or("solve needs an input")?;
    let problem = f.problem.as_ref().ok_or("solve needs --problem")?;
    let solver = Solver::parse(problem, &f.algo)?;
    let g = load_input(input, f.scale, f.seed)?;
    let sink = trace_sink(f);
    let opts = SolveOpts {
        trace: sink.clone(),
        frontier: f.frontier,
    };
    let (solution, stats) = solve(&g, solver, None, f.arch, f.seed, &opts);
    solution
        .verify(&g)
        .map_err(|e| format!("INVALID RESULT: {e}"))?;
    let (ms, rounds) = (stats.total_ms(), stats.counters.rounds);
    let headline = match &solution {
        Solution::Mate(mate) => format!(
            "maximal matching: {} edges in {ms:.2} ms ({rounds} rounds; decomposition {:.2} ms)",
            matching_cardinality(mate),
            stats.decompose_time.as_secs_f64() * 1e3
        ),
        Solution::Color(color) => format!(
            "coloring: {} colors in {ms:.2} ms ({rounds} rounds)",
            color_count(color)
        ),
        Solution::Set(in_set) => format!(
            "maximal independent set: {} vertices in {ms:.2} ms ({rounds} rounds)",
            in_set.iter().filter(|&&b| b).count()
        ),
    };
    println!("{headline} — verified");
    if f.output.is_some() {
        write_or_print(&f.output, &solution.render())?;
    }
    flush_trace(f, &sink)?;
    Ok(())
}

/// `sbreak fuzz`: run the differential fuzzing oracle (or replay one
/// recorded counterexample). `--threads` here sets the wide N of the
/// 1-vs-N matrix rather than pinning a pool — the oracle manages its own
/// pools per run.
fn cmd_fuzz(f: &Flags) -> Result<(), String> {
    use sb_fuzz::{run_fuzz, CaseFile, FuzzOptions, Mutation, SolverConfig};

    let wide = f.threads.unwrap_or(4);
    if let Some(path) = &f.replay {
        let case = CaseFile::load(Path::new(path))?;
        let cfg: SolverConfig = case.config.parse()?;
        let g = symmetry_breaking::graph::builder::from_edge_list(case.n, &case.edges);
        let threads = f.threads.unwrap_or(case.threads);
        println!(
            "replaying {}: {} (n={}, m={}, seed={}, wide={})",
            path,
            case.config,
            case.n,
            case.edges.len(),
            case.seed,
            threads
        );
        return match sb_fuzz::oracle::check_case(&g, &cfg, case.seed, threads, Mutation::None) {
            Ok(()) => {
                println!("case passes: the recorded failure no longer reproduces");
                Ok(())
            }
            Err(fail) => Err(format!("case still fails — {fail}")),
        };
    }

    let out_dir = f.output.clone().unwrap_or_else(|| "results/fuzz".into());
    let report = run_fuzz(&FuzzOptions {
        master_seed: f.seed,
        budget: f.budget_secs.map(std::time::Duration::from_secs),
        max_cases: f.max_cases,
        wide_threads: wide,
        out_dir: Some(out_dir.clone().into()),
        ..FuzzOptions::default()
    });
    println!(
        "fuzz: {} cases ({} configs covered) in {:.1}s{}",
        report.cases_run,
        report.configs_covered,
        report.elapsed.as_secs_f64(),
        if report.truncated { " [truncated]" } else { "" }
    );
    if report.counterexamples.is_empty() {
        println!("zero counterexamples");
        return Ok(());
    }
    for cex in &report.counterexamples {
        eprintln!(
            "counterexample: {} on '{}' seed {} — {}: {}",
            cex.config, cex.graph, cex.seed, cex.kind, cex.detail
        );
        eprintln!(
            "  minimized to n={} m={}{}",
            cex.shrunk.n,
            cex.shrunk.edges.len(),
            match &cex.case_path {
                Some(p) => format!(", case file {}", p.display()),
                None => String::new(),
            }
        );
        eprintln!("  regression skeleton:\n{}", cex.regression);
    }
    Err(format!(
        "{} counterexample(s) found",
        report.counterexamples.len()
    ))
}

/// `sbreak batch`: run a jobs file through the cached-decomposition
/// engine. Per-job thread pins come from the jobs file; `--threads` sets
/// the default for jobs that don't pin (the engine's workers run outside
/// any pool installed on this thread, so the global pin would not reach
/// them).
fn cmd_batch(f: &Flags) -> Result<(), String> {
    use symmetry_breaking::engine::{
        parse_jobs, run_batch_compare, BatchOptions, Engine, EngineConfig,
    };

    let path = f.positional.first().ok_or("batch needs a jobs file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut jobs = parse_jobs(&text, path)?;
    if let Some(n) = f.threads {
        for job in &mut jobs {
            job.threads.get_or_insert(n);
        }
    }
    println!("batch: {} job(s) from {path}", jobs.len());

    let cfg = EngineConfig {
        cache_cap: f.cache_cap.unwrap_or(64),
        ..EngineConfig::default()
    };
    let opts = BatchOptions {
        trace_dir: f.trace_dir.as_ref().map(std::path::PathBuf::from),
    };
    let report = if f.compare_fresh {
        run_batch_compare(&jobs, cfg, &opts)?
    } else {
        Engine::new(cfg).run_batch(&jobs, &opts)?
    };

    if let Some(dir) = &f.out_dir {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for job in &report.jobs {
            if let Some(solution) = &job.solution {
                let out = dir.join(format!("{}.txt", job.label));
                std::fs::write(&out, solution.render())
                    .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            }
        }
        println!("[solutions written to {}]", dir.display());
    }

    print!("{}", report.render_markdown());
    // A run that did not complete every job must never clobber the
    // checked-in default artifact; failed runs only write a report when
    // one is explicitly requested with -o.
    if f.output.is_some() || report.all_ok() {
        let json_path = f
            .output
            .clone()
            .unwrap_or_else(|| "results/BENCH_engine.json".into());
        report.save_json(Path::new(&json_path))?;
        println!("\n[saved {json_path}]");
    } else {
        eprintln!(
            "warning: run failed; not overwriting default \
             results/BENCH_engine.json (pass -o to write a report)"
        );
    }

    if report.all_ok() {
        Ok(())
    } else {
        let bad: Vec<String> = report
            .jobs
            .iter()
            .filter(|j| j.outcome != symmetry_breaking::engine::JobOutcome::Ok)
            .map(|j| format!("{} ({}: {})", j.label, j.outcome.label(), j.detail))
            .collect();
        Err(format!(
            "{} job(s) did not complete: {}",
            bad.len(),
            bad.join("; ")
        ))
    }
}

/// `sbreak profile`: digest a recorded `--trace` JSONL into the numbers a
/// perf investigation starts from — the same one-line summary the traced
/// run printed (byte-for-byte, from the same `TraceSummary`), a per-phase
/// round-time percentile table, and the hottest individual rounds. With
/// `--metrics <snapshot.json>` it also summarizes the engine caches and
/// the scratch arena from a snapshot the run wrote.
fn cmd_profile(f: &Flags) -> Result<(), String> {
    use sb_bench::report::Table;

    let path = f.positional.first().ok_or("profile needs a trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = symmetry_breaking::trace::parse_jsonl(&text).map_err(|e| e.to_string())?;
    let summary = TraceSummary::from_events(&events);
    println!("{}", summary.render_line());

    // Round durations grouped by phase, in first-appearance order.
    let mut order: Vec<String> = Vec::new();
    let mut by_phase: std::collections::HashMap<String, Vec<u64>> = Default::default();
    let mut rounds: Vec<(&String, &symmetry_breaking::trace::RoundRecord)> = Vec::new();
    for e in &events {
        if let symmetry_breaking::trace::TraceEvent::Round { phase, record, .. } = e {
            if !by_phase.contains_key(phase) {
                order.push(phase.clone());
            }
            by_phase
                .entry(phase.clone())
                .or_default()
                .push(record.duration_us);
            rounds.push((phase, record));
        }
    }
    // Nearest-rank percentile over a sorted slice — the TraceSummary rule,
    // applied per phase.
    let pct = |sorted: &[u64], p: f64| -> u64 {
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    let mut phases = Table::new(
        "Per-phase round times",
        &["phase", "rounds", "p50 us", "p95 us", "p99 us", "max us"],
    );
    for name in &order {
        let durs = by_phase.get_mut(name).expect("phase seen");
        durs.sort_unstable();
        phases.row(vec![
            name.clone(),
            durs.len().to_string(),
            pct(durs, 0.50).to_string(),
            pct(durs, 0.95).to_string(),
            pct(durs, 0.99).to_string(),
            durs.last().copied().unwrap_or(0).to_string(),
        ]);
    }
    phases.print();

    rounds.sort_by_key(|r| std::cmp::Reverse(r.1.duration_us));
    let mut hot = Table::new(
        format!("Hottest {} rounds", f.top.min(rounds.len())),
        &[
            "phase",
            "round",
            "duration us",
            "active",
            "settled",
            "edges scanned",
        ],
    );
    for (phase, r) in rounds.iter().take(f.top) {
        hot.row(vec![
            (*phase).clone(),
            r.round.to_string(),
            r.duration_us.to_string(),
            r.active.to_string(),
            r.settled.to_string(),
            r.edges_scanned.to_string(),
        ]);
    }
    hot.print();

    if let Some(mpath) = &f.metrics {
        let text =
            std::fs::read_to_string(mpath).map_err(|e| format!("cannot read {mpath}: {e}"))?;
        let snap = sb_metrics::Snapshot::parse_json(&text)?;
        let mut caches = Table::new(
            "Caches and scratch arena",
            &["series", "hits", "misses", "hit rate", "evictions"],
        );
        for cache in ["graph", "decomp"] {
            let v = |s: &str| snap.scalar_or_zero(&format!("sb_engine_{cache}_cache_{s}"));
            let (h, m) = (v("hits"), v("misses"));
            let rate = if h + m == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * h as f64 / (h + m) as f64)
            };
            caches.row(vec![
                format!("{cache} cache"),
                h.to_string(),
                m.to_string(),
                rate,
                v("evictions").to_string(),
            ]);
        }
        let fresh = snap.scalar_or_zero("sb_par_scratch_fresh_allocs");
        let reused = snap.scalar_or_zero("sb_par_scratch_reuses");
        let rate = if fresh + reused == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * reused as f64 / (fresh + reused) as f64)
        };
        caches.row(vec![
            "scratch arena".into(),
            reused.to_string(),
            fresh.to_string(),
            rate,
            "-".into(),
        ]);
        println!("(scratch arena: hits = buffer reuses, misses = fresh allocations)");
        caches.print();
    }
    Ok(())
}

/// `sbreak perfdiff`: compare a candidate BENCH-shaped report against a
/// baseline and fail (exit 1) when an *enforced* cell regressed past the
/// noise gate or disappeared. Logical-class columns (`edges` — work
/// totals, deterministic per build) are always enforced; Runtime-class
/// columns (`ms`/`us` — host timing) warn by default and are enforced
/// only under `--strict`. See `sb_bench::perfdiff`.
fn cmd_perfdiff(f: &Flags) -> Result<(), String> {
    use sb_bench::perfdiff::{diff_reports, CostClass, Tolerance};

    let [base, cand] = f.positional.as_slice() else {
        return Err("perfdiff needs <baseline.json> <candidate.json>".into());
    };
    let base_text =
        std::fs::read_to_string(base).map_err(|e| format!("cannot read {base}: {e}"))?;
    let cand_text =
        std::fs::read_to_string(cand).map_err(|e| format!("cannot read {cand}: {e}"))?;
    let tol = Tolerance {
        rel: f.rel_tol,
        abs: f.abs_floor,
    };
    let diff = diff_reports(&base_text, &cand_text, tol)?;
    print!("{}", diff.render());
    let gate_tripped = if f.strict {
        diff.regressed()
    } else {
        diff.enforced_regressed()
    };
    if gate_tripped {
        Err(format!(
            "performance regression: {} logical + {} runtime cell(s) over tolerance \
             (rel {:.0}%, abs {}{}), {} missing",
            diff.regressed_of(CostClass::Logical),
            diff.regressed_of(CostClass::Runtime),
            100.0 * tol.rel,
            tol.abs,
            if f.strict { ", strict" } else { "" },
            diff.missing.len()
        ))
    } else {
        if diff.regressed() {
            println!(
                "warning: {} runtime-class cell(s) regressed — warn-only \
                 (re-run with --strict to enforce timing columns)",
                diff.regressed_of(CostClass::Runtime)
            );
        }
        Ok(())
    }
}

/// `sbreak serve`: run the resident multi-tenant solve daemon until a
/// client sends a `shutdown` op. One shared engine, a bounded admission
/// queue, and a fixed worker pool (DESIGN.md §13).
fn cmd_serve(f: &Flags) -> Result<(), String> {
    use symmetry_breaking::engine::{EngineConfig, ServeConfig, Server};

    let cfg = ServeConfig {
        addr: f.addr.clone().unwrap_or_else(|| "127.0.0.1:7199".into()),
        workers: f.workers.unwrap_or(2),
        queue_cap: f.queue_cap.unwrap_or(64),
        engine: EngineConfig {
            cache_cap: f.cache_cap.unwrap_or(64),
            tenant_quota_bytes: f.tenant_quota,
            ..EngineConfig::default()
        },
        default_deadline_ms: f.deadline_ms,
        default_threads: f.threads,
        allow_debug: false,
        ..ServeConfig::default()
    };
    let workers = cfg.workers;
    let queue_cap = cfg.queue_cap;
    let handle = Server::spawn(cfg).map_err(|e| format!("cannot start server: {e}"))?;
    println!(
        "sbreak serve: listening on {} ({workers} worker(s), queue cap {queue_cap})",
        handle.addr()
    );
    handle.join();
    println!("sbreak serve: shut down cleanly");
    Ok(())
}

/// `sbreak loadgen`: drive a serve daemon (`--addr`), or an in-process one,
/// through a cold pass and a concurrent warm pass; write the
/// client-observed latency report to `<out-dir>/BENCH_serve.json`.
fn cmd_loadgen(f: &Flags) -> Result<(), String> {
    use symmetry_breaking::loadgen::{run_loadgen, LoadgenOptions};

    let addr = match &f.addr {
        Some(a) => Some(
            a.parse()
                .map_err(|_| format!("--addr '{a}' is not a socket address"))?,
        ),
        None => None,
    };
    let defaults = LoadgenOptions::default();
    let opts = LoadgenOptions {
        addr,
        clients: f.clients.unwrap_or(defaults.clients),
        repeats: f.repeats.unwrap_or(defaults.repeats),
        graph: f
            .positional
            .first()
            .cloned()
            .unwrap_or_else(|| defaults.graph.clone()),
        scale: match f.scale {
            Scale::Factor(x) => x,
            _ => defaults.scale,
        },
        seed: f.seed,
        workers: f.workers.unwrap_or(defaults.workers),
        shutdown: f.shutdown,
    };
    let summary = run_loadgen(&opts)?;
    summary.table.print();
    println!(
        "cold p50 {:.3} ms → warm p50 {:.3} ms over {} warm request(s)",
        summary.cold.p50_ms, summary.warm.p50_ms, summary.warm.requests
    );
    let dir = f.output.clone().unwrap_or_else(|| "results".into());
    summary.table.save_json(Path::new(&dir), "BENCH_serve")?;
    println!("[saved {dir}/BENCH_serve.json]");
    // The whole point of a resident service is the warm path: a run where
    // nothing completed or nothing hit the shared caches is a failure.
    if summary.warm.ok == 0 {
        return Err("warm phase completed zero solves".into());
    }
    if summary.warm.decomp_hits == 0 {
        return Err("warm phase recorded zero decomposition-cache hits".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = || match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "convert" => cmd_convert(&flags),
        "stats" => cmd_stats(&flags),
        "decompose" => cmd_decompose(&flags),
        "solve" => cmd_solve(&flags),
        "fuzz" => cmd_fuzz(&flags),
        "batch" => cmd_batch(&flags),
        "profile" => cmd_profile(&flags),
        "perfdiff" => cmd_perfdiff(&flags),
        "serve" => cmd_serve(&flags),
        "loadgen" => cmd_loadgen(&flags),
        _ => {
            usage();
        }
    };
    // Pin the whole command to an explicit pool when asked; otherwise the
    // lazily-built global pool (host parallelism) governs parallel calls.
    // `fuzz` is exempt (its oracle builds a 1-vs-N pool matrix itself), as
    // are `batch`, `serve`, and `loadgen` (each engine job pins its own
    // worker; for `serve`, --threads is the per-request default pin).
    let result = match flags.threads {
        Some(n) if !matches!(cmd.as_str(), "fuzz" | "batch" | "serve" | "loadgen") => {
            symmetry_breaking::par::with_threads(n, run)
        }
        _ => run(),
    };
    // The metrics snapshot is written even when the run itself failed: a
    // counterexample-bearing fuzz run still has pool/cache series worth
    // keeping. `profile` consumes --metrics as an input instead.
    let result = if cmd == "profile" || cmd == "perfdiff" {
        result
    } else {
        match (result, flush_metrics(&flags)) {
            (Ok(()), flushed) => flushed,
            (Err(e), _) => Err(e),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_names_resolve() {
        assert!(graph_id_by_name("lp1").is_some());
        assert!(graph_id_by_name("rgg-n-2-23-s0").is_some());
        assert!(graph_id_by_name("nope").is_none());
    }

    #[test]
    fn flags_parse() {
        let f = parse_flags(&[
            "input.mtx".into(),
            "--problem".into(),
            "mm".into(),
            "--algo".into(),
            "rand:4".into(),
            "--arch".into(),
            "gpu".into(),
            "--seed".into(),
            "9".into(),
            "--threads".into(),
            "4".into(),
        ])
        .unwrap();
        assert_eq!(f.positional, vec!["input.mtx"]);
        assert_eq!(f.problem.as_deref(), Some("mm"));
        assert_eq!(f.algo, "rand:4");
        assert_eq!(f.arch, Arch::GpuSim);
        assert_eq!(f.seed, 9);
        assert_eq!(f.threads, Some(4));
        assert!(parse_flags(&["--bogus".into()]).is_err());
        assert_eq!(f.frontier, FrontierMode::Compact, "compact is the default");
        let d = parse_flags(&["--frontier".into(), "dense".into()]).unwrap();
        assert_eq!(d.frontier, FrontierMode::Dense);
        for removed in ["sparse", "bitset"] {
            let e = parse_flags(&["--frontier".into(), removed.into()]).err();
            assert_eq!(
                e,
                Some(format!(
                    "frontier mode must be dense or compact, got '{removed}'"
                ))
            );
        }
        assert!(
            parse_flags(&["--threads".into(), "0".into()]).is_err(),
            "zero threads must be rejected"
        );
    }
}

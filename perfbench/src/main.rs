//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve_suite|serve_read|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--mutate-share F` (serve_mixed only) replaces the workload's mutate
//! share, for the sensitivity sweep `perfbench/README.md` records.
//!
//! Run from the repository root. The benchmark builds `sbreak` from
//! source, generates its inputs from `--seed`, drives the binary the way
//! its users do (`sbreak batch` jobs files, the `sbreak serve` JSONL
//! protocol), checks every output, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` makes a separate traced run and prints
//! the per-layer metrics, including the self time of each layer and the
//! residual no layer claims. Scratch files live in `.bench_work/`; the
//! provenance record and the span trace of each run are kept in
//! `.bench_results/`. `perfbench/README.md` records why the workloads
//! and metrics are what they are.

mod edits;
mod inputs;
mod json;
mod procs;
mod serve;
mod spans;
mod stats;
mod suite;

use spans::SpanLog;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Version of the result and provenance records.
const SCHEMA: &str = "perfbench/1";

/// End-to-end metrics: every workload prints every one of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput_ops", "1/s"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics. Every traced run prints all of them; a layer the
/// workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 57] = [
    ("selftime.wall_ms", "ms"),
    ("selftime.residual_ms", "ms"),
    ("selftime.loadgen_ms", "ms"),
    ("selftime.serve.wire_ms", "ms"),
    ("selftime.serve.queue_ms", "ms"),
    ("selftime.engine_ms", "ms"),
    ("selftime.decompose_ms", "ms"),
    ("selftime.core_ms", "ms"),
    ("selftime.repair_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.offered_rps", "1/s"),
    ("loadgen.achieved_rps", "1/s"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.wire_ms_p99", "ms"),
    ("serve.refused", "count"),
    ("serve.timeouts", "count"),
    ("engine.wall_ms_p50", "ms"),
    ("engine.wall_ms_p99", "ms"),
    ("engine.other_ms_p50", "ms"),
    ("engine.other_ms_p99", "ms"),
    ("engine.other_ms_sum", "ms"),
    ("engine.mutate_other_ms_p50", "ms"),
    ("engine.mutate_lock_share", "ratio"),
    ("engine.graph_hit_ratio", "ratio"),
    ("engine.decomp_hit_ratio", "ratio"),
    ("engine.evictions", "count"),
    ("engine.cache_mb", "MB"),
    ("graph.parse_peak_mb", "MB"),
    ("decompose.ms_sum", "ms"),
    ("decompose.ms_p50", "ms"),
    ("core.solve_ms_sum", "ms"),
    ("core.solve_ms_p50", "ms"),
    ("core.solve_ms_p99", "ms"),
    ("core.phase_ms.decompose", "ms"),
    ("core.phase_ms.solve", "ms"),
    ("core.phase_ms.fringe-peel", "ms"),
    ("core.phase_ms.induced-solve", "ms"),
    ("core.phase_ms.cross-solve", "ms"),
    ("core.phase_ms.cleanup", "ms"),
    ("core.rounds", "count"),
    ("core.edges_scanned", "count"),
    ("core.kernel_launches", "count"),
    ("repair.ms_p50", "ms"),
    ("repair.ms_p99", "ms"),
    ("repair.repaired_ratio", "ratio"),
    ("repair.rebases", "count"),
    ("repair.decomps_patched", "count"),
    ("repair.edits_applied", "count"),
    ("par.steals", "count"),
    ("par.steal_failures", "count"),
    ("par.worker_idle_us", "us"),
    ("par.caller_wait_us", "us"),
    ("par.scratch_reuse_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("selftime.ops", "count"),
];

/// Named layers of the span tree, in the order the self-time table prints.
const LAYERS: [&str; 7] = [
    "loadgen",
    "serve.wire",
    "serve.queue",
    "engine",
    "decompose",
    "core",
    "repair",
];

/// One run's settings.
pub struct Ctx {
    pub sbreak: PathBuf,
    /// Run-scoped scratch directory inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Extra provenance fields, as JSON values.
    pub provenance: Vec<(String, String)>,
    pub notes: Vec<String>,
    /// The traced run's spans and the name they are saved under.
    pub spans: Option<(SpanLog, String)>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            provenance: Vec::new(),
            notes: Vec::new(),
            spans: None,
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn prov(&mut self, key: &str, json_value: String) {
        self.provenance.push((key.to_string(), json_value));
    }

    pub fn note(&mut self, note: String) {
        eprintln!("perfbench: {note}");
        self.notes.push(note);
    }

    /// Per-operation self time of each layer, the mean wall time of the
    /// root spans, and the residual: wall time no named layer claims.
    pub fn self_times(&mut self, log: &SpanLog, ops: f64) {
        let (layers, root_ms) = log.self_times();
        let mut claimed = 0.0;
        eprintln!("perfbench: self time per operation over {ops} operations");
        for layer in LAYERS {
            let ms = layers.get(layer).copied().unwrap_or(0.0) / ops;
            claimed += ms;
            eprintln!("  {layer:<12} {ms:>12.4} ms");
            self.metric(&format!("selftime.{layer}_ms"), ms);
        }
        let wall = root_ms / ops;
        eprintln!("  {:<12} {:>12.4} ms", "residual", wall - claimed);
        eprintln!("  {:<12} {:>12.4} ms", "wall", wall);
        self.metric("selftime.wall_ms", wall);
        self.metric("selftime.residual_ms", wall - claimed);
        self.metric("selftime.ops", ops);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mutate_share: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        mutate_share: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--mutate-share" => {
                args.mutate_share = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| (0.0..1.0).contains(s))
                        .ok_or("--mutate-share takes a number in [0, 1)")?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["solve_suite", "serve_read", "serve_mixed"].contains(&args.workload.as_str()) {
        return Err("--workload must be solve_suite, serve_read or serve_mixed".into());
    }
    if args.mutate_share.is_some() && args.workload != "serve_mixed" {
        return Err("--mutate-share applies to serve_mixed only".into());
    }
    Ok(args)
}

/// Build `sbreak` in the checkout and return the executable's path.
fn build_sbreak() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "sbreak",
        ])
        .arg("--message-format=json")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building sbreak failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|m| m.path(&["target", "name"]).and_then(json::Json::str) == Some("sbreak"))
        .find_map(|m| {
            m.get("executable")
                .and_then(json::Json::str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no sbreak executable".into())
}

fn git_rev() -> String {
    // Look no further up than the checkout itself.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default()
}

/// FNV-1a over the program's sources, so a result names the code it
/// measured even in a checkout that is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for d in ["src", "crates", "shims"] {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let sbreak = build_sbreak()?;
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        sbreak,
        work,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let steal_before = procs::cpu_ticks();
    let result = match args.workload.as_str() {
        "solve_suite" => suite::run(&ctx),
        "serve_read" => serve::run(&ctx, &serve::SERVE_READ),
        _ => serve::run(
            &ctx,
            &serve::Mix {
                mutate_share: args.mutate_share.unwrap_or(serve::SERVE_MIXED.mutate_share),
                ..serve::SERVE_MIXED
            },
        ),
    };
    let cleaned = std::fs::remove_dir_all(&ctx.work);
    // Drop the parent too when no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    let mut out = result?;
    // Time the hypervisor gave this guest's vCPUs to other guests: when
    // high, every wall-clock figure of the run is slower for reasons
    // outside the program.
    if let Some(pct) = procs::steal_pct_since(steal_before) {
        out.prov("host_steal_pct", json::num(pct));
    }
    cleaned.map_err(|e| format!("cannot remove {}: {e}", ctx.work.display()))?;
    report(args, &ctx, out)
}

/// Save the provenance record and spans, and render the result line.
fn report(args: &Args, ctx: &Ctx, out: Outcome) -> Result<String, String> {
    let declared: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = match out.metrics.get(*name) {
            Some(v) => *v,
            // A bypassed layer reads 0; a missing end-to-end metric is a bug.
            None if ctx.trace => 0.0,
            None => return Err(format!("workload produced no {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json::num(value)
        ));
    }
    // `correct` is about outputs; refused or timed-out operations count
    // in `failed` (a workload's own checks clear `correct` on wrong output).
    let correct = out.correct && out.attempted > 0;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );

    let results = Path::new(".bench_results");
    std::fs::create_dir_all(results).map_err(|e| format!("cannot create .bench_results: {e}"))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut prov = vec![
        ("schema".to_string(), format!("\"{SCHEMA}\"")),
        ("workload".into(), format!("\"{}\"", args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json::num(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("scale".into(), json::num(inputs::SCALE)),
        (
            "graph_seed".into(),
            inputs::graph_seed(args.seed).to_string(),
        ),
        (
            "solver_seed".into(),
            inputs::solver_seed(args.seed).to_string(),
        ),
        ("nproc".into(), nproc.to_string()),
        ("git_rev".into(), format!("\"{}\"", git_rev())),
        ("source_digest".into(), format!("\"{}\"", source_digest())),
    ];
    prov.extend(out.provenance);
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json::escape(n)))
        .collect();
    prov.push(("notes".into(), format!("[{}]", notes.join(","))));
    prov.push(("result".into(), result.clone()));
    let body: Vec<String> = prov.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let record = format!("{{{}}}", body.join(","));
    std::fs::write(results.join(format!("{stem}.json")), format!("{record}\n"))
        .map_err(|e| format!("cannot write provenance: {e}"))?;
    if let Some((log, name)) = &out.spans {
        log.save(&results.join(format!("{stem}.{name}.spans.jsonl")))
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    println!("provenance {record}");
    Ok(result)
}

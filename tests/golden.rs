//! Golden-output tests: pin the schema of every `results/*` writer and
//! the bytes of the deterministic tables. Any schema change — a renamed
//! column, a reordered header, a new table — fails here first.
//!
//! Intentional changes are blessed, never hand-edited:
//!
//! ```text
//! SBREAK_BLESS=1 cargo test --test golden
//! ```

use sb_bench::harness::{load_suite, BenchConfig};
use sb_bench::{runners, schemas};
use sb_core::common::{Arch, FrontierMode, SolveOpts};
use sb_core::solver::{solve, Solver};
use sb_datasets::suite::{generate, spec, GraphId, Scale};
use sb_engine::protocol::{MutateParams, SolveParams};
use sb_engine::{run_batch_compare, BatchOptions, EngineConfig, JobSpec, ServeConfig, Server};
use sb_metrics::JsonValue;
use std::fs;
use std::path::{Path, PathBuf};
use symmetry_breaking::loadgen::{run_loadgen, LoadgenOptions};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` against the checked-in golden file, or rewrite the
/// golden file when `SBREAK_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("SBREAK_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "cannot read golden file {}: {e}\n\
             run `SBREAK_BLESS=1 cargo test --test golden` to generate it",
            path.display()
        ),
    };
    if expected != actual {
        let (line, want, got) = first_diff(&expected, actual);
        panic!(
            "{name} diverges from its golden file at line {line}:\n\
             \x20 golden: {want:?}\n\
             \x20 actual: {got:?}\n\
             If this schema change is intentional, regenerate with \
             `SBREAK_BLESS=1 cargo test --test golden` and commit the diff."
        );
    }
}

fn first_diff(a: &str, b: &str) -> (usize, String, String) {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return (i + 1, la.into(), lb.into());
        }
    }
    let (an, bn) = (a.lines().count(), b.lines().count());
    (
        an.min(bn) + 1,
        format!("<{an} lines>"),
        format!("<{bn} lines>"),
    )
}

/// Blank out the value of each volatile (timing-derived) key in the
/// flat `"key":"value"` JSON the reports write, keeping the structure.
fn mask_values(body: &str, keys: &[&str]) -> String {
    let mut out = body.to_string();
    for key in keys {
        let pat = format!("\"{key}\":\"");
        let mut masked = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(i) = rest.find(&pat) {
            let start = i + pat.len();
            masked.push_str(&rest[..start]);
            masked.push('#');
            let tail = &rest[start..];
            let end = tail.find('"').expect("unterminated JSON string");
            rest = &tail[end..];
        }
        masked.push_str(rest);
        out = masked;
    }
    out
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbreak-golden-{tag}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn schema_registry_is_pinned() {
    // Every results/* writer declares its table in sb_bench::schemas; this
    // pins the full registry (names, titles, headers) in one file.
    check_golden("schema_registry.txt", &schemas::render_registry());
}

#[test]
fn table2_csv_bytes_are_pinned_at_tiny_scale() {
    // Table II is pure graph statistics — no wall-clock columns — so the
    // whole CSV is a deterministic function of (scale, seed). Pin it.
    let cfg = BenchConfig {
        scale: Scale::Factor(0.05),
        ..BenchConfig::default()
    };
    let suite = load_suite(&cfg);
    let table = runners::table2(&suite);
    let dir = scratch("table2");
    table.save_csv(&dir, "table2").unwrap();
    let csv = fs::read_to_string(dir.join("table2.csv")).unwrap();
    check_golden("table2_tiny.csv", &csv);

    // The JSON twin shares the bytes-level guarantee.
    table.save_json(&dir, "table2").unwrap();
    let json = fs::read_to_string(dir.join("table2.json")).unwrap();
    check_golden("table2_tiny.json", &json);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_batch_report_json_shape_is_pinned() {
    // Three problems on one graph through the engine with a fresh-reference
    // comparison: everything but the wall-clock numbers is deterministic.
    // Mask the timing values, pin the rest (keys, order, labels, cache
    // accounting, outcome strings).
    let job = |label: &str, solver: Solver| JobSpec {
        label: label.to_string(),
        graph: "gen:lp1".to_string(),
        scale: 0.05,
        graph_seed: Some(42),
        solver,
        arch: Arch::Cpu,
        frontier: FrontierMode::Compact,
        seed: 42,
        threads: None,
        timeout_ms: None,
    };
    let jobs = [
        job("mm", "mm-rand:4".parse().unwrap()),
        job("color", "color-degk:2".parse().unwrap()),
        job("mis", "mis-degk:2".parse().unwrap()),
    ];
    let report = run_batch_compare(&jobs, EngineConfig::default(), &BatchOptions::default())
        .expect("batch must run");
    assert!(report.all_ok(), "{:?}", report.jobs);

    let dir = scratch("engine-report");
    let path = dir.join("BENCH_engine.json");
    report.save_json(&path).unwrap();
    let body = fs::read_to_string(&path).unwrap();

    // Every schema key must appear verbatim before masking.
    for key in sb_engine::report::RECORD_KEYS {
        assert!(body.contains(&format!("\"{key}\":")), "missing key {key}");
    }
    let masked = mask_values(
        &body,
        &[
            "decompose_ms",
            "solve_ms",
            "wall_ms",
            "fresh_wall_ms",
            "speedup",
        ],
    );
    check_golden("bench_engine_shape.json", &masked);
    fs::remove_dir_all(&dir).ok();
}

/// Render a parsed JSON document as one `path: kind` line per leaf, in
/// document order. Strings keep their value (they are all deterministic
/// in the serve stats document); numbers and booleans reduce to their
/// kind, so wall-clock values can't destabilise the golden file.
fn render_shape(value: &JsonValue, path: &str, out: &mut String) {
    match value {
        JsonValue::Obj(members) => {
            for (key, v) in members {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                render_shape(v, &child, out);
            }
        }
        JsonValue::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                render_shape(v, &format!("{path}[{i}]"), out);
            }
        }
        JsonValue::Str(s) => out.push_str(&format!("{path}: str {s:?}\n")),
        JsonValue::Num(_) => out.push_str(&format!("{path}: num\n")),
        JsonValue::Bool(_) => out.push_str(&format!("{path}: bool\n")),
        JsonValue::Null => out.push_str(&format!("{path}: null\n")),
    }
}

#[test]
fn serve_stats_shape_is_pinned() {
    // Drive a fixed two-tenant workload through a real server, then pin
    // the shape of the `stats` document: every key path, the tenant
    // listing, and the per-phase latency key set are deterministic; only
    // the measured numbers vary, and those reduce to `num`.
    let server = Server::spawn(ServeConfig::default()).expect("bind loopback");
    let mut client = sb_engine::Client::connect(server.addr()).unwrap();

    let mut job = SolveParams::new("gen:lp1", "color", "degk:2");
    job.scale = 0.05;
    job.graph_seed = Some(42);
    job.seed = 11;
    job.id = "g1".into();
    job.tenant = "tenant-a".into();
    assert_eq!(client.solve(&job).unwrap().status(), "ok");
    job.tenant = "tenant-b".into();
    assert_eq!(client.solve(&job).unwrap().status(), "ok");
    let mut mm = job.clone();
    mm.problem = "mm".into();
    mm.algo = "rand:4".into();
    assert_eq!(client.solve(&mm).unwrap().status(), "ok");

    // One mutate stream (prime, then a repair) so the repairs block and
    // the repair phase-latency key are exercised in the pinned shape.
    let mut mutate = MutateParams::new("gen:lp1", "mis", "degk:2", "");
    mutate.solve.scale = 0.05;
    mutate.solve.graph_seed = Some(42);
    mutate.solve.seed = 11;
    mutate.solve.id = "m1".into();
    mutate.solve.tenant = "tenant-a".into();
    assert_eq!(client.mutate(&mutate).unwrap().status(), "ok");
    mutate.edits = "+0-5,-0-1".into();
    assert_eq!(client.mutate(&mutate).unwrap().status(), "ok");

    let stats = client.stats().unwrap();
    let mut shape = String::new();
    render_shape(&stats.raw, "", &mut shape);
    check_golden("serve_stats_shape.txt", &shape);

    server.shutdown();
    server.join();
}

#[test]
fn bench_serve_report_json_shape_is_pinned() {
    // The loadgen report at a fixed tiny workload: request/outcome counts
    // and cache-hit columns are deterministic (single client, generous
    // queue, no deadlines); only the latency/throughput cells vary.
    let summary = run_loadgen(&LoadgenOptions {
        clients: 1,
        repeats: 2,
        scale: 0.05,
        ..LoadgenOptions::default()
    })
    .expect("loadgen runs");
    assert_eq!(summary.warm.ok, 6, "deterministic warm request count");

    let dir = scratch("bench-serve");
    summary.table.save_json(&dir, "BENCH_serve").unwrap();
    let body = fs::read_to_string(dir.join("BENCH_serve.json")).unwrap();
    let masked = mask_values(&body, &["p50 ms", "p99 ms", "mean ms", "rps"]);
    check_golden("bench_serve_shape.json", &masked);
    fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over `bytes`: a 64-bit digest that is stable across builds,
/// platforms and toolchains (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn solution_digests_and_counters_are_pinned() {
    // Every solver × arch × frontier mode on two tiny suite graphs of
    // different shape: the digest of the rendered solution plus the
    // deterministic work counters. The golden lines come from one thread,
    // where every solver (VB coloring included) is interleaving-free. A
    // problem that is byte-stable at the pool width `SBREAK_TEST_THREADS`
    // (default 4; every problem but COLOR) must print the same line there,
    // so a counter charged in an order-dependent place fails here too.
    let wide = std::env::var("SBREAK_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1);
    let mut solvers = Vec::new();
    for problem in ["mm", "color", "mis"] {
        for algo in ["baseline", "bridge", "rand", "degk", "bicc"] {
            solvers.push(Solver::parse(problem, algo).unwrap());
        }
    }
    let mut out = String::new();
    for name in ["lp1", "c-73"] {
        let id = GraphId::ALL
            .into_iter()
            .find(|&id| spec(id).name == name)
            .unwrap();
        let g = generate(id, Scale::Tiny, 42);
        for &solver in &solvers {
            for arch in [Arch::Cpu, Arch::GpuSim] {
                for mode in [FrontierMode::Dense, FrontierMode::Compact] {
                    let opts = SolveOpts::with_mode(mode);
                    let line = |threads| {
                        let (solution, stats) = sb_par::exec::with_threads(threads, || {
                            solve(&g, solver, None, arch, 7, &opts)
                        });
                        solution.verify(&g).unwrap();
                        let c = &stats.counters;
                        format!(
                            "{name} {}@{arch}/{mode} {:016x} rounds={} edges={} launches={}\n",
                            solver.label(),
                            fnv1a(solution.render().as_bytes()),
                            c.rounds,
                            c.edges_scanned,
                            c.kernel_launches
                        )
                    };
                    let one = line(1);
                    if wide > 1 && solver.problem.byte_stable_at(wide) {
                        assert_eq!(line(wide), one, "the line differs at {wide} threads");
                    }
                    out.push_str(&one);
                }
            }
        }
    }
    check_golden("solutions.txt", &out);
}

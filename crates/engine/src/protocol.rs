//! The `sbreak serve` wire protocol: JSONL over TCP.
//!
//! One request object per line in, one response object per line out.
//! Requests carry an `op` (`solve`, `mutate`, `stats`, `ping`, `cancel`,
//! `shutdown`); responses carry a `status` (`ok`, `error`, `overloaded`,
//! `timeout`, `cancelled`) and echo the request `id` so clients may
//! pipeline. Parsing is strict — unknown ops, unknown keys, and
//! wrong-typed fields are rejected with a typed `bad_request` error
//! response instead of being ignored, so a typo'd field name fails loudly
//! (the same stance the batch jobs-file parser takes).
//!
//! The `mutate` op is the dynamic-graph surface: a solve request plus an
//! `edits` string in the [`EditLog`] wire form (`+u-v,-u-v,v:n`). Each
//! mutate appends its edits to the tenant's stream for that
//! `(graph, config, seed)` and repairs the previous solution instead of
//! re-solving; the first mutate of a stream primes it with a fresh solve.
//!
//! The JSON reader is the offline-friendly recursive-descent parser from
//! `sb-metrics`; serialization is hand-rolled here. The `stats` response
//! body and the loadgen report are schema-pinned by the golden tests.

use crate::jobs::JobSpec;
use crate::{JobOutcome, JobRecord};
use sb_core::common::{Arch, FrontierMode};
use sb_core::solver::Solver;
use sb_graph::editlog::EditLog;
use sb_metrics::{escape_json, parse_json_value, JsonValue, MAX_SAFE_JSON_INT};

/// Everything a `solve` request may carry, as raw strings plus defaults —
/// resolved into a [`JobSpec`] by [`SolveParams::to_job_spec`]. Also the
/// client-side builder ([`SolveParams::to_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveParams {
    /// Client-chosen request id, echoed on the response ("" = none).
    pub id: String,
    /// Tenant the request's cache inserts are charged to.
    pub tenant: String,
    /// Graph source string (`gen:<name>`, `inline:...`, or a path).
    pub graph: String,
    /// Scale factor for generated graphs.
    pub scale: f64,
    /// Generation seed (defaults to the solver seed).
    pub graph_seed: Option<u64>,
    /// Problem family: `mm` | `color` | `mis`.
    pub problem: String,
    /// Algorithm: `baseline` | `bridge` | `rand[:P]` | `degk[:K]` | `bicc`.
    pub algo: String,
    /// `cpu` | `gpu`.
    pub arch: String,
    /// `dense` | `compact`.
    pub frontier: String,
    /// Solver seed.
    pub seed: u64,
    /// Per-request thread-pool pin.
    pub threads: Option<usize>,
    /// Per-request deadline: total milliseconds from admission (queue wait
    /// included) before the request is abandoned with `timeout`.
    pub deadline_ms: Option<u64>,
    /// Whether the response should carry the rendered solution text.
    pub want_solution: bool,
    /// Test hook: hold the worker for this long before solving. Honored
    /// only when the server runs with `allow_debug` (integration tests);
    /// rejected otherwise.
    pub debug_sleep_ms: u64,
}

impl SolveParams {
    /// A solve request with every optional field at its default.
    pub fn new(graph: &str, problem: &str, algo: &str) -> SolveParams {
        SolveParams {
            id: String::new(),
            tenant: "anon".into(),
            graph: graph.into(),
            scale: 1.0,
            graph_seed: None,
            problem: problem.into(),
            algo: algo.into(),
            arch: "cpu".into(),
            frontier: "compact".into(),
            seed: 42,
            threads: None,
            deadline_ms: None,
            want_solution: false,
            debug_sleep_ms: 0,
        }
    }

    /// Resolve the raw fields into an executable [`JobSpec`].
    pub fn to_job_spec(&self) -> Result<JobSpec, String> {
        let solver = Solver::parse(&self.problem, &self.algo)?;
        let arch: Arch = self.arch.parse()?;
        let frontier: FrontierMode = self.frontier.parse()?;
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!(
                "'scale' must be a positive number, got {}",
                self.scale
            ));
        }
        let label = if self.id.is_empty() {
            "solve".into()
        } else {
            self.id.clone()
        };
        Ok(JobSpec {
            label,
            graph: self.graph.clone(),
            scale: self.scale,
            graph_seed: self.graph_seed,
            solver,
            arch,
            frontier,
            seed: self.seed,
            threads: self.threads,
            // The deadline covers queue wait and solve together; the
            // remaining budget is applied by the server at dequeue.
            timeout_ms: None,
        })
    }

    /// Render the request as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"op\":\"solve\"");
        self.push_fields(&mut s);
        s.push('}');
        s
    }

    /// Append the solve fields (shared by the `solve` and `mutate` wire
    /// forms) to a partially-built request object.
    fn push_fields(&self, s: &mut String) {
        if !self.id.is_empty() {
            *s += &format!(",\"id\":\"{}\"", escape_json(&self.id));
        }
        *s += &format!(",\"tenant\":\"{}\"", escape_json(&self.tenant));
        *s += &format!(",\"graph\":\"{}\"", escape_json(&self.graph));
        *s += &format!(",\"scale\":{}", self.scale);
        if let Some(gs) = self.graph_seed {
            *s += &format!(",\"graph_seed\":{gs}");
        }
        *s += &format!(",\"problem\":\"{}\"", escape_json(&self.problem));
        *s += &format!(",\"algo\":\"{}\"", escape_json(&self.algo));
        *s += &format!(",\"arch\":\"{}\"", escape_json(&self.arch));
        *s += &format!(",\"frontier\":\"{}\"", escape_json(&self.frontier));
        *s += &format!(",\"seed\":{}", self.seed);
        if let Some(t) = self.threads {
            *s += &format!(",\"threads\":{t}");
        }
        if let Some(d) = self.deadline_ms {
            *s += &format!(",\"deadline_ms\":{d}");
        }
        if self.want_solution {
            *s += ",\"want_solution\":true";
        }
        if self.debug_sleep_ms > 0 {
            *s += &format!(",\"debug_sleep_ms\":{}", self.debug_sleep_ms);
        }
    }
}

/// A `mutate` request: a solve configuration plus an edit batch in the
/// [`EditLog`] wire form. The solve fields identify the *base* graph and
/// the solver stream the edits extend; the server accumulates edits per
/// `(tenant, graph, config, seed)` and repairs that stream's previous
/// solution rather than re-solving from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct MutateParams {
    /// The solve configuration (base graph, problem, algo, tenant, ...).
    pub solve: SolveParams,
    /// Edit batch in wire form (`+u-v` add, `-u-v` remove, `v:n` grow to
    /// `n` vertices; comma-separated). May encode an empty batch, which
    /// primes the stream with a fresh solve.
    pub edits: String,
}

impl MutateParams {
    /// A mutate request with every optional solve field at its default.
    pub fn new(graph: &str, problem: &str, algo: &str, edits: &str) -> MutateParams {
        MutateParams {
            solve: SolveParams::new(graph, problem, algo),
            edits: edits.into(),
        }
    }

    /// Parse the edit batch. Validated at request-parse time, so this
    /// cannot fail for a `MutateParams` that came off the wire.
    pub fn edit_log(&self) -> Result<EditLog, String> {
        EditLog::parse(&self.edits).map_err(|e| format!("bad 'edits': {e}"))
    }

    /// Render the request as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"op\":\"mutate\"");
        self.solve.push_fields(&mut s);
        s += &format!(",\"edits\":\"{}\"", escape_json(&self.edits));
        s.push('}');
        s
    }
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one solve job.
    Solve(Box<SolveParams>),
    /// Stream an edit batch into a solver stream and repair its solution.
    Mutate(Box<MutateParams>),
    /// Report server/cache/latency statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Cancel the in-flight or queued request with this id (same
    /// connection only).
    Cancel {
        /// Id of the request to cancel.
        id: String,
    },
    /// Drain and stop the server.
    Shutdown,
}

const SOLVE_KEYS: &[&str] = &[
    "op",
    "id",
    "tenant",
    "graph",
    "scale",
    "graph_seed",
    "problem",
    "algo",
    "arch",
    "frontier",
    "seed",
    "threads",
    "deadline_ms",
    "want_solution",
    "debug_sleep_ms",
];

const MUTATE_KEYS: &[&str] = &[
    "op",
    "id",
    "tenant",
    "graph",
    "scale",
    "graph_seed",
    "problem",
    "algo",
    "arch",
    "frontier",
    "seed",
    "threads",
    "deadline_ms",
    "want_solution",
    "debug_sleep_ms",
    "edits",
];

fn want_str(obj: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("'{key}' must be a string")),
    }
}

/// An integer field. Values above [`MAX_SAFE_JSON_INT`] are rejected: a
/// solve with a quietly rounded seed is worse than a typed error.
fn want_u64(obj: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) if n <= MAX_SAFE_JSON_INT => Ok(Some(n)),
            Some(n) => Err(format!(
                "'{key}' value {n} exceeds 2^53-1 and would lose precision in JSON"
            )),
            None => Err(format!("'{key}' must be a non-negative integer")),
        },
    }
}

fn want_f64(obj: &JsonValue, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be a number")),
    }
}

fn want_bool(obj: &JsonValue, key: &str) -> Result<Option<bool>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(JsonValue::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("'{key}' must be a boolean")),
    }
}

/// Parse the solve-shaped fields shared by `solve` and `mutate`, after
/// the caller has checked the op's key whitelist.
fn parse_solve_fields(v: &JsonValue, op: &str) -> Result<SolveParams, String> {
    let graph = want_str(v, "graph")?.ok_or_else(|| format!("{op} is missing 'graph'"))?;
    let problem = want_str(v, "problem")?.ok_or_else(|| format!("{op} is missing 'problem'"))?;
    let algo = want_str(v, "algo")?.ok_or_else(|| format!("{op} is missing 'algo'"))?;
    let mut p = SolveParams::new(&graph, &problem, &algo);
    if let Some(id) = want_str(v, "id")? {
        p.id = id;
    }
    if let Some(tenant) = want_str(v, "tenant")? {
        if tenant.is_empty() {
            return Err("'tenant' must not be empty".into());
        }
        p.tenant = tenant;
    }
    if let Some(scale) = want_f64(v, "scale")? {
        p.scale = scale;
    }
    p.graph_seed = want_u64(v, "graph_seed")?;
    if let Some(arch) = want_str(v, "arch")? {
        p.arch = arch;
    }
    if let Some(frontier) = want_str(v, "frontier")? {
        p.frontier = frontier;
    }
    if let Some(seed) = want_u64(v, "seed")? {
        p.seed = seed;
    }
    p.threads = want_u64(v, "threads")?.map(|t| t as usize);
    p.deadline_ms = want_u64(v, "deadline_ms")?;
    p.want_solution = want_bool(v, "want_solution")?.unwrap_or(false);
    p.debug_sleep_ms = want_u64(v, "debug_sleep_ms")?.unwrap_or(0);
    // Fail malformed solver/arch/frontier fields at parse time so the
    // client gets a bad_request, not a failed job.
    p.to_job_spec()?;
    Ok(p)
}

fn check_keys(members: &[(String, JsonValue)], op: &str, known: &[&str]) -> Result<(), String> {
    for (key, _) in members {
        if !known.contains(&key.as_str()) {
            return Err(format!(
                "unknown key '{key}' for op {op} (known keys: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parse one request line. Errors are client-facing `bad_request` details.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json_value(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let members = v.as_obj().ok_or("request must be a JSON object")?;
    let op = want_str(&v, "op")?.ok_or("request is missing 'op'")?;
    match op.as_str() {
        "solve" => {
            check_keys(members, "solve", SOLVE_KEYS)?;
            let p = parse_solve_fields(&v, "solve")?;
            Ok(Request::Solve(Box::new(p)))
        }
        "mutate" => {
            check_keys(members, "mutate", MUTATE_KEYS)?;
            let solve = parse_solve_fields(&v, "mutate")?;
            let edits = want_str(&v, "edits")?.ok_or("mutate is missing 'edits'")?;
            let m = MutateParams { solve, edits };
            // Malformed or out-of-range edit batches are a bad_request,
            // not a failed job.
            m.edit_log()?;
            Ok(Request::Mutate(Box::new(m)))
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "cancel" => {
            let id = want_str(&v, "id")?.ok_or("cancel is missing 'id'")?;
            Ok(Request::Cancel { id })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op '{other}' (expected solve, mutate, stats, ping, cancel, or shutdown)"
        )),
    }
}

fn id_prefix(id: &str) -> String {
    if id.is_empty() {
        String::new()
    } else {
        format!("\"id\":\"{}\",", escape_json(id))
    }
}

/// Response for a completed solve, whatever its outcome. `queue_ms` is the
/// time spent waiting for a worker slot.
pub fn solve_response_json(
    id: &str,
    record: &JobRecord,
    queue_ms: f64,
    want_solution: bool,
) -> String {
    let mut s = format!("{{{}", id_prefix(id));
    match &record.outcome {
        JobOutcome::Ok => s += "\"status\":\"ok\"",
        JobOutcome::TimedOut => s += "\"status\":\"timeout\"",
        JobOutcome::Cancelled => s += "\"status\":\"cancelled\"",
        JobOutcome::Failed(_) => s += "\"status\":\"error\",\"code\":\"failed\"",
    }
    s += &format!(",\"detail\":\"{}\"", escape_json(&record.detail));
    s += &format!(",\"graph\":\"{}\"", escape_json(&record.graph));
    s += &format!(",\"config\":\"{}\"", escape_json(&record.config));
    s += &format!(",\"graph_cached\":{}", record.graph_cached);
    match record.decomp_cached {
        Some(b) => s += &format!(",\"decomp_cached\":{b}"),
        None => s += ",\"decomp_cached\":null",
    }
    s += &format!(",\"decompose_ms\":{:.3}", record.decompose_ms);
    s += &format!(",\"solve_ms\":{:.3}", record.solve_ms);
    s += &format!(",\"wall_ms\":{:.3}", record.wall_ms);
    s += &format!(",\"queue_ms\":{queue_ms:.3}");
    if want_solution {
        match &record.solution {
            Some(solution) => {
                s += &format!(",\"solution\":\"{}\"", escape_json(&solution.render()));
            }
            None => s += ",\"solution\":null",
        }
    }
    s.push('}');
    s
}

/// Response for a completed mutate: `solve_response` (the
/// [`solve_response_json`] of the run) plus the repair provenance — whether
/// the solution was repaired from the stream's prior (vs freshly solved to
/// prime it), how many edits this request applied, the stream's cumulative
/// edit count, and how many cached decompositions of the base were patched
/// across the edit.
pub fn mutate_response_json(
    solve_response: String,
    repaired: bool,
    edits_applied: u64,
    edits_total: u64,
    decomps_patched: u64,
) -> String {
    let mut s = solve_response;
    s.pop(); // strip the closing brace; the base form is a JSON object
    s += &format!(
        ",\"op\":\"mutate\",\"repaired\":{repaired},\"edits_applied\":{edits_applied},\
         \"edits_total\":{edits_total},\"decomps_patched\":{decomps_patched}}}"
    );
    s
}

/// A typed failure: `status: error` plus a machine-readable `code`
/// (`bad_request`, `failed`, `shutting_down`).
pub fn error_response_json(id: &str, code: &str, detail: &str) -> String {
    format!(
        "{{{}\"status\":\"error\",\"code\":\"{}\",\"detail\":\"{}\"}}",
        id_prefix(id),
        escape_json(code),
        escape_json(detail)
    )
}

/// Admission-control rejection: the bounded queue is full.
pub fn overloaded_response_json(id: &str, queue_depth: usize, queue_cap: usize) -> String {
    format!(
        "{{{}\"status\":\"overloaded\",\"detail\":\"queue full ({queue_depth}/{queue_cap})\"}}",
        id_prefix(id)
    )
}

/// Queued-too-long / abandoned-at-deadline rejection.
pub fn timeout_response_json(id: &str, detail: &str) -> String {
    format!(
        "{{{}\"status\":\"timeout\",\"detail\":\"{}\"}}",
        id_prefix(id),
        escape_json(detail)
    )
}

/// Cancellation acknowledgement for a request that never ran.
pub fn cancelled_response_json(id: &str, detail: &str) -> String {
    format!(
        "{{{}\"status\":\"cancelled\",\"detail\":\"{}\"}}",
        id_prefix(id),
        escape_json(detail)
    )
}

/// Plain `ok` acknowledgement for control ops (`ping`, `shutdown`).
pub fn ack_response_json(op: &str) -> String {
    format!("{{\"status\":\"ok\",\"op\":\"{}\"}}", escape_json(op))
}

/// Acknowledgement for a `cancel` op: whether the id was found in flight.
pub fn cancel_ack_json(id: &str, found: bool) -> String {
    format!(
        "{{\"status\":\"ok\",\"op\":\"cancel\",\"id\":\"{}\",\"found\":{found}}}",
        escape_json(id)
    )
}

/// One parsed response line, with typed accessors over the raw document.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The parsed response document.
    pub raw: JsonValue,
}

impl Reply {
    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let raw = parse_json_value(line).map_err(|e| format!("invalid response JSON: {e}"))?;
        if raw.as_obj().is_none() {
            return Err("response must be a JSON object".into());
        }
        Ok(Reply { raw })
    }

    /// The `status` field ("" when absent).
    pub fn status(&self) -> &str {
        self.raw
            .get("status")
            .and_then(|v| v.as_str())
            .unwrap_or("")
    }

    /// The echoed request id ("" when absent).
    pub fn id(&self) -> &str {
        self.raw.get("id").and_then(|v| v.as_str()).unwrap_or("")
    }

    /// A string field.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.raw.get(key).and_then(|v| v.as_str())
    }

    /// A numeric field.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.raw.get(key).and_then(|v| v.as_f64())
    }

    /// A boolean field.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.raw.get(key) {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_roundtrips_through_json() {
        let mut p = SolveParams::new("gen:lp1", "mm", "rand:4");
        p.id = "r7".into();
        p.tenant = "team-a".into();
        p.scale = 0.25;
        p.graph_seed = Some(9);
        p.seed = 3;
        p.threads = Some(2);
        p.deadline_ms = Some(1500);
        p.want_solution = true;
        let parsed = parse_request(&p.to_json()).unwrap();
        assert_eq!(parsed, Request::Solve(Box::new(p.clone())));
        let job = p.to_job_spec().unwrap();
        assert_eq!(job.solver, "mm-rand:4".parse().unwrap());
        assert_eq!(job.label, "r7");
        assert_eq!(job.scale, 0.25);
        assert_eq!(job.graph_seed, Some(9));
        assert_eq!(job.threads, Some(2));
        assert_eq!(job.timeout_ms, None, "deadline is applied at dequeue");
    }

    #[test]
    fn mutate_roundtrips_through_json() {
        let mut m = MutateParams::new("inline:6:0-1,1-2,2-3", "mis", "degk:2", "+0-4,-1-2,v:8");
        m.solve.id = "m1".into();
        m.solve.tenant = "team-b".into();
        m.solve.seed = 5;
        let parsed = parse_request(&m.to_json()).unwrap();
        assert_eq!(parsed, Request::Mutate(Box::new(m.clone())));
        let log = m.edit_log().unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(log.wire(), "+0-4,-1-2,v:8");
        // An empty batch is legal (stream priming).
        let prime = MutateParams::new("gen:lp1", "mm", "baseline", "");
        assert!(parse_request(&prime.to_json()).is_ok());
        assert!(prime.edit_log().unwrap().is_empty());
    }

    #[test]
    fn mutate_rejects_bad_requests() {
        let cases = [
            (
                r#"{"op":"mutate","graph":"gen:lp1","problem":"mm","algo":"bicc"}"#,
                "missing 'edits'",
            ),
            (
                r#"{"op":"mutate","graph":"gen:lp1","problem":"mm","algo":"bicc","edits":"+1"}"#,
                "bad 'edits'",
            ),
            (
                r#"{"op":"mutate","graph":"gen:lp1","problem":"mm","algo":"bicc","edits":"+0-4294967295"}"#,
                "bad 'edits'",
            ),
            (
                r#"{"op":"mutate","problem":"mm","algo":"bicc","edits":""}"#,
                "mutate is missing 'graph'",
            ),
            (
                r#"{"op":"mutate","graph":"gen:lp1","problem":"mm","algo":"bicc","edits":"","bogus":1}"#,
                "unknown key 'bogus' for op mutate",
            ),
            (
                r#"{"op":"solve","graph":"gen:lp1","problem":"mm","algo":"bicc","edits":"+0-1"}"#,
                "unknown key 'edits' for op solve",
            ),
        ];
        for (line, needle) in cases {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn mutate_response_extends_solve_response() {
        let record = JobRecord {
            label: "m1".into(),
            graph: "gen:lp1@0.05#42".into(),
            config: "mis-degk:2@cpu/compact".into(),
            seed: 5,
            outcome: JobOutcome::Ok,
            detail: "MIS of 4 vertices".into(),
            graph_cached: true,
            decomp_cached: None,
            decompose_ms: 0.0,
            solve_ms: 0.08,
            wall_ms: 0.2,
            fresh_wall_ms: None,
            solution: None,
            fingerprint: None,
        };
        let line = mutate_response_json(
            solve_response_json("m1", &record, 0.1, false),
            true,
            3,
            7,
            2,
        );
        let reply = Reply::parse(&line).unwrap();
        assert_eq!(reply.status(), "ok");
        assert_eq!(reply.str_field("op"), Some("mutate"));
        assert_eq!(reply.bool_field("repaired"), Some(true));
        assert_eq!(reply.num_field("edits_applied"), Some(3.0));
        assert_eq!(reply.num_field("edits_total"), Some(7.0));
        assert_eq!(reply.num_field("decomps_patched"), Some(2.0));
        assert_eq!(reply.num_field("queue_ms"), Some(0.1));
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":"r1"}"#).unwrap(),
            Request::Cancel { id: "r1".into() }
        );
    }

    #[test]
    fn malformed_requests_get_typed_details() {
        let cases = [
            ("not json at all", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"graph":"gen:lp1"}"#, "missing 'op'"),
            (r#"{"op":"quux"}"#, "unknown op 'quux'"),
            (
                r#"{"op":"solve","problem":"mm","algo":"bicc"}"#,
                "missing 'graph'",
            ),
            (
                r#"{"op":"solve","graph":"gen:lp1","problem":"mm","algo":"bicc","bogus":1}"#,
                "unknown key 'bogus'",
            ),
            (
                r#"{"op":"solve","graph":"gen:lp1","problem":"mm","algo":"bicc","seed":"x"}"#,
                "'seed' must be a non-negative integer",
            ),
            (
                r#"{"op":"solve","graph":"gen:lp1","problem":"mm","algo":"bicc","seed":9610570636375330354}"#,
                "lose precision",
            ),
            (
                r#"{"op":"solve","graph":"gen:lp1","problem":"lp","algo":"bicc"}"#,
                "unknown problem",
            ),
            (
                r#"{"op":"solve","graph":"gen:lp1","problem":"mm","algo":"bicc","arch":"tpu"}"#,
                "unknown arch",
            ),
            (r#"{"op":"cancel"}"#, "missing 'id'"),
        ];
        for (line, needle) in cases {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn responses_parse_back_with_typed_fields() {
        let record = JobRecord {
            label: "r1".into(),
            graph: "gen:lp1@0.05#42".into(),
            config: "mm-rand:4@cpu/compact".into(),
            seed: 11,
            outcome: JobOutcome::Ok,
            detail: "matching of 3 edges".into(),
            graph_cached: true,
            decomp_cached: Some(true),
            decompose_ms: 0.0,
            solve_ms: 1.25,
            wall_ms: 1.5,
            fresh_wall_ms: None,
            solution: Some(sb_core::Solution::Mate(vec![1, 0, 3, 2])),
            fingerprint: None,
        };
        let reply = Reply::parse(&solve_response_json("r1", &record, 0.5, true)).unwrap();
        assert_eq!(reply.status(), "ok");
        assert_eq!(reply.id(), "r1");
        assert_eq!(reply.bool_field("graph_cached"), Some(true));
        assert_eq!(reply.bool_field("decomp_cached"), Some(true));
        assert_eq!(reply.num_field("queue_ms"), Some(0.5));
        assert_eq!(reply.str_field("solution"), Some("0 1\n2 3\n"));

        let reply = Reply::parse(&error_response_json("x", "bad_request", "nope")).unwrap();
        assert_eq!(reply.status(), "error");
        assert_eq!(reply.str_field("code"), Some("bad_request"));
        let reply = Reply::parse(&overloaded_response_json("", 8, 8)).unwrap();
        assert_eq!(reply.status(), "overloaded");
        assert_eq!(reply.id(), "");
        let reply = Reply::parse(&cancel_ack_json("r9", true)).unwrap();
        assert_eq!(reply.bool_field("found"), Some(true));
    }
}

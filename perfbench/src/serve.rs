//! `serve_read` and `serve_mixed`: open-loop load against an `sbreak serve`
//! child process over its JSONL wire protocol.
//!
//! Requests carry only graph, problem, algo, seed, tenant, id and
//! `want_solution` (plus `edits` on mutates), so worker count, frontier
//! mode, arch, threads and pool strategy stay at the daemon's defaults.

use crate::edits::{Batch, EditStream};
use crate::inputs::{self, Rng, GRAPHS};
use crate::json::{self, Json};
use crate::procs::Ticks;
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile, FAILED_MS};
use crate::{Ctx, Outcome};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-workload traffic settings. Rates are fixed, not derived from the
/// host, so two commits are always offered the same load.
#[derive(Clone, Copy)]
pub struct Mix {
    pub name: &'static str,
    /// Offered rate of the latency window, requests/s: about a third of
    /// the measured capacity, so `p99_ms` is taken well below the knee
    /// and nothing is refused even while other tenants of the host halve
    /// its speed.
    pub rate: f64,
    /// Share of requests that are `mutate`s (see `perfbench/README.md`
    /// for how `serve_mixed`'s share was chosen; `--mutate-share`
    /// overrides it for sensitivity sweeps).
    pub mutate_share: f64,
    /// The fixed `p99_ms` limit a capacity-ladder rung must meet. Mixed
    /// traffic gets more room: a mutate holds the engine lock across an
    /// O(m) materialize, and reads queue behind it well before the knee.
    pub limit_ms: f64,
}

/// The capacity ladder: rung `k` offers `rate × 2 × LADDER_STEP^k`, from
/// `LADDER_LOW` (1.0× the latency rate) to `LADDER_HIGH` (6.0×).
const LADDER_STEP: f64 = 1.035;
const LADDER_LOW: i32 = -20;
const LADDER_HIGH: i32 = 32;
/// Rungs the capacity walk runs, and the last of them it averages.
const WALK_TRIALS: usize = 16;
const WALK_AVERAGED: usize = 10;
/// Rungs the walk moves per step until its first turn.
const WALK_COARSE: i32 = 4;

pub const SERVE_READ: Mix = Mix {
    name: "serve_read",
    rate: 450.0,
    mutate_share: 0.0,
    limit_ms: 25.0,
};

pub const SERVE_MIXED: Mix = Mix {
    name: "serve_mixed",
    rate: 320.0,
    mutate_share: 0.20,
    limit_ms: 40.0,
};

/// The resident graph set: the suite without the Kronecker and
/// random-geometric stand-ins. Their baseline solves take 7–25 ms (GM
/// needs ~1000 rounds on the rgg graphs) against ~1 ms for the rest, so
/// with them in, a few rare request types would set `p99_ms` alone;
/// `solve_suite` keeps all twelve.
const RESIDENT: [&str; 8] = [
    "c-73",
    "lp1",
    "Cit-Patents",
    "coAuthorsCiteseer",
    "germany-osm",
    "road-central",
    "web-Google",
    "webbase-1M",
];

/// Read tenants. The read path does not depend on the tenant beyond
/// per-tenant cache byte accounting (no quota by default), so this is
/// not a cost lever; more than one keeps that accounting exercised.
const TENANTS: usize = 4;
/// Mutation streams: one (graph, problem, algo) per solver family, so
/// every repair routine runs, × `STREAM_TENANTS`. Six streams stay far
/// below the daemon's 256-stream table, and each gets enough batches to
/// cross the 1024-edit rebase within the latency window.
const STREAM_GRAPHS: [(&str, &str, &str); 3] = [
    ("c-73", "mm", "rand:10"),
    ("coAuthorsCiteseer", "mis", "degk:2"),
    ("webbase-1M", "color", "degk:2"),
];
/// Same-stream mutates serialize on the stream's slot, so two tenants
/// per family let both daemon workers run a family's mutates at once.
const STREAM_TENANTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests behind one p99: enough for ten samples beyond it. Ladder
/// rungs and the pools of the latency window (`Window::quiet_pools`)
/// hold at least this many.
const TAIL_SAMPLES: usize = 1050;
/// The latency window is ranked by host disturbance in segments of this
/// much schedule time.
const SEGMENT: Duration = Duration::from_millis(500);
/// How often a window reads the guest's CPU ticks.
const CPU_SAMPLE: Duration = Duration::from_millis(50);
/// Each ladder rung runs at least this long.
const RUNG_MIN_S: f64 = 1.0;
/// Responses still missing this long after the last send are failures.
const DRAIN: Duration = Duration::from_secs(20);

struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Start `sbreak serve` on a free loopback port. Ready means the
    /// daemon printed its bound address, which it does after `bind`, so
    /// there is no readiness polling.
    fn start(sbreak: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(sbreak)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start sbreak serve: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // Owned from here on, so an early return still stops the child.
        let mut daemon = Daemon {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("sbreak serve: {e}"))?;
        daemon.addr = line
            .split_whitespace()
            .find_map(|w| w.parse::<SocketAddr>().ok())
            .ok_or_else(|| format!("sbreak serve printed no address: '{}'", line.trim()))?;
        Ok(daemon)
    }

    /// Ask the daemon to stop and wait until it has exited.
    fn stop(mut self) -> Result<(), String> {
        let sent = Conn::open(self.addr).and_then(|mut c| c.request("{\"op\":\"shutdown\"}"));
        if sent.is_err() {
            let _ = self.child.kill();
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        sent.map(|_| ())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("sbreak serve exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// Reached with the daemon still running only on an error path: never
    /// leave it behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A blocking request/response connection for set-up and `stats`.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).ok();
        // A daemon that stops answering fails the run instead of hanging it.
        s.set_read_timeout(Some(DRAIN)).map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut out = String::new();
        match self.reader.read_line(&mut out) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(out.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        json::parse(&self.request("{\"op\":\"stats\"}")?)
    }
}

/// One read request type: a graph × configuration.
struct ReadType {
    graph: usize,
    problem: &'static str,
    algo: String,
}

/// One mutation stream and every batch planned for it.
struct Stream {
    graph: usize,
    problem: &'static str,
    algo: &'static str,
    tenant: String,
    edits: EditStream,
    batches: Vec<Batch>,
    /// Batches the daemon acknowledged `ok`; only these are in the graph.
    acked: Vec<usize>,
}

#[derive(Clone, Copy)]
enum Kind {
    Read { ty: usize, tenant: usize },
    Mutate { stream: usize, batch: usize },
}

struct Planned {
    at: Duration,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Status {
    Ok,
    /// `overloaded`: the admission queue was full.
    Refused,
    /// `timeout`, `error` or `cancelled`.
    Failed,
    /// `ok`, but the solution differs from the verified reference.
    Mismatch,
}

#[derive(Debug, Clone)]
struct Reply {
    status: Status,
    queue_ms: f64,
    wall_ms: f64,
    decompose_ms: f64,
    solve_ms: f64,
    repaired: bool,
}

/// What the generator saw for one planned request.
#[derive(Default, Clone)]
struct Sample {
    /// Send time and receive time, from the window start.
    sent: Option<Duration>,
    recv: Option<Duration>,
    reply: Option<Reply>,
    /// Set when the reply is a coloring that differs from the reference.
    alt: Option<Alt>,
}

struct Window {
    rate: f64,
    planned: Vec<Planned>,
    samples: Vec<Sample>,
    elapsed: Duration,
    /// The guest's CPU ticks every [`CPU_SAMPLE`] from the window start,
    /// to tell which parts of the window the host disturbed.
    cpu: Vec<(Duration, Ticks)>,
}

impl Window {
    fn latency_ms(&self, i: usize) -> f64 {
        let s = &self.samples[i];
        match (&s.reply, s.recv) {
            (Some(r), Some(recv)) if r.status == Status::Ok => {
                recv.saturating_sub(self.planned[i].at).as_secs_f64() * 1e3
            }
            _ => FAILED_MS,
        }
    }

    fn latencies(&self) -> Vec<f64> {
        (0..self.planned.len())
            .map(|i| self.latency_ms(i))
            .collect()
    }

    /// Share of non-idle CPU time the hypervisor stole from `from` to `to`
    /// (window time), between the last reading at or before `from` and
    /// the first at or after `to`; 0 without readings.
    fn steal_share(&self, from: Duration, to: Duration) -> f64 {
        let a = self.cpu.iter().rev().find(|(t, _)| *t <= from);
        let b = self.cpu.iter().find(|(t, _)| *t >= to);
        match (a, b) {
            (Some((_, a)), Some((_, b))) => a.steal_share(*b),
            _ => 0.0,
        }
    }

    /// The window cut into [`SEGMENT`]s of schedule time, ranked by the
    /// share of CPU time the host stole during each, and grouped in that
    /// order into pools of at least [`TAIL_SAMPLES`] requests; a short
    /// last pool joins the one before. The first pool holds the least
    /// disturbed requests of the window. Equally disturbed segments are
    /// dealt out in strides of the pool count, so on a quiet host every
    /// pool spans the whole window, and with it every phase of the
    /// program's periodic work (stream rebases), not one stretch of it.
    /// Returns each pool's latencies and steal share.
    fn quiet_pools(&self) -> Vec<(Vec<f64>, f64)> {
        let mut segments: Vec<Vec<usize>> = Vec::new();
        for (i, p) in self.planned.iter().enumerate() {
            let k = (p.at.as_secs_f64() / SEGMENT.as_secs_f64()) as usize;
            if segments.len() <= k {
                segments.resize(k + 1, Vec::new());
            }
            segments[k].push(i);
        }
        let share = |k: usize| self.steal_share(SEGMENT * k as u32, SEGMENT * (k as u32 + 1));
        let shares: Vec<f64> = (0..segments.len()).map(share).collect();
        let mut order: Vec<usize> = (0..segments.len()).collect();
        let stride = (self.planned.len() / TAIL_SAMPLES).max(1);
        order.sort_by(|&a, &b| {
            shares[a]
                .total_cmp(&shares[b])
                .then((a % stride).cmp(&(b % stride)))
                .then(a.cmp(&b))
        });
        let mut pools: Vec<Vec<usize>> = vec![Vec::new()];
        let mut size = 0;
        for k in order {
            if size >= TAIL_SAMPLES {
                pools.push(Vec::new());
                size = 0;
            }
            pools.last_mut().expect("a pool").push(k);
            size += segments[k].len();
        }
        if pools.len() > 1 && size < TAIL_SAMPLES {
            let short = pools.pop().expect("a pool");
            pools.last_mut().expect("a pool").extend(short);
        }
        pools
            .iter()
            .map(|ks| {
                let latencies = ks
                    .iter()
                    .flat_map(|&k| &segments[k])
                    .map(|&i| self.latency_ms(i))
                    .collect();
                let share = ks.iter().map(|&k| shares[k]).sum::<f64>() / ks.len().max(1) as f64;
                (latencies, share)
            })
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .zip(&self.planned)
            .filter_map(|(s, p)| s.sent.map(|t| t.saturating_sub(p.at).as_secs_f64() * 1e3))
            .collect()
    }

    fn count(&self, st: Status) -> usize {
        self.samples
            .iter()
            .filter(|s| s.reply.as_ref().is_some_and(|r| r.status == st))
            .count()
    }

    fn failed(&self) -> usize {
        self.planned.len() - self.count(Status::Ok)
    }

    /// Rate the generator actually sent at, over its send-time span.
    fn offered_rps(&self) -> f64 {
        let sent: Vec<Duration> = self.samples.iter().filter_map(|s| s.sent).collect();
        match (sent.iter().min(), sent.iter().max()) {
            (Some(a), Some(b)) if b > a => (sent.len() - 1) as f64 / (*b - *a).as_secs_f64(),
            _ => 0.0,
        }
    }

    fn ok_rate(&self) -> f64 {
        self.count(Status::Ok) as f64 / self.elapsed.as_secs_f64()
    }

    /// Whether generator lateness grew across the window: the mean of the
    /// last third above the first third's by more than a millisecond.
    fn lateness_grew(&self) -> bool {
        let late = self.late_ms();
        let third = late.len() / 3;
        third > 0 && mean(&late[late.len() - third..]) > mean(&late[..third]) + 1.0
    }
}

/// The traffic model of one run: request types, streams, references.
struct Traffic<'a> {
    mix: &'a Mix,
    inputs: PathBuf,
    seed: u64,
    reads: Vec<ReadType>,
    streams: Vec<Stream>,
    /// Verified reference solution per read type, as the escaped bytes
    /// the daemon sends.
    reference: Vec<Vec<u8>>,
    /// The suite graphs, read with the reference reader.
    graphs: Vec<sb_graph::csr::Graph>,
    rng: Rng,
    next_id: usize,
}

impl Traffic<'_> {
    fn graph_arg(&self, graph: usize) -> String {
        json::escape(&inputs::graph_path(&self.inputs, GRAPHS[graph]).to_string_lossy())
    }

    fn read_line(&self, id: &str, ty: usize, tenant: usize) -> String {
        let t = &self.reads[ty];
        format!(
            "{{\"op\":\"solve\",\"id\":\"{id}\",\"tenant\":\"tenant{tenant}\",\"graph\":\"{}\",\
             \"problem\":\"{}\",\"algo\":\"{}\",\"seed\":{},\"want_solution\":true}}",
            self.graph_arg(t.graph),
            t.problem,
            t.algo,
            inputs::solver_seed(self.seed)
        )
    }

    fn mutate_line(&self, id: &str, stream: usize, edits: &str, want_solution: bool) -> String {
        let s = &self.streams[stream];
        format!(
            "{{\"op\":\"mutate\",\"id\":\"{id}\",\"tenant\":\"{}\",\"graph\":\"{}\",\
             \"problem\":\"{}\",\"algo\":\"{}\",\"seed\":{},\"want_solution\":{want_solution},\
             \"edits\":\"{edits}\"}}",
            s.tenant,
            self.graph_arg(s.graph),
            s.problem,
            s.algo,
            inputs::solver_seed(self.seed)
        )
    }

    /// A seeded open-loop schedule: constant spacing at `rate`, request
    /// kinds drawn from the mix. Mutate batches are drawn here, in
    /// schedule order, so a stream's batches are fixed by the seed. A
    /// mutate drawn for a stream that has no base edges left to remove
    /// (only a climb far past any measured capacity gets there) is sent
    /// as a read.
    fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<Planned> {
        let n = (rate * seconds).round().max(1.0) as usize;
        (0..n)
            .map(|i| {
                let at = Duration::from_secs_f64(i as f64 / rate);
                let mutate = self.mix.mutate_share > 0.0
                    && (self.rng.below(1_000_000) as f64) < self.mix.mutate_share * 1e6;
                let kind = mutate.then(|| self.next_mutate()).flatten();
                let kind = kind.unwrap_or_else(|| Kind::Read {
                    ty: self.rng.below(self.reads.len() as u64) as usize,
                    tenant: self.rng.below(TENANTS as u64) as usize,
                });
                Planned { at, kind }
            })
            .collect()
    }

    fn next_mutate(&mut self) -> Option<Kind> {
        let stream = self.rng.below(self.streams.len() as u64) as usize;
        let s = &mut self.streams[stream];
        s.batches.push(s.edits.next_batch()?);
        Some(Kind::Mutate {
            stream,
            batch: s.batches.len() - 1,
        })
    }

    fn line_for(&self, id: &str, kind: Kind) -> String {
        match kind {
            Kind::Read { ty, tenant } => self.read_line(id, ty, tenant),
            Kind::Mutate { stream, batch } => {
                self.mutate_line(id, stream, &self.streams[stream].batches[batch].wire, false)
            }
        }
    }
}

/// Extract the raw (still escaped) `solution` string of a response line,
/// and the line with that member cut out for cheap parsing of the rest.
fn split_solution(line: &[u8]) -> (Option<&[u8]>, Vec<u8>) {
    const KEY: &[u8] = b",\"solution\":\"";
    let Some(start) = line.windows(KEY.len()).position(|w| w == KEY) else {
        return (None, line.to_vec());
    };
    let body = start + KEY.len();
    // Rendered solutions hold digits, spaces and newlines only, so the
    // first quote ends the string.
    let Some(len) = line[body..].iter().position(|&b| b == b'"') else {
        return (None, line.to_vec());
    };
    let mut rest = line[..start].to_vec();
    rest.extend_from_slice(&line[body + len + 1..]);
    (Some(&line[body..body + len]), rest)
}

/// How a read reply's solution is checked.
#[derive(Clone, Copy)]
enum Check<'a> {
    /// A seed-deterministic solver: the reply must equal the verified
    /// reference byte for byte.
    Exact(&'a [u8]),
    /// VB coloring (and the composites built on it) commits colors in an
    /// interleaving-dependent order by design, so a reply may differ from
    /// the reference; each distinct one is then run through the reference
    /// verifier after the window.
    Valid { reference: &'a [u8], ty: usize },
    /// Mutates: verified once at the end of the run.
    Stream,
}

/// FNV-1a of a solution's wire bytes, to verify each distinct one once.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A reply whose solution still has to be verified: its read type and
/// the hash of its wire bytes.
type Alt = (usize, u64);

/// A parsed reply: echoed id, reply fields, and a differing coloring's
/// key with its wire bytes.
type Parsed<'l> = (String, Reply, Option<(Alt, &'l [u8])>);

fn parse_reply<'l>(line: &'l [u8], check: Check<'_>) -> Result<Parsed<'l>, String> {
    let (solution, rest) = split_solution(line);
    let v = json::parse(std::str::from_utf8(&rest).map_err(|e| e.to_string())?)?;
    let id = v.get("id").and_then(Json::str).unwrap_or("").to_string();
    let mut status = match v.get("status").and_then(Json::str) {
        Some("ok") => Status::Ok,
        Some("overloaded") => Status::Refused,
        _ => Status::Failed,
    };
    let mut alt = None;
    if status == Status::Ok {
        match (check, solution) {
            (Check::Exact(reference), Some(sol)) if sol == reference => {}
            (Check::Valid { reference, .. }, Some(sol)) if sol == reference => {}
            (Check::Valid { ty, .. }, Some(sol)) => alt = Some(((ty, fnv(sol)), sol)),
            (Check::Stream, _) => {}
            _ => status = Status::Mismatch,
        }
    }
    Ok((
        id,
        Reply {
            status,
            queue_ms: v.num_or_zero("queue_ms"),
            wall_ms: v.num_or_zero("wall_ms"),
            decompose_ms: v.num_or_zero("decompose_ms"),
            solve_ms: v.num_or_zero("solve_ms"),
            repaired: v.get("repaired").and_then(Json::bool).unwrap_or(false),
        },
        alt,
    ))
}

/// Drive one open-loop window over one pipelined connection with two
/// threads: a sender that sleeps until each request is due and writes it,
/// and a receiver that blocks on replies. No request waits for an earlier
/// reply, and neither side's timing depends on the other. (Socket read
/// timeouts tick in scheduler jiffies, so a single thread alternating
/// between sending and timed reads ran milliseconds late.) Latency counts
/// from the due time.
fn run_window(
    traffic: &mut Traffic,
    addr: SocketAddr,
    rate: f64,
    seconds: f64,
) -> Result<Window, String> {
    let planned = traffic.schedule(rate, seconds);
    let base = traffic.next_id;
    traffic.next_id += planned.len();
    let lines: Vec<String> = planned
        .iter()
        .enumerate()
        .map(|(i, p)| traffic.line_for(&format!("q{}", base + i), p.kind))
        .collect();
    let checks: Vec<Check> = planned
        .iter()
        .map(|p| match p.kind {
            Kind::Read { ty, .. } if traffic.reads[ty].problem == "color" => Check::Valid {
                reference: &traffic.reference[ty],
                ty,
            },
            Kind::Read { ty, .. } => Check::Exact(&traffic.reference[ty]),
            Kind::Mutate { .. } => Check::Stream,
        })
        .collect();
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let writer = conn.try_clone().map_err(|e| e.to_string())?;
    let last_due = planned.last().map_or(Duration::ZERO, |p| p.at);
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let (sent, received, cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_cpu(start, &done));
        let sender = scope.spawn(|| send_all(writer, start, &planned, &lines));
        let receiver =
            scope.spawn(|| receive_all(conn, start, start + last_due + DRAIN, base, &checks));
        let panicked = || -> String { "generator thread panicked".into() };
        let sent = sender.join().unwrap_or_else(|_| Err(panicked()));
        let received = receiver.join().unwrap_or_else(|_| Err(panicked()));
        done.store(true, Ordering::Relaxed);
        (sent, received, sampler.join().unwrap_or_default())
    });
    let elapsed = start.elapsed();
    let (sent, (replies, alts)) = (sent?, received?);
    let mut samples: Vec<Sample> = sent
        .into_iter()
        .map(|t| Sample {
            sent: Some(t),
            ..Sample::default()
        })
        .collect();
    for (i, recv, reply, alt) in replies {
        let s = &mut samples[i];
        s.recv = Some(recv);
        s.reply = Some(reply);
        s.alt = alt;
    }
    // Verify every distinct coloring that differed from the reference.
    let mut invalid = std::collections::HashSet::new();
    for ((ty, hash), raw) in alts {
        let t = &traffic.reads[ty];
        let text = json::parse(&format!("\"{}\"", String::from_utf8_lossy(&raw)))?;
        let text = text.str().unwrap_or("");
        if inputs::verify_solution(&traffic.graphs[t.graph], t.problem, text).is_err() {
            invalid.insert((ty, hash));
        }
    }
    for s in &mut samples {
        if let (Some(alt), Some(reply)) = (s.alt, s.reply.as_mut()) {
            if invalid.contains(&alt) {
                reply.status = Status::Mismatch;
            }
        }
    }
    for (p, s) in planned.iter().zip(&samples) {
        if let (Kind::Mutate { stream, batch }, Some(reply)) = (p.kind, &s.reply) {
            if reply.status == Status::Ok {
                traffic.streams[stream].acked.push(batch);
            }
        }
    }
    Ok(Window {
        rate,
        planned,
        samples,
        elapsed,
        cpu,
    })
}

/// Read the guest's CPU ticks every [`CPU_SAMPLE`] until `done`, and once
/// more after; times are from `start`. Empty where `/proc/stat` is not
/// readable.
fn sample_cpu(start: Instant, done: &AtomicBool) -> Vec<(Duration, Ticks)> {
    let mut out = Vec::new();
    loop {
        let last = done.load(Ordering::Relaxed);
        match crate::procs::cpu_ticks() {
            Some(t) => out.push((start.elapsed(), t)),
            None => return Vec::new(),
        }
        if last {
            return out;
        }
        std::thread::sleep(CPU_SAMPLE);
    }
}

/// Write each request at its due time; returns the actual send times.
fn send_all(
    mut writer: TcpStream,
    start: Instant,
    planned: &[Planned],
    lines: &[String],
) -> Result<Vec<Duration>, String> {
    let mut sent = Vec::with_capacity(planned.len());
    for (p, line) in planned.iter().zip(lines) {
        let due = start + p.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        // Stamped before the write: the reply can arrive before this
        // thread runs again.
        sent.push(start.elapsed());
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
    }
    Ok(sent)
}

/// One reply: planned index, receive time, parsed reply, and the key of a
/// coloring left to verify.
type Received = (usize, Duration, Reply, Option<Alt>);

/// Every reply of a window, and the distinct differing colorings.
type Replies = (Vec<Received>, HashMap<Alt, Vec<u8>>);

/// Read replies until every planned request has one or `deadline` passes;
/// returns them with the distinct differing colorings (wire bytes).
fn receive_all(
    conn: TcpStream,
    start: Instant,
    deadline: Instant,
    base: usize,
    checks: &[Check],
) -> Result<Replies, String> {
    let mut out = Vec::with_capacity(checks.len());
    let mut alts: HashMap<Alt, Vec<u8>> = HashMap::new();
    // The timeout only bounds the wait for replies that never come; a
    // reply that arrives wakes the read at once.
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::with_capacity(1 << 18, conn);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 17);
    while out.len() < checks.len() && Instant::now() < deadline {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Err("daemon closed the load connection".into()),
            Ok(_) if buf.last() == Some(&b'\n') => {
                let recv = start.elapsed();
                buf.pop();
                let id = response_index(&buf, base)?;
                let (_, reply, alt) = parse_reply(&buf, checks[id])?;
                let key = alt.map(|(key, raw)| {
                    alts.entry(key).or_insert_with(|| raw.to_vec());
                    key
                });
                out.push((id, recv, reply, key));
                buf.clear();
            }
            // A timeout mid-line keeps the partial line in `buf`.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    Ok((out, alts))
}

/// The planned index a response line answers (its echoed `q<n>` id).
fn response_index(line: &[u8], base: usize) -> Result<usize, String> {
    const KEY: &[u8] = b"\"id\":\"q";
    let at = line
        .windows(KEY.len())
        .position(|w| w == KEY)
        .ok_or("response without a request id")?;
    let digits: String = line[at + KEY.len()..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .map(|&b| b as char)
        .collect();
    digits
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_sub(base))
        .ok_or_else(|| "response with a foreign id".into())
}

/// Set up once: generate inputs, start the daemon, warm every read type
/// and prime every stream. Returns the daemon, the seconds it took, and
/// the warm replies for verification outside the timed part.
fn setup(ctx: &Ctx, traffic: &Traffic) -> Result<(Daemon, f64, Vec<String>, Vec<String>), String> {
    let t = Instant::now();
    inputs::generate_all(&ctx.sbreak, &traffic.inputs, ctx.seed)?;
    let daemon = Daemon::start(&ctx.sbreak)?;
    let mut conn = Conn::open(daemon.addr)?;
    let warm = (0..traffic.reads.len())
        .map(|ty| conn.request(&traffic.read_line(&format!("w{ty}"), ty, ty % TENANTS)))
        .collect::<Result<Vec<_>, _>>()?;
    let primed = (0..traffic.streams.len())
        .map(|s| conn.request(&traffic.mutate_line(&format!("p{s}"), s, "", true)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, t.elapsed().as_secs_f64(), warm, primed))
}

/// Verify a solution-bearing reply against `graph` with the reference
/// verifiers; returns the raw escaped solution bytes.
fn check_reply(line: &str, problem: &str, graph: &sb_graph::csr::Graph) -> Result<Vec<u8>, String> {
    let v = json::parse(line)?;
    if v.get("status").and_then(Json::str) != Some("ok") {
        return Err(format!("reply not ok: {line:.200}"));
    }
    let text = v
        .get("solution")
        .and_then(Json::str)
        .ok_or("reply has no solution")?;
    inputs::verify_solution(graph, problem, text)?;
    let (raw, _) = split_solution(line.as_bytes());
    Ok(raw.ok_or("solution not in wire form")?.to_vec())
}

/// Counter deltas of two `stats` snapshots.
fn stat_delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    let get = |v: &Json| v.path(path).and_then(Json::num).unwrap_or(0.0);
    get(after) - get(before)
}

pub fn run(ctx: &Ctx, mix: &Mix) -> Result<Outcome, String> {
    let inputs_dir = ctx.work.join("inputs");
    let reads: Vec<ReadType> = (0..GRAPHS.len())
        .filter(|&g| RESIDENT.contains(&GRAPHS[g]))
        .flat_map(|g| {
            inputs::configs(GRAPHS[g])
                .into_iter()
                .map(move |(problem, algo)| ReadType {
                    graph: g,
                    problem,
                    algo,
                })
        })
        .collect();
    let mut traffic = Traffic {
        mix,
        inputs: inputs_dir,
        seed: ctx.seed,
        reads,
        streams: Vec::new(),
        reference: Vec::new(),
        graphs: Vec::new(),
        rng: Rng::new(ctx.seed ^ 0x5e7e),
        next_id: 0,
    };

    // Set up SETUPS times; keep the last daemon for the timed windows.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut warm = (Vec::new(), Vec::new());
    for i in 0..SETUPS {
        if mix.mutate_share > 0.0 && traffic.streams.is_empty() {
            traffic.streams = make_streams(ctx)?;
        }
        let (d, secs, w, p) = setup(ctx, &traffic)?;
        setup_s.push(secs);
        if i + 1 < SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
            warm = (w, p);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let result = measure(ctx, mix, &mut traffic, &daemon, &warm, &setup_s);
    let stopped = daemon.stop();
    let out = result?;
    stopped?;
    Ok(out)
}

fn make_streams(ctx: &Ctx) -> Result<Vec<Stream>, String> {
    // The base graphs must exist to draw edits against them; the first
    // set-up regenerates them identically.
    let dir = ctx.work.join("inputs");
    inputs::generate_all(&ctx.sbreak, &dir, ctx.seed)?;
    let mut streams = Vec::new();
    for (si, (graph, problem, algo)) in STREAM_GRAPHS.iter().enumerate() {
        let g = inputs::load(&inputs::graph_path(&dir, graph))?;
        let edges: Vec<(u32, u32)> = g.edge_list().iter().map(|&[u, v]| (u, v)).collect();
        for t in 0..STREAM_TENANTS {
            streams.push(Stream {
                graph: GRAPHS
                    .iter()
                    .position(|x| x == graph)
                    .expect("stream graph in suite"),
                problem,
                algo,
                tenant: format!("tenant{t}"),
                edits: EditStream::new(g.num_vertices(), &edges, ctx.seed ^ (si * 16 + t) as u64),
                batches: Vec::new(),
                acked: Vec::new(),
            });
        }
    }
    Ok(streams)
}

fn measure(
    ctx: &Ctx,
    mix: &Mix,
    traffic: &mut Traffic,
    daemon: &Daemon,
    warm: &(Vec<String>, Vec<String>),
    setup_s: &[f64],
) -> Result<Outcome, String> {
    // Verify every warm reply once; it becomes the byte-for-byte reference.
    traffic.graphs = GRAPHS
        .iter()
        .map(|g| inputs::load(&inputs::graph_path(&traffic.inputs, g)))
        .collect::<Result<_, _>>()?;
    let mut out = Outcome::default();
    for (ty, line) in warm.0.iter().enumerate() {
        let t = &traffic.reads[ty];
        let checked = check_reply(line, t.problem, &traffic.graphs[t.graph]);
        let raw = checked.unwrap_or_else(|e| {
            out.note(format!(
                "warm reply {} {}/{}: {e}",
                GRAPHS[t.graph], t.problem, t.algo
            ));
            out.correct = false;
            Vec::new()
        });
        traffic.reference.push(raw);
    }
    for (s, line) in warm.1.iter().enumerate() {
        let st = &traffic.streams[s];
        if let Err(e) = check_reply(line, st.problem, &traffic.graphs[st.graph]) {
            out.note(format!("stream {s} prime: {e}"));
            out.correct = false;
        }
    }

    let mut stats = Conn::open(daemon.addr)?;
    let before = stats.stats()?;
    let seconds = ctx.seconds;
    let window = if ctx.trace {
        // One window at the stated load. The serve path has no tracing of
        // its own to switch on: the spans are assembled after the window
        // from what every reply carries, so this run is the untraced one.
        let w = run_window(traffic, daemon.addr, mix.rate, seconds)?;
        let after = stats.stats()?;
        layer_metrics(&mut out, mix, &w, &before, &after);
        out.metric("engine.cache_mb", cache_mb(&after));
        w
    } else {
        // The latency window gets three quarters of `--seconds`; the
        // capacity walk follows it and has a fixed length of its own.
        let ticks = crate::procs::cpu_ticks();
        let w = run_window(traffic, daemon.addr, mix.rate, seconds * 0.75)?;
        if let Some(steal) = crate::procs::steal_pct_since(ticks) {
            out.prov("latency_window_steal_pct", json::num(steal));
        }
        let after = stats.stats()?;
        // Read before the ladder, whose depth varies run to run.
        let peak = crate::procs::vm_hwm_mb(daemon.child.id()).ok_or("cannot read daemon VmHWM")?;
        out.metric("peak_rss_mb", peak);
        // p50 and p99 are each the lowest over the window's pools, which
        // gather its half-second segments from least to most disturbed by
        // the host: other guests only ever add latency, while a cost the
        // program causes shows in every pool, the least disturbed too
        // (`perfbench/README.md`, Steadiness).
        let pools = w.quiet_pools();
        let per_pool = |q: f64| -> Vec<f64> {
            pools
                .iter()
                .map(|(v, _)| percentile(v, q).unwrap_or(f64::INFINITY))
                .collect()
        };
        let (p50s, p99s) = (per_pool(0.50), per_pool(0.99));
        let lowest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        out.metric("p50_ms", lowest(&p50s));
        out.metric("p99_ms", lowest(&p99s));
        let steal: Vec<f64> = pools.iter().map(|(_, s)| 100.0 * s).collect();
        for (key, v) in [
            ("pool_p50_ms", p50s),
            ("pool_p99_ms", p99s),
            ("pool_steal_pct", steal),
        ] {
            let v: Vec<String> = v.iter().map(|&x| json::num(x)).collect();
            out.prov(key, format!("[{}]", v.join(",")));
        }
        out.metric("throughput_ops", w.ok_rate());
        out.prov("latency_window_requests", w.planned.len().to_string());
        out.prov(
            "window_refused",
            stat_delta(&before, &after, &["requests", "overloaded"]).to_string(),
        );
        let (lock_ms, lock_share) = mutate_lock(&w);
        out.prov("mutate_other_ms_p50", json::num(lock_ms));
        out.prov("mutate_lock_share", json::num(lock_share));
        let (capacity, rungs, mismatched) = ladder(traffic, daemon.addr, mix, &w)?;
        out.metric("capacity_rps", capacity);
        out.prov("ladder", format!("[{}]", rungs.join(",")));
        out.prov("ladder_worst_s", json::num(ladder_worst_s(mix)));
        // Refusals above capacity are what the ladder looks for; a wrong
        // output is a failure at any rate.
        out.failed += mismatched as u64;
        if mismatched > 0 {
            out.correct = false;
            out.note(format!(
                "{mismatched} ladder replies differ from the verified reference"
            ));
        }
        w
    };
    out.metric("setup_s", median(setup_s));

    // Mutation streams: fetch each stream's current solution with an
    // empty batch and verify it against base + every acknowledged batch.
    for s in 0..traffic.streams.len() {
        let line = stats.request(&traffic.mutate_line(&format!("f{s}"), s, "", true))?;
        let st = &traffic.streams[s];
        let edges = st
            .edits
            .final_edges(st.acked.iter().map(|&b| &st.batches[b]));
        let g = sb_graph::builder::from_edge_list(traffic.graphs[st.graph].num_vertices(), &edges);
        if let Err(e) = check_reply(&line, st.problem, &g) {
            out.note(format!(
                "stream {s} final solution after {} batches: {e}",
                st.acked.len()
            ));
            out.failed += 1;
            out.correct = false;
        }
        out.attempted += 1;
    }
    out.attempted += window.planned.len() as u64;
    out.failed += window.failed() as u64;
    let mismatched = window.count(Status::Mismatch);
    if mismatched > 0 {
        out.correct = false;
        out.note(format!(
            "{mismatched} read replies differ from the verified reference"
        ));
    }
    out.prov("offered_rps", json::num(mix.rate));
    out.prov("mutate_share", json::num(mix.mutate_share));
    out.prov("limit_ms", json::num(mix.limit_ms));
    out.prov("daemon_workers", before.num_or_zero("workers").to_string());
    out.prov("connections", "1".into());
    out.prov("generator_threads", "2".into());
    out.prov("streams", traffic.streams.len().to_string());
    out.prov(
        "stream_batches_acked",
        traffic
            .streams
            .iter()
            .map(|s| s.acked.len())
            .sum::<usize>()
            .to_string(),
    );
    Ok(out)
}

fn cache_mb(stats: &Json) -> f64 {
    stats
        .get("tenants")
        .map(|t| {
            t.arr()
                .iter()
                .map(|x| x.num_or_zero("graph_bytes") + x.num_or_zero("decomp_bytes"))
                .sum::<f64>()
        })
        .unwrap_or(0.0)
        / (1024.0 * 1024.0)
}

/// The engine-lock time mutates take in a window: the median of their
/// `wall_ms − decompose_ms − solve_ms` (materialize, fingerprint and
/// decomposition patching under the engine lock, plus bookkeeping), and
/// that times the number of mutates as a share of the window. Zero when
/// the window holds no mutates.
fn mutate_lock(w: &Window) -> (f64, f64) {
    let other: Vec<f64> = w
        .samples
        .iter()
        .zip(&w.planned)
        .filter(|(_, p)| matches!(p.kind, Kind::Mutate { .. }))
        .filter_map(|(s, _)| s.reply.as_ref().filter(|r| r.status == Status::Ok))
        .map(|r| r.wall_ms - r.decompose_ms - r.solve_ms)
        .collect();
    if other.is_empty() {
        return (0.0, 0.0);
    }
    let ms = median(&other);
    (
        ms,
        other.len() as f64 * ms / (w.elapsed.as_secs_f64() * 1e3),
    )
}

/// How long one ladder rung runs at `rate`: long enough for
/// [`TAIL_SAMPLES`] requests, and at least [`RUNG_MIN_S`].
fn rung_seconds(rate: f64) -> f64 {
    RUNG_MIN_S.max(TAIL_SAMPLES as f64 / rate)
}

fn rung_rate(mix: &Mix, k: i32) -> f64 {
    mix.rate * 2.0 * LADDER_STEP.powi(k)
}

/// The longest a walk can take: every trial on the lowest, longest rung.
/// The walk does not depend on `--seconds`, so capacity is always found
/// by the same rule whatever the host's speed.
fn ladder_worst_s(mix: &Mix) -> f64 {
    WALK_TRIALS as f64 * rung_seconds(rung_rate(mix, LADDER_LOW))
}

/// The next rung of the walk: up after a pass, down after a failure,
/// within the ladder. The walk moves [`WALK_COARSE`] rungs at a time
/// while every verdict matches its first rung's, and one rung at a time
/// from the first that differs on. Returns the rung and whether the walk
/// still moves coarsely.
fn walk_step(k: i32, coarse: bool, first_pass: bool, pass: bool) -> (i32, bool) {
    let coarse = coarse && pass == first_pass;
    let step = if coarse { WALK_COARSE } else { 1 };
    let k = if pass { k + step } else { k - step };
    (k.clamp(LADDER_LOW, LADDER_HIGH), coarse)
}

/// Find capacity with a fixed-length up-down walk on the ladder. The
/// walk runs after the latency window whatever that window's verdict, so
/// a host stall in the window cannot decide capacity. A rung passes when
/// its p99 is within the limit, nothing is refused, times out or fails,
/// and generator lateness does not grow. The walk starts at 2× the
/// latency rate and moves [`WALK_COARSE`] rungs (15%) per step, up after
/// a pass and down after a failure, until a verdict differs from its
/// first rung's; from then on it moves one rung (3.5%), so it settles
/// around the highest rate a rung passes at. Capacity is the geometric
/// mean of the rates the generator offered over the last
/// [`WALK_AVERAGED`] rungs. A program that fails every rung ends at the
/// ladder's foot, the latency rate, and its capacity reads as that rate.
/// Returns the capacity, the rung log (the latency window's verdict
/// first), and the wrong-output count.
fn ladder(
    traffic: &mut Traffic,
    addr: SocketAddr,
    mix: &Mix,
    first: &Window,
) -> Result<(f64, Vec<String>, usize), String> {
    let verdict = |w: &Window| -> (bool, Option<f64>) {
        let p99 = percentile(&w.latencies(), 0.99).filter(|p| p.is_finite());
        let pass = p99.is_some_and(|p| p <= mix.limit_ms) && w.failed() == 0 && !w.lateness_grew();
        (pass, p99)
    };
    let log = |w: &Window, pass: bool, p99: Option<f64>| {
        format!(
            "{{\"rate\":{},\"pass\":{pass},\"p99_ms\":{},\"refused\":{},\"late_grew\":{}}}",
            json::num(w.rate),
            json::num(p99.unwrap_or(f64::NAN)),
            w.count(Status::Refused),
            w.lateness_grew()
        )
    };
    let (first_pass, first_p99) = verdict(first);
    let mut rungs = vec![log(first, first_pass, first_p99)];
    let (mut k, mut coarse, mut start) = (0, true, None);
    let mut mismatched = 0;
    let mut offered = Vec::with_capacity(WALK_TRIALS);
    for _ in 0..WALK_TRIALS {
        let rate = rung_rate(mix, k);
        let w = run_window(traffic, addr, rate, rung_seconds(rate))?;
        mismatched += w.count(Status::Mismatch);
        let (pass, p99) = verdict(&w);
        rungs.push(log(&w, pass, p99));
        offered.push(w.offered_rps().ln());
        let first_pass = *start.get_or_insert(pass);
        (k, coarse) = walk_step(k, coarse, first_pass, pass);
    }
    let capacity = mean(&offered[WALK_TRIALS - WALK_AVERAGED..]).exp();
    Ok((capacity, rungs, mismatched))
}

fn layer_metrics(out: &mut Outcome, mix: &Mix, traced: &Window, before: &Json, after: &Json) {
    let ok: Vec<(usize, &Reply)> = traced
        .samples
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            s.reply
                .as_ref()
                .filter(|r| r.status == Status::Ok)
                .map(|r| (i, r))
        })
        .collect();
    let pct = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    let is_mutate = |i: usize| matches!(traced.planned[i].kind, Kind::Mutate { .. });

    let late = traced.late_ms();
    out.metric("loadgen.late_ms_p99", pct(&late, 0.99));
    out.metric("loadgen.offered_rps", traced.offered_rps());
    out.metric("loadgen.achieved_rps", traced.ok_rate());

    let queue: Vec<f64> = ok.iter().map(|(_, r)| r.queue_ms).collect();
    let wire: Vec<f64> = ok
        .iter()
        .map(|&(i, r)| {
            let s = &traced.samples[i];
            let rt = s
                .recv
                .expect("replied")
                .saturating_sub(s.sent.expect("sent"))
                .as_secs_f64()
                * 1e3;
            rt - r.queue_ms - r.wall_ms
        })
        .collect();
    out.metric("serve.queue_ms_p50", pct(&queue, 0.5));
    out.metric("serve.queue_ms_p99", pct(&queue, 0.99));
    out.metric("serve.wire_ms_p50", pct(&wire, 0.5));
    out.metric("serve.wire_ms_p99", pct(&wire, 0.99));
    out.metric(
        "serve.refused",
        stat_delta(before, after, &["requests", "overloaded"]),
    );
    out.metric(
        "serve.timeouts",
        stat_delta(before, after, &["requests", "timeout"]),
    );

    let wall: Vec<f64> = ok.iter().map(|(_, r)| r.wall_ms).collect();
    let other: Vec<f64> = ok
        .iter()
        .map(|(_, r)| r.wall_ms - r.decompose_ms - r.solve_ms)
        .collect();
    out.metric("engine.wall_ms_p50", pct(&wall, 0.5));
    out.metric("engine.wall_ms_p99", pct(&wall, 0.99));
    out.metric("engine.other_ms_p50", pct(&other, 0.5));
    out.metric("engine.other_ms_p99", pct(&other, 0.99));
    out.metric("engine.other_ms_sum", other.iter().sum());
    let ratio = |cache: &str| {
        let h = stat_delta(before, after, &[cache, "hits"]);
        let m = stat_delta(before, after, &[cache, "misses"]);
        if h + m > 0.0 {
            h / (h + m)
        } else {
            0.0
        }
    };
    out.metric("engine.graph_hit_ratio", ratio("graph_cache"));
    out.metric("engine.decomp_hit_ratio", ratio("decomp_cache"));
    out.metric(
        "engine.evictions",
        stat_delta(before, after, &["graph_cache", "evictions"])
            + stat_delta(before, after, &["decomp_cache", "evictions"]),
    );

    let reads: Vec<&Reply> = ok
        .iter()
        .filter(|(i, _)| !is_mutate(*i))
        .map(|(_, r)| *r)
        .collect();
    let decompose: Vec<f64> = reads.iter().map(|r| r.decompose_ms).collect();
    out.metric("decompose.ms_sum", decompose.iter().sum());
    out.metric("decompose.ms_p50", pct(&decompose, 0.5));
    let solve: Vec<f64> = reads.iter().map(|r| r.solve_ms).collect();
    out.metric("core.solve_ms_sum", solve.iter().sum());
    out.metric("core.solve_ms_p50", pct(&solve, 0.5));
    out.metric("core.solve_ms_p99", pct(&solve, 0.99));

    let mutates: Vec<&Reply> = ok
        .iter()
        .filter(|(i, _)| is_mutate(*i))
        .map(|(_, r)| *r)
        .collect();
    let repaired: Vec<f64> = mutates
        .iter()
        .filter(|r| r.repaired)
        .map(|r| r.solve_ms)
        .collect();
    out.metric("repair.ms_p50", pct(&repaired, 0.5));
    out.metric("repair.ms_p99", pct(&repaired, 0.99));
    out.metric(
        "repair.repaired_ratio",
        if mutates.is_empty() {
            0.0
        } else {
            repaired.len() as f64 / mutates.len() as f64
        },
    );
    out.metric(
        "repair.rebases",
        stat_delta(before, after, &["repairs", "rebases"]),
    );
    out.metric(
        "repair.decomps_patched",
        stat_delta(before, after, &["repairs", "decomps_patched"]),
    );
    out.metric(
        "repair.edits_applied",
        stat_delta(before, after, &["repairs", "edits_applied"]),
    );

    let (lock_ms, lock_share) = mutate_lock(traced);
    out.metric("engine.mutate_other_ms_p50", lock_ms);
    out.metric("engine.mutate_lock_share", lock_share);

    // Nothing is traced inside the daemon on this path, so the traced
    // run is the untraced one and costs nothing extra.
    out.metric("trace.overhead_pct", 0.0);

    // Spans: request [due, recv] ⊃ loadgen [due, sent] + round trip
    // [sent, recv] ⊃ queue + engine job ⊃ decompose + solve/repair.
    let mut log = SpanLog::default();
    for &(i, r) in &ok {
        let s = &traced.samples[i];
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let (due, sent, recv) = (
            us(traced.planned[i].at),
            us(s.sent.expect("sent")),
            us(s.recv.expect("replied")),
        );
        let op = format!("q{i}");
        let root = log.push(None, &op, "residual", due, recv);
        log.push(Some(root), &op, "loadgen", due, sent);
        let rt = log.push(Some(root), &op, "serve.wire", sent, recv);
        let q_end = sent + r.queue_ms * 1e3;
        log.push(Some(rt), &op, "serve.queue", sent, q_end);
        let job = log.push(Some(rt), &op, "engine", q_end, q_end + r.wall_ms * 1e3);
        let d_end = q_end + r.decompose_ms * 1e3;
        log.push(Some(job), &op, "decompose", q_end, d_end);
        let layer = if is_mutate(i) { "repair" } else { "core" };
        log.push(Some(job), &op, layer, d_end, d_end + r.solve_ms * 1e3);
    }
    out.self_times(&log, ok.len().max(1) as f64);
    out.spans = Some((log, format!("{}-requests", mix.name)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk has a fixed length: even with every trial on the lowest,
    /// longest rung it fits beside a 30 s latency window well inside the
    /// three minutes a run may take, so no walk is ever cut short.
    #[test]
    fn a_full_walk_fits_in_a_run() {
        for mix in [SERVE_READ, SERVE_MIXED] {
            let worst = ladder_worst_s(&mix);
            assert!(worst < 60.0, "{}: {worst} s", mix.name);
            for k in LADDER_LOW..=LADDER_HIGH {
                let rate = rung_rate(&mix, k);
                assert!(rung_seconds(rate) * rate >= TAIL_SAMPLES as f64 - 0.5);
            }
            assert!((rung_rate(&mix, LADDER_LOW) / mix.rate - 1.0).abs() < 0.01);
            assert!((rung_rate(&mix, LADDER_HIGH) / mix.rate - 6.0).abs() < 0.05);
        }
    }

    /// A window of 4.2 s at 1000 req/s: nine half-second segments, the
    /// last one short. Requests 1000..1020 (segment 2) stall for 50 ms,
    /// and the host steals CPU time in segments 2 and 5.
    fn disturbed_window(with_readings: bool) -> Window {
        let planned: Vec<Planned> = (0..4200)
            .map(|i| Planned {
                at: Duration::from_millis(i as u64),
                kind: Kind::Read { ty: 0, tenant: 0 },
            })
            .collect();
        let samples = planned
            .iter()
            .enumerate()
            .map(|(i, p)| Sample {
                sent: Some(p.at),
                recv: Some(
                    p.at + Duration::from_millis(if (1000..1020).contains(&i) { 50 } else { 1 }),
                ),
                reply: Some(Reply {
                    status: Status::Ok,
                    queue_ms: 0.0,
                    wall_ms: 0.0,
                    decompose_ms: 0.0,
                    solve_ms: 0.0,
                    repaired: false,
                }),
                alt: None,
            })
            .collect();
        let mut steal = 0;
        let cpu = (0..=9u64)
            .map(|k| {
                if k == 3 || k == 6 {
                    steal += 10;
                }
                let ticks = Ticks {
                    steal,
                    idle: 50 * k,
                    total: 100 * k,
                };
                (SEGMENT * k as u32, ticks)
            })
            .filter(|_| with_readings)
            .collect();
        Window {
            rate: 1000.0,
            planned,
            samples,
            elapsed: Duration::from_millis(4200),
            cpu,
        }
    }

    /// Pools fill from the least disturbed segments, dealt out in strides
    /// of the pool count (4 here) among equals.
    #[test]
    fn pools_gather_the_least_disturbed_segments_first() {
        let w = disturbed_window(true);
        let pools = w.quiet_pools();
        let sizes: Vec<usize> = pools.iter().map(|p| p.0.len()).collect();
        // Segments 0, 4, 8 (200 requests) | 1, 6, 3 | 7, then the
        // disturbed 5 and 2.
        assert_eq!(sizes, [1200, 1500, 1500]);
        let p99: Vec<Option<f64>> = pools.iter().map(|p| percentile(&p.0, 0.99)).collect();
        assert_eq!(p99, [Some(1.0), Some(1.0), Some(50.0)]);
        assert_eq!(pools[0].1, 0.0);
        assert!((pools[2].1 - 0.4 / 3.0).abs() < 1e-12, "{}", pools[2].1);
        // Without CPU readings: 0, 4, 8 | 1, 5, 2 (the stall) | 6, 3, 7.
        let w = disturbed_window(false);
        let p99: Vec<Option<f64>> = w
            .quiet_pools()
            .iter()
            .map(|p| percentile(&p.0, 0.99))
            .collect();
        assert_eq!(p99, [Some(1.0), Some(50.0), Some(1.0)]);
    }

    /// Coarse steps in the first rung's direction until a verdict
    /// differs, then one rung at a time, never off the ladder.
    #[test]
    fn the_walk_narrows_after_its_first_turn() {
        // Climbing from a passing start: the first failure steps down one.
        assert_eq!(walk_step(0, true, true, true), (WALK_COARSE, true));
        assert_eq!(walk_step(8, true, true, false), (7, false));
        assert_eq!(walk_step(7, false, true, true), (8, false));
        // Descending from a failing start: the first pass steps up one.
        assert_eq!(walk_step(0, true, false, false), (-WALK_COARSE, true));
        assert_eq!(walk_step(-8, true, false, true), (-7, false));
        assert_eq!(walk_step(-7, false, false, false), (-8, false));
        assert_eq!(
            walk_step(LADDER_LOW, true, false, false),
            (LADDER_LOW, true)
        );
        assert_eq!(
            walk_step(LADDER_HIGH, false, true, true),
            (LADDER_HIGH, false)
        );
    }
}

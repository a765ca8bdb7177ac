//! Integration tests for `sbreak serve`: a real server on a loopback
//! socket, driven through real TCP clients. Covers the protocol
//! round-trip, typed rejection of malformed JSONL, cross-tenant cache
//! sharing, admission control (queue-full → `overloaded`), deadlines
//! (expired → `timeout` without cache poisoning), cancellation, stopped
//! solves leaving no thread behind in a real daemon process, clean
//! shutdown, and the loadgen cold-vs-warm contract.

use symmetry_breaking::core::verify::check_maximal_independent_set;
use symmetry_breaking::engine::protocol::{MutateParams, SolveParams};
use symmetry_breaking::engine::{Client, Engine, GraphSource, ServeConfig, Server, ServerHandle};
use symmetry_breaking::graph::editlog::EditLog;
use symmetry_breaking::loadgen::{run_loadgen, LoadgenOptions};

/// A loopback server with the test-relevant knobs exposed.
fn spawn(workers: usize, queue_cap: usize, allow_debug: bool) -> ServerHandle {
    Server::spawn(ServeConfig {
        workers,
        queue_cap,
        allow_debug,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

/// The standard test job: tiny generated graph, fixed seeds.
fn params(problem: &str, algo: &str) -> SolveParams {
    let mut p = SolveParams::new("gen:lp1", problem, algo);
    p.scale = 0.05;
    p.graph_seed = Some(42);
    p.seed = 11;
    p
}

/// The standard mutate request: same tiny graph/seeds as [`params`], on
/// the MIS family (whose rendered solution is trivially parseable back).
fn mutate_params(tenant: &str, edits: &str) -> MutateParams {
    let mut m = MutateParams::new("gen:lp1", "mis", "degk:2", edits);
    m.solve.scale = 0.05;
    m.solve.graph_seed = Some(42);
    m.solve.seed = 11;
    m.solve.tenant = tenant.into();
    m
}

/// Parse a rendered MIS solution (one in-set vertex id per line) back
/// into the flag vector `verify` expects.
fn parse_mis(rendered: &str, n: usize) -> Vec<bool> {
    let mut in_set = vec![false; n];
    for line in rendered.lines() {
        in_set[line.trim().parse::<usize>().unwrap()] = true;
    }
    in_set
}

#[test]
fn mutate_repairs_are_valid_for_the_edited_graph() {
    let server = spawn(2, 8, false);
    let mut client = Client::connect(server.addr()).unwrap();

    // First mutate on a stream primes it with a fresh solve.
    let mut m = mutate_params("tenant-a", "");
    m.solve.id = "m0".into();
    m.solve.want_solution = true;
    let prime = client.mutate(&m).unwrap();
    assert_eq!(prime.status(), "ok", "{:?}", prime.raw);
    assert_eq!(prime.str_field("op"), Some("mutate"));
    assert_eq!(prime.bool_field("repaired"), Some(false));
    assert_eq!(prime.num_field("edits_applied"), Some(0.0));
    assert_eq!(prime.num_field("edits_total"), Some(0.0));

    // The second batch repairs the prior across the delta.
    m.edits = "+0-5,-0-1".into();
    m.solve.id = "m1".into();
    let repaired = client.mutate(&m).unwrap();
    assert_eq!(repaired.status(), "ok", "{:?}", repaired.raw);
    assert_eq!(repaired.bool_field("repaired"), Some(true));
    assert_eq!(repaired.num_field("edits_applied"), Some(2.0));
    assert_eq!(repaired.num_field("edits_total"), Some(2.0));

    // The repaired solution must be valid and maximal for the *edited*
    // graph — checked against an in-process materialization of the same
    // (base, edit log) pair.
    let job = m.solve.to_job_spec().unwrap();
    let src = GraphSource::parse(&job.graph, job.scale, job.effective_graph_seed()).unwrap();
    let (base, _, _) = Engine::with_cap(0).graph(&src).unwrap();
    let edited = EditLog::parse("+0-5,-0-1").unwrap().materialize(&base);
    let in_set = parse_mis(
        repaired.str_field("solution").expect("want_solution set"),
        edited.num_vertices(),
    );
    check_maximal_independent_set(&edited, &in_set).expect("repaired MIS verifies");

    // A third batch keeps extending the same stream.
    m.edits = "+2-7".into();
    m.solve.id = "m2".into();
    let third = client.mutate(&m).unwrap();
    assert_eq!(third.bool_field("repaired"), Some(true));
    assert_eq!(third.num_field("edits_applied"), Some(1.0));
    assert_eq!(third.num_field("edits_total"), Some(3.0));

    let stats = client.stats().unwrap();
    let repairs = stats.raw.get("repairs").unwrap();
    assert_eq!(repairs.get("requests").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(repairs.get("repaired").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(repairs.get("fresh").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(repairs.get("streams").and_then(|v| v.as_u64()), Some(1));

    server.shutdown();
    server.join();
}

#[test]
fn pipelined_mutates_on_one_stream_commit_every_batch() {
    // The lost-update regression: with multiple workers draining one
    // connection's pipelined mutates, two batches for the same stream
    // used to read the same prior state and the later commit silently
    // dropped the earlier acknowledged batch. Serialized streams must
    // commit every batch exactly once, so the acknowledged running
    // totals are a permutation of 1..=N.
    let server = spawn(4, 32, false);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut m = mutate_params("tenant-a", "");
    m.solve.id = "p0".into();
    assert_eq!(client.mutate(&m).unwrap().status(), "ok");

    const BATCHES: u64 = 8;
    for i in 0..BATCHES {
        m.edits = format!("+{i}-{}", i + 9);
        m.solve.id = format!("b{i}");
        client.send_line(&m.to_json()).unwrap();
    }
    let mut totals = Vec::new();
    for _ in 0..BATCHES {
        let reply = client.recv().unwrap();
        assert_eq!(reply.status(), "ok", "{:?}", reply.raw);
        assert_eq!(reply.num_field("edits_applied"), Some(1.0));
        totals.push(reply.num_field("edits_total").unwrap() as u64);
    }
    totals.sort_unstable();
    assert_eq!(
        totals,
        (1..=BATCHES).collect::<Vec<_>>(),
        "every batch must advance the stream exactly once"
    );

    let stats = client.stats().unwrap();
    let repairs = stats.raw.get("repairs").unwrap();
    assert_eq!(
        repairs.get("requests").and_then(|v| v.as_u64()),
        Some(BATCHES + 1)
    );
    assert_eq!(
        repairs.get("edits_applied").and_then(|v| v.as_u64()),
        Some(BATCHES)
    );
    assert_eq!(repairs.get("streams").and_then(|v| v.as_u64()), Some(1));

    server.shutdown();
    server.join();
}

#[test]
fn mutation_streams_rebase_without_losing_the_solution_contract() {
    // With a two-edit rebase window every multi-edit batch crosses the
    // threshold: the stream adopts its materialized graph as the new
    // base and restarts the log. Repairs must keep verifying against the
    // cumulative edit history and `edits_total` must keep counting
    // across rebases.
    let server = Server::spawn(ServeConfig {
        rebase_log_edits: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).unwrap();

    let mut m = mutate_params("tenant-a", "");
    m.solve.id = "r0".into();
    assert_eq!(client.mutate(&m).unwrap().status(), "ok");

    let all_edits = ["+0-5,-0-1", "+2-7,+3-8", "+1-6"];
    for (i, edits) in all_edits.iter().enumerate() {
        m.edits = (*edits).into();
        m.solve.id = format!("r{}", i + 1);
        m.solve.want_solution = true;
        let reply = client.mutate(&m).unwrap();
        assert_eq!(reply.status(), "ok", "{:?}", reply.raw);
        assert_eq!(reply.bool_field("repaired"), Some(true));

        // The served solution must verify on the cumulative edited
        // graph, reconstructed in-process by replaying every batch.
        let job = m.solve.to_job_spec().unwrap();
        let src = GraphSource::parse(&job.graph, job.scale, job.effective_graph_seed()).unwrap();
        let (base, _, _) = Engine::with_cap(0).graph(&src).unwrap();
        let mut edited = (*base).clone();
        for batch in &all_edits[..=i] {
            edited = EditLog::parse(batch).unwrap().materialize(&edited);
        }
        let in_set = parse_mis(
            reply.str_field("solution").expect("want_solution set"),
            edited.num_vertices(),
        );
        check_maximal_independent_set(&edited, &in_set).expect("repair verifies across rebases");
    }

    let stats = client.stats().unwrap();
    let repairs = stats.raw.get("repairs").unwrap();
    assert_eq!(
        repairs.get("edits_applied").and_then(|v| v.as_u64()),
        Some(5)
    );
    // Batches 1 and 2 each fill the two-edit window and rebase; batch 3
    // (one edit) leaves the restarted log below it.
    assert_eq!(repairs.get("rebases").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(repairs.get("streams").and_then(|v| v.as_u64()), Some(1));

    server.shutdown();
    server.join();
}

#[test]
fn idle_mutation_streams_are_evicted_at_the_cap() {
    // A one-stream cap: every new stream evicts the idle previous one.
    // The evicted tenant's next mutate re-primes from scratch (fresh
    // solve, totals restart) instead of leaking state, and the table
    // never outgrows the cap.
    let server = Server::spawn(ServeConfig {
        max_streams: 1,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).unwrap();

    let mut ma = mutate_params("tenant-a", "+0-5");
    let ra = client.mutate(&ma).unwrap();
    assert_eq!(ra.status(), "ok", "{:?}", ra.raw);
    assert_eq!(ra.num_field("edits_total"), Some(1.0));

    // A second tenant's stream pushes the table past the cap; tenant-a's
    // idle stream is the LRU victim.
    let mb = mutate_params("tenant-b", "");
    assert_eq!(client.mutate(&mb).unwrap().status(), "ok");

    // tenant-a starts over: no prior to repair, totals reset to this
    // batch alone.
    ma.edits = "+1-6".into();
    let ra2 = client.mutate(&ma).unwrap();
    assert_eq!(ra2.status(), "ok", "{:?}", ra2.raw);
    assert_eq!(ra2.bool_field("repaired"), Some(false));
    assert_eq!(ra2.num_field("edits_total"), Some(1.0));

    let stats = client.stats().unwrap();
    let repairs = stats.raw.get("repairs").unwrap();
    assert_eq!(repairs.get("streams").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(repairs.get("evicted").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(repairs.get("fresh").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(repairs.get("repaired").and_then(|v| v.as_u64()), Some(0));

    server.shutdown();
    server.join();
}

#[test]
fn mutate_streams_are_isolated_per_tenant() {
    let server = spawn(2, 8, false);
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();

    // Both tenants run the identical (graph, config, seed); their edit
    // streams must not observe each other.
    let mut ma = mutate_params("tenant-a", "");
    assert_eq!(a.mutate(&ma).unwrap().status(), "ok");
    let mut mb = mutate_params("tenant-b", "");
    let prime_b = b.mutate(&mb).unwrap();
    assert_eq!(prime_b.status(), "ok");
    // The base graph itself is shared through the cache across tenants.
    assert_eq!(prime_b.bool_field("graph_cached"), Some(true));

    ma.edits = "+0-5,+1-6,-0-1".into();
    let ra = a.mutate(&ma).unwrap();
    assert_eq!(ra.num_field("edits_total"), Some(3.0));

    // tenant-b's stream is still at zero edits; its batch counts alone.
    mb.edits = "-0-1".into();
    let rb = b.mutate(&mb).unwrap();
    assert_eq!(rb.bool_field("repaired"), Some(true));
    assert_eq!(rb.num_field("edits_total"), Some(1.0));

    let stats = a.stats().unwrap();
    let repairs = stats.raw.get("repairs").unwrap();
    assert_eq!(repairs.get("streams").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(repairs.get("requests").and_then(|v| v.as_u64()), Some(4));

    server.shutdown();
    server.join();
}

#[test]
fn cancelled_mutate_leaves_the_stream_unpoisoned() {
    let server = spawn(1, 8, true);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut m = mutate_params("tenant-a", "");
    m.solve.id = "p0".into();
    assert_eq!(client.mutate(&m).unwrap().status(), "ok");

    // Cancel a repair mid-flight: the commit gate must discard the
    // advanced stream state.
    m.edits = "+0-5".into();
    m.solve.id = "mc".into();
    m.solve.debug_sleep_ms = 2_000;
    client.send_line(&m.to_json()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    client.send_line(r#"{"op":"cancel","id":"mc"}"#).unwrap();
    let (mut saw_ack, mut saw_cancelled) = (false, false);
    for _ in 0..2 {
        let reply = client.recv().unwrap();
        if reply.str_field("op") == Some("cancel") {
            assert_eq!(reply.bool_field("found"), Some(true));
            saw_ack = true;
        } else {
            assert_eq!(reply.status(), "cancelled", "{:?}", reply.raw);
            assert_eq!(reply.id(), "mc");
            saw_cancelled = true;
        }
    }
    assert!(saw_ack && saw_cancelled);

    // Resubmitting the identical batch succeeds, and its totals prove the
    // cancelled attempt never advanced the stream (else the log would
    // hold the edit twice).
    m.solve.id = "mr".into();
    m.solve.debug_sleep_ms = 0;
    let retry = client.mutate(&m).unwrap();
    assert_eq!(retry.status(), "ok", "{:?}", retry.raw);
    assert_eq!(retry.bool_field("repaired"), Some(true));
    assert_eq!(retry.num_field("edits_applied"), Some(1.0));
    assert_eq!(retry.num_field("edits_total"), Some(1.0));

    // The cancelled attempt counted as a request but never as a commit.
    let stats = client.stats().unwrap();
    let repairs = stats.raw.get("repairs").unwrap();
    assert_eq!(repairs.get("requests").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(repairs.get("repaired").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(repairs.get("fresh").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        stats
            .raw
            .get("requests")
            .and_then(|r| r.get("cancelled"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );

    server.shutdown();
    server.join();
}

#[test]
fn solve_round_trips_with_verified_solution_bytes() {
    let server = spawn(2, 8, false);
    let mut client = Client::connect(server.addr()).unwrap();

    let pong = client.ping().unwrap();
    assert_eq!(pong.status(), "ok");
    assert_eq!(pong.str_field("op"), Some("ping"));

    let mut p = params("mm", "rand:4");
    p.id = "r1".into();
    p.want_solution = true;
    let reply = client.solve(&p).unwrap();
    assert_eq!(reply.status(), "ok", "{:?}", reply.raw);
    assert_eq!(reply.id(), "r1");
    assert_eq!(reply.bool_field("graph_cached"), Some(false));
    assert_eq!(reply.bool_field("decomp_cached"), Some(false));
    assert!(reply.num_field("queue_ms").is_some());

    // The served solution must be byte-identical to an in-process,
    // cache-disabled engine run of the same spec.
    let job = p.to_job_spec().unwrap();
    let reference = Engine::with_cap(0).run_job(&job, None);
    let expected = reference.solution.expect("reference solves").render();
    assert_eq!(reply.str_field("solution"), Some(expected.as_str()));
    assert_eq!(reply.str_field("detail"), Some(reference.detail.as_str()));

    let stats = client.stats().unwrap();
    assert_eq!(stats.status(), "ok");
    assert_eq!(
        stats
            .raw
            .get("requests")
            .and_then(|r| r.get("ok"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );

    server.shutdown();
    server.join();
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let server = spawn(1, 8, false);
    let mut client = Client::connect(server.addr()).unwrap();

    // Each malformed line is rejected with a typed bad_request — and the
    // connection keeps working afterwards.
    for bad in [
        "this is not json",
        "[1,2,3]",
        r#"{"op":"quux"}"#,
        r#"{"op":"solve","graph":"gen:lp1","problem":"mm","algo":"bicc","bogus":1}"#,
        r#"{"op":"solve","id":"m1","graph":"gen:lp1","problem":"lp","algo":"bicc"}"#,
        r#"{"op":"solve","graph":"gen:lp1","problem":"mm","algo":"bicc","frontier":"bitset"}"#,
    ] {
        let reply = client.request(bad).unwrap();
        assert_eq!(reply.status(), "error", "line {bad:?}: {:?}", reply.raw);
        assert_eq!(reply.str_field("code"), Some("bad_request"), "line {bad:?}");
        assert!(reply.str_field("detail").is_some());
    }
    // The id is echoed when the malformed request carried one.
    let reply = client
        .request(r#"{"op":"solve","id":"m1","graph":"gen:lp1","problem":"lp","algo":"bicc"}"#)
        .unwrap();
    assert_eq!(reply.id(), "m1");

    // A job that parses but fails at run time is a typed `failed`, not a
    // bad_request.
    let mut p = params("mm", "bicc");
    p.graph = "gen:nope".into();
    let reply = client.solve(&p).unwrap();
    assert_eq!(reply.status(), "error");
    assert_eq!(reply.str_field("code"), Some("failed"));

    // And the connection still solves.
    let reply = client.solve(&params("mm", "bicc")).unwrap();
    assert_eq!(reply.status(), "ok", "{:?}", reply.raw);

    server.shutdown();
    server.join();
}

#[test]
fn oversized_request_line_is_rejected_and_its_connection_closed() {
    use std::io::{BufRead, BufReader, Write};
    use symmetry_breaking::engine::protocol::Reply;
    use symmetry_breaking::engine::serve::MAX_LINE_BYTES;

    let server = spawn(1, 8, false);
    let mut hog = std::net::TcpStream::connect(server.addr()).unwrap();
    hog.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    // One byte past the cap and no newline: the server must answer without
    // waiting for a line end that never comes.
    hog.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reader = BufReader::new(hog);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("a typed error within the read timeout");
    let reply = Reply::parse(line.trim()).unwrap();
    assert_eq!(reply.status(), "error", "{:?}", reply.raw);
    assert_eq!(reply.str_field("code"), Some("bad_request"));
    line.clear();
    let n = reader
        .read_line(&mut line)
        .expect("EOF within the read timeout");
    assert_eq!(n, 0, "the connection must be closed, got {line:?}");

    // Other connections are unaffected, and the rejection was counted.
    let mut other = Client::connect(server.addr()).unwrap();
    assert_eq!(other.ping().unwrap().status(), "ok");
    let stats = other.stats().unwrap();
    assert_eq!(
        stats
            .raw
            .get("requests")
            .and_then(|r| r.get("bad_request"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_tenants_share_the_decomposition_cache() {
    let server = spawn(2, 8, false);
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();

    let mut job = params("color", "degk:2");
    job.tenant = "tenant-a".into();
    let first = a.solve(&job).unwrap();
    assert_eq!(first.status(), "ok", "{:?}", first.raw);
    assert_eq!(first.bool_field("decomp_cached"), Some(false));

    // A different tenant on a different connection submits the identical
    // job and rides tenant-a's cache entries.
    job.tenant = "tenant-b".into();
    let second = b.solve(&job).unwrap();
    assert_eq!(second.status(), "ok", "{:?}", second.raw);
    assert_eq!(second.bool_field("graph_cached"), Some(true));
    assert_eq!(second.bool_field("decomp_cached"), Some(true));

    let stats = b.stats().unwrap();
    let decomp_hits = stats
        .raw
        .get("decomp_cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(decomp_hits >= 1, "stats must report the shared hit");
    // Both tenants appear in the per-tenant usage listing (only tenant-a
    // inserted, but the listing covers every charged tenant).
    let tenants = stats.raw.get("tenants").and_then(|t| t.as_arr()).unwrap();
    assert!(
        tenants
            .iter()
            .any(|t| t.get("tenant").and_then(|v| v.as_str()) == Some("tenant-a")),
        "tenant-a holds the cache bytes: {tenants:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_rejects_with_overloaded_immediately() {
    // One worker, queue of one: the first solve occupies the worker, the
    // second fills the queue, the third must bounce.
    let server = spawn(1, 1, true);
    let mut holder = Client::connect(server.addr()).unwrap();
    let mut queued = Client::connect(server.addr()).unwrap();
    let mut bounced = Client::connect(server.addr()).unwrap();

    let mut hold = params("mm", "bicc");
    hold.id = "hold".into();
    hold.debug_sleep_ms = 600;
    holder.send_line(&hold.to_json()).unwrap();
    // Let the worker dequeue the holder before filling the queue.
    std::thread::sleep(std::time::Duration::from_millis(150));

    let mut wait = params("mm", "bicc");
    wait.id = "wait".into();
    queued.send_line(&wait.to_json()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));

    let mut extra = params("mm", "bicc");
    extra.id = "extra".into();
    let reply = bounced.solve(&extra).unwrap();
    assert_eq!(reply.status(), "overloaded", "{:?}", reply.raw);
    assert_eq!(reply.id(), "extra");
    assert!(reply.str_field("detail").unwrap().contains("queue full"));

    // The rejected request cost nothing; the admitted ones complete.
    assert_eq!(holder.recv().unwrap().status(), "ok");
    assert_eq!(queued.recv().unwrap().status(), "ok");

    let stats = bounced.stats().unwrap();
    assert_eq!(
        stats
            .raw
            .get("requests")
            .and_then(|r| r.get("overloaded"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );

    server.shutdown();
    server.join();
}

#[test]
fn expired_deadline_times_out_without_poisoning_the_caches() {
    let server = spawn(1, 8, true);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut p = params("color", "degk:2");
    p.id = "late".into();
    p.debug_sleep_ms = 300;
    p.deadline_ms = Some(50);
    let reply = client.solve(&p).unwrap();
    assert_eq!(reply.status(), "timeout", "{:?}", reply.raw);
    assert_eq!(reply.id(), "late");

    // The timed-out request must not have inserted anything.
    {
        let engine = server.engine();
        let engine = engine.lock();
        assert_eq!(engine.graph_cache_stats().inserts, 0);
        assert_eq!(engine.decomp_cache_stats().inserts, 0);
    }

    // The identical job with a sane deadline then runs and commits.
    let mut p = params("color", "degk:2");
    p.id = "fine".into();
    p.deadline_ms = Some(60_000);
    let reply = client.solve(&p).unwrap();
    assert_eq!(reply.status(), "ok", "{:?}", reply.raw);
    {
        let engine = server.engine();
        let engine = engine.lock();
        assert_eq!(engine.graph_cache_stats().inserts, 1);
        assert_eq!(engine.decomp_cache_stats().inserts, 1);
    }

    server.shutdown();
    server.join();
}

#[test]
fn cancel_releases_an_in_flight_request() {
    let server = spawn(1, 8, true);
    let mut client = Client::connect(server.addr()).unwrap();

    let mut p = params("mm", "bicc");
    p.id = "c1".into();
    p.debug_sleep_ms = 2_000;
    client.send_line(&p.to_json()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    client.send_line(r#"{"op":"cancel","id":"c1"}"#).unwrap();

    // Two replies, in whatever order the threads produce them: the cancel
    // acknowledgement and the cancelled solve.
    let (mut saw_ack, mut saw_cancelled) = (false, false);
    for _ in 0..2 {
        let reply = client.recv().unwrap();
        if reply.str_field("op") == Some("cancel") {
            assert_eq!(reply.bool_field("found"), Some(true));
            saw_ack = true;
        } else {
            assert_eq!(reply.status(), "cancelled", "{:?}", reply.raw);
            assert_eq!(reply.id(), "c1");
            saw_cancelled = true;
        }
    }
    assert!(saw_ack && saw_cancelled);

    // A cancelled request commits nothing.
    {
        let engine = server.engine();
        let engine = engine.lock();
        assert_eq!(engine.graph_cache_stats().inserts, 0);
    }

    // Cancelling an unknown id is acknowledged with found=false.
    let reply = client.request(r#"{"op":"cancel","id":"ghost"}"#).unwrap();
    assert_eq!(reply.bool_field("found"), Some(false));

    server.shutdown();
    server.join();
}

/// `Threads:` of process `pid`, from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn thread_count(pid: u32) -> usize {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .expect("read the daemon's status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

/// A `sbreak serve` child process, killed if the test ends early.
#[cfg(target_os = "linux")]
struct Daemon(std::process::Child);

#[cfg(target_os = "linux")]
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[cfg(target_os = "linux")]
#[test]
fn stopped_solves_leave_no_thread_behind() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_sbreak"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start sbreak serve");
    // Kept open to the end: the daemon prints again when it shuts down.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut daemon = Daemon(child);
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    // "sbreak serve: listening on <addr> (...)"
    let addr = banner
        .split_whitespace()
        .nth(4)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    let pid = daemon.0.id();
    let mut client = Client::connect(addr).unwrap();
    // One generated graph for every solve, whatever its solver seed.
    let rgg = |algo: &str| {
        let mut p = SolveParams::new("gen:rgg-n-2-24-s0", "mm", algo);
        p.scale = 0.25;
        p.graph_seed = Some(7);
        p
    };
    // A dense GM baseline takes hundreds of rounds on this graph.
    let dense_gm = |seed: u64| {
        let mut p = rgg("baseline");
        p.frontier = "dense".into();
        p.seed = seed;
        p
    };

    // Warm the graph cache and the pool, which starts lazily.
    let warm = client.solve(&rgg("rand:4")).unwrap();
    assert_eq!(warm.status(), "ok", "{:?}", warm.raw);
    let idle = thread_count(pid);

    for seed in 1..=8 {
        let mut p = dense_gm(seed);
        p.deadline_ms = Some(20);
        let reply = client.solve(&p).unwrap();
        assert_eq!(reply.status(), "timeout", "{:?}", reply.raw);
        assert_eq!(reply.bool_field("graph_cached"), Some(true));
    }
    let mut p = dense_gm(9);
    p.id = "c".into();
    client.send_line(&p.to_json()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.send_line(r#"{"op":"cancel","id":"c"}"#).unwrap();
    for _ in 0..2 {
        let reply = client.recv().unwrap();
        if reply.str_field("op") != Some("cancel") {
            assert_eq!(reply.status(), "cancelled", "{:?}", reply.raw);
        }
    }

    // A stopped solve ran on its worker and is over: nothing keeps
    // computing behind the replies.
    let last_reply = Instant::now();
    let mut threads = thread_count(pid);
    while threads > idle && last_reply.elapsed() < Duration::from_millis(100) {
        std::thread::sleep(Duration::from_millis(5));
        threads = thread_count(pid);
    }
    assert!(
        threads <= idle,
        "{threads} threads 100 ms after the last reply, {idle} when idle"
    );
    assert_eq!(client.shutdown().unwrap().status(), "ok");
    assert!(daemon.0.wait().unwrap().success());
}

#[test]
fn shutdown_op_stops_the_server_cleanly() {
    let server = spawn(2, 8, false);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.solve(&params("mis", "degk:2")).unwrap().status(),
        "ok"
    );

    let ack = client.shutdown().unwrap();
    assert_eq!(ack.status(), "ok");
    assert_eq!(ack.str_field("op"), Some("shutdown"));

    // join() returns because the shutdown op tripped the flag; afterwards
    // the port no longer accepts work.
    server.join();
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "post-shutdown ping must fail"),
    }
}

#[test]
fn loadgen_warm_p50_beats_cold_p50_in_process() {
    // The resident-service contract end to end: repeat solves over warm
    // caches must have lower median latency than first-touch solves. Each
    // workload job loads its own graph, so the cold pass pays generation,
    // ingestion, and decomposition on every request.
    let summary = run_loadgen(&LoadgenOptions {
        clients: 1,
        repeats: 3,
        graph: "gen:lp1".into(),
        scale: 1.0,
        seed: 42,
        workers: 2,
        ..LoadgenOptions::default()
    })
    .expect("loadgen runs");
    assert_eq!(summary.cold.ok, 3, "cold phase solves the workload");
    assert_eq!(summary.warm.ok, 9, "warm phase solves every repeat");
    assert_eq!(summary.cold.decomp_hits, 0, "cold phase is all misses");
    assert!(
        summary.warm.decomp_hits >= summary.warm.ok,
        "warm repeats must hit the decomposition cache"
    );
    assert!(
        summary.warm.p50_ms < summary.cold.p50_ms,
        "warm p50 {:.3} ms must beat cold p50 {:.3} ms",
        summary.warm.p50_ms,
        summary.cold.p50_ms
    );
}

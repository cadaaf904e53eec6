//! End-to-end tests of the daemon: identity with direct engine runs,
//! concurrency, cancellation, back-pressure and graceful drain.

use aqed_engine::{Engine, VerifyRequest};
use aqed_obs::json::Json;
use aqed_serve::{
    ping, query_health, request_shutdown, submit, submit_retrying, submit_with, verdict_line,
    ServeOptions, Server,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn options(workers: usize, queue: usize) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: queue,
        ..ServeOptions::default()
    }
}

/// A fresh per-test store directory under the system temp dir.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aqed-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The verdict up to the timing parenthetical — stable across runs.
fn stem(verdict: &str) -> &str {
    verdict.split(" (").next().unwrap_or(verdict)
}

/// A slow-but-bounded request: healthy AES at bound 8 needs >100k
/// conflicts, far longer than any test step here, while the timeout
/// keeps a logic bug from hanging the suite.
fn slow_request() -> VerifyRequest {
    let mut req = VerifyRequest::new("aes_v1");
    req.healthy = true;
    req.bound = Some(8);
    req.timeout = Some(Duration::from_secs(120));
    req
}

#[test]
fn served_verdicts_match_direct_engine_runs() {
    let server = Server::start(&options(2, 8)).expect("bind");
    let addr = server.addr();
    assert!(ping(addr));
    let engine = Engine::new();
    for (case, healthy, bound) in [
        ("dataflow_fifo_sizing", true, Some(6)),
        ("dataflow_fifo_sizing", false, None),
        ("motivating_clock_enable", false, None),
    ] {
        let mut req = VerifyRequest::new(case);
        req.healthy = healthy;
        req.bound = bound;
        req.jobs = 2;
        let direct = engine.verify(&req).expect("direct run");
        let served = submit(addr, &req).expect("served run");
        assert!(!served.rejected);
        assert_eq!(
            served.exit_code,
            direct.exit_code(),
            "exit codes must agree for {case} (served: {})",
            served.verdict
        );
        assert_eq!(
            stem(&served.verdict),
            stem(&verdict_line(&direct.report)),
            "verdicts must agree for {case}"
        );
        // The report rides along and matches the verdict.
        let report = served.report.expect("report JSON");
        assert!(report.get("outcome").is_some(), "{report}");
    }
    server.begin_shutdown();
    server.join();
}

#[test]
fn concurrent_submissions_agree_and_later_runs_hit_the_cache() {
    let server = Server::start(&options(4, 16)).expect("bind");
    let addr = server.addr();
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(6);
    let baseline = Engine::new().verify(&req).expect("cache-off baseline");
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let req = req.clone();
                s.spawn(move || submit(addr, &req).expect("served run"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for outcome in &outcomes {
        assert_eq!(outcome.exit_code, baseline.exit_code());
        assert_eq!(
            stem(&outcome.verdict),
            stem(&verdict_line(&baseline.report))
        );
    }
    // The store is warm now: a repeat request is served from cached
    // verdicts without touching the solver.
    let warm = submit(addr, &req).expect("warm run");
    assert_eq!(warm.exit_code, baseline.exit_code());
    let report = warm.report.expect("report JSON");
    let obligations = report
        .get("obligations")
        .and_then(Json::as_arr)
        .expect("obligations");
    assert_eq!(
        report.get("cache_hits").and_then(Json::as_u64),
        Some(obligations.len() as u64),
        "{report}"
    );
    assert_eq!(
        report
            .get("aggregate")
            .and_then(|a| a.get("solver_calls"))
            .and_then(Json::as_u64),
        Some(0),
        "warm run must not call the solver"
    );
    assert!(server.artifacts().cone_hits() > 0);
    server.begin_shutdown();
    server.join();
}

#[test]
fn cancelled_job_drains_through_the_cancelled_taxonomy() {
    let server = Server::start(&options(1, 4)).expect("bind");
    let addr = server.addr();
    let mut saw_started = false;
    let mut saw_cancel_ack = false;
    let outcome = submit_with(
        addr,
        &slow_request(),
        Some(Duration::from_millis(300)),
        |event| match event.get("name").and_then(Json::as_str) {
            Some("job.started") => saw_started = true,
            Some("job.cancel_requested") => saw_cancel_ack = true,
            _ => {}
        },
    )
    .expect("served run");
    assert!(saw_started, "job must have started before the cancel");
    assert!(saw_cancel_ack, "server must acknowledge the cancel");
    assert_eq!(outcome.exit_code, 2, "verdict: {}", outcome.verdict);
    assert!(
        outcome.verdict.starts_with("inconclusive") && outcome.verdict.contains("cancelled"),
        "expected a cancelled-inconclusive verdict, got: {}",
        outcome.verdict
    );
    server.begin_shutdown();
    server.join();
}

/// A raw protocol client for back-pressure tests: submit a job and hold
/// the connection open without waiting for completion.
struct RawClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn submit(addr: std::net::SocketAddr, req: &VerifyRequest) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let cmd = Json::obj(vec![
            ("cmd", Json::Str("verify".into())),
            ("request", req.to_json()),
        ]);
        writeln!(writer, "{cmd}").expect("send");
        writer.flush().expect("flush");
        RawClient {
            writer,
            reader: BufReader::new(stream),
        }
    }

    /// Reads events until `name` appears.
    fn wait_for(&mut self, name: &str) {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).expect("read event");
            assert!(n > 0, "server closed before '{name}' arrived");
            if line.contains(&format!("\"name\":\"{name}\"")) {
                return;
            }
        }
    }

    fn cancel(&mut self) {
        writeln!(self.writer, r#"{{"cmd":"cancel"}}"#).expect("send cancel");
        self.writer.flush().expect("flush");
    }
}

#[test]
fn full_queue_rejects_further_submissions() {
    // One worker, one queue slot: A runs, B waits, C must bounce.
    let server = Server::start(&options(1, 1)).expect("bind");
    let addr = server.addr();
    let mut job_a = RawClient::submit(addr, &slow_request());
    job_a.wait_for("job.started");
    let mut job_b = RawClient::submit(addr, &slow_request());
    job_b.wait_for("job.queued");
    let rejected = submit(addr, &slow_request()).expect("protocol round trip");
    assert!(rejected.rejected, "{}", rejected.verdict);
    assert_eq!(rejected.exit_code, 2);
    assert!(
        rejected.verdict.contains("queue full"),
        "{}",
        rejected.verdict
    );
    // Unblock the server so shutdown drains quickly.
    job_a.cancel();
    job_b.cancel();
    job_a.wait_for("job.done");
    job_b.wait_for("job.done");
    server.begin_shutdown();
    server.join();
}

#[test]
fn shutdown_drains_queued_work_and_stops_accepting() {
    let server = Server::start(&options(1, 4)).expect("bind");
    let addr = server.addr();
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(4);
    // Submit from a thread and shut down once the job is queued: the
    // drain must finish it rather than drop it.
    let (queued_tx, queued_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        submit_with(addr, &req, None, |event| {
            if event.get("name").and_then(Json::as_str) == Some("job.queued") {
                let _ = queued_tx.send(());
            }
        })
        .expect("drained job")
    });
    queued_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("job must reach the queue");
    request_shutdown(addr).expect("shutdown command");
    let outcome = client.join().expect("client thread");
    assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    server.join();
    // The listener is gone: new connections fail outright.
    assert!(TcpStream::connect(addr).is_err() || !ping(addr));
}

#[test]
fn health_reports_queue_workers_and_store() {
    let server = Server::start(&options(3, 8)).expect("bind");
    let health = query_health(server.addr()).expect("health round trip");
    assert_eq!(health.get("workers_total").and_then(Json::as_u64), Some(3));
    assert_eq!(health.get("workers_alive").and_then(Json::as_u64), Some(3));
    assert_eq!(health.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(
        health.get("draining").and_then(Json::as_bool),
        Some(false),
        "{health}"
    );
    let store = health.get("store").expect("store stats");
    assert_eq!(store.get("persistent").and_then(Json::as_bool), Some(false));
    assert_eq!(store.get("recovered").and_then(Json::as_u64), Some(0));
    server.begin_shutdown();
    server.join();
}

/// Sends raw bytes on a fresh connection and returns the first reply
/// line. A reply slower than five seconds fails the test.
fn raw_roundtrip(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(payload).expect("send");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("timely reply");
    line
}

#[test]
fn garbage_input_earns_structured_rejections_not_dead_workers() {
    let mut opts = options(1, 4);
    // Small enough to shed the 4 KiB probe below, with headroom over a
    // real request line (which grows as VerifyRequest gains fields).
    opts.max_line_bytes = 512;
    let server = Server::start(&opts).expect("bind");
    let addr = server.addr();
    // Truncated JSON.
    let reply = raw_roundtrip(addr, b"{\"cmd\":\"ver\n");
    assert!(
        reply.contains("job.rejected") && reply.contains("malformed"),
        "{reply}"
    );
    // Unknown command.
    let reply = raw_roundtrip(addr, b"{\"cmd\":\"frobnicate\"}\n");
    assert!(
        reply.contains("job.rejected") && reply.contains("unknown command"),
        "{reply}"
    );
    // No cmd field at all.
    let reply = raw_roundtrip(addr, b"{\"x\":1}\n");
    assert!(reply.contains("job.rejected"), "{reply}");
    // An oversized line is shed without being buffered.
    let mut big = vec![b'{'; 4096];
    big.push(b'\n');
    let reply = raw_roundtrip(addr, &big);
    assert!(
        reply.contains("job.rejected") && reply.contains("exceeds"),
        "{reply}"
    );
    // The worker pool is untouched: a real job still runs.
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(4);
    let outcome = submit(addr, &req).expect("served run");
    assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    server.begin_shutdown();
    server.join();
}

#[test]
fn hostile_json_lines_are_rejected_without_stalling() {
    // The default 1 MiB line cap admits both probes.
    let opts = options(1, 4);
    let server = Server::start(&opts).expect("bind");
    let addr = server.addr();
    // Ten thousand open brackets: nesting past the parser's bound is a
    // malformed command, not a stack overflow that aborts the daemon.
    let mut deep = b"{\"cmd\":".to_vec();
    deep.extend(std::iter::repeat_n(b'[', 10_000));
    deep.push(b'\n');
    let reply = raw_roundtrip(addr, &deep);
    assert!(
        reply.contains("job.rejected") && reply.contains("malformed"),
        "{reply}"
    );
    assert!(ping(addr), "the daemon survives the deep line");
    // One object of 90,000 distinct keys, just under the line cap: the
    // duplicate-key check must not compare every pair.
    let keys: Vec<String> = (0..90_000).map(|i| format!("\"k{i}\":0")).collect();
    let wide = format!("{{{}}}\n", keys.join(","));
    assert!(wide.len() < opts.max_line_bytes, "{} bytes", wide.len());
    let reply = raw_roundtrip(addr, wide.as_bytes());
    assert!(reply.contains("job.rejected"), "{reply}");
    assert!(ping(addr), "the daemon survives the wide line");
    server.begin_shutdown();
    server.join();
}

#[test]
fn dead_worker_fails_its_job_and_is_respawned() {
    let mut opts = options(1, 4);
    // Chaos: any job for this case panics its worker mid-run.
    opts.panic_on_case = Some("motivating_clock_enable".into());
    let server = Server::start(&opts).expect("bind");
    let addr = server.addr();
    let doomed = submit(addr, &VerifyRequest::new("motivating_clock_enable"))
        .expect("the job must fail, not hang");
    assert_eq!(doomed.exit_code, 2);
    assert!(
        doomed.verdict.contains("worker died"),
        "expected the supervisor's job.error, got: {}",
        doomed.verdict
    );
    // The supervisor respawned the (sole) worker: a different case runs
    // to completion on it.
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(4);
    let outcome = submit(addr, &req).expect("served run after respawn");
    assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    let health = query_health(addr).expect("health");
    assert_eq!(health.get("workers_alive").and_then(Json::as_u64), Some(1));
    server.begin_shutdown();
    server.join();
}

#[test]
fn persistent_store_warms_a_restarted_server() {
    let dir = store_dir("restart");
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(6);
    let mut opts = options(2, 8);
    opts.store_dir = Some(dir.clone());
    // First daemon: cold run, verdicts journaled to disk on flush.
    let cold = {
        let server = Server::start(&opts).expect("bind");
        let outcome = submit(server.addr(), &req).expect("cold run");
        server.begin_shutdown();
        server.join();
        outcome
    };
    assert_eq!(cold.exit_code, 0, "{}", cold.verdict);
    // Second daemon on the same directory: starts warm from recovery.
    let server = Server::start(&opts).expect("rebind");
    assert!(
        server.artifacts().recovered_records() > 0,
        "restart must recover journaled records"
    );
    assert_eq!(server.artifacts().truncated_records(), 0);
    let warm = submit(server.addr(), &req).expect("warm run");
    assert_eq!(warm.exit_code, cold.exit_code);
    assert_eq!(stem(&warm.verdict), stem(&cold.verdict));
    let report = warm.report.expect("report JSON");
    let obligations = report
        .get("obligations")
        .and_then(Json::as_arr)
        .expect("obligations");
    assert_eq!(
        report.get("cache_hits").and_then(Json::as_u64),
        Some(obligations.len() as u64),
        "every obligation must be served from the recovered store: {report}"
    );
    assert_eq!(
        report
            .get("aggregate")
            .and_then(|a| a.get("solver_calls"))
            .and_then(Json::as_u64),
        Some(0)
    );
    // Health reports the on-disk footprint of a persistent store: the
    // recovered journal has bytes and records, and the snapshot size is
    // present (zero until the first compaction).
    let health = query_health(server.addr()).expect("health");
    let store = health.get("store").expect("store stats");
    assert_eq!(store.get("persistent").and_then(Json::as_bool), Some(true));
    assert!(
        store
            .get("journal_bytes")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "{health}"
    );
    assert!(
        store
            .get("journal_records")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "{health}"
    );
    assert!(
        store.get("snapshot_bytes").and_then(Json::as_u64).is_some(),
        "{health}"
    );
    server.begin_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_retrying_rides_out_a_daemon_restart() {
    // Bind, learn the port, then shut the first daemon down so the
    // client's first attempts see connection-refused.
    let first = Server::start(&options(1, 4)).expect("bind");
    let addr = first.addr();
    first.begin_shutdown();
    first.join();
    let addr_str = addr.to_string();
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let mut opts = options(1, 4);
        opts.addr = addr_str;
        Server::start(&opts).expect("rebind on the same port")
    });
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(4);
    let mut retries_seen = 0u32;
    let outcome = submit_retrying(addr, &req, 8, Duration::from_millis(50), |event| {
        if event.get("name").and_then(Json::as_str) == Some("client.retry") {
            retries_seen += 1;
        }
    })
    .expect("retrying submit must outlast the restart");
    assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    assert!(
        retries_seen > 0,
        "the first attempts must have been retried"
    );
    let server = restarter.join().expect("restarter");
    server.begin_shutdown();
    server.join();
}

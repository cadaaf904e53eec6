//! Observability-plane tests of the daemon: the `stats` snapshot,
//! heartbeat progress, the flight recorder's memory bound, and the
//! error paths of the one-shot admin client helpers.
//!
//! The trace-sink slot is process-global and every `Server::start`
//! claims it, so tests that assert on a specific server's recorder
//! serialize on [`OBS_LOCK`].

use aqed_engine::{BackendKind, VerifyRequest};
use aqed_obs::json::Json;
use aqed_serve::{query_health, query_stats, submit, submit_with, ServeOptions, Server};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn options(workers: usize, queue: usize) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: queue,
        ..ServeOptions::default()
    }
}

fn quick_request() -> VerifyRequest {
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(4);
    req
}

/// See `slow_request` in serve.rs: healthy AES at bound 8 runs far
/// longer than any test step, and the timeout bounds the worst case.
fn slow_request() -> VerifyRequest {
    let mut req = VerifyRequest::new("aes_v1");
    req.healthy = true;
    req.bound = Some(8);
    req.timeout = Some(Duration::from_secs(120));
    req
}

#[test]
fn stats_exposes_prometheus_text_and_rates_after_traffic() {
    let _guard = lock();
    let server = Server::start(&options(2, 8)).expect("bind");
    let addr = server.addr();
    for _ in 0..2 {
        let outcome = submit(addr, &quick_request()).expect("served run");
        assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    }
    let stats = query_stats(addr).expect("stats round trip");

    let prom = stats
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    // Well-formed exposition: every non-comment line is `name[{labels}] value`.
    for line in prom
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(
            name.starts_with("aqed_"),
            "metric without the aqed_ prefix: {line}"
        );
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value in: {line}"
        );
    }
    let done_line = prom
        .lines()
        .find(|l| l.starts_with("aqed_serve_jobs_completed_total "))
        .expect("jobs-completed counter exposed");
    let done: f64 = done_line.split(' ').nth(1).unwrap().parse().unwrap();
    assert!(done >= 2.0, "expected >= 2 completed jobs, got {done_line}");

    // The structured form carries the same counters plus rate windows.
    let metrics = stats.get("metrics").expect("metrics json");
    assert!(
        metrics
            .get("uptime_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "uptime must be positive"
    );
    let counters = metrics.get("counters").expect("counters");
    assert!(
        counters
            .get("serve.jobs.completed")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 2,
        "{counters}"
    );

    // The recorder section reports a bounded, non-empty ring.
    let rec = stats.get("recorder").expect("recorder stats");
    let bytes = rec.get("approx_bytes").and_then(Json::as_u64).unwrap();
    let max = rec.get("max_bytes").and_then(Json::as_u64).unwrap();
    assert!(bytes <= max, "recorder over budget: {bytes} > {max}");
    assert!(
        rec.get("events").and_then(Json::as_u64).unwrap() > 0,
        "traffic must have left events in the ring"
    );
    server.begin_shutdown();
    server.join();
}

#[test]
fn job_done_carries_the_report_aggregate_and_heartbeats_carry_progress() {
    let _guard = lock();
    let mut opts = options(1, 4);
    // Fast heartbeats so a sub-second cancelled job still sees several.
    opts.heartbeat_interval = Duration::from_millis(50);
    let server = Server::start(&opts).expect("bind");
    let addr = server.addr();

    // A quick healthy job: job.started reports its queue wait, and
    // job.done's report aggregate is the job's one stats record.
    let (mut started, mut done) = (Json::Null, Json::Null);
    let outcome = submit_with(addr, &quick_request(), None, |event| {
        let args = event.get("args").cloned().unwrap_or(Json::Null);
        match event.get("name").and_then(Json::as_str) {
            Some("job.started") => started = args,
            Some("job.done") => done = args,
            _ => {}
        }
    })
    .expect("served run");
    assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    assert!(
        started
            .get("queue_wait_ms")
            .and_then(Json::as_f64)
            .is_some(),
        "job.started: {started}"
    );
    assert!(
        done.get("attribution").is_none(),
        "job.done must not duplicate the report: {done}"
    );
    let aggregate = done
        .get("report")
        .and_then(|r| r.get("aggregate"))
        .expect("job.done report aggregate");
    assert!(
        aggregate
            .get("solver_calls")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "{aggregate}"
    );
    for key in ["coi_micros", "encode_micros", "solve_micros"] {
        assert!(
            aggregate.get(key).and_then(Json::as_u64).is_some(),
            "missing layer timer '{key}' in {aggregate}"
        );
    }
    assert!(
        aggregate
            .get("solver")
            .and_then(|s| s.get("preprocess_micros"))
            .and_then(Json::as_u64)
            .is_some(),
        "missing layer timer 'solver.preprocess_micros' in {aggregate}"
    );
    assert!(
        aggregate
            .get("solve_micros")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "a solved job must have spent time in the solve layer: {aggregate}"
    );

    // A slow job cancelled after ~400ms, on both the single CDCL solver
    // and a two-racer portfolio: heartbeats at 50ms cadence must arrive,
    // report the running phase, and show live solver progress.
    let mut portfolio = slow_request();
    portfolio.backend = BackendKind::Portfolio;
    portfolio.portfolio_workers = 2;
    for request in [slow_request(), portfolio] {
        let backend = request.backend;
        let mut beats = Vec::new();
        let outcome = submit_with(addr, &request, Some(Duration::from_millis(400)), |event| {
            if event.get("name").and_then(Json::as_str) == Some("job.heartbeat") {
                if let Some(args) = event.get("args") {
                    beats.push(args.clone());
                }
            }
        })
        .expect("served run");
        assert_eq!(outcome.exit_code, 2, "{backend:?}: {}", outcome.verdict);
        assert!(
            beats.len() >= 2,
            "{backend:?}: expected several heartbeats from a 400ms job at 50ms cadence, got {}",
            beats.len()
        );
        for beat in &beats {
            assert_eq!(
                beat.get("phase").and_then(Json::as_str),
                Some("running"),
                "{beat}"
            );
            assert!(beat.get("conflicts").and_then(Json::as_u64).is_some());
            assert!(beat.get("elapsed_ms").and_then(Json::as_u64).is_some());
            let done = beat.get("obligations_done").and_then(Json::as_u64);
            let total = beat.get("obligations_total").and_then(Json::as_u64);
            assert!(done.unwrap() <= total.unwrap(), "{beat}");
        }
        // The schedule is built well before the last beat of a 400ms job.
        assert!(
            beats
                .last()
                .and_then(|b| b.get("obligations_total"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0,
            "{backend:?}: heartbeat never saw the obligation count"
        );
        // AES at bound 8 grinds conflicts: the last beat must show
        // solver progress, not a flat zero.
        assert!(
            beats
                .last()
                .and_then(|b| b.get("conflicts"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0,
            "{backend:?}: heartbeat conflicts never moved"
        );
    }
    server.begin_shutdown();
    server.join();
}

#[test]
fn flight_recorder_stays_within_its_byte_budget_under_load() {
    let _guard = lock();
    let mut opts = options(2, 16);
    // A deliberately tiny ring (the server clamps to a 4 KiB floor) so
    // a handful of jobs is guaranteed to overflow it.
    opts.recorder_bytes = 1;
    let server = Server::start(&opts).expect("bind");
    let addr = server.addr();
    for _ in 0..4 {
        let outcome = submit(addr, &quick_request()).expect("served run");
        assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    }
    let rec = server.recorder();
    assert_eq!(rec.max_bytes(), 1 << 12, "clamped to the floor");
    assert!(
        rec.approx_bytes() <= rec.max_bytes(),
        "ring at {} bytes exceeds budget {}",
        rec.approx_bytes(),
        rec.max_bytes()
    );
    assert!(
        rec.dropped() > 0,
        "4 verification jobs must overflow a 4 KiB ring"
    );
    assert!(!rec.is_empty(), "the newest events are retained");
    server.begin_shutdown();
    server.join();
}

/// Spawns a one-connection fake daemon that answers every connection
/// with `reply` bytes, then closes. Returns its address.
fn fake_daemon(reply: &'static [u8]) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            // Drain the request line first so the client's write never
            // races the close.
            let mut line = String::new();
            let _ = BufReader::new(stream.try_clone().expect("clone")).read_line(&mut line);
            let _ = stream.write_all(reply);
            let _ = stream.flush();
        }
    });
    addr
}

#[test]
fn admin_helpers_reject_early_close_and_garbage_replies() {
    // Early close: EOF before any reply line.
    let addr = fake_daemon(b"");
    let err = query_health(addr).expect_err("EOF must not parse as health");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    let err = query_stats(addr).expect_err("EOF must not parse as stats");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");

    // Garbage reply: not JSON at all.
    let addr = fake_daemon(b"!!! not json !!!\n");
    let err = query_health(addr).expect_err("garbage must not parse");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("malformed"), "{err}");

    // Valid JSON, wrong event name.
    let addr = fake_daemon(b"{\"name\":\"server.pong\",\"args\":{}}\n");
    let err = query_stats(addr).expect_err("pong is not stats");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("server.stats"), "{err}");
}

#[test]
fn oversized_admin_command_earns_a_structured_rejection() {
    let _guard = lock();
    let mut opts = options(1, 4);
    opts.max_line_bytes = 256;
    let server = Server::start(&opts).expect("bind");
    let addr = server.addr();

    // A stats command padded past the line limit: the daemon must
    // reject it as a protocol error, and the typed helper must surface
    // that as InvalidData rather than hanging or panicking.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let padded = format!("{{\"cmd\":\"stats\",\"pad\":\"{}\"}}", "x".repeat(512));
    writeln!(writer, "{padded}").expect("send");
    writer.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("reply");
    assert!(
        line.contains("job.rejected") || line.contains("protocol.error"),
        "oversized line must be rejected, got: {line}"
    );

    // A well-formed stats query on a fresh connection still works.
    let stats = query_stats(addr).expect("stats after a rejected peer");
    assert!(stats.get("prometheus").is_some());
    server.begin_shutdown();
    server.join();
}

//! Chaos tests against the real `aqed-serve` binary: SIGKILL the daemon
//! mid-job and at arbitrary flush boundaries, restart it on the same
//! store directory, and demand (a) recovery never crashes or hangs,
//! (b) warm verdicts are identical to a cold run, and (c) obligations
//! completed before the kill are served from the recovered store.

use aqed_engine::{Engine, VerifyRequest};
use aqed_obs::json::Json;
use aqed_serve::{query_health, request_shutdown, submit_retrying, submit_with, verdict_line};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aqed-chaos-{tag}-{}", std::process::id()))
}

/// The daemon under test, killable at any instant.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the real binary against `store` and waits for it to
    /// publish its ephemeral port.
    fn spawn(store: &Path, extra: &[&str]) -> Daemon {
        // One port file per store: the tests run in parallel in one
        // process, and a shared file lets one test read (or delete)
        // another's daemon port.
        let port_file = store.with_extension("port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_aqed-serve"));
        cmd.arg("serve")
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .args(["--flush-ms", "25"])
            .arg("--store-dir")
            .arg(store)
            .arg("--port-file")
            .arg(&port_file)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd.spawn().expect("spawn daemon");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    break addr;
                }
            }
            assert!(Instant::now() < deadline, "daemon never published a port");
            std::thread::sleep(Duration::from_millis(10));
        };
        let _ = std::fs::remove_file(&port_file);
        Daemon { child, addr }
    }

    /// SIGKILL — no drain, no flush, no goodbye.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful drain via the protocol, then reap.
    fn shutdown(mut self) {
        let _ = request_shutdown(self.addr);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }
}

/// The verdict up to the timing parenthetical — stable across runs.
fn stem(verdict: &str) -> String {
    verdict.split(" (").next().unwrap_or(verdict).to_string()
}

/// The re-verification catalog: quick cases with one clean and one
/// buggy verdict each, so identity covers both outcome shapes.
fn catalog() -> Vec<VerifyRequest> {
    let mut clean = VerifyRequest::new("dataflow_fifo_sizing");
    clean.healthy = true;
    clean.bound = Some(6);
    let mut buggy = VerifyRequest::new("dataflow_fifo_sizing");
    buggy.bound = Some(6);
    let gate = VerifyRequest::new("motivating_clock_enable");
    vec![clean, buggy, gate]
}

/// Direct (service-free) verdict stems, the identity baseline.
fn cold_baseline() -> Vec<(i32, String)> {
    let engine = Engine::new();
    catalog()
        .iter()
        .map(|req| {
            let outcome = engine.verify(req).expect("direct run");
            (outcome.exit_code(), stem(&verdict_line(&outcome.report)))
        })
        .collect()
}

/// Submits the whole catalog with retries (the daemon may still be
/// settling after a restart) and returns (exit, stem, cache_hits).
fn submit_catalog(addr: SocketAddr) -> Vec<(i32, String, u64)> {
    catalog()
        .iter()
        .map(|req| {
            let outcome = submit_retrying(addr, req, 10, Duration::from_millis(100), |_| {})
                .expect("catalog submit");
            let hits = outcome
                .report
                .as_ref()
                .and_then(|r| r.get("cache_hits"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            (outcome.exit_code, stem(&outcome.verdict), hits)
        })
        .collect()
}

#[test]
fn sigkill_restart_resubmit_yields_cold_identical_verdicts() {
    let store = temp_path("warm-identity");
    let _ = std::fs::remove_dir_all(&store);
    let baseline = cold_baseline();

    // Phase 1: complete the catalog, then SIGKILL while a long job is
    // mid-solve — the worst instant, with the store mid-use.
    let daemon = Daemon::spawn(&store, &[]);
    let first = submit_catalog(daemon.addr);
    for ((exit, verdict, _), (want_exit, want_verdict)) in first.iter().zip(&baseline) {
        assert_eq!((exit, verdict), (&want_exit.clone(), want_verdict));
    }
    let addr = daemon.addr;
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let victim = std::thread::spawn(move || {
        let mut slow = VerifyRequest::new("aes_v1");
        slow.healthy = true;
        slow.bound = Some(8);
        slow.timeout = Some(Duration::from_secs(120));
        submit_with(addr, &slow, None, |event| {
            if event.get("name").and_then(Json::as_str) == Some("job.started") {
                let _ = started_tx.send(());
            }
        })
    });
    started_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the victim job must start");
    daemon.kill();
    // The client must fail fast (EOF/reset), not hang on a dead server.
    let severed = victim.join().expect("client thread");
    assert!(
        severed.is_err(),
        "a SIGKILLed daemon must sever the stream, got {severed:?}"
    );

    // Phase 2: restart on the same directory. Recovery must report the
    // journaled records, and the re-submitted catalog must be answered
    // from the store with verdicts identical to the cold baseline.
    let daemon = Daemon::spawn(&store, &[]);
    let health = query_health(daemon.addr).expect("health after restart");
    let store_stats = health.get("store").expect("store stats");
    assert_eq!(
        store_stats.get("persistent").and_then(Json::as_bool),
        Some(true)
    );
    assert!(
        store_stats
            .get("recovered")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "restart must recover pre-kill records: {health}"
    );
    let second = submit_catalog(daemon.addr);
    for ((exit, verdict, hits), (want_exit, want_verdict)) in second.iter().zip(&baseline) {
        assert_eq!((exit, verdict), (&want_exit.clone(), want_verdict));
        assert!(
            *hits > 0,
            "obligations completed before the kill must be store hits"
        );
    }
    let health = query_health(daemon.addr).expect("health after warm runs");
    assert!(
        health
            .get("store")
            .and_then(|s| s.get("outcome_hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn repeated_kills_at_varied_flush_boundaries_never_lose_the_store() {
    let store = temp_path("flush-boundaries");
    let _ = std::fs::remove_dir_all(&store);
    let baseline = cold_baseline();
    // Kill at staggered offsets relative to job completion / the 25ms
    // flush cadence; every restart must recover whatever made it to
    // disk and never refuse to start.
    for (round, delay_ms) in [0u64, 7, 31, 80].into_iter().enumerate() {
        let daemon = Daemon::spawn(&store, &[]);
        let addr = daemon.addr;
        let mut req = VerifyRequest::new("dataflow_fifo_sizing");
        req.healthy = round % 2 == 0;
        req.bound = Some(6);
        // Fire a job and kill the daemon while it may be anywhere
        // between solving and flushing.
        let client = std::thread::spawn(move || {
            let _ = submit_with(addr, &req, None, |_| {});
        });
        std::thread::sleep(Duration::from_millis(delay_ms));
        daemon.kill();
        client.join().expect("client must not hang");
    }
    // Also flip one mid-file bit to fold the corrupted-store case into
    // the chaos path (recovery truncates, does not crash).
    let journal = store.join("journal.aqed");
    if let Ok(mut bytes) = std::fs::read(&journal) {
        if bytes.len() > 2 {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
            std::fs::write(&journal, &bytes).expect("plant corruption");
        }
    }
    let daemon = Daemon::spawn(&store, &[]);
    let verdicts = submit_catalog(daemon.addr);
    for ((exit, verdict, _), (want_exit, want_verdict)) in verdicts.iter().zip(&baseline) {
        assert_eq!(
            (exit, verdict),
            (&want_exit.clone(), want_verdict),
            "post-chaos verdicts must match the cold baseline"
        );
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn chaos_worker_panic_in_the_real_binary_is_survived() {
    let store = temp_path("panic-binary");
    let _ = std::fs::remove_dir_all(&store);
    let daemon = Daemon::spawn(&store, &["--chaos-panic-case", "motivating_clock_enable"]);
    // The doomed case fails with the supervisor's taxonomy...
    let doomed = submit_with(
        daemon.addr,
        &VerifyRequest::new("motivating_clock_enable"),
        None,
        |_| {},
    )
    .expect("failed job, not a hang");
    assert_eq!(doomed.exit_code, 2);
    assert!(doomed.verdict.contains("worker died"), "{}", doomed.verdict);
    // ...and the daemon keeps serving other cases on respawned workers.
    let mut req = VerifyRequest::new("dataflow_fifo_sizing");
    req.healthy = true;
    req.bound = Some(6);
    let outcome = submit_retrying(daemon.addr, &req, 5, Duration::from_millis(100), |_| {})
        .expect("served after respawn");
    assert_eq!(outcome.exit_code, 0, "{}", outcome.verdict);
    daemon.shutdown();

    // The dead worker must have left a postmortem bundle behind: the
    // flight recorder's recent events plus the job, request and stats
    // context, self-describing enough for offline triage.
    let bundles: Vec<PathBuf> = std::fs::read_dir(store.join("postmortem"))
        .expect("postmortem dir must exist after a worker death")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains("worker-died"))
        })
        .collect();
    assert_eq!(
        bundles.len(),
        1,
        "exactly one worker-died bundle: {bundles:?}"
    );
    let text = std::fs::read_to_string(&bundles[0]).expect("read bundle");
    let bundle = aqed_obs::json::parse(&text).expect("bundle parses");
    assert_eq!(
        bundle.get("kind").and_then(Json::as_str),
        Some("aqed-postmortem")
    );
    assert_eq!(
        bundle.get("reason").and_then(Json::as_str),
        Some("worker-died")
    );
    assert_eq!(
        bundle.get("case").and_then(Json::as_str),
        Some("motivating_clock_enable"),
        "bundle must name the doomed case"
    );
    assert!(
        bundle.get("request").is_some(),
        "bundle must carry the request for replay"
    );
    let events = match bundle.get("events") {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("bundle events must be an array, got {other:?}"),
    };
    assert!(
        !events.is_empty(),
        "the flight recorder must have captured pre-death events"
    );
    for ev in &events {
        assert!(
            ev.get("ts").and_then(Json::as_u64).is_some()
                && ev.get("name").and_then(Json::as_str).is_some(),
            "malformed recorded event: {ev}"
        );
    }
    let _ = std::fs::remove_dir_all(&store);
}

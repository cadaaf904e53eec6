//! `served-warm`: the store's read side over the transport, with the
//! solver bypassed. A separate `aqed-serve serve --workers 2
//! --store-dir …` process, driven by this one generator with two
//! threads and at most two connections.
//!
//! Set-up: spawn the daemon, send a cold pass over the 22-request mix,
//! shut it down and start it again, so the cache is warmed by journal
//! recovery. Then an open loop at a fixed 40 requests/s (seeded draws
//! from the mix) for 70 % of the window, timed from each request's due
//! time, with the generator's lateness recorded; then a closed loop with
//! two clients for the rest.
//!
//! Metrics: `latency_ms` and `tail_ms` are the open loop's median and
//! highest percentile with ten samples beyond it, `throughput_per_s` the
//! closed loop's requests per second, `peak_mem_mb` the daemon's peak
//! resident set, and `setup_s` the spawn → cold pass → restart → ready
//! sequence. A solver optimisation must show no change here.

use super::{Config, Outcome};
use crate::expected::{check, Expected, Tally, Verdict};
use crate::host;
use crate::layers::Req;
use crate::metrics::SERVE_SPANS;
use crate::stats::{median, percentile, tail, Rng};
use crate::trace::{Trace, UNATTRIBUTED};
use aqed_designs::all_cases;
use aqed_obs::json::{self, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Buggy cases left out of the mix: the ones that take seconds cold.
const SLOW: [&str; 5] = [
    "motivating_clock_enable",
    "fifo_ptr_wrap_off_by_one",
    "fifo_full_check_missing",
    "fifo_stuck_full_deadlock",
    "fifo_redundant_write_glitch",
];

/// Healthy designs in the mix, at bound 8.
const HEALTHY: [&str; 4] = [
    "dataflow_fifo_sizing",
    "optflow_pushpop",
    "gsm_acc_race",
    "lb_tap_off_by_one",
];

/// Open-loop arrival rate, requests per second.
const RATE: f64 = 40.0;

/// Share of the window the open loop gets; the closed loop has the rest.
const OPEN_SHARE: f64 = 0.7;

/// Generator threads, each holding at most one connection.
const CLIENTS: usize = 2;

/// A socket read that takes longer fails the request.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn mix(smoke: bool) -> Vec<Req> {
    let mut mix: Vec<Req> = all_cases()
        .iter()
        .filter(|c| !SLOW.contains(&c.id))
        .map(|c| Req {
            case: c.id,
            healthy: false,
            bound: c.bmc_bound,
        })
        .collect();
    mix.extend(HEALTHY.map(|case| Req {
        case,
        healthy: true,
        bound: 8,
    }));
    if smoke {
        mix.truncate(4);
    }
    mix
}

/// A running daemon; killed and reaped on drop if not stopped first.
struct Daemon {
    child: Child,
    /// Kept open so the daemon's final stdout line has a reader.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(bin: &Path, store: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--store-dir",
            ])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        crate::register_child(child.id());
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on ")?.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                crate::unregister_child(child.id());
                Err(io::Error::other(format!("daemon did not start: {line:?}")))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) -> io::Result<()> {
        aqed_serve::request_shutdown(self.addr)?;
        let status = self.child.wait()?;
        crate::unregister_child(self.child.id());
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        crate::unregister_child(self.child.id());
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Timing {
    req: Req,
    /// When the request was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    /// Receipt times of `job.queued`, `job.started` and `job.done`.
    queued: Instant,
    started: Instant,
    done: Instant,
    /// When the `job.done` line had been parsed.
    parsed: Instant,
    /// The daemon's own scheduler time (`report.runtime_ms`).
    engine_ms: f64,
    verdict: Result<Verdict, String>,
}

impl Timing {
    fn latency_ms(&self) -> f64 {
        ms(self.parsed - self.due)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends one verify command on a fresh connection and reads events until
/// the job ends, stamping each on receipt.
fn request(addr: SocketAddr, req: Req, due: Instant) -> Result<Timing, String> {
    let sent = Instant::now();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let io = |e: io::Error| format!("transport: {e}");
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(io)?;
    let cmd = Json::obj(vec![
        ("cmd", Json::from("verify")),
        ("request", req.to_request().to_json()),
    ]);
    writeln!(&stream, "{cmd}").map_err(io)?;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    let (mut queued, mut started) = (None, None);
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            return Err("daemon closed the connection before job.done".into());
        }
        let rx = Instant::now();
        let event = json::parse(line.trim()).map_err(|e| format!("bad event: {e}"))?;
        let args = event.get("args");
        match event.get("name").and_then(Json::as_str) {
            Some("job.queued") => queued = Some(rx),
            Some("job.started") => started = Some(rx),
            Some("job.done") => {
                let report = args
                    .and_then(|a| a.get("report"))
                    .ok_or("job.done without report")?;
                let verdict = Verdict::of_report_json(report);
                let engine_ms = report
                    .get("runtime_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                let parsed = Instant::now();
                return Ok(Timing {
                    req,
                    due,
                    sent,
                    queued: queued.ok_or("job.done before job.queued")?,
                    started: started.ok_or("job.done before job.started")?,
                    done: rx,
                    parsed,
                    engine_ms,
                    verdict,
                });
            }
            Some(name @ ("job.error" | "job.rejected" | "protocol.error")) => {
                return Err(format!(
                    "{name}: {}",
                    args.map(Json::to_string).unwrap_or_default()
                ));
            }
            _ => {}
        }
    }
}

/// Checks a request's outcome against the reference file.
fn note(tally: &mut Tally, expected: &Expected, req: Req, got: &Result<Timing, String>) {
    let verdict = got
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|t| t.verdict.clone());
    let c = check(expected.get(req.case, req.healthy, req.bound), &verdict);
    tally.note(
        c,
        &format!("served {} bound {}: {verdict:?}", req.case, req.bound),
    );
}

/// A request's generator thread, the request, and how it went.
type Sent = (usize, Req, Result<Timing, String>);

/// Sends `reqs` over `CLIENTS` connections, each request when it falls
/// due (`None` = as soon as a client is free), until `stop`.
fn drive(
    addr: SocketAddr,
    reqs: &[Req],
    due: impl Fn(usize) -> Option<Instant> + Sync,
    stop: Option<Instant>,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (next, due) = (&next, &due);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() || stop.is_some_and(|t| Instant::now() >= t) {
                            return mine;
                        }
                        let when = due(i).unwrap_or_else(Instant::now);
                        if let Some(wait) = when.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        mine.push((client, reqs[i], request(addr, reqs[i], when)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// Fresh store, cold pass, restart on the recovered store.
fn set_up(
    bin: &Path,
    store: &Path,
    mix: &[Req],
    seed: u64,
    expected: &Expected,
    tally: &mut Tally,
) -> io::Result<Daemon> {
    let _ = std::fs::remove_dir_all(store);
    let cold = Daemon::spawn(bin, store)?;
    let mut order = mix.to_vec();
    Rng::new(seed, 0).shuffle(&mut order);
    for (_, req, got) in drive(cold.addr, &order, |_| None, None) {
        note(tally, expected, req, &got);
    }
    cold.stop()?;
    Daemon::spawn(bin, store)
}

pub fn run(cfg: &Config, expected: &Expected) -> Result<Outcome, String> {
    let bin = cfg.bin_dir.join("aqed-serve");
    if !bin.is_file() {
        return Err(format!("{} not found; build it first", bin.display()));
    }
    let mix = mix(cfg.smoke);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    while cfg.more_setups(&setups) {
        // The previous set-up's daemon stops outside the timed section.
        if let Some(d) = daemon.take() {
            d.stop().map_err(|e| format!("daemon stop: {e}"))?;
        }
        let store = cfg.scratch.join(format!("served-{}", setups.len()));
        let t = Instant::now();
        let d = set_up(&bin, &store, &mix, cfg.seed, expected, &mut tally)
            .map_err(|e| format!("daemon set-up: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let setup_s = median(&setups);
    let daemon = daemon.expect("at least one set-up ran");

    let open_s = cfg.seconds * OPEN_SHARE;
    let n = ((RATE * open_s).round() as usize).max(1);
    let mut rng = Rng::new(cfg.seed, 1);
    let open_reqs: Vec<Req> = (0..n).map(|_| mix[rng.below(mix.len())]).collect();
    let cpu_before = host::cpu_seconds(Some(daemon.pid()));
    let t0 = Instant::now() + Duration::from_millis(10);
    let open = drive(
        daemon.addr,
        &open_reqs,
        |i| Some(t0 + Duration::from_secs_f64(i as f64 / RATE)),
        None,
    );
    let cpu_after = host::cpu_seconds(Some(daemon.pid()));

    let mut rng = Rng::new(cfg.seed, 2);
    let closed_reqs: Vec<Req> = (0..100_000).map(|_| mix[rng.below(mix.len())]).collect();
    let closed_s = cfg.seconds - open_s;
    let closed_start = Instant::now();
    let closed = drive(
        daemon.addr,
        &closed_reqs,
        |_| None,
        Some(closed_start + Duration::from_secs_f64(closed_s)),
    );
    let closed_elapsed = closed_start.elapsed().as_secs_f64();

    let health = aqed_serve::query_health(daemon.addr).map_err(|e| format!("health: {e}"))?;
    let mem = host::peak_rss_mb(daemon.pid());
    daemon.stop().map_err(|e| format!("daemon stop: {e}"))?;

    for (_, req, got) in open.iter().chain(&closed) {
        note(&mut tally, expected, *req, got);
    }
    let ok: Vec<(usize, &Timing)> = open
        .iter()
        .filter_map(|(client, _, t)| t.as_ref().ok().map(|t| (*client, t)))
        .collect();
    let lat: Vec<f64> = ok.iter().map(|(_, t)| t.latency_ms()).collect();
    if lat.is_empty() {
        return Err("no open-loop request completed".into());
    }
    let late: Vec<f64> = ok.iter().map(|(_, t)| ms(t.sent - t.due)).collect();
    let tail_pct = tail(&lat);
    let mut out = Outcome {
        tally,
        notes: vec![
            ("open_requests", Json::num(n as u64)),
            ("closed_requests", Json::num(closed.len() as u64)),
            (
                "tail_percentile",
                tail_pct.map_or(Json::Null, |(p, _)| Json::Num(p)),
            ),
            ("late_p50_ms", Json::Num(median(&late))),
            ("store", health.get("store").cloned().unwrap_or(Json::Null)),
        ],
        ..Outcome::default()
    };
    if cfg.trace {
        let mut trace = Trace::new(t0);
        for &(client, t) in &ok {
            record(&mut trace, 1 + client as u64, t);
        }
        let layers = trace.layers();
        let mut metrics = span_metrics(&ok);
        let store = |k: &str| {
            health
                .get("store")
                .and_then(|s| s.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        metrics.extend([
            ("loadgen.late_p99_ms".into(), percentile(&late, 99.0)),
            (
                "serve.daemon_cpu_ms".into(),
                match (cpu_before, cpu_after) {
                    (Some(a), Some(b)) => (b - a) * 1e3 / n as f64,
                    _ => 0.0,
                },
            ),
            (
                "core.store.hit_ratio".into(),
                ratio(
                    store("outcome_hits"),
                    store("outcome_hits") + store("outcome_misses"),
                ),
            ),
            (
                "core.store.cone_hit_ratio".into(),
                ratio(
                    store("cone_hits"),
                    store("cone_hits") + store("cone_misses"),
                ),
            ),
            ("core.persist.recovered_records".into(), store("recovered")),
            ("core.persist.journal_bytes".into(), store("journal_bytes")),
            ("unattributed_ms".into(), layers.ms_per_op(UNATTRIBUTED)),
            ("unattributed_frac".into(), layers.unattributed_frac()),
            // The client stamps every event in both modes; a traced run
            // only keeps the stamps, so it runs the same code.
            ("trace.overhead_frac".into(), 0.0),
        ]);
        out.metrics = metrics;
        out.trace = Some(trace);
    } else {
        let ok_closed = closed.iter().filter(|(_, _, t)| t.is_ok()).count();
        out.metrics = vec![
            ("setup_s".into(), setup_s),
            ("latency_ms".into(), median(&lat)),
            (
                "tail_ms".into(),
                tail_pct.map_or_else(|| lat.iter().copied().fold(0.0, f64::max), |(_, v)| v),
            ),
            ("throughput_per_s".into(), ok_closed as f64 / closed_elapsed),
            ("peak_mem_mb".into(), mem.unwrap_or(0.0)),
        ];
    }
    Ok(out)
}

/// One request's spans: accept (sent → `job.queued`), queue (→
/// `job.started`), run (→ `job.done`, holding the daemon's engine time
/// at its end), decode (→ parsed). They tile the request's latency.
fn record(trace: &mut Trace, tid: u64, t: &Timing) {
    let root = trace.span("serve.request", tid, t.sent, t.parsed, None);
    trace.arg(root, "case", Json::from(t.req.case));
    trace.span("serve.accept", tid, t.sent, t.queued, Some(root));
    trace.span("serve.queue", tid, t.queued, t.started, Some(root));
    let run = trace.span("serve.run", tid, t.started, t.done, Some(root));
    let end = trace.end_ns(run);
    let engine_ns = ((t.engine_ms * 1e6) as u64).min(end - trace.start_ns(run));
    trace.span_ns("serve.engine", tid, end - engine_ns, end, Some(run));
    trace.span("serve.decode", tid, t.done, t.parsed, Some(root));
}

/// `serve.<span>_ms.p50` / `.tail` over the open loop's requests.
fn span_metrics(ok: &[(usize, &Timing)]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for &span in SERVE_SPANS {
        let xs: Vec<f64> = ok
            .iter()
            .map(|(_, t)| match span {
                "accept" => ms(t.queued - t.sent),
                "queue" => ms(t.started - t.queued),
                "run" => ms(t.done - t.started),
                "engine" => t.engine_ms,
                "tail" => (ms(t.done - t.started) - t.engine_ms).max(0.0),
                "decode" => ms(t.parsed - t.done),
                other => unreachable!("uncatalogued serve span {other}"),
            })
            .collect();
        let tail_v = tail(&xs).map_or_else(|| xs.iter().copied().fold(0.0, f64::max), |(_, v)| v);
        out.push((format!("serve.{span}_ms.p50"), median(&xs)));
        out.push((format!("serve.{span}_ms.tail"), tail_v));
    }
    out
}

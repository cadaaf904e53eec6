//! The `aqed-serve` binary: daemon (`serve`), client (`submit`) and
//! admin (`shutdown`, `ping`, `health`) front ends over the library.
//!
//! `submit` prints the same verdict line as `aqed verify` and exits
//! with the same taxonomy (0 clean, 1 bug, 2 inconclusive / errored /
//! cancelled / rejected, 3 usage or I/O error), so scripts can treat a
//! service-routed run and a one-shot run interchangeably.

use aqed_engine::VerifyRequest;
use aqed_obs::json::Json;
use aqed_serve::{
    ping, query_health, query_stats, request_dump, request_shutdown, submit_retrying, submit_with,
    ServeOptions, Server,
};
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  aqed-serve serve [--listen ADDR] [--workers N] [--queue N] [--port-file PATH]
                   [--store-dir DIR] [--flush-ms N] [--max-line-bytes N]
                   [--max-connections N] [--heartbeat-ms N] [--recorder-bytes N]
  aqed-serve submit --addr ADDR CASE [verify flags] [--cancel-after-ms N] [--events]
                    [--retries N] [--retry-backoff-ms N]
  aqed-serve shutdown --addr ADDR
  aqed-serve ping --addr ADDR
  aqed-serve health --addr ADDR
  aqed-serve stats --addr ADDR [--json]
  aqed-serve dump --addr ADDR

verify flags (mirroring `aqed verify`):
  --healthy --bound N --jobs N --backend cdcl|portfolio
  --portfolio-workers N --timeout-secs S
  --conflict-budget N --fail-fast --no-preprocess --no-coi";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String]) -> io::Result<u8> {
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("submit") => submit_cmd(&args[1..]),
        Some("shutdown") => {
            let addr = required_addr(&args[1..])?;
            request_shutdown(addr.as_str())?;
            println!("shutdown requested");
            Ok(0)
        }
        Some("ping") => {
            let addr = required_addr(&args[1..])?;
            if ping(addr.as_str()) {
                println!("pong");
                Ok(0)
            } else {
                println!("no answer");
                Ok(2)
            }
        }
        Some("health") => {
            let addr = required_addr(&args[1..])?;
            println!("{}", query_health(addr.as_str())?);
            Ok(0)
        }
        Some("stats") => {
            let addr = required_addr(&args[1..])?;
            let stats = query_stats(addr.as_str())?;
            if args[1..].iter().any(|a| a == "--json") {
                println!("{stats}");
            } else {
                // Default to the Prometheus text form — that is what a
                // scraper (or a grep in ci.sh) wants to see.
                let text = stats
                    .get("prometheus")
                    .and_then(Json::as_str)
                    .unwrap_or_default();
                print!("{text}");
                io::stdout().flush()?;
            }
            Ok(0)
        }
        Some("dump") => {
            let addr = required_addr(&args[1..])?;
            let reply = request_dump(addr.as_str())?;
            if let Some(path) = reply.get("path").and_then(Json::as_str) {
                println!("{path}");
                Ok(0)
            } else {
                let msg = reply
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("dump failed");
                eprintln!("error: {msg}");
                Ok(2)
            }
        }
        _ => {
            eprintln!("{USAGE}");
            Ok(3)
        }
    }
}

fn usage_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg.into())
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> io::Result<T> {
    v.ok_or_else(|| usage_err(format!("{flag} needs a value")))?
        .parse()
        .map_err(|_| usage_err(format!("{flag} needs a number")))
}

fn required_addr(args: &[String]) -> io::Result<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--addr" {
            return it
                .next()
                .cloned()
                .ok_or_else(|| usage_err("--addr needs a value"));
        }
    }
    Err(usage_err("--addr HOST:PORT is required"))
}

fn serve(args: &[String]) -> io::Result<u8> {
    let mut opts = ServeOptions::default();
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => {
                opts.addr = it
                    .next()
                    .cloned()
                    .ok_or_else(|| usage_err("--listen needs a value"))?;
            }
            "--workers" => opts.workers = parse_num("--workers", it.next())?,
            "--queue" => opts.queue_capacity = parse_num("--queue", it.next())?,
            "--port-file" => port_file = it.next().cloned(),
            "--store-dir" => {
                let dir = it
                    .next()
                    .ok_or_else(|| usage_err("--store-dir needs a value"))?;
                opts.store_dir = Some(dir.into());
            }
            "--flush-ms" => {
                let ms: u64 = parse_num("--flush-ms", it.next())?;
                opts.flush_interval = Duration::from_millis(ms.max(1));
            }
            "--max-line-bytes" => {
                opts.max_line_bytes = parse_num("--max-line-bytes", it.next())?;
            }
            "--max-connections" => {
                opts.max_connections = parse_num("--max-connections", it.next())?;
            }
            "--heartbeat-ms" => {
                let ms: u64 = parse_num("--heartbeat-ms", it.next())?;
                opts.heartbeat_interval = Duration::from_millis(ms.max(10));
            }
            "--recorder-bytes" => {
                opts.recorder_bytes = parse_num("--recorder-bytes", it.next())?;
            }
            // Chaos hook for the crash-recovery test suite; deliberately
            // undocumented in USAGE.
            "--chaos-panic-case" => opts.panic_on_case = it.next().cloned(),
            other => return Err(usage_err(format!("unknown serve flag '{other}'"))),
        }
    }
    let server = Server::start(&opts)?;
    println!("listening on {}", server.addr());
    io::stdout().flush()?;
    if let Some(path) = port_file {
        std::fs::write(path, server.addr().to_string())?;
    }
    // First Ctrl-C drains gracefully (finish queued and in-flight jobs,
    // stop accepting); a second one falls through to the default
    // disposition and terminates.
    let stop = aqed_sat::stop_on_sigint();
    while !server.shutdown_started() {
        if stop.is_requested() {
            server.begin_shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.join();
    println!("drained");
    Ok(0)
}

/// A deferred request mutation, applied once the case id is known.
type RequestEdit = Box<dyn FnOnce(&mut VerifyRequest)>;

fn submit_cmd(args: &[String]) -> io::Result<u8> {
    let mut addr: Option<String> = None;
    let mut case: Option<String> = None;
    let mut cancel_after: Option<Duration> = None;
    let mut events = false;
    let mut retries: u32 = 0;
    let mut retry_backoff = Duration::from_millis(100);
    let mut edits: Vec<RequestEdit> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned(),
            "--healthy" => edits.push(Box::new(|r| r.healthy = true)),
            "--bound" => {
                let b: usize = parse_num("--bound", it.next())?;
                edits.push(Box::new(move |r| r.bound = Some(b)));
            }
            "--jobs" => {
                let j: usize = parse_num("--jobs", it.next())?;
                edits.push(Box::new(move |r| r.jobs = j.max(1)));
            }
            "--backend" => {
                let b = it
                    .next()
                    .ok_or_else(|| usage_err("--backend needs a value"))?
                    .parse()
                    .map_err(usage_err)?;
                edits.push(Box::new(move |r| r.backend = b));
            }
            "--portfolio-workers" => {
                let w: usize = parse_num("--portfolio-workers", it.next())?;
                edits.push(Box::new(move |r| r.portfolio_workers = w.max(1)));
            }
            "--timeout-secs" => {
                let s: f64 = parse_num("--timeout-secs", it.next())?;
                let t = Duration::try_from_secs_f64(s)
                    .ok()
                    .filter(|t| !t.is_zero())
                    .ok_or_else(|| usage_err("--timeout-secs needs a positive number"))?;
                edits.push(Box::new(move |r| r.timeout = Some(t)));
            }
            "--conflict-budget" => {
                let c: u64 = parse_num("--conflict-budget", it.next())?;
                edits.push(Box::new(move |r| r.conflict_budget = Some(c)));
            }
            "--fail-fast" => edits.push(Box::new(|r| r.fail_fast = true)),
            "--no-preprocess" => edits.push(Box::new(|r| r.preprocess = false)),
            "--no-coi" => edits.push(Box::new(|r| r.coi = false)),
            "--cancel-after-ms" => {
                let ms: u64 = parse_num("--cancel-after-ms", it.next())?;
                cancel_after = Some(Duration::from_millis(ms));
            }
            "--events" => events = true,
            "--retries" => retries = parse_num("--retries", it.next())?,
            "--retry-backoff-ms" => {
                let ms: u64 = parse_num("--retry-backoff-ms", it.next())?;
                retry_backoff = Duration::from_millis(ms.max(1));
            }
            other if !other.starts_with('-') && case.is_none() => {
                case = Some(other.to_string());
            }
            other => return Err(usage_err(format!("unknown submit flag '{other}'"))),
        }
    }
    let addr = addr.ok_or_else(|| usage_err("--addr HOST:PORT is required"))?;
    let case = case.ok_or_else(|| usage_err("submit needs a CASE id"))?;
    let mut req = VerifyRequest::new(case);
    for edit in edits {
        edit(&mut req);
    }
    let on_event = |event: &aqed_obs::json::Json| {
        if events {
            println!("{event}");
        }
    };
    // Cancellation is interactive (one attempt by definition); plain
    // submits may ride the retrying path, which is idempotent because
    // results are keyed by content hash in the daemon's artifact store.
    let outcome = if retries > 0 && cancel_after.is_none() {
        submit_retrying(addr.as_str(), &req, retries, retry_backoff, on_event)?
    } else {
        submit_with(addr.as_str(), &req, cancel_after, on_event)?
    };
    println!("{}", outcome.verdict);
    Ok(u8::try_from(outcome.exit_code).unwrap_or(2))
}

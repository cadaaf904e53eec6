//! Observability must be a pure observer: across the whole design
//! catalog, running `verify` with `--trace-out` + `--report-json` must
//! produce exactly the same verdict and exit code as running without
//! them, and the artifacts themselves must be well-formed — every JSONL
//! line parses, spans balance per thread, and the report JSON
//! round-trips through the parser.
//!
//! These tests install the process-global trace sink, so they live in
//! their own integration-test binary (one process per file under
//! `tests/`) and serialize against each other with a local mutex.

use aqed_cli::{parse_args, run};
use aqed_obs::json::{parse, Json};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aqed_obs_test_{}_{name}", std::process::id()));
    p
}

/// Runs `aqed <args>` in-process, returning (exit code, captured output).
fn run_cli(args: &[&str]) -> (i32, String) {
    let cmd = parse_args(args.iter().map(|s| s.to_string())).expect("args must parse");
    let mut buf = Vec::new();
    let code = run(&cmd, &mut buf).expect("io");
    (code, String::from_utf8(buf).expect("utf8"))
}

/// The verdict line is the first line after the per-obligation block
/// that announces the merged outcome, with the trailing runtime
/// parenthetical stripped (wall time legitimately varies run to run).
fn verdict_line(output: &str) -> String {
    let line = output
        .lines()
        .find(|l| {
            l.starts_with("clean up to bound")
                || l.starts_with("bug:")
                || l.starts_with("inconclusive")
                || l.starts_with("error:")
        })
        .unwrap_or_default();
    line.split(" (").next().unwrap_or_default().to_string()
}

#[test]
fn catalog_verdicts_identical_with_and_without_tracing() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for case in aqed_designs::all_cases() {
        // Cap the bound: the invariant under test is observational
        // purity, not bug depth, and the whole catalog runs twice.
        let bound = case.bmc_bound.min(6).to_string();
        let trace = tmp_path(&format!("{}.jsonl", case.id));
        let report = tmp_path(&format!("{}.json", case.id));
        let plain_args = ["verify", case.id, "--bound", &bound, "--jobs", "2"];
        let (plain_code, plain_out) = run_cli(&plain_args);
        let traced_args = [
            "verify",
            case.id,
            "--bound",
            &bound,
            "--jobs",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--report-json",
            report.to_str().unwrap(),
        ];
        let (traced_code, traced_out) = run_cli(&traced_args);
        assert_eq!(
            plain_code, traced_code,
            "case {}: tracing changed the exit code",
            case.id
        );
        assert_eq!(
            verdict_line(&plain_out),
            verdict_line(&traced_out),
            "case {}: tracing changed the verdict",
            case.id
        );
        // The report must round-trip through the parser and agree with
        // the exit code.
        let json = std::fs::read_to_string(&report).expect("report written");
        let parsed = parse(&json).expect("report JSON parses");
        let verdict = parsed
            .get("outcome")
            .and_then(|o| o.get("verdict"))
            .and_then(Json::as_str)
            .expect("outcome.verdict present");
        let degraded = parsed
            .get("degraded")
            .and_then(Json::as_bool)
            .expect("degraded present");
        let expected_code = match verdict {
            "clean" if !degraded => 0,
            "bug" => 1,
            _ => 2,
        };
        assert_eq!(
            traced_code, expected_code,
            "case {}: exit code disagrees with report verdict '{verdict}'",
            case.id
        );
        assert!(
            !parsed
                .get("obligations")
                .and_then(Json::as_arr)
                .expect("obligations array")
                .is_empty(),
            "case {}: report must list obligations",
            case.id
        );
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&report);
    }
}

/// Recursively drops the fields observability legitimately adds or
/// perturbs: wall-clock timings (`*_ms`, `*_micros`) and the
/// obs-plane-only `metrics` section. Everything left — verdicts,
/// obligation outcomes, solver work counters, cache hits — must be
/// bit-identical across obs configurations.
fn strip_timings_and_metrics(json: &Json) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !k.ends_with("_ms") && !k.ends_with("_micros") && k != "metrics")
                .map(|(k, v)| (k.clone(), strip_timings_and_metrics(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timings_and_metrics).collect()),
        other => other.clone(),
    }
}

#[test]
fn catalog_report_json_identical_minus_timings_across_obs_configs() {
    // Report JSON only exists when `--report-json` arms the plane, so
    // the widest on/off delta that still yields two reports is "report
    // only" (no sink, metrics armed) vs "report + trace sink" (the
    // full plane: JSONL sink, span emission, live meter sampling).
    // `--jobs 1` keeps solver work counters deterministic so the
    // stripped reports can be compared byte for byte.
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for case in aqed_designs::all_cases() {
        let bound = case.bmc_bound.min(6).to_string();
        let trace = tmp_path(&format!("rj_{}.jsonl", case.id));
        let report_off = tmp_path(&format!("rj_off_{}.json", case.id));
        let report_on = tmp_path(&format!("rj_on_{}.json", case.id));
        let (code_off, _) = run_cli(&[
            "verify",
            case.id,
            "--bound",
            &bound,
            "--jobs",
            "1",
            "--report-json",
            report_off.to_str().unwrap(),
        ]);
        let (code_on, _) = run_cli(&[
            "verify",
            case.id,
            "--bound",
            &bound,
            "--jobs",
            "1",
            "--trace-out",
            trace.to_str().unwrap(),
            "--report-json",
            report_on.to_str().unwrap(),
        ]);
        assert_eq!(code_off, code_on, "case {}: exit code diverged", case.id);
        let off = parse(&std::fs::read_to_string(&report_off).expect("off report")).unwrap();
        let on = parse(&std::fs::read_to_string(&report_on).expect("on report")).unwrap();
        // The full plane must actually have added its metrics before
        // we strip them, or the comparison proves nothing.
        assert!(
            on.get("metrics").is_some(),
            "case {}: traced report must carry metrics",
            case.id
        );
        assert_eq!(
            strip_timings_and_metrics(&off).to_string(),
            strip_timings_and_metrics(&on).to_string(),
            "case {}: report JSON diverged beyond metrics/timing",
            case.id
        );
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&report_off);
        let _ = std::fs::remove_file(&report_on);
    }
}

#[test]
fn portfolio_backend_is_observationally_pure_and_emits_worker_spans() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace = tmp_path("portfolio.jsonl");
    let base = [
        "verify",
        "dataflow_fifo_sizing",
        "--bound",
        "6",
        "--backend",
        "portfolio",
        "--portfolio-workers",
        "2",
    ];
    let (plain_code, plain_out) = run_cli(&base);
    let mut traced_args = base.to_vec();
    traced_args.extend(["--trace-out", trace.to_str().unwrap()]);
    let (traced_code, traced_out) = run_cli(&traced_args);
    assert_eq!(plain_code, traced_code, "tracing changed the exit code");
    assert_eq!(
        verdict_line(&plain_out),
        verdict_line(&traced_out),
        "tracing changed the portfolio verdict"
    );

    // The race must show up as paired async worker spans: every
    // portfolio.worker 'b' has a matching 'e' under the same id.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let mut open: HashMap<u64, ()> = HashMap::new();
    let mut begins = 0usize;
    for (n, line) in text.lines().enumerate() {
        let ev = parse(line).unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
        if ev.get("name").and_then(Json::as_str) != Some("portfolio.worker") {
            continue;
        }
        let id = ev
            .get("id")
            .and_then(Json::as_u64)
            .expect("worker span carries an id");
        match ev.get("ph").and_then(Json::as_str) {
            Some("b") => {
                begins += 1;
                assert!(open.insert(id, ()).is_none(), "duplicate worker begin");
            }
            Some("e") => {
                assert!(open.remove(&id).is_some(), "worker end without begin");
            }
            other => panic!("portfolio.worker with ph {other:?}"),
        }
    }
    assert!(begins > 0, "traced portfolio run emitted no worker spans");
    assert!(open.is_empty(), "unclosed portfolio.worker spans");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn trace_is_wellformed_and_obligation_spans_cover_wall_time() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trace = tmp_path("coverage.jsonl");
    let report = tmp_path("coverage.json");
    let (code, _out) = run_cli(&[
        "verify",
        "dataflow_fifo_sizing",
        "--bound",
        "6",
        "--healthy",
        "--jobs",
        "4",
        "--trace-out",
        trace.to_str().unwrap(),
        "--report-json",
        report.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);

    // Every line is a self-contained JSON object with the schema keys.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let mut events = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let ev = parse(line).unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        assert!(
            matches!(ph, "B" | "E" | "I" | "b" | "e"),
            "line {}: ph {ph}",
            n + 1
        );
        if matches!(ph, "b" | "e") {
            assert!(
                ev.get("id").and_then(Json::as_u64).is_some(),
                "line {}: async event without id",
                n + 1
            );
        }
        assert!(ev.get("ts").and_then(Json::as_u64).is_some());
        assert!(ev.get("tid").and_then(Json::as_u64).is_some());
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        events.push(ev);
    }
    assert!(!events.is_empty(), "trace must not be empty");

    // Sync spans balance per thread (B/E stack); async spans — the
    // obligation spans live here since they can hop threads on retry —
    // balance per (name, id) pair.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    // Per-obligation wall time reconstructed from the trace (ns).
    let mut obligation_ns: HashMap<u64, u64> = HashMap::new();
    let mut open_async: HashMap<(String, u64), u64> = HashMap::new();
    for ev in &events {
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap();
        let ts = ev.get("ts").and_then(Json::as_u64).unwrap();
        let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
        match ev.get("ph").and_then(Json::as_str).unwrap() {
            "B" => stacks.entry(tid).or_default().push(name),
            "E" => {
                let top = stacks
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("tid {tid}: End '{name}' with empty stack"));
                assert_eq!(top, name, "tid {tid}: interleaved span ends");
            }
            "b" => {
                let id = ev.get("id").and_then(Json::as_u64).unwrap();
                let prev = open_async.insert((name.clone(), id), ts);
                assert!(prev.is_none(), "duplicate async begin for {name}#{id}");
            }
            "e" => {
                let id = ev.get("id").and_then(Json::as_u64).unwrap();
                let begin = open_async
                    .remove(&(name.clone(), id))
                    .unwrap_or_else(|| panic!("async end {name}#{id} with no begin"));
                if name == "obligation" {
                    let index = ev
                        .get("args")
                        .and_then(|a| a.get("index"))
                        .and_then(Json::as_u64)
                        .expect("obligation span carries its index");
                    *obligation_ns.entry(index).or_default() += ts - begin;
                }
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid}: unclosed spans {stack:?}");
    }
    assert!(
        open_async.is_empty(),
        "unclosed async spans: {:?}",
        open_async.keys().collect::<Vec<_>>()
    );

    // Acceptance criterion: the per-obligation spans account for ≥95% of
    // each obligation's reported wall time.
    let parsed = parse(&std::fs::read_to_string(&report).expect("report written")).unwrap();
    let obligations = parsed.get("obligations").and_then(Json::as_arr).unwrap();
    assert!(!obligations.is_empty());
    for ob in obligations {
        let index = ob.get("bad_index").and_then(Json::as_u64).unwrap();
        let wall_ms = ob.get("wall_ms").and_then(Json::as_f64).unwrap();
        let span_ms = obligation_ns.get(&index).copied().unwrap_or(0) as f64 / 1e6;
        assert!(
            span_ms >= wall_ms * 0.95,
            "obligation {index}: span {span_ms:.3}ms < 95% of wall {wall_ms:.3}ms"
        );
    }
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&report);
}

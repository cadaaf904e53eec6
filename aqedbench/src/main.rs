//! `aqedbench`: one seeded benchmark for the A-QED engine and its
//! `aqed-serve` daemon, with three workloads (`bughunt`, `ci-reverify`,
//! `served-warm`), per-layer traced attribution, and a comparison of two
//! sets of runs under the bounds in `BENCHMARK.json`.
//!
//! ```text
//! aqedbench run --workload W --seed N [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
//! aqedbench compare BASE_DIR NEW_DIR [--benchmark FILE]
//! aqedbench list [--benchmark FILE]
//! ```
//!
//! `run` prints host facts, every metric as `metric <name> <value>
//! <unit>`, and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. It also writes
//! `<out>/<workload>-<seed>[.traced].json` and, when traced,
//! `<out>/<workload>-<seed>.trace.jsonl`. See README.md.

mod compare;
mod expected;
mod heap;
mod host;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use aqed_obs::json::Json;
use expected::Expected;
use host::HostFacts;
use metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Mutex;
use std::time::Duration;
use workloads::{bughunt, reverify, served, Config};

const USAGE: &str = "usage:
  aqedbench run --workload bughunt|ci-reverify|served-warm --seed N
                [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
  aqedbench compare BASE_DIR NEW_DIR [--benchmark FILE]
  aqedbench list [--benchmark FILE]";

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// A run that outlives this is cut short: its child processes are
/// killed and it exits with an error, never with a result.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Child processes alive right now, for the run limit to kill.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Records a spawned child so the run limit can stop it.
pub fn register_child(pid: u32) {
    CHILDREN.lock().unwrap_or_else(|e| e.into_inner()).push(pid);
}

/// Forgets a child that has been reaped.
pub fn unregister_child(pid: u32) {
    CHILDREN
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|&p| p != pid);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("list") => list_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("aqedbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/aqedbench"),
    };
    let mut it = args.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = value(flag, &mut it)?,
            "--seed" => {
                a.seed = value(flag, &mut it)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                a.seconds = value(flag, &mut it)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or("--seconds needs a number in (0, 120]")?;
            }
            "--trace" => {
                a.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value(flag, &mut it)?),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(a)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills every registered child and exits once the run limit passes.
fn arm_run_limit() {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        let pids = CHILDREN.lock().unwrap_or_else(|e| e.into_inner()).clone();
        for pid in pids {
            let _ = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        }
        eprintln!("aqedbench: run exceeded {RUN_LIMIT:?}; children killed");
        std::process::exit(3);
    });
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    arm_run_limit();
    let host = HostFacts::sample();
    let scratch = Scratch(a.out.join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cfg = Config {
        seed: a.seed,
        seconds: if a.smoke {
            a.seconds.min(1.0)
        } else {
            a.seconds
        },
        trace: a.trace,
        smoke: a.smoke,
        scratch: scratch.0.clone(),
        bin_dir: exe.parent().map(Path::to_path_buf).unwrap_or_default(),
    };
    let expected = Expected::reference();
    let outcome = match a.workload.as_str() {
        "bughunt" => bughunt::run(&cfg, &expected),
        "ci-reverify" => reverify::run(&cfg, &expected)?,
        _ => served::run(&cfg, &expected)?,
    };
    let cpu_s = host::cpu_seconds(None);
    let loadavg_end = host::loadavg();

    let mut values: BTreeMap<String, f64> = outcome.metrics.into_iter().collect();
    let catalogue = if a.trace {
        values.insert("bench.cpu_s".into(), cpu_s.unwrap_or(0.0));
        PER_LAYER
    } else {
        END_TO_END
    };
    let mut metrics = Vec::new();
    for m in catalogue {
        // A layer a workload never enters reads 0; an end-to-end metric
        // must have been measured.
        let v = values.get(m.name).copied().filter(|v| v.is_finite());
        let v = match v {
            Some(v) => v,
            None if a.trace => 0.0,
            None => return Err(format!("{} was not measured", m.name)),
        };
        metrics.push((m, v));
    }

    println!(
        "# aqedbench {} seed {} seconds {} trace {}{}",
        a.workload,
        a.seed,
        cfg.seconds,
        u8::from(a.trace),
        if a.smoke { " smoke" } else { "" }
    );
    println!(
        "# host nproc={} profile={} rustc=\"{}\" git={} loadavg_start={:?} loadavg_end={:?} cpu_s={:?} steal_s={:?}",
        host.nproc,
        host.profile,
        host.rustc,
        host.git_rev,
        host.loadavg_start,
        loadavg_end,
        cpu_s,
        host.steal_s()
    );
    if host.noisy() {
        println!(
            "# NOISY: load average {:?} exceeded nproc {} at start; discard this run",
            host.loadavg_start, host.nproc
        );
    }
    if let Some(trace) = &outcome.trace {
        for line in trace.layers().table().lines() {
            println!("# {line}");
        }
    }
    for (m, v) in &metrics {
        println!("metric {} {v} {}", m.name, m.unit);
    }
    let t = outcome.tally;
    println!(
        "# attempted {} failed {} wrong_verdicts {}",
        t.attempted, t.failed, t.wrong
    );

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_string(),
                    Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    );
    let stem = format!(
        "{}-{}{}",
        a.workload,
        a.seed,
        if a.trace { ".traced" } else { "" }
    );
    let mut result = vec![
        ("kind", Json::from("aqedbench-result")),
        ("workload", Json::from(a.workload.as_str())),
        ("seed", Json::num(a.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("smoke", Json::Bool(a.smoke)),
        ("host", host.to_json(loadavg_end, cpu_s)),
        ("attempted", Json::num(t.attempted)),
        ("failed", Json::num(t.failed)),
        ("wrong_verdicts", Json::num(t.wrong)),
        ("metrics", metrics_json.clone()),
    ];
    result.extend(outcome.notes);
    let result_path = a.out.join(format!("{stem}.json"));
    std::fs::write(&result_path, format!("{}\n", Json::obj(result)))
        .map_err(|e| format!("{}: {e}", result_path.display()))?;
    if let Some(trace) = &outcome.trace {
        let path = a.out.join(format!("{}-{}.trace.jsonl", a.workload, a.seed));
        trace
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(t.wrong == 0)),
            ("attempted", Json::num(t.attempted)),
            ("failed", Json::num(t.failed)),
            ("metrics", metrics_json),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

fn benchmark_path(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [] => Ok(PathBuf::from("BENCHMARK.json")),
        [flag, path] if flag == "--benchmark" => Ok(PathBuf::from(path)),
        _ => Err(USAGE.into()),
    }
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [base, new, rest @ ..] = args else {
        return Err(USAGE.into());
    };
    let bounds = compare::bounds(&benchmark_path(rest)?)?;
    let base = compare::load(Path::new(base))?;
    let new = compare::load(Path::new(new))?;
    let (table, regressed) = compare::report(&base, &new, &bounds);
    print!("{table}");
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn list_cmd(args: &[String]) -> Result<ExitCode, String> {
    let path = benchmark_path(args)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = aqed_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let field = |row: &Json, k: &str| {
        row.get(k).map_or_else(
            || "-".to_string(),
            |v| match v {
                Json::Str(s) => s.clone(),
                other => other.to_string(),
            },
        )
    };
    println!("workloads:");
    for w in rows("workloads") {
        println!("  {:<12} {}", field(&w, "name"), field(&w, "why"));
    }
    for key in ["end_to_end", "per_layer"] {
        println!("{key}:");
        println!("  {:<32} {:<6} {:<7} bound", "name", "unit", "better");
        for m in rows(key) {
            println!(
                "  {:<32} {:<6} {:<7} {}",
                field(&m, "name"),
                field(&m, "unit"),
                field(&m, "better"),
                field(&m, "bound")
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_flags_parse_in_both_trace_spellings() {
        let a = parse_run(&args("--workload bughunt --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        let a = parse_run(&args("--workload served-warm --trace 1")).unwrap();
        assert!(a.trace);
        let a = parse_run(&args("--workload ci-reverify --trace --smoke")).unwrap();
        assert!(a.trace && a.smoke);
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--workload bughunt --seed x")).is_err());
        assert!(parse_run(&args("--workload bughunt --seconds 0")).is_err());
    }
}

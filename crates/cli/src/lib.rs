//! Implementation of the `aqed` command-line tool.
//!
//! The CLI exposes the catalogued case studies to the shell:
//!
//! ```text
//! aqed list                       # enumerate the bug cases
//! aqed verify <case> [--bound N] [--healthy] [--vcd FILE] [--witness]
//! aqed conventional <case>        # run the simulation baseline
//! aqed hybrid <case>              # hybrid QED (monitor in simulation)
//! aqed export-btor2 <case> [--monitor]
//! ```
//!
//! Argument parsing is by hand (no external dependencies); the library
//! portion is testable without spawning a process.

use aqed_bmc::to_btor2_witness;
use aqed_core::{
    run_hybrid, AqedHarness, CheckOutcome, HybridConfig, ParallelVerifyReport, StopHandle,
};
use aqed_designs::{all_cases, BugCase};
use aqed_engine::{BackendKind, Engine, VerifyRequest};
use aqed_expr::ExprPool;
use aqed_sim::Testbench;
use aqed_tsys::{to_btor2, to_vcd};
use std::fmt;

/// A parsed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `aqed list`
    List,
    /// `aqed verify <case> [--bound N] [--healthy] [--vcd FILE]
    /// [--witness] [--jobs N] [--backend NAME] [--timeout SECS]
    /// [--conflict-budget N] [--fail-fast] [--no-preprocess] [--no-coi]`
    Verify {
        /// Case id.
        case: String,
        /// Override the catalogue's BMC bound.
        bound: Option<usize>,
        /// Verify the healthy variant instead of the buggy one.
        healthy: bool,
        /// Write the counterexample as VCD to this path.
        vcd: Option<String>,
        /// Print the BTOR2 witness.
        witness: bool,
        /// Worker threads for the obligation scheduler.
        jobs: usize,
        /// SAT backend to drive.
        backend: BackendKind,
        /// Race width for `--backend portfolio` (ignored otherwise).
        portfolio_workers: usize,
        /// Wall-clock deadline in seconds for the whole run.
        timeout: Option<u64>,
        /// Conflict budget per solver call (retried with doubled budget
        /// up to the scheduler's attempt cap).
        conflict_budget: Option<u64>,
        /// Cancel remaining obligations once one finds a bug.
        fail_fast: bool,
        /// Let the solver run SatELite-style CNF preprocessing passes,
        /// each once search has spent more than the pass costs.
        preprocess: bool,
        /// Slice each obligation to the cone of influence of its bad.
        coi: bool,
        /// Write a structured JSONL trace of the run to this path.
        trace_out: Option<String>,
        /// Write the full per-obligation report (plus the metrics
        /// snapshot) as JSON to this path.
        report_json: Option<String>,
        /// Root a durable artifact store here: verdicts from earlier runs
        /// warm this one, and this run's are flushed back.
        store_dir: Option<String>,
    },
    /// `aqed conventional <case>`
    Conventional {
        /// Case id.
        case: String,
    },
    /// `aqed hybrid <case>`
    Hybrid {
        /// Case id.
        case: String,
    },
    /// `aqed export-btor2 <case> [--monitor]`
    ExportBtor2 {
        /// Case id.
        case: String,
        /// Export the composed design+monitor system instead of the bare
        /// design.
        monitor: bool,
    },
    /// `aqed help`
    Help,
}

/// Error produced when the command line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCommandError(pub String);

impl fmt::Display for ParseCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseCommandError {}

/// Parses the argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseCommandError`] on unknown subcommands, missing
/// operands or malformed flags.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseCommandError> {
    let args: Vec<String> = args.into_iter().collect();
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "verify" => {
            let case = operand(&args, 1, "verify")?;
            let mut bound = None;
            let mut healthy = false;
            let mut vcd = None;
            let mut witness = false;
            let mut jobs = 1;
            let mut backend = BackendKind::default();
            let mut portfolio_workers = 4;
            let mut timeout = None;
            let mut conflict_budget = None;
            let mut fail_fast = false;
            let mut preprocess = true;
            let mut coi = true;
            let mut trace_out = None;
            let mut report_json = None;
            let mut store_dir = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--bound" => {
                        i += 1;
                        let v = args
                            .get(i)
                            .ok_or_else(|| ParseCommandError("--bound needs a value".into()))?;
                        bound = Some(
                            v.parse()
                                .map_err(|_| ParseCommandError(format!("invalid bound '{v}'")))?,
                        );
                    }
                    "--healthy" => healthy = true,
                    "--witness" => witness = true,
                    "--vcd" => {
                        i += 1;
                        vcd = Some(
                            args.get(i)
                                .ok_or_else(|| ParseCommandError("--vcd needs a path".into()))?
                                .clone(),
                        );
                    }
                    "--jobs" => {
                        i += 1;
                        let v = args
                            .get(i)
                            .ok_or_else(|| ParseCommandError("--jobs needs a value".into()))?;
                        jobs =
                            v.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(|| {
                                ParseCommandError(format!("invalid job count '{v}'"))
                            })?;
                    }
                    "--backend" => {
                        i += 1;
                        backend = args
                            .get(i)
                            .ok_or_else(|| ParseCommandError("--backend needs a name".into()))?
                            .parse()
                            .map_err(ParseCommandError)?;
                    }
                    "--portfolio-workers" => {
                        i += 1;
                        let v = args.get(i).ok_or_else(|| {
                            ParseCommandError("--portfolio-workers needs a value".into())
                        })?;
                        portfolio_workers =
                            v.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(|| {
                                ParseCommandError(format!("invalid worker count '{v}'"))
                            })?;
                    }
                    "--timeout" => {
                        i += 1;
                        let v = args.get(i).ok_or_else(|| {
                            ParseCommandError("--timeout needs a value in seconds".into())
                        })?;
                        timeout =
                            Some(v.parse().ok().filter(|&n: &u64| n >= 1).ok_or_else(|| {
                                ParseCommandError(format!("invalid timeout '{v}'"))
                            })?);
                    }
                    "--conflict-budget" => {
                        i += 1;
                        let v = args.get(i).ok_or_else(|| {
                            ParseCommandError("--conflict-budget needs a value".into())
                        })?;
                        conflict_budget =
                            Some(v.parse().ok().filter(|&n: &u64| n >= 1).ok_or_else(|| {
                                ParseCommandError(format!("invalid conflict budget '{v}'"))
                            })?);
                    }
                    "--fail-fast" => fail_fast = true,
                    "--trace-out" => {
                        i += 1;
                        trace_out = Some(
                            args.get(i)
                                .ok_or_else(|| {
                                    ParseCommandError("--trace-out needs a path".into())
                                })?
                                .clone(),
                        );
                    }
                    "--report-json" => {
                        i += 1;
                        report_json = Some(
                            args.get(i)
                                .ok_or_else(|| {
                                    ParseCommandError("--report-json needs a path".into())
                                })?
                                .clone(),
                        );
                    }
                    "--store-dir" => {
                        i += 1;
                        store_dir = Some(
                            args.get(i)
                                .ok_or_else(|| {
                                    ParseCommandError("--store-dir needs a path".into())
                                })?
                                .clone(),
                        );
                    }
                    "--preprocess" => preprocess = true,
                    "--no-preprocess" => preprocess = false,
                    "--coi" => coi = true,
                    "--no-coi" => coi = false,
                    other => {
                        return Err(ParseCommandError(format!("unknown flag '{other}'")));
                    }
                }
                i += 1;
            }
            Ok(Command::Verify {
                case,
                bound,
                healthy,
                vcd,
                witness,
                jobs,
                backend,
                portfolio_workers,
                timeout,
                conflict_budget,
                fail_fast,
                preprocess,
                coi,
                trace_out,
                report_json,
                store_dir,
            })
        }
        "conventional" => Ok(Command::Conventional {
            case: operand(&args, 1, "conventional")?,
        }),
        "hybrid" => Ok(Command::Hybrid {
            case: operand(&args, 1, "hybrid")?,
        }),
        "export-btor2" => {
            let case = operand(&args, 1, "export-btor2")?;
            let monitor = args.iter().any(|a| a == "--monitor");
            Ok(Command::ExportBtor2 { case, monitor })
        }
        other => Err(ParseCommandError(format!("unknown command '{other}'"))),
    }
}

fn operand(args: &[String], idx: usize, cmd: &str) -> Result<String, ParseCommandError> {
    args.get(idx)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .ok_or_else(|| ParseCommandError(format!("'{cmd}' needs a case id (try `aqed list`)")))
}

/// The usage text printed by `aqed help`.
#[must_use]
pub fn usage() -> &'static str {
    "aqed — A-QED verification of hardware accelerators (DAC 2020 reproduction)

USAGE:
  aqed list                            enumerate the catalogued bug cases
  aqed verify <case> [--bound N] [--healthy] [--vcd FILE] [--witness]
                     [--jobs N] [--backend cdcl|portfolio]
                     [--portfolio-workers N]
                     [--timeout SECS] [--conflict-budget N] [--fail-fast]
                     [--no-preprocess] [--no-coi] [--store-dir DIR]
                     [--trace-out FILE] [--report-json FILE]
                                       run A-QED (BMC) on a case; each FC/RB/SAC
                                       property is an independent obligation,
                                       checked on N worker threads (default 1).
                                       --backend portfolio races
                                       --portfolio-workers (default 4)
                                       diversified CDCL solvers per obligation,
                                       first verdict wins.
                                       --timeout bounds the whole run's wall
                                       clock; --conflict-budget caps solver
                                       effort per call (doubled on retry, and
                                       hard obligations escalate from one
                                       solver to the full portfolio);
                                       --fail-fast cancels siblings after the
                                       first bug. The simplification pipeline
                                       (cone-of-influence slicing + SatELite-
                                       style CNF preprocessing) is on by
                                       default; --no-coi / --no-preprocess
                                       disable its two stages.
                                       --trace-out streams span/event records
                                       as JSONL (inspect with trace_report);
                                       --report-json writes the full
                                       per-obligation report plus the metrics
                                       snapshot as JSON. Neither changes the
                                       verdict or the exit code.
                                       --store-dir roots a durable artifact
                                       store keyed by each obligation's COI
                                       cone: verdicts persist across runs
                                       (and survive crashes), so a repeat
                                       run, or a run after an edit that
                                       missed a cone, answers those
                                       obligations from disk (bugs replay-
                                       validated against the new design),
                                       and a deeper re-run skips the depths
                                       a stored clean verdict covers.
                                       exit codes: 0 clean, 1 bug found,
                                       2 inconclusive, degraded, or usage error
  aqed conventional <case>             run the conventional simulation flow
  aqed hybrid <case>                   run hybrid QED (monitor in simulation)
  aqed export-btor2 <case> [--monitor] print the design (or design+monitor) as BTOR2
  aqed help                            this text
"
}

/// Writes the per-obligation breakdown that precedes the final verdict.
fn print_obligation_stats(
    out: &mut dyn std::io::Write,
    report: &ParallelVerifyReport,
    backend: BackendKind,
) -> std::io::Result<()> {
    writeln!(
        out,
        "{} obligation(s) on {} job(s), backend {}:",
        report.obligations.len(),
        report.jobs,
        backend
    )?;
    for r in &report.obligations {
        let verdict = match &r.outcome {
            CheckOutcome::Clean { bound } => format!("clean to {bound}"),
            CheckOutcome::Bug { counterexample, .. } => {
                format!("bug at depth {}", counterexample.depth)
            }
            CheckOutcome::Inconclusive { bound, reason } => {
                format!("inconclusive at {bound} ({reason})")
            }
            CheckOutcome::Errored { message } => format!("errored: {message}"),
        };
        writeln!(
            out,
            "  {:<30} {:<28} {:>4} calls {:>9} conflicts  {:?}",
            r.obligation.bad_name,
            verdict,
            r.stats.solver_calls,
            r.stats.solver.conflicts,
            r.stats.elapsed
        )?;
    }
    if report.degraded {
        writeln!(
            out,
            "warning: run degraded — at least one obligation errored; \
             clean verdicts above still hold but coverage is incomplete"
        )?;
    }
    if report.watchdog_trips > 0 {
        writeln!(
            out,
            "warning: watchdog cancelled {} stuck job(s)",
            report.watchdog_trips
        )?;
    }
    Ok(())
}

fn find_case(id: &str) -> Result<BugCase, String> {
    all_cases()
        .into_iter()
        .find(|c| c.id == id)
        .ok_or_else(|| format!("unknown case '{id}'; try `aqed list`"))
}

/// Executes a parsed command, writing human-readable output through
/// `out`. Returns the process exit code.
///
/// # Errors
///
/// I/O errors from the output sink are returned verbatim.
pub fn run(cmd: &Command, out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    run_with_stop(cmd, out, None)
}

/// [`run`] under an external cancellation handle: tripping `stop`
/// (the Ctrl-C handler) drains a `verify` run through the ordinary
/// `Inconclusive (cancelled)` taxonomy, so the process exits 2 with a
/// truthful verdict instead of dying mid-solve.
///
/// # Errors
///
/// I/O errors from the output sink are returned verbatim.
pub fn run_with_stop(
    cmd: &Command,
    out: &mut dyn std::io::Write,
    stop: Option<&StopHandle>,
) -> std::io::Result<i32> {
    match cmd {
        Command::Help => {
            write!(out, "{}", usage())?;
            Ok(0)
        }
        Command::List => {
            writeln!(
                out,
                "{:<32} {:<12} {:<14} {:>5} {:>6} {:>13}",
                "case", "design", "config", "prop", "bound", "conventional"
            )?;
            for case in all_cases() {
                writeln!(
                    out,
                    "{:<32} {:<12} {:<14} {:>5} {:>6} {:>13}",
                    case.id,
                    case.design.to_string(),
                    case.config,
                    case.expected.to_string(),
                    case.bmc_bound,
                    if case.conventional_detectable {
                        "detects"
                    } else {
                        "misses"
                    }
                )?;
            }
            Ok(0)
        }
        Command::Verify {
            case,
            bound,
            healthy,
            vcd,
            witness,
            jobs,
            backend,
            portfolio_workers,
            timeout,
            conflict_budget,
            fail_fast,
            preprocess,
            coi,
            trace_out,
            report_json,
            store_dir,
        } => {
            // The engine owns the whole run — catalog lookup, monitor
            // composition, budgets, backend dispatch, the governed
            // scheduler. The CLI's job is flags in, text out.
            let request = VerifyRequest {
                case: case.clone(),
                healthy: *healthy,
                bound: *bound,
                jobs: *jobs,
                backend: *backend,
                portfolio_workers: *portfolio_workers,
                timeout: timeout.map(std::time::Duration::from_secs),
                conflict_budget: *conflict_budget,
                fail_fast: *fail_fast,
                preprocess: *preprocess,
                coi: *coi,
            };
            // Arm observability before the run so metrics and spans
            // cover it end to end; torn down again below so one
            // invocation never leaks state into the next (the gates are
            // process-global).
            let obs_on = trace_out.is_some() || report_json.is_some();
            if obs_on {
                aqed_obs::metrics::global().reset();
                aqed_obs::set_enabled(true);
            }
            let trace_installed = if let Some(path) = trace_out {
                match aqed_obs::sink::JsonlSink::create(path) {
                    Ok(sink) => {
                        aqed_obs::install_sink(std::sync::Arc::new(sink));
                        true
                    }
                    Err(e) => {
                        aqed_obs::set_enabled(false);
                        writeln!(out, "error: cannot create trace file '{path}': {e}")?;
                        return Ok(2);
                    }
                }
            } else {
                false
            };
            // A store directory turns the one-shot run into a warm CI
            // step: recovered verdicts answer repeat obligations, and
            // the store's Drop flushes this run's facts back to disk.
            let engine = match store_dir {
                Some(dir) => match Engine::with_persistent_store(dir) {
                    Ok(engine) => engine,
                    Err(e) => {
                        if trace_installed {
                            aqed_obs::uninstall_sink();
                        }
                        if obs_on {
                            aqed_obs::set_enabled(false);
                        }
                        writeln!(out, "error: cannot open store '{dir}': {e}")?;
                        return Ok(2);
                    }
                },
                None => Engine::new(),
            };
            // No heartbeats on the one-shot path, so no live meter.
            let result = engine.verify_metered(&request, stop, None);
            if trace_installed {
                aqed_obs::uninstall_sink();
            }
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    if obs_on {
                        aqed_obs::set_enabled(false);
                    }
                    writeln!(out, "error: {e}")?;
                    return Ok(2);
                }
            };
            let (report, composed, pool) = (&outcome.report, &outcome.composed, &outcome.pool);
            print_obligation_stats(out, report, *backend)?;
            let code = outcome.exit_code();
            match &report.outcome {
                CheckOutcome::Bug {
                    counterexample: cex,
                    ..
                } => {
                    writeln!(
                        out,
                        "bug: {cex} ({:?}, {} clauses)",
                        report.runtime, report.aggregate.clauses
                    )?;
                    writeln!(out, "\ninput trace:")?;
                    writeln!(out, "{}", cex.trace.to_table(pool))?;
                    if *witness {
                        writeln!(out, "BTOR2 witness:")?;
                        write!(out, "{}", to_btor2_witness(cex, composed, pool))?;
                    }
                    if let Some(path) = vcd {
                        let dump = to_vcd(composed, pool, &cex.trace, &cex.initial_state);
                        std::fs::write(path, dump)?;
                        writeln!(out, "wrote VCD to {path}")?;
                    }
                }
                CheckOutcome::Clean { bound } => {
                    writeln!(
                        out,
                        "clean up to bound {bound} ({:?}, {} clauses)",
                        report.runtime, report.aggregate.clauses
                    )?;
                }
                CheckOutcome::Inconclusive { bound, reason } => {
                    writeln!(out, "inconclusive at bound {bound} ({reason})")?;
                }
                CheckOutcome::Errored { message } => {
                    writeln!(out, "error: {message}")?;
                }
            }
            if let Some(path) = report_json {
                let mut json = report.to_json();
                let metrics = aqed_obs::metrics::global().snapshot();
                if let aqed_obs::json::Json::Obj(fields) = &mut json {
                    fields.push(("metrics".to_string(), metrics.to_json()));
                }
                std::fs::write(path, format!("{json}\n"))?;
                writeln!(out, "wrote report JSON to {path}")?;
            }
            if obs_on {
                aqed_obs::set_enabled(false);
            }
            Ok(code)
        }
        Command::Conventional { case } => {
            let case = match find_case(case) {
                Ok(c) => c,
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(2);
                }
            };
            let Some(golden) = case.golden else {
                writeln!(
                    out,
                    "case '{}' has an interfering operation: no per-op golden model; \
                     the conventional flow does not apply",
                    case.id
                )?;
                return Ok(2);
            };
            let mut pool = ExprPool::new();
            let lca = (case.build_buggy)(&mut pool);
            let outcome = Testbench::default().run(&lca, &pool, golden);
            writeln!(out, "{outcome}")?;
            Ok(i32::from(outcome.detected()))
        }
        Command::Hybrid { case } => {
            let case = match find_case(case) {
                Ok(c) => c,
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(2);
                }
            };
            let mut pool = ExprPool::new();
            let lca = (case.build_buggy)(&mut pool);
            let fc = case.fc.clone().unwrap_or_default();
            let outcome = run_hybrid(
                &lca,
                &mut pool,
                &fc,
                case.rb.as_ref(),
                &HybridConfig::default(),
            );
            match &outcome.violated {
                Some(name) => writeln!(
                    out,
                    "hybrid QED detected '{name}' after {} cycles ({:?})",
                    outcome.trace_cycles.unwrap_or(0),
                    outcome.runtime
                )?,
                None => writeln!(
                    out,
                    "hybrid QED found nothing in {} cycles ({:?})",
                    outcome.total_cycles, outcome.runtime
                )?,
            }
            Ok(i32::from(outcome.detected()))
        }
        Command::ExportBtor2 { case, monitor } => {
            let case = match find_case(case) {
                Ok(c) => c,
                Err(e) => {
                    writeln!(out, "error: {e}")?;
                    return Ok(2);
                }
            };
            let mut pool = ExprPool::new();
            let lca = (case.build_buggy)(&mut pool);
            if *monitor {
                let mut harness = AqedHarness::new(&lca);
                if let Some(fc) = &case.fc {
                    harness = harness.with_fc(fc.clone());
                }
                if let Some(rb) = &case.rb {
                    harness = harness.with_rb(*rb);
                }
                let (composed, _) = harness.build(&mut pool);
                write!(out, "{}", to_btor2(&composed, &pool))?;
            } else {
                write!(out, "{}", to_btor2(&lca.ts, &pool))?;
            }
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ParseCommandError> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_basic_commands() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&["help"]), Ok(Command::Help));
        assert_eq!(parse(&["list"]), Ok(Command::List));
        assert_eq!(
            parse(&["conventional", "aes_v1"]),
            Ok(Command::Conventional {
                case: "aes_v1".into()
            })
        );
        assert_eq!(
            parse(&["export-btor2", "aes_v1", "--monitor"]),
            Ok(Command::ExportBtor2 {
                case: "aes_v1".into(),
                monitor: true
            })
        );
    }

    #[test]
    fn parses_verify_flags() {
        assert_eq!(
            parse(&[
                "verify",
                "aes_v1",
                "--bound",
                "12",
                "--healthy",
                "--witness"
            ]),
            Ok(Command::Verify {
                case: "aes_v1".into(),
                bound: Some(12),
                healthy: true,
                vcd: None,
                witness: true,
                jobs: 1,
                backend: BackendKind::Cdcl,
                portfolio_workers: 4,
                timeout: None,
                conflict_budget: None,
                fail_fast: false,
                preprocess: true,
                coi: true,
                trace_out: None,
                report_json: None,
                store_dir: None
            })
        );
        assert_eq!(
            parse(&["verify", "x", "--vcd", "/tmp/x.vcd"]),
            Ok(Command::Verify {
                case: "x".into(),
                bound: None,
                healthy: false,
                vcd: Some("/tmp/x.vcd".into()),
                witness: false,
                jobs: 1,
                backend: BackendKind::Cdcl,
                portfolio_workers: 4,
                timeout: None,
                conflict_budget: None,
                fail_fast: false,
                preprocess: true,
                coi: true,
                trace_out: None,
                report_json: None,
                store_dir: None
            })
        );
    }

    #[test]
    fn refuses_the_dimacs_backend() {
        let err = parse(&["verify", "x", "--backend", "dimacs"]).unwrap_err();
        assert!(
            err.0.contains("dimacs") && err.0.contains("cdcl") && err.0.contains("portfolio"),
            "{err}"
        );
    }

    #[test]
    fn parses_portfolio_flags() {
        match parse(&[
            "verify",
            "x",
            "--backend",
            "portfolio",
            "--portfolio-workers",
            "8",
        ])
        .expect("parse")
        {
            Command::Verify {
                backend,
                portfolio_workers,
                ..
            } => {
                assert_eq!(backend, BackendKind::Portfolio);
                assert_eq!(portfolio_workers, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&["verify", "x", "--no-clause-sharing"]).is_err());
        assert!(parse(&["verify", "x", "--portfolio-workers"]).is_err());
        assert!(parse(&["verify", "x", "--portfolio-workers", "0"]).is_err());
        assert!(parse(&["verify", "x", "--portfolio-workers", "lots"]).is_err());
    }

    #[test]
    fn parses_governance_flags() {
        assert_eq!(
            parse(&[
                "verify",
                "x",
                "--timeout",
                "30",
                "--conflict-budget",
                "5000",
                "--fail-fast"
            ]),
            Ok(Command::Verify {
                case: "x".into(),
                bound: None,
                healthy: false,
                vcd: None,
                witness: false,
                jobs: 1,
                backend: BackendKind::Cdcl,
                portfolio_workers: 4,
                timeout: Some(30),
                conflict_budget: Some(5000),
                fail_fast: true,
                preprocess: true,
                coi: true,
                trace_out: None,
                report_json: None,
                store_dir: None
            })
        );
        assert!(parse(&["verify", "x", "--timeout"]).is_err());
        assert!(parse(&["verify", "x", "--timeout", "0"]).is_err());
        assert!(parse(&["verify", "x", "--timeout", "soon"]).is_err());
        assert!(parse(&["verify", "x", "--conflict-budget"]).is_err());
        assert!(parse(&["verify", "x", "--conflict-budget", "0"]).is_err());
        assert!(parse(&["verify", "x", "--conflict-budget", "lots"]).is_err());
    }

    #[test]
    fn parses_pipeline_flags() {
        let both_off = parse(&["verify", "x", "--no-preprocess", "--no-coi"]).expect("parse");
        match both_off {
            Command::Verify {
                preprocess, coi, ..
            } => {
                assert!(!preprocess);
                assert!(!coi);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The positive spellings are accepted and can re-enable a stage.
        let re_enabled = parse(&["verify", "x", "--no-preprocess", "--preprocess", "--coi"]);
        match re_enabled.expect("parse") {
            Command::Verify {
                preprocess, coi, ..
            } => {
                assert!(preprocess);
                assert!(coi);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["verify"]).is_err());
        assert!(parse(&["verify", "x", "--bound"]).is_err());
        assert!(parse(&["verify", "x", "--bound", "abc"]).is_err());
        assert!(parse(&["verify", "x", "--frob"]).is_err());
        assert!(parse(&["verify", "x", "--jobs"]).is_err());
        assert!(parse(&["verify", "x", "--jobs", "0"]).is_err());
        assert!(parse(&["verify", "x", "--jobs", "many"]).is_err());
        assert!(parse(&["verify", "x", "--backend", "z4"]).is_err());
        assert!(parse(&["conventional", "--healthy"]).is_err());
    }

    #[test]
    fn list_prints_all_cases() {
        let mut buf = Vec::new();
        let code = run(&Command::List, &mut buf).expect("io");
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.contains("aes_v1"));
        assert!(text.contains("fifo_ptr_wrap_off_by_one"));
        assert!(text.contains("misses"));
        assert_eq!(text.lines().count(), 1 + 23);
    }

    #[test]
    fn unknown_case_reports_cleanly() {
        let mut buf = Vec::new();
        let code = run(
            &Command::Verify {
                case: "nope".into(),
                bound: None,
                healthy: false,
                vcd: None,
                witness: false,
                jobs: 1,
                backend: BackendKind::Cdcl,
                portfolio_workers: 4,
                timeout: None,
                conflict_budget: None,
                fail_fast: false,
                preprocess: true,
                coi: true,
                trace_out: None,
                report_json: None,
                store_dir: None,
            },
            &mut buf,
        )
        .expect("io");
        assert_eq!(code, 2);
        assert!(String::from_utf8(buf).unwrap().contains("unknown case"));
    }

    #[test]
    fn verify_healthy_small_case_passes() {
        let mut buf = Vec::new();
        let code = run(
            &Command::Verify {
                case: "dataflow_fifo_sizing".into(),
                bound: Some(6),
                healthy: true,
                vcd: None,
                witness: false,
                jobs: 1,
                backend: BackendKind::Cdcl,
                portfolio_workers: 4,
                timeout: None,
                conflict_budget: None,
                fail_fast: false,
                preprocess: true,
                coi: true,
                trace_out: None,
                report_json: None,
                store_dir: None,
            },
            &mut buf,
        )
        .expect("io");
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&buf));
        let text = String::from_utf8_lossy(&buf);
        assert!(text.contains("obligation(s)"), "{text}");
        assert!(text.contains("clean up to bound 6"), "{text}");
    }

    #[test]
    fn verify_portfolio_matches_cdcl_verdict() {
        let run_with = |backend: BackendKind| {
            let mut buf = Vec::new();
            let code = run(
                &Command::Verify {
                    case: "dataflow_fifo_sizing".into(),
                    bound: Some(6),
                    healthy: false,
                    vcd: None,
                    witness: false,
                    jobs: 1,
                    backend,
                    portfolio_workers: 2,
                    timeout: None,
                    conflict_budget: None,
                    fail_fast: false,
                    preprocess: true,
                    coi: true,
                    trace_out: None,
                    report_json: None,
                    store_dir: None,
                },
                &mut buf,
            )
            .expect("io");
            (code, String::from_utf8_lossy(&buf).to_string())
        };
        let (cdcl_code, cdcl_text) = run_with(BackendKind::Cdcl);
        let (port_code, port_text) = run_with(BackendKind::Portfolio);
        assert_eq!(
            cdcl_code, port_code,
            "cdcl:\n{cdcl_text}\nportfolio:\n{port_text}"
        );
        // Compare the verdict line up to the timing parenthetical.
        let verdict = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("bug:") || l.starts_with("clean"))
                .and_then(|l| l.split(" (").next())
                .map(str::to_owned)
        };
        assert_eq!(verdict(&cdcl_text), verdict(&port_text));
        assert!(port_text.contains("backend portfolio"), "{port_text}");
    }

    #[test]
    fn starved_conflict_budget_exits_inconclusive() {
        // Healthy AES at bound 8 needs >100k conflicts to close; a
        // budget of 1 (doubled to 4 by the scheduler's retries) cannot
        // decide it, so the run must end inconclusive with exit code 2 —
        // never a false "clean".
        let mut buf = Vec::new();
        let code = run(
            &Command::Verify {
                case: "aes_v1".into(),
                bound: Some(8),
                healthy: true,
                vcd: None,
                witness: false,
                jobs: 2,
                backend: BackendKind::Cdcl,
                portfolio_workers: 4,
                timeout: None,
                conflict_budget: Some(1),
                fail_fast: false,
                preprocess: true,
                coi: true,
                trace_out: None,
                report_json: None,
                store_dir: None,
            },
            &mut buf,
        )
        .expect("io");
        let text = String::from_utf8_lossy(&buf);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("inconclusive"), "{text}");
        assert!(text.contains("conflict budget"), "{text}");
    }

    #[test]
    fn generous_timeout_still_finds_bug_with_exit_one() {
        let mut buf = Vec::new();
        let code = run(
            &Command::Verify {
                case: "dataflow_fifo_sizing".into(),
                bound: None,
                healthy: false,
                vcd: None,
                witness: false,
                jobs: 2,
                backend: BackendKind::Cdcl,
                portfolio_workers: 4,
                timeout: Some(600),
                conflict_budget: None,
                fail_fast: true,
                preprocess: true,
                coi: true,
                trace_out: None,
                report_json: None,
                store_dir: None,
            },
            &mut buf,
        )
        .expect("io");
        let text = String::from_utf8_lossy(&buf);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("bug:"), "{text}");
    }

    #[test]
    fn export_btor2_produces_model() {
        let mut buf = Vec::new();
        let code = run(
            &Command::ExportBtor2 {
                case: "dataflow_fifo_sizing".into(),
                monitor: false,
            },
            &mut buf,
        )
        .expect("io");
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("sort bitvec"));
        assert!(text.contains("next"));
    }

    #[test]
    fn usage_mentions_every_command() {
        let u = usage();
        for cmd in ["list", "verify", "conventional", "hybrid", "export-btor2"] {
            assert!(u.contains(cmd), "{cmd}");
        }
    }
}

//! Regenerates **Table 1** of the A-QED paper: the memory-controller unit
//! comparison of A-QED vs the conventional verification flow — setup
//! effort, runtime [min, avg, max] and trace length [min, avg, max] —
//! plus Observation 3's trace-length ratio.
//!
//! Run with `cargo run --release -p aqed-bench --bin table1`. Honours
//! `AQED_NO_COI=1` / `AQED_NO_PREPROCESS=1` to ablate the simplification
//! pipeline stages.

use aqed_bench::{fmt_secs, host_line, rule, Summary};
use aqed_bmc::BmcOptions;
use aqed_core::AqedHarness;
use aqed_designs::memctrl_cases;
use aqed_expr::ExprPool;
use aqed_sim::Testbench;
use std::fmt::Write as _;

fn env_disabled(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

fn main() {
    let cases = memctrl_cases();
    let coi = !env_disabled("AQED_NO_COI");
    let preprocess = !env_disabled("AQED_NO_PREPROCESS");
    println!("Table 1: A-QED results for the memory-controller unit");
    println!(
        "({} tracked bug variants across FIFO / double-buffer / line-buffer configurations)",
        cases.len()
    );
    println!("simplification pipeline: coi={coi} preprocess={preprocess}");
    println!("{}\n", host_line());

    let mut aqed_runtimes = Vec::new();
    let mut aqed_traces = Vec::new();
    let mut conv_runtimes = Vec::new();
    let mut conv_traces = Vec::new();
    let mut conv_missed = 0usize;
    // Per-bug detection record shared with the fig5 generator.
    let mut detection_tsv = String::from("id\tconfig\tproperty\taqed\tconventional\n");

    println!(
        "{:<32} {:>6} | {:>12} {:>10} | {:>12} {:>10}",
        "bug", "prop", "A-QED time", "A-QED cex", "conv time", "conv trace"
    );
    rule(96);
    for case in &cases {
        // --- A-QED -----------------------------------------------------
        let mut pool = ExprPool::new();
        let lca = (case.build_buggy)(&mut pool);
        let mut harness = AqedHarness::new(&lca);
        if let Some(fc) = &case.fc {
            harness = harness.with_fc(fc.clone());
        }
        if let Some(rb) = &case.rb {
            harness = harness.with_rb(*rb);
        }
        harness = harness.with_bmc_options(
            BmcOptions::default()
                .with_coi(coi)
                .with_preprocess(preprocess),
        );
        let report = harness.verify(&mut pool, case.bmc_bound);
        let (prop, cex_cycles) = match &report.outcome {
            aqed_core::CheckOutcome::Bug {
                property,
                counterexample,
            } => (property.to_string(), counterexample.cycles()),
            other => panic!("{}: A-QED must find this bug, got {other:?}", case.id),
        };
        aqed_runtimes.push(report.runtime.as_secs_f64());
        aqed_traces.push(cex_cycles as f64);

        // --- Conventional flow -------------------------------------------
        let golden = case.golden.expect("memctrl cases have a golden model");
        let outcome = Testbench::default().run(&lca, &pool, golden);
        let (conv_time, conv_trace) = match outcome.trace_cycles() {
            Some(cycles) => {
                conv_runtimes.push(outcome.runtime.as_secs_f64());
                conv_traces.push(cycles as f64);
                (fmt_secs(outcome.runtime), cycles.to_string())
            }
            None => {
                conv_missed += 1;
                (fmt_secs(outcome.runtime), "MISSED".to_string())
            }
        };
        println!(
            "{:<32} {:>6} | {:>12} {:>10} | {:>12} {:>10}",
            case.id,
            prop,
            fmt_secs(report.runtime),
            cex_cycles,
            conv_time,
            conv_trace
        );
        let _ = writeln!(
            detection_tsv,
            "{}\t{}\t{}\ttrue\t{}",
            case.id,
            case.config,
            prop,
            outcome.detected()
        );
    }
    rule(96);
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write("results/detection.tsv", &detection_tsv);
        println!("\n(per-bug detection written to results/detection.tsv; fig5 reuses it)");
    }

    let aqed_rt = Summary::of(&aqed_runtimes);
    let aqed_tr = Summary::of(&aqed_traces);
    let conv_rt = Summary::of(&conv_runtimes);
    let conv_tr = Summary::of(&conv_traces);

    println!("\n                       Setup effort*      Runtime (s) [min, avg, max]   Trace (cycles) [min, avg, max]");
    println!(
        "A-QED                  {:>12}      {:>28}   {:>30}",
        "~30 LoC", aqed_rt, aqed_tr
    );
    println!(
        "Conventional           {:>12}      {:>28}   {:>30}",
        "~500 LoC", conv_rt, conv_tr
    );
    println!("\n* Setup-effort proxy: lines of code a user writes. A-QED setup is the");
    println!("  harness call (FC/RB configs); the conventional flow needs the golden");
    println!("  model, five stimulus profiles, scoreboard and watchdog (see aqed-sim).");
    println!("  The paper reports 1 person-day vs 30 person-days (30x).");

    println!(
        "\nObservation 3: counterexamples are {:.1}x shorter on average than",
        conv_tr.avg / aqed_tr.avg
    );
    println!(
        "conventional failure traces ({:.1} vs {:.1} cycles; paper: 37x, 6 vs 224).",
        aqed_tr.avg, conv_tr.avg
    );
    println!(
        "\nBug coverage: A-QED {}/{}; conventional {}/{} (missed {}).",
        cases.len(),
        cases.len(),
        cases.len() - conv_missed,
        cases.len(),
        conv_missed
    );
}

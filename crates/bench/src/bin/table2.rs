//! Regenerates **Table 2** of the A-QED paper: A-QED results on the HLS
//! designs — AES v1–v4 (FC), the custom dataflow design (RB), optical
//! flow (RB) and GSM (FC) — reporting the violated property, BMC runtime
//! and counterexample length.
//!
//! Run with `cargo run --release -p aqed-bench --bin table2`.

use aqed_bench::{fmt_mmss, host_line, rule};
use aqed_core::AqedHarness;
use aqed_designs::{hls_cases, ExpectedProperty};
use aqed_expr::ExprPool;

fn main() {
    println!("Table 2: A-QED results for HLS designs (CEX = counterexample)");
    println!("{}\n", host_line());
    println!(
        "{:<12} {:<14} {:>5} {:>12} {:>14}",
        "source", "design", "bug", "runtime", "CEX (cycles)"
    );
    rule(62);
    for case in hls_cases() {
        let mut pool = ExprPool::new();
        let lca = (case.build_buggy)(&mut pool);
        let mut harness = AqedHarness::new(&lca);
        if let Some(fc) = &case.fc {
            harness = harness.with_fc(fc.clone());
        }
        if let Some(rb) = &case.rb {
            harness = harness.with_rb(*rb);
        }
        let report = harness.verify(&mut pool, case.bmc_bound);
        let (prop, cycles) = match &report.outcome {
            aqed_core::CheckOutcome::Bug {
                property,
                counterexample,
            } => (property.to_string(), counterexample.cycles()),
            other => panic!("{}: expected a bug, got {other:?}", case.id),
        };
        let source = match case.design {
            aqed_designs::DesignId::Aes => "AES enc.",
            aqed_designs::DesignId::Dataflow => "custom",
            aqed_designs::DesignId::Optflow => "Rosetta",
            aqed_designs::DesignId::Gsm => "CHStone",
            _ => "-",
        };
        let expected = match case.expected {
            ExpectedProperty::Fc => "FC",
            ExpectedProperty::Rb => "RB",
        };
        assert_eq!(
            prop, expected,
            "{}: property class must match the paper",
            case.id
        );
        println!(
            "{:<12} {:<14} {:>5} {:>12} {:>14}",
            source,
            case.id,
            prop,
            fmt_mmss(report.runtime),
            cycles
        );
    }
    rule(62);
    println!("\nObservation 4: all HLS bugs are caught by the *same universal*");
    println!("FC/RB properties — no design-specific assertions were written.");
    println!("(Paper runtimes 0:06-4:11 on JasperGold; absolute numbers differ,");
    println!("the property classes and the shape — AES needing the longest");
    println!("counterexamples — should match.)");
}

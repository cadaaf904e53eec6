//! Regenerates **Fig. 5** of the A-QED paper: the memory-controller
//! bug-detection breakdown — bugs found by both flows vs bugs found only
//! by A-QED (the paper reports a 13% A-QED-only slice).
//!
//! Run with `cargo run --release -p aqed-bench --bin fig5`.

use aqed_bench::{host_line, rule};
use aqed_core::AqedHarness;
use aqed_designs::memctrl_cases;
use aqed_expr::ExprPool;
use aqed_sim::Testbench;
use std::collections::BTreeMap;

/// Loads per-bug detection results from a prior `table1` run, if present.
fn cached_detection() -> Option<std::collections::HashMap<String, (bool, bool)>> {
    let text = std::fs::read_to_string("results/detection.tsv").ok()?;
    let mut map = std::collections::HashMap::new();
    for line in text.lines().skip(1) {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() == 5 {
            map.insert(cols[0].to_string(), (cols[3] == "true", cols[4] == "true"));
        }
    }
    (map.len() == memctrl_cases().len()).then_some(map)
}

fn main() {
    let cases = memctrl_cases();
    println!("Fig. 5: Memory-controller unit bugs detected");
    println!("{}\n", host_line());
    let cached = cached_detection();
    if cached.is_some() {
        println!("(reusing per-bug results from results/detection.tsv — run table1 to refresh)\n");
    }

    let mut per_config: BTreeMap<&str, (usize, usize, usize)> = BTreeMap::new(); // (total, aqed, conv)
    let mut aqed_total = 0usize;
    let mut conv_total = 0usize;

    println!(
        "{:<32} {:<14} {:>7} {:>14}",
        "bug", "config", "A-QED", "conventional"
    );
    rule(72);
    for case in &cases {
        let (aqed_found, conv_found) = match cached.as_ref().and_then(|m| m.get(case.id)) {
            Some(&(a, c)) => (a, c),
            None => {
                let mut pool = ExprPool::new();
                let lca = (case.build_buggy)(&mut pool);
                let mut harness = AqedHarness::new(&lca);
                if let Some(fc) = &case.fc {
                    harness = harness.with_fc(fc.clone());
                }
                if let Some(rb) = &case.rb {
                    harness = harness.with_rb(*rb);
                }
                let aqed_found = harness.verify(&mut pool, case.bmc_bound).found_bug();
                let golden = case.golden.expect("memctrl cases have a golden model");
                let conv_found = Testbench::default().run(&lca, &pool, golden).detected();
                (aqed_found, conv_found)
            }
        };

        let entry = per_config.entry(case.config).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += usize::from(aqed_found);
        entry.2 += usize::from(conv_found);
        aqed_total += usize::from(aqed_found);
        conv_total += usize::from(conv_found);
        println!(
            "{:<32} {:<14} {:>7} {:>14}",
            case.id,
            case.config,
            if aqed_found { "found" } else { "MISSED" },
            if conv_found { "found" } else { "MISSED" }
        );
    }
    rule(72);

    println!("\nPer configuration:");
    for (config, (total, aqed, conv)) in &per_config {
        println!("  {config:<14} total {total:>2}   A-QED {aqed:>2}   conventional {conv:>2}");
    }

    let n = cases.len();
    let both = cases.len().min(conv_total); // conventional ⊆ A-QED here
    let aqed_only = aqed_total - both;
    println!("\nTotals over {n} bugs:");
    println!(
        "  detected by both flows:     {both:>2} ({:.0}%)",
        100.0 * both as f64 / n as f64
    );
    println!(
        "  detected only by A-QED:     {aqed_only:>2} ({:.0}%)   <- paper: 13%",
        100.0 * aqed_only as f64 / n as f64
    );
    println!(
        "  detected only by conv flow:  {:>2} ({:.0}%)",
        conv_total.saturating_sub(aqed_total),
        100.0 * conv_total.saturating_sub(aqed_total) as f64 / n as f64
    );
    assert_eq!(
        aqed_total, n,
        "Observation 1: A-QED detects every bug in the suite"
    );
}

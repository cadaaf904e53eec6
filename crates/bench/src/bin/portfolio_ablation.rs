//! Developer tool: portfolio-backend ablation on one catalogued case.
//!
//! ```text
//! cargo run --release -p aqed-bench --bin portfolio_ablation -- <case-id> [max-bound]
//! ```
//!
//! Times a full BMC check of the buggy design once with the plain CDCL
//! backend (the baseline), then with the portfolio backend at 1/2/4/8
//! workers — the rows behind the "Portfolio ablation" section of
//! EXPERIMENTS.md. Every configuration must return the same verdict;
//! the tool exits non-zero otherwise.
//!
//! Timings are wall clock on whatever cores the host gives the process,
//! so interpret multi-worker rows accordingly (on a single-core
//! container the racers time-slice one CPU).

use aqed_bmc::{Bmc, BmcOptions, BmcResult};
use aqed_core::AqedHarness;
use aqed_designs::all_cases;
use aqed_expr::ExprPool;
use aqed_sat::{PortfolioBackend, SatBackend, Solver};
use std::time::Instant;

fn verdict(r: &BmcResult) -> String {
    match r {
        BmcResult::Counterexample(c) => format!("CEX@{}", c.depth),
        BmcResult::NoCounterexample { .. } => "clean".to_string(),
        BmcResult::Unknown { .. } => "unknown".to_string(),
    }
}

fn check<B: SatBackend + Default>(
    composed: &aqed_tsys::TransitionSystem,
    pool: &mut ExprPool,
    options: BmcOptions,
) -> (f64, BmcResult, aqed_bmc::BmcStats) {
    let mut bmc = Bmc::<B>::with_backend(composed, options);
    let t = Instant::now();
    let result = bmc.check(composed, pool);
    (t.elapsed().as_secs_f64(), result, bmc.stats())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let case_id = args.first().map(String::as_str).unwrap_or("aes_v1");
    let bound: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let case = all_cases()
        .into_iter()
        .find(|c| c.id == case_id)
        .unwrap_or_else(|| panic!("unknown case '{case_id}'"));

    let mut pool = ExprPool::new();
    let lca = (case.build_buggy)(&mut pool);
    let mut harness = AqedHarness::new(&lca);
    if let Some(fc) = &case.fc {
        harness = harness.with_fc(fc.clone());
    }
    if let Some(rb) = &case.rb {
        harness = harness.with_rb(*rb);
    }
    let (composed, _) = harness.build(&mut pool);
    println!("case {case_id} (buggy), bound {bound}: {composed}");
    println!(
        "{:<26} {:>9} {:>11} {:>9} {:>7}",
        "config", "time(s)", "conflicts", "wasted", "verdict"
    );

    let options = BmcOptions::default().with_max_bound(bound);
    let (base_t, base_r, base_s) = check::<Solver>(&composed, &mut pool, options.clone());
    println!(
        "{:<26} {:>9.2} {:>11} {:>9} {:>7}",
        "cdcl (baseline)",
        base_t,
        base_s.solver.conflicts,
        "-",
        verdict(&base_r)
    );

    let mut ok = true;
    for &workers in &[1usize, 2, 4, 8] {
        let (t, r, s) = check::<PortfolioBackend>(
            &composed,
            &mut pool,
            options.clone().with_portfolio(workers),
        );
        let label = format!("portfolio w={workers}");
        println!(
            "{label:<26} {t:>9.2} {:>11} {:>9} {:>7}",
            s.solver.conflicts,
            s.solver.wasted_conflicts,
            verdict(&r)
        );
        if verdict(&r) != verdict(&base_r) {
            eprintln!("VERDICT MISMATCH: {label} returned {}", verdict(&r));
            ok = false;
        }
    }
    assert!(ok, "portfolio verdicts diverged from the cdcl baseline");
}

//! Developer tool: per-depth BMC profile of a catalogued case.
//!
//! ```text
//! cargo run --release -p aqed-bench --bin profile_bmc -- <case-id> [max-bound]
//! ```
//!
//! Prints, for every depth, the cumulative solver statistics and wall
//! time — the data that guided the engine's performance tuning. Honours
//! `AQED_NO_COI=1` / `AQED_NO_PREPROCESS=1` so the simplification
//! pipeline can be ablated without recompiling.
//!
//! After the sweep, if a counterexample was found, the tool re-runs the
//! final bound incrementally and replays the satisfying model through
//! bare unit propagation (`replay_model_propagation`) — measuring the
//! cost of `propagate()` alone, with no search, restarts or clause
//! learning in the way.

use aqed_bmc::{ArmedBudget, Bmc, BmcOptions, BmcResult};
use aqed_core::AqedHarness;
use aqed_designs::all_cases;
use aqed_expr::ExprPool;
use std::time::Instant;

fn env_disabled(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let case_id = args
        .first()
        .map(String::as_str)
        .unwrap_or("motivating_clock_enable");
    let max_bound: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(14);
    let case = all_cases()
        .into_iter()
        .find(|c| c.id == case_id)
        .unwrap_or_else(|| panic!("unknown case '{case_id}'"));

    let coi = !env_disabled("AQED_NO_COI");
    let preprocess = !env_disabled("AQED_NO_PREPROCESS");

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
    println!("case {case_id}: {composed}");
    println!("pipeline: coi={coi} preprocess={preprocess}");
    println!(
        "{:>5} {:>9} {:>10} {:>10} {:>12} {:>12} {:>9} {:>8} {:>8} {:>9} {:>9}",
        "depth",
        "time(s)",
        "clauses",
        "vars",
        "conflicts",
        "binprops",
        "subsumed",
        "elim",
        "pp(ms)",
        "coi k/d",
        "verdict"
    );
    let options = || {
        BmcOptions::default()
            .with_coi(coi)
            .with_preprocess(preprocess)
    };
    // Run depth by depth so per-depth cost is visible.
    let t0 = Instant::now();
    let mut cex_depth = None;
    let mut last_solver = None;
    for k in 0..=max_bound {
        let mut bmc = Bmc::new(&composed, options().with_max_bound(k));
        let t = Instant::now();
        let result = bmc.check(&composed, &mut pool);
        let stats = bmc.stats();
        let verdict = match &result {
            BmcResult::Counterexample(c) => format!("CEX@{}", c.depth),
            BmcResult::NoCounterexample { .. } => "clean".to_string(),
            BmcResult::Unknown { .. } => "unknown".to_string(),
        };
        println!(
            "{:>5} {:>9.2} {:>10} {:>10} {:>12} {:>12} {:>9} {:>8} {:>8} {:>9} {:>9}",
            k,
            t.elapsed().as_secs_f64(),
            stats.clauses,
            stats.variables,
            stats.solver.conflicts,
            stats.solver.binary_props,
            stats.solver.subsumed,
            stats.solver.eliminated_vars,
            stats.solver.preprocess_micros / 1000,
            format!("{}/{}", stats.coi_latches_kept, stats.coi_latches_dropped),
            verdict
        );
        last_solver = Some(stats.solver);
        if let BmcResult::Counterexample(c) = &result {
            cex_depth = Some(c.depth);
            break;
        }
    }
    println!("total: {:.2}s", t0.elapsed().as_secs_f64());
    if let Some(solver) = last_solver {
        println!("final solver stats: {solver}");
    }
    println!("note: depth k re-runs 0..=k (cumulative per line; incremental inside one run).");

    // Trail-replay harness: re-run the CEX bound on one live session and
    // replay the satisfying model through bare unit propagation. The
    // enqueue/propagation counts isolate BCP cost from search overhead.
    let Some(depth) = cex_depth else {
        println!("no counterexample up to bound {max_bound}; skipping trail replay");
        return;
    };
    let mut bmc = Bmc::new(&composed, options().with_max_bound(depth));
    let armed = ArmedBudget::arm(&options().budget);
    let mut replay = None;
    let mut replay_time = None;
    let result = bmc.check_inspecting(&composed, &mut pool, &armed, |solver| {
        let t = Instant::now();
        replay = solver.replay_model_propagation();
        replay_time = Some(t.elapsed());
    });
    match (result, replay) {
        (BmcResult::Counterexample(_), Some(r)) => {
            let micros = replay_time.unwrap_or_default().as_micros();
            println!(
                "trail replay @ depth {depth}: {} enqueued, {} propagations, conflicted={} ({micros} µs)",
                r.enqueued, r.propagated, r.conflicted
            );
        }
        (BmcResult::Counterexample(_), None) => {
            println!("trail replay @ depth {depth}: no model on final solver (unexpected)");
        }
        (other, _) => println!("trail replay skipped: re-run returned {other:?}"),
    }
}

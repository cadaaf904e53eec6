//! JSON serialization of verification reports.
//!
//! Hand-rolled over [`aqed_obs::json::Json`] (the workspace carries no
//! serde); the schema is stable and consumed by `verify --report-json`
//! and downstream tooling. Every duration is reported in milliseconds as
//! a float to keep the numbers human-scaled.

use crate::parallel::{ObligationReport, ParallelVerifyReport};
use crate::verify::CheckOutcome;
use aqed_bmc::BmcStats;
use aqed_obs::json::Json;
use aqed_sat::SolverStats;
use std::time::Duration;

fn ms(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e3)
}

/// Destructured without `..`: a stats field added without deciding
/// whether the report carries it fails to compile here.
fn solver_stats_json(s: &SolverStats) -> Json {
    let SolverStats {
        decisions,
        propagations,
        conflicts,
        restarts,
        learnts,
        deleted,
        binary_props,
        gc_runs,
        arena_bytes,
        subsumed,
        eliminated_vars,
        preprocess_micros,
        preprocess_runs,
        // Always 0; kept in the struct for the benchmark only.
        learnt_imported: _,
        // Portfolio-only bookkeeping; not part of the report schema.
        shared_exported: _,
        shared_imported: _,
        wasted_conflicts: _,
        portfolio_winner: _,
    } = *s;
    Json::obj(vec![
        ("decisions", Json::num(decisions)),
        ("propagations", Json::num(propagations)),
        ("conflicts", Json::num(conflicts)),
        ("restarts", Json::num(restarts)),
        ("learnts", Json::num(learnts)),
        ("deleted", Json::num(deleted)),
        ("binary_props", Json::num(binary_props)),
        ("gc_runs", Json::num(gc_runs)),
        ("arena_bytes", Json::num(arena_bytes)),
        ("subsumed", Json::num(subsumed)),
        ("eliminated_vars", Json::num(eliminated_vars)),
        ("preprocess_micros", Json::num(preprocess_micros)),
        ("preprocess_runs", Json::num(preprocess_runs)),
    ])
}

/// Destructured without `..`, like [`solver_stats_json`].
fn bmc_stats_json(s: &BmcStats) -> Json {
    let BmcStats {
        frames_encoded,
        solver_calls,
        clauses,
        variables,
        elapsed,
        solver,
        coi_latches_kept,
        coi_latches_dropped,
        verdicts_reused,
        coi_micros,
        encode_micros,
        solve_micros,
    } = *s;
    Json::obj(vec![
        ("frames_encoded", Json::num(frames_encoded as u64)),
        ("solver_calls", Json::num(solver_calls)),
        ("clauses", Json::num(clauses as u64)),
        ("variables", Json::num(variables as u64)),
        ("elapsed_ms", ms(elapsed)),
        ("coi_latches_kept", Json::num(coi_latches_kept as u64)),
        ("coi_latches_dropped", Json::num(coi_latches_dropped as u64)),
        ("verdicts_reused", Json::num(verdicts_reused)),
        ("coi_micros", Json::num(coi_micros)),
        ("encode_micros", Json::num(encode_micros)),
        ("solve_micros", Json::num(solve_micros)),
        ("solver", solver_stats_json(&solver)),
    ])
}

fn outcome_json(outcome: &CheckOutcome) -> Json {
    match outcome {
        CheckOutcome::Clean { bound } => Json::obj(vec![
            ("verdict", Json::Str("clean".into())),
            ("bound", Json::num(*bound as u64)),
        ]),
        CheckOutcome::Bug {
            property,
            counterexample,
        } => Json::obj(vec![
            ("verdict", Json::Str("bug".into())),
            ("property", Json::Str(property.to_string())),
            ("bad_name", Json::Str(counterexample.bad_name.clone())),
            ("bad_index", Json::num(counterexample.bad_index as u64)),
            ("depth", Json::num(counterexample.depth as u64)),
            ("cycles", Json::num(counterexample.cycles() as u64)),
        ]),
        CheckOutcome::Inconclusive { bound, reason } => Json::obj(vec![
            ("verdict", Json::Str("inconclusive".into())),
            ("bound", Json::num(*bound as u64)),
            ("reason", Json::Str(reason.to_string())),
        ]),
        CheckOutcome::Errored { message } => Json::obj(vec![
            ("verdict", Json::Str("errored".into())),
            ("message", Json::Str(message.clone())),
        ]),
    }
}

fn obligation_json(r: &ObligationReport) -> Json {
    Json::obj(vec![
        ("bad_index", Json::num(r.obligation.bad_index as u64)),
        ("bad_name", Json::Str(r.obligation.bad_name.clone())),
        ("property", Json::Str(r.obligation.property.to_string())),
        ("outcome", outcome_json(&r.outcome)),
        ("attempts", Json::num(u64::from(r.attempts))),
        ("wall_ms", ms(r.wall)),
        ("cache_hit", Json::Bool(r.cache_hit)),
        ("stats", bmc_stats_json(&r.stats)),
    ])
}

impl ParallelVerifyReport {
    /// Serializes the full report — merged verdict, every per-obligation
    /// report with its statistics, and the aggregate — as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("outcome", outcome_json(&self.outcome)),
            (
                "obligations",
                Json::Arr(self.obligations.iter().map(obligation_json).collect()),
            ),
            ("aggregate", bmc_stats_json(&self.aggregate)),
            ("jobs", Json::num(self.jobs as u64)),
            ("runtime_ms", ms(self.runtime)),
            ("degraded", Json::Bool(self.degraded)),
            ("watchdog_trips", Json::num(self.watchdog_trips)),
            ("cache_hits", Json::num(self.cache_hits)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::FcConfig;
    use crate::AqedHarness;
    use aqed_expr::ExprPool;
    use aqed_hls::{synthesize, AccelSpec, SynthOptions};

    #[test]
    fn report_json_round_trips_and_matches_the_report() {
        let mut p = ExprPool::new();
        let spec = AccelSpec::new("ident", 2, 6, 6).with_latency(2);
        let lca = synthesize(&spec, &mut p, SynthOptions::default(), |_pool, _a, d| d);
        let report = AqedHarness::new(&lca)
            .with_fc(FcConfig::default())
            .verify_parallel(&mut p, 6, 2);
        let rendered = report.to_json().to_string();
        let parsed = aqed_obs::json::parse(&rendered).expect("report JSON must parse");
        assert_eq!(
            parsed
                .get("outcome")
                .and_then(|o| o.get("verdict"))
                .and_then(Json::as_str),
            Some("clean")
        );
        let obs = parsed
            .get("obligations")
            .and_then(Json::as_arr)
            .expect("obligations array");
        assert_eq!(obs.len(), report.obligations.len());
        for (j, r) in obs.iter().zip(&report.obligations) {
            assert_eq!(
                j.get("bad_name").and_then(Json::as_str),
                Some(r.obligation.bad_name.as_str())
            );
            assert_eq!(
                j.get("stats")
                    .and_then(|s| s.get("solver_calls"))
                    .and_then(Json::as_u64),
                Some(r.stats.solver_calls)
            );
        }
        assert_eq!(
            parsed
                .get("aggregate")
                .and_then(|s| s.get("solver"))
                .and_then(|s| s.get("conflicts"))
                .and_then(Json::as_u64),
            Some(report.aggregate.solver.conflicts)
        );
        // The reuse counter is part of the stable schema even on a cold
        // run (it reports zero).
        let aggregate = parsed.get("aggregate").expect("aggregate");
        assert_eq!(
            aggregate.get("verdicts_reused").and_then(Json::as_u64),
            Some(report.aggregate.verdicts_reused)
        );
    }

    #[test]
    fn bug_outcome_serializes_the_witness_summary() {
        let mut p = ExprPool::new();
        let spec = AccelSpec::new("inc", 2, 6, 6);
        let lca = synthesize(
            &spec,
            &mut p,
            SynthOptions {
                forwarding_bug: true,
                ..SynthOptions::default()
            },
            |pool, _a, d| {
                let one = pool.lit(6, 1);
                pool.add(d, one)
            },
        );
        let report = AqedHarness::new(&lca)
            .with_fc(FcConfig::default())
            .verify_parallel(&mut p, 8, 2);
        assert!(report.found_bug());
        let parsed = aqed_obs::json::parse(&report.to_json().to_string()).unwrap();
        let outcome = parsed.get("outcome").unwrap();
        assert_eq!(outcome.get("verdict").and_then(Json::as_str), Some("bug"));
        assert_eq!(
            outcome.get("cycles").and_then(Json::as_u64),
            report.cex_cycles().map(|c| c as u64)
        );
    }
}

//! Soundness of the cross-request artifact cache: caching must be
//! *invisible*. Across the whole design catalog, verdicts produced by a
//! warm shared [`ArtifactStore`] — including concurrent requests on the
//! same design, and requests whose `coi` setting differs from the run
//! that filled the store — must be identical to cache-off runs, per
//! obligation.

use aqed_core::{ArtifactStore, CheckOutcome};
use aqed_designs::all_cases;
use aqed_engine::{Engine, VerifyOutcome, VerifyRequest};
use std::sync::Arc;

/// Everything that must match between runs: verdict kind, violated
/// property or reason, counterexample depth, explored bound.
type VerdictKey = (u8, Option<String>, Option<usize>, Option<usize>);

fn verdict_key(outcome: &CheckOutcome) -> VerdictKey {
    match outcome {
        CheckOutcome::Clean { bound } => (0, None, None, Some(*bound)),
        CheckOutcome::Bug { counterexample, .. } => (
            1,
            Some(counterexample.bad_name.clone()),
            Some(counterexample.depth),
            None,
        ),
        CheckOutcome::Inconclusive { bound, reason } => {
            (2, Some(reason.to_string()), None, Some(*bound))
        }
        CheckOutcome::Errored { message } => (3, Some(message.clone()), None, None),
    }
}

/// Per-obligation verdict keys, in obligation order.
fn obligation_keys(outcome: &VerifyOutcome) -> Vec<(String, VerdictKey)> {
    outcome
        .report
        .obligations
        .iter()
        .map(|r| (r.obligation.bad_name.clone(), verdict_key(&r.outcome)))
        .collect()
}

#[test]
fn catalog_verdicts_identical_with_and_without_the_cache() {
    for case in all_cases() {
        // Cap the bound: identity is about the cache, not depth, and
        // the full catalog runs three times in this test.
        let mut req = VerifyRequest::new(case.id);
        req.bound = Some(case.bmc_bound.min(10));
        req.jobs = 2;
        let baseline = Engine::new().verify(&req).expect("cache-off run");
        let warm_engine = Engine::with_artifacts(Arc::new(ArtifactStore::new()));
        let cold = warm_engine.verify(&req).expect("store-cold run");
        let warm = warm_engine.verify(&req).expect("store-warm run");
        let expected = obligation_keys(&baseline);
        assert_eq!(
            expected,
            obligation_keys(&cold),
            "case {}: cold store run drifted from cache-off",
            case.id
        );
        assert_eq!(
            expected,
            obligation_keys(&warm),
            "case {}: warm store run drifted from cache-off",
            case.id
        );
        // The warm run must actually have been served from the store.
        assert_eq!(
            warm.report.cache_hits,
            warm.report.obligations.len() as u64,
            "case {}: warm run should hit on every obligation",
            case.id
        );
        assert_eq!(
            warm.report.aggregate.solver_calls, 0,
            "case {}: warm run should not touch the solver",
            case.id
        );
        assert_eq!(baseline.exit_code(), warm.exit_code(), "case {}", case.id);
    }
}

#[test]
fn concurrent_requests_on_one_design_match_the_cache_off_verdict() {
    let mut req = VerifyRequest::new("motivating_clock_enable");
    req.bound = Some(8);
    req.jobs = 2;
    let baseline = Engine::new().verify(&req).expect("cache-off run");
    let expected = obligation_keys(&baseline);
    let engine = Engine::with_artifacts(Arc::new(ArtifactStore::new()));
    // Four racing requests share one cold store: whichever interleaving
    // of seeding, absorption and verdict recording happens, nobody may
    // observe a different verdict.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (engine, req) = (&engine, &req);
                s.spawn(move || engine.verify(req).expect("concurrent run"))
            })
            .collect();
        for h in handles {
            let outcome = h.join().expect("worker");
            assert_eq!(expected, obligation_keys(&outcome));
            assert_eq!(baseline.exit_code(), outcome.exit_code());
        }
    });
    // And the store is warm afterwards.
    let warm = engine.verify(&req).expect("warm run");
    assert_eq!(expected, obligation_keys(&warm));
    assert_eq!(warm.report.cache_hits, warm.report.obligations.len() as u64);
}

/// The violated property of each obligation's bug, in obligation order.
fn bug_properties(outcome: &VerifyOutcome) -> Vec<Option<String>> {
    outcome
        .report
        .obligations
        .iter()
        .map(|r| match &r.outcome {
            CheckOutcome::Bug { property, .. } => Some(property.to_string()),
            _ => None,
        })
        .collect()
}

/// The store key is the obligation's COI slice whatever the request's
/// `coi` setting, so a store filled with slicing on answers requests
/// with it off, and the reverse, exactly as a cold run would.
#[test]
fn one_store_serves_requests_across_the_coi_setting() {
    for (case, healthy) in [
        ("fifo_ptr_wrap_off_by_one", false),
        ("dataflow_fifo_sizing", true),
    ] {
        for fill_coi in [true, false] {
            let mut fill = VerifyRequest::new(case);
            fill.healthy = healthy;
            fill.bound = Some(6);
            fill.coi = fill_coi;
            let mut query = fill.clone();
            query.coi = !fill_coi;
            let engine = Engine::with_artifacts(Arc::new(ArtifactStore::new()));
            engine.verify(&fill).expect("filling run");
            let served = engine.verify(&query).expect("served run");
            let cold = Engine::new().verify(&query).expect("store-less run");
            let what = format!("{case} (healthy: {healthy}), filled with coi={fill_coi}");
            assert_eq!(
                served.report.cache_hits,
                served.report.obligations.len() as u64,
                "{what}: every obligation must be a store hit"
            );
            assert_eq!(obligation_keys(&cold), obligation_keys(&served), "{what}");
            assert_eq!(bug_properties(&cold), bug_properties(&served), "{what}");
            assert_eq!(cold.exit_code(), served.exit_code(), "{what}");
            assert_eq!(served.report.found_bug(), !healthy, "{what}");
            for r in &served.report.obligations {
                if let CheckOutcome::Bug { counterexample, .. } = &r.outcome {
                    assert!(
                        counterexample.replay(&served.composed, &served.pool),
                        "{what}: served witness for {} must replay",
                        r.obligation.bad_name
                    );
                }
            }
        }
    }
}

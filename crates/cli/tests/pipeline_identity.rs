//! End-to-end soundness of the simplification pipeline: across the whole
//! design catalog, running with cone-of-influence slicing and CNF
//! preprocessing enabled (the default) must produce exactly the same
//! A-QED verdicts as running with both stages disabled. The pipeline is
//! an optimisation; any verdict drift is a bug, not a tuning knob.
//!
//! Counterexamples found with the pipeline on must also replay on the
//! *original* composed system — the remapping from the sliced variable
//! space back to the full one has to be lossless.

use aqed_bmc::BmcOptions;
use aqed_core::{verify_obligations, AqedHarness, CheckOutcome};
use aqed_designs::all_cases;
use aqed_expr::ExprPool;

/// Everything that must match between runs: verdict kind, violated
/// property, counterexample depth, explored bound.
fn verdict_key(outcome: &CheckOutcome) -> (u8, Option<String>, Option<usize>, Option<usize>) {
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

#[test]
fn catalog_verdicts_identical_with_and_without_pipeline() {
    // Obligations that took a preprocessing pass with the pipeline on:
    // the effort gate skips easy ones, and a sweep in which none takes
    // a pass would compare nothing of the preprocessor.
    let mut passed_obligations = 0;
    for case in all_cases() {
        // Cap the bound: verdict identity is about the pipeline, not
        // depth, and the full catalog runs twice in this test.
        let bound = case.bmc_bound.min(10);
        let mut keys = Vec::new();
        for pipeline in [true, false] {
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
            let options = BmcOptions::default()
                .with_max_bound(bound)
                .with_coi(pipeline)
                .with_preprocess(pipeline);
            let report = verify_obligations(&composed, &pool, &options, 2);
            assert!(
                !report.degraded,
                "case {}: no obligation may degrade (pipeline={pipeline})",
                case.id
            );
            if pipeline {
                passed_obligations += report
                    .obligations
                    .iter()
                    .filter(|o| o.stats.solver.preprocess_runs > 0)
                    .count();
                if let CheckOutcome::Bug { counterexample, .. } = &report.outcome {
                    assert!(
                        counterexample.replay(&composed, &pool),
                        "case {}: pipeline witness must replay on the original system",
                        case.id
                    );
                }
            }
            keys.push(verdict_key(&report.outcome));
        }
        assert_eq!(keys[0], keys[1], "case {}: pipeline on vs off", case.id);
    }
    assert!(
        passed_obligations > 0,
        "no catalog obligation took a preprocessing pass"
    );
}

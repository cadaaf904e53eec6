//! The warm re-verification path, where every obligation is a store hit
//! and no solver runs:
//!
//! * `cone_key/<design>` computes the store key ([`cone_hash`]) of every
//!   obligation's COI slice of one composed suite design (slices built
//!   beforehand: slicing is COI's cost, the key is the hash);
//! * `warm_verify/suite` re-verifies the five-design CI suite through an
//!   `Engine` whose in-memory store already holds every verdict (build,
//!   compose, schedule and flush, as a CI job does);
//! * `warm_verify/sched` is the scheduler's own share of that:
//!   `verify_obligations_governed` over the five pre-composed designs at
//!   one job, every obligation a hit.
//!
//! The suite is `aqedbench`'s `ci-reverify` suite at its nightly bounds.

use aqed_bmc::BmcOptions;
use aqed_core::{
    cone_hash, verify_obligations_governed, AqedHarness, ArtifactStore, Budget, CheckOutcome,
    RunContext, ScheduleOptions,
};
use aqed_designs::all_cases;
use aqed_engine::{Engine, VerifyRequest};
use aqed_expr::ExprPool;
use aqed_sat::Solver;
use aqed_tsys::{coi_slice, TransitionSystem};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

/// `(case, bound)`: the healthy designs of the CI suite.
const SUITE: [(&str, usize); 5] = [
    ("aes_v1", 6),
    ("gsm_acc_race", 8),
    ("motivating_clock_enable", 8),
    ("dataflow_fifo_sizing", 8),
    ("lb_tap_off_by_one", 8),
];

/// The healthy design of `case` composed with its A-QED monitor, as
/// `Engine::verify` composes it.
fn composed(case: &str) -> (TransitionSystem, ExprPool) {
    let case = all_cases()
        .into_iter()
        .find(|c| c.id == case)
        .expect("suite case is catalogued");
    let mut pool = ExprPool::new();
    let lca = (case.build_healthy)(&mut pool);
    let mut harness = AqedHarness::new(&lca);
    if let Some(fc) = &case.fc {
        harness = harness.with_fc(fc.clone());
    }
    if let Some(rb) = &case.rb {
        harness = harness.with_rb(*rb);
    }
    (harness.build(&mut pool).0, pool)
}

fn options(bound: usize) -> BmcOptions {
    BmcOptions::default()
        .with_max_bound(bound)
        .with_budget(Budget::unlimited())
}

fn request(case: &str, bound: usize) -> VerifyRequest {
    let mut req = VerifyRequest::new(case);
    req.healthy = true;
    req.bound = Some(bound);
    req
}

fn bench_cone_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("cone_key");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    for (case, _) in SUITE {
        let (ts, pool) = composed(case);
        let slices: Vec<_> = (0..ts.bads().len())
            .map(|i| coi_slice(&ts, &pool, &[i]))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(case), &slices, |b, slices| {
            b.iter(|| slices.iter().fold(0u64, |acc, s| acc ^ cone_hash(s, &pool)));
        });
    }
    group.finish();
}

fn bench_warm_verify(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_verify");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(4));
    let store = Arc::new(ArtifactStore::new());
    let engine = Engine::with_artifacts(Arc::clone(&store));
    for (case, bound) in SUITE {
        let out = engine.verify(&request(case, bound)).expect("suite case");
        assert!(
            matches!(out.report.outcome, CheckOutcome::Clean { .. }),
            "{case}: {}",
            out.report
        );
    }
    group.bench_function("suite", |b| {
        b.iter(|| {
            for (case, bound) in SUITE {
                let out = engine.verify(&request(case, bound)).expect("suite case");
                assert_eq!(out.report.cache_hits, out.report.obligations.len() as u64);
                black_box(out);
            }
        });
    });
    let designs: Vec<_> = SUITE
        .iter()
        .map(|&(case, bound)| (composed(case), options(bound)))
        .collect();
    let sched = ScheduleOptions::default().with_jobs(1);
    let ctx = RunContext::with_artifacts(store);
    group.bench_function("sched", |b| {
        b.iter(|| {
            for ((ts, pool), opts) in &designs {
                let report = verify_obligations_governed::<Solver>(ts, pool, opts, &sched, &ctx);
                assert_eq!(report.cache_hits, report.obligations.len() as u64);
                black_box(report);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cone_key, bench_warm_verify);
criterion_main!(benches);

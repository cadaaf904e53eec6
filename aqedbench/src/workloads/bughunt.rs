//! `bughunt`: the paper's use case, one-shot time to bug. Every buggy
//! catalog case at its catalog bound, each a cold in-process
//! `Engine::verify` with no store and `jobs = 1`, in seeded order,
//! round after round until the window closes. It is solve, encode,
//! preprocess and COI bound and never touches the store or the
//! transport, so a store or serve optimisation must show no change here.
//!
//! Four cases are left out. `motivating_clock_enable` (~20 s, a
//! 380 k-conflict solve) and `fifo_full_check_missing` (~8 s) each
//! outlast a round. `fifo_ptr_wrap_off_by_one` and
//! `fifo_redundant_write_glitch` (~1.5 s each) would halve the rounds a
//! run holds, and so the samples each case's quiet time is taken from.
//! The slowest remaining cases (0.4–0.7 s) keep the workload solver-bound.
//!
//! Metrics, from each case's quiet time ([`quiet`] over its rounds):
//! `latency_ms` is their geometric mean (every case weighs equally),
//! `tail_ms` the slowest case's, `throughput_per_s` cases per second of
//! verification (dominated by the slow cases), `setup_s` the time to
//! build and compose every case's design plus one warm-up verify.

use super::{ms_since, round_fits, timed_setup, Config, Outcome};
use crate::expected::{check, Check, Expected, Tally, Verdict};
use crate::layers::{build, case, compose, Recorder, Req};
use crate::stats::{geomean, median, quiet, Rng};
use aqed_designs::all_cases;
use aqed_engine::Engine;
use aqed_obs::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const EXCLUDED: [&str; 4] = [
    "motivating_clock_enable",
    "fifo_full_check_missing",
    "fifo_ptr_wrap_off_by_one",
    "fifo_redundant_write_glitch",
];

/// Verified once during set-up, so that lazy initialisation is over
/// before timing starts.
const WARM_UP: &str = "lb_warmup_off_by_one";

/// The cases `--smoke` keeps (each well under 100 ms).
const SMOKE: [&str; 3] = ["lb_tap_off_by_one", "aes_v2", "optflow_pushpop"];

fn requests(smoke: bool) -> Vec<Req> {
    all_cases()
        .iter()
        .filter(|c| !EXCLUDED.contains(&c.id) && (!smoke || SMOKE.contains(&c.id)))
        .map(|c| Req {
            case: c.id,
            healthy: false,
            bound: c.bmc_bound,
        })
        .collect()
}

pub fn run(cfg: &Config, expected: &Expected) -> Outcome {
    let reqs = requests(cfg.smoke);
    let engine = Engine::new();
    let mut tally = Tally::default();
    let warm_up = Req {
        case: WARM_UP,
        healthy: false,
        bound: case(WARM_UP).bmc_bound,
    };
    // Set-up: load the catalog by building and composing every design,
    // then warm up.
    let (setup_s, ()) = timed_setup(cfg, |_| {
        for r in &reqs {
            let c = case(r.case);
            let (lca, mut pool) = build(&c, r.healthy);
            std::hint::black_box(compose(&c, &lca, &mut pool));
        }
        let got = Verdict::of_engine(engine.verify(&warm_up.to_request()));
        let c = check(expected.get(WARM_UP, false, warm_up.bound), &got);
        tally.note(c, &format!("warm-up {WARM_UP}: {got:?}"));
    });

    let start = Instant::now();
    let mut rec = Recorder::new(start);
    let mut plain: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    // A traced run alternates untraced and traced rounds, so the two
    // can be compared for tracing overhead.
    let min_rounds = if cfg.trace { 2 } else { 1 };
    let mut rounds = 0u64;
    let mut last = Duration::ZERO;
    while rounds < min_rounds || round_fits(start, cfg.seconds, last) {
        let round_start = Instant::now();
        let mut order = reqs.clone();
        Rng::new(cfg.seed, rounds).shuffle(&mut order);
        let tracing = cfg.trace && rounds % 2 == 1;
        for r in order {
            let (ms, got, replays_failed) = if tracing {
                let op = rec.open_op(Instant::now(), "case", r.case);
                let report = rec.request(op, r, None);
                let (ms, failed) = rec.close_op(op);
                (ms, Verdict::of_report(&report), failed)
            } else {
                let t = Instant::now();
                let out = engine.verify(&r.to_request());
                (ms_since(t), Verdict::of_engine(out), 0)
            };
            let mut c = check(expected.get(r.case, false, r.bound), &got);
            if replays_failed > 0 && c == Check::Right {
                c = Check::Wrong;
            }
            tally.note(c, &format!("{} bound {}: {got:?}", r.case, r.bound));
            let into = if tracing { &mut traced } else { &mut plain };
            into.entry(r.case).or_default().push(ms);
        }
        last = round_start.elapsed();
        rounds += 1;
    }

    let quiet_times =
        |m: &BTreeMap<&str, Vec<f64>>| -> Vec<f64> { m.values().map(|v| quiet(v)).collect() };
    let per_case = quiet_times(&plain);
    let by_case = |f: fn(&[f64]) -> f64| {
        Json::Obj(
            plain
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::Num(f(v))))
                .collect(),
        )
    };
    let mut out = Outcome {
        tally,
        notes: vec![
            ("rounds", Json::num(rounds)),
            ("cases", Json::num(reqs.len() as u64)),
            ("case_quiet_ms", by_case(quiet)),
            ("case_median_ms", by_case(median)),
        ],
        ..Outcome::default()
    };
    if cfg.trace {
        let mut metrics = rec.metrics();
        let traced_sum: f64 = quiet_times(&traced).iter().sum();
        metrics.push((
            "trace.overhead_frac".into(),
            traced_sum / per_case.iter().sum::<f64>() - 1.0,
        ));
        out.metrics = metrics;
        out.trace = Some(rec.trace);
    } else {
        let total_s: f64 = per_case.iter().sum::<f64>() / 1e3;
        out.metrics = vec![
            ("setup_s".into(), setup_s),
            ("latency_ms".into(), geomean(&per_case)),
            (
                "tail_ms".into(),
                per_case.iter().copied().fold(0.0, f64::max),
            ),
            ("throughput_per_s".into(), per_case.len() as f64 / total_s),
            ("peak_mem_mb".into(), crate::heap::peak_mb()),
        ];
    }
    out
}

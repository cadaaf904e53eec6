//! CI-mode re-verification bench: cold vs warm-identical vs
//! warm-after-a-one-constant-edit, over a suite of designs sharing one
//! artifact store.
//!
//! ```text
//! cargo run --release -p aqed-bench --bin bench_reverify -- [edited-case] [bound] [jobs]
//! ```
//!
//! Models the incremental workflow the store's cone keys target: a
//! nightly run verifies every design in the suite (cold, populating the
//! store), a no-op re-run is answered from the store, then one design
//! is edited by one constant — a paper-style `OffByOneConstant`
//! injection into its next-state logic — and the whole suite is
//! re-verified warm. Designs the edit did not touch keep every cone key
//! and are served whole; inside the edited design, obligations whose
//! cone of influence the edit missed reuse their verdicts and only the
//! hit cones are re-solved. The warm-after-edit verdicts are asserted
//! identical to a cold run of the edited suite, so every speedup row
//! below is a *sound* speedup.
//!
//! The edit is chosen to maximise untouched cones within the edited
//! design (with at least one cone hit); set `AQED_EDIT_SITE=N` to
//! benchmark a specific injection site instead, and `AQED_SUITE` to a
//! comma-separated case list to change the suite. `AQED_BENCH_DIR`
//! redirects the JSON this writes (default `results/`).

use aqed_bench::write_bench_json;
use aqed_bmc::BmcOptions;
use aqed_core::{
    cone_hash, verify_obligations_governed, AqedHarness, ArtifactStore, CheckOutcome,
    ParallelVerifyReport, RunContext, ScheduleOptions,
};
use aqed_designs::{all_cases, BugCase};
use aqed_expr::ExprPool;
use aqed_hls::Lca;
use aqed_obs::json::Json;
use aqed_sat::Solver;
use aqed_tsys::{coi_slice_cached, enumerate_mutants, Mutator, TransitionSystem};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEFAULT_SUITE: &str = "aes_v1,gsm_acc_race,motivating_clock_enable,dataflow_fifo_sizing";

/// Per-obligation cone keys of a composed system, in bad order.
fn cone_keys(composed: &TransitionSystem, pool: &ExprPool) -> Vec<(String, u64)> {
    (0..composed.bads().len())
        .map(|i| {
            let slice = coi_slice_cached(composed, pool, &[i], None);
            (composed.bads()[i].0.clone(), cone_hash(&slice, pool))
        })
        .collect()
}

/// Comparable verdict summary (kind, label, depth/bound).
fn keys(report: &ParallelVerifyReport) -> Vec<(String, String)> {
    report
        .obligations
        .iter()
        .map(|r| {
            let key = match &r.outcome {
                CheckOutcome::Clean { bound } => format!("clean@{bound}"),
                CheckOutcome::Bug { counterexample, .. } => {
                    format!("bug@{}", counterexample.depth)
                }
                CheckOutcome::Inconclusive { bound, reason } => {
                    format!("inconclusive@{bound}:{reason}")
                }
                CheckOutcome::Errored { message } => format!("errored:{message}"),
            };
            (r.obligation.bad_name.clone(), key)
        })
        .collect()
}

fn compose(case: &BugCase, lca: &Lca, pool: &mut ExprPool) -> TransitionSystem {
    let mut harness = AqedHarness::new(lca);
    if let Some(fc) = &case.fc {
        harness = harness.with_fc(fc.clone());
    }
    if let Some(rb) = &case.rb {
        harness = harness.with_rb(*rb);
    }
    harness.build(pool).0
}

fn run(
    composed: &TransitionSystem,
    pool: &ExprPool,
    bound: usize,
    jobs: usize,
    store: Option<&Arc<ArtifactStore>>,
) -> (ParallelVerifyReport, Duration) {
    let options = BmcOptions::default().with_max_bound(bound);
    let sched = ScheduleOptions::default().with_jobs(jobs);
    let ctx = match store {
        Some(s) => RunContext::with_artifacts(Arc::clone(s)),
        None => RunContext::default(),
    };
    let t = Instant::now();
    let report = verify_obligations_governed::<Solver>(composed, pool, &options, &sched, &ctx);
    (report, t.elapsed())
}

/// One suite member, ready to verify: the composed healthy design and
/// its pool, plus the edited composition for the edited member.
struct Member {
    id: &'static str,
    pool: ExprPool,
    composed: TransitionSystem,
    edited: Option<TransitionSystem>,
    edit_description: Option<String>,
    cones_untouched: usize,
    cones_total: usize,
}

/// Aggregated counters of one sweep over the suite.
#[derive(Default)]
struct Sweep {
    time: Duration,
    calls: u64,
    conflicts: u64,
    hits: u64,
    reused: u64,
    imported: u64,
    keys: Vec<(String, String)>,
}

impl Sweep {
    fn absorb(&mut self, id: &str, report: &ParallelVerifyReport, time: Duration) {
        self.time += time;
        self.calls += report.aggregate.solver_calls;
        self.conflicts += report.aggregate.solver.conflicts;
        self.hits += report.obligations.iter().filter(|r| r.cache_hit).count() as u64;
        self.reused += report.aggregate.verdicts_reused;
        self.imported += report.aggregate.solver.learnt_imported;
        for (name, key) in keys(report) {
            self.keys.push((format!("{id}/{name}"), key));
        }
    }
}

fn row(label: &str, s: &Sweep, cold: Duration) -> Json {
    println!(
        "{label:<18} {:>9.3} {:>8.1}x {:>6} {:>10} {:>7} {:>7} {:>9}",
        s.time.as_secs_f64(),
        cold.as_secs_f64() / s.time.as_secs_f64().max(1e-9),
        s.calls,
        s.conflicts,
        s.hits,
        s.reused,
        s.imported,
    );
    Json::obj(vec![
        ("phase", Json::from(label.trim())),
        ("time_s", Json::Num(s.time.as_secs_f64())),
        (
            "speedup",
            Json::Num(cold.as_secs_f64() / s.time.as_secs_f64().max(1e-9)),
        ),
        ("solver_calls", Json::num(s.calls)),
        ("conflicts", Json::num(s.conflicts)),
        ("cache_hits", Json::num(s.hits)),
        ("verdicts_reused", Json::num(s.reused)),
        ("learnt_imported", Json::num(s.imported)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let edited_id = args
        .first()
        .map(String::as_str)
        .unwrap_or("dataflow_fifo_sizing")
        .to_string();
    let bound: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let jobs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let suite_env = std::env::var("AQED_SUITE").unwrap_or_else(|_| DEFAULT_SUITE.to_string());
    let mut suite_ids: Vec<String> = suite_env.split(',').map(str::to_string).collect();
    if !suite_ids.contains(&edited_id) {
        suite_ids.push(edited_id.clone());
    }

    let mut members: Vec<Member> = Vec::new();
    for id in &suite_ids {
        let case = all_cases()
            .into_iter()
            .find(|c| c.id == *id)
            .unwrap_or_else(|| panic!("unknown case '{id}'"));
        let mut pool = ExprPool::new();
        let lca = (case.build_healthy)(&mut pool);
        let composed = compose(&case, &lca, &mut pool);
        let mut member = Member {
            id: case.id,
            composed,
            edited: None,
            edit_description: None,
            cones_untouched: 0,
            cones_total: 0,
            pool,
        };
        if *id == edited_id {
            pick_edit(&case, &lca, &mut member);
        }
        members.push(member);
    }

    let edited = members
        .iter()
        .find(|m| m.id == edited_id)
        .expect("edited case is in the suite");
    println!(
        "suite: {} (healthy variants), bound {bound}, jobs {jobs}",
        suite_ids.join(" ")
    );
    println!(
        "edit: {} in {edited_id} ({}/{} of its cones untouched)",
        edited.edit_description.as_deref().unwrap_or("?"),
        edited.cones_untouched,
        edited.cones_total,
    );
    println!(
        "{:<18} {:>9} {:>9} {:>6} {:>10} {:>7} {:>7} {:>9}",
        "phase", "time(s)", "speedup", "calls", "conflicts", "hits", "reused", "imported"
    );

    let dir = std::env::temp_dir().join(format!("aqed-bench-reverify-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ArtifactStore::open(&dir).expect("open store"));

    // The design to verify per member in the post-edit phases.
    fn post(m: &Member) -> &TransitionSystem {
        m.edited.as_ref().unwrap_or(&m.composed)
    }

    let mut phase_rows: Vec<Json> = Vec::new();
    let mut cold = Sweep::default();
    for m in &members {
        let (r, t) = run(&m.composed, &m.pool, bound, jobs, Some(&store));
        cold.absorb(m.id, &r, t);
    }
    phase_rows.push(row("cold suite", &cold, cold.time));

    let mut warm_id = Sweep::default();
    for m in &members {
        let (r, t) = run(&m.composed, &m.pool, bound, jobs, Some(&store));
        warm_id.absorb(m.id, &r, t);
    }
    phase_rows.push(row("warm identical", &warm_id, cold.time));
    assert_eq!(cold.keys, warm_id.keys, "identical re-run drifted");

    let mut cold_edit = Sweep::default();
    for m in &members {
        let (r, t) = run(post(m), &m.pool, bound, jobs, None);
        cold_edit.absorb(m.id, &r, t);
    }
    phase_rows.push(row("cold after edit", &cold_edit, cold_edit.time));

    let mut warm_edit = Sweep::default();
    let mut edited_reused = 0u64;
    for m in &members {
        let (r, t) = run(post(m), &m.pool, bound, jobs, Some(&store));
        if m.id == edited_id {
            edited_reused = r.aggregate.verdicts_reused;
        }
        warm_edit.absorb(m.id, &r, t);
    }
    phase_rows.push(row("warm after edit", &warm_edit, cold_edit.time));
    assert_eq!(
        cold_edit.keys, warm_edit.keys,
        "warm-after-edit verdicts diverged from cold — unsound reuse"
    );

    println!(
        "verdict identity: OK ({} obligations across {} designs)",
        warm_edit.keys.len(),
        members.len()
    );
    println!(
        "edited design reused {edited_reused} verdict(s) via cone keys; \
         suite speedup {:.1}x (cold {:.3}s -> warm {:.3}s)",
        cold_edit.time.as_secs_f64() / warm_edit.time.as_secs_f64().max(1e-9),
        cold_edit.time.as_secs_f64(),
        warm_edit.time.as_secs_f64(),
    );
    let _ = std::fs::remove_dir_all(&dir);

    match write_bench_json(
        "reverify",
        vec![
            (
                "suite",
                Json::Arr(suite_ids.iter().map(|s| Json::from(s.as_str())).collect()),
            ),
            ("edited_case", Json::from(edited_id.as_str())),
            (
                "edit",
                Json::from(edited.edit_description.clone().unwrap_or_default()),
            ),
            ("bound", Json::num(bound as u64)),
            ("jobs", Json::num(jobs as u64)),
            ("cones_untouched", Json::num(edited.cones_untouched as u64)),
            ("cones_total", Json::num(edited.cones_total as u64)),
            ("verdict_identity", Json::from(true)),
            ("obligations", Json::num(warm_edit.keys.len() as u64)),
            ("edited_verdicts_reused", Json::num(edited_reused)),
            ("phases", Json::Arr(phase_rows)),
        ],
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("bench_reverify: cannot write bench JSON: {e}"),
    }
}

/// Chooses the one-constant edit of `lca`'s next-state logic that
/// leaves the most obligation cones untouched while hitting at least
/// one, and stores the edited composition in `member`.
fn pick_edit(case: &BugCase, lca: &Lca, member: &mut Member) {
    let base_keys = cone_keys(&member.composed, &member.pool);
    let mutants = enumerate_mutants(&lca.ts, &mut member.pool, Mutator::OffByOneConstant);
    assert!(!mutants.is_empty(), "design has no constants to edit");
    let scored: Vec<(usize, usize, TransitionSystem)> = mutants
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, m)| {
            let edited_lca = Lca {
                ts: m.ts.clone(),
                ..lca.clone()
            };
            let edited = compose(case, &edited_lca, &mut member.pool);
            let untouched = base_keys
                .iter()
                .zip(&cone_keys(&edited, &member.pool))
                .filter(|(a, b)| a == b)
                .count();
            (i, untouched, edited)
        })
        .collect();
    let pick = match std::env::var("AQED_EDIT_SITE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(site) => scored
            .iter()
            .find(|(i, _, _)| *i == site)
            .expect("AQED_EDIT_SITE out of range"),
        None => scored
            .iter()
            .filter(|(_, u, _)| *u < base_keys.len())
            .max_by_key(|(_, u, _)| *u)
            .expect("every candidate edit left all cones untouched"),
    };
    member.edited = Some(pick.2.clone());
    member.edit_description = Some(mutants[pick.0].description.clone());
    member.cones_untouched = pick.1;
    member.cones_total = base_keys.len();
}

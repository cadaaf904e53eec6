//! The in-process verification path, untraced and traced.
//!
//! The untraced path is what users call (`Engine::verify`, or the
//! scheduler directly for edited designs the catalog cannot name). The
//! traced path drives a request through the same public steps
//! `Engine::verify` takes — `find_case` → `build_*` →
//! `AqedHarness::build` → `verify_obligations_governed` →
//! `ArtifactStore::flush` — with a span around each. The scheduler
//! span's children come from its report's `coi`/`encode`/`preprocess`/
//! `solve` counters; `design_hash` and `Counterexample::replay` are
//! probed on the side after the operation ends (see [`crate::trace`]).

use crate::metrics::IN_PROCESS_LAYERS;
use crate::trace::{Trace, UNATTRIBUTED};
use aqed_bmc::{BmcOptions, Counterexample};
use aqed_core::{
    design_hash, verify_obligations_governed, AqedHarness, ArtifactStore, Budget, CheckOutcome,
    ParallelVerifyReport, RunContext, ScheduleOptions,
};
use aqed_designs::BugCase;
use aqed_engine::{find_case, VerifyRequest};
use aqed_expr::ExprPool;
use aqed_hls::Lca;
use aqed_obs::json::Json;
use aqed_sat::Solver;
use aqed_tsys::TransitionSystem;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A catalog request: case, variant, bound. Every request runs at
/// `jobs = 1`, so child times add up to the scheduler's wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub case: &'static str,
    pub healthy: bool,
    pub bound: usize,
}

impl Req {
    #[must_use]
    pub fn to_request(self) -> VerifyRequest {
        let mut r = VerifyRequest::new(self.case);
        r.healthy = self.healthy;
        r.bound = Some(self.bound);
        r
    }
}

/// Composes the A-QED monitor onto a design as `Engine::verify` does.
#[must_use]
pub fn compose(case: &BugCase, lca: &Lca, pool: &mut ExprPool) -> TransitionSystem {
    let mut harness = AqedHarness::new(lca);
    if let Some(fc) = &case.fc {
        harness = harness.with_fc(fc.clone());
    }
    if let Some(rb) = &case.rb {
        harness = harness.with_rb(*rb);
    }
    harness.build(pool).0
}

/// Builds one variant of a catalog case, in a fresh pool.
#[must_use]
pub fn build(case: &BugCase, healthy: bool) -> (Lca, ExprPool) {
    let mut pool = ExprPool::new();
    let lca = if healthy {
        (case.build_healthy)(&mut pool)
    } else {
        (case.build_buggy)(&mut pool)
    };
    (lca, pool)
}

/// The catalog case a request names.
///
/// # Panics
///
/// Panics on a case id the catalog does not have (workloads only name
/// catalogued cases).
#[must_use]
pub fn case(id: &str) -> BugCase {
    find_case(id).expect("workloads only name catalogued cases")
}

/// The scheduler call `Engine::verify` makes, with its options.
#[must_use]
pub fn schedule(
    composed: &TransitionSystem,
    pool: &ExprPool,
    bound: usize,
    store: Option<&Arc<ArtifactStore>>,
) -> ParallelVerifyReport {
    let options = BmcOptions::default()
        .with_max_bound(bound)
        .with_budget(Budget::unlimited())
        .with_preprocess(true)
        .with_coi(true);
    let sched = ScheduleOptions::default()
        .with_jobs(1)
        .with_fail_fast(false)
        .with_warm_start(true);
    let ctx = RunContext {
        artifacts: store.cloned(),
        stop: None,
        meter: None,
    };
    verify_obligations_governed::<Solver>(composed, pool, &options, &sched, &ctx)
}

/// A probe run after its operation closes; returns how many
/// counterexamples failed to replay.
type Probe<'a> = Box<dyn FnOnce(&mut Trace) -> u64 + 'a>;

/// A traced run: its spans, its per-operation counters, and the probes
/// waiting for the current operation's span to close.
pub struct Recorder<'a> {
    pub trace: Trace,
    pub counters: Counters,
    deferred: Vec<Probe<'a>>,
}

impl<'a> Recorder<'a> {
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            trace: Trace::new(epoch),
            counters: Counters::default(),
            deferred: Vec::new(),
        }
    }

    /// Opens an operation's root span.
    pub fn open_op(&mut self, start: Instant, key: &'static str, value: &str) -> usize {
        let op = self.trace.open("op", 1, start, None);
        self.trace.arg(op, key, Json::from(value));
        op
    }

    /// Closes an operation's root span, then runs its probes. Returns
    /// the operation's wall milliseconds and its failed replays.
    pub fn close_op(&mut self, op: usize) -> (f64, u64) {
        self.trace.close(op, Instant::now());
        let ms = (self.trace.end_ns(op) - self.trace.start_ns(op)) as f64 / 1e6;
        let failed = std::mem::take(&mut self.deferred)
            .into_iter()
            .map(|probe| probe(&mut self.trace))
            .sum();
        (ms, failed)
    }

    /// The traced form of `Engine::verify` for one catalog request,
    /// recorded under `parent`.
    pub fn request(
        &mut self,
        parent: usize,
        req: Req,
        store: Option<&Arc<ArtifactStore>>,
    ) -> ParallelVerifyReport {
        let t0 = Instant::now();
        let case = case(req.case);
        let (lca, mut pool) = build(&case, req.healthy);
        let t1 = Instant::now();
        self.trace.span("designs.build", 1, t0, t1, Some(parent));
        let composed = compose(&case, &lca, &mut pool);
        self.trace
            .span("core.compose", 1, t1, Instant::now(), Some(parent));
        let (report, side) = self.schedule(parent, &composed, &pool, req.bound, store);
        self.deferred
            .push(Box::new(move |t| side.run(t, &composed, &pool)));
        report
    }

    /// The traced scheduler call and flush for a design composed before
    /// the operation.
    pub fn composed(
        &mut self,
        parent: usize,
        (composed, pool): (&'a TransitionSystem, &'a ExprPool),
        bound: usize,
        store: Option<&Arc<ArtifactStore>>,
    ) -> ParallelVerifyReport {
        let (report, side) = self.schedule(parent, composed, pool, bound, store);
        self.deferred
            .push(Box::new(move |t| side.run(t, composed, pool)));
        report
    }

    fn schedule(
        &mut self,
        parent: usize,
        composed: &TransitionSystem,
        pool: &ExprPool,
        bound: usize,
        store: Option<&Arc<ArtifactStore>>,
    ) -> (ParallelVerifyReport, SideWork) {
        let trace = &mut self.trace;
        let t0 = Instant::now();
        let report = schedule(composed, pool, bound, store);
        let sched = trace.span("core.sched", 1, t0, Instant::now(), Some(parent));
        let a = &report.aggregate;
        let us = Duration::from_micros;
        trace.split(
            sched,
            &[
                ("tsys.coi", us(a.coi_micros)),
                ("bmc.encode", us(a.encode_micros)),
                ("sat.preprocess", us(a.solver.preprocess_micros)),
                (
                    "sat.solve",
                    us(a.solve_micros.saturating_sub(a.solver.preprocess_micros)),
                ),
            ],
        );
        if let Some(s) = store {
            let t = Instant::now();
            // As in `Engine::verify`: a failed flush costs warmth, not
            // the verdict.
            let _ = s.flush();
            trace.span("core.persist.flush", 1, t, Instant::now(), Some(parent));
        }
        self.counters.add_report(&report, composed.states().len());
        let side = SideWork {
            sched,
            hashed: store.is_some(),
            cexes: report
                .obligations
                .iter()
                .filter_map(|o| match &o.outcome {
                    CheckOutcome::Bug { counterexample, .. } => Some(counterexample.clone()),
                    _ => None,
                })
                .collect(),
        };
        (report, side)
    }

    /// Per-layer metrics of the run: every layer's mean self time per
    /// operation, counters per operation, store ratios, and the
    /// unattributed remainder.
    #[must_use]
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let layers = self.trace.layers();
        let c = &self.counters;
        let ops = layers.ops.max(1) as f64;
        let mut out: Vec<(String, f64)> = IN_PROCESS_LAYERS
            .iter()
            .map(|l| (format!("{l}_ms"), layers.ms_per_op(l)))
            .collect();
        for name in [
            "core.composed_latches",
            "core.verdicts_reused",
            "core.persist.journal_bytes",
            "core.persist.recovered_records",
            "tsys.coi_latches_dropped",
            "bmc.clauses",
            "bmc.frames",
            "sat.eliminated_vars",
            "sat.subsumed",
            "sat.solver_calls",
            "sat.conflicts",
            "sat.propagations",
            "sat.decisions",
            "sat.learnt_imported",
        ] {
            out.push((name.into(), c.get(name) / ops));
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.push((
            "core.store.hit_ratio".into(),
            ratio(c.get("core.cache_hits"), c.get("core.obligations")),
        ));
        out.push((
            "core.store.cone_hit_ratio".into(),
            ratio(c.get("store.cone_hits"), c.get("store.cone_lookups")),
        ));
        out.push(("unattributed_ms".into(), layers.ms_per_op(UNATTRIBUTED)));
        out.push(("unattributed_frac".into(), layers.unattributed_frac()));
        out
    }
}

/// The functions the scheduler ran internally, re-run on the side.
struct SideWork {
    sched: usize,
    /// Whether the scheduler hashed the design (it does when a store is
    /// attached).
    hashed: bool,
    /// Every obligation's counterexample: each was replayed on the
    /// simulator before it was reported or served.
    cexes: Vec<Counterexample>,
}

impl SideWork {
    fn run(self, trace: &mut Trace, composed: &TransitionSystem, pool: &ExprPool) -> u64 {
        if self.hashed {
            let t = Instant::now();
            std::hint::black_box(design_hash(composed, pool));
            trace.probe("core.hash", t, self.sched);
        }
        let mut failed = 0;
        for cex in &self.cexes {
            let t = Instant::now();
            if !cex.replay(composed, pool) {
                failed += 1;
            }
            trace.probe("bmc.replay", t, self.sched);
        }
        failed
    }
}

/// Per-operation counters summed over a run.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Folds one scheduler report in.
    pub fn add_report(&mut self, r: &ParallelVerifyReport, composed_latches: usize) {
        let a = &r.aggregate;
        self.add("core.composed_latches", composed_latches as f64);
        self.add("core.obligations", r.obligations.len() as f64);
        self.add("core.cache_hits", r.cache_hits as f64);
        self.add("core.verdicts_reused", a.verdicts_reused as f64);
        self.add("tsys.coi_latches_dropped", a.coi_latches_dropped as f64);
        self.add("bmc.clauses", a.clauses as f64);
        self.add("bmc.frames", a.frames_encoded as f64);
        self.add("sat.eliminated_vars", a.solver.eliminated_vars as f64);
        self.add("sat.subsumed", a.solver.subsumed as f64);
        self.add("sat.solver_calls", a.solver_calls as f64);
        self.add("sat.conflicts", a.solver.conflicts as f64);
        self.add("sat.propagations", a.solver.propagations as f64);
        self.add("sat.decisions", a.solver.decisions as f64);
        self.add("sat.learnt_imported", a.solver.learnt_imported as f64);
    }

    /// Folds a store's counters in after an operation ends.
    pub fn add_store(&mut self, s: &ArtifactStore) {
        self.add("store.cone_hits", s.cone_hits() as f64);
        self.add(
            "store.cone_lookups",
            (s.cone_hits() + s.cone_misses()) as f64,
        );
        self.add(
            "core.persist.recovered_records",
            s.recovered_records() as f64,
        );
        let journal = s
            .stats_json()
            .get("journal_bytes")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        self.add("core.persist.journal_bytes", journal as f64);
    }
}

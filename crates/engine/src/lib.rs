//! The reusable A-QED verification engine.
//!
//! One layer below the CLI and the `aqed-serve` daemon: a pure
//! `VerifyRequest -> VerifyOutcome` API that owns everything a
//! verification run needs — catalog lookup, monitor construction and
//! composition, budget assembly, backend dispatch, the governed
//! obligation scheduler, and report assembly. Frontends stay thin: the
//! CLI parses flags into a [`VerifyRequest`] and prints the outcome;
//! the server queues requests and streams progress.
//!
//! An [`Engine`] optionally carries a cross-request
//! [`aqed_core::ArtifactStore`]: a long-lived process
//! (daemon, warm CI loop) constructs one engine and every request
//! through it shares definitive verdicts, each keyed by the content
//! hash of one obligation's COI slice. A fresh engine per run
//! ([`Engine::new`]) behaves exactly like the pre-engine CLI wiring.

use aqed_bmc::BmcOptions;
use aqed_core::{
    verify_obligations_governed, AqedHarness, ArtifactStore, Budget, ParallelVerifyReport,
    RunContext, ScheduleOptions, StopHandle,
};
use aqed_designs::{all_cases, BugCase};
use aqed_expr::ExprPool;
use aqed_obs::json::Json;
use aqed_sat::{PortfolioBackend, Solver};
use aqed_tsys::TransitionSystem;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Which SAT backend a request drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The in-process CDCL solver.
    #[default]
    Cdcl,
    /// A portfolio of diversified CDCL solvers racing per solve call
    /// ([`VerifyRequest::portfolio_workers`] sets the width).
    Portfolio,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Cdcl => "cdcl",
            BackendKind::Portfolio => "portfolio",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cdcl" => Ok(BackendKind::Cdcl),
            "portfolio" => Ok(BackendKind::Portfolio),
            other => Err(format!(
                "unknown backend '{other}' (expected 'cdcl' or 'portfolio')"
            )),
        }
    }
}

/// Everything that defines one verification run: the design (a catalog
/// case id plus variant), the A-QED/BMC configuration, the budgets and
/// the backend. The JSON codec ([`VerifyRequest::to_json`] /
/// [`VerifyRequest::from_json`]) is the `aqed-serve` wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRequest {
    /// Catalog case id (see `aqed list`).
    pub case: String,
    /// Verify the healthy variant instead of the buggy one.
    pub healthy: bool,
    /// Override the catalog's BMC bound.
    pub bound: Option<usize>,
    /// Worker threads for the obligation scheduler.
    pub jobs: usize,
    /// SAT backend to drive.
    pub backend: BackendKind,
    /// Race width for the portfolio backend (ignored otherwise).
    pub portfolio_workers: usize,
    /// Wall-clock deadline for the whole run.
    pub timeout: Option<Duration>,
    /// Conflict budget per solver call (retried with doubled budget up
    /// to the scheduler's attempt cap).
    pub conflict_budget: Option<u64>,
    /// Cancel remaining obligations once one finds a bug.
    pub fail_fast: bool,
    /// Let the solver run SatELite-style CNF preprocessing passes, each
    /// once search has spent more than the pass costs.
    pub preprocess: bool,
    /// Slice each obligation to the cone of influence of its bad.
    pub coi: bool,
}

impl VerifyRequest {
    /// A request for `case` with the same defaults as the CLI flags.
    #[must_use]
    pub fn new(case: impl Into<String>) -> Self {
        VerifyRequest {
            case: case.into(),
            healthy: false,
            bound: None,
            jobs: 1,
            backend: BackendKind::default(),
            portfolio_workers: 4,
            timeout: None,
            conflict_budget: None,
            fail_fast: false,
            preprocess: true,
            coi: true,
        }
    }

    /// Serializes the request as a JSON object (the server wire format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<u64>| v.map_or(Json::Null, Json::num);
        Json::obj(vec![
            ("case", Json::Str(self.case.clone())),
            ("healthy", Json::Bool(self.healthy)),
            ("bound", opt_num(self.bound.map(|b| b as u64))),
            ("jobs", Json::num(self.jobs as u64)),
            ("backend", Json::Str(self.backend.to_string())),
            (
                "portfolio_workers",
                Json::num(self.portfolio_workers as u64),
            ),
            (
                "timeout_secs",
                self.timeout
                    .map_or(Json::Null, |d| Json::Num(d.as_secs_f64())),
            ),
            ("conflict_budget", opt_num(self.conflict_budget)),
            ("fail_fast", Json::Bool(self.fail_fast)),
            ("preprocess", Json::Bool(self.preprocess)),
            ("coi", Json::Bool(self.coi)),
        ])
    }

    /// Parses a request from its JSON object form. Absent fields take
    /// the [`VerifyRequest::new`] defaults; only `case` is required.
    /// Unknown fields are ignored, so an older client's `warm_start` or
    /// `clause_sharing` still decodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let case = v
            .get("case")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string 'case' field".to_string())?;
        let mut req = VerifyRequest::new(case);
        if let Some(b) = v.get("healthy") {
            req.healthy = b.as_bool().ok_or("'healthy' must be a bool")?;
        }
        match v.get("bound") {
            None | Some(Json::Null) => {}
            Some(b) => {
                req.bound = Some(b.as_u64().ok_or("'bound' must be a number")? as usize);
            }
        }
        if let Some(j) = v.get("jobs") {
            req.jobs = (j.as_u64().ok_or("'jobs' must be a number")? as usize).max(1);
        }
        if let Some(b) = v.get("backend") {
            req.backend = b.as_str().ok_or("'backend' must be a string")?.parse()?;
        }
        if let Some(w) = v.get("portfolio_workers") {
            req.portfolio_workers =
                (w.as_u64().ok_or("'portfolio_workers' must be a number")? as usize).max(1);
        }
        match v.get("timeout_secs") {
            None | Some(Json::Null) => {}
            Some(t) => {
                let secs = t.as_f64().ok_or("'timeout_secs' must be a number")?;
                let timeout = Duration::try_from_secs_f64(secs)
                    .ok()
                    .filter(|d| !d.is_zero())
                    .ok_or("'timeout_secs' must be positive and representable")?;
                req.timeout = Some(timeout);
            }
        }
        match v.get("conflict_budget") {
            None | Some(Json::Null) => {}
            Some(c) => {
                req.conflict_budget = Some(c.as_u64().ok_or("'conflict_budget' must be a number")?);
            }
        }
        if let Some(f) = v.get("fail_fast") {
            req.fail_fast = f.as_bool().ok_or("'fail_fast' must be a bool")?;
        }
        if let Some(p) = v.get("preprocess") {
            req.preprocess = p.as_bool().ok_or("'preprocess' must be a bool")?;
        }
        if let Some(c) = v.get("coi") {
            req.coi = c.as_bool().ok_or("'coi' must be a bool")?;
        }
        Ok(req)
    }
}

/// Why the engine could not run a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The case id is not in the catalog.
    UnknownCase(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownCase(id) => {
                write!(f, "unknown case '{id}'; try `aqed list`")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of one engine run: the merged report plus the composed
/// system and pool it was produced against, so frontends can render
/// witnesses (VCD, BTOR2) without rebuilding the design.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// The scheduler's merged report.
    pub report: ParallelVerifyReport,
    /// The composed design+monitor system the run checked.
    pub composed: TransitionSystem,
    /// The expression pool `composed` (and any counterexample trace)
    /// lives in.
    pub pool: ExprPool,
}

impl VerifyOutcome {
    /// The CLI exit taxonomy for this outcome: 0 clean, 1 bug,
    /// 2 inconclusive / errored / degraded.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        self.report.exit_code()
    }
}

/// The verification engine. Stateless per request except for the
/// optional shared [`ArtifactStore`]; an `Engine` is `Send + Sync` and
/// may serve concurrent requests.
#[derive(Debug, Default)]
pub struct Engine {
    artifacts: Option<Arc<ArtifactStore>>,
}

impl Engine {
    /// An engine without a cross-request cache: every run is cold.
    #[must_use]
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine whose runs share `store`: a definitive verdict for an
    /// obligation's COI slice answers every later request containing
    /// the same slice, whether the design is unchanged or was edited
    /// outside that cone.
    #[must_use]
    pub fn with_artifacts(store: Arc<ArtifactStore>) -> Self {
        Engine {
            artifacts: Some(store),
        }
    }

    /// An engine backed by a durable [`ArtifactStore`] rooted at `dir`:
    /// verdicts recovered from previous processes warm this one, and
    /// each run's new facts are flushed to disk when it ends.
    ///
    /// # Errors
    ///
    /// Propagates real I/O failures from opening the store directory;
    /// on-disk corruption is tolerated (recovery truncates), not an
    /// error.
    pub fn with_persistent_store(dir: impl AsRef<std::path::Path>) -> std::io::Result<Engine> {
        Ok(Engine::with_artifacts(Arc::new(ArtifactStore::open(dir)?)))
    }

    /// The shared artifact store, if this engine carries one.
    #[must_use]
    pub fn artifacts(&self) -> Option<&Arc<ArtifactStore>> {
        self.artifacts.as_ref()
    }

    /// Runs one request to completion.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownCase`] when the case id is not catalogued.
    pub fn verify(&self, req: &VerifyRequest) -> Result<VerifyOutcome, EngineError> {
        self.verify_inner(req, None, None)
    }

    /// [`Engine::verify`] under an external stop handle: tripping
    /// `stop` (Ctrl-C, a client cancel) drains the run through the
    /// normal `Inconclusive {reason: Cancelled}` taxonomy.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownCase`] when the case id is not catalogued.
    pub fn verify_cancellable(
        &self,
        req: &VerifyRequest,
        stop: &StopHandle,
    ) -> Result<VerifyOutcome, EngineError> {
        self.verify_inner(req, Some(stop), None)
    }

    /// [`Engine::verify`] with optional cancellation and a shared
    /// [`JobMeter`](aqed_obs::JobMeter) carrying live progress only
    /// (obligations done out of total, mid-solve conflicts), so a
    /// concurrent reader such as a heartbeat thread can watch the job
    /// while it runs. Counters and layer times are in the returned
    /// report's `aggregate`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownCase`] when the case id is not catalogued.
    pub fn verify_metered(
        &self,
        req: &VerifyRequest,
        stop: Option<&StopHandle>,
        meter: Option<Arc<aqed_obs::JobMeter>>,
    ) -> Result<VerifyOutcome, EngineError> {
        self.verify_inner(req, stop, meter)
    }

    fn verify_inner(
        &self,
        req: &VerifyRequest,
        stop: Option<&StopHandle>,
        meter: Option<Arc<aqed_obs::JobMeter>>,
    ) -> Result<VerifyOutcome, EngineError> {
        let case = find_case(&req.case)?;
        let mut pool = ExprPool::new();
        let lca = if req.healthy {
            (case.build_healthy)(&mut pool)
        } else {
            (case.build_buggy)(&mut pool)
        };
        let mut harness = AqedHarness::new(&lca);
        if let Some(fc) = &case.fc {
            harness = harness.with_fc(fc.clone());
        }
        if let Some(rb) = &case.rb {
            harness = harness.with_rb(*rb);
        }
        // Build once so the counterexample and any exported model share
        // one variable space, then run the obligation scheduler against
        // the composed system.
        let (composed, _) = harness.build(&mut pool);
        let bound = req.bound.unwrap_or(case.bmc_bound);
        let mut budget = Budget::unlimited();
        if let Some(t) = req.timeout {
            budget = budget.with_timeout(t);
        }
        let mut options = BmcOptions::default()
            .with_max_bound(bound)
            .with_budget(budget)
            .with_preprocess(req.preprocess)
            .with_coi(req.coi)
            .with_portfolio(req.portfolio_workers);
        options.conflict_budget = req.conflict_budget;
        let sched = ScheduleOptions::default()
            .with_jobs(req.jobs)
            .with_fail_fast(req.fail_fast);
        let ctx = RunContext {
            artifacts: self.artifacts.clone(),
            stop: stop.cloned(),
            meter,
        };
        let report = match req.backend {
            BackendKind::Cdcl => {
                verify_obligations_governed::<Solver>(&composed, &pool, &options, &sched, &ctx)
            }
            BackendKind::Portfolio => verify_obligations_governed::<PortfolioBackend>(
                &composed, &pool, &options, &sched, &ctx,
            ),
        };
        // Make this run's freshly donated facts durable before the
        // verdict is reported: a persistent store then loses at most
        // the window of a run killed mid-flight. Flush failure must not
        // invalidate a computed verdict — it only costs warmth.
        if let Some(store) = &self.artifacts {
            let _ = store.flush();
        }
        Ok(VerifyOutcome {
            report,
            composed,
            pool,
        })
    }
}

/// Looks a case up in the catalog.
///
/// # Errors
///
/// [`EngineError::UnknownCase`] when the id is not catalogued.
pub fn find_case(id: &str) -> Result<BugCase, EngineError> {
    all_cases()
        .into_iter()
        .find(|c| c.id == id)
        .ok_or_else(|| EngineError::UnknownCase(id.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqed_core::CheckOutcome;

    #[test]
    fn backend_kind_round_trips() {
        for kind in [BackendKind::Cdcl, BackendKind::Portfolio] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        assert!("z4".parse::<BackendKind>().is_err());
    }

    #[test]
    fn request_json_round_trips() {
        let mut req = VerifyRequest::new("aes_v1");
        req.healthy = true;
        req.bound = Some(12);
        req.jobs = 4;
        req.backend = BackendKind::Portfolio;
        req.portfolio_workers = 2;
        req.timeout = Some(Duration::from_secs(30));
        req.conflict_budget = Some(5000);
        req.fail_fast = true;
        req.preprocess = false;
        req.coi = false;
        let back = VerifyRequest::from_json(&req.to_json()).expect("round trip");
        assert_eq!(back, req);
        // Defaults: a minimal object is a default request.
        let minimal = aqed_obs::json::parse(r#"{"case":"aes_v1"}"#).unwrap();
        assert_eq!(
            VerifyRequest::from_json(&minimal).expect("minimal"),
            VerifyRequest::new("aes_v1")
        );
        // An old client's `warm_start` and `clause_sharing` fields are
        // ignored, not rejected.
        for legacy in [
            r#"{"case":"aes_v1","warm_start":false}"#,
            r#"{"case":"aes_v1","clause_sharing":false}"#,
        ] {
            let legacy = aqed_obs::json::parse(legacy).unwrap();
            assert_eq!(
                VerifyRequest::from_json(&legacy).expect("legacy"),
                VerifyRequest::new("aes_v1")
            );
        }
        // A removed backend is rejected, naming the accepted ones.
        let dimacs = aqed_obs::json::parse(r#"{"case":"aes_v1","backend":"dimacs"}"#).unwrap();
        let err = VerifyRequest::from_json(&dimacs).unwrap_err();
        assert!(
            err.contains("dimacs") && err.contains("cdcl") && err.contains("portfolio"),
            "{err}"
        );
        // Missing case: rejected.
        let empty = aqed_obs::json::parse("{}").unwrap();
        assert!(VerifyRequest::from_json(&empty).is_err());
        // Ill-typed field: rejected.
        let bad = aqed_obs::json::parse(r#"{"case":"x","jobs":"many"}"#).unwrap();
        assert!(VerifyRequest::from_json(&bad).is_err());
    }

    #[test]
    fn unknown_case_is_a_clean_error() {
        let engine = Engine::new();
        let err = engine.verify(&VerifyRequest::new("nope")).unwrap_err();
        assert_eq!(err, EngineError::UnknownCase("nope".into()));
        assert!(err.to_string().contains("unknown case"));
    }

    #[test]
    fn engine_runs_a_small_case_end_to_end() {
        let engine = Engine::new();
        let mut req = VerifyRequest::new("dataflow_fifo_sizing");
        req.bound = Some(6);
        req.healthy = true;
        let outcome = engine.verify(&req).expect("catalogued case");
        assert!(
            matches!(outcome.report.outcome, CheckOutcome::Clean { bound: 6 }),
            "{}",
            outcome.report
        );
        assert_eq!(outcome.exit_code(), 0);
        assert_eq!(outcome.report.cache_hits, 0);
        // The composed system is returned for witness rendering.
        assert!(!outcome.composed.bads().is_empty());
    }

    #[test]
    fn pre_cancelled_run_exits_through_the_cancelled_taxonomy() {
        let engine = Engine::new();
        let stop = StopHandle::new();
        stop.request_stop();
        let mut req = VerifyRequest::new("dataflow_fifo_sizing");
        req.bound = Some(6);
        let outcome = engine
            .verify_cancellable(&req, &stop)
            .expect("catalogued case");
        assert!(
            matches!(
                outcome.report.outcome,
                CheckOutcome::Inconclusive {
                    reason: aqed_core::StopReason::Cancelled,
                    ..
                }
            ),
            "{}",
            outcome.report
        );
        assert_eq!(outcome.exit_code(), 2);
    }

    #[test]
    fn concurrent_portfolio_requests_race_at_their_own_width() {
        // A barrier releases both requests together, so each run's
        // backends are built while the other request is in flight.
        let engine = Engine::new();
        let barrier = std::sync::Barrier::new(2);
        let run = |workers: usize| {
            let mut req = VerifyRequest::new("dataflow_fifo_sizing");
            req.bound = Some(6);
            req.backend = BackendKind::Portfolio;
            req.portfolio_workers = workers;
            barrier.wait();
            engine.verify(&req).expect("catalogued case").report
        };
        let (narrow, wide) = std::thread::scope(|s| {
            let narrow = s.spawn(|| run(1));
            let wide = s.spawn(|| run(3));
            (
                narrow.join().expect("width 1"),
                wide.join().expect("width 3"),
            )
        });
        assert_eq!(narrow.aggregate.solver.wasted_conflicts, 0);
        for (n, w) in narrow.obligations.iter().zip(&wide.obligations) {
            assert_eq!(n.stats.solver.portfolio_winner, None, "width 1 never races");
            if w.stats.solver_calls > 0 {
                assert!(w.stats.solver.portfolio_winner.is_some(), "width 3 races");
            }
        }
    }

    #[test]
    fn warm_engine_answers_repeat_requests_without_solving() {
        let engine = Engine::with_artifacts(Arc::new(ArtifactStore::new()));
        let mut req = VerifyRequest::new("dataflow_fifo_sizing");
        req.bound = Some(6);
        let cold = engine.verify(&req).expect("cold run");
        assert_eq!(cold.report.cache_hits, 0);
        let warm = engine.verify(&req).expect("warm run");
        // Every obligation is served from the store: no solver calls,
        // no preprocessing, identical verdict.
        assert_eq!(warm.report.cache_hits, warm.report.obligations.len() as u64);
        assert_eq!(warm.report.aggregate.solver_calls, 0);
        assert_eq!(warm.report.aggregate.solver.preprocess_micros, 0);
        assert_eq!(cold.exit_code(), warm.exit_code());
        assert_eq!(
            format!("{:?}", cold.report.outcome),
            format!("{:?}", warm.report.outcome)
        );
    }
}

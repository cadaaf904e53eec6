//! Acceptance tests for resource-governed verification:
//!
//! * a deliberately hard obligation (SAT-factoring a 62-bit semiprime
//!   through a 32×32 multiplier) under a tiny deadline returns
//!   `Inconclusive {reason: Deadline}` promptly, while its trivial
//!   sibling obligation still completes clean;
//! * a worker whose SAT backend panics degrades only its own obligation
//!   to `Errored` — the other obligations and the process survive;
//! * an obligation retried after its conflict budget ran out resumes the
//!   stalled solver: one backend, each frame encoded once, each conflict
//!   counted once.

use aqed_bmc::BmcOptions;
use aqed_core::{
    verify_obligations_scheduled, Budget, CheckOutcome, ScheduleOptions, StopReason, BAD_FC,
    BAD_RB_STARVATION,
};
use aqed_expr::ExprPool;
use aqed_sat::{ArmedBudget, Lit, SatBackend, SolveResult, Solver, SolverStats, Var};
use aqed_tsys::TransitionSystem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Two 31-bit primes whose product the SAT solver would have to factor.
const P: u64 = 2_147_483_647; // 2^31 - 1 (Mersenne)
const Q: u64 = 2_147_483_629;

/// Builds a system with one computationally hard bad (find x, y > 1 with
/// x·y = P·Q — i.e. factor a semiprime) and one trivially clean bad.
/// The bads carry A-QED monitor names so the scheduler can classify
/// them; the hardness is what matters here, not the monitor semantics.
fn factoring_system(pool: &mut ExprPool) -> TransitionSystem {
    let mut ts = TransitionSystem::new("factoring");
    let x = ts.add_input(pool, "x", 32);
    let y = ts.add_input(pool, "y", 32);
    let xe = pool.var_expr(x);
    let ye = pool.var_expr(y);
    let xw = pool.zext(xe, 64);
    let yw = pool.zext(ye, 64);
    let prod = pool.mul(xw, yw);
    let semiprime = pool.lit(64, P * Q);
    let hit = pool.eq(prod, semiprime);
    let one32 = pool.lit(32, 1);
    let x_nontrivial = pool.ugt(xe, one32);
    let y_nontrivial = pool.ugt(ye, one32);
    let nontrivial = pool.and(x_nontrivial, y_nontrivial);
    let factored = pool.and(hit, nontrivial);
    ts.add_bad(BAD_FC, factored);
    let never = pool.false_();
    ts.add_bad(BAD_RB_STARVATION, never);
    ts.validate(pool).expect("factoring system must validate");
    ts
}

#[test]
fn deadline_bounds_hard_obligation_while_sibling_completes() {
    let mut pool = ExprPool::new();
    let ts = factoring_system(&mut pool);
    let deadline = Duration::from_millis(300);
    // Preprocessing off: bounded variable elimination exposes enough of
    // this semiprime's structure (both factors are near-all-ones Mersenne
    // patterns) that the solver factors it inside the deadline, and the
    // test needs an instance that genuinely exhausts the budget.
    let options = BmcOptions::default()
        .with_max_bound(30)
        .with_preprocess(false)
        .with_budget(Budget::unlimited().with_timeout(deadline));
    let sched = ScheduleOptions::default().with_jobs(2);
    let start = Instant::now();
    let report = verify_obligations_scheduled::<Solver>(&ts, &pool, &options, &sched);
    let elapsed = start.elapsed();

    // The factoring obligation must give up on the deadline, not hang:
    // the whole run finishes well within a small multiple of the
    // requested timeout (generous slack for debug builds and CI noise).
    assert!(
        elapsed < deadline * 2 + Duration::from_millis(700),
        "run took {elapsed:?} against a {deadline:?} deadline"
    );
    let hard = &report.obligations[0];
    assert_eq!(hard.obligation.bad_name, BAD_FC);
    match hard.outcome {
        CheckOutcome::Inconclusive { reason, .. } => {
            assert_eq!(reason, StopReason::Deadline, "{report}")
        }
        ref other => panic!("hard obligation should be deadline-bounded, got {other:?}"),
    }
    // The trivial sibling is unaffected by its neighbour's struggle.
    let sibling = &report.obligations[1];
    assert_eq!(sibling.obligation.bad_name, BAD_RB_STARVATION);
    assert!(
        matches!(sibling.outcome, CheckOutcome::Clean { bound: 30 }),
        "sibling should complete clean, got {:?}",
        sibling.outcome
    );
    assert!(!report.degraded);
    // Merged verdict surfaces the inconclusive, never a fake clean.
    assert!(
        matches!(
            report.outcome,
            CheckOutcome::Inconclusive {
                reason: StopReason::Deadline,
                ..
            }
        ),
        "{report}"
    );
}

/// A backend whose first-constructed instance in this process panics on
/// every solve; later instances behave like the real solver.
struct PanickyBackend {
    inner: Solver,
    poisoned: bool,
}

impl Default for PanickyBackend {
    fn default() -> Self {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static INSTANCES: AtomicUsize = AtomicUsize::new(0);
        PanickyBackend {
            inner: Solver::new(),
            poisoned: INSTANCES.fetch_add(1, Ordering::Relaxed) == 0,
        }
    }
}

impl SatBackend for PanickyBackend {
    fn name(&self) -> &'static str {
        "panicky"
    }
    fn new_var(&mut self) -> Var {
        self.inner.new_var()
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.inner.add_clause(lits.iter().copied())
    }
    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.poisoned {
            panic!("injected backend fault");
        }
        self.inner.solve_with(assumptions)
    }
    fn value(&self, l: Lit) -> Option<bool> {
        self.inner.value(l)
    }
    fn stats(&self) -> SolverStats {
        self.inner.stats()
    }
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }
    fn num_clauses(&self) -> usize {
        self.inner.num_clauses()
    }
    fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.inner.set_conflict_budget(budget);
    }
    fn set_budget(&mut self, budget: ArmedBudget) {
        self.inner.set_budget(budget);
    }
    fn stop_reason(&self) -> Option<StopReason> {
        self.inner.stop_reason()
    }
}

#[test]
fn panicking_backend_degrades_only_its_own_obligation() {
    use aqed_core::{AqedHarness, FcConfig, RbConfig};
    use aqed_hls::{synthesize, AccelSpec, SynthOptions};

    let mut pool = ExprPool::new();
    let spec = AccelSpec::new("ident", 2, 6, 6).with_latency(2);
    let lca = synthesize(&spec, &mut pool, SynthOptions::default(), |_pool, _a, d| d);
    // jobs = 1 makes the claim order deterministic: obligation 0 gets the
    // first PanickyBackend instance — the one that panics.
    let sched = ScheduleOptions::default();
    let report = AqedHarness::new(&lca)
        .with_fc(FcConfig::default())
        .with_rb(RbConfig::default())
        .verify_parallel_scheduled::<PanickyBackend>(&mut pool, 6, &sched);

    assert!(report.degraded, "{report}");
    let errored: Vec<usize> = report
        .obligations
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.outcome, CheckOutcome::Errored { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(errored, vec![0], "exactly the first obligation degrades");
    match &report.obligations[0].outcome {
        CheckOutcome::Errored { message } => {
            assert!(
                message.contains("injected backend fault"),
                "panic payload must be preserved: {message}"
            );
        }
        other => unreachable!("{other:?}"),
    }
    // Siblings ran on healthy backend instances and decided normally.
    for r in &report.obligations[1..] {
        assert!(
            matches!(r.outcome, CheckOutcome::Clean { .. }),
            "sibling must stay decided: {:?}",
            r.outcome
        );
    }
    // The merged verdict reports the degradation loudly instead of
    // claiming a clean design.
    assert!(
        matches!(report.outcome, CheckOutcome::Errored { .. }),
        "{report}"
    );
}

/// Backends built, variables created and conflicts spent by every
/// [`CountingBackend`] in this process; only one test uses it.
static COUNTED_BACKENDS: AtomicU64 = AtomicU64::new(0);
static COUNTED_VARS: AtomicU64 = AtomicU64::new(0);
static COUNTED_CONFLICTS: AtomicU64 = AtomicU64::new(0);

/// The CDCL solver, counting what the scheduler asks of it.
struct CountingBackend {
    inner: Solver,
}

impl Default for CountingBackend {
    fn default() -> Self {
        COUNTED_BACKENDS.fetch_add(1, Ordering::Relaxed);
        CountingBackend {
            inner: Solver::new(),
        }
    }
}

impl Drop for CountingBackend {
    fn drop(&mut self) {
        COUNTED_CONFLICTS.fetch_add(self.inner.stats().conflicts, Ordering::Relaxed);
    }
}

impl SatBackend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn new_var(&mut self) -> Var {
        COUNTED_VARS.fetch_add(1, Ordering::Relaxed);
        self.inner.new_var()
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.inner.add_clause(lits.iter().copied())
    }
    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.inner.solve_with(assumptions)
    }
    fn value(&self, l: Lit) -> Option<bool> {
        self.inner.value(l)
    }
    fn stats(&self) -> SolverStats {
        self.inner.stats()
    }
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }
    fn num_clauses(&self) -> usize {
        self.inner.num_clauses()
    }
    fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.inner.set_conflict_budget(budget);
    }
    fn set_budget(&mut self, budget: ArmedBudget) {
        self.inner.set_budget(budget);
    }
    fn stop_reason(&self) -> Option<StopReason> {
        self.inner.stop_reason()
    }
}

/// `x > 1 ∧ y > 1 ∧ x·y = n` over a double-width product: unsatisfiable
/// for a prime `n`, after search that grows with `width`.
fn factors(
    pool: &mut ExprPool,
    ts: &mut TransitionSystem,
    name: &str,
    width: u32,
    n: u64,
) -> aqed_expr::ExprRef {
    let x = ts.add_input(pool, format!("{name}_x"), width);
    let y = ts.add_input(pool, format!("{name}_y"), width);
    let xe = pool.var_expr(x);
    let ye = pool.var_expr(y);
    let xw = pool.zext(xe, 2 * width);
    let yw = pool.zext(ye, 2 * width);
    let prod = pool.mul(xw, yw);
    let target = pool.lit(2 * width, n);
    let hit = pool.eq(prod, target);
    let one = pool.lit(width, 1);
    let xg = pool.ugt(xe, one);
    let yg = pool.ugt(ye, one);
    pool.and_all([hit, xg, yg])
}

/// One bad that poses a cheap query at frame 0, an expensive one at
/// frame 1 (both unsatisfiable) and is statically false at frames 2
/// and 3: a free-running tick register selects the query.
fn two_step_system(pool: &mut ExprPool) -> TransitionSystem {
    let mut ts = TransitionSystem::new("two_step");
    let cheap = factors(pool, &mut ts, "small", 4, 13);
    let hard = factors(pool, &mut ts, "large", 10, 1021);
    let t = ts.add_register(pool, "t", 2, 0);
    let te = pool.var_expr(t);
    let one = pool.lit(2, 1);
    let next = pool.add(te, one);
    ts.set_next(t, next);
    let zero = pool.lit(2, 0);
    let at0 = pool.eq(te, zero);
    let at1 = pool.eq(te, one);
    let step0 = pool.and(at0, cheap);
    let step1 = pool.and(at1, hard);
    let bad = pool.or(step0, step1);
    ts.add_bad(BAD_FC, bad);
    ts.validate(pool).expect("two-step system must validate");
    ts
}

#[test]
fn budget_retry_resumes_one_backend_and_encodes_each_frame_once() {
    let mut pool = ExprPool::new();
    let ts = two_step_system(&mut pool);
    let options = BmcOptions::default().with_max_bound(3);
    let cold =
        verify_obligations_scheduled::<Solver>(&ts, &pool, &options, &ScheduleOptions::default());
    assert!(
        matches!(cold.outcome, CheckOutcome::Clean { bound: 3 }),
        "{cold}"
    );

    // 16 conflicts per call cover the cheap frame but not the hard one,
    // so attempts stall at frame 1 until the doubled budget suffices.
    let budgeted = options.clone().with_conflict_budget(Some(16));
    let sched = ScheduleOptions::default().with_max_attempts(12);
    let report = verify_obligations_scheduled::<CountingBackend>(&ts, &pool, &budgeted, &sched);
    let ob = &report.obligations[0];
    assert!(
        matches!(report.outcome, CheckOutcome::Clean { bound: 3 }),
        "{report}"
    );
    assert!(ob.attempts > 1, "the budget must force a retry");
    assert_eq!(
        COUNTED_BACKENDS.load(Ordering::Relaxed),
        1,
        "one backend for all attempts"
    );
    assert_eq!(
        COUNTED_VARS.load(Ordering::Relaxed),
        cold.aggregate.variables as u64,
        "each frame is encoded once, as in the unbudgeted run"
    );
    assert_eq!(ob.stats.variables, cold.aggregate.variables);
    assert_eq!(
        ob.stats.solver.conflicts,
        COUNTED_CONFLICTS.load(Ordering::Relaxed),
        "each conflict is counted once"
    );
}

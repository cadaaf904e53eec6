//! Bounded model checking over transition systems.
//!
//! [`Bmc`] unrolls a [`TransitionSystem`] frame by frame, bit-blasts the
//! unrolled circuit into one incremental SAT instance, and checks each
//! *bad* property at every depth. Properties are activated through
//! assumption literals, so one solver instance (with all its learned
//! clauses) is reused across depths — the standard incremental-BMC
//! architecture that the A-QED paper relies on ("progress in BMC tools").
//!
//! On a satisfiable query the engine extracts a [`Counterexample`]: the
//! concrete per-cycle inputs and the initial values of uninitialised
//! registers, expressed over the *original* system variables so the trace
//! replays directly on the [`Simulator`].
//!
//! # Examples
//!
//! A counter that must never reach 5 — BMC finds the shortest witness:
//!
//! ```
//! use aqed_bmc::{Bmc, BmcOptions, BmcResult};
//! use aqed_tsys::TransitionSystem;
//! use aqed_expr::ExprPool;
//!
//! let mut p = ExprPool::new();
//! let mut ts = TransitionSystem::new("counter");
//! let en = ts.add_input(&mut p, "en", 1);
//! let c = ts.add_register(&mut p, "c", 4, 0);
//! let ce = p.var_expr(c);
//! let one = p.lit(4, 1);
//! let inc = p.add(ce, one);
//! let ene = p.var_expr(en);
//! let next = p.ite(ene, inc, ce);
//! ts.set_next(c, next);
//! let five = p.lit(4, 5);
//! let hit = p.eq(ce, five);
//! ts.add_bad("reaches_5", hit);
//!
//! let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(10));
//! match bmc.check(&ts, &mut p) {
//!     BmcResult::Counterexample(cex) => {
//!         assert_eq!(cex.bad_name, "reaches_5");
//!         assert_eq!(cex.depth, 5); // 5 enables needed
//!     }
//!     other => panic!("expected counterexample, got {other:?}"),
//! }
//! ```

mod witness;

pub use witness::to_btor2_witness;

// Re-exported so downstream crates can set budgets without a direct
// `aqed-sat` dependency.
pub use aqed_sat::{ArmedBudget, Budget, StopHandle, StopReason};

use aqed_bitblast::BitBlaster;
use aqed_bitvec::Bv;
use aqed_expr::{ExprPool, ExprRef, VarId};
use aqed_sat::{Lit, SatBackend, SolveResult, Solver, SolverStats};
use aqed_tsys::{coi_slice_cached, CoiCache, CoiSlice, Simulator, Trace, TransitionSystem};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a BMC run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmcOptions {
    /// Maximum unrolling depth (number of frames − 1). Frame `k` means
    /// the bad is evaluated after `k` transitions.
    pub max_bound: usize,
    /// Reuse one solver across depths (true, default) or re-encode from
    /// scratch per depth (false; ablation baseline).
    pub incremental: bool,
    /// Optional per-`check` conflict budget; exceeding it yields
    /// [`BmcResult::Unknown`].
    pub conflict_budget: Option<u64>,
    /// Resource budget (wall-clock deadline, effort caps) governing the
    /// whole run. Unlimited by default; armed when `check` starts. An
    /// externally armed budget (shared deadline, cancellation) can be
    /// passed to [`Bmc::check_under`] instead.
    pub budget: Budget,
    /// Slice the system to the cone of influence of the selected bads
    /// (plus all constraints) before unrolling (default true). Verdicts
    /// are unchanged; counterexamples are widened back to the full input
    /// set with zero values for sliced-away inputs.
    pub coi: bool,
    /// Let the SAT backend preprocess the CNF (subsumption, bounded
    /// variable elimination) once search has spent more than a pass
    /// costs (default true). Backends without a preprocessor ignore the
    /// request.
    pub preprocess: bool,
    /// Escalation hint forwarded to the backend via
    /// [`SatBackend::set_escalation_level`]: how many budget-exhausted
    /// retries preceded this run. `None` (default) leaves the backend's
    /// own policy untouched — the portfolio backend then races at full
    /// width on every solve. The obligation scheduler sets `Some(0)` on
    /// first attempts so easy obligations stay on one solver.
    pub escalation_level: Option<u32>,
    /// Race width forwarded to the backend via
    /// [`SatBackend::set_portfolio`] (default 4). Single-solver backends
    /// ignore it.
    pub portfolio_workers: usize,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            max_bound: 30,
            incremental: true,
            conflict_budget: None,
            budget: Budget::unlimited(),
            coi: true,
            preprocess: true,
            escalation_level: None,
            portfolio_workers: 4,
        }
    }
}

impl BmcOptions {
    /// Returns the options with the given maximum bound.
    #[must_use]
    pub fn with_max_bound(mut self, bound: usize) -> Self {
        self.max_bound = bound;
        self
    }

    /// Returns the options with incremental solving enabled or disabled.
    #[must_use]
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Returns the options with a conflict budget.
    #[must_use]
    pub fn with_conflict_budget(mut self, budget: Option<u64>) -> Self {
        self.conflict_budget = budget;
        self
    }

    /// Returns the options with a resource budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns the options with cone-of-influence reduction enabled or
    /// disabled.
    #[must_use]
    pub fn with_coi(mut self, coi: bool) -> Self {
        self.coi = coi;
        self
    }

    /// Returns the options with CNF preprocessing enabled or disabled.
    #[must_use]
    pub fn with_preprocess(mut self, preprocess: bool) -> Self {
        self.preprocess = preprocess;
        self
    }

    /// Returns the options with a backend escalation hint.
    #[must_use]
    pub fn with_escalation_level(mut self, level: Option<u32>) -> Self {
        self.escalation_level = level;
        self
    }

    /// Returns the options with a portfolio race width.
    #[must_use]
    pub fn with_portfolio(mut self, workers: usize) -> Self {
        self.portfolio_workers = workers;
        self
    }
}

/// Warm-start input for one incremental run (see
/// [`Bmc::set_warm_start`]).
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Frames `0..=skip_to` are already proven clean for the selected
    /// bads by a reused persisted verdict: they are still encoded, but
    /// their queries are not solved. The caller owns the soundness of
    /// the reused fact (content-addressed cone identity).
    pub skip_to: Option<usize>,
}

/// A concrete witness violating a bad property.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Name of the violated property.
    pub bad_name: String,
    /// Index of the violated property in [`TransitionSystem::bads`].
    pub bad_index: usize,
    /// Frame at which the property fired (0-based). The trace has
    /// `depth + 1` cycles: the violating evaluation happens in the last
    /// one.
    pub depth: usize,
    /// Per-cycle input assignments over the original input variables.
    pub trace: Trace,
    /// Concrete initial values chosen for uninitialised registers.
    pub initial_state: HashMap<VarId, Bv>,
}

impl Counterexample {
    /// Trace length in clock cycles (the paper's "CEX length").
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.depth + 1
    }

    /// Replays the counterexample on the concrete simulator and returns
    /// whether the reported bad property indeed fires at `depth`.
    /// A sound BMC engine always returns `true` here; the test suites use
    /// this as an end-to-end cross-check.
    #[must_use]
    pub fn replay(&self, ts: &TransitionSystem, pool: &ExprPool) -> bool {
        let mut sim = Simulator::with_state(ts, pool, &self.initial_state);
        for k in 0..=self.depth {
            let inputs: Vec<(VarId, Bv)> = self.trace.frame(k).to_vec();
            let rec = sim.step_with(ts, pool, &inputs);
            if k == self.depth {
                return rec.violated_bads.contains(&self.bad_index);
            }
        }
        false
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "counterexample to '{}' at depth {} ({} cycles)",
            self.bad_name,
            self.depth,
            self.cycles()
        )
    }
}

/// Outcome of a BMC run.
#[derive(Debug, Clone)]
pub enum BmcResult {
    /// A violation was found; the witness is the *shortest* within the
    /// explored depths (depths are explored in increasing order).
    Counterexample(Counterexample),
    /// No violation exists within `bound` transitions.
    NoCounterexample {
        /// The deepest bound fully checked.
        bound: usize,
    },
    /// A resource limit stopped the run at the given depth.
    Unknown {
        /// The depth being explored when the budget ran out.
        bound: usize,
        /// Which limit stopped the run.
        reason: StopReason,
    },
}

impl BmcResult {
    /// The counterexample, if any.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            BmcResult::Counterexample(cex) => Some(cex),
            _ => None,
        }
    }

    /// Whether the run proved the absence of violations up to its bound.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self, BmcResult::NoCounterexample { .. })
    }
}

/// Statistics of the most recent [`Bmc::check`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct BmcStats {
    /// Deepest frame encoded.
    pub frames_encoded: usize,
    /// Total SAT solver calls.
    pub solver_calls: u64,
    /// CNF clauses in the solver at the end of the run.
    pub clauses: usize,
    /// CNF variables in the solver at the end of the run.
    pub variables: usize,
    /// Wall-clock time of the whole check.
    pub elapsed: Duration,
    /// Cumulative statistics of the underlying SAT solver (conflicts,
    /// propagations, arena bytes, GC runs, …). Monolithic runs absorb
    /// every per-depth solver, so counters cover the whole run (and
    /// `arena_bytes` is the per-depth peak).
    pub solver: SolverStats,
    /// State variables kept by cone-of-influence reduction (all of them
    /// when COI is disabled).
    pub coi_latches_kept: usize,
    /// State variables sliced away by cone-of-influence reduction.
    pub coi_latches_dropped: usize,
    /// Persisted verdicts reused verbatim instead of being re-proven:
    /// counts whole-obligation cache hits and warm-start runs whose
    /// frame prefix was covered by a reused clean fact.
    pub verdicts_reused: u64,
    /// Wall-clock microseconds spent in cone-of-influence slicing.
    pub coi_micros: u64,
    /// Wall-clock microseconds spent unrolling frames into CNF.
    pub encode_micros: u64,
    /// Wall-clock microseconds spent in the per-depth SAT queries
    /// (including witness extraction). CNF
    /// preprocessing runs inside the solve, so this includes
    /// `solver.preprocess_micros`; the two timers nest.
    pub solve_micros: u64,
}

impl BmcStats {
    /// Folds another run's statistics into this one. Used when several
    /// per-obligation checks report as a single aggregate: counters add
    /// up, `frames_encoded` takes the deepest run, and `elapsed` becomes
    /// total solver time (which exceeds wall-clock under parallelism).
    pub fn absorb(&mut self, other: &BmcStats) {
        self.frames_encoded = self.frames_encoded.max(other.frames_encoded);
        self.solver_calls += other.solver_calls;
        self.clauses += other.clauses;
        self.variables += other.variables;
        self.elapsed += other.elapsed;
        self.solver.absorb(&other.solver);
        self.coi_latches_kept += other.coi_latches_kept;
        self.coi_latches_dropped += other.coi_latches_dropped;
        self.verdicts_reused += other.verdicts_reused;
        self.coi_micros += other.coi_micros;
        self.encode_micros += other.encode_micros;
        self.solve_micros += other.solve_micros;
    }
}

/// The bounded model checker, generic over the SAT backend it drives.
/// Create once per system with [`Bmc::new`] (CDCL backend) or
/// [`Bmc::with_backend`] (any [`SatBackend`]), then call [`Bmc::check`].
#[derive(Debug)]
pub struct Bmc<B: SatBackend = Solver> {
    options: BmcOptions,
    stats: BmcStats,
    /// Selected bad indices; `None` = all bads of the system.
    bad_filter: Option<Vec<usize>>,
    /// Shared COI support-fixpoint memo (see [`Bmc::set_coi_cache`]).
    coi_cache: Option<Arc<CoiCache>>,
    /// Warm-start input for the next incremental check, if any.
    warm: Option<WarmStart>,
    /// The incremental run the last check left stopped on its conflict
    /// budget; the next check resumes it.
    stalled: Option<Stalled<B>>,
}

impl Bmc<Solver> {
    /// Creates a checker for `ts` backed by the in-process CDCL solver.
    ///
    /// The system reference is only used for upfront sanity checks; pass
    /// the same system to [`Bmc::check`].
    ///
    /// # Panics
    ///
    /// Panics if the system has no bad properties.
    #[must_use]
    pub fn new(ts: &TransitionSystem, options: BmcOptions) -> Self {
        Bmc::with_backend(ts, options)
    }
}

impl<B: SatBackend> Bmc<B> {
    /// Creates a checker for `ts` using backend `B` (one fresh instance
    /// per encoding session, via `B::default()`).
    ///
    /// # Panics
    ///
    /// Panics if the system has no bad properties.
    #[must_use]
    pub fn with_backend(ts: &TransitionSystem, options: BmcOptions) -> Self {
        assert!(
            !ts.bads().is_empty(),
            "system '{}' has no bad properties to check",
            ts.name()
        );
        Bmc {
            options,
            stats: BmcStats::default(),
            bad_filter: None,
            coi_cache: None,
            warm: None,
            stalled: None,
        }
    }

    /// Sets the warm-start input for the next incremental check: frames
    /// covered by `warm.skip_to` are encoded but not solved. Monolithic
    /// mode ignores it.
    pub fn set_warm_start(&mut self, warm: WarmStart) {
        self.warm = Some(warm);
    }

    /// Sets the per-call conflict budget and the backend escalation hint
    /// ([`BmcOptions::conflict_budget`], [`BmcOptions::escalation_level`])
    /// for the following checks. A run stalled on its conflict budget
    /// resumes under the new values.
    pub fn set_effort(&mut self, conflict_budget: Option<u64>, escalation_level: Option<u32>) {
        self.options.conflict_budget = conflict_budget;
        self.options.escalation_level = escalation_level;
    }

    /// Installs a shared [`CoiCache`] so repeated checks (and sibling
    /// checkers of the same system — the obligation scheduler hands one
    /// cache to every job of a run) reuse the COI support fixpoint
    /// instead of re-slicing from scratch. The cache is bound to one
    /// system; see [`CoiCache`] for the contract.
    pub fn set_coi_cache(&mut self, cache: Arc<CoiCache>) {
        self.coi_cache = Some(cache);
    }

    /// Restricts checking to the named properties (default: all).
    ///
    /// # Panics
    ///
    /// Panics if a name does not exist in the system.
    pub fn select_bads(&mut self, ts: &TransitionSystem, names: &[&str]) {
        let idx: Vec<usize> = names
            .iter()
            .map(|n| {
                ts.bad_index(n)
                    .unwrap_or_else(|| panic!("no bad property named '{n}'"))
            })
            .collect();
        self.select_bad_indices(ts, &idx);
    }

    /// Restricts checking to the given bad indices (default: all). The
    /// obligation scheduler uses this to split a system's properties into
    /// independent jobs without going through names. Drops a stalled run.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn select_bad_indices(&mut self, ts: &TransitionSystem, indices: &[usize]) {
        for &i in indices {
            assert!(
                i < ts.bads().len(),
                "bad index {i} out of range (system has {})",
                ts.bads().len()
            );
        }
        self.bad_filter = Some(indices.to_vec());
        self.stalled = None;
    }

    /// Statistics of the most recent check.
    #[must_use]
    pub fn stats(&self) -> BmcStats {
        self.stats
    }

    fn bad_indices(&self, ts: &TransitionSystem) -> Vec<usize> {
        self.bad_filter
            .clone()
            .unwrap_or_else(|| (0..ts.bads().len()).collect())
    }
}

impl<B: SatBackend + Default> Bmc<B> {
    /// Runs BMC on `ts` (which must be validated and identical to the one
    /// passed to the constructor), exploring depths `0..=max_bound` in
    /// order and returning at the first violation.
    ///
    /// # Panics
    ///
    /// Panics if the system fails validation (call
    /// [`TransitionSystem::validate`] first for a proper error value).
    pub fn check(&mut self, ts: &TransitionSystem, pool: &mut ExprPool) -> BmcResult {
        let armed = ArmedBudget::arm(&self.options.budget);
        self.check_under(ts, pool, &armed)
    }

    /// Like [`Bmc::check`], but governed by an externally armed budget —
    /// the deadline keeps running across calls and cancellation through
    /// the budget's [`StopHandle`] is observed between and inside solver
    /// queries. The obligation scheduler uses this to share one deadline
    /// across many per-property runs.
    ///
    /// An incremental run stopped by its per-call conflict budget
    /// ([`StopReason::Conflicts`]) keeps its solver. The next check on
    /// this checker (same system and pool) re-solves the stalled frame's
    /// query under the effort then set ([`Bmc::set_effort`]) and goes on
    /// from there, with every learnt clause, activity score and
    /// preprocessing result intact. Any other result drops the solver.
    ///
    /// # Panics
    ///
    /// As for [`Bmc::check`].
    pub fn check_under(
        &mut self,
        ts: &TransitionSystem,
        pool: &mut ExprPool,
        armed: &ArmedBudget,
    ) -> BmcResult {
        self.check_inspecting(ts, pool, armed, |_| {})
    }

    /// Like [`Bmc::check_under`], with a hook that receives the live SAT
    /// backend after the run finishes but before the encoding session is
    /// dropped. The profiling harness uses this to replay the final model
    /// through bare propagation. In monolithic mode (a fresh session per
    /// depth) the hook is not called.
    ///
    /// # Panics
    ///
    /// As for [`Bmc::check`].
    pub fn check_inspecting<F: FnOnce(&mut B)>(
        &mut self,
        ts: &TransitionSystem,
        pool: &mut ExprPool,
        armed: &ArmedBudget,
        inspect: F,
    ) -> BmcResult {
        let start = Instant::now();
        ts.validate(pool).expect("system must be well-formed");
        self.stats = BmcStats::default();
        let bad_idx = self.bad_indices(ts);
        let _check_span = aqed_obs::obs_span!(
            "bmc.check",
            system = ts.name(),
            bads = bad_idx.len(),
            incremental = self.options.incremental,
            max_bound = self.options.max_bound,
        );
        // Word-level stage of the simplification pipeline: slice the
        // system to the cone of influence of the selected bads before a
        // single frame is unrolled. The run below then works on the
        // slice, whose bads are re-indexed 0..n.
        let coi_start = Instant::now();
        let slice: Option<CoiSlice> = self.options.coi.then(|| {
            let mut sp = aqed_obs::span("pipeline.coi");
            let s = coi_slice_cached(ts, pool, &bad_idx, self.coi_cache.as_deref());
            sp.record("latches_kept", s.latches_kept);
            sp.record("latches_dropped", s.latches_dropped);
            sp.record("inputs_kept", s.inputs_kept);
            sp.record("inputs_dropped", s.inputs_dropped);
            s
        });
        self.stats.coi_micros = duration_micros(coi_start.elapsed());
        let (work_ts, work_idx): (&TransitionSystem, Vec<usize>) = match &slice {
            Some(s) => {
                self.stats.coi_latches_kept = s.latches_kept;
                self.stats.coi_latches_dropped = s.latches_dropped;
                (&s.system, (0..s.bad_map.len()).collect())
            }
            None => {
                self.stats.coi_latches_kept = ts.states().len();
                (ts, bad_idx)
            }
        };
        let mut result = if self.options.incremental {
            self.run_incremental(work_ts, pool, &work_idx, armed, inspect)
        } else {
            self.run_monolithic(work_ts, pool, &work_idx, armed)
        };
        if let (Some(s), BmcResult::Counterexample(cex)) = (&slice, &mut result) {
            // Map the witness back onto the original system: restore the
            // original bad index and widen the trace with zero values for
            // the sliced-away inputs (sound: they lie outside every kept
            // cone, so their values cannot affect the violation).
            cex.bad_index = s.bad_map[cex.bad_index];
            let extra: Vec<(VarId, Bv)> = ts
                .inputs()
                .iter()
                .filter(|v| !s.system.inputs().contains(v))
                .map(|&v| (v, Bv::zero(pool.var_width(v))))
                .collect();
            cex.trace.pad_frames(&extra);
            // Sliced-away uninitialised registers get a zero power-on
            // value so the witness stays complete.
            for st in ts.states() {
                if st.init.is_none() && !s.system.is_state(st.var) {
                    cex.initial_state
                        .insert(st.var, Bv::zero(pool.var_width(st.var)));
                }
            }
        }
        self.stats.elapsed = start.elapsed();
        result
    }

    /// Incremental mode: one session for the whole run; each depth adds
    /// one frame to the live encoding. A session the previous check left
    /// stalled resumes at its stalled query. `inspect` sees the backend
    /// after the last query.
    fn run_incremental<F: FnOnce(&mut B)>(
        &mut self,
        ts: &TransitionSystem,
        pool: &mut ExprPool,
        bad_idx: &[usize],
        armed: &ArmedBudget,
        inspect: F,
    ) -> BmcResult {
        let (mut session, first, mut pending) = match self.stalled.take() {
            Some(stalled) => {
                let mut session = stalled.session;
                session.set_effort(&self.options, armed);
                (session, stalled.depth, Some(stalled.query))
            }
            None => (Session::new(ts, pool, &self.options, armed), 0, None),
        };
        let skip_to = self.warm.take().and_then(|w| w.skip_to);
        let mut skipped = false;
        let mut stall = None;
        let result = 'run: {
            for k in first..=self.options.max_bound {
                if let Some(reason) = armed.poll() {
                    break 'run BmcResult::Unknown { bound: k, reason };
                }
                self.stats.frames_encoded = k;
                if pending.is_none() {
                    let encode_start = Instant::now();
                    let mut sp = aqed_obs::obs_span!("bmc.encode", depth = k);
                    let pre = sp.is_active().then(|| session.sizes());
                    session.encode_frame(ts, pool, k);
                    record_growth(&mut sp, pre, &session);
                    self.stats.encode_micros += duration_micros(encode_start.elapsed());
                }
                let outcome = {
                    let solve_start = Instant::now();
                    let mut sp = aqed_obs::obs_span!("bmc.solve", depth = k);
                    let pre = sp.is_active().then(|| session.sizes());
                    let o = match pending
                        .take()
                        .or_else(|| session.arm_frame(pool, k, bad_idx))
                    {
                        None => FrameOutcome::Clean, // every bad statically false here
                        // Covered by a reused clean fact: no solver call.
                        Some(_) if skip_to.is_some_and(|c| k <= c) => {
                            skipped = true;
                            FrameOutcome::Clean
                        }
                        Some(query) => {
                            self.stats.solver_calls += 1;
                            session.solve_armed(ts, pool, k, query)
                        }
                    };
                    record_growth(&mut sp, pre, &session);
                    sp.record("result", outcome_code(&o));
                    self.stats.solve_micros += duration_micros(solve_start.elapsed());
                    o
                };
                aqed_obs::obs_event!("bmc.depth", depth = k, result = outcome_code(&outcome));
                match outcome {
                    FrameOutcome::Clean => {}
                    FrameOutcome::Cex(cex) => break 'run BmcResult::Counterexample(cex),
                    FrameOutcome::Unknown(reason) => {
                        break 'run BmcResult::Unknown { bound: k, reason };
                    }
                    FrameOutcome::Stalled(query) => {
                        stall = Some((k, query));
                        break 'run BmcResult::Unknown {
                            bound: k,
                            reason: StopReason::Conflicts,
                        };
                    }
                }
            }
            BmcResult::NoCounterexample {
                bound: self.options.max_bound,
            }
        };
        if skipped {
            self.stats.verdicts_reused += 1;
        }
        inspect(&mut session.backend);
        session.export_stats(&mut self.stats);
        self.stalled = stall.map(|(depth, query)| Stalled {
            session,
            depth,
            query,
        });
        result
    }

    /// Monolithic mode: fresh session per depth, re-encoding frames
    /// `0..=k` from scratch — the ablation baseline.
    fn run_monolithic(
        &mut self,
        ts: &TransitionSystem,
        pool: &mut ExprPool,
        bad_idx: &[usize],
        armed: &ArmedBudget,
    ) -> BmcResult {
        for k in 0..=self.options.max_bound {
            if let Some(reason) = armed.poll() {
                return BmcResult::Unknown { bound: k, reason };
            }
            let mut session: Session<B> = Session::new(ts, pool, &self.options, armed);
            self.stats.frames_encoded = k;
            {
                let encode_start = Instant::now();
                let mut sp = aqed_obs::obs_span!("bmc.encode", depth = k);
                let pre = sp.is_active().then(|| session.sizes());
                for j in 0..=k {
                    session.encode_frame(ts, pool, j);
                }
                record_growth(&mut sp, pre, &session);
                self.stats.encode_micros += duration_micros(encode_start.elapsed());
            }
            let outcome = {
                let solve_start = Instant::now();
                let mut sp = aqed_obs::obs_span!("bmc.solve", depth = k);
                let pre = sp.is_active().then(|| session.sizes());
                let o = match session.arm_frame(pool, k, bad_idx) {
                    None => FrameOutcome::Clean,
                    Some(query) => {
                        self.stats.solver_calls += 1;
                        session.solve_armed(ts, pool, k, query)
                    }
                };
                record_growth(&mut sp, pre, &session);
                sp.record("result", outcome_code(&o));
                self.stats.solve_micros += duration_micros(solve_start.elapsed());
                o
            };
            aqed_obs::obs_event!("bmc.depth", depth = k, result = outcome_code(&outcome));
            session.export_stats(&mut self.stats);
            match outcome {
                FrameOutcome::Clean => {}
                FrameOutcome::Cex(cex) => return BmcResult::Counterexample(cex),
                FrameOutcome::Unknown(reason) => return BmcResult::Unknown { bound: k, reason },
                FrameOutcome::Stalled(_) => {
                    return BmcResult::Unknown {
                        bound: k,
                        reason: StopReason::Conflicts,
                    }
                }
            }
        }
        BmcResult::NoCounterexample {
            bound: self.options.max_bound,
        }
    }
}

/// Outcome of one per-frame query inside a session.
enum FrameOutcome {
    Cex(Counterexample),
    Clean,
    Unknown(StopReason),
    /// Stopped by the per-call conflict budget; the query can be solved
    /// again on the same session under a larger budget.
    Stalled(Query),
}

/// One frame's armed query: its bad literals and the assumption literal
/// standing for their disjunction.
#[derive(Debug)]
struct Query {
    bad_lits: Vec<(usize, Lit)>,
    any: Lit,
}

/// An incremental run stopped by its per-call conflict budget, kept for
/// the next check to resume (see [`Bmc::check_under`]).
#[derive(Debug)]
struct Stalled<B: SatBackend> {
    session: Session<B>,
    /// The frame whose query stalled.
    depth: usize,
    query: Query,
}

/// Saturating microsecond count for the phase-timing stats.
fn duration_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Trace label for a frame outcome.
fn outcome_code(o: &FrameOutcome) -> &'static str {
    match o {
        FrameOutcome::Cex(_) => "cex",
        FrameOutcome::Clean => "clean",
        FrameOutcome::Unknown(_) | FrameOutcome::Stalled(_) => "unknown",
    }
}

/// Attaches the encoding growth (bit-blast output size) of a phase to
/// its span: clause/variable deltas against `pre` (captured only when
/// the span is live).
fn record_growth<B: SatBackend>(
    sp: &mut aqed_obs::SpanGuard,
    pre: Option<(usize, usize)>,
    session: &Session<B>,
) {
    if let Some((clauses, vars)) = pre {
        let (now_c, now_v) = session.sizes();
        sp.record("clauses_added", now_c.saturating_sub(clauses));
        sp.record("vars_added", now_v.saturating_sub(vars));
    }
}

/// One SAT encoding session: a backend plus the bit-blaster and unroller
/// feeding it. Both BMC modes drive their encodings through this single
/// path.
#[derive(Debug)]
struct Session<B: SatBackend> {
    backend: B,
    blaster: BitBlaster,
    unroller: Unroller,
    /// Whether the backend preprocesses; gates interface freezing.
    preprocess: bool,
    /// Backend statistics already exported into a check's stats.
    reported: SolverStats,
}

impl<B: SatBackend + Default> Session<B> {
    fn new(
        ts: &TransitionSystem,
        pool: &mut ExprPool,
        options: &BmcOptions,
        armed: &ArmedBudget,
    ) -> Self {
        let mut backend = B::default();
        backend.set_preprocessing(options.preprocess);
        backend.set_portfolio(options.portfolio_workers);
        let mut session = Session {
            backend,
            blaster: BitBlaster::new(),
            unroller: Unroller::new(ts, pool),
            preprocess: options.preprocess,
            reported: SolverStats::default(),
        };
        session.set_effort(options, armed);
        session
    }
}

impl<B: SatBackend> Session<B> {
    /// Pushes the per-check effort settings into the backend: the
    /// per-call conflict budget, the armed budget and the escalation
    /// hint.
    fn set_effort(&mut self, options: &BmcOptions, armed: &ArmedBudget) {
        self.backend.set_conflict_budget(options.conflict_budget);
        self.backend.set_budget(armed.clone());
        if let Some(level) = options.escalation_level {
            self.backend.set_escalation_level(level);
        }
    }

    /// Unrolls to frame `k` and permanently asserts its constraints.
    fn encode_frame(&mut self, ts: &TransitionSystem, pool: &mut ExprPool, k: usize) {
        self.unroller.extend_to(ts, pool, k);
        for &c in &self.unroller.frames[k].constraints {
            self.blaster.assert_true(pool, c, &mut self.backend);
        }
    }

    /// Arms frame `k`'s query: bit-blasts the selected bads into one
    /// activation literal each, freezes the live interface (when the
    /// backend preprocesses) and encodes their disjunction. `None` when
    /// every selected bad is statically false at this depth.
    fn arm_frame(&mut self, pool: &mut ExprPool, k: usize, bad_idx: &[usize]) -> Option<Query> {
        let mut bad_lits: Vec<(usize, Lit)> = Vec::new();
        for &bi in bad_idx {
            let bexpr = self.unroller.frames[k].bads[bi];
            if pool.as_const(bexpr).is_some_and(|v| !v.is_true()) {
                continue; // statically false at this depth
            }
            let lit = self.blaster.literal(pool, bexpr, &mut self.backend);
            bad_lits.push((bi, lit));
        }
        if bad_lits.is_empty() {
            return None;
        }
        if self.preprocess {
            self.freeze_interface(&bad_lits);
        }
        let any = self.encode_disjunction(&bad_lits);
        Some(Query { bad_lits, any })
    }

    /// Solves an armed query. A stop on the per-call conflict budget
    /// hands the query back as [`FrameOutcome::Stalled`].
    fn solve_armed(
        &mut self,
        ts: &TransitionSystem,
        pool: &ExprPool,
        k: usize,
        query: Query,
    ) -> FrameOutcome {
        match self.backend.solve_under(&[query.any]) {
            SolveResult::Sat => FrameOutcome::Cex(self.unroller.extract_cex(
                ts,
                pool,
                &self.blaster,
                &self.backend,
                k,
                &query.bad_lits,
            )),
            SolveResult::Unsat => FrameOutcome::Clean,
            // Backends predating budget support report no reason; the
            // only limit they can hit is the legacy conflict budget.
            SolveResult::Unknown => match self.backend.stop_reason() {
                None | Some(StopReason::Conflicts) => FrameOutcome::Stalled(query),
                Some(reason) => FrameOutcome::Unknown(reason),
            },
        }
    }

    /// Freezes the frame interface ahead of a preprocessing solve: every
    /// already-encoded bit of the symbolic state entering the next frame,
    /// plus this query's bad literals, which witness extraction reads
    /// back. Eliminating these would be sound — the solver reactivates
    /// an eliminated variable when a new clause or assumption touches it —
    /// but each reactivation re-adds stored clauses, so freezing the
    /// variables known to be re-referenced avoids the churn. Unfreezing
    /// the bad literals would also move the search `tests/search_golden.rs`
    /// pins.
    fn freeze_interface(&mut self, frame_bad_lits: &[(usize, Lit)]) {
        for &e in self.unroller.state_exprs.values() {
            if let Some(bits) = self.blaster.cached_bits(e) {
                for &l in bits {
                    self.backend.freeze_var(l.var());
                }
            }
        }
        for &(_, l) in frame_bad_lits {
            self.backend.freeze_var(l.var());
        }
    }

    /// Encodes `any = l1 ∨ l2 ∨ …` via an auxiliary variable usable as an
    /// assumption.
    fn encode_disjunction(&mut self, lits: &[(usize, Lit)]) -> Lit {
        if lits.len() == 1 {
            return lits[0].1;
        }
        let any = self.backend.new_var().pos();
        let mut clause: Vec<Lit> = vec![!any];
        clause.extend(lits.iter().map(|&(_, l)| l));
        self.backend.add_clause(&clause);
        any
    }

    /// `(clauses, variables)` currently in the backend.
    fn sizes(&self) -> (usize, usize) {
        (self.backend.num_clauses(), self.backend.num_vars())
    }

    /// Reports the session's size and the solver effort spent since the
    /// previous report. A resumed session's backend counters cover every
    /// check it served, so each conflict is counted once. The effort is
    /// absorbed (summed), not overwritten: monolithic runs export one
    /// fresh session per depth.
    fn export_stats(&mut self, stats: &mut BmcStats) {
        stats.clauses = self.backend.num_clauses();
        stats.variables = self.backend.num_vars();
        let total = self.backend.stats();
        stats.solver.absorb(&total.since(&self.reported));
        self.reported = total;
    }
}

/// One unrolled frame: every system expression rewritten over frame-local
/// input variables and the accumulated symbolic state.
#[derive(Debug)]
struct Frame {
    /// Fresh variable per original input.
    input_vars: HashMap<VarId, VarId>,
    /// Constraint expressions of this frame.
    constraints: Vec<ExprRef>,
    /// Bad expressions of this frame (index-aligned with the system).
    bads: Vec<ExprRef>,
}

#[derive(Debug)]
struct Unroller {
    frames: Vec<Frame>,
    /// Symbolic state entering the *next* frame to be created.
    state_exprs: HashMap<VarId, ExprRef>,
    /// Fresh frame-0 variables standing in for uninitialised registers.
    free_initials: HashMap<VarId, VarId>,
}

impl Unroller {
    fn new(ts: &TransitionSystem, pool: &mut ExprPool) -> Self {
        // Frame-0 state: init expression or a fresh free variable.
        let mut state_exprs: HashMap<VarId, ExprRef> = HashMap::new();
        let mut free_initials = HashMap::new();
        // Fixpoint over init expressions that reference other states.
        for s in ts.states() {
            if s.init.is_none() {
                let w = pool.var_width(s.var);
                let name = format!("{}@init", pool.var_name(s.var));
                let fv = pool.var(name, w, aqed_expr::VarKind::Input);
                free_initials.insert(s.var, fv);
                state_exprs.insert(s.var, pool.var_expr(fv));
            }
        }
        let mut pending: Vec<(VarId, ExprRef)> = ts
            .states()
            .iter()
            .filter_map(|s| s.init.map(|i| (s.var, i)))
            .collect();
        let mut progress = true;
        while progress && !pending.is_empty() {
            progress = false;
            let mut remaining = Vec::new();
            for (var, init) in pending {
                let deps = pool.support(init);
                if deps.iter().all(|d| state_exprs.contains_key(d)) {
                    let e = pool.substitute(init, &state_exprs);
                    state_exprs.insert(var, e);
                    progress = true;
                } else {
                    remaining.push((var, init));
                }
            }
            pending = remaining;
        }
        assert!(pending.is_empty(), "cyclic init expressions");
        Unroller {
            frames: Vec::new(),
            state_exprs,
            free_initials,
        }
    }

    /// Ensures frames `0..=k` exist.
    fn extend_to(&mut self, ts: &TransitionSystem, pool: &mut ExprPool, k: usize) {
        while self.frames.len() <= k {
            let fidx = self.frames.len();
            // Fresh input variables for this frame.
            let mut map = self.state_exprs.clone();
            let mut input_vars = HashMap::new();
            for &iv in ts.inputs() {
                let w = pool.var_width(iv);
                let name = format!("{}@{}", pool.var_name(iv), fidx);
                let fv = pool.var(name, w, aqed_expr::VarKind::Input);
                input_vars.insert(iv, fv);
                map.insert(iv, pool.var_expr(fv));
            }
            let constraints: Vec<ExprRef> = ts
                .constraints()
                .iter()
                .map(|&c| pool.substitute(c, &map))
                .collect();
            let bads: Vec<ExprRef> = ts
                .bads()
                .iter()
                .map(|&(_, b)| pool.substitute(b, &map))
                .collect();
            // Advance symbolic state.
            let next_roots: Vec<ExprRef> = ts
                .states()
                .iter()
                .map(|s| s.next.expect("validated"))
                .collect();
            let next_exprs = pool.substitute_all(&next_roots, &map);
            for (s, e) in ts.states().iter().zip(next_exprs) {
                self.state_exprs.insert(s.var, e);
            }
            self.frames.push(Frame {
                input_vars,
                constraints,
                bads,
            });
        }
    }

    fn extract_cex<B: SatBackend>(
        &self,
        ts: &TransitionSystem,
        pool: &ExprPool,
        blaster: &BitBlaster,
        solver: &B,
        depth: usize,
        frame_bad_lits: &[(usize, Lit)],
    ) -> Counterexample {
        // Which bad fired? (At least one of the assumed disjuncts is true.)
        let (bad_index, _) = frame_bad_lits
            .iter()
            .find(|&&(_, l)| solver.value(l) == Some(true))
            .copied()
            .expect("SAT model satisfies at least one disjunct");
        let bad_name = ts.bads()[bad_index].0.clone();
        // Initial values of uninitialised registers.
        let mut initial_state = HashMap::new();
        for (&orig, &fv) in &self.free_initials {
            let val = blaster
                .model_var(pool, fv, solver)
                .unwrap_or_else(|| Bv::zero(pool.var_width(orig)));
            initial_state.insert(orig, val);
        }
        // Inputs per frame, mapped back to the original variables.
        let mut trace = Trace::new();
        for frame in self.frames.iter().take(depth + 1) {
            let mut inputs: Vec<(VarId, Bv)> = ts
                .inputs()
                .iter()
                .map(|&iv| {
                    let fv = frame.input_vars[&iv];
                    let val = blaster
                        .model_var(pool, fv, solver)
                        .unwrap_or_else(|| Bv::zero(pool.var_width(iv)));
                    (iv, val)
                })
                .collect();
            inputs.sort_by_key(|&(v, _)| v);
            trace.push_frame(inputs);
        }
        Counterexample {
            bad_name,
            bad_index,
            depth,
            trace,
            initial_state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counter with enable; bad when count reaches `target`.
    fn counter_system(pool: &mut ExprPool, target: u64) -> TransitionSystem {
        let mut ts = TransitionSystem::new("counter");
        let en = ts.add_input(pool, "en", 1);
        let c = ts.add_register(pool, "c", 4, 0);
        let ce = pool.var_expr(c);
        let one = pool.lit(4, 1);
        let inc = pool.add(ce, one);
        let ene = pool.var_expr(en);
        let next = pool.ite(ene, inc, ce);
        ts.set_next(c, next);
        let t = pool.lit(4, target);
        let hit = pool.eq(ce, t);
        ts.add_bad("reach_target", hit);
        ts
    }

    #[test]
    fn finds_shortest_counterexample() {
        let mut p = ExprPool::new();
        let ts = counter_system(&mut p, 3);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(10));
        let result = bmc.check(&ts, &mut p);
        let cex = result.counterexample().expect("must find");
        assert_eq!(cex.depth, 3);
        assert_eq!(cex.cycles(), 4);
        assert!(cex.replay(&ts, &p), "counterexample must replay");
        assert!(bmc.stats().solver_calls >= 1);
        // The simplification pipeline may shrink the final clause count
        // to zero on a toy system; variables always remain.
        assert!(bmc.stats().variables > 0);
    }

    #[test]
    fn proves_bounded_safety() {
        let mut p = ExprPool::new();
        // Target 12 unreachable within bound 5.
        let ts = counter_system(&mut p, 12);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(5));
        let result = bmc.check(&ts, &mut p);
        assert!(result.is_clean());
        match result {
            BmcResult::NoCounterexample { bound } => assert_eq!(bound, 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn monolithic_stats_absorb_every_depth() {
        // A free-running tick register t (t' = t + 1, init 0) becomes a
        // compile-time constant at every unrolled frame, so the bad
        // (c == x) ∧ (t < 2) constant-folds to false for depths ≥ 2.
        // With the constraint c ≠ x the early depths are UNSAT only
        // after real solver work. A monolithic run at bound 5 therefore
        // ends on a session that never called the solver — if
        // `export_stats` kept only the last per-depth solver (the old
        // footgun), the aggregate would report zero effort.
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("tick_gate");
        let en = ts.add_input(&mut p, "en", 1);
        let x = ts.add_input(&mut p, "x", 4);
        let c = ts.add_register(&mut p, "c", 4, 0);
        let t = ts.add_register(&mut p, "t", 4, 0);
        let ce = p.var_expr(c);
        let te = p.var_expr(t);
        let one = p.lit(4, 1);
        let inc = p.add(ce, one);
        let ene = p.var_expr(en);
        let cnext = p.ite(ene, inc, ce);
        ts.set_next(c, cnext);
        let tnext = p.add(te, one);
        ts.set_next(t, tnext);
        let xe = p.var_expr(x);
        let c_eq_x = p.eq(ce, xe);
        let two = p.lit(4, 2);
        let t_lt_2 = p.ult(te, two);
        let bad = p.and(c_eq_x, t_lt_2);
        ts.add_bad("early_match", bad);
        let neq = p.not(c_eq_x);
        ts.add_constraint(neq);

        let mut mono = Bmc::new(
            &ts,
            BmcOptions::default()
                .with_max_bound(5)
                .with_incremental(false),
        );
        let result = mono.check(&ts, &mut p);
        assert!(result.is_clean());
        let stats = mono.stats();
        assert_eq!(
            stats.solver_calls, 2,
            "only depths 0 and 1 are not statically discharged"
        );
        assert!(
            stats.solver.propagations + stats.solver.decisions > 0,
            "absorbed stats must retain the early depths' effort even \
             though the final per-depth session never solved: {:?}",
            stats.solver
        );
    }

    #[test]
    fn preprocess_time_nests_inside_solve_time() {
        // Preprocessing runs inside the timed per-depth solve, so the
        // two layer timers nest rather than partition the run.
        for incremental in [true, false] {
            let mut p = ExprPool::new();
            let ts = counter_system(&mut p, 12);
            let options = BmcOptions::default()
                .with_max_bound(8)
                .with_preprocess(true)
                .with_incremental(incremental);
            let mut bmc = Bmc::new(&ts, options);
            assert!(bmc.check(&ts, &mut p).is_clean());
            let stats = bmc.stats();
            assert!(stats.solver_calls > 0);
            assert!(
                stats.solver.preprocess_micros <= stats.solve_micros,
                "incremental={incremental}: preprocess {}us outside solve {}us",
                stats.solver.preprocess_micros,
                stats.solve_micros
            );
        }
    }

    #[test]
    fn monolithic_agrees_with_incremental() {
        for target in [2u64, 6] {
            let mut p1 = ExprPool::new();
            let ts1 = counter_system(&mut p1, target);
            let mut inc = Bmc::new(&ts1, BmcOptions::default().with_max_bound(10));
            let r1 = inc.check(&ts1, &mut p1);

            let mut p2 = ExprPool::new();
            let ts2 = counter_system(&mut p2, target);
            let mut mono = Bmc::new(
                &ts2,
                BmcOptions::default()
                    .with_max_bound(10)
                    .with_incremental(false),
            );
            let r2 = mono.check(&ts2, &mut p2);
            let d1 = r1.counterexample().map(|c| c.depth);
            let d2 = r2.counterexample().map(|c| c.depth);
            assert_eq!(d1, d2);
            assert_eq!(d1, Some(target as usize));
        }
    }

    #[test]
    fn constraints_restrict_inputs() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("constrained");
        let en = ts.add_input(&mut p, "en", 1);
        let c = ts.add_register(&mut p, "c", 4, 0);
        let ce = p.var_expr(c);
        let one = p.lit(4, 1);
        let inc = p.add(ce, one);
        let ene = p.var_expr(en);
        let next = p.ite(ene, inc, ce);
        ts.set_next(c, next);
        // Environment never asserts enable → counter never moves.
        let nen = p.not(ene);
        ts.add_constraint(nen);
        let t = p.lit(4, 1);
        let hit = p.eq(ce, t);
        ts.add_bad("reach_1", hit);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(8));
        assert!(bmc.check(&ts, &mut p).is_clean());
    }

    #[test]
    fn uninitialised_state_found_in_initial_frame() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("free_init");
        let s = ts.add_state(&mut p, "s", 8); // no init: free power-on value
        let se = p.var_expr(s);
        ts.set_next(s, se); // holds forever
        let k = p.lit(8, 0x5A);
        let hit = p.eq(se, k);
        ts.add_bad("s_is_5a", hit);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(3));
        let result = bmc.check(&ts, &mut p);
        let cex = result.counterexample().expect("initial state can be 0x5A");
        assert_eq!(cex.depth, 0);
        assert_eq!(cex.initial_state[&s], Bv::new(8, 0x5A));
        assert!(cex.replay(&ts, &p));
    }

    #[test]
    fn multiple_bads_reports_first_reachable() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("multi");
        let c = ts.add_register(&mut p, "c", 4, 0);
        let ce = p.var_expr(c);
        let one = p.lit(4, 1);
        let next = p.add(ce, one);
        ts.set_next(c, next);
        let far = p.lit(4, 9);
        let near = p.lit(4, 2);
        let hit_far = p.eq(ce, far);
        let hit_near = p.eq(ce, near);
        ts.add_bad("far", hit_far);
        ts.add_bad("near", hit_near);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(15));
        let result = bmc.check(&ts, &mut p);
        let cex = result.counterexample().expect("finds near first");
        assert_eq!(cex.bad_name, "near");
        assert_eq!(cex.depth, 2);
    }

    #[test]
    fn select_bads_filters() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("multi");
        let c = ts.add_register(&mut p, "c", 4, 0);
        let ce = p.var_expr(c);
        let one = p.lit(4, 1);
        let next = p.add(ce, one);
        ts.set_next(c, next);
        let far = p.lit(4, 9);
        let near = p.lit(4, 2);
        let hit_far = p.eq(ce, far);
        let hit_near = p.eq(ce, near);
        ts.add_bad("far", hit_far);
        ts.add_bad("near", hit_near);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(15));
        bmc.select_bads(&ts, &["far"]);
        let result = bmc.check(&ts, &mut p);
        let cex = result.counterexample().expect("far reachable at 9");
        assert_eq!(cex.bad_name, "far");
        assert_eq!(cex.depth, 9);
    }

    /// A factoring-style instance (x * y == semiprime with both factors
    /// nontrivial): satisfiable at every depth, but only after real
    /// search.
    fn factoring_system(p: &mut ExprPool) -> TransitionSystem {
        let mut ts = TransitionSystem::new("hard");
        let x = ts.add_input(p, "x", 16);
        let y = ts.add_input(p, "y", 16);
        let dummy = ts.add_register(p, "dummy", 1, 0);
        let de = p.var_expr(dummy);
        ts.set_next(dummy, de);
        let xe = p.var_expr(x);
        let ye = p.var_expr(y);
        let prod = p.mul(xe, ye);
        let k = p.lit(16, 58_483); // 251 * 233
        let one = p.lit(16, 1);
        let hit = p.eq(prod, k);
        let xg = p.ugt(xe, one);
        let yg = p.ugt(ye, one);
        let hard = p.and_all([hit, xg, yg]);
        ts.add_bad("factorable", hard);
        ts
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // The factoring instance needs real search, so a 1-conflict
        // budget cannot finish it.
        let mut p = ExprPool::new();
        let ts = factoring_system(&mut p);
        let mut bmc = Bmc::new(
            &ts,
            BmcOptions::default()
                .with_max_bound(6)
                .with_conflict_budget(Some(1)),
        );
        let result = bmc.check(&ts, &mut p);
        assert!(matches!(
            result,
            BmcResult::Unknown {
                reason: StopReason::Conflicts,
                ..
            }
        ));
    }

    #[test]
    fn expired_deadline_yields_unknown_with_reason() {
        let mut p = ExprPool::new();
        let ts = counter_system(&mut p, 3);
        let mut bmc = Bmc::new(
            &ts,
            BmcOptions::default()
                .with_max_bound(10)
                .with_budget(Budget::unlimited().with_timeout(Duration::ZERO)),
        );
        match bmc.check(&ts, &mut p) {
            BmcResult::Unknown { bound, reason } => {
                assert_eq!(reason, StopReason::Deadline);
                assert_eq!(bound, 0);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_shared_budget_stops_check_under() {
        let mut p = ExprPool::new();
        let ts = counter_system(&mut p, 3);
        let armed = ArmedBudget::unlimited();
        armed.cancel();
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(10));
        match bmc.check_under(&ts, &mut p, &armed) {
            BmcResult::Unknown { reason, .. } => assert_eq!(reason, StopReason::Cancelled),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_does_not_change_verdicts() {
        for target in [3u64, 12] {
            let mut p1 = ExprPool::new();
            let ts1 = counter_system(&mut p1, target);
            let mut plain = Bmc::new(&ts1, BmcOptions::default().with_max_bound(8));
            let r1 = plain.check(&ts1, &mut p1);

            let mut p2 = ExprPool::new();
            let ts2 = counter_system(&mut p2, target);
            let mut governed = Bmc::new(
                &ts2,
                BmcOptions::default().with_max_bound(8).with_budget(
                    Budget::unlimited()
                        .with_timeout(Duration::from_secs(600))
                        .with_max_conflicts(u64::MAX / 2),
                ),
            );
            let r2 = governed.check(&ts2, &mut p2);
            assert_eq!(r1.is_clean(), r2.is_clean());
            assert_eq!(
                r1.counterexample().map(|c| c.depth),
                r2.counterexample().map(|c| c.depth)
            );
        }
    }

    #[test]
    #[should_panic(expected = "no bad properties")]
    fn rejects_system_without_bads() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("nothing");
        let s = ts.add_register(&mut p, "s", 1, 0);
        let se = p.var_expr(s);
        ts.set_next(s, se);
        let _ = Bmc::new(&ts, BmcOptions::default());
    }

    /// Two independent counters (distinct widths so targets differ); one
    /// bad property per counter.
    fn twin_counter_system(pool: &mut ExprPool) -> TransitionSystem {
        let mut ts = TransitionSystem::new("twins");
        let ena = ts.add_input(pool, "ena", 1);
        let enb = ts.add_input(pool, "enb", 1);
        let a = ts.add_register(pool, "a", 4, 0);
        let b = ts.add_register(pool, "b", 4, 0);
        for (reg, en) in [(a, ena), (b, enb)] {
            let re = pool.var_expr(reg);
            let one = pool.lit(4, 1);
            let inc = pool.add(re, one);
            let ene = pool.var_expr(en);
            let next = pool.ite(ene, inc, re);
            ts.set_next(reg, next);
        }
        let ae = pool.var_expr(a);
        let be = pool.var_expr(b);
        let two = pool.lit(4, 2);
        let four = pool.lit(4, 4);
        let a2 = pool.eq(ae, two);
        let b4 = pool.eq(be, four);
        ts.add_bad("a_hits_2", a2);
        ts.add_bad("b_hits_4", b4);
        ts
    }

    #[test]
    fn coi_slices_per_obligation_and_remaps_witness() {
        let mut p = ExprPool::new();
        let ts = twin_counter_system(&mut p);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(10));
        bmc.select_bad_indices(&ts, &[1]);
        let result = bmc.check(&ts, &mut p);
        let cex = result.counterexample().expect("b reaches 4");
        // The witness speaks the original system's language: original bad
        // index, all original inputs present in every frame.
        assert_eq!(cex.bad_index, 1);
        assert_eq!(cex.bad_name, "b_hits_4");
        assert_eq!(cex.depth, 4);
        let ena = ts.inputs()[0];
        for k in 0..=cex.depth {
            assert!(cex.trace.value(k, ena).is_some(), "ena padded at cycle {k}");
        }
        assert!(cex.replay(&ts, &p), "padded witness replays on original");
        // Half the design was sliced away.
        assert_eq!(bmc.stats().coi_latches_kept, 1);
        assert_eq!(bmc.stats().coi_latches_dropped, 1);
    }

    #[test]
    fn coi_off_matches_coi_on() {
        for idx in [0usize, 1] {
            let mut p1 = ExprPool::new();
            let ts1 = twin_counter_system(&mut p1);
            let mut on = Bmc::new(&ts1, BmcOptions::default().with_max_bound(10));
            on.select_bad_indices(&ts1, &[idx]);
            let r1 = on.check(&ts1, &mut p1);

            let mut p2 = ExprPool::new();
            let ts2 = twin_counter_system(&mut p2);
            let mut off = Bmc::new(
                &ts2,
                BmcOptions::default().with_max_bound(10).with_coi(false),
            );
            off.select_bad_indices(&ts2, &[idx]);
            let r2 = off.check(&ts2, &mut p2);

            assert_eq!(
                r1.counterexample().map(|c| (c.depth, c.bad_index)),
                r2.counterexample().map(|c| (c.depth, c.bad_index)),
                "bad {idx}"
            );
            assert_eq!(off.stats().coi_latches_dropped, 0);
        }
    }

    #[test]
    fn pipeline_disabled_still_finds_counterexamples() {
        let mut p = ExprPool::new();
        let ts = counter_system(&mut p, 3);
        let mut bmc = Bmc::new(
            &ts,
            BmcOptions::default()
                .with_max_bound(10)
                .with_coi(false)
                .with_preprocess(false),
        );
        let cex = bmc.check(&ts, &mut p);
        assert_eq!(cex.counterexample().map(|c| c.depth), Some(3));
    }

    #[test]
    fn inspect_hook_sees_live_backend() {
        let mut p = ExprPool::new();
        let ts = counter_system(&mut p, 3);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(10));
        let armed = ArmedBudget::unlimited();
        let mut seen_vars = 0usize;
        let result = bmc.check_inspecting(&ts, &mut p, &armed, |backend| {
            seen_vars = backend.num_vars();
        });
        assert!(result.counterexample().is_some());
        assert_eq!(seen_vars, bmc.stats().variables);
        assert!(seen_vars > 0);
    }

    #[test]
    fn cex_display_and_result_helpers() {
        let mut p = ExprPool::new();
        let ts = counter_system(&mut p, 1);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(4));
        let result = bmc.check(&ts, &mut p);
        let cex = result.counterexample().expect("found");
        let text = cex.to_string();
        assert!(text.contains("reach_target"));
        assert!(!result.is_clean());
    }

    /// Runs `counter_system(target)` at `bound` with a warm-start input
    /// and returns (result, stats).
    fn warm_run(target: u64, bound: usize, warm: WarmStart) -> (BmcResult, BmcStats) {
        let mut p = ExprPool::new();
        let ts = counter_system(&mut p, target);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(bound));
        bmc.set_warm_start(warm);
        let result = bmc.check(&ts, &mut p);
        (result, bmc.stats())
    }

    #[test]
    fn warm_start_skips_reused_clean_prefix() {
        let (r1, cold) = warm_run(12, 5, WarmStart::default());
        assert!(r1.is_clean());
        assert!(cold.solver_calls > 2);

        // Deeper re-run with frames 0..=5 covered by the reused verdict:
        // only the new frames are solved, and the verdict matches a cold
        // run at the same bound.
        let (r2, stats) = warm_run(12, 7, WarmStart { skip_to: Some(5) });
        let (r_cold, _) = warm_run(12, 7, WarmStart::default());
        assert_eq!(r2.is_clean(), r_cold.is_clean());
        assert!(r2.is_clean());
        assert_eq!(stats.solver_calls, 2, "only frames 6 and 7 are solved");
        assert_eq!(stats.verdicts_reused, 1);
    }

    #[test]
    fn conflict_budget_stall_resumes_the_same_solver() {
        let mut p = ExprPool::new();
        let ts = factoring_system(&mut p);
        let mut bmc = Bmc::new(
            &ts,
            BmcOptions::default()
                .with_max_bound(6)
                .with_conflict_budget(Some(1)),
        );
        let armed = ArmedBudget::unlimited();
        let stalled = bmc.check_under(&ts, &mut p, &armed);
        assert!(
            matches!(
                stalled,
                BmcResult::Unknown {
                    bound: 0,
                    reason: StopReason::Conflicts
                }
            ),
            "{stalled:?}"
        );
        let first = bmc.stats();
        assert!(first.solver.conflicts > 0);

        // Lift the budget: the next check re-solves the stalled query on
        // the same solver instead of starting over.
        bmc.set_effort(None, None);
        let mut backend_conflicts = 0;
        let result = bmc.check_inspecting(&ts, &mut p, &armed, |b| {
            backend_conflicts = b.stats().conflicts;
        });
        let cex = result.counterexample().expect("58 483 factors");
        assert_eq!(cex.depth, 0);
        assert!(cex.replay(&ts, &p));
        let second = bmc.stats();
        assert_eq!(second.solver_calls, 1, "only the stalled query is solved");
        assert_eq!(second.variables, first.variables, "no frame re-encoded");
        // The backend's counters cover both checks; each check reports
        // only the conflicts it spent.
        assert_eq!(
            first.solver.conflicts + second.solver.conflicts,
            backend_conflicts
        );
    }
}

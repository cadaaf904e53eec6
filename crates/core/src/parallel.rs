//! Obligation-level orchestration of A-QED checks.
//!
//! The A-QED² observation is that many small independent checks beat one
//! monolithic "any property, any depth" query. This module materializes
//! each bad property of the composed design+monitor system as an
//! [`Obligation`] and runs the obligations as independent BMC jobs on a
//! scoped thread pool ([`std::thread::scope`] — no runtime dependency).
//! A one-job schedule runs its worker on the calling thread instead, so
//! a warm run whose every obligation is a store hit spawns nothing.
//!
//! The merged verdict is deterministic: it depends only on the
//! per-obligation results, never on thread scheduling, so `jobs = 1` and
//! `jobs = N` always agree (fail-fast mode deliberately trades this for
//! latency — see [`ScheduleOptions::fail_fast`]).
//!
//! Cone-of-influence slicing happens *per obligation* inside
//! `Bmc::check_under` (each job selects one bad, so each gets its own
//! slice of the composed system); the scheduler itself is structurally
//! unchanged by the simplification pipeline and merely aggregates the
//! per-job `coi_latches_kept`/`coi_latches_dropped` counters.
//!
//! # Resource governance and fault tolerance
//!
//! [`verify_obligations_scheduled`] layers a governance regime over the
//! plain pool:
//!
//! * **Shared deadline** — `options.budget` is armed once for the whole
//!   run; every job solves under a child of that armed budget, so the
//!   wall clock keeps running across obligations and a single deadline
//!   bounds the run.
//! * **Cooperative cancellation** — in fail-fast mode the first
//!   validated bug cancels the root budget; running solvers notice at
//!   their next budget poll and drain, queued obligations return
//!   immediately as `Inconclusive {reason: Cancelled}`.
//! * **Watchdog** — a monitor thread escalates jobs that exceed
//!   [`ScheduleOptions::obligation_timeout`] by tripping their private
//!   stop handle, and enforces the global deadline even against backends
//!   that ignore budgets.
//! * **Panic isolation** — each obligation runs under
//!   [`std::panic::catch_unwind`]; a dying worker degrades only its own
//!   obligation to [`CheckOutcome::Errored`] and sets the report's
//!   `degraded` flag instead of aborting the run.
//! * **Retry escalation** — an obligation stopped by its conflict budget
//!   is retried with the budget doubled, up to
//!   [`ScheduleOptions::max_attempts`]. A retry resumes the solver that
//!   stalled, keeping its learnt clauses and encoded frames.
//! * **Witness self-validation** — every SAT verdict is replayed on the
//!   concrete simulator before being reported; a mismatch becomes a loud
//!   `UnsoundWitness` error, never a silently trusted bug report.

use crate::artifact::{cone_hash, ArtifactStore};
use crate::verify::{validated_bug, CheckOutcome, PropertyKind};
use aqed_bmc::{
    ArmedBudget, Bmc, BmcOptions, BmcResult, BmcStats, Counterexample, StopReason, WarmStart,
};
use aqed_expr::ExprPool;
use aqed_obs::obs_event;
use aqed_sat::{SatBackend, Solver, StopHandle};
use aqed_tsys::{coi_slice_cached, CoiCache, CoiSlice, TransitionSystem};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One independent proof obligation: a single bad property of the
/// composed design+monitor system, checked in isolation.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Index of the property in the composed system's bad list.
    pub bad_index: usize,
    /// Name of the bad property.
    pub bad_name: String,
    /// Which universal property the bad belongs to.
    pub property: PropertyKind,
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({})",
            self.bad_index, self.bad_name, self.property
        )
    }
}

/// Scheduling policy for an obligation-scheduled verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Maximum worker threads (clamped to the obligation count; minimum 1).
    pub jobs: usize,
    /// Cancel the remaining obligations as soon as one finds a validated
    /// counterexample. Lowers latency to first bug but makes sibling
    /// verdicts scheduling-dependent (cancelled jobs report
    /// `Inconclusive {reason: Cancelled}`).
    pub fail_fast: bool,
    /// Maximum solve attempts per obligation. After an attempt stops on
    /// its conflict budget, the budget is doubled and the obligation
    /// retried, up to this many attempts total.
    pub max_attempts: u32,
    /// Per-obligation wall-clock limit, enforced by the watchdog thread:
    /// a job running longer has its private stop handle tripped and
    /// reports `Inconclusive {reason: Cancelled}`.
    pub obligation_timeout: Option<Duration>,
    /// Proven-prefix skipping (default on; inert without an artifact
    /// store or with COI slicing disabled). An obligation the store
    /// cannot answer outright skips re-solving the frames a stored
    /// clean fact for its cone key already covers. Store verdict
    /// lookups and donations never depend on this switch. Verdicts are
    /// identical with and without it; see `ArtifactStore` for the
    /// soundness argument.
    pub warm_start: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            jobs: 1,
            fail_fast: false,
            max_attempts: 3,
            obligation_timeout: None,
            warm_start: true,
        }
    }
}

impl ScheduleOptions {
    /// Returns the options with the given worker count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Returns the options with fail-fast cancellation enabled or
    /// disabled.
    #[must_use]
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Returns the options with the given retry cap.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Returns the options with a per-obligation watchdog timeout.
    #[must_use]
    pub fn with_obligation_timeout(mut self, timeout: Duration) -> Self {
        self.obligation_timeout = Some(timeout);
        self
    }

    /// Returns the options with proven-prefix skipping enabled or
    /// disabled.
    #[must_use]
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }
}

/// Cross-request context for a governed run: what
/// [`verify_obligations_governed`] adds over the per-run
/// [`ScheduleOptions`].
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// Cross-request artifact cache. When set, every obligation derives
    /// its cone key, is answered without solving when the store holds a
    /// definitive verdict for that key, otherwise skips the prefix a
    /// stored clean fact proves (per [`ScheduleOptions::warm_start`]),
    /// and donates its fresh verdict back.
    pub artifacts: Option<Arc<ArtifactStore>>,
    /// External cancellation: the run's budget is armed with a child of
    /// this handle, so tripping it (Ctrl-C, a client cancel request)
    /// drains the run as `Inconclusive {reason: Cancelled}` without
    /// affecting sibling runs under the same parent.
    pub stop: Option<StopHandle>,
    /// Live progress for a concurrent reader (the serve heartbeat
    /// thread): obligations done out of total, and the solver's
    /// mid-solve conflict samples. Counters and layer times of the
    /// finished run are in the report's `aggregate`, not here.
    pub meter: Option<Arc<aqed_obs::JobMeter>>,
}

impl RunContext {
    /// A context that only attaches an artifact store.
    #[must_use]
    pub fn with_artifacts(store: Arc<ArtifactStore>) -> Self {
        RunContext {
            artifacts: Some(store),
            stop: None,
            meter: None,
        }
    }
}

/// Verdict and statistics of one obligation's BMC run.
#[derive(Debug, Clone)]
pub struct ObligationReport {
    /// The obligation that was checked.
    pub obligation: Obligation,
    /// Verdict for this property alone.
    pub outcome: CheckOutcome,
    /// Solver statistics of this job's run (summed over retries).
    pub stats: BmcStats,
    /// Solve attempts made (> 1 when conflict-budget retries escalated;
    /// 0 when the job was cancelled before it started or answered from
    /// the artifact cache).
    pub attempts: u32,
    /// Wall-clock time this obligation spent on a worker, across all
    /// attempts (zero when it was drained without running).
    pub wall: Duration,
    /// Whether the verdict was served from the cross-request artifact
    /// store instead of being solved.
    pub cache_hit: bool,
}

/// Aggregate report of an obligation-scheduled verification run.
#[derive(Debug, Clone)]
pub struct ParallelVerifyReport {
    /// Merged verdict; identical for every `jobs` value (except under
    /// fail-fast, which is scheduling-dependent by design).
    pub outcome: CheckOutcome,
    /// Per-obligation reports, in bad-index order.
    pub obligations: Vec<ObligationReport>,
    /// Statistics folded over all obligations with [`BmcStats::absorb`]:
    /// counters add up, `elapsed` is total solver time (exceeds
    /// wall-clock when jobs overlap).
    pub aggregate: BmcStats,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Wall-clock time of the whole run.
    pub runtime: Duration,
    /// Whether any obligation degraded to [`CheckOutcome::Errored`]
    /// (worker panic or unsound witness). A degraded run's clean
    /// verdicts still hold, but coverage is incomplete.
    pub degraded: bool,
    /// How many stuck jobs the watchdog cancelled.
    pub watchdog_trips: u64,
    /// Obligations answered from the cross-request artifact store
    /// without solving (always 0 without a [`RunContext`] store).
    pub cache_hits: u64,
}

impl ParallelVerifyReport {
    /// Whether the merged verdict is a bug.
    #[must_use]
    pub fn found_bug(&self) -> bool {
        matches!(self.outcome, CheckOutcome::Bug { .. })
    }

    /// The merged counterexample, if the verdict is a bug.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match &self.outcome {
            CheckOutcome::Bug { counterexample, .. } => Some(counterexample),
            _ => None,
        }
    }

    /// The counterexample length in clock cycles, if a bug was found.
    #[must_use]
    pub fn cex_cycles(&self) -> Option<usize> {
        self.counterexample().map(Counterexample::cycles)
    }

    /// The process exit code the CLI taxonomy assigns this report:
    /// 0 clean, 1 bug, 2 inconclusive / errored / degraded-clean.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match &self.outcome {
            CheckOutcome::Bug { .. } => 1,
            // A degraded run cannot vouch for full coverage even when
            // every surviving obligation came back clean.
            CheckOutcome::Clean { .. } => {
                if self.degraded {
                    2
                } else {
                    0
                }
            }
            CheckOutcome::Inconclusive { .. } | CheckOutcome::Errored { .. } => 2,
        }
    }
}

impl fmt::Display for ParallelVerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            CheckOutcome::Clean { bound } => write!(f, "clean up to bound {bound}")?,
            CheckOutcome::Bug {
                property,
                counterexample,
            } => write!(f, "{property} bug: {counterexample}")?,
            CheckOutcome::Inconclusive { bound, reason } => {
                write!(f, "inconclusive at bound {bound} ({reason})")?;
            }
            CheckOutcome::Errored { message } => write!(f, "errored: {message}")?,
        }
        write!(
            f,
            " ({} obligations, {} jobs, {:?}",
            self.obligations.len(),
            self.jobs,
            self.runtime
        )?;
        if self.degraded {
            write!(f, ", degraded")?;
        }
        write!(f, ")")
    }
}

/// Runs every bad property of `composed` as an independent BMC obligation
/// on up to `jobs` worker threads, using the default CDCL backend.
///
/// See [`verify_obligations_with`] for the backend-generic form and the
/// merge semantics.
#[must_use]
pub fn verify_obligations(
    composed: &TransitionSystem,
    pool: &ExprPool,
    options: &BmcOptions,
    jobs: usize,
) -> ParallelVerifyReport {
    verify_obligations_with::<Solver>(composed, pool, options, jobs)
}

/// Runs every bad property of `composed` as an independent BMC obligation
/// on up to `jobs` worker threads, each job building its own backend `B`.
///
/// Equivalent to [`verify_obligations_scheduled`] with the default
/// [`ScheduleOptions`] at the given worker count: no fail-fast, no
/// per-obligation timeout, conflict-budget retries enabled.
///
/// Each job clones the expression pool (unrolling allocates fresh
/// expressions), but counterexamples only reference the system's original
/// variables, so they remain valid against the caller's pool — e.g. for
/// VCD export or simulator replay.
///
/// Merge semantics, independent of scheduling order: the bug with the
/// smallest `(depth, bad_index)` wins; otherwise the first errored
/// obligation; otherwise the shallowest inconclusive bound; otherwise
/// clean at `options.max_bound`.
///
/// # Panics
///
/// Panics if `composed` has no bad properties or a bad name is not one
/// of the A-QED monitor's. Worker panics do *not* propagate: they
/// degrade their own obligation to [`CheckOutcome::Errored`].
#[must_use]
pub fn verify_obligations_with<B: SatBackend + Default>(
    composed: &TransitionSystem,
    pool: &ExprPool,
    options: &BmcOptions,
    jobs: usize,
) -> ParallelVerifyReport {
    let sched = ScheduleOptions::default().with_jobs(jobs);
    verify_obligations_scheduled::<B>(composed, pool, options, &sched)
}

/// The fully governed obligation scheduler: shared deadline, cooperative
/// cancellation, watchdog escalation, panic isolation, retry escalation,
/// and witness self-validation (detailed at the top of this module's
/// source).
///
/// `options.budget` is armed once when the run starts; its deadline and
/// caps govern every job through child budgets.
///
/// # Panics
///
/// Panics if `composed` has no bad properties or a bad name is not one
/// of the A-QED monitor's. Worker panics degrade their obligation
/// instead of propagating.
#[must_use]
pub fn verify_obligations_scheduled<B: SatBackend + Default>(
    composed: &TransitionSystem,
    pool: &ExprPool,
    options: &BmcOptions,
    sched: &ScheduleOptions,
) -> ParallelVerifyReport {
    verify_obligations_governed::<B>(composed, pool, options, sched, &RunContext::default())
}

/// [`verify_obligations_scheduled`] plus cross-request context: an
/// optional [`ArtifactStore`] (definitive-verdict cache and proven
/// prefixes) and an optional external [`StopHandle`] for cancellation
/// from outside the run (signal handlers, a server's per-job cancel).
///
/// With a store, each obligation slices the composed system to its cone
/// of influence and hashes the slice ([`cone_hash`]). An obligation
/// whose definitive verdict under that key (clean to a covering bound,
/// or a replaying counterexample within bound) is already known is
/// served without solving — marked `cache_hit` in its report — and
/// every other obligation donates its fresh verdict. Verdicts are
/// identical with and without the store; a stale or colliding entry
/// behind a bug degrades to a miss via witness replay, never to a wrong
/// verdict.
///
/// # Panics
///
/// Panics if `composed` has no bad properties or a bad name is not one
/// of the A-QED monitor's. Worker panics degrade their obligation
/// instead of propagating.
#[must_use]
pub fn verify_obligations_governed<B: SatBackend + Default>(
    composed: &TransitionSystem,
    pool: &ExprPool,
    options: &BmcOptions,
    sched: &ScheduleOptions,
    ctx: &RunContext,
) -> ParallelVerifyReport {
    let start = Instant::now();
    let obligations: Vec<Obligation> = composed
        .bads()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| Obligation {
            bad_index: i,
            bad_name: name.clone(),
            property: PropertyKind::of_bad(name),
        })
        .collect();
    assert!(
        !obligations.is_empty(),
        "system '{}' has no bad properties to check",
        composed.name()
    );
    let total = obligations.len();
    let workers = sched.jobs.clamp(1, total);
    let mut run_span = aqed_obs::span("verify.run");
    if run_span.is_active() {
        run_span.record("system", composed.name());
        run_span.record("obligations", total as u64);
        run_span.record("jobs", workers as u64);
        for ob in &obligations {
            obs_event!(
                "obligation.queued",
                index = ob.bad_index as u64,
                name = ob.bad_name.as_str(),
                property = ob.property.to_string()
            );
        }
    }
    // One COI cache per run: every obligation slices the same composed
    // system, and the expensive half of the fixpoint (the per-state
    // support index) is identical across all of them.
    let coi_cache = Arc::new(CoiCache::new());
    let store = ctx.artifacts.as_deref();
    let armed = match &ctx.stop {
        Some(stop) => ArmedBudget::arm_with(&options.budget, stop.child()),
        None => ArmedBudget::arm(&options.budget),
    };
    let meter = ctx.meter.as_deref();
    if let Some(m) = meter {
        m.set_obligations_total(total as u64);
    }
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let watchdog_trips = AtomicU64::new(0);
    let results: Mutex<Vec<(usize, ObligationReport)>> = Mutex::new(Vec::with_capacity(total));
    let active: ActiveJobs = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        // The watchdog enforces wall-clock limits even against backends
        // that never poll their budget: it trips stop handles, which the
        // CDCL solver honours at its next coarse check, and which the
        // pre-claim poll honours for not-yet-started obligations. Only
        // spawned when some wall-clock limit exists.
        if sched.obligation_timeout.is_some() || options.budget.timeout.is_some() {
            scope.spawn(|| {
                while completed.load(Ordering::Acquire) < total {
                    std::thread::sleep(Duration::from_millis(2));
                    if armed.poll() == Some(StopReason::Deadline) {
                        armed.cancel();
                    }
                    if let Some(limit) = sched.obligation_timeout {
                        let now = Instant::now();
                        for (started, stop) in lock_unpoisoned(&active).values() {
                            if now.duration_since(*started) > limit && !stop.is_requested() {
                                stop.request_stop();
                                watchdog_trips.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        let work = || {
            let _job = ThreadJob::enter(ctx.meter.clone());
            worker_loop::<B>(
                composed,
                pool,
                options,
                sched,
                &obligations,
                &next,
                &completed,
                &armed,
                &active,
                &results,
                &coi_cache,
                store,
                meter,
            );
        };
        // A single worker runs on the calling thread: a spawn costs more
        // than a warm run's every store hit together.
        if workers == 1 {
            work();
        } else {
            for _ in 0..workers {
                scope.spawn(work);
            }
        }
    });
    let mut ranked = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    ranked.sort_by_key(|&(i, _)| i);
    let reports: Vec<ObligationReport> = ranked.into_iter().map(|(_, r)| r).collect();
    let mut aggregate = BmcStats::default();
    for r in &reports {
        aggregate.absorb(&r.stats);
    }
    let outcome = merge_outcome(&reports, options.max_bound);
    let degraded = reports
        .iter()
        .any(|r| matches!(r.outcome, CheckOutcome::Errored { .. }));
    let cache_hits = reports.iter().filter(|r| r.cache_hit).count() as u64;
    if run_span.is_active() {
        run_span.record("outcome", outcome_code(&outcome));
        run_span.record("degraded", degraded);
        run_span.record("coi_cache_hits", coi_cache.hits());
        run_span.record("coi_cache_misses", coi_cache.misses());
        run_span.record("artifact_cache_hits", cache_hits);
    }
    ParallelVerifyReport {
        outcome,
        obligations: reports,
        aggregate,
        jobs: workers,
        runtime: start.elapsed(),
        degraded,
        watchdog_trips: watchdog_trips.load(Ordering::Relaxed),
        cache_hits,
    }
}

/// Watchdog bookkeeping: when each in-flight job started and the
/// private stop handle to trip if it overstays.
type ActiveJobs = Mutex<HashMap<usize, (Instant, StopHandle)>>;

/// A worker's hold on the thread it runs on, the caller's or a spawned
/// one. Entering routes the solver's mid-solve progress samples to the
/// job's meter (live heartbeat progress); dropping, on return or
/// unwind, gives the thread back its previous meter and span and
/// flushes its trace batch. Scoped threads signal completion before
/// their TLS destructors run, so the drop-flush of the trace buffer
/// would race against the caller uninstalling the sink; this flush
/// runs while the scope (and thus the sink) is alive.
struct ThreadJob {
    meter: Option<Arc<aqed_obs::JobMeter>>,
    span: Option<u64>,
}

impl ThreadJob {
    fn enter(meter: Option<Arc<aqed_obs::JobMeter>>) -> Self {
        ThreadJob {
            meter: aqed_obs::meter::set_thread_meter(meter),
            span: aqed_obs::current_span_id(),
        }
    }
}

impl Drop for ThreadJob {
    fn drop(&mut self) {
        aqed_obs::meter::set_thread_meter(self.meter.take());
        aqed_obs::set_current_span_id(self.span);
        aqed_obs::flush_local();
    }
}

/// One worker's claim-check-report loop.
#[allow(clippy::too_many_arguments)]
fn worker_loop<B: SatBackend + Default>(
    composed: &TransitionSystem,
    pool: &ExprPool,
    options: &BmcOptions,
    sched: &ScheduleOptions,
    obligations: &[Obligation],
    next: &AtomicUsize,
    completed: &AtomicUsize,
    armed: &ArmedBudget,
    active: &ActiveJobs,
    results: &Mutex<Vec<(usize, ObligationReport)>>,
    coi_cache: &Arc<CoiCache>,
    store: Option<&ArtifactStore>,
    meter: Option<&aqed_obs::JobMeter>,
) {
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let Some(ob) = obligations.get(idx) else {
            break;
        };
        let report = if let Some(reason) = armed.poll() {
            // Deadline already passed or the run was cancelled: drain the
            // queue without solving so every obligation still gets a
            // report.
            obs_event!(
                "obligation.cancelled",
                index = ob.bad_index as u64,
                reason = reason.to_string()
            );
            ObligationReport {
                obligation: ob.clone(),
                outcome: CheckOutcome::Inconclusive { bound: 0, reason },
                stats: BmcStats::default(),
                attempts: 0,
                wall: Duration::ZERO,
                cache_hit: false,
            }
        } else {
            // The obligation's store key: the content hash of its COI
            // slice. The slice fixpoint is memoized in the shared
            // per-run cache, so this costs one slice build + BTOR2
            // print per obligation.
            let keyed: Option<(&ArtifactStore, u64, CoiSlice)> = store.map(|s| {
                let slice =
                    coi_slice_cached(composed, pool, &[ob.bad_index], Some(coi_cache.as_ref()));
                let cone = cone_hash(&slice, pool);
                (s, cone, slice)
            });
            let cached = keyed.as_ref().and_then(|(s, cone, slice)| {
                s.lookup_cone_outcome(
                    *cone,
                    ob.bad_index,
                    &ob.bad_name,
                    options.max_bound,
                    slice,
                    composed,
                    pool,
                )
            });
            if let Some(outcome) = cached {
                // A definitive verdict for this slice is already known
                // (bugs were just replayed against *this* design); serve
                // it without touching a solver.
                obs_event!(
                    "obligation.cached",
                    index = ob.bad_index as u64,
                    outcome = outcome_code(&outcome)
                );
                let stats = BmcStats {
                    verdicts_reused: 1,
                    ..BmcStats::default()
                };
                ObligationReport {
                    obligation: ob.clone(),
                    outcome,
                    stats,
                    attempts: 0,
                    wall: Duration::ZERO,
                    cache_hit: true,
                }
            } else {
                // Frame skipping assumes BMC solves exactly the slice the
                // key names, so it needs COI on.
                let skip_to = keyed
                    .as_ref()
                    .filter(|_| sched.warm_start && options.coi)
                    .and_then(|(s, cone, _)| s.cone_clean_prefix(*cone, &ob.bad_name));
                let job = armed.child();
                let started = Instant::now();
                lock_unpoisoned(active).insert(idx, (started, job.stop_handle().clone()));
                // Async span ("b"/"e" with an id): portfolio worker threads
                // and retries attach to this id, so trace tooling can follow
                // one obligation across threads instead of relying on
                // per-thread begin/end nesting.
                let span_id = aqed_obs::next_span_id();
                let mut sp = aqed_obs::async_span("obligation", span_id, Vec::new());
                aqed_obs::set_current_span_id(Some(span_id));
                if sp.is_active() {
                    sp.record("index", ob.bad_index as u64);
                    sp.record("name", ob.bad_name.as_str());
                    sp.record("property", ob.property.to_string());
                }
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    check_obligation::<B>(
                        composed, pool, options, ob, &job, sched, coi_cache, skip_to,
                    )
                }));
                lock_unpoisoned(active).remove(&idx);
                let report = caught.unwrap_or_else(|payload| {
                    obs_event!("obligation.panicked", index = ob.bad_index as u64);
                    ObligationReport {
                        obligation: ob.clone(),
                        outcome: CheckOutcome::Errored {
                            message: format!(
                                "worker panicked: {}",
                                panic_message(payload.as_ref())
                            ),
                        },
                        stats: BmcStats::default(),
                        attempts: 1,
                        wall: started.elapsed(),
                        cache_hit: false,
                    }
                });
                // Donate a freshly computed definitive verdict (the store
                // ignores budget-limited outcomes), so repeat requests and
                // later edits outside this cone skip the solve.
                if let Some((s, cone, slice)) = &keyed {
                    s.record_cone_outcome(*cone, &ob.bad_name, &report.outcome, slice);
                }
                if sp.is_active() {
                    sp.record("outcome", outcome_code(&report.outcome));
                    sp.record("attempts", u64::from(report.attempts));
                }
                drop(sp);
                aqed_obs::set_current_span_id(None);
                report
            }
        };
        if sched.fail_fast && matches!(report.outcome, CheckOutcome::Bug { .. }) {
            armed.cancel();
        }
        if let Some(m) = meter {
            m.note_obligation_done();
        }
        lock_unpoisoned(results).push((idx, report));
        completed.fetch_add(1, Ordering::Release);
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// Sink pushes and map inserts are single complete operations, so the
/// data is never half-written; one dead worker must not take down the
/// merge.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// A budget-exhausted attempt whose sampled conflict rate reached this
/// many conflicts per second graduates the obligation to the next
/// escalation level — on the portfolio backend, from a single inline
/// solver to the full diversified race. Below it the search is
/// propagation- or memory-bound, where racing N copies of a similar
/// search mostly divides throughput; such obligations retry on one
/// solver with the doubled budget instead.
const PORTFOLIO_ESCALATION_RATE: f64 = 500.0;

/// Runs one obligation to completion on its own pool clone and checker,
/// retrying with doubled conflict budgets while the schedule allows.
/// `skip_to` is the proven-clean prefix the first attempt need not
/// re-solve. Every retry resumes the solver its predecessor stalled
/// (see [`Bmc::check_under`]), so it neither re-encodes a frame nor
/// forgets a learnt clause.
#[allow(clippy::too_many_arguments)]
fn check_obligation<B: SatBackend + Default>(
    composed: &TransitionSystem,
    pool: &ExprPool,
    options: &BmcOptions,
    ob: &Obligation,
    armed: &ArmedBudget,
    sched: &ScheduleOptions,
    coi_cache: &Arc<CoiCache>,
    skip_to: Option<usize>,
) -> ObligationReport {
    let started = Instant::now();
    let mut local_pool = pool.clone();
    let mut stats = BmcStats::default();
    let mut attempts = 0u32;
    let mut conflict_budget = options.conflict_budget;
    let mut escalation = 0u32;
    // Only steer backend escalation when the retry ladder is live:
    // without a conflict budget there is nothing to exhaust, so a
    // portfolio backend should apply its own default (race at full
    // width immediately) rather than being pinned to one solver.
    let steer = conflict_budget.is_some() && sched.max_attempts > 1;
    let mut bmc: Bmc<B> = Bmc::with_backend(composed, options.clone());
    bmc.set_coi_cache(Arc::clone(coi_cache));
    bmc.select_bad_indices(composed, &[ob.bad_index]);
    bmc.set_warm_start(WarmStart { skip_to });
    loop {
        attempts += 1;
        let level = if steer {
            Some(escalation)
        } else {
            options.escalation_level
        };
        bmc.set_effort(conflict_budget, level);
        let attempt_started = Instant::now();
        let result = bmc.check_under(composed, &mut local_pool, armed);
        let attempt = bmc.stats();
        stats.absorb(&attempt);
        // Sizes describe the solver at the end of the run, the last
        // attempt's; an incremental retry resumes the same solver.
        (stats.clauses, stats.variables) = (attempt.clauses, attempt.variables);
        let outcome = match result {
            BmcResult::Counterexample(cex) => {
                validated_bug(composed, &local_pool, ob.property, cex)
            }
            BmcResult::NoCounterexample { bound } => CheckOutcome::Clean { bound },
            BmcResult::Unknown { bound, reason } => {
                // Escalate: a conflict-budgeted stop is worth retrying
                // with doubled effort, as long as the global budget is
                // still alive and attempts remain.
                if reason == StopReason::Conflicts
                    && conflict_budget.is_some()
                    && attempts < sched.max_attempts
                    && armed.poll().is_none()
                {
                    conflict_budget = conflict_budget.map(|b| b.saturating_mul(2));
                    #[allow(clippy::cast_precision_loss)]
                    let rate = attempt.solver.conflicts as f64
                        / attempt_started.elapsed().as_secs_f64().max(1e-6);
                    if rate >= PORTFOLIO_ESCALATION_RATE {
                        escalation += 1;
                        obs_event!(
                            "obligation.escalated",
                            index = ob.bad_index as u64,
                            level = u64::from(escalation),
                            conflict_rate = rate
                        );
                    }
                    obs_event!(
                        "obligation.retry",
                        index = ob.bad_index as u64,
                        attempt = u64::from(attempts),
                        conflict_budget = conflict_budget.unwrap_or(0)
                    );
                    continue;
                }
                CheckOutcome::Inconclusive { bound, reason }
            }
        };
        obs_event!(
            "obligation.done",
            index = ob.bad_index as u64,
            outcome = outcome_code(&outcome),
            reason = match &outcome {
                CheckOutcome::Inconclusive { reason, .. } => reason.to_string(),
                _ => String::new(),
            },
            attempts = u64::from(attempts)
        );
        return ObligationReport {
            obligation: ob.clone(),
            outcome,
            stats,
            attempts,
            wall: started.elapsed(),
            cache_hit: false,
        };
    }
}

/// Short machine-readable tag for an outcome, used in trace events.
fn outcome_code(outcome: &CheckOutcome) -> &'static str {
    match outcome {
        CheckOutcome::Clean { .. } => "clean",
        CheckOutcome::Bug { .. } => "bug",
        CheckOutcome::Inconclusive { .. } => "inconclusive",
        CheckOutcome::Errored { .. } => "errored",
    }
}

/// Deterministic verdict merge: bug with minimal `(depth, bad_index)`,
/// else the first errored obligation (degradation is louder than a mere
/// budget stop), else the shallowest inconclusive bound, else clean at
/// the full bound.
fn merge_outcome(reports: &[ObligationReport], max_bound: usize) -> CheckOutcome {
    let mut bug: Option<(usize, usize)> = None; // (depth, report index)
    for (i, r) in reports.iter().enumerate() {
        if let CheckOutcome::Bug { counterexample, .. } = &r.outcome {
            let key = (counterexample.depth, i);
            if bug.is_none_or(|b| key < b) {
                bug = Some(key);
            }
        }
    }
    if let Some((_, i)) = bug {
        return reports[i].outcome.clone();
    }
    if let Some(errored) = reports
        .iter()
        .find(|r| matches!(r.outcome, CheckOutcome::Errored { .. }))
    {
        return errored.outcome.clone();
    }
    let mut inconclusive: Option<(usize, usize)> = None; // (bound, report index)
    for (i, r) in reports.iter().enumerate() {
        if let CheckOutcome::Inconclusive { bound, .. } = r.outcome {
            let key = (bound, i);
            if inconclusive.is_none_or(|b| key < b) {
                inconclusive = Some(key);
            }
        }
    }
    match inconclusive {
        Some((_, i)) => reports[i].outcome.clone(),
        None => CheckOutcome::Clean { bound: max_bound },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{FcConfig, RbConfig};
    use crate::AqedHarness;
    use aqed_hls::{synthesize, AccelSpec, SynthOptions};
    use aqed_sat::DimacsBackend;

    fn buggy_harness_report(jobs: usize) -> ParallelVerifyReport {
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
        AqedHarness::new(&lca)
            .with_fc(FcConfig::default())
            .with_rb(RbConfig::default())
            .verify_parallel(&mut p, 8, jobs)
    }

    #[test]
    fn jobs_one_and_four_agree() {
        let seq = buggy_harness_report(1);
        let par = buggy_harness_report(4);
        assert!(seq.found_bug() && par.found_bug());
        let (s, p) = (seq.counterexample().unwrap(), par.counterexample().unwrap());
        assert_eq!(s.bad_name, p.bad_name);
        assert_eq!(s.depth, p.depth);
        assert_eq!(seq.obligations.len(), par.obligations.len());
        assert!(!seq.degraded && !par.degraded);
    }

    #[test]
    fn aggregate_sums_per_obligation_stats() {
        let report = buggy_harness_report(2);
        assert!(report.obligations.len() > 1);
        let call_sum: u64 = report
            .obligations
            .iter()
            .map(|r| r.stats.solver_calls)
            .sum();
        assert_eq!(report.aggregate.solver_calls, call_sum);
        let conflict_sum: u64 = report
            .obligations
            .iter()
            .map(|r| r.stats.solver.conflicts)
            .sum();
        assert_eq!(report.aggregate.solver.conflicts, conflict_sum);
        assert!(report.to_string().contains("obligations"));
        // Every completed obligation records at least one attempt.
        assert!(report.obligations.iter().all(|r| r.attempts >= 1));
    }

    #[test]
    fn meter_tracks_obligations_and_live_conflicts() {
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
        let (composed, _) = AqedHarness::new(&lca)
            .with_fc(FcConfig::default())
            .with_rb(RbConfig::default())
            .build(&mut p);
        let meter = Arc::new(aqed_obs::JobMeter::new());
        let ctx = RunContext {
            meter: Some(Arc::clone(&meter)),
            ..RunContext::default()
        };
        let options = BmcOptions::default().with_max_bound(8);
        let sched = ScheduleOptions::default().with_jobs(2);
        let report = verify_obligations_governed::<Solver>(&composed, &p, &options, &sched, &ctx);
        assert!(report.found_bug(), "{report}");
        let total = report.obligations.len() as u64;
        assert!(total > 1);
        assert_eq!(meter.obligations_total(), total);
        assert_eq!(meter.obligations_done(), total);
        // Every solve folds its conflicts in when it returns, so once the
        // run is over the live count has caught up with the report.
        assert!(report.aggregate.solver.conflicts > 0);
        assert_eq!(meter.conflicts(), report.aggregate.solver.conflicts);
    }

    /// The buggy `inc` accelerator composed with FC and RB monitors.
    fn buggy_composed(p: &mut ExprPool) -> TransitionSystem {
        let spec = AccelSpec::new("inc", 2, 6, 6);
        let lca = synthesize(
            &spec,
            p,
            SynthOptions {
                forwarding_bug: true,
                ..SynthOptions::default()
            },
            |pool, _a, d| {
                let one = pool.lit(6, 1);
                pool.add(d, one)
            },
        );
        AqedHarness::new(&lca)
            .with_fc(FcConfig::default())
            .with_rb(RbConfig::default())
            .build(p)
            .0
    }

    #[test]
    fn inline_run_restores_the_callers_thread_meter() {
        let mut p = ExprPool::new();
        let composed = buggy_composed(&mut p);
        let caller = Arc::new(aqed_obs::JobMeter::new());
        let before = aqed_obs::meter::set_thread_meter(Some(Arc::clone(&caller)));
        aqed_obs::set_current_span_id(Some(7));
        let job = Arc::new(aqed_obs::JobMeter::new());
        let ctx = RunContext {
            meter: Some(Arc::clone(&job)),
            ..RunContext::default()
        };
        let options = BmcOptions::default().with_max_bound(8);
        let sched = ScheduleOptions::default().with_jobs(1);
        let report = verify_obligations_governed::<Solver>(&composed, &p, &options, &sched, &ctx);
        let restored = aqed_obs::meter::current_thread_meter();
        let span = aqed_obs::current_span_id();
        aqed_obs::meter::set_thread_meter(before);
        aqed_obs::set_current_span_id(None);
        assert!(report.found_bug(), "{report}");
        assert_eq!(report.jobs, 1);
        // The run's live progress went to the job's meter...
        assert!(report.aggregate.solver.conflicts > 0);
        assert_eq!(job.conflicts(), report.aggregate.solver.conflicts);
        assert_eq!(job.obligations_done(), report.obligations.len() as u64);
        // ...and the caller got its own meter and span back, untouched.
        assert!(restored.is_some_and(|m| Arc::ptr_eq(&m, &caller)));
        assert_eq!(caller.conflicts(), 0);
        assert_eq!(span, Some(7));
    }

    /// Per-obligation verdicts, for comparing runs.
    fn verdicts(report: &ParallelVerifyReport) -> Vec<String> {
        report
            .obligations
            .iter()
            .map(|r| {
                let v = match &r.outcome {
                    CheckOutcome::Clean { bound } => format!("clean@{bound}"),
                    CheckOutcome::Bug { counterexample, .. } => {
                        format!("bug@{}", counterexample.depth)
                    }
                    other => format!("{other:?}"),
                };
                format!("{}: {v}", r.obligation.bad_name)
            })
            .collect()
    }

    #[test]
    fn one_and_two_jobs_agree_over_one_shared_store() {
        let mut p = ExprPool::new();
        let composed = buggy_composed(&mut p);
        let options = BmcOptions::default().with_max_bound(8);
        let run = |jobs: usize, ctx: &RunContext| {
            let sched = ScheduleOptions::default().with_jobs(jobs);
            verify_obligations_governed::<Solver>(&composed, &p, &options, &sched, ctx)
        };
        let reference = verdicts(&run(1, &RunContext::default()));
        assert!(
            reference.iter().any(|v| v.contains("bug@")),
            "{reference:?}"
        );
        // Each store is filled by one worker count and served to the
        // other, then to the first again.
        for (cold, warm) in [(1, 2), (2, 1)] {
            let ctx = RunContext::with_artifacts(Arc::new(ArtifactStore::new()));
            let filled = run(cold, &ctx);
            assert_eq!(filled.cache_hits, 0);
            assert_eq!(verdicts(&filled), reference, "cold at jobs = {cold}");
            for jobs in [warm, cold] {
                let served = run(jobs, &ctx);
                assert_eq!(served.cache_hits, served.obligations.len() as u64);
                assert_eq!(verdicts(&served), reference, "warm at jobs = {jobs}");
                let merged = |r: &ParallelVerifyReport| {
                    let cex = r.counterexample().map(|c| (c.bad_name.clone(), c.depth));
                    (r.exit_code(), cex)
                };
                assert_eq!(merged(&served), merged(&filled));
            }
        }
    }

    #[test]
    fn clean_design_clean_under_parallel_dimacs_backend() {
        let mut p = ExprPool::new();
        let spec = AccelSpec::new("ident", 2, 6, 6).with_latency(2);
        let lca = synthesize(&spec, &mut p, SynthOptions::default(), |_pool, _a, d| d);
        let report = AqedHarness::new(&lca)
            .with_fc(FcConfig::default())
            .verify_parallel_with::<DimacsBackend>(&mut p, 6, 3);
        assert!(
            matches!(report.outcome, CheckOutcome::Clean { bound: 6 }),
            "{report}"
        );
        for r in &report.obligations {
            assert!(matches!(r.outcome, CheckOutcome::Clean { .. }));
        }
        assert!(!report.degraded);
        assert_eq!(report.watchdog_trips, 0);
    }

    #[test]
    fn fail_fast_still_reports_every_obligation() {
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
        let sched = ScheduleOptions::default().with_jobs(4).with_fail_fast(true);
        let report = AqedHarness::new(&lca)
            .with_fc(FcConfig::default())
            .with_rb(RbConfig::default())
            .verify_parallel_scheduled::<Solver>(&mut p, 8, &sched);
        // The bug is found and validated; siblings either finished or
        // were cancelled, but every obligation has a report.
        assert!(report.found_bug(), "{report}");
        assert!(!report.degraded);
        assert_eq!(report.obligations.len(), 4);
        for r in &report.obligations {
            assert!(
                !matches!(r.outcome, CheckOutcome::Errored { .. }),
                "fail-fast must not degrade obligations: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn merge_prefers_shallowest_bug() {
        // Synthetic reports: a deep bug on obligation 0, shallow on 1.
        let mut deep = buggy_harness_report(1);
        assert!(deep.obligations.len() >= 2);
        let cex = deep.counterexample().unwrap().clone();
        let mut shallow_cex = cex.clone();
        shallow_cex.depth = 0;
        deep.obligations[0].outcome = CheckOutcome::Bug {
            property: PropertyKind::Fc,
            counterexample: cex,
        };
        deep.obligations[1].outcome = CheckOutcome::Bug {
            property: PropertyKind::Fc,
            counterexample: shallow_cex,
        };
        let merged = merge_outcome(&deep.obligations, 8);
        match merged {
            CheckOutcome::Bug { counterexample, .. } => assert_eq!(counterexample.depth, 0),
            other => panic!("expected bug, got {other:?}"),
        }
    }

    #[test]
    fn merge_ranks_errored_above_inconclusive() {
        let mut report = buggy_harness_report(1);
        for r in &mut report.obligations {
            r.outcome = CheckOutcome::Clean { bound: 8 };
        }
        report.obligations[0].outcome = CheckOutcome::Inconclusive {
            bound: 3,
            reason: StopReason::Conflicts,
        };
        report.obligations[1].outcome = CheckOutcome::Errored {
            message: "worker panicked: test".into(),
        };
        let merged = merge_outcome(&report.obligations, 8);
        assert!(matches!(merged, CheckOutcome::Errored { .. }), "{merged:?}");
        // Without the errored entry, the inconclusive (with its reason)
        // surfaces instead.
        report.obligations[1].outcome = CheckOutcome::Clean { bound: 8 };
        let merged = merge_outcome(&report.obligations, 8);
        match merged {
            CheckOutcome::Inconclusive { bound, reason } => {
                assert_eq!(bound, 3);
                assert_eq!(reason, StopReason::Conflicts);
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }
}

//! The CDCL search engine.
//!
//! Clause storage is a flat arena ([`crate::alloc::ClauseAllocator`]):
//! every clause of three or more literals lives at a `u32` offset in one
//! contiguous buffer, and freed clauses are compacted away by a copying
//! garbage collector once a fifth of the arena is dead. Two-literal
//! clauses never touch the arena — they are inlined into the watch
//! lists, so binary propagation (the bulk of Tseitin-encoded problems)
//! resolves from the watcher alone without a single clause lookup.
//!
//! Truth values are stored per literal, not per variable: `vals` holds
//! one entry for each [`Lit::index`], and an assignment writes both of a
//! variable's slots, so a literal's value is one load with no polarity
//! branch. `propagate` walks each watch list detached from the solver.
//! Both are layout choices that leave the search alone:
//! `tests/search_golden.rs` pins the decision, conflict and learnt
//! counts of every catalog obligation.

use crate::alloc::ClauseAllocator;
use crate::budget::{ArmedBudget, StopReason};
use crate::heap::ActivityHeap;
use crate::preprocess::{ElimRecord, PreprocessOutcome, Preprocessor};
use crate::share::{ClausePool, ShareCtx, SharedClause, MAX_SHARED_GLUE, MAX_SHARED_LITS};
use crate::{ClauseRef, LBool, Lit, Var};
use std::fmt;
use std::sync::Arc;

const VAR_RESCALE_LIMIT: f64 = 1e100;
const VAR_RESCALE_FACTOR: f64 = 1e-100;
const CLA_RESCALE_LIMIT: f64 = 1e20;
const CLA_RESCALE_FACTOR: f64 = 1e-20;

/// Imported peer clauses wait in a bounded buffer until the search is
/// back at decision level 0; beyond this many pending clauses the drain
/// stops picking up more (losing shared clauses is always sound).
const MAX_PENDING_IMPORTS: usize = 4096;

/// Smoothing factors of the fast/slow literal-block-distance averages
/// behind glucose-style restarts.
const LBD_EMA_FAST: f64 = 1.0 / 32.0;
const LBD_EMA_SLOW: f64 = 1.0 / 4096.0;

/// Restart schedule of the CDCL search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RestartStrategy {
    /// Luby-sequence restarts: run `i` allows `unit · luby(base, i)`
    /// conflicts. The classic default is `base = 2`, `unit = 100`.
    Luby {
        /// Growth base of the Luby sequence.
        base: f64,
        /// Conflicts multiplier applied to each sequence element.
        unit: u64,
    },
    /// Glucose-style adaptive restarts: restart once the fast
    /// literal-block-distance average exceeds the slow average by
    /// `margin`, but never before `min_conflicts` conflicts into the
    /// current run.
    Glucose {
        /// Fast-over-slow LBD ratio that triggers a restart.
        margin: f64,
        /// Minimum conflicts per run before the trigger is consulted.
        min_conflicts: u64,
    },
    /// Never restart.
    Never,
}

/// Decision-polarity policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseMode {
    /// Branch to the polarity the variable last held (phase saving).
    Saved,
    /// Always branch negative (the pre-phase-saving MiniSat default).
    AlwaysFalse,
    /// Always branch positive.
    AlwaysTrue,
}

/// Tunable search parameters — the diversification surface raced by the
/// portfolio backend. [`SolverConfig::default`] reproduces the solver's
/// historical hard-coded behaviour exactly (same restart schedule, same
/// decay, no randomization), so a default-configured solver is
/// search-identical to every earlier release.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Restart schedule.
    pub restart: RestartStrategy,
    /// EVSIDS activity decay: the activity increment grows by
    /// `1 / var_decay` per conflict. Closer to 1 = longer memory.
    pub var_decay: f64,
    /// Decision-polarity policy.
    pub phase: PhaseMode,
    /// Probability of overriding the polarity policy with a random
    /// polarity at a decision. 0 never consults the RNG.
    pub random_polarity_freq: f64,
    /// Probability of branching on a uniformly random unassigned
    /// variable instead of the activity-heap maximum. 0 never consults
    /// the RNG.
    pub random_var_freq: f64,
    /// Seed of the deterministic xorshift RNG behind the two
    /// frequencies above (runs are reproducible for a fixed config).
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            restart: RestartStrategy::Luby {
                base: 2.0,
                unit: 100,
            },
            var_decay: 0.95,
            phase: PhaseMode::Saved,
            random_polarity_freq: 0.0,
            random_var_freq: 0.0,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl SolverConfig {
    /// The deterministic diversification palette of portfolio worker
    /// `i`.
    ///
    /// Worker 0 always runs the default configuration, so a one-worker
    /// portfolio searches identically to the plain CDCL backend.
    /// Workers 1–7 vary the restart schedule, activity decay, polarity
    /// policy, and randomization; beyond 8 the palette repeats with
    /// fresh RNG seeds, which still diverges its randomized members.
    #[must_use]
    pub fn diversified(i: usize) -> Self {
        let seed = splitmix64(0x00A0_9EED ^ i as u64);
        let base = SolverConfig {
            seed,
            ..SolverConfig::default()
        };
        match i % 8 {
            1 => SolverConfig {
                restart: RestartStrategy::Glucose {
                    margin: 1.25,
                    min_conflicts: 100,
                },
                var_decay: 0.85,
                ..base
            },
            2 => SolverConfig {
                restart: RestartStrategy::Luby {
                    base: 2.0,
                    unit: 512,
                },
                phase: PhaseMode::AlwaysTrue,
                ..base
            },
            3 => SolverConfig {
                var_decay: 0.99,
                random_polarity_freq: 0.02,
                ..base
            },
            4 => SolverConfig {
                restart: RestartStrategy::Luby {
                    base: 3.0,
                    unit: 100,
                },
                random_var_freq: 0.02,
                ..base
            },
            5 => SolverConfig {
                restart: RestartStrategy::Glucose {
                    margin: 1.4,
                    min_conflicts: 50,
                },
                var_decay: 0.75,
                phase: PhaseMode::AlwaysFalse,
                ..base
            },
            6 => SolverConfig {
                restart: RestartStrategy::Luby {
                    base: 2.0,
                    unit: 32,
                },
                var_decay: 0.9,
                random_polarity_freq: 0.05,
                ..base
            },
            7 => SolverConfig {
                restart: RestartStrategy::Luby {
                    base: 2.0,
                    unit: 1024,
                },
                phase: PhaseMode::AlwaysTrue,
                random_var_freq: 0.05,
                ..base
            },
            _ => base,
        }
    }
}

/// SplitMix64: seeds the per-config RNG streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic xorshift64* PRNG behind the randomized decision
/// policies (no external dependency, reproducible across platforms).
#[derive(Debug, Clone)]
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    #[allow(clippy::cast_precision_loss)]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource limit (conflicts, wall clock, propagations, memory) was
    /// exhausted or the solve was cancelled before a verdict was reached;
    /// [`Solver::stop_reason`] says which.
    Unknown,
}

/// Cumulative solver statistics, exposed for the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses currently in the database.
    pub learnts: u64,
    /// Number of learned clauses deleted by database reduction.
    pub deleted: u64,
    /// Number of propagations resolved by the inline binary-clause fast
    /// path (no arena access).
    pub binary_props: u64,
    /// Number of arena garbage collections performed.
    pub gc_runs: u64,
    /// Current clause-arena size in bytes (live + not-yet-collected).
    pub arena_bytes: u64,
    /// Clauses removed by subsumption plus literals removed by
    /// self-subsuming resolution during preprocessing.
    pub subsumed: u64,
    /// Variables removed by bounded variable elimination (cumulative;
    /// reactivated variables are not subtracted).
    pub eliminated_vars: u64,
    /// Total time spent inside the CNF preprocessor, in microseconds.
    pub preprocess_micros: u64,
    /// Preprocessing passes run (the effort gate's firings plus explicit
    /// [`Solver::simplify`] calls).
    pub preprocess_runs: u64,
    /// Learnt clauses exported to portfolio peers (clause sharing).
    pub shared_exported: u64,
    /// Peer clauses imported and installed (clause sharing).
    pub shared_imported: u64,
    /// Conflicts spent by losing portfolio workers — search effort that
    /// did not produce the verdict.
    pub wasted_conflicts: u64,
    /// Always 0: no caller imports learnt clauses from outside the
    /// solver. Kept because the benchmark reads it.
    pub learnt_imported: u64,
    /// Worker index that produced the verdict of the most recent
    /// portfolio race, or `None` outside portfolio solving.
    pub portfolio_winner: Option<u32>,
}

impl SolverStats {
    /// Folds another solver's statistics into this one. Counters add up;
    /// `arena_bytes` (a point-in-time gauge) takes the maximum. Used to
    /// aggregate per-obligation solver runs into one report.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnts += other.learnts;
        self.deleted += other.deleted;
        self.binary_props += other.binary_props;
        self.gc_runs += other.gc_runs;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.subsumed += other.subsumed;
        self.eliminated_vars += other.eliminated_vars;
        self.preprocess_micros += other.preprocess_micros;
        self.preprocess_runs += other.preprocess_runs;
        self.shared_exported += other.shared_exported;
        self.shared_imported += other.shared_imported;
        self.wasted_conflicts += other.wasted_conflicts;
        self.learnt_imported += other.learnt_imported;
        if other.portfolio_winner.is_some() {
            self.portfolio_winner = other.portfolio_winner;
        }
    }

    /// The effort recorded since `earlier`, an older snapshot of the same
    /// solver's statistics: counters subtract, while the `arena_bytes`
    /// gauge and `portfolio_winner` keep their current values.
    #[must_use]
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnts: self.learnts.saturating_sub(earlier.learnts),
            deleted: self.deleted.saturating_sub(earlier.deleted),
            binary_props: self.binary_props.saturating_sub(earlier.binary_props),
            gc_runs: self.gc_runs.saturating_sub(earlier.gc_runs),
            arena_bytes: self.arena_bytes,
            subsumed: self.subsumed.saturating_sub(earlier.subsumed),
            eliminated_vars: self.eliminated_vars.saturating_sub(earlier.eliminated_vars),
            preprocess_micros: self
                .preprocess_micros
                .saturating_sub(earlier.preprocess_micros),
            preprocess_runs: self.preprocess_runs.saturating_sub(earlier.preprocess_runs),
            shared_exported: self.shared_exported.saturating_sub(earlier.shared_exported),
            shared_imported: self.shared_imported.saturating_sub(earlier.shared_imported),
            wasted_conflicts: self
                .wasted_conflicts
                .saturating_sub(earlier.wasted_conflicts),
            learnt_imported: self.learnt_imported.saturating_sub(earlier.learnt_imported),
            portfolio_winner: self.portfolio_winner,
        }
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} propagations={} conflicts={} restarts={} learnts={} deleted={} \
             binary_props={} gc_runs={} arena_bytes={} subsumed={} eliminated_vars={} \
             preprocess_micros={} preprocess_runs={} shared_exported={} shared_imported={} \
             wasted_conflicts={} learnt_imported={} portfolio_winner={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnts,
            self.deleted,
            self.binary_props,
            self.gc_runs,
            self.arena_bytes,
            self.subsumed,
            self.eliminated_vars,
            self.preprocess_micros,
            self.preprocess_runs,
            self.shared_exported,
            self.shared_imported,
            self.wasted_conflicts,
            self.learnt_imported,
            self.portfolio_winner
                .map_or_else(|| "-".to_string(), |w| w.to_string()),
        )
    }
}

/// Why a variable is assigned: the antecedent of a propagation.
///
/// Binary clauses propagate straight from the watch lists, so their
/// antecedent is the one other literal rather than an arena reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// Implied by an arena clause (the implied literal is at position 0).
    Clause(ClauseRef),
    /// Implied by the binary clause `(implied ∨ other)`; `other` is false.
    Binary(Lit),
}

/// A conflicting clause found by propagation.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    Clause(ClauseRef),
    Binary(Lit, Lit),
}

/// One entry of a watch list.
///
/// `cref == None` marks an inlined binary clause `(¬watched ∨ blocker)`:
/// the watcher carries the whole clause, so propagation never reads the
/// arena for it. For longer clauses `blocker` is a cached literal whose
/// truth proves the clause satisfied without loading it.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    blocker: Lit,
    cref: Option<ClauseRef>,
}

/// Incremental CDCL SAT solver.
///
/// See the [crate-level documentation](crate) for the feature list and a
/// usage example. A single instance can be reused across many
/// [`Solver::solve_with`] calls with different assumptions; clauses may be
/// added between calls (the intended BMC workflow).
#[derive(Debug, Clone)]
pub struct Solver {
    ca: ClauseAllocator,
    /// Live irredundant arena clauses (for GC relocation).
    clauses: Vec<ClauseRef>,
    /// Live learnt arena clauses (reduction candidates).
    learnts: Vec<ClauseRef>,
    /// Binary clauses attached so far (they live only in watch lists).
    num_binary: usize,
    watches: Vec<Vec<Watcher>>,
    /// Truth value of every literal, indexed by [`Lit::index`]: a
    /// variable's two slots always hold opposite values or are both
    /// `Undef`. Per-variable reads use the positive slot, `vals[2v]`.
    vals: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<Reason>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: ActivityHeap,
    phase: Vec<bool>,
    cla_inc: f64,
    cla_decay: f64,
    ok: bool,
    model: Vec<bool>,
    has_model: bool,
    seen: Vec<bool>,
    max_learnts: f64,
    conflict_budget: Option<u64>,
    armed: ArmedBudget,
    stop_reason: Option<StopReason>,
    /// Coarse step counter: the armed budget is only inspected every
    /// [`BUDGET_CHECK_INTERVAL`] conflicts/decisions so `Instant::now()`
    /// stays off the propagation hot path.
    tick: u64,
    /// `(conflicts, propagations)` at the start of the current solve
    /// call; effort caps are enforced per call, not cumulatively.
    solve_base: (u64, u64),
    /// Tunable search parameters (restart schedule, activity decay,
    /// polarity policy, randomization); see [`SolverConfig`].
    config: SolverConfig,
    /// Deterministic RNG behind the randomized decision policies; never
    /// consulted while both `config` frequencies are zero.
    rng: XorShift64,
    /// Fast/slow exponential moving averages of learnt-clause glue,
    /// driving glucose-style restarts (and the clause-sharing filter).
    lbd_fast: f64,
    lbd_slow: f64,
    /// Per-decision-level stamps for O(|clause|) glue computation.
    glue_stamp: Vec<u64>,
    glue_tick: u64,
    /// Clause-sharing pool membership (portfolio workers only).
    share: Option<ShareCtx>,
    /// Peer clauses picked up at the budget tick, waiting for decision
    /// level 0 to be installed.
    pending_import: Vec<SharedClause>,
    decision_heuristic: bool,
    stats: SolverStats,
    num_learnts: u64,
    /// Whether solve calls run [`Solver::preprocess`] when the effort
    /// gate says a pass is due.
    preprocess_enabled: bool,
    /// Variables the preprocessor must never eliminate (external
    /// interface: assumption carriers, frame boundaries).
    frozen: Vec<bool>,
    /// Variables currently eliminated by the preprocessor. They carry no
    /// clauses; their model values are reconstructed by
    /// [`Solver::extend_model`], and adding a clause over one transparently
    /// reactivates it.
    eliminated: Vec<bool>,
    /// For an eliminated variable, its index into `elim_stack`.
    elim_index: Vec<u32>,
    /// Elimination records in elimination order (model reconstruction
    /// walks it in reverse).
    elim_stack: Vec<ElimRecord>,
    /// `stats.propagations` right after the last preprocessing pass (0
    /// before the first): the effort gate counts search from there.
    simp_props: u64,
    /// Whether an irredundant clause was added since the last pass; a
    /// database without one has nothing new for a pass to simplify.
    simp_added: bool,
    /// Observability sampling state; only touched at the coarse budget
    /// tick, and only when `aqed_obs::enabled()`.
    obs: ObsState,
}

/// CDCL progress sampling state.
#[derive(Debug, Clone, Default)]
struct ObsState {
    /// Progress ticks taken while observability was on; every 16th
    /// emits a `sat.progress` event.
    samples: u64,
    /// Conflict count already folded into the thread's job meter.
    live_flushed: u64,
}

/// How many search steps (conflicts + decisions) pass between armed
/// budget inspections.
const BUDGET_CHECK_INTERVAL: u64 = 64;

/// The preprocessing effort gate: a pass is due once search has made
/// this many propagations, per clause the pass would read, since the
/// last pass (MiniSat's `simpDB_props` rule). A pass costs a few
/// occurrence-list visits per clause, so it waits until search has
/// spent more. EXPERIMENTS.md ("Feature ledger") has the sweep behind
/// the value.
const SIMP_PROPS_PER_CLAUSE: u64 = 30;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with the given search configuration.
    #[must_use]
    pub fn with_config(config: SolverConfig) -> Self {
        let rng = XorShift64::new(config.seed);
        Solver {
            ca: ClauseAllocator::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            num_binary: 0,
            watches: Vec::new(),
            vals: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: ActivityHeap::new(),
            phase: Vec::new(),
            cla_inc: 1.0,
            cla_decay: 0.999,
            ok: true,
            model: Vec::new(),
            has_model: false,
            seen: Vec::new(),
            max_learnts: 0.0,
            conflict_budget: None,
            armed: ArmedBudget::unlimited(),
            stop_reason: None,
            tick: 0,
            solve_base: (0, 0),
            config,
            rng,
            lbd_fast: 0.0,
            lbd_slow: 0.0,
            // Index 0 covers decision level 0; `new_var` keeps the vector
            // one entry ahead of the deepest possible level.
            glue_stamp: vec![0],
            glue_tick: 0,
            share: None,
            pending_import: Vec::new(),
            decision_heuristic: true,
            stats: SolverStats::default(),
            num_learnts: 0,
            preprocess_enabled: false,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_index: Vec::new(),
            elim_stack: Vec::new(),
            simp_props: 0,
            simp_added: false,
            obs: ObsState::default(),
        }
    }

    /// The active search configuration.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Replaces the search configuration (reseeding the decision RNG).
    /// Applies to subsequent solve calls.
    pub fn set_config(&mut self, config: SolverConfig) {
        self.rng = XorShift64::new(config.seed);
        self.config = config;
    }

    /// Joins a clause-sharing pool as worker `id`: short, low-glue learnt
    /// clauses are exported to the pool and peer clauses are picked up at
    /// the coarse budget tick, then installed at decision level 0. All
    /// participants must share one variable numbering (the portfolio
    /// backend keeps workers variable-synchronized before each solve).
    pub fn set_sharing(&mut self, pool: Arc<ClausePool>, id: usize) {
        self.share = Some(ShareCtx::new(pool, id));
    }

    /// Leaves the clause-sharing pool. Already-imported clauses remain
    /// (they are implied, so keeping them is always sound).
    pub fn clear_sharing(&mut self) {
        self.share = None;
    }

    /// Number of variables created so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses currently in the database (original + learned,
    /// excluding deleted; binary clauses included).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len() + self.learnts.len() + self.num_binary
    }

    /// Cumulative search statistics.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.arena_bytes = self.ca.bytes() as u64;
        s
    }

    /// Limits the next [`Solver::solve`]/[`Solver::solve_with`] call to at
    /// most `budget` conflicts; `None` removes the limit. When the budget
    /// is exhausted the call returns [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs an armed resource budget governing all following solve
    /// calls. The search loop polls it at a coarse interval; tripping any
    /// limit (deadline, caps, cancellation) makes the solve return
    /// [`SolveResult::Unknown`] with [`Solver::stop_reason`] set.
    pub fn set_budget(&mut self, armed: ArmedBudget) {
        self.armed = armed;
    }

    /// Why the most recent solve call returned [`SolveResult::Unknown`],
    /// or `None` if it reached a verdict (or no solve has run yet).
    #[must_use]
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    /// Checks the armed budget against this call's effort counters.
    fn check_armed(&self) -> Option<StopReason> {
        let conflicts = self.stats.conflicts - self.solve_base.0;
        let propagations = self.stats.propagations - self.solve_base.1;
        self.armed
            .check(conflicts, propagations, self.ca.bytes() as u64)
    }

    /// Enables or disables restarts (ablation hook; enabled by default).
    /// Shorthand for setting [`SolverConfig::restart`] to the default
    /// Luby schedule or [`RestartStrategy::Never`].
    pub fn set_restarts_enabled(&mut self, enabled: bool) {
        self.config.restart = if enabled {
            SolverConfig::default().restart
        } else {
            RestartStrategy::Never
        };
    }

    /// Enables or disables the VSIDS decision heuristic (ablation hook;
    /// enabled by default). When disabled, decisions pick the lowest
    /// unassigned variable index.
    pub fn set_decision_heuristic(&mut self, enabled: bool) {
        self.decision_heuristic = enabled;
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(u32::try_from(self.level.len()).expect("too many variables"));
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.model.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.frozen.push(false);
        self.eliminated.push(false);
        self.elim_index.push(u32::MAX);
        self.glue_stamp.push(0);
        self.heap.grow(self.level.len());
        self.heap.insert(v.index(), &self.activity);
        v
    }

    /// Creates `n` fresh variables and returns them in order.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        self.vals[l.index()]
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at the top level (the clause or its unit consequences
    /// contradict previously added clauses).
    ///
    /// Duplicate literals are removed, tautologies are ignored, and
    /// literals already false at level 0 are dropped.
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level 0
    /// (i.e. from inside a search callback — not possible through the
    /// public API) or if a literal's variable was not created by this
    /// solver.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        let ls: Vec<Lit> = lits.into_iter().collect();
        for &l in &ls {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} uses an unknown variable"
            );
        }
        self.reactivate_touched(&ls);
        if !self.ok {
            return false;
        }
        self.add_clause_vec(ls)
    }

    /// [`Solver::add_clause`] after the external checks: simplifies
    /// against the level-0 trail and commits. Must not contain eliminated
    /// variables (callers reactivate first); this is also the re-entry
    /// path reactivation and rebuilding use, so it must not reactivate
    /// itself.
    fn add_clause_vec(&mut self, mut ls: Vec<Lit>) -> bool {
        ls.sort_unstable();
        ls.dedup();
        // Tautology / level-0 simplification.
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // l ∨ ¬l: tautology
            }
            match self.value_lit(l) {
                LBool::True if self.level[l.var().index()] == 0 => return true,
                LBool::False if self.level[l.var().index()] == 0 => {}
                _ => out.push(l),
            }
        }
        self.commit_simplified(&out)
    }

    /// Adds a two-literal clause without heap allocation — the dominant
    /// clause shape emitted by Tseitin bit-blasting. Semantics are
    /// identical to [`Solver::add_clause`] on the same literals.
    ///
    /// # Panics
    ///
    /// As for [`Solver::add_clause`].
    pub fn add_binary(&mut self, a: Lit, b: Lit) -> bool {
        self.add_small(&mut [a, b])
    }

    /// Adds a three-literal clause without heap allocation (the other
    /// clause shape of Tseitin gate encodings). Semantics are identical
    /// to [`Solver::add_clause`] on the same literals.
    ///
    /// # Panics
    ///
    /// As for [`Solver::add_clause`].
    pub fn add_ternary(&mut self, a: Lit, b: Lit, c: Lit) -> bool {
        self.add_small(&mut [a, b, c])
    }

    /// Shared allocation-free path for 2- and 3-literal clauses:
    /// simplifies on the stack, then dispatches to the right store.
    fn add_small(&mut self, lits: &mut [Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        for &l in lits.iter() {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} uses an unknown variable"
            );
        }
        self.reactivate_touched(lits);
        if !self.ok {
            return false;
        }
        lits.sort_unstable();
        let mut out = [Lit(0); 3];
        let mut n = 0usize;
        for i in 0..lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() {
                if lits[i + 1] == l {
                    continue; // duplicate
                }
                if lits[i + 1] == !l {
                    return true; // l ∨ ¬l: tautology (adjacent when sorted)
                }
            }
            match self.value_lit(l) {
                LBool::True if self.level[l.var().index()] == 0 => return true,
                LBool::False if self.level[l.var().index()] == 0 => {}
                _ => {
                    out[n] = l;
                    n += 1;
                }
            }
        }
        self.commit_simplified(&out[..n])
    }

    /// Stores an already-simplified clause (no duplicates, tautologies,
    /// or level-0-false literals).
    fn commit_simplified(&mut self, out: &[Lit]) -> bool {
        self.simp_added = true;
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            2 => {
                self.attach_binary(out[0], out[1], false);
                true
            }
            _ => {
                self.alloc_clause(out, false);
                true
            }
        }
    }

    /// Allocates an arena clause (three or more literals) and attaches
    /// its watchers.
    fn alloc_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 3);
        let cref = self.ca.alloc(lits, learnt);
        if learnt {
            self.learnts.push(cref);
            self.num_learnts += 1;
            self.stats.learnts = self.num_learnts;
        } else {
            self.clauses.push(cref);
        }
        self.attach(cref);
        cref
    }

    /// Attaches a binary clause `(a ∨ b)` by inlining it into both watch
    /// lists; no arena storage is used.
    fn attach_binary(&mut self, a: Lit, b: Lit, learnt: bool) {
        self.watches[(!a).index()].push(Watcher {
            blocker: b,
            cref: None,
        });
        self.watches[(!b).index()].push(Watcher {
            blocker: a,
            cref: None,
        });
        self.num_binary += 1;
        if learnt {
            self.num_learnts += 1;
            self.stats.learnts = self.num_learnts;
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let lits = self.ca.lits(cref);
            (lits[0], lits[1])
        };
        self.watches[(!l0).index()].push(Watcher {
            blocker: l1,
            cref: Some(cref),
        });
        self.watches[(!l1).index()].push(Watcher {
            blocker: l0,
            cref: Some(cref),
        });
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<Reason>) {
        debug_assert!(
            self.vals[l.index()] == LBool::Undef && self.vals[(!l).index()] == LBool::Undef,
            "enqueued literal {l} is already assigned"
        );
        self.vals[l.index()] = LBool::True;
        self.vals[(!l).index()] = LBool::False;
        let v = l.var().index();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    ///
    /// Each literal's watch list is taken out of `self.watches` and walked
    /// as a local vector, then put back, on a conflict too: the walk
    /// indexes a plain `Vec` instead of re-borrowing the list through
    /// `self` at every step, and truth values are one load from the
    /// literal-indexed `vals`. Kept watchers are never rewritten, clauses
    /// that migrate to a new watch are removed with an O(1) `swap_remove`,
    /// and lazily-detached (deleted) clauses drop their watchers the same
    /// way. That removal order decides which conflict is found first, so
    /// it is part of the search: an order-preserving compaction would
    /// find conflicts in a different order and learn different clauses.
    fn propagate(&mut self) -> Option<Conflict> {
        // Outcome of inspecting one non-binary clause, computed under a
        // single arena borrow per visit.
        enum Visit {
            Satisfied(Lit),
            Moved(Lit, Lit),
            Unit(Lit),
            Conflicting,
        }
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let pi = p.index();
            let mut ws = std::mem::take(&mut self.watches[pi]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                let Some(cref) = w.cref else {
                    // Binary fast path: the whole clause is
                    // (false_lit ∨ blocker), carried by the watcher.
                    match self.vals[w.blocker.index()] {
                        LBool::True => {}
                        LBool::Undef => {
                            self.stats.binary_props += 1;
                            self.unchecked_enqueue(w.blocker, Some(Reason::Binary(false_lit)));
                        }
                        LBool::False => {
                            conflict = Some(Conflict::Binary(false_lit, w.blocker));
                            break;
                        }
                    }
                    i += 1;
                    continue;
                };
                if self.ca.is_deleted(cref) {
                    ws.swap_remove(i); // lazily detached
                    continue;
                }
                // Fast path: blocker already true.
                if self.vals[w.blocker.index()] == LBool::True {
                    i += 1;
                    continue;
                }
                let visit = {
                    let vals = &self.vals;
                    let lits = self.ca.lits_mut(cref);
                    // Normalize: ensure false_lit is at position 1.
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    let first = lits[0];
                    if first != w.blocker && vals[first.index()] == LBool::True {
                        Visit::Satisfied(first)
                    } else {
                        // Look for a new literal to watch.
                        let mut moved = None;
                        for k in 2..lits.len() {
                            if vals[lits[k].index()] != LBool::False {
                                lits.swap(1, k);
                                moved = Some(lits[1]);
                                break;
                            }
                        }
                        match moved {
                            Some(lk) => Visit::Moved(lk, first),
                            // No new watch: clause is unit or conflicting.
                            None if vals[first.index()] == LBool::False => Visit::Conflicting,
                            None => Visit::Unit(first),
                        }
                    }
                };
                match visit {
                    Visit::Satisfied(first) => {
                        ws[i].blocker = first;
                        i += 1;
                    }
                    Visit::Moved(lk, first) => {
                        ws.swap_remove(i);
                        // `lk` is non-false while `false_lit` is false, so
                        // the new watcher never lands on the detached list.
                        debug_assert_ne!((!lk).index(), pi);
                        self.watches[(!lk).index()].push(Watcher {
                            blocker: first,
                            cref: Some(cref),
                        });
                    }
                    Visit::Unit(first) => {
                        self.unchecked_enqueue(first, Some(Reason::Clause(cref)));
                        i += 1;
                    }
                    Visit::Conflicting => {
                        conflict = Some(Conflict::Clause(cref));
                        break;
                    }
                }
            }
            self.watches[pi] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                break;
            }
        }
        conflict
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > VAR_RESCALE_LIMIT {
            for a in self.activity.iter_mut() {
                *a *= VAR_RESCALE_FACTOR;
            }
            self.var_inc *= VAR_RESCALE_FACTOR;
            self.heap.rebuild(&self.activity);
        }
        self.heap.update(v, &self.activity);
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= self.config.var_decay;
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.ca.is_learnt(cref) {
            return;
        }
        let bumped = self.ca.activity(cref) + self.cla_inc as f32;
        self.ca.set_activity(cref, bumped);
        if f64::from(bumped) > CLA_RESCALE_LIMIT {
            for idx in 0..self.learnts.len() {
                let c = self.learnts[idx];
                let a = self.ca.activity(c);
                self.ca.set_activity(c, a * CLA_RESCALE_FACTOR as f32);
            }
            self.cla_inc *= CLA_RESCALE_FACTOR;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= self.cla_decay;
    }

    /// Processes one literal of a conflict-side clause during analysis.
    fn analyze_visit(&mut self, q: Lit, learnt: &mut Vec<Lit>, counter: &mut usize) {
        let v = q.var().index();
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump_var(v);
            if self.level[v] >= self.decision_level() {
                *counter += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut index = self.trail.len();

        match conflict {
            Conflict::Clause(cref) => {
                self.bump_clause(cref);
                for k in 0..self.ca.size(cref) {
                    let q = self.ca.lit(cref, k);
                    self.analyze_visit(q, &mut learnt, &mut counter);
                }
            }
            Conflict::Binary(a, b) => {
                self.analyze_visit(a, &mut learnt, &mut counter);
                self.analyze_visit(b, &mut learnt, &mut counter);
            }
        }

        let uip = loop {
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                break lit;
            }
            match self.reason[v].expect("non-decision literal has a reason") {
                Reason::Clause(cref) => {
                    self.bump_clause(cref);
                    // Position 0 is the implied literal (`lit`): skip it.
                    for k in 1..self.ca.size(cref) {
                        let q = self.ca.lit(cref, k);
                        self.analyze_visit(q, &mut learnt, &mut counter);
                    }
                }
                Reason::Binary(other) => self.analyze_visit(other, &mut learnt, &mut counter),
            }
        };
        learnt[0] = !uip;

        // Clause minimization: drop literals implied by the rest.
        let mut minimized = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.literal_redundant(l) {
                minimized.push(l);
            }
        }
        // Clear seen flags.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }

        // Find backjump level: the max level among non-asserting literals.
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        (minimized, bt)
    }

    /// Local redundancy check: a literal is redundant if it has a reason
    /// clause all of whose other literals are already in the learned
    /// clause (seen) or assigned at level 0.
    fn literal_redundant(&self, l: Lit) -> bool {
        let v = l.var().index();
        match self.reason[v] {
            None => false,
            Some(Reason::Binary(other)) => {
                self.seen[other.var().index()] || self.level[other.var().index()] == 0
            }
            Some(Reason::Clause(cref)) => self.ca.lits(cref).iter().all(|&q| {
                q.var() == l.var() || self.seen[q.var().index()] || self.level[q.var().index()] == 0
            }),
        }
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.vals[l.index()] = LBool::Undef;
            self.vals[(!l).index()] = LBool::Undef;
            self.phase[v] = l.is_positive();
            self.reason[v] = None;
            if !self.heap.contains(v) {
                self.heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        if self.decision_heuristic {
            if self.config.random_var_freq > 0.0
                && self.rng.next_f64() < self.config.random_var_freq
            {
                // Leaving the picked variable in the heap is fine: an
                // assigned entry is skipped on a later pop.
                if let Some(v) = self.random_free_var() {
                    return Some(v);
                }
            }
            while let Some(v) = self.heap.pop_max(&self.activity) {
                if self.vals[2 * v] == LBool::Undef {
                    return Some(Var(v as u32));
                }
            }
            None
        } else {
            // Slot pairs, not `vals[2 * v]`: the scan then needs no
            // bounds check per variable.
            self.vals
                .chunks_exact(2)
                .position(|pair| pair[0] == LBool::Undef)
                .map(|v| Var(v as u32))
        }
    }

    /// A uniformly random unassigned, non-eliminated variable. Bounded
    /// probing: after a few misses the caller falls back to the
    /// activity heap.
    fn random_free_var(&mut self) -> Option<Var> {
        let n = self.num_vars();
        if n == 0 {
            return None;
        }
        for _ in 0..10 {
            let v = (self.rng.next_u64() % n as u64) as usize;
            if self.vals[2 * v] == LBool::Undef && !self.eliminated[v] {
                return Some(Var(v as u32));
            }
        }
        None
    }

    /// Decision polarity for `v` under the configured policy.
    fn decide_polarity(&mut self, v: Var) -> bool {
        let f = self.config.random_polarity_freq;
        if f > 0.0 && self.rng.next_f64() < f {
            return self.rng.next_u64() & 1 == 0;
        }
        match self.config.phase {
            PhaseMode::Saved => self.phase[v.index()],
            PhaseMode::AlwaysFalse => false,
            PhaseMode::AlwaysTrue => true,
        }
    }

    /// Glue (literal-block distance) of a clause: the number of distinct
    /// decision levels among its literals. Must run while the literals
    /// are still assigned, i.e. before backtracking away from the
    /// conflict that produced them.
    fn clause_glue(&mut self, lits: &[Lit]) -> u32 {
        self.glue_tick += 1;
        let stamp = self.glue_tick;
        let mut glue = 0u32;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if self.glue_stamp[lvl] != stamp {
                self.glue_stamp[lvl] = stamp;
                glue += 1;
            }
        }
        glue
    }

    /// Coarse-tick bookkeeping: progress sampling, peer-clause pickup,
    /// and the armed-budget check.
    fn tick_poll(&mut self) -> Option<StopReason> {
        self.obs_sample();
        if self.share.is_some() {
            self.drain_shared();
        }
        self.check_armed()
    }

    /// Copies freshly published peer clauses into the pending-import
    /// buffer (bounded; overflow is dropped, which is always sound).
    #[cold]
    fn drain_shared(&mut self) {
        if let Some(ctx) = self.share.as_mut() {
            let pending = &mut self.pending_import;
            ctx.drain(|c| {
                if pending.len() < MAX_PENDING_IMPORTS {
                    pending.push(c);
                }
            });
        }
    }

    /// Installs pending peer clauses. Only called at decision level 0.
    /// Returns `false` if an import revealed top-level unsatisfiability.
    ///
    /// Peer learnts are implied by the shared original formula, so
    /// installing them preserves both verdicts and models — even when
    /// they mention variables this worker's preprocessor eliminated
    /// (every model of the originals satisfies every implied clause, so
    /// model reconstruction stays valid without reactivation).
    fn install_imports(&mut self) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        while let Some(c) = self.pending_import.pop() {
            if !self.ok {
                self.pending_import.clear();
                return false;
            }
            self.stats.shared_imported += 1;
            self.add_learnt_vec(c.lits().to_vec());
        }
        self.ok
    }

    /// Whether the clause is the reason of its first literal's
    /// assignment (such clauses must survive database reduction).
    /// Position 0 stays the implied literal for as long as the clause is
    /// a reason — propagation only swaps it away once it is unassigned.
    fn locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.ca.lit(cref, 0);
        self.vals[l0.index()] == LBool::True
            && self.reason[l0.var().index()] == Some(Reason::Clause(cref))
    }

    /// Deletes the lowest-activity half of the learnt arena clauses.
    /// Deleted clauses are only marked (lazy detachment: their watchers
    /// fall out during propagation or garbage collection), so reduction
    /// is linear in the learnt count rather than in watch-list lengths.
    ///
    /// The victims are found with a median-of-activity partition
    /// (MiniSat's `reduceDB` trick) instead of a full sort: expected O(n)
    /// rather than O(n log n) on large learnt sets, and no side vector of
    /// (activity, clause) pairs.
    fn reduce_db(&mut self) {
        let target = self.learnts.len() / 2;
        let mut removed = 0u64;
        if target > 0 {
            let ca = &self.ca;
            let (low, _, _) = self.learnts.select_nth_unstable_by(target, |&a, &b| {
                ca.activity(a)
                    .partial_cmp(&ca.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let victims: Vec<ClauseRef> = low.to_vec();
            for cref in victims {
                if self.locked(cref) {
                    continue;
                }
                self.ca.free(cref);
                removed += 1;
            }
        }
        if removed > 0 {
            let ca = &self.ca;
            self.learnts.retain(|&c| !ca.is_deleted(c));
            self.num_learnts -= removed;
            self.stats.deleted += removed;
            self.stats.learnts = self.num_learnts;
        }
        if self.ca.should_collect() {
            self.garbage_collect();
        }
    }

    /// Copies all live clauses into a fresh arena and rewrites every
    /// stored reference (watch lists, reasons, clause lists). Also drops
    /// the watchers of lazily-detached clauses.
    ///
    /// Watch lists are *rebuilt* from the clause arrays rather than
    /// relocated watcher by watcher: each list is first stripped to its
    /// inlined binary clauses (empty and binary-only lists — the common
    /// case on bit-blasted instances — cost nothing), then every live
    /// clause re-attaches its two watchers from its own literals. This
    /// relocates each clause exactly once from a sequential scan of the
    /// clause arrays instead of chasing arena forwarding pointers from
    /// scattered watch-list entries.
    fn garbage_collect(&mut self) {
        let mut to = ClauseAllocator::with_capacity(self.ca.len_words() - self.ca.wasted_words());
        for list in &mut self.watches {
            // Keep only the watcher-inlined binaries; long-clause watchers
            // (including those of lazily-detached clauses) are rebuilt.
            list.retain(|w| w.cref.is_none());
        }
        let ca = &mut self.ca;
        for cref in self.clauses.iter_mut().chain(self.learnts.iter_mut()) {
            *cref = ca.reloc(*cref, &mut to);
        }
        // Only assigned variables can hold reasons, and reduce_db never
        // frees locked clauses, so every reason clause is live (and was
        // just relocated through its clause-list entry).
        for &l in &self.trail {
            let v = l.var().index();
            if let Some(Reason::Clause(cref)) = self.reason[v] {
                self.reason[v] = Some(Reason::Clause(ca.reloc(cref, &mut to)));
            }
        }
        self.ca = to;
        for i in 0..self.clauses.len() {
            self.attach(self.clauses[i]);
        }
        for i in 0..self.learnts.len() {
            self.attach(self.learnts[i]);
        }
        self.stats.gc_runs += 1;
    }

    /// Forces an arena compaction regardless of the wasted fraction.
    /// Useful after large clause deletions (and for tests exercising
    /// reference relocation); the solver also collects automatically once
    /// a fifth of the arena is dead.
    pub fn reclaim_memory(&mut self) {
        self.garbage_collect();
    }

    /// Solves the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves the current formula under the given assumption literals.
    ///
    /// Assumptions are enforced as pseudo-decisions: a result of
    /// [`SolveResult::Unsat`] means the formula is unsatisfiable *under
    /// these assumptions* (the formula itself may still be satisfiable).
    /// The solver always returns at decision level 0, ready for more
    /// clauses or another call.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.has_model = false;
        self.stop_reason = None;
        self.solve_base = (self.stats.conflicts, self.stats.propagations);
        // A budget already spent (deadline passed, cancellation pending,
        // arena over cap) fails the call before any search happens — even
        // a trivially-unsat formula reports Unknown, so "cancelled run ⇒
        // no verdict" holds unconditionally for the scheduler.
        if let Some(reason) = self.check_armed() {
            self.stop_reason = Some(reason);
            return SolveResult::Unknown;
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        for &a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption {a} uses an unknown variable"
            );
        }
        // An assumption over an eliminated variable forces it back into
        // the clause database before search can branch on it.
        self.reactivate_touched(assumptions);
        if self.ok && self.simplify_due() {
            self.preprocess(assumptions);
        }
        if !self.ok {
            // Reactivation or preprocessing derived level-0 unsatisfiability.
            return SolveResult::Unsat;
        }
        // Track the growing clause database (incremental BMC keeps adding
        // frames): the learnt budget must scale with it or the solver
        // thrashes in back-to-back reductions.
        self.max_learnts = self
            .max_learnts
            .max((self.num_clauses() as f64 / 3.0).max(100.0));
        let budget_start = self.stats.conflicts;
        let mut restart_count = 0u64;
        let result = loop {
            // Between runs the solver sits at level 0: the natural point
            // to install clauses imported from portfolio peers.
            if !self.pending_import.is_empty() && !self.install_imports() {
                break SolveResult::Unsat;
            }
            let conflicts_allowed = match self.config.restart {
                RestartStrategy::Luby { base, unit } => {
                    unit.saturating_mul(luby(base, restart_count) as u64)
                }
                RestartStrategy::Glucose { .. } | RestartStrategy::Never => u64::MAX,
            };
            match self.search(conflicts_allowed, assumptions, budget_start) {
                SearchOutcome::Sat => break SolveResult::Sat,
                SearchOutcome::Unsat => break SolveResult::Unsat,
                SearchOutcome::Interrupted(reason) => {
                    self.stop_reason = Some(reason);
                    break SolveResult::Unknown;
                }
                SearchOutcome::Restart => {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    // Damp glucose's fast average so one trigger doesn't
                    // immediately re-fire after the restart.
                    self.lbd_fast = self.lbd_slow;
                    // A restart is at level 0 with no live clause
                    // reference, so a long solve can take its pass here.
                    if self.simplify_due() {
                        self.preprocess(assumptions);
                        if !self.ok {
                            break SolveResult::Unsat;
                        }
                    }
                }
            }
        };
        if result == SolveResult::Sat {
            for (m, pair) in self.model.iter_mut().zip(self.vals.chunks_exact(2)) {
                *m = pair[0] == LBool::True;
            }
            self.extend_model();
            self.has_model = true;
        }
        self.backtrack_to(0);
        self.flush_live_conflicts();
        result
    }

    /// Folds the conflicts not yet reported into this thread's job
    /// meter, so heartbeats also count solves too short to reach a
    /// progress tick.
    fn flush_live_conflicts(&mut self) {
        let conflicts = self.stats.conflicts;
        aqed_obs::meter::add_live_conflicts(conflicts.saturating_sub(self.obs.live_flushed));
        self.obs.live_flushed = conflicts;
    }

    /// CDCL progress sample, taken at the coarse budget tick: folds the
    /// conflicts so far into the thread's job meter, so heartbeats see
    /// them move *during* a long solve, and emits a periodic
    /// `sat.progress` trace event (conflicts, restarts, learnt-DB size).
    /// A relaxed-load no-op when observability is off.
    #[cold]
    fn obs_sample(&mut self) {
        if !aqed_obs::enabled() {
            return;
        }
        self.flush_live_conflicts();
        self.obs.samples += 1;
        if self.obs.samples.is_multiple_of(16) {
            aqed_obs::obs_event!(
                "sat.progress",
                conflicts = self.stats.conflicts,
                propagations = self.stats.propagations,
                restarts = self.stats.restarts,
                learnts = self.num_learnts,
                clauses = self.num_clauses(),
            );
        }
    }

    fn search(
        &mut self,
        conflicts_allowed: u64,
        assumptions: &[Lit],
        budget_start: u64,
    ) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt_level) = self.analyze(conflict);
                // Glue is only needed for glucose restarts and the
                // sharing filter; the default Luby-without-sharing path
                // skips the computation entirely.
                if self.share.is_some()
                    || matches!(self.config.restart, RestartStrategy::Glucose { .. })
                {
                    let glue = self.clause_glue(&learnt);
                    self.lbd_fast += LBD_EMA_FAST * (f64::from(glue) - self.lbd_fast);
                    self.lbd_slow += LBD_EMA_SLOW * (f64::from(glue) - self.lbd_slow);
                    if glue <= MAX_SHARED_GLUE && learnt.len() <= MAX_SHARED_LITS {
                        if let Some(share) = &self.share {
                            share.export(&learnt);
                            self.stats.shared_exported += 1;
                        }
                    }
                }
                self.backtrack_to(bt_level);
                match learnt.len() {
                    1 => self.unchecked_enqueue(learnt[0], None),
                    2 => {
                        self.attach_binary(learnt[0], learnt[1], true);
                        self.unchecked_enqueue(learnt[0], Some(Reason::Binary(learnt[1])));
                    }
                    _ => {
                        let cref = self.alloc_clause(&learnt, true);
                        self.unchecked_enqueue(learnt[0], Some(Reason::Clause(cref)));
                    }
                }
                self.decay_var_activity();
                self.decay_clause_activity();
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        self.backtrack_to(0);
                        return SearchOutcome::Interrupted(StopReason::Conflicts);
                    }
                }
                self.tick += 1;
                if self.tick.is_multiple_of(BUDGET_CHECK_INTERVAL) {
                    if let Some(reason) = self.tick_poll() {
                        self.backtrack_to(0);
                        return SearchOutcome::Interrupted(reason);
                    }
                }
            } else {
                self.tick += 1;
                if self.tick.is_multiple_of(BUDGET_CHECK_INTERVAL) {
                    if let Some(reason) = self.tick_poll() {
                        self.backtrack_to(0);
                        return SearchOutcome::Interrupted(reason);
                    }
                }
                if !self.pending_import.is_empty()
                    && self.decision_level() == 0
                    && !self.install_imports()
                {
                    return SearchOutcome::Unsat;
                }
                let restart_now = match self.config.restart {
                    RestartStrategy::Luby { .. } => conflicts_here >= conflicts_allowed,
                    RestartStrategy::Glucose {
                        margin,
                        min_conflicts,
                    } => conflicts_here >= min_conflicts && self.lbd_fast > margin * self.lbd_slow,
                    RestartStrategy::Never => false,
                };
                if restart_now {
                    self.backtrack_to(0);
                    return SearchOutcome::Restart;
                }
                if self.num_learnts as f64 > self.max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                    self.max_learnts *= 1.1;
                }
                // Re-assert assumptions as pseudo-decisions.
                let mut next_decision: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied; open an empty decision level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // Conflicts with current forced assignment.
                            return SearchOutcome::Unsat;
                        }
                        LBool::Undef => {
                            next_decision = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next_decision {
                    Some(a) => a,
                    None => match self.pick_branch_var() {
                        Some(v) => {
                            let polarity = self.decide_polarity(v);
                            v.lit(polarity)
                        }
                        None => return SearchOutcome::Sat,
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, None);
            }
        }
    }

    /// The value of `v` in the most recent satisfying assignment, or
    /// `None` if the last solve did not return [`SolveResult::Sat`].
    #[must_use]
    pub fn model_value(&self, v: Var) -> Option<bool> {
        if self.has_model {
            Some(self.model[v.index()])
        } else {
            None
        }
    }

    /// The value of literal `l` in the most recent satisfying assignment.
    #[must_use]
    pub fn model_lit(&self, l: Lit) -> Option<bool> {
        self.model_value(l.var()).map(|b| b == l.is_positive())
    }

    // ----- pre-search simplification (SatELite-style) -----

    /// Enables or disables CNF preprocessing (subsumption, self-subsuming
    /// resolution, bounded variable elimination) inside solve calls. Off
    /// by default. A pass runs at the start of a solve call or at a
    /// restart, once an irredundant clause was added since the last pass
    /// and search has since made 30 propagations per clause the pass
    /// would read; so an easy first solve searches plain. Eliminated
    /// variables stay fully usable from outside: model queries
    /// reconstruct their values, and a later clause or assumption over
    /// one transparently reactivates it — freezing
    /// ([`Solver::freeze_var`]) is a throughput measure for variables
    /// known to be re-constrained soon, not a correctness requirement.
    pub fn set_preprocessing(&mut self, enabled: bool) {
        self.preprocess_enabled = enabled;
    }

    /// Runs one preprocessing pass now, whether or not preprocessing is
    /// enabled and the effort gate is open (MiniSat's `eliminate()`).
    /// Only frozen and level-0-assigned variables are exempt; an
    /// assumption over an eliminated variable later reactivates it.
    /// Returns `false` if the formula is unsatisfiable at the top level.
    pub fn simplify(&mut self) -> bool {
        if self.ok {
            self.preprocess(&[]);
        }
        self.ok
    }

    /// Whether the effort gate opens a preprocessing pass: preprocessing
    /// is on, an irredundant clause arrived since the last pass, and
    /// search has since made [`SIMP_PROPS_PER_CLAUSE`] propagations per
    /// clause the pass would read. It counts, never times, so identical
    /// runs take identical passes.
    fn simplify_due(&self) -> bool {
        let read = (self.clauses.len() + self.num_binary) as u64;
        self.preprocess_enabled
            && self.simp_added
            && self.stats.propagations - self.simp_props >= SIMP_PROPS_PER_CLAUSE * read
    }

    /// Marks `v` as permanently exempt from variable elimination. Callers
    /// freeze their live interface (frame-boundary variables in
    /// incremental BMC): eliminating those would only trigger a
    /// reactivate-and-re-add cycle when the next frame constrains them.
    pub fn freeze_var(&mut self, v: Var) {
        self.frozen[v.index()] = true;
    }

    /// Brings eliminated variables referenced by `lits` back to life:
    /// their stored original clauses are re-added, cascading into any
    /// further eliminated variable those clauses mention. Sound because
    /// the resolvents an elimination left behind are consequences of the
    /// originals, so originals and resolvents can coexist.
    fn reactivate_touched(&mut self, lits: &[Lit]) {
        if self.elim_stack.is_empty() {
            return;
        }
        let mut work: Vec<Var> = lits
            .iter()
            .map(|l| l.var())
            .filter(|v| self.eliminated[v.index()])
            .collect();
        if work.is_empty() {
            return;
        }
        let mut to_add: Vec<Vec<Lit>> = Vec::new();
        while let Some(v) = work.pop() {
            let vi = v.index();
            if !self.eliminated[vi] {
                continue;
            }
            self.eliminated[vi] = false;
            let idx = self.elim_index[vi] as usize;
            self.elim_index[vi] = u32::MAX;
            debug_assert_eq!(self.elim_stack[idx].var, v);
            // The record stays on the stack (model extension skips it via
            // the `eliminated` check) but gives up its clauses.
            let clauses = std::mem::take(&mut self.elim_stack[idx].clauses);
            for c in &clauses {
                for &l in c {
                    if self.eliminated[l.var().index()] {
                        work.push(l.var());
                    }
                }
            }
            to_add.extend(clauses);
        }
        for c in to_add {
            if !self.ok {
                return;
            }
            self.add_clause_vec(c);
        }
    }

    /// Runs the SatELite-style preprocessor over the irredundant clauses
    /// and rebuilds the solver from the simplified set. Frozen variables,
    /// this call's assumption variables, level-0-assigned variables, and
    /// already-eliminated variables are exempt from elimination. Long
    /// learnt clauses ride along untouched unless they mention a newly
    /// eliminated variable (dropping a learnt is always sound); binary
    /// learnts are indistinguishable in the watch lists and fold into the
    /// irredundant set.
    fn preprocess(&mut self, assumptions: &[Lit]) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut obs_span = aqed_obs::span("sat.preprocess");
        let start = std::time::Instant::now();
        let mut frozen = self.frozen.clone();
        for &a in assumptions {
            frozen[a.var().index()] = true;
        }
        for (v, f) in frozen.iter_mut().enumerate() {
            // A level-0 assignment must keep its variable: eliminating it
            // (with an empty record, since it has no unsatisfied clauses)
            // would let model extension overwrite the forced value. An
            // already-eliminated variable owns a stack record; the
            // preprocessor must not create a second one.
            if self.vals[2 * v] != LBool::Undef || self.eliminated[v] {
                *f = true;
            }
        }
        let mut cnf: Vec<Vec<Lit>> = Vec::with_capacity(self.clauses.len() + self.num_binary);
        for i in 0..self.watches.len() {
            // Inlined binaries appear in both watch lists as
            // (¬watched ∨ blocker); take the copy where the implicit
            // literal is the smaller one.
            let implicit = !Lit(i as u32);
            for wi in 0..self.watches[i].len() {
                let w = self.watches[i][wi];
                if w.cref.is_some() || implicit >= w.blocker {
                    continue;
                }
                if let Some(c) = self.simplified_lits(&[implicit, w.blocker]) {
                    cnf.push(c);
                }
            }
        }
        for idx in 0..self.clauses.len() {
            let cref = self.clauses[idx];
            if self.ca.is_deleted(cref) {
                continue;
            }
            let lits: Vec<Lit> = self.ca.lits(cref).to_vec();
            if let Some(c) = self.simplified_lits(&lits) {
                cnf.push(c);
            }
        }
        let mut learnt_keep: Vec<Vec<Lit>> = Vec::new();
        for idx in 0..self.learnts.len() {
            let cref = self.learnts[idx];
            if self.ca.is_deleted(cref) {
                continue;
            }
            let lits: Vec<Lit> = self.ca.lits(cref).to_vec();
            if let Some(c) = self.simplified_lits(&lits) {
                learnt_keep.push(c);
            }
        }
        let armed = self.armed.clone();
        let clauses_in = cnf.len();
        let outcome = Preprocessor::new(self.num_vars(), cnf, frozen).run(&armed);
        if aqed_obs::enabled() {
            obs_span.record("clauses_in", clauses_in);
            obs_span.record("clauses_out", outcome.clauses.len());
            obs_span.record("subsumed", outcome.subsumed);
            obs_span.record("eliminated", outcome.eliminated.len());
            obs_span.record("reenqueued", outcome.reenqueued);
            obs_span.record("unsat", outcome.unsat);
        }
        self.rebuild(outcome, learnt_keep);
        self.stats.preprocess_micros += start.elapsed().as_micros() as u64;
        self.stats.preprocess_runs += 1;
        self.simp_props = self.stats.propagations;
        self.simp_added = false;
    }

    /// The clause restricted to the level-0 trail: `None` if satisfied,
    /// otherwise its unassigned literals. Only called at decision level 0,
    /// where every assignment is a root-level fact.
    fn simplified_lits(&self, lits: &[Lit]) -> Option<Vec<Lit>> {
        let mut out = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.value_lit(l) {
                LBool::True => return None,
                LBool::False => {}
                LBool::Undef => out.push(l),
            }
        }
        Some(out)
    }

    /// Replaces the entire clause database with the preprocessor's
    /// output: fresh arena, rebuilt watch lists, newly registered
    /// eliminations. The level-0 trail survives (its variables were
    /// frozen), but its reason references into the discarded arena are
    /// cleared — level-0 literals never need antecedents, conflict
    /// analysis stops above them.
    fn rebuild(&mut self, outcome: PreprocessOutcome, learnt_keep: Vec<Vec<Lit>>) {
        self.ca = ClauseAllocator::new();
        self.clauses.clear();
        self.learnts.clear();
        self.num_binary = 0;
        self.num_learnts = 0;
        self.stats.learnts = 0;
        for list in &mut self.watches {
            list.clear();
        }
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var().index()] = None;
        }
        self.qhead = self.trail.len();
        for rec in outcome.eliminated {
            let vi = rec.var.index();
            debug_assert!(!self.frozen[vi] && !self.eliminated[vi]);
            self.eliminated[vi] = true;
            self.elim_index[vi] =
                u32::try_from(self.elim_stack.len()).expect("elimination stack fits in u32");
            self.stats.eliminated_vars += 1;
            self.elim_stack.push(rec);
        }
        self.stats.subsumed += outcome.subsumed;
        if outcome.unsat {
            self.ok = false;
            return;
        }
        // Re-add through the normal level-0 path: units found by the
        // preprocessor enqueue and propagate here, so later clauses
        // simplify against them.
        for c in outcome.clauses {
            if !self.ok {
                return;
            }
            self.add_clause_vec(c);
        }
        for c in learnt_keep {
            if !self.ok {
                return;
            }
            if c.iter().any(|&l| self.eliminated[l.var().index()]) {
                continue;
            }
            self.add_learnt_vec(c);
        }
    }

    /// Re-attaches a held-aside learnt clause after a rebuild,
    /// re-simplifying it against the (possibly extended) level-0 trail.
    /// Learnt clauses are implied, so a unit or empty result is a sound
    /// root-level derivation.
    fn add_learnt_vec(&mut self, mut ls: Vec<Lit>) {
        ls.sort_unstable();
        ls.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return;
            }
            match self.value_lit(l) {
                LBool::True => return,
                LBool::False => {}
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => self.ok = false,
            1 => {
                self.unchecked_enqueue(out[0], None);
                self.ok = self.propagate().is_none();
            }
            2 => self.attach_binary(out[0], out[1], true),
            _ => {
                self.alloc_clause(&out, true);
            }
        }
    }

    /// Completes the model with values for eliminated variables, walking
    /// the elimination stack newest-first. For each still-eliminated
    /// variable, if any stored original clause is unsatisfied by the
    /// model over the other variables, that clause's pivot polarity fixes
    /// the value — all unsatisfied stored clauses agree, since a
    /// positive-pivot and a negative-pivot clause both unsatisfied would
    /// leave their (satisfied) resolvent unsatisfied. Otherwise the
    /// search-time value stands.
    fn extend_model(&mut self) {
        for idx in (0..self.elim_stack.len()).rev() {
            let (v, forced) = {
                let rec = &self.elim_stack[idx];
                if !self.eliminated[rec.var.index()] {
                    continue;
                }
                let mut forced: Option<bool> = None;
                for clause in &rec.clauses {
                    let mut satisfied = false;
                    let mut pivot_pos = true;
                    for &l in clause {
                        if l.var() == rec.var {
                            pivot_pos = l.is_positive();
                        } else if self.model[l.var().index()] == l.is_positive() {
                            satisfied = true;
                            break;
                        }
                    }
                    if !satisfied {
                        forced = Some(pivot_pos);
                        break;
                    }
                }
                (rec.var, forced)
            };
            if let Some(b) = forced {
                self.model[v.index()] = b;
            }
        }
    }

    /// Replays the most recent model through unit propagation alone:
    /// every model literal is enqueued as a pseudo-decision on one
    /// scratch decision level and propagated, then the trail is restored.
    /// This exercises `propagate()` over the live clause database with no
    /// search overhead — the benchmark harness's propagation microscope.
    /// The propagations performed accrue to [`SolverStats`].
    ///
    /// Returns `None` if no model is available. `conflicted` can only
    /// become `true` when clauses were added after the model was found
    /// (propagation from a subset of a model stays within the model).
    pub fn replay_model_propagation(&mut self) -> Option<PropagationReplay> {
        if !self.has_model {
            return None;
        }
        assert_eq!(self.decision_level(), 0, "replay must start at level 0");
        let base = self.stats.propagations;
        self.trail_lim.push(self.trail.len());
        let mut enqueued = 0usize;
        let mut conflicted = false;
        for v in 0..self.num_vars() {
            if self.vals[2 * v] != LBool::Undef || self.eliminated[v] {
                continue;
            }
            let l = Var(v as u32).lit(self.model[v]);
            self.unchecked_enqueue(l, None);
            enqueued += 1;
            if self.propagate().is_some() {
                conflicted = true;
                break;
            }
        }
        let propagated = self.stats.propagations - base;
        self.backtrack_to(0);
        Some(PropagationReplay {
            enqueued,
            propagated,
            conflicted,
        })
    }
}

/// Outcome of [`Solver::replay_model_propagation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropagationReplay {
    /// Model literals enqueued as pseudo-decisions (variables that were
    /// unassigned and not eliminated).
    pub enqueued: usize,
    /// Unit propagations performed during the replay.
    pub propagated: u64,
    /// Whether the replay hit a conflict (stale model only).
    pub conflicted: bool,
}

enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    Interrupted(StopReason),
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, …
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        s.new_vars(n)
    }

    /// At-most-one-pigeon-per-hole clauses of a PHP instance, added
    /// hole-major (hole, then pigeon pair).
    fn php_exclusivity(s: &mut Solver, p: &[Vec<Var>]) {
        for h in 0..p[0].len() {
            let col: Vec<Var> = p.iter().map(|row| row[h]).collect();
            for (i, &a) in col.iter().enumerate() {
                for &b in &col[i + 1..] {
                    s.add_clause([a.neg(), b.neg()]);
                }
            }
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause([v[0].pos()]));
        assert!(s.add_clause([v[1].neg()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.model_value(v[1]), Some(false));
        assert_eq!(s.model_lit(v[1].neg()), Some(true));
    }

    #[test]
    fn direct_contradiction() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause([v[0].pos()]));
        assert!(!s.add_clause([v[0].neg()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause([v[0].pos(), v[0].neg()]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_deduped() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause([v[0].pos(), v[0].pos(), v[1].pos()]));
        assert!(s.add_clause([v[0].neg()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn implication_chain() {
        // x0 ∧ (x_i → x_{i+1}) forces all true.
        let mut s = Solver::new();
        let v = vars(&mut s, 20);
        assert!(s.add_clause([v[0].pos()]));
        for i in 0..19 {
            assert!(s.add_clause([v[i].neg(), v[i + 1].pos()]));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for x in &v {
            assert_eq!(s.model_value(*x), Some(true));
        }
    }

    #[test]
    fn binary_fast_path_counts_propagations() {
        // Trigger the chain with an assumption (not a unit clause) so the
        // binaries survive level-0 simplification and propagate through
        // the watcher-inlined fast path.
        let mut s = Solver::new();
        let v = vars(&mut s, 10);
        for i in 0..9 {
            assert!(s.add_binary(v[i].neg(), v[i + 1].pos()));
        }
        assert_eq!(s.solve_with(&[v[0].pos()]), SolveResult::Sat);
        assert!(s.stats().binary_props >= 9);
    }

    #[test]
    fn xor_constraints_unsat() {
        // a ⊕ b, b ⊕ c, a ⊕ c is UNSAT (odd cycle).
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let xor = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause([a.pos(), b.pos()]);
            s.add_clause([a.neg(), b.neg()]);
        };
        xor(&mut s, v[0], v[1]);
        xor(&mut s, v[1], v[2]);
        xor(&mut s, v[0], v[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_unsat() {
        // PHP(4,3): 4 pigeons in 3 holes — classically hard for resolution
        // at large sizes, easy at this size, and a good conflict-analysis
        // exerciser.
        let (pigeons, holes) = (4usize, 3usize);
        let mut s = Solver::new();
        let mut p = vec![vec![Var(0); holes]; pigeons];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        php_exclusivity(&mut s, &p);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn php_5_4_unsat() {
        let (pigeons, holes) = (5usize, 4usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        php_exclusivity(&mut s, &p);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_basic() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0].neg(), v[1].pos()]); // a → b
        assert_eq!(s.solve_with(&[v[0].pos()]), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
        assert_eq!(s.solve_with(&[v[0].pos(), v[1].neg()]), SolveResult::Unsat);
        // Solver remains usable and the formula itself is still SAT.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn assumptions_conflicting_pair() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert_eq!(s.solve_with(&[v[0].pos(), v[0].neg()]), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_adding_between_solves() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0].pos(), v[1].pos(), v[2].pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([v[0].neg()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([v[1].neg()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[2]), Some(true));
        s.add_clause([v[2].neg()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once globally UNSAT, stays UNSAT.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A PHP instance large enough to need > 1 conflict.
        let (pigeons, holes) = (6usize, 5usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        php_exclusivity(&mut s, &p);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_sets_stop_reason() {
        let (pigeons, holes) = (6usize, 5usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        php_exclusivity(&mut s, &p);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Conflicts));
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.stop_reason(), None);
    }

    #[test]
    fn expired_deadline_fails_fast_with_reason() {
        use crate::budget::Budget;
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0].pos(), v[1].pos()]);
        s.set_budget(ArmedBudget::arm(
            &Budget::unlimited().with_timeout(std::time::Duration::ZERO),
        ));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Deadline));
        // Removing the budget restores normal operation.
        s.set_budget(ArmedBudget::unlimited());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn cancelled_budget_reports_cancelled() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause([v[0].pos()]);
        let armed = ArmedBudget::unlimited();
        armed.cancel();
        s.set_budget(armed);
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn armed_conflict_cap_interrupts_search() {
        use crate::budget::Budget;
        // PHP(8,7) needs well over the check interval of conflicts.
        let (pigeons, holes) = (8usize, 7usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        php_exclusivity(&mut s, &p);
        s.set_budget(ArmedBudget::arm(&Budget::unlimited().with_max_conflicts(1)));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Conflicts));
        // The coarse check interval bounds the overshoot.
        assert!(s.stats().conflicts <= 2 * BUDGET_CHECK_INTERVAL);
        s.set_budget(ArmedBudget::unlimited());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn ablation_switches_do_not_change_answers() {
        for (restarts, heuristic) in [(true, false), (false, true), (false, false)] {
            let mut s = Solver::new();
            s.set_restarts_enabled(restarts);
            s.set_decision_heuristic(heuristic);
            let p: Vec<Vec<Var>> = (0..4).map(|_| s.new_vars(3)).collect();
            for row in &p {
                s.add_clause(row.iter().map(|v| v.pos()));
            }
            php_exclusivity(&mut s, &p);
            assert_eq!(s.solve(), SolveResult::Unsat);
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<f64> = (0..9).map(|i| luby(2.0, i)).collect();
        assert_eq!(got, vec![1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0]);
    }

    #[test]
    fn stats_display() {
        let s = Solver::new();
        let text = s.stats().to_string();
        assert!(text.contains("decisions=0"));
        assert!(text.contains("conflicts=0"));
        assert!(text.contains("binary_props=0"));
        assert!(text.contains("gc_runs=0"));
    }

    #[test]
    fn small_clause_fast_paths_simplify() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        // Tautology and duplicate handling.
        assert!(s.add_binary(v[0].pos(), v[0].neg()));
        assert!(s.add_ternary(v[0].pos(), v[1].pos(), v[0].neg()));
        assert_eq!(s.num_clauses(), 0);
        // Duplicate literal collapses a ternary to a binary.
        assert!(s.add_ternary(v[0].pos(), v[0].pos(), v[1].pos()));
        assert_eq!(s.num_clauses(), 1);
        // Level-0 false literals are dropped at add time.
        assert!(s.add_binary(v[0].neg(), v[2].neg()));
        assert!(s.add_clause([v[0].pos()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.model_value(v[2]), Some(false));
        // Contradicting units through the fast path flag UNSAT.
        assert!(!s.add_binary(v[2].pos(), v[2].pos()));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn binary_conflict_and_learning() {
        // All-binary UNSAT instance: conflicts must flow through the
        // watcher-inlined representation (Conflict::Binary / Reason::Binary).
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_binary(v[0].pos(), v[1].pos());
        s.add_binary(v[0].pos(), v[1].neg());
        s.add_binary(v[0].neg(), v[2].pos());
        s.add_binary(v[0].neg(), v[2].neg());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn forced_gc_preserves_state() {
        let mut s = Solver::new();
        let v = vars(&mut s, 30);
        for i in 0..28 {
            assert!(s.add_ternary(v[i].neg(), v[i + 1].pos(), v[i + 2].pos()));
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let before = s.num_clauses();
        let bytes_before = s.stats().arena_bytes;
        s.reclaim_memory();
        assert_eq!(s.stats().gc_runs, 1);
        assert_eq!(s.num_clauses(), before);
        assert!(s.stats().arena_bytes <= bytes_before);
        // Solver stays fully usable across the relocation, including
        // incremental additions and assumption solving.
        assert_eq!(s.solve_with(&[v[0].pos()]), SolveResult::Sat);
        assert!(s.add_clause([v[0].pos()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
    }

    #[test]
    fn reduction_and_gc_under_heavy_search() {
        // PHP(7,6) generates enough learnt clauses to trigger database
        // reduction; force collection afterwards and keep solving.
        let (pigeons, holes) = (7usize, 6usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..pigeons).map(|_| s.new_vars(holes)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.pos()));
        }
        php_exclusivity(&mut s, &p);
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.reclaim_memory();
        assert!(s.stats().gc_runs >= 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// A chain x0 → x1 → … → xn as implications. Variable elimination
    /// can collapse every interior variable.
    fn chain_clauses(s: &mut Solver, n: usize) -> Vec<Var> {
        let v = s.new_vars(n);
        for w in v.windows(2) {
            s.add_clause([w[0].neg(), w[1].pos()]);
        }
        v
    }

    #[test]
    fn preprocessing_eliminates_and_reconstructs_models() {
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let v = chain_clauses(&mut s, 8);
        assert!(s.simplify());
        assert_eq!(s.solve(), SolveResult::Sat);
        // Interior chain variables are eliminated (each sits in exactly
        // two clauses), yet the reconstructed model must satisfy every
        // original implication.
        assert!(s.stats().eliminated_vars > 0);
        for w in v.windows(2) {
            let a = s.model_value(w[0]).unwrap();
            let b = s.model_value(w[1]).unwrap();
            assert!(!a || b, "implication {:?} -> {:?} violated", w[0], w[1]);
        }
        // Forcing the head true must force the (eliminated, then
        // reactivated) tail true as well.
        assert_eq!(s.solve_with(&[v[0].pos()]), SolveResult::Sat);
        assert_eq!(s.model_value(v[7]), Some(true));
    }

    #[test]
    fn preprocessing_matches_plain_solver_on_assumptions() {
        // Same incremental session on a preprocessing and a plain solver;
        // results must agree call for call.
        let build = |pre: bool| {
            let mut s = Solver::new();
            s.set_preprocessing(pre);
            let v = s.new_vars(6);
            s.add_clause([v[0].pos(), v[1].pos(), v[2].pos()]);
            s.add_clause([v[0].neg(), v[3].pos()]);
            s.add_clause([v[3].neg(), v[4].pos()]);
            s.add_clause([v[1].neg(), v[4].neg()]);
            let r1 = s.solve_with(&[v[0].pos(), v[1].pos()]);
            s.add_clause([v[4].pos(), v[5].pos()]);
            let r2 = s.solve_with(&[v[5].neg()]);
            let r3 = s.solve_with(&[v[0].pos(), v[4].neg()]);
            (r1, r2, r3)
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn eliminated_variable_reactivates_on_new_clause() {
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let v = chain_clauses(&mut s, 6);
        assert!(s.simplify());
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().eliminated_vars > 0);
        // Constraining an eliminated interior variable through new unit
        // clauses must bring its original clauses back: head true plus
        // interior false contradicts the chain.
        assert!(s.add_clause([v[0].pos()]));
        let added = s.add_clause([v[3].neg()]);
        assert!(!added || s.solve() == SolveResult::Unsat);
    }

    #[test]
    fn frozen_variables_are_never_eliminated() {
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let v = chain_clauses(&mut s, 6);
        for &x in &v {
            s.freeze_var(x);
        }
        assert!(s.simplify());
        assert_eq!(s.stats().preprocess_runs, 1);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.stats().eliminated_vars, 0);
    }

    #[test]
    fn preprocessing_detects_top_level_unsat() {
        // v0 and ¬v3 each follow by resolution only, so adding these
        // clauses propagates nothing: the pass finds the contradiction.
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let v = chain_clauses(&mut s, 4);
        let (x, y) = (s.new_var(), s.new_var());
        s.add_clause([v[0].pos(), x.pos()]);
        s.add_clause([v[0].pos(), x.neg()]);
        s.add_clause([v[3].neg(), y.pos()]);
        s.add_clause([v[3].neg(), y.neg()]);
        assert!(!s.simplify());
        assert_eq!(s.stats().preprocess_runs, 1);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// `m` random 3-clauses over `v`. With `planted`, every clause is
    /// satisfied by that assignment (one literal is flipped to agree).
    fn random_3cnf(
        rng: &mut XorShift64,
        v: &[Var],
        m: usize,
        planted: Option<&[bool]>,
    ) -> Vec<Vec<Lit>> {
        let n = v.len() as u64;
        (0..m)
            .map(|_| {
                let mut c: Vec<Lit> = (0..3)
                    .map(|_| v[(rng.next_u64() % n) as usize].lit(rng.next_u64() & 1 == 1))
                    .collect();
                if let Some(model) = planted {
                    if !c.iter().any(|l| model[l.var().index()] == l.is_positive()) {
                        c[0] = !c[0];
                    }
                }
                c
            })
            .collect()
    }

    fn model_satisfies(s: &Solver, clauses: &[Vec<Lit>]) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|&l| s.model_lit(l) == Some(true)))
    }

    /// An incremental session: batches of random 3-clauses over 100
    /// variables, each followed by a solve under one assumption. Every
    /// model is checked against all clauses and the assumption so far.
    fn incremental_3cnf_session(preprocess: bool) -> (Vec<SolveResult>, SolverStats) {
        let mut rng = XorShift64::new(11);
        let mut s = Solver::new();
        s.set_preprocessing(preprocess);
        let v = vars(&mut s, 200);
        let mut all: Vec<Vec<Lit>> = Vec::new();
        let mut results = Vec::new();
        for _ in 0..10 {
            for c in random_3cnf(&mut rng, &v, 86, None) {
                s.add_clause(c.iter().copied());
                all.push(c);
            }
            let a = v[(rng.next_u64() % 200) as usize].lit(rng.next_u64() & 1 == 1);
            let r = s.solve_with(&[a]);
            if r == SolveResult::Sat {
                assert_eq!(s.model_lit(a), Some(true));
                assert!(model_satisfies(&s, &all), "model violates a clause");
            }
            results.push(r);
        }
        (results, s.stats())
    }

    #[test]
    fn easy_first_solve_runs_no_pass() {
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let v = chain_clauses(&mut s, 8);
        assert_eq!(s.solve_with(&[v[0].pos()]), SolveResult::Sat);
        assert_eq!(s.stats().preprocess_runs, 0);
        assert_eq!(s.stats().eliminated_vars, 0);
    }

    #[test]
    fn effort_gate_fires_on_search_and_keeps_verdicts() {
        let (on, on_stats) = incremental_3cnf_session(true);
        let (off, off_stats) = incremental_3cnf_session(false);
        assert_eq!(on, off);
        assert!(on_stats.preprocess_runs >= 1, "{on_stats}");
        assert_eq!(off_stats.preprocess_runs, 0);
    }

    #[test]
    fn pass_at_a_restart_under_assumptions_keeps_the_model_valid() {
        let mut rng = XorShift64::new(5);
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let v = vars(&mut s, 250);
        let hidden: Vec<bool> = (0..250).map(|_| rng.next_u64() & 1 == 1).collect();
        let clauses = random_3cnf(&mut rng, &v, 1050, Some(&hidden));
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let assumptions: Vec<Lit> = v[..4].iter().map(|&x| x.lit(hidden[x.index()])).collect();
        // A fresh solver has propagated nothing, so the gate is shut at
        // the top of this first call: any pass ran at a restart.
        assert_eq!(s.solve_with(&assumptions), SolveResult::Sat);
        let stats = s.stats();
        assert!(stats.preprocess_runs >= 1, "{stats}");
        assert!(stats.restarts >= 1);
        for &a in &assumptions {
            assert_eq!(s.model_lit(a), Some(true));
        }
        assert!(model_satisfies(&s, &clauses));
    }

    #[test]
    fn identical_runs_give_identical_stats() {
        let strip = |s: SolverStats| SolverStats {
            preprocess_micros: 0,
            ..s
        };
        let (a_results, a) = incremental_3cnf_session(true);
        let (b_results, b) = incremental_3cnf_session(true);
        assert_eq!(a_results, b_results);
        assert_eq!(strip(a), strip(b));
    }

    #[test]
    fn model_replay_propagates_without_conflict() {
        let mut s = Solver::new();
        assert_eq!(s.replay_model_propagation(), None);
        let v = s.new_vars(5);
        s.add_clause([v[0].pos(), v[1].pos()]);
        s.add_clause([v[1].neg(), v[2].pos()]);
        s.add_clause([v[2].neg(), v[3].pos(), v[4].pos()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let replay = s.replay_model_propagation().expect("model exists");
        assert!(!replay.conflicted);
        assert!(replay.enqueued > 0);
        // The solver is untouched: still at level 0 and solvable.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// At decision level 0, each variable's two literal slots hold
    /// opposite values (both `Undef` while it is unassigned), and the
    /// true literals are exactly those on the level-0 trail.
    fn assert_values_match_trail(s: &Solver) {
        assert_eq!(s.decision_level(), 0);
        assert_eq!(s.vals.len(), 2 * s.num_vars());
        for v in 0..s.num_vars() {
            let (pos, neg) = (s.vals[2 * v], s.vals[2 * v + 1]);
            assert!(
                matches!(
                    (pos, neg),
                    (LBool::Undef, LBool::Undef)
                        | (LBool::True, LBool::False)
                        | (LBool::False, LBool::True)
                ),
                "v{v} holds {pos:?} / {neg:?}"
            );
        }
        let mut on_trail = vec![false; s.vals.len()];
        for &l in &s.trail {
            on_trail[l.index()] = true;
        }
        for (i, &val) in s.vals.iter().enumerate() {
            assert_eq!(val == LBool::True, on_trail[i], "literal {}", Lit(i as u32));
        }
    }

    /// Solves, checks the model replays without a conflict, and checks
    /// the value array afterwards.
    fn solve_and_replay(s: &mut Solver, assumptions: &[Lit]) {
        assert_eq!(s.solve_with(assumptions), SolveResult::Sat);
        assert_values_match_trail(s);
        let replay = s.replay_model_propagation().expect("model exists");
        assert!(!replay.conflicted);
        assert_values_match_trail(s);
    }

    #[test]
    fn literal_values_stay_paired_with_the_level_zero_trail() {
        let mut rng = XorShift64::new(3);
        let mut s = Solver::new();
        let v = vars(&mut s, 120);
        let hidden: Vec<bool> = (0..120).map(|_| rng.next_u64() & 1 == 1).collect();
        for c in random_3cnf(&mut rng, &v, 480, Some(&hidden)) {
            assert!(s.add_clause(c));
        }
        // Interior chain variables sit in two clauses each, so a pass
        // eliminates them; the units put literals on the level-0 trail.
        let chain = chain_clauses(&mut s, 8);
        assert!(s.add_clause([v[0].lit(hidden[0])]));
        assert!(s.add_clause([v[1].lit(hidden[1])]));
        assert!(!s.trail.is_empty());
        assert_values_match_trail(&s);

        for x in &v[2..6] {
            solve_and_replay(&mut s, &[x.lit(hidden[x.index()])]);
        }
        assert!(s.stats().conflicts > 0, "{}", s.stats());

        s.reclaim_memory();
        assert_values_match_trail(&s);
        solve_and_replay(&mut s, &[]);

        assert!(s.simplify());
        assert_values_match_trail(&s);
        let gone = *chain[1..7]
            .iter()
            .find(|x| s.eliminated[x.index()])
            .expect("the pass eliminates an interior chain variable");

        // A unit over the eliminated variable reactivates it and forces
        // the rest of the chain at level 0.
        let trail_before = s.trail.len();
        assert!(s.add_clause([gone.pos()]));
        assert!(!s.eliminated[gone.index()]);
        assert!(s.trail.len() > trail_before);
        assert_values_match_trail(&s);
        solve_and_replay(&mut s, &[v[6].lit(hidden[6])]);
        assert_eq!(s.model_value(chain[7]), Some(true));
    }

    #[test]
    fn preprocessing_survives_many_incremental_rounds() {
        // Stress the reactivate/re-eliminate cycle: repeatedly constrain
        // and release chain variables via assumptions.
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let v = chain_clauses(&mut s, 12);
        for round in 0..6 {
            // An eliminated interior variable shows up as an assumption:
            // it must reactivate, and the chain semantics must hold.
            assert!(s.simplify());
            let x = v[2 + round];
            let sat = s.solve_with(&[v[0].pos(), x.pos()]);
            assert_eq!(sat, SolveResult::Sat, "round {round}");
            let unsat = s.solve_with(&[v[0].pos(), x.neg()]);
            assert_eq!(unsat, SolveResult::Unsat, "round {round}");
        }
        assert_eq!(s.solve_with(&[v[0].pos()]), SolveResult::Sat);
        for &x in &v {
            assert_eq!(s.model_value(x), Some(true));
        }
    }

    /// Pins [`SolverStats::absorb`] (and its inverse
    /// [`SolverStats::since`]) field by field. The struct literals
    /// are deliberately exhaustive (no `..Default::default()`): adding a
    /// stats field without deciding its aggregation semantics — and
    /// updating both `absorb` and this test — must fail to compile.
    /// Multi-worker portfolio runs fold every worker's stats through
    /// `absorb`, so a forgotten field silently vanishes from reports.
    #[test]
    fn absorb_covers_every_stats_field() {
        let mut a = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            restarts: 4,
            learnts: 5,
            deleted: 6,
            binary_props: 7,
            gc_runs: 8,
            arena_bytes: 9,
            subsumed: 10,
            eliminated_vars: 11,
            preprocess_micros: 12,
            preprocess_runs: 17,
            shared_exported: 13,
            shared_imported: 14,
            wasted_conflicts: 15,
            learnt_imported: 16,
            portfolio_winner: None,
        };
        let b = SolverStats {
            decisions: 100,
            propagations: 200,
            conflicts: 300,
            restarts: 400,
            learnts: 500,
            deleted: 600,
            binary_props: 700,
            gc_runs: 800,
            arena_bytes: 4, // below a's gauge: max must keep 9
            subsumed: 1000,
            eliminated_vars: 1100,
            preprocess_micros: 1200,
            preprocess_runs: 1700,
            shared_exported: 1300,
            shared_imported: 1400,
            wasted_conflicts: 1500,
            learnt_imported: 1600,
            portfolio_winner: Some(2),
        };
        let before = a;
        a.absorb(&b);
        // `since` undoes the absorb for every counter; the gauge keeps
        // its current value.
        let delta = a.since(&before);
        assert_eq!(delta.arena_bytes, 9);
        assert_eq!(
            SolverStats {
                arena_bytes: 4,
                ..delta
            },
            b
        );
        assert_eq!(a.decisions, 101);
        assert_eq!(a.propagations, 202);
        assert_eq!(a.conflicts, 303);
        assert_eq!(a.restarts, 404);
        assert_eq!(a.learnts, 505);
        assert_eq!(a.deleted, 606);
        assert_eq!(a.binary_props, 707);
        assert_eq!(a.gc_runs, 808);
        assert_eq!(a.arena_bytes, 9, "arena_bytes is a gauge: max, not sum");
        assert_eq!(a.subsumed, 1010);
        assert_eq!(a.eliminated_vars, 1111);
        assert_eq!(a.preprocess_micros, 1212);
        assert_eq!(a.preprocess_runs, 1717);
        assert_eq!(a.shared_exported, 1313);
        assert_eq!(a.shared_imported, 1414);
        assert_eq!(a.wasted_conflicts, 1515);
        assert_eq!(a.learnt_imported, 1616);
        assert_eq!(
            a.portfolio_winner,
            Some(2),
            "a later race's winner overwrites; absorbing a non-portfolio \
             run must not erase it"
        );
        a.absorb(&SolverStats::default());
        assert_eq!(a.portfolio_winner, Some(2));
        let shown = a.to_string();
        for needle in [
            "shared_exported=1313",
            "shared_imported=1414",
            "wasted_conflicts=1515",
            "learnt_imported=1616",
            "preprocess_runs=1717",
            "portfolio_winner=2",
        ] {
            assert!(shown.contains(needle), "{needle} missing from {shown}");
        }
    }
}

//! Portfolio SAT solving: race diversified CDCL workers on one formula.
//!
//! [`PortfolioBackend`] is a [`SatBackend`] that keeps N copies of the
//! incremental instance, each configured from the deterministic
//! diversification palette [`SolverConfig::diversified`]. A solve call
//! races the workers on OS threads under child [`ArmedBudget`]s derived
//! from the backend's own budget: the first worker to reach a definitive
//! verdict wins and cancels its peers through their child stop handles,
//! which the losers observe at the next coarse budget tick. Workers
//! share no clauses: each keeps only what it learnt itself.
//!
//! # Incrementality
//!
//! Between solve calls the backend records every operation (variables,
//! clauses, frozen variables) in a flat op log. Worker 0 is kept in sync
//! eagerly and answers all read-side queries; the remaining workers are
//! materialized lazily — on the first race — by replaying the log, and
//! each keeps a cursor so later syncs only apply the delta. Workers
//! persist across calls, so every member of the portfolio solves
//! incrementally with its own learnt-clause database.
//!
//! # Escalation
//!
//! [`SatBackend::set_escalation_level`] selects the race width: level 0
//! runs worker 0 inline (no threads — search-identical to the plain
//! CDCL backend), any higher level races the full configured width.
//! The obligation scheduler uses this so easy obligations never pay
//! portfolio overhead, and only budget-burning retries graduate to the
//! full race. Without a hint (plain CLI use) every solve races.

use crate::budget::{ArmedBudget, StopReason};
use crate::solver::{SolveResult, Solver, SolverConfig, SolverStats};
use crate::{Lit, SatBackend, Var};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard cap on the race width; beyond this thread overhead dwarfs any
/// diversification gain on the obligation sizes A-QED produces.
pub const MAX_WORKERS: usize = 64;

/// Flat record of every instance-building operation, replayed into
/// lazily materialized workers.
#[derive(Debug, Default, Clone)]
struct OpLog {
    num_vars: usize,
    /// Literal pool; clauses are `(start, end)` ranges into it.
    lits: Vec<Lit>,
    clauses: Vec<(u32, u32)>,
    frozen: Vec<Var>,
}

/// One portfolio member plus its replay cursors into the op log.
#[derive(Debug, Clone)]
struct WorkerSlot {
    solver: Solver,
    synced_clauses: usize,
    synced_frozen: usize,
}

/// A [`SatBackend`] racing N diversified CDCL workers per solve call.
/// See the [module documentation](self) for the full protocol.
#[derive(Debug)]
pub struct PortfolioBackend {
    /// `workers[0]` always exists and is eagerly synced (it answers all
    /// read-side queries); the rest materialize on the first race.
    workers: Vec<WorkerSlot>,
    log: OpLog,
    target_workers: usize,
    conflict_budget: Option<u64>,
    armed: ArmedBudget,
    preprocess: bool,
    stop_reason: Option<StopReason>,
    /// Scheduler hint: `Some(0)` = single-solver mode, `Some(1..)` =
    /// full race, `None` (no scheduler) = always race.
    escalation: Option<u32>,
    /// Which worker's model answers [`SatBackend::value`] queries.
    model_from: Option<usize>,
    /// Portfolio-level statistics (wasted work, winner id) that no
    /// single worker owns.
    extra: SolverStats,
}

impl Default for PortfolioBackend {
    /// A 4-wide race; [`SatBackend::set_portfolio`] changes the width
    /// before the first race.
    fn default() -> Self {
        Self::new(4)
    }
}

impl PortfolioBackend {
    /// Creates a portfolio of `workers` diversified members (clamped to
    /// `1..=`[`MAX_WORKERS`]).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let target = workers.clamp(1, MAX_WORKERS);
        PortfolioBackend {
            workers: vec![WorkerSlot {
                solver: Solver::with_config(SolverConfig::diversified(0)),
                synced_clauses: 0,
                synced_frozen: 0,
            }],
            log: OpLog::default(),
            target_workers: target,
            conflict_budget: None,
            armed: ArmedBudget::unlimited(),
            preprocess: false,
            stop_reason: None,
            escalation: None,
            model_from: None,
            extra: SolverStats::default(),
        }
    }

    /// The configured race width.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.target_workers
    }

    /// Applies the log suffix this slot has not seen yet. Returns
    /// `false` if the instance is known unsatisfiable at the top level.
    fn sync_slot(log: &OpLog, slot: &mut WorkerSlot) -> bool {
        while slot.solver.num_vars() < log.num_vars {
            slot.solver.new_var();
        }
        let mut ok = true;
        for &(s, e) in &log.clauses[slot.synced_clauses..] {
            ok = slot
                .solver
                .add_clause(log.lits[s as usize..e as usize].iter().copied());
        }
        slot.synced_clauses = log.clauses.len();
        for &v in &log.frozen[slot.synced_frozen..] {
            slot.solver.freeze_var(v);
        }
        slot.synced_frozen = log.frozen.len();
        ok
    }

    /// Ensures workers `0..width` exist and are synced with the log.
    fn materialize(&mut self, width: usize) {
        while self.workers.len() < width {
            let i = self.workers.len();
            let mut solver = Solver::with_config(SolverConfig::diversified(i));
            solver.set_conflict_budget(self.conflict_budget);
            solver.set_preprocessing(self.preprocess);
            self.workers.push(WorkerSlot {
                solver,
                synced_clauses: 0,
                synced_frozen: 0,
            });
        }
        let log = &self.log;
        for slot in &mut self.workers[..width] {
            Self::sync_slot(log, slot);
        }
    }

    /// The race width the next solve will use.
    fn race_width(&self) -> usize {
        match self.escalation {
            Some(0) => 1,
            _ => self.target_workers,
        }
    }

    /// Runs worker 0 inline, on no extra thread. Search-identical to the
    /// plain CDCL backend (worker 0 runs the default config).
    fn solve_single(&mut self, assumptions: &[Lit]) -> SolveResult {
        let slot = &mut self.workers[0];
        slot.solver.set_budget(self.armed.clone());
        let result = slot.solver.solve_with(assumptions);
        if result == SolveResult::Sat {
            self.model_from = Some(0);
        }
        self.stop_reason = slot.solver.stop_reason();
        result
    }

    /// Races workers `0..width`; first definitive verdict wins and
    /// cancels the rest through their child budgets.
    fn solve_race(&mut self, width: usize, assumptions: &[Lit]) -> SolveResult {
        self.materialize(width);
        let children: Vec<ArmedBudget> = (0..width).map(|_| self.armed.child()).collect();
        let conflicts_before: Vec<u64> = self.workers[..width]
            .iter()
            .map(|s| s.solver.stats().conflicts)
            .collect();
        for (slot, child) in self.workers[..width].iter_mut().zip(&children) {
            slot.solver.set_budget(child.clone());
        }

        let winner = AtomicUsize::new(usize::MAX);
        let parent_span = aqed_obs::current_span_id();
        // Racers solve on the job's behalf: their mid-solve conflict
        // samples must reach the caller's live meter.
        let meter = aqed_obs::meter::current_thread_meter();
        let children_ref = &children;
        let winner_ref = &winner;
        let mut results: Vec<SolveResult> = Vec::with_capacity(width);
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(width);
            for (i, slot) in self.workers[..width].iter_mut().enumerate() {
                let meter = meter.clone();
                handles.push(scope.spawn(move || {
                    aqed_obs::set_current_span_id(parent_span);
                    aqed_obs::meter::set_thread_meter(meter);
                    let mut span = aqed_obs::async_span(
                        "portfolio.worker",
                        aqed_obs::next_span_id(),
                        aqed_obs::obs_fields!(worker = i, parent = parent_span.unwrap_or(0),),
                    );
                    let result = slot.solver.solve_with(assumptions);
                    let definitive = matches!(result, SolveResult::Sat | SolveResult::Unsat);
                    if definitive
                        && winner_ref
                            .compare_exchange(usize::MAX, i, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        for (j, c) in children_ref.iter().enumerate() {
                            if j != i {
                                c.cancel();
                            }
                        }
                    }
                    span.record(
                        "result",
                        match result {
                            SolveResult::Sat => "sat",
                            SolveResult::Unsat => "unsat",
                            SolveResult::Unknown => "unknown",
                        },
                    );
                    drop(span);
                    aqed_obs::flush_local();
                    result
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(p) => {
                        results.push(SolveResult::Unknown);
                        panic_payload.get_or_insert(p);
                    }
                }
            }
        });
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }

        let won = winner.load(Ordering::Acquire);
        if won == usize::MAX {
            // Every worker came back without a verdict. Prefer the
            // parent-level reason (deadline / external cancellation) so
            // the caller's retry logic sees the real cause, not the
            // child-handle echo of it.
            self.stop_reason = self.armed.poll().or_else(|| {
                self.workers[..width]
                    .iter()
                    .find_map(|s| s.solver.stop_reason())
            });
            return SolveResult::Unknown;
        }
        let result = results[won];
        if result == SolveResult::Sat {
            self.model_from = Some(won);
        }
        let mut wasted = 0u64;
        for (i, slot) in self.workers[..width].iter().enumerate() {
            if i != won {
                wasted += slot
                    .solver
                    .stats()
                    .conflicts
                    .saturating_sub(conflicts_before[i]);
            }
        }
        self.extra.wasted_conflicts += wasted;
        self.extra.portfolio_winner = Some(won as u32);
        aqed_obs::obs_event!(
            "portfolio.winner",
            worker = won,
            wasted_conflicts = wasted,
            result = match result {
                SolveResult::Sat => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Unknown => "unknown",
            },
        );
        result
    }
}

impl SatBackend for PortfolioBackend {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn new_var(&mut self) -> Var {
        self.log.num_vars += 1;
        self.workers[0].solver.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let start = u32::try_from(self.log.lits.len()).expect("portfolio literal pool overflow");
        self.log.lits.extend_from_slice(lits);
        let end = u32::try_from(self.log.lits.len()).expect("portfolio literal pool overflow");
        self.log.clauses.push((start, end));
        Self::sync_slot(&self.log, &mut self.workers[0])
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.model_from = None;
        self.stop_reason = None;
        let width = self.race_width();
        if width <= 1 {
            self.solve_single(assumptions)
        } else {
            aqed_obs::obs_event!(
                "portfolio.race",
                workers = width,
                escalation = i64::from(
                    self.escalation
                        .map_or(-1i32, |e| { i32::try_from(e).unwrap_or(i32::MAX) })
                ),
            );
            self.solve_race(width, assumptions)
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.model_from
            .and_then(|i| self.workers[i].solver.model_lit(l))
    }

    fn stats(&self) -> SolverStats {
        let mut s = self.extra;
        for slot in &self.workers {
            s.absorb(&slot.solver.stats());
        }
        s
    }

    fn num_vars(&self) -> usize {
        self.log.num_vars
    }

    fn num_clauses(&self) -> usize {
        self.workers[0].solver.num_clauses()
    }

    fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
        for slot in &mut self.workers {
            slot.solver.set_conflict_budget(budget);
        }
    }

    fn set_budget(&mut self, budget: ArmedBudget) {
        self.armed = budget;
    }

    fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    fn set_preprocessing(&mut self, enabled: bool) {
        self.preprocess = enabled;
        for slot in &mut self.workers {
            slot.solver.set_preprocessing(enabled);
        }
    }

    fn freeze_var(&mut self, v: Var) {
        self.log.frozen.push(v);
        Self::sync_slot(&self.log, &mut self.workers[0]);
    }

    fn set_escalation_level(&mut self, level: u32) {
        self.escalation = Some(level);
    }

    /// Sets the race width (clamped to `1..=`[`MAX_WORKERS`]). Workers
    /// beyond the new width stay idle.
    fn set_portfolio(&mut self, workers: usize) {
        self.target_workers = workers.clamp(1, MAX_WORKERS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use std::time::Duration;

    /// Pigeonhole PHP(n+1, n): unsatisfiable, needs real search.
    #[allow(clippy::needless_range_loop)]
    fn php<B: SatBackend>(b: &mut B, holes: usize) {
        let pigeons = holes + 1;
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| b.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            b.add_clause(&lits);
        }
        for h in 0..holes {
            for i in 0..pigeons {
                for j in i + 1..pigeons {
                    let (pi, pj) = (p[i][h], p[j][h]);
                    b.add_clause(&[pi.neg(), pj.neg()]);
                }
            }
        }
    }

    /// Drives a backend through a small incremental session.
    fn session<B: SatBackend>(b: &mut B) -> Vec<SolveResult> {
        let v: Vec<Var> = (0..4).map(|_| b.new_var()).collect();
        b.add_clause(&[v[0].pos(), v[1].pos()]);
        b.add_clause(&[v[0].neg(), v[2].pos()]);
        let r1 = b.solve_under(&[]);
        let r2 = b.solve_under(&[v[0].pos(), v[2].neg()]);
        b.add_clause(&[v[1].neg()]);
        let r3 = b.solve_under(&[]);
        b.add_clause(&[v[0].neg()]);
        let r4 = b.solve_under(&[]);
        vec![r1, r2, r3, r4]
    }

    #[test]
    fn portfolio_matches_cdcl_on_incremental_session() {
        for workers in [1, 2, 4] {
            let mut s = Solver::new();
            let mut p = PortfolioBackend::new(workers);
            assert_eq!(session(&mut s), session(&mut p), "workers={workers}");
            assert_eq!(p.name(), "portfolio");
        }
    }

    #[test]
    fn portfolio_refutes_pigeonhole() {
        let mut p = PortfolioBackend::new(4);
        php(&mut p, 5);
        assert_eq!(p.solve_under(&[]), SolveResult::Unsat);
        assert!(p.stats().portfolio_winner.is_some());
    }

    #[test]
    fn sat_model_comes_from_the_winning_worker() {
        let mut p = PortfolioBackend::new(3);
        let v: Vec<Var> = (0..8).map(|_| p.new_var()).collect();
        for w in v.windows(2) {
            p.add_clause(&[w[0].neg(), w[1].pos()]); // chain v0 → … → v7
        }
        p.add_clause(&[v[0].pos()]);
        assert_eq!(p.solve_under(&[]), SolveResult::Sat);
        for &x in &v {
            assert_eq!(p.value(x.pos()), Some(true));
        }
    }

    #[test]
    fn escalation_level_zero_runs_single_solver() {
        let mut p = PortfolioBackend::new(4);
        php(&mut p, 4);
        p.set_escalation_level(0);
        assert_eq!(p.solve_under(&[]), SolveResult::Unsat);
        let st = p.stats();
        assert_eq!(st.portfolio_winner, None, "no race happened");
        assert_eq!(st.wasted_conflicts, 0);
        assert_eq!(p.workers.len(), 1, "no extra workers materialized");
    }

    #[test]
    fn escalation_graduates_to_full_race() {
        let mut p = PortfolioBackend::new(2);
        php(&mut p, 4);
        p.set_escalation_level(0);
        assert_eq!(p.solve_under(&[]), SolveResult::Unsat);
        p.set_escalation_level(1);
        assert_eq!(p.solve_under(&[]), SolveResult::Unsat);
        assert_eq!(p.workers.len(), 2);
        assert!(p.stats().portfolio_winner.is_some());
    }

    #[test]
    fn parent_cancellation_stops_the_whole_race() {
        let mut p = PortfolioBackend::new(3);
        php(&mut p, 9); // far too hard to finish while cancelled
        let armed = ArmedBudget::unlimited();
        let stop = armed.stop_handle().clone();
        p.set_budget(armed);
        let waiter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            stop.request_stop();
        });
        let r = p.solve_under(&[]);
        waiter.join().expect("canceller");
        assert_eq!(r, SolveResult::Unknown);
        assert_eq!(p.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn spent_deadline_reports_deadline_not_cancelled() {
        let mut p = PortfolioBackend::new(2);
        php(&mut p, 6);
        p.set_budget(ArmedBudget::arm(
            &Budget::unlimited().with_timeout(Duration::ZERO),
        ));
        assert_eq!(p.solve_under(&[]), SolveResult::Unknown);
        assert_eq!(p.stop_reason(), Some(StopReason::Deadline));
    }

    #[test]
    fn losers_are_cancelled_or_finished_and_wasted_work_is_counted() {
        let mut p = PortfolioBackend::new(4);
        php(&mut p, 6);
        assert_eq!(p.solve_under(&[]), SolveResult::Unsat);
        let won = p.stats().portfolio_winner.expect("a winner") as usize;
        for (i, slot) in p.workers.iter().enumerate() {
            if i == won {
                assert_eq!(slot.solver.stop_reason(), None);
            } else {
                // A loser either got its own verdict just before the
                // cancellation landed, or observed the stop at a tick.
                assert!(matches!(
                    slot.solver.stop_reason(),
                    None | Some(StopReason::Cancelled)
                ));
            }
        }
    }

    #[test]
    fn preprocessing_composes_with_racing() {
        let mut p = PortfolioBackend::new(2);
        p.set_preprocessing(true);
        let v: Vec<Var> = (0..6).map(|_| p.new_var()).collect();
        p.freeze_var(v[0]);
        for w in v.windows(2) {
            p.add_clause(&[w[0].neg(), w[1].pos()]);
        }
        p.add_clause(&[v[5].neg()]);
        assert_eq!(p.solve_under(&[v[0].pos()]), SolveResult::Unsat);
        assert_eq!(p.solve_under(&[v[0].neg()]), SolveResult::Sat);
        assert_eq!(p.value(v[5].pos()), Some(false));
    }

    #[test]
    fn set_portfolio_sets_width() {
        let mut p = PortfolioBackend::default();
        assert_eq!(p.workers(), 4);
        p.set_portfolio(3);
        assert_eq!(p.workers(), 3);
        p.set_portfolio(0);
        assert_eq!(p.workers(), 1, "width is clamped");
    }
}

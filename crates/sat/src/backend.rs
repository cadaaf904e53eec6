//! The incremental solver-backend abstraction.
//!
//! Every consumer of SAT solving in the workspace — the bit-blaster, the
//! BMC engine and the A-QED obligation scheduler — talks to a
//! [`SatBackend`] instead of a concrete solver type. The trait captures
//! the minimal incremental interface the stack needs: variable creation,
//! clause addition at decision level 0, solving under assumptions, model
//! extraction, and statistics.
//!
//! Two implementations ship in-tree:
//!
//! * [`Solver`] — the CDCL engine, the default backend everywhere.
//! * [`PortfolioBackend`](crate::PortfolioBackend) — diversified CDCL
//!   workers racing on each solve call; the first verdict wins.
//!
//! # Examples
//!
//! Generic code works with any backend:
//!
//! ```
//! use aqed_sat::{PortfolioBackend, SatBackend, SolveResult, Solver};
//!
//! fn tiny<B: SatBackend>(b: &mut B) -> SolveResult {
//!     let x = b.new_var();
//!     let y = b.new_var();
//!     b.add_clause(&[x.pos(), y.pos()]);
//!     b.add_clause(&[x.neg()]);
//!     b.solve_under(&[])
//! }
//!
//! assert_eq!(tiny(&mut Solver::new()), SolveResult::Sat);
//! assert_eq!(tiny(&mut PortfolioBackend::new(2)), SolveResult::Sat);
//! ```

use crate::budget::{ArmedBudget, StopReason};
use crate::{Lit, SolveResult, Solver, SolverStats, Var};

/// An incremental SAT solver usable by the bit-blaster and the model
/// checkers.
///
/// Implementations must behave like a level-0 incremental solver:
/// clauses may be added between [`SatBackend::solve_under`] calls, solved
/// state (learned clauses, activities) may persist across calls, and an
/// `Unsat` answer under assumptions does not poison the instance.
pub trait SatBackend {
    /// Short identifier used in reports (e.g. `"cdcl"`).
    fn name(&self) -> &'static str;

    /// Creates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause; returns `false` if the instance is now known
    /// unsatisfiable at the top level.
    fn add_clause(&mut self, lits: &[Lit]) -> bool;

    /// Adds a two-literal clause. Backends with a dedicated binary-clause
    /// representation (the CDCL solver inlines them into watch lists)
    /// override this to skip the slice round-trip.
    fn add_binary(&mut self, a: Lit, b: Lit) -> bool {
        self.add_clause(&[a, b])
    }

    /// Adds a three-literal clause (the other Tseitin fast path).
    fn add_ternary(&mut self, a: Lit, b: Lit, c: Lit) -> bool {
        self.add_clause(&[a, b, c])
    }

    /// Solves the current formula under the given assumption literals.
    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult;

    /// The value of `l` in the most recent satisfying assignment, or
    /// `None` if the last solve did not produce a model.
    fn value(&self, l: Lit) -> Option<bool>;

    /// Cumulative search statistics.
    fn stats(&self) -> SolverStats;

    /// Number of variables created so far.
    fn num_vars(&self) -> usize;

    /// Number of clauses currently held.
    fn num_clauses(&self) -> usize;

    /// Limits each following solve call to at most `budget` conflicts
    /// (`None` removes the limit); exhausting it yields
    /// [`SolveResult::Unknown`].
    fn set_conflict_budget(&mut self, budget: Option<u64>);

    /// Installs an armed resource budget (deadline, effort caps,
    /// cancellation) governing all following solve calls.
    ///
    /// The default implementation ignores the budget: such a backend
    /// simply never stops early, which is sound (it can only return more
    /// decided verdicts) but forfeits resource governance.
    fn set_budget(&mut self, budget: ArmedBudget) {
        let _ = budget;
    }

    /// Why the most recent solve returned [`SolveResult::Unknown`], or
    /// `None` if it reached a verdict. Backends without budget support
    /// return `None`.
    fn stop_reason(&self) -> Option<StopReason> {
        None
    }

    /// Enables or disables in-solver CNF preprocessing (subsumption and
    /// bounded variable elimination between searches). The default
    /// implementation ignores the request: a backend without a
    /// preprocessor just searches the unsimplified formula, which is
    /// always sound.
    fn set_preprocessing(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Exempts `v` from variable elimination in backends that preprocess.
    /// Callers freeze their live interface (e.g. BMC frame boundaries);
    /// backends without a preprocessor have nothing to protect.
    fn freeze_var(&mut self, v: Var) {
        let _ = v;
    }

    /// Hints how hard this query has proven so far (0 = first attempt,
    /// higher = repeated budget-exhausted retries). The portfolio
    /// backend uses it to decide between a single inline solver and a
    /// full diversified race; single-solver backends have no use for it.
    fn set_escalation_level(&mut self, level: u32) {
        let _ = level;
    }

    /// Sets the race width of a portfolio backend. Single-solver
    /// backends ignore it.
    fn set_portfolio(&mut self, workers: usize) {
        let _ = workers;
    }
}

impl SatBackend for Solver {
    fn name(&self) -> &'static str {
        "cdcl"
    }

    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        Solver::add_clause(self, lits.iter().copied())
    }

    fn add_binary(&mut self, a: Lit, b: Lit) -> bool {
        Solver::add_binary(self, a, b)
    }

    fn add_ternary(&mut self, a: Lit, b: Lit, c: Lit) -> bool {
        Solver::add_ternary(self, a, b, c)
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_with(assumptions)
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.model_lit(l)
    }

    fn stats(&self) -> SolverStats {
        Solver::stats(self)
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        Solver::num_clauses(self)
    }

    fn set_conflict_budget(&mut self, budget: Option<u64>) {
        Solver::set_conflict_budget(self, budget);
    }

    fn set_budget(&mut self, budget: ArmedBudget) {
        Solver::set_budget(self, budget);
    }

    fn stop_reason(&self) -> Option<StopReason> {
        Solver::stop_reason(self)
    }

    fn set_preprocessing(&mut self, enabled: bool) {
        Solver::set_preprocessing(self, enabled);
    }

    fn freeze_var(&mut self, v: Var) {
        Solver::freeze_var(self, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortfolioBackend;

    #[test]
    fn trait_fast_paths_match_add_clause() {
        let mut a = Solver::new();
        let mut b = Solver::new();
        let va: Vec<Var> = (0..3).map(|_| SatBackend::new_var(&mut a)).collect();
        let vb: Vec<Var> = (0..3).map(|_| SatBackend::new_var(&mut b)).collect();
        SatBackend::add_binary(&mut a, va[0].pos(), va[1].neg());
        SatBackend::add_ternary(&mut a, va[0].neg(), va[1].pos(), va[2].pos());
        SatBackend::add_clause(&mut b, &[vb[0].pos(), vb[1].neg()]);
        SatBackend::add_clause(&mut b, &[vb[0].neg(), vb[1].pos(), vb[2].pos()]);
        assert_eq!(a.num_clauses(), b.num_clauses());
        assert_eq!(a.solve_under(&[va[0].pos()]), b.solve_under(&[vb[0].pos()]));
        assert_eq!(
            SatBackend::value(&a, va[1].pos()),
            SatBackend::value(&b, vb[1].pos())
        );
    }

    #[test]
    fn budget_flows_through_backend() {
        let mut d = PortfolioBackend::new(2);
        // PHP(5,4) needs more than one conflict.
        let p: Vec<Vec<Var>> = (0..5)
            .map(|_| (0..4).map(|_| d.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
            d.add_clause(&lits);
        }
        for h in 0..4 {
            let col: Vec<Var> = p.iter().map(|row| row[h]).collect();
            for (i, &a) in col.iter().enumerate() {
                for &b in &col[i + 1..] {
                    d.add_clause(&[a.neg(), b.neg()]);
                }
            }
        }
        d.set_conflict_budget(Some(1));
        assert_eq!(d.solve_under(&[]), SolveResult::Unknown);
        assert_eq!(d.stop_reason(), Some(StopReason::Conflicts));
        d.set_conflict_budget(None);
        assert_eq!(d.solve_under(&[]), SolveResult::Unsat);
        assert_eq!(d.stop_reason(), None);
    }

    #[test]
    fn armed_budget_flows_through_backend() {
        use crate::budget::Budget;
        use std::time::Duration;
        let mut d = PortfolioBackend::new(2);
        let v = d.new_var();
        d.add_clause(&[v.pos()]);
        d.set_budget(ArmedBudget::arm(
            &Budget::unlimited().with_timeout(Duration::ZERO),
        ));
        assert_eq!(d.solve_under(&[]), SolveResult::Unknown);
        assert_eq!(d.stop_reason(), Some(StopReason::Deadline));
        d.set_budget(ArmedBudget::unlimited());
        assert_eq!(d.solve_under(&[]), SolveResult::Sat);
    }
}

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
//! * [`DimacsBackend`] — a logging wrapper that records every clause and
//!   every query in incremental-DIMACS (iCNF) text while delegating the
//!   actual solving to an inner CDCL solver. Its log can be fed to
//!   *any other* backend with [`DimacsBackend::replay`], which is both a
//!   differential-testing harness and an export path to external solvers
//!   (the `batsat`/MiniSat family exposes the same interface shape).
//!
//! # Examples
//!
//! Generic code works with any backend:
//!
//! ```
//! use aqed_sat::{DimacsBackend, SatBackend, SolveResult, Solver};
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
//! let mut logging = DimacsBackend::new();
//! assert_eq!(tiny(&mut logging), SolveResult::Sat);
//! assert!(logging.log().contains("1 2 0"));
//! ```

use crate::budget::{ArmedBudget, StopReason};
use crate::{Lit, SolveResult, Solver, SolverStats, Var};
use std::fmt::Write as _;

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

    /// Sets the race width and the clause-sharing switch of a portfolio
    /// backend. Single-solver backends ignore it.
    fn set_portfolio(&mut self, workers: usize, sharing: bool) {
        let _ = (workers, sharing);
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

/// DIMACS literal of `l` (1-based, negative = negated).
fn to_dimacs(l: Lit) -> i64 {
    let v = i64::from(l.var().0) + 1;
    if l.is_positive() {
        v
    } else {
        -v
    }
}

/// A backend that records every interaction as incremental DIMACS while
/// an inner CDCL solver answers the queries.
///
/// The log uses the iCNF convention: ordinary clause lines terminated by
/// `0`, and one `a <lits> 0` line per [`SatBackend::solve_under`] call
/// carrying the assumptions. [`DimacsBackend::replay`] parses such a log
/// and drives any other backend through the identical sequence — the
/// differential-testing loop used by the property tests, and the export
/// path for running recorded BMC queries on an external solver.
#[derive(Debug, Clone, Default)]
pub struct DimacsBackend {
    inner: Solver,
    log: String,
}

impl DimacsBackend {
    /// Creates an empty logging backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded iCNF log.
    #[must_use]
    pub fn log(&self) -> &str {
        &self.log
    }

    /// Replays an iCNF log (as produced by this backend) on `backend`,
    /// returning the result of each recorded `a …` query line.
    ///
    /// Variables are created on demand up to the highest index mentioned;
    /// comment (`c`) and header (`p`) lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] on malformed literal tokens.
    pub fn replay<B: SatBackend>(
        log: &str,
        backend: &mut B,
    ) -> Result<Vec<SolveResult>, ReplayError> {
        let mut vars: Vec<Var> = Vec::new();
        let mut results = Vec::new();
        for (lineno, raw) in log.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('c') || line.starts_with('p') {
                continue;
            }
            let (is_query, body) = match line.strip_prefix("a ") {
                Some(rest) => (true, rest),
                None if line == "a" => (true, ""),
                None => (false, line),
            };
            let mut lits = Vec::new();
            for tok in body.split_ascii_whitespace() {
                let n: i64 = tok.parse().map_err(|_| ReplayError {
                    line: lineno + 1,
                    token: tok.to_string(),
                })?;
                if n == 0 {
                    break;
                }
                let idx = usize::try_from(n.unsigned_abs()).expect("fits") - 1;
                while vars.len() <= idx {
                    vars.push(backend.new_var());
                }
                lits.push(vars[idx].lit(n > 0));
            }
            if is_query {
                results.push(backend.solve_under(&lits));
            } else {
                backend.add_clause(&lits);
            }
        }
        Ok(results)
    }

    fn log_clause(&mut self, lits: &[Lit]) {
        for &l in lits {
            write!(self.log, "{} ", to_dimacs(l)).expect("string write");
        }
        self.log.push_str("0\n");
    }
}

/// Error produced by [`DimacsBackend::replay`] on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// The token that failed to parse.
    pub token: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "icnf replay error at line {}: invalid literal '{}'",
            self.line, self.token
        )
    }
}

impl std::error::Error for ReplayError {}

impl SatBackend for DimacsBackend {
    fn name(&self) -> &'static str {
        "dimacs"
    }

    fn new_var(&mut self) -> Var {
        self.inner.new_var()
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.log_clause(lits);
        SatBackend::add_clause(&mut self.inner, lits)
    }

    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.log.push('a');
        for &l in assumptions {
            write!(self.log, " {}", to_dimacs(l)).expect("string write");
        }
        self.log.push_str(" 0\n");
        self.inner.solve_with(assumptions)
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.inner.model_lit(l)
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

    fn set_preprocessing(&mut self, enabled: bool) {
        self.inner.set_preprocessing(enabled);
    }

    fn freeze_var(&mut self, v: Var) {
        self.inner.freeze_var(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn solver_and_dimacs_agree() {
        let mut s = Solver::new();
        let mut d = DimacsBackend::new();
        assert_eq!(session(&mut s), session(&mut d));
        assert_eq!(s.name(), "cdcl");
        assert_eq!(d.name(), "dimacs");
    }

    #[test]
    fn log_replays_identically() {
        let mut d = DimacsBackend::new();
        let recorded = session(&mut d);
        let mut fresh = Solver::new();
        let replayed = DimacsBackend::replay(d.log(), &mut fresh).expect("well-formed log");
        assert_eq!(recorded, replayed);
        // The log holds one `a` line per query.
        assert_eq!(d.log().lines().filter(|l| l.starts_with('a')).count(), 4);
    }

    #[test]
    fn replay_rejects_garbage() {
        let mut s = Solver::new();
        let err = DimacsBackend::replay("1 x 0\n", &mut s).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains('x'));
    }

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
        let mut d = DimacsBackend::new();
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
        let mut d = DimacsBackend::new();
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

//! A CDCL SAT solver — the decision engine underneath the A-QED bounded
//! model checker.
//!
//! The solver implements the standard modern architecture:
//!
//! * two-watched-literal propagation with blocker literals over a
//!   literal-indexed value array (one load per watcher, no polarity
//!   branch), each watch list walked detached from the solver; both
//!   are layout choices that visit watchers in the order an in-place
//!   walk would, so they leave the search unchanged,
//! * flat-arena clause storage with copying garbage collection, and
//!   binary clauses inlined into the watch lists (propagation of a
//!   two-literal clause never touches clause memory),
//! * first-UIP conflict analysis with learned-clause minimization,
//! * EVSIDS variable activities on an indexed binary max-heap,
//! * phase saving,
//! * Luby-sequence restarts,
//! * periodic learned-clause database reduction, and
//! * incremental solving under assumptions (the BMC engine re-uses one
//!   solver instance across unrolling depths).
//!
//! Consumers access solving through the [`SatBackend`] trait, which
//! [`Solver`] implements alongside the racing [`PortfolioBackend`]; the
//! bit-blaster and the model checker are generic over it.
//!
//! # Examples
//!
//! ```
//! use aqed_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([a.pos(), b.pos()]);   // a ∨ b
//! s.add_clause([a.neg()]);            // ¬a
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.model_value(b), Some(true));
//! s.add_clause([b.neg()]);            // ¬b → UNSAT
//! assert_eq!(s.solve(), SolveResult::Unsat);
//! ```

mod alloc;
mod backend;
mod budget;
mod heap;
pub mod portfolio;
mod preprocess;
mod signal;
mod solver;

pub use backend::SatBackend;
pub use budget::{ArmedBudget, Budget, StopHandle, StopReason};
pub use portfolio::PortfolioBackend;
pub use signal::stop_on_sigint;
pub use solver::{
    PhaseMode, PropagationReplay, RestartStrategy, SolveResult, Solver, SolverConfig, SolverStats,
};

use std::fmt;
use std::num::NonZeroU32;

/// A propositional variable. Created by [`Solver::new_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The 0-based index of this variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[must_use]
    pub fn pos(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    ///
    /// Deliberately a named method (MiniSat-style `v.neg()`), not
    /// `std::ops::Neg`: negating a *variable* yields a *literal*.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn neg(self) -> Lit {
        Lit::new(self, false)
    }

    /// The literal of this variable with the given polarity.
    #[must_use]
    pub fn lit(self, positive: bool) -> Lit {
        Lit::new(self, positive)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `var << 1 | sign` where `sign == 1` means negated, so
/// literals index watch lists directly. `repr(transparent)` over `u32`
/// lets the clause arena reinterpret its raw words as literal slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Creates a literal from a variable and polarity (`true` = positive).
    #[must_use]
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive (non-negated).
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The index of this literal in watch lists (`2 * var + sign`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "!v{}", self.var().0)
        }
    }
}

/// Ternary truth value of a literal under the solver's current
/// assignment (the solver stores one per literal, not per variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

/// Reference to a clause in the solver's arena (niche-optimized so
/// `Option<ClauseRef>` is four bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClauseRef(NonZeroU32);

impl ClauseRef {
    pub(crate) fn new(index: usize) -> Self {
        ClauseRef(
            NonZeroU32::new(u32::try_from(index + 1).expect("clause arena overflow"))
                .expect("nonzero by construction"),
        )
    }

    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var(7);
        assert_eq!(v.pos().var(), v);
        assert_eq!(v.neg().var(), v);
        assert!(v.pos().is_positive());
        assert!(!v.neg().is_positive());
        assert_eq!(!v.pos(), v.neg());
        assert_eq!(!!v.pos(), v.pos());
        assert_eq!(v.lit(true), v.pos());
        assert_eq!(v.lit(false), v.neg());
        assert_eq!(v.pos().index(), 14);
        assert_eq!(v.neg().index(), 15);
    }

    #[test]
    fn display_forms() {
        let v = Var(3);
        assert_eq!(v.to_string(), "v3");
        assert_eq!(v.pos().to_string(), "v3");
        assert_eq!(v.neg().to_string(), "!v3");
    }

    #[test]
    fn clause_ref_roundtrip() {
        let c = ClauseRef::new(0);
        assert_eq!(c.index(), 0);
        let c = ClauseRef::new(41);
        assert_eq!(c.index(), 41);
    }
}

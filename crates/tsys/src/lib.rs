//! Finite state transition systems — the formal accelerator model of the
//! A-QED paper (Definition 1) — plus a cycle-accurate simulator.
//!
//! A [`TransitionSystem`] is the tuple `(S, s_init, rdin, A, a_⊥, D, O,
//! o_⊥, T, F)` from the paper, realised at the RTL level:
//!
//! * the state set `S` is the product of the *state variables* (registers),
//! * `s_init` is given by per-register init expressions,
//! * the transition function `T` is given by per-register *next*
//!   expressions over state and input variables,
//! * the output function `F` and predicates such as `rdin` are named
//!   *output* expressions,
//! * invariants the environment guarantees (e.g. input encodings) are
//!   *constraints*, and
//! * safety properties are *bad* expressions (a bad expression evaluating
//!   to 1 is a property violation — BTOR2 convention).
//!
//! The [`Simulator`] executes a system cycle by cycle on concrete
//! [`Bv`](aqed_bitvec::Bv) values; [`Trace`] records executions (and BMC
//! counterexamples) for replay and display.
//!
//! # Examples
//!
//! A 4-bit counter with an enable input:
//!
//! ```
//! use aqed_tsys::{Simulator, TransitionSystem};
//! use aqed_expr::ExprPool;
//! use aqed_bitvec::Bv;
//!
//! let mut p = ExprPool::new();
//! let mut ts = TransitionSystem::new("counter");
//! let en = ts.add_input(&mut p, "en", 1);
//! let count = ts.add_state(&mut p, "count", 4);
//! let count_e = p.var_expr(count);
//! let one = p.lit(4, 1);
//! let inc = p.add(count_e, one);
//! let en_e = p.var_expr(en);
//! let next = p.ite(en_e, inc, count_e);
//! ts.set_init_const(&mut p, count, 0);
//! ts.set_next(count, next);
//! ts.add_output("value", count_e);
//! ts.validate(&p).expect("well-formed");
//!
//! let mut sim = Simulator::new(&ts, &p);
//! sim.step_with(&ts, &p, &[(en, Bv::from_bool(true))]);
//! sim.step_with(&ts, &p, &[(en, Bv::from_bool(false))]);
//! sim.step_with(&ts, &p, &[(en, Bv::from_bool(true))]);
//! assert_eq!(sim.state(count), Bv::new(4, 2));
//! ```

mod btor2;
mod coi;
mod mem;
mod mutate;
mod sim;
mod trace;
mod vcd;

pub use btor2::{btor2_check, btor2_stats, to_btor2, write_btor2, Btor2Stats};
pub use coi::{coi_slice, coi_slice_cached, CoiCache, CoiSlice};
pub use mem::Mem;
pub use mutate::{enumerate_mutants, Mutant, Mutator};
pub use sim::{Simulator, StepRecord};
pub use trace::Trace;
pub use vcd::to_vcd;

use aqed_expr::{ExprPool, ExprRef, Node, VarId, VarKind};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A state variable (register) with its initialisation and next-state
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateVar {
    /// The symbolic variable holding the register's current value.
    pub var: VarId,
    /// Initial value; `None` leaves the register uninitialised (free at
    /// cycle 0 — useful for modelling unknown power-on state).
    pub init: Option<ExprRef>,
    /// Next-state expression over state and input variables.
    pub next: Option<ExprRef>,
}

/// Error returned by [`TransitionSystem::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateSystemError {
    /// A state variable has no next-state expression.
    MissingNext {
        /// Name of the offending register.
        name: String,
    },
    /// An expression has the wrong width for its role.
    WidthMismatch {
        /// Description of the offending expression.
        context: String,
        /// Expected width.
        expected: u32,
        /// Actual width.
        actual: u32,
    },
    /// An expression references a variable that is neither a declared
    /// input nor a declared state of this system.
    ForeignVariable {
        /// Description of where the variable occurs.
        context: String,
        /// Name of the foreign variable.
        name: String,
    },
}

impl fmt::Display for ValidateSystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateSystemError::MissingNext { name } => {
                write!(f, "state variable '{name}' has no next-state expression")
            }
            ValidateSystemError::WidthMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "width mismatch in {context}: expected {expected}, got {actual}"
            ),
            ValidateSystemError::ForeignVariable { context, name } => {
                write!(f, "{context} references undeclared variable '{name}'")
            }
        }
    }
}

impl Error for ValidateSystemError {}

/// A synchronous finite-state transition system over an [`ExprPool`].
///
/// See the [crate-level documentation](crate) for the paper mapping and an
/// example.
#[derive(Debug, Clone, Default)]
pub struct TransitionSystem {
    name: String,
    inputs: Vec<VarId>,
    states: Vec<StateVar>,
    state_index: HashMap<VarId, usize>,
    outputs: Vec<(String, ExprRef)>,
    constraints: Vec<ExprRef>,
    bads: Vec<(String, ExprRef)>,
}

impl TransitionSystem {
    /// Creates an empty system with a diagnostic name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TransitionSystem {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The system's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a primary input of the given width. Returns its variable.
    pub fn add_input(&mut self, pool: &mut ExprPool, name: impl Into<String>, width: u32) -> VarId {
        let v = pool.var(name, width, VarKind::Input);
        self.inputs.push(v);
        v
    }

    /// Declares a state variable (register) of the given width. Its init
    /// and next expressions are set separately.
    pub fn add_state(&mut self, pool: &mut ExprPool, name: impl Into<String>, width: u32) -> VarId {
        let v = pool.var(name, width, VarKind::State);
        self.state_index.insert(v, self.states.len());
        self.states.push(StateVar {
            var: v,
            init: None,
            next: None,
        });
        v
    }

    /// Sets the initial-value expression of state `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a state of this system or the widths differ.
    pub fn set_init(&mut self, pool: &ExprPool, v: VarId, init: ExprRef) {
        let idx = self.state_idx(v);
        assert!(
            pool.width(init) == pool.var_width(v),
            "init width {} differs from state '{}' width {}",
            pool.width(init),
            pool.var_name(v),
            pool.var_width(v)
        );
        self.states[idx].init = Some(init);
    }

    /// Sets the initial value of state `v` to a constant.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a state of this system.
    pub fn set_init_const(&mut self, pool: &mut ExprPool, v: VarId, value: u64) {
        let w = pool.var_width(v);
        let c = pool.lit(w, value);
        self.set_init(pool, v, c);
    }

    /// Sets the next-state expression of state `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a state of this system or the widths differ.
    pub fn set_next(&mut self, v: VarId, next: ExprRef) {
        let idx = self.state_idx(v);
        self.states[idx].next = Some(next);
    }

    /// Convenience: declares a state with a constant init and next set in
    /// one call.
    pub fn add_register(
        &mut self,
        pool: &mut ExprPool,
        name: impl Into<String>,
        width: u32,
        init: u64,
    ) -> VarId {
        let v = self.add_state(pool, name, width);
        self.set_init_const(pool, v, init);
        v
    }

    fn state_idx(&self, v: VarId) -> usize {
        *self
            .state_index
            .get(&v)
            .unwrap_or_else(|| panic!("variable is not a state of system '{}'", self.name))
    }

    /// Adds a named output expression.
    pub fn add_output(&mut self, name: impl Into<String>, expr: ExprRef) {
        self.outputs.push((name.into(), expr));
    }

    /// Adds an environment constraint (1-bit expression assumed true in
    /// every cycle).
    pub fn add_constraint(&mut self, expr: ExprRef) {
        self.constraints.push(expr);
    }

    /// Adds a named bad-state property (1-bit expression; evaluating to 1
    /// is a violation).
    pub fn add_bad(&mut self, name: impl Into<String>, expr: ExprRef) {
        self.bads.push((name.into(), expr));
    }

    /// The declared inputs, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[VarId] {
        &self.inputs
    }

    /// The state variables, in declaration order.
    #[must_use]
    pub fn states(&self) -> &[StateVar] {
        &self.states
    }

    /// Whether `v` is a state variable of this system.
    #[must_use]
    pub fn is_state(&self, v: VarId) -> bool {
        self.state_index.contains_key(&v)
    }

    /// The named outputs.
    #[must_use]
    pub fn outputs(&self) -> &[(String, ExprRef)] {
        &self.outputs
    }

    /// Looks up an output expression by name.
    #[must_use]
    pub fn output(&self, name: &str) -> Option<ExprRef> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, e)| e)
    }

    /// The environment constraints.
    #[must_use]
    pub fn constraints(&self) -> &[ExprRef] {
        &self.constraints
    }

    /// The named bad-state properties.
    #[must_use]
    pub fn bads(&self) -> &[(String, ExprRef)] {
        &self.bads
    }

    /// Looks up a bad-state property index by name.
    #[must_use]
    pub fn bad_index(&self, name: &str) -> Option<usize> {
        self.bads.iter().position(|(n, _)| n == name)
    }

    /// Checks structural well-formedness: every state has a next function
    /// of the right width, inits have the right width, constraints and
    /// bads are 1-bit, and every referenced variable is declared.
    ///
    /// Checks run in a fixed order: each state's next and init widths,
    /// then the variables of each output, constraint (its width first),
    /// bad (likewise), and each state's next and init. An expression with
    /// several undeclared variables reports the one declared first in
    /// the pool.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateSystemError`] found.
    pub fn validate(&self, pool: &ExprPool) -> Result<(), ValidateSystemError> {
        let name = |v: VarId| pool.var_name(v).to_string();
        let width_mismatch = |context: String, expected: u32, e: ExprRef| {
            Err(ValidateSystemError::WidthMismatch {
                context,
                expected,
                actual: pool.width(e),
            })
        };
        for s in &self.states {
            let w = pool.var_width(s.var);
            let Some(next) = s.next else {
                return Err(ValidateSystemError::MissingNext { name: name(s.var) });
            };
            if pool.width(next) != w {
                return width_mismatch(format!("next({})", name(s.var)), w, next);
            }
            if let Some(init) = s.init.filter(|&i| pool.width(i) != w) {
                return width_mismatch(format!("init({})", name(s.var)), w, init);
            }
        }
        // One walk over the system's expression DAG: a node is visited
        // once, however many roots share it.
        let mut walk = SupportWalk::new(self, pool);
        let foreign = |context: String, v: VarId| {
            Err(ValidateSystemError::ForeignVariable {
                context,
                name: name(v),
            })
        };
        for (out, e) in &self.outputs {
            if let Some(v) = walk.undeclared(*e) {
                return foreign(format!("output '{out}'"), v);
            }
        }
        for (i, &e) in self.constraints.iter().enumerate() {
            if pool.width(e) != 1 {
                return width_mismatch(format!("constraint #{i}"), 1, e);
            }
            if let Some(v) = walk.undeclared(e) {
                return foreign(format!("constraint #{i}"), v);
            }
        }
        for (bad, e) in &self.bads {
            if pool.width(*e) != 1 {
                return width_mismatch(format!("bad '{bad}'"), 1, *e);
            }
            if let Some(v) = walk.undeclared(*e) {
                return foreign(format!("bad '{bad}'"), v);
            }
        }
        for s in &self.states {
            // Inits may reference state variables (read at cycle 0).
            for (role, e) in [("next", s.next), ("init", s.init)] {
                if let Some(v) = e.and_then(|e| walk.undeclared(e)) {
                    return foreign(format!("{role}({})", name(s.var)), v);
                }
            }
        }
        Ok(())
    }

    /// Merges another system into this one: its inputs, states, outputs,
    /// constraints and bads are appended. Both systems must share the same
    /// [`ExprPool`]. This is how the A-QED monitor is composed with the
    /// design under verification.
    pub fn compose(&mut self, other: &TransitionSystem) {
        for &i in &other.inputs {
            if !self.inputs.contains(&i) {
                self.inputs.push(i);
            }
        }
        for s in &other.states {
            assert!(
                !self.state_index.contains_key(&s.var),
                "state '{:?}' already present in '{}'",
                s.var,
                self.name
            );
            self.state_index.insert(s.var, self.states.len());
            self.states.push(*s);
        }
        self.outputs.extend(other.outputs.iter().cloned());
        self.constraints.extend(other.constraints.iter().copied());
        self.bads.extend(other.bads.iter().cloned());
    }
}

/// The variable check behind [`TransitionSystem::validate`]: one
/// depth-first walk over the system's expression DAG, sharing a visited
/// set across roots.
struct SupportWalk<'a> {
    pool: &'a ExprPool,
    /// Whether the system declares the variable, by variable index.
    declared: Vec<bool>,
    /// Nodes already walked, by expression index. A walked node's
    /// variables are all declared: a walk that finds one undeclared
    /// ends validation.
    seen: Vec<bool>,
    stack: Vec<ExprRef>,
}

impl<'a> SupportWalk<'a> {
    fn new(ts: &TransitionSystem, pool: &'a ExprPool) -> Self {
        let mut declared = vec![false; pool.var_count()];
        let vars = ts.inputs.iter().chain(ts.states.iter().map(|s| &s.var));
        for v in vars {
            // A variable of another pool cannot occur in this one's
            // expressions.
            if let Some(d) = declared.get_mut(v.index()) {
                *d = true;
            }
        }
        SupportWalk {
            pool,
            declared,
            seen: vec![false; pool.len()],
            stack: Vec::new(),
        }
    }

    /// The lowest undeclared variable `root` depends on, if any.
    fn undeclared(&mut self, root: ExprRef) -> Option<VarId> {
        let mut found: Option<VarId> = None;
        self.stack.push(root);
        while let Some(e) = self.stack.pop() {
            if std::mem::replace(&mut self.seen[e.index()], true) {
                continue;
            }
            match *self.pool.node(e) {
                Node::Const(_) => {}
                Node::Var(v) => {
                    if !self.declared[v.index()] && found.is_none_or(|f| v < f) {
                        found = Some(v);
                    }
                }
                Node::Unary(_, a) | Node::Extract { arg: a, .. } | Node::Extend { arg: a, .. } => {
                    self.stack.push(a);
                }
                Node::Binary(_, a, b) => self.stack.extend([a, b]),
                Node::Ite { cond, then_, else_ } => self.stack.extend([cond, then_, else_]),
            }
        }
        found
    }
}

impl fmt::Display for TransitionSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TransitionSystem('{}': {} inputs, {} states, {} outputs, {} constraints, {} bads)",
            self.name,
            self.inputs.len(),
            self.states.len(),
            self.outputs.len(),
            self.constraints.len(),
            self.bads.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqed_bitvec::Bv;

    fn counter(pool: &mut ExprPool) -> (TransitionSystem, VarId, VarId) {
        let mut ts = TransitionSystem::new("counter");
        let en = ts.add_input(pool, "en", 1);
        let c = ts.add_state(pool, "count", 4);
        let ce = pool.var_expr(c);
        let one = pool.lit(4, 1);
        let inc = pool.add(ce, one);
        let ene = pool.var_expr(en);
        let next = pool.ite(ene, inc, ce);
        ts.set_init_const(pool, c, 0);
        ts.set_next(c, next);
        ts.add_output("value", ce);
        (ts, en, c)
    }

    #[test]
    fn builds_and_validates() {
        let mut p = ExprPool::new();
        let (ts, _, c) = counter(&mut p);
        ts.validate(&p).expect("valid");
        assert_eq!(ts.inputs().len(), 1);
        assert_eq!(ts.states().len(), 1);
        assert!(ts.is_state(c));
        assert_eq!(ts.output("value"), Some(p.var_expr(c)));
        assert!(ts.output("nope").is_none());
        assert!(ts.to_string().contains("counter"));
    }

    #[test]
    fn missing_next_detected() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("bad");
        let _ = ts.add_state(&mut p, "orphan", 8);
        let err = ts.validate(&p).unwrap_err();
        assert_eq!(
            err,
            ValidateSystemError::MissingNext {
                name: "orphan".into()
            }
        );
        assert_eq!(
            err.to_string(),
            "state variable 'orphan' has no next-state expression"
        );
    }

    #[test]
    fn width_mismatch_detected() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("bad");
        let s = ts.add_state(&mut p, "s", 8);
        let narrow = p.lit(4, 0);
        ts.set_next(s, narrow);
        let err = ts.validate(&p).unwrap_err();
        assert_eq!(
            err,
            ValidateSystemError::WidthMismatch {
                context: "next(s)".into(),
                expected: 8,
                actual: 4,
            }
        );
        assert_eq!(
            err.to_string(),
            "width mismatch in next(s): expected 8, got 4"
        );
    }

    #[test]
    fn foreign_variable_detected() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("bad");
        let s = ts.add_state(&mut p, "s", 8);
        // Variable created directly on the pool, not declared on ts.
        let alien = p.var("alien", 8, VarKind::Input);
        let ae = p.var_expr(alien);
        ts.set_next(s, ae);
        let err = ts.validate(&p).unwrap_err();
        assert_eq!(
            err,
            ValidateSystemError::ForeignVariable {
                context: "next(s)".into(),
                name: "alien".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "next(s) references undeclared variable 'alien'"
        );
    }

    #[test]
    fn non_boolean_bad_rejected() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("bad");
        let s = ts.add_register(&mut p, "s", 8, 0);
        let se = p.var_expr(s);
        ts.set_next(s, se);
        ts.add_bad("wide", se);
        let err = ts.validate(&p).unwrap_err();
        assert_eq!(
            err,
            ValidateSystemError::WidthMismatch {
                context: "bad 'wide'".into(),
                expected: 1,
                actual: 8,
            }
        );
    }

    /// A system whose register reads two undeclared variables and,
    /// optionally, with an 8-bit bad.
    fn two_faults(p: &mut ExprPool, wide_bad: bool) -> TransitionSystem {
        let mut ts = TransitionSystem::new("faulty");
        let s = ts.add_register(p, "s", 8, 0);
        let se = p.var_expr(s);
        ts.add_output("s", se);
        // Created on the pool in this order, declared on no system.
        let early = p.var("early", 8, VarKind::Input);
        let late = p.var("late", 8, VarKind::Input);
        let (ee, le) = (p.var_expr(early), p.var_expr(late));
        let diff = p.sub(ee, le);
        let next = p.add(diff, se);
        ts.set_next(s, next);
        if wide_bad {
            ts.add_bad("wide", se);
        }
        ts
    }

    #[test]
    fn faults_are_reported_in_check_order() {
        let mut p = ExprPool::new();
        // Bad widths are checked before next-state variables, although
        // the register is declared first.
        let err = two_faults(&mut p, true).validate(&p).unwrap_err();
        assert_eq!(
            err,
            ValidateSystemError::WidthMismatch {
                context: "bad 'wide'".into(),
                expected: 1,
                actual: 8,
            }
        );
        // Without it, the next function's undeclared variable created
        // first on the pool is named.
        let mut p = ExprPool::new();
        let err = two_faults(&mut p, false).validate(&p).unwrap_err();
        assert_eq!(
            err,
            ValidateSystemError::ForeignVariable {
                context: "next(s)".into(),
                name: "early".into(),
            }
        );
    }

    #[test]
    #[should_panic(expected = "not a state")]
    fn set_next_on_input_panics() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("bad");
        let i = ts.add_input(&mut p, "i", 1);
        let e = p.var_expr(i);
        ts.set_next(i, e);
    }

    #[test]
    fn compose_merges_components() {
        let mut p = ExprPool::new();
        let (mut ts, _, c) = counter(&mut p);
        let mut mon = TransitionSystem::new("monitor");
        let seen = mon.add_register(&mut p, "seen", 1, 0);
        let ce = p.var_expr(c);
        let limit = p.lit(4, 9);
        let hit = p.uge(ce, limit);
        let seen_e = p.var_expr(seen);
        let next = p.or(seen_e, hit);
        mon.set_next(seen, next);
        mon.add_bad("count_reached_9", hit);
        ts.compose(&mon);
        ts.validate(&p).expect("composed system valid");
        assert_eq!(ts.states().len(), 2);
        assert_eq!(ts.bads().len(), 1);
        assert_eq!(ts.bad_index("count_reached_9"), Some(0));
    }

    #[test]
    fn simulate_counter() {
        let mut p = ExprPool::new();
        let (ts, en, c) = counter(&mut p);
        let mut sim = Simulator::new(&ts, &p);
        assert_eq!(sim.state(c), Bv::new(4, 0));
        for _ in 0..20 {
            sim.step_with(&ts, &p, &[(en, Bv::from_bool(true))]);
        }
        // 4-bit counter wraps at 16.
        assert_eq!(sim.state(c), Bv::new(4, 4));
    }
}

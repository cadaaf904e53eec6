//! Tseitin bit-blaster: compiles `aqed-expr` word-level expressions into
//! CNF over `aqed-sat` literals.
//!
//! A [`BitBlaster`] maintains a cache from expression nodes to vectors of
//! solver literals (least-significant bit first), so shared subgraphs are
//! encoded exactly once — including across multiple [`BitBlaster::blast`]
//! calls, which is what makes incremental BMC cheap.
//!
//! Circuit encodings are the textbook ones used by hardware back-ends:
//! ripple-carry adders, shift-and-add multipliers, restoring dividers,
//! logarithmic barrel shifters, and borrow-chain comparators.
//!
//! Every method is generic over [`SatBackend`], so the same encoder
//! drives the in-tree CDCL solver, the portfolio backend, or any future
//! implementation. A blaster is tied to one backend instance: pass
//! the same backend to every call (a fresh backend with an old blaster
//! produces invalid CNF). The encoding survives budget-interrupted
//! solves — a backend that returns [`SolveResult::Unknown`](aqed_sat::SolveResult)
//! under a resource budget can be re-solved with a fresh budget without
//! re-blasting anything.
//!
//! # Examples
//!
//! ```
//! use aqed_bitblast::BitBlaster;
//! use aqed_expr::{ExprPool, VarKind};
//! use aqed_sat::{SolveResult, Solver};
//!
//! let mut p = ExprPool::new();
//! let x = p.var("x", 8, VarKind::Input);
//! let xe = p.var_expr(x);
//! let c128 = p.lit(8, 128);
//! let c228 = p.lit(8, 228);
//! let sum = p.add(xe, xe);
//! // Does x + x == 228 with x < 128 have a solution? (x = 114)
//! let eq = p.eq(sum, c228);
//! let lt = p.ult(xe, c128);
//! let both = p.and(eq, lt);
//!
//! let mut solver = Solver::new();
//! let mut bb = BitBlaster::new();
//! bb.assert_true(&p, both, &mut solver);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! let x_val = bb.model_value(&p, xe, &solver).expect("model available");
//! assert_eq!(x_val.to_u64() * 2 % 256, 228);
//! ```

use aqed_bitvec::Bv;
use aqed_expr::{BinOp, ExprPool, ExprRef, Node, UnOp, VarId};
use aqed_sat::{Lit, SatBackend};
use std::collections::HashMap;

/// Compiles word-level expressions to CNF, caching every encoded node.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct BitBlaster {
    cache: HashMap<ExprRef, Vec<Lit>>,
    var_bits: HashMap<VarId, Vec<Lit>>,
    const_true: Option<Lit>,
}

impl BitBlaster {
    /// Creates an empty blaster.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of expression nodes encoded so far.
    #[must_use]
    pub fn cached_nodes(&self) -> usize {
        self.cache.len()
    }

    /// The bits already encoded for `e` (LSB first), or `None` if the
    /// expression has not been blasted yet. Unlike [`BitBlaster::blast`]
    /// this never adds clauses — callers use it to enumerate a known
    /// interface (e.g. the BMC frame boundary, which a preprocessing
    /// solver must keep intact).
    #[must_use]
    pub fn cached_bits(&self, e: ExprRef) -> Option<&[Lit]> {
        self.cache.get(&e).map(Vec::as_slice)
    }

    /// A literal constrained to be true (created on first use).
    pub fn lit_true<B: SatBackend>(&mut self, solver: &mut B) -> Lit {
        match self.const_true {
            Some(l) => l,
            None => {
                let v = solver.new_var();
                solver.add_clause(&[v.pos()]);
                self.const_true = Some(v.pos());
                v.pos()
            }
        }
    }

    /// A literal constrained to be false.
    pub fn lit_false<B: SatBackend>(&mut self, solver: &mut B) -> Lit {
        !self.lit_true(solver)
    }

    /// The solver literals backing variable `v` (LSB first), allocating
    /// them on first use.
    pub fn var_lits<B: SatBackend>(
        &mut self,
        pool: &ExprPool,
        v: VarId,
        solver: &mut B,
    ) -> Vec<Lit> {
        if let Some(bits) = self.var_bits.get(&v) {
            return bits.clone();
        }
        let bits: Vec<Lit> = (0..pool.var_width(v))
            .map(|_| solver.new_var().pos())
            .collect();
        self.var_bits.insert(v, bits.clone());
        bits
    }

    /// Encodes `e`, returning its bits (LSB first). All necessary clauses
    /// are added to `solver`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not from `pool`.
    pub fn blast<B: SatBackend>(
        &mut self,
        pool: &ExprPool,
        e: ExprRef,
        solver: &mut B,
    ) -> Vec<Lit> {
        if let Some(bits) = self.cache.get(&e) {
            return bits.clone();
        }
        // Iterative post-order encoding.
        let mut stack = vec![e];
        while let Some(&cur) = stack.last() {
            if self.cache.contains_key(&cur) {
                stack.pop();
                continue;
            }
            let mut pending = false;
            {
                let mut need = |c: ExprRef| {
                    if !self.cache.contains_key(&c) {
                        stack.push(c);
                        pending = true;
                    }
                };
                match *pool.node(cur) {
                    Node::Const(_) | Node::Var(_) => {}
                    Node::Unary(_, a) => need(a),
                    Node::Binary(_, a, b) => {
                        need(a);
                        need(b);
                    }
                    Node::Ite { cond, then_, else_ } => {
                        need(cond);
                        need(then_);
                        need(else_);
                    }
                    Node::Extract { arg, .. } | Node::Extend { arg, .. } => need(arg),
                }
            }
            if pending {
                continue;
            }
            let bits = self.encode_node(pool, cur, solver);
            debug_assert_eq!(bits.len() as u32, pool.width(cur));
            self.cache.insert(cur, bits);
            stack.pop();
        }
        self.cache[&e].clone()
    }

    /// Encodes the 1-bit expression `e` and adds a unit clause forcing it
    /// true.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not 1 bit wide.
    pub fn assert_true<B: SatBackend>(&mut self, pool: &ExprPool, e: ExprRef, solver: &mut B) {
        assert_eq!(pool.width(e), 1, "assert_true requires a 1-bit expression");
        let bits = self.blast(pool, e, solver);
        solver.add_clause(&[bits[0]]);
    }

    /// Encodes the 1-bit expression `e` and returns the literal
    /// representing it (useful as an activation/assumption literal).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not 1 bit wide.
    pub fn literal<B: SatBackend>(&mut self, pool: &ExprPool, e: ExprRef, solver: &mut B) -> Lit {
        assert_eq!(pool.width(e), 1, "literal requires a 1-bit expression");
        self.blast(pool, e, solver)[0]
    }

    /// Reads the value of a previously blasted expression from the
    /// solver's current model. Returns `None` if the solver holds no model
    /// or `e` was never blasted.
    #[must_use]
    pub fn model_value<B: SatBackend>(
        &self,
        pool: &ExprPool,
        e: ExprRef,
        solver: &B,
    ) -> Option<Bv> {
        let bits = self.cache.get(&e)?;
        let mut val = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if solver.value(b)? {
                val |= 1 << i;
            }
        }
        Some(Bv::new(pool.width(e), val))
    }

    /// Reads the value of a variable from the solver's current model.
    /// Returns `None` if no model is available or the variable was never
    /// allocated.
    #[must_use]
    pub fn model_var<B: SatBackend>(&self, pool: &ExprPool, v: VarId, solver: &B) -> Option<Bv> {
        let bits = self.var_bits.get(&v)?;
        let mut val = 0u64;
        for (i, &b) in bits.iter().enumerate() {
            if solver.value(b)? {
                val |= 1 << i;
            }
        }
        Some(Bv::new(pool.var_width(v), val))
    }

    // ------------------------------------------------------------------
    // Gate-level primitives
    // ------------------------------------------------------------------

    fn is_const_true(&self, l: Lit) -> bool {
        self.const_true == Some(l)
    }

    fn is_const_false(&self, l: Lit) -> bool {
        self.const_true == Some(!l)
    }

    fn gate_and<B: SatBackend>(&mut self, a: Lit, b: Lit, solver: &mut B) -> Lit {
        if self.is_const_false(a) || self.is_const_false(b) {
            return self.lit_false(solver);
        }
        if self.is_const_true(a) {
            return b;
        }
        if self.is_const_true(b) {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return self.lit_false(solver);
        }
        let c = solver.new_var().pos();
        // Tseitin clauses go through the small-clause fast paths: no
        // intermediate Vec, and the two-literal clauses land directly in
        // the solver's inlined binary watch lists.
        solver.add_ternary(!a, !b, c);
        solver.add_binary(a, !c);
        solver.add_binary(b, !c);
        c
    }

    fn gate_or<B: SatBackend>(&mut self, a: Lit, b: Lit, solver: &mut B) -> Lit {
        let n = self.gate_and(!a, !b, solver);
        !n
    }

    fn gate_xor<B: SatBackend>(&mut self, a: Lit, b: Lit, solver: &mut B) -> Lit {
        if self.is_const_false(a) {
            return b;
        }
        if self.is_const_false(b) {
            return a;
        }
        if self.is_const_true(a) {
            return !b;
        }
        if self.is_const_true(b) {
            return !a;
        }
        if a == b {
            return self.lit_false(solver);
        }
        if a == !b {
            return self.lit_true(solver);
        }
        let c = solver.new_var().pos();
        solver.add_ternary(!a, !b, !c);
        solver.add_ternary(a, b, !c);
        solver.add_ternary(a, !b, c);
        solver.add_ternary(!a, b, c);
        c
    }

    /// `s ? a : b`
    fn gate_mux<B: SatBackend>(&mut self, s: Lit, a: Lit, b: Lit, solver: &mut B) -> Lit {
        if self.is_const_true(s) {
            return a;
        }
        if self.is_const_false(s) {
            return b;
        }
        if a == b {
            return a;
        }
        let c = solver.new_var().pos();
        solver.add_ternary(!s, !a, c);
        solver.add_ternary(!s, a, !c);
        solver.add_ternary(s, !b, c);
        solver.add_ternary(s, b, !c);
        c
    }

    /// Full adder returning (sum, carry-out).
    fn full_adder<B: SatBackend>(
        &mut self,
        a: Lit,
        b: Lit,
        cin: Lit,
        solver: &mut B,
    ) -> (Lit, Lit) {
        let axb = self.gate_xor(a, b, solver);
        let sum = self.gate_xor(axb, cin, solver);
        let ab = self.gate_and(a, b, solver);
        let axb_c = self.gate_and(axb, cin, solver);
        let cout = self.gate_or(ab, axb_c, solver);
        (sum, cout)
    }

    fn ripple_add<B: SatBackend>(
        &mut self,
        a: &[Lit],
        b: &[Lit],
        cin: Lit,
        solver: &mut B,
    ) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        let mut carry = cin;
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry, solver);
            out.push(s);
            carry = c;
        }
        out
    }

    fn negate<B: SatBackend>(&mut self, a: &[Lit], solver: &mut B) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|&l| !l).collect();
        let zero: Vec<Lit> = vec![self.lit_false(solver); a.len()];
        let one = self.lit_true(solver);
        self.ripple_add(&inv, &zero, one, solver)
    }

    fn const_bits<B: SatBackend>(&mut self, v: Bv, solver: &mut B) -> Vec<Lit> {
        let t = self.lit_true(solver);
        (0..v.width())
            .map(|i| if v.bit(i) { t } else { !t })
            .collect()
    }

    /// Unsigned `a < b` via a priority chain from LSB to MSB.
    fn cmp_ult<B: SatBackend>(&mut self, a: &[Lit], b: &[Lit], solver: &mut B) -> Lit {
        let mut lt = self.lit_false(solver);
        for i in 0..a.len() {
            // lt_i = (¬a_i ∧ b_i) ∨ ((a_i == b_i) ∧ lt_{i-1})
            let nb = self.gate_and(!a[i], b[i], solver);
            let diff = self.gate_xor(a[i], b[i], solver);
            let keep = self.gate_and(!diff, lt, solver);
            lt = self.gate_or(nb, keep, solver);
        }
        lt
    }

    fn cmp_eq<B: SatBackend>(&mut self, a: &[Lit], b: &[Lit], solver: &mut B) -> Lit {
        let mut acc = self.lit_true(solver);
        for i in 0..a.len() {
            let x = self.gate_xor(a[i], b[i], solver);
            acc = self.gate_and(acc, !x, solver);
        }
        acc
    }

    fn mux_word<B: SatBackend>(
        &mut self,
        s: Lit,
        a: &[Lit],
        b: &[Lit],
        solver: &mut B,
    ) -> Vec<Lit> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.gate_mux(s, x, y, solver))
            .collect()
    }

    /// Barrel shifter. `kind`: 0 = shl, 1 = lshr, 2 = ashr.
    fn barrel_shift<B: SatBackend>(
        &mut self,
        a: &[Lit],
        amount: &[Lit],
        kind: u8,
        solver: &mut B,
    ) -> Vec<Lit> {
        let w = a.len();
        let fill = match kind {
            2 => a[w - 1],
            _ => self.lit_false(solver),
        };
        // Number of stages: ceil(log2(w)); a 1-bit vector needs none.
        let stages = if w <= 1 {
            0
        } else {
            (usize::BITS - (w - 1).leading_zeros()) as usize
        };
        let mut cur: Vec<Lit> = a.to_vec();
        for (s, &sel) in amount.iter().enumerate().take(stages) {
            let dist = 1usize << s;
            let shifted: Vec<Lit> = (0..w)
                .map(|i| match kind {
                    0 => {
                        if i >= dist {
                            cur[i - dist]
                        } else {
                            fill
                        }
                    }
                    _ => {
                        if i + dist < w {
                            cur[i + dist]
                        } else {
                            fill
                        }
                    }
                })
                .collect();
            cur = self.mux_word(sel, &shifted, &cur, solver);
        }
        // Any set amount bit at position >= stages saturates the shift —
        // including the `dist >= w` case within the staged range.
        let mut overflow = self.lit_false(solver);
        for (s, &hb) in amount.iter().enumerate() {
            if s >= 63 || (1u64 << s) >= w as u64 {
                overflow = self.gate_or(overflow, hb, solver);
            }
        }
        let all_fill = vec![fill; w];
        self.mux_word(overflow, &all_fill, &cur, solver)
    }

    /// Shift-and-add multiplier truncated to the operand width.
    fn multiply<B: SatBackend>(&mut self, a: &[Lit], b: &[Lit], solver: &mut B) -> Vec<Lit> {
        let w = a.len();
        let f = self.lit_false(solver);
        let mut acc = vec![f; w];
        for i in 0..w {
            // addend = b_i ? (a << i) : 0, truncated to w bits
            let addend: Vec<Lit> = (0..w)
                .map(|j| {
                    if j >= i {
                        self.gate_and(a[j - i], b[i], solver)
                    } else {
                        f
                    }
                })
                .collect();
            acc = self.ripple_add(&acc, &addend, f, solver);
        }
        acc
    }

    /// Restoring division. Returns (quotient, remainder) with the
    /// SMT-LIB zero-divisor convention.
    fn divide<B: SatBackend>(
        &mut self,
        a: &[Lit],
        b: &[Lit],
        solver: &mut B,
    ) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.lit_false(solver);
        let t = self.lit_true(solver);
        let mut rem: Vec<Lit> = vec![f; w];
        let mut quo: Vec<Lit> = vec![f; w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a_i
            let mut shifted = Vec::with_capacity(w);
            shifted.push(a[i]);
            shifted.extend_from_slice(&rem[..w - 1]);
            rem = shifted;
            // if rem >= b: rem -= b, q_i = 1
            let lt = self.cmp_ult(&rem, b, solver);
            let ge = !lt;
            let nb = self.negate(b, solver);
            let diff = self.ripple_add(&rem, &nb, f, solver);
            rem = self.mux_word(ge, &diff, &rem, solver);
            quo[i] = ge;
        }
        // Zero divisor: quotient = all ones, remainder = dividend.
        let zero = vec![f; w];
        let dz = self.cmp_eq(b, &zero, solver);
        let ones = vec![t; w];
        let quo = self.mux_word(dz, &ones, &quo, solver);
        let rem = self.mux_word(dz, a, &rem, solver);
        (quo, rem)
    }

    fn encode_node<B: SatBackend>(
        &mut self,
        pool: &ExprPool,
        e: ExprRef,
        solver: &mut B,
    ) -> Vec<Lit> {
        match *pool.node(e) {
            Node::Const(v) => self.const_bits(v, solver),
            Node::Var(v) => self.var_lits(pool, v, solver),
            Node::Unary(op, a) => {
                let ab = self.cache[&a].clone();
                match op {
                    UnOp::Not => ab.iter().map(|&l| !l).collect(),
                    UnOp::Neg => self.negate(&ab, solver),
                    UnOp::RedOr => {
                        let mut acc = self.lit_false(solver);
                        for &l in &ab {
                            acc = self.gate_or(acc, l, solver);
                        }
                        vec![acc]
                    }
                    UnOp::RedAnd => {
                        let mut acc = self.lit_true(solver);
                        for &l in &ab {
                            acc = self.gate_and(acc, l, solver);
                        }
                        vec![acc]
                    }
                    UnOp::RedXor => {
                        let mut acc = self.lit_false(solver);
                        for &l in &ab {
                            acc = self.gate_xor(acc, l, solver);
                        }
                        vec![acc]
                    }
                }
            }
            Node::Binary(op, a, b) => {
                let ab = self.cache[&a].clone();
                let bb = self.cache[&b].clone();
                match op {
                    BinOp::And => ab
                        .iter()
                        .zip(&bb)
                        .map(|(&x, &y)| self.gate_and(x, y, solver))
                        .collect(),
                    BinOp::Or => ab
                        .iter()
                        .zip(&bb)
                        .map(|(&x, &y)| self.gate_or(x, y, solver))
                        .collect(),
                    BinOp::Xor => ab
                        .iter()
                        .zip(&bb)
                        .map(|(&x, &y)| self.gate_xor(x, y, solver))
                        .collect(),
                    BinOp::Add => {
                        let f = self.lit_false(solver);
                        self.ripple_add(&ab, &bb, f, solver)
                    }
                    BinOp::Sub => {
                        let inv: Vec<Lit> = bb.iter().map(|&l| !l).collect();
                        let t = self.lit_true(solver);
                        self.ripple_add(&ab, &inv, t, solver)
                    }
                    BinOp::Mul => self.multiply(&ab, &bb, solver),
                    BinOp::Udiv => self.divide(&ab, &bb, solver).0,
                    BinOp::Urem => self.divide(&ab, &bb, solver).1,
                    BinOp::Shl => self.barrel_shift(&ab, &bb, 0, solver),
                    BinOp::Lshr => self.barrel_shift(&ab, &bb, 1, solver),
                    BinOp::Ashr => self.barrel_shift(&ab, &bb, 2, solver),
                    BinOp::Eq => vec![self.cmp_eq(&ab, &bb, solver)],
                    BinOp::Ult => vec![self.cmp_ult(&ab, &bb, solver)],
                    BinOp::Ule => {
                        let gt = self.cmp_ult(&bb, &ab, solver);
                        vec![!gt]
                    }
                    BinOp::Slt => {
                        // Flip the sign bits and compare unsigned.
                        let mut af = ab.clone();
                        let mut bf = bb.clone();
                        let n = af.len();
                        af[n - 1] = !af[n - 1];
                        bf[n - 1] = !bf[n - 1];
                        vec![self.cmp_ult(&af, &bf, solver)]
                    }
                    BinOp::Sle => {
                        let mut af = ab.clone();
                        let mut bf = bb.clone();
                        let n = af.len();
                        af[n - 1] = !af[n - 1];
                        bf[n - 1] = !bf[n - 1];
                        let gt = self.cmp_ult(&bf, &af, solver);
                        vec![!gt]
                    }
                    BinOp::Concat => {
                        // a is the high part.
                        let mut bits = bb.clone();
                        bits.extend_from_slice(&ab);
                        bits
                    }
                }
            }
            Node::Ite { cond, then_, else_ } => {
                let c = self.cache[&cond][0];
                let tb = self.cache[&then_].clone();
                let eb = self.cache[&else_].clone();
                self.mux_word(c, &tb, &eb, solver)
            }
            Node::Extract { hi, lo, arg } => {
                let ab = &self.cache[&arg];
                ab[lo as usize..=hi as usize].to_vec()
            }
            Node::Extend { signed, width, arg } => {
                let ab = self.cache[&arg].clone();
                let fill = if signed {
                    *ab.last().expect("nonempty")
                } else {
                    self.lit_false(solver)
                };
                let mut bits = ab;
                bits.resize(width as usize, fill);
                bits
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqed_expr::VarKind;
    use aqed_sat::{SolveResult, Solver};

    /// Checks that a blasted binary operation agrees with `Bv` semantics
    /// for all pairs of `width`-bit inputs.
    fn exhaustive_binop(
        width: u32,
        build: impl Fn(&mut ExprPool, ExprRef, ExprRef) -> ExprRef,
        reference: impl Fn(Bv, Bv) -> Bv,
    ) {
        let mut p = ExprPool::new();
        let a = p.var("a", width, VarKind::Input);
        let b = p.var("b", width, VarKind::Input);
        let ae = p.var_expr(a);
        let be = p.var_expr(b);
        let out = build(&mut p, ae, be);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        let _ = bb.blast(&p, out, &mut solver);
        let abits = bb.var_lits(&p, a, &mut solver);
        let bbits = bb.var_lits(&p, b, &mut solver);
        for x in 0..(1u64 << width) {
            for y in 0..(1u64 << width) {
                let mut assumptions = Vec::new();
                for (i, &l) in abits.iter().enumerate() {
                    assumptions.push(if (x >> i) & 1 == 1 { l } else { !l });
                }
                for (i, &l) in bbits.iter().enumerate() {
                    assumptions.push(if (y >> i) & 1 == 1 { l } else { !l });
                }
                assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
                let got = bb.model_value(&p, out, &solver).expect("model");
                let want = reference(Bv::new(width, x), Bv::new(width, y));
                assert_eq!(got, want, "op({x}, {y}) at width {width}");
            }
        }
    }

    #[test]
    fn add_matches() {
        exhaustive_binop(3, |p, a, b| p.add(a, b), |x, y| x.add(y));
    }

    #[test]
    fn sub_matches() {
        exhaustive_binop(3, |p, a, b| p.sub(a, b), |x, y| x.sub(y));
    }

    #[test]
    fn mul_matches() {
        exhaustive_binop(3, |p, a, b| p.mul(a, b), |x, y| x.mul(y));
    }

    #[test]
    fn udiv_matches() {
        exhaustive_binop(3, |p, a, b| p.udiv(a, b), |x, y| x.udiv(y));
    }

    #[test]
    fn urem_matches() {
        exhaustive_binop(3, |p, a, b| p.urem(a, b), |x, y| x.urem(y));
    }

    #[test]
    fn bitwise_matches() {
        exhaustive_binop(3, |p, a, b| p.and(a, b), |x, y| x.and(y));
        exhaustive_binop(3, |p, a, b| p.or(a, b), |x, y| x.or(y));
        exhaustive_binop(3, |p, a, b| p.xor(a, b), |x, y| x.xor(y));
    }

    #[test]
    fn shifts_match() {
        exhaustive_binop(4, |p, a, b| p.shl(a, b), |x, y| x.shl(y));
        exhaustive_binop(4, |p, a, b| p.lshr(a, b), |x, y| x.lshr(y));
        exhaustive_binop(4, |p, a, b| p.ashr(a, b), |x, y| x.ashr(y));
        // Non-power-of-two width exercises the saturation logic.
        exhaustive_binop(5, |p, a, b| p.shl(a, b), |x, y| x.shl(y));
        exhaustive_binop(5, |p, a, b| p.ashr(a, b), |x, y| x.ashr(y));
    }

    #[test]
    fn comparisons_match() {
        exhaustive_binop(3, |p, a, b| p.eq(a, b), |x, y| Bv::from_bool(x == y));
        exhaustive_binop(3, |p, a, b| p.ult(a, b), |x, y| Bv::from_bool(x.ult(y)));
        exhaustive_binop(3, |p, a, b| p.ule(a, b), |x, y| Bv::from_bool(x.ule(y)));
        exhaustive_binop(3, |p, a, b| p.slt(a, b), |x, y| Bv::from_bool(x.slt(y)));
        exhaustive_binop(3, |p, a, b| p.sle(a, b), |x, y| Bv::from_bool(x.sle(y)));
    }

    #[test]
    fn concat_matches() {
        exhaustive_binop(3, |p, a, b| p.concat(a, b), |x, y| x.concat(y));
    }

    fn exhaustive_unop(
        width: u32,
        build: impl Fn(&mut ExprPool, ExprRef) -> ExprRef,
        reference: impl Fn(Bv) -> Bv,
    ) {
        let mut p = ExprPool::new();
        let a = p.var("a", width, VarKind::Input);
        let ae = p.var_expr(a);
        let out = build(&mut p, ae);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        let _ = bb.blast(&p, out, &mut solver);
        let abits = bb.var_lits(&p, a, &mut solver);
        for x in 0..(1u64 << width) {
            let assumptions: Vec<Lit> = abits
                .iter()
                .enumerate()
                .map(|(i, &l)| if (x >> i) & 1 == 1 { l } else { !l })
                .collect();
            assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
            let got = bb.model_value(&p, out, &solver).expect("model");
            assert_eq!(got, reference(Bv::new(width, x)), "op({x})");
        }
    }

    #[test]
    fn unary_matches() {
        exhaustive_unop(4, |p, a| p.not(a), |x| x.not());
        exhaustive_unop(4, |p, a| p.neg(a), |x| x.neg());
        exhaustive_unop(4, |p, a| p.redor(a), |x| x.redor());
        exhaustive_unop(4, |p, a| p.redand(a), |x| x.redand());
        exhaustive_unop(4, |p, a| p.redxor(a), |x| x.redxor());
    }

    #[test]
    fn extract_extend_match() {
        exhaustive_unop(5, |p, a| p.extract(a, 3, 1), |x| x.extract(3, 1));
        exhaustive_unop(4, |p, a| p.zext(a, 7), |x| x.zext(7));
        exhaustive_unop(4, |p, a| p.sext(a, 7), |x| x.sext(7));
    }

    #[test]
    fn ite_matches() {
        let mut p = ExprPool::new();
        let c = p.var("c", 1, VarKind::Input);
        let a = p.var("a", 3, VarKind::Input);
        let b = p.var("b", 3, VarKind::Input);
        let ce = p.var_expr(c);
        let ae = p.var_expr(a);
        let be = p.var_expr(b);
        let out = p.ite(ce, ae, be);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        let _ = bb.blast(&p, out, &mut solver);
        let cbit = bb.var_lits(&p, c, &mut solver)[0];
        let abits = bb.var_lits(&p, a, &mut solver);
        let bbits = bb.var_lits(&p, b, &mut solver);
        for cv in [false, true] {
            for x in 0..8u64 {
                for y in 0..8u64 {
                    let mut assumptions = vec![if cv { cbit } else { !cbit }];
                    for (i, &l) in abits.iter().enumerate() {
                        assumptions.push(if (x >> i) & 1 == 1 { l } else { !l });
                    }
                    for (i, &l) in bbits.iter().enumerate() {
                        assumptions.push(if (y >> i) & 1 == 1 { l } else { !l });
                    }
                    assert_eq!(solver.solve_with(&assumptions), SolveResult::Sat);
                    let got = bb.model_value(&p, out, &solver).expect("model");
                    assert_eq!(got.to_u64(), if cv { x } else { y });
                }
            }
        }
    }

    #[test]
    fn cache_shares_across_blasts() {
        let mut p = ExprPool::new();
        let a = p.var("a", 8, VarKind::Input);
        let ae = p.var_expr(a);
        let sq = p.mul(ae, ae);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        let _ = bb.blast(&p, sq, &mut solver);
        let clauses_first = solver.num_clauses();
        let one = p.lit(8, 1);
        let plus = p.add(sq, one);
        let _ = bb.blast(&p, plus, &mut solver);
        // Second blast reuses the multiplier: only the adder is new, which
        // is far smaller than the multiplier.
        let added = solver.num_clauses() - clauses_first;
        assert!(
            added < clauses_first / 2,
            "added {added} vs {clauses_first}"
        );
    }

    #[test]
    fn unsat_when_contradictory() {
        let mut p = ExprPool::new();
        let a = p.var("a", 8, VarKind::Input);
        let ae = p.var_expr(a);
        let c1 = p.lit(8, 3);
        let c2 = p.lit(8, 4);
        let e1 = p.eq(ae, c1);
        let e2 = p.eq(ae, c2);
        let both = p.and(e1, e2);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        bb.assert_true(&p, both, &mut solver);
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    #[test]
    fn wide_arithmetic_spot_checks() {
        // 32-bit: solve x * 3 == 9.
        let mut p = ExprPool::new();
        let x = p.var("x", 32, VarKind::Input);
        let xe = p.var_expr(x);
        let three = p.lit(32, 3);
        let nine = p.lit(32, 9);
        let prod = p.mul(xe, three);
        let eq = p.eq(prod, nine);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        bb.assert_true(&p, eq, &mut solver);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let xv = bb.model_var(&p, x, &solver).expect("model");
        assert_eq!(xv.to_u64().wrapping_mul(3) & 0xFFFF_FFFF, 9);
    }

    #[test]
    fn factorization_finds_witness() {
        // x * y == 143 with both factors > 1 forces {11, 13}.
        let mut p = ExprPool::new();
        let x = p.var("x", 8, VarKind::Input);
        let y = p.var("y", 8, VarKind::Input);
        let xe = p.var_expr(x);
        let ye = p.var_expr(y);
        let prod16 = {
            let xz = p.zext(xe, 16);
            let yz = p.zext(ye, 16);
            p.mul(xz, yz)
        };
        let c143 = p.lit(16, 143);
        let one = p.lit(8, 1);
        let eq = p.eq(prod16, c143);
        let xg = p.ugt(xe, one);
        let yg = p.ugt(ye, one);
        let all = p.and_all([eq, xg, yg]);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        bb.assert_true(&p, all, &mut solver);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let xv = bb.model_var(&p, x, &solver).expect("model").to_u64();
        let yv = bb.model_var(&p, y, &solver).expect("model").to_u64();
        assert_eq!(xv * yv, 143);
        assert!(xv > 1 && yv > 1);
    }

    #[test]
    fn interrupted_solve_leaves_encoding_reusable() {
        use aqed_sat::{ArmedBudget, Budget};
        // A budget-interrupted solve must not invalidate the shared
        // blaster/solver encoding: the solver returns at level 0, so the
        // same instance can be re-solved once the governor relents. This
        // is what lets the obligation scheduler retry with an escalated
        // budget without re-blasting.
        let mut p = ExprPool::new();
        let x = p.var("x", 16, VarKind::Input);
        let y = p.var("y", 16, VarKind::Input);
        let xe = p.var_expr(x);
        let ye = p.var_expr(y);
        let xz = p.zext(xe, 32);
        let yz = p.zext(ye, 32);
        let prod = p.mul(xz, yz);
        // 1009 * 1013: large enough that the solver cannot decide it
        // within a single conflict, small enough to decide unbudgeted.
        let semiprime = p.lit(32, 1009 * 1013);
        let one = p.lit(16, 1);
        let eq = p.eq(prod, semiprime);
        let xg = p.ugt(xe, one);
        let yg = p.ugt(ye, one);
        let all = p.and_all([eq, xg, yg]);
        let mut solver = Solver::new();
        let mut bb = BitBlaster::new();
        bb.assert_true(&p, all, &mut solver);
        let nodes_encoded = bb.cached_nodes();

        solver.set_budget(ArmedBudget::arm(&Budget::unlimited().with_max_conflicts(1)));
        assert_eq!(solver.solve(), SolveResult::Unknown);
        assert!(solver.stop_reason().is_some());

        // Lift the budget: same blaster, same solver, no re-encoding.
        solver.set_budget(ArmedBudget::unlimited());
        assert_eq!(solver.solve(), SolveResult::Sat);
        assert_eq!(bb.cached_nodes(), nodes_encoded);
        let xv = bb.model_var(&p, x, &solver).expect("model").to_u64();
        let yv = bb.model_var(&p, y, &solver).expect("model").to_u64();
        assert_eq!(xv * yv, 1009 * 1013);
        assert!(xv > 1 && yv > 1);
    }
}

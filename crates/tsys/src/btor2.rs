//! BTOR2 export: serializes a [`TransitionSystem`] into the BTOR2 word-
//! level model-checking format, so designs (and composed A-QED monitors)
//! can be cross-checked with external checkers such as BtorMC or
//! AVR/Pono.
//!
//! Only the operators the expression IR produces are emitted; the writer
//! is total over well-formed systems. A tiny structural reader is
//! provided for round-trip testing of the writer's output (it is not a
//! general BTOR2 front-end).

use crate::TransitionSystem;
use aqed_expr::{BinOp, ExprPool, ExprRef, Node, UnOp, VarId};
use std::fmt::{self, Write};

/// Serializes the system to BTOR2 text.
///
/// Every sort, input, state, init, next, constraint, bad and output node
/// is given a line id; the result is accepted by standard BTOR2 parsers.
///
/// # Panics
///
/// Panics if the system fails [`TransitionSystem::validate`].
#[must_use]
pub fn to_btor2(ts: &TransitionSystem, pool: &ExprPool) -> String {
    let mut out = String::new();
    write_btor2(ts, pool, &mut out).expect("writing to a String cannot fail");
    out
}

/// Writes the system's BTOR2 text, byte for byte what [`to_btor2`]
/// returns, into any [`fmt::Write`] sink. This is the one printer: a
/// sink that hashes what it is given (the artifact store's content
/// keys) gets the canonical text without it ever being built.
///
/// # Errors
///
/// Only the sink's own errors.
///
/// # Panics
///
/// Panics if the system fails [`TransitionSystem::validate`].
pub fn write_btor2<W: Write + ?Sized>(
    ts: &TransitionSystem,
    pool: &ExprPool,
    out: &mut W,
) -> fmt::Result {
    ts.validate(pool).expect("system must be well-formed");
    Printer {
        pool,
        out,
        next_id: 1,
        sorts: Vec::new(),
        vars: vec![0; pool.var_count()],
        nodes: vec![0; pool.len()],
        stack: Vec::new(),
    }
    .system(ts)
}

/// The printer's state. Line ids are handed out in print order starting
/// at 1, so 0 marks a memo slot whose line is not printed yet.
struct Printer<'a, W: ?Sized> {
    pool: &'a ExprPool,
    out: &'a mut W,
    next_id: u32,
    /// Sort line id, by bit width.
    sorts: Vec<u32>,
    /// Declaration line id, by variable index.
    vars: Vec<u32>,
    /// Line id, by expression index (a variable's node maps to its
    /// declaration).
    nodes: Vec<u32>,
    /// Post-order work stack, reused across roots.
    stack: Vec<ExprRef>,
}

impl<W: Write + ?Sized> Printer<'_, W> {
    fn system(&mut self, ts: &TransitionSystem) -> fmt::Result {
        writeln!(self.out, "; BTOR2 export of '{}'", ts.name())?;
        // Declare inputs and states.
        for &iv in ts.inputs() {
            self.declare(iv, "input")?;
        }
        for st in ts.states() {
            self.declare(st.var, "state")?;
        }
        // Inits and nexts.
        for st in ts.states() {
            let sid = self.sort(self.pool.var_width(st.var))?;
            let var = self.vars[st.var.index()];
            if let Some(init) = st.init {
                let en = self.expr(init)?;
                self.line(format_args!("init {sid} {var} {en}"))?;
            }
            let en = self.expr(st.next.expect("validated"))?;
            self.line(format_args!("next {sid} {var} {en}"))?;
        }
        for &c in ts.constraints() {
            let en = self.expr(c)?;
            self.line(format_args!("constraint {en}"))?;
        }
        for (name, b) in ts.bads() {
            let en = self.expr(*b)?;
            self.line(format_args!("bad {en} {}", Sanitized(name)))?;
        }
        for (name, o) in ts.outputs() {
            let en = self.expr(*o)?;
            self.line(format_args!("output {en} {}", Sanitized(name)))?;
        }
        Ok(())
    }

    fn declare(&mut self, v: VarId, kind: &str) -> fmt::Result {
        let pool = self.pool;
        let sid = self.sort(pool.var_width(v))?;
        let name = Sanitized(pool.var_name(v));
        self.vars[v.index()] = self.line(format_args!("{kind} {sid} {name}"))?;
        Ok(())
    }

    /// The sort line id for width `w`, printing the line on first use.
    fn sort(&mut self, w: u32) -> Result<u32, fmt::Error> {
        let slot = w as usize;
        if slot >= self.sorts.len() {
            self.sorts.resize(slot + 1, 0);
        }
        if self.sorts[slot] == 0 {
            self.sorts[slot] = self.line(format_args!("sort bitvec {w}"))?;
        }
        Ok(self.sorts[slot])
    }

    /// Prints every node of `root`'s DAG not printed yet, operands
    /// before their users, and returns `root`'s line id.
    ///
    /// Iterative post-order: a node whose operands are not all printed
    /// pushes them (first operand first, so the last is printed first)
    /// and is revisited once they are.
    fn expr(&mut self, root: ExprRef) -> Result<u32, fmt::Error> {
        let pool = self.pool;
        self.stack.push(root);
        while let Some(&cur) = self.stack.last() {
            if self.nodes[cur.index()] != 0 {
                self.stack.pop();
                continue;
            }
            let pending = self.stack.len();
            let node = pool.node(cur);
            match *node {
                Node::Const(_) | Node::Var(_) => {}
                Node::Unary(_, a) => self.need(a),
                Node::Binary(_, a, b) => {
                    self.need(a);
                    self.need(b);
                }
                Node::Ite { cond, then_, else_ } => {
                    self.need(cond);
                    self.need(then_);
                    self.need(else_);
                }
                Node::Extract { arg, .. } | Node::Extend { arg, .. } => self.need(arg),
            }
            if self.stack.len() > pending {
                continue;
            }
            let sid = self.sort(pool.width(cur))?;
            let id_of = |e: ExprRef| self.nodes[e.index()];
            let id = match *node {
                // Variables were declared up front; reuse that line.
                Node::Var(v) => self.vars[v.index()],
                Node::Const(v) => self.line(format_args!("constd {sid} {}", v.to_u64()))?,
                Node::Unary(op, a) => {
                    let name = match op {
                        UnOp::Not => "not",
                        UnOp::Neg => "neg",
                        UnOp::RedOr => "redor",
                        UnOp::RedAnd => "redand",
                        UnOp::RedXor => "redxor",
                    };
                    let an = id_of(a);
                    self.line(format_args!("{name} {sid} {an}"))?
                }
                Node::Binary(op, a, b) => {
                    let name = match op {
                        BinOp::And => "and",
                        BinOp::Or => "or",
                        BinOp::Xor => "xor",
                        BinOp::Add => "add",
                        BinOp::Sub => "sub",
                        BinOp::Mul => "mul",
                        BinOp::Udiv => "udiv",
                        BinOp::Urem => "urem",
                        BinOp::Shl => "sll",
                        BinOp::Lshr => "srl",
                        BinOp::Ashr => "sra",
                        BinOp::Eq => "eq",
                        BinOp::Ult => "ult",
                        BinOp::Ule => "ulte",
                        BinOp::Slt => "slt",
                        BinOp::Sle => "slte",
                        BinOp::Concat => "concat",
                    };
                    let (an, bn) = (id_of(a), id_of(b));
                    self.line(format_args!("{name} {sid} {an} {bn}"))?
                }
                Node::Ite { cond, then_, else_ } => {
                    let (cn, tn, en) = (id_of(cond), id_of(then_), id_of(else_));
                    self.line(format_args!("ite {sid} {cn} {tn} {en}"))?
                }
                Node::Extract { hi, lo, arg } => {
                    let an = id_of(arg);
                    self.line(format_args!("slice {sid} {an} {hi} {lo}"))?
                }
                Node::Extend { signed, width, arg } => {
                    let name = if signed { "sext" } else { "uext" };
                    let ext = width - pool.width(arg);
                    let an = id_of(arg);
                    self.line(format_args!("{name} {sid} {an} {ext}"))?
                }
            };
            self.nodes[cur.index()] = id;
            self.stack.pop();
        }
        Ok(self.nodes[root.index()])
    }

    /// Queues operand `e` unless it is printed already.
    fn need(&mut self, e: ExprRef) {
        if self.nodes[e.index()] == 0 {
            self.stack.push(e);
        }
    }

    /// Prints one line, a fresh id followed by `body`, and returns the
    /// id.
    fn line(&mut self, body: fmt::Arguments<'_>) -> Result<u32, fmt::Error> {
        let id = self.next_id;
        self.next_id += 1;
        writeln!(self.out, "{id} {body}")?;
        Ok(id)
    }
}

/// A symbol with every character that is neither alphanumeric nor `_`
/// replaced by `_`, so it stays a single BTOR2 token.
struct Sanitized<'a>(&'a str);

impl fmt::Display for Sanitized<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut run = 0;
        for (i, c) in self.0.char_indices() {
            if !(c.is_alphanumeric() || c == '_') {
                f.write_str(&self.0[run..i])?;
                f.write_char('_')?;
                run = i + c.len_utf8();
            }
        }
        f.write_str(&self.0[run..])
    }
}

/// Line-count statistics of a BTOR2 dump, used by tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Btor2Stats {
    /// `sort` lines.
    pub sorts: usize,
    /// `input` lines.
    pub inputs: usize,
    /// `state` lines.
    pub states: usize,
    /// `next` lines.
    pub nexts: usize,
    /// `init` lines.
    pub inits: usize,
    /// `bad` lines.
    pub bads: usize,
    /// `constraint` lines.
    pub constraints: usize,
    /// `output` lines.
    pub outputs: usize,
    /// All other (operator) lines.
    pub ops: usize,
}

/// Parses the structural statistics out of BTOR2 text (round-trip checks
/// for [`to_btor2`]; not a general parser).
#[must_use]
pub fn btor2_stats(text: &str) -> Btor2Stats {
    let mut s = Btor2Stats::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let mut tok = line.split_ascii_whitespace();
        let _id = tok.next();
        match tok.next() {
            Some("sort") => s.sorts += 1,
            Some("input") => s.inputs += 1,
            Some("state") => s.states += 1,
            Some("next") => s.nexts += 1,
            Some("init") => s.inits += 1,
            Some("bad") => s.bads += 1,
            Some("constraint") => s.constraints += 1,
            Some("output") => s.outputs += 1,
            Some(_) => s.ops += 1,
            None => {}
        }
    }
    s
}

/// Checks BTOR2 text for referential integrity: every operand id must
/// have been defined on an earlier line. Returns the number of
/// well-formed lines.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn btor2_check(text: &str) -> Result<usize, String> {
    let mut defined: Vec<usize> = Vec::new();
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let toks: Vec<&str> = line.split_ascii_whitespace().collect();
        let id: usize = toks[0]
            .parse()
            .map_err(|_| format!("line {}: bad id '{}'", lineno + 1, toks[0]))?;
        let kind = *toks
            .get(1)
            .ok_or_else(|| format!("line {}: missing kind", lineno + 1))?;
        // Operand positions depend on the kind; ids are always numeric
        // tokens after the sort reference (skip symbolic names/targets).
        let operand_start = match kind {
            "sort" | "input" | "state" => toks.len(), // no operand refs
            "constd" => toks.len(),                   // value literal, not a ref
            "bad" | "constraint" | "output" => 2,
            "init" | "next" => 2, // sort, state, expr — all refs
            "slice" => 3,         // sort, arg (hi/lo are literals)
            "uext" | "sext" => 3, // sort, arg (ext amount literal)
            _ => 2,               // sort + operand refs
        };
        let operand_end = match kind {
            "slice" => 4,
            "uext" | "sext" => 4,
            "bad" | "constraint" | "output" => 3,
            _ => toks.len(),
        };
        for t in toks
            .iter()
            .take(operand_end.min(toks.len()))
            .skip(operand_start.min(toks.len()))
        {
            if let Ok(op) = t.parse::<usize>() {
                if !defined.contains(&op) {
                    return Err(format!(
                        "line {}: operand {op} used before definition",
                        lineno + 1
                    ));
                }
            }
        }
        defined.push(id);
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransitionSystem;
    use aqed_expr::ExprPool;

    fn sample_system(pool: &mut ExprPool) -> TransitionSystem {
        let mut ts = TransitionSystem::new("sample");
        let en = ts.add_input(pool, "en", 1);
        let c = ts.add_register(pool, "count", 8, 0);
        let ce = pool.var_expr(c);
        let one = pool.lit(8, 1);
        let inc = pool.add(ce, one);
        let ene = pool.var_expr(en);
        let next = pool.ite(ene, inc, ce);
        ts.set_next(c, next);
        let lim = pool.lit(8, 200);
        let hit = pool.uge(ce, lim);
        ts.add_bad("count_reaches_200", hit);
        ts.add_output("count", ce);
        let nonzero = pool.redor(ce);
        ts.add_constraint({
            let t = pool.true_();
            let _ = nonzero;
            t
        });
        ts
    }

    #[test]
    fn exports_structurally_complete_btor2() {
        let mut p = ExprPool::new();
        let ts = sample_system(&mut p);
        let text = to_btor2(&ts, &p);
        let stats = btor2_stats(&text);
        assert_eq!(stats.inputs, 1);
        assert_eq!(stats.states, 1);
        assert_eq!(stats.nexts, 1);
        assert_eq!(stats.inits, 1);
        assert_eq!(stats.bads, 1);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.constraints, 1);
        assert!(stats.ops >= 3, "operator nodes present");
        assert!(text.contains("sort bitvec 8"));
        assert!(text.contains("count_reaches_200"));
    }

    #[test]
    fn export_has_referential_integrity() {
        let mut p = ExprPool::new();
        let ts = sample_system(&mut p);
        let text = to_btor2(&ts, &p);
        let lines = btor2_check(&text).expect("well-formed");
        assert!(lines > 8);
    }

    #[test]
    fn exports_every_operator_class() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("ops");
        let a = ts.add_input(&mut p, "a", 8);
        let b = ts.add_input(&mut p, "b", 8);
        let s = ts.add_register(&mut p, "s", 8, 5);
        let ae = p.var_expr(a);
        let be = p.var_expr(b);
        let se = p.var_expr(s);
        // A next function touching many operators.
        let sum = p.add(ae, be);
        let prod = p.mul(sum, se);
        let sh = p.lshr(prod, ae);
        let cmp = p.slt(sh, be);
        let ext = p.sext(cmp, 4);
        let sl = p.extract(ext, 2, 0);
        let z = p.zext(sl, 8);
        let x = p.xor(z, ae);
        let n = p.neg(x);
        ts.set_next(s, n);
        let red = p.redxor(se);
        ts.add_bad("parity", red);
        let text = to_btor2(&ts, &p);
        for op in [
            "add", "mul", "srl", "slt", "sext", "slice", "uext", "xor", "neg", "redxor",
        ] {
            assert!(text.contains(&format!(" {op} ")), "missing {op}\n{text}");
        }
        btor2_check(&text).expect("well-formed");
    }

    #[test]
    fn check_rejects_dangling_reference() {
        let bad = "1 sort bitvec 1\n2 and 1 1 99\n";
        assert!(btor2_check(bad).is_err());
        assert_eq!(btor2_check("5\n"), Err("line 1: missing kind".into()));
    }

    #[test]
    fn sanitizes_symbol_names() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("weird");
        let s = ts.add_register(&mut p, "mem[3]", 4, 0);
        let se = p.var_expr(s);
        ts.set_next(s, se);
        let z = p.lit(4, 0);
        let hit = p.eq(se, z);
        ts.add_bad("b", hit);
        let text = to_btor2(&ts, &p);
        assert!(text.contains("mem_3_"));
        assert!(!text.contains("mem[3]"));
    }
}

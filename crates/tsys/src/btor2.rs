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
use aqed_expr::{BinOp, ExprPool, ExprRef, Node, UnOp};
use std::collections::HashMap;
use std::fmt::Write as _;

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
    ts.validate(pool).expect("system must be well-formed");
    let mut out = String::new();
    let mut next_id = 1usize;
    let mut sorts: HashMap<u32, usize> = HashMap::new();
    let mut nodes: HashMap<ExprRef, usize> = HashMap::new();
    let mut vars: HashMap<aqed_expr::VarId, usize> = HashMap::new();

    let _ = writeln!(out, "; BTOR2 export of '{}'", ts.name());

    let mut sort_of = |w: u32, out: &mut String, next_id: &mut usize| -> usize {
        if let Some(&id) = sorts.get(&w) {
            return id;
        }
        let id = *next_id;
        *next_id += 1;
        let _ = writeln!(out, "{id} sort bitvec {w}");
        sorts.insert(w, id);
        id
    };

    // Declare inputs and states.
    for &iv in ts.inputs() {
        let s = sort_of(pool.var_width(iv), &mut out, &mut next_id);
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} input {s} {}", sanitize(pool.var_name(iv)));
        vars.insert(iv, id);
    }
    for st in ts.states() {
        let s = sort_of(pool.var_width(st.var), &mut out, &mut next_id);
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} state {s} {}", sanitize(pool.var_name(st.var)));
        vars.insert(st.var, id);
    }

    // Emit an expression DAG node, memoized.
    fn emit(
        e: ExprRef,
        pool: &ExprPool,
        out: &mut String,
        next_id: &mut usize,
        sorts: &mut HashMap<u32, usize>,
        nodes: &mut HashMap<ExprRef, usize>,
        vars: &HashMap<aqed_expr::VarId, usize>,
    ) -> usize {
        if let Some(&id) = nodes.get(&e) {
            return id;
        }
        // Iterative post-order.
        let mut stack = vec![e];
        while let Some(&cur) = stack.last() {
            if nodes.contains_key(&cur) {
                stack.pop();
                continue;
            }
            let mut pending = false;
            let need = |c: ExprRef, stack: &mut Vec<ExprRef>, pending: &mut bool| {
                if !nodes.contains_key(&c) {
                    stack.push(c);
                    *pending = true;
                }
            };
            match *pool.node(cur) {
                Node::Const(_) | Node::Var(_) => {}
                Node::Unary(_, a) => need(a, &mut stack, &mut pending),
                Node::Binary(_, a, b) => {
                    need(a, &mut stack, &mut pending);
                    need(b, &mut stack, &mut pending);
                }
                Node::Ite { cond, then_, else_ } => {
                    need(cond, &mut stack, &mut pending);
                    need(then_, &mut stack, &mut pending);
                    need(else_, &mut stack, &mut pending);
                }
                Node::Extract { arg, .. } | Node::Extend { arg, .. } => {
                    need(arg, &mut stack, &mut pending);
                }
            }
            if pending {
                continue;
            }
            let w = pool.width(cur);
            let sid = match sorts.get(&w) {
                Some(&s) => s,
                None => {
                    let id = *next_id;
                    *next_id += 1;
                    let _ = writeln!(out, "{id} sort bitvec {w}");
                    sorts.insert(w, id);
                    id
                }
            };
            let id = *next_id;
            *next_id += 1;
            match *pool.node(cur) {
                Node::Const(v) => {
                    let _ = writeln!(out, "{id} constd {sid} {}", v.to_u64());
                }
                Node::Var(v) => {
                    // Var lines were pre-declared; alias through a no-op
                    // is unnecessary: reuse the declared id and give the
                    // freshly allocated one back.
                    *next_id -= 1;
                    nodes.insert(cur, vars[&v]);
                    stack.pop();
                    continue;
                }
                Node::Unary(op, a) => {
                    let an = nodes[&a];
                    let name = match op {
                        UnOp::Not => "not",
                        UnOp::Neg => "neg",
                        UnOp::RedOr => "redor",
                        UnOp::RedAnd => "redand",
                        UnOp::RedXor => "redxor",
                    };
                    let _ = writeln!(out, "{id} {name} {sid} {an}");
                }
                Node::Binary(op, a, b) => {
                    let an = nodes[&a];
                    let bn = nodes[&b];
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
                    let _ = writeln!(out, "{id} {name} {sid} {an} {bn}");
                }
                Node::Ite { cond, then_, else_ } => {
                    let cn = nodes[&cond];
                    let tn = nodes[&then_];
                    let en = nodes[&else_];
                    let _ = writeln!(out, "{id} ite {sid} {cn} {tn} {en}");
                }
                Node::Extract { hi, lo, arg } => {
                    let an = nodes[&arg];
                    let _ = writeln!(out, "{id} slice {sid} {an} {hi} {lo}");
                }
                Node::Extend { signed, width, arg } => {
                    let an = nodes[&arg];
                    let ext = width - pool.width(arg);
                    let name = if signed { "sext" } else { "uext" };
                    let _ = writeln!(out, "{id} {name} {sid} {an} {ext}");
                }
            }
            nodes.insert(cur, id);
            stack.pop();
        }
        nodes[&e]
    }

    // Inits and nexts.
    for st in ts.states() {
        let w = pool.var_width(st.var);
        if let Some(init) = st.init {
            let en = emit(
                init,
                pool,
                &mut out,
                &mut next_id,
                &mut sorts,
                &mut nodes,
                &vars,
            );
            let sid = sorts[&w];
            let id = next_id;
            next_id += 1;
            let _ = writeln!(out, "{id} init {sid} {} {en}", vars[&st.var]);
        }
        let next = st.next.expect("validated");
        let en = emit(
            next,
            pool,
            &mut out,
            &mut next_id,
            &mut sorts,
            &mut nodes,
            &vars,
        );
        let sid = sorts[&w];
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} next {sid} {} {en}", vars[&st.var]);
    }
    for &c in ts.constraints() {
        let en = emit(
            c,
            pool,
            &mut out,
            &mut next_id,
            &mut sorts,
            &mut nodes,
            &vars,
        );
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} constraint {en}");
    }
    for (name, b) in ts.bads() {
        let en = emit(
            *b,
            pool,
            &mut out,
            &mut next_id,
            &mut sorts,
            &mut nodes,
            &vars,
        );
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} bad {en} {}", sanitize(name));
    }
    for (name, o) in ts.outputs() {
        let en = emit(
            *o,
            pool,
            &mut out,
            &mut next_id,
            &mut sorts,
            &mut nodes,
            &vars,
        );
        let id = next_id;
        next_id += 1;
        let _ = writeln!(out, "{id} output {en} {}", sanitize(name));
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
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

//! Property tests of the BMC engine against exhaustive concrete search:
//! on small random counter machines, BMC's verdict and witness depth must
//! equal the simulator's breadth-first ground truth.

use aqed_bitvec::Bv;
use aqed_bmc::{Bmc, BmcOptions, BmcResult};
use aqed_expr::ExprPool;
use aqed_sat::{Lit, SatBackend, SolveResult, Solver, SolverStats, Var};
use aqed_tsys::{Simulator, TransitionSystem};
use proptest::prelude::*;

/// The CDCL solver with a preprocessing pass forced before every solve
/// while preprocessing is on: the effort gate never opens on machines
/// this small, and the pipeline test must still eliminate and
/// reactivate variables across frames.
#[derive(Default)]
struct EagerPass {
    inner: Solver,
    preprocess: bool,
}

impl SatBackend for EagerPass {
    fn name(&self) -> &'static str {
        "eager-pass"
    }
    fn new_var(&mut self) -> Var {
        self.inner.new_var()
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.inner.add_clause(lits.iter().copied())
    }
    fn solve_under(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.preprocess {
            self.inner.simplify();
        }
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
    fn set_preprocessing(&mut self, enabled: bool) {
        self.preprocess = enabled;
        self.inner.set_preprocessing(enabled);
    }
    fn freeze_var(&mut self, v: Var) {
        self.inner.freeze_var(v);
    }
}

/// Builds a 4-bit machine: s' = s + (en ? step : 0) ^ (inv ? mask : 0),
/// bad when s == target.
fn machine(
    pool: &mut ExprPool,
    step: u64,
    mask: u64,
    target: u64,
) -> (TransitionSystem, aqed_expr::VarId, aqed_expr::VarId) {
    let mut ts = TransitionSystem::new("m");
    let en = ts.add_input(pool, "en", 1);
    let inv = ts.add_input(pool, "inv", 1);
    let s = ts.add_register(pool, "s", 4, 0);
    let se = pool.var_expr(s);
    let ene = pool.var_expr(en);
    let inve = pool.var_expr(inv);
    let stepl = pool.lit(4, step);
    let zero = pool.lit(4, 0);
    let add = pool.ite(ene, stepl, zero);
    let summed = pool.add(se, add);
    let maskl = pool.lit(4, mask);
    let xored = pool.xor(summed, maskl);
    let next = pool.ite(inve, xored, summed);
    ts.set_next(s, next);
    let tl = pool.lit(4, target);
    let hit = pool.eq(se, tl);
    ts.add_bad("hit", hit);
    (ts, en, inv)
}

/// Ground truth: BFS over the 16-state × 4-input machine.
fn bfs_depth(step: u64, mask: u64, target: u64, max_depth: usize) -> Option<usize> {
    let mut reachable = vec![false; 16];
    reachable[0] = true;
    for depth in 0..=max_depth {
        if reachable[target as usize] {
            return Some(depth);
        }
        let mut next = vec![false; 16];
        for (s, &r) in reachable.iter().enumerate() {
            if !r {
                continue;
            }
            for en in [0u64, 1] {
                for inv in [0u64, 1] {
                    let mut v = (s as u64 + en * step) & 0xF;
                    if inv == 1 {
                        v ^= mask;
                    }
                    next[v as usize] = true;
                }
            }
        }
        reachable = next;
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bmc_matches_bfs(step in 0u64..16, mask in 0u64..16, target in 0u64..16) {
        const MAX: usize = 8;
        let truth = bfs_depth(step, mask, target, MAX);
        let mut pool = ExprPool::new();
        let (ts, _, _) = machine(&mut pool, step, mask, target);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(MAX));
        match bmc.check(&ts, &mut pool) {
            BmcResult::Counterexample(cex) => {
                prop_assert_eq!(Some(cex.depth), truth, "witness depth must be minimal");
                prop_assert!(cex.replay(&ts, &pool), "witness must replay");
            }
            BmcResult::NoCounterexample { bound } => {
                prop_assert_eq!(bound, MAX);
                prop_assert_eq!(truth, None, "BMC clean but BFS reaches target");
            }
            BmcResult::Unknown { .. } => prop_assert!(false, "no budget set"),
        }
    }

    /// The simplification pipeline (COI slicing + CNF preprocessing) must
    /// never change a BMC verdict. The machine carries a decoy register
    /// and decoy input outside the bad's cone so COI has something real
    /// to drop, and any counterexample must still replay on the
    /// *original* (unsliced) system.
    #[test]
    fn pipeline_never_changes_verdict(
        step in 0u64..16,
        mask in 0u64..16,
        target in 0u64..16,
        decoy_step in 1u64..16,
    ) {
        const MAX: usize = 8;
        let mut pool = ExprPool::new();
        let (mut ts, _, _) = machine(&mut pool, step, mask, target);
        // Decoy state: d' = d + (dEn ? decoy_step : 0), referenced by no bad.
        let den = ts.add_input(&mut pool, "dEn", 1);
        let d = ts.add_register(&mut pool, "d", 4, 0);
        let de = pool.var_expr(d);
        let dene = pool.var_expr(den);
        let stepl = pool.lit(4, decoy_step);
        let zero = pool.lit(4, 0);
        let add = pool.ite(dene, stepl, zero);
        let dnext = pool.add(de, add);
        ts.set_next(d, dnext);

        let run = |ts: &TransitionSystem, pool: &mut ExprPool, coi: bool, pre: bool| {
            let opts = BmcOptions::default()
                .with_max_bound(MAX)
                .with_coi(coi)
                .with_preprocess(pre);
            let mut bmc = Bmc::<EagerPass>::with_backend(ts, opts);
            let result = bmc.check(ts, pool);
            (result, bmc.stats().solver.preprocess_runs)
        };
        let (on, on_passes) = run(&ts, &mut pool, true, true);
        let (off, off_passes) = run(&ts, &mut pool, false, false);
        prop_assert!(on_passes > 0, "the pipeline run must take passes");
        prop_assert_eq!(off_passes, 0);
        match (&on, &off) {
            (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                prop_assert_eq!(a.depth, b.depth, "witness depth must match");
                prop_assert!(a.replay(&ts, &pool), "pipeline witness must replay on the original system");
            }
            (BmcResult::NoCounterexample { bound: a }, BmcResult::NoCounterexample { bound: b }) => {
                prop_assert_eq!(a, b);
            }
            other => prop_assert!(false, "verdicts diverge: {:?}", other),
        }
    }

    #[test]
    fn cex_replay_follows_trace(step in 1u64..16, target in 1u64..16) {
        let mut pool = ExprPool::new();
        let (ts, _, _) = machine(&mut pool, step, 0, target);
        let mut bmc = Bmc::new(&ts, BmcOptions::default().with_max_bound(10));
        if let BmcResult::Counterexample(cex) = bmc.check(&ts, &mut pool) {
            // Manually replay and confirm the final state is the target.
            let mut sim = Simulator::with_state(&ts, &pool, &cex.initial_state);
            let s = ts.states()[0].var;
            for k in 0..cex.depth {
                let inputs: Vec<_> = cex.trace.frame(k).to_vec();
                sim.step_with(&ts, &pool, &inputs);
            }
            prop_assert_eq!(sim.state(s), Bv::new(4, target));
        }
    }
}

//! Randomized cross-validation of the CDCL solver against brute force on
//! small formulas, plus model checking on satisfiable instances.

use aqed_sat::{
    ArmedBudget, Budget, PhaseMode, PortfolioBackend, RestartStrategy, SatBackend, SolveResult,
    Solver, SolverConfig, StopReason, Var,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Brute-force satisfiability over `n <= 16` variables.
fn brute_force_sat(n: usize, clauses: &[Vec<i32>]) -> bool {
    'outer: for m in 0u32..(1 << n) {
        for c in clauses {
            let sat = c.iter().any(|&l| {
                let v = (l.unsigned_abs() - 1) as usize;
                let val = (m >> v) & 1 == 1;
                if l > 0 {
                    val
                } else {
                    !val
                }
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn run_solver(n: usize, clauses: &[Vec<i32>]) -> (SolveResult, Vec<bool>, Vec<Var>) {
    let mut s = Solver::new();
    let vars = s.new_vars(n);
    for c in clauses {
        s.add_clause(
            c.iter()
                .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0)),
        );
    }
    let r = s.solve();
    let model = vars
        .iter()
        .map(|&v| s.model_value(v).unwrap_or(false))
        .collect();
    (r, model, vars)
}

fn model_satisfies(clauses: &[Vec<i32>], model: &[bool]) -> bool {
    clauses.iter().all(|c| {
        c.iter().any(|&l| {
            let val = model[(l.unsigned_abs() - 1) as usize];
            if l > 0 {
                val
            } else {
                !val
            }
        })
    })
}

fn clause_strategy(n: usize) -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec((1..=n as i32, any::<bool>()), 1..=4).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, s)| if s { v } else { -v })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn agrees_with_brute_force(
        n in 2usize..10,
        clauses in prop::collection::vec(clause_strategy(9), 1..30),
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let expect = brute_force_sat(n, &clauses);
        let (got, model, _) = run_solver(n, &clauses);
        prop_assert_eq!(got, if expect { SolveResult::Sat } else { SolveResult::Unsat });
        if got == SolveResult::Sat {
            prop_assert!(model_satisfies(&clauses, &model), "model must satisfy all clauses");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Incremental solving across clause-arena compactions: clauses are
    /// added in batches, each batch is solved under random assumptions,
    /// and a forced garbage collection runs between batches so every
    /// later solve works on relocated clause references. Each answer is
    /// cross-checked against brute force on the clauses added so far
    /// plus the assumptions as units.
    #[test]
    fn incremental_sequence_with_gc_agrees_with_brute_force(
        n in 4usize..10,
        batches in prop::collection::vec(
            prop::collection::vec(clause_strategy(9), 1..8),
            2..5,
        ),
        assumption_seed in any::<u64>(),
    ) {
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        let mut rng = StdRng::seed_from_u64(assumption_seed);
        let mut so_far: Vec<Vec<i32>> = Vec::new();
        for batch in batches {
            for c in batch {
                let c: Vec<i32> = c
                    .into_iter()
                    .filter(|l| l.unsigned_abs() as usize <= n)
                    .collect();
                if c.is_empty() {
                    continue;
                }
                s.add_clause(
                    c.iter().map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0)),
                );
                so_far.push(c);
            }
            let assumed: Vec<i32> = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    let v = rng.gen_range(1..=n as i32);
                    if rng.gen() { v } else { -v }
                })
                .collect();
            let lits: Vec<_> = assumed
                .iter()
                .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
                .collect();
            let got = s.solve_with(&lits);
            let mut check = so_far.clone();
            check.extend(assumed.iter().map(|&l| vec![l]));
            let expect = brute_force_sat(n, &check);
            prop_assert_eq!(
                got,
                if expect { SolveResult::Sat } else { SolveResult::Unsat }
            );
            // Compact the arena so the next batch's solves run on
            // relocated clause references.
            s.reclaim_memory();
        }
        prop_assert!(s.stats().gc_runs >= 2, "sequence must exercise GC");
    }
}

/// Feeds `clauses` through the [`SatBackend`] trait — the same path the
/// bit-blaster and model checkers use — and solves under `assumptions`.
/// Returns the verdict and the model restricted to the problem variables.
fn run_backend<B: SatBackend + Default>(
    n: usize,
    clauses: &[Vec<i32>],
    assumptions: &[i32],
) -> (SolveResult, Vec<bool>) {
    let mut backend = B::default();
    let vars: Vec<Var> = (0..n).map(|_| backend.new_var()).collect();
    for c in clauses {
        let lits: Vec<_> = c
            .iter()
            .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
            .collect();
        backend.add_clause(&lits);
    }
    let assumed: Vec<_> = assumptions
        .iter()
        .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
        .collect();
    let r = backend.solve_under(&assumed);
    let model = vars
        .iter()
        .map(|&v| backend.value(v.pos()).unwrap_or(false))
        .collect();
    (r, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The CDCL solver driven through the [`SatBackend`] trait agrees
    /// with brute force on the formula and assumptions, with a model that
    /// satisfies the clauses when SAT. The portfolio backend is held to
    /// the same standard by `portfolio_any_width_matches_cdcl_verdicts`.
    #[test]
    fn cdcl_backend_under_assumptions_agrees_with_brute_force(
        n in 2usize..10,
        clauses in prop::collection::vec(clause_strategy(9), 1..30),
        raw_assumptions in prop::collection::vec((1..=9i32, any::<bool>()), 0..3),
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let assumptions: Vec<i32> = raw_assumptions
            .into_iter()
            .filter(|&(v, _)| v as usize <= n)
            .map(|(v, s)| if s { v } else { -v })
            .collect();

        let (cdcl, cdcl_model) = run_backend::<Solver>(n, &clauses, &assumptions);

        let mut check = clauses.clone();
        check.extend(assumptions.iter().map(|&l| vec![l]));
        let expect = brute_force_sat(n, &check);
        prop_assert_eq!(cdcl, if expect { SolveResult::Sat } else { SolveResult::Unsat });
        if cdcl == SolveResult::Sat {
            prop_assert!(model_satisfies(&check, &cdcl_model), "cdcl model must satisfy");
        }
    }
}

/// Builds a solver holding `clauses`, optionally governed by `armed`.
fn budgeted_solver(
    n: usize,
    clauses: &[Vec<i32>],
    armed: Option<ArmedBudget>,
) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars = s.new_vars(n);
    for c in clauses {
        s.add_clause(
            c.iter()
                .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0)),
        );
    }
    if let Some(a) = armed {
        s.set_budget(a);
    }
    (s, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// A budget generous enough to never trigger must not change any
    /// verdict: governance may only *withhold* an answer (Unknown), never
    /// fabricate or flip one.
    #[test]
    fn generous_budget_never_flips_verdict(
        n in 2usize..10,
        clauses in prop::collection::vec(clause_strategy(9), 1..30),
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let unbudgeted = budgeted_solver(n, &clauses, None).0.solve();
        let budget = Budget::unlimited()
            .with_timeout(Duration::from_secs(600))
            .with_max_conflicts(1_000_000)
            .with_max_propagations(1_000_000_000);
        let (mut governed, _) = budgeted_solver(n, &clauses, Some(ArmedBudget::arm(&budget)));
        let got = governed.solve();
        prop_assert_eq!(got, unbudgeted);
        prop_assert_eq!(governed.stop_reason(), None);
    }

    /// A starved budget is *sound*: the solver either still decides the
    /// formula (and must agree with the unbudgeted verdict) or returns
    /// Unknown with the stop reason recorded — it never reports a wrong
    /// Sat/Unsat.
    #[test]
    fn starved_budget_is_sound(
        n in 2usize..10,
        clauses in prop::collection::vec(clause_strategy(9), 1..30),
        cap in 0u64..4,
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let unbudgeted = budgeted_solver(n, &clauses, None).0.solve();
        let budget = Budget::unlimited().with_max_conflicts(cap);
        let (mut governed, vars) = budgeted_solver(n, &clauses, Some(ArmedBudget::arm(&budget)));
        match governed.solve() {
            SolveResult::Unknown => {
                prop_assert!(governed.stop_reason().is_some());
            }
            decided => {
                prop_assert_eq!(decided, unbudgeted);
                if decided == SolveResult::Sat {
                    // The model must still be real despite the governor.
                    let model: Vec<bool> = vars
                        .iter()
                        .map(|&v| governed.model_value(v).unwrap_or(false))
                        .collect();
                    prop_assert!(model_satisfies(&clauses, &model));
                }
            }
        }
    }

    /// A budget cancelled before the solve starts always yields Unknown
    /// with the Cancelled reason, regardless of the formula.
    #[test]
    fn pre_cancelled_budget_yields_unknown(
        n in 2usize..8,
        clauses in prop::collection::vec(clause_strategy(7), 1..20),
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let armed = ArmedBudget::arm(&Budget::unlimited());
        armed.cancel();
        let (mut governed, _) = budgeted_solver(n, &clauses, Some(armed));
        prop_assert_eq!(governed.solve(), SolveResult::Unknown);
        prop_assert_eq!(governed.stop_reason(), Some(StopReason::Cancelled));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// SatELite-style preprocessing (subsumption + bounded variable
    /// elimination) must preserve satisfiability, and the model handed
    /// back after elimination-record reconstruction must satisfy the
    /// *original* clauses — including ones whose variables were
    /// eliminated and never reached the search.
    #[test]
    fn preprocessing_preserves_satisfiability_and_models(
        n in 2usize..10,
        clauses in prop::collection::vec(clause_strategy(9), 1..30),
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let expect = brute_force_sat(n, &clauses);

        let mut s = Solver::new();
        s.set_preprocessing(true);
        let vars = s.new_vars(n);
        for c in &clauses {
            s.add_clause(
                c.iter().map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0)),
            );
        }
        // The effort gate never opens on formulas this small: run the
        // pass explicitly.
        let ok = s.simplify();
        prop_assert!(ok || !expect, "a pass refuted a satisfiable formula");
        prop_assert!(!ok || s.stats().preprocess_runs == 1, "simplify ran no pass");
        let got = s.solve();
        prop_assert_eq!(got, if expect { SolveResult::Sat } else { SolveResult::Unsat });
        if got == SolveResult::Sat {
            let model: Vec<bool> = vars
                .iter()
                .map(|&v| s.model_value(v).unwrap_or(false))
                .collect();
            prop_assert!(
                model_satisfies(&clauses, &model),
                "reconstructed model must satisfy the original clauses"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Incremental use with preprocessing on: clauses arrive in batches
    /// and each batch is solved under random assumptions. Later batches
    /// may mention variables a previous preprocessing pass eliminated,
    /// forcing the reactivation cascade; every verdict is cross-checked
    /// against brute force and every Sat model against all clauses so far.
    #[test]
    fn preprocessing_incremental_batches_agree_with_brute_force(
        n in 4usize..10,
        batches in prop::collection::vec(
            prop::collection::vec(clause_strategy(9), 1..8),
            2..5,
        ),
        assumption_seed in any::<u64>(),
    ) {
        let mut s = Solver::new();
        s.set_preprocessing(true);
        let vars = s.new_vars(n);
        let mut rng = StdRng::seed_from_u64(assumption_seed);
        let mut so_far: Vec<Vec<i32>> = Vec::new();
        for batch in batches {
            for c in batch {
                let c: Vec<i32> = c
                    .into_iter()
                    .filter(|l| l.unsigned_abs() as usize <= n)
                    .collect();
                if c.is_empty() {
                    continue;
                }
                s.add_clause(
                    c.iter().map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0)),
                );
                so_far.push(c);
            }
            // One pass per batch, so the next batch and these assumptions
            // meet eliminated variables.
            let runs = s.stats().preprocess_runs;
            if s.simplify() {
                prop_assert_eq!(s.stats().preprocess_runs, runs + 1);
            }
            let assumed: Vec<i32> = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    let v = rng.gen_range(1..=n as i32);
                    if rng.gen() { v } else { -v }
                })
                .collect();
            let lits: Vec<_> = assumed
                .iter()
                .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
                .collect();
            let got = s.solve_with(&lits);
            let mut check = so_far.clone();
            check.extend(assumed.iter().map(|&l| vec![l]));
            let expect = brute_force_sat(n, &check);
            prop_assert_eq!(
                got,
                if expect { SolveResult::Sat } else { SolveResult::Unsat }
            );
            if got == SolveResult::Sat {
                let model: Vec<bool> = vars
                    .iter()
                    .map(|&v| s.model_value(v).unwrap_or(false))
                    .collect();
                prop_assert!(
                    model_satisfies(&check, &model),
                    "model must satisfy all clauses and assumptions so far"
                );
            }
        }
    }
}

/// Arbitrary solver configurations, covering the whole diversification
/// space the portfolio draws from (and then some): restart strategy,
/// decay, phase policy, randomization frequencies, RNG seed.
fn config_strategy() -> impl Strategy<Value = SolverConfig> {
    (
        prop_oneof![
            (15u64..40, 1u64..64).prop_map(|(b, u)| RestartStrategy::Luby {
                base: b as f64 / 10.0,
                unit: u * 16,
            }),
            (105u64..150, 1u64..200).prop_map(|(m, c)| RestartStrategy::Glucose {
                margin: m as f64 / 100.0,
                min_conflicts: c,
            }),
            Just(RestartStrategy::Never),
        ],
        500u64..999,
        prop_oneof![
            Just(PhaseMode::Saved),
            Just(PhaseMode::AlwaysFalse),
            Just(PhaseMode::AlwaysTrue),
        ],
        0u64..300,
        0u64..300,
        any::<u64>(),
    )
        .prop_map(
            |(restart, decay, phase, rand_pol, rand_var, seed)| SolverConfig {
                restart,
                var_decay: decay as f64 / 1000.0,
                phase,
                random_polarity_freq: rand_pol as f64 / 1000.0,
                random_var_freq: rand_var as f64 / 1000.0,
                seed,
            },
        )
}

/// Runs `clauses` through a [`PortfolioBackend`] of the given width.
fn run_portfolio(
    workers: usize,
    n: usize,
    clauses: &[Vec<i32>],
    assumptions: &[i32],
) -> (SolveResult, Vec<bool>) {
    let mut backend = PortfolioBackend::new(workers);
    let vars: Vec<Var> = (0..n).map(|_| backend.new_var()).collect();
    for c in clauses {
        let lits: Vec<_> = c
            .iter()
            .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
            .collect();
        backend.add_clause(&lits);
    }
    let assumed: Vec<_> = assumptions
        .iter()
        .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0))
        .collect();
    let r = backend.solve_under(&assumed);
    let model = vars
        .iter()
        .map(|&v| backend.value(v.pos()).unwrap_or(false))
        .collect();
    (r, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Every point in the configuration space is a *complete* solver:
    /// whatever the restart strategy, phase policy, decay, or
    /// randomization, the verdict must equal brute force and Sat models
    /// must check out. This is what makes portfolio diversification
    /// sound — workers differ only in search order, never in semantics.
    #[test]
    fn any_solver_config_agrees_with_brute_force(
        n in 2usize..9,
        clauses in prop::collection::vec(clause_strategy(8), 1..25),
        config in config_strategy(),
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let expect = brute_force_sat(n, &clauses);
        let mut s = Solver::with_config(config);
        let vars = s.new_vars(n);
        for c in &clauses {
            s.add_clause(
                c.iter().map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0)),
            );
        }
        let got = s.solve();
        prop_assert_eq!(got, if expect { SolveResult::Sat } else { SolveResult::Unsat });
        if got == SolveResult::Sat {
            let model: Vec<bool> = vars
                .iter()
                .map(|&v| s.model_value(v).unwrap_or(false))
                .collect();
            prop_assert!(model_satisfies(&clauses, &model));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `portfolio(N) ≡ cdcl` on verdicts, for any width; Sat models from
    /// the winning worker must satisfy the formula plus assumptions.
    #[test]
    fn portfolio_any_width_matches_cdcl_verdicts(
        n in 2usize..9,
        clauses in prop::collection::vec(clause_strategy(8), 1..25),
        raw_assumptions in prop::collection::vec((1..=8i32, any::<bool>()), 0..3),
        workers in 1usize..5,
    ) {
        let clauses: Vec<Vec<i32>> = clauses
            .into_iter()
            .map(|c| c.into_iter().filter(|l| l.unsigned_abs() as usize <= n).collect::<Vec<_>>())
            .filter(|c: &Vec<i32>| !c.is_empty())
            .collect();
        let assumptions: Vec<i32> = raw_assumptions
            .into_iter()
            .filter(|&(v, _)| v as usize <= n)
            .map(|(v, s)| if s { v } else { -v })
            .collect();
        let (cdcl, _) = run_backend::<Solver>(n, &clauses, &assumptions);
        let (port, model) = run_portfolio(workers, n, &clauses, &assumptions);
        prop_assert_eq!(cdcl, port, "workers={}", workers);
        if port == SolveResult::Sat {
            let mut check = clauses.clone();
            check.extend(assumptions.iter().map(|&l| vec![l]));
            prop_assert!(model_satisfies(&check, &model), "portfolio model must satisfy");
        }
    }
}

#[test]
fn random_3sat_near_threshold() {
    // 60 variables at clause ratio ~4.2: exercises restarts/learning; the
    // model (when SAT) must check out.
    let mut rng = StdRng::seed_from_u64(0xA9ED);
    for round in 0..20 {
        let n = 60;
        let m = 252;
        let mut clauses = Vec::with_capacity(m);
        for _ in 0..m {
            let mut c = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = rng.gen_range(1..=n as i32);
                if !c.contains(&v) && !c.contains(&-v) {
                    c.push(if rng.gen() { v } else { -v });
                }
            }
            clauses.push(c);
        }
        let (r, model, _) = run_solver(n, &clauses);
        match r {
            SolveResult::Sat => assert!(model_satisfies(&clauses, &model), "round {round}"),
            SolveResult::Unsat => {}
            SolveResult::Unknown => panic!("no budget set"),
        }
    }
}

#[test]
fn incremental_assumption_sweep_matches_oneshot() {
    // Solve the same formula under each single-literal assumption both
    // incrementally (one solver) and from scratch; answers must match.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 12;
    let m = 40;
    let mut clauses = Vec::new();
    for _ in 0..m {
        let mut c = Vec::new();
        while c.len() < 3 {
            let v = rng.gen_range(1..=n as i32);
            if !c.contains(&v) && !c.contains(&-v) {
                c.push(if rng.gen() { v } else { -v });
            }
        }
        clauses.push(c);
    }
    let mut inc = Solver::new();
    let vars = inc.new_vars(n);
    for c in &clauses {
        inc.add_clause(
            c.iter()
                .map(|&l| vars[(l.unsigned_abs() - 1) as usize].lit(l > 0)),
        );
    }
    for (i, v) in vars.iter().enumerate() {
        for polarity in [true, false] {
            let inc_result = inc.solve_with(&[v.lit(polarity)]);
            // From scratch with the assumption as a unit clause.
            let mut fresh_clauses = clauses.clone();
            fresh_clauses.push(vec![if polarity {
                (i + 1) as i32
            } else {
                -((i + 1) as i32)
            }]);
            let (fresh_result, _, _) = run_solver(n, &fresh_clauses);
            assert_eq!(inc_result, fresh_result, "var {i} polarity {polarity}");
        }
    }
}

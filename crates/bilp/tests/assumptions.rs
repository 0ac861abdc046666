//! Assumption-based solving property tests.
//!
//! The contract under test: `solve_under_assumptions(m, A)` must reach
//! exactly the verdict (and, for the optimising [`Solver`] entry point,
//! the objective) of solving `m` with every literal of `A` added as a
//! unit constraint — and when the verdict is `Infeasible` because of the
//! assumptions, the reported unsat core must be a subset of `A` whose
//! units alone already make `m` infeasible.
//!
//! Random models reuse the envelope of `proptest_vs_brute.rs`; every
//! failure reproduces from its case index and seed.

use bilp::{
    normalize, Budget, Cmp, Engine, IncrementalSolver, LinExpr, Lit, Model, Outcome, SatResult,
    Solver, SolverConfig, Var,
};
use cgra_rng::Rng;

#[derive(Debug, Clone)]
struct RawConstraint {
    terms: Vec<(i64, usize)>,
    cmp: Cmp,
    rhs: i64,
}

#[derive(Debug, Clone)]
struct RawModel {
    n_vars: usize,
    constraints: Vec<RawConstraint>,
    objective: Option<Vec<(i64, usize)>>,
}

fn random_model(rng: &mut Rng) -> RawModel {
    let n_vars = rng.gen_range_inclusive(2..=9);
    let n_constraints = rng.gen_range_inclusive(1..=10);
    let constraints = (0..n_constraints)
        .map(|_| {
            let n_terms = rng.gen_range_inclusive(1..=5);
            RawConstraint {
                terms: (0..n_terms)
                    .map(|_| (rng.gen_i64_inclusive(-4..=4), rng.gen_range(0..n_vars)))
                    .collect(),
                cmp: match rng.below(3) {
                    0 => Cmp::Le,
                    1 => Cmp::Ge,
                    _ => Cmp::Eq,
                },
                rhs: rng.gen_i64_inclusive(-6..=8),
            }
        })
        .collect();
    let objective = if rng.gen_bool(0.5) {
        let n_terms = rng.gen_range_inclusive(1..=n_vars);
        Some(
            (0..n_terms)
                .map(|_| (rng.gen_i64_inclusive(-5..=5), rng.gen_range(0..n_vars)))
                .collect(),
        )
    } else {
        None
    };
    RawModel {
        n_vars,
        constraints,
        objective,
    }
}

fn build(raw: &RawModel) -> (Model, Vec<Var>) {
    let mut m = Model::new();
    let vars = m.new_vars(raw.n_vars);
    for c in &raw.constraints {
        let mut e = LinExpr::new();
        for &(coeff, vi) in &c.terms {
            e.add_term(coeff, vars[vi]);
        }
        m.add(e, c.cmp, c.rhs);
    }
    if let Some(obj) = &raw.objective {
        let mut e = LinExpr::new();
        for &(coeff, vi) in obj {
            e.add_term(coeff, vars[vi]);
        }
        m.minimize(e);
    }
    (m, vars)
}

/// A random assumption set: 1–4 literals over the model's variables,
/// with repeated variables (and thus occasional direct contradictions)
/// allowed on purpose.
fn random_assumptions(rng: &mut Rng, vars: &[Var]) -> Vec<Lit> {
    let n = rng.gen_range_inclusive(1..=4);
    (0..n)
        .map(|_| {
            let v = vars[rng.gen_range(0..vars.len())];
            if rng.gen_bool(0.5) {
                v.lit()
            } else {
                !v.lit()
            }
        })
        .collect()
}

/// The model with each assumption added as a permanent unit constraint —
/// the ground-truth formulation assumptions must be equivalent to.
fn with_units(model: &Model, assumptions: &[Lit]) -> Model {
    let mut m = model.clone();
    for &a in assumptions {
        m.add_clause([a]);
    }
    m
}

fn config(presolve: bool) -> SolverConfig {
    SolverConfig {
        presolve,
        ..SolverConfig::default()
    }
}

/// `Solver::solve_under_assumptions` vs. a fresh solve of the model with
/// the assumptions as unit constraints: identical verdicts and objective
/// values, with and without presolve; infeasibility cores are subsets of
/// the assumptions whose units alone reproduce the infeasibility.
#[test]
fn solver_assumptions_match_unit_constraints() {
    for presolve in [true, false] {
        let mut rng = Rng::seed_from_u64(0xA550_0001 + presolve as u64);
        for case in 0..250 {
            let raw = random_model(&mut rng);
            let (model, vars) = build(&raw);
            let assumptions = random_assumptions(&mut rng, &vars);
            let label = format!("presolve={presolve} case={case}");

            let reference =
                Solver::with_config(config(presolve)).solve(&with_units(&model, &assumptions));
            let mut solver = Solver::with_config(config(presolve));
            let assumed = solver.solve_under_assumptions(&model, &assumptions);

            assert_eq!(
                std::mem::discriminant(&reference),
                std::mem::discriminant(&assumed),
                "[{label}] verdict mismatch: reference {reference:?} vs assumed {assumed:?}\n{raw:?}\nassumptions: {assumptions:?}"
            );
            assert_eq!(
                reference.objective(),
                assumed.objective(),
                "[{label}] objective mismatch\n{raw:?}\nassumptions: {assumptions:?}"
            );
            if let Some(solution) = assumed.solution() {
                assert_eq!(
                    model.check(|v| solution.value(v)),
                    Ok(()),
                    "[{label}] assumed solution violates the model\n{raw:?}"
                );
                for &a in &assumptions {
                    assert!(
                        solution.value(a.var()) != a.is_negative(),
                        "[{label}] assumed solution violates assumption {a:?}\n{raw:?}"
                    );
                }
            }
            if assumed == Outcome::Infeasible {
                check_core_sound(&model, &assumptions, solver.unsat_core(), &label, &raw);
            }
        }
    }
}

/// An unsat core must (a) be a subset of the assumptions and (b) already
/// make the model infeasible when its literals are posted as units.
fn check_core_sound(model: &Model, assumptions: &[Lit], core: &[Lit], label: &str, raw: &RawModel) {
    for &c in core {
        assert!(
            assumptions.contains(&c),
            "[{label}] core literal {c:?} is not an assumption\n{raw:?}"
        );
    }
    let hardened = with_units(model, core);
    assert_eq!(
        Solver::new().solve(&hardened),
        Outcome::Infeasible,
        "[{label}] core {core:?} does not reproduce infeasibility\n{raw:?}\nassumptions: {assumptions:?}"
    );
}

/// Directly contradictory assumptions on an otherwise unconstrained
/// variable: infeasible, and the core names both offending literals.
#[test]
fn contradictory_assumptions_yield_two_literal_core() {
    for presolve in [true, false] {
        let mut m = Model::new();
        let vs = m.new_vars(3);
        m.add_clause([vs[0].lit(), vs[1].lit()]);
        let mut s = Solver::with_config(config(presolve));
        let out = s.solve_under_assumptions(&m, &[vs[2].lit(), !vs[2].lit()]);
        assert_eq!(out, Outcome::Infeasible, "presolve={presolve}");
        let core = s.unsat_core();
        assert!(
            core.contains(&vs[2].lit()) && core.contains(&!vs[2].lit()),
            "presolve={presolve}: core {core:?} misses a contradiction side"
        );
        check_core_sound(
            &m,
            &[vs[2].lit(), !vs[2].lit()],
            core,
            "contradiction",
            &RawModel {
                n_vars: 3,
                constraints: Vec::new(),
                objective: None,
            },
        );
    }
}

/// The persistent [`IncrementalSolver`] must agree with the one-shot
/// [`Solver`] across its whole query sequence — feasibility first, then
/// the optimising descent seeded by the feasibility incumbent, then an
/// assumption probe — all on one engine.
#[test]
fn incremental_solver_matches_one_shot() {
    for presolve in [true, false] {
        let mut rng = Rng::seed_from_u64(0xA550_0003 + presolve as u64);
        for case in 0..200 {
            let raw = random_model(&mut rng);
            let (model, vars) = build(&raw);
            let assumptions = random_assumptions(&mut rng, &vars);
            let label = format!("presolve={presolve} case={case}");

            let reference = Solver::with_config(config(presolve)).solve(&model);
            let mut inc = IncrementalSolver::new(&model, config(presolve));

            let feas = inc.solve_feasible();
            match &reference {
                Outcome::Infeasible => {
                    assert_eq!(
                        feas,
                        Outcome::Infeasible,
                        "[{label}] feasibility verdict\n{raw:?}"
                    )
                }
                _ => {
                    let solution = feas
                        .solution()
                        .unwrap_or_else(|| panic!("[{label}] no feasible solution\n{raw:?}"));
                    assert_eq!(
                        model.check(|v| solution.value(v)),
                        Ok(()),
                        "[{label}]\n{raw:?}"
                    );
                }
            }

            let opt = inc.optimize();
            assert_eq!(
                std::mem::discriminant(&reference),
                std::mem::discriminant(&opt),
                "[{label}] optimize verdict: {reference:?} vs {opt:?}\n{raw:?}"
            );
            assert_eq!(
                reference.objective(),
                opt.objective(),
                "[{label}] optimize objective\n{raw:?}"
            );

            // The probe must not be confused by the descent's bounds, and
            // a failed probe must not poison later queries.
            let probe = inc.solve_under_assumptions(&assumptions);
            let ground =
                Solver::with_config(config(presolve)).solve(&with_units(&model, &assumptions));
            assert_eq!(
                probe == Outcome::Infeasible,
                ground == Outcome::Infeasible,
                "[{label}] probe verdict: {probe:?} vs ground {ground:?}\nassumptions: {assumptions:?}\n{raw:?}"
            );
            if let Some(solution) = probe.solution() {
                assert_eq!(
                    model.check(|v| solution.value(v)),
                    Ok(()),
                    "[{label}]\n{raw:?}"
                );
                for &a in &assumptions {
                    assert!(
                        solution.value(a.var()) != a.is_negative(),
                        "[{label}] probe solution violates {a:?}\n{raw:?}"
                    );
                }
            } else if probe == Outcome::Infeasible && reference != Outcome::Infeasible {
                check_core_sound(&model, &assumptions, inc.unsat_core(), &label, &raw);
                assert!(
                    !inc.unsat_core().is_empty(),
                    "[{label}] assumption-caused infeasibility with empty core\n{raw:?}"
                );
            }

            // Engine reuse after a (possibly failed) probe: the optimum is
            // still re-provable on the same engine.
            let again = inc.optimize();
            assert_eq!(
                reference.objective(),
                again.objective(),
                "[{label}] re-optimize after probe\n{raw:?}"
            );
        }
    }
}

/// Four pigeons into three holes, plus one variable no constraint
/// mentions.
fn pigeonhole_plus_free() -> (Model, Var) {
    let mut m = Model::new();
    let slots: Vec<Vec<Var>> = (0..4).map(|_| m.new_vars(3)).collect();
    for row in &slots {
        m.add_ge(LinExpr::sum(row.clone()), 1);
    }
    for h in 0..3 {
        m.add_at_most_one(slots.iter().map(|row| row[h]));
    }
    let free = m.new_var();
    (m, free)
}

/// Each copy of a repeated assumption takes its own decision level, so
/// 64 copies of one literal push the search far past `num_vars` levels
/// before the first real decision. Conflict analysis must cope: the
/// model is infeasible on its own, so the answer is `Infeasible` with an
/// empty core, through the engine and through the incremental solver.
#[test]
fn repeated_assumption_outnumbering_the_variables() {
    let (m, free) = pigeonhole_plus_free();
    let copies = vec![free.lit(); 64];

    let mut e = Engine::new(m.num_vars());
    for c in m.constraints() {
        for nc in normalize(c) {
            e.add_norm(nc);
        }
    }
    assert_eq!(
        e.solve_under_assumptions(Budget::unlimited(), &copies),
        SatResult::Unsat
    );
    assert!(e.unsat_core().is_empty(), "core {:?}", e.unsat_core());

    // Presolve would eliminate the unconstrained variable and drop the
    // assumptions before they reach the engine.
    let mut inc = IncrementalSolver::new(&m, config(false));
    assert_eq!(inc.solve_under_assumptions(&copies), Outcome::Infeasible);
    assert!(inc.unsat_core().is_empty(), "core {:?}", inc.unsat_core());
}

//! Property tests: the CDCL branch-and-bound solver must agree with the
//! exhaustive reference solver on feasibility and optimal objective value
//! for arbitrary small 0-1 ILPs.
//!
//! The random-model envelope matches the original proptest strategies
//! (2..=9 vars, 1..=10 constraints of 1..=5 terms with coefficients
//! -4..=4, rhs -6..=8, optional objective with coefficients -5..=5) but
//! is driven by the in-repo seeded generator so the suite needs no
//! registry dependencies and every failure reproduces from its case
//! index.
//!
//! Every check also drives one persistent `IncrementalSolver` at 1, 2
//! and 4 engines through a feasibility query, the optimising descent
//! and one query under random assumptions.

use bilp::brute::{solve_exhaustive, BruteOutcome};
use bilp::{Cmp, IncrementalSolver, LinExpr, Lit, Model, Outcome, Solver, SolverConfig, Var};
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

fn random_constraint(rng: &mut Rng, n_vars: usize) -> RawConstraint {
    let n_terms = rng.gen_range_inclusive(1..=5);
    let terms = (0..n_terms)
        .map(|_| (rng.gen_i64_inclusive(-4..=4), rng.gen_range(0..n_vars)))
        .collect();
    let cmp = match rng.below(3) {
        0 => Cmp::Le,
        1 => Cmp::Ge,
        _ => Cmp::Eq,
    };
    RawConstraint {
        terms,
        cmp,
        rhs: rng.gen_i64_inclusive(-6..=8),
    }
}

fn random_model(rng: &mut Rng) -> RawModel {
    let n_vars = rng.gen_range_inclusive(2..=9);
    let n_constraints = rng.gen_range_inclusive(1..=10);
    let constraints = (0..n_constraints)
        .map(|_| random_constraint(rng, n_vars))
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

/// `model` with each assumption added as a unit constraint.
fn with_units(model: &Model, assumptions: &[Lit]) -> Model {
    let mut m = model.clone();
    for &a in assumptions {
        m.add_clause([a]);
    }
    m
}

/// One to three random literals over `vars`.
fn random_assumptions(vars: &[Var], case: usize) -> Vec<Lit> {
    let mut rng = Rng::seed_from_u64(0xA55E_0000 ^ case as u64);
    (0..rng.gen_range_inclusive(1..=3))
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

/// Drives one `IncrementalSolver` at `threads` engines through
/// `solve_feasible`, `optimize` and `solve_under_assumptions`, checking
/// each answer against brute force.
fn check_incremental(
    (model, vars): (&Model, &[Var]),
    brute: &BruteOutcome,
    config: SolverConfig,
    case: usize,
    ctx: &str,
) {
    let feasible = |o: &Outcome| {
        o.solution()
            .is_some_and(|s| model.check(|v| s.value(v)).is_ok())
    };
    let mut inc = IncrementalSolver::new(model, config);
    let first = inc.solve_feasible();
    let best = inc.optimize();
    match brute {
        BruteOutcome::Infeasible => {
            assert_eq!(first, Outcome::Infeasible, "{ctx}: feasibility verdict");
            assert_eq!(best, Outcome::Infeasible, "{ctx}: optimising verdict");
        }
        BruteOutcome::Optimal { objective, .. } => {
            assert!(feasible(&first), "{ctx}: feasibility answer {first:?}");
            assert!(
                matches!(best, Outcome::Optimal { .. }) && feasible(&best),
                "{ctx}: optimising answer {best:?}"
            );
            assert_eq!(best.objective(), Some(*objective), "{ctx}: optimum");
        }
    }
    let assumptions = random_assumptions(vars, case);
    let answer = inc.solve_under_assumptions(&assumptions);
    let ctx = format!("{ctx} assuming {assumptions:?}");
    match solve_exhaustive(&with_units(model, &assumptions)) {
        BruteOutcome::Infeasible => {
            assert_eq!(answer, Outcome::Infeasible, "{ctx}: verdict");
            let core = inc.unsat_core();
            assert!(
                core.iter().all(|l| assumptions.contains(l)),
                "{ctx}: core {core:?} is not a subset"
            );
            assert_eq!(
                solve_exhaustive(&with_units(model, core)),
                BruteOutcome::Infeasible,
                "{ctx}: core {core:?} is satisfiable"
            );
        }
        BruteOutcome::Optimal { .. } => {
            let s = answer
                .solution()
                .unwrap_or_else(|| panic!("{ctx}: answer {answer:?}"));
            assert!(feasible(&answer), "{ctx}: solution violates the model");
            assert!(
                assumptions
                    .iter()
                    .all(|&l| s.value(l.var()) != l.is_negative()),
                "{ctx}: solution violates an assumption"
            );
        }
    }
}

/// Check one solver configuration against the exhaustive reference on a
/// single model, then one `IncrementalSolver` at 1, 2 and 4 engines;
/// panics with the reproducing case index on mismatch.
fn check_against_brute(raw: &RawModel, config: SolverConfig, case: usize, label: &str) {
    let (model, vars) = build(raw);
    let brute = solve_exhaustive(&model);
    for threads in [1usize, 2, 4] {
        let ctx = format!("[{label} incremental threads={threads}] case {case} {raw:?}");
        check_incremental(
            (&model, &vars),
            &brute,
            SolverConfig { threads, ..config },
            case,
            &ctx,
        );
    }
    let outcome = Solver::with_config(config).solve(&model);
    match (&brute, &outcome) {
        (BruteOutcome::Infeasible, Outcome::Infeasible) => {}
        (
            BruteOutcome::Optimal { objective: bo, .. },
            Outcome::Optimal {
                objective: so,
                solution,
            },
        ) => {
            assert_eq!(bo, so, "[{label}] case {case}: objective mismatch\n{raw:?}");
            assert_eq!(
                model.check(|v| solution.value(v)),
                Ok(()),
                "[{label}] case {case}: solution violates a constraint\n{raw:?}"
            );
        }
        other => panic!("[{label}] case {case}: outcome mismatch: {other:?}\n{raw:?}"),
    }
}

#[test]
fn solver_agrees_with_brute_force() {
    let mut rng = Rng::seed_from_u64(0xB17B_0001);
    for case in 0..400 {
        let raw = random_model(&mut rng);
        check_against_brute(&raw, SolverConfig::default(), case, "seq");
    }
}

#[test]
fn feasibility_only_agrees() {
    let mut rng = Rng::seed_from_u64(0xB17B_0002);
    for case in 0..400 {
        let mut raw = random_model(&mut rng);
        raw.objective = None;
        check_against_brute(&raw, SolverConfig::default(), case, "seq-feas");
    }
}

/// The portfolio path (threads > 1) must report exactly the same
/// feasibility verdicts and optimal objectives as the exhaustive
/// reference. Exercised at 2 and 4 workers so both the "few diversified
/// engines" and "full feature spread incl. no-VSIDS worker" code paths
/// run.
#[test]
fn portfolio_agrees_with_brute_force() {
    for &threads in &[2usize, 4] {
        let mut rng = Rng::seed_from_u64(0xB17B_0003 + threads as u64);
        for case in 0..150 {
            let raw = random_model(&mut rng);
            let config = SolverConfig {
                threads,
                seed: case as u64,
                ..SolverConfig::default()
            };
            check_against_brute(&raw, config, case, &format!("threads={threads}"));
        }
    }
}

#[test]
fn portfolio_feasibility_only_agrees() {
    let mut rng = Rng::seed_from_u64(0xB17B_0004);
    for case in 0..150 {
        let mut raw = random_model(&mut rng);
        raw.objective = None;
        let config = SolverConfig {
            threads: 4,
            seed: case as u64,
            ..SolverConfig::default()
        };
        check_against_brute(&raw, config, case, "threads=4-feas");
    }
}

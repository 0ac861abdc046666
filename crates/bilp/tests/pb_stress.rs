//! Pseudo-Boolean row stress suite: reified objective-bound chains on
//! one persistent engine, the way the optimising descent builds them.
//!
//! Each bound `objective <= rhs` gets a fresh activation variable from
//! `Engine::add_var` and one at-most row carrying the activation term
//! with coefficient `total - rhs`, so the row bites only while the
//! activation literal is assumed. The suite posts such bounds below
//! every incumbent, solves under changing activation sets, and forces
//! learnt-database reductions and inprocessing passes between solves.
//! Root units on objective literals arrive in random order between
//! bounds, so later bound rows start with several true terms whose
//! trail order differs from their term order. After every step
//! `Engine::debug_check_invariants` recounts each row's true-term sum,
//! its trail-ordered true-term list and its coefficient index from
//! scratch, so an undo out of order or a stale index fails the step
//! that caused it. Every model the engine reports must satisfy the base
//! constraints and every bound it was solved under.

use bilp::{normalize, Budget, Engine, LinExpr, Lit, Model, NormConstraint, SatResult, Var};
use cgra_rng::Rng;

/// A base model with at-most-one, cardinality and weighted rows plus
/// clauses, and an objective over a random subset of its literals.
fn base(rng: &mut Rng) -> (Model, Vec<(u64, Lit)>) {
    let n = rng.gen_range_inclusive(30..=50);
    let mut m = Model::new();
    let vars = m.new_vars(n);
    let pick = |rng: &mut Rng, k: usize| -> Vec<Var> {
        let mut pool = vars.clone();
        (0..k)
            .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
            .collect()
    };
    for _ in 0..n / 5 {
        let k = rng.gen_range_inclusive(3..=6);
        m.add_at_most_one(pick(rng, k));
    }
    for _ in 0..n / 6 {
        let k = rng.gen_range_inclusive(5..=9);
        let b = rng.gen_range_inclusive(2..=3) as i64;
        m.add_ge(LinExpr::sum(pick(rng, k)), b);
    }
    for _ in 0..n / 10 {
        let mut e = LinExpr::new();
        let mut total = 0;
        for v in pick(rng, 8) {
            let a = [1, 3, 8][rng.gen_range(0..3)];
            e.add_term(a, v);
            total += a;
        }
        m.add_le(e, total / 2);
    }
    for _ in 0..n / 3 {
        let clause: Vec<Lit> = pick(rng, 3)
            .into_iter()
            .map(|v| if rng.gen_bool(0.5) { v.lit() } else { !v.lit() })
            .collect();
        m.add_clause(clause);
    }
    let unit = rng.gen_bool(0.5);
    let objective = pick(rng, n / 2)
        .into_iter()
        .map(|v| {
            let a = if unit { 1 } else { 1 + rng.below(5) };
            (a, if rng.gen_bool(0.8) { v.lit() } else { !v.lit() })
        })
        .collect();
    (m, objective)
}

/// Posts `objective <= rhs` reified under a fresh activation literal:
/// `objective + (total - rhs)·act <= total`, as the descent does.
fn post_bound(e: &mut Engine, objective: &[(u64, Lit)], rhs: u64) -> Lit {
    let act = e.add_var().lit();
    let total: u64 = objective.iter().map(|&(a, _)| a).sum();
    let mut terms = objective.to_vec();
    terms.push((total - rhs, act));
    assert!(
        e.add_norm(NormConstraint::AtMost {
            terms,
            bound: total,
        }),
        "a reified bound cannot be refuted at the root"
    );
    act
}

fn value(e: &Engine, objective: &[(u64, Lit)]) -> u64 {
    objective
        .iter()
        .filter(|&&(_, l)| e.model_value(l.var()) != l.is_negative())
        .map(|&(a, _)| a)
        .sum()
}

fn check(e: &Engine, seed: u64, step: usize, context: &str) {
    if let Err(msg) = e.debug_check_invariants() {
        panic!("seed {seed} step {step} after {context}: {msg}");
    }
}

#[test]
fn reified_bound_chains_keep_row_state_consistent() {
    let mut solves = 0;
    let mut bounds = 0;
    for seed in 1..=30u64 {
        let mut rng = Rng::seed_from_u64(0x9b5e_0000 + seed);
        let (model, objective) = base(&mut rng);
        let mut e = Engine::new(model.num_vars());
        for c in model.constraints() {
            for nc in normalize(c) {
                e.add_norm(nc);
            }
        }
        if !e.is_ok() {
            continue;
        }
        let total: u64 = objective.iter().map(|&(a, _)| a).sum();
        // Activation literal and right-hand side of every posted bound.
        let mut chain: Vec<(Lit, u64)> = Vec::new();
        let mut units = 0;
        for step in 0..40 {
            match rng.below(8) {
                0 => {
                    e.debug_force_reduce();
                    check(&e, seed, step, "forced reduce");
                }
                1 => {
                    if !e.debug_force_inprocess() {
                        break;
                    }
                    check(&e, seed, step, "forced inprocess");
                }
                2 if units < 4 => {
                    units += 1;
                    let (_, l) = objective[rng.gen_range(0..objective.len())];
                    if !e.add_norm(NormConstraint::Unit(l)) {
                        break;
                    }
                    check(&e, seed, step, "root unit");
                }
                _ => {
                    // The newest bound plus a random subset of the older
                    // ones, in random order.
                    let mut assumed: Vec<(Lit, u64)> = chain
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i + 1 == chain.len() || rng.gen_bool(0.4))
                        .map(|(_, &b)| b)
                        .collect();
                    if assumed.len() > 1 {
                        let i = rng.gen_range(0..assumed.len());
                        assumed.swap(0, i);
                    }
                    let lits: Vec<Lit> = assumed.iter().map(|&(l, _)| l).collect();
                    let budget = Budget {
                        deadline: None,
                        conflict_limit: Some(1 + rng.below(60)),
                    };
                    let result = e.solve_under_assumptions(budget, &lits);
                    solves += 1;
                    check(&e, seed, step, "bounded solve");
                    match result {
                        SatResult::Sat => {
                            assert_eq!(
                                model.check(|v| e.model_value(v)),
                                Ok(()),
                                "seed {seed} step {step}: model violates a base constraint"
                            );
                            let val = value(&e, &objective);
                            for &(_, rhs) in &assumed {
                                assert!(
                                    val <= rhs,
                                    "seed {seed} step {step}: objective {val} above assumed bound {rhs}"
                                );
                            }
                            if val > 0 && val < total {
                                chain.push((post_bound(&mut e, &objective, val - 1), val - 1));
                                bounds += 1;
                                check(&e, seed, step, "posted bound");
                            }
                        }
                        SatResult::Unsat if !e.is_ok() => break,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(solves > 500, "only {solves} solves ran");
    assert!(bounds > 100, "only {bounds} bounds were posted");
}

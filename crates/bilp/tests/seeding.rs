//! Heuristic incumbent seeding: differential tests asserting that
//! probes — valid, useless, or garbage — never change verdicts or
//! proven optima, at every thread count, while valid probes do publish
//! incumbents and the attribution counters tell the truth.

use bilp::{HeuristicProbe, IncumbentSource, LinExpr, Model, Outcome, Solver, SolverConfig};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// n+1 pigeons into n holes: UNSAT.
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

/// Minimum vertex cover of an n-cycle (optimum = ceil(n/2)).
fn cycle_cover(n: usize) -> Model {
    let mut m = Model::new();
    let v = m.new_vars(n);
    for i in 0..n {
        m.add_clause([v[i].lit(), v[(i + 1) % n].lit()]);
    }
    m.minimize(LinExpr::sum(v));
    m
}

/// A probe that always returns the same candidate assignment.
struct Fixed(Vec<bool>);

impl HeuristicProbe for Fixed {
    fn probe(&self, _seed: u64, _stop: &Arc<AtomicBool>) -> Option<Vec<bool>> {
        Some(self.0.clone())
    }
}

fn config(threads: usize) -> SolverConfig {
    SolverConfig {
        threads,
        ..SolverConfig::default()
    }
}

/// A valid (all-vertices) cover seeds an incumbent of n; the proven
/// optimum must still be exactly what the unseeded solver proves, at
/// every thread count.
#[test]
fn valid_probe_never_changes_the_optimum() {
    let m = cycle_cover(13);
    let unseeded = Solver::new().solve(&m);
    assert_eq!(unseeded.objective(), Some(7));
    let probe = Fixed(vec![true; 13]);
    for threads in [1usize, 2, 4] {
        let mut s = Solver::with_config(config(threads));
        let out = s.solve_with_probe(&m, &probe);
        assert!(
            matches!(out, Outcome::Optimal { .. }),
            "threads={threads}: {out:?}"
        );
        assert_eq!(out.objective(), Some(7), "threads={threads}");
        let solution = out.solution().expect("optimal has a solution");
        assert_eq!(m.check(|v| solution.value(v)), Ok(()));
        let stats = s.stats();
        assert!(stats.probe_workers >= 1, "threads={threads}");
        // The all-true seed is strictly worse than the optimum, so the
        // final incumbent must be attributed to the solver.
        if threads == 1 {
            assert_eq!(stats.probe_incumbents, 1);
            assert_eq!(stats.incumbent_source, Some(IncumbentSource::Solver));
        }
    }
}

/// A probe can never flip an UNSAT instance: whatever it claims, the
/// solver validates candidates against the model and proves
/// infeasibility regardless.
#[test]
fn garbage_probe_cannot_flip_unsat() {
    let m = pigeonhole(5);
    let garbage = Fixed((0..m.num_vars()).map(|i| i % 3 == 0).collect());
    for threads in [1usize, 2] {
        let mut s = Solver::with_config(config(threads));
        let out = s.solve_with_probe(&m, &garbage);
        assert_eq!(out, Outcome::Infeasible, "threads={threads}");
        assert_eq!(s.stats().probe_incumbents, 0, "threads={threads}");
    }
}

/// Invalid candidates (wrong length, constraint-violating) are
/// discarded by validation and publish nothing.
#[test]
fn invalid_probe_candidates_are_rejected() {
    let m = cycle_cover(9);
    for bad in [Fixed(vec![false; 9]), Fixed(vec![true; 4]), Fixed(vec![])] {
        let mut s = Solver::new();
        let out = s.solve_with_probe(&m, &bad);
        assert_eq!(out.objective(), Some(5));
        assert_eq!(s.stats().probe_incumbents, 0);
        assert_eq!(s.stats().incumbent_source, Some(IncumbentSource::Solver));
    }
}

/// Without an objective the first validated probe candidate *is* the
/// answer — the sequential feasibility race returns it directly and
/// attributes the incumbent to the heuristic.
#[test]
fn feasibility_race_returns_validated_probe_solution() {
    let mut m = Model::new();
    let v = m.new_vars(6);
    for i in 0..6 {
        m.add_clause([v[i].lit(), v[(i + 1) % 6].lit()]);
    }
    let probe = Fixed(vec![true; 6]);
    let mut s = Solver::with_config(SolverConfig {
        presolve: false,
        ..SolverConfig::default()
    });
    let out = s.solve_with_probe(&m, &probe);
    let Outcome::Optimal {
        solution,
        objective,
    } = out
    else {
        panic!("expected optimal, got {out:?}");
    };
    assert_eq!(objective, 0);
    assert!((0..6).all(|i| solution.value(v[i])));
    let stats = s.stats();
    assert_eq!(stats.probe_incumbents, 1);
    assert_eq!(stats.incumbent_source, Some(IncumbentSource::Heuristic));
}

/// A probe seeding an *optimal* solution keeps its attribution through
/// the optimising descent: the solver proves the bound but never finds
/// a strictly better incumbent, so the heuristic's solution survives.
#[test]
fn optimal_seed_keeps_heuristic_attribution() {
    // Even-indexed vertices cover the 9-cycle with exactly 5 = optimum.
    let m = cycle_cover(9);
    let seed: Vec<bool> = (0..9).map(|i| i % 2 == 0).collect();
    let mut s = Solver::new();
    let out = s.solve_with_probe(&m, &Fixed(seed));
    assert_eq!(out.objective(), Some(5));
    let stats = s.stats();
    assert_eq!(stats.probe_incumbents, 1);
    assert_eq!(stats.incumbent_source, Some(IncumbentSource::Heuristic));
}

/// Racing probe workers in the portfolio never change the verdict, and
/// the deadline still binds with probes attached.
#[test]
fn portfolio_with_probe_respects_deadline_and_verdict() {
    let m = pigeonhole(8);
    let garbage = Fixed((0..m.num_vars()).map(|i| i % 2 == 0).collect());
    let mut s = Solver::with_config(SolverConfig {
        threads: 2,
        probe_workers: 2,
        time_limit: Some(Duration::from_millis(80)),
        ..SolverConfig::default()
    });
    let out = s.solve_with_probe(&m, &garbage);
    // Hard instance, tiny budget: Unknown or a finished Infeasible
    // proof are both acceptable — a probe-created Feasible is not.
    assert!(
        matches!(out, Outcome::Unknown | Outcome::Infeasible),
        "{out:?}"
    );
    assert_eq!(s.stats().probe_workers, 2);
    assert_eq!(s.stats().probe_incumbents, 0);
}

/// A retiring probe (returns `None` immediately) leaves the portfolio
/// to the CDCL workers, which still decide correctly.
#[test]
fn retiring_probe_leaves_cdcl_workers_to_decide() {
    struct Retire;
    impl HeuristicProbe for Retire {
        fn probe(&self, _seed: u64, _stop: &Arc<AtomicBool>) -> Option<Vec<bool>> {
            None
        }
    }
    let m = cycle_cover(11);
    let mut s = Solver::with_config(config(2));
    let out = s.solve_with_probe(&m, &Retire);
    assert_eq!(out.objective(), Some(6));
    assert_eq!(s.stats().probe_incumbents, 0);
}

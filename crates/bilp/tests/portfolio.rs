//! Portfolio-solver integration tests: determinism of the sequential
//! path, agreement across thread counts, deadline responsiveness with
//! the amortised budget polling, and UNSAT race cancellation.

// Column-index loops over 2-D incidence structures read clearest as-is.
#![allow(clippy::needless_range_loop)]

use bilp::{ClauseExchange, IncrementalSolver, LinExpr, Model, Outcome, Solver, SolverConfig};
use std::time::{Duration, Instant};

/// n+1 pigeons into n holes: UNSAT, with proof cost growing steeply in n.
fn pigeonhole(n: usize) -> Model {
    let mut m = Model::new();
    let p: Vec<Vec<_>> = (0..n + 1).map(|_| m.new_vars(n)).collect();
    for row in &p {
        m.add_clause(row.iter().map(|v| v.lit()));
    }
    for h in 0..n {
        m.add_at_most_one((0..n + 1).map(|i| p[i][h]));
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

/// `threads = 1` takes the classic sequential code path, so two runs —
/// and a run against the default config — must agree bit-for-bit, down
/// to the engine counters.
#[test]
fn threads_one_is_bit_for_bit_sequential() {
    let m = cycle_cover(11);
    let mut default_solver = Solver::new();
    let default_out = default_solver.solve(&m);
    let mut one_thread = Solver::with_config(SolverConfig {
        threads: 1,
        ..SolverConfig::default()
    });
    let one_out = one_thread.solve(&m);
    assert_eq!(default_out, one_out);
    let (a, b) = (default_solver.stats(), one_thread.stats());
    assert_eq!(a.engine.conflicts, b.engine.conflicts);
    assert_eq!(a.engine.decisions, b.engine.decisions);
    assert_eq!(a.engine.propagations, b.engine.propagations);
    assert_eq!(a.incumbents, b.incumbents);
    assert_eq!(a.workers, 1);
    assert_eq!(b.workers, 1);
}

/// Optimal objective values must be identical at every thread count;
/// which optimal *solution* is returned may differ.
#[test]
fn portfolio_objective_matches_sequential() {
    let m = cycle_cover(13);
    let sequential = Solver::new().solve(&m);
    assert_eq!(sequential.objective(), Some(7));
    for threads in [2usize, 4] {
        let mut s = Solver::with_config(SolverConfig {
            threads,
            ..SolverConfig::default()
        });
        let out = s.solve(&m);
        assert!(
            matches!(out, Outcome::Optimal { .. }),
            "threads={threads}: {out:?}"
        );
        assert_eq!(out.objective(), Some(7), "threads={threads}");
        let solution = out.solution().expect("optimal has a solution");
        assert_eq!(m.check(|v| solution.value(v)), Ok(()));
        assert_eq!(s.stats().workers, threads as u32);
    }
}

/// One persistent solver races every engine it loaded, on every query
/// kind, and answers as one engine does.
#[test]
fn incremental_solver_races_every_engine() {
    let mut m = Model::new();
    let v = m.new_vars(13);
    for i in 0..13 {
        m.add_clause([v[i].lit(), v[(i + 1) % 13].lit()]);
    }
    m.minimize(LinExpr::sum(v.clone()));
    let mut s = IncrementalSolver::new(
        &m,
        SolverConfig {
            threads: 4,
            ..SolverConfig::default()
        },
    );
    assert_eq!(s.stats().workers, 4);
    assert!(s.solve_feasible().solution().is_some());
    let out = s.optimize();
    assert!(matches!(out, Outcome::Optimal { .. }), "{out:?}");
    assert_eq!(out.objective(), Some(7));
    // Leaving both ends of edge (0, 1) out is infeasible.
    let assumed = [!v[0].lit(), !v[1].lit()];
    assert_eq!(s.solve_under_assumptions(&assumed), Outcome::Infeasible);
    assert!(s.unsat_core().iter().all(|l| assumed.contains(l)));
    assert!(!s.unsat_core().is_empty());
}

/// The 50 ms deadline must surface as `Unknown` promptly. Budget checks
/// are amortised to every ~1024 propagations/conflicts, which costs
/// microseconds per poll — the bound here is ~2x the deadline plus
/// scheduler margin, far above any legitimate overshoot.
#[test]
fn deadline_returns_unknown_within_twice_the_budget() {
    let m = pigeonhole(10);
    for threads in [1usize, 4] {
        let mut s = Solver::with_config(SolverConfig {
            time_limit: Some(Duration::from_millis(50)),
            threads,
            ..SolverConfig::default()
        });
        let start = Instant::now();
        let out = s.solve(&m);
        let elapsed = start.elapsed();
        assert_eq!(out, Outcome::Unknown, "threads={threads}");
        assert!(
            elapsed < Duration::from_millis(200),
            "threads={threads}: 50 ms deadline overshot to {elapsed:?}"
        );
    }
}

/// `objective_stop` ends the descent at every width: with a stop no
/// incumbent can miss, a 40-variable chain cover reports its first
/// incumbent as `Feasible` instead of descending to a proven optimum.
#[test]
fn objective_stop_holds_at_every_width() {
    let mut m = Model::new();
    let v = m.new_vars(40);
    for w in v.windows(2) {
        m.add_clause([w[0].lit(), w[1].lit()]);
    }
    m.minimize(LinExpr::sum(v));
    for threads in [1usize, 2, 4] {
        let mut s = Solver::with_config(SolverConfig {
            threads,
            objective_stop: Some(i64::MAX),
            ..SolverConfig::default()
        });
        let out = s.solve(&m);
        assert!(
            matches!(out, Outcome::Feasible { .. }),
            "threads={threads}: {out:?}"
        );
        let solution = out.solution().expect("feasible has a solution");
        assert_eq!(m.check(|v| solution.value(v)), Ok(()));
    }
}

/// An UNSAT race: the first worker to finish its infeasibility proof
/// must cancel the rest, and the verdict must be attributed.
#[test]
fn unsat_race_cancels_and_attributes_winner() {
    let m = pigeonhole(6);
    let mut s = Solver::with_config(SolverConfig {
        threads: 4,
        ..SolverConfig::default()
    });
    let out = s.solve(&m);
    assert_eq!(out, Outcome::Infeasible);
    let stats = s.stats();
    assert_eq!(stats.workers, 4);
    assert!(stats.winner.is_some(), "decisive worker not attributed");
    // Aggregated engine counters must include every worker's effort —
    // at minimum the winner's full UNSAT proof.
    assert!(stats.engine.conflicts > 0);
}

/// A worker never re-imports its own clauses, and the bounded pool
/// evicts oldest-first while cursors stay consistent.
#[test]
fn clause_exchange_self_skip_and_eviction() {
    let mut source = Model::new();
    let v = source.new_vars(8);
    let exchange = ClauseExchange::with_capacity(4);
    for (i, var) in v.iter().enumerate() {
        let worker = i % 2;
        assert!(exchange.publish(worker, &[var.lit()], 1));
    }
    // 8 published into capacity 4: the first 4 were evicted, but len()
    // stays monotone so late-started cursors are well-defined.
    assert_eq!(exchange.len(), 8);

    // Worker 0 sees only worker 1's surviving clauses (odd indices >= 4).
    let mut cursor = 0;
    let mut seen = Vec::new();
    exchange.import_since(&mut cursor, 0, |lits, _| seen.push(lits[0]));
    assert_eq!(seen, vec![v[5].lit(), v[7].lit()]);
    assert_eq!(cursor, 8);

    // The caught-up cursor imports nothing further until new publishes.
    let mut count = 0;
    exchange.import_since(&mut cursor, 0, |_, _| count += 1);
    assert_eq!(count, 0);
    assert!(exchange.publish(1, &[v[0].lit(), v[1].lit()], 2));
    exchange.import_since(&mut cursor, 0, |lits, _| count += lits.len());
    assert_eq!(count, 2);
}

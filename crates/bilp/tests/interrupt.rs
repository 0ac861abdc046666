//! External cooperative-cancellation tests: the `set_interrupt` hook
//! used by the serving layer for graceful shutdown and admission
//! control. An interrupted solve must come back promptly with a clean
//! `Unknown` (or best-found `Feasible`), on both the sequential and the
//! portfolio path, and the portfolio's internal stop flag must never
//! leak back into the caller's flag.

// Column-index loops over 2-D incidence structures read clearest as-is.
#![allow(clippy::needless_range_loop)]

use bilp::{HeuristicProbe, IncrementalSolver, Model, Outcome, Solver, SolverConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// n+1 pigeons into n holes: UNSAT, with proof cost growing steeply in n.
/// Large enough to keep any engine busy for far longer than the test's
/// cancellation window.
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

#[test]
fn preset_flag_stops_sequential_solve_immediately() {
    let m = pigeonhole(12);
    let flag = Arc::new(AtomicBool::new(true));
    let mut solver = Solver::new();
    solver.set_interrupt(Arc::clone(&flag));
    let start = Instant::now();
    let out = solver.solve(&m);
    assert_eq!(out, Outcome::Unknown);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "preset interrupt should stop the solve at the first budget poll"
    );
}

#[test]
fn mid_flight_interrupt_stops_sequential_solve() {
    let m = pigeonhole(12);
    let flag = Arc::new(AtomicBool::new(false));
    let canceller = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(true, Ordering::SeqCst);
        })
    };
    let mut solver = Solver::new();
    solver.set_interrupt(Arc::clone(&flag));
    let start = Instant::now();
    let out = solver.solve(&m);
    canceller.join().unwrap();
    assert_eq!(out, Outcome::Unknown);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "interrupt should cut a solve that would otherwise run much longer"
    );
}

#[test]
fn mid_flight_interrupt_stops_portfolio_solve() {
    let m = pigeonhole(12);
    let flag = Arc::new(AtomicBool::new(false));
    let canceller = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(true, Ordering::SeqCst);
        })
    };
    let mut solver = Solver::with_config(SolverConfig {
        threads: 4,
        ..SolverConfig::default()
    });
    solver.set_interrupt(Arc::clone(&flag));
    let start = Instant::now();
    let out = solver.solve(&m);
    canceller.join().unwrap();
    assert_eq!(out, Outcome::Unknown);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "interrupt must relay into every portfolio worker"
    );
}

#[test]
fn portfolio_verdict_does_not_set_callers_flag() {
    // An easy SAT model: the race finishes on its own. The internal stop
    // flag fires to cancel the losers; the caller's flag must stay clear.
    let mut m = Model::new();
    let vs = m.new_vars(6);
    m.add_clause(vs.iter().map(|v| v.lit()));
    let flag = Arc::new(AtomicBool::new(false));
    let mut solver = Solver::with_config(SolverConfig {
        threads: 4,
        ..SolverConfig::default()
    });
    solver.set_interrupt(Arc::clone(&flag));
    let out = solver.solve(&m);
    assert!(out.solution().is_some());
    assert!(
        !flag.load(Ordering::SeqCst),
        "the portfolio's internal cancellation must not leak into the external flag"
    );
}

#[test]
fn interrupt_stops_incremental_solver() {
    let m = pigeonhole(12);
    let flag = Arc::new(AtomicBool::new(true));
    let mut solver = IncrementalSolver::new(&m, SolverConfig::default());
    solver.set_interrupt(Arc::clone(&flag));
    let start = Instant::now();
    let out = solver.solve_feasible();
    assert_eq!(out, Outcome::Unknown);
    assert!(start.elapsed() < Duration::from_secs(5));

    // Clearing the flag makes the same persistent engine usable again.
    flag.store(false, Ordering::SeqCst);
    let small = {
        let mut m = Model::new();
        let vs = m.new_vars(3);
        m.add_clause(vs.iter().map(|v| v.lit()));
        m
    };
    let mut fresh = IncrementalSolver::new(&small, SolverConfig::default());
    fresh.set_interrupt(Arc::clone(&flag));
    assert!(fresh.solve_feasible().solution().is_some());
}

#[test]
fn uninterrupted_solver_still_decides() {
    // Regression guard: installing a never-fired flag must not change
    // verdicts.
    let m = pigeonhole(4);
    let flag = Arc::new(AtomicBool::new(false));
    let mut solver = Solver::new();
    solver.set_interrupt(flag);
    assert_eq!(solver.solve(&m), Outcome::Infeasible);
}

/// A probe that finds nothing: it spins until `stop` is set, or for 5 s.
struct Spinner;

impl HeuristicProbe for Spinner {
    fn probe(&self, _seed: u64, stop: &Arc<AtomicBool>) -> Option<Vec<bool>> {
        let start = Instant::now();
        while !stop.load(Ordering::Relaxed) && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        None
    }
}

#[test]
fn interrupt_reaches_a_one_engine_probe() {
    // One engine runs its probe on the calling thread before searching.
    // The probe must see the interrupt, or the query waits out its spin.
    let m = pigeonhole(12);
    let flag = Arc::new(AtomicBool::new(false));
    let canceller = {
        let flag = Arc::clone(&flag);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(true, Ordering::SeqCst);
        })
    };
    let mut solver = IncrementalSolver::with_probe(&m, SolverConfig::default(), &Spinner);
    solver.set_interrupt(Arc::clone(&flag));
    let start = Instant::now();
    let out = solver.solve_feasible();
    canceller.join().unwrap();
    assert_eq!(out, Outcome::Unknown);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "the probe ignored the interrupt for {:?}",
        start.elapsed()
    );
}

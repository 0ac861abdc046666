//! Chaos tests: deliberately panic portfolio workers and assert the
//! race still reaches the correct — and certified — verdict, or
//! degrades to the single-threaded fallback when every worker dies.
//!
//! The injection hook is process-global, so all tests that touch it run
//! inside one `#[test]` body, restoring the hook between scenarios.

use bilp::portfolio::{CHAOS_PANIC_ALL, CHAOS_PANIC_WORKER};
use bilp::{
    Certificate, HeuristicProbe, IncrementalSolver, LinExpr, Model, Outcome, Solver, SolverConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn pigeonhole(pigeons: usize, holes: usize) -> Model {
    let mut m = Model::new();
    let mut slot = vec![vec![]; pigeons];
    for p in slot.iter_mut() {
        *p = m.new_vars(holes);
    }
    for row in &slot {
        m.add_ge(LinExpr::sum(row.clone()), 1);
    }
    for h in 0..holes {
        let col: Vec<_> = slot.iter().map(|row| row[h]).collect();
        m.add_le(LinExpr::sum(col), 1);
    }
    m
}

fn set_cover() -> (Model, i64) {
    // Minimum set cover with optimum 2: sets {a,b}, {c,d}, {a,c}, {b,d}.
    let mut m = Model::new();
    let s = m.new_vars(4);
    m.add_ge(LinExpr::sum([s[0], s[2]]), 1); // element a
    m.add_ge(LinExpr::sum([s[0], s[3]]), 1); // element b
    m.add_ge(LinExpr::sum([s[1], s[2]]), 1); // element c
    m.add_ge(LinExpr::sum([s[1], s[3]]), 1); // element d
    m.minimize(LinExpr::sum(s));
    (m, 2)
}

fn solver(threads: usize) -> Solver {
    Solver::with_config(SolverConfig {
        threads,
        certify: true,
        ..SolverConfig::default()
    })
}

/// Quiet panic hook that swallows the expected chaos-injection messages
/// but forwards anything else to the default hook.
fn install_quiet_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !payload.contains("chaos injection") {
            default(info);
        }
    }));
}

#[test]
fn chaos_panics_do_not_change_verdicts() {
    install_quiet_hook();

    // --- One worker dies: infeasibility still proven and certified. ---
    CHAOS_PANIC_WORKER.store(1, Ordering::SeqCst);
    let m = pigeonhole(5, 4);
    let mut s = solver(4);
    assert_eq!(s.solve(&m), Outcome::Infeasible);
    assert!(
        s.certificate().is_some_and(Certificate::is_certified),
        "certificate after worker panic: {:?}",
        s.certificate()
    );
    assert_eq!(s.stats().worker_panics, 1);

    // --- One worker dies mid-optimisation: optimum unchanged. ---
    CHAOS_PANIC_WORKER.store(2, Ordering::SeqCst);
    let (m, best) = set_cover();
    let mut s = solver(4);
    match s.solve(&m) {
        Outcome::Optimal { objective, .. } => assert_eq!(objective, best),
        other => panic!("unexpected {other:?}"),
    }

    // --- A quarantined worker sits out every later query. ---
    CHAOS_PANIC_WORKER.store(1, Ordering::SeqCst);
    let (m, best) = set_cover();
    let mut inc = IncrementalSolver::new(
        &m,
        SolverConfig {
            threads: 3,
            ..SolverConfig::default()
        },
    );
    assert!(inc.solve_feasible().solution().is_some());
    assert_eq!(inc.optimize().objective(), Some(best));
    assert_eq!(inc.stats().worker_panics, 1);

    // --- Every worker dies: degrade to the single-thread fallback. ---
    CHAOS_PANIC_WORKER.store(CHAOS_PANIC_ALL, Ordering::SeqCst);
    let m = pigeonhole(5, 4);
    let mut s = solver(3);
    assert_eq!(s.solve(&m), Outcome::Infeasible);
    assert!(
        s.certificate().is_some_and(Certificate::is_certified),
        "certificate after all-dead fallback: {:?}",
        s.certificate()
    );
    assert_eq!(s.stats().worker_panics, 3);

    // --- All dead on a satisfiable model: fallback still solves it. ---
    let (m, best) = set_cover();
    let mut s = solver(3);
    match s.solve(&m) {
        Outcome::Optimal { objective, .. } => assert_eq!(objective, best),
        other => panic!("unexpected {other:?}"),
    }

    // --- All dead on a persistent solver: every query falls back. ---
    let mut inc = IncrementalSolver::new(
        &m,
        SolverConfig {
            threads: 3,
            ..SolverConfig::default()
        },
    );
    assert!(inc.solve_feasible().solution().is_some());
    assert_eq!(inc.optimize().objective(), Some(best));
    assert_eq!(inc.stats().worker_panics, 3);

    // Restore: later tests in this process must not inherit injection.
    CHAOS_PANIC_WORKER.store(usize::MAX, Ordering::SeqCst);

    // --- Injection off: clean portfolio run, zero panics recorded. ---
    let m = pigeonhole(5, 4);
    let mut s = solver(4);
    assert_eq!(s.solve(&m), Outcome::Infeasible);
    assert_eq!(s.stats().worker_panics, 0);
}

/// A probe that keeps publishing deterministic garbage — wrong lengths,
/// empty vectors, constraint-violating assignments — as fast as the
/// portfolio will take it.
struct GarbageHose {
    num_vars: usize,
    calls: AtomicU64,
}

impl HeuristicProbe for GarbageHose {
    fn probe(&self, seed: u64, _stop: &Arc<AtomicBool>) -> Option<Vec<bool>> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut x = seed.wrapping_add(call).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Some(match call % 4 {
            0 => Vec::new(),
            1 => (0..self.num_vars + 3).map(|_| next() & 1 == 1).collect(),
            2 => vec![false; self.num_vars],
            _ => (0..self.num_vars).map(|_| next() & 1 == 1).collect(),
        })
    }
}

/// Probe workers flooding the portfolio with invalid candidates must
/// never corrupt a verdict, an optimum, or a certificate: validation
/// sits between the probe and the shared incumbent.
#[test]
fn garbage_probe_flood_cannot_corrupt_the_race() {
    // UNSAT: infeasibility still proven and certified under the flood.
    let m = pigeonhole(5, 4);
    let probe = GarbageHose {
        num_vars: m.num_vars(),
        calls: AtomicU64::new(0),
    };
    let mut s = solver(2);
    assert_eq!(s.solve_with_probe(&m, &probe), Outcome::Infeasible);
    assert!(
        s.certificate().is_some_and(Certificate::is_certified),
        "certificate under probe flood: {:?}",
        s.certificate()
    );
    assert!(probe.calls.load(Ordering::Relaxed) >= 1, "probe never ran");

    // SAT with an objective: the all-false and random candidates are
    // rejected or dominated; the proven optimum is unchanged.
    let (m, best) = set_cover();
    let probe = GarbageHose {
        num_vars: m.num_vars(),
        calls: AtomicU64::new(0),
    };
    let mut s = solver(2);
    match s.solve_with_probe(&m, &probe) {
        Outcome::Optimal {
            objective,
            solution,
        } => {
            assert_eq!(objective, best);
            assert_eq!(m.check(|v| solution.value(v)), Ok(()));
        }
        other => panic!("unexpected {other:?}"),
    }
}

//! Parallel portfolio solving: N diversified CDCL engines racing on the
//! same model.
//!
//! The paper runs Gurobi with 8 threads; this module is the from-scratch
//! equivalent of Gurobi's *concurrent MIP* mode for our engine. Each
//! worker thread builds its own [`Engine`] over the same constraint
//! database but with a diversified configuration — decision-order seed,
//! randomised tie-breaking, initial polarity, restart schedule, VSIDS
//! on/off — and the workers race:
//!
//! * **Feasibility** (no objective): the first worker to decide SAT or
//!   UNSAT wins and cancels the others through a shared [`AtomicBool`].
//! * **Optimisation** (branch-and-bound): workers share the incumbent
//!   objective through an [`AtomicI64`]; every worker prunes against the
//!   globally best bound, so one worker's lucky incumbent immediately
//!   shrinks everyone else's search space. The first worker to prove
//!   unsatisfiability *under the globally best bound* proves optimality
//!   for the whole portfolio.
//!
//! Workers additionally share learnt clauses through a bounded
//! [`ClauseExchange`], drained at solve start and at restart boundaries.
//! Only *glue* clauses travel — LBD at most `share_lbd`, length at most
//! `share_len` (units always qualify) — so the pool stays small and every
//! import is likely to prune. Entries are tagged with the objective bound
//! under which they were derived: a clause learnt under `obj <= k` is
//! sound for any worker whose own bound is at least as tight (`<= k`),
//! because that worker's constraint set entails the publisher's. Untagged
//! clauses (learnt before any bound) are sound for everyone. The pool is
//! a fixed-capacity ring: old entries are evicted, publication uses
//! `try_lock` so the hot path never blocks on a contended mutex, and a
//! worker never re-imports its own clauses.
//!
//! # Determinism
//!
//! Feasibility verdicts, infeasibility proofs and *optimal objective
//! values* are identical to the single-threaded solver's — they are
//! proofs, not samples. Which satisfying assignment is returned (among
//! equally good ones) and which worker wins the race may vary from run to
//! run. `threads = 1` bypasses the portfolio entirely and is bit-for-bit
//! identical to the sequential solver.
//!
//! # Fault isolation
//!
//! Each worker runs under [`std::panic::catch_unwind`]: a panicking
//! worker is quarantined — its partial state is dropped, the panic is
//! counted in [`SolveStats::worker_panics`], and the race continues on
//! the survivors. Shared state is panic-tolerant by construction: every
//! mutex acquisition recovers from poisoning (the guarded data — a
//! clause pool and an incumbent slot — is always in a consistent state
//! between mutations, so a poison flag carries no information here), and
//! an incumbent is only accepted after re-validation against the
//! original [`Model`], so a corrupted worker cannot smuggle a bogus
//! solution past the race. If *every* worker dies, the portfolio
//! degrades to a fresh single-threaded solve on the calling thread with
//! whatever budget remains rather than returning garbage.

use crate::engine::{Budget, Engine, EngineFeatures, EngineStats, SatResult};
use crate::model::{Cmp, Constraint, LinExpr, Lit, Model, Var};
use crate::normalize::normalize;
use crate::solve::{Assignment, HeuristicProbe, IncumbentSource, Outcome, SolveStats, Solver};
use crate::SolverConfig;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// Chaos-testing hook: when set to a worker index, that worker panics on
/// entry; when set to [`CHAOS_PANIC_ALL`], every worker panics (forcing
/// the all-dead degradation path). `usize::MAX` (the default) disables
/// injection. Test-only — never set in production code.
#[doc(hidden)]
pub static CHAOS_PANIC_WORKER: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Sentinel for [`CHAOS_PANIC_WORKER`]: panic *every* worker.
#[doc(hidden)]
pub const CHAOS_PANIC_ALL: usize = usize::MAX - 1;

/// Locks a mutex, recovering the guard if a panicking worker poisoned
/// it. Sound for the portfolio's shared state because both guarded
/// structures are consistent between mutations (no multi-step critical
/// sections that a mid-flight panic could tear).
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One clause in the exchange pool.
#[derive(Debug, Clone)]
struct SharedClause {
    lits: Vec<Lit>,
    lbd: u32,
    bound_tag: i64,
    worker: usize,
}

/// Ring storage behind the exchange mutex: `base` is the global index of
/// `entries[0]`, so cursors are monotone counters that survive eviction.
#[derive(Debug, Default)]
struct ExchangePool {
    base: usize,
    entries: VecDeque<SharedClause>,
}

/// A bounded, lock-light pool of learnt clauses shared between portfolio
/// workers and drained at solve start and restart boundaries.
///
/// Each entry carries the clause, its LBD, the publishing worker's id
/// (workers skip their own clauses on import) and a `bound_tag`: the
/// clause was learnt while the publisher's objective-bound constraint was
/// `obj <= bound_tag` (`i64::MAX` when no bound had been added). An
/// importer whose current bound `b` satisfies `b <= bound_tag` may
/// soundly attach the clause, because its constraint set entails the
/// publisher's.
///
/// The pool holds at most `capacity` clauses; publishing past capacity
/// evicts the oldest entry, and an importer whose cursor has fallen
/// behind the ring's base simply misses the evicted clauses — sharing is
/// best-effort, never load-bearing. Publication uses `try_lock` and drops
/// the clause on contention for the same reason.
#[derive(Debug)]
pub struct ClauseExchange {
    pool: Mutex<ExchangePool>,
    capacity: usize,
}

impl Default for ClauseExchange {
    fn default() -> Self {
        Self::new()
    }
}

impl ClauseExchange {
    /// Default pool capacity: ample for glue-only sharing, small enough
    /// that a stalled importer never faces an unbounded backlog.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An empty exchange with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty exchange holding at most `capacity` clauses at once.
    pub fn with_capacity(capacity: usize) -> Self {
        ClauseExchange {
            pool: Mutex::new(ExchangePool::default()),
            capacity: capacity.max(1),
        }
    }

    /// Total number of clauses ever published (monotone; evicted entries
    /// still count). New engines start their import cursor here.
    pub fn len(&self) -> usize {
        let pool = lock_recover(&self.pool);
        pool.base + pool.entries.len()
    }

    /// Whether no clauses have ever been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes a clause learnt by `worker`, valid under objective bound
    /// `bound_tag`. Best-effort: returns `false` (dropping the clause)
    /// when the pool mutex is contended.
    pub fn publish(&self, worker: usize, lits: &[Lit], lbd: u32, bound_tag: i64) -> bool {
        let mut pool = match self.pool.try_lock() {
            Ok(pool) => pool,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        if pool.entries.len() == self.capacity {
            pool.entries.pop_front();
            pool.base += 1;
        }
        pool.entries.push_back(SharedClause {
            lits: lits.to_vec(),
            lbd,
            bound_tag,
            worker,
        });
        true
    }

    /// Visits every clause published since `*cursor` that did not come
    /// from `my_id` and whose bound tag is compatible with `my_bound`,
    /// advancing the cursor past everything seen (incompatible clauses
    /// can never become compatible, because bounds only tighten; clauses
    /// evicted before the cursor caught up are silently missed).
    pub fn import_since(
        &self,
        cursor: &mut usize,
        my_bound: i64,
        my_id: usize,
        mut f: impl FnMut(&[Lit], u32),
    ) {
        let pool = lock_recover(&self.pool);
        let start = (*cursor).max(pool.base) - pool.base;
        for c in pool.entries.iter().skip(start) {
            if c.worker != my_id && my_bound <= c.bound_tag {
                f(&c.lits, c.lbd);
            }
        }
        *cursor = pool.base + pool.entries.len();
    }
}

/// What one worker concluded (beyond incumbents, which are shared as
/// they are found).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerVerdict {
    /// Found a satisfying assignment in a pure feasibility race.
    FoundSat,
    /// Proved the base model infeasible.
    Infeasible,
    /// Proved there is no solution with objective `<= bound`; combined
    /// with the shared incumbent this is an optimality proof.
    ExhaustedBelow(i64),
    /// Stopped without a proof (budget, cancellation).
    Inconclusive,
}

/// State shared by all portfolio workers.
struct Shared {
    /// Cooperative cancellation: set once any worker reaches a verdict
    /// that decides the whole solve. Behind an `Arc` so each engine can
    /// hold a clone as its interrupt hook.
    stop: Arc<AtomicBool>,
    /// Best incumbent objective value (`i64::MAX` = none yet). Behind an
    /// `Arc` so each engine can watch it from inside its search loop
    /// (see [`Engine::set_bound_watch`]) and react to a foreign
    /// incumbent mid-solve instead of at the next solve call.
    best_objective: Arc<AtomicI64>,
    /// Best incumbent assignment and where it came from, guarded
    /// separately from the atomic so readers of `best_objective` never
    /// block.
    incumbent: Mutex<Option<(Assignment, i64, IncumbentSource)>>,
    /// Learnt-clause pool.
    exchange: Arc<ClauseExchange>,
}

impl Shared {
    /// Records an incumbent if it improves on the global best. Returns
    /// whether it was accepted.
    fn offer_incumbent(
        &self,
        solution: Assignment,
        objective: i64,
        source: IncumbentSource,
    ) -> bool {
        let mut slot = lock_recover(&self.incumbent);
        let improves = slot
            .as_ref()
            .map(|&(_, b, _)| objective < b)
            .unwrap_or(true);
        if improves {
            *slot = Some((solution, objective, source));
            self.best_objective.fetch_min(objective, Ordering::SeqCst);
        }
        improves
    }
}

/// The diversified configuration for worker `w` of `n`.
///
/// Worker 0 is pinned to the solver's baseline configuration *verbatim*
/// — not even the seed is overridden — so its search trace up to the
/// first decisive verdict is the sequential solver's and `threads > 1`
/// can never lose a cell that `threads = 1` decides (it also skips
/// clause imports and keeps the full memory cap; see [`run_worker`]).
/// The rest vary seed, tie-breaking, polarity and restart cadence, with
/// one static-order (VSIDS-off) worker in portfolios of four or more.
fn worker_features(base: EngineFeatures, seed: u64, w: usize, n: usize) -> EngineFeatures {
    if w == 0 {
        return base;
    }
    let restart_bases = [256u64, 64, 512, 128, 1024, 32];
    let mut f = EngineFeatures {
        seed: seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w as u64 + 1)),
        random_tiebreak: true,
        default_phase: w % 2 == 1,
        restart_base: restart_bases[w % restart_bases.len()],
        ..base
    };
    if w == 3 && n >= 4 {
        // One worker searches in static order: occasionally dramatically
        // better on structured instances, and maximally decorrelated
        // from the VSIDS workers.
        f.vsids = false;
        f.random_tiebreak = false;
    }
    f
}

/// Builds a fresh engine over `model` with the given features. Returns
/// `None` if root-level propagation already refutes the model.
fn build_engine(
    model: &Model,
    features: EngineFeatures,
    mem_limit: Option<usize>,
) -> Option<Engine> {
    let mut engine = Engine::new(model.num_vars());
    engine.set_features(features);
    if let Some(bytes) = mem_limit {
        engine.set_mem_limit(bytes);
    }
    for &(var, priority, phase) in model.branch_hints() {
        engine.set_branch_hint(var, priority, phase);
    }
    for c in model.constraints() {
        for nc in normalize(c) {
            if !engine.add_norm(nc) {
                return None;
            }
        }
    }
    Some(engine)
}

/// One worker's branch-and-bound loop. Returns its verdict, stats and
/// the number of times it consumed a globally improved bound mid-solve.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    model: &Model,
    objective: Option<&LinExpr>,
    features: EngineFeatures,
    budget: Budget,
    shared: &Shared,
    incumbents_found: &AtomicI64,
    worker_id: usize,
    mem_limit: Option<usize>,
) -> (WorkerVerdict, EngineStats, u64) {
    let chaos = CHAOS_PANIC_WORKER.load(Ordering::Relaxed);
    if chaos == worker_id || chaos == CHAOS_PANIC_ALL {
        panic!("chaos injection: worker {worker_id} deliberately panicked");
    }
    let Some(mut engine) = build_engine(model, features, mem_limit) else {
        return (WorkerVerdict::Infeasible, EngineStats::default(), 0);
    };
    engine.set_interrupt(Arc::clone(&shared.stop));
    engine.set_exchange(Arc::clone(&shared.exchange), worker_id, model.num_vars());
    if worker_id == 0 {
        // The pinned worker exports clauses but never imports: a foreign
        // clause would perturb its search away from the sequential trace
        // it is pinned to reproduce.
        engine.set_exchange_import(false);
    }
    if objective.is_some() {
        // React to foreign incumbents *inside* the search: when the
        // global best drops below this worker's own bound, the engine
        // yields Unknown at its next poll and the loop below re-enters
        // with the tighter permanent constraint.
        engine.set_bound_watch(Arc::clone(&shared.best_objective));
    }

    // The bound this worker has constrained the objective to (i64::MAX =
    // no bound constraint added yet). Only ever tightens.
    let mut my_bound = i64::MAX;
    // Times this worker was woken by the bound watch and re-entered with
    // a strictly tighter bound.
    let mut tightenings = 0u64;

    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return (WorkerVerdict::Inconclusive, engine.stats(), tightenings);
        }
        // Prune against the globally best incumbent before searching.
        if let Some(obj) = objective {
            let global = shared.best_objective.load(Ordering::SeqCst);
            if global != i64::MAX && my_bound > global.saturating_sub(1) {
                let target = global - 1;
                let bound = Constraint {
                    expr: obj.clone(),
                    cmp: Cmp::Le,
                    rhs: target,
                };
                my_bound = target;
                engine.set_bound_tag(my_bound);
                let mut closed = false;
                for nc in normalize(&bound) {
                    if !engine.add_norm(nc) {
                        closed = true;
                        break;
                    }
                }
                if closed {
                    return (
                        WorkerVerdict::ExhaustedBelow(my_bound),
                        engine.stats(),
                        tightenings,
                    );
                }
            }
        }
        match engine.solve(budget) {
            SatResult::Unsat => {
                let verdict = if my_bound == i64::MAX {
                    WorkerVerdict::Infeasible
                } else {
                    WorkerVerdict::ExhaustedBelow(my_bound)
                };
                return (verdict, engine.stats(), tightenings);
            }
            SatResult::Unknown => {
                // Distinguish a bound-watch wake-up from budget
                // exhaustion: woken workers loop back (the top of the
                // loop posts the strictly tighter bound, so this
                // terminates — each wake requires a strictly better
                // global incumbent), exhausted ones retire.
                let woken = objective.is_some() && {
                    let global = shared.best_objective.load(Ordering::SeqCst);
                    global != i64::MAX && my_bound > global.saturating_sub(1)
                };
                let live = !shared.stop.load(Ordering::Relaxed)
                    && budget.deadline.is_none_or(|d| Instant::now() < d);
                if woken && live {
                    tightenings += 1;
                    continue;
                }
                return (WorkerVerdict::Inconclusive, engine.stats(), tightenings);
            }
            SatResult::Sat => {
                let solution = Assignment::from_values(
                    (0..model.num_vars())
                        .map(|i| engine.model_value(Var(i as u32)))
                        .collect(),
                );
                // Hard validation gate: a worker whose engine produced a
                // witness violating the original model is faulty — treat
                // it as dead rather than poisoning the shared incumbent.
                if model.check(|v| solution.value(v)).is_err() {
                    return (WorkerVerdict::Inconclusive, engine.stats(), tightenings);
                }
                let Some(obj) = objective else {
                    shared.offer_incumbent(solution, 0, IncumbentSource::Solver);
                    return (WorkerVerdict::FoundSat, engine.stats(), tightenings);
                };
                let val = obj.evaluate(|v| solution.value(v));
                incumbents_found.fetch_add(1, Ordering::Relaxed);
                shared.offer_incumbent(solution, val, IncumbentSource::Solver);
                // Loop: the next iteration tightens to the global best
                // (which now includes this incumbent) and keeps searching.
            }
        }
    }
}

/// One heuristic-probe worker: repeatedly runs the probe with
/// diversified seeds, re-validates every candidate against the model,
/// and publishes validated solutions as shared incumbents. In a pure
/// feasibility race a single validated candidate decides the solve; with
/// an objective the worker keeps racing for improvements until the
/// budget ends, the race is decided, or the probe source is exhausted
/// (returns `None`).
///
/// Probes never produce verdicts: an invalid candidate is discarded and
/// the worker simply tries again, so a buggy or adversarial probe can
/// waste its own thread but cannot flip a verdict or corrupt the race.
#[allow(clippy::too_many_arguments)]
fn run_probe_worker(
    model: &Model,
    objective: Option<&LinExpr>,
    probe: &dyn HeuristicProbe,
    budget: Budget,
    shared: &Shared,
    probe_incumbents: &AtomicI64,
    worker_id: usize,
    seed: u64,
) {
    let mut attempt = 0u64;
    loop {
        // The first call is unconditional: a race decided before this
        // thread was scheduled still runs the probe once, and the probe
        // contract (poll `stop`) makes that call return promptly.
        if attempt > 0
            && (shared.stop.load(Ordering::Relaxed)
                || budget.deadline.is_some_and(|d| Instant::now() >= d))
        {
            return;
        }
        attempt += 1;
        let diversified =
            seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(((worker_id as u64) << 24) | attempt);
        let Some(values) = probe.probe(diversified, &shared.stop) else {
            return; // source exhausted — retire this worker
        };
        if values.len() != model.num_vars() {
            continue;
        }
        let solution = Assignment::from_values(values);
        // Validation gate: nothing a probe says is trusted unchecked.
        if model.check(|v| solution.value(v)).is_err() {
            continue;
        }
        match objective {
            None => {
                // A validated assignment decides the feasibility race.
                shared.offer_incumbent(solution, 0, IncumbentSource::Heuristic);
                probe_incumbents.fetch_add(1, Ordering::Relaxed);
                shared.stop.store(true, Ordering::SeqCst);
                return;
            }
            Some(obj) => {
                let val = obj.evaluate(|v| solution.value(v));
                if shared.offer_incumbent(solution, val, IncumbentSource::Heuristic) {
                    probe_incumbents.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Solves `model` with a portfolio of `threads` diversified workers.
///
/// Called by [`crate::Solver::solve`] when `config.threads > 1`; not
/// intended to be used directly.
pub(crate) fn solve_portfolio(
    model: &Model,
    config: &SolverConfig,
    threads: usize,
    probe: Option<&dyn HeuristicProbe>,
    stats: &mut SolveStats,
    deadline: Option<Instant>,
    interrupt: Option<&Arc<AtomicBool>>,
) -> Outcome {
    let start = Instant::now();
    let budget = Budget {
        deadline,
        conflict_limit: config.conflict_limit,
    };
    let objective = model.objective().map(LinExpr::normalized);

    let shared = Shared {
        stop: Arc::new(AtomicBool::new(false)),
        best_objective: Arc::new(AtomicI64::new(i64::MAX)),
        incumbent: Mutex::new(None),
        exchange: Arc::new(ClauseExchange::new()),
    };
    let incumbents_found = AtomicI64::new(0);
    let probe_incumbents = AtomicI64::new(0);
    let probe_panics = AtomicUsize::new(0);
    // Heuristic probes race on their own threads, first-class members of
    // the portfolio: `probe_workers` scales the count, and supplying a
    // probe always engages at least one.
    let probe_threads = if probe.is_some() {
        config.probe_workers.max(1)
    } else {
        0
    };
    // Split the memory budget evenly; keep a sane per-worker floor so a
    // huge portfolio under a tiny cap does not strangle every engine.
    // Worker 0 is exempt: it is pinned to reproduce the sequential
    // solver, which runs under the full cap.
    let worker_mem = config.mem_limit.map(|m| (m / threads.max(1)).max(1 << 16));

    // `None` = the worker panicked and was quarantined.
    let results: Vec<Option<(WorkerVerdict, EngineStats, u64)>> = std::thread::scope(|scope| {
        // Relay an external cancellation flag (e.g. a serving layer's
        // shutdown signal) into the portfolio's own stop flag. The relay
        // must not *be* the stop flag: the race sets `stop` on every
        // decisive verdict, and that must never leak back into the
        // caller's flag.
        if let Some(external) = interrupt {
            let stop = Arc::clone(&shared.stop);
            let external = Arc::clone(external);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if external.load(Ordering::Relaxed) {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        for p in 0..probe_threads {
            let probe = probe.expect("probe_threads > 0 implies a probe");
            let shared = &shared;
            let objective = objective.as_ref();
            let probe_incumbents = &probe_incumbents;
            let probe_panics = &probe_panics;
            let seed = config.seed;
            scope.spawn(move || {
                // Quarantined like CDCL workers: a panicking probe is
                // dropped and the exact race continues without it.
                if catch_unwind(AssertUnwindSafe(|| {
                    run_probe_worker(
                        model,
                        objective,
                        probe,
                        budget,
                        shared,
                        probe_incumbents,
                        p,
                        seed,
                    )
                }))
                .is_err()
                {
                    probe_panics.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let features = worker_features(config.features, config.seed, w, threads);
                let shared = &shared;
                let objective = objective.as_ref();
                let incumbents_found = &incumbents_found;
                let mem = if w == 0 { config.mem_limit } else { worker_mem };
                scope.spawn(move || {
                    // Quarantine panics: the worker's state is dropped,
                    // the race continues on the survivors.
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        run_worker(
                            model,
                            objective,
                            features,
                            budget,
                            shared,
                            incumbents_found,
                            w,
                            mem,
                        )
                    }))
                    .ok();
                    // A decisive verdict ends the race for everyone.
                    if matches!(&out, Some((v, _, _)) if *v != WorkerVerdict::Inconclusive) {
                        shared.stop.store(true, Ordering::SeqCst);
                    }
                    out
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or(None))
            .collect();
        // Every worker is done: release the relay thread (if any) so the
        // scope can join it even when no verdict set the flag.
        shared.stop.store(true, Ordering::SeqCst);
        results
    });

    // Aggregate statistics across workers.
    let panics = results.iter().filter(|r| r.is_none()).count() as u32
        + probe_panics.load(Ordering::Relaxed) as u32;
    let mut engine = EngineStats::default();
    let mut winner = None;
    let mut bound_tightenings = 0u64;
    for (w, (verdict, s, tightenings)) in results
        .iter()
        .enumerate()
        .filter_map(|(w, r)| r.as_ref().map(|triple| (w, triple)))
    {
        bound_tightenings += tightenings;
        engine.conflicts += s.conflicts;
        engine.decisions += s.decisions;
        engine.propagations += s.propagations;
        engine.restarts += s.restarts;
        engine.deleted_clauses += s.deleted_clauses;
        engine.learnt_clauses += s.learnt_clauses;
        engine.lbd_total += s.lbd_total;
        engine.deleted_mid += s.deleted_mid;
        engine.deleted_local += s.deleted_local;
        engine.kept_core += s.kept_core;
        engine.kept_mid += s.kept_mid;
        engine.kept_local += s.kept_local;
        engine.imported_clauses += s.imported_clauses;
        engine.exported_clauses += s.exported_clauses;
        engine.inprocessings += s.inprocessings;
        engine.vivified_lits += s.vivified_lits;
        engine.subsumed_clauses += s.subsumed_clauses;
        engine.strengthened_lits += s.strengthened_lits;
        engine.gc_runs += s.gc_runs;
        if winner.is_none() && *verdict != WorkerVerdict::Inconclusive {
            winner = Some(w as u32);
        }
    }
    stats.engine = engine;
    stats.incumbents = incumbents_found.load(Ordering::Relaxed).max(0) as u64;
    stats.workers = threads as u32;
    stats.winner = winner;
    stats.worker_panics = panics;
    stats.probe_workers = probe_threads as u32;
    stats.probe_incumbents = probe_incumbents.load(Ordering::Relaxed).max(0) as u64;
    stats.bound_tightenings = bound_tightenings;
    stats.elapsed = start.elapsed();

    // Graceful degradation: every worker died before reaching any
    // conclusion. Rather than reporting Unknown on a healthy model, run
    // a fresh single-threaded solve on the calling thread with whatever
    // wall-clock budget remains.
    if results.iter().all(Option::is_none) {
        let fallback = SolverConfig {
            threads: 1,
            presolve: false,
            // The outer caller certifies Infeasible answers itself.
            certify: false,
            time_limit: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            ..*config
        };
        let mut solver = Solver::with_config(fallback);
        if let Some(flag) = interrupt {
            solver.set_interrupt(Arc::clone(flag));
        }
        let out = match probe {
            Some(p) => solver.solve_with_probe(model, p),
            None => solver.solve(model),
        };
        let fb = solver.stats();
        stats.engine = fb.engine;
        stats.incumbents = fb.incumbents;
        stats.probe_workers += fb.probe_workers;
        stats.probe_incumbents += fb.probe_incumbents;
        stats.incumbent_source = fb.incumbent_source;
        stats.winner = None;
        stats.elapsed = start.elapsed();
        return out;
    }

    // Re-validate the final incumbent against the original model: the
    // per-worker gate already filtered engine-level corruption, but the
    // slot itself could have been written by a worker that later
    // panicked, so trust nothing that does not check out.
    let incumbent = lock_recover(&shared.incumbent)
        .take()
        .filter(|(sol, _, _)| model.check(|v| sol.value(v)) == Ok(()));
    if let Some((_, _, source)) = &incumbent {
        stats.incumbent_source = Some(*source);
    }
    let verdicts = || results.iter().filter_map(|r| r.as_ref().map(|(v, _, _)| v));
    let infeasible = verdicts().any(|v| *v == WorkerVerdict::Infeasible);
    let exhausted = verdicts()
        .filter_map(|v| match v {
            WorkerVerdict::ExhaustedBelow(b) => Some(*b),
            _ => None,
        })
        .max();

    match (incumbent, objective) {
        // Feasibility race: a worker (or a validated probe) decided SAT.
        (Some((solution, _, _)), None) => Outcome::Optimal {
            solution,
            objective: 0,
        },
        (Some((solution, objective, _)), Some(_)) => {
            // Optimal iff some worker exhausted the space below the best
            // incumbent. `exhausted >= objective - 1` can only hold with
            // equality (a strictly better incumbent would contradict the
            // exhaustion proof), but compare defensively.
            let proven = exhausted.map(|b| b >= objective - 1).unwrap_or(false);
            if proven {
                Outcome::Optimal {
                    solution,
                    objective,
                }
            } else {
                Outcome::Feasible {
                    solution,
                    objective,
                }
            }
        }
        (None, _) if infeasible => Outcome::Infeasible,
        (None, _) => Outcome::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker 0 is pinned to the undiversified sequential configuration:
    /// whatever the `threads = 1` engine decides, one portfolio member
    /// is always running that exact search, so raising the thread count
    /// can never lose a verdict the sequential solver finds in budget.
    #[test]
    fn worker_zero_runs_the_sequential_configuration() {
        let base = EngineFeatures::default();
        for n in [2usize, 4, 8] {
            assert_eq!(worker_features(base, 42, 0, n), base, "n = {n}");
        }
        // Diversified workers genuinely differ from the base.
        assert_ne!(worker_features(base, 42, 1, 4), base);
    }
}

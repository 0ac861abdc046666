//! Parallel solving: N ≥ 2 persistent descents racing on one model.
//!
//! The paper runs Gurobi with 8 threads; this module is the from-scratch
//! equivalent of Gurobi's *concurrent MIP* mode for our engine.
//! [`IncrementalSolver`](crate::IncrementalSolver) holds one persistent
//! descent per engine; with more than one, every query races them on
//! scoped threads. Each engine has its own diversified configuration
//! (decision-order seed, randomised tie-breaking, initial polarity,
//! restart schedule, VSIDS on/off), and
//! each runs the same descent as a single engine does, sharing three
//! things with the others:
//!
//! * **The incumbent.** Every solution a worker finds goes to one shared
//!   slot (an [`AtomicI64`] objective plus the assignment under a
//!   mutex). A worker that sees a better one adopts it as its own best
//!   and posts the next *reified* bound below it, exactly as it would
//!   after finding it itself; the engine's bound watch wakes a worker
//!   mid-search when that happens. Validated heuristic-probe candidates
//!   enter the same slot.
//! * **Learnt clauses**, through a bounded [`ClauseExchange`] drained at
//!   solve start and at restart boundaries. Only *glue* clauses travel —
//!   LBD at most `share_lbd`, length at most `share_len` (units always
//!   qualify). Activation variables of reified bounds never leave their
//!   engine, so every clause in the pool is implied by the model alone
//!   and any worker may import it whatever bound it has reached. The
//!   pool is a fixed-capacity ring: old entries are evicted, publication
//!   uses `try_lock` so the hot path never blocks on a contended mutex,
//!   and a worker never re-imports its own clauses.
//! * **The verdict.** The first decisive answer — a feasibility query's
//!   solution or refutation, an optimality or infeasibility proof, or an
//!   incumbent at [`SolverConfig::objective_stop`] — ends the race
//!   through a shared stop flag that every engine polls.
//!
//! # Determinism
//!
//! Feasibility verdicts, infeasibility proofs and *optimal objective
//! values* are identical to a single engine's — they are proofs, not
//! samples. Which satisfying assignment is returned (among equally good
//! ones) and which worker wins the race may vary from run to run. One
//! engine never enters this module and is bit-for-bit deterministic.
//!
//! # Fault isolation
//!
//! Each worker runs under [`std::panic::catch_unwind`]: a panicking
//! worker is quarantined — its descent is dropped for good, the panic is
//! counted in [`SolveStats::worker_panics`], and the race continues on
//! the survivors. Shared state is panic-tolerant by construction: every
//! mutex acquisition recovers from poisoning (the guarded data is always
//! consistent between mutations, so a poison flag carries no information
//! here), and the final answer is re-validated against the model, so a
//! corrupted worker cannot smuggle a bogus solution past the race. Once
//! *every* worker is dead, each query runs on one fresh base-config
//! descent on the calling thread instead.

use crate::engine::{EngineFeatures, EngineStats};
use crate::model::{Lit, Model};
use crate::solve::{
    validate, Assignment, Descent, HeuristicProbe, IncumbentSource, Outcome, Query,
};
use crate::{SolveStats, SolverConfig};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
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
/// it. Sound for the race's shared state because every guarded
/// structure is consistent between mutations (no multi-step critical
/// sections that a mid-flight panic could tear).
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// One clause in the exchange pool.
#[derive(Debug, Clone)]
struct SharedClause {
    lits: Vec<Lit>,
    lbd: u32,
    worker: usize,
}

/// Ring storage behind the exchange mutex: `base` is the global index of
/// `entries[0]`, so cursors are monotone counters that survive eviction.
#[derive(Debug, Default)]
struct ExchangePool {
    base: usize,
    entries: VecDeque<SharedClause>,
}

/// A bounded, lock-light pool of learnt clauses shared between racing
/// engines and drained at solve start and restart boundaries.
///
/// Each entry carries the clause, its LBD and the publishing worker's id
/// (workers skip their own clauses on import). Publishers keep clauses
/// that mention engine-local variables out of the pool, so every entry
/// is implied by the model alone and any worker may import any entry.
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

    /// Publishes a clause learnt by `worker`. Best-effort: returns
    /// `false` (dropping the clause) when the pool mutex is contended.
    pub fn publish(&self, worker: usize, lits: &[Lit], lbd: u32) -> bool {
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
            worker,
        });
        true
    }

    /// Visits every clause published since `*cursor` that did not come
    /// from `my_id`, advancing the cursor past everything seen (clauses
    /// evicted before the cursor caught up are silently missed).
    pub fn import_since(&self, cursor: &mut usize, my_id: usize, mut f: impl FnMut(&[Lit], u32)) {
        let pool = lock_recover(&self.pool);
        let start = (*cursor).max(pool.base) - pool.base;
        for c in pool.entries.iter().skip(start) {
            if c.worker != my_id {
                f(&c.lits, c.lbd);
            }
        }
        *cursor = pool.base + pool.entries.len();
    }
}

/// The first decisive answer of one query.
#[derive(Debug)]
struct Verdict {
    /// The worker that gave it; `None` for a probe.
    worker: Option<usize>,
    outcome: Outcome,
    /// Unsat core in the racing engines' literals.
    core: Vec<Lit>,
    source: IncumbentSource,
}

/// State the racing descents of one solver share, across all its queries.
#[derive(Debug)]
pub(crate) struct Race {
    /// Cooperative cancellation: every engine's interrupt flag. Set once
    /// a query is decided, and after every race so the helper threads
    /// exit; cleared when the next query starts.
    stop: Arc<AtomicBool>,
    /// Best incumbent objective value (`i64::MAX` = none yet), watched by
    /// every engine from inside its search loop (see
    /// [`crate::Engine::set_bound_watch`]).
    best_objective: Arc<AtomicI64>,
    /// Best incumbent assignment and where it came from, guarded
    /// separately from the atomic so readers of `best_objective` never
    /// block. Incumbents are model solutions, so the slot stays valid
    /// from one query to the next.
    incumbent: Mutex<Option<(Assignment, i64, IncumbentSource)>>,
    /// The current query's first decisive answer.
    verdict: Mutex<Option<Verdict>>,
}

impl Race {
    /// Loads `model` into `n` diversified descents wired to one race.
    /// `Err` carries the engine stats when the model is refuted at the
    /// root.
    pub(crate) fn enlist(
        model: &Model,
        config: &SolverConfig,
        n: usize,
    ) -> Result<(Race, Vec<Option<Descent>>), Box<EngineStats>> {
        let race = Race {
            stop: Arc::new(AtomicBool::new(false)),
            best_objective: Arc::new(AtomicI64::new(i64::MAX)),
            incumbent: Mutex::new(None),
            verdict: Mutex::new(None),
        };
        let exchange = Arc::new(ClauseExchange::new());
        // Split the memory budget evenly; keep a sane per-worker floor so
        // a huge race under a tiny cap does not strangle every engine.
        // Worker 0 runs the single engine's configuration under the full
        // cap.
        let worker_mem = config.mem_limit.map(|m| (m / n).max(1 << 16));
        let mut engines = Vec::with_capacity(n);
        for w in 0..n {
            let features = worker_features(config.features, config.seed, w, n);
            let mem = if w == 0 { config.mem_limit } else { worker_mem };
            let mut descent = Descent::build(model, features, mem)?;
            let engine = &mut descent.engine;
            engine.set_interrupt(Arc::clone(&race.stop));
            engine.set_exchange(Arc::clone(&exchange), w, model.num_vars());
            // Worker 0 exports clauses but never imports: a foreign
            // clause would move its search off the single engine's.
            engine.set_exchange_import(w != 0);
            if model.objective().is_some() {
                engine.set_bound_watch(Arc::clone(&race.best_objective));
            }
            engines.push(Some(descent));
        }
        Ok((race, engines))
    }

    /// Offers an incumbent to the shared slot. Returns whether it
    /// improved on the best one.
    pub(crate) fn offer(
        &self,
        solution: &Assignment,
        objective: i64,
        source: IncumbentSource,
    ) -> bool {
        let mut slot = lock_recover(&self.incumbent);
        if slot.as_ref().is_some_and(|&(_, best, _)| objective >= best) {
            return false;
        }
        *slot = Some((solution.clone(), objective, source));
        self.best_objective.fetch_min(objective, Ordering::SeqCst);
        true
    }

    /// The shared incumbent, when it is strictly better than `own`.
    pub(crate) fn better_than(
        &self,
        own: Option<i64>,
    ) -> Option<(Assignment, i64, IncumbentSource)> {
        if !self.improves_on(own) {
            return None;
        }
        lock_recover(&self.incumbent)
            .clone()
            .filter(|&(_, objective, _)| own.is_none_or(|o| objective < o))
    }

    fn improves_on(&self, own: Option<i64>) -> bool {
        let global = self.best_objective.load(Ordering::SeqCst);
        global != i64::MAX && own.is_none_or(|o| global < o)
    }

    /// Whether a descent holding the incumbent `own` whose search
    /// stopped undecided should re-enter: the race is still live and a
    /// strictly better incumbent woke it (its bound watch fired).
    pub(crate) fn woke(&self, own: Option<i64>, deadline: Option<Instant>) -> bool {
        self.improves_on(own)
            && !self.stop.load(Ordering::Relaxed)
            && deadline.is_none_or(|d| Instant::now() < d)
    }

    /// Records the query's first decisive answer and ends the race.
    fn settle(&self, verdict: Verdict) {
        lock_recover(&self.verdict).get_or_insert(verdict);
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// The diversified configuration for worker `w` of `n`.
///
/// Worker 0 is pinned to the solver's baseline configuration *verbatim*
/// — not even the seed is overridden — so until a foreign incumbent
/// reaches it, it runs the single engine's descent (it also skips clause
/// imports and keeps the full memory cap; see [`Race::enlist`]).
/// The rest vary seed, tie-breaking, polarity and restart cadence, with
/// one static-order (VSIDS-off) worker in races of four or more.
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

/// One heuristic-probe worker: repeatedly runs the probe with
/// diversified seeds, re-validates every candidate against the model,
/// and offers validated solutions as shared incumbents. A candidate that
/// answers the query on its own (see [`Query::settles`]) decides the
/// race; otherwise the worker keeps racing for improvements until the
/// budget ends, the race is decided, or the probe source is exhausted
/// (returns `None`).
///
/// Probes never produce refutations: an invalid candidate is discarded
/// and the worker simply tries again, so a buggy or adversarial probe
/// can waste its own thread but cannot flip a verdict or corrupt the
/// race.
fn run_probe_worker(
    model: &Model,
    probe: &dyn HeuristicProbe,
    q: &Query,
    race: &Race,
    accepted: &AtomicU64,
    worker: usize,
    seed: u64,
) {
    let mut attempt = 0u64;
    loop {
        // The first call is unconditional: a race decided before this
        // thread was scheduled still runs the probe once, and the probe
        // contract (poll `stop`) makes that call return promptly.
        if attempt > 0
            && (race.stop.load(Ordering::Relaxed)
                || q.budget.deadline.is_some_and(|d| Instant::now() >= d))
        {
            return;
        }
        attempt += 1;
        let diversified =
            seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(((worker as u64) << 24) | attempt);
        let Some(values) = probe.probe(diversified, &race.stop) else {
            return; // source exhausted — retire this worker
        };
        // Validation gate: nothing a probe says is trusted unchecked.
        let Some((solution, objective)) = validate(model, values) else {
            continue;
        };
        let improved = race.offer(&solution, objective, IncumbentSource::Heuristic);
        let outcome = Outcome::found(model, solution, objective);
        if q.settles(&outcome) {
            accepted.fetch_add(1, Ordering::Relaxed);
            race.settle(Verdict {
                worker: None,
                outcome,
                core: Vec::new(),
                source: IncumbentSource::Heuristic,
            });
            return;
        }
        if improved {
            accepted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Answers `q` by racing every live descent in `engines` on scoped
/// threads, next to `config.probe_workers` probe threads (at least one)
/// when a probe is supplied. Updates the race attribution fields of
/// `stats`; the caller tallies the engines' work. A worker that panics
/// is quarantined: its slot becomes `None` for good.
///
/// The answer is the first decisive one; failing that, an optimising
/// query reports the best shared incumbent as [`Outcome::Feasible`] and
/// a feasibility query reports [`Outcome::Unknown`]. A solution is
/// re-validated against `model` before it is returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn race(
    race: &Race,
    engines: &mut [Option<Descent>],
    model: &Model,
    q: &Query,
    probe: Option<&dyn HeuristicProbe>,
    config: &SolverConfig,
    interrupt: Option<&Arc<AtomicBool>>,
    stats: &mut SolveStats,
) -> (Outcome, Vec<Lit>) {
    race.stop.store(false, Ordering::SeqCst);
    *lock_recover(&race.verdict) = None;
    let probe_threads = if probe.is_some() {
        config.probe_workers.max(1)
    } else {
        0
    };
    let accepted = AtomicU64::new(0);
    let panics = AtomicU32::new(0);
    std::thread::scope(|scope| {
        // Relay an external cancellation flag (e.g. a serving layer's
        // shutdown signal) into the race's own stop flag. The relay must
        // not *be* the stop flag: the race sets `stop` on every decisive
        // verdict, and that must never leak back into the caller's flag.
        if let Some(external) = interrupt {
            let stop = Arc::clone(&race.stop);
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
            let (accepted, panics) = (&accepted, &panics);
            scope.spawn(move || {
                // Quarantined like CDCL workers: a panicking probe is
                // dropped and the exact race continues without it.
                let run = || run_probe_worker(model, probe, q, race, accepted, p, config.seed);
                if catch_unwind(AssertUnwindSafe(run)).is_err() {
                    panics.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let workers: Vec<_> = engines
            .iter_mut()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(w, slot)| {
                let panics = &panics;
                scope.spawn(move || {
                    let answered = catch_unwind(AssertUnwindSafe(|| {
                        let chaos = CHAOS_PANIC_WORKER.load(Ordering::Relaxed);
                        if chaos == w || chaos == CHAOS_PANIC_ALL {
                            panic!("chaos injection: worker {w} deliberately panicked");
                        }
                        let descent = slot.as_mut().expect("only live workers race");
                        let mut core = Vec::new();
                        let outcome = descent.answer(model, q, Some(race), &mut core);
                        (outcome, core, descent.best_source)
                    }));
                    match answered {
                        Ok((outcome, core, source)) if q.settles(&outcome) => {
                            race.settle(Verdict {
                                worker: Some(w),
                                outcome,
                                core,
                                source,
                            });
                        }
                        Ok(_) => {}
                        Err(_) => {
                            // Quarantine: the descent's state is dropped
                            // and it sits out every later query.
                            *slot = None;
                            panics.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker
                .join()
                .expect("a worker's panic is caught inside the worker");
        }
        // Every worker is done: release the relay and probe threads so
        // the scope can join them even when no verdict set the flag.
        race.stop.store(true, Ordering::SeqCst);
    });

    stats.worker_panics += panics.into_inner();
    if probe_threads > 0 {
        stats.probe_workers = probe_threads as u32;
    }
    stats.probe_incumbents += accepted.into_inner();
    let verdict = lock_recover(&race.verdict).take();
    stats.winner = verdict.as_ref().and_then(|v| v.worker).map(|w| w as u32);
    let (outcome, core, source) = match verdict {
        Some(v) => (v.outcome, v.core, v.source),
        None if q.optimize => match lock_recover(&race.incumbent).clone() {
            Some((solution, objective, source)) => (
                Outcome::Feasible {
                    solution,
                    objective,
                },
                Vec::new(),
                source,
            ),
            None => (Outcome::Unknown, Vec::new(), IncumbentSource::Solver),
        },
        None => (Outcome::Unknown, Vec::new(), IncumbentSource::Solver),
    };
    // Re-validate the answer against the model: trust nothing from a
    // worker that does not check out.
    match outcome.solution() {
        Some(s) if model.check(|v| s.value(v)).is_err() => (Outcome::Unknown, Vec::new()),
        Some(_) => {
            stats.incumbent_source = Some(source);
            (outcome, core)
        }
        None => (outcome, core),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker 0 is pinned to the undiversified single-engine
    /// configuration: until a foreign incumbent reaches it, one racing
    /// descent is always running the `threads = 1` search.
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

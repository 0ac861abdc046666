//! The public solving interface: feasibility and branch-and-bound
//! optimisation on top of the CDCL engine.
//!
//! Optimisation is an **incremental assumption-based descent**: a
//! persistent engine holds the model; each incumbent's strengthened bound
//! `obj <= val - 1` is added *reified* under a fresh activation literal
//! and probed by assuming the activation chain, never as a permanent
//! constraint. Every clause the engine learns therefore remains valid for
//! the whole descent (and for later queries with different assumption
//! sets), which is the main solver-side lever on the repeated,
//! nearly-identical queries of the CGRA min-II ladder.
//! [`IncrementalSolver`] runs this descent, on one engine or as a race
//! of several (see [`crate::portfolio`]); [`Solver`] keeps the one-shot
//! interface on top of it.

use crate::checker::{self, CheckOutcome};
use crate::engine::{Budget, Engine, EngineFeatures, EngineStats, SatResult};
use crate::model::{Cmp, Constraint, LinExpr, Lit, Model, Var};
use crate::normalize::{normalize, NormConstraint};
use crate::portfolio::{self, Race};
use crate::presolve::{
    presolve, LitDisposition, PresolveConfig, PresolveStats, Presolved, Reconstruction,
};
use crate::proof::{Certificate, ProofLog, ProofOrigin};
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap randomized feasibility heuristic raced against the exact
/// engines as a first-class incumbent source (see
/// [`IncrementalSolver::with_probe`] and [`Solver::solve_with_probe`]).
///
/// With `threads > 1` every query races [`SolverConfig::probe_workers`]
/// dedicated probe threads alongside the engines; every candidate a
/// probe publishes is re-validated against the model and, if valid,
/// becomes a shared incumbent whose objective value bounds every engine
/// mid-solve. With `threads = 1` a single synchronous probe attempt
/// comes before search starts.
///
/// Probes are **advisory only**: an invalid candidate is discarded (the
/// solver never trusts one unchecked), and a probe can never cause an
/// `Infeasible` or flip any decided verdict — it can only supply
/// solutions earlier.
pub trait HeuristicProbe: Send + Sync {
    /// Runs one probe attempt. `seed` diversifies randomized heuristics
    /// (each attempt receives a distinct value); implementations should
    /// poll `stop` and bail out early once it is set.
    ///
    /// Returns a *candidate* assignment over the model's variables
    /// (`values[i]` is the value of variable `i`), or `None` when this
    /// source has nothing more to offer — a probe worker thread stops
    /// permanently on `None`.
    fn probe(&self, seed: u64, stop: &AtomicBool) -> Option<Vec<bool>>;
}

/// Where the solution backing an outcome was first discovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncumbentSource {
    /// A CDCL engine found it (the one engine or a racing worker).
    Solver,
    /// A [`HeuristicProbe`] published it and validation accepted it.
    Heuristic,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Wall-clock limit for the whole solve (feasibility + optimisation).
    pub time_limit: Option<Duration>,
    /// Conflict limit per engine search (mainly for tests).
    pub conflict_limit: Option<u64>,
    /// Target objective value: the optimising descent stops as soon as it
    /// holds an incumbent with objective `<= objective_stop`, reporting it
    /// as [`Outcome::Feasible`] best-found instead of descending to the
    /// proven optimum — the "best-objective stop" criterion of MIP
    /// solvers. Useful for time-to-reference-quality measurements.
    /// `None` (the default) descends until optimality is proven.
    pub objective_stop: Option<i64>,
    /// Engine feature toggles (ablation studies; default all enabled).
    pub features: EngineFeatures,
    /// Number of engines: `1` (the default) solves on the calling
    /// thread; `0` means "one per available core"; `n > 1` races `n`
    /// diversified engines (see [`crate::portfolio`]).
    pub threads: usize,
    /// Base seed for engine diversification (worker seeds derive from
    /// it). With `threads = 1` the seed only matters if
    /// `features.random_tiebreak` is enabled.
    pub seed: u64,
    /// Run the presolve pipeline before search (see [`mod@crate::presolve`]).
    /// When `false`, solving follows the exact pre-presolve code path.
    /// Defaults to `true`.
    pub presolve: bool,
    /// Propagation-step budget for failed-literal probing inside presolve;
    /// `0` disables probing (the cheap passes still run).
    pub presolve_probe_budget: u64,
    /// Certify `Infeasible` verdicts: replay the solve with proof logging
    /// and have the independent RUP checker ([`crate::checker`]) re-derive
    /// the contradiction. The resulting [`Certificate`] is available from
    /// [`Solver::certificate`] / [`IncrementalSolver::certificate`]. The
    /// replay gets a fresh `time_limit` budget of its own, so certified
    /// infeasible solves can take up to twice the configured limit; its
    /// time counts in [`SolveStats::elapsed`].
    pub certify: bool,
    /// Approximate byte cap on each engine's learnt database plus proof
    /// log. Exceeding it triggers an emergency clause-database reduction
    /// and, failing that, a clean best-found/`Unknown` exit instead of
    /// unbounded growth. `None` (the default) disables the watchdog
    /// (proof logs still default to [`ProofLog::DEFAULT_CAP`]). With
    /// several engines, worker 0 keeps the full cap and the others get
    /// an even split.
    pub mem_limit: Option<usize>,
    /// Number of heuristic-probe threads that race the engines when a
    /// probe is supplied (see [`IncrementalSolver::with_probe`]) and
    /// `threads > 1`. `0` (the default) still runs one probe thread when
    /// a probe is supplied — the knob only scales the count. Ignored
    /// when no probe is supplied; with `threads = 1` the probe runs once
    /// synchronously instead.
    pub probe_workers: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            time_limit: None,
            conflict_limit: None,
            objective_stop: None,
            features: EngineFeatures::default(),
            threads: 1,
            seed: 0,
            presolve: true,
            presolve_probe_budget: PresolveConfig::default().probe_budget,
            certify: false,
            mem_limit: None,
            probe_workers: 0,
        }
    }
}

impl SolverConfig {
    /// The worker count this configuration resolves to: `threads`, with
    /// `0` mapped to the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// A complete 0/1 assignment to the model's variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    pub(crate) fn from_values(values: Vec<bool>) -> Self {
        Assignment { values }
    }

    /// The value assigned to `var`.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the assignment covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over the variables assigned `true`.
    pub fn trues(&self) -> impl Iterator<Item = Var> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|&(_, v)| *v)
            .map(|(i, _)| Var(i as u32))
    }
}

/// Result of [`Solver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A provably optimal solution (for pure feasibility problems, any
    /// satisfying solution is optimal with objective 0).
    Optimal {
        /// The optimal assignment.
        solution: Assignment,
        /// Objective value of the solution.
        objective: i64,
    },
    /// The budget expired with an incumbent whose optimality is unproven.
    Feasible {
        /// The best assignment found.
        solution: Assignment,
        /// Objective value of the incumbent.
        objective: i64,
    },
    /// The model is provably infeasible.
    Infeasible,
    /// The budget expired before feasibility could be decided. This is how
    /// the paper's Table 2 `T` entries manifest.
    Unknown,
}

impl Outcome {
    /// The solution, if any.
    pub fn solution(&self) -> Option<&Assignment> {
        match self {
            Outcome::Optimal { solution, .. } | Outcome::Feasible { solution, .. } => {
                Some(solution)
            }
            _ => None,
        }
    }

    /// The objective value, if a solution exists.
    pub fn objective(&self) -> Option<i64> {
        match self {
            Outcome::Optimal { objective, .. } | Outcome::Feasible { objective, .. } => {
                Some(*objective)
            }
            _ => None,
        }
    }

    /// Whether feasibility was decided (either way) within budget.
    pub fn is_decided(&self) -> bool {
        !matches!(self, Outcome::Unknown)
    }
}

/// Solve statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Engine statistics accumulated over all branch-and-bound rounds
    /// (summed across the live engines when `threads > 1`).
    pub engine: EngineStats,
    /// Number of incumbent solutions found during optimisation.
    pub incumbents: u64,
    /// Total wall-clock time, certification replays included.
    pub elapsed: Duration,
    /// Number of engines the solver loaded (1 for a single engine).
    pub workers: u32,
    /// Index of the worker that gave the most recent race its decisive
    /// verdict, when engines raced and one did.
    pub winner: Option<u32>,
    /// Presolve reduction counters (all zero when presolve is disabled).
    pub presolve: PresolveStats,
    /// Number of racing workers that panicked and were quarantined
    /// (their partial state dropped; the race continued without them).
    pub worker_panics: u32,
    /// Number of heuristic-probe workers that ran (0 when no probe was
    /// supplied; 1 for the sequential synchronous attempt).
    pub probe_workers: u32,
    /// Validated heuristic incumbents accepted from probes (each one
    /// passed the full model check before being recorded).
    pub probe_incumbents: u64,
    /// Times a racing worker consumed a globally improved incumbent
    /// mid-solve: woken by the engine's bound watch, it re-entered the
    /// search with a strictly tighter reified bound.
    pub bound_tightenings: u64,
    /// Origin of the solution backing the most recent outcome, when
    /// there is one.
    pub incumbent_source: Option<IncumbentSource>,
}

/// The 0-1 ILP solver: a one-shot wrapper around [`IncrementalSolver`].
///
/// Every call builds an `IncrementalSolver` for the model, asks it one
/// optimising query and keeps that query's statistics, unsat core and
/// certificate.
///
/// # Examples
///
/// ```
/// use bilp::{LinExpr, Model, Outcome, Solver};
/// let mut m = Model::new();
/// let vs = m.new_vars(4);
/// m.add_ge(LinExpr::sum(vs.clone()), 2);
/// m.minimize(LinExpr::sum(vs.clone()));
/// let outcome = Solver::new().solve(&m);
/// assert_eq!(outcome.objective(), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
    stats: SolveStats,
    last_core: Vec<Lit>,
    certificate: Option<Certificate>,
    /// External cooperative-cancellation flag (see
    /// [`Solver::set_interrupt`]). Kept out of [`SolverConfig`] so the
    /// config stays `Copy`.
    interrupt: Option<Arc<AtomicBool>>,
}

impl Solver {
    /// Creates a solver with an unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with the given configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            ..Self::default()
        }
    }

    /// Installs an external cooperative-cancellation flag. When another
    /// thread sets it, every engine this solver runs returns
    /// [`Outcome::Unknown`] at its next budget poll (or
    /// [`Outcome::Feasible`] best-found if the descent already holds an
    /// incumbent). This is how a serving layer implements graceful
    /// shutdown and admission-control rejection of in-flight work
    /// without killing threads.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Statistics of the most recent solve, certification included.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The trust status of the most recent `Infeasible` verdict. Present
    /// only when [`SolverConfig::certify`] is set and the last solve
    /// returned [`Outcome::Infeasible`].
    pub fn certificate(&self) -> Option<&Certificate> {
        self.certificate.as_ref()
    }

    /// After [`Solver::solve_under_assumptions`] returned
    /// [`Outcome::Infeasible`], the subset of the assumptions (in the
    /// original model's literals) that the refutation depends on. Empty
    /// when the model is infeasible on its own.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// Solves the model with every literal in `assumptions` held true,
    /// without making them part of the model: the verdict and objective
    /// are exactly those of solving `model` with each assumption added as
    /// a unit constraint, but on [`Outcome::Infeasible`] caused by the
    /// assumptions, [`Solver::unsat_core`] names a responsible subset.
    pub fn solve_under_assumptions(&mut self, model: &Model, assumptions: &[Lit]) -> Outcome {
        self.run(model, None, assumptions)
    }

    /// Solves the model: pure feasibility when no objective is set,
    /// branch-and-bound minimisation otherwise.
    ///
    /// Returned solutions always satisfy every model constraint (this is
    /// re-checked internally; see [`Model::check`]).
    pub fn solve(&mut self, model: &Model) -> Outcome {
        self.run(model, None, &[])
    }

    /// Solves the model with a heuristic incumbent source racing the
    /// exact engines (see [`HeuristicProbe`]). Verdicts and optima are
    /// exactly those of [`Solver::solve`] — probes only supply validated
    /// solutions (and hence objective upper bounds) earlier; they can
    /// never prove infeasibility or flip a decided verdict.
    pub fn solve_with_probe(&mut self, model: &Model, probe: &dyn HeuristicProbe) -> Outcome {
        self.run(model, Some(probe), &[])
    }

    fn run(
        &mut self,
        model: &Model,
        probe: Option<&dyn HeuristicProbe>,
        assumptions: &[Lit],
    ) -> Outcome {
        let mut inc = IncrementalSolver::build(model, self.config, probe);
        if let Some(flag) = &self.interrupt {
            inc.set_interrupt(Arc::clone(flag));
        }
        let out = inc.query(true, assumptions);
        self.stats = inc.stats;
        self.last_core = inc.last_core;
        self.certificate = inc.certificate;
        out
    }
}

/// Validates a candidate assignment against `model`: exact variable
/// count and every constraint satisfied. Returns it with its
/// (normalised) objective value — `0` for pure feasibility models.
pub(crate) fn validate(model: &Model, values: Vec<bool>) -> Option<(Assignment, i64)> {
    if values.len() != model.num_vars() {
        return None;
    }
    let solution = Assignment::from_values(values);
    model.check(|v| solution.value(v)).ok()?;
    let val = model
        .objective()
        .map(|o| o.normalized().evaluate(|v| solution.value(v)))
        .unwrap_or(0);
    Some((solution, val))
}

impl Outcome {
    /// What a solution of `model` answers on its own: the optimum of a
    /// pure feasibility model, an unproven incumbent otherwise.
    pub(crate) fn found(model: &Model, solution: Assignment, objective: i64) -> Outcome {
        if model.objective().is_some() {
            Outcome::Feasible {
                solution,
                objective,
            }
        } else {
            Outcome::Optimal {
                solution,
                objective: 0,
            }
        }
    }
}

/// Adapts an original-model-space [`HeuristicProbe`] to the
/// presolve-reduced space the engines search: every candidate is
/// translated through [`Reconstruction::restrict`] (and passed through
/// unchanged when presolve did not run).
struct ReducedProbe<'a> {
    inner: &'a dyn HeuristicProbe,
    recon: Option<&'a Reconstruction>,
    reduced_vars: usize,
}

impl HeuristicProbe for ReducedProbe<'_> {
    fn probe(&self, seed: u64, stop: &AtomicBool) -> Option<Vec<bool>> {
        let original = self.inner.probe(seed, stop)?;
        let Some(recon) = self.recon else {
            return Some(original);
        };
        match recon.restrict(&original, self.reduced_vars) {
            Some(reduced) => Some(reduced),
            // Untranslatable candidates violate the original model. An
            // empty vector is a well-formed but never-valid candidate:
            // the consumer's validation discards it and — unlike `None`,
            // which retires the probe source — keeps probing.
            None => Some(Vec::new()),
        }
    }
}

/// One query to the engines, in the space they search.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Query<'a> {
    /// Descend to the optimum (`true`) or stop at the first solution.
    pub(crate) optimize: bool,
    /// Literals held true for this query only.
    pub(crate) assumptions: &'a [Lit],
    /// The solver-wide deadline and a fresh conflict limit per search.
    pub(crate) budget: Budget,
    /// [`SolverConfig::objective_stop`].
    pub(crate) stop: Option<i64>,
}

impl Query<'_> {
    /// Whether `out` answers this query for every engine racing on it:
    /// a proof either way, a feasibility query's solution, or an
    /// incumbent at the objective stop.
    pub(crate) fn settles(&self, out: &Outcome) -> bool {
        match out {
            Outcome::Optimal { .. } | Outcome::Infeasible => true,
            Outcome::Feasible { objective, .. } => {
                !self.optimize || self.stop.is_some_and(|s| *objective <= s)
            }
            Outcome::Unknown => false,
        }
    }
}

/// A persistent engine holding one model, descended towards the optimum by
/// assumption-probed reified objective bounds.
///
/// Every incumbent's strengthened bound `obj <= val - 1` is added under a
/// fresh activation literal and enforced by *assuming* that literal, never
/// as a permanent constraint. The engine's clause database therefore stays
/// valid for the unbounded model, so learnt clauses survive across
/// feasibility probes, the whole objective descent, and later queries with
/// different assumption sets. Racing descents (see [`crate::portfolio`])
/// run the same loop and also adopt each other's incumbents.
#[derive(Debug)]
pub(crate) struct Descent {
    pub(crate) engine: Engine,
    /// Normalised objective, if the model has one.
    objective: Option<LinExpr>,
    /// Number of *model* variables; the engine may hold more (activation
    /// variables for reified bounds), which never leak into solutions.
    num_vars: usize,
    /// Activation literal of the tightest objective bound posted so far.
    /// Older (weaker) bounds stay in the database unactivated — sound, and
    /// implied by the newest bound anyway.
    bound_act: Option<Lit>,
    /// Right-hand side enforced when `bound_act` is assumed.
    bounded: Option<i64>,
    /// Best global incumbent (found without external assumptions), kept
    /// across calls so a feasibility solution seeds the later descent.
    best: Option<(Assignment, i64)>,
    /// Where `best` came from. Meaningless while `best` is `None`.
    pub(crate) best_source: IncumbentSource,
    /// Incumbents this descent's own optimising search found.
    pub(crate) incumbents: u64,
    /// Times a better foreign incumbent woke this descent mid-search.
    pub(crate) tightenings: u64,
}

impl Descent {
    /// Loads the model into a fresh engine. `Err` carries the engine stats
    /// when a constraint is already refuted at the root.
    pub(crate) fn build(
        model: &Model,
        features: EngineFeatures,
        mem_limit: Option<usize>,
    ) -> Result<Descent, Box<EngineStats>> {
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
                    return Err(Box::new(engine.stats()));
                }
            }
        }
        Ok(Descent {
            engine,
            objective: model.objective().map(LinExpr::normalized),
            num_vars: model.num_vars(),
            bound_act: None,
            bounded: None,
            best: None,
            best_source: IncumbentSource::Solver,
            incumbents: 0,
            tightenings: 0,
        })
    }

    /// Seeds the incumbent from an externally *validated* solution (a
    /// heuristic probe's candidate after it passed the model check, or a
    /// racing descent's incumbent). The descent records it exactly like
    /// one it found itself, keeping `source`, so the next `optimize`
    /// call starts strictly below it. Returns whether the seed improved
    /// on the current best.
    pub(crate) fn seed(
        &mut self,
        solution: Assignment,
        objective: i64,
        source: IncumbentSource,
    ) -> bool {
        if self.best.as_ref().is_none_or(|&(_, b)| objective < b) {
            self.best = Some((solution, objective));
            self.best_source = source;
            true
        } else {
            false
        }
    }

    fn best_value(&self) -> Option<i64> {
        self.best.as_ref().map(|&(_, val)| val)
    }

    /// Posts `objective <= rhs` reified under a fresh activation literal
    /// `act` (the constraint bites only while `act` is assumed) and
    /// returns `act`.
    fn post_bound(&mut self, rhs: i64) -> Lit {
        let act = self.engine.add_var().lit();
        let obj = self
            .objective
            .as_ref()
            .expect("bound requires an objective");
        let bound = Constraint {
            expr: obj.clone(),
            cmp: Cmp::Le,
            rhs,
        };
        for nc in normalize(&bound) {
            let reified = match nc {
                NormConstraint::Unit(l) => NormConstraint::Clause(vec![l, !act]),
                NormConstraint::Clause(mut c) => {
                    c.push(!act);
                    NormConstraint::Clause(c)
                }
                NormConstraint::False => NormConstraint::Clause(vec![!act]),
                NormConstraint::AtMost { mut terms, bound } => {
                    // act -> (sum <= bound) as sum + slack·act <= bound + slack
                    // with slack = total - bound: act true restores the
                    // original bound, act false relaxes it to `total`.
                    let total: u128 = terms.iter().map(|&(a, _)| u128::from(a)).sum();
                    let slack = u64::try_from(total - u128::from(bound))
                        .expect("normalised at-most slack fits u64");
                    terms.push((slack, act));
                    NormConstraint::AtMost {
                        terms,
                        bound: bound + slack,
                    }
                }
            };
            // Reified constraints cannot be refuted at the root: `act` is
            // fresh, so every emitted clause has an unassigned literal and
            // every at-most keeps slack `total - bound > 0` with act free.
            let ok = self.engine.add_norm(reified);
            debug_assert!(ok, "reified bound refuted at root");
        }
        act
    }

    /// Snapshot of the engine's current satisfying assignment, restricted
    /// to model variables.
    fn solution(&self, model: &Model) -> Assignment {
        let solution = Assignment {
            values: (0..self.num_vars)
                .map(|i| self.engine.model_value(Var(i as u32)))
                .collect(),
        };
        debug_assert_eq!(model.check(|v| solution.value(v)), Ok(()));
        solution
    }

    /// Answers `q`; on [`Outcome::Infeasible`], `core` receives the
    /// engine's final conflict. `race` connects a racing descent to the
    /// others.
    pub(crate) fn answer(
        &mut self,
        model: &Model,
        q: &Query,
        race: Option<&Race>,
        core: &mut Vec<Lit>,
    ) -> Outcome {
        core.clear();
        if q.optimize {
            self.optimize(model, q, race, core)
        } else {
            self.feasible(model, q, race, core)
        }
    }

    /// One feasibility solve under the query's assumptions (the
    /// objective-bound chain is deliberately *not* assumed: the probe
    /// answers for the unbounded model). Incumbents are recorded (and
    /// offered to the race) only without assumptions, keeping the seeded
    /// descent's first bound an unassumed discovery.
    fn feasible(
        &mut self,
        model: &Model,
        q: &Query,
        race: Option<&Race>,
        core: &mut Vec<Lit>,
    ) -> Outcome {
        self.engine.set_watched_bound(None);
        match self.engine.solve_under_assumptions(q.budget, q.assumptions) {
            SatResult::Unsat => {
                core.extend_from_slice(self.engine.unsat_core());
                Outcome::Infeasible
            }
            SatResult::Unknown => Outcome::Unknown,
            SatResult::Sat => {
                let solution = self.solution(model);
                let val = self
                    .objective
                    .as_ref()
                    .map_or(0, |obj| obj.evaluate(|v| solution.value(v)));
                if q.assumptions.is_empty() {
                    if let Some(race) = race {
                        race.offer(&solution, val, IncumbentSource::Solver);
                    }
                    if self.objective.is_none() || self.best_value().is_none_or(|b| val < b) {
                        self.best = Some((solution.clone(), val));
                        self.best_source = IncumbentSource::Solver;
                    }
                }
                Outcome::found(model, solution, val)
            }
        }
    }

    /// Branch-and-bound descent to the optimum under the query's
    /// assumptions, assuming the objective-bound chain throughout. On an
    /// undecided first probe (`Unknown` with no incumbent yet), `core`
    /// stays empty; on `Infeasible` it receives the engine's final
    /// conflict. A `stop` target ends the descent early (`Feasible`) as
    /// soon as an incumbent reaches it
    /// ([`SolverConfig::objective_stop`]).
    ///
    /// Incumbents found under assumptions are still model solutions (the
    /// assumptions only restrict), so recording them and bounding below
    /// them stays sound for later unassumed calls; only the `Optimal`
    /// verdict itself is relative to the given assumptions.
    ///
    /// In a race, the descent first adopts any better shared incumbent
    /// and offers every incumbent it finds; an engine woken by a better
    /// foreign incumbent re-enters with the tighter bound.
    fn optimize(
        &mut self,
        model: &Model,
        q: &Query,
        race: Option<&Race>,
        core: &mut Vec<Lit>,
    ) -> Outcome {
        loop {
            if let Some((solution, val, source)) =
                race.and_then(|r| r.better_than(self.best_value()))
            {
                self.seed(solution, val, source);
            }
            // Target-objective stop: an incumbent already at or below
            // `stop` is good enough — report it without descending
            // further.
            if let (Some(s), Some((solution, val))) = (q.stop, &self.best) {
                if self.objective.is_some() && *val <= s {
                    return Outcome::Feasible {
                        solution: solution.clone(),
                        objective: *val,
                    };
                }
            }
            // Bound strictly below the incumbent — found by the previous
            // round, adopted, or recorded by an earlier `feasible` call
            // (the feasibility-to-optimisation handoff).
            if let Some(val) = self.best_value() {
                if self.objective.is_some() && self.bounded.is_none_or(|b| b > val - 1) {
                    let act = self.post_bound(val - 1);
                    self.bound_act = Some(act);
                    self.bounded = Some(val - 1);
                }
            }
            self.engine
                .set_watched_bound(Some(self.bounded.unwrap_or(i64::MAX)));
            let mut assumed = q.assumptions.to_vec();
            assumed.extend(self.bound_act);
            match self.engine.solve_under_assumptions(q.budget, &assumed) {
                SatResult::Unsat => {
                    return match &self.best {
                        // The bound below the incumbent is refuted: the
                        // incumbent is optimal.
                        Some((solution, objective)) => Outcome::Optimal {
                            solution: solution.clone(),
                            objective: *objective,
                        },
                        None => {
                            core.extend_from_slice(self.engine.unsat_core());
                            Outcome::Infeasible
                        }
                    };
                }
                SatResult::Unknown => {
                    if race.is_some_and(|r| r.woke(self.best_value(), q.budget.deadline)) {
                        self.tightenings += 1;
                        continue;
                    }
                    return match &self.best {
                        Some((solution, objective)) => Outcome::Feasible {
                            solution: solution.clone(),
                            objective: *objective,
                        },
                        None => Outcome::Unknown,
                    };
                }
                SatResult::Sat => {
                    let solution = self.solution(model);
                    let Some(obj) = &self.objective else {
                        if let Some(race) = race {
                            race.offer(&solution, 0, IncumbentSource::Solver);
                        }
                        self.best = Some((solution.clone(), 0));
                        self.best_source = IncumbentSource::Solver;
                        return Outcome::Optimal {
                            solution,
                            objective: 0,
                        };
                    };
                    let val = obj.evaluate(|v| solution.value(v));
                    self.incumbents += 1;
                    if let Some(race) = race {
                        race.offer(&solution, val, IncumbentSource::Solver);
                    }
                    self.best = Some((solution, val));
                    self.best_source = IncumbentSource::Solver;
                }
            }
        }
    }
}

/// Extracts the entailed fixings presolve derived, as literals over the
/// original model's variables. Don't-care eliminations
/// ([`LitDisposition::Free`]) are *choices* presolve made, not
/// consequences of the model, and are deliberately excluded — seeding one
/// into a certifying replay could mask genuine satisfiability.
fn presolve_fixed_lits(recon: &Reconstruction, num_original_vars: usize) -> Vec<Lit> {
    let mut out = Vec::new();
    for i in 0..num_original_vars {
        let l = Lit::positive(Var(i as u32));
        match recon.map_lit(l) {
            LitDisposition::Fixed(true) => out.push(l),
            LitDisposition::Fixed(false) => out.push(!l),
            _ => {}
        }
    }
    out
}

/// Produces a machine-checked certificate for an `Infeasible` verdict on
/// `model` (optionally under `assumptions`, which are added as unit
/// clauses for the replay — infeasibility never involves the objective).
///
/// The original solve's artefacts are **not** trusted: a fresh single
/// proof-logging engine re-solves the *original* model from scratch
/// (no presolve rewriting, no clause exchange), and the resulting
/// proof is replayed by the independent checker. `presolve_facts` — unit
/// fixings the presolve pipeline claims — are first re-validated by the
/// checker's own propagation ([`checker`]) and only the provable ones are
/// seeded, so a presolve bug cannot plant an unsound fact.
///
/// Outcomes: replay `Unsat` + checker success ⇒
/// [`Certificate::Certified`]; replay `Sat` with a solution that passes
/// [`Model::check`] ⇒ [`Certificate::CheckFailed`] (the verdict is
/// wrong); anything running out of budget ⇒ [`Certificate::Unchecked`].
/// The replay is given a fresh `config.time_limit` budget.
pub fn certify_infeasibility(
    model: &Model,
    assumptions: &[Lit],
    presolve_facts: &[Lit],
    config: &SolverConfig,
) -> Certificate {
    let start = Instant::now();
    let deadline = config.time_limit.map(|d| start + d);

    // Assumption infeasibility is infeasibility of the augmented model.
    let augmented;
    let model = if assumptions.is_empty() {
        model
    } else {
        let mut m = model.clone();
        for &a in assumptions {
            m.add_clause([a]);
        }
        augmented = m;
        &augmented
    };

    // Only checker-provable presolve facts may seed the replay.
    let facts = checker::entailed_units(model, presolve_facts, deadline);

    let mut proof = ProofLog::new(config.mem_limit.unwrap_or(ProofLog::DEFAULT_CAP));
    for &f in &facts {
        proof.add(&[f], ProofOrigin::Presolve);
    }

    let mut engine = Engine::new(model.num_vars());
    engine.set_features(config.features);
    if let Some(bytes) = config.mem_limit {
        engine.set_mem_limit(bytes);
    }
    let mut root_refuted = false;
    'constraints: for c in model.constraints() {
        for nc in normalize(c) {
            if !engine.add_norm(nc) {
                root_refuted = true;
                break 'constraints;
            }
        }
    }
    if !root_refuted {
        for &f in &facts {
            if !engine.add_norm(NormConstraint::Unit(f)) {
                root_refuted = true;
                break;
            }
        }
    }
    engine.set_proof(proof);
    let res = if root_refuted {
        SatResult::Unsat
    } else {
        engine.solve(Budget {
            deadline,
            conflict_limit: None,
        })
    };
    match res {
        SatResult::Unknown => Certificate::Unchecked {
            reason: "replay budget exhausted before an independent proof was found".to_owned(),
        },
        SatResult::Sat => {
            // Disagreement — but only trust the replay's word after its
            // witness survives the model's own constraint check.
            match model.check(|v| engine.model_value(v)) {
                Ok(()) => Certificate::CheckFailed {
                    detail: "replay found a satisfying assignment: the Infeasible verdict is wrong"
                        .to_owned(),
                },
                Err(c) => Certificate::Unchecked {
                    reason: format!(
                        "replay returned a witness violating constraint {c} (replay fault)"
                    ),
                },
            }
        }
        SatResult::Unsat => {
            let proof = engine.take_proof().expect("proof was installed");
            if proof.truncated() {
                return Certificate::Unchecked {
                    reason: "proof exceeded the memory cap and was truncated".to_owned(),
                };
            }
            match checker::check_proof(model, &proof, deadline) {
                CheckOutcome::Valid { steps } => Certificate::Certified {
                    steps,
                    bytes: proof.bytes(),
                },
                CheckOutcome::Invalid { step, detail } => Certificate::CheckFailed {
                    detail: format!("proof step {step}: {detail}"),
                },
                CheckOutcome::OutOfTime => Certificate::Unchecked {
                    reason: "proof check exceeded the time budget".to_owned(),
                },
            }
        }
    }
}

/// A persistent solver for repeated queries against **one** model, on
/// one engine or a race of several.
///
/// An `IncrementalSolver` presolves once at construction, loads the
/// reduced model into `N` persistent engines (`N` =
/// [`SolverConfig::effective_threads`]) and then answers any number of
/// queries on them, so conflict clauses learnt by one query prune the
/// next:
///
/// * [`solve_feasible`](IncrementalSolver::solve_feasible) — one
///   feasibility solve; with an objective set, the solution it finds seeds
///   the later descent (the feasibility-to-optimisation handoff).
/// * [`optimize`](IncrementalSolver::optimize) — branch-and-bound descent
///   to the proven optimum, probing each strengthened objective bound via
///   assumptions on a reified constraint instead of permanent posting.
/// * [`solve_under_assumptions`](IncrementalSolver::solve_under_assumptions)
///   — feasibility with extra literals held true for this call only; on
///   `Infeasible`, [`unsat_core`](IncrementalSolver::unsat_core) names a
///   subset of the assumptions the refutation depends on.
///
/// With one engine every query runs on the calling thread and is
/// bit-for-bit deterministic. With more, every query races the engines
/// on scoped threads (see [`crate::portfolio`]): they share incumbents,
/// glue clauses and the verdict, and the first decisive answer wins.
/// Worker 0 runs the one-engine configuration, so until a foreign
/// incumbent reaches it, it repeats the one-engine search.
///
/// `config.time_limit` bounds the solver's lifetime, not each query: one
/// deadline, fixed at construction, covers presolve and every later
/// query (a query started after it returns at its first budget poll), so
/// a caller's limit is never restarted by a follow-up query.
/// Certification replays keep their own budget (see
/// [`SolverConfig::certify`]). `config.conflict_limit` applies per
/// search; [`stats`](IncrementalSolver::stats) accumulate across
/// queries.
///
/// # Examples
///
/// ```
/// use bilp::{IncrementalSolver, LinExpr, Model, Outcome, SolverConfig};
/// let mut m = Model::new();
/// let vs = m.new_vars(4);
/// m.add_ge(LinExpr::sum(vs.clone()), 2);
/// m.minimize(LinExpr::sum(vs.clone()));
/// let mut s = IncrementalSolver::new(&m, SolverConfig::default());
/// assert!(s.solve_feasible().solution().is_some());
/// assert_eq!(s.optimize().objective(), Some(2));
/// // A third "what if" probe reuses everything learnt above:
/// let probe = s.solve_under_assumptions(&[!vs[0].lit(), !vs[1].lit(), !vs[2].lit()]);
/// assert_eq!(probe, Outcome::Infeasible);
/// assert!(!s.unsat_core().is_empty());
/// ```
pub struct IncrementalSolver<'p> {
    config: SolverConfig,
    /// `config.time_limit` from construction: the one deadline presolve
    /// and every query share.
    deadline: Option<Instant>,
    /// `None` when presolve refuted the model: every query is then
    /// trivially `Infeasible`.
    inner: Option<Inner>,
    stats: SolveStats,
    /// Work done outside the persistent engines (fallback solves, a load
    /// refuted at the root), added to theirs in `stats`.
    detached: SolveStats,
    last_core: Vec<Lit>,
    /// Entailed presolve fixings (original-model literals), kept for
    /// certification seeding. Empty unless `config.certify` and presolve
    /// ran.
    facts: Vec<Lit>,
    /// Certificate for the most recent `Infeasible` answer (or for the
    /// construction-time refutation when `inner` is `None`).
    certificate: Option<Certificate>,
    /// External cooperative-cancellation flag (see
    /// [`IncrementalSolver::set_interrupt`]).
    interrupt: Option<Arc<AtomicBool>>,
    /// Heuristic incumbent source (see
    /// [`IncrementalSolver::with_probe`]).
    probe: Option<&'p dyn HeuristicProbe>,
}

impl fmt::Debug for IncrementalSolver<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("config", &self.config)
            .field("inner", &self.inner)
            .field("stats", &self.stats)
            .field("probe", &self.probe.is_some())
            .finish_non_exhaustive()
    }
}

/// The live state of a presolved [`IncrementalSolver`].
#[derive(Debug)]
struct Inner {
    /// The (possibly presolve-reduced) model the engines hold.
    reduced: Model,
    /// Maps reduced-space solutions and assumption literals back to the
    /// original model; `None` when presolve was disabled.
    reconstruction: Option<Reconstruction>,
    /// The unreduced model, kept only when presolve ran: the
    /// certification target and the fallback for assumptions that
    /// contradict a don't-care elimination.
    original: Option<Model>,
    /// One persistent descent per engine; `None` marks a quarantined
    /// worker. Empty when the engines refuted the model at the root.
    engines: Vec<Option<Descent>>,
    /// What racing engines share; `None` with one engine.
    race: Option<Race>,
}

impl<'p> IncrementalSolver<'p> {
    /// Presolves (per `config.presolve`) and loads `model` into
    /// [`SolverConfig::effective_threads`] persistent engines, fixing the
    /// deadline `config.time_limit` from now. Queries on a model refuted
    /// here return [`Outcome::Infeasible`] immediately with an empty
    /// core.
    pub fn new(model: &Model, config: SolverConfig) -> Self {
        Self::build(model, config, None)
    }

    /// [`IncrementalSolver::new`] with a heuristic incumbent source
    /// racing the exact engines (see [`HeuristicProbe`]). With several
    /// engines, `config.probe_workers` probe threads (at least one) race
    /// them during every query without assumptions. With one engine, the
    /// probe gets one synchronous attempt before the first such query.
    /// Either way a validated candidate that answers the query on its
    /// own (a feasibility query's solution, or an incumbent at the
    /// objective stop) is the answer, and any other seeds the descent;
    /// verdicts and optima are never affected.
    pub fn with_probe(model: &Model, config: SolverConfig, probe: &'p dyn HeuristicProbe) -> Self {
        Self::build(model, config, Some(probe))
    }

    fn build(model: &Model, config: SolverConfig, probe: Option<&'p dyn HeuristicProbe>) -> Self {
        let start = Instant::now();
        let deadline = config.time_limit.map(|d| start + d);
        let n = config.effective_threads();
        let mut stats = SolveStats {
            workers: n as u32,
            ..SolveStats::default()
        };
        let mut facts = Vec::new();
        let presolved = if config.presolve {
            let pcfg = PresolveConfig {
                probe_budget: config.presolve_probe_budget,
                deadline,
                ..PresolveConfig::default()
            };
            match presolve(model, &pcfg) {
                Presolved::Infeasible { stats: ps } => {
                    stats.presolve = ps;
                    None
                }
                Presolved::Reduced {
                    model: red,
                    reconstruction,
                    stats: ps,
                } => {
                    stats.presolve = ps;
                    if config.certify {
                        facts = presolve_fixed_lits(&reconstruction, model.num_vars());
                    }
                    Some((red, Some(reconstruction)))
                }
            }
        } else {
            Some((model.clone(), None))
        };
        let mut detached = SolveStats::default();
        let inner = presolved.map(|(reduced, reconstruction)| {
            let loaded = if n == 1 {
                Descent::build(&reduced, config.features, config.mem_limit)
                    .map(|d| (None, vec![Some(d)]))
            } else {
                Race::enlist(&reduced, &config, n).map(|(race, engines)| (Some(race), engines))
            };
            let (race, engines) = loaded.unwrap_or_else(|es| {
                detached.engine = *es;
                (None, Vec::new())
            });
            Inner {
                original: reconstruction.is_some().then(|| model.clone()),
                reduced,
                reconstruction,
                engines,
                race,
            }
        });
        // A presolve refutation is the only Infeasible this solver can
        // justify without live state — certify it now, while the
        // original model is still in reach.
        let certificate = (config.certify && inner.is_none())
            .then(|| certify_infeasibility(model, &[], &facts, &config));
        stats.engine = detached.engine;
        stats.elapsed = start.elapsed();
        IncrementalSolver {
            config,
            deadline,
            inner,
            stats,
            detached,
            last_core: Vec::new(),
            facts,
            certificate,
            interrupt: None,
            probe,
        }
    }

    /// Installs an external cooperative-cancellation flag: when another
    /// thread sets it, the in-flight query (and every later one, until
    /// the flag is cleared) returns at its next budget poll exactly as if
    /// its deadline had expired. See [`Solver::set_interrupt`].
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        // Racing engines poll the race's own stop flag, into which every
        // race relays this one.
        if let Some(inner) = self.inner.as_mut().filter(|i| i.race.is_none()) {
            for descent in inner.engines.iter_mut().flatten() {
                descent.engine.set_interrupt(Arc::clone(&flag));
            }
        }
        self.interrupt = Some(flag);
    }

    /// The trust status of the most recent `Infeasible` answer (or of the
    /// construction-time refutation). Present only when
    /// [`SolverConfig::certify`] is set.
    pub fn certificate(&self) -> Option<&Certificate> {
        self.certificate.as_ref()
    }

    /// Cumulative statistics over construction and every query so far,
    /// certification replays included. Engine counters are summed over
    /// the live engines.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// After a query returned [`Outcome::Infeasible`]: the subset of that
    /// query's assumptions (in original-model literals) the refutation
    /// depends on. Empty when the model is infeasible without assumptions.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// One feasibility solve. With an objective set the result is
    /// [`Outcome::Feasible`] (optimality unproven — its solution seeds a
    /// later [`optimize`](IncrementalSolver::optimize)); without one it is
    /// [`Outcome::Optimal`] with objective `0`, as for [`Solver::solve`].
    pub fn solve_feasible(&mut self) -> Outcome {
        self.query(false, &[])
    }

    /// Branch-and-bound descent to the proven optimum, reusing everything
    /// already learnt (and any incumbent from
    /// [`solve_feasible`](IncrementalSolver::solve_feasible)). Calling it
    /// again after an [`Outcome::Optimal`] verdict just re-proves the
    /// bound cheaply and returns the same solution.
    pub fn optimize(&mut self) -> Outcome {
        self.query(true, &[])
    }

    /// Feasibility with every literal in `assumptions` (original-model
    /// literals) held true for this call only. On [`Outcome::Infeasible`],
    /// [`unsat_core`](IncrementalSolver::unsat_core) reports a responsible
    /// subset of the assumptions. The objective is evaluated on the
    /// solution but not optimised.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> Outcome {
        self.query(false, assumptions)
    }

    /// Seeds the descent's incumbent from a heuristic solution, given as
    /// a complete assignment over the **original** model's variables
    /// (`values[i]` is the value of variable `i`).
    ///
    /// The assignment is translated through presolve's reconstruction
    /// and re-validated against the model it must satisfy; candidates
    /// that are the wrong length, contradict an entailed presolve
    /// fixing, or violate any constraint are rejected and leave the
    /// solver untouched. An accepted seed means the next
    /// [`optimize`](IncrementalSolver::optimize) descends from a real
    /// incumbent — its first bound probe is already strictly below the
    /// heuristic solution — and
    /// [`SolveStats::incumbent_source`] reports
    /// [`IncumbentSource::Heuristic`] if no solver-found solution
    /// supersedes it. Verdicts are unaffected either way.
    ///
    /// Returns whether the seed was accepted (valid *and* improving on
    /// the current incumbent, if any).
    pub fn seed_incumbent(&mut self, values: &[bool]) -> bool {
        let Some(inner) = self.inner.as_mut() else {
            return false;
        };
        let reduced_values = match &inner.reconstruction {
            None => values.to_vec(),
            Some(recon) => match recon.restrict(values, inner.reduced.num_vars()) {
                Some(v) => v,
                None => return false,
            },
        };
        let Some((solution, objective)) = validate(&inner.reduced, reduced_values) else {
            return false;
        };
        let mut accepted = false;
        for descent in inner.engines.iter_mut().flatten() {
            accepted |= descent.seed(solution.clone(), objective, IncumbentSource::Heuristic);
        }
        if let Some(race) = &inner.race {
            accepted |= race.offer(&solution, objective, IncumbentSource::Heuristic);
        }
        if accepted {
            self.stats.probe_incumbents += 1;
        }
        accepted
    }

    /// The one query path: answers, certifies an `Infeasible` answer and
    /// charges the time, replay included, to the statistics.
    fn query(&mut self, optimize: bool, assumptions: &[Lit]) -> Outcome {
        let start = Instant::now();
        self.last_core.clear();
        if self.inner.is_some() {
            self.certificate = None;
        }
        let out = self.answer(optimize, assumptions);
        if out == Outcome::Infeasible {
            self.certify_current(assumptions);
        }
        self.stats.elapsed += start.elapsed();
        out
    }

    /// Maps the assumptions into the engines' space once, runs the
    /// engines and maps the answer back to the original model.
    fn answer(&mut self, optimize: bool, assumptions: &[Lit]) -> Outcome {
        let Some(inner) = &self.inner else {
            return Outcome::Infeasible;
        };
        // Remember which original literal each reduced one stands for.
        let mut mapped = Vec::with_capacity(assumptions.len());
        let mut assoc: Vec<(Lit, Lit)> = Vec::with_capacity(assumptions.len());
        for &a in assumptions {
            let disposition = match &inner.reconstruction {
                None => LitDisposition::Mapped(a),
                Some(recon) => recon.map_lit(a),
            };
            match disposition {
                // Already implied by the model — or a don't-care
                // elimination whose picked value agrees with the
                // assumption (the expansion witnesses it): drop.
                LitDisposition::Fixed(true) | LitDisposition::Free(true) => {}
                // Refuted by the model alone: a one-literal core.
                LitDisposition::Fixed(false) => {
                    self.last_core = vec![a];
                    return Outcome::Infeasible;
                }
                // Contradicts a value presolve merely *chose* for an
                // eliminated variable: the reduced engines cannot answer.
                LitDisposition::Free(false) => return self.detour(optimize, assumptions),
                LitDisposition::Mapped(rl) => {
                    mapped.push(rl);
                    assoc.push((rl, a));
                }
            }
        }
        if inner.engines.is_empty() {
            return Outcome::Infeasible;
        }
        let q = Query {
            optimize,
            assumptions: &mapped,
            budget: Budget {
                deadline: self.deadline,
                conflict_limit: self.config.conflict_limit,
            },
            stop: self.config.objective_stop,
        };
        let (out, core) = self.run(&q);
        self.last_core = core
            .iter()
            .filter_map(|rl| assoc.iter().find(|(r, _)| r == rl).map(|&(_, a)| a))
            .collect();
        let inner = self.inner.as_ref().expect("answered by live state");
        let (Some(recon), Some(original)) = (&inner.reconstruction, &inner.original) else {
            return out;
        };
        let expand = |solution: &Assignment| {
            let full = recon.expand(solution);
            debug_assert_eq!(original.check(|v| full.value(v)), Ok(()));
            full
        };
        match out {
            Outcome::Optimal {
                solution,
                objective,
            } => Outcome::Optimal {
                solution: expand(&solution),
                objective,
            },
            Outcome::Feasible {
                solution,
                objective,
            } => Outcome::Feasible {
                solution: expand(&solution),
                objective,
            },
            other => other,
        }
    }

    /// Runs `q` on the persistent engines: on the calling thread with
    /// one, as a race with several, and on one fresh base-config descent
    /// on the calling thread once every racing worker is quarantined.
    fn run(&mut self, q: &Query) -> (Outcome, Vec<Lit>) {
        let inner = self.inner.as_mut().expect("run requires live state");
        // Probe candidates know nothing of assumptions the engines still
        // see; with only implied ones left, a reduced-space candidate
        // satisfies them after expansion.
        let probe = self.probe.filter(|_| q.assumptions.is_empty());
        let probe = probe.map(|p| ReducedProbe {
            inner: p,
            recon: inner.reconstruction.as_ref(),
            reduced_vars: inner.reduced.num_vars(),
        });
        let probe = probe.as_ref().map(|p| p as &dyn HeuristicProbe);
        let answered = match &inner.race {
            None => {
                // One engine: the probe's one attempt comes before the
                // first query it can serve.
                if probe.is_some() {
                    self.probe = None;
                }
                let descent = inner.engines[0].as_mut().expect("one engine never races");
                sequential(
                    descent,
                    &inner.reduced,
                    q,
                    probe,
                    &self.config,
                    &mut self.stats,
                )
            }
            Some(race) => {
                let live = |engines: &[Option<Descent>]| engines.iter().any(Option::is_some);
                let raced = live(&inner.engines).then(|| {
                    portfolio::race(
                        race,
                        &mut inner.engines,
                        &inner.reduced,
                        q,
                        probe,
                        &self.config,
                        self.interrupt.as_ref(),
                        &mut self.stats,
                    )
                });
                match raced {
                    Some(out) if live(&inner.engines) => out,
                    // Every worker is quarantined: one fresh base-config
                    // descent answers on the calling thread, with
                    // whatever budget remains.
                    _ => {
                        let config = &self.config;
                        let built =
                            Descent::build(&inner.reduced, config.features, config.mem_limit);
                        let Ok(mut fresh) = built else {
                            return (Outcome::Infeasible, Vec::new());
                        };
                        if let Some(flag) = &self.interrupt {
                            fresh.engine.set_interrupt(Arc::clone(flag));
                        }
                        self.stats.winner = None;
                        let out = sequential(
                            &mut fresh,
                            &inner.reduced,
                            q,
                            probe,
                            config,
                            &mut self.stats,
                        );
                        self.detached.engine += fresh.engine.stats();
                        self.detached.incumbents += fresh.incumbents;
                        self.detached.bound_tightenings += fresh.tightenings;
                        out
                    }
                }
            }
        };
        self.tally();
        answered
    }

    /// Recomputes the work counters: the live engines' plus the detached
    /// work.
    fn tally(&mut self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let d = &self.detached;
        let (mut engine, mut incumbents, mut tightenings) =
            (d.engine, d.incumbents, d.bound_tightenings);
        for descent in inner.engines.iter().flatten() {
            engine += descent.engine.stats();
            incumbents += descent.incumbents;
            tightenings += descent.tightenings;
        }
        self.stats.engine = engine;
        self.stats.incumbents = incumbents;
        self.stats.bound_tightenings = tightenings;
    }

    /// Answers a query whose assumptions contradict a value presolve
    /// chose for an eliminated variable: one presolve-free solver on the
    /// original model answers instead, with what is left of the
    /// deadline, and its work joins the detached statistics.
    fn detour(&mut self, optimize: bool, assumptions: &[Lit]) -> Outcome {
        let original = self
            .inner
            .as_ref()
            .and_then(|i| i.original.as_ref())
            .expect("presolved state keeps the original model");
        let mut fallback = IncrementalSolver::new(
            original,
            SolverConfig {
                time_limit: self
                    .deadline
                    .map(|d| d.saturating_duration_since(Instant::now())),
                presolve: false,
                // This solver certifies its Infeasible answers itself.
                certify: false,
                ..self.config
            },
        );
        if let Some(flag) = &self.interrupt {
            fallback.set_interrupt(Arc::clone(flag));
        }
        let out = fallback.answer(optimize, assumptions);
        let fb = fallback.stats;
        for stats in [&mut self.detached, &mut self.stats] {
            stats.engine += fb.engine;
            stats.incumbents += fb.incumbents;
            stats.bound_tightenings += fb.bound_tightenings;
            stats.worker_panics += fb.worker_panics;
        }
        self.stats.winner = fb.winner;
        if out.solution().is_some() {
            self.stats.incumbent_source = fb.incumbent_source;
        }
        self.last_core = fallback.last_core;
        out
    }

    /// Certifies the current `Infeasible` answer against the original
    /// model. No-op when certification is off or presolve refuted the
    /// model (certified at construction then).
    fn certify_current(&mut self, assumptions: &[Lit]) {
        if !self.config.certify {
            return;
        }
        let Some(inner) = &self.inner else {
            return; // construction-time certificate stands
        };
        let target = inner.original.as_ref().unwrap_or(&inner.reduced);
        self.certificate = Some(certify_infeasibility(
            target,
            assumptions,
            &self.facts,
            &self.config,
        ));
    }
}

/// Answers `q` on one descent on the calling thread. A supplied probe
/// first gets one synchronous attempt: a validated candidate that
/// settles the query is the answer, any other seeds the descent.
fn sequential(
    descent: &mut Descent,
    model: &Model,
    q: &Query,
    probe: Option<&dyn HeuristicProbe>,
    config: &SolverConfig,
    stats: &mut SolveStats,
) -> (Outcome, Vec<Lit>) {
    if let Some(p) = probe {
        stats.probe_workers = 1;
        let stop = AtomicBool::new(false);
        if let Some((solution, val)) = p.probe(config.seed, &stop).and_then(|v| validate(model, v))
        {
            stats.probe_incumbents += 1;
            descent.seed(solution.clone(), val, IncumbentSource::Heuristic);
            let out = Outcome::found(model, solution, val);
            if q.settles(&out) {
                stats.incumbent_source = Some(IncumbentSource::Heuristic);
                return (out, Vec::new());
            }
        }
    }
    let mut core = Vec::new();
    let out = descent.answer(model, q, None, &mut core);
    if out.solution().is_some() {
        stats.incumbent_source = Some(descent.best_source);
    }
    (out, core)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // column-index loops in incidence constructions
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn feasibility_without_objective() {
        let mut m = Model::new();
        let x = m.new_var();
        let y = m.new_var();
        m.add_clause([x.lit(), y.lit()]);
        m.add_clause([!x.lit()]);
        let out = Solver::new().solve(&m);
        let Outcome::Optimal {
            solution,
            objective,
        } = out
        else {
            panic!("expected optimal, got {out:?}");
        };
        assert_eq!(objective, 0);
        assert!(!solution.value(x));
        assert!(solution.value(y));
    }

    #[test]
    fn infeasible_model() {
        let mut m = Model::new();
        let x = m.new_var();
        m.fix(x, true);
        m.fix(x, false);
        assert_eq!(Solver::new().solve(&m), Outcome::Infeasible);
    }

    #[test]
    fn minimization_finds_optimum() {
        // Cover problem: choose a subset of {3,5,7} summing >= 8, minimize count.
        let mut m = Model::new();
        let a = m.new_var(); // weight 3
        let b = m.new_var(); // weight 5
        let c = m.new_var(); // weight 7
        let mut e = LinExpr::new();
        e.add_term(3, a);
        e.add_term(5, b);
        e.add_term(7, c);
        m.add_ge(e, 8);
        m.minimize(LinExpr::sum([a, b, c]));
        let out = Solver::new().solve(&m);
        let Outcome::Optimal {
            solution,
            objective,
        } = out
        else {
            panic!("expected optimal, got {out:?}");
        };
        assert_eq!(objective, 2);
        let w = [(a, 3), (b, 5), (c, 7)]
            .iter()
            .filter(|(v, _)| solution.value(*v))
            .map(|&(_, w)| w)
            .sum::<i64>();
        assert!(w >= 8);
    }

    #[test]
    fn weighted_objective() {
        let mut m = Model::new();
        let a = m.new_var();
        let b = m.new_var();
        m.add_clause([a.lit(), b.lit()]);
        let mut obj = LinExpr::new();
        obj.add_term(10, a);
        obj.add_term(1, b);
        m.minimize(obj);
        let out = Solver::new().solve(&m);
        assert_eq!(out.objective(), Some(1));
        assert!(out.solution().expect("has solution").value(b));
    }

    #[test]
    fn negative_objective_coefficients() {
        // Maximize a (minimize -a): a free variable should go to 1.
        let mut m = Model::new();
        let a = m.new_var();
        let mut obj = LinExpr::new();
        obj.add_term(-1, a);
        m.minimize(obj);
        let out = Solver::new().solve(&m);
        assert_eq!(out.objective(), Some(-1));
    }

    #[test]
    fn unknown_on_tiny_conflict_budget() {
        let n = 9;
        let mut m = Model::new();
        let p: Vec<Vec<_>> = (0..n + 1).map(|_| m.new_vars(n)).collect();
        for row in &p {
            m.add_clause(row.iter().map(|v| v.lit()));
        }
        for h in 0..n {
            m.add_at_most_one((0..n + 1).map(|i| p[i][h]));
        }
        let mut s = Solver::with_config(SolverConfig {
            conflict_limit: Some(2),
            ..SolverConfig::default()
        });
        assert_eq!(s.solve(&m), Outcome::Unknown);
    }

    #[test]
    fn objective_stop_reports_feasible_at_target() {
        // Chain clauses with optimum 4; a reachable target ends the
        // descent with an unproven incumbent at or below it.
        let mut m = Model::new();
        let vs = m.new_vars(8);
        for w in vs.windows(2) {
            m.add_clause([w[0].lit(), w[1].lit()]);
        }
        m.minimize(LinExpr::sum(vs.clone()));
        let mut s = Solver::with_config(SolverConfig {
            objective_stop: Some(5),
            ..SolverConfig::default()
        });
        match s.solve(&m) {
            Outcome::Feasible { objective, .. } => assert!(objective <= 5),
            Outcome::Optimal { objective, .. } => assert_eq!(objective, 4),
            other => panic!("unexpected outcome {other:?}"),
        }
        // A target below the optimum never triggers: the full descent
        // runs and proves the true optimum.
        let mut s = Solver::with_config(SolverConfig {
            objective_stop: Some(0),
            ..SolverConfig::default()
        });
        assert_eq!(s.solve(&m).objective(), Some(4));
    }

    #[test]
    fn objective_stop_applies_to_incremental_descent() {
        let mut m = Model::new();
        let vs = m.new_vars(8);
        for w in vs.windows(2) {
            m.add_clause([w[0].lit(), w[1].lit()]);
        }
        m.minimize(LinExpr::sum(vs.clone()));
        let mut s = IncrementalSolver::new(
            &m,
            SolverConfig {
                objective_stop: Some(6),
                ..SolverConfig::default()
            },
        );
        let feas = s.solve_feasible();
        assert!(feas.solution().is_some());
        match s.optimize() {
            Outcome::Feasible { objective, .. } => assert!(objective <= 6),
            Outcome::Optimal { objective, .. } => assert_eq!(objective, 4),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn branch_hints_do_not_change_verdicts() {
        // Same model, adversarial hints (wrong phases, scrambled
        // priorities): identical optimum.
        let mut m = Model::new();
        let vs = m.new_vars(8);
        for w in vs.windows(2) {
            m.add_clause([w[0].lit(), w[1].lit()]);
        }
        m.minimize(LinExpr::sum(vs.clone()));
        let base = Solver::new().solve(&m).objective();
        for (i, v) in vs.iter().enumerate() {
            m.suggest_branch(*v, (i as f64) * 0.3 + 1.0, i % 2 == 0);
        }
        let hinted = Solver::new().solve(&m).objective();
        assert_eq!(base, hinted);
    }

    #[test]
    fn stats_populated() {
        let mut m = Model::new();
        let vs = m.new_vars(6);
        m.add_ge(LinExpr::sum(vs.clone()), 3);
        m.minimize(LinExpr::sum(vs));
        let mut s = Solver::new();
        let out = s.solve(&m);
        assert_eq!(out.objective(), Some(3));
        assert!(s.stats().incumbents >= 1);
    }
}

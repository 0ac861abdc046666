//! The public solving interface: feasibility and branch-and-bound
//! optimisation on top of the CDCL engine.
//!
//! Optimisation is an **incremental assumption-based descent**: one
//! persistent engine holds the model; each incumbent's strengthened bound
//! `obj <= val - 1` is added *reified* under a fresh activation literal
//! and probed by assuming the activation chain, never as a permanent
//! constraint. Every clause the engine learns therefore remains valid for
//! the whole descent (and for later queries with different assumption
//! sets), which is the main solver-side lever on the repeated,
//! nearly-identical queries of the CGRA min-II ladder.
//! [`IncrementalSolver`] exposes the persistent engine directly;
//! [`Solver`] keeps the one-shot interface on top of it.

use crate::checker::{self, CheckOutcome};
use crate::engine::{Budget, Engine, EngineFeatures, EngineStats, SatResult};
use crate::model::{Cmp, Constraint, LinExpr, Lit, Model, Var};
use crate::normalize::{normalize, NormConstraint};
use crate::presolve::{
    presolve, LitDisposition, PresolveConfig, PresolveStats, Presolved, Reconstruction,
};
use crate::proof::{Certificate, ProofLog, ProofOrigin};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap randomized feasibility heuristic raced against the exact
/// engines as a first-class incumbent source (see
/// [`Solver::solve_with_probe`]).
///
/// With `threads > 1` the portfolio runs [`SolverConfig::probe_workers`]
/// dedicated probe threads alongside the CDCL workers; every candidate a
/// probe publishes is re-validated against the model and, if valid,
/// becomes a shared incumbent whose objective value bounds every engine
/// mid-solve. With `threads = 1` a single synchronous probe attempt
/// seeds the descent before search starts.
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
    /// A CDCL engine found it (sequential descent or a portfolio worker).
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
    /// Number of portfolio workers: `1` (the default) solves on the
    /// calling thread exactly as before; `0` means "one per available
    /// core"; `n > 1` races `n` diversified engines (see
    /// [`crate::portfolio`]).
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
    /// infeasible solves can take up to twice the configured limit.
    pub certify: bool,
    /// Approximate byte cap on each engine's learnt database plus proof
    /// log. Exceeding it triggers an emergency clause-database reduction
    /// and, failing that, a clean best-found/`Unknown` exit instead of
    /// unbounded growth. `None` (the default) disables the watchdog
    /// (proof logs still default to [`ProofLog::DEFAULT_CAP`]). Portfolio
    /// workers split the cap evenly.
    pub mem_limit: Option<usize>,
    /// Number of heuristic-probe threads the portfolio races alongside
    /// the CDCL workers when a probe is supplied via
    /// [`Solver::solve_with_probe`] and `threads > 1`. `0` (the default)
    /// still runs one probe thread when a probe is supplied — the knob
    /// only scales the count. Ignored when no probe is supplied; with
    /// `threads = 1` the probe runs once synchronously instead.
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

/// Reads the `BILP_THREADS` environment variable: the conventional way
/// for binaries and examples in this repository to default their
/// `--threads` flag. Unset, empty or unparsable values yield `None`;
/// `0` means "all cores" (see [`SolverConfig::threads`]).
pub fn threads_from_env() -> Option<usize> {
    std::env::var("BILP_THREADS").ok()?.trim().parse().ok()
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
    /// (summed across every portfolio worker when `threads > 1`).
    pub engine: EngineStats,
    /// Number of incumbent solutions found during optimisation.
    pub incumbents: u64,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Number of portfolio workers that ran (1 for the sequential path).
    pub workers: u32,
    /// Index of the first worker that produced a decisive verdict, when
    /// the portfolio ran.
    pub winner: Option<u32>,
    /// Presolve reduction counters (all zero when presolve is disabled).
    pub presolve: PresolveStats,
    /// Number of portfolio workers that panicked and were quarantined
    /// (their partial state dropped; the race continued without them).
    pub worker_panics: u32,
    /// Number of heuristic-probe workers that ran (0 when no probe was
    /// supplied; 1 for the sequential synchronous attempt).
    pub probe_workers: u32,
    /// Validated heuristic incumbents accepted from probes (each one
    /// passed the full model check before being recorded).
    pub probe_incumbents: u64,
    /// Times a CDCL worker consumed a globally improved incumbent bound
    /// mid-solve: woken by the engine's bound watch, it re-entered the
    /// search with a strictly tighter permanent bound constraint.
    pub bound_tightenings: u64,
    /// Origin of the solution backing the most recent outcome, when
    /// there is one.
    pub incumbent_source: Option<IncumbentSource>,
}

/// The 0-1 ILP solver.
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
            stats: SolveStats::default(),
            last_core: Vec::new(),
            certificate: None,
            interrupt: None,
        }
    }

    /// Installs an external cooperative-cancellation flag. When another
    /// thread sets it, every engine this solver runs — sequential or
    /// portfolio — returns [`Outcome::Unknown`] at its next budget poll
    /// (or [`Outcome::Feasible`] best-found if the descent already holds
    /// an incumbent). This is how a serving layer implements graceful
    /// shutdown and admission-control rejection of in-flight work
    /// without killing threads.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Statistics of the most recent [`Solver::solve`] call.
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
    ///
    /// Assumption solving runs on the sequential engine regardless of
    /// `config.threads` (the portfolio races independent engines and has
    /// no shared assumption trail).
    pub fn solve_under_assumptions(&mut self, model: &Model, assumptions: &[Lit]) -> Outcome {
        self.certificate = None;
        let start = Instant::now();
        let mut facts = Vec::new();
        let out = self.solve_under_assumptions_inner(model, assumptions, &mut facts);
        if self.config.certify && out == Outcome::Infeasible {
            self.certificate = Some(certify_infeasibility(
                model,
                assumptions,
                &facts,
                &self.config,
            ));
            self.stats.elapsed = start.elapsed();
        }
        out
    }

    fn solve_under_assumptions_inner(
        &mut self,
        model: &Model,
        assumptions: &[Lit],
        facts: &mut Vec<Lit>,
    ) -> Outcome {
        self.stats = SolveStats::default();
        self.last_core.clear();
        let start = Instant::now();
        let deadline = self.config.time_limit.map(|d| start + d);
        self.stats.workers = 1;
        if !self.config.presolve {
            let assoc: Vec<(Lit, Lit)> = assumptions.iter().map(|&a| (a, a)).collect();
            return self.solve_assumed_reduced(model, assumptions, &assoc, start, deadline);
        }
        let pcfg = PresolveConfig {
            probe_budget: self.config.presolve_probe_budget,
            deadline,
            ..PresolveConfig::default()
        };
        match presolve(model, &pcfg) {
            Presolved::Infeasible { stats } => {
                self.stats.presolve = stats;
                self.stats.elapsed = start.elapsed();
                // The model is infeasible without any assumption's help.
                Outcome::Infeasible
            }
            Presolved::Reduced {
                model: red,
                reconstruction,
                stats,
            } => {
                self.stats.presolve = stats;
                if self.config.certify {
                    *facts = presolve_fixed_lits(&reconstruction, model.num_vars());
                }
                let mut mapped = Vec::with_capacity(assumptions.len());
                let mut assoc = Vec::with_capacity(assumptions.len());
                for &a in assumptions {
                    match reconstruction.map_lit(a) {
                        // Already implied by the model — or a don't-care
                        // elimination whose picked value agrees with the
                        // assumption (the expansion witnesses it): drop.
                        LitDisposition::Fixed(true) | LitDisposition::Free(true) => {}
                        // Refuted by the model alone: a one-literal core.
                        LitDisposition::Fixed(false) => {
                            self.last_core = vec![a];
                            self.stats.elapsed = start.elapsed();
                            return Outcome::Infeasible;
                        }
                        // The assumption contradicts a value presolve
                        // merely *chose* for an eliminated variable; the
                        // reduced model cannot answer for it. Solve the
                        // original model without presolve instead.
                        LitDisposition::Free(false) => {
                            let identity: Vec<(Lit, Lit)> =
                                assumptions.iter().map(|&l| (l, l)).collect();
                            return self.solve_assumed_reduced(
                                model,
                                assumptions,
                                &identity,
                                start,
                                deadline,
                            );
                        }
                        LitDisposition::Mapped(rl) => {
                            mapped.push(rl);
                            assoc.push((rl, a));
                        }
                    }
                }
                let out = self.solve_assumed_reduced(&red, &mapped, &assoc, start, deadline);
                self.stats.elapsed = start.elapsed();
                Self::expand_outcome(out, &reconstruction, model)
            }
        }
    }

    /// Assumption solve on an already-reduced model. `assoc` maps reduced
    /// assumption literals back to the caller's originals for the core.
    fn solve_assumed_reduced(
        &mut self,
        model: &Model,
        assumptions: &[Lit],
        assoc: &[(Lit, Lit)],
        start: Instant,
        deadline: Option<Instant>,
    ) -> Outcome {
        self.stats.workers = 1;
        let mut descent = match Descent::build(model, self.config.features, self.config.mem_limit) {
            Ok(d) => d,
            Err(stats) => {
                self.stats.engine = *stats;
                self.stats.elapsed = start.elapsed();
                return Outcome::Infeasible;
            }
        };
        if let Some(flag) = &self.interrupt {
            descent.engine.set_interrupt(Arc::clone(flag));
        }
        let budget = Budget {
            deadline,
            conflict_limit: self.config.conflict_limit,
        };
        let mut core = Vec::new();
        let out = descent.optimize(
            model,
            budget,
            assumptions,
            self.config.objective_stop,
            &mut self.stats.incumbents,
            &mut core,
        );
        if out.solution().is_some() {
            self.stats.incumbent_source = Some(descent.best_source);
        }
        self.stats.engine = descent.engine.stats();
        self.stats.elapsed = start.elapsed();
        self.last_core = core
            .iter()
            .filter_map(|rl| assoc.iter().find(|(r, _)| r == rl).map(|&(_, a)| a))
            .collect();
        out
    }

    /// Solves the model: pure feasibility when no objective is set,
    /// branch-and-bound minimisation otherwise.
    ///
    /// Returned solutions always satisfy every model constraint (this is
    /// re-checked internally; see [`Model::check`]).
    pub fn solve(&mut self, model: &Model) -> Outcome {
        self.solve_probed(model, None)
    }

    /// Solves the model with a heuristic incumbent source racing the
    /// exact engines (see [`HeuristicProbe`]). Verdicts and optima are
    /// exactly those of [`Solver::solve`] — probes only supply validated
    /// solutions (and hence objective upper bounds) earlier; they can
    /// never prove infeasibility or flip a decided verdict.
    pub fn solve_with_probe(&mut self, model: &Model, probe: &dyn HeuristicProbe) -> Outcome {
        self.solve_probed(model, Some(probe))
    }

    fn solve_probed(&mut self, model: &Model, probe: Option<&dyn HeuristicProbe>) -> Outcome {
        self.certificate = None;
        let start = Instant::now();
        let mut facts = Vec::new();
        let out = self.solve_inner(model, probe, &mut facts);
        if self.config.certify && out == Outcome::Infeasible {
            self.certificate = Some(certify_infeasibility(model, &[], &facts, &self.config));
            self.stats.elapsed = start.elapsed();
        }
        out
    }

    fn solve_inner(
        &mut self,
        model: &Model,
        probe: Option<&dyn HeuristicProbe>,
        facts: &mut Vec<Lit>,
    ) -> Outcome {
        self.stats = SolveStats::default();
        let start = Instant::now();
        // One absolute deadline covers presolve *and* search, so a long
        // probe pass eats into — never extends — the solve budget.
        let deadline = self.config.time_limit.map(|d| start + d);
        if !self.config.presolve {
            return self.solve_reduced(model, probe, start, deadline);
        }
        let pcfg = PresolveConfig {
            probe_budget: self.config.presolve_probe_budget,
            deadline,
            ..PresolveConfig::default()
        };
        match presolve(model, &pcfg) {
            Presolved::Infeasible { stats } => {
                self.stats.presolve = stats;
                self.stats.workers = 1;
                self.stats.elapsed = start.elapsed();
                Outcome::Infeasible
            }
            Presolved::Reduced {
                model: red,
                reconstruction,
                stats,
            } => {
                self.stats.presolve = stats;
                if self.config.certify {
                    *facts = presolve_fixed_lits(&reconstruction, model.num_vars());
                }
                // Probes speak the original model's variable space; the
                // engines search the reduced one. The adapter translates
                // every candidate through the reconstruction.
                let reduced_probe = probe.map(|p| ReducedProbe {
                    inner: p,
                    recon: &reconstruction,
                    reduced_vars: red.num_vars(),
                });
                let out = self.solve_reduced(
                    &red,
                    reduced_probe.as_ref().map(|p| p as &dyn HeuristicProbe),
                    start,
                    deadline,
                );
                self.stats.elapsed = start.elapsed();
                Self::expand_outcome(out, &reconstruction, model)
            }
        }
    }

    /// Maps an outcome on the reduced model back to original variables.
    fn expand_outcome(out: Outcome, recon: &Reconstruction, original: &Model) -> Outcome {
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

    /// Solves `model` as-is (no presolve): the sequential engine or the
    /// portfolio, charged against an absolute deadline.
    fn solve_reduced(
        &mut self,
        model: &Model,
        probe: Option<&dyn HeuristicProbe>,
        start: Instant,
        deadline: Option<Instant>,
    ) -> Outcome {
        let threads = self.config.effective_threads();
        if threads > 1 {
            let out = crate::portfolio::solve_portfolio(
                model,
                &self.config,
                threads,
                probe,
                &mut self.stats,
                deadline,
                self.interrupt.as_ref(),
            );
            self.stats.elapsed = start.elapsed();
            return out;
        }
        self.stats.workers = 1;

        let mut descent = match Descent::build(model, self.config.features, self.config.mem_limit) {
            Ok(d) => d,
            Err(stats) => {
                self.stats.elapsed = start.elapsed();
                self.stats.engine = *stats;
                return Outcome::Infeasible;
            }
        };
        if let Some(flag) = &self.interrupt {
            descent.engine.set_interrupt(Arc::clone(flag));
        }
        // Sequential flavour of heuristic seeding: one synchronous probe
        // attempt before the search. A validated candidate decides pure
        // feasibility outright; with an objective it seeds the descent's
        // incumbent, so the first bound posted is already below a real
        // solution instead of being discovered from above.
        if let Some(p) = probe {
            self.stats.probe_workers = 1;
            let stop = AtomicBool::new(false);
            if let Some((solution, val)) = validated_probe(model, p, self.config.seed, &stop) {
                self.stats.probe_incumbents += 1;
                if descent.objective.is_none() {
                    self.stats.incumbent_source = Some(IncumbentSource::Heuristic);
                    self.stats.engine = descent.engine.stats();
                    self.stats.elapsed = start.elapsed();
                    return Outcome::Optimal {
                        solution,
                        objective: 0,
                    };
                }
                descent.seed(solution, val);
            }
        }
        let budget = Budget {
            deadline,
            conflict_limit: self.config.conflict_limit,
        };
        let mut core = Vec::new();
        let out = descent.optimize(
            model,
            budget,
            &[],
            self.config.objective_stop,
            &mut self.stats.incumbents,
            &mut core,
        );
        if out.solution().is_some() {
            self.stats.incumbent_source = Some(descent.best_source);
        }
        self.stats.engine = descent.engine.stats();
        self.stats.elapsed = start.elapsed();
        out
    }
}

/// Runs one probe attempt and validates the candidate against `model`:
/// exact variable count and every constraint satisfied. Returns the
/// assignment together with its (normalised) objective value — `0` for
/// pure feasibility models.
pub(crate) fn validated_probe(
    model: &Model,
    probe: &dyn HeuristicProbe,
    seed: u64,
    stop: &AtomicBool,
) -> Option<(Assignment, i64)> {
    let values = probe.probe(seed, stop)?;
    if values.len() != model.num_vars() {
        return None;
    }
    let solution = Assignment::from_values(values);
    if model.check(|v| solution.value(v)).is_err() {
        return None;
    }
    let val = model
        .objective()
        .map(|o| o.normalized().evaluate(|v| solution.value(v)))
        .unwrap_or(0);
    Some((solution, val))
}

/// Adapts an original-model-space [`HeuristicProbe`] to the
/// presolve-reduced space the engines search: every candidate is
/// translated through [`Reconstruction::restrict`].
struct ReducedProbe<'a> {
    inner: &'a dyn HeuristicProbe,
    recon: &'a Reconstruction,
    reduced_vars: usize,
}

impl HeuristicProbe for ReducedProbe<'_> {
    fn probe(&self, seed: u64, stop: &AtomicBool) -> Option<Vec<bool>> {
        let original = self.inner.probe(seed, stop)?;
        match self.recon.restrict(&original, self.reduced_vars) {
            Some(reduced) => Some(reduced),
            // Untranslatable candidates violate the original model. An
            // empty vector is a well-formed but never-valid candidate:
            // the consumer's validation discards it and — unlike `None`,
            // which retires the probe source — keeps probing.
            None => Some(Vec::new()),
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
/// different assumption sets.
#[derive(Debug)]
struct Descent {
    engine: Engine,
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
    best_source: IncumbentSource,
}

impl Descent {
    /// Loads the model into a fresh engine. `Err` carries the engine stats
    /// when a constraint is already refuted at the root.
    fn build(
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
        })
    }

    /// Seeds the incumbent from an externally *validated* solution (a
    /// heuristic probe's candidate after it passed the model check). The
    /// descent records it exactly like a solver-found incumbent, so the
    /// next `optimize` call starts strictly below it. Returns whether
    /// the seed improved on the current best.
    fn seed(&mut self, solution: Assignment, objective: i64) -> bool {
        if self.best.as_ref().is_none_or(|&(_, b)| objective < b) {
            self.best = Some((solution, objective));
            self.best_source = IncumbentSource::Heuristic;
            true
        } else {
            false
        }
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

    /// One feasibility solve under `assumptions` (the objective-bound
    /// chain is deliberately *not* assumed: the probe answers for the
    /// unbounded model). On `Unsat`, `core` receives the engine's final
    /// conflict. Incumbents are recorded only when `assumptions` is empty,
    /// keeping the seeded descent's first bound an unassumed discovery.
    fn feasible(
        &mut self,
        model: &Model,
        budget: Budget,
        assumptions: &[Lit],
        core: &mut Vec<Lit>,
    ) -> Outcome {
        core.clear();
        match self.engine.solve_under_assumptions(budget, assumptions) {
            SatResult::Unsat => {
                core.extend_from_slice(self.engine.unsat_core());
                Outcome::Infeasible
            }
            SatResult::Unknown => Outcome::Unknown,
            SatResult::Sat => {
                let solution = self.solution(model);
                let Some(obj) = &self.objective else {
                    if assumptions.is_empty() {
                        self.best = Some((solution.clone(), 0));
                        self.best_source = IncumbentSource::Solver;
                    }
                    return Outcome::Optimal {
                        solution,
                        objective: 0,
                    };
                };
                let val = obj.evaluate(|v| solution.value(v));
                if assumptions.is_empty() && self.best.as_ref().is_none_or(|&(_, b)| val < b) {
                    self.best = Some((solution.clone(), val));
                    self.best_source = IncumbentSource::Solver;
                }
                Outcome::Feasible {
                    solution,
                    objective: val,
                }
            }
        }
    }

    /// Branch-and-bound descent to the optimum under `assumptions`,
    /// assuming the objective-bound chain throughout. On an undecided
    /// first probe (`Unknown` with no incumbent yet), `core` stays empty;
    /// on `Infeasible` it receives the engine's final conflict. A `stop`
    /// target ends the descent early (`Feasible`) as soon as an incumbent
    /// reaches it ([`SolverConfig::objective_stop`]).
    ///
    /// Incumbents found under assumptions are still model solutions (the
    /// assumptions only restrict), so recording them and bounding below
    /// them stays sound for later unassumed calls; only the `Optimal`
    /// verdict itself is relative to the given assumptions.
    fn optimize(
        &mut self,
        model: &Model,
        budget: Budget,
        assumptions: &[Lit],
        stop: Option<i64>,
        incumbents: &mut u64,
        core: &mut Vec<Lit>,
    ) -> Outcome {
        core.clear();
        // Target-objective stop: an incumbent already at or below `stop`
        // is good enough — report it without descending further.
        if let (Some(s), Some((solution, val))) = (stop, self.best.clone()) {
            if self.objective.is_some() && val <= s {
                return Outcome::Feasible {
                    solution,
                    objective: val,
                };
            }
        }
        // Feasibility-to-optimisation handoff: an incumbent recorded by an
        // earlier `feasible` call seeds the first bound, so the descent
        // starts strictly below it instead of rediscovering it.
        if let Some(&(_, val)) = self.best.as_ref() {
            if self.objective.is_some() && self.bounded.is_none_or(|b| b > val - 1) {
                let act = self.post_bound(val - 1);
                self.bound_act = Some(act);
                self.bounded = Some(val - 1);
            }
        }
        loop {
            let mut assumed = assumptions.to_vec();
            assumed.extend(self.bound_act);
            match self.engine.solve_under_assumptions(budget, &assumed) {
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
                    let Some(obj) = self.objective.clone() else {
                        self.best = Some((solution.clone(), 0));
                        self.best_source = IncumbentSource::Solver;
                        return Outcome::Optimal {
                            solution,
                            objective: 0,
                        };
                    };
                    let val = obj.evaluate(|v| solution.value(v));
                    *incumbents += 1;
                    self.best = Some((solution, val));
                    self.best_source = IncumbentSource::Solver;
                    if stop.is_some_and(|s| val <= s) {
                        let (solution, objective) = self.best.clone().expect("just recorded");
                        return Outcome::Feasible {
                            solution,
                            objective,
                        };
                    }
                    let act = self.post_bound(val - 1);
                    self.bound_act = Some(act);
                    self.bounded = Some(val - 1);
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
/// The original solve's artefacts are **not** trusted: a fresh sequential
/// proof-logging engine re-solves the *original* model from scratch
/// (no presolve rewriting, no portfolio exchange), and the resulting
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

/// A persistent solver for repeated queries against **one** model.
///
/// Where [`Solver`] rebuilds the engine (and re-runs presolve) on every
/// call, an `IncrementalSolver` presolves and loads the model once at
/// construction and then answers any number of queries on the same
/// engine, so conflict clauses learnt by one query prune the next:
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
/// All queries run on the sequential engine: `config.threads` is ignored
/// (the portfolio races independent engines and has no shared clause
/// database to keep warm). `config.time_limit` bounds the solver's
/// lifetime, not each query: one deadline, fixed at construction, covers
/// presolve and every later query (a query started after it returns at
/// its first budget poll), so a caller's limit is never restarted by a
/// follow-up query. Certification replays keep their own budget (see
/// [`SolverConfig::certify`]). `config.conflict_limit` still applies per
/// query; [`stats`](IncrementalSolver::stats) accumulate across queries.
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
#[derive(Debug)]
pub struct IncrementalSolver {
    config: SolverConfig,
    /// `config.time_limit` from construction: the one deadline presolve
    /// and every query share.
    deadline: Option<Instant>,
    /// `None` when the model was refuted at construction (by presolve or
    /// at the engine root): every query is then trivially `Infeasible`.
    inner: Option<Inner>,
    stats: SolveStats,
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
}

/// The live state of a feasible-so-far [`IncrementalSolver`].
#[derive(Debug)]
struct Inner {
    descent: Descent,
    /// The (possibly presolve-reduced) model the engine holds.
    reduced: Model,
    /// Maps reduced-space solutions and assumption literals back to the
    /// original model; `None` when presolve was disabled.
    reconstruction: Option<Reconstruction>,
    /// The unreduced model, kept only when presolve ran: the fallback
    /// target for assumptions that contradict a don't-care elimination.
    original: Option<Model>,
}

impl IncrementalSolver {
    /// Presolves (per `config.presolve`) and loads `model` into a
    /// persistent engine, fixing the deadline `config.time_limit` from
    /// now. Root infeasibility is detected here; queries on an infeasible
    /// solver return [`Outcome::Infeasible`] immediately with an empty
    /// core.
    pub fn new(model: &Model, config: SolverConfig) -> Self {
        let start = Instant::now();
        let deadline = config.time_limit.map(|d| start + d);
        let mut stats = SolveStats {
            workers: 1,
            ..SolveStats::default()
        };
        let mut facts = Vec::new();
        let built = if config.presolve {
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
        let inner = built.and_then(|(reduced, reconstruction)| {
            match Descent::build(&reduced, config.features, config.mem_limit) {
                Ok(descent) => Some(Inner {
                    descent,
                    original: reconstruction.is_some().then(|| model.clone()),
                    reduced,
                    reconstruction,
                }),
                Err(es) => {
                    stats.engine = *es;
                    None
                }
            }
        });
        // A construction-time refutation is the only Infeasible this
        // solver can ever justify without live state — certify it now,
        // while the original model is still in reach.
        let certificate = (config.certify && inner.is_none())
            .then(|| certify_infeasibility(model, &[], &facts, &config));
        stats.elapsed = start.elapsed();
        IncrementalSolver {
            config,
            deadline,
            inner,
            stats,
            last_core: Vec::new(),
            facts,
            certificate,
            interrupt: None,
        }
    }

    /// Installs an external cooperative-cancellation flag on the
    /// persistent engine: when another thread sets it, the in-flight
    /// query (and every later one, until the flag is cleared) returns at
    /// its next budget poll exactly as if its deadline had expired. See
    /// [`Solver::set_interrupt`].
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.descent.engine.set_interrupt(Arc::clone(&flag));
        }
        self.interrupt = Some(flag);
    }

    /// The trust status of the most recent `Infeasible` answer (or of the
    /// construction-time refutation). Present only when
    /// [`SolverConfig::certify`] is set.
    pub fn certificate(&self) -> Option<&Certificate> {
        self.certificate.as_ref()
    }

    /// Certifies the current `Infeasible` answer against the original
    /// model. No-op when certification is off or the refutation happened
    /// at construction (already certified then).
    fn certify_current(&mut self, assumptions: &[Lit]) {
        if !self.config.certify {
            return;
        }
        let cert = match &self.inner {
            None => return, // construction-time certificate stands
            Some(inner) => {
                let target = inner.original.as_ref().unwrap_or(&inner.reduced);
                certify_infeasibility(target, assumptions, &self.facts, &self.config)
            }
        };
        self.certificate = Some(cert);
    }

    /// Cumulative statistics over construction and every query so far.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// After a query returned [`Outcome::Infeasible`]: the subset of that
    /// query's assumptions (in original-model literals) the refutation
    /// depends on. Empty when the model is infeasible without assumptions.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    /// One query's search budget: the solver-wide deadline and a fresh
    /// conflict limit.
    fn budget(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            conflict_limit: self.config.conflict_limit,
        }
    }

    /// Folds one query's outcome back into original-model space and the
    /// cumulative statistics.
    fn finish(&mut self, out: Outcome, start: Instant) -> Outcome {
        let inner = self.inner.as_ref().expect("finish requires live state");
        self.stats.engine = inner.descent.engine.stats();
        self.stats.elapsed += start.elapsed();
        if out.solution().is_some() {
            self.stats.incumbent_source = Some(inner.descent.best_source);
        }
        match &inner.reconstruction {
            None => out,
            Some(recon) => match out {
                Outcome::Optimal {
                    solution,
                    objective,
                } => Outcome::Optimal {
                    solution: recon.expand(&solution),
                    objective,
                },
                Outcome::Feasible {
                    solution,
                    objective,
                } => Outcome::Feasible {
                    solution: recon.expand(&solution),
                    objective,
                },
                other => other,
            },
        }
    }

    /// One feasibility solve. With an objective set the result is
    /// [`Outcome::Feasible`] (optimality unproven — its solution seeds a
    /// later [`optimize`](IncrementalSolver::optimize)); without one it is
    /// [`Outcome::Optimal`] with objective `0`, as for [`Solver::solve`].
    pub fn solve_feasible(&mut self) -> Outcome {
        if self.inner.is_some() {
            self.certificate = None;
        }
        let out = self.solve_feasible_inner();
        if out == Outcome::Infeasible {
            self.certify_current(&[]);
        }
        out
    }

    fn solve_feasible_inner(&mut self) -> Outcome {
        self.last_core.clear();
        let start = Instant::now();
        let budget = self.budget();
        let Some(inner) = self.inner.as_mut() else {
            return Outcome::Infeasible;
        };
        let mut core = Vec::new();
        let out = inner
            .descent
            .feasible(&inner.reduced, budget, &[], &mut core);
        self.finish(out, start)
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
            None => {
                if values.len() != inner.reduced.num_vars() {
                    return false;
                }
                values.to_vec()
            }
            Some(recon) => match recon.restrict(values, inner.reduced.num_vars()) {
                Some(v) => v,
                None => return false,
            },
        };
        let solution = Assignment::from_values(reduced_values);
        if inner.reduced.check(|v| solution.value(v)).is_err() {
            return false;
        }
        let objective = inner
            .reduced
            .objective()
            .map(|o| o.normalized().evaluate(|v| solution.value(v)))
            .unwrap_or(0);
        if inner.descent.seed(solution, objective) {
            self.stats.probe_incumbents += 1;
            true
        } else {
            false
        }
    }

    /// Branch-and-bound descent to the proven optimum, reusing everything
    /// already learnt (and any incumbent from
    /// [`solve_feasible`](IncrementalSolver::solve_feasible)). Calling it
    /// again after an [`Outcome::Optimal`] verdict just re-proves the
    /// bound cheaply and returns the same solution.
    pub fn optimize(&mut self) -> Outcome {
        if self.inner.is_some() {
            self.certificate = None;
        }
        let out = self.optimize_inner();
        if out == Outcome::Infeasible {
            self.certify_current(&[]);
        }
        out
    }

    fn optimize_inner(&mut self) -> Outcome {
        self.last_core.clear();
        let start = Instant::now();
        let budget = self.budget();
        let Some(inner) = self.inner.as_mut() else {
            return Outcome::Infeasible;
        };
        let mut core = Vec::new();
        let mut incumbents = 0;
        let out = inner.descent.optimize(
            &inner.reduced,
            budget,
            &[],
            self.config.objective_stop,
            &mut incumbents,
            &mut core,
        );
        self.stats.incumbents += incumbents;
        self.finish(out, start)
    }

    /// Feasibility with every literal in `assumptions` (original-model
    /// literals) held true for this call only. On [`Outcome::Infeasible`],
    /// [`unsat_core`](IncrementalSolver::unsat_core) reports a responsible
    /// subset of the assumptions. The objective is evaluated on the
    /// solution but not optimised.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> Outcome {
        if self.inner.is_some() {
            self.certificate = None;
        }
        let out = self.solve_under_assumptions_inner(assumptions);
        if out == Outcome::Infeasible {
            self.certify_current(assumptions);
        }
        out
    }

    fn solve_under_assumptions_inner(&mut self, assumptions: &[Lit]) -> Outcome {
        self.last_core.clear();
        let start = Instant::now();
        let budget = self.budget();
        let Some(inner) = self.inner.as_mut() else {
            return Outcome::Infeasible;
        };
        // Map assumptions into the reduced space, remembering which
        // original literal each reduced one stands for.
        let mut mapped = Vec::with_capacity(assumptions.len());
        let mut assoc: Vec<(Lit, Lit)> = Vec::with_capacity(assumptions.len());
        for &a in assumptions {
            match &inner.reconstruction {
                None => {
                    mapped.push(a);
                    assoc.push((a, a));
                }
                Some(recon) => match recon.map_lit(a) {
                    LitDisposition::Fixed(true) | LitDisposition::Free(true) => {}
                    LitDisposition::Fixed(false) => {
                        self.last_core = vec![a];
                        self.stats.elapsed += start.elapsed();
                        return Outcome::Infeasible;
                    }
                    // Contradicts a don't-care elimination: the persistent
                    // reduced engine cannot answer this probe. Fall back to
                    // a one-shot presolve-free solve of the original model.
                    LitDisposition::Free(false) => {
                        let original = inner
                            .original
                            .as_ref()
                            .expect("presolved state keeps the original model");
                        let mut fallback = Solver::with_config(SolverConfig {
                            // Whatever is left of the shared deadline.
                            time_limit: self
                                .deadline
                                .map(|d| d.saturating_duration_since(Instant::now())),
                            presolve: false,
                            // The outer wrapper certifies Infeasible
                            // answers itself; avoid a double replay.
                            certify: false,
                            ..self.config
                        });
                        if let Some(flag) = &self.interrupt {
                            fallback.set_interrupt(Arc::clone(flag));
                        }
                        let out = fallback.solve_under_assumptions(original, assumptions);
                        self.last_core = fallback.last_core.clone();
                        self.stats.elapsed += start.elapsed();
                        // The probe contract is feasibility, not proven
                        // optimality — downgrade the optimising fallback's
                        // verdict when an objective exists.
                        return match out {
                            Outcome::Optimal {
                                solution,
                                objective,
                            } if original.objective().is_some() => Outcome::Feasible {
                                solution,
                                objective,
                            },
                            other => other,
                        };
                    }
                    LitDisposition::Mapped(rl) => {
                        mapped.push(rl);
                        assoc.push((rl, a));
                    }
                },
            }
        }
        let mut core = Vec::new();
        let out = inner
            .descent
            .feasible(&inner.reduced, budget, &mapped, &mut core);
        self.last_core = core
            .iter()
            .filter_map(|rl| assoc.iter().find(|(r, _)| r == rl).map(|&(_, a)| a))
            .collect();
        self.finish(out, start)
    }
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

//! The exact ILP mapper: builds the paper's formulation and solves it.

use crate::anneal::{AnnealParams, AnnealingMapper};
use crate::formulation::{BuildInfeasible, Formulation, FormulationStats};
use crate::mapping::{validate_mapping, Mapping};
use crate::options::MapperOptions;
use bilp::{
    Assignment, Certificate, HeuristicProbe, IncrementalSolver, Outcome, SolveStats, SolverConfig,
};
use cgra_dfg::Dfg;
use cgra_mrrg::Mrrg;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a mapping attempt.
///
/// Mirrors how the paper reports Table 2: `1` (feasible, a mapping is
/// produced), `0` (proven infeasible) or `T` (solver timeout: neither a
/// mapping nor an infeasibility proof within budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOutcome {
    /// A valid mapping was found.
    Mapped {
        /// The mapping (already validated against the DFG and MRRG).
        mapping: Mapping,
        /// Number of routing resources used (the paper's objective (10)).
        routing_usage: usize,
        /// Whether the routing usage was proven minimal.
        optimal: bool,
    },
    /// The instance is provably unmappable.
    Infeasible {
        /// A presolve-stage explanation, when one exists (`None` means the
        /// search itself derived the infeasibility proof).
        reason: Option<BuildInfeasible>,
    },
    /// The budget expired before feasibility could be decided — the
    /// paper's `T` entries.
    Timeout,
}

impl MapOutcome {
    /// Whether a mapping was produced.
    pub fn is_mapped(&self) -> bool {
        matches!(self, MapOutcome::Mapped { .. })
    }

    /// The mapping, if one was produced.
    pub fn mapping(&self) -> Option<&Mapping> {
        match self {
            MapOutcome::Mapped { mapping, .. } => Some(mapping),
            _ => None,
        }
    }

    /// The Table 2 cell symbol for this outcome: `"1"`, `"0"` or `"T"`.
    pub fn table_symbol(&self) -> &'static str {
        match self {
            MapOutcome::Mapped { .. } => "1",
            MapOutcome::Infeasible { .. } => "0",
            MapOutcome::Timeout => "T",
        }
    }
}

impl fmt::Display for MapOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapOutcome::Mapped {
                routing_usage,
                optimal,
                ..
            } => write!(
                f,
                "mapped ({routing_usage} routing resources{})",
                if *optimal { ", optimal" } else { "" }
            ),
            MapOutcome::Infeasible { reason: Some(r) } => write!(f, "infeasible ({r})"),
            MapOutcome::Infeasible { reason: None } => write!(f, "infeasible"),
            MapOutcome::Timeout => write!(f, "timeout"),
        }
    }
}

/// A mapping attempt's outcome plus diagnostics.
#[derive(Debug, Clone)]
pub struct MapReport {
    /// The outcome.
    pub outcome: MapOutcome,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Size of the built formulation (zeros when presolve refuted the
    /// instance before the model was built).
    pub formulation: FormulationStats,
    /// ILP solver statistics — engine counters, race attribution and
    /// presolve reduction counters (all zero for the annealing mapper and
    /// for instances refuted before the solver ran).
    pub solver: SolveStats,
    /// Constraint-group names whose conjunction already proves the
    /// instance unmappable: an unsat core over the formulation's named
    /// groups (placement per operation, routing per edge, the exclusivity
    /// families, …). `Some` only for search-derived infeasibility with
    /// [`MapperOptions::explain_infeasible`] set; empty when the
    /// explaining solve itself timed out.
    pub infeasible_core: Option<Vec<String>>,
    /// Trust status of an `Infeasible` outcome when
    /// [`MapperOptions::certify`] is set: the solver's independent RUP
    /// checker either re-derived the contradiction (`Certified`), could
    /// not finish within budget (`Unchecked`), or contradicted the
    /// engine (`CheckFailed` — the verdict must not be trusted). `None`
    /// for non-infeasible outcomes, for instances refuted by the
    /// formulation builder before the solver ran, and when certification
    /// was not requested.
    pub certificate: Option<Certificate>,
}

/// The exact, architecture-agnostic ILP mapper (the paper's contribution).
///
/// # Examples
///
/// ```
/// use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
/// use cgra_mapper::{IlpMapper, MapperOptions};
/// use cgra_mrrg::build_mrrg;
///
/// let arch = grid(GridParams::paper(FuMix::Homogeneous, Interconnect::Diagonal));
/// let mrrg = build_mrrg(&arch, 1);
/// let dfg = cgra_dfg::benchmarks::accum();
/// let report = IlpMapper::new(MapperOptions::default()).map(&dfg, &mrrg);
/// assert!(report.outcome.is_mapped());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IlpMapper {
    options: MapperOptions,
    /// External cooperative-cancellation flag, forwarded to every solver
    /// this mapper runs. Kept out of [`MapperOptions`] so the options
    /// stay `Copy`.
    interrupt: Option<Arc<AtomicBool>>,
}

impl IlpMapper {
    /// Creates a mapper with the given options.
    pub fn new(options: MapperOptions) -> Self {
        IlpMapper {
            options,
            interrupt: None,
        }
    }

    /// Returns this mapper with an external cooperative-cancellation
    /// flag installed: when another thread sets it, the in-flight solve
    /// returns promptly with [`MapOutcome::Timeout`] (or a best-found
    /// mapping if the optimising descent already holds an incumbent).
    /// This is the mechanism a serving layer uses for graceful shutdown
    /// of in-flight mapping requests.
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// The mapper's options.
    pub fn options(&self) -> MapperOptions {
        self.options
    }

    /// Maps `dfg` onto `mrrg`.
    ///
    /// Each attempt is one persistent solver over
    /// [`MapperOptions::threads`] engines: it answers the feasibility
    /// question and, with [`MapperOptions::optimize`], goes on to
    /// minimise routing on the same engines.
    /// [`MapperOptions::time_limit`] bounds the attempt as a whole.
    ///
    /// Returned mappings are re-validated structurally against both graphs
    /// before being handed back, so a `Mapped` outcome is always a
    /// certified mapping.
    ///
    /// # Panics
    ///
    /// Panics if the solver returns a solution that fails validation —
    /// that would be a bug in the formulation, never an input property.
    pub fn map(&self, dfg: &Dfg, mrrg: &Mrrg) -> MapReport {
        self.map_with_hint(dfg, mrrg, None)
    }

    /// Maps `dfg` onto `mrrg`, seeding the solver from a known mapping.
    ///
    /// The hint is registered as branch hints (a MIP start) exactly like a
    /// warm-start portfolio result, so the solver reconstructs it first and
    /// then improves on it; verdicts are unaffected. When a hint is given
    /// the simulated-annealing portfolio is skipped — the caller already
    /// has something better than what the portfolio would look for. Hints
    /// referencing slots or nodes outside this MRRG's candidate sets are
    /// silently ignored per variable, so a mapping translated from a
    /// different II is acceptable.
    pub fn map_with_hint(&self, dfg: &Dfg, mrrg: &Mrrg, hint: Option<&Mapping>) -> MapReport {
        let start = Instant::now();
        let mut formulation = match Formulation::build(dfg, mrrg, self.options) {
            Ok(f) => f,
            Err(reason) => {
                return MapReport {
                    outcome: MapOutcome::Infeasible {
                        reason: Some(reason),
                    },
                    elapsed: start.elapsed(),
                    formulation: FormulationStats::default(),
                    solver: SolveStats::default(),
                    infeasible_core: None,
                    certificate: None,
                }
            }
        };
        let stats = formulation.stats();

        if let Some(mapping) = hint {
            formulation.warm_start(dfg, mapping);
        } else if self.options.warm_start {
            if let Some(mapping) = self.warm_start_mapping(dfg, mrrg, start) {
                formulation.warm_start(dfg, &mapping);
            }
        }
        let (out, solver_stats, certificate) = self.solve(dfg, mrrg, &mut formulation, start);
        let outcome = self.decode_outcome(dfg, mrrg, &formulation, out);
        let infeasible_core = if self.options.explain_infeasible
            && matches!(outcome, MapOutcome::Infeasible { .. })
        {
            let explain_budget = self
                .options
                .time_limit
                .map(|l| l.saturating_sub(start.elapsed()));
            Some(formulation.explain_infeasibility(explain_budget))
        } else {
            None
        };
        MapReport {
            outcome,
            elapsed: start.elapsed(),
            formulation: stats,
            solver: solver_stats,
            infeasible_core,
            certificate,
        }
    }

    /// The solver configuration for an attempt that began at `start`:
    /// whatever is left of the attempt's time limit, plus every option
    /// the solver reads.
    fn solver_config(&self, start: Instant) -> SolverConfig {
        SolverConfig {
            time_limit: self
                .options
                .time_limit
                .map(|l| l.saturating_sub(start.elapsed())),
            threads: self.options.threads,
            seed: self.options.seed,
            presolve: self.options.presolve,
            conflict_limit: self.options.conflict_limit,
            objective_stop: self.options.objective_stop,
            certify: self.options.certify,
            mem_limit: self.options.mem_limit,
            probe_workers: self.options.seed_probes,
            ..SolverConfig::default()
        }
    }

    /// The attempt's one solve: a persistent [`IncrementalSolver`]
    /// answers the feasibility question and, when optimising, continues
    /// the descent on the same engines — learnt clauses and variable
    /// activities carry over, and the feasible solution seeds the first
    /// objective bound.
    ///
    /// Only probe delivery depends on the width
    /// ([`MapperOptions::seed_probes`]). With one engine, inline probes
    /// run first and a mapping they find enters twice: as warm-start
    /// branch hints and as the descent's first incumbent. With several,
    /// an [`AnnealProbe`] races the engines, and its validated mappings
    /// become shared incumbents that bound every engine mid-solve.
    fn solve(
        &self,
        dfg: &Dfg,
        mrrg: &Mrrg,
        formulation: &mut Formulation,
        start: Instant,
    ) -> (Outcome, SolveStats, Option<Certificate>) {
        let racing = self.solver_config(start).effective_threads() > 1;
        let probes = self.options.seed_probes > 0;
        let seed = if probes && !racing {
            self.inline_probe(dfg, mrrg, formulation, start)
        } else {
            None
        };
        if let Some((mapping, _)) = &seed {
            formulation.warm_start(dfg, mapping);
        }
        let probe = (probes && racing).then(|| AnnealProbe {
            dfg,
            mrrg,
            formulation,
            options: self.options,
            deadline: Instant::now() + self.probe_budget(start),
        });
        let config = self.solver_config(start);
        let mut inc = match &probe {
            Some(p) => IncrementalSolver::with_probe(formulation.model(), config, p),
            None => IncrementalSolver::new(formulation.model(), config),
        };
        if let Some(flag) = &self.interrupt {
            inc.set_interrupt(Arc::clone(flag));
        }
        if let Some((_, values)) = &seed {
            inc.seed_incumbent(values);
        }
        let first = inc.solve_feasible();
        let out = if self.options.optimize && first.solution().is_some() {
            inc.optimize()
        } else {
            first
        };
        (out, inc.stats(), inc.certificate().cloned())
    }

    /// Translates a solver outcome into a [`MapOutcome`], decoding and
    /// re-validating any solution.
    fn decode_outcome(
        &self,
        dfg: &Dfg,
        mrrg: &Mrrg,
        formulation: &Formulation,
        out: Outcome,
    ) -> MapOutcome {
        match out {
            Outcome::Optimal { solution, .. } => {
                self.decoded(dfg, mrrg, formulation, &solution, self.options.optimize)
            }
            Outcome::Feasible { solution, .. } => {
                self.decoded(dfg, mrrg, formulation, &solution, false)
            }
            Outcome::Infeasible => MapOutcome::Infeasible { reason: None },
            Outcome::Unknown => MapOutcome::Timeout,
        }
    }

    fn decoded(
        &self,
        dfg: &Dfg,
        mrrg: &Mrrg,
        formulation: &Formulation,
        solution: &Assignment,
        optimal: bool,
    ) -> MapOutcome {
        let mapping = formulation.decode(dfg, mrrg, solution);
        validate_mapping(dfg, mrrg, &mapping)
            .unwrap_or_else(|e| panic!("ILP mapping failed validation: {e}"));
        let routing_usage = mapping.routing_resource_usage(dfg);
        MapOutcome::Mapped {
            mapping,
            routing_usage,
            optimal,
        }
    }

    /// A short simulated-annealing portfolio whose mapping becomes branch
    /// hints: up to 45% of the remaining time limit (30 s when
    /// unlimited), in attempts of at most 10 s; skipped when an attempt
    /// would get under 50 ms.
    fn warm_start_mapping(&self, dfg: &Dfg, mrrg: &Mrrg, start: Instant) -> Option<Mapping> {
        let total = match self.options.time_limit {
            Some(limit) => limit.saturating_sub(start.elapsed()).mul_f64(0.45),
            None => Duration::from_secs(30),
        };
        let slice = Duration::from_secs(10).min(total);
        if slice < Duration::from_millis(50) {
            return None;
        }
        AnnealAttempts {
            params: WARM_START_PARAMS,
            seed: self.options.seed,
            stride: 1,
            attempts: u64::MAX,
            slice,
            deadline: Instant::now() + total,
        }
        .run(dfg, mrrg, self.options, self.interrupt.as_deref(), Some)
    }

    /// The wall-clock budget for heuristic seeding probes:
    /// [`MapperOptions::probe_budget`] verbatim when set, otherwise 10%
    /// of the remaining time limit clamped to [100 ms, 2 s] — or 1 s
    /// when the attempt is unlimited. Deliberately small: probes exist
    /// to hand the exact solver an early incumbent, not to compete with
    /// it for the budget.
    fn probe_budget(&self, start: Instant) -> Duration {
        if let Some(budget) = self.options.probe_budget {
            return budget;
        }
        match self.options.time_limit {
            Some(limit) => limit
                .saturating_sub(start.elapsed())
                .mul_f64(0.10)
                .clamp(Duration::from_millis(100), Duration::from_secs(2)),
            None => Duration::from_secs(1),
        }
    }

    /// Runs up to [`MapperOptions::seed_probes`] probe attempts inline,
    /// splitting the probe budget evenly, and returns the first mapping
    /// the formulation can encode, with its dense assignment over the
    /// formulation's variables.
    fn inline_probe(
        &self,
        dfg: &Dfg,
        mrrg: &Mrrg,
        formulation: &Formulation,
        start: Instant,
    ) -> Option<(Mapping, Vec<bool>)> {
        let budget = self.probe_budget(start);
        let attempts = self.options.seed_probes as u64;
        AnnealAttempts {
            params: PROBE_PARAMS,
            seed: self.options.seed,
            stride: 1,
            attempts,
            slice: budget / u32::try_from(attempts).unwrap_or(u32::MAX).max(1),
            deadline: Instant::now() + budget,
        }
        .run(
            dfg,
            mrrg,
            self.options,
            self.interrupt.as_deref(),
            |mapping| {
                formulation
                    .encode(dfg, &mapping)
                    .map(|values| (mapping, values))
            },
        )
    }
}

/// Annealing schedule for the warm-start portfolio.
const WARM_START_PARAMS: AnnealParams = AnnealParams {
    outer_iterations: 400,
    moves_per_temperature: 400,
    initial_temperature: 10.0,
    cooling: 0.97,
    congestion_growth: 0.15,
};

/// Annealing schedule for seeding probes — much lighter than the
/// warm-start portfolio's: probes race the exact solver, so a fast
/// mediocre mapping beats a slow good one.
const PROBE_PARAMS: AnnealParams = AnnealParams {
    outer_iterations: 120,
    moves_per_temperature: 200,
    initial_temperature: 5.0,
    cooling: 0.9,
    congestion_growth: 0.25,
};

/// The one annealing loop behind warm start, inline probes and
/// [`AnnealProbe`]: attempt `k` anneals under `params` with seed
/// `seed + k * stride` for `slice`, clamped to the time left before
/// `deadline`.
#[derive(Debug)]
struct AnnealAttempts {
    params: AnnealParams,
    seed: u64,
    stride: u64,
    attempts: u64,
    slice: Duration,
    deadline: Instant,
}

impl AnnealAttempts {
    /// Runs the attempts in order and returns the first mapping `accept`
    /// turns into a value. Stops when `stop` is set (the annealer itself
    /// cannot be interrupted, so it is polled between attempts), when
    /// the attempts run out, or when less than 5 ms is left.
    fn run<T>(
        &self,
        dfg: &Dfg,
        mrrg: &Mrrg,
        options: MapperOptions,
        stop: Option<&AtomicBool>,
        mut accept: impl FnMut(Mapping) -> Option<T>,
    ) -> Option<T> {
        for k in 0..self.attempts {
            let slice = self
                .slice
                .min(self.deadline.saturating_duration_since(Instant::now()));
            if slice < Duration::from_millis(5) || stop.is_some_and(|f| f.load(Ordering::Relaxed)) {
                break;
            }
            let mapper = AnnealingMapper::new(
                MapperOptions {
                    seed: self.seed.wrapping_add(k.wrapping_mul(self.stride)),
                    time_limit: Some(slice),
                    ..options
                },
                self.params,
            );
            if let MapOutcome::Mapped { mapping, .. } = mapper.map(dfg, mrrg).outcome {
                if let Some(found) = accept(mapping) {
                    return Some(found);
                }
            }
        }
        None
    }
}

/// A racing probe source for several engines: each `probe` call runs
/// probe attempts of at most 250 ms under the diversified seed until one
/// produces an encodable mapping or the probe deadline passes (`None`
/// then retires the probe worker; the CDCL workers keep the full time
/// budget).
#[derive(Debug)]
struct AnnealProbe<'a> {
    dfg: &'a Dfg,
    mrrg: &'a Mrrg,
    formulation: &'a Formulation,
    options: MapperOptions,
    deadline: Instant,
}

impl HeuristicProbe for AnnealProbe<'_> {
    fn probe(&self, seed: u64, stop: &AtomicBool) -> Option<Vec<bool>> {
        AnnealAttempts {
            params: PROBE_PARAMS,
            seed,
            stride: 0x9e37_79b9_7f4a_7c15,
            attempts: u64::MAX,
            slice: Duration::from_millis(250),
            deadline: self.deadline,
        }
        .run(self.dfg, self.mrrg, self.options, Some(stop), |mapping| {
            self.formulation.encode(self.dfg, &mapping)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
    use cgra_dfg::OpKind;
    use cgra_mrrg::build_mrrg;

    fn small_mrrg(contexts: u32) -> Mrrg {
        let arch = grid(GridParams {
            rows: 2,
            cols: 2,
            fu_mix: FuMix::Homogeneous,
            interconnect: Interconnect::Orthogonal,
            io_pads: true,
            memory_ports: true,
            toroidal: false,
            alu_latency: 0,
            bypass_channel: false,
        });
        build_mrrg(&arch, contexts)
    }

    fn tiny_dfg() -> Dfg {
        let mut g = Dfg::new("t");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let b = g.add_op("b", OpKind::Input).unwrap();
        let s = g.add_op("s", OpKind::Add).unwrap();
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(a, s, 0).unwrap();
        g.connect(b, s, 1).unwrap();
        g.connect(s, o, 0).unwrap();
        g
    }

    #[test]
    fn maps_tiny_add() {
        let mrrg = small_mrrg(1);
        let report = IlpMapper::new(MapperOptions::default()).map(&tiny_dfg(), &mrrg);
        assert!(report.outcome.is_mapped(), "{}", report.outcome);
        assert_eq!(report.outcome.table_symbol(), "1");
    }

    #[test]
    fn maps_with_multi_fanout() {
        // One input feeding two adds, results combined: multi-fanout value.
        let mut g = Dfg::new("fan");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let b = g.add_op("b", OpKind::Input).unwrap();
        let s1 = g.add_op("s1", OpKind::Add).unwrap();
        let s2 = g.add_op("s2", OpKind::Add).unwrap();
        let s3 = g.add_op("s3", OpKind::Add).unwrap();
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(a, s1, 0).unwrap();
        g.connect(b, s1, 1).unwrap();
        g.connect(a, s2, 0).unwrap();
        g.connect(b, s2, 1).unwrap();
        g.connect(s1, s3, 0).unwrap();
        g.connect(s2, s3, 1).unwrap();
        g.connect(s3, o, 0).unwrap();
        // On the 2x2 orthogonal array each block's single output mux is
        // the only inter-block conduit, so this diamond needs II=2.
        let mrrg = small_mrrg(2);
        let report = IlpMapper::new(MapperOptions::default()).map(&g, &mrrg);
        assert!(report.outcome.is_mapped(), "{}", report.outcome);
    }

    #[test]
    fn maps_load_store_through_memory_port() {
        let mut g = Dfg::new("mem");
        let a = g.add_op("addr", OpKind::Input).unwrap();
        let l = g.add_op("l", OpKind::Load).unwrap();
        let s = g.add_op("s", OpKind::Add).unwrap();
        let st = g.add_op("st", OpKind::Store).unwrap();
        g.connect(a, l, 0).unwrap();
        g.connect(l, s, 0).unwrap();
        g.connect(a, s, 1).unwrap();
        g.connect(a, st, 0).unwrap();
        g.connect(s, st, 1).unwrap();
        let mrrg = small_mrrg(2);
        let report = IlpMapper::new(MapperOptions::default()).map(&g, &mrrg);
        assert!(report.outcome.is_mapped(), "{}", report.outcome);
    }

    #[test]
    fn capacity_infeasible_is_reported() {
        // 5 adds on a 2x2 array (4 ALUs).
        let mut g = Dfg::new("big");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let mut prev = a;
        for k in 0..5 {
            let s = g.add_op(format!("s{k}"), OpKind::Add).unwrap();
            g.connect(prev, s, 0).unwrap();
            g.connect(a, s, 1).unwrap();
            prev = s;
        }
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(prev, o, 0).unwrap();
        let mrrg = small_mrrg(1);
        let report = IlpMapper::new(MapperOptions::default()).map(&g, &mrrg);
        assert!(matches!(
            report.outcome,
            MapOutcome::Infeasible { reason: Some(_) }
        ));
        assert_eq!(report.outcome.table_symbol(), "0");

        // Without the presolve the solver itself proves infeasibility.
        let opts = MapperOptions {
            redundant_capacity: false,
            ..MapperOptions::default()
        };
        let report = IlpMapper::new(opts).map(&g, &mrrg);
        assert!(matches!(
            report.outcome,
            MapOutcome::Infeasible { reason: None }
        ));
        // Explanation was not requested.
        assert!(report.infeasible_core.is_none());
    }

    #[test]
    fn infeasible_explanation_names_constraint_groups() {
        // 5 adds onto 4 ALUs with the matching presolve off: the search
        // derives the infeasibility, and the requested explanation must
        // blame a set of constraint groups that genuinely conflict. Any
        // such set contains a placement group — every other family is
        // satisfied by the all-zero assignment.
        let mut g = Dfg::new("big");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let mut prev = a;
        for k in 0..5 {
            let s = g.add_op(format!("s{k}"), OpKind::Add).unwrap();
            g.connect(prev, s, 0).unwrap();
            g.connect(a, s, 1).unwrap();
            prev = s;
        }
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(prev, o, 0).unwrap();
        let mrrg = small_mrrg(1);
        let opts = MapperOptions {
            redundant_capacity: false,
            explain_infeasible: true,
            ..MapperOptions::default()
        };
        let report = IlpMapper::new(opts).map(&g, &mrrg);
        assert!(matches!(
            report.outcome,
            MapOutcome::Infeasible { reason: None }
        ));
        let core = report
            .infeasible_core
            .as_ref()
            .expect("explanation requested");
        assert!(!core.is_empty(), "explanation solve should finish");
        assert!(
            core.iter().any(|n| n.starts_with("placement of")),
            "no placement group in {core:?}"
        );
        // Every reported name is a real group of the formulation.
        let f = Formulation::build(&g, &mrrg, opts).expect("builds without matching presolve");
        let names: Vec<_> = f.constraint_groups().iter().map(|(_, n)| n).collect();
        for n in core {
            assert!(names.contains(&n), "unknown group `{n}` in {core:?}");
        }
        // And the renderer surfaces them.
        let text = crate::render_infeasibility(&report).expect("infeasible outcome");
        assert!(text.contains("conflicting constraint groups"), "{text}");
    }

    #[test]
    fn optimized_mapping_uses_no_more_routing_than_first_feasible() {
        let mrrg = small_mrrg(1);
        let feas = IlpMapper::new(MapperOptions::default()).map(&tiny_dfg(), &mrrg);
        let opt = IlpMapper::new(MapperOptions {
            optimize: true,
            ..MapperOptions::default()
        })
        .map(&tiny_dfg(), &mrrg);
        let (
            MapOutcome::Mapped {
                routing_usage: u1, ..
            },
            MapOutcome::Mapped {
                routing_usage: u2,
                optimal,
                ..
            },
        ) = (&feas.outcome, &opt.outcome)
        else {
            panic!("both attempts should map");
        };
        assert!(optimal);
        assert!(u2 <= u1, "optimal {u2} must not exceed feasible {u1}");
    }

    #[test]
    fn non_commutative_operand_order_respected() {
        // sub(a, b) must route a to port 0 and b to port 1.
        let mut g = Dfg::new("sub");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let b = g.add_op("b", OpKind::Input).unwrap();
        let s = g.add_op("s", OpKind::Sub).unwrap();
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(a, s, 0).unwrap();
        g.connect(b, s, 1).unwrap();
        g.connect(s, o, 0).unwrap();
        let mrrg = small_mrrg(1);
        let report = IlpMapper::new(MapperOptions::default()).map(&g, &mrrg);
        let mapping = report.outcome.mapping().expect("maps").clone();
        assert!(!mapping.swapped.contains(&s));
        // Validation inside map() already guarantees port correctness;
        // check the terminal tags explicitly for good measure.
        let e0 = g.operand_edge(s, 0).unwrap();
        let last = *mapping.routes[&e0].last().unwrap();
        match mrrg.node(last).unwrap().kind {
            cgra_mrrg::NodeKind::Route { operand: Some(t) } => assert_eq!(t, 0),
            ref k => panic!("unexpected terminal {k:?}"),
        }
    }

    #[test]
    fn commutativity_can_be_disabled() {
        let mrrg = small_mrrg(1);
        let opts = MapperOptions {
            commutativity: false,
            ..MapperOptions::default()
        };
        let report = IlpMapper::new(opts).map(&tiny_dfg(), &mrrg);
        let mapping = report.outcome.mapping().expect("maps");
        assert!(mapping.swapped.is_empty());
    }

    #[test]
    fn encode_of_a_valid_mapping_satisfies_the_model() {
        // `encode` is what lets an annealer mapping enter the exact
        // solver as a candidate: its output must pass the same model
        // check the solver applies before accepting an incumbent.
        let mrrg = small_mrrg(1);
        let dfg = tiny_dfg();
        let opts = MapperOptions::default();
        let mapping = IlpMapper::new(opts)
            .map(&dfg, &mrrg)
            .outcome
            .mapping()
            .expect("maps")
            .clone();
        let f = Formulation::build(&dfg, &mrrg, opts).expect("builds");
        let values = f.encode(&dfg, &mapping).expect("every atom has a variable");
        assert_eq!(values.len(), f.model().num_vars());
        assert_eq!(f.model().check(|v| values[v.index()]), Ok(()));
    }

    #[test]
    fn seeding_probes_change_nothing_provable() {
        // The proven-optimal routing usage must be identical with and
        // without probes, on one engine and on two.
        let mrrg = small_mrrg(1);
        let dfg = tiny_dfg();
        let baseline = IlpMapper::new(MapperOptions {
            optimize: true,
            ..MapperOptions::default()
        })
        .map(&dfg, &mrrg);
        let MapOutcome::Mapped {
            routing_usage: optimum,
            optimal: true,
            ..
        } = baseline.outcome
        else {
            panic!("unseeded baseline should prove an optimum");
        };
        for threads in [1usize, 2] {
            let report = IlpMapper::new(MapperOptions {
                optimize: true,
                threads,
                seed_probes: 2,
                probe_budget: Some(Duration::from_millis(200)),
                ..MapperOptions::default()
            })
            .map(&dfg, &mrrg);
            match &report.outcome {
                MapOutcome::Mapped {
                    routing_usage,
                    optimal,
                    ..
                } => {
                    assert!(*optimal, "threads={threads}");
                    assert_eq!(*routing_usage, optimum, "threads={threads}");
                }
                other => panic!("threads={threads}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn seeding_probes_cannot_flip_infeasibility() {
        // 5 adds onto 4 ALUs with the matching presolve off, so the
        // exact solver itself proves infeasibility — probes hammer away
        // and must publish nothing.
        let mut g = Dfg::new("big");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let mut prev = a;
        for k in 0..5 {
            let s = g.add_op(format!("s{k}"), OpKind::Add).unwrap();
            g.connect(prev, s, 0).unwrap();
            g.connect(a, s, 1).unwrap();
            prev = s;
        }
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(prev, o, 0).unwrap();
        let mrrg = small_mrrg(1);
        for threads in [1usize, 2] {
            let report = IlpMapper::new(MapperOptions {
                redundant_capacity: false,
                threads,
                seed_probes: 4,
                probe_budget: Some(Duration::from_millis(100)),
                ..MapperOptions::default()
            })
            .map(&g, &mrrg);
            assert!(
                matches!(report.outcome, MapOutcome::Infeasible { reason: None }),
                "threads={threads}: {}",
                report.outcome
            );
            assert_eq!(report.solver.probe_incumbents, 0, "threads={threads}");
        }
    }
}

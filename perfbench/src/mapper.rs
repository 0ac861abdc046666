//! The `table2` and `descent` workloads: one client, closed loop, one
//! mapping question at a time through the mapper's public API.
//!
//! The untraced pass asks every question through `Session::map_with`,
//! exactly as a caller of the mapper would. The traced pass asks the
//! same questions through the layer functions directly
//! (`Formulation::build`, `IncrementalSolver`, `Formulation::decode` +
//! `validate_mapping`) with a span around each, and must reproduce the
//! untraced pass's work fingerprint request by request.

use crate::inputs::{paper_column, Cell, Fabric, Kernel};
use crate::report::{mean, ms, RunResult, GUARD};
use crate::stats::{geomean, median, percentile, sorted, tail_percentile, Share, Tally};
use crate::trace::Tracer;
use bilp::{IncrementalSolver, Outcome, SolverConfig};
use cgra_dfg::Dfg;
use cgra_mapper::{validate_mapping, Formulation, MapOutcome, MapperOptions, Mapping, Session};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A mapper workload: a fixed list of questions and how to ask them.
#[derive(Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Whether routing is minimised (objective (10)).
    pub optimize: bool,
    /// Conflict budget per solver query.
    pub conflict_limit: u64,
    /// Kernels the cells index.
    pub kernels: Vec<Kernel>,
    /// Fabrics the cells index.
    pub fabrics: Vec<Fabric>,
    /// The questions, in the order they are asked.
    pub cells: Vec<Cell>,
}

impl Spec {
    /// The options every request of this workload runs with: a conflict
    /// budget sets the work, and every clock-driven path is off.
    pub fn options(&self) -> MapperOptions {
        MapperOptions {
            optimize: self.optimize,
            conflict_limit: Some(self.conflict_limit),
            time_limit: Some(GUARD),
            threads: 1,
            build_jobs: 1,
            warm_start: false,
            seed_probes: 0,
            presolve: true,
            ..MapperOptions::default()
        }
    }
}

/// What one request did: its verdict, routing objective, whether that
/// objective was proven optimal, and its solver conflicts. Identical
/// inputs and budgets must give identical fingerprints on every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `1`, `0` or `T`.
    pub verdict: &'static str,
    /// Routing resources used, when mapped.
    pub routing: Option<usize>,
    /// Whether the routing was proven minimal.
    pub optimal: bool,
    /// Solver conflicts over the whole request.
    pub conflicts: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let routing = self
            .routing
            .map_or_else(|| "-".to_owned(), |r| r.to_string());
        write!(
            f,
            "{} routing={routing} optimal={} conflicts={}",
            self.verdict, self.optimal as u8, self.conflicts
        )
    }
}

impl Fingerprint {
    fn of(outcome: &MapOutcome, conflicts: u64) -> Self {
        let (routing, optimal) = match outcome {
            MapOutcome::Mapped {
                routing_usage,
                optimal,
                ..
            } => (Some(*routing_usage), *optimal),
            _ => (None, false),
        };
        Fingerprint {
            verdict: outcome.table_symbol(),
            routing,
            optimal,
            conflicts,
        }
    }
}

/// The parsed inputs: kernels, and one session per fabric with its
/// MRRGs built for every II the workload uses.
struct Prepared {
    dfgs: Vec<Dfg>,
    sessions: Vec<Session>,
}

fn prepare(
    spec: &Spec,
    options: MapperOptions,
    mut on_mrrg: impl FnMut(Duration, usize),
) -> Prepared {
    let dfgs = spec
        .kernels
        .iter()
        .map(|k| cgra_dfg::text::parse(&k.text).expect("generated DFG text parses"))
        .collect();
    let sessions: Vec<Session> = spec
        .fabrics
        .iter()
        .map(|f| {
            let arch = cgra_arch::text::parse(&f.text).expect("generated fabric text parses");
            Session::new(arch, options)
        })
        .collect();
    let mut used: Vec<(usize, u32)> = spec.cells.iter().map(|c| (c.fabric, c.ii)).collect();
    used.sort_unstable();
    used.dedup();
    for (fabric, ii) in used {
        let t = Instant::now();
        let mrrg = sessions[fabric].mrrg(ii);
        on_mrrg(t.elapsed(), mrrg.node_count());
    }
    Prepared { dfgs, sessions }
}

/// One answered request.
struct Answer {
    latency: Duration,
    fingerprint: Fingerprint,
    mapping: Option<Mapping>,
}

impl Answer {
    fn new(latency: Duration, outcome: MapOutcome, conflicts: u64) -> Self {
        let fingerprint = Fingerprint::of(&outcome, conflicts);
        let mapping = match outcome {
            MapOutcome::Mapped { mapping, .. } => Some(mapping),
            _ => None,
        };
        Answer {
            latency,
            fingerprint,
            mapping,
        }
    }

    /// A request whose call panicked (verdict `!`).
    fn panicked(latency: Duration) -> Self {
        Answer {
            latency,
            fingerprint: Fingerprint {
                verdict: "!",
                routing: None,
                optimal: false,
                conflicts: 0,
            },
            mapping: None,
        }
    }
}

/// Asks every question through `Session::map_with`, timing one fresh
/// set-up before each request so that the set-up samples spread over
/// the whole run. Returns the answers and the set-up times.
fn untraced_pass(
    spec: &Spec,
    prepared: &Prepared,
    options: MapperOptions,
) -> (Vec<Answer>, Vec<f64>) {
    let mut setups = Vec::with_capacity(spec.cells.len());
    let answers = spec
        .cells
        .iter()
        .map(|cell| {
            let t = Instant::now();
            drop(prepare(spec, options, |_, _| {}));
            setups.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let report = catch_unwind(AssertUnwindSafe(|| {
                prepared.sessions[cell.fabric].map_with(
                    &prepared.dfgs[cell.kernel],
                    cell.ii,
                    options,
                    None,
                )
            }));
            let latency = t.elapsed();
            match report {
                Ok(report) => Answer::new(latency, report.outcome, report.solver.engine.conflicts),
                Err(_) => Answer::panicked(latency),
            }
        })
        .collect();
    (answers, setups)
}

/// Work counters the traced pass sums over its requests, read from the
/// formulation and the solver.
#[derive(Default)]
struct Counters {
    vars: u64,
    constraints: u64,
    refuted: u64,
    presolve: Duration,
    reduction: f64,
    feasible_conflicts: u64,
    feasible_props: u64,
    budget_hits: u64,
    descent_conflicts: u64,
    incumbents: u64,
    descent_budget_hits: u64,
    descents: u64,
    optimal: u64,
}

/// Asks every question through the layer functions, one span per call.
fn traced_pass(
    spec: &Spec,
    prepared: &Prepared,
    options: MapperOptions,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (Vec<Answer>, Duration) {
    let started = Instant::now();
    let config = SolverConfig {
        time_limit: options.time_limit,
        threads: 1,
        seed: options.seed,
        presolve: options.presolve,
        conflict_limit: options.conflict_limit,
        objective_stop: options.objective_stop,
        ..SolverConfig::default()
    };
    let mut answers = Vec::with_capacity(spec.cells.len());
    for (i, cell) in spec.cells.iter().enumerate() {
        let request = i as u64;
        let dfg = &prepared.dfgs[cell.kernel];
        let t = Instant::now();
        let asked = catch_unwind(AssertUnwindSafe(|| {
            traced_request(
                dfg, prepared, *cell, request, options, config, tracer, counters,
            )
        }));
        let latency = t.elapsed();
        answers.push(match asked {
            Ok((outcome, conflicts)) => Answer::new(latency, outcome, conflicts),
            Err(_) => Answer::panicked(latency),
        });
    }
    (answers, started.elapsed())
}

/// One traced request: a root span with one child per layer call.
#[allow(clippy::too_many_arguments)]
fn traced_request(
    dfg: &Dfg,
    prepared: &Prepared,
    cell: Cell,
    request: u64,
    options: MapperOptions,
    config: SolverConfig,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (MapOutcome, u64) {
    let root = tracer.begin("request", request, None);
    let mrrg = tracer.span("mrrg", request, Some(root), || {
        prepared.sessions[cell.fabric].mrrg(cell.ii)
    });
    let built = tracer.span("formulation", request, Some(root), || {
        Formulation::build(dfg, &mrrg, options)
    });
    let (outcome, conflicts) = match built {
        Err(reason) => {
            counters.refuted += 1;
            (
                MapOutcome::Infeasible {
                    reason: Some(reason),
                },
                0,
            )
        }
        Ok(formulation) => {
            let stats = formulation.stats();
            counters.vars += (stats.f_vars + stats.r_vars + stats.rs_vars + stats.swap_vars) as u64;
            counters.constraints += stats.constraints as u64;
            let mut inc = tracer.span("load", request, Some(root), || {
                IncrementalSolver::new(formulation.model(), config)
            });
            let first = tracer.span("feasible", request, Some(root), || inc.solve_feasible());
            let after_feasible = inc.stats();
            counters.presolve += after_feasible.presolve.elapsed;
            counters.reduction += after_feasible.presolve.reduction_ratio();
            counters.feasible_conflicts += after_feasible.engine.conflicts;
            counters.feasible_props += after_feasible.engine.propagations;
            let out = if options.optimize && first.solution().is_some() {
                counters.descents += 1;
                tracer.span("descent", request, Some(root), || inc.optimize())
            } else {
                first
            };
            let end = inc.stats();
            counters.descent_conflicts += end.engine.conflicts - after_feasible.engine.conflicts;
            counters.incumbents += end.incumbents;
            let outcome = tracer.span("mapping", request, Some(root), || {
                decode(dfg, &mrrg, &formulation, out, options.optimize)
            });
            match &outcome {
                MapOutcome::Timeout => counters.budget_hits += 1,
                MapOutcome::Mapped { optimal: true, .. } if options.optimize => {
                    counters.optimal += 1
                }
                MapOutcome::Mapped { .. } if options.optimize => counters.descent_budget_hits += 1,
                _ => {}
            }
            (outcome, end.engine.conflicts)
        }
    };
    tracer.end(root);
    (outcome, conflicts)
}

/// Mirrors `IlpMapper`'s translation of a solver outcome.
fn decode(
    dfg: &Dfg,
    mrrg: &cgra_mrrg::Mrrg,
    formulation: &Formulation,
    out: Outcome,
    optimize: bool,
) -> MapOutcome {
    let (solution, optimal) = match out {
        Outcome::Optimal { solution, .. } => (solution, optimize),
        Outcome::Feasible { solution, .. } => (solution, false),
        Outcome::Infeasible => return MapOutcome::Infeasible { reason: None },
        Outcome::Unknown => return MapOutcome::Timeout,
    };
    let mapping = formulation.decode(dfg, mrrg, &solution);
    // Validation is part of this layer's work, as in `IlpMapper`; a bad
    // mapping shows up as a fingerprint mismatch against the untraced
    // pass, whose copy the checks validate and simulate.
    let _ = validate_mapping(dfg, mrrg, &mapping);
    let routing_usage = mapping.routing_resource_usage(dfg);
    MapOutcome::Mapped {
        mapping,
        routing_usage,
        optimal,
    }
}

/// Checks every answer outside the timed span: the wall-clock guard,
/// agreement with the paper's Table 2, structural validation and
/// functional simulation of every mapping. Returns the simulation times.
fn check(
    spec: &Spec,
    prepared: &Prepared,
    answers: &[Answer],
    tally: &mut Tally,
    ids: &[u64],
) -> Vec<Duration> {
    let mut sim_times = Vec::new();
    for ((cell, answer), &id) in spec.cells.iter().zip(answers).zip(ids) {
        if answer.fingerprint.verdict == "!" {
            tally.fail(id, "panic");
        }
        if answer.latency >= GUARD {
            tally.fail(id, "wall-clock guard reached");
        }
        let kernel = &spec.kernels[cell.kernel].name;
        if let Some(expected) = paper_symbol(kernel, *cell) {
            let got = answer.fingerprint.verdict;
            if got != "T" && expected != "T" && got != expected {
                tally.fail(id, format!("verdict disagrees with Table 2 ({kernel})"));
            }
        }
        if let Some(mapping) = &answer.mapping {
            let session = &prepared.sessions[cell.fabric];
            let mrrg = session.mrrg(cell.ii);
            let dfg = &prepared.dfgs[cell.kernel];
            if validate_mapping(dfg, &mrrg, mapping).is_err() {
                tally.fail(id, "mapping fails validate_mapping");
            }
            let t = Instant::now();
            if cgra_sim::verify_mapping_vectors(session.arch(), &mrrg, dfg, mapping, 4).is_err() {
                tally.fail(id, "mapping fails simulation");
            }
            sim_times.push(t.elapsed());
        }
    }
    sim_times
}

/// The paper's Table 2 symbol for a cell on the paper fabrics.
fn paper_symbol(kernel: &str, cell: Cell) -> Option<&'static str> {
    cgra_bench::PAPER_TABLE2
        .iter()
        .find(|(name, _)| *name == kernel)
        .map(|(_, row)| row[paper_column(cell)])
}

/// Runs the workload: the untraced pass (with its interleaved set-ups),
/// the checks, and with `trace` the traced pass.
pub fn run(spec: &Spec, trace: bool) -> RunResult {
    let options = spec.options();
    let mut result = RunResult::new(spec.name);
    result.header.push(format!(
        "requests={} optimize={} conflict_limit={} guard_s={} threads=1 build_jobs=1 warm_start=off seed_probes=0",
        spec.cells.len(),
        spec.optimize,
        spec.conflict_limit,
        GUARD.as_secs()
    ));

    let prepared = prepare(spec, options, |_, _| {});
    let (answers, setups) = untraced_pass(spec, &prepared, options);
    // One client, closed loop, no think time: the timed phase is the sum
    // of the request latencies (the interleaved set-ups are not in it).
    let wall: Duration = answers.iter().map(|a| a.latency).sum();
    let ids: Vec<u64> = answers.iter().map(|_| result.tally.attempt()).collect();
    let sim_times = check(spec, &prepared, &answers, &mut result.tally, &ids);
    result.fingerprints = ids
        .iter()
        .zip(&answers)
        .map(|(&id, a)| (id, a.fingerprint.to_string()))
        .collect();

    let latencies: Vec<f64> = answers.iter().map(|a| ms(a.latency)).collect();
    let n = latencies.len();
    let by_size = sorted(&latencies);
    let tail = tail_percentile(n, 10).unwrap_or(100);
    let decided = answers
        .iter()
        .filter(|a| a.fingerprint.verdict != "T")
        .count() as u64;
    let routing: Vec<f64> = answers
        .iter()
        .filter_map(|a| a.fingerprint.routing)
        .map(|r| r as f64)
        .collect();
    let p50 = median(&latencies).unwrap_or(0.0);
    result.header.push(format!(
        "latency_tail_ms=p{tail} of {n} requests; decided={}; mapped={}",
        Share::new(decided, n as u64),
        routing.len()
    ));
    let e2e = &mut result.e2e;
    e2e.push("setup_s", median(&setups).unwrap_or(0.0), "s");
    e2e.push("throughput_ops", n as f64 / wall.as_secs_f64(), "1/s");
    e2e.push("latency_p50_ms", p50, "ms");
    e2e.push(
        "latency_tail_ms",
        percentile(&by_size, tail).unwrap_or(0.0),
        "ms",
    );
    // Every request of a mapper workload needs a solve.
    e2e.push("cold_p50_ms", p50, "ms");
    e2e.push(
        "decided_share",
        Share::new(decided, n as u64).value().unwrap_or(0.0),
        "share",
    );
    e2e.push("routing_geomean", geomean(&routing).unwrap_or(0.0), "count");

    if trace {
        let mut tracer = Tracer::new(Instant::now());
        let mut mrrg_times = Vec::new();
        let mut mrrg_nodes = 0u64;
        let traced_prepared = prepare(spec, options, |t, nodes| {
            mrrg_times.push(t);
            mrrg_nodes += nodes as u64;
        });
        let mut c = Counters::default();
        let (traced, traced_wall) =
            traced_pass(spec, &traced_prepared, options, &mut tracer, &mut c);
        let mut mismatches = 0u64;
        for (i, (a, b)) in answers.iter().zip(&traced).enumerate() {
            if a.fingerprint != b.fingerprint {
                mismatches += 1;
                result
                    .tally
                    .fail(ids[i], "traced fingerprint differs from untraced");
                result.header.push(format!(
                    "fingerprint mismatch on request {i}: untraced {} traced {}",
                    a.fingerprint, b.fingerprint
                ));
            }
        }
        let self_ms = |name: &str| {
            mean(
                &tracer
                    .self_times_of(name)
                    .iter()
                    .map(|&d| ms(d))
                    .collect::<Vec<_>>(),
            )
        };
        let built = n as u64 - c.refuted;
        let feasible_s: f64 = tracer
            .self_times_of("feasible")
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            + tracer
                .self_times_of("load")
                .iter()
                .map(Duration::as_secs_f64)
                .sum::<f64>()
            - c.presolve.as_secs_f64();
        let per_built = |x: f64| if built > 0 { x / built as f64 } else { 0.0 };
        let mappings = traced.iter().filter(|a| a.mapping.is_some()).count();
        let l = &mut result.layers;
        l.push(
            "mrrg.build_ms",
            mean(&mrrg_times.iter().map(|&d| ms(d)).collect::<Vec<_>>()),
            "ms",
        );
        l.push("mrrg.nodes", mrrg_nodes as f64, "count");
        l.push("formulation.build_ms", self_ms("formulation"), "ms");
        l.push("formulation.vars", per_built(c.vars as f64), "count");
        l.push(
            "formulation.constraints",
            per_built(c.constraints as f64),
            "count",
        );
        l.push("formulation.refuted", c.refuted as f64, "count");
        l.push("presolve.ms", per_built(ms(c.presolve)), "ms");
        l.push("presolve.reduction", per_built(c.reduction), "share");
        l.push("feasible.ms", per_built(feasible_s * 1e3), "ms");
        l.push("feasible.conflicts", c.feasible_conflicts as f64, "count");
        l.push(
            "feasible.props_per_s",
            if feasible_s > 0.0 {
                c.feasible_props as f64 / feasible_s
            } else {
                0.0
            },
            "1/s",
        );
        l.push("feasible.budget_hits", c.budget_hits as f64, "count");
        l.push("descent.ms", self_ms("descent"), "ms");
        l.push("descent.conflicts", c.descent_conflicts as f64, "count");
        l.push("descent.incumbents", c.incumbents as f64, "count");
        l.push("descent.budget_hits", c.descent_budget_hits as f64, "count");
        l.push(
            "descent.optimal_share",
            Share::new(c.optimal, c.descents).value().unwrap_or(0.0),
            "share",
        );
        l.push("mapping.decode_ms", self_ms("mapping"), "ms");
        l.push(
            "sim.verify_ms",
            mean(&sim_times.iter().map(|&d| ms(d)).collect::<Vec<_>>()),
            "ms",
        );
        l.push(
            "trace.overhead_share",
            traced_wall.as_secs_f64() / wall.as_secs_f64() - 1.0,
            "share",
        );
        l.push("trace.mismatches", mismatches as f64, "count");
        result.header.push(format!(
            "traced pass: {} requests, {mappings} mappings, wall {:.3} s vs untraced {:.3} s",
            traced.len(),
            traced_wall.as_secs_f64(),
            wall.as_secs_f64()
        ));
        result.tracer = Some(tracer);
    }
    result
}

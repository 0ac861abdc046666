//! Minimum-II search: the DRESC-style outer loop around the exact mapper.
//!
//! Modulo-scheduling flows try the smallest initiation interval first and
//! increase it until the kernel maps; the paper runs its experiments at
//! fixed II ∈ {1, 2}, but the natural tool a user wants is "what is the
//! best throughput this architecture can give my kernel?" — which the
//! exact mapper answers definitively, II by II.
//!
//! The loop is incremental rather than from-scratch per II:
//!
//! * the operation→functional-unit compatibility analysis is computed
//!   once (it is context-invariant — contexts replicate components), and
//!   a component-level capacity matching with multiplicity II rejects
//!   over-subscribed IIs without building an MRRG or a formulation;
//! * each II the analysis does not reject is one [`IlpMapper::map`]
//!   call: the feasibility question and the routing-minimisation
//!   descent run on one persistent solver (one engine or a race of
//!   several), so learnt clauses and variable activities from the
//!   feasibility solve carry into optimisation and its solution seeds
//!   the first objective bound;
//! * presolve and engine statistics are accumulated across every attempt
//!   into [`MinIiReport::totals`].

use crate::anneal::{AnnealParams, AnnealingMapper};
use crate::formulation::BuildInfeasible;
use crate::ilp::{IlpMapper, MapOutcome, MapReport};
use crate::options::MapperOptions;
use crate::session::Session;
use crate::trust;
use bilp::PresolveStats;
use cgra_arch::Architecture;
use cgra_dfg::{Dfg, OpKind};
use cgra_mrrg::{Mrrg, NodeKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much an II verdict in a [`MinIiReport`] can be trusted.
///
/// Positive verdicts (a mapping) are always structurally validated
/// against the DFG and MRRG, so they are `Certified` by construction.
/// Negative verdicts (`Infeasible`) are only `Certified` when an
/// independent checker re-derived them: the solver's RUP proof checker
/// for search-derived infeasibility (see [`bilp::checker`]), or the
/// Hall-witness auditor (see this crate's trust module) for
/// capacity-analysis shortcuts. Timeouts decide nothing and are always
/// `Unchecked`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictProvenance {
    /// The verdict was re-derived by an independent checker (or, for a
    /// mapping, validated structurally).
    Certified,
    /// No independent check ran (certification off, the verdict was a
    /// timeout, or the check exhausted its budget). The verdict stands
    /// on the search engine's word.
    Unchecked,
    /// An independent check ran and **contradicted** the verdict. Do
    /// not trust this cell.
    CheckFailed,
}

impl VerdictProvenance {
    /// A short, stable label: `"certified"`, `"unchecked"` or
    /// `"check-failed"`.
    pub fn label(&self) -> &'static str {
        match self {
            VerdictProvenance::Certified => "certified",
            VerdictProvenance::Unchecked => "unchecked",
            VerdictProvenance::CheckFailed => "check-failed",
        }
    }
}

/// One II attempt of a minimum-II search.
#[derive(Debug, Clone)]
pub struct IiAttempt {
    /// The initiation interval attempted.
    pub ii: u32,
    /// The mapping attempt's full report.
    pub report: MapReport,
    /// Trust status of the verdict (see [`VerdictProvenance`]).
    pub provenance: VerdictProvenance,
    /// Whether the mapping came from the simulated-annealing fallback
    /// after the exact solver timed out
    /// ([`MapperOptions::anneal_fallback`]). Fallback mappings are
    /// validated like any other but carry no optimality information.
    pub fallback: bool,
}

/// Statistics accumulated over a whole minimum-II search.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinIiTotals {
    /// Wall-clock for the entire search, including MRRG builds.
    pub elapsed: Duration,
    /// IIs rejected by the cached capacity analysis alone — no MRRG, no
    /// formulation, no solver.
    pub capacity_shortcuts: usize,
    /// Solver conflicts summed across every attempt.
    pub conflicts: u64,
    /// Solver decisions summed across every attempt.
    pub decisions: u64,
    /// Presolve reduction counters summed across every attempt.
    pub presolve: PresolveStats,
}

impl MinIiTotals {
    fn absorb(&mut self, report: &MapReport) {
        self.conflicts += report.solver.engine.conflicts;
        self.decisions += report.solver.engine.decisions;
        let p = &report.solver.presolve;
        let t = &mut self.presolve;
        t.vars_before += p.vars_before;
        t.vars_after += p.vars_after;
        t.constraints_before += p.constraints_before;
        t.constraints_after += p.constraints_after;
        t.fixed_vars += p.fixed_vars;
        t.aliased_vars += p.aliased_vars;
        t.removed_constraints += p.removed_constraints;
        t.strengthened += p.strengthened;
        t.cliques += p.cliques;
        t.probed_vars += p.probed_vars;
        t.failed_literals += p.failed_literals;
        t.rounds += p.rounds;
        t.elapsed += p.elapsed;
    }
}

/// Result of [`map_min_ii`].
#[derive(Debug, Clone)]
pub struct MinIiReport {
    /// Every attempted II with its report and verdict provenance, in
    /// increasing II order.
    pub attempts: Vec<IiAttempt>,
    /// The smallest II that mapped, if any did.
    pub min_ii: Option<u32>,
    /// Cumulative statistics across the whole search.
    pub totals: MinIiTotals,
}

impl MinIiReport {
    /// The mapping at the minimum II.
    pub fn mapping(&self) -> Option<&crate::mapping::Mapping> {
        let ii = self.min_ii?;
        self.attempts
            .iter()
            .find(|a| a.ii == ii)
            .and_then(|a| a.report.outcome.mapping())
    }

    /// Whether any attempt's verdict failed its independent check.
    pub fn any_check_failed(&self) -> bool {
        self.attempts
            .iter()
            .any(|a| a.provenance == VerdictProvenance::CheckFailed)
    }
}

/// Context-invariant architecture analysis, computed once per search.
///
/// An MRRG at II=k replicates each architecture component k times
/// (context-major nodes, identical operation support), so which
/// functional units can host which operation never changes with II —
/// only the *capacity* of each unit (one op per context) does. A maximum
/// matching of operations onto units with capacity II therefore equals
/// the per-slot matching [`crate::Formulation::build`] would compute, at
/// a fraction of the cost and without constructing the II=k MRRG at all.
#[derive(Debug)]
struct CapacityAnalysis {
    /// Per op (in `op_ids` order): name, kind, compatible unit indices.
    ops: Vec<(String, OpKind, Vec<usize>)>,
    /// Number of distinct functional units.
    units: usize,
}

impl CapacityAnalysis {
    /// Derives the analysis from the II=1 MRRG, which has exactly one
    /// function node per unit.
    fn build(dfg: &Dfg, mrrg1: &Mrrg) -> CapacityAnalysis {
        let units: Vec<_> = mrrg1.function_nodes().collect();
        let mut ops = Vec::with_capacity(dfg.op_count());
        for q in dfg.op_ids() {
            let op = &dfg.ops()[q.index()];
            let compatible: Vec<usize> = units
                .iter()
                .enumerate()
                .filter(|(_, &p)| match &mrrg1.nodes()[p.index()].kind {
                    NodeKind::Function { ops } => ops.contains(op.kind),
                    _ => false,
                })
                .map(|(u, _)| u)
                .collect();
            ops.push((op.name.clone(), op.kind, compatible));
        }
        CapacityAnalysis {
            ops,
            units: units.len(),
        }
    }

    /// Returns the infeasibility this II is doomed to, if the analysis can
    /// prove one: an operation with no compatible unit (any II), or a
    /// maximum matching smaller than the operation count at unit capacity
    /// `ii`. `check_capacity` mirrors `MapperOptions::redundant_capacity`.
    fn reject(&self, ii: u32, check_capacity: bool) -> Option<BuildInfeasible> {
        for (name, kind, compatible) in &self.ops {
            if compatible.is_empty() {
                return Some(BuildInfeasible::NoCompatibleSlot {
                    op: name.clone(),
                    kind: *kind,
                });
            }
        }
        if !check_capacity {
            return None;
        }
        // Kuhn's algorithm with unit capacity `ii` (equivalent to matching
        // onto the II=ii MRRG's function nodes, which are `ii` copies of
        // each unit).
        let cap = ii as usize;
        let mut load: Vec<Vec<usize>> = vec![Vec::new(); self.units];
        fn try_assign(
            q: usize,
            cap: usize,
            ops: &[(String, OpKind, Vec<usize>)],
            load: &mut Vec<Vec<usize>>,
            visited: &mut [bool],
        ) -> bool {
            for &u in &ops[q].2 {
                if visited[u] {
                    continue;
                }
                visited[u] = true;
                if load[u].len() < cap {
                    load[u].push(q);
                    return true;
                }
                for slot in 0..load[u].len() {
                    let displaced = load[u][slot];
                    if try_assign(displaced, cap, ops, load, visited) {
                        load[u][slot] = q;
                        return true;
                    }
                }
            }
            false
        }
        let mut matched = 0;
        for q in 0..self.ops.len() {
            let mut visited = vec![false; self.units];
            if try_assign(q, cap, &self.ops, &mut load, &mut visited) {
                matched += 1;
            }
        }
        if matched < self.ops.len() {
            return Some(BuildInfeasible::CapacityExceeded {
                matched,
                ops: self.ops.len(),
            });
        }
        None
    }
}

/// Audits a single mapper verdict, returning how much it can be trusted.
///
/// This is the same audit [`map_min_ii`] applies to every II attempt,
/// exposed for harnesses that drive [`crate::IlpMapper`] directly:
/// mapped outcomes are certified by structural re-validation, solver
/// infeasibility by the attached proof [`bilp::Certificate`], and
/// build-stage infeasibility (when `options.certify` is set) by the
/// independent re-derivation in this crate's trust module. `mrrg1` must
/// be the II=1 MRRG for the same architecture the report was solved on.
pub fn verdict_provenance(
    dfg: &Dfg,
    mrrg1: &Mrrg,
    ii: u32,
    report: &MapReport,
    options: &MapperOptions,
) -> VerdictProvenance {
    provenance_of(dfg, mrrg1, ii, report, options)
}

/// Derives the trust status of one attempt's verdict.
///
/// * A mapping was structurally validated inside the mapper — always
///   `Certified`, fallback or not.
/// * A timeout decides nothing — always `Unchecked`.
/// * Search-derived infeasibility carries the solver's own
///   [`Certificate`](bilp::Certificate) when
///   [`MapperOptions::certify`] is set.
/// * Build-stage infeasibility (capacity shortcut or formulation
///   presolve) is audited by the trust module's independent
///   re-derivation — Hall witness for capacity claims, direct MRRG scan
///   for missing-unit claims — again only under `certify`.
fn provenance_of(
    dfg: &Dfg,
    mrrg1: &Mrrg,
    ii: u32,
    report: &MapReport,
    options: &MapperOptions,
) -> VerdictProvenance {
    match &report.outcome {
        MapOutcome::Mapped { .. } => VerdictProvenance::Certified,
        MapOutcome::Timeout => VerdictProvenance::Unchecked,
        MapOutcome::Infeasible { reason: Some(r) } => {
            if !options.certify {
                return VerdictProvenance::Unchecked;
            }
            match trust::verify_build_infeasible(dfg, mrrg1, ii, r) {
                Some(true) => VerdictProvenance::Certified,
                Some(false) => VerdictProvenance::CheckFailed,
                None => VerdictProvenance::Unchecked,
            }
        }
        MapOutcome::Infeasible { reason: None } => match &report.certificate {
            Some(c) if c.is_certified() => VerdictProvenance::Certified,
            Some(c) if c.is_check_failed() => VerdictProvenance::CheckFailed,
            _ => VerdictProvenance::Unchecked,
        },
    }
}

/// Finds the smallest initiation interval (context count) at which `dfg`
/// maps onto `arch`, trying `1..=max_ii` in order.
///
/// Because the mapper is exact, a `0` verdict at some II genuinely means
/// that II is impossible — the search never skips a feasible II the way
/// a heuristic-based loop can. Timeouts are recorded and the search
/// continues (a larger II is often *easier* to decide).
///
/// With [`MapperOptions::optimize`] set, each II attempt also minimises
/// routing once it has a mapping (see [`IlpMapper::map`]), so the
/// descent runs only at the II that mapped.
/// `MapperOptions::time_limit` bounds each mapping attempt.
///
/// # Examples
///
/// ```
/// use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
/// use cgra_mapper::{map_min_ii, MapperOptions};
///
/// let arch = grid(GridParams::paper(FuMix::Heterogeneous, Interconnect::Diagonal));
/// let dfg = cgra_dfg::benchmarks::accum();
/// let report = map_min_ii(&dfg, &arch, MapperOptions::default(), 2);
/// assert_eq!(report.min_ii, Some(1)); // accum maps everywhere at II=1
/// ```
pub fn map_min_ii(
    dfg: &Dfg,
    arch: &Architecture,
    options: MapperOptions,
    max_ii: u32,
) -> MinIiReport {
    let session = Session::new(arch.clone(), options);
    min_ii_ladder(&session, dfg, options, max_ii, None)
}

/// The ladder behind [`map_min_ii`] and [`Session::min_ii_with`]: MRRGs
/// come from the session's warm cache, and an optional cooperative
/// cancellation flag cuts the search between (and within) II attempts.
pub(crate) fn min_ii_ladder(
    session: &Session,
    dfg: &Dfg,
    options: MapperOptions,
    max_ii: u32,
    interrupt: Option<Arc<AtomicBool>>,
) -> MinIiReport {
    let search_start = Instant::now();
    let mut attempts = Vec::new();
    let mut min_ii = None;
    let mut totals = MinIiTotals::default();
    let fired = || {
        interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    };
    let mut mapper = IlpMapper::new(options);
    if let Some(flag) = &interrupt {
        mapper = mapper.with_interrupt(Arc::clone(flag));
    }

    // One II=1 MRRG drives the context-invariant analysis, is reused for
    // the II=1 attempt, and stays alive for the trust auditor (it checks
    // capacity claims at any II against the II=1 graph).
    let mrrg1 = session.mrrg(1);
    let analysis = CapacityAnalysis::build(dfg, &mrrg1);

    for ii in 1..=max_ii {
        if fired() {
            break;
        }
        let attempt_start = Instant::now();
        if let Some(reason) = analysis.reject(ii, options.redundant_capacity) {
            totals.capacity_shortcuts += 1;
            let report = MapReport {
                outcome: MapOutcome::Infeasible {
                    reason: Some(reason),
                },
                elapsed: attempt_start.elapsed(),
                formulation: Default::default(),
                solver: Default::default(),
                infeasible_core: None,
                certificate: None,
            };
            let provenance = provenance_of(dfg, &mrrg1, ii, &report, &options);
            attempts.push(IiAttempt {
                ii,
                report,
                provenance,
                fallback: false,
            });
            continue;
        }

        let mrrg = if ii == 1 {
            Arc::clone(&mrrg1)
        } else {
            session.mrrg(ii)
        };
        let mrrg: &Mrrg = &mrrg;

        let mut report = mapper.map(dfg, mrrg);
        totals.absorb(&report);

        // Graceful degradation: a timeout decides nothing, but a
        // heuristic mapping — validated like any other — still upgrades
        // the cell from `T` to a usable (non-optimal) result. Skipped
        // when the timeout came from an external cancellation — the
        // caller wants the search to end, and the annealer has no
        // cancellation hook.
        let mut fallback = false;
        if options.anneal_fallback && !fired() && matches!(report.outcome, MapOutcome::Timeout) {
            let heuristic = AnnealingMapper::new(
                MapperOptions {
                    warm_start: false,
                    ..options
                },
                AnnealParams::default(),
            )
            .map(dfg, mrrg);
            if heuristic.outcome.is_mapped() {
                report = MapReport {
                    outcome: heuristic.outcome,
                    elapsed: report.elapsed + heuristic.elapsed,
                    ..report
                };
                fallback = true;
            }
        }

        let mapped = matches!(report.outcome, MapOutcome::Mapped { .. });
        let provenance = provenance_of(dfg, &mrrg1, ii, &report, &options);
        attempts.push(IiAttempt {
            ii,
            report,
            provenance,
            fallback,
        });
        if mapped {
            min_ii = Some(ii);
            break;
        }
    }
    totals.elapsed = search_start.elapsed();
    MinIiReport {
        attempts,
        min_ii,
        totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
    use cgra_mrrg::build_mrrg;

    #[test]
    fn cos4_needs_two_contexts() {
        // Paper Table 2: cos_4 is infeasible on every single-context
        // architecture and feasible on every dual-context one. Within a
        // short budget II=1 may end `0` or `T` — either way it must not
        // map, and II=2 must.
        let arch = grid(GridParams::paper(
            FuMix::Homogeneous,
            Interconnect::Diagonal,
        ));
        let dfg = (cgra_dfg::benchmarks::by_name("cos_4").expect("known").build)();
        let options = MapperOptions {
            time_limit: Some(std::time::Duration::from_secs(20)),
            warm_start: true,
            ..MapperOptions::default()
        };
        let report = map_min_ii(&dfg, &arch, options, 2);
        assert_eq!(report.min_ii, Some(2));
        assert_ne!(report.attempts[0].report.outcome.table_symbol(), "1");
        assert!(report.mapping().is_some());
        assert!(report.totals.elapsed >= report.attempts[1].report.elapsed);
        // The II=2 mapping is validated, so its verdict is certified.
        assert_eq!(report.attempts[1].provenance, VerdictProvenance::Certified);
        assert!(!report.attempts[1].fallback);
    }

    #[test]
    fn capacity_bound_is_never_beaten() {
        // extreme (19 internal ops) cannot map at II=1 (16 ALUs), but two
        // contexts double the slots. The II=1 rejection must come from the
        // cached capacity analysis without building a formulation.
        let arch = grid(GridParams::paper(
            FuMix::Homogeneous,
            Interconnect::Diagonal,
        ));
        let dfg = (cgra_dfg::benchmarks::by_name("extreme")
            .expect("known")
            .build)();
        let options = MapperOptions {
            time_limit: Some(std::time::Duration::from_secs(60)),
            warm_start: true,
            ..MapperOptions::default()
        };
        let report = map_min_ii(&dfg, &arch, options, 2);
        assert_eq!(report.min_ii, Some(2));
        assert_eq!(report.totals.capacity_shortcuts, 1);
        assert!(matches!(
            report.attempts[0].report.outcome,
            MapOutcome::Infeasible {
                reason: Some(BuildInfeasible::CapacityExceeded { .. })
            }
        ));
    }

    #[test]
    fn unmappable_within_bound_reports_none() {
        // mult_16 needs 15 multipliers; heterogeneous arrays have 8 per
        // context, so II=1 is out; II=2 has 16 and works.
        let arch = grid(GridParams::paper(
            FuMix::Heterogeneous,
            Interconnect::Orthogonal,
        ));
        let dfg = (cgra_dfg::benchmarks::by_name("mult_16")
            .expect("known")
            .build)();
        let options = MapperOptions {
            time_limit: Some(std::time::Duration::from_secs(60)),
            warm_start: true,
            ..MapperOptions::default()
        };
        let at_one = map_min_ii(&dfg, &arch, options, 1);
        assert_eq!(at_one.min_ii, None);
        assert_eq!(at_one.attempts.len(), 1);
        // The multiplier shortage is provable from the cached analysis.
        assert_eq!(at_one.totals.capacity_shortcuts, 1);
        // Certification was not requested, so the shortcut verdict is
        // unchecked.
        assert_eq!(at_one.attempts[0].provenance, VerdictProvenance::Unchecked);
    }

    #[test]
    fn certified_capacity_shortcut_provenance() {
        // With certification on, a capacity-shortcut rejection is audited
        // by the independent Hall-witness verifier and comes back
        // certified.
        let arch = grid(GridParams::paper(
            FuMix::Heterogeneous,
            Interconnect::Orthogonal,
        ));
        let dfg = (cgra_dfg::benchmarks::by_name("mult_16")
            .expect("known")
            .build)();
        let options = MapperOptions {
            certify: true,
            ..MapperOptions::default()
        };
        let report = map_min_ii(&dfg, &arch, options, 1);
        assert_eq!(report.min_ii, None);
        assert_eq!(report.totals.capacity_shortcuts, 1);
        assert_eq!(report.attempts[0].provenance, VerdictProvenance::Certified);
        assert!(!report.any_check_failed());
    }

    #[test]
    fn capacity_shortcut_matches_formulation_verdict() {
        // The shortcut's (matched, ops) must agree with what the full
        // formulation build reports when the shortcut is bypassed.
        let arch = grid(GridParams::paper(
            FuMix::Heterogeneous,
            Interconnect::Orthogonal,
        ));
        let dfg = (cgra_dfg::benchmarks::by_name("mult_16")
            .expect("known")
            .build)();
        let mrrg1 = build_mrrg(&arch, 1);
        let analysis = CapacityAnalysis::build(&dfg, &mrrg1);
        let short = analysis.reject(1, true).expect("over capacity");
        let full = crate::Formulation::build(&dfg, &mrrg1, MapperOptions::default()).unwrap_err();
        assert_eq!(short, full);
    }

    #[test]
    fn optimize_mode_still_finds_min_ii_and_optimal_usage() {
        // Small enough that the optimisation stage proves optimality fast.
        let arch = grid(GridParams {
            rows: 2,
            cols: 2,
            fu_mix: FuMix::Homogeneous,
            interconnect: Interconnect::Orthogonal,
            io_pads: true,
            memory_ports: false,
            toroidal: false,
            alu_latency: 0,
            bypass_channel: false,
        });
        let mut dfg = cgra_dfg::Dfg::new("t");
        let a = dfg.add_op("a", cgra_dfg::OpKind::Input).unwrap();
        let b = dfg.add_op("b", cgra_dfg::OpKind::Input).unwrap();
        let s = dfg.add_op("s", cgra_dfg::OpKind::Add).unwrap();
        let o = dfg.add_op("o", cgra_dfg::OpKind::Output).unwrap();
        dfg.connect(a, s, 0).unwrap();
        dfg.connect(b, s, 1).unwrap();
        dfg.connect(s, o, 0).unwrap();
        let options = MapperOptions {
            optimize: true,
            time_limit: Some(std::time::Duration::from_secs(60)),
            ..MapperOptions::default()
        };
        let report = map_min_ii(&dfg, &arch, options, 2);
        assert_eq!(report.min_ii, Some(1));
        let MapOutcome::Mapped { optimal, .. } = report.attempts[0].report.outcome else {
            panic!("tiny add maps at II=1");
        };
        assert!(optimal, "optimisation stage should prove optimality");
    }

    #[test]
    fn translated_mapping_warm_starts_the_next_ii() {
        // A mapping found at II=1 remains a usable hint at II=2 after
        // name-based translation (contexts 0..k exist in the II=k+1 graph).
        let arch = grid(GridParams::paper(
            FuMix::Homogeneous,
            Interconnect::Diagonal,
        ));
        let dfg = cgra_dfg::benchmarks::accum();
        let mrrg1 = build_mrrg(&arch, 1);
        let mrrg2 = build_mrrg(&arch, 2);
        let first = IlpMapper::new(MapperOptions::default()).map(&dfg, &mrrg1);
        let mapping = first.outcome.mapping().expect("accum maps at II=1");
        let hint = mapping
            .translate_to(&mrrg1, &mrrg2)
            .expect("II=1 placements exist at II=2");
        assert_eq!(hint.placement.len(), mapping.placement.len());
        let report =
            IlpMapper::new(MapperOptions::default()).map_with_hint(&dfg, &mrrg2, Some(&hint));
        assert!(report.outcome.is_mapped(), "{}", report.outcome);
    }
}

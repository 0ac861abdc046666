//! Mapper configuration.

use cgra_mrrg::NodeRole;
use std::time::Duration;

/// Objective function used when [`MapperOptions::optimize`] is set.
///
/// The paper minimises the number of routing resources (objective (10))
/// and notes that "it is straightforward to apply alternative objective
/// functions, where, for example, specific types of resources have unique
/// costs ... registers, register files or other data value routing
/// structures contribute significantly to power consumption and these
/// nodes could be weighted to optimize for power."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimise the count of routing resources used — the paper's (10).
    RoutingResources,
    /// Minimise a role-weighted cost of the routing resources used.
    Weighted(ObjectiveWeights),
}

/// Per-role costs for [`Objective::Weighted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectiveWeights {
    /// Cost of plain wires and port nodes.
    pub wire: i64,
    /// Cost of occupying a multiplexing point.
    pub mux: i64,
    /// Cost of occupying a register (charged once, on the register's
    /// input node).
    pub register: i64,
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        // A plausible dynamic-power flavoured weighting: registers clock
        // every cycle, multiplexers toggle wide buses, wires are cheap.
        ObjectiveWeights {
            wire: 1,
            mux: 2,
            register: 6,
        }
    }
}

impl ObjectiveWeights {
    /// The cost this weighting assigns to a routing node of the given
    /// role.
    pub fn cost_of(&self, role: NodeRole) -> i64 {
        match role {
            NodeRole::MuxCore => self.mux,
            NodeRole::RegIn => self.register,
            NodeRole::RegOut => 0, // the register was charged at its input
            _ => self.wire,
        }
    }
}

impl Objective {
    /// The per-node cost under this objective.
    pub fn cost_of(&self, role: NodeRole) -> i64 {
        match self {
            Objective::RoutingResources => 1,
            Objective::Weighted(w) => w.cost_of(role),
        }
    }
}

/// Options shared by the ILP and simulated-annealing mappers.
#[derive(Debug, Clone, Copy)]
pub struct MapperOptions {
    /// Wall-clock budget for one mapping attempt. `None` = unlimited.
    /// The paper ran its ILP solver with 1 h / 24 h limits and reported
    /// timeouts as `T`.
    pub time_limit: Option<Duration>,
    /// Whether to minimise routing-resource usage (the paper's objective
    /// (10)). When `false` the mapper stops at the first feasible mapping,
    /// which is how the Table 2 feasibility study is run.
    pub optimize: bool,
    /// Which objective to minimise when `optimize` is set.
    pub objective: Objective,
    /// Whether commutative operations may have their operands swapped
    /// during placement. The formulation adds one swap variable per
    /// commutative operation.
    pub commutativity: bool,
    /// Whether the Multiplexer Input Exclusivity constraint (paper (9)) is
    /// emitted. **Ablation-only**: disabling it re-admits the
    /// self-reinforcing routing loops of the paper's Example 2, producing
    /// assignments that satisfy the remaining constraints but do not route
    /// values to their sinks.
    pub mux_exclusivity: bool,
    /// Whether to add redundant per-operation-kind capacity constraints
    /// (`Σ placements of kind k onto capable slots <= capable slots`).
    /// These are implied by constraints (1)-(3) but give the solver short
    /// counting refutations for over-subscribed instances.
    pub redundant_capacity: bool,
    /// RNG seed (used by the simulated-annealing mapper; the ILP mapper is
    /// deterministic).
    pub seed: u64,
    /// Whether the ILP mapper may warm-start from a quick
    /// simulated-annealing portfolio: a found mapping is handed to the
    /// exact solver as *branch hints* (the MIP-start mechanism commercial
    /// solvers offer). Verdicts — feasible, infeasible, optimal — are
    /// still produced by the exact solver; hints only steer search order.
    pub warm_start: bool,
    /// Number of solver engines for the ILP mapper; `0` uses all
    /// available cores. Each attempt is one persistent solver whose
    /// feasibility solve and optimising descent share learnt clauses on
    /// these engines. One engine runs on the calling thread (bit-for-bit
    /// deterministic); `n > 1` races `n` diversified engines on every
    /// query, sharing incumbents and glue clauses, and returns the first
    /// decisive answer. Decided verdicts and proven optimal objective
    /// values are identical across thread counts; which optimal
    /// *solution* is returned may differ.
    pub threads: usize,
    /// Whether the ILP solver runs its presolve pipeline (propagation,
    /// saturation, equivalence merging, probing, …) before search. On by
    /// default; turning it off reproduces the pre-presolve solver
    /// behaviour bit for bit.
    pub presolve: bool,
    /// Whether formulation construction applies the MRRG reachability
    /// reduction: per value, routing variables are restricted to nodes on
    /// some producer-FU→consumer-FU path (forward ∩ backward BFS in the
    /// II-modulated graph), slots whose output cannot reach every sink
    /// are dropped, and the two prunings iterate to a fixpoint. Off
    /// emits the textbook all-candidates encoding — every routing node a
    /// candidate for every value — which is the baseline the reduction
    /// was measured against (EXPERIMENTS.md A4).
    pub reach_reduction: bool,
    /// Conflict budget per solver query (each feasibility solve and each
    /// objective-bound probe of the optimising descent counts its own
    /// conflicts against this limit). `None` = unlimited. A conflict
    /// budget makes optimisation runs terminate after a bounded amount of
    /// *search* work regardless of wall-clock, which is how the
    /// benchmarks fix the work a request does; a query that exhausts the
    /// budget reports timeout/best-found.
    pub conflict_limit: Option<u64>,
    /// Target objective value: when [`MapperOptions::optimize`] is set,
    /// the routing-minimisation descent stops at the first mapping whose
    /// objective is at or below this value instead of descending to the
    /// proven optimum (MIP "best-objective stop"). `None` = descend
    /// until optimal. perfbench's traced requests pass it to the solver,
    /// and `certify_differential.rs` uses it to run the min-II ladder to
    /// its first incumbent.
    pub objective_stop: Option<i64>,
    /// Whether an infeasible verdict is accompanied by an explanation:
    /// the mapper re-solves with every constraint group (placement,
    /// exclusivity, routing, …) reified under an activation literal and
    /// reports the unsat core's group names in
    /// [`MapReport::infeasible_core`](crate::MapReport::infeasible_core).
    /// Costs one extra (usually fast) solve on infeasible instances.
    pub explain_infeasible: bool,
    /// Whether `Infeasible` solver verdicts are certified: the solve is
    /// replayed with proof logging and the proof is re-derived by the
    /// solver's independent RUP checker. The resulting
    /// [`Certificate`](bilp::Certificate) is attached to
    /// [`MapReport::certificate`](crate::MapReport::certificate), and the
    /// min-II search records per-II verdict provenance. Certification
    /// costs up to one extra `time_limit` on infeasible instances.
    pub certify: bool,
    /// Approximate per-attempt byte cap for the solver's learnt-clause
    /// database and proof log; exceeding it degrades to a clean
    /// best-found/timeout outcome instead of unbounded memory growth.
    /// `None` (the default) disables the watchdog.
    pub mem_limit: Option<usize>,
    /// Worker threads for formulation *construction*: the reachability
    /// BFS passes and the constraint-family emission fan out over
    /// `build_jobs` threads and merge in a fixed order, so the built
    /// model is bit-for-bit identical at every job count. `1` (the
    /// default) builds inline on the calling thread; `0` uses all
    /// available cores. Independent of [`MapperOptions::threads`], which
    /// parallelises the *solve*: at warm-serve rates model build time is
    /// the cold-path bottleneck, so the two are tuned separately.
    pub build_jobs: usize,
    /// Whether the min-II search may fall back to the simulated-annealing
    /// mapper when the ILP attempt at an II times out: a validated
    /// annealer mapping upgrades the `T` cell to a (non-optimal, but
    /// certified-by-validation) mapped result, flagged as a fallback in
    /// [`IiAttempt::fallback`](crate::IiAttempt::fallback). Verdicts are
    /// never downgraded — infeasibility proofs still come only from the
    /// exact solver.
    pub anneal_fallback: bool,
    /// Number of heuristic incumbent-seeding probes: cheap randomized
    /// annealing attempts whose validated mappings feed the exact solver
    /// a first incumbent *before* (and, with several engines,
    /// *concurrently with*) its own search. With one engine the probes
    /// run inline and seed the descent plus the warm-start branch
    /// hints; with several they race the engines as first-class probe
    /// workers whose incumbents bound every CDCL engine mid-solve. Verdicts, optimal objective values and
    /// infeasibility certificates are unaffected — probes only supply
    /// upper bounds earlier. `0` (the default) disables seeding.
    pub seed_probes: usize,
    /// Wall-clock budget for heuristic seeding probes per mapping
    /// attempt (split across `seed_probes` attempts inline, or bounding
    /// each racing probe worker's window). `None` derives a
    /// default from `time_limit`: 10% of the remaining budget, clamped
    /// to [100 ms, 2 s], or 1 s when unlimited.
    pub probe_budget: Option<Duration>,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            time_limit: None,
            optimize: false,
            objective: Objective::RoutingResources,
            commutativity: true,
            mux_exclusivity: true,
            redundant_capacity: true,
            seed: 1,
            warm_start: false,
            threads: 1,
            presolve: true,
            reach_reduction: true,
            conflict_limit: None,
            objective_stop: None,
            explain_infeasible: false,
            certify: false,
            mem_limit: None,
            build_jobs: 1,
            anneal_fallback: false,
            seed_probes: 0,
            probe_budget: None,
        }
    }
}

impl MapperOptions {
    /// Default options with a time limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        MapperOptions {
            time_limit: Some(limit),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_feasibility_oriented() {
        let o = MapperOptions::default();
        assert!(!o.optimize);
        assert!(o.commutativity);
        assert!(o.redundant_capacity);
        assert!(o.time_limit.is_none());
    }

    #[test]
    fn with_time_limit_sets_limit() {
        let o = MapperOptions::with_time_limit(Duration::from_secs(5));
        assert_eq!(o.time_limit, Some(Duration::from_secs(5)));
    }
}

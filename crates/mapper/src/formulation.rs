//! The paper's ILP formulation (Section 4), built over a DFG x MRRG pair.
//!
//! Variables (paper Section 4.1):
//!
//! * `F[p][q]` — functional-unit node `p` hosts operation `q`;
//! * `R[i][j]` — routing node `i` carries value `j`;
//! * `Rs[e][i]` — routing node `i` carries value `j` on its way to sink
//!   `k` (we index sink-specific variables by the DFG edge `e`, which *is*
//!   the paper's sub-value: one source-to-sink connection).
//!
//! Constraints (paper Section 4.2): Operation Placement (1), Functional
//! Unit Exclusivity (2), Functional Unit Legality (3, by variable
//! omission), Route Exclusivity (4), Fanout Routing (5), Implied Placement
//! (6), Initial Fanout (7), Routing Resource Usage (8), Multiplexer Input
//! Exclusivity (9) and the routing-resource-minimisation objective (10).
//!
//! Two practical refinements that leave the formulation's meaning intact:
//!
//! * **Reachability pruning** — `Rs[e][i]` variables are only created for
//!   nodes forward-reachable from some legal source of the value *and*
//!   backward-reachable from the sink's legal termination ports. Pruned
//!   variables are implicitly zero.
//! * **Matching presolve** — a maximum bipartite matching between
//!   operations and compatible slots detects capacity infeasibility
//!   (e.g. 13 multiplies onto 8 multiplier-capable ALUs) without entering
//!   search; a commercial solver gets this from its LP relaxation.
//!
//! Commutative operations optionally receive one *swap* variable that
//! exchanges their two physical operand ports.

use crate::mapping::{expected_port, Mapping};
use crate::options::MapperOptions;
use bilp::{Assignment, Cmp, Constraint, LinExpr, Lit, Model, Outcome, Solver, SolverConfig, Var};
use cgra_dfg::{Dfg, EdgeId, OpId, OpKind};
use cgra_mrrg::{Mrrg, NodeId, NodeKind};
use cgra_par::par_map;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::time::Duration;

/// Reasons a formulation cannot be built (each implies the instance is
/// infeasible before search).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildInfeasible {
    /// An operation has no compatible functional-unit slot at all.
    NoCompatibleSlot {
        /// The operation name.
        op: String,
        /// The operation kind.
        kind: OpKind,
    },
    /// Operations outnumber compatible slots (no injective placement
    /// exists, by maximum bipartite matching).
    CapacityExceeded {
        /// Size of the maximum operation-to-slot matching found.
        matched: usize,
        /// Number of operations that need slots.
        ops: usize,
    },
    /// Some sink of a value cannot be reached from any legal source.
    UnroutableSink {
        /// Source operation name.
        from: String,
        /// Destination operation name.
        to: String,
    },
}

impl fmt::Display for BuildInfeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildInfeasible::NoCompatibleSlot { op, kind } => {
                write!(
                    f,
                    "operation `{op}` ({kind}) has no compatible functional unit"
                )
            }
            BuildInfeasible::CapacityExceeded { matched, ops } => {
                write!(
                    f,
                    "only {matched} of {ops} operations can obtain distinct slots"
                )
            }
            BuildInfeasible::UnroutableSink { from, to } => {
                write!(f, "no route can exist for edge {from}->{to}")
            }
        }
    }
}

impl std::error::Error for BuildInfeasible {}

/// Errors from [`Formulation::try_decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A sub-value's used routing nodes never reach its sink (only
    /// possible when constraint (9) is ablated — the paper's Example 2
    /// failure mode).
    NoTermination {
        /// Source operation name.
        from: String,
        /// Destination operation name.
        to: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::NoTermination { from, to } => {
                write!(f, "routing for {from}->{to} never reaches its sink")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Size statistics of a built formulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FormulationStats {
    /// Placement variables `F`.
    pub f_vars: usize,
    /// Sink-agnostic routing variables `R`.
    pub r_vars: usize,
    /// Sink-specific routing variables (the paper's `R_{i,j,k}`).
    pub rs_vars: usize,
    /// Commutative swap variables.
    pub swap_vars: usize,
    /// Total constraints in the model.
    pub constraints: usize,
    /// Rounds of iterated reachability reduction that ran (0 when
    /// [`MapperOptions::reach_reduction`] is off).
    pub reach_rounds: usize,
}

/// A built ILP formulation, ready to be solved and decoded.
#[derive(Debug)]
pub struct Formulation {
    model: Model,
    /// `F[p][q]`, keyed by (function node, op).
    f: HashMap<(NodeId, OpId), Var>,
    /// Compatible slots per op (after pruning).
    slots: BTreeMap<OpId, Vec<NodeId>>,
    /// `R[i][j]`, keyed by (route node, value-producing op).
    r: HashMap<(NodeId, OpId), Var>,
    /// `Rs[e][i]`, keyed by (edge, route node).
    rs: HashMap<(EdgeId, NodeId), Var>,
    /// Swap variable per commutative destination op.
    swap: HashMap<OpId, Var>,
    /// Named constraint groups as `(end_index, name)`: group `g` covers
    /// model constraints `groups[g-1].0 .. groups[g].0`. Used by the
    /// infeasibility explainer to attribute an unsat core to the paper's
    /// constraint families (per operation / per edge where that is
    /// meaningful).
    groups: Vec<(usize, String)>,
    options: MapperOptions,
    reach_rounds: usize,
}

/// Appends one constraint family's ordered `(group name, batch)` pairs
/// to the model, recording each non-empty group's end index. Empty
/// batches are skipped, matching the historical behaviour of closing a
/// group only when it actually added constraints.
fn append_family(
    model: &mut Model,
    groups: &mut Vec<(usize, String)>,
    family: Vec<(String, Vec<Constraint>)>,
) {
    for (name, batch) in family {
        if batch.is_empty() {
            continue;
        }
        model.add_constraints(batch);
        groups.push((model.constraints().len(), name));
    }
}

impl Formulation {
    /// Builds the formulation.
    ///
    /// # Errors
    ///
    /// Returns [`BuildInfeasible`] when the instance is provably
    /// infeasible before search (no slot, capacity, or no possible route).
    pub fn build(
        dfg: &Dfg,
        mrrg: &Mrrg,
        options: MapperOptions,
    ) -> Result<Formulation, BuildInfeasible> {
        let mut model = Model::new();

        // ---- Compatible slots (constraint (3) by omission) -------------
        let mut slots: BTreeMap<OpId, Vec<NodeId>> = BTreeMap::new();
        for q in dfg.op_ids() {
            let kind = dfg.ops()[q.index()].kind;
            let compatible: Vec<NodeId> = mrrg
                .function_nodes()
                .filter(|&p| match &mrrg.nodes()[p.index()].kind {
                    NodeKind::Function { ops } => ops.contains(kind),
                    _ => false,
                })
                .collect();
            if compatible.is_empty() {
                return Err(BuildInfeasible::NoCompatibleSlot {
                    op: dfg.ops()[q.index()].name.clone(),
                    kind,
                });
            }
            slots.insert(q, compatible);
        }

        // ---- Matching presolve ------------------------------------------
        if options.redundant_capacity {
            let matched = max_matching(dfg, &slots);
            if matched < dfg.op_count() {
                return Err(BuildInfeasible::CapacityExceeded {
                    matched,
                    ops: dfg.op_count(),
                });
            }
        }

        // ---- Reachability pruning (first round) --------------------------
        // Forward-reachable sets per value, backward-reachable per edge.
        // With `reach_reduction` off, every routing node is a candidate for
        // every value — the textbook formulation, kept as the baseline the
        // reduction is benchmarked against.
        let n_nodes = mrrg.node_count();
        let route_mask: Vec<bool> = (0..n_nodes)
            .map(|i| mrrg.nodes()[i].kind.is_route())
            .collect();
        let mut cand_edge: BTreeMap<EdgeId, Vec<bool>> = BTreeMap::new();
        let mut term_ports: BTreeMap<EdgeId, Vec<(NodeId, NodeId, u8)>> = BTreeMap::new();

        // Jobs for build-time parallelism. Every fan-out below goes
        // through `par_map`, which preserves input order and runs inline
        // at `jobs <= 1`; results are merged in that fixed order, so the
        // built model is bit-for-bit identical at every job count.
        let jobs = if options.build_jobs == 0 {
            cgra_par::default_jobs(1)
        } else {
            options.build_jobs
        };

        // One independent task per value: the forward BFS from the
        // producer's slots plus, per consuming edge, the termination-port
        // scan and backward BFS. Values share no mutable state, and the
        // sequential merge keeps error attribution (first offending edge
        // in producer order) identical to a plain loop.
        let producers: Vec<OpId> = dfg.value_producers().collect();
        type EdgeCand = (EdgeId, Vec<bool>, Vec<(NodeId, NodeId, u8)>);
        let per_value: Vec<Result<Vec<EdgeCand>, BuildInfeasible>> =
            par_map(jobs, &producers, |&j| {
                // Sources: route fanouts of every compatible slot of j.
                let forward = if options.reach_reduction {
                    let mut forward = vec![false; n_nodes];
                    let mut queue = VecDeque::new();
                    for &p in &slots[&j] {
                        for &i in mrrg.fanouts(p) {
                            if mrrg.nodes()[i.index()].kind.is_route() && !forward[i.index()] {
                                forward[i.index()] = true;
                                queue.push_back(i);
                            }
                        }
                    }
                    while let Some(i) = queue.pop_front() {
                        for &m in mrrg.fanouts(i) {
                            if mrrg.nodes()[m.index()].kind.is_route() && !forward[m.index()] {
                                forward[m.index()] = true;
                                queue.push_back(m);
                            }
                        }
                    }
                    forward
                } else {
                    route_mask.clone()
                };

                let mut out = Vec::new();
                for &e in dfg.fanout(j) {
                    let edge = dfg.edges()[e.index()];
                    let dst_kind = dfg.ops()[edge.dst.index()].kind;
                    // Termination ports: operand nodes of compatible units
                    // whose tag matches the operand (or either port for a
                    // commutative op with swapping enabled).
                    let mut terms: Vec<(NodeId, NodeId, u8)> = Vec::new();
                    for &p in &slots[&edge.dst] {
                        for &i in mrrg.fanins(p) {
                            if let NodeKind::Route { operand: Some(t) } =
                                mrrg.nodes()[i.index()].kind
                            {
                                let matches = t == edge.operand
                                    || (options.commutativity
                                        && dst_kind.is_commutative()
                                        && dst_kind.arity() == 2);
                                if matches {
                                    terms.push((i, p, t));
                                }
                            }
                        }
                    }
                    // No matching operand port at any compatible slot is a
                    // structural impossibility, independent of reachability.
                    if terms.is_empty() {
                        return Err(BuildInfeasible::UnroutableSink {
                            from: dfg.ops()[edge.src.index()].name.clone(),
                            to: dfg.ops()[edge.dst.index()].name.clone(),
                        });
                    }
                    // Backward reachability from termination ports.
                    let backward = if options.reach_reduction {
                        let mut backward = vec![false; n_nodes];
                        let mut queue = VecDeque::new();
                        for &(i, _, _) in &terms {
                            if !backward[i.index()] {
                                backward[i.index()] = true;
                                queue.push_back(i);
                            }
                        }
                        while let Some(i) = queue.pop_front() {
                            for &m in mrrg.fanins(i) {
                                if mrrg.nodes()[m.index()].kind.is_route() && !backward[m.index()] {
                                    backward[m.index()] = true;
                                    queue.push_back(m);
                                }
                            }
                        }
                        backward
                    } else {
                        route_mask.clone()
                    };
                    let cand: Vec<bool> = (0..n_nodes).map(|i| forward[i] && backward[i]).collect();
                    if !cand.iter().any(|&b| b) {
                        return Err(BuildInfeasible::UnroutableSink {
                            from: dfg.ops()[edge.src.index()].name.clone(),
                            to: dfg.ops()[edge.dst.index()].name.clone(),
                        });
                    }
                    out.push((e, cand, terms));
                }
                Ok(out)
            });
        for value_result in per_value {
            for (e, cand, terms) in value_result? {
                cand_edge.insert(e, cand);
                term_ports.insert(e, terms);
            }
        }

        // ---- Slot filtering from (7): a slot whose output cannot reach
        //      some sink of its value cannot host the producing op --------
        let mut slot_filtered = slots.clone();
        for (q, slot_list) in slot_filtered.iter_mut() {
            let sinks: Vec<EdgeId> = dfg.fanout(*q).to_vec();
            if sinks.is_empty() {
                continue;
            }
            slot_list.retain(|&p| {
                // A producing op needs somewhere for its value to go: a
                // slot must have at least one (route) fanout, and every
                // fanout must be able to reach every sink (constraint (7)
                // forces all of them to carry the value).
                !mrrg.fanouts(p).is_empty()
                    && mrrg
                        .fanouts(p)
                        .iter()
                        .all(|&i| sinks.iter().all(|e| cand_edge[e][i.index()]))
            });
            if slot_list.is_empty() {
                return Err(BuildInfeasible::UnroutableSink {
                    from: dfg.ops()[q.index()].name.clone(),
                    to: "any sink".into(),
                });
            }
        }
        let mut slots = slot_filtered;

        // ---- Iterated reachability reduction -----------------------------
        // Slot filtering and candidate pruning feed each other: fewer slots
        // mean fewer forward seeds and fewer termination ports, which shrink
        // the candidate sets, which can disqualify further slots. Iterating
        // to a fixpoint is sound because any source→termination path whose
        // nodes are all candidates keeps every one of its nodes forward- and
        // backward-reachable *within* the candidate set — so paths are
        // preserved verbatim and only nodes on no such path are pruned.
        let reach_rounds = if options.reach_reduction {
            refine_reachability(
                dfg,
                mrrg,
                &options,
                jobs,
                &mut slots,
                &mut cand_edge,
                &mut term_ports,
            )?
        } else {
            0
        };

        // ---- Variables ---------------------------------------------------
        let mut f: HashMap<(NodeId, OpId), Var> = HashMap::new();
        for (q, ps) in &slots {
            for &p in ps {
                let v = model.new_var();
                // Decide placements first, and positively: assigning an op
                // to a slot drives routing by propagation, whereas the
                // default negative phase only discovers placements through
                // conflicts on the exactly-one constraints.
                model.suggest_branch(v, 1.0, true);
                f.insert((p, *q), v);
            }
        }
        let mut rs: HashMap<(EdgeId, NodeId), Var> = HashMap::new();
        // BTreeMap keeps every iteration over values deterministic, so the
        // emitted model is bit-for-bit identical across runs (the engine
        // at `threads = 1` is deterministic given a fixed model).
        let mut cand_value: BTreeMap<OpId, Vec<bool>> = BTreeMap::new();
        for (e, cand) in &cand_edge {
            let j = dfg.edges()[e.index()].src;
            let mask = cand_value.entry(j).or_insert_with(|| vec![false; n_nodes]);
            for (idx, &c) in cand.iter().enumerate() {
                if c {
                    mask[idx] = true;
                    rs.entry((*e, NodeId(idx as u32)))
                        .or_insert_with(|| model.new_var());
                }
            }
        }
        let mut r: HashMap<(NodeId, OpId), Var> = HashMap::new();
        for (j, mask) in &cand_value {
            for (idx, &c) in mask.iter().enumerate() {
                if c {
                    r.insert((NodeId(idx as u32), *j), model.new_var());
                }
            }
        }
        let mut swap: HashMap<OpId, Var> = HashMap::new();
        if options.commutativity {
            for q in dfg.op_ids() {
                let kind = dfg.ops()[q.index()].kind;
                if kind.is_commutative() && kind.arity() == 2 {
                    swap.insert(q, model.new_var());
                }
            }
        }

        // ---- Constraint emission -----------------------------------------
        // Each family below is assembled as an ordered list of
        // `(group name, constraint batch)` pairs — the heavy per-edge and
        // per-operation families on worker threads via `par_map` — and
        // appended to the model in the paper's fixed family order.
        // `par_map` preserves input order and the batches are built from
        // deterministic (BTreeMap) iterations, so the constraint list and
        // the group table come out bit-identical at every job count.
        let mut groups: Vec<(usize, String)> = Vec::new();

        // ---- (1) Operation Placement ------------------------------------
        let placement: Vec<(String, Vec<Constraint>)> = slots
            .iter()
            .map(|(q, ps)| {
                (
                    format!("placement of `{}`", dfg.ops()[q.index()].name),
                    vec![Constraint::exactly_one(ps.iter().map(|&p| f[&(p, *q)]))],
                )
            })
            .collect();
        append_family(&mut model, &mut groups, placement);

        // ---- (2) Functional Unit Exclusivity ----------------------------
        {
            let mut by_slot: BTreeMap<NodeId, Vec<Var>> = BTreeMap::new();
            for (q, ps) in &slots {
                for &p in ps {
                    by_slot.entry(p).or_default().push(f[&(p, *q)]);
                }
            }
            let rows: Vec<Constraint> = by_slot
                .into_values()
                .filter(|vars| vars.len() > 1)
                .map(Constraint::at_most_one)
                .collect();
            append_family(
                &mut model,
                &mut groups,
                vec![("functional-unit exclusivity".into(), rows)],
            );
        }

        // ---- (4) Route Exclusivity --------------------------------------
        {
            let mut by_node: BTreeMap<NodeId, Vec<Var>> = BTreeMap::new();
            for (j, mask) in &cand_value {
                for (idx, &c) in mask.iter().enumerate() {
                    if c {
                        let i = NodeId(idx as u32);
                        by_node.entry(i).or_default().push(r[&(i, *j)]);
                    }
                }
            }
            let rows: Vec<Constraint> = by_node
                .into_values()
                .filter(|vars| vars.len() > 1)
                .map(Constraint::at_most_one)
                .collect();
            append_family(
                &mut model,
                &mut groups,
                vec![("route exclusivity".into(), rows)],
            );
        }

        // ---- (5) Fanout Routing & (6) Implied Placement ------------------
        let edge_items: Vec<(EdgeId, &Vec<bool>)> =
            cand_edge.iter().map(|(&e, cand)| (e, cand)).collect();
        let routing: Vec<(String, Vec<Constraint>)> = par_map(jobs, &edge_items, |&(e, cand)| {
            let edge = dfg.edges()[e.index()];
            let dst = edge.dst;
            // Termination lookup: operand node -> (unit, tag).
            let mut term_at: HashMap<NodeId, Vec<(NodeId, u8)>> = HashMap::new();
            for &(i, p, t) in &term_ports[&e] {
                term_at.entry(i).or_default().push((p, t));
            }
            let mut batch = Vec::new();
            for (idx, &c) in cand.iter().enumerate() {
                if !c {
                    continue;
                }
                let i = NodeId(idx as u32);
                let rs_i = rs[&(e, i)];
                // (5): continue through a used route fanout or terminate.
                let mut clause = vec![!rs_i.lit()];
                for &m in mrrg.fanouts(i) {
                    if mrrg.nodes()[m.index()].kind.is_route() && cand[m.index()] {
                        clause.push(rs[&(e, m)].lit());
                    }
                }
                if let Some(terms) = term_at.get(&i) {
                    for &(p, _t) in terms {
                        clause.push(f[&(p, dst)].lit());
                    }
                }
                batch.push(Constraint::clause(clause));
                // (6): terminating at p's operand implies placing dst on p,
                // with swap consistency on commutative operations.
                if let Some(terms) = term_at.get(&i) {
                    for &(p, t) in terms {
                        batch.push(Constraint::implies(rs_i.lit(), f[&(p, dst)].lit()));
                        if let Some(&s) = swap.get(&dst) {
                            if t == edge.operand {
                                batch.push(Constraint::implies(rs_i.lit(), !s.lit()));
                            } else {
                                batch.push(Constraint::implies(rs_i.lit(), s.lit()));
                            }
                        }
                    }
                }
            }
            (
                format!(
                    "routing of `{}`->`{}`",
                    dfg.ops()[edge.src.index()].name,
                    dfg.ops()[edge.dst.index()].name
                ),
                batch,
            )
        });
        append_family(&mut model, &mut groups, routing);

        // ---- (7) Initial Fanout ------------------------------------------
        let slot_items: Vec<(OpId, &Vec<NodeId>)> = slots.iter().map(|(&q, ps)| (q, ps)).collect();
        let initial: Vec<(String, Vec<Constraint>)> = par_map(jobs, &slot_items, |&(q, ps)| {
            let mut batch = Vec::new();
            for &e in dfg.fanout(q) {
                for &p in ps {
                    let fv = f[&(p, q)];
                    for &i in mrrg.fanouts(p) {
                        let rv = rs[&(e, i)]; // guaranteed by slot filtering
                        batch.push(Constraint::implies(fv.lit(), rv.lit()));
                        batch.push(Constraint::implies(rv.lit(), fv.lit()));
                    }
                }
            }
            (
                format!("initial fanout of `{}`", dfg.ops()[q.index()].name),
                batch,
            )
        });
        append_family(&mut model, &mut groups, initial);

        // ---- (8) Routing Resource Usage ----------------------------------
        let usage: Vec<Vec<Constraint>> = par_map(jobs, &edge_items, |&(e, cand)| {
            let j = dfg.edges()[e.index()].src;
            let mut batch = Vec::new();
            for (idx, &c) in cand.iter().enumerate() {
                if c {
                    let i = NodeId(idx as u32);
                    batch.push(Constraint::implies(rs[&(e, i)].lit(), r[&(i, j)].lit()));
                }
            }
            batch
        });
        append_family(
            &mut model,
            &mut groups,
            vec![(
                "routing-resource usage".into(),
                usage.into_iter().flatten().collect(),
            )],
        );

        // ---- (9) Multiplexer Input Exclusivity ---------------------------
        if options.mux_exclusivity {
            let value_items: Vec<(OpId, &Vec<bool>)> =
                cand_value.iter().map(|(&j, mask)| (j, mask)).collect();
            let mux: Vec<Vec<Constraint>> = par_map(jobs, &value_items, |&(j, mask)| {
                let mut batch = Vec::new();
                for (idx, &c) in mask.iter().enumerate() {
                    if !c {
                        continue;
                    }
                    let i = NodeId(idx as u32);
                    let fanins = mrrg.fanins(i);
                    if fanins.len() <= 1 {
                        continue;
                    }
                    debug_assert!(
                        fanins
                            .iter()
                            .all(|&m| mrrg.nodes()[m.index()].kind.is_route()),
                        "multi-fanin nodes are multiplexing points over routes"
                    );
                    let mut expr = LinExpr::new();
                    expr.add_term(-1, r[&(i, j)]);
                    for &m in fanins {
                        if mask[m.index()] {
                            if let Some(&rv) = r.get(&(m, j)) {
                                expr.add_term(1, rv);
                            }
                        }
                    }
                    batch.push(Constraint::new(expr, Cmp::Eq, 0));
                }
                batch
            });
            append_family(
                &mut model,
                &mut groups,
                vec![(
                    "multiplexer input exclusivity".into(),
                    mux.into_iter().flatten().collect(),
                )],
            );
        }

        // ---- (10) Objective ----------------------------------------------
        if options.optimize {
            let mut obj = LinExpr::new();
            for (j, mask) in &cand_value {
                for (idx, &c) in mask.iter().enumerate() {
                    if !c {
                        continue;
                    }
                    let i = NodeId(idx as u32);
                    let cost = options.objective.cost_of(mrrg.nodes()[i.index()].role);
                    if cost != 0 {
                        obj.add_term(cost, r[&(i, *j)]);
                    }
                }
            }
            model.minimize(obj);
        }

        Ok(Formulation {
            model,
            f,
            slots,
            r,
            rs,
            swap,
            groups,
            options,
            reach_rounds,
        })
    }

    /// The underlying ILP model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Named constraint groups as `(end_index, name)`: group `g` spans
    /// model constraints `groups[g-1].0 .. groups[g].0` (from 0 for the
    /// first group). Groups follow the paper's constraint families, at
    /// per-operation granularity for placement/initial-fanout and
    /// per-edge granularity for fanout routing.
    pub fn constraint_groups(&self) -> &[(usize, String)] {
        &self.groups
    }

    /// Explains an infeasible formulation as constraint-group names.
    ///
    /// Rebuilds the model with every constraint group reified under a
    /// fresh activation literal, solves under the assumption that all
    /// groups are active, and maps the resulting assumption core back to
    /// group names — a minimal-ish answer to "which constraint families
    /// conflict?". Returns an empty list when the solve does not finish
    /// within `time_limit` (the full model is infeasible, so the grouped
    /// model cannot be satisfiable with every group active).
    pub fn explain_infeasibility(&self, time_limit: Option<Duration>) -> Vec<String> {
        let mut grouped = Model::new();
        grouped.new_vars(self.model.num_vars());
        let mut acts: Vec<(Lit, &str)> = Vec::new();
        let mut start = 0usize;
        for (end, name) in &self.groups {
            let act = grouped.new_var().lit();
            for c in &self.model.constraints()[start..*end] {
                grouped.add_reified(c, act);
            }
            acts.push((act, name));
            start = *end;
        }
        // Presolve stays off: the activation literals must survive to the
        // engine verbatim so the final-conflict analysis can return them.
        let mut solver = Solver::with_config(SolverConfig {
            time_limit,
            presolve: false,
            ..SolverConfig::default()
        });
        let assumptions: Vec<Lit> = acts.iter().map(|&(a, _)| a).collect();
        if solver.solve_under_assumptions(&grouped, &assumptions) != Outcome::Infeasible {
            return Vec::new();
        }
        let core = solver.unsat_core();
        acts.iter()
            .filter(|(a, _)| core.contains(a))
            .map(|&(_, name)| name.to_string())
            .collect()
    }

    /// Encodes a mapping as a dense assignment over this formulation's
    /// variables — the inverse of [`Formulation::decode`], used to hand
    /// the annealing probe's mappings to the solver as candidate
    /// incumbents. Returns `None` when the mapping uses a
    /// placement or routing node the (possibly reachability-reduced)
    /// formulation has no variable for. The returned vector is **not**
    /// guaranteed to satisfy the model — callers must gate it behind
    /// [`Model::check`](bilp::Model::check) (the solver's probe
    /// validation does exactly that).
    pub fn encode(&self, dfg: &Dfg, mapping: &Mapping) -> Option<Vec<bool>> {
        let mut values = vec![false; self.model.num_vars()];
        for (q, p) in &mapping.placement {
            values[self.f.get(&(*p, *q))?.index()] = true;
        }
        for (e, path) in &mapping.routes {
            let j = dfg.edges()[e.index()].src;
            for i in path {
                values[self.rs.get(&(*e, *i))?.index()] = true;
                values[self.r.get(&(*i, j))?.index()] = true;
            }
        }
        for (q, s) in &self.swap {
            values[s.index()] = mapping.swapped.contains(q);
        }
        Some(values)
    }

    /// Size statistics.
    pub fn stats(&self) -> FormulationStats {
        FormulationStats {
            f_vars: self.f.len(),
            r_vars: self.r.len(),
            rs_vars: self.rs.len(),
            swap_vars: self.swap.len(),
            constraints: self.model.constraints().len(),
            reach_rounds: self.reach_rounds,
        }
    }

    /// The mapper options this formulation was built with.
    pub fn options(&self) -> MapperOptions {
        self.options
    }

    /// Decodes a satisfying assignment into a [`Mapping`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not actually satisfy the full
    /// formulation (cannot happen for assignments the solver returns for
    /// an un-ablated model; see [`Formulation::try_decode`]).
    pub fn decode(&self, dfg: &Dfg, mrrg: &Mrrg, solution: &Assignment) -> Mapping {
        self.try_decode(dfg, mrrg, solution)
            .unwrap_or_else(|e| panic!("constraints (5)-(7)+(9) connect source to sink: {e}"))
    }

    /// Fallible decoding: returns an error when a sub-value's used routing
    /// nodes do not actually connect its source to its sink. With the full
    /// constraint set this cannot happen; it *does* happen when the
    /// Multiplexer Input Exclusivity constraint (9) is ablated, exactly as
    /// the paper's Example 2 predicts.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::NoTermination`] naming the offending edge.
    pub fn try_decode(
        &self,
        dfg: &Dfg,
        mrrg: &Mrrg,
        solution: &Assignment,
    ) -> Result<Mapping, DecodeError> {
        let mut mapping = Mapping::new();
        for (q, ps) in &self.slots {
            let p = ps
                .iter()
                .copied()
                .find(|&p| solution.value(self.f[&(p, *q)]))
                .expect("constraint (1) places every operation");
            mapping.placement.insert(*q, p);
        }
        for (q, s) in &self.swap {
            if solution.value(*s) {
                mapping.swapped.insert(*q);
            }
        }
        for e in dfg.edge_ids() {
            let edge = dfg.edges()[e.index()];
            let src_fu = mapping.placement[&edge.src];
            let dst_fu = mapping.placement[&edge.dst];
            let dst_kind = dfg.ops()[edge.dst.index()].kind;
            let want_tag =
                expected_port(dst_kind, edge.operand, mapping.swapped.contains(&edge.dst));
            // Walk the used sub-value nodes from the source output to the
            // termination port (spurious used nodes, e.g. optimisation-free
            // islands, are simply never visited).
            let used = |i: NodeId| self.rs.get(&(e, i)).is_some_and(|v| solution.value(*v));
            let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
            let mut queue: VecDeque<NodeId> = VecDeque::new();
            let mut target: Option<NodeId> = None;
            for &i in mrrg.fanouts(src_fu) {
                if used(i) {
                    parent.insert(i, i);
                    queue.push_back(i);
                }
            }
            'walk: while let Some(i) = queue.pop_front() {
                // Termination?
                if let NodeKind::Route { operand: Some(t) } = mrrg.nodes()[i.index()].kind {
                    if t == want_tag && mrrg.fanouts(i).contains(&dst_fu) {
                        target = Some(i);
                        break 'walk;
                    }
                }
                for &m in mrrg.fanouts(i) {
                    if mrrg.nodes()[m.index()].kind.is_route()
                        && used(m)
                        && !parent.contains_key(&m)
                    {
                        parent.insert(m, i);
                        queue.push_back(m);
                    }
                }
            }
            let Some(target) = target else {
                return Err(DecodeError::NoTermination {
                    from: dfg.ops()[edge.src.index()].name.clone(),
                    to: dfg.ops()[edge.dst.index()].name.clone(),
                });
            };
            let mut path = vec![target];
            let mut cur = target;
            while parent[&cur] != cur {
                cur = parent[&cur];
                path.push(cur);
            }
            path.reverse();
            mapping.routes.insert(e, path);
        }
        Ok(mapping)
    }
}

/// Iterates reachability pruning and slot filtering to a mutual fixpoint.
///
/// Each round recomputes, per DFG edge, the termination ports offered by
/// the destination's *surviving* slots, then re-runs the forward BFS
/// (seeded from the source's surviving slots' fanouts) and backward BFS
/// (from the surviving termination ports) **restricted to the previous
/// round's candidate set**, and finally re-applies the slot filter against
/// the shrunken candidates. Restricting the traversals is what makes the
/// iteration productive: the first round's forward set may pass through
/// nodes that are not backward-reachable (and vice versa), and such
/// stepping stones disappear once candidates are intersected.
///
/// Soundness: a node survives iff it lies on some source-fanout →
/// termination path whose nodes are all candidates of the previous round.
/// Any such path keeps all of its nodes both forward- and
/// backward-reachable within the candidate set, so entire paths are
/// preserved across rounds and only nodes on *no* such path — which no
/// satisfying assignment is forced to use — are pruned. Recomputing
/// termination ports from the filtered slots also drops `(port, unit)`
/// pairs whose unit can no longer host the consumer, so constraints (5)
/// and (6) never reference placement variables that were never created.
///
/// Returns the number of rounds run (at least 1), or the infeasibility
/// uncovered along the way.
fn refine_reachability(
    dfg: &Dfg,
    mrrg: &Mrrg,
    options: &MapperOptions,
    jobs: usize,
    slots: &mut BTreeMap<OpId, Vec<NodeId>>,
    cand_edge: &mut BTreeMap<EdgeId, Vec<bool>>,
    term_ports: &mut BTreeMap<EdgeId, Vec<(NodeId, NodeId, u8)>>,
) -> Result<usize, BuildInfeasible> {
    const MAX_ROUNDS: usize = 8;
    let n_nodes = mrrg.node_count();
    // Within a round each edge reads only its own previous candidate set
    // and the (round-constant) slot lists, so the per-edge recomputation
    // fans out over worker threads; the ordered merge below keeps
    // `changed` detection and error attribution identical to a
    // sequential loop over producers and their fanouts.
    let edge_list: Vec<EdgeId> = dfg
        .value_producers()
        .collect::<Vec<_>>()
        .into_iter()
        .flat_map(|j| dfg.fanout(j).iter().copied())
        .collect();
    let mut rounds = 0;
    loop {
        rounds += 1;

        type EdgeRefined = (Vec<(NodeId, NodeId, u8)>, Vec<bool>);
        let refined: Vec<Result<EdgeRefined, BuildInfeasible>> = par_map(jobs, &edge_list, |&e| {
            let edge = dfg.edges()[e.index()];
            let dst_kind = dfg.ops()[edge.dst.index()].kind;
            let prev = &cand_edge[&e];

            // Termination ports against the current destination slots.
            let mut terms: Vec<(NodeId, NodeId, u8)> = Vec::new();
            for &p in &slots[&edge.dst] {
                for &i in mrrg.fanins(p) {
                    if let NodeKind::Route { operand: Some(t) } = mrrg.nodes()[i.index()].kind {
                        let matches = t == edge.operand
                            || (options.commutativity
                                && dst_kind.is_commutative()
                                && dst_kind.arity() == 2);
                        if matches {
                            terms.push((i, p, t));
                        }
                    }
                }
            }

            // Forward within the previous candidates, seeded from the
            // surviving source slots' fanouts.
            let mut forward = vec![false; n_nodes];
            let mut queue = VecDeque::new();
            for &p in &slots[&edge.src] {
                for &i in mrrg.fanouts(p) {
                    if prev[i.index()] && !forward[i.index()] {
                        forward[i.index()] = true;
                        queue.push_back(i);
                    }
                }
            }
            while let Some(i) = queue.pop_front() {
                for &m in mrrg.fanouts(i) {
                    if prev[m.index()] && !forward[m.index()] {
                        forward[m.index()] = true;
                        queue.push_back(m);
                    }
                }
            }

            // Backward within the previous candidates from the
            // surviving termination ports.
            let mut backward = vec![false; n_nodes];
            let mut queue = VecDeque::new();
            for &(i, _, _) in &terms {
                if prev[i.index()] && !backward[i.index()] {
                    backward[i.index()] = true;
                    queue.push_back(i);
                }
            }
            while let Some(i) = queue.pop_front() {
                for &m in mrrg.fanins(i) {
                    if prev[m.index()] && !backward[m.index()] {
                        backward[m.index()] = true;
                        queue.push_back(m);
                    }
                }
            }

            let cand: Vec<bool> = (0..n_nodes).map(|i| forward[i] && backward[i]).collect();
            if !cand.iter().any(|&b| b) {
                return Err(BuildInfeasible::UnroutableSink {
                    from: dfg.ops()[edge.src.index()].name.clone(),
                    to: dfg.ops()[edge.dst.index()].name.clone(),
                });
            }
            Ok((terms, cand))
        });

        let mut changed = false;
        for (&e, refined_edge) in edge_list.iter().zip(refined) {
            let (terms, cand) = refined_edge?;
            if cand != cand_edge[&e] {
                changed = true;
                cand_edge.insert(e, cand);
            }
            term_ports.insert(e, terms);
        }

        // Slot filter against the refined candidates (same criterion as the
        // first round: every fanout must reach every sink).
        for (q, slot_list) in slots.iter_mut() {
            let sinks: Vec<EdgeId> = dfg.fanout(*q).to_vec();
            if sinks.is_empty() {
                continue;
            }
            let before = slot_list.len();
            slot_list.retain(|&p| {
                !mrrg.fanouts(p).is_empty()
                    && mrrg
                        .fanouts(p)
                        .iter()
                        .all(|&i| sinks.iter().all(|e| cand_edge[e][i.index()]))
            });
            if slot_list.is_empty() {
                return Err(BuildInfeasible::UnroutableSink {
                    from: dfg.ops()[q.index()].name.clone(),
                    to: "any sink".into(),
                });
            }
            changed |= slot_list.len() != before;
        }

        if !changed || rounds >= MAX_ROUNDS {
            return Ok(rounds);
        }
    }
}

/// Maximum bipartite matching (Kuhn's algorithm) between operations and
/// compatible functional-unit slots.
fn max_matching(dfg: &Dfg, slots: &BTreeMap<OpId, Vec<NodeId>>) -> usize {
    // Dense ids for slots.
    let mut slot_ids: HashMap<NodeId, usize> = HashMap::new();
    for ps in slots.values() {
        for &p in ps {
            let next = slot_ids.len();
            slot_ids.entry(p).or_insert(next);
        }
    }
    let mut matched_slot: Vec<Option<OpId>> = vec![None; slot_ids.len()];
    let mut total = 0;

    fn try_assign(
        q: OpId,
        slots: &BTreeMap<OpId, Vec<NodeId>>,
        slot_ids: &HashMap<NodeId, usize>,
        matched_slot: &mut Vec<Option<OpId>>,
        visited: &mut Vec<bool>,
    ) -> bool {
        for &p in &slots[&q] {
            let sid = slot_ids[&p];
            if visited[sid] {
                continue;
            }
            visited[sid] = true;
            let current = matched_slot[sid];
            if current.is_none()
                || try_assign(
                    current.expect("checked above"),
                    slots,
                    slot_ids,
                    matched_slot,
                    visited,
                )
            {
                matched_slot[sid] = Some(q);
                return true;
            }
        }
        false
    }

    for q in dfg.op_ids() {
        let mut visited = vec![false; slot_ids.len()];
        if try_assign(q, slots, &slot_ids, &mut matched_slot, &mut visited) {
            total += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
    use cgra_mrrg::build_mrrg;

    fn small_arch_mrrg() -> Mrrg {
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
        build_mrrg(&arch, 1)
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
    fn builds_for_tiny_instance() {
        let mrrg = small_arch_mrrg();
        let dfg = tiny_dfg();
        let f = Formulation::build(&dfg, &mrrg, MapperOptions::default()).expect("builds");
        let s = f.stats();
        assert!(s.f_vars > 0 && s.r_vars > 0 && s.rs_vars > 0);
        assert!(s.constraints > 0);
        assert_eq!(s.swap_vars, 1); // the single add
    }

    #[test]
    fn no_compatible_slot_detected() {
        let mrrg = small_arch_mrrg(); // no memory ports
        let mut g = Dfg::new("t");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let l = g.add_op("l", OpKind::Load).unwrap();
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(a, l, 0).unwrap();
        g.connect(l, o, 0).unwrap();
        let err = Formulation::build(&g, &mrrg, MapperOptions::default()).unwrap_err();
        assert!(matches!(err, BuildInfeasible::NoCompatibleSlot { .. }));
    }

    #[test]
    fn capacity_exceeded_detected_by_matching() {
        // 2x2 grid without pads has 4 ALUs; 5 adds cannot fit.
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
        let mrrg = build_mrrg(&arch, 1);
        let mut g = Dfg::new("t");
        let mut prev = g.add_op("i", OpKind::Input).unwrap();
        for k in 0..5 {
            let s = g.add_op(format!("s{k}"), OpKind::Add).unwrap();
            g.connect(prev, s, 0).unwrap();
            g.connect(prev, s, 1).unwrap();
            prev = s;
        }
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(prev, o, 0).unwrap();
        let err = Formulation::build(&g, &mrrg, MapperOptions::default()).unwrap_err();
        assert!(matches!(err, BuildInfeasible::CapacityExceeded { .. }));
    }

    #[test]
    fn capacity_check_can_be_disabled() {
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
        let mrrg = build_mrrg(&arch, 1);
        let mut g = Dfg::new("t");
        let mut prev = g.add_op("i", OpKind::Input).unwrap();
        for k in 0..5 {
            let s = g.add_op(format!("s{k}"), OpKind::Add).unwrap();
            g.connect(prev, s, 0).unwrap();
            g.connect(prev, s, 1).unwrap();
            prev = s;
        }
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(prev, o, 0).unwrap();
        let opts = MapperOptions {
            redundant_capacity: false,
            ..MapperOptions::default()
        };
        // Without the presolve the build succeeds; the solver will still
        // prove infeasibility (exercised in the mapper tests).
        assert!(Formulation::build(&g, &mrrg, opts).is_ok());
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // A multi-value DFG on a 3x3 grid exercises every parallel
        // family (reachability, routing, initial fanout, usage, mux
        // exclusivity) with more than one item each.
        let arch = grid(GridParams {
            rows: 3,
            cols: 3,
            fu_mix: FuMix::Homogeneous,
            interconnect: Interconnect::Orthogonal,
            io_pads: true,
            memory_ports: false,
            toroidal: false,
            alu_latency: 0,
            bypass_channel: false,
        });
        let mrrg = build_mrrg(&arch, 2);
        let mut g = Dfg::new("t");
        let a = g.add_op("a", OpKind::Input).unwrap();
        let b = g.add_op("b", OpKind::Input).unwrap();
        let m = g.add_op("m", OpKind::Mul).unwrap();
        let s = g.add_op("s", OpKind::Add).unwrap();
        let o = g.add_op("o", OpKind::Output).unwrap();
        g.connect(a, m, 0).unwrap();
        g.connect(b, m, 1).unwrap();
        g.connect(m, s, 0).unwrap();
        g.connect(a, s, 1).unwrap();
        g.connect(s, o, 0).unwrap();

        // The largest Table 2 kernel by operation count on homo-diag at
        // II=2: the paper-scale build, where emission cost shows.
        let largest = cgra_dfg::benchmarks::all()
            .iter()
            .max_by_key(|e| ((e.build)().op_count(), e.name))
            .expect("benchmarks exist");
        let homo_diag = grid(GridParams::paper(
            FuMix::Homogeneous,
            Interconnect::Diagonal,
        ));

        let opts = |jobs| MapperOptions {
            optimize: true,
            build_jobs: jobs,
            ..MapperOptions::default()
        };
        for (g, mrrg) in [(g, mrrg), ((largest.build)(), build_mrrg(&homo_diag, 2))] {
            let seq = Formulation::build(&g, &mrrg, opts(1)).expect("builds");
            let par = Formulation::build(&g, &mrrg, opts(4)).expect("builds");
            assert_eq!(seq.model().num_vars(), par.model().num_vars());
            assert_eq!(seq.model().constraints(), par.model().constraints());
            assert_eq!(seq.model().objective(), par.model().objective());
            assert_eq!(seq.model().branch_hints(), par.model().branch_hints());
            assert_eq!(seq.constraint_groups(), par.constraint_groups());
            assert_eq!(seq.stats(), par.stats());
        }
    }

    #[test]
    fn pruning_reduces_variables() {
        let mrrg = small_arch_mrrg();
        let dfg = tiny_dfg();
        let f = Formulation::build(&dfg, &mrrg, MapperOptions::default()).expect("builds");
        let (routes, _) = mrrg.kind_counts();
        let values = dfg.value_producers().count();
        // Without pruning R would have routes x values variables.
        assert!(f.stats().r_vars < routes * values);
    }
}

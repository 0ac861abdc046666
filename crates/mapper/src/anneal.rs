//! The simulated-annealing baseline mapper (paper Figs 7 and 8).
//!
//! CGRA-ME's built-in mapper — like DRESC and SPR before it — anneals
//! operation placement while routing values over the MRRG with
//! negotiated-congestion (PathFinder-style) costs. The paper runs it "with
//! moderate parameters (number of inner-loop iterations, penalty factors,
//! temperature schedule, etc.)" as the heuristic baseline that the exact
//! ILP mapper dominates in Fig 8. This module reproduces that baseline:
//!
//! * **Placement** — each operation on a compatible functional-unit slot,
//!   injectively; moves relocate one operation (or swap two) and are
//!   accepted by the Metropolis criterion.
//! * **Routing** — each DFG edge (sub-value) is routed by Dijkstra over
//!   the MRRG's routing nodes. Nodes occupied by *other* values cost a
//!   congestion penalty that grows over time; re-using a node already
//!   carrying the *same* value (through the same mux input) is nearly
//!   free, which grows fanout trees.
//! * **Success** — the anneal ends as soon as a fully-legal mapping
//!   exists (no overuse, all sinks routed, validation passes); otherwise
//!   it gives up after the temperature schedule runs out. A heuristic
//!   can never prove infeasibility — failures are reported as
//!   [`MapOutcome::Timeout`], never `Infeasible`.

use crate::ilp::{MapOutcome, MapReport};
use crate::mapping::{validate_mapping, Mapping};
use crate::options::MapperOptions;
use cgra_dfg::{Dfg, EdgeId, OpId};
use cgra_mrrg::{Mrrg, NodeId, NodeKind};
use cgra_rng::Rng;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Annealing schedule parameters ("moderate parameters", paper Section 5).
#[derive(Debug, Clone, Copy)]
pub struct AnnealParams {
    /// Number of temperature steps.
    pub outer_iterations: usize,
    /// Placement moves attempted per temperature step.
    pub moves_per_temperature: usize,
    /// Initial temperature.
    pub initial_temperature: f64,
    /// Geometric cooling factor per temperature step.
    pub cooling: f64,
    /// Congestion penalty growth per temperature step (PathFinder-style).
    pub congestion_growth: f64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            outer_iterations: 100,
            moves_per_temperature: 160,
            initial_temperature: 6.0,
            cooling: 0.93,
            congestion_growth: 0.35,
        }
    }
}

/// The simulated-annealing mapper.
///
/// # Examples
///
/// ```
/// use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
/// use cgra_mapper::{AnnealingMapper, AnnealParams, MapperOptions};
/// use cgra_mrrg::build_mrrg;
///
/// let arch = grid(GridParams::paper(FuMix::Homogeneous, Interconnect::Diagonal));
/// let mrrg = build_mrrg(&arch, 1);
/// let dfg = cgra_dfg::benchmarks::accum();
/// let mapper = AnnealingMapper::new(MapperOptions::default(), AnnealParams::default());
/// let report = mapper.map(&dfg, &mrrg);
/// assert!(report.outcome.is_mapped());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnnealingMapper {
    options: MapperOptions,
    params: AnnealParams,
    /// External cooperative-cancellation flag (see
    /// [`AnnealingMapper::with_interrupt`]).
    interrupt: Option<Arc<AtomicBool>>,
}

/// Routing occupancy bookkeeping: per node, which values use it, how many
/// paths of each, and through which predecessor each value entered.
#[derive(Debug, Default, Clone)]
struct Occupancy {
    /// (node, value) -> path refcount.
    counts: HashMap<(NodeId, OpId), u32>,
    /// (node, value) -> entry predecessor (mux-input consistency).
    preds: HashMap<(NodeId, OpId), NodeId>,
    /// node -> number of distinct values present.
    distinct: HashMap<NodeId, u32>,
    /// Total overuse: Σ max(0, distinct - 1).
    overuse: i64,
}

impl Occupancy {
    fn add_path(&mut self, value: OpId, path: &[NodeId]) {
        for (w, &n) in path.iter().enumerate() {
            let c = self.counts.entry((n, value)).or_insert(0);
            *c += 1;
            if *c == 1 {
                let d = self.distinct.entry(n).or_insert(0);
                *d += 1;
                if *d > 1 {
                    self.overuse += 1;
                }
            }
            if w > 0 {
                self.preds.entry((n, value)).or_insert(path[w - 1]);
            }
        }
    }

    fn remove_path(&mut self, value: OpId, path: &[NodeId]) {
        for &n in path {
            let c = self
                .counts
                .get_mut(&(n, value))
                .expect("removing a registered path");
            *c -= 1;
            if *c == 0 {
                self.counts.remove(&(n, value));
                self.preds.remove(&(n, value));
                let d = self.distinct.get_mut(&n).expect("distinct tracked");
                *d -= 1;
                if *d >= 1 {
                    self.overuse -= 1;
                }
                if *d == 0 {
                    self.distinct.remove(&n);
                }
            }
        }
    }

    fn others_on(&self, n: NodeId, value: OpId) -> u32 {
        let d = self.distinct.get(&n).copied().unwrap_or(0);
        let mine = u32::from(self.counts.contains_key(&(n, value)));
        d - mine
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on cost.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("costs are finite")
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct State<'a> {
    dfg: &'a Dfg,
    mrrg: &'a Mrrg,
    placement: Vec<NodeId>,
    routes: BTreeMap<EdgeId, Option<Vec<NodeId>>>,
    occupancy: Occupancy,
    history: Vec<f64>,
    congestion_penalty: f64,
    unrouted: usize,
}

impl<'a> State<'a> {
    fn cost(&self) -> f64 {
        let wire: usize = self
            .routes
            .values()
            .map(|r| r.as_ref().map_or(0, Vec::len))
            .sum();
        wire as f64 + 40.0 * self.occupancy.overuse as f64 + 400.0 * self.unrouted as f64
    }

    /// Dijkstra from the placed source's output to the placed target's
    /// operand port, with congestion-aware costs.
    fn route_edge(&self, e: EdgeId) -> Option<Vec<NodeId>> {
        let edge = self.dfg.edges()[e.index()];
        let value = edge.src;
        let src_fu = self.placement[edge.src.index()];
        let dst_fu = self.placement[edge.dst.index()];
        // Target: the operand port with the edge's tag feeding dst_fu.
        let target = self.mrrg.fanins(dst_fu).iter().copied().find(|&i| {
            matches!(
                self.mrrg.nodes()[i.index()].kind,
                NodeKind::Route { operand: Some(t) } if t == edge.operand
            )
        })?;

        let n = self.mrrg.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        let enter_cost = |from: Option<NodeId>, to: NodeId| -> f64 {
            let mut c = 1.0 + self.history[to.index()];
            let others = self.occupancy.others_on(to, value);
            if others > 0 {
                c += self.congestion_penalty * f64::from(others);
            }
            match (self.occupancy.preds.get(&(to, value)), from) {
                (Some(&p), Some(f)) if p == f => c = 0.05, // shared tree edge
                (Some(_), Some(_)) => c += self.congestion_penalty, // mux conflict
                _ => {
                    if self.occupancy.counts.contains_key(&(to, value)) {
                        c = 0.05; // first node of a shared trunk
                    }
                }
            }
            c
        };

        for &s in self.mrrg.fanouts(src_fu) {
            if self.mrrg.nodes()[s.index()].kind.is_route() {
                let c = enter_cost(None, s);
                if c < dist[s.index()] {
                    dist[s.index()] = c;
                    heap.push(HeapEntry { cost: c, node: s });
                }
            }
        }
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if cost > dist[node.index()] {
                continue;
            }
            if node == target {
                let mut path = vec![node];
                let mut cur = node;
                while let Some(p) = prev[cur.index()] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &m in self.mrrg.fanouts(node) {
                if !self.mrrg.nodes()[m.index()].kind.is_route() {
                    continue;
                }
                let c = cost + enter_cost(Some(node), m);
                if c < dist[m.index()] {
                    dist[m.index()] = c;
                    prev[m.index()] = Some(node);
                    heap.push(HeapEntry { cost: c, node: m });
                }
            }
        }
        None
    }

    /// Invariant: `unrouted` equals the number of `None` routes.
    fn rip_up(&mut self, e: EdgeId) -> Option<Vec<NodeId>> {
        let old = self.routes.insert(e, None).flatten();
        if let Some(path) = &old {
            let value = self.dfg.edges()[e.index()].src;
            self.occupancy.remove_path(value, path);
            self.unrouted += 1;
        }
        old
    }

    /// Installs a route into the `None` slot left by [`State::rip_up`].
    fn install(&mut self, e: EdgeId, path: Option<Vec<NodeId>>) {
        debug_assert!(self.routes[&e].is_none(), "install over a live route");
        if let Some(p) = &path {
            let value = self.dfg.edges()[e.index()].src;
            self.occupancy.add_path(value, p);
            self.unrouted -= 1;
        }
        self.routes.insert(e, path);
    }

    fn reroute(&mut self, e: EdgeId) {
        let _ = self.rip_up(e);
        let path = self.route_edge(e);
        self.install(e, path);
    }

    /// Edges incident to an op (its fanout plus its operand drivers).
    fn incident_edges(&self, q: OpId) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = self.dfg.fanout(q).to_vec();
        for (i, e) in self.dfg.edges().iter().enumerate() {
            if e.dst == q {
                edges.push(EdgeId(i as u32));
            }
        }
        edges
    }

    fn is_legal(&self) -> bool {
        self.unrouted == 0 && self.occupancy.overuse == 0
    }
}

impl AnnealingMapper {
    /// Creates an annealing mapper.
    pub fn new(options: MapperOptions, params: AnnealParams) -> Self {
        AnnealingMapper {
            options,
            params,
            interrupt: None,
        }
    }

    /// Returns this mapper with an external cooperative-cancellation
    /// flag installed: once another thread sets it, the anneal in
    /// flight gives up at its next move, exactly as when its
    /// [`MapperOptions::time_limit`] expires.
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// The schedule parameters.
    pub fn params(&self) -> AnnealParams {
        self.params
    }

    /// Attempts to map `dfg` onto `mrrg`.
    ///
    /// Returns [`MapOutcome::Mapped`] on success and
    /// [`MapOutcome::Timeout`] when the schedule ends without a legal
    /// mapping (a heuristic cannot distinguish "hard" from "infeasible").
    /// Instances whose operations cannot even be placed injectively return
    /// [`MapOutcome::Infeasible`] from the same capacity presolve the ILP
    /// mapper uses.
    pub fn map(&self, dfg: &Dfg, mrrg: &Mrrg) -> MapReport {
        let start = Instant::now();
        let mut rng = Rng::seed_from_u64(self.options.seed);

        // Compatible slots per op.
        let mut slots: Vec<Vec<NodeId>> = Vec::with_capacity(dfg.op_count());
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
                return MapReport {
                    outcome: MapOutcome::Timeout,
                    elapsed: start.elapsed(),
                    formulation: Default::default(),
                    solver: Default::default(),
                    infeasible_core: None,
                    certificate: None,
                };
            }
            slots.push(compatible);
        }

        // Initial injective placement via greedy + augmenting paths.
        let Some(initial) = initial_placement(&slots, &mut rng) else {
            return MapReport {
                outcome: MapOutcome::Timeout,
                elapsed: start.elapsed(),
                formulation: Default::default(),
                solver: Default::default(),
                infeasible_core: None,
                certificate: None,
            };
        };

        let mut st = State {
            dfg,
            mrrg,
            placement: initial,
            routes: dfg.edge_ids().map(|e| (e, None)).collect(),
            occupancy: Occupancy::default(),
            history: vec![0.0; mrrg.node_count()],
            congestion_penalty: 1.0,
            unrouted: dfg.edge_count(),
        };
        let all_edges: Vec<EdgeId> = dfg.edge_ids().collect();
        for &e in &all_edges {
            st.reroute(e);
        }

        let mut slot_owner: HashMap<NodeId, OpId> = st
            .placement
            .iter()
            .enumerate()
            .map(|(qi, &p)| (p, OpId(qi as u32)))
            .collect();

        let mut temperature = self.params.initial_temperature;
        for _ in 0..self.params.outer_iterations {
            for _ in 0..self.params.moves_per_temperature {
                if st.is_legal() {
                    if let Some(report) = self.finish(dfg, mrrg, &st, start.elapsed()) {
                        return report;
                    }
                }
                let limit = self.options.time_limit;
                let flag = self.interrupt.as_deref();
                if limit.is_some_and(|l| start.elapsed() >= l)
                    || flag.is_some_and(|f| f.load(Ordering::Relaxed))
                {
                    return MapReport {
                        outcome: MapOutcome::Timeout,
                        elapsed: start.elapsed(),
                        formulation: Default::default(),
                        solver: Default::default(),
                        infeasible_core: None,
                        certificate: None,
                    };
                }

                // Propose: move a random op to a random compatible slot.
                let q = OpId(rng.gen_range(0..dfg.op_count()) as u32);
                let new_slot = slots[q.index()][rng.gen_range(0..slots[q.index()].len())];
                let old_slot = st.placement[q.index()];
                if new_slot == old_slot {
                    continue;
                }
                let displaced = slot_owner.get(&new_slot).copied();
                if let Some(o) = displaced {
                    // Swap requires the displaced op to fit the old slot.
                    if !slots[o.index()].contains(&old_slot) {
                        continue;
                    }
                }

                let before = st.cost();
                // Save and rip affected routes.
                let mut affected: Vec<EdgeId> = st.incident_edges(q);
                if let Some(o) = displaced {
                    for e in st.incident_edges(o) {
                        if !affected.contains(&e) {
                            affected.push(e);
                        }
                    }
                }
                let saved: Vec<(EdgeId, Option<Vec<NodeId>>)> =
                    affected.iter().map(|&e| (e, st.rip_up(e))).collect();
                st.placement[q.index()] = new_slot;
                if let Some(o) = displaced {
                    st.placement[o.index()] = old_slot;
                }
                for &e in &affected {
                    let path = st.route_edge(e);
                    st.install(e, path);
                }
                let after = st.cost();
                let delta = after - before;
                let accept = delta <= 0.0 || rng.gen_f64() < (-delta / temperature.max(1e-9)).exp();
                if accept {
                    slot_owner.remove(&old_slot);
                    slot_owner.insert(new_slot, q);
                    if let Some(o) = displaced {
                        slot_owner.insert(old_slot, o);
                    }
                } else {
                    // Revert placement and routes.
                    st.placement[q.index()] = old_slot;
                    if let Some(o) = displaced {
                        st.placement[o.index()] = new_slot;
                    }
                    for &e in &affected {
                        let _ = st.rip_up(e);
                    }
                    for (e, path) in saved {
                        st.install(e, path);
                    }
                }
            }
            // End of temperature step: negotiate congestion harder and
            // remember chronically-overused nodes.
            st.congestion_penalty += self.params.congestion_growth;
            for (&node, &d) in &st.occupancy.distinct {
                if d > 1 {
                    st.history[node.index()] += 0.4;
                }
            }
            // Re-route everything under the new penalties.
            for &e in &all_edges {
                st.reroute(e);
            }
            if st.is_legal() {
                if let Some(report) = self.finish(dfg, mrrg, &st, start.elapsed()) {
                    return report;
                }
            }
            temperature *= self.params.cooling;
        }

        MapReport {
            outcome: MapOutcome::Timeout,
            elapsed: start.elapsed(),
            formulation: Default::default(),
            solver: Default::default(),
            infeasible_core: None,
            certificate: None,
        }
    }

    /// Packages a legal state into a validated mapping report; returns
    /// `None` if validation rejects it (e.g. a residual mux conflict), in
    /// which case annealing continues.
    fn finish(
        &self,
        dfg: &Dfg,
        mrrg: &Mrrg,
        st: &State<'_>,
        elapsed: std::time::Duration,
    ) -> Option<MapReport> {
        let mut mapping = Mapping::new();
        for q in dfg.op_ids() {
            mapping.placement.insert(q, st.placement[q.index()]);
        }
        for (e, path) in &st.routes {
            mapping.routes.insert(*e, path.clone()?);
        }
        validate_mapping(dfg, mrrg, &mapping).ok()?;
        let routing_usage = mapping.routing_resource_usage(dfg);
        Some(MapReport {
            outcome: MapOutcome::Mapped {
                mapping,
                routing_usage,
                optimal: false,
            },
            elapsed,
            formulation: Default::default(),
            solver: Default::default(),
            infeasible_core: None,
            certificate: None,
        })
    }
}

/// Random injective placement: shuffle-greedy with augmenting-path repair.
fn initial_placement(slots: &[Vec<NodeId>], rng: &mut Rng) -> Option<Vec<NodeId>> {
    let mut owner: HashMap<NodeId, usize> = HashMap::new();
    let mut assigned: Vec<Option<NodeId>> = vec![None; slots.len()];

    fn augment(
        q: usize,
        slots: &[Vec<NodeId>],
        owner: &mut HashMap<NodeId, usize>,
        assigned: &mut Vec<Option<NodeId>>,
        visited: &mut HashMap<NodeId, bool>,
        rng: &mut Rng,
    ) -> bool {
        let mut order: Vec<NodeId> = slots[q].clone();
        // Light shuffle for placement diversity.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range_inclusive(0..=i);
            order.swap(i, j);
        }
        for p in order {
            if visited.get(&p).copied().unwrap_or(false) {
                continue;
            }
            visited.insert(p, true);
            match owner.get(&p).copied() {
                None => {
                    owner.insert(p, q);
                    assigned[q] = Some(p);
                    return true;
                }
                Some(other) => {
                    if augment(other, slots, owner, assigned, visited, rng) {
                        owner.insert(p, q);
                        assigned[q] = Some(p);
                        return true;
                    }
                }
            }
        }
        false
    }

    for q in 0..slots.len() {
        let mut visited = HashMap::new();
        if !augment(q, slots, &mut owner, &mut assigned, &mut visited, rng) {
            return None;
        }
    }
    assigned.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
    use cgra_dfg::OpKind;
    use cgra_mrrg::build_mrrg;

    fn small_mrrg() -> Mrrg {
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
    fn anneals_tiny_add() {
        let mrrg = small_mrrg();
        let mapper = AnnealingMapper::new(MapperOptions::default(), AnnealParams::default());
        let report = mapper.map(&tiny_dfg(), &mrrg);
        assert!(report.outcome.is_mapped(), "{}", report.outcome);
    }

    #[test]
    fn deterministic_given_seed() {
        let mrrg = small_mrrg();
        let mapper = AnnealingMapper::new(
            MapperOptions {
                seed: 7,
                ..MapperOptions::default()
            },
            AnnealParams::default(),
        );
        let a = mapper.map(&tiny_dfg(), &mrrg);
        let b = mapper.map(&tiny_dfg(), &mrrg);
        assert_eq!(a.outcome.mapping(), b.outcome.mapping());
    }

    #[test]
    fn gives_up_on_overcapacity() {
        // 5 adds cannot be placed on 4 ALUs: initial placement fails, so
        // the anneal reports Timeout (it cannot *prove* infeasibility).
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
        let mrrg = small_mrrg();
        let mapper = AnnealingMapper::new(MapperOptions::default(), AnnealParams::default());
        let report = mapper.map(&g, &mrrg);
        assert_eq!(report.outcome, MapOutcome::Timeout);
    }

    #[test]
    fn occupancy_bookkeeping_roundtrips() {
        let mut occ = Occupancy::default();
        let v1 = OpId(0);
        let v2 = OpId(1);
        let p1 = vec![NodeId(1), NodeId(2), NodeId(3)];
        let p2 = vec![NodeId(2), NodeId(4)];
        occ.add_path(v1, &p1);
        assert_eq!(occ.overuse, 0);
        occ.add_path(v2, &p2);
        assert_eq!(occ.overuse, 1); // node 2 shared by two values
        assert_eq!(occ.others_on(NodeId(2), v1), 1);
        occ.remove_path(v2, &p2);
        assert_eq!(occ.overuse, 0);
        occ.remove_path(v1, &p1);
        assert!(occ.counts.is_empty());
        assert!(occ.distinct.is_empty());
    }

    #[test]
    fn initial_placement_is_injective() {
        let mut rng = Rng::seed_from_u64(3);
        let slots = vec![
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(1)],
            vec![NodeId(2), NodeId(3)],
        ];
        let p = initial_placement(&slots, &mut rng).expect("feasible");
        let mut seen = std::collections::BTreeSet::new();
        for n in &p {
            assert!(seen.insert(*n), "duplicate slot");
        }
        // Infeasible case: two ops, one slot.
        let slots = vec![vec![NodeId(1)], vec![NodeId(1)]];
        assert!(initial_placement(&slots, &mut rng).is_none());
    }
}

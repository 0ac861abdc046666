//! Mapping results and structural validation.
//!
//! A [`Mapping`] binds every DFG operation to a functional-unit execution
//! slot and every DFG edge (sub-value) to a route through the MRRG. The
//! validator re-checks a mapping against the raw graphs, independently of
//! whichever mapper produced it — the ILP and annealing mappers are both
//! audited by the same code.

use crate::options::Objective;
use cgra_dfg::{Dfg, EdgeId, OpId, OpKind};
use cgra_mrrg::{Mrrg, NodeId, NodeKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A complete mapping of a DFG onto an MRRG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Placement: each operation's functional-unit node.
    pub placement: BTreeMap<OpId, NodeId>,
    /// Per-operation operand swap (commutative operations only): when
    /// `true`, DFG operand `o` feeds physical port `1 - o`.
    pub swapped: BTreeSet<OpId>,
    /// Routing: each DFG edge's path of route nodes, from (and including)
    /// a fanout of the source's function node to (and including) the
    /// operand port of the destination's function node.
    pub routes: BTreeMap<EdgeId, Vec<NodeId>>,
}

impl Mapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Mapping {
            placement: BTreeMap::new(),
            swapped: BTreeSet::new(),
            routes: BTreeMap::new(),
        }
    }

    /// The set of distinct routing nodes used, per value-producing op.
    /// Routes keyed by edge ids not in `dfg` are ignored (the validator
    /// rejects such mappings; accounting must not panic on them).
    pub fn nodes_by_value(&self, dfg: &Dfg) -> BTreeMap<OpId, BTreeSet<NodeId>> {
        let mut map: BTreeMap<OpId, BTreeSet<NodeId>> = BTreeMap::new();
        for (e, path) in &self.routes {
            let Some(edge) = dfg.edges().get(e.index()) else {
                continue;
            };
            map.entry(edge.src)
                .or_default()
                .extend(path.iter().copied());
        }
        map
    }

    /// Total number of distinct routing resources used — the paper's
    /// objective (10).
    pub fn routing_resource_usage(&self, dfg: &Dfg) -> usize {
        self.nodes_by_value(dfg).values().map(BTreeSet::len).sum()
    }

    /// The cost of this mapping under an [`Objective`] — the value the
    /// optimizer minimises (equals [`Mapping::routing_resource_usage`]
    /// for [`Objective::RoutingResources`]).
    pub fn objective_cost(&self, dfg: &Dfg, mrrg: &Mrrg, objective: Objective) -> i64 {
        self.nodes_by_value(dfg)
            .values()
            .flatten()
            .map(|&n| objective.cost_of(mrrg.nodes()[n.index()].role))
            .sum()
    }
}

impl Default for Mapping {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mapping ({} ops placed, {} edges routed)",
            self.placement.len(),
            self.routes.len()
        )
    }
}

/// Structural mapping violations found by [`validate_mapping`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// An operation is not placed.
    Unplaced(String),
    /// An operation is placed on a non-function node or an incompatible
    /// functional unit.
    IllegalPlacement {
        /// The operation name.
        op: String,
        /// The node name.
        node: String,
    },
    /// Two operations share one functional-unit slot.
    PlacementOverlap {
        /// First operation.
        a: String,
        /// Second operation.
        b: String,
        /// The shared node name.
        node: String,
    },
    /// A DFG edge has no route.
    Unrouted {
        /// Source op name.
        from: String,
        /// Destination op name.
        to: String,
    },
    /// A route is not a connected path in the MRRG.
    BrokenRoute {
        /// The offending edge, rendered as `src->dst`.
        edge: String,
        /// Position in the path where connectivity fails.
        at: usize,
    },
    /// A route does not start at a fanout of the source's function node.
    BadRouteStart {
        /// The offending edge.
        edge: String,
    },
    /// A route does not end on the correct operand port of the
    /// destination's placed functional unit.
    BadRouteEnd {
        /// The offending edge.
        edge: String,
    },
    /// A routing resource carries two different values (violates the
    /// paper's Route Exclusivity constraint (4)).
    RouteOveruse {
        /// The node name.
        node: String,
    },
    /// One value enters a multiplexing point through two different inputs
    /// (violates Multiplexer Input Exclusivity, constraint (9)).
    MuxConflict {
        /// The multiplexing node name.
        node: String,
    },
    /// A non-commutative operation's operands were swapped.
    IllegalSwap {
        /// The operation name.
        op: String,
    },
    /// A route is keyed by an edge id that does not exist in the DFG —
    /// the mapping was built against a different graph.
    UnknownEdge {
        /// The dangling edge index.
        index: usize,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::Unplaced(op) => write!(f, "operation `{op}` is not placed"),
            MappingError::IllegalPlacement { op, node } => {
                write!(f, "operation `{op}` illegally placed on `{node}`")
            }
            MappingError::PlacementOverlap { a, b, node } => {
                write!(f, "operations `{a}` and `{b}` share slot `{node}`")
            }
            MappingError::Unrouted { from, to } => {
                write!(f, "edge {from}->{to} is not routed")
            }
            MappingError::BrokenRoute { edge, at } => {
                write!(f, "route for {edge} is disconnected at position {at}")
            }
            MappingError::BadRouteStart { edge } => {
                write!(f, "route for {edge} does not start at the source output")
            }
            MappingError::BadRouteEnd { edge } => {
                write!(
                    f,
                    "route for {edge} does not end at the destination operand"
                )
            }
            MappingError::RouteOveruse { node } => {
                write!(f, "routing resource `{node}` carries two values")
            }
            MappingError::MuxConflict { node } => {
                write!(f, "mux `{node}` receives one value on two inputs")
            }
            MappingError::IllegalSwap { op } => {
                write!(f, "non-commutative operation `{op}` has swapped operands")
            }
            MappingError::UnknownEdge { index } => {
                write!(f, "route references edge #{index}, which is not in the DFG")
            }
        }
    }
}

/// The MRRG node's name, or a descriptive placeholder when the id does
/// not resolve — error construction must never panic on dangling ids.
fn node_name(mrrg: &Mrrg, n: NodeId) -> String {
    mrrg.node(n)
        .map(|node| node.name.clone())
        .unwrap_or_else(|_| format!("<unknown node #{}>", n.index()))
}

impl std::error::Error for MappingError {}

/// Validates a mapping against its DFG and MRRG.
///
/// Checks, in the paper's terms: Operation Placement (1), Functional Unit
/// Exclusivity (2), Functional Unit Legality (3), Route Exclusivity (4),
/// route connectivity and termination (5)-(7), and Multiplexer Input
/// Exclusivity (9) — plus operand correctness including commutative swaps.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_mapping(dfg: &Dfg, mrrg: &Mrrg, mapping: &Mapping) -> Result<(), MappingError> {
    // Placement: total, legal, exclusive.
    let mut slot_owner: BTreeMap<NodeId, OpId> = BTreeMap::new();
    for q in dfg.op_ids() {
        let op = &dfg.ops()[q.index()];
        let Some(&p) = mapping.placement.get(&q) else {
            return Err(MappingError::Unplaced(op.name.clone()));
        };
        let node = mrrg.node(p).map_err(|_| MappingError::IllegalPlacement {
            op: op.name.clone(),
            node: format!("{p:?}"),
        })?;
        let legal = matches!(&node.kind, NodeKind::Function { ops } if ops.contains(op.kind));
        if !legal {
            return Err(MappingError::IllegalPlacement {
                op: op.name.clone(),
                node: node.name.clone(),
            });
        }
        if let Some(&other) = slot_owner.get(&p) {
            return Err(MappingError::PlacementOverlap {
                a: dfg.ops()[other.index()].name.clone(),
                b: op.name.clone(),
                node: node.name.clone(),
            });
        }
        slot_owner.insert(p, q);
        if mapping.swapped.contains(&q) && !op.kind.is_commutative() {
            return Err(MappingError::IllegalSwap {
                op: op.name.clone(),
            });
        }
    }

    // Routing: every edge routed, connected, correctly terminated.
    for e in dfg.edge_ids() {
        let edge = dfg.edges()[e.index()];
        let from_name = &dfg.ops()[edge.src.index()].name;
        let to_name = &dfg.ops()[edge.dst.index()].name;
        let edge_desc = format!("{from_name}->{to_name}");
        let Some(path) = mapping.routes.get(&e) else {
            return Err(MappingError::Unrouted {
                from: from_name.clone(),
                to: to_name.clone(),
            });
        };
        if path.is_empty() {
            return Err(MappingError::Unrouted {
                from: from_name.clone(),
                to: to_name.clone(),
            });
        }
        // Start: a fanout of the source's function node.
        let src_fu = mapping.placement[&edge.src];
        if !mrrg.fanouts(src_fu).contains(&path[0]) {
            return Err(MappingError::BadRouteStart { edge: edge_desc });
        }
        // Connectivity, all route nodes.
        for w in 0..path.len() {
            let n = mrrg.node(path[w]).map_err(|_| MappingError::BrokenRoute {
                edge: edge_desc.clone(),
                at: w,
            })?;
            if !n.kind.is_route() {
                return Err(MappingError::BrokenRoute {
                    edge: edge_desc.clone(),
                    at: w,
                });
            }
            if w + 1 < path.len() && !mrrg.fanouts(path[w]).contains(&path[w + 1]) {
                return Err(MappingError::BrokenRoute {
                    edge: edge_desc.clone(),
                    at: w + 1,
                });
            }
        }
        // End: operand port of the destination's placed unit, with the
        // right operand index (modulo a legal swap).
        let dst_fu = mapping.placement[&edge.dst];
        let last = *path.last().expect("non-empty path");
        let last_node = mrrg.node(last).expect("checked above");
        let NodeKind::Route { operand: Some(tag) } = last_node.kind else {
            return Err(MappingError::BadRouteEnd { edge: edge_desc });
        };
        if !mrrg.fanouts(last).contains(&dst_fu) {
            return Err(MappingError::BadRouteEnd { edge: edge_desc });
        }
        let dst_kind = dfg.ops()[edge.dst.index()].kind;
        let expected = expected_port(dst_kind, edge.operand, mapping.swapped.contains(&edge.dst));
        if tag != expected {
            return Err(MappingError::BadRouteEnd { edge: edge_desc });
        }
    }

    // Route exclusivity: one value per routing resource; mux input
    // exclusivity: one entering input per (mux, value).
    let mut value_on_node: BTreeMap<NodeId, OpId> = BTreeMap::new();
    for (e, path) in &mapping.routes {
        // Routes are caller-supplied: an edge id from a different DFG
        // must surface as an error, not an index panic.
        let Some(edge) = dfg.edges().get(e.index()) else {
            return Err(MappingError::UnknownEdge { index: e.index() });
        };
        let value = edge.src;
        for &n in path {
            match value_on_node.get(&n) {
                Some(&v) if v != value => {
                    return Err(MappingError::RouteOveruse {
                        node: node_name(mrrg, n),
                    });
                }
                _ => {
                    value_on_node.insert(n, value);
                }
            }
        }
    }
    // For every used node with several fanins, the value must enter
    // through a single predecessor across all the value's paths.
    let mut entry: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for path in mapping.routes.values() {
        for w in 1..path.len() {
            let (prev, cur) = (path[w - 1], path[w]);
            if let Some(&existing) = entry.get(&cur) {
                if existing != prev {
                    return Err(MappingError::MuxConflict {
                        node: node_name(mrrg, cur),
                    });
                }
            } else {
                entry.insert(cur, prev);
            }
        }
    }

    Ok(())
}

/// The physical operand port a DFG operand maps to, honouring swaps on
/// commutative operations.
pub fn expected_port(kind: OpKind, operand: u8, swapped: bool) -> u8 {
    if swapped && kind.is_commutative() && kind.arity() == 2 {
        1 - operand
    } else {
        operand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_port_swaps_only_commutative() {
        assert_eq!(expected_port(OpKind::Add, 0, true), 1);
        assert_eq!(expected_port(OpKind::Add, 1, true), 0);
        assert_eq!(expected_port(OpKind::Add, 0, false), 0);
        assert_eq!(expected_port(OpKind::Sub, 0, true), 0);
        assert_eq!(expected_port(OpKind::Output, 0, true), 0);
    }

    #[test]
    fn empty_mapping_reports_unplaced() {
        let mut dfg = Dfg::new("t");
        dfg.add_op("a", OpKind::Input).unwrap();
        let mrrg = Mrrg::new("m", 1);
        let err = validate_mapping(&dfg, &mrrg, &Mapping::new()).unwrap_err();
        assert!(matches!(err, MappingError::Unplaced(_)));
    }

    #[test]
    fn foreign_edge_id_reports_unknown_edge() {
        use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
        use cgra_mrrg::build_mrrg;
        // A route keyed by an edge id minted by a *different* DFG must
        // produce a descriptive error, never an index panic.
        let mut donor = Dfg::new("donor");
        let a = donor.add_op("a", OpKind::Input).unwrap();
        let o = donor.add_op("o", OpKind::Output).unwrap();
        donor.connect(a, o, 0).unwrap();
        let foreign = donor.edge_ids().next().unwrap();

        let mut dfg = Dfg::new("t");
        let i = dfg.add_op("i", OpKind::Input).unwrap();
        let arch = grid(GridParams::paper(
            FuMix::Homogeneous,
            Interconnect::Orthogonal,
        ));
        let mrrg = build_mrrg(&arch, 1);
        let slot = mrrg
            .function_nodes()
            .find(|&p| {
                matches!(&mrrg.nodes()[p.index()].kind,
                         NodeKind::Function { ops } if ops.contains(OpKind::Input))
            })
            .expect("input-capable unit");
        let mut mapping = Mapping::new();
        mapping.placement.insert(i, slot);
        mapping.routes.insert(foreign, vec![slot]);
        // Resource accounting skips the foreign edge instead of panicking.
        assert_eq!(mapping.routing_resource_usage(&dfg), 0);
        let err = validate_mapping(&dfg, &mrrg, &mapping).unwrap_err();
        assert!(
            matches!(err, MappingError::UnknownEdge { index: 0 }),
            "{err}"
        );
    }

    #[test]
    fn dangling_node_id_renders_placeholder() {
        use cgra_arch::families::{grid, FuMix, GridParams, Interconnect};
        use cgra_mrrg::build_mrrg;
        let arch = grid(GridParams::paper(
            FuMix::Homogeneous,
            Interconnect::Orthogonal,
        ));
        let small = build_mrrg(&arch, 1);
        // An id one past the end of the node table.
        let dangling = NodeId(small.nodes().len() as u32);
        assert!(small.node(dangling).is_err(), "test premise");
        let name = node_name(&small, dangling);
        assert!(name.starts_with("<unknown node #"), "{name}");
        // And a real id still renders its actual name.
        let real = small.function_nodes().next().expect("nonempty");
        assert_eq!(node_name(&small, real), small.node(real).unwrap().name);
    }
}

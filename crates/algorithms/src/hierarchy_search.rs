//! A\* version 5: bidirectional upward search over a contraction
//! hierarchy, with shortcut unpacking back to real edges.
//!
//! Where versions 1–4 walk the base edge relation and rely on an
//! estimator to stay goal-directed, version 5 queries the overlay the
//! `atis-hierarchy` crate preprocessed: both endpoints search only
//! *up-arcs* (toward higher contraction ranks), and the shortest path
//! is the best up-down meeting point of the two cones. On metro
//! networks the up-closure of any node is a few hundred nodes
//! regardless of trip length — that is the ≥10x expansion win over v4
//! the scaling study measures.
//!
//! The overlay is a customizable CH, so every up-neighbour of a node is
//! its ancestor in the elimination tree, and each side's search is a
//! walk up its root's ancestor chain, one node a depth. The query needs
//! no priority queue: one sweep from the deeper root's depth up to 0
//! visits each side's label at each depth, when every arc into it has
//! been relaxed, so the label is final. A label is settled only while
//! it is below the best meeting cost, and that cost falls as early as
//! it can: every label write reads the other side's label at the same
//! node.
//!
//! Metering stays honest to the paper's cost-model lens, and each list
//! a step needs is fetched and charged once. Settling a node charges
//! the blocks its up-arc list occupies (at [`ARC_TUPLE_SIZE`] bytes per
//! arc); when both sides settle the same ancestor at a depth, the
//! backward settle relaxes the list the forward one fetched. Each
//! label carries the middle of the arc direction that last improved
//! it, read from that fetched row, so the up-down chain needs no
//! lookup. Unpacking a shortcut through `m` fetches `m`'s list once
//! ([`Hierarchy::halves`]): the block, or two, holding both halves'
//! records and their own middles, so a real edge is never looked up.
//! The search never touches `S` or builds an `R` — the overlay *is*
//! its database — so the trace reports pure overlay I/O, comparable
//! unit-for-unit with the flat versions' relation I/O.

use crate::database::{Budgets, Database};
use crate::error::AlgorithmError;
use crate::observe::RunObserver;
use crate::trace::RunTrace;
use atis_graph::{GraphError, NodeId, Path};
use atis_hierarchy::{Hierarchy, ARC_TUPLE_SIZE};
use atis_obs::{IterationPhase, StepIo};
use atis_storage::block::BLOCK_SIZE;
use atis_storage::IoStats;
#[expect(
    clippy::disallowed_types,
    reason = "wall_ms is trace reporting metadata, never an algorithm input"
)]
use std::time::Instant;

/// No predecessor recorded (source of a search, or unreached), and no
/// node in an empty label slot.
const NO_PARENT: u32 = u32::MAX;

/// Forward (from the source) and backward (from the destination)
/// search indexes.
const FWD: usize = 0;
const BWD: usize = 1;

/// Runs the version-5 query. Fails with
/// [`AlgorithmError::HierarchyUnavailable`] when the database has no
/// current hierarchy (the caller degrades to v4/v3 instead).
pub(crate) fn run(
    db: &Database,
    s: NodeId,
    d: NodeId,
    budgets: Budgets,
) -> Result<RunTrace, AlgorithmError> {
    #[expect(
        clippy::disallowed_types,
        reason = "wall_ms is trace reporting metadata, never an algorithm input"
    )]
    let wall_start = Instant::now();
    let hierarchy = db.hierarchy_for()?;
    let label = crate::astar::AStarVersion::V5.label().to_string();
    let mut io = IoStats::new();
    let mut observer = RunObserver::new(db, &label);
    observer.run_started(s, d);
    let meter = db.budget_meter_with(budgets);

    // Two upward searches. The backward label of u is the cost of
    // travelling u ⇝ d (the backward search climbs the reverse graph,
    // which on the overlay means relaxing the `bwd` side of each up-arc).
    // The roots meet only if they are one node.
    let mut labels = [Labels::new(hierarchy, s), Labels::new(hierarchy, d)];
    labels[FWD].improve(s.0, 0.0, NO_PARENT, None);
    labels[BWD].improve(d.0, 0.0, NO_PARENT, None);
    let (mut best, mut meet) = if s == d {
        (0.0, Some(s.0))
    } else {
        (f64::INFINITY, None)
    };
    // Reached labels whose depth has not come up yet, both sides.
    let mut open = 2u64;
    let mut frontier_peak = open;
    let mut iterations = 0u64;
    let mut order = Vec::new();

    let top = hierarchy.depth(s).max(hierarchy.depth(d));
    for depth in (0..=top).rev() {
        // The list the forward side fetched at this depth, if it settled.
        let mut fetched = None;
        for side in [FWD, BWD] {
            let Some(Label { node: u, dist, .. }) = labels[side].at_depth(depth) else {
                continue;
            };
            open -= 1;
            // Every path on through u costs at least `dist`.
            if dist >= best {
                continue;
            }
            meter.check(iterations, &io)?;
            iterations += 1;
            order.push(NodeId(u));
            // Settling u reads its up-arc sublist from the overlay
            // relation, unless the forward side just read it: both
            // searches hold u, a shared ancestor.
            if fetched != Some(u) {
                let arc_bytes = hierarchy.up_degree(NodeId(u)) * ARC_TUPLE_SIZE;
                io.read_blocks(arc_bytes.div_ceil(BLOCK_SIZE).max(1) as u64);
                fetched = Some(u);
            }

            for step in hierarchy.up_steps(NodeId(u), side == FWD) {
                let next = dist + step.cost;
                let v = step.head.0;
                if let Some(first) = labels[side].improve(v, next, u, step.middle) {
                    open += u64::from(first);
                    // Meeting on write: a settle-time test would let
                    // `best` lag until the node's depth came up.
                    let through = next + labels[1 - side].meeting(v);
                    if through < best {
                        best = through;
                        meet = Some(v);
                    }
                }
            }
            frontier_peak = frontier_peak.max(open);
            observer.span(IterationPhase::Search, iterations, Some(u), open, None, &io);
        }
    }
    meter.check(iterations, &io)?;

    let path = meet
        .map(|m| unpack_path(db, hierarchy, s, d, m, &labels, &mut io))
        .transpose()?;
    // Unpacking reads the overlay too, and is held to the same budget.
    meter.check(iterations, &io)?;
    observer.finished(iterations, path.is_some(), open, &io, io.cost(db.params()));

    Ok(RunTrace {
        algorithm: label,
        iterations,
        expanded: iterations,
        reopened: 0,
        io,
        join_strategy: None,
        path,
        wall: wall_start.elapsed(),
        expansion_order: order,
        // Coarse attribution: the overlay search has no select / join /
        // update steps of Table 3's kind, so the whole metered run lands
        // in one bucket.
        steps: StepIo {
            bookkeeping: io,
            ..Default::default()
        },
        frontier_peak,
    })
}

/// One side's labels, indexed by elimination-tree depth. Every node the
/// upward search from `root` reaches is an ancestor of `root` in the
/// overlay's elimination tree ([`Hierarchy::depth`]), one a depth, so
/// the label of `v` lives at slot `depth(root) − depth(v)` of an array
/// as long as the root's ancestor chain: 89 slots at most on metro-10k,
/// 544 on metro-100k, where a node-count array is 10 752 and 102 400.
/// The array is the chain itself: the sweep reads it slot by slot, and
/// needs no parent array. The other side asks for `u` at the slot `u`'s
/// depth names under its own root; that slot holds `u` only if `u` is
/// an ancestor of that root too, so a slot holding another node, or
/// none in range, reads ∞.
struct Labels<'h> {
    hierarchy: &'h Hierarchy,
    root_depth: u32,
    slots: Vec<Label>,
}

/// A node's tentative cost from its side's root, its predecessor, and
/// the unpack middle of the arc direction between the two.
#[derive(Clone, Copy)]
struct Label {
    node: u32,
    dist: f64,
    parent: u32,
    middle: Option<NodeId>,
}

impl<'h> Labels<'h> {
    fn new(hierarchy: &'h Hierarchy, root: NodeId) -> Labels<'h> {
        let root_depth = hierarchy.depth(root);
        let empty = Label {
            node: NO_PARENT,
            dist: f64::INFINITY,
            parent: NO_PARENT,
            middle: None,
        };
        Labels {
            hierarchy,
            root_depth,
            slots: vec![empty; root_depth as usize + 1],
        }
    }

    /// Where `v`, an ancestor of this side's root, keeps its label.
    fn slot(&self, v: u32) -> usize {
        (self.root_depth - self.hierarchy.depth(NodeId(v))) as usize
    }

    /// The label of this side's ancestor at `depth`, if the search has
    /// reached it.
    fn at_depth(&self, depth: u32) -> Option<Label> {
        let slot = self.root_depth.checked_sub(depth)?;
        self.slots
            .get(slot as usize)
            .copied()
            .filter(|label| label.node != NO_PARENT)
    }

    /// The label of `v`, a node this side has reached: its parent is
    /// [`NO_PARENT`] at the root.
    fn label(&self, v: u32) -> Label {
        self.slots[self.slot(v)]
    }

    /// The cost of any node `u` on this side: ∞ unless `u` is an
    /// ancestor of this side's root that the search has reached.
    fn meeting(&self, u: u32) -> f64 {
        match self.at_depth(self.hierarchy.depth(NodeId(u))) {
            Some(label) if label.node == u => label.dist,
            _ => f64::INFINITY,
        }
    }

    /// Lowers the label of `v`, an ancestor of this side's root, to
    /// `dist` via `parent` (unpacking through `middle`) where that is
    /// cheaper. Returns `None` if it was not, else whether this is the
    /// first label `v` gets.
    fn improve(&mut self, v: u32, dist: f64, parent: u32, middle: Option<NodeId>) -> Option<bool> {
        let slot = self.slot(v);
        let label = &mut self.slots[slot];
        debug_assert!(
            label.node == NO_PARENT || label.node == v,
            "depth slot {slot} holds {} and {v}: not an ancestor chain",
            label.node
        );
        if dist >= label.dist {
            return None;
        }
        let first = label.node == NO_PARENT;
        *label = Label {
            node: v,
            dist,
            parent,
            middle,
        };
        Some(first)
    }
}

/// Reconstructs the up-down chain through `meet`, unpacks every
/// shortcut to real edges, and re-prices the final path left-to-right
/// against the resident graph (so the reported cost is the sum the
/// validator recomputes, not the float-reassociated overlay sum). An
/// overlay that unpacks to a hop the graph lacks is a typed
/// [`GraphError::MissingEdge`].
fn unpack_path(
    db: &Database,
    hierarchy: &Hierarchy,
    s: NodeId,
    d: NodeId,
    meet: u32,
    labels: &[Labels; 2],
    io: &mut IoStats,
) -> Result<Path, GraphError> {
    // The up-down chain as a stack of hops, each with the middle its
    // label carries, the hop out of `s` on top: meet ⇝ d reversed, then
    // s ⇝ meet climbed from `meet`.
    let mut stack = Vec::new();
    let mut cur = meet;
    loop {
        let Label { parent, middle, .. } = labels[BWD].label(cur);
        if parent == NO_PARENT {
            break;
        }
        stack.push((NodeId(cur), NodeId(parent), middle));
        cur = parent;
    }
    stack.reverse();
    let mut cur = meet;
    loop {
        let Label { parent, middle, .. } = labels[FWD].label(cur);
        if parent == NO_PARENT {
            break;
        }
        stack.push((NodeId(parent), NodeId(cur), middle));
        cur = parent;
    }

    // Expand the hops depth-first; pushing the (middle, head) half
    // first keeps the emission left-to-right. A hop without a middle is
    // a real edge; one through `m` fetches `m`'s up-arc list once, for
    // both halves and their own middles.
    let mut nodes = vec![s];
    while let Some((a, b, middle)) = stack.pop() {
        let Some(m) = middle else {
            nodes.push(b);
            continue;
        };
        let halves = hierarchy.halves(a, m, b);
        io.read_blocks(halves.blocks);
        stack.push((m, b, halves.second.and_then(|(_, via)| via)));
        stack.push((a, m, halves.first.and_then(|(_, via)| via)));
    }
    debug_assert_eq!(nodes.last(), Some(&d));

    let mut cost = 0.0;
    for hop in nodes.windows(2) {
        let (from, to) = (hop[0], hop[1]);
        cost += db
            .graph()
            .edge_cost(from, to)
            .ok_or(GraphError::MissingEdge { from, to })?;
    }
    Ok(Path { nodes, cost })
}

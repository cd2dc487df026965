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
//! Metering stays honest to the paper's cost-model lens: settling a
//! node charges the blocks its up-arc list occupies (at
//! [`ARC_TUPLE_SIZE`] bytes per arc), and every arc lookup during
//! shortcut unpacking charges one block read. The search never touches
//! `S` or builds an `R` — the overlay *is* its database — so the trace
//! reports pure overlay I/O, comparable unit-for-unit with the flat
//! versions' relation I/O.

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
    labels[FWD].improve(s.0, 0.0, NO_PARENT);
    labels[BWD].improve(d.0, 0.0, NO_PARENT);
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
            // Settling u reads its up-arc sublist from the overlay relation.
            let arc_bytes = hierarchy.up_degree(NodeId(u)) * ARC_TUPLE_SIZE;
            io.read_blocks(arc_bytes.div_ceil(BLOCK_SIZE).max(1) as u64);

            for arc in hierarchy.up_arcs(NodeId(u)) {
                let next = dist + if side == FWD { arc.fwd } else { arc.bwd };
                let v = arc.head.0;
                if let Some(first) = labels[side].improve(v, next, u) {
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

/// A node's tentative cost from its side's root and its predecessor.
#[derive(Clone, Copy)]
struct Label {
    node: u32,
    dist: f64,
    parent: u32,
}

impl<'h> Labels<'h> {
    fn new(hierarchy: &'h Hierarchy, root: NodeId) -> Labels<'h> {
        let root_depth = hierarchy.depth(root);
        let empty = Label {
            node: NO_PARENT,
            dist: f64::INFINITY,
            parent: NO_PARENT,
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

    /// The predecessor of `v`, a node this side has reached:
    /// [`NO_PARENT`] at the root.
    fn parent(&self, v: u32) -> u32 {
        self.slots[self.slot(v)].parent
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
    /// `dist` via `parent` where that is cheaper. Returns `None` if it
    /// was not, else whether this is the first label `v` gets.
    fn improve(&mut self, v: u32, dist: f64, parent: u32) -> Option<bool> {
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
        };
        Some(first)
    }
}

/// Reconstructs the up-down node chain through `meet`, unpacks every
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
    // Climb the parent links: s ⇝ meet (reversed) and meet ⇝ d.
    let mut chain = Vec::new();
    let mut cur = meet;
    while cur != NO_PARENT {
        chain.push(NodeId(cur));
        cur = labels[FWD].parent(cur);
    }
    chain.reverse();
    let mut cur = labels[BWD].parent(meet);
    while cur != NO_PARENT {
        chain.push(NodeId(cur));
        cur = labels[BWD].parent(cur);
    }
    debug_assert_eq!(chain.first(), Some(&s));
    debug_assert_eq!(chain.last(), Some(&d));

    // Expand each overlay hop depth-first; pushing the (middle, head)
    // half second keeps the emission left-to-right. Every arc lookup is
    // one probe into the overlay relation: one block read.
    let mut nodes = vec![s];
    let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
    for hop in chain.windows(2) {
        stack.push((hop[0], hop[1]));
        while let Some((a, b)) = stack.pop() {
            io.read_blocks(1);
            match hierarchy.arc_direction(a, b) {
                Some((_, Some(m))) => {
                    stack.push((m, b));
                    stack.push((a, m));
                }
                _ => nodes.push(b),
            }
        }
    }

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

//! A\* version 5: bidirectional upward search over a contraction
//! hierarchy, with shortcut unpacking back to real edges.
//!
//! Where versions 1–4 walk the base edge relation and rely on an
//! estimator to stay goal-directed, version 5 queries the overlay the
//! `atis-hierarchy` crate preprocessed: both endpoints run a Dijkstra
//! that only relaxes *up-arcs* (toward higher contraction ranks), and
//! the shortest path is the best up-down meeting point of the two
//! cones. On metro networks the up-closure of any node is a few hundred
//! nodes regardless of trip length — that is the ≥10x expansion win
//! over v4 the scaling study measures.
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
use atis_graph::sssp::HeapEntry;
use atis_graph::{GraphError, NodeId, Path};
use atis_hierarchy::{Hierarchy, ARC_TUPLE_SIZE};
use atis_obs::{IterationPhase, StepIo};
use atis_storage::block::BLOCK_SIZE;
use atis_storage::IoStats;
use std::collections::BinaryHeap;
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
    let mut labels = [Labels::new(hierarchy, s), Labels::new(hierarchy, d)];
    let mut heaps = [BinaryHeap::new(), BinaryHeap::new()];
    labels[FWD].improve(s.0, 0.0, NO_PARENT);
    heaps[FWD].push(HeapEntry {
        score: 0.0,
        node: s,
    });
    labels[BWD].improve(d.0, 0.0, NO_PARENT);
    heaps[BWD].push(HeapEntry {
        score: 0.0,
        node: d,
    });
    let mut open = [1u64, 1u64];
    let mut frontier_peak = 2u64;

    let mut best = f64::INFINITY;
    let mut meet: Option<u32> = None;
    let mut iterations = 0u64;
    let mut order = Vec::new();

    loop {
        meter.check(iterations, &io)?;
        // Drop lazily deleted entries, then stop any side whose reachable
        // minimum can no longer beat the best meeting found — in a CH
        // both sides must drain to their bound before `best` is proven.
        for side in [FWD, BWD] {
            while let Some(top) = heaps[side].peek() {
                if top.score > labels[side].dist(top.node.0) {
                    heaps[side].pop();
                    open[side] = open[side].saturating_sub(1);
                } else {
                    break;
                }
            }
        }
        let min_of = |h: &BinaryHeap<HeapEntry>| h.peek().map(|e| e.score);
        let side = match (min_of(&heaps[FWD]), min_of(&heaps[BWD])) {
            (Some(f), Some(b)) if f.min(b) < best => {
                if f <= b {
                    FWD
                } else {
                    BWD
                }
            }
            (Some(f), None) if f < best => FWD,
            (None, Some(b)) if b < best => BWD,
            _ => break,
        };

        let Some(HeapEntry {
            score,
            node: NodeId(u),
        }) = heaps[side].pop()
        else {
            break;
        };
        open[side] = open[side].saturating_sub(1);
        iterations += 1;
        order.push(NodeId(u));
        // Settling u reads its up-arc sublist from the overlay relation.
        let arc_bytes = hierarchy.up_degree(NodeId(u)) * ARC_TUPLE_SIZE;
        io.read_blocks(arc_bytes.div_ceil(BLOCK_SIZE).max(1) as u64);

        // A finite label on the other side makes u a meeting candidate.
        let other = labels[1 - side].meeting(u);
        if other.is_finite() && score + other < best {
            best = score + other;
            meet = Some(u);
        }

        for arc in hierarchy.up_arcs(NodeId(u)) {
            let cost = if side == FWD { arc.fwd } else { arc.bwd };
            let next = score + cost;
            if labels[side].improve(arc.head.0, next, u) {
                heaps[side].push(HeapEntry {
                    score: next,
                    node: arc.head,
                });
                open[side] += 1;
            }
        }
        frontier_peak = frontier_peak.max(open[FWD] + open[BWD]);
        observer.span(
            IterationPhase::Search,
            iterations,
            Some(u),
            open[FWD] + open[BWD],
            None,
            &io,
        );
    }

    let path = meet
        .map(|m| unpack_path(db, hierarchy, s, d, m, &labels, &mut io))
        .transpose()?;
    observer.finished(
        iterations,
        path.is_some(),
        open[FWD] + open[BWD],
        &io,
        io.cost(db.params()),
    );

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
/// The other side asks for `u` at the slot `u`'s depth names under its
/// own root; that slot holds `u` only if `u` is an ancestor of that
/// root too, so a slot holding another node, or none in range, reads ∞.
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

    /// The tentative cost of `v`, an ancestor of this side's root: ∞
    /// until the search reaches it.
    fn dist(&self, v: u32) -> f64 {
        self.slots[self.slot(v)].dist
    }

    /// The predecessor of `v`, a node this side has reached:
    /// [`NO_PARENT`] at the root.
    fn parent(&self, v: u32) -> u32 {
        self.slots[self.slot(v)].parent
    }

    /// The cost of any node `u` on this side: ∞ unless `u` is an
    /// ancestor of this side's root that the search has reached.
    fn meeting(&self, u: u32) -> f64 {
        let Some(slot) = self.root_depth.checked_sub(self.hierarchy.depth(NodeId(u))) else {
            return f64::INFINITY;
        };
        match self.slots.get(slot as usize) {
            Some(label) if label.node == u => label.dist,
            _ => f64::INFINITY,
        }
    }

    /// Lowers the label of `v`, an ancestor of this side's root, to
    /// `dist` via `parent` where that is cheaper; returns whether it was.
    fn improve(&mut self, v: u32, dist: f64, parent: u32) -> bool {
        let slot = self.slot(v);
        let label = &mut self.slots[slot];
        debug_assert!(
            label.node == NO_PARENT || label.node == v,
            "depth slot {slot} holds {} and {v}: not an ancestor chain",
            label.node
        );
        let cheaper = dist < label.dist;
        if cheaper {
            *label = Label {
                node: v,
                dist,
                parent,
            };
        }
        cheaper
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

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
use crate::trace::{RunTrace, StepBreakdown};
use atis_graph::{GraphError, NodeId, Path};
use atis_hierarchy::{Hierarchy, ARC_TUPLE_SIZE};
use atis_obs::IterationPhase;
use atis_storage::block::BLOCK_SIZE;
use atis_storage::IoStats;
use std::collections::BinaryHeap;
#[expect(
    clippy::disallowed_types,
    reason = "wall_ms is trace reporting metadata, never an algorithm input"
)]
use std::time::Instant;

/// No predecessor recorded (source of a search, or unreached).
const NO_PARENT: u32 = u32::MAX;

/// Forward (from the source) and backward (from the destination)
/// search indexes.
const FWD: usize = 0;
const BWD: usize = 1;

/// Min-heap entry ordered by distance with node-id tie-break, so equal
/// distances settle in id order and runs are bit-deterministic.
#[derive(PartialEq)]
struct HeapEntry {
    score: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

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
    let n = hierarchy.node_count();

    // Two upward searches. `dist[BWD][u]` is the cost of travelling
    // u ⇝ d (the backward search climbs the reverse graph, which on the
    // overlay means relaxing the `bwd` side of each up-arc).
    let mut dist = [vec![f64::INFINITY; n], vec![f64::INFINITY; n]];
    let mut parent = [vec![NO_PARENT; n], vec![NO_PARENT; n]];
    let mut heaps = [BinaryHeap::new(), BinaryHeap::new()];
    dist[FWD][s.index()] = 0.0;
    heaps[FWD].push(HeapEntry {
        score: 0.0,
        node: s.0,
    });
    dist[BWD][d.index()] = 0.0;
    heaps[BWD].push(HeapEntry {
        score: 0.0,
        node: d.0,
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
                if top.score > dist[side][top.node as usize] {
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

        let Some(HeapEntry { score, node: u }) = heaps[side].pop() else {
            break;
        };
        open[side] = open[side].saturating_sub(1);
        iterations += 1;
        order.push(NodeId(u));
        // Settling u reads its up-arc sublist from the overlay relation.
        let arc_bytes = hierarchy.up_degree(NodeId(u)) * ARC_TUPLE_SIZE;
        io.read_blocks(arc_bytes.div_ceil(BLOCK_SIZE).max(1) as u64);

        // A finite label on the other side makes u a meeting candidate.
        let other = dist[1 - side][u as usize];
        if other.is_finite() && score + other < best {
            best = score + other;
            meet = Some(u);
        }

        for arc in hierarchy.up_arcs(NodeId(u)) {
            let cost = if side == FWD { arc.fwd } else { arc.bwd };
            let next = score + cost;
            let v = arc.head.index();
            if next < dist[side][v] {
                dist[side][v] = next;
                parent[side][v] = u;
                heaps[side].push(HeapEntry {
                    score: next,
                    node: arc.head.0,
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
        .map(|m| unpack_path(db, hierarchy, s, d, m, &parent, &mut io))
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
        steps: StepBreakdown {
            bookkeeping: io,
            ..Default::default()
        },
        frontier_peak,
    })
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
    parent: &[Vec<u32>; 2],
    io: &mut IoStats,
) -> Result<Path, GraphError> {
    // Climb the parent links: s ⇝ meet (reversed) and meet ⇝ d.
    let mut chain = Vec::new();
    let mut cur = meet;
    while cur != NO_PARENT {
        chain.push(NodeId(cur));
        cur = parent[FWD][cur as usize];
    }
    chain.reverse();
    let mut cur = parent[BWD][meet as usize];
    while cur != NO_PARENT {
        chain.push(NodeId(cur));
        cur = parent[BWD][cur as usize];
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

//! Single-source shortest paths over [`atis_graph::Graph`], for table
//! construction.
//!
//! Preprocessing runs entirely in memory: landmark tables are built once
//! per traffic epoch and amortized over every query served at that epoch,
//! so they use a plain binary-heap Dijkstra rather than the metered
//! database-resident engine (`atis-algorithms` keeps its own oracle for
//! correctness testing; this copy keeps the crate graph-only and the
//! workspace layering acyclic: preprocess depends on nothing but the
//! graph substrate).

use crate::error::PreprocessError;
use atis_graph::{Graph, GraphBuilder, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry (reversed ordering, ties broken by node id so table
/// construction is deterministic).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp: a total order even on NaN, so the heap can never
        // panic or silently misorder.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Distances from `source` to every node (`f64::INFINITY` if unreached).
pub fn distances_from(graph: &Graph, source: NodeId) -> Vec<f64> {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: du, node }) = heap.pop() {
        if du > dist[node.index()] {
            continue;
        }
        for e in graph.neighbors(node) {
            let nd = du + e.cost;
            if nd < dist[e.to.index()] {
                dist[e.to.index()] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: e.to,
                });
            }
        }
    }
    dist
}

/// The transposed graph (every arc reversed) — distances from `L` on the
/// reverse graph are distances *to* `L` on the original.
///
/// # Errors
/// [`PreprocessError::InvalidGraph`] if the transpose fails the graph
/// builder's validation — which a valid `graph` cannot cause, so on the
/// UPDATE path it surfaces as a failed rebuild rather than a panic.
pub fn reversed(graph: &Graph) -> Result<Graph, PreprocessError> {
    let mut b = GraphBuilder::with_capacity(graph.node_count(), graph.edge_count());
    for u in graph.node_ids() {
        b.add_node(graph.point(u));
    }
    for e in graph.edges() {
        b.add_arc(e.to, e.from, e.cost);
    }
    b.build()
        .map_err(|e| PreprocessError::InvalidGraph(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;

    #[test]
    fn distances_match_hand_computation() {
        // 0 -> 1 (5) vs 0 -> 2 -> 1 (2).
        let g = graph_from_arcs(3, &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let d = distances_from(&g, NodeId(0));
        assert_eq!(d, vec![0.0, 2.0, 1.0]);
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let d = distances_from(&g, NodeId(0));
        assert!(d[2].is_infinite());
    }

    #[test]
    fn reverse_distances_are_distances_to() {
        let g = graph_from_arcs(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let to_2 = distances_from(&reversed(&g).unwrap(), NodeId(2));
        assert_eq!(to_2[0], 5.0);
        assert_eq!(to_2[1], 3.0);
        assert_eq!(to_2[2], 0.0);
    }
}

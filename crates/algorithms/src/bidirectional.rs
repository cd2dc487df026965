//! Bidirectional Dijkstra — an extension baseline the paper's framework
//! invites but never evaluates: grow a forward ball from the source and a
//! backward ball from the destination, stopping when they provably meet.
//! On diameter-length queries (where the paper shows A\*'s estimator
//! degenerating) the two balls cover ~half the area a single ball does,
//! making this the strongest estimator-free single-pair method.
//!
//! Termination: once `min_open(forward) + min_open(backward) ≥ best`,
//! where `best` is the cheapest meeting point seen, no better path can
//! exist (both frontiers expand in nondecreasing distance order).
//!
//! The two sides run one relax body indexed by side, as the hierarchy
//! search (`hierarchy_search`) does: each reads its own direction of the
//! graph, an [`Adjacency`] from `atis-graph`'s kernel (the backward one
//! is the transpose), and pushes the kernel's [`HeapEntry`].

use atis_graph::sssp::{Adjacency, HeapEntry};
use atis_graph::{Graph, NodeId, Path};
use std::collections::BinaryHeap;

/// Forward (from the source) and backward (from the destination) sides.
const FWD: usize = 0;
const BWD: usize = 1;

/// The result of a bidirectional run: the path plus how many expansions
/// each direction performed (for comparisons against unidirectional
/// Dijkstra).
#[derive(Debug, Clone)]
pub struct BidirectionalResult {
    /// The shortest path, or `None` when disconnected.
    pub path: Option<Path>,
    /// Forward-ball expansions.
    pub forward_expansions: u64,
    /// Backward-ball expansions.
    pub backward_expansions: u64,
}

impl BidirectionalResult {
    /// Total expansions across both directions.
    pub fn expansions(&self) -> u64 {
        self.forward_expansions + self.backward_expansions
    }
}

/// Runs bidirectional Dijkstra from `s` to `d`.
#[expect(
    clippy::expect_used,
    reason = "the meeting node was relaxed from both balls, so both predecessor chains reach an endpoint"
)]
pub fn bidirectional_dijkstra(graph: &Graph, s: NodeId, d: NodeId) -> BidirectionalResult {
    let n = graph.node_count();
    if s == d {
        return BidirectionalResult {
            path: Some(Path::trivial(s)),
            forward_expansions: 0,
            backward_expansions: 0,
        };
    }
    // Each side searches its own direction of the graph: the backward
    // ball grows over the transpose, so its labels are costs *to* `d`
    // and its predecessors are successors on the path.
    let adjacency = [Adjacency::forward(graph), Adjacency::backward(graph)];
    let mut dist = [vec![f64::INFINITY; n], vec![f64::INFINITY; n]];
    let mut pred: [Vec<Option<NodeId>>; 2] = [vec![None; n], vec![None; n]];
    let mut heaps = [BinaryHeap::new(), BinaryHeap::new()];
    for (side, start) in [(FWD, s), (BWD, d)] {
        dist[side][start.index()] = 0.0;
        heaps[side].push(HeapEntry {
            score: 0.0,
            node: start,
        });
    }

    let mut best = f64::INFINITY;
    let mut meet: Option<NodeId> = None;
    let mut expansions = [0u64; 2];

    loop {
        let top = heaps
            .each_ref()
            .map(|h| h.peek().map_or(f64::INFINITY, |e| e.score));
        if top[FWD] + top[BWD] >= best {
            break; // proven optimal (or both exhausted)
        }
        // Expand the cheaper frontier (balanced growth).
        let side = if top[FWD] <= top[BWD] { FWD } else { BWD };
        let Some(HeapEntry { score, node }) = heaps[side].pop() else {
            break;
        };
        // Stale entries skip; a settled node's label never improves, so
        // it is never popped twice.
        if score > dist[side][node.index()] {
            continue;
        }
        expansions[side] += 1;
        for (to, cost) in adjacency[side].arcs(node) {
            let nd = score + cost;
            if nd < dist[side][to.index()] {
                dist[side][to.index()] = nd;
                pred[side][to.index()] = Some(node);
                heaps[side].push(HeapEntry {
                    score: nd,
                    node: to,
                });
            }
            let through = nd + dist[1 - side][to.index()];
            if through < best {
                best = through;
                meet = Some(to);
            }
        }
    }

    let path = meet.map(|m| {
        // s .. m along the forward predecessors, reversed, then m .. d
        // along the backward ones (successors on the path).
        let pred = &pred;
        let walk = |side: usize, end: NodeId| {
            std::iter::successors(Some(m), move |&u| {
                (u != end)
                    .then(|| pred[side][u.index()].expect("both balls reached the meeting point"))
            })
        };
        let mut nodes: Vec<NodeId> = walk(FWD, s).collect();
        nodes.reverse();
        nodes.extend(walk(BWD, d).skip(1));
        Path { nodes, cost: best }
    });

    BidirectionalResult {
        path,
        forward_expansions: expansions[FWD],
        backward_expansions: expansions[BWD],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{CostModel, Grid, Minneapolis, QueryKind};

    #[test]
    fn matches_dijkstra_on_grids() {
        for seed in [1u64, 7, 1993] {
            let grid = Grid::new(10, CostModel::TWENTY_PERCENT, seed).unwrap();
            for kind in [
                QueryKind::Horizontal,
                QueryKind::Diagonal,
                QueryKind::Random,
            ] {
                let (s, d) = grid.query_pair(kind);
                let uni = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
                let bi = bidirectional_dijkstra(grid.graph(), s, d);
                let p = bi.path.expect("connected");
                let recomputed = p.validate(grid.graph()).unwrap();
                assert!(
                    (recomputed - uni.cost).abs() < 1e-9,
                    "seed {seed} {kind:?}: {recomputed} vs {}",
                    uni.cost
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_minneapolis() {
        use atis_graph::NamedPair;
        let m = Minneapolis::paper();
        for pair in NamedPair::ALL {
            let (s, d) = m.query_pair(pair);
            let uni = memory::dijkstra_pair(m.graph(), s, d).unwrap();
            let bi = bidirectional_dijkstra(m.graph(), s, d);
            let recomputed = bi.path.expect("connected").validate(m.graph()).unwrap();
            assert!((recomputed - uni.cost).abs() < 1e-9, "{}", pair.label());
        }
    }

    #[test]
    fn expands_fewer_nodes_than_unidirectional_on_long_queries() {
        let grid = Grid::new(20, CostModel::TWENTY_PERCENT, 1993).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let bi = bidirectional_dijkstra(grid.graph(), s, d);
        // Unidirectional expands n-1 = 399 (Table 7); two balls meeting in
        // the middle cover clearly less.
        assert!(
            bi.expansions() < 399,
            "bidirectional expanded {} nodes",
            bi.expansions()
        );
        // Both directions do real work.
        assert!(bi.forward_expansions > 0 && bi.backward_expansions > 0);
    }

    #[test]
    fn respects_one_way_edges() {
        // 0 -> 1 -> 2, and a one-way shortcut 2 -> 0 that must not be
        // usable forward.
        let g = graph_from_arcs(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 0.1)]).unwrap();
        let bi = bidirectional_dijkstra(&g, NodeId(0), NodeId(2));
        assert_eq!(bi.path.unwrap().cost, 2.0);
        let back = bidirectional_dijkstra(&g, NodeId(2), NodeId(0));
        assert!((back.path.unwrap().cost - 0.1).abs() < 1e-12);
    }

    #[test]
    fn disconnected_pairs_return_none() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let bi = bidirectional_dijkstra(&g, NodeId(0), NodeId(2));
        assert!(bi.path.is_none());
    }

    #[test]
    fn trivial_query_is_free() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let bi = bidirectional_dijkstra(&g, NodeId(1), NodeId(1));
        assert_eq!(bi.expansions(), 0);
        assert_eq!(bi.path.unwrap().cost, 0.0);
    }
}

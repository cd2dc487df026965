//! In-memory reference implementations — correctness oracles for the
//! database-resident algorithms and baselines for the `memory_vs_db`
//! ablation bench.
//!
//! These are textbook implementations (binary-heap Dijkstra, A\*,
//! level-synchronous Bellman–Ford) operating directly on [`Graph`] with
//! `f64` arithmetic. Property tests across the workspace assert that every
//! database-resident run returns a path of the same cost whenever its
//! estimator is admissible.

use crate::estimator::Estimator;
use atis_graph::{Graph, GraphBuilder, NodeId, Path};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry ordered by minimum score (reversed for `BinaryHeap`).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    score: f64,
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
        // Reverse: smallest score first; ties by node id for determinism.
        // total_cmp: a total order even on NaN, so the heap can never
        // panic or silently misorder.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Binary-heap Dijkstra from `s`; returns per-node distances
/// (`f64::INFINITY` if unreached) and predecessors.
pub fn dijkstra_all(graph: &Graph, s: NodeId) -> (Vec<f64>, Vec<Option<NodeId>>) {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[s.index()] = 0.0;
    heap.push(HeapEntry {
        score: 0.0,
        node: s,
    });
    while let Some(HeapEntry { score, node }) = heap.pop() {
        if score > dist[node.index()] {
            continue; // stale entry
        }
        for e in graph.neighbors(node) {
            let nd = score + e.cost;
            if nd < dist[e.to.index()] {
                dist[e.to.index()] = nd;
                pred[e.to.index()] = Some(node);
                heap.push(HeapEntry {
                    score: nd,
                    node: e.to,
                });
            }
        }
    }
    (dist, pred)
}

/// Single-pair Dijkstra: the exact shortest path from `s` to `d`, or
/// `None` if unreachable. This is the oracle the DB-resident runs are
/// validated against.
pub fn dijkstra_pair(graph: &Graph, s: NodeId, d: NodeId) -> Option<Path> {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[s.index()] = 0.0;
    heap.push(HeapEntry {
        score: 0.0,
        node: s,
    });
    while let Some(HeapEntry { score, node }) = heap.pop() {
        if node == d {
            return Path::from_predecessors(s, d, score, &pred);
        }
        if score > dist[node.index()] {
            continue;
        }
        for e in graph.neighbors(node) {
            let nd = score + e.cost;
            if nd < dist[e.to.index()] {
                dist[e.to.index()] = nd;
                pred[e.to.index()] = Some(node);
                heap.push(HeapEntry {
                    score: nd,
                    node: e.to,
                });
            }
        }
    }
    None
}

/// In-memory A\* with the given estimator. Returns the path (not
/// guaranteed optimal if the estimator overestimates) and the number of
/// expansions.
pub fn astar_pair(
    graph: &Graph,
    s: NodeId,
    d: NodeId,
    estimator: Estimator,
) -> (Option<Path>, u64) {
    let n = graph.node_count();
    let dest = graph.point(d);
    let h = |u: NodeId| estimator.evaluate(graph.point(u), dest);
    let mut g = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    let mut closed = vec![false; n];
    let mut heap = BinaryHeap::new();
    let mut expansions = 0u64;
    g[s.index()] = 0.0;
    heap.push(HeapEntry {
        score: h(s),
        node: s,
    });
    while let Some(HeapEntry { score: _, node }) = heap.pop() {
        if node == d {
            return (
                Path::from_predecessors(s, d, g[d.index()], &pred),
                expansions,
            );
        }
        if closed[node.index()] {
            continue;
        }
        closed[node.index()] = true;
        expansions += 1;
        for e in graph.neighbors(node) {
            let ng = g[node.index()] + e.cost;
            if ng < g[e.to.index()] {
                g[e.to.index()] = ng;
                pred[e.to.index()] = Some(node);
                closed[e.to.index()] = false; // reopen (Figure 3 semantics)
                heap.push(HeapEntry {
                    score: ng + h(e.to),
                    node: e.to,
                });
            }
        }
    }
    (None, expansions)
}

/// Level-synchronous Bellman–Ford relaxation — the in-memory analogue of
/// the paper's iterative algorithm (Figure 1). Returns distances and the
/// number of rounds until the frontier empties.
pub fn bellman_ford_rounds(graph: &Graph, s: NodeId) -> (Vec<f64>, u64) {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[s.index()] = 0.0;
    let mut frontier = vec![s];
    let mut rounds = 0u64;
    while !frontier.is_empty() {
        rounds += 1;
        let mut next = Vec::new();
        let mut improved = vec![false; n];
        for &u in &frontier {
            for e in graph.neighbors(u) {
                let nd = dist[u.index()] + e.cost;
                if nd < dist[e.to.index()] {
                    dist[e.to.index()] = nd;
                    if !improved[e.to.index()] {
                        improved[e.to.index()] = true;
                        next.push(e.to);
                    }
                }
            }
        }
        frontier = next;
    }
    (dist, rounds)
}

/// The transposed graph (every edge reversed) — used to compute true
/// costs-to-destination for admissibility checks.
#[expect(
    clippy::expect_used,
    reason = "the reversed arcs join the same nodes at the same validated costs"
)]
pub fn reverse_graph(graph: &Graph) -> Graph {
    let mut b = GraphBuilder::with_capacity(graph.node_count(), graph.edge_count());
    for u in graph.node_ids() {
        b.add_node(graph.point(u));
    }
    for e in graph.edges() {
        b.add_arc(e.to, e.from, e.cost);
    }
    b.build()
        .expect("reversing a valid graph preserves validity")
}

/// The largest amount by which `estimator` overestimates the true
/// remaining cost to `d`, over all nodes that can reach `d`. Zero or
/// negative means the estimator is admissible for this destination.
pub fn max_overestimate(graph: &Graph, d: NodeId, estimator: Estimator) -> f64 {
    let rev = reverse_graph(graph);
    let (to_dest, _) = dijkstra_all(&rev, d);
    let dest = graph.point(d);
    let mut worst = f64::NEG_INFINITY;
    for u in graph.node_ids() {
        let true_cost = to_dest[u.index()];
        if true_cost.is_finite() {
            let h = estimator.evaluate(graph.point(u), dest);
            worst = worst.max(h - true_cost);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{CostModel, Grid, QueryKind};

    #[test]
    fn dijkstra_finds_cheaper_longer_path() {
        // 0 -> 1 (5.0) vs 0 -> 2 -> 1 (1 + 1).
        let g = graph_from_arcs(3, &[(0, 1, 5.0), (0, 2, 1.0), (2, 1, 1.0)]).unwrap();
        let p = dijkstra_pair(&g, NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(2), NodeId(1)]);
    }

    #[test]
    fn dijkstra_returns_none_when_unreachable() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        assert!(dijkstra_pair(&g, NodeId(0), NodeId(2)).is_none());
        assert!(dijkstra_pair(&g, NodeId(2), NodeId(0)).is_none());
    }

    #[test]
    fn trivial_pair_is_zero_cost() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let p = dijkstra_pair(&g, NodeId(0), NodeId(0)).unwrap();
        assert_eq!(p.cost, 0.0);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn astar_matches_dijkstra_on_grid() {
        let grid = Grid::new(12, CostModel::TWENTY_PERCENT, 42).unwrap();
        for kind in [
            QueryKind::Horizontal,
            QueryKind::Diagonal,
            QueryKind::Random,
        ] {
            let (s, d) = grid.query_pair(kind);
            let dij = dijkstra_pair(grid.graph(), s, d).unwrap();
            for est in [Estimator::Zero, Estimator::Euclidean, Estimator::Manhattan] {
                let (p, _) = astar_pair(grid.graph(), s, d, est);
                let p = p.unwrap();
                assert!(
                    (p.cost - dij.cost).abs() < 1e-9,
                    "{} estimator produced cost {} vs optimal {}",
                    est.label(),
                    p.cost,
                    dij.cost
                );
                p.validate(grid.graph()).unwrap();
            }
        }
    }

    #[test]
    fn better_estimators_expand_fewer_nodes() {
        let grid = Grid::new(20, CostModel::TWENTY_PERCENT, 7).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Horizontal);
        let (_, zero) = astar_pair(grid.graph(), s, d, Estimator::Zero);
        let (_, euc) = astar_pair(grid.graph(), s, d, Estimator::Euclidean);
        let (_, man) = astar_pair(grid.graph(), s, d, Estimator::Manhattan);
        assert!(
            man <= euc,
            "manhattan {man} should not exceed euclidean {euc}"
        );
        assert!(euc <= zero, "euclidean {euc} should not exceed zero {zero}");
    }

    #[test]
    fn bellman_ford_agrees_with_dijkstra() {
        let grid = Grid::new(9, CostModel::TWENTY_PERCENT, 3).unwrap();
        let s = grid.node_at(0, 0);
        let (bf, rounds) = bellman_ford_rounds(grid.graph(), s);
        let (dj, _) = dijkstra_all(grid.graph(), s);
        for i in 0..bf.len() {
            assert!((bf[i] - dj[i]).abs() < 1e-9);
        }
        // Rounds = eccentricity-in-hops + 1 on a variance grid without
        // reopening: 2*(k-1) + 1.
        assert_eq!(rounds, 17);
    }

    #[test]
    fn manhattan_is_admissible_on_variance_grid() {
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 5).unwrap();
        let d = grid.node_at(9, 9);
        assert!(max_overestimate(grid.graph(), d, Estimator::Manhattan) <= 1e-9);
    }

    #[test]
    fn manhattan_overestimates_on_skewed_grid() {
        let grid = Grid::new(10, CostModel::Skewed, 5).unwrap();
        let d = grid.node_at(9, 9);
        assert!(max_overestimate(grid.graph(), d, Estimator::Manhattan) > 0.0);
    }

    #[test]
    fn euclidean_is_admissible_on_uniform_grid() {
        let grid = Grid::new(10, CostModel::Uniform, 0).unwrap();
        let d = grid.node_at(9, 9);
        assert!(max_overestimate(grid.graph(), d, Estimator::Euclidean) <= 1e-9);
    }

    #[test]
    fn reverse_graph_flips_edges() {
        let g = graph_from_arcs(3, &[(0, 1, 2.0), (1, 2, 3.0)]).unwrap();
        let r = reverse_graph(&g);
        assert_eq!(r.edge_cost(NodeId(1), NodeId(0)), Some(2.0));
        assert_eq!(r.edge_cost(NodeId(2), NodeId(1)), Some(3.0));
        assert_eq!(r.edge_cost(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn astar_reopening_recovers_optimality_with_inconsistent_h() {
        // A graph engineered so the inadmissible-free but inconsistent
        // situation arises: Euclidean h with a cheap detour discovered
        // late. A* must still return the optimal cost because closed nodes
        // reopen on improvement.
        let g = graph_from_arcs(
            5,
            &[
                (0, 1, 10.0),
                (0, 2, 1.0),
                (2, 1, 1.0),
                (1, 3, 1.0),
                (3, 4, 1.0),
            ],
        )
        .unwrap();
        let (p, _) = astar_pair(&g, NodeId(0), NodeId(4), Estimator::Zero);
        assert_eq!(p.unwrap().cost, 4.0);
    }
}

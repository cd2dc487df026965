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

use crate::memory::reverse_graph;
use atis_graph::{Graph, NodeId, Path};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, PartialEq)]
struct Entry {
    score: f64,
    node: NodeId,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp: a total order even on NaN, so the heap can never
        // panic or silently misorder.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| other.node.cmp(&self.node))
    }
}

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
    let reverse = reverse_graph(graph);

    let mut dist_f = vec![f64::INFINITY; n];
    let mut dist_b = vec![f64::INFINITY; n];
    let mut pred_f: Vec<Option<NodeId>> = vec![None; n];
    let mut succ_b: Vec<Option<NodeId>> = vec![None; n];
    let mut closed_f = vec![false; n];
    let mut closed_b = vec![false; n];
    let mut heap_f = BinaryHeap::new();
    let mut heap_b = BinaryHeap::new();
    dist_f[s.index()] = 0.0;
    dist_b[d.index()] = 0.0;
    heap_f.push(Entry {
        score: 0.0,
        node: s,
    });
    heap_b.push(Entry {
        score: 0.0,
        node: d,
    });

    let mut best = f64::INFINITY;
    let mut meet: Option<NodeId> = None;
    let mut exp_f = 0u64;
    let mut exp_b = 0u64;

    loop {
        let top_f = heap_f.peek().map(|e| e.score).unwrap_or(f64::INFINITY);
        let top_b = heap_b.peek().map(|e| e.score).unwrap_or(f64::INFINITY);
        if top_f + top_b >= best {
            break; // proven optimal (or both exhausted)
        }
        // Expand the cheaper frontier (balanced growth).
        if top_f <= top_b {
            let Some(Entry { score, node }) = heap_f.pop() else {
                break;
            };
            if closed_f[node.index()] || score > dist_f[node.index()] {
                continue;
            }
            closed_f[node.index()] = true;
            exp_f += 1;
            for e in graph.neighbors(node) {
                let nd = score + e.cost;
                if nd < dist_f[e.to.index()] {
                    dist_f[e.to.index()] = nd;
                    pred_f[e.to.index()] = Some(node);
                    heap_f.push(Entry {
                        score: nd,
                        node: e.to,
                    });
                }
                let through = dist_f[node.index()] + e.cost + dist_b[e.to.index()];
                if through < best {
                    best = through;
                    meet = Some(e.to);
                    // Record the relaxation so the meeting node's forward
                    // predecessor is consistent even if never expanded.
                    if dist_f[e.to.index()] > nd {
                        dist_f[e.to.index()] = nd;
                        pred_f[e.to.index()] = Some(node);
                    }
                }
            }
        } else {
            let Some(Entry { score, node }) = heap_b.pop() else {
                break;
            };
            if closed_b[node.index()] || score > dist_b[node.index()] {
                continue;
            }
            closed_b[node.index()] = true;
            exp_b += 1;
            for e in reverse.neighbors(node) {
                let nd = score + e.cost;
                if nd < dist_b[e.to.index()] {
                    dist_b[e.to.index()] = nd;
                    succ_b[e.to.index()] = Some(node);
                    heap_b.push(Entry {
                        score: nd,
                        node: e.to,
                    });
                }
                let through = dist_b[node.index()] + e.cost + dist_f[e.to.index()];
                if through < best {
                    best = through;
                    meet = Some(e.to);
                    if dist_b[e.to.index()] > nd {
                        dist_b[e.to.index()] = nd;
                        succ_b[e.to.index()] = Some(node);
                    }
                }
            }
        }
    }

    let path = meet.map(|m| {
        // Forward half: s .. m.
        let mut forward = vec![m];
        let mut cur = m;
        while cur != s {
            cur = pred_f[cur.index()].expect("meeting point is forward-reachable");
            forward.push(cur);
        }
        forward.reverse();
        // Backward half: m .. d (follow successors).
        let mut cur = m;
        while cur != d {
            cur = succ_b[cur.index()].expect("meeting point is backward-reachable");
            forward.push(cur);
        }
        Path {
            nodes: forward,
            cost: best,
        }
    });

    BidirectionalResult {
        path,
        forward_expansions: exp_f,
        backward_expansions: exp_b,
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

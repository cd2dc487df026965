//! Paths and path validation (Section 2 of the paper).

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// A path `(v0, v1, …, vk)` from `v0` to `vk` with its total cost
/// `Σ C(v_{i-1}, v_i)` (Section 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Total cost of the path.
    pub cost: f64,
}

impl Path {
    /// A trivial path consisting of a single node with zero cost.
    pub fn trivial(node: NodeId) -> Self {
        Path {
            nodes: vec![node],
            cost: 0.0,
        }
    }

    /// The source node.
    #[expect(
        clippy::expect_used,
        reason = "an empty path is malformed (`validate` rejects it): asking its ends is a caller bug"
    )]
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("paths are non-empty")
    }

    /// The destination node.
    #[expect(
        clippy::expect_used,
        reason = "an empty path is malformed (`validate` rejects it): asking its ends is a caller bug"
    )]
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("paths are non-empty")
    }

    /// Number of edges `L` in the path — the "path length" of the cost
    /// model (Table 1).
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Whether the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over consecutive `(from, to)` pairs.
    pub fn hops(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Recomputes the cost of this node sequence against `graph` and checks
    /// every hop exists. Returns the recomputed cost.
    ///
    /// # Errors
    /// Fails if the path is empty, uses a missing edge, or its stored cost
    /// disagrees with the recomputed cost by more than `1e-6` relative.
    pub fn validate(&self, graph: &Graph) -> Result<f64, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::MalformedPath("empty node list".into()));
        }
        let mut total = 0.0;
        for (u, v) in self.hops() {
            match graph.edge_cost(u, v) {
                Some(c) => total += c,
                None => return Err(GraphError::MissingEdge { from: u, to: v }),
            }
        }
        let tol = 1e-6 * total.abs().max(1.0);
        if (total - self.cost).abs() > tol {
            return Err(GraphError::MalformedPath(format!(
                "stored cost {} disagrees with recomputed cost {}",
                self.cost, total
            )));
        }
        Ok(total)
    }

    /// Reconstructs a path from per-node predecessor links (the `path`
    /// pointer field of the node relation `R`: "The complete path to the
    /// source node can be constructed by traversing this pointer starting at
    /// the destination node", Section 4).
    ///
    /// `pred[v] == None` for the source and for unreached nodes.
    ///
    /// Returns `None` if `destination` was never reached or a cycle is
    /// detected (which would indicate algorithm corruption).
    pub fn from_predecessors(
        source: NodeId,
        destination: NodeId,
        cost: f64,
        pred: &[Option<NodeId>],
    ) -> Option<Path> {
        let mut nodes = vec![destination];
        let mut cur = destination;
        let mut steps = 0usize;
        while cur != source {
            let p = pred.get(cur.index()).copied().flatten()?;
            nodes.push(p);
            cur = p;
            steps += 1;
            if steps > pred.len() {
                return None; // cycle guard
            }
        }
        nodes.reverse();
        Some(Path { nodes, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_arcs;

    #[test]
    fn trivial_path_has_no_edges() {
        let p = Path::trivial(NodeId(3));
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.source(), p.destination());
    }

    #[test]
    fn validate_accepts_correct_path() {
        let g = graph_from_arcs(3, &[(0, 1, 1.5), (1, 2, 2.5)]).unwrap();
        let p = Path {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            cost: 4.0,
        };
        assert!((p.validate(&g).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_missing_edge() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let p = Path {
            nodes: vec![NodeId(0), NodeId(2)],
            cost: 1.0,
        };
        assert!(matches!(
            p.validate(&g),
            Err(GraphError::MissingEdge { .. })
        ));
    }

    #[test]
    fn validate_rejects_wrong_cost() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let p = Path {
            nodes: vec![NodeId(0), NodeId(1)],
            cost: 9.0,
        };
        assert!(matches!(p.validate(&g), Err(GraphError::MalformedPath(_))));
    }

    #[test]
    fn from_predecessors_walks_back() {
        // 0 -> 1 -> 2
        let pred = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        let p = Path::from_predecessors(NodeId(0), NodeId(2), 2.0, &pred).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn from_predecessors_detects_unreached() {
        let pred = vec![None, None, None];
        assert!(Path::from_predecessors(NodeId(0), NodeId(2), 0.0, &pred).is_none());
    }

    #[test]
    fn from_predecessors_detects_cycle() {
        let pred = vec![None, Some(NodeId(2)), Some(NodeId(1))];
        assert!(Path::from_predecessors(NodeId(0), NodeId(2), 0.0, &pred).is_none());
    }

    #[test]
    fn hops_iterates_pairs() {
        let p = Path {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            cost: 0.0,
        };
        let hops: Vec<_> = p.hops().collect();
        assert_eq!(hops, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    }
}

//! The directed graph `G = (N, E, C)` of Section 2, in compressed sparse
//! row (CSR) form with planar node coordinates.
//!
//! A [`Graph`] is a persistent structure: coordinates and CSR offsets
//! never change after the build and sit behind `Arc`, and the edge
//! column is a [`GroupedColumn`] — cut every [`GROUP_NODES`] nodes, each
//! group behind its own `Arc`. Cloning a graph copies pointers, and
//! [`Graph::set_edge_cost`] copies the one group the edge lives in, so a
//! database opened on a graph and every snapshot a traffic update makes
//! of it hold the edges once between them. Both builders assemble the
//! groups directly; no flat edge column ever exists.

use std::sync::Arc;

use crate::edge::Edge;
use crate::error::GraphError;
use crate::grouped::{GroupedColumn, Sharing, GROUP_NODES};
use crate::node::{NodeId, Point};

/// Maximum node count supported by the fixed-width storage tuples: ids are
/// stored as 24-bit integers inside the 16/32-byte tuple layouts of
/// `atis-storage` (the all-ones value is the null-predecessor sentinel).
/// Comfortably covers the continental-scale generator's 1M-node networks.
pub const MAX_NODES: usize = (1 << 24) - 1;

/// An immutable directed graph with node coordinates and edge costs.
///
/// Adjacency is stored CSR-style: `offsets[u.index()] ..
/// offsets[u.index() + 1]` are `u`'s rows of the edge column. Edges out
/// of a node are kept in insertion order, which the database-resident
/// algorithms rely on for reproducible tie-breaking.
///
/// Cloning is cheap: a clone shares everything with its source (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Graph {
    points: Arc<[Point]>,
    offsets: Arc<[u32]>,
    edges: GroupedColumn<Edge>,
}

impl Graph {
    /// Number of nodes `|N|` (`|R|` in the cost-model notation).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges `|E|` (`|S|` in the cost-model notation).
    /// An undirected road segment contributes two directed edges, matching
    /// the paper's relational representation of undirected graphs.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether `id` is a valid node of this graph.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.points.len()
    }

    /// Coordinates of a node.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids come from this graph's iterators
    /// in correct usage).
    #[inline]
    pub fn point(&self, id: NodeId) -> Point {
        self.points[id.index()]
    }

    /// The out-edges of `u` — the paper's `u.adjacencyList`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[Edge] {
        self.edges.row(&self.offsets, u.index())
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Iterates over all node ids `0..n`.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.points.len() as u32).map(NodeId)
    }

    /// Iterates over every directed edge.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Looks up the cost of edge `(u, v)`, if present. Parallel edges are
    /// permitted; the cheapest one is returned, which is the only one a
    /// shortest path can use.
    pub fn edge_cost(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.edge(u, v).map(|e| e.cost)
    }

    /// Looks up the (cheapest) edge `(u, v)`, if present.
    pub fn edge(&self, u: NodeId, v: NodeId) -> Option<&Edge> {
        self.neighbors(u)
            .iter()
            .filter(|e| e.to == v)
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
    }

    /// Average out-degree — the `|A|` of the cost model (Table 1). For the
    /// synthetic grid this is ≈ 4, as the paper notes in Section 4.2.
    pub fn average_degree(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.edges.len() as f64 / self.points.len() as f64
        }
    }

    /// The node nearest to a planar position (Euclidean), preferring
    /// connected nodes (degree > 0) so a lake-swallowed island is never
    /// chosen as a trip endpoint. `None` only for empty graphs.
    ///
    /// An ATIS addresses trips by location, not node id; this is the
    /// map-matching primitive behind "current location to destination"
    /// (Section 1.1).
    pub fn nearest_node(&self, position: Point) -> Option<NodeId> {
        let best = |connected_only: bool| {
            self.node_ids()
                .filter(|&u| !connected_only || self.degree(u) > 0)
                .min_by(|&a, &b| {
                    let da = self.point(a).euclidean(&position);
                    let db = self.point(b).euclidean(&position);
                    da.total_cmp(&db)
                })
        };
        best(true).or_else(|| best(false))
    }

    /// The smallest edge cost in the graph (`∞` if there are no edges).
    /// Useful for scaling estimators to keep them admissible.
    pub fn min_edge_cost(&self) -> f64 {
        self.edges().map(|e| e.cost).fold(f64::INFINITY, f64::min)
    }

    /// Returns a copy of the graph with every edge cost replaced by the
    /// edge's congestion-aware travel time. This is the "real-time traffic
    /// information" re-costing of Section 1.1 used by the rush-hour example.
    pub fn with_travel_time_costs(&self) -> Graph {
        let mut g = self.clone();
        for e in g.edges.groups_mut().into_iter().flatten() {
            e.cost = e.travel_time();
        }
        g
    }

    /// Updates the cost of every parallel edge `(u, v)` in place — the
    /// real-time traffic update of the ATIS scenario. Returns the number
    /// of edges updated (0 if the edge does not exist).
    ///
    /// # Errors
    /// Rejects negative or non-finite costs.
    pub fn set_edge_cost(&mut self, u: NodeId, v: NodeId, cost: f64) -> Result<usize, GraphError> {
        if !cost.is_finite() {
            return Err(GraphError::NonFiniteCost { from: u, to: v });
        }
        if cost < 0.0 {
            return Err(GraphError::NegativeCost {
                from: u,
                to: v,
                cost,
            });
        }
        if u.index() + 1 >= self.offsets.len() {
            return Err(GraphError::UnknownNode(u));
        }
        // A pair with no edge writes nothing, so it copies nothing.
        if !self.neighbors(u).iter().any(|e| e.to == v) {
            return Ok(0);
        }
        let mut updated = 0;
        for e in self.edges.row_mut(&self.offsets, u.index()) {
            if e.to == v {
                e.cost = cost;
                updated += 1;
            }
        }
        Ok(updated)
    }

    /// A fingerprint of the graph's topology and edge costs (FNV-1a over
    /// node count, edge endpoints, and cost bit patterns).
    ///
    /// Derived artifacts built from a snapshot of the costs — landmark
    /// distance tables in particular — stamp themselves with this value
    /// and compare it at query time to detect that a traffic update has
    /// made them stale. Equal fingerprints mean equal costs for all
    /// practical purposes; a collision would need adversarial inputs,
    /// which traffic updates are not.
    pub fn cost_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.points.len() as u64);
        mix(self.edges.len() as u64);
        for group in self.edges.groups() {
            for e in group {
                mix(u64::from(e.from.0) << 32 | u64::from(e.to.0));
                mix(e.cost.to_bits());
            }
        }
        h
    }

    /// Applies `f` to every edge, producing a re-costed copy of the graph.
    ///
    /// # Errors
    /// Returns an error if `f` produces a negative or non-finite cost.
    pub fn map_costs(&self, mut f: impl FnMut(&Edge) -> f64) -> Result<Graph, GraphError> {
        let mut g = self.clone();
        for e in g.edges.groups_mut().into_iter().flatten() {
            let c = f(e);
            if !c.is_finite() {
                return Err(GraphError::NonFiniteCost {
                    from: e.from,
                    to: e.to,
                });
            }
            if c < 0.0 {
                return Err(GraphError::NegativeCost {
                    from: e.from,
                    to: e.to,
                    cost: c,
                });
            }
            e.cost = c;
        }
        Ok(g)
    }

    /// How much of this graph is the very memory `other` holds: the
    /// coordinates, the offsets and each edge group count one part.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &Graph) -> Sharing {
        let mut sharing = self.edges.shared_with(&other.edges);
        let bytes = std::mem::size_of_val(&self.points[..]);
        sharing.part(&self.points, &other.points, bytes);
        let bytes = std::mem::size_of_val(&self.offsets[..]);
        sharing.part(&self.offsets, &other.offsets, bytes);
        sharing
    }
}

/// Incremental builder for [`Graph`].
///
/// Nodes are added first (establishing the dense id space), then edges.
/// `build` validates costs and freezes the CSR representation.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    points: Vec<Point>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            points: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node at `point`, returning its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId(self.points.len() as u32);
        self.points.push(point);
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Adds a directed edge.
    pub fn add_edge(&mut self, edge: Edge) {
        self.edges.push(edge);
    }

    /// Adds a directed street edge `(from, to)` with the given cost.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cost: f64) {
        self.edges.push(Edge::new(from, to, cost));
    }

    /// Adds both directions of an undirected road segment, as the paper
    /// does: "An undirected graph can be represented by storing two
    /// directed-edge entries in S for each undirected edge" (Section 4).
    pub fn add_undirected(&mut self, a: NodeId, b: NodeId, cost: f64) {
        self.add_arc(a, b, cost);
        self.add_arc(b, a, cost);
    }

    /// Adds both directions with full edge attributes.
    pub fn add_undirected_edge(&mut self, edge: Edge) {
        let back = Edge {
            from: edge.to,
            to: edge.from,
            ..edge
        };
        self.edges.push(edge);
        self.edges.push(back);
    }

    /// Validates and freezes the graph.
    ///
    /// # Errors
    /// Fails on unknown endpoints, negative or non-finite costs, or more
    /// than [`MAX_NODES`] nodes.
    pub fn build(self) -> Result<Graph, GraphError> {
        let n = self.points.len();
        if n > MAX_NODES {
            return Err(GraphError::TooManyNodes(n));
        }
        for e in &self.edges {
            if e.from.index() >= n {
                return Err(GraphError::UnknownNode(e.from));
            }
            if e.to.index() >= n {
                return Err(GraphError::UnknownNode(e.to));
            }
            if !e.cost.is_finite() {
                return Err(GraphError::NonFiniteCost {
                    from: e.from,
                    to: e.to,
                });
            }
            if e.cost < 0.0 {
                return Err(GraphError::NegativeCost {
                    from: e.from,
                    to: e.to,
                    cost: e.cost,
                });
            }
        }

        // Counting sort of edges by origin into CSR, preserving insertion
        // order within each origin (stable), straight into the groups.
        let mut counts = vec![0u32; n + 1];
        for e in &self.edges {
            counts[e.from.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets: Arc<[u32]> = Arc::from(&counts[..]);
        let mut cursor = counts;
        let mut sorted = GroupedColumn::filled(&offsets, Edge::new(NodeId(0), NodeId(0), 0.0));
        let mut groups = sorted.groups_mut();
        for e in &self.edges {
            let g = e.from.index() / GROUP_NODES;
            let slot = cursor[e.from.index()] - offsets[g * GROUP_NODES];
            groups[g][slot as usize] = *e;
            cursor[e.from.index()] += 1;
        }

        Ok(Graph {
            points: self.points.into(),
            offsets,
            edges: sorted,
        })
    }
}

/// Streaming CSR builder: adjacency is sealed one node at a time, in id
/// order, directly into the final edge groups.
///
/// [`GraphBuilder`] buffers every edge and counting-sorts at `build` time,
/// which briefly holds *two* copies of the edge list — fine at the paper's
/// 1k-node scale, prohibitive for the metro generator's 100k–1M-node
/// networks. The streaming builder accepts each node's out-edges exactly
/// once, in nondecreasing origin order (the order generators naturally
/// produce), so the unsorted intermediate list never exists — and neither
/// does a flat sorted one: every [`GROUP_NODES`] nodes the edges sealed
/// so far become one finished group of the graph's edge column.
#[derive(Debug)]
pub struct StreamingGraphBuilder {
    points: Vec<Point>,
    offsets: Vec<u32>,
    edges: GroupedColumn<Edge>,
    /// Edges of the group still being sealed.
    open: Vec<Edge>,
}

impl StreamingGraphBuilder {
    /// Starts a streaming build over a fixed node set (`points[i]` is the
    /// position of node `i`).
    ///
    /// # Errors
    /// Fails when the node count exceeds [`MAX_NODES`].
    pub fn new(points: Vec<Point>) -> Result<Self, GraphError> {
        if points.len() > MAX_NODES {
            return Err(GraphError::TooManyNodes(points.len()));
        }
        let mut offsets = Vec::with_capacity(points.len() + 1);
        offsets.push(0);
        Ok(StreamingGraphBuilder {
            points,
            offsets,
            edges: GroupedColumn::default(),
            open: Vec::new(),
        })
    }

    /// Number of nodes in the build.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// The next node awaiting its adjacency.
    pub fn next_node(&self) -> NodeId {
        NodeId((self.offsets.len() - 1) as u32)
    }

    /// Seals the next node's out-edges. Must be called once per node, in
    /// id order; `edges` must all originate at that node.
    ///
    /// # Errors
    /// Fails on origin mismatch, unknown targets, negative or non-finite
    /// costs, or when every node is already sealed.
    pub fn seal_node(&mut self, edges: &[Edge]) -> Result<NodeId, GraphError> {
        let u = self.next_node();
        if u.index() >= self.points.len() {
            return Err(GraphError::OutOfOrder(format!(
                "all {} nodes already sealed",
                self.points.len()
            )));
        }
        for e in edges {
            if e.from != u {
                return Err(GraphError::OutOfOrder(format!(
                    "edge from {} while sealing {}",
                    e.from, u
                )));
            }
            if e.to.index() >= self.points.len() {
                return Err(GraphError::UnknownNode(e.to));
            }
            if !e.cost.is_finite() {
                return Err(GraphError::NonFiniteCost {
                    from: e.from,
                    to: e.to,
                });
            }
            if e.cost < 0.0 {
                return Err(GraphError::NegativeCost {
                    from: e.from,
                    to: e.to,
                    cost: e.cost,
                });
            }
        }
        self.open.extend_from_slice(edges);
        self.offsets
            .push((self.edges.len() + self.open.len()) as u32);
        // The open group ends GROUP_NODES past the last one, or with the
        // last node.
        let group_end = (self.edges.groups().len() + 1) * GROUP_NODES;
        if self.offsets.len() - 1 == group_end.min(self.points.len()) {
            self.edges.push_group(&self.open);
            self.open.clear();
        }
        Ok(u)
    }

    /// Freezes the graph.
    ///
    /// # Errors
    /// Fails when some nodes were never sealed.
    pub fn finish(self) -> Result<Graph, GraphError> {
        if self.offsets.len() != self.points.len() + 1 {
            return Err(GraphError::OutOfOrder(format!(
                "{} of {} nodes sealed",
                self.offsets.len() - 1,
                self.points.len()
            )));
        }
        Ok(Graph {
            points: self.points.into(),
            offsets: self.offsets.into(),
            edges: self.edges,
        })
    }
}

/// Convenience constructor used by tests across the workspace: builds a
/// graph from `(from, to, cost)` triples over `n` nodes placed on a line.
pub fn graph_from_arcs(n: usize, arcs: &[(u32, u32, f64)]) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(n, arcs.len());
    for i in 0..n {
        b.add_node(Point::new(i as f64, 0.0));
    }
    for &(u, v, c) in arcs {
        b.add_arc(NodeId(u), NodeId(v), c);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::RoadClass;

    fn diamond() -> Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        graph_from_arcs(4, &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 0.5)]).unwrap()
    }

    #[test]
    fn builder_produces_expected_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(3)), 0);
    }

    #[test]
    fn neighbors_preserve_insertion_order() {
        let g = diamond();
        let ns: Vec<u32> = g.neighbors(NodeId(0)).iter().map(|e| e.to.0).collect();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn edge_cost_lookup() {
        let g = diamond();
        assert_eq!(g.edge_cost(NodeId(2), NodeId(3)), Some(0.5));
        assert_eq!(g.edge_cost(NodeId(3), NodeId(2)), None);
    }

    #[test]
    fn rejects_negative_cost() {
        let err = graph_from_arcs(2, &[(0, 1, -1.0)]).unwrap_err();
        assert!(matches!(err, GraphError::NegativeCost { .. }));
    }

    #[test]
    fn rejects_nan_cost() {
        let err = graph_from_arcs(2, &[(0, 1, f64::NAN)]).unwrap_err();
        assert!(matches!(err, GraphError::NonFiniteCost { .. }));
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let err = graph_from_arcs(2, &[(0, 5, 1.0)]).unwrap_err();
        assert_eq!(err, GraphError::UnknownNode(NodeId(5)));
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_undirected(a, c, 3.0);
        let g = b.build().unwrap();
        assert_eq!(g.edge_cost(a, c), Some(3.0));
        assert_eq!(g.edge_cost(c, a), Some(3.0));
    }

    #[test]
    fn average_degree_of_diamond() {
        let g = diamond();
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn map_costs_rejects_negative() {
        let g = diamond();
        assert!(g.map_costs(|e| e.cost - 10.0).is_err());
    }

    #[test]
    fn map_costs_rescales() {
        let g = diamond();
        let g2 = g.map_costs(|e| e.cost * 2.0).unwrap();
        assert_eq!(g2.edge_cost(NodeId(0), NodeId(1)), Some(2.0));
        // original untouched
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(1.0));
    }

    #[test]
    fn travel_time_costs_use_road_class() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(Edge::new(a, c, 5.0).with_class(RoadClass::Freeway));
        let g = b.build().unwrap();
        let t = g.with_travel_time_costs();
        assert!((t.edge_cost(a, c).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_edge_cost_of_diamond() {
        assert_eq!(diamond().min_edge_cost(), 0.5);
    }

    #[test]
    fn nearest_node_picks_the_closest_connected_node() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let island = b.add_node(Point::new(4.0, 0.0)); // no edges
        b.add_undirected(a, c, 10.0);
        let g = b.build().unwrap();
        // The island is geometrically closest but disconnected.
        assert_eq!(g.nearest_node(Point::new(4.1, 0.0)), Some(a));
        assert_eq!(g.nearest_node(Point::new(9.0, 0.0)), Some(c));
        let _ = island;
    }

    #[test]
    fn nearest_node_falls_back_when_everything_is_isolated() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(5.0, 0.0));
        let g = b.build().unwrap();
        assert_eq!(g.nearest_node(Point::new(4.0, 0.0)), Some(NodeId(1)));
    }

    #[test]
    fn nearest_node_on_empty_graph_is_none() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.nearest_node(Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn cost_fingerprint_tracks_cost_changes() {
        let g = diamond();
        let before = g.cost_fingerprint();
        assert_eq!(
            before,
            diamond().cost_fingerprint(),
            "fingerprint is deterministic"
        );
        let mut changed = g.clone();
        changed.set_edge_cost(NodeId(0), NodeId(1), 7.0).unwrap();
        assert_ne!(before, changed.cost_fingerprint());
        changed.set_edge_cost(NodeId(0), NodeId(1), 1.0).unwrap();
        assert_eq!(
            before,
            changed.cost_fingerprint(),
            "restoring the cost restores the print"
        );
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }
}

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
use crate::node::{NodeId, Norm, Point};

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
    /// The wrapping sum of every edge's [`edge_hash`], kept current by
    /// every write to a cost: what [`Graph::cost_stamp`] finishes.
    edge_hash_sum: u64,
}

impl Graph {
    /// Assembles a graph from finished parts, summing the edge hashes
    /// once.
    fn from_parts(points: Arc<[Point]>, offsets: Arc<[u32]>, edges: GroupedColumn<Edge>) -> Graph {
        let edge_hash_sum = edge_hash_sum(&edges);
        Graph {
            points,
            offsets,
            edges,
            edge_hash_sum,
        }
    }

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

    /// Every node's coordinates, indexed by id: the very array the graph
    /// holds (coordinates never change, so every epoch of a graph shares
    /// it).
    pub fn points(&self) -> Arc<[Point]> {
        self.points.clone()
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
    /// It says nothing about admissibility on its own: the scale that
    /// keeps `w ×` a straight-line estimator admissible is the cost floor
    /// `α` of that length ([`Graph::cost_floors`]), a minimum of
    /// cost per unit length, not of cost.
    pub fn min_edge_cost(&self) -> f64 {
        self.edges().map(|e| e.cost).fold(f64::INFINITY, f64::min)
    }

    /// Returns a copy of the graph with every edge cost replaced by the
    /// edge's congestion-aware travel time. This is the "real-time traffic
    /// information" re-costing of Section 1.1 used by the rush-hour example.
    ///
    /// # Errors
    /// Fails, as [`Graph::map_costs`] does, if a travel time overflows to
    /// infinity.
    pub fn with_travel_time_costs(&self) -> Result<Graph, GraphError> {
        self.map_costs(Edge::travel_time)
    }

    /// Updates the cost of every parallel edge `(u, v)` in place — the
    /// real-time traffic update of the ATIS scenario. Returns the number
    /// of edges updated (0 if the edge does not exist). Each changed
    /// edge's hash is swapped in the [`Graph::cost_stamp`] sum, so the
    /// stamp stays current without a pass over the other edges.
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
                self.edge_hash_sum = self.edge_hash_sum.wrapping_sub(edge_hash(e));
                e.cost = cost;
                self.edge_hash_sum = self.edge_hash_sum.wrapping_add(edge_hash(e));
                updated += 1;
            }
        }
        Ok(updated)
    }

    /// The geometric cost floor `α`: the minimum of `cost / length` over
    /// the edges of positive straight-line length, so no edge costs less
    /// than `α` times its length (0 when no edge has positive length). A
    /// pass over every edge: a caller that keeps the floor across
    /// updates takes it once with [`Graph::cost_floors`] and carries it
    /// through each update from the updated edge's [`Graph::cost_ratio`].
    ///
    /// With the triangle inequality it bounds every route: a route from
    /// `a` to `b` costs at least `α · ‖a − b‖`, which [`floor_bound`]
    /// turns into a bound on the floating-point sum a search computes.
    /// The paper's A\* estimators assume `α ≥ 1` (Section 5.3); metro
    /// networks have exactly 1, since freeways cost their length. The
    /// same floor under the Manhattan length, `α_M ≤ α`, is the second
    /// entry of [`Graph::cost_floors`]: `w ×` Manhattan is admissible
    /// while `w ≤ α_M`.
    pub fn cost_floor(&self) -> f64 {
        Norm::Euclidean.select(self.cost_floors()).0
    }

    /// The cost floor under each of [`Norm::ALL`] (Euclidean, then
    /// Manhattan), each with the number of directed edge tuples whose
    /// ratio equals it, from one pass. The count is what keeps a floor
    /// carried across updates exact: an update that raises a tuple at the
    /// floor takes one off it, and only when none is left can the floor
    /// rise, which needs this pass again.
    pub fn cost_floors(&self) -> [(f64, usize); 2] {
        let mut floors = [(f64::INFINITY, 0); 2];
        for e in self.edges() {
            for (norm, (floor, count)) in Norm::ALL.into_iter().zip(&mut floors) {
                let Some(ratio) = self.cost_ratio(norm, e.from, e.to, e.cost) else {
                    continue;
                };
                if ratio < *floor {
                    (*floor, *count) = (ratio, 1);
                } else if ratio == *floor {
                    *count += 1;
                }
            }
        }
        floors.map(|(floor, count)| {
            if floor.is_finite() {
                (floor, count)
            } else {
                (0.0, 0)
            }
        })
    }

    /// What edge `(u, v)` would cost per unit of its `norm` length at
    /// `cost`; `None` where the endpoints coincide (the edge spans
    /// nothing) or a node is unknown.
    #[inline]
    pub fn cost_ratio(&self, norm: Norm, u: NodeId, v: NodeId, cost: f64) -> Option<f64> {
        let (from, to) = (self.points.get(u.index())?, self.points.get(v.index())?);
        let length = norm.length(from, to);
        (length > 0.0).then(|| cost / length)
    }

    /// A fingerprint of the graph's topology and edge costs, derived
    /// from the edges: the wrapping sum of one FNV-1a hash per edge (over
    /// its endpoints and its cost's bit pattern), mixed with the node and
    /// edge counts. A pass over every edge.
    ///
    /// Derived artifacts built from a snapshot of the costs — landmark
    /// distance tables and the contraction hierarchy — stamp themselves
    /// with [`Graph::cost_stamp`], which always equals this value, and
    /// re-derive this one at query time to detect that a traffic update
    /// has made them stale; so a stamp the update path got wrong shows
    /// as a stale artifact, never as a wrong answer. Equal fingerprints
    /// mean equal costs for all practical purposes; a collision would
    /// need adversarial inputs, which traffic updates are not. The
    /// combiner is a sum, not XOR: under XOR two identical parallel
    /// edges cancel, and changing both together would leave the print
    /// unchanged.
    pub fn cost_fingerprint(&self) -> u64 {
        self.finish_stamp(edge_hash_sum(&self.edges))
    }

    /// [`Graph::cost_fingerprint`] in O(1): the same value, finished
    /// from the per-edge hash sum the builders compute once and
    /// [`Graph::set_edge_cost`] patches edge by edge. What an artifact
    /// is stamped with when it is built or maintained.
    #[inline]
    pub fn cost_stamp(&self) -> u64 {
        self.finish_stamp(self.edge_hash_sum)
    }

    /// Mixes the node and edge counts with an edge hash sum.
    fn finish_stamp(&self, sum: u64) -> u64 {
        let h = fnv1a(FNV_OFFSET, self.points.len() as u64);
        fnv1a(fnv1a(h, self.edges.len() as u64), sum)
    }

    /// Applies `f` to every edge, producing a re-costed copy of the graph.
    ///
    /// # Errors
    /// Returns an error if `f` produces a negative or non-finite cost.
    pub fn map_costs(&self, mut f: impl FnMut(&Edge) -> f64) -> Result<Graph, GraphError> {
        let mut g = self.clone();
        let mut sum = 0u64;
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
            sum = sum.wrapping_add(edge_hash(e));
        }
        g.edge_hash_sum = sum;
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues the FNV-1a hash `h` over the little-endian bytes of `word`.
#[inline]
fn fnv1a(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One edge's share of the cost fingerprint: FNV-1a over its endpoints
/// and its cost's bit pattern.
#[inline]
fn edge_hash(e: &Edge) -> u64 {
    let h = fnv1a(FNV_OFFSET, u64::from(e.from.0) << 32 | u64::from(e.to.0));
    fnv1a(h, e.cost.to_bits())
}

/// The wrapping sum of every edge's [`edge_hash`].
fn edge_hash_sum(edges: &GroupedColumn<Edge>) -> u64 {
    edges
        .groups()
        .flatten()
        .fold(0, |sum, e| sum.wrapping_add(edge_hash(e)))
}

/// The relative slack [`floor_bound`] gives up to rounding. A search
/// labels a route with a left-to-right sum of its edge costs, and each
/// hop may round it down: the database-resident searches keep labels as
/// `f32` (the node tuple's `path_cost`), rounding each cost and each sum
/// to a relative 2⁻²⁴, so a route of `k` hops can be labelled up to about
/// `k · 2⁻²³` below its exact cost; the in-memory searches' `f64` sums
/// lose far less. 10⁻³ covers routes of up to 8 000 hops, and gives up
/// 0.1 % of a bound.
pub const FLOOR_MARGIN: f64 = 1e-3;

/// A lower bound, at an epoch with cost floor `floor`, on the label any
/// search computes for a route that pays `cost` for one edge and whose
/// other legs span at least `distance` in a straight line (for a route
/// `s ⇝ u → v ⇝ d` through edge `(u, v)`: `‖s − u‖ + ‖v − d‖`). By the
/// triangle inequality each leg costs at least `floor` times its span,
/// so the route costs at least `cost + floor · distance` exactly, and
/// [`FLOOR_MARGIN`] covers the rounding of the label. A `floor` of 0, or
/// a `distance` that is not a number, bounds the route by `cost` alone.
#[inline]
pub fn floor_bound(cost: f64, floor: f64, distance: f64) -> f64 {
    let reach = floor * distance;
    let reach = if reach >= 0.0 { reach } else { 0.0 };
    (cost + reach) * (1.0 - FLOOR_MARGIN)
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

    /// Validates and freezes the graph: groups the edges by origin
    /// (keeping each node's edges in insertion order) and seals them node
    /// by node through [`StreamingGraphBuilder::seal_node`], which holds
    /// the edge checks.
    ///
    /// # Errors
    /// Fails on unknown endpoints, negative or non-finite costs,
    /// non-finite occupancies, or more than [`MAX_NODES`] nodes.
    pub fn build(self) -> Result<Graph, GraphError> {
        let mut builder = StreamingGraphBuilder::new(self.points)?;
        let mut edges = self.edges;
        edges.sort_by_key(|e| e.from);
        if let Some(e) = edges
            .last()
            .filter(|e| e.from.index() >= builder.node_count())
        {
            return Err(GraphError::UnknownNode(e.from));
        }
        let mut rest = &edges[..];
        for _ in 0..builder.node_count() {
            let u = builder.next_node();
            let (out, tail) = rest.split_at(rest.partition_point(|e| e.from == u));
            builder.seal_node(out)?;
            rest = tail;
        }
        builder.finish()
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
    /// costs, non-finite occupancies, or when every node is already
    /// sealed.
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
            if !e.occupancy.is_finite() {
                return Err(GraphError::NonFiniteOccupancy {
                    from: e.from,
                    to: e.to,
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
        Ok(Graph::from_parts(
            self.points.into(),
            self.offsets.into(),
            self.edges,
        ))
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
        let t = g.with_travel_time_costs().unwrap();
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

    /// Runs `steps` seeded cost writes on `g`, checking after each that
    /// the patched stamp equals the full pass: jams, decreases, the same
    /// cost written again, restores to the base cost, and pairs with no
    /// edge between them (which write nothing and leave the stamp be).
    fn assert_stamp_tracks_script(g: &mut Graph, seed: u64, steps: usize) {
        let base: Vec<Edge> = g.edges().copied().collect();
        let mut rng = crate::SplitMix64::new(seed);
        for step in 0..steps {
            let e = base[rng.next_below(base.len() as u64) as usize];
            let now = g.edge_cost(e.from, e.to).unwrap();
            let cost = match rng.next_below(5) {
                0 => now * (1.0 + 3.0 * rng.next_f64()),
                1 => now * rng.next_f64(),
                2 => now,
                3 => e.cost,
                _ => {
                    let v = NodeId(rng.next_below(g.node_count() as u64) as u32);
                    if g.neighbors(e.from).iter().all(|out| out.to != v) {
                        let before = g.cost_stamp();
                        assert_eq!(g.set_edge_cost(e.from, v, 9.0), Ok(0), "step {step}");
                        assert_eq!(g.cost_stamp(), before, "step {step}: no edge, no change");
                    }
                    continue;
                }
            };
            g.set_edge_cost(e.from, e.to, cost).unwrap();
            assert_eq!(g.cost_stamp(), g.cost_fingerprint(), "step {step}");
        }
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
        assert_eq!(g.cost_stamp(), before);
        let mut changed = g.clone();
        changed.set_edge_cost(NodeId(0), NodeId(1), 7.0).unwrap();
        assert_ne!(before, changed.cost_fingerprint());
        assert_eq!(changed.cost_stamp(), changed.cost_fingerprint());
        changed.set_edge_cost(NodeId(0), NodeId(1), 1.0).unwrap();
        assert_eq!(
            before,
            changed.cost_fingerprint(),
            "restoring the cost restores the print"
        );
        assert_eq!(changed.cost_stamp(), before);

        // Two identical parallel edges changed together: under an XOR
        // combiner their hashes cancel before and after, and the print
        // would not move.
        let mut parallel = graph_from_arcs(3, &[(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let before = parallel.cost_stamp();
        assert_eq!(parallel.set_edge_cost(NodeId(0), NodeId(1), 5.0), Ok(2));
        assert_ne!(
            parallel.cost_stamp(),
            before,
            "a parallel pair moves the print"
        );
        assert_eq!(parallel.cost_stamp(), parallel.cost_fingerprint());

        // Seeded scripts over both builders and both re-costing passes.
        let grid = crate::Grid::new(8, crate::CostModel::TWENTY_PERCENT, 7).unwrap();
        let metro = crate::Metro::new(crate::MetroSpec::with_nodes(1_000, 7)).unwrap();
        let doubled = grid.graph().map_costs(|e| e.cost * 2.0).unwrap();
        let timed = metro.graph().with_travel_time_costs().unwrap();
        for (label, graph) in [
            ("builder", grid.graph()),
            ("streaming builder", metro.graph()),
            ("map_costs", &doubled),
            ("with_travel_time_costs", &timed),
            ("parallel edges", &parallel),
        ] {
            assert_eq!(graph.cost_stamp(), graph.cost_fingerprint(), "{label}");
            for seed in 0..8 {
                assert_stamp_tracks_script(&mut graph.clone(), seed, 200);
            }
        }
    }

    /// The stamp through 64 updates at metro-100k, scripted the way the
    /// benchmark's write probes are: three jams, then the oldest jam
    /// clears back to its base cost, repeated.
    #[test]
    #[ignore = "metro-100k: release-mode CI step"]
    fn cost_stamp_tracks_a_metro_100k_update_script() {
        let metro = crate::Metro::new(crate::MetroSpec::with_nodes(100_000, 1993)).unwrap();
        let mut graph = metro.graph().clone();
        assert_eq!(graph.cost_stamp(), graph.cost_fingerprint());
        let edges: Vec<Edge> = graph.edges().copied().collect();
        let mut rng = crate::SplitMix64::new(1993);
        let mut jammed = Vec::new();
        for step in 0..64 {
            let (edge, cost) = if step % 4 == 3 {
                let edge: Edge = jammed.remove(0);
                (edge, edge.cost)
            } else {
                let edge = edges[rng.next_below(edges.len() as u64) as usize];
                jammed.push(edge);
                (edge, edge.cost * (2.0 + rng.next_f64() * 6.0))
            };
            graph.set_edge_cost(edge.from, edge.to, cost).unwrap();
            assert_eq!(graph.cost_stamp(), graph.cost_fingerprint(), "step {step}");
        }
    }

    /// Metro freeways cost exactly their length and nothing is cheaper,
    /// so every metro network's floor is exactly 1.
    #[test]
    fn metro_networks_have_a_cost_floor_of_exactly_one() {
        for spec in [
            crate::MetroSpec::new(2, 2, 1),
            crate::MetroSpec::new(3, 3, 42),
            crate::MetroSpec::with_nodes(10_000, 1993),
        ] {
            let metro = crate::Metro::new(spec).unwrap();
            assert_eq!(metro.graph().cost_floor(), 1.0);
        }
        let empty = GraphBuilder::new().build().unwrap();
        assert_eq!(empty.cost_floor(), 0.0, "no edge, no bound");
    }

    /// A straight street of edges that cost exactly their length, so the
    /// floor is exactly 1 and every route along it meets the bound with
    /// equality in exact arithmetic. The labels searches compute — `f64`
    /// sums, and the storage engine's `f32` ones — round below the
    /// unmargined bound on some routes, and never below [`floor_bound`].
    #[test]
    fn the_floor_margin_covers_the_rounding_of_a_straight_route() {
        let mut rng = crate::SplitMix64::new(1993);
        let mut b = GraphBuilder::new();
        let mut x = 0.0;
        let nodes: Vec<NodeId> = (0..200)
            .map(|_| {
                x += rng.next_range(0.1, 3.0);
                b.add_node(Point::new(x, 0.5 * x))
            })
            .collect();
        let mut costs = Vec::new();
        for w in nodes.windows(2) {
            let (p, q) = (b.points[w[0].index()], b.points[w[1].index()]);
            costs.push(p.euclidean(&q));
            b.add_arc(w[0], w[1], p.euclidean(&q));
        }
        let g = b.build().unwrap();
        assert_eq!(g.cost_floor(), 1.0);
        let (mut below_exact, mut checked) = (0, 0);
        for i in (0..nodes.len()).step_by(7) {
            for j in (i + 1..nodes.len()).step_by(5) {
                // The route i → j, through its edge (k, k + 1).
                let f64_label = costs[i..j].iter().fold(0.0f64, |sum, &c| sum + c);
                let f32_label = costs[i..j].iter().fold(0.0f32, |sum, &c| sum + c as f32);
                for k in i..j {
                    let span = g.point(nodes[i]).euclidean(&g.point(nodes[k]))
                        + g.point(nodes[k + 1]).euclidean(&g.point(nodes[j]));
                    let exact = costs[k] + g.cost_floor() * span;
                    below_exact += usize::from(f64_label < exact || f64::from(f32_label) < exact);
                    let bound = floor_bound(costs[k], g.cost_floor(), span);
                    assert!(
                        f64_label >= bound,
                        "{i}->{j} via {k}: {f64_label} < {bound}"
                    );
                    assert!(
                        f64::from(f32_label) >= bound,
                        "{i}->{j} via {k}: f32 {f32_label}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(
            below_exact > 0,
            "none of {checked} labels needed the margin"
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

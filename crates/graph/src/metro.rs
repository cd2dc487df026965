//! Deterministic metro- and continental-scale road networks.
//!
//! The paper's benchmarks top out at the 1089-node Minneapolis map; this
//! module grows the study to 100k–1M nodes so the partitioned storage layer
//! (`atis-storage` segments, `SCALING.md`) has something worth partitioning.
//! A metro network is a `cities_x × cities_y` lattice of identical city
//! cores stitched together by a freeway hierarchy:
//!
//! * **City core** — a 16×16 four-neighbour street grid (256 nodes, the
//!   node-relation blocking factor `Bf_r`, so one city fills exactly one
//!   block of `R`). Street costs are the unit segment length with a seeded
//!   jitter in `[1.0, 1.3)`.
//! * **Arterial ring** — the perimeter edges of each core are `Highway`
//!   class with a tighter jitter `[1.0, 1.1)`: a cheap orbital that routes
//!   cross-town traffic around the core.
//! * **Freeways** — adjacent cities are joined by *dual one-way
//!   carriageways*: an eastbound link at core row 8 paired with a
//!   westbound link at row 7 (southbound at column 8 / northbound at
//!   column 7). Freeway cost is exactly the geometric gap length.
//! * **Express tier** — on lattices at least 8 cities wide, skip-4
//!   freeways (rows 9/6, columns 9/6) jump four cities at a time, giving
//!   long-haul queries a logarithmic-ish shortcut structure.
//!
//! Every edge is axis-parallel with cost ≥ its geometric length, so the
//! Euclidean and Manhattan estimators of `atis-algorithms` remain
//! admissible (and Manhattan stays tight on pure street paths) without any
//! estimator-side scaling.
//!
//! Construction streams through [`StreamingGraphBuilder`]: each node's
//! adjacency is derived independently from `(spec, id)` and sealed in id
//! order, so the full edge list never exists outside the final CSR arrays.
//! Edge jitter is a pure function of `(seed, min_endpoint, max_endpoint)`,
//! which keeps undirected street costs symmetric and the whole network
//! bit-deterministic for a given spec.

use crate::edge::{Edge, RoadClass};
use crate::error::GraphError;
use crate::graph::{Graph, StreamingGraphBuilder};
use crate::node::{NodeId, Point};
use crate::rng::SplitMix64;

/// Core grid dimension: every city is a `CORE × CORE` street grid.
pub const CORE: usize = 16;

/// Nodes per city (`CORE²` = 256, one full node-relation block).
pub const CITY_NODES: usize = CORE * CORE;

/// Gap between adjacent city cores, in street-segment units.
pub const GAP: f64 = 4.0;

/// Distance between the origins of adjacent cities.
pub const STRIDE: f64 = (CORE - 1) as f64 + GAP;

/// Lattice width (in cities) from which the skip-4 express tier appears.
pub const EXPRESS_MIN_CITIES: usize = 8;

/// How many cities an express freeway jumps.
pub const EXPRESS_SKIP: usize = 4;

/// Length of one express freeway link: four strides minus the core width
/// it starts inside.
pub const EXPRESS_LEN: f64 = EXPRESS_SKIP as f64 * STRIDE - (CORE - 1) as f64;

/// A metro network specification: lattice dimensions plus the seed that
/// fixes every jittered cost. Equal specs generate bit-identical graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetroSpec {
    /// Cities along the x axis.
    pub cities_x: usize,
    /// Cities along the y axis.
    pub cities_y: usize,
    /// Seed for the cost jitter.
    pub seed: u64,
}

impl MetroSpec {
    /// A `cities_x × cities_y` lattice.
    pub fn new(cities_x: usize, cities_y: usize, seed: u64) -> Self {
        MetroSpec {
            cities_x,
            cities_y,
            seed,
        }
    }

    /// Picks lattice dimensions for roughly `target` nodes: the smallest
    /// near-square lattice whose `256 · cities` meets the target.
    ///
    /// `1_000 → 2×2` (1024 nodes), `10_000 → 7×6` (10 752),
    /// `100_000 → 20×20` (102 400), `1_000_000 → 63×63` (1 016 064).
    pub fn with_nodes(target: usize, seed: u64) -> Self {
        let cities = target.div_ceil(CITY_NODES).max(4);
        let cy = ((cities as f64).sqrt().round() as usize).max(2);
        let cx = cities.div_ceil(cy).max(2);
        MetroSpec::new(cx, cy, seed)
    }

    /// Total node count of the generated network.
    pub fn node_count(&self) -> usize {
        self.cities_x * self.cities_y * CITY_NODES
    }

    /// Whether the skip-4 express tier is present along each axis.
    pub fn express(&self) -> (bool, bool) {
        (
            self.cities_x >= EXPRESS_MIN_CITIES,
            self.cities_y >= EXPRESS_MIN_CITIES,
        )
    }
}

/// Benchmark query pairs over a metro network.
///
/// At metro scale a full-diagonal Dijkstra is intractable inside the
/// paper's full-scan relational engine, so the scaling study reports the
/// two *regional* kinds; `Diagonal` is kept for the estimator-quality
/// experiments on small lattices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetroQuery {
    /// Opposite quadrants of a single city core: pure street routing.
    IntraCity,
    /// Core to core of horizontally adjacent cities: forces one freeway
    /// carriageway plus arterial approach work.
    AdjacentCity,
    /// Corner city to corner city across the whole lattice.
    Diagonal,
}

impl MetroQuery {
    /// Short name of the query kind.
    pub fn label(&self) -> &'static str {
        match self {
            MetroQuery::IntraCity => "intra-city",
            MetroQuery::AdjacentCity => "adjacent-city",
            MetroQuery::Diagonal => "diagonal",
        }
    }

    /// The kinds the scaling study runs at every scale.
    pub const REGIONAL: [MetroQuery; 2] = [MetroQuery::IntraCity, MetroQuery::AdjacentCity];
}

/// A generated metro network: the graph plus the spec that reproduces it.
///
/// ```
/// use atis_graph::{Metro, MetroSpec};
///
/// let metro = Metro::new(MetroSpec::new(2, 2, 1993)).unwrap();
/// assert_eq!(metro.graph().node_count(), 1024);
/// let again = Metro::new(MetroSpec::new(2, 2, 1993)).unwrap();
/// assert_eq!(
///     metro.graph().cost_fingerprint(),
///     again.graph().cost_fingerprint()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Metro {
    graph: Graph,
    spec: MetroSpec,
}

impl Metro {
    /// Generates the network for `spec`.
    ///
    /// # Errors
    /// Fails for a degenerate lattice (fewer than 2 cities on either axis)
    /// or when the node count exceeds the storage layer's 24-bit id space.
    pub fn new(spec: MetroSpec) -> Result<Self, GraphError> {
        if spec.cities_x < 2 {
            return Err(GraphError::DegenerateGrid(spec.cities_x));
        }
        if spec.cities_y < 2 {
            return Err(GraphError::DegenerateGrid(spec.cities_y));
        }
        let n = spec.node_count();
        let mut points = Vec::with_capacity(n);
        for id in 0..n {
            points.push(position(&spec, id as u32));
        }
        let mut b = StreamingGraphBuilder::new(points)?;
        let mut out = Vec::with_capacity(8);
        for id in 0..n as u32 {
            out.clear();
            out_edges(&spec, id, &mut out);
            b.seal_node(&out)?;
        }
        Ok(Metro {
            graph: b.finish()?,
            spec,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The spec this network was generated from.
    pub fn spec(&self) -> &MetroSpec {
        &self.spec
    }

    /// Node id of core cell `(row, col)` in city `(cx, cy)`.
    ///
    /// # Panics
    /// Panics if the city or cell is out of range.
    pub fn node_at(&self, cx: usize, cy: usize, row: usize, col: usize) -> NodeId {
        assert!(
            cx < self.spec.cities_x && cy < self.spec.cities_y,
            "city ({cx},{cy}) outside {}x{} lattice",
            self.spec.cities_x,
            self.spec.cities_y
        );
        assert!(row < CORE && col < CORE, "cell ({row},{col}) outside core");
        let city = cy * self.spec.cities_x + cx;
        NodeId((city * CITY_NODES + row * CORE + col) as u32)
    }

    /// The `(cx, cy)` lattice position of a node's city.
    pub fn city_of(&self, id: NodeId) -> (usize, usize) {
        let city = id.index() / CITY_NODES;
        (city % self.spec.cities_x, city / self.spec.cities_x)
    }

    /// The `(row, col)` core cell of a node.
    pub fn cell_of(&self, id: NodeId) -> (usize, usize) {
        let local = id.index() % CITY_NODES;
        (local / CORE, local % CORE)
    }

    /// The `(source, destination)` pair for a named query kind.
    pub fn query_pair(&self, kind: MetroQuery) -> (NodeId, NodeId) {
        let (cx, cy) = (self.spec.cities_x, self.spec.cities_y);
        match kind {
            MetroQuery::IntraCity => (self.node_at(0, 0, 1, 1), self.node_at(0, 0, 14, 14)),
            MetroQuery::AdjacentCity => (self.node_at(0, 0, 8, 2), self.node_at(1, 0, 8, 13)),
            MetroQuery::Diagonal => (
                self.node_at(0, 0, 0, 0),
                self.node_at(cx - 1, cy - 1, CORE - 1, CORE - 1),
            ),
        }
    }
}

/// Planar position of a node: cities advance by [`STRIDE`], cells by unit
/// steps, so every coordinate is exact in `f64`.
fn position(spec: &MetroSpec, id: u32) -> Point {
    let city = id as usize / CITY_NODES;
    let (cx, cy) = (city % spec.cities_x, city / spec.cities_x);
    let local = id as usize % CITY_NODES;
    let (row, col) = (local / CORE, local % CORE);
    Point::new(
        cx as f64 * STRIDE + col as f64,
        cy as f64 * STRIDE + row as f64,
    )
}

/// Cost jitter for an undirected street/highway segment: a pure function
/// of the seed and the *unordered* endpoint pair, so both directions of a
/// segment always agree and generation order is irrelevant.
fn edge_jitter(seed: u64, a: u32, b: u32) -> f64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let key = ((lo as u64) << 32) | hi as u64;
    SplitMix64::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_f64()
}

fn node_id(spec: &MetroSpec, cx: usize, cy: usize, row: usize, col: usize) -> u32 {
    ((cy * spec.cities_x + cx) * CITY_NODES + row * CORE + col) as u32
}

/// All out-edges of node `id`, appended to `out`. This is the whole
/// network definition: streets, ring, carriageways, express tier.
fn out_edges(spec: &MetroSpec, id: u32, out: &mut Vec<Edge>) {
    let city = id as usize / CITY_NODES;
    let (cx, cy) = (city % spec.cities_x, city / spec.cities_x);
    let local = id as usize % CITY_NODES;
    let (row, col) = (local / CORE, local % CORE);
    let from = NodeId(id);

    // Intra-city four-neighbour streets; perimeter segments form the
    // arterial ring and carry Highway class and jitter.
    let mut street = |r2: usize, c2: usize, ring: bool| {
        let to = node_id(spec, cx, cy, r2, c2);
        let u = edge_jitter(spec.seed, id, to);
        let (class, cost) = if ring {
            (RoadClass::Highway, 1.0 + 0.1 * u)
        } else {
            (RoadClass::Street, 1.0 + 0.3 * u)
        };
        out.push(Edge::new(from, NodeId(to), cost).with_class(class));
    };
    if col > 0 {
        street(row, col - 1, row == 0 || row == CORE - 1);
    }
    if col + 1 < CORE {
        street(row, col + 1, row == 0 || row == CORE - 1);
    }
    if row > 0 {
        street(row - 1, col, col == 0 || col == CORE - 1);
    }
    if row + 1 < CORE {
        street(row + 1, col, col == 0 || col == CORE - 1);
    }

    // Freeway carriageways: cost is exactly the geometric gap, the best
    // cost/length ratio in the network.
    let mut freeway = |cx2: usize, cy2: usize, r2: usize, c2: usize, len: f64| {
        let to = node_id(spec, cx2, cy2, r2, c2);
        out.push(Edge::new(from, NodeId(to), len).with_class(RoadClass::Freeway));
    };
    // Eastbound at row 8, westbound at row 7.
    if row == CORE / 2 && col == CORE - 1 && cx + 1 < spec.cities_x {
        freeway(cx + 1, cy, row, 0, GAP);
    }
    if row == CORE / 2 - 1 && col == 0 && cx > 0 {
        freeway(cx - 1, cy, row, CORE - 1, GAP);
    }
    // Southbound at column 8, northbound at column 7.
    if col == CORE / 2 && row == CORE - 1 && cy + 1 < spec.cities_y {
        freeway(cx, cy + 1, 0, col, GAP);
    }
    if col == CORE / 2 - 1 && row == 0 && cy > 0 {
        freeway(cx, cy - 1, CORE - 1, col, GAP);
    }

    // Express tier: skip-4 carriageways one lane outside the local pair.
    let (ex, ey) = spec.express();
    if ex {
        if row == CORE / 2 + 1 && col == CORE - 1 && cx + EXPRESS_SKIP < spec.cities_x {
            freeway(cx + EXPRESS_SKIP, cy, row, 0, EXPRESS_LEN);
        }
        if row == CORE / 2 - 2 && col == 0 && cx >= EXPRESS_SKIP {
            freeway(cx - EXPRESS_SKIP, cy, row, CORE - 1, EXPRESS_LEN);
        }
    }
    if ey {
        if col == CORE / 2 + 1 && row == CORE - 1 && cy + EXPRESS_SKIP < spec.cities_y {
            freeway(cx, cy + EXPRESS_SKIP, 0, col, EXPRESS_LEN);
        }
        if col == CORE / 2 - 2 && row == 0 && cy >= EXPRESS_SKIP {
            freeway(cx, cy - EXPRESS_SKIP, CORE - 1, col, EXPRESS_LEN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts_match_presets() {
        assert_eq!(MetroSpec::with_nodes(1_000, 0).node_count(), 1024);
        assert_eq!(MetroSpec::with_nodes(10_000, 0).node_count(), 10_752);
        assert_eq!(MetroSpec::with_nodes(100_000, 0).node_count(), 102_400);
        let m = MetroSpec::with_nodes(1_000_000, 0);
        assert!(m.node_count() >= 1_000_000, "{}", m.node_count());
        assert!(m.node_count() < 1_100_000, "{}", m.node_count());
    }

    #[test]
    fn generation_is_bit_deterministic() {
        let a = Metro::new(MetroSpec::new(3, 2, 1993)).unwrap();
        let b = Metro::new(MetroSpec::new(3, 2, 1993)).unwrap();
        assert_eq!(a.graph().cost_fingerprint(), b.graph().cost_fingerprint());
        for (ea, eb) in a.graph().edges().zip(b.graph().edges()) {
            assert_eq!((ea.from, ea.to, ea.class), (eb.from, eb.to, eb.class));
            assert_eq!(ea.cost.to_bits(), eb.cost.to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Metro::new(MetroSpec::new(2, 2, 1)).unwrap();
        let b = Metro::new(MetroSpec::new(2, 2, 2)).unwrap();
        assert_ne!(a.graph().cost_fingerprint(), b.graph().cost_fingerprint());
    }

    #[test]
    fn street_costs_are_symmetric() {
        let m = Metro::new(MetroSpec::new(2, 2, 7)).unwrap();
        for e in m.graph().edges() {
            if e.class != RoadClass::Freeway {
                let back = m.graph().edge_cost(e.to, e.from).unwrap();
                assert_eq!(e.cost, back, "asymmetric ({}, {})", e.from, e.to);
            }
        }
    }

    #[test]
    fn every_edge_is_axis_parallel_and_admissible() {
        let m = Metro::new(MetroSpec::new(3, 3, 42)).unwrap();
        for e in m.graph().edges() {
            let a = m.graph().point(e.from);
            let b = m.graph().point(e.to);
            assert!(
                a.x == b.x || a.y == b.y,
                "edge ({}, {}) is not axis-parallel",
                e.from,
                e.to
            );
            let len = a.manhattan(&b);
            assert!(
                e.cost >= len - 1e-12,
                "edge ({}, {}) cost {} under length {len}",
                e.from,
                e.to,
                e.cost
            );
        }
    }

    #[test]
    fn freeways_come_in_consistent_one_way_pairs() {
        // Every freeway carriageway must have a mirror running the other
        // way one lane over — and never a reverse edge of its own.
        let m = Metro::new(MetroSpec::new(9, 9, 3)).unwrap();
        let g = m.graph();
        let mut count = 0usize;
        for e in g.edges() {
            if e.class != RoadClass::Freeway {
                continue;
            }
            count += 1;
            assert_eq!(g.edge_cost(e.to, e.from), None, "two-way freeway");
            let (fr, fc) = m.cell_of(e.from);
            let (tr, tc) = m.cell_of(e.to);
            let (fcity, tcity) = (m.city_of(e.from), m.city_of(e.to));
            // The mirror swaps the city pair and shifts the lane by one:
            // rows 8↔7 and 9↔6, columns likewise.
            let mirror_lane = |lane: usize| match lane {
                l if l == CORE / 2 => CORE / 2 - 1,
                l if l == CORE / 2 - 1 => CORE / 2,
                l if l == CORE / 2 + 1 => CORE / 2 - 2,
                l if l == CORE / 2 - 2 => CORE / 2 + 1,
                l => panic!("freeway on unexpected lane {l}"),
            };
            // The mirror runs the opposite way one lane over, between the
            // same boundary columns/rows: A(lane,c1) → B(lane,c2) pairs
            // with B(lane',c2) → A(lane',c1).
            let (ms, md) = if fr == tr {
                let lane = mirror_lane(fr);
                (
                    m.node_at(tcity.0, tcity.1, lane, tc),
                    m.node_at(fcity.0, fcity.1, lane, fc),
                )
            } else {
                let lane = mirror_lane(fc);
                (
                    m.node_at(tcity.0, tcity.1, tr, lane),
                    m.node_at(fcity.0, fcity.1, fr, lane),
                )
            };
            assert_eq!(
                g.edge_cost(ms, md),
                Some(e.cost),
                "freeway ({}, {}) has no mirror carriageway",
                e.from,
                e.to
            );
        }
        assert!(count > 0, "no freeways generated");
    }

    #[test]
    fn express_tier_appears_only_on_wide_lattices() {
        let small = Metro::new(MetroSpec::new(4, 4, 0)).unwrap();
        let wide = Metro::new(MetroSpec::new(8, 8, 0)).unwrap();
        let longest = |m: &Metro| {
            m.graph()
                .edges()
                .filter(|e| e.class == RoadClass::Freeway)
                .map(|e| e.cost)
                .fold(0.0f64, f64::max)
        };
        assert_eq!(longest(&small), GAP);
        assert_eq!(longest(&wide), EXPRESS_LEN);
    }

    #[test]
    fn query_pairs_sit_where_documented() {
        let m = Metro::new(MetroSpec::new(2, 2, 0)).unwrap();
        let (s, d) = m.query_pair(MetroQuery::IntraCity);
        assert_eq!(m.city_of(s), m.city_of(d));
        let (s, d) = m.query_pair(MetroQuery::AdjacentCity);
        assert_eq!(m.city_of(s), (0, 0));
        assert_eq!(m.city_of(d), (1, 0));
        let (s, d) = m.query_pair(MetroQuery::Diagonal);
        assert_eq!(s, NodeId(0));
        assert_eq!(d.index(), m.graph().node_count() - 1);
    }

    #[test]
    fn cell_and_city_roundtrip() {
        let m = Metro::new(MetroSpec::new(3, 2, 0)).unwrap();
        for cy in 0..2 {
            for cx in 0..3 {
                for r in [0usize, 7, 15] {
                    for c in [0usize, 8, 15] {
                        let id = m.node_at(cx, cy, r, c);
                        assert_eq!(m.city_of(id), (cx, cy));
                        assert_eq!(m.cell_of(id), (r, c));
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_lattice() {
        assert!(Metro::new(MetroSpec::new(1, 2, 0)).is_err());
        assert!(Metro::new(MetroSpec::new(2, 0, 0)).is_err());
    }
}

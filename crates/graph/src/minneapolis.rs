//! A deterministic synthetic stand-in for the paper's Minneapolis road map.
//!
//! The original data — "1089 nodes and 3300 edges that represented highway
//! and freeway segments for a 20-square-mile section of the Minneapolis
//! area" (Section 5.2), digitised from imagery — was never published. This
//! generator reproduces every *structural* feature the paper attributes its
//! observations to:
//!
//! * a **denser downtown core** in the centre whose street grid "is not
//!   parallel to the x or y axis" (we rotate and compress the lattice inside
//!   a central disc);
//! * **grid-like outlying areas** (a jittered lattice, randomly thinned so
//!   the road network is not a complete grid);
//! * **lakes in the lower-left corner** (two discs whose road segments are
//!   removed);
//! * the **Mississippi river flowing north to southeast in the upper-right
//!   quadrant** (segments crossing the river line are removed except at
//!   three bridges);
//! * **one-way freeway segments** which "made the resulting graph directed";
//! * **distance edge costs** ("we used only the distance between edges as
//!   the edge cost") plus per-segment speed and occupancy attributes.
//!
//! The four query pairs of Table 8 are placed with the same geometry as the
//! paper's: `A→B` and `C→D` are long diagonals across downtown (A→B runs
//! *against* the rotated downtown grid, C→D nearly parallel to it), while
//! `G→D` and `E→F` are short local trips.

use crate::edge::{Edge, RoadClass};
use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder};
use crate::node::{NodeId, Point};
use crate::rng::SplitMix64;

/// Lattice dimension: 33 × 33 = 1089 nodes, the paper's node count.
pub const LATTICE: usize = 33;

/// Radius of the rotated, compressed downtown disc.
const DOWNTOWN_RADIUS: f64 = 7.0;
/// Maximum rotation of the downtown grid, in radians (≈ −34°; the sign
/// orients the rotated core so the A→B diagonal runs *against* the
/// downtown slope, as the paper describes, while C→D runs nearly parallel
/// to it).
const DOWNTOWN_TWIST: f64 = -0.6;
/// Positional jitter applied outside downtown.
const JITTER: f64 = 0.2;
/// Probability of dropping an outskirt road segment (the real network is
/// sparser than a complete lattice). Tuned so the directed edge count lands
/// near the paper's ≈3300.
const THINNING: f64 = 0.15;
/// Lake discs in the lower-left corner: (centre x, centre y, radius).
const LAKES: [(f64, f64, f64); 2] = [(6.0, 6.5, 2.6), (10.5, 3.5, 1.8)];
/// The river is the line `x + y = RIVER_LEVEL` inside the upper-right
/// region `x ≥ 19 ∧ y ≥ 19` (cell coordinates).
const RIVER_LEVEL: f64 = 52.0;
/// Bridge positions along the river, as values of `x − y`; crossings within
/// `±1` of a bridge survive.
const BRIDGES: [f64; 3] = [-8.0, 0.0, 8.0];

/// The four query pairs of Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedPair {
    /// Long diagonal, bottom-left to top-right, against the downtown slope.
    AtoB,
    /// Long diagonal, top-left to bottom-right, roughly parallel to the
    /// downtown grid.
    CtoD,
    /// Short trip ending at D ("The path from D to G required only 17
    /// iterations for the optimal A* algorithm").
    GtoD,
    /// The second short trip.
    EtoF,
}

impl NamedPair {
    /// Column label of Table 8.
    pub fn label(&self) -> &'static str {
        match self {
            NamedPair::AtoB => "A to B",
            NamedPair::CtoD => "C to D",
            NamedPair::GtoD => "G to D",
            NamedPair::EtoF => "E to F",
        }
    }

    /// All four pairs in Table 8 column order.
    pub const ALL: [NamedPair; 4] = [
        NamedPair::AtoB,
        NamedPair::CtoD,
        NamedPair::GtoD,
        NamedPair::EtoF,
    ];
}

/// The synthetic Minneapolis road map.
///
/// ```
/// use atis_graph::{Minneapolis, NamedPair};
///
/// let m = Minneapolis::paper();
/// assert_eq!(m.graph().node_count(), 1089); // the paper's node count
/// let (a, b) = m.query_pair(NamedPair::AtoB);
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct Minneapolis {
    graph: Graph,
    landmarks: [(char, NodeId); 7],
}

impl Minneapolis {
    /// Generates the map from a seed. The paper's experiments use the
    /// default seed exposed by [`Minneapolis::paper`].
    pub fn new(seed: u64) -> Result<Self, GraphError> {
        Generator::new(seed).build()
    }

    /// The canonical instance used by every experiment in this repository
    /// (seed 1993, the paper's publication year).
    #[expect(
        clippy::expect_used,
        reason = "a fixed seed: the test suite builds this instance on every run"
    )]
    pub fn paper() -> Self {
        Minneapolis::new(1993).expect("canonical Minneapolis instance must build")
    }

    /// The road graph: 1089 nodes, ≈3300 directed edges, distance costs.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The labelled landmark nodes A–G (Figure 8).
    pub fn landmarks(&self) -> &[(char, NodeId)] {
        &self.landmarks
    }

    /// The node for a landmark letter.
    ///
    /// # Panics
    /// Panics for letters outside `A..=G`.
    #[expect(
        clippy::panic,
        reason = "documented: a letter outside A..=G is a caller bug"
    )]
    pub fn landmark(&self, letter: char) -> NodeId {
        self.landmarks
            .iter()
            .find(|(l, _)| *l == letter)
            .map(|(_, n)| *n)
            .unwrap_or_else(|| panic!("no landmark '{letter}'"))
    }

    /// `(source, destination)` for one of Table 8's query pairs.
    pub fn query_pair(&self, pair: NamedPair) -> (NodeId, NodeId) {
        match pair {
            NamedPair::AtoB => (self.landmark('A'), self.landmark('B')),
            NamedPair::CtoD => (self.landmark('C'), self.landmark('D')),
            NamedPair::GtoD => (self.landmark('G'), self.landmark('D')),
            NamedPair::EtoF => (self.landmark('E'), self.landmark('F')),
        }
    }
}

/// Internal generator state.
struct Generator {
    rng: SplitMix64,
    seed: u64,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            rng: SplitMix64::new(seed),
            seed,
        }
    }

    fn build(mut self) -> Result<Minneapolis, GraphError> {
        let k = LATTICE;
        let centre = (k as f64 - 1.0) / 2.0;
        let mut jitter_rng = self.rng.fork();
        let mut thin_rng = self.rng.fork();
        let mut occ_rng = self.rng.fork();

        // --- node positions -------------------------------------------------
        let mut points = Vec::with_capacity(k * k);
        for r in 0..k {
            for c in 0..k {
                let (x0, y0) = (c as f64, r as f64);
                let dx = x0 - centre;
                let dy = y0 - centre;
                let dist = (dx * dx + dy * dy).sqrt();
                let p = if dist < DOWNTOWN_RADIUS {
                    // Rotate and compress towards the centre: the downtown
                    // grid ends up denser and not axis-parallel.
                    let t = 1.0 - dist / DOWNTOWN_RADIUS;
                    let theta = DOWNTOWN_TWIST * t;
                    let scale = 1.0 - 0.3 * t;
                    let (sin, cos) = theta.sin_cos();
                    Point::new(
                        centre + scale * (dx * cos - dy * sin),
                        centre + scale * (dx * sin + dy * cos),
                    )
                } else {
                    Point::new(
                        x0 + jitter_rng.next_range(-JITTER, JITTER),
                        y0 + jitter_rng.next_range(-JITTER, JITTER),
                    )
                };
                points.push(p);
            }
        }

        let id = |r: usize, c: usize| NodeId((r * k + c) as u32);
        let in_lake = |p: Point| {
            LAKES.iter().any(|&(lx, ly, lr)| {
                let dx = p.x - lx;
                let dy = p.y - ly;
                dx * dx + dy * dy < lr * lr
            })
        };
        let downtown = |r: usize, c: usize| {
            let dx = c as f64 - centre;
            let dy = r as f64 - centre;
            (dx * dx + dy * dy).sqrt() < DOWNTOWN_RADIUS
        };
        // River crossing test in cell coordinates.
        let crosses_river = |(r1, c1): (usize, usize), (r2, c2): (usize, usize)| {
            let region = c1.min(c2) >= 19 && r1.min(r2) >= 19;
            if !region {
                return false;
            }
            let s1 = (c1 + r1) as f64;
            let s2 = (c2 + r2) as f64;
            let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
            if !(lo < RIVER_LEVEL && hi >= RIVER_LEVEL) {
                return false;
            }
            // Keep the crossing if it is at a bridge.
            let diff = (c1 as f64 + c2 as f64 - r1 as f64 - r2 as f64) / 2.0;
            !BRIDGES.iter().any(|b| (diff - b).abs() <= 1.0)
        };

        // --- edges -----------------------------------------------------------
        let mut b = GraphBuilder::with_capacity(k * k, 4 * k * (k - 1));
        for &p in &points {
            b.add_node(p);
        }

        // Freeway corridors through downtown: two one-way pairs. Row 16
        // carries eastbound traffic, row 17 westbound; column 16 northbound,
        // column 15 southbound.
        const FWY_EAST_ROW: usize = 16;
        const FWY_WEST_ROW: usize = 17;
        const FWY_NORTH_COL: usize = 16;
        const FWY_SOUTH_COL: usize = 15;

        let add_segment = |b: &mut GraphBuilder,
                           (r1, c1): (usize, usize),
                           (r2, c2): (usize, usize),
                           thin_rng: &mut SplitMix64,
                           occ_rng: &mut SplitMix64| {
            let (a_id, b_id) = (id(r1, c1), id(r2, c2));
            let (pa, pb) = (points[a_id.index()], points[b_id.index()]);
            // Lakes swallow segments.
            if in_lake(pa) || in_lake(pb) {
                return;
            }
            // The river swallows non-bridge crossings.
            if crosses_river((r1, c1), (r2, c2)) {
                return;
            }
            let horizontal = r1 == r2;
            let freeway = (horizontal && (r1 == FWY_EAST_ROW || r1 == FWY_WEST_ROW))
                || (!horizontal && (c1 == FWY_NORTH_COL || c1 == FWY_SOUTH_COL));
            let dt = downtown(r1, c1) || downtown(r2, c2);
            // Thin the outskirts: real road networks are not complete grids.
            if !freeway && !dt && thin_rng.next_f64() < THINNING {
                return;
            }
            let cost = pa.euclidean(&pb);
            let occupancy = if dt {
                occ_rng.next_range(0.4, 0.9)
            } else {
                occ_rng.next_range(0.0, 0.3)
            };
            if freeway {
                // One-way: pick the canonical direction for the corridor.
                let edge = if horizontal {
                    if r1 == FWY_EAST_ROW {
                        // eastbound: increasing column
                        let (f, t) = if c1 < c2 { (a_id, b_id) } else { (b_id, a_id) };
                        Edge::new(f, t, cost)
                    } else {
                        let (f, t) = if c1 > c2 { (a_id, b_id) } else { (b_id, a_id) };
                        Edge::new(f, t, cost)
                    }
                } else if c1 == FWY_NORTH_COL {
                    let (f, t) = if r1 < r2 { (a_id, b_id) } else { (b_id, a_id) };
                    Edge::new(f, t, cost)
                } else {
                    let (f, t) = if r1 > r2 { (a_id, b_id) } else { (b_id, a_id) };
                    Edge::new(f, t, cost)
                };
                b.add_edge(
                    edge.with_class(RoadClass::Freeway)
                        .with_occupancy(occupancy * 0.5),
                );
            } else {
                let class = if dt {
                    RoadClass::Street
                } else {
                    RoadClass::Highway
                };
                b.add_undirected_edge(
                    Edge::new(a_id, b_id, cost)
                        .with_class(class)
                        .with_occupancy(occupancy),
                );
            }
        };

        for r in 0..k {
            for c in 0..k {
                if c + 1 < k {
                    add_segment(&mut b, (r, c), (r, c + 1), &mut thin_rng, &mut occ_rng);
                }
                if r + 1 < k {
                    add_segment(&mut b, (r, c), (r + 1, c), &mut thin_rng, &mut occ_rng);
                }
            }
        }

        let graph = b.build()?;

        // --- landmarks -------------------------------------------------------
        // Restrict to the mutually reachable core so every Table 8 query has
        // a path in both directions.
        let root = id(k / 2, k / 2);
        let core = mutually_reachable_core(&graph, root);
        let targets = [
            ('A', Point::new(3.0, 3.0)),   // bottom-left
            ('B', Point::new(30.0, 30.0)), // top-right, across the river
            ('C', Point::new(2.0, 30.0)),  // top-left
            ('D', Point::new(30.0, 3.0)),  // bottom-right
            ('G', Point::new(23.0, 7.0)),  // short hop from D
            ('E', Point::new(8.0, 21.0)),  // mid west
            ('F', Point::new(14.0, 27.0)), // mid north
        ];
        let mut landmarks = [('?', NodeId(0)); 7];
        for (slot, (letter, target)) in targets.iter().enumerate() {
            let best = graph
                .node_ids()
                .filter(|n| core[n.index()])
                .min_by(|a, b| {
                    let da = graph.point(*a).euclidean(target);
                    let db = graph.point(*b).euclidean(target);
                    da.total_cmp(&db)
                })
                .unwrap_or(root); // never taken: the root is in its own core
            landmarks[slot] = (*letter, best);
        }

        let _ = self.seed; // seed fully consumed through the forked streams
        Ok(Minneapolis { graph, landmarks })
    }
}

/// Nodes that can both reach `root` and be reached from it.
fn mutually_reachable_core(graph: &Graph, root: NodeId) -> Vec<bool> {
    let n = graph.node_count();
    let forward = bfs_reach(n, root, |u| graph.neighbors(u).iter().map(|e| e.to));
    // Build reverse adjacency once for the backward sweep.
    let mut rev: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for e in graph.edges() {
        rev[e.to.index()].push(e.from);
    }
    let backward = bfs_reach(n, root, |u| rev[u.index()].iter().copied());
    forward
        .iter()
        .zip(backward.iter())
        .map(|(&f, &b)| f && b)
        .collect()
}

fn bfs_reach<I>(n: usize, root: NodeId, mut succ: impl FnMut(NodeId) -> I) -> Vec<bool>
where
    I: Iterator<Item = NodeId>,
{
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[root.index()] = true;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for v in succ(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_matches_paper() {
        let m = Minneapolis::paper();
        assert_eq!(m.graph().node_count(), 1089);
    }

    #[test]
    fn edge_count_is_near_paper() {
        let m = Minneapolis::paper();
        let e = m.graph().edge_count();
        assert!(
            (3000..=3700).contains(&e),
            "directed edge count {e} too far from the paper's ~3300"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Minneapolis::new(7).unwrap();
        let b = Minneapolis::new(7).unwrap();
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        for (ea, eb) in a.graph().edges().zip(b.graph().edges()) {
            assert_eq!((ea.from, ea.to), (eb.from, eb.to));
            assert_eq!(ea.cost, eb.cost);
        }
        assert_eq!(a.landmarks(), b.landmarks());
    }

    #[test]
    fn graph_is_directed_thanks_to_freeways() {
        let m = Minneapolis::paper();
        let one_way = m
            .graph()
            .edges()
            .filter(|e| m.graph().edge_cost(e.to, e.from).is_none())
            .count();
        assert!(one_way > 0, "expected one-way freeway segments");
    }

    #[test]
    fn freeway_edges_exist_and_are_classified() {
        let m = Minneapolis::paper();
        let freeways = m
            .graph()
            .edges()
            .filter(|e| e.class == RoadClass::Freeway)
            .count();
        assert!(freeways >= 50, "only {freeways} freeway edges");
    }

    #[test]
    fn costs_are_euclidean_distances() {
        let m = Minneapolis::paper();
        for e in m.graph().edges().take(200) {
            let d = m.graph().point(e.from).euclidean(&m.graph().point(e.to));
            assert!((e.cost - d).abs() < 1e-9);
        }
    }

    #[test]
    fn landmarks_are_distinct_and_in_core() {
        let m = Minneapolis::paper();
        let mut ids: Vec<NodeId> = m.landmarks().iter().map(|(_, n)| *n).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 7, "landmarks must be distinct nodes");
    }

    #[test]
    fn query_pairs_resolve() {
        let m = Minneapolis::paper();
        for p in NamedPair::ALL {
            let (s, d) = m.query_pair(p);
            assert_ne!(s, d, "{} endpoints coincide", p.label());
        }
    }

    #[test]
    fn long_pairs_are_longer_than_short_pairs() {
        let m = Minneapolis::paper();
        let dist = |p: NamedPair| {
            let (s, d) = m.query_pair(p);
            m.graph().point(s).euclidean(&m.graph().point(d))
        };
        assert!(dist(NamedPair::AtoB) > 2.0 * dist(NamedPair::GtoD));
        assert!(dist(NamedPair::CtoD) > 2.0 * dist(NamedPair::EtoF));
    }

    #[test]
    fn lakes_swallow_roads() {
        let m = Minneapolis::paper();
        for e in m.graph().edges() {
            for &(lx, ly, lr) in &LAKES {
                let p = m.graph().point(e.from);
                let dx = p.x - lx;
                let dy = p.y - ly;
                assert!(
                    dx * dx + dy * dy >= lr * lr * 0.99,
                    "edge endpoint inside a lake at ({}, {})",
                    p.x,
                    p.y
                );
            }
        }
    }

    #[test]
    fn river_is_crossed_only_at_bridges() {
        let m = Minneapolis::paper();
        let k = LATTICE;
        let mut crossings = 0;
        for e in m.graph().edges() {
            let (r1, c1) = (e.from.index() / k, e.from.index() % k);
            let (r2, c2) = (e.to.index() / k, e.to.index() % k);
            if c1.min(c2) >= 19 && r1.min(r2) >= 19 {
                let s1 = (c1 + r1) as f64;
                let s2 = (c2 + r2) as f64;
                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
                if lo < RIVER_LEVEL && hi >= RIVER_LEVEL {
                    crossings += 1;
                    let diff = (c1 as f64 + c2 as f64 - r1 as f64 - r2 as f64) / 2.0;
                    assert!(
                        BRIDGES.iter().any(|b| (diff - b).abs() <= 1.0),
                        "non-bridge river crossing at diff {diff}"
                    );
                }
            }
        }
        assert!(crossings > 0, "bridges should exist");
    }
}

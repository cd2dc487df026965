//! Partition-seeded nested-dissection node ordering.
//!
//! Contraction order decides everything about a hierarchy's quality: the
//! overlay's fill-in (how many shortcut arcs the chordal completion
//! needs) and the depth of the upward searches both follow from it. The
//! recipe is nested dissection — recursively split the graph on a small
//! separator and rank the separator *above* both halves, so no search
//! path re-enters a part it has left — run as **one recursion, top-down,
//! over the whole graph**.
//!
//! *Above one region* the working set is a list of [`PartitionMap`]
//! region ids. The storage layout's BFS-grown 256-node regions are the
//! "cities" of the metro networks, joined by a handful of one-way
//! freeway links, so a line between two groups of regions already is a
//! small cut and no flow computation is needed to find one: the regions
//! are sorted by centroid along the wider axis of their bounding box,
//! the list is halved, and the separator is the low half's nodes that
//! share an edge with the high half. Nodes are never sorted above a
//! region, so each upper level costs one pass over its edges. *At one
//! region* the same split runs on the region's nodes by coordinate.
//!
//! A node taken by a separator is `ranked` and invisible to every level
//! below. Adjacency is tested in **either direction**: a one-way street
//! out of the high half joins the halves as surely as one into it, and a
//! separator that ignores it leaves them connected.
//!
//! The order is a pure function of the graph (coordinates, edges,
//! partition), with all ties broken by id — equal graphs yield equal
//! hierarchies, which the bit-determinism tests pin.

use atis_graph::{Graph, NodeId, PartitionMap, Point};

/// Recursion cutoff: node sets this small are ordered by id directly.
const LEAF_SIZE: usize = 8;

/// Computes the contraction order: `order[rank] = node id`, lowest rank
/// (contracted first) at index 0.
pub(crate) fn nested_dissection_order(graph: &Graph, partition: &PartitionMap) -> Vec<u32> {
    dissect(graph, partition, |_, _, _| {})
}

/// The recursion behind [`nested_dissection_order`]. `on_split(low,
/// high, separator)` is told every split made: the two halves as node
/// lists and the nodes of `low` ranked above both.
fn dissect(
    graph: &Graph,
    partition: &PartitionMap,
    on_split: impl FnMut(&[u32], &[u32], &[u32]),
) -> Vec<u32> {
    let n = graph.node_count();
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); partition.region_count()];
    for id in 0..n as u32 {
        members[partition.region_of(NodeId(id)) as usize].push(id);
    }
    let centroids = members
        .iter()
        .map(|nodes| {
            let (x, y) = nodes.iter().fold((0.0, 0.0), |(x, y), &id| {
                let p = graph.point(NodeId(id));
                (x + p.x, y + p.y)
            });
            Point::new(x / nodes.len() as f64, y / nodes.len() as f64)
        })
        .collect();
    let mut dissection = Dissection {
        graph,
        members,
        centroids,
        ranked: vec![false; n],
        mark: vec![0; n],
        generation: 0,
        order: Vec::with_capacity(n),
        on_split,
    };
    let regions: Vec<u32> = (0..partition.region_count() as u32).collect();
    dissection.regions(&regions);
    debug_assert_eq!(dissection.order.len(), n, "ordering must cover every node");
    dissection.order
}

/// Reorders `set` (two ids or more) so that its lower half along the
/// wider axis of its bounding box, ties by id, comes first; the caller
/// splits at `len / 2`. A median selection, not a sort: the halves are
/// sets, and what follows reads them as sets.
fn halved_on_wider_axis(set: &[u32], point: impl Fn(u32) -> Point) -> Vec<u32> {
    let (mut min, mut max) = (point(set[0]), point(set[0]));
    for p in set.iter().map(|&id| point(id)) {
        min = Point::new(min.x.min(p.x), min.y.min(p.y));
        max = Point::new(max.x.max(p.x), max.y.max(p.y));
    }
    let use_x = max.x - min.x >= max.y - min.y;
    let key = |p: Point| if use_x { p.x } else { p.y };
    let mut keyed: Vec<(f64, u32)> = set.iter().map(|&id| (key(point(id)), id)).collect();
    keyed.select_nth_unstable_by(set.len() / 2, |a, b| {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
    });
    keyed.into_iter().map(|(_, id)| id).collect()
}

/// State of the one recursion. `mark` is generation-stamped so every
/// split shares it without clearing.
struct Dissection<'a, F> {
    graph: &'a Graph,
    /// Node ids of each partition region, ascending.
    members: Vec<Vec<u32>>,
    /// Mean coordinate of each region's members.
    centroids: Vec<Point>,
    /// Nodes some separator has taken; no lower level sees them.
    ranked: Vec<bool>,
    mark: Vec<u64>,
    generation: u64,
    order: Vec<u32>,
    on_split: F,
}

impl<F: FnMut(&[u32], &[u32], &[u32])> Dissection<'_, F> {
    /// Appends the not-yet-ranked nodes of the regions in `set`.
    fn regions(&mut self, set: &[u32]) {
        if set.len() <= 1 {
            let nodes = self.unranked(set);
            self.nodes(&nodes);
            return;
        }
        let halved = halved_on_wider_axis(set, |r| self.centroids[r as usize]);
        let (low, high) = halved.split_at(halved.len() / 2);
        let separator = self.separate(&self.unranked(low), &self.unranked(high));
        self.regions(low);
        self.regions(high);
        self.order.extend_from_slice(&separator);
    }

    /// Appends the nodes of `set`, all of one region and none ranked.
    fn nodes(&mut self, set: &[u32]) {
        if set.len() <= LEAF_SIZE {
            let at = self.order.len();
            self.order.extend_from_slice(set);
            self.order[at..].sort_unstable();
            return;
        }
        let halved = halved_on_wider_axis(set, |id| self.graph.point(NodeId(id)));
        let (low, high) = halved.split_at(halved.len() / 2);
        let separator = self.separate(low, high);
        let mut rest = low.to_vec();
        rest.retain(|&id| !self.ranked[id as usize]);
        self.nodes(&rest);
        self.nodes(high);
        self.order.extend_from_slice(&separator);
    }

    fn unranked(&self, regions: &[u32]) -> Vec<u32> {
        let nodes = regions.iter().flat_map(|&r| &self.members[r as usize]);
        nodes
            .copied()
            .filter(|&id| !self.ranked[id as usize])
            .collect()
    }

    /// One-sided vertex separator: the nodes of `low` that share an edge,
    /// in either direction, with a node of `high`. Removing them
    /// disconnects the halves, so ranking them above both keeps the
    /// dissection invariant. Marks them ranked; returns them in id order.
    fn separate(&mut self, low: &[u32], high: &[u32]) -> Vec<u32> {
        // Two stamps per split: `member` on the high half, `target` on
        // whatever else an edge out of the high half reaches.
        let (member, target) = (self.generation + 1, self.generation + 2);
        self.generation = target;
        for &id in high {
            self.mark[id as usize] = member;
        }
        for &id in high {
            for e in self.graph.neighbors(NodeId(id)) {
                if self.mark[e.to.index()] != member {
                    self.mark[e.to.index()] = target;
                }
            }
        }
        let mut separator = low.to_vec();
        separator.retain(|&id| {
            let out = self.graph.neighbors(NodeId(id));
            self.mark[id as usize] == target
                || out.iter().any(|e| self.mark[e.to.index()] == member)
        });
        separator.sort_unstable();
        for &id in &separator {
            self.ranked[id as usize] = true;
        }
        (self.on_split)(low, high, &separator);
        separator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{CostModel, GraphBuilder, Grid, Metro, MetroSpec, Minneapolis, RadialCity};

    fn metro(cities_x: usize, cities_y: usize, seed: u64) -> Graph {
        let metro = Metro::new(MetroSpec::new(cities_x, cities_y, seed)).unwrap();
        metro.graph().clone()
    }

    /// `points` joined by `arcs`, every cost 1.
    fn hand_built(points: &[(f64, f64)], arcs: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new();
        for &(x, y) in points {
            b.add_node(Point::new(x, y));
        }
        for &(from, to) in arcs {
            b.add_arc(NodeId(from), NodeId(to), 1.0);
        }
        b.build().unwrap()
    }

    /// Where the nodes of a `columns`-long ladder sit: node `2c + r` at
    /// `(c, r)`.
    fn ladder_points(columns: u32) -> Vec<(f64, f64)> {
        let at = |id: u32| ((id / 2) as f64, (id % 2) as f64);
        (0..2 * columns).map(at).collect()
    }

    /// The ladder's rungs and rails, every one two-way. Regions of two
    /// nodes are its columns.
    fn ladder_arcs(columns: u32) -> Vec<(u32, u32)> {
        let mut arcs = Vec::new();
        for c in 0..columns {
            arcs.extend([(2 * c, 2 * c + 1), (2 * c + 1, 2 * c)]);
            for id in [2 * c, 2 * c + 1].into_iter().filter(|_| c + 1 < columns) {
                arcs.extend([(id, id + 2), (id + 2, id)]);
            }
        }
        arcs
    }

    /// `graph` with the reverse of every one-way edge added.
    fn symmetrised(graph: &Graph) -> Graph {
        let mut b = GraphBuilder::new();
        for id in graph.node_ids() {
            b.add_node(graph.point(id));
        }
        for e in graph.edges() {
            b.add_edge(*e);
            if graph.edge(e.to, e.from).is_none() {
                b.add_arc(e.to, e.from, e.cost);
            }
        }
        b.build().unwrap()
    }

    /// Orders `graph` under regions of `region_target` nodes, checking on
    /// the way that every separator separates — no edge, in either
    /// direction, joins `low` minus the separator to `high` — and at the
    /// end that every node was ranked once.
    fn checked_order(graph: &Graph, region_target: usize, name: &str) -> Vec<u32> {
        const LOW: u8 = 1;
        const HIGH: u8 = 2;
        let partition = PartitionMap::build(graph, region_target);
        let mut side = vec![0u8; graph.node_count()];
        let mut splits = 0;
        let order = dissect(graph, &partition, |low, high, separator| {
            splits += 1;
            for &id in low {
                side[id as usize] = LOW;
            }
            for &id in separator {
                assert_eq!(
                    side[id as usize], LOW,
                    "{name}: separator node {id} outside low"
                );
                side[id as usize] = 0;
            }
            for &id in high {
                assert_eq!(side[id as usize], 0, "{name}: node {id} on both sides");
                side[id as usize] = HIGH;
            }
            for &id in low.iter().chain(high) {
                for e in graph.neighbors(NodeId(id)) {
                    let (from, to) = (side[e.from.index()], side[e.to.index()]);
                    assert!(
                        from == 0 || to == 0 || from == to,
                        "{name}: edge {} -> {} crosses a split past its separator",
                        e.from.0,
                        e.to.0
                    );
                }
            }
            for &id in low.iter().chain(high) {
                side[id as usize] = 0;
            }
        });
        assert!(
            splits > 0 || graph.node_count() <= LEAF_SIZE,
            "{name}: never split"
        );
        assert_eq!(order, nested_dissection_order(graph, &partition), "{name}");
        let mut seen = vec![false; graph.node_count()];
        for &id in &order {
            assert!(!seen[id as usize], "{name}: node {id} ranked twice");
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{name}: a node was never ranked");
        order
    }

    #[test]
    fn order_is_a_permutation() {
        checked_order(&metro(3, 2, 1993), 256, "metro 3x2");
    }

    #[test]
    fn order_is_deterministic() {
        let g = metro(2, 2, 7);
        let p = PartitionMap::build(&g, 256);
        let a = nested_dissection_order(&g, &p);
        let b = nested_dissection_order(&g, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn separators_separate() {
        checked_order(&metro(3, 2, 1993), 256, "metro 3x2");
        checked_order(&metro(7, 6, 1993), 256, "metro 7x6");
        let grid = Grid::new(8, CostModel::Uniform, 0).unwrap();
        checked_order(grid.graph(), 16, "grid 8");
        let radial = RadialCity::new(8, 16, 0.2, 7).unwrap();
        checked_order(radial.graph(), 32, "radial");
        checked_order(Minneapolis::paper().graph(), 256, "minneapolis");
        // Two components: a ladder and, far to its right, a one-way ring.
        let (mut points, mut arcs) = (ladder_points(12), ladder_arcs(12));
        points.extend((0..12).map(|k| (100.0 + (k % 6) as f64, (k / 6) as f64)));
        arcs.extend((0..12).map(|k| (24 + k, 24 + (k + 1) % 12)));
        checked_order(&hand_built(&points, &arcs), 4, "two components");
    }

    #[test]
    fn edge_cases_order_every_node() {
        // Regions are the ladder's columns, and a column next to a cut
        // goes into the separator whole: nothing of it is left below.
        let arcs = ladder_arcs(8);
        let ladder = hand_built(&ladder_points(8), &arcs);
        let order = checked_order(&ladder, 2, "an emptied region");
        assert_eq!(order[14..], [6, 7], "column 3 is the top separator");
        // Every centroid (and every node) at one point: ids break the ties.
        let stacked = hand_built(&[(0.0, 0.0); 16], &arcs);
        checked_order(&stacked, 4, "identical centroids");
        // One node per region: the region levels go all the way down.
        let small = Grid::new(5, CostModel::Uniform, 0).unwrap();
        checked_order(small.graph(), 1, "region_target 1");
    }

    #[test]
    fn grid_order_works_without_cut_edges() {
        // A single-region graph has no upper levels; the whole order is
        // one node-level dissection.
        let grid = Grid::new(8, CostModel::Uniform, 0).unwrap();
        checked_order(grid.graph(), 256, "one region");
    }

    /// Size of a minimum vertex cut between the `source` and `sink` node
    /// sets, adjacency read in either direction as `separate` reads it
    /// (Menger): a unit-capacity max flow over the split graph, where
    /// node `v` is `2v` in and `2v + 1` out, a node outside the terminals
    /// has a unit `in -> out` arc, and every edge an unbounded
    /// `out -> in` arc each way. Grown one BFS augmenting path at a time.
    fn min_vertex_cut(graph: &Graph, source: &[bool], sink: &[bool]) -> usize {
        const UNBOUNDED: u32 = u32::MAX;
        let n = graph.node_count();
        let (s, t) = (2 * n, 2 * n + 1);
        let (mut head, mut cap) = (Vec::new(), Vec::new());
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); 2 * n + 2];
        // Arc `a` and its residual twin `a ^ 1`.
        let mut arc = |from: usize, to: usize, c: u32| {
            for (tail, tip, c) in [(from, to, c), (to, from, 0)] {
                out[tail].push(head.len());
                head.push(tip);
                cap.push(c);
            }
        };
        for v in 0..n {
            let terminal = source[v] || sink[v];
            arc(2 * v, 2 * v + 1, if terminal { UNBOUNDED } else { 1 });
            if source[v] {
                arc(s, 2 * v, UNBOUNDED);
            }
            if sink[v] {
                arc(2 * v + 1, t, UNBOUNDED);
            }
        }
        for e in graph.edges() {
            arc(2 * e.from.index() + 1, 2 * e.to.index(), UNBOUNDED);
            arc(2 * e.to.index() + 1, 2 * e.from.index(), UNBOUNDED);
        }
        let mut via = vec![usize::MAX; 2 * n + 2];
        for flow in 0.. {
            via.fill(usize::MAX);
            let mut queue = std::collections::VecDeque::from([s]);
            'search: while let Some(u) = queue.pop_front() {
                for &a in &out[u] {
                    if cap[a] > 0 && via[head[a]] == usize::MAX && head[a] != s {
                        via[head[a]] = a;
                        if head[a] == t {
                            break 'search;
                        }
                        queue.push_back(head[a]);
                    }
                }
            }
            if via[t] == usize::MAX {
                return flow;
            }
            let (mut v, mut bounded) = (t, false);
            while v != s {
                let a = via[v];
                bounded |= cap[a] < UNBOUNDED / 2;
                cap[a] -= 1;
                cap[a ^ 1] += 1;
                v = head[a ^ 1];
            }
            assert!(bounded, "a source node touches a sink node");
        }
        unreachable!("the flow is bounded by the node count")
    }

    /// The minimum vertex cut between the outer quarters of `graph`'s
    /// bounding box along one axis.
    fn quarters_cut(graph: &Graph, axis: impl Fn(Point) -> f64) -> usize {
        let at: Vec<f64> = graph.node_ids().map(|id| axis(graph.point(id))).collect();
        let (lo, hi) = at
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let quarter = (hi - lo) / 4.0;
        let source: Vec<bool> = at.iter().map(|&v| v <= lo + quarter).collect();
        let sink: Vec<bool> = at.iter().map(|&v| v >= hi - quarter).collect();
        min_vertex_cut(graph, &source, &sink)
    }

    /// Separator sizes of every split, in the order `dissect` makes them
    /// (the first is the top split), over the layout the benchmark
    /// builds: metro nodes renumbered by their 256-node regions.
    fn split_sizes(graph: &Graph) -> Vec<usize> {
        let (graph, _) = PartitionMap::build(graph, 256).apply(graph).unwrap();
        let mut sizes = Vec::new();
        dissect(&graph, &PartitionMap::build(&graph, 256), |_, _, sep| {
            sizes.push(sep.len())
        });
        sizes
    }

    /// HIERARCHY.md "Why no flows": at metro-100k (seed 1993) the top
    /// split's separator, 200 nodes, is already a minimum vertex cut
    /// between the outer quarters, along x and along y, so a flow-based
    /// separator has nothing to find there.
    #[test]
    #[ignore = "metro-100k: release job only"]
    fn the_metro_100k_top_separator_is_a_minimum_cut() {
        let metro = Metro::new(MetroSpec::with_nodes(100_000, 1993)).unwrap();
        let graph = metro.graph();
        let top = split_sizes(graph)[0];
        let along = (quarters_cut(graph, |p| p.x), quarters_cut(graph, |p| p.y));
        assert_eq!(
            along,
            (top, top),
            "minimum cuts along x and y vs the top separator"
        );
    }

    /// A one-way street joins the two sides of a split as surely as a
    /// two-way one, so giving every one-way edge its reverse must not
    /// change the order. (Testing out-edges only — the predicate this
    /// replaced — misses the ring's right-to-left crossing.)
    #[test]
    fn one_way_edges_count_as_adjacency() {
        let ring: Vec<_> = (0..32u32).map(|k| (k, (k + 1) % 32)).collect();
        let on_a_circle: Vec<_> = (0..32)
            .map(|k| (k as f64 * std::f64::consts::TAU / 32.0).sin_cos())
            .collect();
        let graphs = [
            ("one-way ring", hand_built(&on_a_circle, &ring)),
            ("metro 3x2", metro(3, 2, 1993)),
            ("metro 2x2", metro(2, 2, 7)),
            ("minneapolis", Minneapolis::paper().graph().clone()),
        ];
        for (name, graph) in &graphs {
            assert!(
                graph.edges().any(|e| graph.edge(e.to, e.from).is_none()),
                "{name} has no one-way edge"
            );
            let partition = PartitionMap::build(graph, 256);
            assert_eq!(
                nested_dissection_order(graph, &partition),
                nested_dissection_order(&symmetrised(graph), &partition),
                "{name}: the order reads edge direction"
            );
        }
    }
}

//! Landmark distance tables and the per-query ALT bound evaluator.
//!
//! A [`LandmarkTables`] value is a per-epoch artifact: `2·k` exact SSSP
//! sweeps (forward from each landmark, and from each landmark on the
//! transposed graph, which gives distances *to* the landmark) frozen
//! behind an `Arc` so cloning a table set is free. The tables carry the
//! [`Graph::cost_fingerprint`] of the graph they were built from, read
//! in O(1) as [`Graph::cost_stamp`]; consumers re-derive the fingerprint
//! at query time to detect that a traffic update has made the tables
//! stale.
//!
//! Staleness does not always force a rebuild. The table values are
//! *feasible potentials* for the costs they were built from — every edge
//! `(a, b)` satisfies `d(L,b) ≤ d(L,a) + c(a,b)` and
//! `d(a,L) ≤ c(a,b) + d(b,L)` — and they stay admissible under any costs
//! that keep every edge's inequality: summing them along a shortest
//! `u ⇝ t` path gives `d(L,t) − d(L,u) ≤ d'(u,t)`. A cost *increase*
//! (the common ATIS case — congestion) keeps every inequality trivially;
//! a *decrease* of one edge keeps them iff that edge still satisfies its
//! own ([`LandmarkTables::admits_cost`]) — a jam clearing back to the
//! cost the tables were built at always does. In both cases
//! [`LandmarkTables::patched_for`] re-stamps the tables for the updated
//! graph, sharing their memory (still correct, just looser). Only a
//! decrease that undercuts a table value — `d(L,t)` would overestimate
//! the new distance — requires [`LandmarkTables::rebuild_for`].

use crate::error::PreprocessError;
use crate::pool::{self, Job};
use crate::select::{self, LandmarkSelection};
use atis_graph::grouped::Sharing;
use atis_graph::sssp::Adjacency;
use atis_graph::{Graph, NodeId};
use std::sync::Arc;

/// How many landmarks to choose and with which strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreprocessConfig {
    /// Selection strategy.
    pub strategy: LandmarkSelection,
    /// Number of landmarks (each adds two `n`-entry distance vectors and
    /// two comparisons per bound evaluation).
    pub count: usize,
}

impl PreprocessConfig {
    /// Creates a config.
    pub const fn new(strategy: LandmarkSelection, count: usize) -> Self {
        PreprocessConfig { strategy, count }
    }

    /// Default for the paper's synthetic grids: 8 farthest-point
    /// landmarks, which settle on the corners and edge midpoints — the
    /// positions diagonal and cross-grid queries want.
    pub const fn grid_default() -> Self {
        PreprocessConfig::new(LandmarkSelection::FarthestPoint, 8)
    }

    /// Default for irregular road networks (the Minneapolis map):
    /// coverage-based selection with a larger budget, since geometric
    /// spread alone wastes landmarks on map features no query crosses.
    /// Irregular topology (river crossings, diagonal arterials) also
    /// needs more landmarks than a grid before the triangle bounds beat
    /// a well-matched geometric estimator — 32 is where the ALT
    /// estimator pulls clearly ahead of Manhattan on the Minneapolis
    /// workload (`BENCH_estimators.json`), at a preprocessing cost of 64
    /// SSSP sweeps.
    pub const fn network_default() -> Self {
        PreprocessConfig::new(LandmarkSelection::Coverage { sample_pairs: 96 }, 32)
    }
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig::grid_default()
    }
}

/// The frozen distance tables (shared, never mutated after build).
#[derive(Debug)]
struct Tables {
    landmarks: Vec<NodeId>,
    /// `forward[i][u.index()] = d(L_i, u)`.
    forward: Vec<Vec<f64>>,
    /// `backward[i][u.index()] = d(u, L_i)` (SSSP on the transposed graph).
    backward: Vec<Vec<f64>>,
}

/// Per-epoch landmark distance tables, stamped with the costs they are
/// current for.
///
/// Cloning is cheap (`Arc` on the tables); the serving layer clones one
/// table set into every database snapshot of an epoch.
#[derive(Debug, Clone)]
pub struct LandmarkTables {
    tables: Arc<Tables>,
    fingerprint: u64,
    config: PreprocessConfig,
}

impl LandmarkTables {
    /// Selects landmarks and computes forward/backward distance tables
    /// for `graph`, stamping the result with the graph's
    /// [`Graph::cost_stamp`].
    ///
    /// The graph's adjacency and its transpose, and then the sweeps
    /// selection did not already run, are independent, so they run on
    /// as many threads as [`std::thread::available_parallelism`]
    /// reports; the tables are the same on any number.
    ///
    /// # Errors
    /// Propagates selection errors (empty graph, bad landmark count).
    pub fn build(graph: &Graph, config: PreprocessConfig) -> Result<Self, PreprocessError> {
        LandmarkTables::build_on(graph, config, pool::workers())
    }

    /// [`LandmarkTables::build`] on `workers` threads.
    fn build_on(
        graph: &Graph,
        config: PreprocessConfig,
        workers: usize,
    ) -> Result<Self, PreprocessError> {
        let (mut forward, mut backward) = (Adjacency::default(), Adjacency::default());
        let jobs: Vec<Job> = vec![
            Box::new(|| forward = Adjacency::forward(graph)),
            Box::new(|| backward = Adjacency::backward(graph)),
        ];
        pool::pooled(workers, jobs);
        let chosen = select::select_swept(
            graph,
            &forward,
            &backward,
            config.count,
            config.strategy,
            workers,
        )?;
        let landmarks: Vec<NodeId> = chosen.iter().map(|landmark| landmark.node).collect();
        // A sweep has an entry per node and the graph has nodes, so an
        // empty column is one selection did not sweep.
        let (mut fwd, mut bwd): (Vec<Vec<f64>>, Vec<Vec<f64>>) = chosen
            .into_iter()
            .map(|swept| {
                (
                    swept.forward.unwrap_or_default(),
                    swept.backward.unwrap_or_default(),
                )
            })
            .unzip();
        let mut jobs: Vec<Job> = Vec::with_capacity(2 * landmarks.len());
        for (columns, adjacency) in [(&mut fwd, &forward), (&mut bwd, &backward)] {
            for (column, &node) in columns.iter_mut().zip(&landmarks) {
                if column.is_empty() {
                    jobs.push(Box::new(move || *column = adjacency.sweep(node)));
                }
            }
        }
        pool::pooled(workers, jobs);
        Ok(LandmarkTables {
            tables: Arc::new(Tables {
                landmarks,
                forward: fwd,
                backward: bwd,
            }),
            fingerprint: graph.cost_stamp(),
            config,
        })
    }

    /// The chosen landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.tables.landmarks
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.tables.landmarks.len()
    }

    /// The configuration the tables were built with.
    pub fn config(&self) -> PreprocessConfig {
        self.config
    }

    /// The cost fingerprint of the graph these tables are valid for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether the tables match `graph`'s current costs. Re-derives
    /// [`Graph::cost_fingerprint`] from the edges rather than reading
    /// the stamp, so every run also checks the stamp an install
    /// maintained.
    pub fn is_current_for(&self, graph: &Graph) -> bool {
        self.fingerprint == graph.cost_fingerprint()
    }

    /// Whether the tables stay admissible when edge `u → v` costs
    /// `cost`, given that they are admissible for the other edges'
    /// current costs: per landmark, `d(L,v) ≤ d(L,u) + cost` and
    /// `d(u,L) ≤ cost + d(v,L)` (see the module docs), skipping
    /// non-finite bases exactly as [`LandmarkTables::lower_bound`]
    /// does. Any increase passes; a decrease passes unless it undercuts
    /// a table value. Unknown endpoints admit nothing.
    pub fn admits_cost(&self, u: NodeId, v: NodeId, cost: f64) -> bool {
        let (ui, vi) = (u.index(), v.index());
        let tables = &self.tables;
        tables
            .forward
            .iter()
            .zip(&tables.backward)
            .all(|(fwd, bwd)| {
                let (Some(&fu), Some(&fv), Some(&bu), Some(&bv)) =
                    (fwd.get(ui), fwd.get(vi), bwd.get(ui), bwd.get(vi))
                else {
                    return false;
                };
                (!fu.is_finite() || fv <= fu + cost) && (!bv.is_finite() || bu <= bv + cost)
            })
    }

    /// Re-stamps the tables for an updated graph **every edge of which
    /// still satisfies the tables' triangle inequalities** — all costs
    /// ≥ the costs the tables were built from (a congestion update), or
    /// lowered only as far as [`LandmarkTables::admits_cost`] allows —
    /// sharing the table memory with `self`.
    ///
    /// Soundness: old table values satisfy
    /// `d(L,t) ≤ d(L,u) + d'(u,t)` whenever each edge on a shortest
    /// `u ⇝ t` path satisfies its own inequality under the new costs, so
    /// every bound derived from them still under-estimates the new
    /// shortest-path distances. The caller is responsible for that
    /// precondition; otherwise use [`LandmarkTables::rebuild_for`].
    pub fn patched_for(&self, graph: &Graph) -> LandmarkTables {
        LandmarkTables {
            tables: Arc::clone(&self.tables),
            fingerprint: graph.cost_stamp(),
            config: self.config,
        }
    }

    /// Rebuilds fresh tables for `graph` with this table set's
    /// configuration.
    ///
    /// # Errors
    /// Propagates selection errors (e.g. the graph shrank below the
    /// landmark count).
    pub fn rebuild_for(&self, graph: &Graph) -> Result<LandmarkTables, PreprocessError> {
        LandmarkTables::build(graph, self.config)
    }

    /// The ALT lower bound on `d(u, t)`:
    /// `max_i max(d(L_i,t) − d(L_i,u), d(u,L_i) − d(t,L_i))`, clamped to
    /// zero, skipping landmarks with non-finite entries (unreachable
    /// pairs must not poison the bound with `∞ − ∞`).
    pub fn lower_bound(&self, u: NodeId, t: NodeId) -> f64 {
        let (ui, ti) = (u.index(), t.index());
        let mut bound: f64 = 0.0;
        for (fwd, bwd) in self.tables.forward.iter().zip(self.tables.backward.iter()) {
            if fwd[ti].is_finite() && fwd[ui].is_finite() {
                bound = bound.max(fwd[ti] - fwd[ui]);
            }
            if bwd[ui].is_finite() && bwd[ti].is_finite() {
                bound = bound.max(bwd[ui] - bwd[ti]);
            }
        }
        bound
    }

    /// Whether this table set is the very memory `other` holds (one
    /// part: patched descendants share their tables outright).
    #[doc(hidden)]
    pub fn shared_with(&self, other: &LandmarkTables) -> Sharing {
        let columns = self.tables.forward.iter().chain(&self.tables.backward);
        let bytes = columns.map(|c| std::mem::size_of_val(&c[..])).sum();
        let mut sharing = Sharing::default();
        sharing.part(&self.tables, &other.tables, bytes);
        sharing
    }

    /// Resolves the tables against a fixed destination, producing the
    /// evaluator the search loop calls once per frontier candidate.
    ///
    /// Hoists the per-landmark target distances out of the inner loop so
    /// [`DestBounds::bound`] is two array reads and two subtractions per
    /// landmark.
    pub fn bounds_to(&self, target: NodeId) -> DestBounds {
        let ti = target.index();
        let to_target = self.tables.forward.iter().map(|f| f[ti]).collect();
        let from_target = self.tables.backward.iter().map(|b| b[ti]).collect();
        DestBounds {
            tables: Arc::clone(&self.tables),
            to_target,
            from_target,
        }
    }
}

/// Landmark tables resolved against one destination: the admissible,
/// consistent lower-bound evaluator `h(u) ≥ 0` with `h(t) = 0`.
///
/// Cheap to clone (the per-destination vectors are `k` entries; the
/// tables are shared).
#[derive(Debug, Clone)]
pub struct DestBounds {
    tables: Arc<Tables>,
    /// `to_target[i] = d(L_i, t)`.
    to_target: Vec<f64>,
    /// `from_target[i] = d(t, L_i)`.
    from_target: Vec<f64>,
}

impl DestBounds {
    /// The ALT lower bound on the distance from `u` to the resolved
    /// destination (zero when no landmark gives a finite bound).
    pub fn bound(&self, u: NodeId) -> f64 {
        let ui = u.index();
        let mut bound: f64 = 0.0;
        for i in 0..self.to_target.len() {
            let fwd_u = self.tables.forward[i][ui];
            if self.to_target[i].is_finite() && fwd_u.is_finite() {
                bound = bound.max(self.to_target[i] - fwd_u);
            }
            let bwd_u = self.tables.backward[i][ui];
            if bwd_u.is_finite() && self.from_target[i].is_finite() {
                bound = bound.max(bwd_u - self.from_target[i]);
            }
        }
        bound
    }

    /// Number of landmarks consulted per evaluation.
    pub fn landmark_count(&self) -> usize {
        self.to_target.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::sssp::distances_from;
    use atis_graph::{CostModel, Grid, SplitMix64};

    /// `graph` with every arc reversed, through the graph builder: the
    /// reference the backward kernel is held to.
    fn transposed(graph: &Graph) -> Graph {
        let mut b = atis_graph::GraphBuilder::with_capacity(graph.node_count(), graph.edge_count());
        for u in graph.node_ids() {
            b.add_node(graph.point(u));
        }
        for e in graph.edges() {
            b.add_arc(e.to, e.from, e.cost);
        }
        b.build().unwrap()
    }

    /// Builds on one worker, two, and what the machine offers agree with
    /// each other and with the reference sweeps over the graph and its
    /// transpose, bit for bit, and carry the graph's fingerprint.
    fn assert_pooled_builds_match_the_reference(graph: &Graph, configs: &[PreprocessConfig]) {
        let reverse = transposed(graph);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for &config in configs {
            let label = config.strategy.label();
            let serial = LandmarkTables::build_on(graph, config, 1).unwrap();
            assert_eq!(serial.landmark_count(), config.count, "{label}");
            assert_eq!(serial.fingerprint(), graph.cost_fingerprint(), "{label}");
            let (fwd, bwd) = (&serial.tables.forward, &serial.tables.backward);
            for (i, &l) in serial.landmarks().iter().enumerate() {
                let forward = distances_from(graph, l);
                assert_eq!(bits(&fwd[i]), bits(&forward), "{label}: forward {l:?}");
                let backward = distances_from(&reverse, l);
                assert_eq!(bits(&bwd[i]), bits(&backward), "{label}: backward {l:?}");
            }
            for workers in [2, pool::workers()] {
                let pooled = LandmarkTables::build_on(graph, config, workers).unwrap();
                assert_eq!(
                    pooled.landmarks(),
                    serial.landmarks(),
                    "{label} on {workers}"
                );
                assert_eq!(pooled.fingerprint(), serial.fingerprint());
                for (a, b) in [
                    (&pooled.tables.forward, fwd),
                    (&pooled.tables.backward, bwd),
                ] {
                    let (a, b): (Vec<_>, Vec<_>) = (
                        a.iter().map(|c| bits(c)).collect(),
                        b.iter().map(|c| bits(c)).collect(),
                    );
                    assert_eq!(a, b, "{label} on {workers} workers");
                }
            }
        }
    }

    #[test]
    fn pooled_builds_equal_the_reference_sweeps() {
        let grid = Grid::new(9, CostModel::TWENTY_PERCENT, 4).unwrap();
        let configs = [
            PreprocessConfig::grid_default(),
            PreprocessConfig::network_default(),
            PreprocessConfig::new(LandmarkSelection::COVERAGE, 6),
            PreprocessConfig::new(LandmarkSelection::PARTITION_SPREAD, 5),
        ];
        assert_pooled_builds_match_the_reference(grid.graph(), &configs);
        let city = atis_graph::Minneapolis::paper();
        assert_pooled_builds_match_the_reference(city.graph(), &configs[1..2]);
        let metro = atis_graph::Metro::new(atis_graph::MetroSpec::new(3, 2, 1993)).unwrap();
        assert_pooled_builds_match_the_reference(metro.graph(), &configs);
    }

    /// The benchmark's configuration at its largest scale: eight
    /// partition-spread landmarks over metro-100k, region-major.
    #[test]
    #[ignore = "metro-100k: release job only"]
    fn pooled_builds_equal_the_reference_sweeps_at_metro_100k() {
        let metro =
            atis_graph::Metro::new(atis_graph::MetroSpec::with_nodes(100_000, 1993)).unwrap();
        let map = atis_graph::PartitionMap::build(metro.graph(), 256);
        let (graph, _) = map.apply(metro.graph()).unwrap();
        let config = PreprocessConfig::new(LandmarkSelection::PARTITION_SPREAD, 8);
        assert_pooled_builds_match_the_reference(&graph, &[config]);
    }

    fn all_pairs(graph: &Graph) -> Vec<Vec<f64>> {
        graph.node_ids().map(|u| distances_from(graph, u)).collect()
    }

    #[test]
    fn bounds_are_admissible_on_a_variance_grid() {
        let grid = Grid::new(7, CostModel::TWENTY_PERCENT, 5).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let truth = all_pairs(grid.graph());
        for u in grid.graph().node_ids() {
            for t in grid.graph().node_ids() {
                let b = tables.lower_bound(u, t);
                assert!(
                    b <= truth[u.index()][t.index()] + 1e-9,
                    "bound {b} exceeds d({u:?},{t:?}) = {}",
                    truth[u.index()][t.index()]
                );
            }
        }
    }

    #[test]
    fn bound_is_exact_along_a_landmark_shortest_path() {
        // A line graph: the farthest-point landmarks are its endpoints, so
        // every on-path bound is exact.
        let g = graph_from_arcs(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.5),
                (3, 4, 1.0),
                (1, 0, 1.0),
                (2, 1, 2.0),
                (3, 2, 1.5),
                (4, 3, 1.0),
            ],
        )
        .unwrap();
        let tables = LandmarkTables::build(
            &g,
            PreprocessConfig::new(LandmarkSelection::FarthestPoint, 2),
        )
        .unwrap();
        assert!((tables.lower_bound(NodeId(1), NodeId(3)) - 3.5).abs() < 1e-12);
        assert!((tables.lower_bound(NodeId(0), NodeId(4)) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn dest_bounds_match_lower_bound() {
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 11).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let t = grid.node_at(5, 2);
        let resolved = tables.bounds_to(t);
        for u in grid.graph().node_ids() {
            assert_eq!(resolved.bound(u), tables.lower_bound(u, t));
        }
    }

    #[test]
    fn unreachable_pairs_give_a_zero_bound_not_nan() {
        // Two disconnected components.
        let g = graph_from_arcs(4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]).unwrap();
        let tables = LandmarkTables::build(
            &g,
            PreprocessConfig::new(LandmarkSelection::FarthestPoint, 2),
        )
        .unwrap();
        let b = tables.lower_bound(NodeId(0), NodeId(3));
        assert!(b.is_finite() && b >= 0.0, "got {b}");
    }

    #[test]
    fn staleness_patch_and_rebuild() {
        let grid = Grid::new(5, CostModel::Uniform, 0).unwrap();
        let mut g = grid.graph().clone();
        let tables = LandmarkTables::build(&g, PreprocessConfig::grid_default()).unwrap();
        assert!(tables.is_current_for(&g));

        // Congestion: a cost increase. Patched tables are current again,
        // the very table memory they came from, and still admissible
        // against the new distances.
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));
        g.set_edge_cost(a, b, 9.0).unwrap();
        assert!(!tables.is_current_for(&g));
        let patched = tables.patched_for(&g);
        assert!(patched.is_current_for(&g));
        assert_eq!(patched.shared_with(&tables).copied(), 0);
        let truth = all_pairs(&g);
        for u in g.node_ids() {
            for t in g.node_ids() {
                assert!(patched.lower_bound(u, t) <= truth[u.index()][t.index()] + 1e-9);
            }
        }

        // A rebuild is fresh: current, and sharing no table memory.
        let rebuilt = patched.rebuild_for(&g).unwrap();
        assert!(rebuilt.is_current_for(&g));
        assert_eq!(rebuilt.shared_with(&patched).shared, 0);
        assert_eq!(rebuilt.config(), tables.config());
    }

    #[test]
    fn coverage_tables_are_admissible_on_random_queries() {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 3).unwrap();
        let tables = LandmarkTables::build(
            grid.graph(),
            PreprocessConfig::new(LandmarkSelection::COVERAGE, 6),
        )
        .unwrap();
        let n = grid.graph().node_count() as u64;
        let mut rng = SplitMix64::new(77);
        for _ in 0..50 {
            let u = NodeId((rng.next_u64() % n) as u32);
            let t = NodeId((rng.next_u64() % n) as u32);
            let d = distances_from(grid.graph(), u)[t.index()];
            assert!(tables.lower_bound(u, t) <= d + 1e-9);
        }
    }
}

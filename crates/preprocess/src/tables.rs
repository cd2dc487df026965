//! Landmark distance tables and the per-query ALT bound evaluator.
//!
//! A [`LandmarkTables`] value is a per-epoch artifact: `2·k` exact SSSP
//! sweeps (forward from each landmark, and from each landmark on the
//! transposed graph, which gives distances *to* the landmark) frozen
//! behind an `Arc` so cloning a table set is free. The tables carry the
//! [`Graph::cost_fingerprint`] of the graph they were built from;
//! consumers compare fingerprints at query time to detect that a traffic
//! update has made the tables stale.
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
//! graph and marks them degraded (still correct, just looser). Only a
//! decrease that undercuts a table value — `d(L,t)` would overestimate
//! the new distance — requires [`LandmarkTables::rebuild_for`].

use crate::error::PreprocessError;
use crate::select::{self, LandmarkSelection};
use crate::sssp;
use atis_graph::grouped::Sharing;
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

/// Per-epoch landmark distance tables with staleness tracking.
///
/// Cloning is cheap (`Arc` on the tables); the serving layer clones one
/// table set into every database snapshot of an epoch.
#[derive(Debug, Clone)]
pub struct LandmarkTables {
    tables: Arc<Tables>,
    fingerprint: u64,
    config: PreprocessConfig,
    degraded: bool,
}

impl LandmarkTables {
    /// Selects landmarks and computes forward/backward distance tables
    /// for `graph`, stamping the result with the graph's cost
    /// fingerprint.
    ///
    /// # Errors
    /// Propagates selection errors (empty graph, bad landmark count).
    pub fn build(graph: &Graph, config: PreprocessConfig) -> Result<Self, PreprocessError> {
        let landmarks = select::select(graph, config.count, config.strategy)?;
        let rev = sssp::reversed(graph)?;
        let forward = landmarks
            .iter()
            .map(|&l| sssp::distances_from(graph, l))
            .collect();
        let backward = landmarks
            .iter()
            .map(|&l| sssp::distances_from(&rev, l))
            .collect();
        Ok(LandmarkTables {
            tables: Arc::new(Tables {
                landmarks,
                forward,
                backward,
            }),
            fingerprint: graph.cost_fingerprint(),
            config,
            degraded: false,
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

    /// Whether the tables match `graph`'s current costs.
    pub fn is_current_for(&self, graph: &Graph) -> bool {
        self.fingerprint == graph.cost_fingerprint()
    }

    /// Whether the tables were carried across a cost-increase patch
    /// (still admissible, but looser than a fresh build).
    pub fn is_degraded(&self) -> bool {
        self.degraded
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
    /// marking them degraded.
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
            fingerprint: graph.cost_fingerprint(),
            config: self.config,
            degraded: true,
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
    use atis_graph::{CostModel, Grid, SplitMix64};

    fn all_pairs(graph: &Graph) -> Vec<Vec<f64>> {
        graph
            .node_ids()
            .map(|u| sssp::distances_from(graph, u))
            .collect()
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
        assert!(!tables.is_degraded());

        // Congestion: a cost increase. Patched tables are current again,
        // degraded, and still admissible against the new distances.
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));
        g.set_edge_cost(a, b, 9.0).unwrap();
        assert!(!tables.is_current_for(&g));
        let patched = tables.patched_for(&g);
        assert!(patched.is_current_for(&g) && patched.is_degraded());
        let truth = all_pairs(&g);
        for u in g.node_ids() {
            for t in g.node_ids() {
                assert!(patched.lower_bound(u, t) <= truth[u.index()][t.index()] + 1e-9);
            }
        }

        // A rebuild is fresh: current and not degraded.
        let rebuilt = patched.rebuild_for(&g).unwrap();
        assert!(rebuilt.is_current_for(&g) && !rebuilt.is_degraded());
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
            let d = sssp::distances_from(grid.graph(), u)[t.index()];
            assert!(tables.lower_bound(u, t) <= d + 1e-9);
        }
    }
}

//! Database-resident A\* (Figure 3): the paper's three implementation
//! versions (Section 5.3) and this reproduction's two preprocessing-backed
//! extensions.
//!
//! | Version | FrontierSet            | Goal direction                          |
//! |---------|------------------------|-----------------------------------------|
//! | 1       | separate relation      | Euclidean estimator                     |
//! | 2       | status attribute in R  | Euclidean estimator                     |
//! | 3       | status attribute in R  | Manhattan estimator                     |
//! | 4       | status attribute in R  | max(landmark bound, Euclidean)          |
//! | 5       | a depth sweep of the overlay | the contraction hierarchy itself  |
//!
//! Versions 1–4 are rows of one table, not implementations: each is the
//! crate's single loop (the crate-private `search` module), settling one
//! minimum per iteration, run over the frontier representation and
//! estimator that [`Algorithm::describe`] names for it, with Figure 3's
//! reopening rule — an improved node re-enters the frontier even if it
//! was explored (`if not_in(v, frontierSet)`, no explored-set check),
//! which is what preserves optimality under an admissible-but-
//! inconsistent estimator and lets the inadmissible Manhattan estimator
//! on the Minneapolis map still find good paths. Version 5 is a different
//! loop (the crate-private `hierarchy_search` module). This module keeps
//! the version enum; every version runs through [`crate::Database::run`].

use crate::database::{Algorithm, FrontierKind, Kernel};
use crate::estimator::Estimator;

/// The paper's three A\* implementation versions, plus this
/// reproduction's landmark-based extension (version 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AStarVersion {
    /// Separate frontier relation + Euclidean estimator.
    V1,
    /// Status-attribute frontier + Euclidean estimator.
    V2,
    /// Status-attribute frontier + Manhattan estimator.
    V3,
    /// Status-attribute frontier + landmark (ALT) estimator with a
    /// Euclidean floor: `max(alt_bound(u), euclidean(u, d))`. Requires
    /// landmark tables attached to the database
    /// (`Database::with_landmarks`); a run without current tables fails
    /// with `AlgorithmError::LandmarksUnavailable` rather than silently
    /// degrading.
    V4,
    /// Bidirectional upward search over a contraction-hierarchy overlay
    /// with shortcut unpacking (the `hierarchy_search` module). Requires
    /// a hierarchy attached to the database
    /// (`Database::with_hierarchy`); a run without a current hierarchy
    /// fails with `AlgorithmError::HierarchyUnavailable` rather than
    /// silently degrading.
    V5,
}

impl AStarVersion {
    /// Row label used by the paper (v4 extends the numbering).
    pub const fn label(&self) -> &'static str {
        match self {
            AStarVersion::V1 => "A* (version 1)",
            AStarVersion::V2 => "A* (version 2)",
            AStarVersion::V3 => "A* (version 3)",
            AStarVersion::V4 => "A* (version 4)",
            AStarVersion::V5 => "A* (version 5)",
        }
    }

    /// The geometric estimator this version uses. For version 4 this is
    /// the Euclidean *floor*; the landmark bound is supplied per run by
    /// the database's tables and maxed with it. Version 5 is not
    /// estimator-guided at all — its upward search is goal-directed by
    /// the hierarchy's structure — so it reports the zero estimator.
    pub fn estimator(&self) -> Estimator {
        match Algorithm::AStar(*self).describe().kernel {
            Kernel::BestFirst { estimator, .. } => estimator,
            Kernel::Upward => Estimator::Zero,
        }
    }

    /// The frontier management this version uses. Version 5's two
    /// frontiers live beside the overlay rather than in a separate
    /// relation, which is the status-attribute shape.
    pub fn frontier(&self) -> FrontierKind {
        match Algorithm::AStar(*self).describe().kernel {
            Kernel::BestFirst { frontier, .. } => frontier,
            Kernel::Upward => FrontierKind::StatusAttribute,
        }
    }

    /// The paper's three versions in paper order. Version 4 is excluded
    /// on purpose: these are the versions every database can run without
    /// preprocessing, and the figure-reproduction experiments iterate
    /// this set against plain databases.
    pub const ALL: [AStarVersion; 3] = [AStarVersion::V1, AStarVersion::V2, AStarVersion::V3];

    /// All versions including the landmark-based v4 (databases iterating
    /// this set must have tables attached).
    pub const ALL_WITH_LANDMARKS: [AStarVersion; 4] = [
        AStarVersion::V1,
        AStarVersion::V2,
        AStarVersion::V3,
        AStarVersion::V4,
    ];

    /// Every version including the preprocessing-backed v4 and v5
    /// (databases iterating this set must have landmark tables *and* a
    /// hierarchy attached).
    pub const ALL_WITH_HIERARCHY: [AStarVersion; 5] = [
        AStarVersion::V1,
        AStarVersion::V2,
        AStarVersion::V3,
        AStarVersion::V4,
        AStarVersion::V5,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::error::AlgorithmError;
    use crate::memory;
    use atis_graph::{CostModel, Grid, NodeId, QueryKind};

    fn grid_db(k: usize, model: CostModel, seed: u64) -> (Grid, Database) {
        let grid = Grid::new(k, model, seed).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        (grid, db)
    }

    #[test]
    fn version_metadata() {
        assert_eq!(AStarVersion::V1.estimator(), Estimator::Euclidean);
        assert_eq!(AStarVersion::V3.estimator(), Estimator::Manhattan);
        assert_eq!(AStarVersion::V1.frontier(), FrontierKind::SeparateRelation);
        assert_eq!(AStarVersion::V2.frontier(), FrontierKind::StatusAttribute);
        assert_eq!(AStarVersion::V3.label(), "A* (version 3)");
    }

    #[test]
    fn all_versions_find_optimal_paths_on_variance_grids() {
        // Euclidean and Manhattan are both admissible on variance grids
        // (edge costs >= 1 >= coordinate distance), so every version must
        // return the optimal cost.
        let (grid, db) = grid_db(8, CostModel::TWENTY_PERCENT, 21);
        for kind in [
            QueryKind::Horizontal,
            QueryKind::SemiDiagonal,
            QueryKind::Diagonal,
        ] {
            let (s, d) = grid.query_pair(kind);
            let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
            for v in AStarVersion::ALL {
                let t = db.run(Algorithm::AStar(v), s, d).unwrap();
                assert!(
                    (t.path_cost() - oracle.cost).abs() < 1e-3,
                    "{} got {} vs optimal {} on {:?}",
                    v.label(),
                    t.path_cost(),
                    oracle.cost,
                    kind
                );
                t.path.unwrap().validate(grid.graph()).unwrap();
            }
        }
    }

    #[test]
    fn v3_needs_few_iterations_on_horizontal_path() {
        // Table 6's pattern: the Manhattan estimator is near-perfect for
        // the straight path, so iterations collapse to about the path
        // length (29 on a 30x30; here k-1 on a small grid, plus bounded
        // variance-induced backtracking).
        let (grid, db) = grid_db(10, CostModel::TWENTY_PERCENT, 1993);
        let (s, d) = grid.query_pair(QueryKind::Horizontal);
        let t = db.run(Algorithm::AStar(AStarVersion::V3), s, d).unwrap();
        assert!(
            t.iterations < 30,
            "horizontal A* v3 took {} iterations, expected near the 9-hop path",
            t.iterations
        );
        let dij = db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert!(t.iterations < dij.iterations);
    }

    #[test]
    fn skewed_grid_is_v3_best_case() {
        // Section 5.1.3: the skewed model "eliminates backtracking from
        // estimator-based A* (version 3), creating the best case".
        let (grid, db) = grid_db(10, CostModel::Skewed, 0);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t = db.run(Algorithm::AStar(AStarVersion::V3), s, d).unwrap();
        // The corridor has 2(k-1) = 18 edges; expansions stay right there.
        assert!(
            t.iterations <= 20,
            "{} iterations on the skewed corridor",
            t.iterations
        );
        // And the path it finds is the corridor itself.
        let p = t.path.unwrap();
        let corridor = 18.0 * atis_graph::cost_model::SKEWED_LOW_COST;
        assert!(
            (p.cost - corridor).abs() < 1e-3,
            "corridor cost {corridor}, got {}",
            p.cost
        );
    }

    #[test]
    fn v1_and_v2_agree_on_paths() {
        let (grid, db) = grid_db(7, CostModel::TWENTY_PERCENT, 9);
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        let t1 = db.run(Algorithm::AStar(AStarVersion::V1), s, d).unwrap();
        let t2 = db.run(Algorithm::AStar(AStarVersion::V2), s, d).unwrap();
        assert!((t1.path_cost() - t2.path_cost()).abs() < 1e-4);
        // Same estimator, same tie-breaking: same expansions.
        assert_eq!(t1.iterations, t2.iterations);
    }

    #[test]
    fn v1_charges_index_adjustments_v2_does_not_per_iteration() {
        let (grid, db) = grid_db(8, CostModel::TWENTY_PERCENT, 4);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t1 = db.run(Algorithm::AStar(AStarVersion::V1), s, d).unwrap();
        let t2 = db.run(Algorithm::AStar(AStarVersion::V2), s, d).unwrap();
        // v1 does APPEND/DELETE index maintenance on every frontier
        // mutation; v2 only pays the one-time index build.
        assert!(t1.io.index_adjustments > t2.io.index_adjustments);
    }

    #[test]
    fn custom_zero_estimator_behaves_like_dijkstra() {
        let (grid, db) = grid_db(6, CostModel::TWENTY_PERCENT, 2);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let c = db
            .run(
                Algorithm::Custom {
                    frontier: FrontierKind::StatusAttribute,
                    estimator: Estimator::Zero,
                },
                s,
                d,
            )
            .unwrap();
        let dij = db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert_eq!(c.iterations, dij.iterations);
        assert!((c.path_cost() - dij.path_cost()).abs() < 1e-6);
    }

    #[test]
    fn unreachable_destination_yields_none_for_both_frontiers() {
        use atis_graph::graph::graph_from_arcs;
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        for v in AStarVersion::ALL {
            let t = db.run(Algorithm::AStar(v), NodeId(0), NodeId(2)).unwrap();
            assert!(t.path.is_none(), "{} should not find a path", v.label());
        }
    }

    #[test]
    fn v4_finds_optimal_paths_and_never_expands_more_than_v3() {
        use atis_preprocess::{LandmarkTables, PreprocessConfig};
        let (grid, db) = grid_db(10, CostModel::TWENTY_PERCENT, 7);
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let db = db.with_landmarks(tables);
        for kind in [
            QueryKind::Horizontal,
            QueryKind::SemiDiagonal,
            QueryKind::Diagonal,
        ] {
            let (s, d) = grid.query_pair(kind);
            let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
            let t4 = db.run(Algorithm::AStar(AStarVersion::V4), s, d).unwrap();
            assert!(
                (t4.path_cost() - oracle.cost).abs() < 1e-3,
                "v4 got {} vs optimal {} on {kind:?}",
                t4.path_cost(),
                oracle.cost
            );
            t4.path.unwrap().validate(grid.graph()).unwrap();
            let t3 = db.run(Algorithm::AStar(AStarVersion::V3), s, d).unwrap();
            assert!(
                t4.iterations <= t3.iterations,
                "v4 expanded {} > v3 {} on {kind:?}",
                t4.iterations,
                t3.iterations
            );
        }
    }

    #[test]
    fn v4_without_tables_fails_with_a_typed_error() {
        use crate::error::ArtifactIssue;
        let (grid, db) = grid_db(5, CostModel::Uniform, 0);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        assert!(matches!(
            db.run(Algorithm::AStar(AStarVersion::V4), s, d),
            Err(AlgorithmError::LandmarksUnavailable(ArtifactIssue::Missing))
        ));
    }

    #[test]
    fn cost_update_makes_v4_tables_stale() {
        use crate::error::ArtifactIssue;
        use atis_preprocess::{LandmarkTables, PreprocessConfig};
        let (grid, db) = grid_db(6, CostModel::TWENTY_PERCENT, 2);
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let mut db = db.with_landmarks(tables);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        assert!(db.run(Algorithm::AStar(AStarVersion::V4), s, d).is_ok());
        // Live traffic update: v4 must refuse its now-stale tables; v3
        // (no preprocessing dependency) keeps answering.
        db.update_edge_cost(grid.node_at(1, 1), grid.node_at(1, 2), 0.5)
            .unwrap();
        assert!(matches!(
            db.run(Algorithm::AStar(AStarVersion::V4), s, d),
            Err(AlgorithmError::LandmarksUnavailable(ArtifactIssue::Stale))
        ));
        assert!(db.run(Algorithm::AStar(AStarVersion::V3), s, d).is_ok());
        // Rebuilding for the new costs restores v4.
        let fresh = db.landmarks().unwrap().rebuild_for(db.graph()).unwrap();
        let db = db.with_landmarks(fresh);
        let t = db.run(Algorithm::AStar(AStarVersion::V4), s, d).unwrap();
        let oracle = memory::dijkstra_pair(grid.graph(), s, d);
        // Note: oracle runs on the *original* grid; recompute on db's graph.
        let oracle = oracle
            .map(|_| ())
            .and(memory::dijkstra_pair(db.graph(), s, d));
        assert!((t.path_cost() - oracle.unwrap().cost).abs() < 1e-3);
    }

    #[test]
    fn v5_finds_optimal_paths_on_a_metro() {
        use atis_graph::{Metro, MetroSpec};
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let metro = Metro::new(MetroSpec::new(3, 2, 1993)).unwrap();
        let graph = metro.graph();
        let hierarchy = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();
        let db = Database::open(graph).unwrap().with_hierarchy(hierarchy);
        let mut rng = atis_graph::SplitMix64::new(8);
        for _ in 0..25 {
            let s = NodeId(rng.next_below(graph.node_count() as u64) as u32);
            let d = NodeId(rng.next_below(graph.node_count() as u64) as u32);
            let t5 = db.run(Algorithm::AStar(AStarVersion::V5), s, d).unwrap();
            match memory::dijkstra_pair(graph, s, d) {
                Some(oracle) => {
                    assert!(
                        (t5.path_cost() - oracle.cost).abs() <= oracle.cost * 1e-9 + 1e-12,
                        "v5 got {} vs optimal {} for {s:?}->{d:?}",
                        t5.path_cost(),
                        oracle.cost
                    );
                    t5.path.unwrap().validate(graph).unwrap();
                }
                None => assert!(t5.path.is_none(), "{s:?}->{d:?} should be unreachable"),
            }
        }
    }

    #[test]
    fn v5_expands_fewer_nodes_than_dijkstra_on_long_trips() {
        use atis_graph::{Metro, MetroQuery, MetroSpec};
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let metro = Metro::new(MetroSpec::new(3, 2, 1993)).unwrap();
        let graph = metro.graph();
        let hierarchy = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();
        let db = Database::open(graph).unwrap().with_hierarchy(hierarchy);
        let (s, d) = metro.query_pair(MetroQuery::Diagonal);
        let t5 = db.run(Algorithm::AStar(AStarVersion::V5), s, d).unwrap();
        let dij = db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert!(
            t5.iterations * 4 < dij.iterations,
            "v5 settled {} vs dijkstra {} on the diagonal trip",
            t5.iterations,
            dij.iterations
        );
        assert!(t5.io.block_reads > 0, "v5 work must be metered");
    }

    #[test]
    fn v5_without_hierarchy_fails_with_a_typed_error() {
        use crate::error::ArtifactIssue;
        let (grid, db) = grid_db(5, CostModel::Uniform, 0);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        assert!(matches!(
            db.run(Algorithm::AStar(AStarVersion::V5), s, d),
            Err(AlgorithmError::HierarchyUnavailable(ArtifactIssue::Missing))
        ));
    }

    #[test]
    fn cost_update_makes_v5_hierarchy_stale() {
        use crate::error::ArtifactIssue;
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let (grid, db) = grid_db(6, CostModel::TWENTY_PERCENT, 2);
        let hierarchy = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let mut db = db.with_hierarchy(hierarchy);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        assert!(db.run(Algorithm::AStar(AStarVersion::V5), s, d).is_ok());
        // Rush-hour update: v5 must refuse the now-stale overlay; v3
        // (no preprocessing dependency) keeps answering.
        db.update_edge_cost(grid.node_at(1, 1), grid.node_at(1, 2), 9.0)
            .unwrap();
        assert!(matches!(
            db.run(Algorithm::AStar(AStarVersion::V5), s, d),
            Err(AlgorithmError::HierarchyUnavailable(ArtifactIssue::Stale))
        ));
        assert!(db.run(Algorithm::AStar(AStarVersion::V3), s, d).is_ok());
        // Customizing for the new costs restores v5, exactly.
        let customized = db.hierarchy().unwrap().customized_for(db.graph());
        assert!(customized.is_current_for(db.graph()));
        let db = db.with_hierarchy(customized);
        let t = db.run(Algorithm::AStar(AStarVersion::V5), s, d).unwrap();
        let oracle = memory::dijkstra_pair(db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() <= oracle.cost * 1e-9 + 1e-12);
    }

    #[test]
    fn source_equals_destination_for_v5() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let (grid, db) = grid_db(5, CostModel::Uniform, 0);
        let hierarchy = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let db = db.with_hierarchy(hierarchy);
        let s = grid.node_at(2, 2);
        let t = db.run(Algorithm::AStar(AStarVersion::V5), s, s).unwrap();
        assert_eq!(t.path.unwrap().cost, 0.0);
    }

    #[test]
    fn source_equals_destination_for_v1() {
        let (grid, db) = grid_db(5, CostModel::Uniform, 0);
        let s = grid.node_at(2, 2);
        let t = db.run(Algorithm::AStar(AStarVersion::V1), s, s).unwrap();
        assert_eq!(t.iterations, 0);
        assert_eq!(t.path.unwrap().cost, 0.0);
    }
}

//! Typed error paths through the public API: bad endpoints, oversized
//! graphs, exhausted budgets. Every failure mode must surface as a typed
//! error with a useful `Display`, not a panic.

use atis::algorithms::{
    AStarVersion, Algorithm, AlgorithmError, BudgetKind, Budgets, Database, Estimator,
    FrontierKind, Hierarchy, HierarchyConfig, LandmarkTables, PreprocessConfig,
};
use atis::graph::graph::graph_from_arcs;
use atis::graph::GraphBuilder;
use atis::{CostModel, Grid, NodeId, QueryKind, RoutePlanner};

#[test]
fn unknown_endpoints_through_database_run() {
    let grid = Grid::new(5, CostModel::Uniform, 0).unwrap();
    let db = Database::open(grid.graph()).unwrap();
    let bad = NodeId(9_999);
    for algorithm in Algorithm::TABLE {
        match db.run(algorithm, bad, NodeId(0)) {
            Err(AlgorithmError::UnknownSource(n)) => assert_eq!(n, bad),
            other => panic!(
                "{}: expected UnknownSource, got {other:?}",
                algorithm.label()
            ),
        }
        match db.run(algorithm, NodeId(0), bad) {
            Err(AlgorithmError::UnknownDestination(n)) => assert_eq!(n, bad),
            other => panic!(
                "{}: expected UnknownDestination, got {other:?}",
                algorithm.label()
            ),
        }
    }
}

#[test]
fn unknown_endpoints_through_the_planner() {
    let grid = Grid::new(5, CostModel::Uniform, 0).unwrap();
    let planner = RoutePlanner::new(grid.graph()).unwrap();
    let bad = NodeId(9_999);
    assert!(matches!(
        planner.plan(bad, NodeId(0)),
        Err(AlgorithmError::UnknownSource(_))
    ));
    assert!(matches!(
        planner.plan(NodeId(0), bad),
        Err(AlgorithmError::UnknownDestination(_))
    ));
}

#[test]
fn oversized_graph_is_rejected_at_the_capacity_boundary() {
    // Node ids are stored as 24-bit fields in the 32-byte edge tuple, so
    // the graph layer caps construction at MAX_NODES = 2^24 - 1: one more
    // node must be a typed error at build time (the storage engine's own
    // `StorageError::CapacityExceeded` is the defensive second line for
    // the same limit).
    let n = atis::graph::graph::MAX_NODES + 1;
    let mut b = GraphBuilder::with_capacity(n, 0);
    for i in 0..n {
        b.add_node(atis::graph::Point::new(i as f64, 0.0));
    }
    match b.build() {
        Err(atis::graph::GraphError::TooManyNodes(got)) => assert_eq!(got, n),
        other => panic!("expected TooManyNodes, got {other:?}"),
    }

    // Exactly MAX_NODES is fine, end to end through the storage engine.
    let n = atis::graph::graph::MAX_NODES;
    let mut b = GraphBuilder::with_capacity(n, 1);
    for i in 0..n {
        b.add_node(atis::graph::Point::new(i as f64, 0.0));
    }
    b.add_arc(NodeId(0), NodeId(1), 1.0);
    let g = b.build().unwrap();
    let db = Database::open(&g).unwrap();
    assert_eq!(db.graph().node_count(), n);
}

#[test]
fn every_budget_kind_fires_and_displays() {
    let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 2).unwrap();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let cases: [(Budgets, &str); 2] = [
        (
            Budgets::unlimited().with_max_iterations(1),
            "iteration budget exceeded",
        ),
        (
            Budgets::unlimited().with_max_cost_units(0.5),
            "cost-unit budget exceeded",
        ),
    ];
    for (budgets, display) in cases {
        let db = Database::open(grid.graph()).unwrap().with_budgets(budgets);
        let err = db.run(Algorithm::Dijkstra, s, d).unwrap_err();
        assert!(
            matches!(err, AlgorithmError::BudgetExceeded(_)),
            "{display}: {err:?}"
        );
        assert_eq!(err.to_string(), display);
    }
}

#[test]
fn generous_budgets_change_nothing() {
    let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 2).unwrap();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let plain = Database::open(grid.graph())
        .unwrap()
        .run(Algorithm::Dijkstra, s, d)
        .unwrap();
    let budgeted = Database::open(grid.graph())
        .unwrap()
        .with_budgets(
            Budgets::unlimited()
                .with_max_iterations(1_000_000)
                .with_max_cost_units(1e12),
        )
        .run(Algorithm::Dijkstra, s, d)
        .unwrap();
    assert_eq!(plain.io, budgeted.io);
    assert_eq!(plain.iterations, budgeted.iterations);
    assert_eq!(plain.path.map(|p| p.nodes), budgeted.path.map(|p| p.nodes));
}

/// The one budget rule: the meter checks at the top of every iteration
/// and once more after the last selection (A\* version 5, which reads
/// the overlay again to unpack its path, checks once more after that),
/// so a run that returns `Ok`
/// has completed at most `max_iterations` iterations and charged at most
/// `max_cost_units`. Swept over every iteration budget below the run's
/// own count and over cost budgets in steps of 1/40 of its own cost.
#[test]
fn an_ok_run_stays_within_its_budgets() {
    // `tests/driver_identity.rs`'s two islands: 0..=8, where the
    // geometric estimators overestimate, and 9..=11, unreachable from 0.
    let islands = graph_from_arcs(
        12,
        &[
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 3.5),
            (2, 3, 1.0),
            (0, 4, 1.5),
            (4, 3, 0.25),
            (3, 5, 2.0),
            (4, 6, 0.5),
            (6, 5, 0.25),
            (5, 7, 1.0),
            (6, 8, 4.0),
            (7, 8, 1.0),
            (8, 0, 1.0),
            (3, 1, 0.25),
            (9, 10, 1.0),
            (10, 11, 1.0),
            (11, 9, 1.0),
            (9, 0, 1.0),
        ],
    )
    .unwrap();
    let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let (gs, gd) = grid.query_pair(QueryKind::Diagonal);
    let mut algorithms = vec![Algorithm::Iterative, Algorithm::Dijkstra];
    algorithms.extend(AStarVersion::ALL_WITH_HIERARCHY.map(Algorithm::AStar));
    for frontier in [
        FrontierKind::StatusAttribute,
        FrontierKind::SeparateRelation,
    ] {
        algorithms.push(Algorithm::Custom {
            frontier,
            estimator: Estimator::Manhattan,
        });
    }

    for (graph, s, d) in [
        (&islands, NodeId(0), NodeId(8)),
        (&islands, NodeId(0), NodeId(10)),
        (grid.graph(), gs, gd),
    ] {
        let db = Database::open(graph)
            .unwrap()
            .with_landmarks(LandmarkTables::build(graph, PreprocessConfig::grid_default()).unwrap())
            .with_hierarchy(Hierarchy::build(graph, HierarchyConfig::paper()).unwrap());
        for algorithm in &algorithms {
            let what = format!("{} {}->{}", algorithm.label(), s.0, d.0);
            let free = db.run(*algorithm, s, d).unwrap();
            let spent = free.cost_units(db.params());
            // Budgets the run keeps within do not refuse it.
            let own = Budgets::unlimited()
                .with_max_iterations(free.iterations)
                .with_max_cost_units(spent);
            assert!(db.run_with_budgets(*algorithm, s, d, own).is_ok(), "{what}");
            let by_iterations =
                (0..free.iterations).map(|n| Budgets::unlimited().with_max_iterations(n));
            let by_cost = (0..40)
                .map(|k| Budgets::unlimited().with_max_cost_units(spent * f64::from(k) / 40.0));
            for budgets in by_iterations.chain(by_cost) {
                let Ok(t) = db.run_with_budgets(*algorithm, s, d, budgets) else {
                    continue;
                };
                if let Some(max) = budgets.max_iterations {
                    assert!(
                        t.iterations <= max,
                        "{what}: {} iterations under {budgets:?}",
                        t.iterations
                    );
                }
                if let Some(max) = budgets.max_cost_units {
                    let cost = t.cost_units(db.params());
                    assert!(cost <= max, "{what}: {cost} cost units under {budgets:?}");
                }
            }
        }
    }

    // The case that once slipped through: Iterative checked its budget
    // only before the rounds it would run, so 0->8 returned `Ok` after
    // charging 3.09 units under a 3.0 budget, where Dijkstra refused.
    let db = Database::open(&islands)
        .unwrap()
        .with_budgets(Budgets::unlimited().with_max_cost_units(3.0));
    for algorithm in [Algorithm::Iterative, Algorithm::Dijkstra] {
        assert!(matches!(
            db.run(algorithm, NodeId(0), NodeId(8)),
            Err(AlgorithmError::BudgetExceeded(BudgetKind::CostUnits))
        ));
    }
}

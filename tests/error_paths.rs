//! Typed error paths through the public API: bad endpoints, oversized
//! graphs, exhausted budgets. Every failure mode must surface as a typed
//! error with a useful `Display`, not a panic.

use atis::algorithms::{Algorithm, AlgorithmError, Budgets, Database};
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

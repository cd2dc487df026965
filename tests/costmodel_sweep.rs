//! Systematic algebra-vs-physical validation — the paper's own
//! methodology ("With our algebraic cost models and simulation we were
//! able to predict actual execution time within ten percent"), swept
//! across grid sizes, query kinds and algorithms.

use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::costmodel::{Model, ModelParams, RelationFrontierModel};
use atis::storage::CostParams;
use atis::{CostModel, Grid, QueryKind};

/// Long best-first runs must be predicted within 15%; short runs are
/// dominated by fixed-cost modelling differences and are skipped (the
/// paper's Table 4B example likewise quotes only multi-hundred-unit
/// cells for its percentages).
#[test]
fn best_first_sweep() {
    let cost_params = CostParams::default();
    for k in [12usize, 16, 20, 24, 30] {
        let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 1993).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let params = ModelParams::for_grid(k);
        for kind in QueryKind::TABLE {
            let (s, d) = grid.query_pair(kind);
            for alg in [Algorithm::Dijkstra, Algorithm::AStar(AStarVersion::V3)] {
                let t = db.run(alg, s, d).unwrap();
                let measured = t.cost_units(&cost_params);
                if measured < 150.0 {
                    continue;
                }
                let predicted = Model::table_3(&params, db.join_policy()).total(t.iterations);
                let err = (predicted - measured).abs() / measured;
                assert!(
                    err < 0.15,
                    "{} k={k} {kind:?}: predicted {predicted:.1} vs measured {measured:.1} \
                     ({:.0}%)",
                    alg.label(),
                    err * 100.0
                );
            }
        }
    }
}

#[test]
fn iterative_sweep() {
    let cost_params = CostParams::default();
    for k in [12usize, 20, 30] {
        let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 1993).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t = db.run(Algorithm::Iterative, s, d).unwrap();
        let measured = t.cost_units(&cost_params);
        let params = ModelParams::for_grid(k);
        let model = Model::table_2(&params, db.join_policy(), params.avg_current(t.iterations));
        let predicted = model.total(t.iterations);
        let err = (predicted - measured).abs() / measured;
        assert!(
            err < 0.15,
            "k={k}: predicted {predicted:.1} vs measured {measured:.1} ({:.0}%)",
            err * 100.0
        );
    }
}

#[test]
fn relation_frontier_sweep() {
    // The version-1 model (our extension of the paper's analysis) must
    // track the metered v1 runs within 25% across sizes.
    let cost_params = CostParams::default();
    for k in [16usize, 24, 30] {
        let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 1993).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t = db.run(Algorithm::AStar(AStarVersion::V1), s, d).unwrap();
        let measured = t.cost_units(&cost_params);
        let model = RelationFrontierModel::new(ModelParams::for_grid(k), db.join_policy());
        let predicted = model.total(t.iterations);
        let err = (predicted - measured).abs() / measured;
        assert!(
            err < 0.25,
            "k={k}: predicted {predicted:.1} vs measured {measured:.1} ({:.0}%)",
            err * 100.0
        );
    }
}

#[test]
fn optimizer_policy_is_predicted_too() {
    // With the cost-based join policy the model (priced at that policy)
    // must still track the engine: both pick primary-key joins for the
    // one-current-node shape.
    use atis::storage::JoinPolicy;
    let cost_params = CostParams::default();
    let grid = Grid::new(20, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let db = Database::open(grid.graph())
        .unwrap()
        .with_join_policy(JoinPolicy::CostBased);
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
    let measured = t.cost_units(&cost_params);
    let model = Model::table_3(&ModelParams::for_grid(20), db.join_policy());
    let predicted = model.total(t.iterations);
    let err = (predicted - measured).abs() / measured;
    assert!(
        err < 0.15,
        "optimizer policy: predicted {predicted:.1} vs measured {measured:.1} ({:.0}%)",
        err * 100.0
    );
}

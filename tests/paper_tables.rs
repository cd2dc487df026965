//! The headline reproductions: assertions that pin our measured results to
//! the paper's tables — exactly where the quantity is structural, within a
//! band where it depends on the (unpublished) random draws. EXPERIMENTS.md
//! documents each band.

use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::costmodel::{Model, ModelParams, Part};
use atis::storage::CostParams;
use atis::{CostModel, Grid, Minneapolis, QueryKind};

const SEED: u64 = 1993;

fn grid_db(k: usize, model: CostModel) -> (Grid, Database) {
    let grid = Grid::new(k, model, SEED).unwrap();
    let db = Database::open(grid.graph()).unwrap();
    (grid, db)
}

fn iterations(db: &Database, alg: Algorithm, grid: &Grid, kind: QueryKind) -> u64 {
    let (s, d) = grid.query_pair(kind);
    db.run(alg, s, d).unwrap().iterations
}

#[test]
fn table5_dijkstra_column_is_exact() {
    // Diagonal queries: Dijkstra expands every other node first —
    // n-1 iterations, structural, independent of the draws.
    for (k, expect) in [(10usize, 99u64), (20, 399), (30, 899)] {
        let (grid, db) = grid_db(k, CostModel::TWENTY_PERCENT);
        assert_eq!(
            iterations(&db, Algorithm::Dijkstra, &grid, QueryKind::Diagonal),
            expect
        );
    }
}

#[test]
fn table5_iterative_column_is_exact() {
    // Rounds = hop eccentricity + 1 = 2(k-1)+1: 19 / 39 / 59.
    for (k, expect) in [(10usize, 19u64), (20, 39), (30, 59)] {
        let (grid, db) = grid_db(k, CostModel::TWENTY_PERCENT);
        assert_eq!(
            iterations(&db, Algorithm::Iterative, &grid, QueryKind::Diagonal),
            expect
        );
    }
}

#[test]
fn table5_astar_column_is_in_band() {
    // Paper: 85 / 360 / 838. The exact values depend on the variance
    // draws; structurally A* v3 <= Dijkstra's n-1 on the diagonal.
    for (k, dijkstra) in [(10usize, 99u64), (20, 399), (30, 899)] {
        let (grid, db) = grid_db(k, CostModel::TWENTY_PERCENT);
        let a = iterations(
            &db,
            Algorithm::AStar(AStarVersion::V3),
            &grid,
            QueryKind::Diagonal,
        );
        assert!(a <= dijkstra, "k={k}: A* {a} > Dijkstra bound {dijkstra}");
        assert!(
            a >= (2 * (k as u64 - 1)),
            "k={k}: A* {a} below the path length"
        );
    }
}

#[test]
fn table6_path_length_orderings() {
    let (grid, db) = grid_db(30, CostModel::TWENTY_PERCENT);
    let d_h = iterations(&db, Algorithm::Dijkstra, &grid, QueryKind::Horizontal);
    let d_s = iterations(&db, Algorithm::Dijkstra, &grid, QueryKind::SemiDiagonal);
    let d_d = iterations(&db, Algorithm::Dijkstra, &grid, QueryKind::Diagonal);
    assert!(
        d_h < d_s && d_s < d_d,
        "Dijkstra ordering {d_h} {d_s} {d_d}"
    );
    // Paper: 488 / 767 / 899; ours must land within 10%.
    for (ours, paper) in [(d_h, 488.0), (d_s, 767.0), (d_d, 899.0)] {
        assert!(
            (ours as f64 - paper).abs() / paper < 0.10,
            "{ours} vs paper {paper}"
        );
    }

    let a_h = iterations(
        &db,
        Algorithm::AStar(AStarVersion::V3),
        &grid,
        QueryKind::Horizontal,
    );
    let a_s = iterations(
        &db,
        Algorithm::AStar(AStarVersion::V3),
        &grid,
        QueryKind::SemiDiagonal,
    );
    let a_d = iterations(
        &db,
        Algorithm::AStar(AStarVersion::V3),
        &grid,
        QueryKind::Diagonal,
    );
    assert!(a_h < a_s && a_s <= a_d, "A* ordering {a_h} {a_s} {a_d}");
    // The headline: A* collapses on the horizontal path (paper 29; the
    // 29-edge path plus bounded variance wandering).
    assert!(
        a_h <= 60,
        "horizontal A* should be near the path length, got {a_h}"
    );

    // Iterative is path-length-insensitive (59 everywhere).
    for kind in QueryKind::TABLE {
        assert_eq!(iterations(&db, Algorithm::Iterative, &grid, kind), 59);
    }
}

#[test]
fn table6_crossover_in_cost_units() {
    // Figure 6's crossover: A* wins on horizontal, Iterative wins on
    // diagonal (both in the paper's execution-time units).
    let (grid, db) = grid_db(30, CostModel::TWENTY_PERCENT);
    let params = CostParams::default();
    let cost = |alg, kind| {
        let (s, d) = grid.query_pair(kind);
        db.run(alg, s, d).unwrap().cost_units(&params)
    };
    let a_h = cost(Algorithm::AStar(AStarVersion::V3), QueryKind::Horizontal);
    let i_h = cost(Algorithm::Iterative, QueryKind::Horizontal);
    let d_h = cost(Algorithm::Dijkstra, QueryKind::Horizontal);
    assert!(
        a_h < i_h && i_h < d_h,
        "horizontal: A* {a_h} < Iterative {i_h} < Dijkstra {d_h}"
    );
    let a_d = cost(Algorithm::AStar(AStarVersion::V3), QueryKind::Diagonal);
    let i_d = cost(Algorithm::Iterative, QueryKind::Diagonal);
    let d_d = cost(Algorithm::Dijkstra, QueryKind::Diagonal);
    assert!(
        i_d < a_d && i_d < d_d,
        "diagonal: Iterative {i_d} wins over A* {a_d}, Dijkstra {d_d}"
    );
}

#[test]
fn table7_cost_model_effects() {
    // Uniform: Dijkstra 399 (exact), Iterative 39 (exact), A* well below
    // Dijkstra (paper 189; the all-ties plateau with hash tie-breaking).
    let (grid, db) = grid_db(20, CostModel::Uniform);
    assert_eq!(
        iterations(&db, Algorithm::Dijkstra, &grid, QueryKind::Diagonal),
        399
    );
    assert_eq!(
        iterations(&db, Algorithm::Iterative, &grid, QueryKind::Diagonal),
        39
    );
    let a_u = iterations(
        &db,
        Algorithm::AStar(AStarVersion::V3),
        &grid,
        QueryKind::Diagonal,
    );
    assert!(
        (100..350).contains(&a_u),
        "uniform A* plateau: {a_u} (paper 189)"
    );

    // Skewed: the corridor collapse. A* v3 = 2(k-1) exactly (paper 38);
    // Dijkstra and Iterative land near the paper's 48 / 56.
    let (grid, db) = grid_db(20, CostModel::Skewed);
    let a_s = iterations(
        &db,
        Algorithm::AStar(AStarVersion::V3),
        &grid,
        QueryKind::Diagonal,
    );
    assert_eq!(a_s, 38);
    let d_s = iterations(&db, Algorithm::Dijkstra, &grid, QueryKind::Diagonal);
    assert!((38..100).contains(&d_s), "skewed Dijkstra {d_s} (paper 48)");
    let i_s = iterations(&db, Algorithm::Iterative, &grid, QueryKind::Diagonal);
    assert!((40..70).contains(&i_s), "skewed Iterative {i_s} (paper 56)");
    // And the skew makes the iterative algorithm *worse* than uniform.
    assert!(i_s > 39);
}

#[test]
fn table8_minneapolis_shape() {
    use atis::graph::minneapolis::NamedPair;
    let m = Minneapolis::paper();
    let db = Database::open(m.graph()).unwrap();
    let run = |alg, pair: NamedPair| {
        let (s, d) = m.query_pair(pair);
        db.run(alg, s, d).unwrap()
    };
    let params = CostParams::default();

    // Long diagonals: Dijkstra expands nearly the whole map; Iterative is
    // far cheaper; A* sits in between (paper: 1058/55/453 for A->B).
    for pair in [NamedPair::AtoB, NamedPair::CtoD] {
        let dij = run(Algorithm::Dijkstra, pair);
        let it = run(Algorithm::Iterative, pair);
        let astar = run(Algorithm::AStar(AStarVersion::V3), pair);
        assert!(
            dij.iterations > 900,
            "{}: Dijkstra {}",
            pair.label(),
            dij.iterations
        );
        assert!(
            it.iterations < 80,
            "{}: Iterative {}",
            pair.label(),
            it.iterations
        );
        assert!(
            astar.iterations > it.iterations && astar.iterations < dij.iterations,
            "{}: A* {} between Iterative {} and Dijkstra {}",
            pair.label(),
            astar.iterations,
            it.iterations,
            dij.iterations
        );
        let (ic, dc) = (it.cost_units(&params), dij.cost_units(&params));
        assert!(
            ic < dc / 5.0,
            "{}: Iterative {ic} ≪ Dijkstra {dc}",
            pair.label()
        );
    }

    // A->B backtracks more than C->D (against the downtown slope).
    let ab = run(Algorithm::AStar(AStarVersion::V3), NamedPair::AtoB);
    let cd = run(Algorithm::AStar(AStarVersion::V3), NamedPair::CtoD);
    assert!(
        ab.iterations > cd.iterations,
        "A->B ({}) should backtrack more than C->D ({})",
        ab.iterations,
        cd.iterations
    );

    // Short paths: A* wins outright, cutting most of the iterative cost
    // (paper: 95% for G->D).
    for pair in [NamedPair::GtoD, NamedPair::EtoF] {
        let astar = run(Algorithm::AStar(AStarVersion::V3), pair);
        let it = run(Algorithm::Iterative, pair);
        let dij = run(Algorithm::Dijkstra, pair);
        assert!(
            astar.iterations < 30,
            "{}: A* {}",
            pair.label(),
            astar.iterations
        );
        let (ac, ic, dc) = (
            astar.cost_units(&params),
            it.cost_units(&params),
            dij.cost_units(&params),
        );
        assert!(
            ac < ic * 0.5,
            "{}: A* {ac} far below Iterative {ic}",
            pair.label()
        );
        assert!(
            ac < dc * 0.2,
            "{}: A* {ac} far below Dijkstra {dc}",
            pair.label()
        );
    }
}

#[test]
fn table_4b_algebra_matches_physical_engine_within_15_percent() {
    // The paper validated its model against EQUEL at 10%; our algebraic
    // model must predict our physical engine comparably. A* horizontal is
    // excluded: at 40 iterations the init-cost modelling differences
    // dominate (documented in EXPERIMENTS.md).
    let (grid, db) = grid_db(30, CostModel::TWENTY_PERCENT);
    let params = ModelParams::for_grid(30);
    let cost_params = CostParams::default();
    for kind in QueryKind::TABLE {
        let (s, d) = grid.query_pair(kind);
        for alg in [
            Algorithm::Dijkstra,
            Algorithm::AStar(AStarVersion::V3),
            Algorithm::Iterative,
        ] {
            let t = db.run(alg, s, d).unwrap();
            let measured = t.cost_units(&cost_params);
            let model = match alg {
                Algorithm::Iterative => {
                    Model::table_2(&params, db.join_policy(), params.avg_current(t.iterations))
                }
                _ => Model::table_3(&params, db.join_policy()),
            };
            let predicted = model.total(t.iterations);
            let err = (predicted - measured).abs() / measured;
            if measured < 150.0 {
                continue; // short runs: fixed-cost modelling differences dominate
            }
            assert!(
                err < 0.15,
                "{} {:?}: predicted {predicted:.1} vs measured {measured:.1} ({:.0}%)",
                alg.label(),
                kind,
                err * 100.0
            );
        }
    }
}

#[test]
fn step_breakdown_sums_to_total_and_matches_algebra() {
    let (grid, db) = grid_db(30, CostModel::TWENTY_PERCENT);
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let params = CostParams::default();
    let mp = ModelParams::for_grid(30);

    let dij = db.run(Algorithm::Dijkstra, s, d).unwrap();
    assert_eq!(
        dij.steps.total(),
        dij.io,
        "Dijkstra step attribution must sum to the total"
    );
    let it = db.run(Algorithm::Iterative, s, d).unwrap();
    assert_eq!(
        it.steps.total(),
        it.io,
        "Iterative step attribution must sum to the total"
    );

    // Per-step agreement with Tables 2-3 (select and join are exact up to
    // boundary-degree effects; assert within 2%).
    let err = |measured: f64, predicted: f64| (measured - predicted).abs() / predicted;
    let bf = Model::table_3(&mp, db.join_policy());
    let di = dij.iterations;
    let sel_err = err(dij.steps.select.cost(&params), bf.part(Part::Select, di));
    assert!(sel_err < 0.02, "select step off by {:.1}%", sel_err * 100.0);
    let join_err = err(dij.steps.join.cost(&params), bf.part(Part::Join, di));
    assert!(join_err < 0.02, "join step off by {:.1}%", join_err * 100.0);

    let ii = it.iterations;
    let im = Model::table_2(&mp, db.join_policy(), mp.avg_current(ii));
    let c5_err = err(it.steps.select.cost(&params), im.part(Part::Select, ii));
    assert!(c5_err < 0.02, "C5 off by {:.1}%", c5_err * 100.0);
    let c8_err = err(
        it.steps.bookkeeping.cost(&params),
        im.part(Part::Bookkeeping, ii),
    );
    assert!(c8_err < 0.02, "C8 off by {:.1}%", c8_err * 100.0);
}

#[test]
fn cost_model_generalises_to_the_minneapolis_graph() {
    // ModelParams::for_graph must predict the physical engine on a
    // non-grid network too (long runs; short runs are init-dominated).
    let m = Minneapolis::paper();
    let db = Database::open(m.graph()).unwrap();
    let params = ModelParams::for_graph(m.graph());
    let cost_params = CostParams::default();
    let model = Model::table_3(&params, db.join_policy());
    let (s, d) = m.query_pair(atis::graph::minneapolis::NamedPair::AtoB);
    let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
    let measured = t.cost_units(&cost_params);
    let predicted = model.total(t.iterations);
    let err = (predicted - measured).abs() / measured;
    assert!(
        err < 0.15,
        "Minneapolis Dijkstra: predicted {predicted:.1} vs measured {measured:.1} ({:.0}%)",
        err * 100.0
    );
}

#[test]
fn figure10_version1_degrades_with_graph_size() {
    // "As the graph size increases, the performance of A* version 1
    // becomes worse than version 2."
    let params = CostParams::default();
    let mut gaps = Vec::new();
    for k in [10usize, 20, 30] {
        let (grid, db) = grid_db(k, CostModel::TWENTY_PERCENT);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let v1 = db
            .run(Algorithm::AStar(AStarVersion::V1), s, d)
            .unwrap()
            .cost_units(&params);
        let v2 = db
            .run(Algorithm::AStar(AStarVersion::V2), s, d)
            .unwrap()
            .cost_units(&params);
        gaps.push(v1 - v2);
    }
    assert!(
        gaps[0] < gaps[1] && gaps[1] < gaps[2],
        "v1-v2 gap must grow: {gaps:?}"
    );
    assert!(gaps[2] > 0.0, "v1 must be worse than v2 at 30x30");
}

#[test]
fn figure10_version3_beats_version2_at_scale() {
    // "For the 30x30 grid, version 3 performs ten times better than
    // version 2" — the estimator-quality headline. The effect is
    // sharpest where Manhattan is the perfect estimator: the uniform-cost
    // grid (we measure ~4.4x on the diagonal; EXPERIMENTS.md discusses
    // the factor).
    let (grid, db) = grid_db(30, CostModel::Uniform);
    let params = CostParams::default();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let v2 = db
        .run(Algorithm::AStar(AStarVersion::V2), s, d)
        .unwrap()
        .cost_units(&params);
    let v3 = db
        .run(Algorithm::AStar(AStarVersion::V3), s, d)
        .unwrap()
        .cost_units(&params);
    assert!(
        v3 * 3.0 < v2,
        "v3 {v3} should be several times cheaper than v2 {v2}"
    );
    // Manhattan never loses to Euclidean on grids ("Manhattan distance
    // also outperforms euclidean distance for grid graphs").
    for kind in QueryKind::TABLE {
        let (s, d) = grid.query_pair(kind);
        let v2 = db
            .run(Algorithm::AStar(AStarVersion::V2), s, d)
            .unwrap()
            .iterations;
        let v3 = db
            .run(Algorithm::AStar(AStarVersion::V3), s, d)
            .unwrap()
            .iterations;
        assert!(v3 <= v2, "{kind:?}: v3 {v3} vs v2 {v2}");
    }
}

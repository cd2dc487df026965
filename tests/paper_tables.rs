//! The headline reproductions: assertions that pin our measured results to
//! the paper's tables — exactly where the quantity is structural, within a
//! band where it depends on the (unpublished) random draws. EXPERIMENTS.md
//! documents each band.
//!
//! The runs are `atis_bench::studies::paper_rows`, the rows whose tables
//! EXPERIMENTS.md commits, taken once per test binary; the paper's printed
//! cells are `atis::costmodel::PAPER_ITERATIONS`.

use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::costmodel::{paper_iterations, Model, ModelParams, Part};
use atis::graph::minneapolis::NamedPair;
use atis::storage::{CostParams, JoinPolicy};
use atis::{CostModel, Grid, QueryKind};
use atis_bench::studies::{self, PaperRow, Workload};
use std::sync::OnceLock;

const SEED: u64 = 1993;
const V1: Algorithm = Algorithm::AStar(AStarVersion::V1);
const V2: Algorithm = Algorithm::AStar(AStarVersion::V2);
const V3: Algorithm = Algorithm::AStar(AStarVersion::V3);

fn run(workload: Workload, algorithm: Algorithm) -> &'static PaperRow {
    static ROWS: OnceLock<Vec<PaperRow>> = OnceLock::new();
    studies::paper_row(ROWS.get_or_init(studies::paper_rows), workload, algorithm)
}

fn grid(k: usize, costs: CostModel, query: QueryKind) -> Workload {
    Workload::Grid { k, costs, query }
}

fn iterations(algorithm: Algorithm, workload: Workload) -> u64 {
    run(workload, algorithm).iterations
}

fn cost(algorithm: Algorithm, workload: Workload) -> f64 {
    run(workload, algorithm).cost_units
}

/// The iterations the paper prints in `table` for `algorithm`.
fn paper(table: u8, algorithm: Algorithm) -> &'static [u64] {
    paper_iterations(table, &algorithm.label()).expect("the paper prints this row")
}

fn diagonal(k: usize) -> Workload {
    grid(k, CostModel::TWENTY_PERCENT, QueryKind::Diagonal)
}

fn grid30(query: QueryKind) -> Workload {
    grid(30, CostModel::TWENTY_PERCENT, query)
}

#[test]
fn table5_dijkstra_column_is_exact() {
    // Diagonal queries: Dijkstra expands every other node first —
    // n-1 iterations, structural, independent of the draws — and so
    // does the paper.
    for (k, printed) in [10usize, 20, 30]
        .into_iter()
        .zip(paper(5, Algorithm::Dijkstra))
    {
        let expect = (k * k - 1) as u64;
        assert_eq!(expect, *printed);
        assert_eq!(iterations(Algorithm::Dijkstra, diagonal(k)), expect);
    }
}

#[test]
fn table5_iterative_column_is_exact() {
    // Rounds = hop eccentricity + 1 = 2(k-1)+1, as the paper prints.
    for (k, printed) in [10usize, 20, 30]
        .into_iter()
        .zip(paper(5, Algorithm::Iterative))
    {
        let expect = 2 * (k as u64 - 1) + 1;
        assert_eq!(expect, *printed);
        assert_eq!(iterations(Algorithm::Iterative, diagonal(k)), expect);
    }
}

#[test]
fn table5_astar_column_is_in_band() {
    // The paper's A* values depend on the variance draws; structurally
    // A* v3 <= Dijkstra's n-1 on the diagonal.
    for k in [10usize, 20, 30] {
        let dijkstra = (k * k - 1) as u64;
        let a = iterations(V3, diagonal(k));
        assert!(a <= dijkstra, "k={k}: A* {a} > Dijkstra bound {dijkstra}");
        assert!(
            a >= (2 * (k as u64 - 1)),
            "k={k}: A* {a} below the path length"
        );
    }
}

#[test]
fn table6_path_length_orderings() {
    let [d_h, d_s, d_d] = QueryKind::TABLE.map(|q| iterations(Algorithm::Dijkstra, grid30(q)));
    assert!(
        d_h < d_s && d_s < d_d,
        "Dijkstra ordering {d_h} {d_s} {d_d}"
    );
    // Ours must land within 10% of the paper's.
    for (ours, &paper) in [d_h, d_s, d_d].iter().zip(paper(6, Algorithm::Dijkstra)) {
        let paper = paper as f64;
        assert!(
            (*ours as f64 - paper).abs() / paper < 0.10,
            "{ours} vs paper {paper}"
        );
    }

    let [a_h, a_s, a_d] = QueryKind::TABLE.map(|q| iterations(V3, grid30(q)));
    assert!(a_h < a_s && a_s <= a_d, "A* ordering {a_h} {a_s} {a_d}");
    // The headline: A* collapses on the horizontal path (the paper's
    // Table 6; the 29-edge path plus bounded variance wandering).
    assert!(
        a_h <= 60,
        "horizontal A* should be near the path length, got {a_h}"
    );

    // Iterative is path-length-insensitive (59 everywhere).
    for kind in QueryKind::TABLE {
        assert_eq!(iterations(Algorithm::Iterative, grid30(kind)), 59);
    }
}

#[test]
fn table6_crossover_in_cost_units() {
    // Figure 6's crossover: A* wins on horizontal, Iterative wins on
    // diagonal (both in the paper's execution-time units).
    let horizontal = grid30(QueryKind::Horizontal);
    let a_h = cost(V3, horizontal);
    let i_h = cost(Algorithm::Iterative, horizontal);
    let d_h = cost(Algorithm::Dijkstra, horizontal);
    assert!(
        a_h < i_h && i_h < d_h,
        "horizontal: A* {a_h} < Iterative {i_h} < Dijkstra {d_h}"
    );
    let diagonal = grid30(QueryKind::Diagonal);
    let a_d = cost(V3, diagonal);
    let i_d = cost(Algorithm::Iterative, diagonal);
    let d_d = cost(Algorithm::Dijkstra, diagonal);
    assert!(
        i_d < a_d && i_d < d_d,
        "diagonal: Iterative {i_d} wins over A* {a_d}, Dijkstra {d_d}"
    );
}

#[test]
fn table7_cost_model_effects() {
    // Uniform: Dijkstra 399 (exact), Iterative 39 (exact), A* well below
    // Dijkstra (the paper's Table 7 too; the all-ties plateau with hash
    // tie-breaking).
    let uniform = grid(20, CostModel::Uniform, QueryKind::Diagonal);
    assert_eq!(iterations(Algorithm::Dijkstra, uniform), 399);
    assert_eq!(iterations(Algorithm::Iterative, uniform), 39);
    let a_u = iterations(V3, uniform);
    assert!(
        (100..350).contains(&a_u),
        "uniform A* plateau: {a_u} (paper {})",
        paper(7, V3)[0]
    );

    // Skewed: the corridor collapse. A* v3 = 2(k-1) exactly, as the paper
    // prints; Dijkstra and Iterative land near the paper's counts.
    let skewed = grid(20, CostModel::Skewed, QueryKind::Diagonal);
    assert_eq!(iterations(V3, skewed), 38);
    let d_s = iterations(Algorithm::Dijkstra, skewed);
    let printed = |algorithm| paper(7, algorithm)[2];
    assert_eq!(printed(V3), 38);
    assert!(
        (38..100).contains(&d_s),
        "skewed Dijkstra {d_s} (paper {})",
        printed(Algorithm::Dijkstra)
    );
    let i_s = iterations(Algorithm::Iterative, skewed);
    assert!(
        (40..70).contains(&i_s),
        "skewed Iterative {i_s} (paper {})",
        printed(Algorithm::Iterative)
    );
    // And the skew makes the iterative algorithm *worse* than uniform.
    assert!(i_s > 39);
}

#[test]
fn table8_minneapolis_shape() {
    let run = |algorithm, pair| run(Workload::Minneapolis(pair), algorithm);

    // Long diagonals: Dijkstra expands nearly the whole map; Iterative is
    // far cheaper; A* sits in between (the order of the paper's Table 8).
    for pair in [NamedPair::AtoB, NamedPair::CtoD] {
        let dij = run(Algorithm::Dijkstra, pair);
        let it = run(Algorithm::Iterative, pair);
        let astar = run(V3, pair);
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
        let (ic, dc) = (it.cost_units, dij.cost_units);
        assert!(
            ic < dc / 5.0,
            "{}: Iterative {ic} ≪ Dijkstra {dc}",
            pair.label()
        );
    }

    // A->B backtracks more than C->D (against the downtown slope).
    let ab = run(V3, NamedPair::AtoB);
    let cd = run(V3, NamedPair::CtoD);
    assert!(
        ab.iterations > cd.iterations,
        "A->B ({}) should backtrack more than C->D ({})",
        ab.iterations,
        cd.iterations
    );

    // Short paths: A* wins outright, cutting most of the iterative cost
    // (paper: 95% for G->D).
    for pair in [NamedPair::GtoD, NamedPair::EtoF] {
        let astar = run(V3, pair);
        assert!(
            astar.iterations < 30,
            "{}: A* {}",
            pair.label(),
            astar.iterations
        );
        let (ac, ic, dc) = (
            astar.cost_units,
            run(Algorithm::Iterative, pair).cost_units,
            run(Algorithm::Dijkstra, pair).cost_units,
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
    // dominate (documented in EXPERIMENTS.md). The rows run on
    // `Database::open`'s default join policy.
    let params = ModelParams::for_grid(30);
    let policy = JoinPolicy::default();
    for kind in QueryKind::TABLE {
        for alg in [Algorithm::Dijkstra, V3, Algorithm::Iterative] {
            let r = run(grid30(kind), alg);
            let measured = r.cost_units;
            let model = match alg {
                Algorithm::Iterative => {
                    Model::table_2(&params, policy, params.avg_current(r.iterations))
                }
                _ => Model::table_3(&params, policy),
            };
            let predicted = model.total(r.iterations);
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
    let grid = Grid::new(30, CostModel::TWENTY_PERCENT, SEED).unwrap();
    let db = Database::open(grid.graph()).unwrap();
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
    let m = atis::Minneapolis::paper();
    let params = ModelParams::for_graph(m.graph());
    let model = Model::table_3(&params, JoinPolicy::default());
    let t = run(Workload::Minneapolis(NamedPair::AtoB), Algorithm::Dijkstra);
    let measured = t.cost_units;
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
    let gaps = [10usize, 20, 30].map(|k| cost(V1, diagonal(k)) - cost(V2, diagonal(k)));
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
    // the factor). No figure runs the uniform 30×30 grid, so this test
    // runs it.
    let grid = Grid::new(30, CostModel::Uniform, SEED).unwrap();
    let db = Database::open(grid.graph()).unwrap();
    let params = CostParams::default();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let v2 = db.run(V2, s, d).unwrap().cost_units(&params);
    let v3 = db.run(V3, s, d).unwrap().cost_units(&params);
    assert!(
        v3 * 3.0 < v2,
        "v3 {v3} should be several times cheaper than v2 {v2}"
    );
    // Manhattan never loses to Euclidean on grids ("Manhattan distance
    // also outperforms euclidean distance for grid graphs").
    for kind in QueryKind::TABLE {
        let (s, d) = grid.query_pair(kind);
        let v2 = db.run(V2, s, d).unwrap().iterations;
        let v3 = db.run(V3, s, d).unwrap().iterations;
        assert!(v3 <= v2, "{kind:?}: v3 {v3} vs v2 {v2}");
    }
}

//! The serving ladder runs a geometric estimator only while the pinned
//! install admits it.
//!
//! `w ×` a straight-line length never overestimates while no edge costs
//! less than `w` times that length, i.e. while the install's cost floor
//! under the length's norm is at least `w`. A traffic update that prices
//! a street below its length breaks that for Euclidean (A\* versions 1, 2
//! and 4) and Manhattan (version 3), and an estimator run then can answer
//! a route costlier than the optimum. The install refuses such a rung
//! before it runs — the primary included — and the ladder falls to the
//! next one as it would from a stale artifact, so every answer stays
//! exact. `Database::run` itself is unchanged: the paper's A\* loses
//! optimality on Minneapolis there, as the paper reports.

use atis::algorithms::memory::dijkstra_pair;
use atis::algorithms::{ladder, AStarVersion, Algorithm, Database};
use atis::graph::{Graph, SplitMix64};
use atis::hierarchy::{Hierarchy, HierarchyConfig};
use atis::preprocess::{LandmarkTables, PreprocessConfig};
use atis::serve::{RouteAnswer, RouteOutcome, RouteService, ServeConfig};
use atis::{CostModel, Grid, NodeId};
use proptest::prelude::*;

const V1: Algorithm = Algorithm::AStar(AStarVersion::V1);
const V3: Algorithm = Algorithm::AStar(AStarVersion::V3);

/// A service answering with `primary`, one worker and no cache, over
/// `graph` with both artifacts attached so that every rung can run.
fn service(graph: &Graph, primary: Algorithm) -> RouteService {
    let tables = LandmarkTables::build(graph, PreprocessConfig::grid_default()).unwrap();
    let overlay = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();
    let db = Database::open(graph)
        .unwrap()
        .with_landmarks(tables)
        .with_hierarchy(overlay);
    let config = ServeConfig::default()
        .with_workers(1)
        .with_cache_capacity(0)
        .with_algorithm(primary);
    RouteService::new(db, config)
}

/// Why `answer` is not the optimum of `graph` from `s` to `d`, if it is
/// not.
fn inexact(graph: &Graph, s: NodeId, d: NodeId, answer: &RouteAnswer) -> Option<String> {
    let optimal = dijkstra_pair(graph, s, d).map(|p| p.cost);
    let got = answer.path.as_ref().map(|p| p.cost);
    match (got, optimal) {
        (Some(got), Some(optimal)) if (got - optimal).abs() <= 1e-3 * optimal.max(1.0) => None,
        (None, None) => None,
        _ => Some(format!(
            "{s:?}->{d:?} at epoch {}: {got:?} vs optimal {optimal:?} ({:?})",
            answer.epoch, answer.outcome
        )),
    }
}

/// The probe the defect was found with: on a 12×12 uniform grid one
/// row's 11 streets drop to 0.05, far below their length. Without the
/// admission rule, v1 answers 9 of these 60 probes costlier than the
/// optimum and v3 23 of them, the worst by +238 %.
#[test]
fn a_row_of_streets_below_their_length_degrades_v1_and_v3_to_exact_answers() {
    let grid = Grid::new(12, CostModel::Uniform, 1993).unwrap();
    let mut changed = grid.graph().clone();
    for primary in [V1, V3] {
        let service = service(grid.graph(), primary);
        for col in 0..11 {
            let (u, v) = (grid.node_at(6, col), grid.node_at(6, col + 1));
            for (a, b) in [(u, v), (v, u)] {
                service.update_edge_cost(a, b, 0.05).unwrap();
                changed.set_edge_cost(a, b, 0.05).unwrap();
            }
        }
        let mut rng = SplitMix64::new(7);
        let (mut wrong, mut outcomes) = (Vec::new(), Vec::new());
        for _ in 0..60 {
            let node = |rng: &mut SplitMix64| NodeId(rng.next_below(144) as u32);
            let (s, d) = (node(&mut rng), node(&mut rng));
            let answer = service.route(s, d).unwrap();
            wrong.extend(inexact(&changed, s, d, &answer));
            outcomes.extend((s != d).then_some(answer.outcome));
        }
        let label = primary.label();
        assert!(
            wrong.is_empty(),
            "{label}: {} of 60 inexact: {wrong:#?}",
            wrong.len()
        );
        let refused = RouteOutcome::Degraded { rung: "dijkstra" };
        assert!(
            outcomes.iter().all(|&o| o == refused),
            "{label}: {outcomes:?}"
        );
    }
}

/// The primaries the property runs: every row of `ladder::TABLE`, and
/// the two Euclidean versions outside it.
fn primaries() -> Vec<Algorithm> {
    let mut primaries: Vec<Algorithm> = ladder::TABLE.iter().map(|r| r.algorithm).collect();
    primaries.extend([V1, Algorithm::AStar(AStarVersion::V2)]);
    primaries
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any script of increases and of decreases below a street's length:
    /// every answer of every primary costs exactly what the in-memory
    /// Dijkstra finds at the epoch the answer claims.
    #[test]
    fn every_answer_is_the_optimum_at_its_epoch(seed in 0u64..10_000, updates in 1usize..8) {
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, seed).unwrap();
        let edges: Vec<_> = grid.graph().edges().copied().collect();
        for primary in primaries() {
            let service = service(grid.graph(), primary);
            let mut rng = SplitMix64::new(seed);
            // The graph at every epoch, indexed by epoch.
            let mut epochs = vec![grid.graph().clone()];
            for _ in 0..updates {
                let mut graph = epochs[epochs.len() - 1].clone();
                let e = edges[rng.next_below(edges.len() as u64) as usize];
                let now = graph.edge_cost(e.from, e.to).unwrap();
                let length = graph.point(e.from).euclidean(&graph.point(e.to));
                let cost = if rng.next_below(2) == 0 {
                    now * (1.0 + 3.0 * rng.next_f64())
                } else {
                    length * (0.05 + 0.9 * rng.next_f64())
                };
                service.update_edge_cost(e.from, e.to, cost).unwrap();
                graph.set_edge_cost(e.from, e.to, cost).unwrap();
                epochs.push(graph);
                for _ in 0..3 {
                    let node = |rng: &mut SplitMix64| NodeId(rng.next_below(36) as u32);
                    let (s, d) = (node(&mut rng), node(&mut rng));
                    let answer = service.route(s, d).map_err(|e| {
                        TestCaseError::fail(format!("{}: {s:?}->{d:?}: {e}", primary.label()))
                    })?;
                    let at = &epochs[answer.epoch as usize];
                    if let Some(why) = inexact(at, s, d, &answer) {
                        return Err(TestCaseError::fail(format!("{}: {why}", primary.label())));
                    }
                }
            }
        }
    }
}

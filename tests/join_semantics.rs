//! Join-strategy semantics and cost ordering: all four strategies compute
//! the same relation on every workload shape, the cost-based chooser never
//! loses to any forced strategy, and algorithm answers never depend on the
//! strategy.

use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::storage::join::{estimate_cost as estimate, OUTER_BLOCKING};
use atis::storage::{CostParams, IoStats, JoinPolicy, JoinStrategy};
use atis::{CostModel, Grid, Minneapolis, QueryKind};

#[test]
fn forced_strategies_agree_on_answers_everywhere() {
    let grid = Grid::new(9, CostModel::TWENTY_PERCENT, 2).unwrap();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let mut baseline: Option<(u64, Vec<atis::NodeId>)> = None;
    for strat in JoinStrategy::ALL {
        let db = Database::open(grid.graph())
            .unwrap()
            .with_join_policy(JoinPolicy::Force(strat));
        for alg in [
            Algorithm::Dijkstra,
            Algorithm::AStar(AStarVersion::V3),
            Algorithm::Iterative,
        ] {
            let t = db.run(alg, s, d).unwrap();
            assert!(t.found(), "{} under {}", alg.label(), strat.label());
        }
        let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
        let key = (t.iterations, t.path.unwrap().nodes);
        match &baseline {
            None => baseline = Some(key),
            Some(b) => assert_eq!(
                b,
                &key,
                "strategy {} changed Dijkstra's behaviour",
                strat.label()
            ),
        }
    }
}

#[test]
fn cost_based_chooser_never_loses() {
    // For every join shape the paper's algorithms generate, the chooser's
    // pick must price at most as high as every forced strategy.
    let params = CostParams::default();
    for outer_tuples in [1usize, 4, 15, 100, 400] {
        for b_inner in [1usize, 4, 28, 100] {
            for b_join in [1usize, 2, 8] {
                let b_outer = outer_tuples.div_ceil(OUTER_BLOCKING);
                let tuples = outer_tuples as f64;
                let (picked, picked_cost) =
                    JoinPolicy::CostBased.choose(b_outer, tuples, b_inner, b_join, &params);
                for s in JoinStrategy::ALL {
                    let c = estimate(s, b_outer, tuples, b_inner, b_join, &params);
                    assert!(
                        picked_cost <= c + 1e-12,
                        "chooser picked {} ({picked_cost}) but {} costs {c} \
                         (outer={outer_tuples}, inner={b_inner})",
                        picked.label(),
                        s.label()
                    );
                }
            }
        }
    }
}

#[test]
fn optimizer_policy_dominates_forced_policies_end_to_end() {
    let m = Minneapolis::paper();
    let (s, d) = m.query_pair(atis::graph::minneapolis::NamedPair::GtoD);
    let params = CostParams::default();
    let optimized = Database::open(m.graph())
        .unwrap()
        .with_join_policy(JoinPolicy::CostBased)
        .run(Algorithm::Dijkstra, s, d)
        .unwrap()
        .cost_units(&params);
    for strat in JoinStrategy::ALL {
        let forced = Database::open(m.graph())
            .unwrap()
            .with_join_policy(JoinPolicy::Force(strat))
            .run(Algorithm::Dijkstra, s, d)
            .unwrap()
            .cost_units(&params);
        assert!(
            optimized <= forced + 1e-9,
            "optimizer {optimized} vs forced {} {forced}",
            strat.label()
        );
    }
}

#[test]
fn nested_loop_cost_grows_with_both_sides() {
    let params = CostParams::default();
    let nested_loop = |outer_tuples: usize, b_inner| {
        let b_outer = outer_tuples.div_ceil(OUTER_BLOCKING);
        estimate(
            JoinStrategy::NestedLoop,
            b_outer,
            outer_tuples as f64,
            b_inner,
            1,
            &params,
        )
    };
    let base = nested_loop(300, 10);
    assert!(nested_loop(600, 10) > base);
    assert!(nested_loop(300, 20) > base);
}

#[test]
fn io_is_identical_between_repeated_joins() {
    // Joins are deterministic in both result and charge.
    let grid = Grid::new(7, CostModel::Uniform, 0).unwrap();
    let db = Database::open(grid.graph()).unwrap();
    let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
    let a = db.run(Algorithm::Iterative, s, d).unwrap();
    let b = db.run(Algorithm::Iterative, s, d).unwrap();
    assert_eq!(a.io, b.io);
    assert_eq!(a.io, a.steps.total());
    let _ = IoStats::new(); // facade sanity: the type is reachable
}

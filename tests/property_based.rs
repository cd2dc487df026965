//! Property-based tests (proptest) over random graphs and random grids:
//! the database-resident algorithms must match the in-memory oracles on
//! every admissible configuration, and every returned path must be a real
//! path of the claimed cost.

use atis::algorithms::{memory, AStarVersion, Algorithm, Database, Estimator, FrontierKind};
use atis::graph::graph::GraphBuilder;
use atis::graph::{Graph, NodeId, Point};
use atis::{CostModel, Grid};
use proptest::prelude::*;

/// Strategy: a random directed graph with `n` nodes on a unit line and
/// arbitrary non-negative edge costs (no geometric relation to cost, so
/// only the Zero estimator is admissible).
fn arb_graph() -> impl Strategy<Value = (Graph, NodeId, NodeId)> {
    (2usize..24).prop_flat_map(|n| {
        let edges =
            prop::collection::vec((0..n as u32, 0..n as u32, 0.0f64..10.0), 1..(n * 3).max(2));
        (Just(n), edges, 0..n as u32, 0..n as u32).prop_map(|(n, edges, s, d)| {
            let mut b = GraphBuilder::with_capacity(n, edges.len());
            for i in 0..n {
                b.add_node(Point::new(i as f64, 0.0));
            }
            for (u, v, c) in edges {
                if u != v {
                    b.add_arc(NodeId(u), NodeId(v), c);
                }
            }
            (
                b.build().expect("valid arbitrary graph"),
                NodeId(s),
                NodeId(d),
            )
        })
    })
}

/// Strategy: a random grid (size, cost model, seed) plus a random query
/// pair.
fn arb_grid() -> impl Strategy<Value = (Grid, NodeId, NodeId)> {
    (2usize..10, 0u64..1000, 0usize..3).prop_flat_map(|(k, seed, model_ix)| {
        let model = [
            CostModel::Uniform,
            CostModel::TWENTY_PERCENT,
            CostModel::Skewed,
        ][model_ix];
        let n = (k * k) as u32;
        (Just((k, seed, model)), 0..n, 0..n).prop_map(|((k, seed, model), s, d)| {
            (
                Grid::new(k, model, seed).expect("k >= 2"),
                NodeId(s),
                NodeId(d),
            )
        })
    })
}

/// Five nodes where Manhattan distance to `d` never overestimates but is
/// not consistent: `b` is estimated 5 from `d` yet one unit from `c`,
/// which is estimated 0.5. A\* closes `c` first through `a` (cost `4 +
/// detour`), then reaches it through `b` for 3, and only reopening `c`
/// gives the optimum `s → b → c → d` of 8. Everything is multiplied by
/// `scale`.
fn inconsistent_detour(scale: f64, detour: f64) -> (Graph, NodeId, NodeId) {
    let mut b = GraphBuilder::with_capacity(5, 5);
    let [s, a, b_, c, d] = [(3.0, 0.0), (0.0, 0.5), (5.0, 0.0), (0.5, 0.0), (0.0, 0.0)]
        .map(|(x, y)| b.add_node(Point::new(scale * x, scale * y)));
    for (u, v, cost) in [
        (s, a, 1.0),
        (a, c, 3.0 + detour),
        (s, b_, 2.0),
        (b_, c, 1.0),
        (c, d, 5.0),
    ] {
        b.add_arc(u, v, scale * cost);
    }
    (b.build().expect("a valid graph"), s, d)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn db_dijkstra_matches_oracle_on_random_graphs((g, s, d) in arb_graph()) {
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
        let oracle = memory::dijkstra_pair(&g, s, d);
        match (t.path, oracle) {
            (None, None) => {}
            (Some(p), Some(o)) => {
                let recomputed = p.validate(&g).unwrap();
                prop_assert!((recomputed - o.cost).abs() <= 1e-3 * o.cost.max(1.0),
                    "db {} vs oracle {}", recomputed, o.cost);
            }
            (a, b) => prop_assert!(false, "reachability disagreement: db={:?} oracle={:?}",
                a.map(|p| p.cost), b.map(|p| p.cost)),
        }
    }

    #[test]
    fn db_iterative_matches_oracle_on_random_graphs((g, s, d) in arb_graph()) {
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Iterative, s, d).unwrap();
        let oracle = memory::dijkstra_pair(&g, s, d);
        match (t.path, oracle) {
            (None, None) => {}
            (Some(p), Some(o)) => {
                let recomputed = p.validate(&g).unwrap();
                prop_assert!((recomputed - o.cost).abs() <= 1e-3 * o.cost.max(1.0));
            }
            _ => prop_assert!(false, "reachability disagreement"),
        }
    }

    #[test]
    fn zero_estimator_astar_is_exact_on_random_graphs((g, s, d) in arb_graph()) {
        // Zero is always admissible, so both frontier managements must be
        // exact even on geometry-free graphs.
        let db = Database::open(&g).unwrap();
        let oracle = memory::dijkstra_pair(&g, s, d);
        for frontier in [FrontierKind::StatusAttribute, FrontierKind::SeparateRelation] {
            let t = db
                .run(Algorithm::Custom { frontier, estimator: Estimator::Zero }, s, d)
                .unwrap();
            match (&t.path, &oracle) {
                (None, None) => {}
                (Some(p), Some(o)) => {
                    let recomputed = p.validate(&g).unwrap();
                    prop_assert!((recomputed - o.cost).abs() <= 1e-3 * o.cost.max(1.0));
                }
                _ => prop_assert!(false, "reachability disagreement"),
            }
        }
    }

    #[test]
    fn grids_are_exact_for_admissible_estimators((grid, s, d) in arb_grid()) {
        let db = Database::open(grid.graph()).unwrap();
        let oracle = memory::dijkstra_pair(grid.graph(), s, d).expect("grids are connected");
        // Dijkstra is always exact. The estimator versions are exact only
        // where the cost model keeps distances admissible: the skewed
        // model's 0.05-cost edges between unit-spaced nodes break Euclidean
        // and Manhattan alike.
        let mut algos = vec![Algorithm::Dijkstra];
        if grid.cost_model().manhattan_admissible() {
            algos.extend([
                Algorithm::AStar(AStarVersion::V1),
                Algorithm::AStar(AStarVersion::V2),
                Algorithm::AStar(AStarVersion::V3),
            ]);
        }
        for alg in algos {
            let t = db.run(alg, s, d).unwrap();
            let p = t.path.expect("connected grid");
            let recomputed = p.validate(grid.graph()).unwrap();
            prop_assert!(
                (recomputed - oracle.cost).abs() <= 1e-3 * oracle.cost.max(1.0),
                "{} got {} vs {}", alg.label(), recomputed, oracle.cost
            );
        }
    }

    #[test]
    fn inadmissible_astar_still_returns_valid_paths((grid, s, d) in arb_grid()) {
        // Even where Manhattan overestimates (skewed grids), the result
        // must be a real path, never cheaper than optimal, and the run
        // must terminate.
        let db = Database::open(grid.graph()).unwrap();
        let t = db.run(Algorithm::AStar(AStarVersion::V3), s, d).unwrap();
        let p = t.path.expect("connected grid");
        let recomputed = p.validate(grid.graph()).unwrap();
        let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        prop_assert!(recomputed >= oracle.cost - 1e-9);
        prop_assert_eq!(p.source(), s);
        prop_assert_eq!(p.destination(), d);
    }

    #[test]
    fn iteration_counts_are_bounded((grid, s, d) in arb_grid()) {
        let db = Database::open(grid.graph()).unwrap();
        let n = grid.graph().node_count() as u64;
        let dij = db.run(Algorithm::Dijkstra, s, d).unwrap();
        // Dijkstra never reopens: at most n expansions.
        prop_assert!(dij.iterations <= n);
        prop_assert_eq!(dij.reopened, 0);
        // Iterative rounds are bounded by hop-eccentricity plus reopening
        // cascades; n rounds is a safe structural bound on grids
        // (cascades shorten paths monotonically).
        let it = db.run(Algorithm::Iterative, s, d).unwrap();
        prop_assert!(it.iterations <= n, "{} rounds on {} nodes", it.iterations, n);
    }

    #[test]
    fn expansion_order_is_deterministic((grid, s, d) in arb_grid()) {
        let db = Database::open(grid.graph()).unwrap();
        let a = db.run(Algorithm::AStar(AStarVersion::V3), s, d).unwrap();
        let b = db.run(Algorithm::AStar(AStarVersion::V3), s, d).unwrap();
        prop_assert_eq!(a.expansion_order, b.expansion_order);
        prop_assert_eq!(a.io, b.io);
    }

    #[test]
    fn closure_algorithms_agree_on_random_graphs((g, _, _) in arb_graph()) {
        use atis::algorithms::closure;
        use atis::graph::sssp::distances_from;
        // The reference is the shortest-path kernel: off the diagonal a
        // pair is reachable iff its distance is finite, and a node reaches
        // itself iff one of its out-neighbours reaches it back.
        let rows: Vec<Vec<f64>> = g.node_ids().map(|u| distances_from(&g, u)).collect();
        let warren = closure::warren_closure(&g);
        let interval = closure::IntervalClosure::build(&g);
        for u in g.node_ids() {
            for v in g.node_ids() {
                let reachable = if u == v {
                    g.neighbors(u).iter().any(|e| rows[e.to.index()][u.index()].is_finite())
                } else {
                    rows[u.index()][v.index()].is_finite()
                };
                prop_assert_eq!(warren.get(u.index(), v.index()), reachable, "warren {:?} -> {:?}", u, v);
                prop_assert_eq!(interval.reaches(u, v), reachable, "interval {:?} -> {:?}", u, v);
            }
        }
    }

    #[test]
    fn euclidean_is_admissible_on_random_radial_cities(
        rings in 2usize..6,
        spokes in 4usize..14,
        jitter in 0.0f64..0.4,
        seed in 0u64..500,
    ) {
        use atis::graph::RadialCity;
        let city = RadialCity::new(rings, spokes, jitter, seed).expect("valid parameters");
        let d = city.node_at(rings, 0);
        // Costs are >= straight-line distances by construction, so
        // Euclidean never overestimates.
        let over = memory::max_overestimate(city.graph(), d, Estimator::Euclidean);
        prop_assert!(over <= 1e-9, "euclidean overestimates by {over}");
        // And A* v2 (Euclidean) is therefore exact on a random pair.
        let db = Database::open(city.graph()).unwrap();
        let s = city.node_at(1 + (seed as usize % rings), seed as usize % spokes);
        let oracle = memory::dijkstra_pair(city.graph(), s, d).expect("connected");
        let t = db.run(Algorithm::AStar(AStarVersion::V2), s, d).unwrap();
        let got = t.path.expect("connected").validate(city.graph()).unwrap();
        prop_assert!((got - oracle.cost).abs() < 1e-6);
    }

    #[test]
    fn astar_reopens_to_the_optimum_under_an_inconsistent_estimate(
        scale in 0.1f64..100.0,
        detour in 0.0f64..2.0,
    ) {
        let (g, s, d) = inconsistent_detour(scale, detour);
        let h = |u: NodeId| Estimator::Manhattan.evaluate(g.point(u), g.point(d));
        prop_assert!(memory::max_overestimate(&g, d, Estimator::Manhattan) <= 1e-9);
        prop_assert!(
            g.edges().any(|e| h(e.from) > e.cost + h(e.to)),
            "the estimate must be inconsistent on some edge"
        );
        let oracle = memory::dijkstra_pair(&g, s, d).expect("connected");
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::AStar(AStarVersion::V3), s, d).unwrap();
        prop_assert!(t.reopened > 0, "A* v3 must reopen the node it closed too early");
        // `R` stores costs as f32; a run that keeps `c`'s first label
        // reads 9 + detour times `scale`, an eighth above the optimum.
        prop_assert!((t.path_cost() - oracle.cost).abs() <= 1e-5 * oracle.cost, "{} vs {}", t.path_cost(), oracle.cost);
        let got = t.path.expect("connected").validate(&g).unwrap();
        prop_assert!((got - oracle.cost).abs() <= 1e-5 * oracle.cost, "route {} vs {}", got, oracle.cost);
    }

    #[test]
    fn costs_are_monotone_in_the_trace((g, s, d) in arb_graph()) {
        // The metered I/O of a run prices to a non-negative, finite cost,
        // and a longer-running algorithm never reports negative deltas.
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
        let cost = t.cost_units(&atis::storage::CostParams::default());
        prop_assert!(cost.is_finite());
        prop_assert!(cost > 0.0);
    }
}

//! Integration of the ATIS service layer (route computation + evaluation
//! + display) over the Minneapolis map — the paper's end-to-end scenario.

use atis::algorithms::{Algorithm, Database};
use atis::core::{evaluate_route, render_map, turn_instructions, RoutePlanner};
use atis::graph::minneapolis::{Minneapolis, NamedPair};
use atis::storage::JoinPolicy;

#[test]
fn plan_evaluate_display_pipeline() {
    let m = Minneapolis::paper();
    let planner = RoutePlanner::new(m.graph()).unwrap();
    let (s, d) = m.query_pair(NamedPair::GtoD);
    let report = planner.plan(s, d).unwrap();
    let route = report.route.expect("G to D is connected");

    // Evaluation: attributes are internally consistent.
    let attrs = evaluate_route(m.graph(), &route).unwrap();
    assert_eq!(attrs.segments, route.len());
    // route.cost round-trips through the f32 tuple encoding; the
    // evaluation recomputes in f64.
    assert!((attrs.distance - route.cost).abs() < 1e-3);
    let class_sum = attrs.class_distance.0 + attrs.class_distance.1 + attrs.class_distance.2;
    assert!((class_sum - attrs.distance).abs() < 1e-6);
    assert!(attrs.travel_time > 0.0);
    assert!(attrs.worst_occupancy >= attrs.mean_occupancy);

    // Display: directions start at the start and end with arrival.
    let directions = turn_instructions(m.graph(), &route);
    assert!(directions.len() >= 2);
    assert!(directions.first().unwrap().starts_with("Head"));
    assert!(directions.last().unwrap().contains("arrived"));

    // Map: the route and landmarks render.
    let map = render_map(m.graph(), Some(&route), m.landmarks(), 60, 30);
    assert!(map.contains('*'));
    assert!(map.contains('G'));
    assert!(map.contains('D'));
}

#[test]
fn comparison_reproduces_the_papers_recommendation() {
    // On a short trip, the default (A* v3) must beat both comparison
    // algorithms in simulated cost — the reason the paper recommends
    // estimator-based search for ATIS.
    let m = Minneapolis::paper();
    let planner = RoutePlanner::new(m.graph()).unwrap();
    let (s, d) = m.query_pair(NamedPair::EtoF);
    let reports = planner.compare(&Algorithm::TABLE, s, d).unwrap();
    let astar = reports
        .iter()
        .find(|r| r.algorithm.contains("version 3"))
        .unwrap();
    for other in reports
        .iter()
        .filter(|r| !r.algorithm.contains("version 3"))
    {
        assert!(
            astar.cost_units < other.cost_units,
            "A* {} vs {} {}",
            astar.cost_units,
            other.algorithm,
            other.cost_units
        );
    }
}

#[test]
fn rush_hour_replanning_improves_travel_time() {
    // The dynamic-cost scenario of Section 1.1: replanning on
    // travel-time costs must never be slower than the distance-optimal
    // route evaluated under congestion.
    let m = Minneapolis::paper();
    let (s, d) = m.query_pair(NamedPair::AtoB);

    let distance_route = RoutePlanner::new(m.graph())
        .unwrap()
        .with_algorithm(Algorithm::Dijkstra)
        .plan(s, d)
        .unwrap()
        .route
        .expect("connected");

    let rush_graph = m.graph().with_travel_time_costs().unwrap();
    let rush_route = RoutePlanner::new(&rush_graph)
        .unwrap()
        .with_algorithm(Algorithm::Dijkstra)
        .plan(s, d)
        .unwrap()
        .route
        .expect("connected");

    let base_time = evaluate_route(m.graph(), &distance_route)
        .unwrap()
        .travel_time;
    // Re-cost the rush route against the distance graph for evaluation.
    let mut rush_on_base = rush_route.clone();
    rush_on_base.cost = rush_on_base
        .hops()
        .map(|(u, v)| m.graph().edge_cost(u, v).expect("edge exists"))
        .sum();
    let rush_time = evaluate_route(m.graph(), &rush_on_base)
        .unwrap()
        .travel_time;
    assert!(
        rush_time <= base_time + 1e-9,
        "replanned time {rush_time} must not exceed static-route time {base_time}"
    );
}

#[test]
fn join_policy_changes_cost_not_answers() {
    let m = Minneapolis::paper();
    let (s, d) = m.query_pair(NamedPair::GtoD);
    let forced = RoutePlanner::new(m.graph()).unwrap().plan(s, d).unwrap();
    let optimized = RoutePlanner::new(m.graph())
        .unwrap()
        .with_join_policy(JoinPolicy::CostBased)
        .plan(s, d)
        .unwrap();
    assert_eq!(forced.iterations, optimized.iterations);
    assert_eq!(
        forced.route.as_ref().map(|p| &p.nodes),
        optimized.route.as_ref().map(|p| &p.nodes)
    );
    assert!(optimized.cost_units < forced.cost_units);
}

#[test]
fn gps_trace_to_onward_route_pipeline() {
    // The ATIS loop: snap a vehicle's GPS fix to the network, then plan
    // onward from there and print the itinerary.
    use atis::core::{itinerary, plan_trip};
    use atis::graph::Point;
    let m = Minneapolis::paper();
    let planner = RoutePlanner::new(m.graph()).unwrap();

    // Continue from the fix in the south-west quadrant to D via G.
    let here = m.graph().nearest_node(Point::new(11.2, 7.1)).unwrap();
    let trip = plan_trip(&planner, &[here, m.landmark('G'), m.landmark('D')]).unwrap();
    trip.route.validate(m.graph()).unwrap();
    let lines = itinerary(m.graph(), &trip);
    assert!(lines.iter().any(|l| l.contains("Waypoint reached")));
    assert!(lines.last().unwrap().contains("arrived"));
}

#[test]
fn unreachable_trip_reports_no_route() {
    // Nodes isolated by the lakes are unreachable from the core.
    let m = Minneapolis::paper();
    let planner = RoutePlanner::new(m.graph()).unwrap();
    let core_node = m.landmark('A');
    // Find a node with no outgoing edges (swallowed by a lake) if one
    // exists; otherwise skip (generator may leave none isolated).
    let isolated = m.graph().node_ids().find(|&u| m.graph().degree(u) == 0);
    if let Some(island) = isolated {
        let report = planner.plan(core_node, island).unwrap();
        assert!(report.route.is_none());
        assert!(!report.found());
    }
}

/// The database-side evaluator (segments fetched as `S` tuples) and the
/// graph-side one price congestion with the same speed function, on a
/// route that crosses all three road classes at non-zero occupancy. The
/// tuple stores occupancy as an `f32`; a rounding of its relative size
/// moves a segment's speed by at most four times as much (the speed
/// falls to a fifth of free flow at full occupancy), which bounds the
/// difference.
#[test]
fn database_and_graph_evaluators_agree_on_travel_time() {
    let m = Minneapolis::paper();
    // D to C: the one named trip whose route takes a freeway segment.
    let (c, d) = m.query_pair(NamedPair::CtoD);
    let route = RoutePlanner::new(m.graph())
        .unwrap()
        .plan(d, c)
        .unwrap()
        .route
        .expect("D to C is connected");
    let attrs = evaluate_route(m.graph(), &route).unwrap();
    let (street, highway, freeway) = attrs.class_distance;
    assert!(
        street > 0.0 && highway > 0.0 && freeway > 0.0,
        "{:?}",
        attrs.class_distance
    );
    assert!(attrs.mean_occupancy > 0.0);

    let (distance, travel_time, _) = Database::open(m.graph())
        .unwrap()
        .evaluate_route(&route)
        .unwrap();
    assert_eq!(distance, attrs.distance);
    let tolerance = 4.0 * f64::from(f32::EPSILON) * attrs.travel_time;
    assert!(
        (travel_time - attrs.travel_time).abs() <= tolerance,
        "database {travel_time} vs graph {}",
        attrs.travel_time
    );
}

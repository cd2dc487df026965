//! Trip planning on top of single-pair route computation: multi-leg
//! journeys through waypoints, and alternative-route generation — the
//! service-level features an ATIS terminal offers over the paper's
//! single-pair primitive.

use crate::planner::{PlanReport, RoutePlanner};
use atis_algorithms::{Algorithm, AlgorithmError};
use atis_graph::{Graph, GraphError, NodeId, Path};

/// A multi-leg journey: one [`PlanReport`] per leg plus the concatenated
/// route.
#[derive(Debug, Clone)]
pub struct TripPlan {
    /// Per-leg reports, in travel order.
    pub legs: Vec<PlanReport>,
    /// The stitched end-to-end route.
    pub route: Path,
}

impl TripPlan {
    /// Total simulated I/O cost across all legs.
    pub fn total_cost_units(&self) -> f64 {
        self.legs.iter().map(|l| l.cost_units).sum()
    }

    /// Total iterations across all legs.
    pub fn total_iterations(&self) -> u64 {
        self.legs.iter().map(|l| l.iterations).sum()
    }
}

/// Renders a full multi-leg itinerary: per-leg turn instructions with
/// waypoint announcements between legs — what an ATIS terminal prints for
/// a planned journey.
pub fn itinerary(graph: &Graph, plan: &TripPlan) -> Vec<String> {
    let mut out = Vec::new();
    let legs = plan.legs.len();
    // `plan_trip` builds no leg without a route.
    let routes = plan.legs.iter().filter_map(|leg| leg.route.as_ref());
    for (i, route) in routes.enumerate() {
        out.push(format!(
            "Leg {} of {legs}: {} -> {} ({:.1} units)",
            i + 1,
            route.source(),
            route.destination(),
            route.cost
        ));
        let directions = crate::display::turn_instructions(graph, route);
        let last = directions.len().saturating_sub(1);
        for (j, line) in directions.into_iter().enumerate() {
            if j == last && i + 1 < legs {
                out.push(format!("  Waypoint reached: {}", route.destination()));
            } else {
                out.push(format!("  {line}"));
            }
        }
    }
    out
}

/// Plans a journey visiting `waypoints` in order (at least two: origin and
/// destination). Each leg is an independent single-pair computation with
/// the planner's default algorithm.
///
/// ```
/// use atis_core::{plan_trip, RoutePlanner};
/// use atis_graph::{CostModel, Grid};
///
/// let grid = Grid::new(6, CostModel::Uniform, 0).unwrap();
/// let planner = RoutePlanner::new(grid.graph()).unwrap();
/// let stops = [grid.node_at(0, 0), grid.node_at(5, 0), grid.node_at(5, 5)];
/// let trip = plan_trip(&planner, &stops).unwrap();
/// assert_eq!(trip.legs.len(), 2);
/// assert_eq!(trip.route.cost, 10.0); // two 5-hop legs at unit cost
/// ```
///
/// # Errors
/// Fails if fewer than two waypoints are given, a waypoint is unknown, or
/// any leg is unreachable.
pub fn plan_trip(planner: &RoutePlanner, waypoints: &[NodeId]) -> Result<TripPlan, AlgorithmError> {
    let [first, rest @ ..] = waypoints else {
        return Err(AlgorithmError::Graph(
            atis_graph::GraphError::MalformedPath(
                "a trip needs at least origin and destination".into(),
            ),
        ));
    };
    if rest.is_empty() {
        return Err(AlgorithmError::Graph(
            atis_graph::GraphError::MalformedPath(
                "a trip needs at least origin and destination".into(),
            ),
        ));
    }
    let mut legs = Vec::with_capacity(rest.len());
    let mut nodes = vec![*first];
    let mut cost = 0.0;
    let mut from = *first;
    for &to in rest {
        let report = planner.plan(from, to)?;
        let Some(route) = report.route.clone() else {
            return Err(AlgorithmError::Graph(
                atis_graph::GraphError::MalformedPath(format!("no route from {from} to {to}")),
            ));
        };
        nodes.extend(route.nodes.iter().skip(1));
        cost += route.cost;
        legs.push(report);
        from = to;
    }
    Ok(TripPlan {
        legs,
        route: Path { nodes, cost },
    })
}

/// Generates up to `k` distinct routes from `s` to `d` by the penalty
/// method: after each route is found, the edges it used are re-costed by
/// `(1 + penalty)` and the network is re-planned. Routes are returned
/// with their *original* costs, best first; duplicates are filtered, so
/// fewer than `k` may come back on sparse networks.
///
/// Dijkstra is used for each round (exactness keeps the alternatives
/// meaningfully ranked).
///
/// # Errors
/// Fails if the endpoints are unknown or the pair is disconnected.
pub fn plan_alternatives(
    graph: &Graph,
    s: NodeId,
    d: NodeId,
    k: usize,
    penalty: f64,
) -> Result<Vec<Path>, AlgorithmError> {
    assert!(penalty > 0.0, "penalty must be positive");
    let mut working = graph.clone();
    let mut out: Vec<Path> = Vec::new();
    for _ in 0..k {
        let planner = RoutePlanner::new(&working)?.with_algorithm(Algorithm::Dijkstra);
        let report = planner.plan(s, d)?;
        let Some(found) = report.route else {
            break;
        };
        // Re-cost against the *original* network for honest ranking.
        let original_cost = found
            .hops()
            .map(|(from, to)| {
                graph
                    .edge_cost(from, to)
                    .ok_or(GraphError::MissingEdge { from, to })
            })
            .sum::<Result<f64, _>>()?;
        let candidate = Path {
            nodes: found.nodes.clone(),
            cost: original_cost,
        };
        let duplicate = out.iter().any(|p| p.nodes == candidate.nodes);
        if !duplicate {
            out.push(candidate);
        }
        // Penalise the edges just used (both directions, so two-way roads
        // are discouraged as a corridor).
        let used: std::collections::HashSet<(NodeId, NodeId)> = found.hops().collect();
        working = working.map_costs(|e| {
            if used.contains(&(e.from, e.to)) || used.contains(&(e.to, e.from)) {
                e.cost * (1.0 + penalty)
            } else {
                e.cost
            }
        })?;
    }
    if out.is_empty() {
        return Err(AlgorithmError::Graph(
            atis_graph::GraphError::MalformedPath(format!("no route from {s} to {d}")),
        ));
    }
    out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{CostModel, Grid, QueryKind};

    fn setup() -> (Grid, RoutePlanner) {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 5).unwrap();
        let planner = RoutePlanner::new(grid.graph()).unwrap();
        (grid, planner)
    }

    #[test]
    fn trip_through_waypoints_stitches_legs() {
        let (grid, planner) = setup();
        let a = grid.node_at(0, 0);
        let b = grid.node_at(7, 0);
        let c = grid.node_at(7, 7);
        let trip = plan_trip(&planner, &[a, b, c]).unwrap();
        assert_eq!(trip.legs.len(), 2);
        assert_eq!(trip.route.source(), a);
        assert_eq!(trip.route.destination(), c);
        trip.route.validate(grid.graph()).unwrap();
        // The stitched route passes through the waypoint.
        assert!(trip.route.nodes.contains(&b));
        assert!(trip.total_cost_units() > 0.0);
        assert!(trip.total_iterations() > 0);
    }

    #[test]
    fn itinerary_announces_waypoints_and_arrival() {
        let (grid, planner) = setup();
        let a = grid.node_at(0, 0);
        let b = grid.node_at(4, 4);
        let c = grid.node_at(0, 7);
        let plan = plan_trip(&planner, &[a, b, c]).unwrap();
        let lines = itinerary(grid.graph(), &plan);
        assert!(lines[0].starts_with("Leg 1 of 2"));
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("Waypoint reached"))
                .count(),
            1
        );
        assert_eq!(lines.iter().filter(|l| l.contains("arrived")).count(), 1);
        assert!(lines.last().unwrap().contains("arrived"));
        // Every leg header names its endpoints.
        assert!(lines.iter().any(|l| l.contains(&format!("{b}"))));
    }

    #[test]
    fn trip_rejects_too_few_waypoints() {
        let (grid, planner) = setup();
        assert!(plan_trip(&planner, &[grid.node_at(0, 0)]).is_err());
        assert!(plan_trip(&planner, &[]).is_err());
    }

    #[test]
    fn trip_cost_is_the_sum_of_leg_costs() {
        let (grid, planner) = setup();
        let a = grid.node_at(0, 0);
        let b = grid.node_at(3, 3);
        let c = grid.node_at(0, 7);
        let trip = plan_trip(&planner, &[a, b, c]).unwrap();
        let leg_sum: f64 = trip
            .legs
            .iter()
            .map(|l| l.route.as_ref().unwrap().cost)
            .sum();
        assert!((trip.route.cost - leg_sum).abs() < 1e-9);
    }

    #[test]
    fn alternatives_are_distinct_valid_and_ranked() {
        let (grid, _) = setup();
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        let alts = plan_alternatives(grid.graph(), s, d, 3, 0.5).unwrap();
        assert!(!alts.is_empty());
        for p in &alts {
            p.validate(grid.graph()).unwrap();
            assert_eq!(p.source(), s);
            assert_eq!(p.destination(), d);
        }
        for pair in alts.windows(2) {
            assert!(
                pair[0].cost <= pair[1].cost + 1e-9,
                "alternatives must be ranked"
            );
            assert_ne!(pair[0].nodes, pair[1].nodes, "alternatives must differ");
        }
        // The best alternative is the true shortest path.
        let oracle = atis_algorithms::memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        assert!((alts[0].cost - oracle.cost).abs() < 1e-9);
    }

    #[test]
    fn alternatives_on_a_single_corridor_collapse() {
        // A path graph has exactly one route no matter the penalty.
        let g = atis_graph::graph::graph_from_arcs(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
            .unwrap();
        let alts = plan_alternatives(&g, NodeId(0), NodeId(3), 5, 1.0).unwrap();
        assert_eq!(alts.len(), 1);
    }

    #[test]
    fn unreachable_alternatives_error() {
        let g = atis_graph::graph::graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        assert!(plan_alternatives(&g, NodeId(0), NodeId(2), 2, 0.5).is_err());
    }
}

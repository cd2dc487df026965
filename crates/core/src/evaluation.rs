//! Route evaluation (Section 1.1): "the goal of route evaluation is to
//! find the attributes of a given route between two points. These
//! attributes may include travel time and traffic congestion information."

use atis_graph::{Graph, GraphError, Path, RoadClass};

/// Attributes of a route, computed from the per-segment data the
//  Minneapolis map carries (distance, speed class, occupancy).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteAttributes {
    /// Total edge cost (distance for distance-costed maps).
    pub distance: f64,
    /// Congestion-aware travel time (segment distance over effective
    /// speed).
    pub travel_time: f64,
    /// Number of road segments.
    pub segments: usize,
    /// Mean segment occupancy, distance-weighted.
    pub mean_occupancy: f64,
    /// The single worst segment occupancy on the route.
    pub worst_occupancy: f64,
    /// Distance travelled on each road class: (street, highway, freeway).
    pub class_distance: (f64, f64, f64),
}

/// Evaluates a route against the network it was planned on.
///
/// # Errors
/// Fails if the path uses a missing edge or its stored cost is stale.
pub fn evaluate_route(graph: &Graph, path: &Path) -> Result<RouteAttributes, GraphError> {
    path.validate(graph)?;
    let mut distance = 0.0;
    let mut travel_time = 0.0;
    let mut weighted_occ = 0.0;
    let mut worst_occ: f64 = 0.0;
    let mut class_distance = (0.0, 0.0, 0.0);
    let mut segments = 0usize;
    for (u, v) in path.hops() {
        let e = graph
            .edge(u, v)
            .ok_or(GraphError::MissingEdge { from: u, to: v })?;
        distance += e.cost;
        travel_time += e.travel_time();
        weighted_occ += e.occupancy * e.cost;
        worst_occ = worst_occ.max(e.occupancy);
        match e.class {
            RoadClass::Street => class_distance.0 += e.cost,
            RoadClass::Highway => class_distance.1 += e.cost,
            RoadClass::Freeway => class_distance.2 += e.cost,
        }
        segments += 1;
    }
    let mean_occupancy = if distance > 0.0 {
        weighted_occ / distance
    } else {
        0.0
    };
    Ok(RouteAttributes {
        distance,
        travel_time,
        segments,
        mean_occupancy,
        worst_occupancy: worst_occ,
        class_distance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{Edge, GraphBuilder, NodeId, Point};

    fn network() -> Graph {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(Edge::new(n0, n1, 1.0).with_occupancy(0.5));
        b.add_edge(
            Edge::new(n1, n2, 3.0)
                .with_class(RoadClass::Freeway)
                .with_occupancy(0.1),
        );
        b.build().unwrap()
    }

    fn route() -> Path {
        Path {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            cost: 4.0,
        }
    }

    #[test]
    fn attributes_add_up() {
        let g = network();
        let a = evaluate_route(&g, &route()).unwrap();
        assert_eq!(a.segments, 2);
        assert!((a.distance - 4.0).abs() < 1e-12);
        assert_eq!(a.worst_occupancy, 0.5);
        assert!((a.class_distance.0 - 1.0).abs() < 1e-12);
        assert!((a.class_distance.2 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn travel_time_reflects_congestion_and_class() {
        let g = network();
        let a = evaluate_route(&g, &route()).unwrap();
        // Segment 1: street at 0.5 occupancy -> speed 0.6 -> 1/0.6.
        // Segment 2: freeway at 0.1 occupancy -> speed 2.5*0.92 -> 3/2.3.
        let expect = 1.0 / 0.6 + 3.0 / (2.5 * 0.92);
        assert!((a.travel_time - expect).abs() < 1e-9);
        // Congestion makes it slower than distance/free-flow alone.
        assert!(a.travel_time > a.distance / 2.5);
    }

    #[test]
    fn mean_occupancy_is_distance_weighted() {
        let g = network();
        let a = evaluate_route(&g, &route()).unwrap();
        let expect = (0.5 * 1.0 + 0.1 * 3.0) / 4.0;
        assert!((a.mean_occupancy - expect).abs() < 1e-9);
    }

    #[test]
    fn invalid_route_is_rejected() {
        let g = network();
        let bad = Path {
            nodes: vec![NodeId(2), NodeId(0)],
            cost: 1.0,
        };
        assert!(evaluate_route(&g, &bad).is_err());
    }

    #[test]
    fn trivial_route_evaluates_to_zero() {
        let g = network();
        let a = evaluate_route(&g, &Path::trivial(NodeId(1))).unwrap();
        assert_eq!(a.segments, 0);
        assert_eq!(a.distance, 0.0);
        assert_eq!(a.travel_time, 0.0);
    }
}

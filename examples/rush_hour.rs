//! Dynamic travel-time re-planning (Section 1.1: "An effective navigation
//! system with static route selection, coupled with real-time traffic
//! information, is crucial to eliminating unnecessary travel time").
//!
//! Plans the same Minneapolis trip twice: first on distance costs (the
//! paper's preliminary setting), then on congestion-aware travel-time
//! costs — rush hour hits downtown hardest, so the best route changes.
//!
//! ```sh
//! cargo run --release --example rush_hour
//! ```

use atis::core::{evaluate_route, RoutePlanner};
use atis::graph::minneapolis::{Minneapolis, NamedPair};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mpls = Minneapolis::paper();
    let (s, d) = mpls.query_pair(NamedPair::AtoB);

    // Off-peak: costs are distances (the paper's Section 5.2 setting).
    let distance_planner = RoutePlanner::new(mpls.graph())?;
    let off_peak = distance_planner
        .plan(s, d)?
        .route
        .expect("A and B are connected");
    let off_attrs = evaluate_route(mpls.graph(), &off_peak)?;

    // Rush hour: re-cost every segment by congestion-aware travel time
    // (downtown streets carry 40-90% occupancy in the synthetic map) and
    // plan on the re-costed network.
    let rush_graph = mpls.graph().with_travel_time_costs()?;
    let rush_planner = RoutePlanner::new(&rush_graph)?;
    let rush = rush_planner.plan(s, d)?.route.expect("still connected");

    // Evaluate both routes under rush-hour conditions.
    let off_peak_at_rush = evaluate_route(mpls.graph(), &off_peak)?;
    let rush_attrs_dist = {
        // The rush route was planned on travel-time costs; evaluate its
        // distance and time on the original network.
        let mut nodes_path = rush.clone();
        // Recompute the stored cost against the distance graph before
        // evaluation (the path's cost field reflects travel time).
        nodes_path.cost = nodes_path
            .hops()
            .map(|(u, v)| mpls.graph().edge_cost(u, v).expect("edge exists"))
            .sum();
        evaluate_route(mpls.graph(), &nodes_path)?
    };

    println!("Trip A -> B across downtown Minneapolis\n");
    println!("Shortest-distance route ({} segments):", off_peak.len());
    println!("  distance    {:>7.2}", off_attrs.distance);
    println!(
        "  travel time {:>7.2} (in rush-hour traffic)",
        off_peak_at_rush.travel_time
    );
    println!(
        "  mean occupancy {:>4.0}%",
        off_peak_at_rush.mean_occupancy * 100.0
    );

    println!("\nFastest rush-hour route ({} segments):", rush.len());
    println!("  distance    {:>7.2}", rush_attrs_dist.distance);
    println!("  travel time {:>7.2}", rush_attrs_dist.travel_time);
    println!(
        "  mean occupancy {:>4.0}%",
        rush_attrs_dist.mean_occupancy * 100.0
    );

    let saved = off_peak_at_rush.travel_time - rush_attrs_dist.travel_time;
    let detour = rush_attrs_dist.distance - off_attrs.distance;
    println!(
        "\nRe-planning with live congestion saves {saved:.2} time units for {detour:.2} extra distance."
    );
    assert!(
        rush_attrs_dist.travel_time <= off_peak_at_rush.travel_time + 1e-9,
        "the travel-time-optimal route cannot be slower"
    );
    Ok(())
}

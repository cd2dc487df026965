//! Directed edges with costs and road attributes.

use crate::node::NodeId;

/// Road classification for a segment, mirroring the `road type` attribute of
/// the digitised Minneapolis data (Section 5.2). It feeds route evaluation
/// (travel-time from segment speed) and the rush-hour example; the path
/// computation algorithms themselves only look at [`Edge::cost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoadClass {
    /// Ordinary surface street (two-way).
    #[default]
    Street,
    /// Highway segment (two-way, faster).
    Highway,
    /// Freeway segment; the paper notes these are one-way, which is what
    /// makes the Minneapolis graph directed.
    Freeway,
}

impl RoadClass {
    /// Nominal free-flow speed for the class, in distance units per time
    /// unit. Used by route evaluation to turn distance costs into
    /// travel-time estimates.
    pub fn free_flow_speed(self) -> f64 {
        match self {
            RoadClass::Street => 1.0,
            RoadClass::Highway => 1.8,
            RoadClass::Freeway => 2.5,
        }
    }

    /// Effective speed at average occupancy `occupancy`: free flow,
    /// degrading linearly down to 20% of it when fully occupied.
    pub fn congested_speed(self, occupancy: f64) -> f64 {
        self.free_flow_speed() * (1.0 - 0.8 * occupancy.clamp(0.0, 1.0))
    }
}

/// A directed edge `(from, to)` with traversal cost `cost` (Section 2:
/// `C(u, v)` takes values from the set of real numbers; all algorithms
/// assume it is non-negative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Origin node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Traversal cost (distance or travel time).
    pub cost: f64,
    /// Road classification (attribute data; defaults to `Street`).
    pub class: RoadClass,
    /// Average occupancy in `[0, 1]`, an attribute of the Minneapolis data
    /// used by route evaluation. `0.0` means free-flowing.
    pub occupancy: f64,
}

impl Edge {
    /// Creates a plain street edge with the given cost.
    pub fn new(from: NodeId, to: NodeId, cost: f64) -> Self {
        Edge {
            from,
            to,
            cost,
            class: RoadClass::default(),
            occupancy: 0.0,
        }
    }

    /// Sets the road class.
    pub fn with_class(mut self, class: RoadClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the average occupancy.
    pub fn with_occupancy(mut self, occupancy: f64) -> Self {
        self.occupancy = occupancy;
        self
    }

    /// Estimated travel time for this edge: distance divided by the
    /// class's [`RoadClass::congested_speed`] at this edge's occupancy.
    pub fn travel_time(&self) -> f64 {
        self.cost / self.class.congested_speed(self.occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn street_edge_defaults() {
        let e = Edge::new(NodeId(0), NodeId(1), 2.0);
        assert_eq!(e.class, RoadClass::Street);
        assert_eq!(e.occupancy, 0.0);
        assert!((e.travel_time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn freeway_is_faster_than_street() {
        let street = Edge::new(NodeId(0), NodeId(1), 5.0);
        let freeway = Edge::new(NodeId(0), NodeId(1), 5.0).with_class(RoadClass::Freeway);
        assert!(freeway.travel_time() < street.travel_time());
    }

    #[test]
    fn congestion_slows_travel() {
        let free = Edge::new(NodeId(0), NodeId(1), 5.0);
        let jammed = Edge::new(NodeId(0), NodeId(1), 5.0).with_occupancy(1.0);
        assert!(jammed.travel_time() > free.travel_time());
        // Fully jammed is 5x slower (speed floor is 20% of free flow).
        assert!((jammed.travel_time() - 5.0 * free.travel_time()).abs() < 1e-9);
    }

    #[test]
    fn occupancy_is_clamped() {
        let e = Edge::new(NodeId(0), NodeId(1), 1.0).with_occupancy(7.0);
        assert!(e.travel_time().is_finite());
        let e2 = Edge::new(NodeId(0), NodeId(1), 1.0).with_occupancy(1.0);
        assert!((e.travel_time() - e2.travel_time()).abs() < 1e-12);
    }
}

//! Route display (Section 1.1): "the goal of route display is to
//! effectively communicate the optimal route to the traveller for
//! navigation."
//!
//! Two renderers:
//!
//! * [`turn_instructions`] — a turn-by-turn list derived from segment
//!   headings;
//! * [`MapCanvas`] / [`render_map`] — an ASCII map of the network with the
//!   route and labelled landmarks, used to regenerate Figure 8.

use atis_graph::{Graph, NodeId, Path, Point};

/// Compass heading of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heading {
    North,
    NorthEast,
    East,
    SouthEast,
    South,
    SouthWest,
    West,
    NorthWest,
}

impl Heading {
    fn of(from: Point, to: Point) -> Heading {
        let dx = to.x - from.x;
        let dy = to.y - from.y;
        let angle = dy.atan2(dx); // radians, east = 0, north = pi/2
        let octant = ((angle / std::f64::consts::FRAC_PI_4).round() as i32).rem_euclid(8);
        match octant {
            0 => Heading::East,
            1 => Heading::NorthEast,
            2 => Heading::North,
            3 => Heading::NorthWest,
            4 => Heading::West,
            5 => Heading::SouthWest,
            6 => Heading::South,
            _ => Heading::SouthEast,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Heading::North => "north",
            Heading::NorthEast => "northeast",
            Heading::East => "east",
            Heading::SouthEast => "southeast",
            Heading::South => "south",
            Heading::SouthWest => "southwest",
            Heading::West => "west",
            Heading::NorthWest => "northwest",
        }
    }

    fn index(self) -> i32 {
        match self {
            Heading::East => 0,
            Heading::NorthEast => 1,
            Heading::North => 2,
            Heading::NorthWest => 3,
            Heading::West => 4,
            Heading::SouthWest => 5,
            Heading::South => 6,
            Heading::SouthEast => 7,
        }
    }
}

/// Builds a turn-by-turn instruction list for a route. Consecutive
/// same-heading segments are merged into one "continue" leg.
pub fn turn_instructions(graph: &Graph, path: &Path) -> Vec<String> {
    if path.is_empty() {
        return vec!["You are already at your destination.".to_string()];
    }
    let mut legs: Vec<(Heading, f64)> = Vec::new();
    for (u, v) in path.hops() {
        let h = Heading::of(graph.point(u), graph.point(v));
        let cost = graph.edge_cost(u, v).unwrap_or(0.0);
        match legs.last_mut() {
            Some((lh, lc)) if *lh == h => *lc += cost,
            _ => legs.push((h, cost)),
        }
    }
    let mut out = Vec::with_capacity(legs.len() + 1);
    let mut prev: Option<Heading> = None;
    for (h, dist) in legs {
        let verb = match prev {
            None => format!("Head {}", h.name()),
            Some(p) => {
                // Positive differences (mod 8) in 1..=3 are left turns in
                // this east-counterclockwise convention.
                let diff = (h.index() - p.index()).rem_euclid(8);
                match diff {
                    0 => format!("Continue {}", h.name()),
                    1..=3 => format!("Turn left, heading {}", h.name()),
                    4 => format!("Make a U-turn, heading {}", h.name()),
                    _ => format!("Turn right, heading {}", h.name()),
                }
            }
        };
        out.push(format!("{verb} for {dist:.1} units"));
        prev = Some(h);
    }
    out.push("You have arrived at your destination.".to_string());
    out
}

/// A character-grid map renderer.
#[derive(Debug)]
pub struct MapCanvas {
    width: usize,
    height: usize,
    cells: Vec<char>,
    min: Point,
    max: Point,
}

impl MapCanvas {
    /// Creates a canvas sized `width × height` characters covering the
    /// graph's bounding box.
    pub fn new(graph: &Graph, width: usize, height: usize) -> MapCanvas {
        let (mut min, mut max) = (
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::MIN, f64::MIN),
        );
        for u in graph.node_ids() {
            let p = graph.point(u);
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        if graph.node_count() == 0 {
            min = Point::new(0.0, 0.0);
            max = Point::new(1.0, 1.0);
        }
        MapCanvas {
            width,
            height,
            cells: vec![' '; width * height],
            min,
            max,
        }
    }

    fn locate(&self, p: Point) -> (usize, usize) {
        let fx = if self.max.x > self.min.x {
            (p.x - self.min.x) / (self.max.x - self.min.x)
        } else {
            0.5
        };
        let fy = if self.max.y > self.min.y {
            (p.y - self.min.y) / (self.max.y - self.min.y)
        } else {
            0.5
        };
        let col = (fx * (self.width - 1) as f64).round() as usize;
        // y grows upward; rows grow downward.
        let row = ((1.0 - fy) * (self.height - 1) as f64).round() as usize;
        (row.min(self.height - 1), col.min(self.width - 1))
    }

    /// Plots a character at a map position (later plots win).
    pub fn plot(&mut self, p: Point, c: char) {
        let (row, col) = self.locate(p);
        if let Some(cell) = self.cells.get_mut(row * self.width + col) {
            *cell = c;
        }
    }

    /// Renders the canvas with a border.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.width + 3) * (self.height + 2));
        out.push('+');
        out.extend(std::iter::repeat_n('-', self.width));
        out.push_str("+\n");
        for row in 0..self.height {
            out.push('|');
            let line = self.cells.get(row * self.width..(row + 1) * self.width);
            out.extend(line.unwrap_or_default());
            out.push_str("|\n");
        }
        out.push('+');
        out.extend(std::iter::repeat_n('-', self.width));
        out.push_str("+\n");
        out
    }
}

/// Renders a network map with optional route and landmarks:
/// `.` network nodes, `*` the route, letters the landmarks (uppercase
/// plots win over the route, which wins over plain nodes).
pub fn render_map(
    graph: &Graph,
    route: Option<&Path>,
    landmarks: &[(char, NodeId)],
    width: usize,
    height: usize,
) -> String {
    let mut canvas = MapCanvas::new(graph, width, height);
    for u in graph.node_ids() {
        if graph.degree(u) > 0 {
            canvas.plot(graph.point(u), '.');
        }
    }
    if let Some(path) = route {
        for &n in &path.nodes {
            canvas.plot(graph.point(n), '*');
        }
    }
    for &(c, n) in landmarks {
        canvas.plot(graph.point(n), c);
    }
    canvas.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{CostModel, Grid, QueryKind};

    #[test]
    fn trivial_route_has_arrival_message() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let msgs = turn_instructions(&g, &Path::trivial(NodeId(0)));
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("already"));
    }

    #[test]
    fn straight_route_merges_into_one_leg() {
        let g = graph_from_arcs(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let p = Path {
            nodes: (0..4).map(NodeId).collect(),
            cost: 3.0,
        };
        let msgs = turn_instructions(&g, &p);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].starts_with("Head east for 3.0"));
        assert!(msgs[1].contains("arrived"));
    }

    #[test]
    fn l_shaped_route_turns_once() {
        let grid = Grid::new(4, CostModel::Uniform, 0).unwrap();
        // (0,0) -> (0,1) -> (1,1): east then north = left turn.
        let p = Path {
            nodes: vec![grid.node_at(0, 0), grid.node_at(0, 1), grid.node_at(1, 1)],
            cost: 2.0,
        };
        let msgs = turn_instructions(grid.graph(), &p);
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("east"));
        assert!(msgs[1].contains("Turn left"), "{}", msgs[1]);
        assert!(msgs[1].contains("north"));
    }

    #[test]
    fn right_turn_is_detected() {
        let grid = Grid::new(4, CostModel::Uniform, 0).unwrap();
        // north then east = right turn.
        let p = Path {
            nodes: vec![grid.node_at(0, 0), grid.node_at(1, 0), grid.node_at(1, 1)],
            cost: 2.0,
        };
        let msgs = turn_instructions(grid.graph(), &p);
        assert!(msgs[1].contains("Turn right"), "{}", msgs[1]);
    }

    #[test]
    fn all_eight_headings_are_named() {
        use atis_graph::{Edge, GraphBuilder, NodeId};
        // A star of 8 spokes from the origin.
        let mut b = GraphBuilder::new();
        let centre = b.add_node(Point::new(0.0, 0.0));
        let dirs: [(f64, f64, &str); 8] = [
            (1.0, 0.0, "east"),
            (1.0, 1.0, "northeast"),
            (0.0, 1.0, "north"),
            (-1.0, 1.0, "northwest"),
            (-1.0, 0.0, "west"),
            (-1.0, -1.0, "southwest"),
            (0.0, -1.0, "south"),
            (1.0, -1.0, "southeast"),
        ];
        let mut spokes = Vec::new();
        for &(x, y, _) in &dirs {
            let n = b.add_node(Point::new(x, y));
            b.add_edge(Edge::new(centre, n, 1.0));
            spokes.push(n);
        }
        let g = b.build().unwrap();
        for (i, &(_, _, name)) in dirs.iter().enumerate() {
            let p = Path {
                nodes: vec![NodeId(0), spokes[i]],
                cost: 1.0,
            };
            let first = &turn_instructions(&g, &p)[0];
            assert!(
                first.contains(name),
                "direction {i}: expected {name} in {first:?}"
            );
        }
    }

    #[test]
    fn u_turn_is_detected() {
        use atis_graph::{GraphBuilder, NodeId};
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_undirected(a, c, 1.0);
        let g = b.build().unwrap();
        let p = Path {
            nodes: vec![NodeId(0), NodeId(1), NodeId(0)],
            cost: 2.0,
        };
        let msgs = turn_instructions(&g, &p);
        assert!(msgs.iter().any(|m| m.contains("U-turn")), "{msgs:?}");
    }

    #[test]
    fn map_renders_route_and_landmarks() {
        let grid = Grid::new(6, CostModel::Uniform, 0).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let route = Path {
            nodes: vec![s, grid.node_at(0, 1), grid.node_at(1, 1)],
            cost: 2.0,
        };
        let map = render_map(grid.graph(), Some(&route), &[('S', s), ('D', d)], 24, 12);
        assert!(map.contains('S'));
        assert!(map.contains('D'));
        assert!(map.contains('*'));
        assert!(map.contains('.'));
        // Border intact.
        assert!(map.starts_with('+'));
        assert!(map.trim_end().ends_with('+'));
    }

    #[test]
    fn map_dimensions_are_respected() {
        let grid = Grid::new(5, CostModel::Uniform, 0).unwrap();
        let map = render_map(grid.graph(), None, &[], 30, 10);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 12); // 10 rows + 2 borders
        assert!(lines.iter().all(|l| l.chars().count() == 32)); // 30 + 2 borders
    }

    #[test]
    fn landmark_positions_are_geographic() {
        // South-west landmark must land in the lower-left of the canvas.
        let grid = Grid::new(10, CostModel::Uniform, 0).unwrap();
        let sw = grid.node_at(0, 0);
        let map = render_map(grid.graph(), None, &[('X', sw)], 20, 10);
        let lines: Vec<&str> = map.lines().collect();
        // Row 10 (last content row) should contain X near the left edge.
        let row = lines[10];
        let xpos = row.find('X').expect("X plotted");
        assert!(xpos <= 3, "X at column {xpos} of {row:?}");
    }
}

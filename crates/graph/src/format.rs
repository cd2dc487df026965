//! A plain-text road-network interchange format.
//!
//! Downstream users bring their own maps; this module defines the `atis
//! road network v1` format the CLI and examples read and write:
//!
//! ```text
//! # free-form comments
//! atis-road-network v1
//! nodes 3
//! 0 0.0 0.0
//! 1 1.0 0.0
//! 2 1.0 1.0
//! edges 2
//! 0 1 1.0 street 0.10
//! 1 2 1.0 freeway 0.00
//! ```
//!
//! Node lines are `id x y` with dense ids in order; edge lines are
//! `from to cost class occupancy` with class one of `street`, `highway`,
//! `freeway`. The format is directed — write both directions for two-way
//! segments (as the relational representation does).

use crate::edge::{Edge, RoadClass};
use crate::graph::{Graph, GraphBuilder};
use crate::node::{NodeId, Point};
use std::fmt;

/// Errors from parsing the interchange format.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatError {
    /// The header line is missing or wrong.
    BadHeader(String),
    /// A section header (`nodes N` / `edges M`) is malformed.
    BadSection(String),
    /// A data line failed to parse.
    BadLine {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The graph itself was invalid (bad endpoint, negative cost, ...).
    Graph(crate::error::GraphError),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadHeader(h) => {
                write!(f, "bad header {h:?} (expected 'atis-road-network v1')")
            }
            FormatError::BadSection(s) => write!(f, "bad section header {s:?}"),
            FormatError::BadLine { line, message } => write!(f, "line {line}: {message}"),
            FormatError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<crate::error::GraphError> for FormatError {
    fn from(e: crate::error::GraphError) -> Self {
        FormatError::Graph(e)
    }
}

fn class_name(class: RoadClass) -> &'static str {
    match class {
        RoadClass::Street => "street",
        RoadClass::Highway => "highway",
        RoadClass::Freeway => "freeway",
    }
}

fn parse_class(s: &str) -> Option<RoadClass> {
    match s {
        "street" => Some(RoadClass::Street),
        "highway" => Some(RoadClass::Highway),
        "freeway" => Some(RoadClass::Freeway),
        _ => None,
    }
}

/// Serialises a graph to the v1 text format.
pub fn write_graph(graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("atis-road-network v1\n");
    out.push_str(&format!("nodes {}\n", graph.node_count()));
    for u in graph.node_ids() {
        let p = graph.point(u);
        out.push_str(&format!("{} {} {}\n", u.0, p.x, p.y));
    }
    out.push_str(&format!("edges {}\n", graph.edge_count()));
    for e in graph.edges() {
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            e.from.0,
            e.to.0,
            e.cost,
            class_name(e.class),
            e.occupancy
        ));
    }
    out
}

/// Parses the v1 text format back into a graph.
///
/// # Errors
/// Fails with a line-numbered message on any malformed input.
pub fn read_graph(input: &str) -> Result<Graph, FormatError> {
    let mut lines = input
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let (_, header) = lines
        .next()
        .ok_or_else(|| FormatError::BadHeader("<empty input>".to_string()))?;
    if header != "atis-road-network v1" {
        return Err(FormatError::BadHeader(header.to_string()));
    }

    let (line_no, nodes_header) = lines
        .next()
        .ok_or_else(|| FormatError::BadSection("<missing nodes>".to_string()))?;
    let n: usize = match nodes_header.strip_prefix("nodes ") {
        Some(rest) => rest.parse().map_err(|_| FormatError::BadLine {
            line: line_no,
            message: format!("bad node count {rest:?}"),
        })?,
        None => return Err(FormatError::BadSection(nodes_header.to_string())),
    };

    let mut b = GraphBuilder::with_capacity(n, 0);
    for expected in 0..n {
        let (line_no, l) = lines.next().ok_or(FormatError::BadLine {
            line: usize::MAX,
            message: format!("expected {n} node lines, input ended at node {expected}"),
        })?;
        let mut parts = l.split_whitespace();
        let bad = |message: String| FormatError::BadLine {
            line: line_no,
            message,
        };
        let id: u32 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("missing/invalid node id".into()))?;
        if id as usize != expected {
            return Err(bad(format!(
                "node ids must be dense and in order (got {id}, expected {expected})"
            )));
        }
        let x: f64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("missing/invalid x coordinate".into()))?;
        let y: f64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("missing/invalid y coordinate".into()))?;
        if parts.next().is_some() {
            return Err(bad("trailing fields on node line".into()));
        }
        b.add_node(Point::new(x, y));
    }

    let (line_no, edges_header) = lines
        .next()
        .ok_or_else(|| FormatError::BadSection("<missing edges>".to_string()))?;
    let m: usize = match edges_header.strip_prefix("edges ") {
        Some(rest) => rest.parse().map_err(|_| FormatError::BadLine {
            line: line_no,
            message: format!("bad edge count {rest:?}"),
        })?,
        None => return Err(FormatError::BadSection(edges_header.to_string())),
    };

    for expected in 0..m {
        let (line_no, l) = lines.next().ok_or(FormatError::BadLine {
            line: usize::MAX,
            message: format!("expected {m} edge lines, input ended at edge {expected}"),
        })?;
        let bad = |message: String| FormatError::BadLine {
            line: line_no,
            message,
        };
        let mut parts = l.split_whitespace();
        let from: u32 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("missing/invalid from id".into()))?;
        let to: u32 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("missing/invalid to id".into()))?;
        let cost: f64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("missing/invalid cost".into()))?;
        let class = parts
            .next()
            .and_then(parse_class)
            .ok_or_else(|| bad("missing/invalid road class".into()))?;
        let occupancy: f64 = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("missing/invalid occupancy".into()))?;
        if parts.next().is_some() {
            return Err(bad("trailing fields on edge line".into()));
        }
        b.add_edge(
            Edge::new(NodeId(from), NodeId(to), cost)
                .with_class(class)
                .with_occupancy(occupancy),
        );
    }

    if let Some((line_no, l)) = lines.next() {
        return Err(FormatError::BadLine {
            line: line_no,
            message: format!("unexpected trailing content {l:?}"),
        });
    }

    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Grid, Minneapolis};

    #[test]
    fn roundtrip_grid() {
        let grid = Grid::new(7, CostModel::TWENTY_PERCENT, 11).unwrap();
        let text = write_graph(grid.graph());
        let back = read_graph(&text).unwrap();
        assert_eq!(back.node_count(), grid.graph().node_count());
        assert_eq!(back.edge_count(), grid.graph().edge_count());
        for (a, b) in grid.graph().edges().zip(back.edges()) {
            assert_eq!((a.from, a.to), (b.from, b.to));
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.class, b.class);
        }
        for u in grid.graph().node_ids() {
            assert_eq!(grid.graph().point(u), back.point(u));
        }
    }

    #[test]
    fn roundtrip_minneapolis_preserves_attributes() {
        let m = Minneapolis::paper();
        let back = read_graph(&write_graph(m.graph())).unwrap();
        assert_eq!(back.edge_count(), m.graph().edge_count());
        let freeway_count = |g: &Graph| g.edges().filter(|e| e.class == RoadClass::Freeway).count();
        assert_eq!(freeway_count(&back), freeway_count(m.graph()));
        // Occupancy survives (f64 textual roundtrip).
        for (a, b) in m.graph().edges().zip(back.edges()).take(100) {
            assert!((a.occupancy - b.occupancy).abs() < 1e-12);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a map\n\natis-road-network v1\n# nodes follow\nnodes 2\n0 0 0\n1 1 0\nedges 1\n0 1 2.5 street 0\n";
        let g = read_graph(text).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_cost(NodeId(0), NodeId(1)), Some(2.5));
    }

    #[test]
    fn bad_header_is_rejected() {
        assert!(matches!(
            read_graph("not a map\n"),
            Err(FormatError::BadHeader(_))
        ));
        assert!(matches!(read_graph(""), Err(FormatError::BadHeader(_))));
    }

    #[test]
    fn out_of_order_node_ids_are_rejected() {
        let text = "atis-road-network v1\nnodes 2\n1 0 0\n0 1 0\nedges 0\n";
        match read_graph(text) {
            Err(FormatError::BadLine { message, .. }) => assert!(message.contains("dense")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_class_reports_line_number() {
        let text = "atis-road-network v1\nnodes 2\n0 0 0\n1 1 0\nedges 1\n0 1 1.0 motorway 0\n";
        match read_graph(text) {
            Err(FormatError::BadLine { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("road class"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let text = "atis-road-network v1\nnodes 2\n0 0 0\n";
        assert!(matches!(read_graph(text), Err(FormatError::BadLine { .. })));
    }

    #[test]
    fn trailing_content_is_rejected() {
        let text = "atis-road-network v1\nnodes 1\n0 0 0\nedges 0\nextra\n";
        assert!(matches!(read_graph(text), Err(FormatError::BadLine { .. })));
    }

    #[test]
    fn invalid_graph_content_is_rejected() {
        // Edge to a node that does not exist.
        let text = "atis-road-network v1\nnodes 1\n0 0 0\nedges 1\n0 5 1.0 street 0\n";
        assert!(matches!(read_graph(text), Err(FormatError::Graph(_))));
        // Negative cost.
        let text = "atis-road-network v1\nnodes 2\n0 0 0\n1 1 0\nedges 1\n0 1 -1.0 street 0\n";
        assert!(matches!(read_graph(text), Err(FormatError::Graph(_))));
    }
}

//! Error types for graph construction and validation.

use crate::node::NodeId;
use std::fmt;

/// Errors raised while building or validating graphs and paths.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge referenced a node id that does not exist in the graph.
    UnknownNode(NodeId),
    /// An edge carried a negative cost; every algorithm in the paper assumes
    /// non-negative edge costs (Lemmas 1–3).
    NegativeCost {
        /// Edge origin.
        from: NodeId,
        /// Edge target.
        to: NodeId,
        /// The offending cost.
        cost: f64,
    },
    /// An edge cost was NaN or infinite.
    NonFiniteCost {
        /// Edge origin.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// An edge's average occupancy was NaN or infinite.
    NonFiniteOccupancy {
        /// Edge origin.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// A path visited an edge that is not present in the graph.
    MissingEdge {
        /// Edge origin.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// A path was empty or did not start/end at the requested nodes.
    MalformedPath(String),
    /// A grid dimension of zero (or one) was requested.
    DegenerateGrid(usize),
    /// The graph exceeds the capacity of the fixed-width storage tuples
    /// (node ids must fit in the 24-bit tuple encoding).
    TooManyNodes(usize),
    /// A streaming CSR build received edges out of origin order, or was
    /// frozen before every node's adjacency was sealed.
    OutOfOrder(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode(n) => write!(f, "unknown node id {n}"),
            GraphError::NegativeCost { from, to, cost } => {
                write!(f, "edge ({from} -> {to}) has negative cost {cost}")
            }
            GraphError::NonFiniteCost { from, to } => {
                write!(f, "edge ({from} -> {to}) has a non-finite cost")
            }
            GraphError::NonFiniteOccupancy { from, to } => {
                write!(f, "edge ({from} -> {to}) has a non-finite occupancy")
            }
            GraphError::MissingEdge { from, to } => {
                write!(
                    f,
                    "path uses edge ({from} -> {to}) which is not in the graph"
                )
            }
            GraphError::MalformedPath(msg) => write!(f, "malformed path: {msg}"),
            GraphError::DegenerateGrid(k) => {
                write!(f, "grid dimension {k} is too small (need k >= 2)")
            }
            GraphError::TooManyNodes(n) => {
                write!(
                    f,
                    "graph has {n} nodes; the storage layer supports at most {}",
                    crate::graph::MAX_NODES
                )
            }
            GraphError::OutOfOrder(msg) => write!(f, "streaming build out of order: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

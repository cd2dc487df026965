//! Preprocessing errors.

use std::fmt;

/// Errors raised while selecting landmarks or building distance tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessError {
    /// The graph has no nodes.
    EmptyGraph,
    /// A landmark count of zero was requested.
    ZeroLandmarks,
    /// More landmarks were requested than the graph has nodes.
    TooManyLandmarks {
        /// Requested landmark count.
        requested: usize,
        /// Nodes available in the graph.
        nodes: usize,
    },
    /// Transposing the graph for the backward tables produced a graph
    /// the builder rejects (its message is carried).
    InvalidGraph(String),
}

impl fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreprocessError::EmptyGraph => write!(f, "cannot preprocess an empty graph"),
            PreprocessError::ZeroLandmarks => write!(f, "landmark count must be at least 1"),
            PreprocessError::TooManyLandmarks { requested, nodes } => {
                write!(
                    f,
                    "requested {requested} landmarks but the graph has only {nodes} nodes"
                )
            }
            PreprocessError::InvalidGraph(why) => {
                write!(f, "the transposed graph is invalid: {why}")
            }
        }
    }
}

impl std::error::Error for PreprocessError {}

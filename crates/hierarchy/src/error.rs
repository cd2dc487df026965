//! Hierarchy-level errors.

use std::fmt;

/// Errors raised while building or refreshing a contraction hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierarchyError {
    /// The graph has no nodes, so there is nothing to order or contract.
    EmptyGraph,
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::EmptyGraph => {
                write!(f, "cannot build a hierarchy over an empty graph")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

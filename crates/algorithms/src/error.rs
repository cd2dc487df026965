//! Algorithm-level errors.

use atis_graph::{GraphError, NodeId};
use atis_storage::StorageError;
use std::fmt;

/// Which search budget a run exhausted (see `Database::with_budgets`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The iteration cap was hit.
    Iterations,
    /// The accumulated I/O cost (Table 4A units) exceeded the cap.
    CostUnits,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Iterations => write!(f, "iteration"),
            BudgetKind::CostUnits => write!(f, "cost-unit"),
        }
    }
}

/// Why the landmark (ALT) tables cannot serve a run (see
/// `Database::with_landmarks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkIssue {
    /// No landmark tables are attached to the database.
    Missing,
    /// The attached tables were built for different edge costs (their
    /// fingerprint no longer matches the graph), so their bounds may
    /// overestimate and break admissibility.
    Stale,
}

impl fmt::Display for LandmarkIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LandmarkIssue::Missing => write!(f, "no landmark tables attached"),
            LandmarkIssue::Stale => write!(f, "landmark tables are stale for the current costs"),
        }
    }
}

/// Why the contraction hierarchy cannot serve a run (see
/// `Database::with_hierarchy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyIssue {
    /// No hierarchy is attached to the database.
    Missing,
    /// The attached hierarchy was priced for different edge costs (its
    /// fingerprint no longer matches the graph), so its shortcuts would
    /// answer with stale prices.
    Stale,
}

impl fmt::Display for HierarchyIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyIssue::Missing => write!(f, "no hierarchy attached"),
            HierarchyIssue::Stale => write!(f, "hierarchy is stale for the current costs"),
        }
    }
}

/// Errors raised while running a path-computation algorithm.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmError {
    /// A storage operation failed.
    Storage(StorageError),
    /// The graph could not be loaded or a produced path failed validation.
    Graph(GraphError),
    /// The requested source node is not in the graph.
    UnknownSource(NodeId),
    /// The requested destination node is not in the graph.
    UnknownDestination(NodeId),
    /// A search budget was exhausted before the run completed.
    BudgetExceeded(BudgetKind),
    /// A\* version 4 was requested but the landmark tables are missing or
    /// stale. The tables must be (re)built; the serving layer's degrade
    /// ladder reacts by falling to version 3.
    LandmarksUnavailable(LandmarkIssue),
    /// A\* version 5 was requested but the contraction hierarchy is
    /// missing or stale. The overlay must be customized or re-contracted;
    /// the serving layer's degrade ladder reacts by falling to version 4
    /// (then 3).
    HierarchyUnavailable(HierarchyIssue),
}

impl fmt::Display for AlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmError::Storage(e) => write!(f, "storage error: {e}"),
            AlgorithmError::Graph(e) => write!(f, "graph error: {e}"),
            AlgorithmError::UnknownSource(n) => write!(f, "unknown source node {n}"),
            AlgorithmError::UnknownDestination(n) => write!(f, "unknown destination node {n}"),
            AlgorithmError::BudgetExceeded(k) => write!(f, "{k} budget exceeded"),
            AlgorithmError::LandmarksUnavailable(issue) => {
                write!(f, "landmark estimator unavailable: {issue}")
            }
            AlgorithmError::HierarchyUnavailable(issue) => {
                write!(f, "hierarchy unavailable: {issue}")
            }
        }
    }
}

impl std::error::Error for AlgorithmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgorithmError::Storage(e) => Some(e),
            AlgorithmError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for AlgorithmError {
    fn from(e: StorageError) -> Self {
        AlgorithmError::Storage(e)
    }
}

impl From<GraphError> for AlgorithmError {
    fn from(e: GraphError) -> Self {
        AlgorithmError::Graph(e)
    }
}

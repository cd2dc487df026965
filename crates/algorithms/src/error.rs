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

/// Why an epoch artifact — the landmark (ALT) tables of
/// `Database::with_landmarks` or the contraction hierarchy of
/// `Database::with_hierarchy` — cannot serve a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactIssue {
    /// No such artifact is attached to the database.
    Missing,
    /// The attached artifact was built for different edge costs (its
    /// fingerprint no longer matches the graph): stale landmark bounds
    /// may overestimate and break admissibility, stale shortcuts would
    /// answer with stale prices.
    Stale,
}

impl ArtifactIssue {
    /// The issue as a phrase about `artifact`, whose verb `is` agrees
    /// with it.
    fn phrase(self, artifact: &str, is: &str) -> String {
        match self {
            ArtifactIssue::Missing => format!("no {artifact} attached"),
            ArtifactIssue::Stale => format!("{artifact} {is} stale for the current costs"),
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
    LandmarksUnavailable(ArtifactIssue),
    /// A\* version 5 was requested but the contraction hierarchy is
    /// missing or stale. The overlay must be customized or re-contracted;
    /// the serving layer's degrade ladder reacts by falling to version 4
    /// (then 3).
    HierarchyUnavailable(ArtifactIssue),
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
                let issue = issue.phrase("landmark tables", "are");
                write!(f, "landmark estimator unavailable: {issue}")
            }
            AlgorithmError::HierarchyUnavailable(issue) => {
                let issue = issue.phrase("hierarchy", "is");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_issues_read_as_their_artifact() {
        let cases = [
            (
                AlgorithmError::LandmarksUnavailable(ArtifactIssue::Missing),
                "landmark estimator unavailable: no landmark tables attached",
            ),
            (
                AlgorithmError::LandmarksUnavailable(ArtifactIssue::Stale),
                "landmark estimator unavailable: landmark tables are stale for the current costs",
            ),
            (
                AlgorithmError::HierarchyUnavailable(ArtifactIssue::Missing),
                "hierarchy unavailable: no hierarchy attached",
            ),
            (
                AlgorithmError::HierarchyUnavailable(ArtifactIssue::Stale),
                "hierarchy unavailable: hierarchy is stale for the current costs",
            ),
        ];
        for (error, text) in cases {
            assert_eq!(error.to_string(), text);
        }
    }
}

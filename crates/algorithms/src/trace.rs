//! Run traces: what a database-resident run measured.

use atis_graph::{NodeId, Path};
use atis_obs::StepIo;
use atis_storage::{CostParams, IoStats, JoinStrategy};
use std::time::Duration;

/// The record of one algorithm run. `iterations` is the quantity the
/// paper's Tables 5–8 report; `cost_units(…)` is the "execution time" of
/// Figures 5–12 (I/O charged at Table 4A unit costs).
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Human-readable algorithm label (e.g. `"A* (version 3)"`).
    pub algorithm: String,
    /// Iteration count: expansions for Dijkstra/A\*, rounds for Iterative.
    pub iterations: u64,
    /// Nodes expanded (selected and explored). Equals `iterations` for the
    /// one-node-per-iteration algorithms.
    pub expanded: u64,
    /// Closed nodes that re-entered the frontier (A\* reopening; always 0
    /// for Dijkstra).
    pub reopened: u64,
    /// Total metered storage work.
    pub io: IoStats,
    /// Join strategy used for the adjacency joins (uniform per run).
    pub join_strategy: Option<JoinStrategy>,
    /// The discovered path, or `None` when the destination is unreachable.
    pub path: Option<Path>,
    /// Wall-clock time of the run (ours, not the paper's).
    pub wall: Duration,
    /// Expansion order (node ids in the order they were selected);
    /// round-by-round current sets are flattened for the iterative
    /// algorithm.
    pub expansion_order: Vec<NodeId>,
    /// Per-step I/O attribution, mirroring the step structure of the
    /// paper's cost models (Tables 2–3); its parts sum to `io`.
    pub steps: StepIo,
    /// Largest frontierSet cardinality observed during the run. The
    /// select step scans the frontier every iteration, so this is the
    /// quantity a tighter estimator shrinks first (the estimator-quality
    /// experiment reports it next to the cost model's prediction).
    pub frontier_peak: u64,
}

impl RunTrace {
    /// The run's cost in the paper's units under `params`.
    pub fn cost_units(&self, params: &CostParams) -> f64 {
        self.io.cost(params)
    }

    /// Cost of the discovered path (`∞` when unreachable) — convenient for
    /// comparisons in tests and tables.
    pub fn path_cost(&self) -> f64 {
        self.path.as_ref().map_or(f64::INFINITY, |p| p.cost)
    }

    /// Whether a path was found.
    pub fn found(&self) -> bool {
        self.path.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> RunTrace {
        let mut io = IoStats::new();
        io.read_blocks(10);
        RunTrace {
            algorithm: "test".into(),
            iterations: 5,
            expanded: 5,
            reopened: 0,
            io,
            join_strategy: None,
            path: Some(Path {
                nodes: vec![NodeId(0), NodeId(1)],
                cost: 2.0,
            }),
            wall: Duration::ZERO,
            expansion_order: vec![NodeId(0)],
            steps: StepIo::default(),
            frontier_peak: 1,
        }
    }

    #[test]
    fn cost_units_price_the_io() {
        let t = trace();
        assert!((t.cost_units(&CostParams::default()) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn path_cost_of_found_path() {
        assert_eq!(trace().path_cost(), 2.0);
        let mut t = trace();
        t.path = None;
        assert!(t.path_cost().is_infinite());
        assert!(!t.found());
    }
}

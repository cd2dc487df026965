//! Route computation: the planner facade over the database-resident
//! algorithms.

use atis_algorithms::{AStarVersion, Algorithm, AlgorithmError, Database, RunTrace};
use atis_graph::{Graph, NodeId, Path};
use atis_hierarchy::Hierarchy;
use atis_obs::{SharedRegistry, SharedSink};
use atis_preprocess::LandmarkTables;
use atis_storage::{CostParams, JoinPolicy};
use std::time::Duration;

/// The result of planning one route.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Which algorithm produced it.
    pub algorithm: String,
    /// The route, or `None` if the destination is unreachable.
    pub route: Option<Path>,
    /// Iterations the run took (the paper's reported metric).
    pub iterations: u64,
    /// Simulated I/O cost in Table 4A units (the paper's execution time).
    pub cost_units: f64,
    /// Wall-clock time of the run on this machine.
    pub wall: Duration,
    /// The full trace, for detailed inspection.
    pub trace: RunTrace,
}

impl PlanReport {
    fn from_trace(trace: RunTrace, params: &CostParams) -> Self {
        PlanReport {
            algorithm: trace.algorithm.clone(),
            route: trace.path.clone(),
            iterations: trace.iterations,
            cost_units: trace.cost_units(params),
            wall: trace.wall,
            trace,
        }
    }

    /// Whether a route was found.
    pub fn found(&self) -> bool {
        self.route.is_some()
    }
}

/// The ATIS route planner: a road network loaded into the storage engine
/// plus a default algorithm choice.
///
/// ```
/// use atis_core::RoutePlanner;
/// use atis_graph::{CostModel, Grid, QueryKind};
///
/// let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 1).unwrap();
/// let planner = RoutePlanner::new(grid.graph()).unwrap();
/// let (s, d) = grid.query_pair(QueryKind::Diagonal);
/// let report = planner.plan(s, d).unwrap();
/// assert!(report.found());
/// assert!(report.cost_units > 0.0);
/// ```
///
/// The default is A\* (version 3): the paper's conclusion is that
/// estimator-based single-pair search wins "if the path\[source,
/// destination\] is much smaller than the diameter of the graph" — the
/// common case for a traveller information system — at the cost of
/// guaranteed optimality when the Manhattan estimator overestimates
/// (Section 6 explicitly embraces that trade-off for ATIS).
#[derive(Debug, Clone)]
pub struct RoutePlanner {
    db: Database,
    default_algorithm: Algorithm,
}

impl RoutePlanner {
    /// Loads a road network with default settings.
    ///
    /// # Errors
    /// Fails if the graph exceeds the storage encodings (more than
    /// [`atis_graph::graph::MAX_NODES`] nodes).
    pub fn new(graph: &Graph) -> Result<Self, AlgorithmError> {
        Ok(RoutePlanner {
            db: Database::open(graph)?,
            default_algorithm: Algorithm::AStar(AStarVersion::V3),
        })
    }

    /// Overrides the default algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.default_algorithm = algorithm;
        self
    }

    /// Attaches already-built landmark tables (e.g. an epoch artifact
    /// shared by a serving fleet) without changing the default algorithm.
    pub fn with_landmarks(mut self, tables: LandmarkTables) -> Self {
        self.db = self.db.with_landmarks(tables);
        self
    }

    /// Attaches an already-built contraction hierarchy (e.g. an epoch
    /// artifact shared by a serving fleet) without changing the default
    /// algorithm.
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Self {
        self.db = self.db.with_hierarchy(hierarchy);
        self
    }

    /// Overrides the join policy (e.g. `JoinPolicy::CostBased` to let the
    /// optimizer replace the paper's forced nested-loop joins).
    pub fn with_join_policy(mut self, policy: JoinPolicy) -> Self {
        self.db = self.db.with_join_policy(policy);
        self
    }

    /// Attaches a trace sink: every run emits its iteration events.
    pub fn with_trace_sink(mut self, sink: SharedSink) -> Self {
        self.db = self.db.with_trace_sink(sink);
        self
    }

    /// Attaches a metrics registry for the per-run metrics the database
    /// layer records.
    pub fn with_metrics(mut self, metrics: SharedRegistry) -> Self {
        self.db = self.db.with_metrics(metrics);
        self
    }

    /// The default algorithm.
    pub fn default_algorithm(&self) -> Algorithm {
        self.default_algorithm
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Consumes the planner and hands its configured database over — the
    /// entry point for pooled execution: `atis-serve`'s `RouteService`
    /// takes a `Database` (with whatever budgets, join policy, metrics
    /// and sinks the planner accumulated) and serves it from a worker
    /// pool behind epoch snapshots. The single-query planner and the
    /// serving layer therefore share one configuration path.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// The resident road network.
    pub fn graph(&self) -> &Graph {
        self.db.graph()
    }

    /// Plans a route with the default algorithm.
    ///
    /// # Errors
    /// Fails for unknown endpoints.
    pub fn plan(&self, s: NodeId, d: NodeId) -> Result<PlanReport, AlgorithmError> {
        self.plan_with(self.default_algorithm, s, d)
    }

    /// Plans a route with an explicit algorithm.
    ///
    /// # Errors
    /// Fails for unknown endpoints.
    pub fn plan_with(
        &self,
        algorithm: Algorithm,
        s: NodeId,
        d: NodeId,
    ) -> Result<PlanReport, AlgorithmError> {
        let trace = self.db.run(algorithm, s, d)?;
        Ok(PlanReport::from_trace(trace, self.db.params()))
    }

    /// Runs several algorithms on the same query — the paper's comparative
    /// methodology — returning one report per algorithm.
    ///
    /// # Errors
    /// Fails for unknown endpoints.
    pub fn compare(
        &self,
        algorithms: &[Algorithm],
        s: NodeId,
        d: NodeId,
    ) -> Result<Vec<PlanReport>, AlgorithmError> {
        algorithms
            .iter()
            .map(|&a| self.plan_with(a, s, d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{CostModel, Grid, QueryKind};
    use atis_hierarchy::HierarchyConfig;

    fn planner() -> (Grid, RoutePlanner) {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 3).unwrap();
        let p = RoutePlanner::new(grid.graph()).unwrap();
        (grid, p)
    }

    #[test]
    fn default_algorithm_is_astar_v3() {
        let (_, p) = planner();
        assert_eq!(p.default_algorithm(), Algorithm::AStar(AStarVersion::V3));
    }

    #[test]
    fn plan_returns_a_valid_route() {
        let (grid, p) = planner();
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        let report = p.plan(s, d).unwrap();
        assert!(report.found());
        let route = report.route.unwrap();
        assert_eq!(route.source(), s);
        assert_eq!(route.destination(), d);
        route.validate(grid.graph()).unwrap();
        assert!(report.cost_units > 0.0);
    }

    #[test]
    fn compare_runs_all_algorithms() {
        let (grid, p) = planner();
        let (s, d) = grid.query_pair(QueryKind::Horizontal);
        let reports = p.compare(&Algorithm::TABLE, s, d).unwrap();
        assert_eq!(reports.len(), 3);
        // All algorithms find a route of the same (optimal) cost on an
        // admissible configuration.
        let costs: Vec<f64> = reports
            .iter()
            .map(|r| r.route.as_ref().unwrap().cost)
            .collect();
        for c in &costs[1..] {
            assert!((c - costs[0]).abs() < 1e-3);
        }
        // A* beats Dijkstra on the short query, in simulated cost.
        let astar = reports
            .iter()
            .find(|r| r.algorithm.contains("version 3"))
            .unwrap();
        let dijkstra = reports.iter().find(|r| r.algorithm == "Dijkstra").unwrap();
        assert!(astar.cost_units < dijkstra.cost_units);
    }

    #[test]
    fn algorithm_override_applies() {
        let (grid, p) = planner();
        let p = p.with_algorithm(Algorithm::Dijkstra);
        let (s, d) = grid.query_pair(QueryKind::Horizontal);
        let report = p.plan(s, d).unwrap();
        assert_eq!(report.algorithm, "Dijkstra");
    }

    #[test]
    fn attached_landmarks_plan_v4_optimally() {
        let (grid, p) = planner();
        let config = atis_preprocess::PreprocessConfig::grid_default();
        let tables = LandmarkTables::build(grid.graph(), config).unwrap();
        let p = p
            .with_landmarks(tables)
            .with_algorithm(Algorithm::AStar(AStarVersion::V4));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let report = p.plan(s, d).unwrap();
        assert_eq!(report.algorithm, "A* (version 4)");
        let oracle = atis_algorithms::memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        assert!((report.route.unwrap().cost - oracle.cost).abs() < 1e-3);
    }

    #[test]
    fn attached_hierarchy_plans_v5_optimally() {
        let (grid, p) = planner();
        let hierarchy = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let p = p
            .with_hierarchy(hierarchy)
            .with_algorithm(Algorithm::AStar(AStarVersion::V5));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let report = p.plan(s, d).unwrap();
        assert_eq!(report.algorithm, "A* (version 5)");
        let oracle = atis_algorithms::memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        assert!((report.route.unwrap().cost - oracle.cost).abs() < 1e-6);
    }

    #[test]
    fn cost_based_join_policy_reduces_cost() {
        let (grid, _) = planner();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let forced = RoutePlanner::new(grid.graph()).unwrap().plan(s, d).unwrap();
        let optimized = RoutePlanner::new(grid.graph())
            .unwrap()
            .with_join_policy(JoinPolicy::CostBased)
            .plan(s, d)
            .unwrap();
        assert!(optimized.cost_units < forced.cost_units);
        assert_eq!(optimized.iterations, forced.iterations);
    }
}

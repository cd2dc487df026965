//! Route computation: the planner facade over the database-resident
//! algorithms.

use atis_algorithms::ladder::{self, Fall, Policy, Rung, Step, Walked};
use atis_algorithms::{
    memory, AStarVersion, Algorithm, AlgorithmError, Budgets, Database, RunTrace,
};
use atis_graph::{Graph, NodeId, Path};
use atis_hierarchy::{Hierarchy, HierarchyConfig, HierarchyError};
use atis_obs::{PlanEvent, SharedRegistry, SharedSink, TraceEvent};
use atis_preprocess::{LandmarkTables, PreprocessConfig, PreprocessError};
use atis_storage::{CostParams, FaultPlan, IoStats, JoinPolicy};
use std::time::{Duration, Instant};

/// How the planner reacts when a database-resident run fails.
///
/// Transient faults ([`atis_algorithms::AlgorithmError::is_transient`],
/// i.e. injected I/O failures) are retried with doubling backoff; anything
/// else — corruption, an exhausted budget — skips straight to degradation.
/// When a rung is out of retries the planner falls down the declared
/// ladder ([`atis_algorithms::ladder`]) and, below its last rung, to the
/// in-memory oracle, which cannot touch the (faulty) storage engine at
/// all and therefore always answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Retries per ladder rung for *transient* errors (0 = fail fast).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
        }
    }
}

impl ResiliencePolicy {
    /// No retries, no sleeps: every failure degrades immediately.
    pub fn fail_fast() -> Self {
        ResiliencePolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Overrides the initial backoff (doubles per retry).
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }
}

/// One failed run recorded by [`RoutePlanner::plan_resilient`].
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Label of the algorithm that was attempted.
    pub algorithm: String,
    /// The error it returned, rendered for display.
    pub error: String,
    /// Whether the error was transient (and thus eligible for retry).
    pub transient: bool,
}

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
    /// Whether the answer came from a lower rung than the requested
    /// algorithm (set only by [`RoutePlanner::plan_resilient`]).
    pub degraded: bool,
    /// Every failed run that preceded this answer (empty for the plain
    /// `plan`/`plan_with` paths and for first-try successes).
    pub attempts: Vec<AttemptRecord>,
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
            degraded: false,
            attempts: Vec::new(),
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
    resilience: ResiliencePolicy,
}

impl RoutePlanner {
    /// Loads a road network with default settings.
    ///
    /// # Errors
    /// Fails if the graph exceeds the storage encodings (> 65 535 nodes).
    pub fn new(graph: &Graph) -> Result<Self, AlgorithmError> {
        Ok(RoutePlanner {
            db: Database::open(graph)?,
            default_algorithm: Algorithm::AStar(AStarVersion::V3),
            resilience: ResiliencePolicy::default(),
        })
    }

    /// Overrides the default algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.default_algorithm = algorithm;
        self
    }

    /// Builds landmark (ALT) tables for the resident network and makes
    /// A\* version 4 the default algorithm. If the tables go stale (a
    /// cost update without re-preprocessing), v4 fails with
    /// `LandmarksUnavailable` and [`plan_resilient`](Self::plan_resilient)
    /// falls down the ladder.
    ///
    /// # Errors
    /// Propagates preprocessing errors (empty graph, landmark count
    /// exceeding the node count).
    pub fn with_alt_estimator(mut self, config: PreprocessConfig) -> Result<Self, PreprocessError> {
        let tables = LandmarkTables::build(self.db.graph(), config)?;
        self.db = self.db.with_landmarks(tables);
        self.default_algorithm = Algorithm::AStar(AStarVersion::V4);
        Ok(self)
    }

    /// Attaches already-built landmark tables (e.g. an epoch artifact
    /// shared by a serving fleet) without changing the default algorithm.
    pub fn with_landmarks(mut self, tables: LandmarkTables) -> Self {
        self.db = self.db.with_landmarks(tables);
        self
    }

    /// Builds a contraction hierarchy for the resident network and makes
    /// A\* version 5 the default algorithm. If the hierarchy goes stale (a
    /// cost update without customization), v5 fails with
    /// `HierarchyUnavailable` and [`plan_resilient`](Self::plan_resilient)
    /// falls down the ladder.
    ///
    /// # Errors
    /// Propagates hierarchy build errors (empty graph).
    pub fn with_hierarchy_overlay(
        mut self,
        config: HierarchyConfig,
    ) -> Result<Self, HierarchyError> {
        let hierarchy = Hierarchy::build(self.db.graph(), config)?;
        self.db = self.db.with_hierarchy(hierarchy);
        self.default_algorithm = Algorithm::AStar(AStarVersion::V5);
        Ok(self)
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

    /// Overrides the retry/degradation policy used by
    /// [`plan_resilient`](Self::plan_resilient).
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Caps every run with the given search budgets.
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.db = self.db.with_budgets(budgets);
        self
    }

    /// Attaches a fault-injection plan to the storage engine underneath
    /// the planner (for chaos testing the resilience ladder).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.db = self.db.with_fault_plan(plan);
        self
    }

    /// Attaches a trace sink: every run emits its iteration events, and
    /// [`plan_resilient`](Self::plan_resilient) additionally emits
    /// [`PlanEvent`] spans — attempts, retries, degradation rungs,
    /// completion — interleaved with the runs they describe.
    pub fn with_trace_sink(mut self, sink: SharedSink) -> Self {
        self.db = self.db.with_trace_sink(sink);
        self
    }

    /// Attaches a metrics registry; the planner adds `plans_total`,
    /// `plans_degraded_total` and `plan_retries_total` on top of the
    /// per-run metrics the database layer records.
    pub fn with_metrics(mut self, metrics: SharedRegistry) -> Self {
        self.db = self.db.with_metrics(metrics);
        self
    }

    fn emit(&self, event: PlanEvent) {
        if let Some(sink) = self.db.trace_sink() {
            sink.record(&TraceEvent::Plan(event));
        }
    }

    /// The retry/degradation policy.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.resilience
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

    /// Plans a route, riding out storage faults and exhausted budgets:
    /// one walk of the declared degrade ladder
    /// ([`atis_algorithms::ladder`]) from the default algorithm down. A
    /// lower rung runs when its artifact is attached, transient I/O
    /// failures retry the same rung per [`ResiliencePolicy`], an
    /// exhausted budget moves on to the next rung, and below the last
    /// rung sits the in-memory oracle (which bypasses the storage engine
    /// entirely and cannot fail). The report records every failed
    /// attempt and whether the answer is degraded.
    ///
    /// # Errors
    /// Only for unknown endpoints — the query itself is wrong, and no
    /// amount of retrying fixes it.
    pub fn plan_resilient(&self, s: NodeId, d: NodeId) -> Result<PlanReport, AlgorithmError> {
        let rungs = ladder::sequence(self.default_algorithm);
        let mut policy = Resilient {
            planner: self,
            attempts: Vec::new(),
        };
        let walked = ladder::walk(&self.db, &rungs, &mut policy, |step| {
            self.emit(PlanEvent::AttemptStarted {
                algorithm: step.rung.algorithm.label(),
                rung: step.index as u32,
                retry: step.retry,
            });
            self.db.run(step.rung.algorithm, s, d)
        });
        let (trace, degraded) = match walked {
            Walked::Answered { index, value, .. } => (value, index > 0),
            Walked::Ended { error } if Fall::of(&error) == Fall::Stop => return Err(error),
            // Below the last rung: the in-memory oracle. No storage
            // engine, no faults, no budget — degraded service beats no
            // service for a traveller already on the road.
            Walked::Ended { .. } => {
                let last = policy.attempts.last().map(|a| a.algorithm.clone());
                (self.memory_fallback(last, rungs.len(), s, d), true)
            }
        };
        let mut report = PlanReport::from_trace(trace, self.db.params());
        report.degraded = degraded;
        report.attempts = policy.attempts;
        self.emit(PlanEvent::Completed {
            algorithm: report.algorithm.clone(),
            degraded,
            failed_attempts: report.attempts.len() as u32,
            found: report.found(),
        });
        self.record_plan_metrics(&report);
        Ok(report)
    }

    /// The ladder's tail: Dijkstra on the in-memory graph, announced as
    /// one more descent from the `last` algorithm that failed.
    fn memory_fallback(&self, last: Option<String>, rung: usize, s: NodeId, d: NodeId) -> RunTrace {
        let algorithm = "Dijkstra (in-memory fallback)".to_string();
        self.emit(PlanEvent::Degraded {
            from: last.unwrap_or_else(|| self.default_algorithm.label()),
            to: algorithm.clone(),
            rung: rung as u32,
        });
        let started = Instant::now();
        let path = memory::dijkstra_pair(self.graph(), s, d);
        RunTrace {
            algorithm,
            iterations: 0,
            expanded: 0,
            reopened: 0,
            io: IoStats::new(),
            join_strategy: None,
            path,
            wall: started.elapsed(),
            expansion_order: Vec::new(),
            steps: Default::default(),
            frontier_peak: 0,
        }
    }

    fn record_plan_metrics(&self, report: &PlanReport) {
        let Some(m) = self.db.metrics() else { return };
        m.inc("plans_total");
        if report.degraded {
            m.inc("plans_degraded_total");
        }
    }
}

/// The planner's side of one ladder walk: [`ResiliencePolicy`] retries
/// and the attempt log (admission is the walker's own "is it attached").
struct Resilient<'a> {
    planner: &'a RoutePlanner,
    attempts: Vec<AttemptRecord>,
}

impl Policy for Resilient<'_> {
    const BUDGET_FALLS: bool = true;

    fn failed(&mut self, step: &Step<'_>, error: &AlgorithmError) -> bool {
        let planner = self.planner;
        let transient = error.is_transient();
        planner.emit(PlanEvent::AttemptFailed {
            algorithm: step.rung.algorithm.label(),
            rung: step.index as u32,
            retry: step.retry,
            error: error.to_string(),
            transient,
        });
        self.attempts.push(AttemptRecord {
            algorithm: step.rung.algorithm.label(),
            error: error.to_string(),
            transient,
        });
        // Corruption and blown budgets won't heal on a rerun; only
        // transient I/O errors earn a retry.
        if !transient || step.retry >= planner.resilience.max_retries {
            return false;
        }
        if let Some(m) = planner.db.metrics() {
            m.inc("plan_retries_total");
        }
        let backoff = planner.resilience.backoff * 2u32.saturating_pow(step.retry);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        true
    }

    fn hop(&mut self, from: &Rung, to: &Step<'_>, _: &AlgorithmError) {
        self.planner.emit(PlanEvent::Degraded {
            from: from.algorithm.label(),
            to: to.rung.algorithm.label(),
            rung: to.index as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{CostModel, Grid, QueryKind};

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
    fn plan_resilient_is_plain_plan_when_nothing_fails() {
        let (grid, p) = planner();
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        let plain = p.plan(s, d).unwrap();
        let resilient = p.plan_resilient(s, d).unwrap();
        assert!(!resilient.degraded);
        assert!(resilient.attempts.is_empty());
        assert_eq!(resilient.algorithm, plain.algorithm);
        assert_eq!(
            resilient.route.as_ref().map(|r| r.cost),
            plain.route.as_ref().map(|r| r.cost)
        );
    }

    #[test]
    fn transient_fault_is_retried_without_degrading() {
        let (grid, _) = planner();
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        // One planned hard read failure: the first run dies, the retry's
        // op counter is already past it and succeeds on the same rung.
        let p = RoutePlanner::new(grid.graph())
            .unwrap()
            .with_fault_plan(atis_storage::FaultPlan::inert(7).with_fail_nth_read(30));
        let report = p.plan_resilient(s, d).unwrap();
        assert!(!report.degraded, "retry should succeed on the same rung");
        assert_eq!(report.attempts.len(), 1);
        assert!(report.attempts[0].transient);
        assert!(report.found());
    }

    #[test]
    fn persistent_faults_degrade_to_the_memory_fallback() {
        let (grid, _) = planner();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        // Every read fails: no database-resident rung can ever finish.
        let p = RoutePlanner::new(grid.graph())
            .unwrap()
            .with_resilience(ResiliencePolicy::fail_fast())
            .with_fault_plan(atis_storage::FaultPlan::inert(1).with_read_failure_rate(1.0));
        let report = p.plan_resilient(s, d).unwrap();
        assert!(report.degraded);
        assert_eq!(report.algorithm, "Dijkstra (in-memory fallback)");
        // Fail-fast: one attempt per database-resident rung.
        assert_eq!(report.attempts.len(), 2);
        // The fallback still returns the exact shortest path.
        let oracle = atis_algorithms::memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        assert!((report.route.unwrap().cost - oracle.cost).abs() < 1e-9);
    }

    #[test]
    fn blown_budget_degrades_without_retrying() {
        let (grid, _) = planner();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let p = RoutePlanner::new(grid.graph())
            .unwrap()
            .with_budgets(Budgets::unlimited().with_max_iterations(1));
        let report = p.plan_resilient(s, d).unwrap();
        assert!(report.degraded);
        // Budget errors are not transient: exactly one attempt per rung.
        assert_eq!(report.attempts.len(), 2);
        assert!(report.attempts.iter().all(|a| !a.transient));
        assert!(report.found());
    }

    #[test]
    fn alt_estimator_makes_v4_the_default_and_plans_optimally() {
        let (grid, p) = planner();
        let p = p
            .with_alt_estimator(atis_preprocess::PreprocessConfig::grid_default())
            .unwrap();
        assert_eq!(p.default_algorithm(), Algorithm::AStar(AStarVersion::V4));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let report = p.plan(s, d).unwrap();
        assert_eq!(report.algorithm, "A* (version 4)");
        let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        assert!((report.route.unwrap().cost - oracle.cost).abs() < 1e-3);
    }

    #[test]
    fn stale_landmarks_degrade_to_v3_not_dijkstra() {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 3).unwrap();
        // Build tables on the pristine grid, then plan against a mutated
        // copy: the fingerprints disagree, so v4 fails fast and the
        // ladder's next rung (v3) answers.
        let tables = atis_preprocess::LandmarkTables::build(
            grid.graph(),
            atis_preprocess::PreprocessConfig::grid_default(),
        )
        .unwrap();
        let mut changed = grid.graph().clone();
        changed
            .set_edge_cost(grid.node_at(3, 3), grid.node_at(3, 4), 5.0)
            .unwrap();
        let p = RoutePlanner::new(&changed)
            .unwrap()
            .with_landmarks(tables)
            .with_algorithm(Algorithm::AStar(AStarVersion::V4));
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        let report = p.plan_resilient(s, d).unwrap();
        assert!(report.degraded);
        assert_eq!(report.algorithm, "A* (version 3)");
        assert_eq!(report.attempts.len(), 1);
        assert!(report.attempts[0].error.contains("stale"));
        assert!(report.found());
    }

    #[test]
    fn hierarchy_overlay_makes_v5_the_default_and_plans_optimally() {
        let (grid, p) = planner();
        let p = p.with_hierarchy_overlay(HierarchyConfig::paper()).unwrap();
        assert_eq!(p.default_algorithm(), Algorithm::AStar(AStarVersion::V5));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let report = p.plan(s, d).unwrap();
        assert_eq!(report.algorithm, "A* (version 5)");
        let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        assert!((report.route.unwrap().cost - oracle.cost).abs() < 1e-6);
    }

    #[test]
    fn stale_hierarchy_degrades_to_v4_then_v3() {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 3).unwrap();
        // Both artifacts built on the pristine grid; the planner runs
        // against a mutated copy so both are stale. v5 fails fast, v4
        // fails fast, and v3 — no preprocessing dependency — answers.
        let hierarchy = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let tables = atis_preprocess::LandmarkTables::build(
            grid.graph(),
            atis_preprocess::PreprocessConfig::grid_default(),
        )
        .unwrap();
        let mut changed = grid.graph().clone();
        changed
            .set_edge_cost(grid.node_at(3, 3), grid.node_at(3, 4), 5.0)
            .unwrap();
        let p = RoutePlanner::new(&changed)
            .unwrap()
            .with_hierarchy(hierarchy)
            .with_landmarks(tables)
            .with_algorithm(Algorithm::AStar(AStarVersion::V5));
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        let report = p.plan_resilient(s, d).unwrap();
        assert!(report.degraded);
        assert_eq!(report.algorithm, "A* (version 3)");
        assert_eq!(report.attempts.len(), 2);
        assert!(report.attempts[0].error.contains("hierarchy"));
        assert!(report.attempts[0].error.contains("stale"));
        assert!(report.attempts[1].error.contains("landmark"));
        assert!(report.found());
    }

    #[test]
    fn stale_hierarchy_with_fresh_landmarks_degrades_to_v4_only() {
        let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 3).unwrap();
        let hierarchy = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let mut changed = grid.graph().clone();
        changed
            .set_edge_cost(grid.node_at(3, 3), grid.node_at(3, 4), 5.0)
            .unwrap();
        // Landmarks built on the *changed* graph stay current; only the
        // hierarchy is stale, so the ladder stops at v4.
        let tables = atis_preprocess::LandmarkTables::build(
            &changed,
            atis_preprocess::PreprocessConfig::grid_default(),
        )
        .unwrap();
        let p = RoutePlanner::new(&changed)
            .unwrap()
            .with_hierarchy(hierarchy)
            .with_landmarks(tables)
            .with_algorithm(Algorithm::AStar(AStarVersion::V5));
        let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
        let report = p.plan_resilient(s, d).unwrap();
        assert!(report.degraded);
        assert_eq!(report.algorithm, "A* (version 4)");
        assert_eq!(report.attempts.len(), 1);
        assert!(report.found());
    }

    #[test]
    fn plan_resilient_still_rejects_unknown_endpoints() {
        let (_, p) = planner();
        assert!(matches!(
            p.plan_resilient(NodeId(40_000), NodeId(0)),
            Err(AlgorithmError::UnknownSource(_))
        ));
        assert!(matches!(
            p.plan_resilient(NodeId(0), NodeId(40_000)),
            Err(AlgorithmError::UnknownDestination(_))
        ));
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

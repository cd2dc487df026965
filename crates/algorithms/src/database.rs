//! The run harness: a graph loaded into the storage engine plus the knobs
//! an experiment can turn (join policy, cost parameters).

use crate::astar::AStarVersion;
use crate::error::{AlgorithmError, BudgetKind, HierarchyIssue, LandmarkIssue};
use crate::estimator::Estimator;
use crate::ladder::Needs;
use crate::search::{self, Spec};
use crate::trace::RunTrace;
use crate::{hierarchy_search, iterative};
use atis_graph::grouped::Sharing;
use atis_graph::{Graph, NodeId};
use atis_hierarchy::Hierarchy;
use atis_obs::{SharedRegistry, SharedSink, TraceEvent};
use atis_preprocess::{DestBounds, LandmarkTables};
use atis_storage::{
    BufferPool, CostParams, EdgeRelation, FaultPlan, IoStats, JoinPolicy, NodeRelation,
    SharedBuffer, SharedFaults, StorageError, StorageProfile,
};
// analyze::allow(determinism-wall-clock): the wall-clock budget deadline aborts runs, it never shapes a returned path
use std::time::{Duration, Instant};

/// Resource limits for a single algorithm run. `None` means unlimited —
/// the default everywhere, so the paper's experiments are unaffected.
///
/// Budgets make a run *fail fast with a typed error* instead of grinding
/// through a degenerate search (e.g. a fault-corrupted frontier or an
/// oversized query): the resilient planner catches
/// [`AlgorithmError::BudgetExceeded`] and degrades to a cheaper algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budgets {
    /// Maximum main-loop iterations (frontier selections / BFS rounds).
    pub max_iterations: Option<u64>,
    /// Maximum accumulated I/O cost, in Table 4A cost units.
    pub max_cost_units: Option<f64>,
    /// Wall-clock deadline for the run.
    pub deadline: Option<Duration>,
}

impl Budgets {
    /// No limits (the default).
    pub const fn unlimited() -> Self {
        Budgets {
            max_iterations: None,
            max_cost_units: None,
            deadline: None,
        }
    }

    /// Caps main-loop iterations.
    pub fn with_max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Caps accumulated I/O cost (Table 4A units).
    pub fn with_max_cost_units(mut self, units: f64) -> Self {
        self.max_cost_units = Some(units);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.max_iterations.is_some() || self.max_cost_units.is_some() || self.deadline.is_some()
    }

    /// Combines two budget sets by taking the tighter limit for each
    /// dimension. The serving layer uses this to intersect a database's
    /// standing budgets with a per-request deadline allowance.
    pub fn min_with(self, other: Budgets) -> Budgets {
        fn tighter<T: PartialOrd>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(if x < y { x } else { y }),
                (x, None) => x,
                (None, y) => y,
            }
        }
        Budgets {
            max_iterations: tighter(self.max_iterations, other.max_iterations),
            max_cost_units: tighter(self.max_cost_units, other.max_cost_units),
            deadline: tighter(self.deadline, other.deadline),
        }
    }
}

/// Per-run budget enforcement: algorithms call [`BudgetMeter::check`] once
/// per main-loop iteration.
#[derive(Debug)]
pub struct BudgetMeter {
    budgets: Budgets,
    params: CostParams,
    // analyze::allow(determinism-wall-clock): the wall-clock budget deadline aborts runs, it never shapes a returned path
    started: Instant,
}

impl BudgetMeter {
    /// Checks every configured limit against the run so far.
    ///
    /// # Errors
    /// Returns [`AlgorithmError::BudgetExceeded`] naming the first
    /// exhausted budget (iterations, then cost units, then wall clock).
    pub fn check(&self, iterations: u64, io: &IoStats) -> Result<(), AlgorithmError> {
        if let Some(max) = self.budgets.max_iterations {
            if iterations > max {
                return Err(AlgorithmError::BudgetExceeded(BudgetKind::Iterations));
            }
        }
        if let Some(max) = self.budgets.max_cost_units {
            if io.cost(&self.params) > max {
                return Err(AlgorithmError::BudgetExceeded(BudgetKind::CostUnits));
            }
        }
        if let Some(deadline) = self.budgets.deadline {
            if self.started.elapsed() > deadline {
                return Err(AlgorithmError::BudgetExceeded(BudgetKind::WallClock));
            }
        }
        Ok(())
    }
}

/// FrontierSet management strategy (Section 5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierKind {
    /// "an attribute status to each node in the node relation" — REPLACE
    /// based; used by A\* versions 2 and 3 (and by Dijkstra/Iterative).
    StatusAttribute,
    /// "managed as an independent relation" — APPEND/DELETE based with
    /// index adjustment; used by A\* version 1.
    SeparateRelation,
}

/// A path-computation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// The iterative (breadth-first) transitive-closure algorithm (Fig. 1).
    Iterative,
    /// Dijkstra's algorithm (Fig. 2).
    Dijkstra,
    /// A\* in one of the paper's three implementation versions (Fig. 3 +
    /// Section 5.3).
    AStar(AStarVersion),
    /// A custom best-first configuration for ablation studies: any frontier
    /// management × any estimator, with Figure 3's reopening semantics.
    Custom {
        /// Frontier management strategy.
        frontier: FrontierKind,
        /// Estimator function.
        estimator: Estimator,
    },
}

impl Algorithm {
    /// The three algorithms as the paper's tables list them
    /// (Iterative / A\* (version 3) / Dijkstra).
    pub const TABLE: [Algorithm; 3] = [
        Algorithm::Iterative,
        Algorithm::AStar(AStarVersion::V3),
        Algorithm::Dijkstra,
    ];

    /// Row label used by the paper's tables.
    pub fn label(&self) -> String {
        self.describe().label.to_string()
    }

    /// What this algorithm *is* — the one total `match` every other
    /// question about an algorithm (its label, what it cannot run
    /// without, which loop runs it and how that loop is parameterised)
    /// is a read of.
    pub const fn describe(&self) -> Description {
        use {AStarVersion::*, Estimator::*, FrontierKind::*};
        /// Figure 3: an improved closed node re-enters the frontier.
        const fn figure3(frontier: FrontierKind, estimator: Estimator) -> Kernel {
            Kernel::BestFirst {
                frontier,
                estimator,
                reopen_closed: true,
            }
        }
        let (label, needs, kernel) = match *self {
            Algorithm::Iterative => (
                Label::Row("Iterative"),
                Needs::Nothing,
                Kernel::LevelSynchronous,
            ),
            // Figure 2 checks `not_in(v, frontierSet ∪ exploredSet)`:
            // closed nodes never re-enter the frontier.
            Algorithm::Dijkstra => (
                Label::Row("Dijkstra"),
                Needs::Nothing,
                Kernel::BestFirst {
                    frontier: StatusAttribute,
                    estimator: Zero,
                    reopen_closed: false,
                },
            ),
            Algorithm::AStar(v) => {
                let (needs, kernel) = match v {
                    V1 => (Needs::Nothing, figure3(SeparateRelation, Euclidean)),
                    V2 => (Needs::Nothing, figure3(StatusAttribute, Euclidean)),
                    V3 => (Needs::Nothing, figure3(StatusAttribute, Manhattan)),
                    // Euclidean is the *floor*: the landmark bound is
                    // resolved per run from the database's tables and
                    // maxed with it.
                    V4 => (Needs::Landmarks, figure3(StatusAttribute, Euclidean)),
                    V5 => (Needs::Hierarchy, Kernel::Upward),
                };
                (Label::Row(v.label()), needs, kernel)
            }
            Algorithm::Custom {
                frontier,
                estimator,
            } => (
                Label::Axes(frontier, estimator),
                Needs::Nothing,
                figure3(frontier, estimator),
            ),
        };
        Description {
            label,
            needs,
            kernel,
        }
    }
}

/// How an [`Algorithm`] labels its rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// A row of the paper's tables (versions 4 and 5 extend the
    /// numbering).
    Row(&'static str),
    /// An ablation configuration, spelled from its two axes.
    Axes(FrontierKind, Estimator),
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Row(row) => f.write_str(row),
            Label::Axes(frontier, estimator) => {
                let frontier = match frontier {
                    FrontierKind::StatusAttribute => "status",
                    FrontierKind::SeparateRelation => "relation",
                };
                write!(
                    f,
                    "A* ({frontier} frontier, {} estimator)",
                    estimator.label()
                )
            }
        }
    }
}

/// The loop that runs an [`Algorithm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Figure 1: every round selects *all* current nodes and relaxes
    /// them with two rewrite passes over `R` (the `iterative` module).
    LevelSynchronous,
    /// Figures 2–3: one node per iteration, selected by minimum
    /// `C(s,u) + f(u,d)` — one loop (the crate-private `search` module)
    /// over the paper's axes.
    BestFirst {
        /// FrontierSet representation (Section 5.3.1).
        frontier: FrontierKind,
        /// The `f(u,d)` added to the path cost (Section 5.3.2).
        estimator: Estimator,
        /// Whether an improved closed node re-enters the frontier
        /// (Figure 3) or is final (Figure 2).
        reopen_closed: bool,
    },
    /// A\* version 5: two upward searches over the contraction-hierarchy
    /// overlay that meet (the crate-private `hierarchy_search` module).
    /// Goal-directed by the hierarchy's structure, not by an estimator.
    Upward,
}

impl Kernel {
    /// Whether the expansion order is the same whatever the destination:
    /// best-first on `C(s,u)` alone with closed nodes final. Only such a
    /// kernel can serve many destinations in one sweep
    /// ([`Database::run_many_with_budgets`]) — any estimator makes the
    /// order depend on the destination through `f(u, d)`.
    pub fn is_target_independent(&self) -> bool {
        matches!(
            self,
            Kernel::BestFirst {
                estimator: Estimator::Zero,
                reopen_closed: false,
                ..
            }
        )
    }
}

/// What an [`Algorithm`] is ([`Algorithm::describe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Description {
    /// Its row label.
    pub label: Label,
    /// The preprocessed artifact it cannot run without.
    pub needs: Needs,
    /// The loop that runs it.
    pub kernel: Kernel,
}

/// A graph resident in the storage engine: the persistent edge relation
/// `S` plus run-time configuration. Loading `S` happens once here and is
/// *not* metered into run traces — it is the stored database, not
/// algorithm work (the cost models start at step `C1`, creating `R`).
///
/// A database is a persistent structure: [`Database::open`] shares the
/// graph it is given rather than copying it, a clone shares every edge
/// group, page of `S`, price group and table with its source, and
/// [`Database::update_edge_cost`] copies the one edge group and the one
/// page it writes. That is what makes a snapshot per traffic update
/// affordable.
#[derive(Clone)]
pub struct Database {
    graph: Graph,
    edges: EdgeRelation,
    params: CostParams,
    join_policy: JoinPolicy,
    profile: StorageProfile,
    buffer: Option<SharedBuffer>,
    budgets: Budgets,
    faults: Option<SharedFaults>,
    sink: Option<SharedSink>,
    metrics: Option<SharedRegistry>,
    landmarks: Option<LandmarkTables>,
    hierarchy: Option<Hierarchy>,
    /// `(regions, target, cut_edges)` of the layout partition, when known.
    partition: Option<(u64, u64, u64)>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `SharedSink` is a trait object; report attachment, not contents.
        f.debug_struct("Database")
            .field("graph", &self.graph)
            .field("edges", &self.edges)
            .field("params", &self.params)
            .field("join_policy", &self.join_policy)
            .field("profile", &self.profile)
            .field("partition", &self.partition)
            .field("buffer", &self.buffer)
            .field("budgets", &self.budgets)
            .field("faults", &self.faults)
            .field("sink", &self.sink.as_ref().map(|_| "TraceSink"))
            .field("metrics", &self.metrics)
            .field("landmarks", &self.landmarks)
            .field("hierarchy", &self.hierarchy)
            .finish()
    }
}

impl Database {
    /// Loads `graph` into the engine with Table 4A cost parameters and the
    /// paper's forced nested-loop join policy (Section 4.3). Storage runs
    /// the paper-faithful [`StorageProfile::paper`] configuration.
    ///
    /// # Errors
    /// Fails if the graph exceeds the tuple encodings (more than ~16.7M
    /// nodes, the 24-bit id space).
    pub fn open(graph: &Graph) -> Result<Self, AlgorithmError> {
        Self::open_with_profile(graph, StorageProfile::paper())
    }

    /// Loads `graph` under an explicit [`StorageProfile`]: `S` (and every
    /// `R` the algorithms create per run) becomes a segmented heap file
    /// when the profile says so, and a buffer pool of the profile's
    /// capacity — with region-aware eviction if requested — is attached.
    /// Charged I/O is identical to [`Database::open`] by construction;
    /// what changes is the physical-read pattern (pool misses), which is
    /// what the scaling study measures.
    ///
    /// # Errors
    /// Fails if the graph exceeds the tuple encodings, or for a
    /// degenerate profile (zero segment blocks or zero pool capacity).
    pub fn open_with_profile(
        graph: &Graph,
        profile: StorageProfile,
    ) -> Result<Self, AlgorithmError> {
        let mut io = IoStats::new();
        let edges = match profile.segment_blocks_s {
            Some(sb) => EdgeRelation::load_segmented(graph, sb, &mut io)?,
            None => EdgeRelation::load(graph, &mut io)?,
        };
        let mut db = Database {
            graph: graph.clone(),
            edges,
            params: CostParams::default(),
            join_policy: JoinPolicy::default(),
            profile,
            buffer: None,
            budgets: Budgets::unlimited(),
            faults: None,
            sink: None,
            metrics: None,
            landmarks: None,
            hierarchy: None,
            partition: None,
        };
        if let Some(capacity) = profile.buffer_blocks {
            let mut pool = BufferPool::new(capacity)?;
            if profile.region_aware {
                pool = pool.with_region_aware();
            }
            let pool = std::sync::Arc::new(std::sync::Mutex::new(pool));
            db.edges.attach_buffer(&pool);
            db.buffer = Some(pool);
        }
        Ok(db)
    }

    /// The storage profile the database was opened with.
    pub fn profile(&self) -> &StorageProfile {
        &self.profile
    }

    /// Creates the per-run node relation `R` the way the profile dictates
    /// (segmented or not); algorithms call this instead of
    /// [`NodeRelation::load`] directly.
    pub(crate) fn create_node_relation(
        &self,
        io: &mut IoStats,
    ) -> Result<NodeRelation, StorageError> {
        match self.profile.segment_blocks_r {
            Some(sb) => NodeRelation::load_segmented(
                &self.graph,
                self.edges.block_count(),
                self.params.isam_levels,
                sb,
                io,
            ),
            None => NodeRelation::load(
                &self.graph,
                self.edges.block_count(),
                self.params.isam_levels,
                io,
            ),
        }
    }

    /// Records the layout partition the graph was reordered with, so the
    /// metrics registry can publish `partition_*` gauges alongside the
    /// `storage_segment_*` ones.
    pub fn with_partition_stats(mut self, regions: u64, target: u64, cut_edges: u64) -> Self {
        self.partition = Some((regions, target, cut_edges));
        self.publish_layout_gauges();
        self
    }

    /// Attaches landmark (ALT) distance tables, enabling A\* version 4.
    /// Tables are an epoch artifact: they are valid for the edge costs
    /// they were built from, and every v4 run re-checks their fingerprint
    /// against the resident graph, so a cost update through
    /// [`Database::update_edge_cost`] makes subsequent v4 runs fail with
    /// [`AlgorithmError::LandmarksUnavailable`] until fresh (or patched)
    /// tables are attached.
    pub fn with_landmarks(mut self, tables: LandmarkTables) -> Self {
        self.landmarks = Some(tables);
        self
    }

    /// The attached landmark tables, if any.
    pub fn landmarks(&self) -> Option<&LandmarkTables> {
        self.landmarks.as_ref()
    }

    /// Resolves the landmark tables against destination `d` for one v4
    /// run.
    ///
    /// # Errors
    /// [`AlgorithmError::LandmarksUnavailable`] when tables are missing
    /// or their fingerprint does not match the current edge costs.
    pub(crate) fn alt_bounds_for(&self, d: NodeId) -> Result<DestBounds, AlgorithmError> {
        let Some(tables) = &self.landmarks else {
            return Err(AlgorithmError::LandmarksUnavailable(LandmarkIssue::Missing));
        };
        if !tables.is_current_for(&self.graph) {
            return Err(AlgorithmError::LandmarksUnavailable(LandmarkIssue::Stale));
        }
        Ok(tables.bounds_to(d))
    }

    /// Attaches a contraction hierarchy, enabling A\* version 5. Like
    /// landmark tables, the hierarchy is an epoch artifact: its shortcut
    /// prices embed the edge costs it was customized against, and every
    /// v5 run re-checks its fingerprint against the resident graph, so a
    /// cost update through [`Database::update_edge_cost`] makes
    /// subsequent v5 runs fail with
    /// [`AlgorithmError::HierarchyUnavailable`] until a customized (or
    /// re-contracted) hierarchy is attached.
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Self {
        self.hierarchy = Some(hierarchy);
        self.publish_layout_gauges();
        self
    }

    /// The attached contraction hierarchy, if any.
    pub fn hierarchy(&self) -> Option<&Hierarchy> {
        self.hierarchy.as_ref()
    }

    /// Resolves the hierarchy for one v5 run.
    ///
    /// # Errors
    /// [`AlgorithmError::HierarchyUnavailable`] when the hierarchy is
    /// missing or its fingerprint does not match the current edge costs
    /// — a stale overlay would answer with stale-priced shortcuts.
    pub(crate) fn hierarchy_for(&self) -> Result<&Hierarchy, AlgorithmError> {
        let Some(hierarchy) = &self.hierarchy else {
            return Err(AlgorithmError::HierarchyUnavailable(
                HierarchyIssue::Missing,
            ));
        };
        if !hierarchy.is_current_for(&self.graph) {
            return Err(AlgorithmError::HierarchyUnavailable(HierarchyIssue::Stale));
        }
        Ok(hierarchy)
    }

    /// Attaches a trace sink: every subsequent run emits `RunStarted`,
    /// one `Iteration` event per main-loop iteration (with the exact
    /// `IoStats` delta that iteration charged), any injected-fault
    /// events, and `RunFinished`. Sinks observe the metering without
    /// participating in it — attaching one leaves `IoStats` and answers
    /// bit-identical.
    pub fn with_trace_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&SharedSink> {
        self.sink.as_ref()
    }

    /// Attaches a metrics registry: every run updates process-wide
    /// counters (`runs_total`, `io_block_reads_total`, …) and histograms
    /// (`iterations_per_run`, `blocks_per_iteration`, `buffer_hit_rate`,
    /// …), and the storage layout is published once as gauges
    /// (`storage_segment_*`, `partition_*`, `hierarchy_*`). See
    /// `OBSERVABILITY.md` for the full metric list.
    pub fn with_metrics(mut self, metrics: SharedRegistry) -> Self {
        self.metrics = Some(metrics);
        self.publish_layout_gauges();
        self
    }

    /// Publishes the storage-layout and overlay-size gauges to the
    /// attached registry (a no-op until both the registry and the facts
    /// exist).
    fn publish_layout_gauges(&self) {
        let Some(m) = &self.metrics else { return };
        let dir = self.edges.segment_directory();
        m.set("storage_segment_count", dir.segments.len() as u64);
        // An unsegmented file reports one segment spanning every block.
        let per_segment = dir.segment_blocks.min(dir.total_blocks());
        m.set("storage_segment_blocks", per_segment as u64);
        m.set("storage_blocks", dir.total_blocks() as u64);
        m.set("storage_bytes", dir.total_bytes() as u64);
        if let Some(cap) = self.profile.buffer_blocks {
            m.set("storage_buffer_capacity_blocks", cap as u64);
        }
        if let Some((regions, target, cut)) = self.partition {
            m.set("partition_regions", regions);
            m.set("partition_target_nodes", target);
            m.set("partition_cut_edges", cut);
        }
        if let Some(hierarchy) = &self.hierarchy {
            m.set("hierarchy_arcs", hierarchy.arc_count() as u64);
            m.set("hierarchy_triangles", hierarchy.build_report().triangles);
        }
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&SharedRegistry> {
        self.metrics.as_ref()
    }

    /// Overrides the join policy (e.g. `JoinPolicy::CostBased` for the
    /// optimizer ablation).
    pub fn with_join_policy(mut self, policy: JoinPolicy) -> Self {
        self.join_policy = policy;
        self
    }

    /// Overrides the cost parameters.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Attaches an LRU buffer pool of `capacity` blocks — an extension of
    /// the paper's cold-cache model (see `atis_storage::buffer`). The pool
    /// is shared by `S` and every relation the algorithms create, so
    /// repeated reads of hot blocks stop being charged. Capacity presets
    /// per network scale live in [`atis_storage::CapacityPreset`].
    ///
    /// # Errors
    /// Fails with [`AlgorithmError::Storage`] for a zero capacity.
    pub fn with_buffer_pool(mut self, capacity: usize) -> Result<Self, AlgorithmError> {
        let pool = BufferPool::shared(capacity)?;
        self.edges.attach_buffer(&pool);
        self.buffer = Some(pool);
        Ok(self)
    }

    /// The attached buffer pool, if any.
    pub fn buffer(&self) -> Option<&SharedBuffer> {
        self.buffer.as_ref()
    }

    /// Sets per-run search budgets (default: unlimited).
    pub fn with_budgets(mut self, budgets: Budgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// The active search budgets.
    pub fn budgets(&self) -> Budgets {
        self.budgets
    }

    /// Starts budget enforcement for one run under `budgets` — the
    /// standing set or the per-run override
    /// [`Database::run_with_budgets`] threads through. Algorithms call
    /// [`BudgetMeter::check`] once per main-loop iteration.
    pub(crate) fn budget_meter_with(&self, budgets: Budgets) -> BudgetMeter {
        BudgetMeter {
            budgets,
            params: self.params,
            // analyze::allow(determinism-wall-clock): the wall-clock budget deadline aborts runs, it never shapes a returned path
            started: Instant::now(),
        }
    }

    /// Arms deterministic fault injection: every physical storage
    /// operation of `S` — and of the per-run relations the algorithms
    /// create — consults the seeded plan (see `atis_storage::fault`).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        let faults = plan.into_shared();
        self.edges.attach_faults(&faults);
        self.faults = Some(faults);
        self
    }

    /// The shared fault state, if fault injection is armed.
    pub fn faults(&self) -> Option<&SharedFaults> {
        self.faults.as_ref()
    }

    /// The resident graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The edge relation `S`.
    pub fn edges(&self) -> &EdgeRelation {
        &self.edges
    }

    /// The active cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The active join policy.
    pub fn join_policy(&self) -> JoinPolicy {
        self.join_policy
    }

    /// How much of this database is the very memory `other` holds,
    /// summed over the graph, `S` and whichever artifacts both carry.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &Database) -> Sharing {
        let mut sharing = self.graph.shared_with(&other.graph);
        sharing += self.edges.shared_with(&other.edges);
        if let (Some(a), Some(b)) = (&self.hierarchy, &other.hierarchy) {
            sharing += a.shared_with(b);
        }
        if let (Some(a), Some(b)) = (&self.landmarks, &other.landmarks) {
            sharing += a.shared_with(b);
        }
        sharing
    }

    /// Applies a real-time cost update to edge `(u, v)` — both the
    /// resident graph and the stored edge relation `S` change, so the next
    /// run plans against live traffic. Returns the number of directed
    /// edge tuples updated.
    ///
    /// # Errors
    /// Fails for unknown endpoints or invalid costs.
    pub fn update_edge_cost(
        &mut self,
        u: NodeId,
        v: NodeId,
        cost: f64,
    ) -> Result<usize, AlgorithmError> {
        if !self.graph.contains(u) {
            return Err(AlgorithmError::UnknownSource(u));
        }
        if !self.graph.contains(v) {
            return Err(AlgorithmError::UnknownDestination(v));
        }
        let n = self.graph.set_edge_cost(u, v, cost)?;
        let mut io = IoStats::new();
        let m = self.edges.update_cost(u.0, v.0, cost, &mut io)?;
        debug_assert_eq!(n, m, "graph and S must stay in sync");
        Ok(n)
    }

    /// Route evaluation as a database operation (Section 1.1: "the goal
    /// of route evaluation is to find the attributes of a given route").
    /// Fetches each segment of `path` through `S`'s hash index, charging
    /// one bucket probe per hop, and returns the summed distance and
    /// congestion-aware travel time together with the metered I/O.
    ///
    /// # Errors
    /// Fails if the path uses a road that is not in the database.
    pub fn evaluate_route(
        &self,
        path: &atis_graph::Path,
    ) -> Result<(f64, f64, IoStats), AlgorithmError> {
        let mut io = IoStats::new();
        let mut distance = 0.0;
        let mut travel_time = 0.0;
        for (u, v) in path.hops() {
            let adjacency = self.edges.fetch_adjacency(u.0, &mut io)?;
            let tuple = adjacency
                .iter()
                .filter(|t| t.end == v.0)
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .ok_or(AlgorithmError::Graph(atis_graph::GraphError::MissingEdge {
                    from: u,
                    to: v,
                }))?;
            distance += tuple.cost;
            // Effective speed degrades with occupancy exactly as the
            // graph-side model does (Edge::travel_time).
            let class = match tuple.class {
                1 => atis_graph::RoadClass::Highway,
                2 => atis_graph::RoadClass::Freeway,
                _ => atis_graph::RoadClass::Street,
            };
            let speed =
                class.free_flow_speed() * (1.0 - 0.8 * f64::from(tuple.occupancy).clamp(0.0, 1.0));
            travel_time += tuple.cost / speed;
        }
        Ok((distance, travel_time, io))
    }

    /// Runs `algorithm` from `s` to `d`, returning the full trace.
    ///
    /// # Errors
    /// Fails if either endpoint is not in the graph or a storage operation
    /// fails (which would indicate an engine bug).
    pub fn run(
        &self,
        algorithm: Algorithm,
        s: NodeId,
        d: NodeId,
    ) -> Result<RunTrace, AlgorithmError> {
        self.run_with_budgets(algorithm, s, d, self.budgets)
    }

    /// Runs `algorithm` with an explicit per-run budget set, overriding
    /// the database's standing budgets for this one run. The serving
    /// layer uses this to enforce per-request deadlines without cloning
    /// the database.
    ///
    /// # Errors
    /// As [`Database::run`], plus [`AlgorithmError::BudgetExceeded`] when
    /// a budget dimension is exhausted mid-run.
    pub fn run_with_budgets(
        &self,
        algorithm: Algorithm,
        s: NodeId,
        d: NodeId,
        budgets: Budgets,
    ) -> Result<RunTrace, AlgorithmError> {
        self.bracket(
            &algorithm.label(),
            s,
            &[d],
            |trace| trace,
            || self.run_kernel(algorithm, s, d, budgets),
        )
    }

    /// Runs one query per target from the shared source `s`, returning
    /// traces in target order. An algorithm whose kernel is
    /// target-independent ([`Kernel::is_target_independent`] — Dijkstra)
    /// serves more than one target as a **single sweep** of the one
    /// best-first loop (set-at-a-time expansion, the paper's v1
    /// frontier-as-relation insight carried to multi-query execution):
    /// one charged pass settles every destination. Every returned trace
    /// carries the **shared** run's I/O — the batch is charged once,
    /// which is the entire point — under the label `dijkstra_many`,
    /// while paths and iteration counts are per target and bit-identical
    /// to solo runs. Unreachable targets get `path: None`; the per-node
    /// `expansion_order` is not meaningful per target and is left empty.
    /// Estimator-driven algorithms have destination-dependent expansion
    /// orders, so they fall back to independent solo runs.
    ///
    /// # Errors
    /// As [`Database::run_with_budgets`]; a budget exhausted mid-sweep
    /// fails the whole batch.
    pub fn run_many_with_budgets(
        &self,
        algorithm: Algorithm,
        s: NodeId,
        targets: &[NodeId],
        budgets: Budgets,
    ) -> Result<Vec<RunTrace>, AlgorithmError> {
        /// What a sweep announces itself as (traces, events, metrics).
        const SWEEP: &str = "dijkstra_many";
        let kernel = algorithm.describe().kernel;
        match kernel {
            Kernel::BestFirst {
                frontier,
                estimator,
                reopen_closed,
            } if targets.len() >= 2 && kernel.is_target_independent() => {
                let spec = Spec {
                    label: SWEEP.to_string(),
                    estimator,
                    reopen_closed,
                    alt: None,
                };
                // The sweep is one run: metered once (every trace reports
                // the same shared I/O, so the first stands for the batch).
                self.bracket(
                    SWEEP,
                    s,
                    targets,
                    |traces: &Vec<RunTrace>| &traces[0],
                    || {
                        let run = search::best_first_on(frontier, self, s, targets, spec, budgets)?;
                        Ok(targets.iter().map(|&d| run.trace_to(d)).collect())
                    },
                )
            }
            _ => targets
                .iter()
                .map(|&d| self.run_with_budgets(algorithm, s, d, budgets))
                .collect(),
        }
    }

    /// Runs `algorithm`'s kernel from `s` to `d` as its description says
    /// — without the endpoint checks and the fault / metrics bracket of
    /// [`Database::run_with_budgets`].
    pub(crate) fn run_kernel(
        &self,
        algorithm: Algorithm,
        s: NodeId,
        d: NodeId,
        budgets: Budgets,
    ) -> Result<RunTrace, AlgorithmError> {
        let Description {
            label,
            needs,
            kernel,
        } = algorithm.describe();
        match kernel {
            Kernel::LevelSynchronous => iterative::run(self, s, d, budgets),
            Kernel::Upward => hierarchy_search::run(self, s, d, budgets),
            Kernel::BestFirst {
                frontier,
                estimator,
                reopen_closed,
            } => {
                let alt = match needs {
                    Needs::Landmarks => Some(self.alt_bounds_for(d)?),
                    Needs::Hierarchy | Needs::Nothing => None,
                };
                let spec = Spec {
                    label: label.to_string(),
                    estimator,
                    reopen_closed,
                    alt,
                };
                let run = search::best_first_on(frontier, self, s, &[d], spec, budgets)?;
                Ok(run.trace_to(d))
            }
        }
    }

    /// The bracket around one metered run — a solo run is a target set
    /// of one, a sweep one run over all of its targets: the endpoint
    /// checks, then the fault-log and buffer-pool marks before `run` and
    /// the fault events and registry updates after it. `metered` picks
    /// the trace that stands for the run in the registry.
    fn bracket<T>(
        &self,
        label: &str,
        s: NodeId,
        targets: &[NodeId],
        metered: impl Fn(&T) -> &RunTrace,
        run: impl FnOnce() -> Result<T, AlgorithmError>,
    ) -> Result<T, AlgorithmError> {
        if !self.graph.contains(s) {
            return Err(AlgorithmError::UnknownSource(s));
        }
        if let Some(&d) = targets.iter().find(|d| !self.graph.contains(**d)) {
            return Err(AlgorithmError::UnknownDestination(d));
        }
        let fault_mark = self
            .faults
            .as_ref()
            .map(|f| f.lock().unwrap_or_else(|p| p.into_inner()).log.len())
            .unwrap_or(0);
        let buffer_mark = self.buffer.as_ref().map(|b| {
            let pool = b.lock().unwrap_or_else(|p| p.into_inner());
            (pool.hits, pool.misses)
        });
        let result = run();
        let faults_fired = self.drain_faults(label, fault_mark);
        self.update_metrics(result.as_ref().map(metered), buffer_mark, faults_fired);
        result
    }

    /// Re-emits the faults that fired during the run just finished as
    /// trace events, so a trace shows them interleaved with the work they
    /// disrupted. Returns how many fired.
    fn drain_faults(&self, label: &str, mark: usize) -> u64 {
        let Some(faults) = &self.faults else { return 0 };
        let state = faults.lock().unwrap_or_else(|p| p.into_inner());
        let fired = &state.log[mark.min(state.log.len())..];
        if let Some(sink) = &self.sink {
            for fault in fired {
                sink.record(&TraceEvent::Fault {
                    algorithm: label.to_string(),
                    fault: *fault,
                });
            }
        }
        fired.len() as u64
    }

    /// Folds one finished run into the attached metrics registry.
    fn update_metrics(
        &self,
        result: Result<&RunTrace, &AlgorithmError>,
        buffer_mark: Option<(u64, u64)>,
        faults_fired: u64,
    ) {
        let Some(m) = &self.metrics else { return };
        m.inc("runs_total");
        m.add("faults_injected_total", faults_fired);
        match result {
            Ok(trace) => {
                m.add("iterations_total", trace.iterations);
                m.add("io_block_reads_total", trace.io.block_reads);
                m.add("io_block_writes_total", trace.io.block_writes);
                m.add("io_tuple_updates_total", trace.io.tuple_updates);
                m.add("io_index_adjustments_total", trace.io.index_adjustments);
                m.observe("iterations_per_run", trace.iterations as f64);
                m.observe("run_cost_units", trace.io.cost(&self.params));
                m.observe("run_wall_seconds", trace.wall.as_secs_f64());
                if trace.iterations > 0 {
                    let blocks = (trace.io.block_reads + trace.io.block_writes) as f64;
                    m.observe("blocks_per_iteration", blocks / trace.iterations as f64);
                    m.observe(
                        "iteration_wall_seconds",
                        trace.wall.as_secs_f64() / trace.iterations as f64,
                    );
                }
            }
            Err(_) => m.inc("runs_failed_total"),
        }
        if let Some((h0, m0)) = buffer_mark {
            // analyze::allow(panic-reachability): invariant — a buffer mark is only taken when the pool exists (guarded a few lines up)
            let pool = self.buffer.as_ref().expect("mark implies pool");
            let pool = pool.lock().unwrap_or_else(|p| p.into_inner());
            let (dh, dm) = (pool.hits - h0, pool.misses - m0);
            m.add("buffer_hits_total", dh);
            m.add("buffer_misses_total", dm);
            if dh + dm > 0 {
                m.observe("buffer_hit_rate", dh as f64 / (dh + dm) as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;

    #[test]
    fn open_small_graph() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        assert_eq!(db.edges().tuple_count(), 2);
        assert_eq!(db.graph().node_count(), 3);
    }

    #[test]
    fn run_rejects_unknown_endpoints() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        assert!(matches!(
            db.run(Algorithm::Dijkstra, NodeId(5), NodeId(1)),
            Err(AlgorithmError::UnknownSource(_))
        ));
        assert!(matches!(
            db.run(Algorithm::Dijkstra, NodeId(0), NodeId(5)),
            Err(AlgorithmError::UnknownDestination(_))
        ));
    }

    #[test]
    fn metered_route_evaluation_matches_the_graph() {
        use atis_graph::{CostModel, Grid, QueryKind};
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 4).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let path = db.run(Algorithm::Dijkstra, s, d).unwrap().path.unwrap();
        let (distance, travel_time, io) = db.evaluate_route(&path).unwrap();
        let recomputed = path.validate(grid.graph()).unwrap();
        assert!((distance - recomputed).abs() < 1e-9);
        assert!(travel_time > 0.0);
        // One bucket probe per hop.
        assert_eq!(io.block_reads, path.len() as u64);
    }

    #[test]
    fn metered_evaluation_rejects_phantom_roads() {
        use atis_graph::Path;
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let bogus = Path {
            nodes: vec![NodeId(0), NodeId(2)],
            cost: 1.0,
        };
        assert!(db.evaluate_route(&bogus).is_err());
    }

    #[test]
    fn min_with_takes_the_tighter_limit_per_dimension() {
        let standing = Budgets::unlimited()
            .with_max_iterations(500)
            .with_max_cost_units(90.0);
        let request = Budgets::unlimited()
            .with_max_iterations(1000)
            .with_max_cost_units(40.0)
            .with_deadline(Duration::from_millis(25));
        let combined = standing.min_with(request);
        assert_eq!(combined.max_iterations, Some(500));
        assert_eq!(combined.max_cost_units, Some(40.0));
        assert_eq!(combined.deadline, Some(Duration::from_millis(25)));
        // Unlimited is the identity.
        assert_eq!(standing.min_with(Budgets::unlimited()), standing);
        assert_eq!(Budgets::unlimited().min_with(standing), standing);
    }

    #[test]
    fn per_run_budget_override_does_not_disturb_standing_budgets() {
        use atis_graph::{CostModel, Grid, QueryKind};
        let grid = Grid::new(8, CostModel::Uniform, 2).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let err = db
            .run_with_budgets(
                Algorithm::Dijkstra,
                s,
                d,
                Budgets::unlimited().with_max_iterations(1),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            AlgorithmError::BudgetExceeded(BudgetKind::Iterations)
        ));
        // The standing (unlimited) budgets still govern plain `run`.
        assert!(db.run(Algorithm::Dijkstra, s, d).is_ok());
    }

    /// The sweep's contract, on the public API: one shared Dijkstra run
    /// from `s` until every target has settled.
    fn sweep(db: &Database, s: NodeId, targets: &[NodeId]) -> Vec<RunTrace> {
        db.run_many_with_budgets(Algorithm::Dijkstra, s, targets, db.budgets())
            .unwrap()
    }

    #[test]
    fn batched_targets_are_bit_identical_to_solo_runs() {
        use atis_graph::{CostModel, Grid, QueryKind};
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 11).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, _) = grid.query_pair(QueryKind::Diagonal);
        let targets = [
            grid.node_at(9, 9),
            grid.node_at(0, 9),
            grid.node_at(5, 5),
            grid.node_at(9, 0),
        ];
        let batched = sweep(&db, s, &targets);
        assert_eq!(batched.len(), targets.len());
        for (trace, &d) in batched.iter().zip(&targets) {
            let solo = db.run(Algorithm::Dijkstra, s, d).unwrap();
            assert_eq!(
                trace.path.as_ref().unwrap().nodes,
                solo.path.as_ref().unwrap().nodes,
                "batched path to {d:?} must be bit-identical"
            );
            assert_eq!(trace.path.as_ref().unwrap().cost, solo.path.unwrap().cost);
            assert_eq!(trace.iterations, solo.iterations, "settle count to {d:?}");
        }
    }

    #[test]
    fn one_charged_sweep_costs_less_than_solo_runs() {
        use atis_graph::{CostModel, Grid, QueryKind};
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 7).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, _) = grid.query_pair(QueryKind::Diagonal);
        let targets = [grid.node_at(9, 9), grid.node_at(0, 9), grid.node_at(9, 0)];
        let batched = sweep(&db, s, &targets);
        let solo_blocks: u64 = targets
            .iter()
            .map(|&d| db.run(Algorithm::Dijkstra, s, d).unwrap().io.block_reads)
            .sum();
        // Every member reports the same shared I/O, and the shared sweep
        // reads fewer blocks than the three solo runs combined.
        assert!(batched.iter().all(|t| t.io == batched[0].io));
        assert!(batched[0].io.block_reads < solo_blocks);
    }

    #[test]
    fn unreachable_targets_get_no_path_and_reachable_ones_still_do() {
        let g = graph_from_arcs(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let traces = sweep(&db, NodeId(0), &[NodeId(1), NodeId(3)]);
        assert!(traces[0].path.is_some());
        assert!(traces[1].path.is_none());
    }

    #[test]
    fn source_as_target_settles_at_zero_iterations() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let traces = sweep(&db, NodeId(0), &[NodeId(0), NodeId(1)]);
        assert_eq!(traces[0].iterations, 0);
        assert_eq!(traces[0].path.as_ref().unwrap().cost, 0.0);
        assert!(traces[1].path.is_some());
    }

    #[test]
    fn only_dijkstra_is_target_independent() {
        let mut all = vec![Algorithm::Iterative, Algorithm::Dijkstra];
        all.extend(AStarVersion::ALL_WITH_HIERARCHY.map(Algorithm::AStar));
        for frontier in [
            FrontierKind::StatusAttribute,
            FrontierKind::SeparateRelation,
        ] {
            // A zero estimator alone is not enough: Figure 3 may reopen.
            for estimator in [Estimator::Zero, Estimator::Euclidean] {
                all.push(Algorithm::Custom {
                    frontier,
                    estimator,
                });
            }
        }
        for algorithm in all {
            assert_eq!(
                algorithm.describe().kernel.is_target_independent(),
                algorithm == Algorithm::Dijkstra,
                "{}",
                algorithm.label()
            );
        }
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(Algorithm::Iterative.label(), "Iterative");
        assert_eq!(Algorithm::Dijkstra.label(), "Dijkstra");
        assert_eq!(Algorithm::AStar(AStarVersion::V3).label(), "A* (version 3)");
        let custom = Algorithm::Custom {
            frontier: FrontierKind::SeparateRelation,
            estimator: Estimator::Manhattan,
        };
        assert!(custom.label().contains("relation"));
        assert!(custom.label().contains("manhattan"));
    }
}

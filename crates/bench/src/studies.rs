//! The paper's evaluation and the two extension studies, as rows of
//! deterministic counters.
//!
//! * One runner ([`run_cells`]): a [`Cell`] is a query, an algorithm and
//!   a database [`Config`] (join policy, pool, ISAM depth, duplicate
//!   policy, seed), and its [`PaperRow`] holds what the run metered —
//!   iterations, expansions, `IoStats`, `StepIo`, cost units, pool hits
//!   — and the route's cost against the in-memory optimum.
//! * The paper's evaluation ([`paper_rows`]): every cell behind Table 4B,
//!   Tables 5–8 and Figures 5–7 and 9–12, each once, at
//!   [`Config::PAPER`]. [`table_4b`] and [`paper_figure`] render one
//!   artifact each beside the cells the paper printed
//!   ([`atis_costmodel::PAPER_TABLE_4B`], [`atis_costmodel::PAPER_ITERATIONS`]);
//!   the validations, ablations and extensions are renders over the same
//!   rows ([`crate::ablations`]).
//! * The estimator study: A\* versions 1–5 on the paper's networks.
//! * The scaling study: Dijkstra and A\* v3–v5 on 1k / 10k / 100k-node
//!   metro networks through the partitioned storage engine.
//!
//! Every cell is a deterministic counter: the generators are seeded and
//! the buffer pool is deterministic, so a row reads the same on every
//! machine and in debug and release builds. Wall time is not recorded
//! here; the repository benchmark under `benchmark/` measures it.
//!
//! The rendered tables are committed in `EXPERIMENTS.md` and `SCALING.md`
//! between `<!-- study: … -->` markers, and `tests/study_counters.rs`
//! holds each byte-equal to a fresh render, so a counter that moves by
//! one read fails there and is re-pinned in the doc's diff. The
//! orderings the studies exist to show are asserted there too, and the
//! paper's claims in `tests/paper_tables.rs`, over the same rows.

use crate::chart::BarChart;
use crate::experiments::{fmt_cost, ExperimentOutput, PAPER_SEED};
use crate::table::Table;
use atis_algorithms::duplicates::{run_with_duplicate_policy, DuplicatePolicy};
use atis_algorithms::ladder::Needs;
use atis_algorithms::{memory, AStarVersion, Algorithm, Database, Kernel};
use atis_costmodel::{paper_iterations, PAPER_TABLE_4B};
use atis_graph::{
    shuffle_layout, CostModel, Graph, Grid, Metro, MetroQuery, MetroSpec, Minneapolis, NamedPair,
    NodeId, PartitionMap, QueryKind, RadialCity, RadialQuery,
};
use atis_hierarchy::{Hierarchy, HierarchyConfig, ARC_TUPLE_SIZE};
use atis_obs::StepIo;
use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
use atis_storage::{
    CostParams, EdgeTuple, FixedTuple, IoStats, JoinPolicy, JoinStrategy, NodeTuple, StorageProfile,
};

/// A query of the evaluation. The network's random draw is the row's
/// [`Config::seed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// One of the canonical queries of a `k × k` grid under a cost model.
    Grid {
        /// Grid side.
        k: usize,
        /// Edge cost model.
        costs: CostModel,
        /// The query pair.
        query: QueryKind,
    },
    /// A Table 8 pair on synthetic Minneapolis.
    Minneapolis(NamedPair),
    /// A query of the 8-ring × 24-spoke radial city (jitter 0.1).
    Radial(RadialQuery),
}

/// The database a row runs against: the configuration axis the
/// ablations vary one field of. An estimator and its weight are not a
/// field: they are the row's algorithm (a status-frontier
/// [`Algorithm::Custom`] for the weights no paper version runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Join policy of the adjacency joins.
    pub join: JoinPolicy,
    /// Blocks of the LRU buffer pool; `None` is the paper's cold cache.
    pub pool_blocks: Option<usize>,
    /// ISAM index levels `I_l` every keyed access is priced at.
    pub isam_levels: u64,
    /// A frontier duplicate policy (Section 4), run through
    /// `run_with_duplicate_policy` with the algorithm's estimator;
    /// `None` runs the algorithm itself.
    pub duplicates: Option<DuplicatePolicy>,
    /// Seed of the network's random draw.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration: forced nested-loop joins, no pool,
    /// `I_l = 3`, the paper's seed.
    pub const PAPER: Config = Config {
        join: JoinPolicy::Force(JoinStrategy::NestedLoop),
        pool_blocks: None,
        isam_levels: 3,
        duplicates: None,
        seed: PAPER_SEED,
    };

    /// The cost parameters of this configuration: Table 4A at its ISAM
    /// depth.
    pub fn params(&self) -> CostParams {
        CostParams {
            isam_levels: self.isam_levels,
            ..CostParams::default()
        }
    }
}

/// One run to make: a query, an algorithm and a database configuration.
pub type Cell = (Workload, Algorithm, Config);

/// One run of the evaluation and what it metered.
#[derive(Debug, Clone)]
pub struct PaperRow {
    /// Network and query.
    pub workload: Workload,
    /// The algorithm run.
    pub algorithm: Algorithm,
    /// The database it ran against.
    pub config: Config,
    /// Expansions for Dijkstra and A\*, rounds for the iterative
    /// algorithm.
    pub iterations: u64,
    /// Nodes expanded; below `iterations` only where a duplicate policy
    /// selected a node twice.
    pub expanded: u64,
    /// The run's charged I/O.
    pub io: IoStats,
    /// The same I/O by step of the cost models (Tables 2–3).
    pub steps: StepIo,
    /// Execution time the paper's way: `io` at the configuration's
    /// prices ([`Config::params`]).
    pub cost_units: f64,
    /// Buffer-pool hits and misses (0 without a pool).
    pub pool: (u64, u64),
    /// Cost of the route found.
    pub path_cost: f64,
    /// Cost of the optimal route (`memory::dijkstra_pair`).
    pub optimal: f64,
}

/// The paper's three algorithm classes, in Table 4B's row order.
pub(crate) const CLASSES: [Algorithm; 3] = [
    Algorithm::Dijkstra,
    Algorithm::AStar(AStarVersion::V3),
    Algorithm::Iterative,
];
/// The paper's three A\* implementation versions (Figures 10–12).
const VERSIONS: [Algorithm; 3] = [
    Algorithm::AStar(AStarVersion::V1),
    Algorithm::AStar(AStarVersion::V2),
    Algorithm::AStar(AStarVersion::V3),
];

/// The dimension one of the paper's figures sweeps.
#[derive(Debug, Clone, Copy)]
pub enum Sweep {
    /// 10×10, 20×20 and 30×30 grids, 20% variance, diagonal.
    GridSize,
    /// The three canonical queries of the 30×30 grid, 20% variance.
    PathLength,
    /// Uniform, 20% variance and skewed costs on the 20×20 diagonal.
    CostModel,
    /// The four Table 8 pairs on Minneapolis.
    Minneapolis,
}

impl Sweep {
    /// The swept dimension, as a column head.
    pub fn head(self) -> &'static str {
        match self {
            Sweep::GridSize => "Graph size",
            Sweep::PathLength | Sweep::Minneapolis => "Path",
            Sweep::CostModel => "Cost model",
        }
    }

    /// The swept values, labelled as the paper's columns are.
    pub fn columns(self) -> Vec<(String, Workload)> {
        let grid = |k, costs, query| Workload::Grid { k, costs, query };
        match self {
            Sweep::GridSize => [10, 20, 30]
                .map(|k| {
                    let w = grid(k, CostModel::TWENTY_PERCENT, QueryKind::Diagonal);
                    (format!("{k} x {k}"), w)
                })
                .to_vec(),
            Sweep::PathLength => QueryKind::TABLE
                .map(|q| (q.label().into(), grid(30, CostModel::TWENTY_PERCENT, q)))
                .to_vec(),
            Sweep::CostModel => [
                CostModel::Uniform,
                CostModel::TWENTY_PERCENT,
                CostModel::Skewed,
            ]
            .map(|c| (c.label().into(), grid(20, c, QueryKind::Diagonal)))
            .to_vec(),
            Sweep::Minneapolis => NamedPair::ALL
                .map(|p| (p.label().into(), Workload::Minneapolis(p)))
                .to_vec(),
        }
    }
}

/// One figure of the paper's evaluation, with the table that printed its
/// iterations if there is one.
#[derive(Debug, Clone, Copy)]
pub struct PaperFigure {
    /// The `experiments` id, which is also the name of the
    /// `<!-- study: … -->` block EXPERIMENTS.md commits its table in.
    pub name: &'static str,
    /// The paper's figure, e.g. `Figure 5`.
    pub figure: &'static str,
    /// The paper's table of the figure's iterations (Tables 5–8); Figures
    /// 10–12 printed none.
    pub table: Option<u8>,
    /// What the figure varies.
    pub description: &'static str,
    /// The swept dimension.
    pub sweep: Sweep,
    /// The algorithms compared.
    pub algorithms: [Algorithm; 3],
}

/// The paper's figures in paper order.
pub const PAPER_FIGURES: [PaperFigure; 7] = [
    PaperFigure {
        name: "fig5",
        figure: "Figure 5",
        table: Some(5),
        description: "effect of graph size (diagonal path, 20% edge cost variance)",
        sweep: Sweep::GridSize,
        algorithms: CLASSES,
    },
    PaperFigure {
        name: "fig6",
        figure: "Figure 6",
        table: Some(6),
        description: "effect of path length (30x30 grid, 20% edge cost variance)",
        sweep: Sweep::PathLength,
        algorithms: CLASSES,
    },
    PaperFigure {
        name: "fig7",
        figure: "Figure 7",
        table: Some(7),
        description: "effect of edge cost models (20x20 grid, diagonal path)",
        sweep: Sweep::CostModel,
        algorithms: CLASSES,
    },
    PaperFigure {
        name: "fig9",
        figure: "Figure 9",
        table: Some(8),
        description: "Minneapolis road map queries (synthetic map, distance costs)",
        sweep: Sweep::Minneapolis,
        algorithms: CLASSES,
    },
    PaperFigure {
        name: "fig10",
        figure: "Figure 10",
        table: None,
        description: "effect of graph size on A* versions (diagonal, 20% variance)",
        sweep: Sweep::GridSize,
        algorithms: VERSIONS,
    },
    PaperFigure {
        name: "fig11",
        figure: "Figure 11",
        table: None,
        description: "effect of edge cost model on A* versions (20x20, diagonal)",
        sweep: Sweep::CostModel,
        algorithms: VERSIONS,
    },
    PaperFigure {
        name: "fig12",
        figure: "Figure 12",
        table: None,
        description: "effect of path length on A* versions (30x30, 20% variance)",
        sweep: Sweep::PathLength,
        algorithms: VERSIONS,
    },
];

/// Runs every cell once, each on a database opened afresh for it, and
/// returns the rows in the cells' order. The cells share nothing, so
/// they are spread over the available cores, every `threads`-th cell on
/// one.
pub fn run_cells(cells: &[Cell]) -> Vec<PaperRow> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let minneapolis = &Minneapolis::paper();
    let mut rows: Vec<(usize, PaperRow)> = std::thread::scope(|scope| {
        let run = |t| {
            move || {
                cells
                    .iter()
                    .enumerate()
                    .skip(t)
                    .step_by(threads)
                    .map(|(i, &c)| (i, run_cell(c, minneapolis)))
                    .collect::<Vec<_>>()
            }
        };
        let workers: Vec<_> = (0..threads).map(|t| scope.spawn(run(t))).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a study run panicked"))
            .collect()
    });
    rows.sort_by_key(|&(i, _)| i);
    rows.into_iter().map(|(_, row)| row).collect()
}

fn run_cell((workload, algorithm, config): Cell, minneapolis: &Minneapolis) -> PaperRow {
    let (grid, city);
    let (graph, (s, d)) = match workload {
        Workload::Grid { k, costs, query } => {
            grid = Grid::new(k, costs, config.seed).expect("study grids have k >= 2");
            (grid.graph(), grid.query_pair(query))
        }
        Workload::Minneapolis(pair) => (minneapolis.graph(), minneapolis.query_pair(pair)),
        Workload::Radial(query) => {
            city = RadialCity::new(8, 24, 0.1, config.seed).expect("a valid city");
            (city.graph(), city.query_pair(query))
        }
    };
    let profile = StorageProfile {
        buffer_blocks: config.pool_blocks,
        ..StorageProfile::paper()
    };
    let db = Database::open_with_profile(graph, profile)
        .expect("the study networks fit the engine")
        .with_join_policy(config.join)
        .with_params(config.params());
    let trace = match config.duplicates {
        None => db.run(algorithm, s, d),
        Some(policy) => {
            let Kernel::BestFirst { estimator, .. } = algorithm.describe().kernel else {
                panic!("a duplicate policy runs a best-first estimator")
            };
            run_with_duplicate_policy(&db, s, d, estimator, policy)
        }
    }
    .expect("the study endpoints are valid");
    let pool = db.buffer().map_or((0, 0), |p| {
        let p = p.lock().expect("study pool lock");
        (p.hits, p.misses)
    });
    PaperRow {
        workload,
        algorithm,
        config,
        iterations: trace.iterations,
        expanded: trace.expanded,
        io: trace.io,
        steps: trace.steps,
        cost_units: trace.cost_units(&config.params()),
        pool,
        path_cost: trace.path_cost(),
        optimal: memory::dijkstra_pair(graph, s, d)
            .expect("the study queries are connected")
            .cost,
    }
}

/// Every cell the paper's figures report, each once, at the paper's
/// configuration. Table 4B's physical view is Figure 6's runs.
pub fn paper_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for figure in &PAPER_FIGURES {
        for (_, workload) in figure.sweep.columns() {
            for algorithm in figure.algorithms {
                push_new(&mut cells, (workload, algorithm, Config::PAPER));
            }
        }
    }
    cells
}

/// Appends `cell` unless `cells` already holds it.
pub(crate) fn push_new(cells: &mut Vec<Cell>, cell: Cell) {
    if !cells.contains(&cell) {
        cells.push(cell);
    }
}

/// The rows of [`paper_cells`].
pub fn paper_rows() -> Vec<PaperRow> {
    run_cells(&paper_cells())
}

/// The row of `algorithm` on `workload` at `config`.
///
/// # Panics
/// Panics if `rows` holds no such cell.
pub fn row(rows: &[PaperRow], (workload, algorithm, config): Cell) -> &PaperRow {
    rows.iter()
        .find(|r| r.workload == workload && r.algorithm == algorithm && r.config == config)
        .unwrap_or_else(|| panic!("no {} row on {workload:?} at {config:?}", algorithm.label()))
}

/// The row of `algorithm` on `workload` at the paper's configuration.
///
/// # Panics
/// Panics if `rows` holds no such cell.
pub fn paper_row(rows: &[PaperRow], workload: Workload, algorithm: Algorithm) -> &PaperRow {
    row(rows, (workload, algorithm, Config::PAPER))
}

/// A route's cost above the optimum, in per cent to one decimal; an
/// optimal route reads `0.0%`, whatever the sign of its rounding error.
pub(crate) fn vs_optimal(r: &PaperRow) -> String {
    let excess = 100.0 * (r.path_cost - r.optimal) / r.optimal;
    if format!("{:.1}", excess.abs()) == "0.0" {
        "0.0%".into()
    } else {
        format!("{excess:+.1}%")
    }
}

/// A figure's table: one row per algorithm and swept value, with the
/// iterations the paper printed beside ours where it printed any.
pub fn paper_table(figure: &PaperFigure, rows: &[PaperRow]) -> Table {
    let mut head = vec![figure.sweep.head(), "Algorithm", "Iterations"];
    if figure.table.is_some() {
        head.push("Paper");
    }
    head.extend(["Cost units", "Path vs optimal"]);
    let mut t = Table::new(head);
    for algorithm in figure.algorithms {
        let label = algorithm.label();
        let paper = figure.table.map(|table| {
            paper_iterations(table, &label).expect("the paper prints a row per algorithm")
        });
        for (column, (value, workload)) in figure.sweep.columns().into_iter().enumerate() {
            let r = paper_row(rows, workload, algorithm);
            let mut cells = vec![value, label.clone(), r.iterations.to_string()];
            cells.extend(paper.map(|p| p[column].to_string()));
            cells.extend([fmt_cost(r.cost_units), vs_optimal(r)]);
            t.push_row(cells);
        }
    }
    t
}

/// A figure's bar chart of execution time, from the same rows.
fn paper_chart(figure: &PaperFigure, rows: &[PaperRow]) -> BarChart {
    let title = format!(
        "{}: execution time vs {}",
        figure.figure,
        figure.sweep.head().to_lowercase()
    );
    let series = figure.algorithms.map(|a| a.label()).to_vec();
    let mut chart = BarChart::new(title, "cost units", series);
    for (value, workload) in figure.sweep.columns() {
        let costs = figure
            .algorithms
            .map(|a| paper_row(rows, workload, a).cost_units);
        chart.push_group(value, costs.to_vec());
    }
    chart
}

/// The `experiments` output of the figure named `name`: its chart and its
/// table.
///
/// # Panics
/// Panics if no entry of [`PAPER_FIGURES`] has that name.
pub fn paper_figure(name: &str) -> ExperimentOutput {
    let figure = PAPER_FIGURES
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no paper figure {name}"));
    let id = match figure.table {
        Some(table) => format!("{} / Table {table}", figure.figure),
        None => figure.figure.to_string(),
    };
    let rows = paper_rows();
    ExperimentOutput {
        id: id.clone(),
        description: figure.description.into(),
        sections: vec![
            (
                format!("{} (regenerated)", figure.figure),
                format!("```text\n{}```\n", paper_chart(figure, &rows)),
            ),
            (
                format!("{id}: iterations and execution time (cost units)"),
                paper_table(figure, &rows).to_string(),
            ),
        ],
    }
}

/// Table 4B's three views of each cell: the algebraic model (Tables 2–3)
/// priced at the paper's own iteration counts, the paper's printed
/// estimate, and the physically metered engine on the same workload
/// (Figure 6's runs).
pub fn table_4b_table(rows: &[PaperRow]) -> Table {
    let mut t = Table::new(vec!["Algorithm", "Path", "Algebraic", "Paper", "Physical"]);
    let algebraic = atis_costmodel::table_4b();
    for ((label, model), (_, printed)) in algebraic.iter().zip(PAPER_TABLE_4B) {
        let algorithm = CLASSES
            .into_iter()
            .find(|a| a.label() == *label)
            .expect("Table 4B's rows are the paper's three classes");
        for (column, (path, workload)) in Sweep::PathLength.columns().into_iter().enumerate() {
            t.push_row(vec![
                label.to_string(),
                path,
                fmt_cost(model[column]),
                fmt_cost(printed[column]),
                fmt_cost(paper_row(rows, workload, algorithm).cost_units),
            ]);
        }
    }
    t
}

/// Table 4B — estimated costs on the 30×30 grid, 20% variance.
pub fn table_4b() -> ExperimentOutput {
    ExperimentOutput {
        id: "Table 4B".into(),
        description: "estimated costs, 30x30 grid, 20% variance on edge cost".into(),
        sections: vec![(
            "Algebraic model at the paper's iterations, the paper's print, and the metered engine"
                .into(),
            table_4b_table(&paper_rows()).to_string(),
        )],
    }
}

/// The counters one row sums over its queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Node expansions (`RunTrace::iterations`).
    pub nodes_expanded: u64,
    /// Block reads charged by the cost model (Table 4A).
    pub block_reads: u64,
    /// Buffer-pool misses (0 on a database without a pool).
    pub physical_reads: u64,
    /// The largest frontier any one of the row's runs held.
    pub frontier_peak: u64,
}

/// Buffer-pool misses so far (0 without a pool).
fn pool_misses(db: &Database) -> u64 {
    db.buffer()
        .map(|p| p.lock().expect("study pool lock").misses)
        .unwrap_or(0)
}

/// Runs `algorithm` over `queries`, summing the counters.
fn measure(
    db: &Database,
    algorithm: Algorithm,
    queries: &[(NodeId, NodeId)],
    context: &str,
) -> Counters {
    let mut sum = Counters::default();
    for &(s, d) in queries {
        let misses_before = pool_misses(db);
        let trace = db.run(algorithm, s, d).unwrap_or_else(|e| {
            panic!("{context} {}: {s:?}->{d:?} failed: {e}", algorithm.label())
        });
        sum.nodes_expanded += trace.iterations;
        sum.block_reads += trace.io.block_reads;
        sum.physical_reads += pool_misses(db) - misses_before;
        sum.frontier_peak = sum.frontier_peak.max(trace.frontier_peak);
    }
    sum
}

fn or_dash(value: Option<usize>) -> String {
    value.map_or_else(|| "—".to_string(), |v| v.to_string())
}

/// One network × A\* version of the estimator study.
#[derive(Debug, Clone)]
pub struct EstimatorRow {
    /// `grid30`, `radial` or `minneapolis`.
    pub network: &'static str,
    /// The A\* version measured.
    pub version: AStarVersion,
    /// Summed over the network's canonical queries.
    pub counters: Counters,
    /// Landmarks in the tables v4 runs against (v4 rows only).
    pub landmarks: Option<usize>,
    /// Arcs in the overlay v5 runs against (v5 rows only).
    pub hierarchy_arcs: Option<usize>,
}

/// The estimator study: every A\* version over the 30×30 / 20 %-variance
/// grid (its three canonical queries), the 12-ring × 24-spoke radial city
/// (its four) and synthetic Minneapolis (the four Table 8 pairs). v4 runs
/// against landmark tables and v5 against a contraction hierarchy, both
/// built once per network.
pub fn estimator_rows() -> Vec<EstimatorRow> {
    let grid = Grid::new(30, CostModel::TWENTY_PERCENT, PAPER_SEED).expect("paper grid");
    let grid_queries: Vec<_> = QueryKind::TABLE
        .iter()
        .map(|&k| grid.query_pair(k))
        .collect();
    let city = RadialCity::new(12, 24, 0.2, PAPER_SEED).expect("radial city");
    let city_queries: Vec<_> = RadialQuery::ALL
        .iter()
        .map(|&q| city.query_pair(q))
        .collect();
    let mpls = Minneapolis::paper();
    let mpls_queries: Vec<_> = NamedPair::ALL.iter().map(|&p| mpls.query_pair(p)).collect();

    [
        (
            "grid30",
            grid.graph(),
            &grid_queries,
            PreprocessConfig::grid_default(),
        ),
        (
            "radial",
            city.graph(),
            &city_queries,
            PreprocessConfig::network_default(),
        ),
        (
            "minneapolis",
            mpls.graph(),
            &mpls_queries,
            PreprocessConfig::network_default(),
        ),
    ]
    .into_iter()
    .flat_map(|(network, graph, queries, config)| {
        let tables = LandmarkTables::build(graph, config).expect("study graphs are non-empty");
        let landmarks = tables.landmark_count();
        let hierarchy =
            Hierarchy::build(graph, HierarchyConfig::paper()).expect("study graphs are non-empty");
        let hierarchy_arcs = hierarchy.arc_count();
        let db = Database::open(graph)
            .expect("study graphs fit the engine")
            .with_landmarks(tables)
            .with_hierarchy(hierarchy);
        AStarVersion::ALL_WITH_HIERARCHY.map(|version| {
            let algorithm = Algorithm::AStar(version);
            let needs = algorithm.describe().needs;
            EstimatorRow {
                network,
                version,
                counters: measure(&db, algorithm, queries, network),
                landmarks: (needs == Needs::Landmarks).then_some(landmarks),
                hierarchy_arcs: (needs == Needs::Hierarchy).then_some(hierarchy_arcs),
            }
        })
    })
    .collect()
}

/// The estimator study's table, one row per network × version.
pub fn estimator_table(rows: &[EstimatorRow]) -> Table {
    let mut t = Table::new(vec![
        "Network",
        "Version",
        "Expanded",
        "Block reads",
        "Frontier peak",
        "Landmarks",
        "Overlay arcs",
    ]);
    for r in rows {
        t.push_row(vec![
            r.network.to_string(),
            r.version.label().to_string(),
            r.counters.nodes_expanded.to_string(),
            r.counters.block_reads.to_string(),
            r.counters.frontier_peak.to_string(),
            or_dash(r.landmarks),
            or_dash(r.hierarchy_arcs),
        ]);
    }
    t
}

/// The scaling study's scales: node targets and the network labels
/// `SCALING.md` uses.
pub const SCALES: [(usize, &str); 3] = [
    (1_000, "metro-1k"),
    (10_000, "metro-10k"),
    (100_000, "metro-100k"),
];
/// Storage region size: one `R` block of nodes (`Bf_r`).
const REGION_TARGET: usize = 256;
/// Landmarks for A\* version 4, spread over partition regions.
const LANDMARKS: usize = 8;
/// Block size used to express index and table sizes in blocks.
const BLOCK: usize = 4096;

/// The algorithms the regional workload compares at every scale.
const REGIONAL: [Algorithm; 4] = [
    Algorithm::Dijkstra,
    Algorithm::AStar(AStarVersion::V3),
    Algorithm::AStar(AStarVersion::V4),
    Algorithm::AStar(AStarVersion::V5),
];
/// The long-haul workload's contenders: a full-diagonal Dijkstra or v3
/// is a full scan of the network at metro scale.
const LONG_HAUL: [Algorithm; 2] = [
    Algorithm::AStar(AStarVersion::V4),
    Algorithm::AStar(AStarVersion::V5),
];

/// One scale's network, as the storage engine lays it out.
#[derive(Debug, Clone)]
pub struct NetworkRow {
    /// One of the [`SCALES`] labels.
    pub network: &'static str,
    /// The city lattice, `x × y`.
    pub cities: (usize, usize),
    /// Nodes in the network.
    pub nodes: usize,
    /// Edges in the network.
    pub edges: usize,
    /// Partition regions of the region layout.
    pub regions: usize,
    /// Edges between regions.
    pub cut_edges: usize,
    /// Blocks of the edge relation `S`, of one run's node relation `R`
    /// and of the landmark tables v4 runs against.
    pub blocks: Footprint,
    /// Buffer pool the scale is served with, in blocks.
    pub pool_blocks: usize,
}

/// The storage footprint of a network, in blocks.
#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    /// The hash-clustered edge relation `S` (`Bf_s` tuples a block).
    pub s: usize,
    /// The ISAM node relation `R` (`Bf_r` tuples a block).
    pub r: usize,
    /// The forward and backward `f64` distance tables of the study's 8
    /// landmarks.
    pub landmarks: usize,
}

impl Footprint {
    /// The footprint of a network of `nodes` nodes and `edges` edges.
    fn of(nodes: usize, edges: usize) -> Footprint {
        Footprint {
            s: edges.div_ceil(BLOCK / EdgeTuple::SIZE),
            r: nodes.div_ceil(BLOCK / NodeTuple::SIZE),
            landmarks: (2 * LANDMARKS * nodes * 8).div_ceil(BLOCK),
        }
    }

    /// Every block of the index: `S`, `R` and the landmark tables.
    pub fn total(&self) -> usize {
        self.s + self.r + self.landmarks
    }
}

/// The network the scaling study runs at the scale of about `target`
/// nodes: its size, its partition and its storage footprint. Generation
/// and partitioning only; nothing is searched.
pub fn network_row(target: usize, network: &'static str) -> NetworkRow {
    let spec = MetroSpec::with_nodes(target, PAPER_SEED);
    let metro = Metro::new(spec).expect("study metro specs are non-degenerate");
    let graph = metro.graph();
    let map = PartitionMap::build(graph, REGION_TARGET);
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    NetworkRow {
        network,
        cities: (spec.cities_x, spec.cities_y),
        nodes,
        edges,
        regions: map.region_count(),
        cut_edges: map.cut_edges(graph),
        blocks: Footprint::of(nodes, edges),
        pool_blocks: StorageProfile::for_nodes(nodes).buffer_blocks.unwrap_or(0),
    }
}

/// The networks of the scaling study, one row a scale.
pub fn networks_table(rows: &[NetworkRow]) -> Table {
    let mut t = Table::new(vec![
        "Network",
        "Cities",
        "Nodes",
        "Edges",
        "Regions",
        "Cut edges",
        "`S` blocks",
        "`R` blocks",
        "Landmark blocks",
        "Index total",
        "Pool blocks",
    ]);
    for r in rows {
        t.push_row(vec![
            r.network.to_string(),
            format!("{}×{}", r.cities.0, r.cities.1),
            r.nodes.to_string(),
            r.edges.to_string(),
            r.regions.to_string(),
            r.cut_edges.to_string(),
            r.blocks.s.to_string(),
            r.blocks.r.to_string(),
            r.blocks.landmarks.to_string(),
            r.blocks.total().to_string(),
            r.pool_blocks.to_string(),
        ]);
    }
    t
}

/// One (layout, workload, algorithm) measurement at one scale.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// One of the [`SCALES`] labels.
    pub network: &'static str,
    /// Edges in the network.
    pub edges: usize,
    /// `region` (partition renumbering) or `shuffled` (the seeded random
    /// renumbering, the locality-free control).
    pub layout: &'static str,
    /// `regional` (`MetroQuery::REGIONAL`) or `long-haul` (the corner to
    /// corner diagonal, region layout only).
    pub workload: &'static str,
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// Summed over the workload's queries.
    pub counters: Counters,
    /// Storage footprint in blocks: `S`, one run's `R`, the landmark
    /// tables and, on v5 rows, the overlay. Preprocessing writes each of
    /// these blocks once, so this is also the build's write cost.
    pub index_blocks: usize,
    /// Partition regions of the region layout.
    pub regions: usize,
    /// Edges between regions.
    pub cut_edges: usize,
    /// Landmarks in the tables v4 runs against (v4 rows only).
    pub landmarks: Option<usize>,
    /// Arcs in the overlay v5 runs against (v5 rows only).
    pub hierarchy_arcs: Option<usize>,
}

/// The scaling study at one scale: the metro network of about `target`
/// nodes under the region and the shuffled layout, each algorithm on a
/// freshly opened database so no row inherits another's warm pool.
///
/// The storage configuration is the one a metro is served with: segmented
/// heap files under a pool smaller than the graph
/// ([`StorageProfile::for_nodes`]) and cost-based joins, under which each
/// expansion probes `S` by primary key. The paper's forced nested loop
/// rescans all of `S` every iteration, and layout could not matter.
pub fn scaling_rows(target: usize, network: &'static str) -> Vec<ScalingRow> {
    let metro = Metro::new(MetroSpec::with_nodes(target, PAPER_SEED))
        .expect("study metro specs are non-degenerate");
    let map = PartitionMap::build(metro.graph(), REGION_TARGET);
    let regions = map.region_count();
    let cut_edges = map.cut_edges(metro.graph());
    let profile = StorageProfile::for_nodes(metro.graph().node_count());
    let layouts: [(&'static str, (Graph, Vec<u32>)); 2] = [
        (
            "region",
            map.apply(metro.graph()).expect("permutation is valid"),
        ),
        (
            "shuffled",
            shuffle_layout(metro.graph(), PAPER_SEED).expect("permutation is valid"),
        ),
    ];

    let mut rows = Vec::new();
    for (layout, (graph, new_of)) in layouts {
        let renumber = |k| {
            let (s, d) = metro.query_pair(k);
            (NodeId(new_of[s.index()]), NodeId(new_of[d.index()]))
        };
        let tables = LandmarkTables::build(
            &graph,
            PreprocessConfig::new(
                LandmarkSelection::PartitionSpread {
                    region_target: REGION_TARGET,
                },
                LANDMARKS,
            ),
        )
        .expect("metro graphs are non-empty");
        let hierarchy =
            Hierarchy::build(&graph, HierarchyConfig::paper()).expect("metro graphs are non-empty");
        let (nodes, edges) = (graph.node_count(), graph.edge_count());
        let footprint = Footprint::of(nodes, edges).total();

        let mut workloads = vec![(
            "regional",
            MetroQuery::REGIONAL.map(renumber).to_vec(),
            &REGIONAL[..],
        )];
        // The diagonal's expansions do not depend on the layout, and v4
        // at this trip length is the study's most expensive run: once per
        // scale is enough.
        if layout == "region" {
            workloads.push((
                "long-haul",
                vec![renumber(MetroQuery::Diagonal)],
                &LONG_HAUL[..],
            ));
        }
        for (workload, queries, algorithms) in workloads {
            for &algorithm in algorithms {
                let needs = algorithm.describe().needs;
                let hierarchy_arcs = (needs == Needs::Hierarchy).then_some(hierarchy.arc_count());
                let mut db = Database::open_with_profile(&graph, profile)
                    .expect("metro fits the engine")
                    .with_join_policy(JoinPolicy::CostBased)
                    .with_partition_stats(regions as u64, REGION_TARGET as u64, cut_edges as u64)
                    .with_landmarks(tables.clone());
                if hierarchy_arcs.is_some() {
                    db = db.with_hierarchy(hierarchy.clone());
                }
                let context = format!("{network} {layout} {workload}");
                rows.push(ScalingRow {
                    network,
                    edges,
                    layout,
                    workload,
                    algorithm,
                    counters: measure(&db, algorithm, &queries, &context),
                    index_blocks: footprint
                        + hierarchy_arcs.map_or(0, |arcs| (arcs * ARC_TUPLE_SIZE).div_ceil(BLOCK)),
                    regions,
                    cut_edges,
                    landmarks: (needs == Needs::Landmarks).then_some(LANDMARKS),
                    hierarchy_arcs,
                });
            }
        }
    }
    rows
}

/// One scale's regional workload, both layouts.
pub fn regional_table(rows: &[ScalingRow]) -> Table {
    let mut t = Table::new(vec![
        "Layout",
        "Algorithm",
        "Expanded",
        "Charged reads",
        "Physical reads",
        "Index (= preprocess) blocks",
        "Landmarks",
        "Overlay arcs",
    ]);
    for r in rows.iter().filter(|r| r.workload == "regional") {
        t.push_row(vec![
            r.layout.to_string(),
            r.algorithm.label(),
            r.counters.nodes_expanded.to_string(),
            r.counters.block_reads.to_string(),
            r.counters.physical_reads.to_string(),
            r.index_blocks.to_string(),
            or_dash(r.landmarks),
            or_dash(r.hierarchy_arcs),
        ]);
    }
    t
}

/// One scale's long-haul diagonal (region layout).
pub fn long_haul_table(rows: &[ScalingRow]) -> Table {
    let mut t = Table::new(vec![
        "Network",
        "Regions",
        "Cut edges",
        "Algorithm",
        "Expanded",
        "Charged reads",
        "Physical reads",
        "Frontier peak",
    ]);
    for r in rows.iter().filter(|r| r.workload == "long-haul") {
        t.push_row(vec![
            r.network.to_string(),
            r.regions.to_string(),
            r.cut_edges.to_string(),
            r.algorithm.label(),
            r.counters.nodes_expanded.to_string(),
            r.counters.block_reads.to_string(),
            r.counters.physical_reads.to_string(),
            r.counters.frontier_peak.to_string(),
        ]);
    }
    t
}

/// Extension — A\* versions 1–5 head-to-head (the estimator study).
pub fn estimator_quality() -> ExperimentOutput {
    ExperimentOutput {
        id: "Extension: estimator quality".into(),
        description: "A* versions 1-5 on the 30x30 grid, the radial city and Minneapolis".into(),
        sections: vec![(
            "Counters summed over each network's canonical queries".into(),
            estimator_table(&estimator_rows()).to_string(),
        )],
    }
}

/// Extension — the metro scaling study at every scale (metro-100k takes
/// about 30 s in a release build, most of it v4's diagonal).
pub fn metro_scaling() -> ExperimentOutput {
    let networks = SCALES.map(|(target, network)| network_row(target, network));
    let mut sections = vec![(
        "The networks".to_string(),
        networks_table(&networks).to_string(),
    )];
    for (target, network) in SCALES {
        let rows = scaling_rows(target, network);
        sections.push((
            format!("{network}: regional workload"),
            regional_table(&rows).to_string(),
        ));
        sections.push((
            format!("{network}: long-haul diagonal (region layout)"),
            long_haul_table(&rows).to_string(),
        ));
    }
    ExperimentOutput {
        id: "Extension: metro scaling study".into(),
        description: "1k/10k/100k-node metros on partitioned storage, region vs shuffled layout"
            .into(),
        sections,
    }
}

//! Figure 8's map and the validations, ablations and extensions around
//! the paper's evaluation, as renders over study rows.
//!
//! Each [`Study`] names the cells it reads — a query, an algorithm and a
//! database [`Config`] — and renders its table from the rows
//! [`studies::run_cells`] fills. A cell at [`Config::PAPER`] that a
//! figure runs is that figure's row, so [`all_cells`] runs each shared
//! workload once, and every study that varies one configuration field on
//! the 20×20 diagonal reads Figure 7's row as its default column.
//!
//! Every cell is a deterministic counter, and so is what a render adds
//! beside its rows: the map, the closures' sizes and loop counts, the
//! in-memory baselines' settles. EXPERIMENTS.md commits each render
//! between `<!-- study: NAME -->` and `<!-- /study -->`, and
//! `tests/study_counters.rs` holds it byte-equal to a fresh one.
//!
//! [`studies::run_cells`]: crate::studies::run_cells

use crate::studies::{
    paper_cells, paper_row, push_new, row, run_cells, vs_optimal, Cell, Config, PaperRow, Workload,
    CLASSES,
};
use crate::table::Table;
use crate::{fmt_cost, ExperimentOutput, PAPER_SEED};
use atis_algorithms::duplicates::DuplicatePolicy;
use atis_algorithms::{closure, memory, AStarVersion, Algorithm, Estimator, FrontierKind};
use atis_core::render_map;
use atis_costmodel::{paper_iterations, DiskModel, Model, ModelParams, RelationFrontierModel};
use atis_graph::{CostModel, Grid, Minneapolis, QueryKind, RadialCity, RadialQuery};
use atis_obs::ModelReport;
use atis_storage::{CostParams, JoinPolicy, JoinStrategy};

/// One validation, ablation or extension: the cells it reads and the
/// table it renders from their rows.
#[derive(Clone, Copy)]
pub struct Study {
    /// The `experiments` id, which is also the name of its
    /// `<!-- study: … -->` block in EXPERIMENTS.md.
    pub name: &'static str,
    /// The workload, in one line.
    pub description: &'static str,
    /// The cells the render reads.
    pub cells: fn() -> Vec<Cell>,
    /// The committed block, from rows holding at least [`Study::cells`].
    pub render: fn(&[PaperRow]) -> String,
}

const DIJKSTRA: Algorithm = Algorithm::Dijkstra;
const ITERATIVE: Algorithm = Algorithm::Iterative;
const V2: Algorithm = Algorithm::AStar(AStarVersion::V2);
const V3: Algorithm = Algorithm::AStar(AStarVersion::V3);

fn grid(k: usize, query: QueryKind) -> Workload {
    let costs = CostModel::TWENTY_PERCENT;
    Workload::Grid { k, costs, query }
}

/// The 20×20 diagonal, 20 % variance: Figure 7's middle column.
fn diagonal20() -> Workload {
    grid(20, QueryKind::Diagonal)
}

/// Every workload × algorithm × configuration, in that nesting order.
fn cells(workloads: &[Workload], algorithms: &[Algorithm], configs: &[Config]) -> Vec<Cell> {
    let mut out = Vec::new();
    for &w in workloads {
        for &a in algorithms {
            for &c in configs {
                push_new(&mut out, (w, a, c));
            }
        }
    }
    out
}

/// The paper's configuration with one field changed.
fn paper_but(change: impl FnOnce(&mut Config)) -> Config {
    let mut config = Config::PAPER;
    change(&mut config);
    config
}

/// A table of cost units on the 20×20 diagonal: a row per algorithm, a
/// column per configuration, and `extra`'s column if it has one.
fn cost_table<S: Into<String>>(
    rows: &[PaperRow],
    head: impl IntoIterator<Item = S>,
    algorithms: &[Algorithm],
    configs: &[Config],
    extra: impl Fn(Algorithm) -> Option<String>,
) -> String {
    let mut t = Table::new(vec!["Algorithm".to_string()]);
    t.columns.extend(head.into_iter().map(Into::into));
    for &a in algorithms {
        let mut cells = vec![a.label()];
        let cost = |&c: &Config| fmt_cost(row(rows, (diagonal20(), a, c)).cost_units);
        cells.extend(configs.iter().map(cost));
        cells.extend(extra(a));
        t.push_row(cells);
    }
    t.to_string()
}

fn join_configs() -> [Config; 4] {
    JoinStrategy::ALL.map(|s| paper_but(|c| c.join = JoinPolicy::Force(s)))
}

/// Forcing each join strategy: both join shapes, one current node
/// (Dijkstra) and a wavefront (Iterative).
fn joins(rows: &[PaperRow]) -> String {
    let head = JoinStrategy::ALL.map(|s| s.label());
    let none = |_| None;
    cost_table(rows, head, &[DIJKSTRA, ITERATIVE], &join_configs(), none)
}

fn optimizer_configs() -> [Config; 2] {
    [Config::PAPER, paper_but(|c| c.join = JoinPolicy::CostBased)]
}

/// The forced nested loop (Table 4B's assumption) against the
/// cost-based chooser `F(B1, B2, B3)`.
fn optimizer(rows: &[PaperRow]) -> String {
    let head = ["Forced nested-loop", "Cost-based optimizer", "Speedup"];
    let speedup = |a| {
        let [forced, chosen] = optimizer_configs().map(|c| row(rows, (diagonal20(), a, c)));
        Some(format!("{:.1}x", forced.cost_units / chosen.cost_units))
    };
    cost_table(rows, head, &CLASSES, &optimizer_configs(), speedup)
}

fn pool_configs() -> [Config; 3] {
    [None, Some(8), Some(64)].map(|blocks| paper_but(|c| c.pool_blocks = blocks))
}

/// An LRU block cache against the paper's cold-cache model.
fn buffer(rows: &[PaperRow]) -> String {
    let head = [
        "No pool (paper)",
        "8-block pool",
        "64-block pool",
        "Hit rate @64",
    ];
    let hit_rate = |a| {
        let (hits, misses) = row(rows, (diagonal20(), a, pool_configs()[2])).pool;
        Some(format!(
            "{:.0}%",
            100.0 * hits as f64 / (hits + misses) as f64
        ))
    };
    cost_table(rows, head, &CLASSES, &pool_configs(), hit_rate)
}

const ISAM_LEVELS: [u64; 4] = [1, 2, 3, 5];

fn isam_configs() -> [Config; 4] {
    ISAM_LEVELS.map(|l| paper_but(|c| c.isam_levels = l))
}

/// ISAM depth `I_l`, which prices every keyed access.
fn isam(rows: &[PaperRow]) -> String {
    let head = ISAM_LEVELS.map(|l| match l {
        3 => "I_l = 3 (paper)".to_string(),
        _ => format!("I_l = {l}"),
    });
    cost_table(rows, head, &CLASSES, &isam_configs(), |_| None)
}

/// Relation-frontier A\* with the Manhattan estimator, the frontier the
/// duplicate policies manage.
const RELATION_MANHATTAN: Algorithm = Algorithm::Custom {
    frontier: FrontierKind::SeparateRelation,
    estimator: Estimator::Manhattan,
};

/// Section 4's duplicate management: avoid, eliminate, allow.
fn duplicate_cells() -> Vec<Cell> {
    let configs = DuplicatePolicy::ALL.map(|p| paper_but(|c| c.duplicates = Some(p)));
    cells(&[diagonal20()], &[RELATION_MANHATTAN], &configs)
}

fn duplicates(rows: &[PaperRow]) -> String {
    let head = [
        "Policy",
        "Iterations",
        "Redundant",
        "Cost units",
        "Index adjustments",
    ];
    let mut t = Table::new(head.to_vec());
    for cell in duplicate_cells() {
        let r = row(rows, cell);
        t.push_row(vec![
            r.config.duplicates.expect("a policy").label().to_string(),
            r.iterations.to_string(),
            (r.iterations - r.expanded).to_string(),
            fmt_cost(r.cost_units),
            r.io.index_adjustments.to_string(),
        ]);
    }
    t.to_string()
}

/// The runs the model-vs-measured reports cover on the 30×30 diagonal:
/// the paper's three classes and v2 at the forced nested loop, and
/// Dijkstra at the cost-based policy the serving stack runs.
fn report_cells() -> Vec<Cell> {
    let diagonal = [grid(30, QueryKind::Diagonal)];
    let mut out = cells(&diagonal, &[DIJKSTRA, V2, V3, ITERATIVE], &[Config::PAPER]);
    out.extend(cells(&diagonal, &[DIJKSTRA], &optimizer_configs()[1..]));
    out
}

/// A row's model-vs-measured report: Table 2 for the iterative
/// algorithm, Table 3 for the best-first ones, priced at the row's own
/// join policy, at the paper's 10 % tolerance.
fn report(r: &PaperRow) -> ModelReport {
    let Workload::Grid { k, .. } = r.workload else {
        panic!("the reports run on grids")
    };
    let mp = ModelParams::for_grid(k);
    let model = match r.algorithm {
        Algorithm::Iterative => Model::table_2(&mp, r.config.join, mp.avg_current(r.iterations)),
        _ => Model::table_3(&mp, r.config.join),
    };
    ModelReport::new(&r.algorithm.label(), r.iterations, &r.steps, &model, 0.10)
}

fn reports(rows: &[PaperRow]) -> String {
    let head = ["Run", "Step", "Predicted", "Measured", "Error", "Verdict"];
    let mut t = Table::new(head.to_vec());
    for cell in report_cells() {
        let r = report(row(rows, cell));
        let joins = match cell.2.join {
            JoinPolicy::CostBased => " (cost-based joins)",
            JoinPolicy::Force(_) => "",
        };
        let run = format!("{}{joins}, {} iterations", r.algorithm, r.iterations);
        let total = r.total_relative_error();
        let steps = r
            .rows
            .iter()
            .map(|s| (&s.step[..], s.predicted, s.measured));
        let errors = r.rows.iter().map(|s| (s.relative_error, s.within));
        let all = steps.chain([("TOTAL", r.predicted_total, r.measured_total)]);
        for ((step, predicted, measured), (error, within)) in
            all.zip(errors.chain([(total, total <= r.tolerance)]))
        {
            t.push_row(vec![
                run.clone(),
                step.to_string(),
                format!("{predicted:.2}"),
                format!("{measured:.2}"),
                format!("{:.1}%", 100.0 * error),
                (if within { "ok" } else { "DIVERGES" }).to_string(),
            ]);
        }
    }
    t.to_string()
}

/// Figures 5 and 10's diagonal runs of A\* v1–v3 at 20×20 and 30×30.
fn model_cells() -> Vec<Cell> {
    let diagonals = [20, 30].map(|k| grid(k, QueryKind::Diagonal));
    let versions = AStarVersion::ALL.map(Algorithm::AStar);
    cells(&diagonals, &versions, &[Config::PAPER])
}

fn models(rows: &[PaperRow]) -> String {
    let head = ["Version / Grid", "Iterations", "Measured", "Model", "Error"];
    let mut t = Table::new(head.to_vec());
    for cell in model_cells() {
        let r = row(rows, cell);
        let (Workload::Grid { k, .. }, Algorithm::AStar(v)) = (r.workload, r.algorithm) else {
            unreachable!("model cells are A* versions on grids")
        };
        let mp = ModelParams::for_grid(k);
        let predicted = match v {
            AStarVersion::V1 => RelationFrontierModel::new(mp, r.config.join).total(r.iterations),
            _ => Model::table_3(&mp, r.config.join).total(r.iterations),
        };
        t.push_row(vec![
            format!("{} @ {k}x{k}", v.label()),
            r.iterations.to_string(),
            fmt_cost(r.cost_units),
            fmt_cost(predicted),
            format!("{:+.1}%", 100.0 * (predicted - r.cost_units) / r.cost_units),
        ]);
    }
    t.to_string()
}

const QUERIES: [QueryKind; 2] = [QueryKind::Diagonal, QueryKind::Horizontal];

/// Figure 6's diagonal and horizontal runs, re-priced.
fn device_cells() -> Vec<Cell> {
    cells(&QUERIES.map(|q| grid(30, q)), &CLASSES, &[Config::PAPER])
}

fn devices(rows: &[PaperRow]) -> String {
    let devices: [(&str, CostParams); 3] = [
        ("Table 4A units", CostParams::table_4a()),
        ("1993 disk (ms)", DiskModel::era_1993().cost_params_ms()),
        ("modern SSD (ms)", DiskModel::modern_ssd().cost_params_ms()),
    ];
    let mut head = vec!["Query", "Algorithm"];
    head.extend(devices.map(|(name, _)| name));
    let mut t = Table::new(head);
    for cell in device_cells() {
        let r = row(rows, cell);
        let mut cells = vec![workload_label(r.workload), r.algorithm.label()];
        cells.extend(devices.iter().map(|(_, p)| fmt_cost(r.io.cost(p))));
        t.push_row(cells);
    }
    t.to_string()
}

const SIZES: [usize; 5] = [10, 20, 30, 40, 50];

/// Grids up to 50×50: Figure 5's and 6's runs, and the cells no figure
/// runs.
fn scaling_cells() -> Vec<Cell> {
    let grids: Vec<_> = QUERIES
        .iter()
        .flat_map(|&q| SIZES.map(|k| grid(k, q)))
        .collect();
    cells(&grids, &CLASSES, &[Config::PAPER])
}

fn scaling(rows: &[PaperRow]) -> String {
    let mut head = vec!["Query".to_string(), "Algorithm".to_string()];
    head.extend(SIZES.map(|k| format!("{k}x{k}")));
    let mut t = Table::new(head);
    for q in QUERIES {
        for a in CLASSES {
            let mut cells = vec![q.label().to_string(), a.label()];
            cells.extend(SIZES.map(|k| fmt_cost(paper_row(rows, grid(k, q), a).cost_units)));
            t.push_row(cells);
        }
    }
    t.to_string()
}

/// The weighted-estimator sweep: status-frontier A\* with `w ×
/// Manhattan`, where `w = 0` is Dijkstra's and `w = 1` A\* v3's row, and
/// Euclidean (A\* v2) beside them.
const SWEEP: [(&str, Algorithm); 8] = [
    ("zero (Dijkstra)", DIJKSTRA),
    ("euclidean (v2)", V2),
    ("manhattan x 0.5", weighted(0.5)),
    ("manhattan (v3)", V3),
    ("manhattan x 1.5", weighted(1.5)),
    ("manhattan x 2", weighted(2.0)),
    ("manhattan x 3", weighted(3.0)),
    ("manhattan x 5", weighted(5.0)),
];

const fn weighted(weight: f64) -> Algorithm {
    Algorithm::Custom {
        frontier: FrontierKind::StatusAttribute,
        estimator: Estimator::WeightedManhattan { weight },
    }
}

/// The sweep on the 20×20 and 30×30 semi-diagonal queries.
fn tradeoff_cells() -> Vec<Cell> {
    let semi = [20, 30].map(|k| grid(k, QueryKind::SemiDiagonal));
    cells(&semi, &SWEEP.map(|(_, a)| a), &[Config::PAPER])
}

fn tradeoff(rows: &[PaperRow]) -> String {
    let mut t = Table::new(vec![
        "Grid",
        "Estimator",
        "Iterations",
        "Cost units",
        "Speedup vs w=1",
        "Path vs optimal",
    ]);
    for k in [20, 30] {
        let workload = grid(k, QueryKind::SemiDiagonal);
        let baseline = paper_row(rows, workload, V3).cost_units;
        for (label, a) in SWEEP {
            let r = paper_row(rows, workload, a);
            t.push_row(vec![
                format!("{k}x{k}"),
                label.to_string(),
                r.iterations.to_string(),
                fmt_cost(r.cost_units),
                format!("{:.2}x", baseline / r.cost_units),
                vs_optimal(r),
            ]);
        }
    }
    t.to_string()
}

/// Seed 7: a draw where the inadmissible Manhattan estimator's
/// suboptimality shows on the Offset query (it exists for most seeds;
/// see tests/radial_reversal.rs).
const RADIAL_SEED: u64 = 7;

/// Euclidean (v2) against Manhattan (v3) on the ring-and-spoke city.
fn radial_cells() -> Vec<Cell> {
    let city = paper_but(|c| c.seed = RADIAL_SEED);
    cells(&RadialQuery::ALL.map(Workload::Radial), &[V2, V3], &[city])
}

fn radial(rows: &[PaperRow]) -> String {
    let head = [
        "Query",
        "Version",
        "Iterations",
        "Cost units",
        "Path vs optimal",
    ];
    let mut t = Table::new(head.to_vec());
    for cell in radial_cells() {
        let r = row(rows, cell);
        t.push_row(vec![
            workload_label(r.workload),
            r.algorithm.label(),
            r.iterations.to_string(),
            fmt_cost(r.cost_units),
            vs_optimal(r),
        ]);
    }
    // The structural cause: how far each estimator overestimates the
    // remaining cost toward the Across destination.
    let city = RadialCity::new(8, 24, 0.1, RADIAL_SEED).expect("a valid city");
    let d = city.query_pair(RadialQuery::Across).1;
    let mut check = Table::new(vec![
        "Estimator",
        "Max overestimate toward Across (positive = inadmissible)",
    ]);
    for estimator in [Estimator::Manhattan, Estimator::Euclidean] {
        let over = memory::max_overestimate(city.graph(), d, estimator);
        check.push_row(vec![estimator.label().to_string(), format!("{over:+.3}")]);
    }
    format!("{t}\n{check}")
}

const SEEDS: [u64; 7] = [1, 2, 3, 7, 42, 1993, 2024];

/// The draw-dependent counts of deviation D1 that `seeds` ranges over:
/// (algorithm, query, its column in Table 6).
const SEEDED: [(Algorithm, QueryKind, usize); 3] = [
    (V3, QueryKind::Diagonal, 2),
    (V3, QueryKind::Horizontal, 0),
    (DIJKSTRA, QueryKind::Horizontal, 0),
];

fn seed_configs() -> [Config; 7] {
    SEEDS.map(|seed| paper_but(|c| c.seed = seed))
}

fn seed_cells() -> Vec<Cell> {
    let seeded = SEEDED
        .iter()
        .map(|&(a, q, _)| cells(&[grid(30, q)], &[a], &seed_configs()));
    seeded.flatten().collect()
}

fn seeds(rows: &[PaperRow]) -> String {
    let mut t = Table::new(vec!["Quantity", "min", "max", "paper"]);
    for (a, q, column) in SEEDED {
        let counts = seed_configs().map(|c| row(rows, (grid(30, q), a, c)).iterations);
        let name = if a == V3 {
            "A* v3".to_string()
        } else {
            a.label()
        };
        let paper = paper_iterations(6, &a.label()).expect("Table 6 prints the row");
        t.push_row(vec![
            format!("{name} iterations, 30x30 {}", q.label().to_lowercase()),
            counts.iter().min().expect("seeds").to_string(),
            counts.iter().max().expect("seeds").to_string(),
            paper[column].to_string(),
        ]);
    }
    t.to_string()
}

/// Figure 8: the synthetic Minneapolis map, landmarks A–G marking the
/// Table 8 endpoints.
fn fig8(_: &[PaperRow]) -> String {
    let m = Minneapolis::paper();
    let map = render_map(m.graph(), None, m.landmarks(), 78, 36);
    let landmarks: String = m.landmarks().iter().map(|(c, _)| *c).collect();
    format!(
        "nodes: {}   directed edges: {}   landmarks: {landmarks}\n\n```text\n{map}```\n",
        m.graph().node_count(),
        m.graph().edge_count(),
    )
}

/// Section 1.2's complaint, counted: the closures answer every pair of
/// the 15×15 grid, the single-pair runs one.
const CLOSURE_GRID: usize = 15;

fn allpairs_cells() -> Vec<Cell> {
    let semi = grid(CLOSURE_GRID, QueryKind::SemiDiagonal);
    cells(&[semi], &[DIJKSTRA, V3], &[Config::PAPER])
}

fn allpairs(rows: &[PaperRow]) -> String {
    let network = Grid::new(CLOSURE_GRID, CostModel::TWENTY_PERCENT, PAPER_SEED).expect("k >= 2");
    let (graph, n) = (network.graph(), network.graph().node_count());
    let finite = closure::floyd_warshall(graph)
        .iter()
        .filter(|c| c.is_finite())
        .count();
    let reachable = closure::warren_closure(graph).count_ones();
    let intervals = closure::IntervalClosure::build(graph).stored_intervals();
    let mut t = Table::new(vec!["Method", "Computes", "Work", "Cost units"]);
    t.push_row(vec![
        "Floyd-Warshall (cost closure)".into(),
        format!("{finite} finite pair costs"),
        format!("{} loop steps (n^3)", n.pow(3)),
        "-".into(),
    ]);
    t.push_row(vec![
        "Warren's (boolean closure)".into(),
        format!("{reachable} reachable pairs"),
        format!("{} pivot tests (n^2 - n)", n * n - n),
        "-".into(),
    ]);
    t.push_row(vec![
        "spanning-tree/interval closure".into(),
        format!("stored intervals: {intervals}"),
        "-".into(),
        "-".into(),
    ]);
    for cell in allpairs_cells() {
        let r = row(rows, cell);
        t.push_row(vec![
            format!("DB-resident {}", r.algorithm.label()),
            format!("1 pair, cost {:.2}", r.path_cost),
            format!("{} settles", r.iterations),
            fmt_cost(r.cost_units),
        ]);
    }
    t.to_string()
}

/// Figure 6's diagonal runs of Dijkstra and A\* v3, beside the in-memory
/// baselines on the same query.
fn memdb_cells() -> Vec<Cell> {
    cells(
        &[grid(30, QueryKind::Diagonal)],
        &[DIJKSTRA, V3],
        &[Config::PAPER],
    )
}

fn memdb(rows: &[PaperRow]) -> String {
    let network = Grid::new(30, CostModel::TWENTY_PERCENT, PAPER_SEED).expect("k >= 2");
    let (s, d) = network.query_pair(QueryKind::Diagonal);
    let mut t = Table::new(vec![
        "Implementation",
        "Settles",
        "Cost units (simulated I/O)",
        "Route cost",
    ]);
    let baselines = [
        ("in-memory Dijkstra (binary heap)", Estimator::Zero),
        ("in-memory A* (Manhattan)", Estimator::Manhattan),
    ];
    for (label, estimator) in baselines {
        let (path, settles) = memory::astar_pair(network.graph(), s, d, estimator);
        t.push_row(vec![
            label.into(),
            settles.to_string(),
            "-".into(),
            format!("{:.2}", path.expect("the diagonal is connected").cost),
        ]);
    }
    for cell in memdb_cells() {
        let r = row(rows, cell);
        t.push_row(vec![
            format!("DB-resident {}", r.algorithm.label()),
            r.iterations.to_string(),
            fmt_cost(r.cost_units),
            format!("{:.2}", r.path_cost),
        ]);
    }
    t.to_string()
}

/// A workload's query, as a table cell.
fn workload_label(workload: Workload) -> String {
    match workload {
        Workload::Grid { query, .. } => query.label().into(),
        Workload::Minneapolis(pair) => pair.label().into(),
        Workload::Radial(query) => query.label().into(),
    }
}

/// Every study, in EXPERIMENTS.md's order; `crate::DRIVERS` gives each
/// its heading.
pub const STUDIES: [Study; 15] = [
    Study {
        name: "fig8",
        description: "synthetic Minneapolis road map (see DESIGN.md for the substitution)",
        cells: Vec::new,
        render: fig8,
    },
    Study {
        name: "reports",
        description:
            "per-step Tables 2-3 predictions vs the metered engine, 10% tolerance (30x30, diagonal)",
        cells: report_cells,
        render: reports,
    },
    Study {
        name: "models",
        description:
            "each A* implementation version vs its algebraic model (diagonal, 20% variance)",
        cells: model_cells,
        render: models,
    },
    Study {
        name: "joins",
        description: "cost units forcing each join strategy (20x20, diagonal, 20% variance)",
        cells: || cells(&[diagonal20()], &[DIJKSTRA, ITERATIVE], &join_configs()),
        render: joins,
    },
    Study {
        name: "optimizer",
        description: "join-strategy choice, forced vs cost-based (20x20, diagonal, 20% variance)",
        cells: || cells(&[diagonal20()], &CLASSES, &optimizer_configs()),
        render: optimizer,
    },
    Study {
        name: "tradeoff",
        description:
            "weighted estimators on the 20x20 and 30x30 semi-diagonal queries (20% variance)",
        cells: tradeoff_cells,
        render: tradeoff,
    },
    Study {
        name: "duplicates",
        description:
            "frontier duplicate policies, Section 4 (relation-frontier A*, 20x20, diagonal)",
        cells: duplicate_cells,
        render: duplicates,
    },
    Study {
        name: "buffer",
        description:
            "LRU block cache vs the paper's cold-cache model (20x20, diagonal, 20% variance)",
        cells: || cells(&[diagonal20()], &CLASSES, &pool_configs()),
        render: buffer,
    },
    Study {
        name: "isam",
        description: "index levels I_l from 1 to 5 (20x20, diagonal, 20% variance)",
        cells: || cells(&[diagonal20()], &CLASSES, &isam_configs()),
        render: isam,
    },
    Study {
        name: "allpairs",
        description:
            "transitive closure computes every path; ATIS needs one (15x15, semi-diagonal, 20% variance)",
        cells: allpairs_cells,
        render: allpairs,
    },
    Study {
        name: "memdb",
        description: "in-memory baselines vs the metered engine (30x30, diagonal, 20% variance)",
        cells: memdb_cells,
        render: memdb,
    },
    Study {
        name: "devices",
        description: "Table 4A units vs a 1993 disk vs a modern SSD (30x30; re-priced, not re-run)",
        cells: device_cells,
        render: devices,
    },
    Study {
        name: "scaling",
        description: "grid sizes up to 50x50 (2500 nodes), 20% variance, in cost units",
        cells: scaling_cells,
        render: scaling,
    },
    Study {
        name: "radial",
        description:
            "ring-and-spoke network (8 rings x 24 spokes, seed 7): Manhattan loses its edge",
        cells: radial_cells,
        render: radial,
    },
    Study {
        name: "seeds",
        description: "draw-dependent iteration counts across seeds 1, 2, 3, 7, 42, 1993, 2024 (D1)",
        cells: seed_cells,
        render: seeds,
    },
];

/// The `experiments` output of the study named `name`: its block, under
/// the heading [`crate::DRIVERS`] lists it with.
///
/// # Panics
/// Panics if no entry of [`STUDIES`] or [`crate::DRIVERS`] has that name.
pub fn study(name: &str) -> ExperimentOutput {
    let s = STUDIES.iter().find(|s| s.name == name).expect("a study");
    let (_, heading, _) = crate::DRIVERS
        .iter()
        .find(|(id, _, _)| *id == name)
        .expect("a driver");
    ExperimentOutput {
        id: heading.to_string(),
        description: s.description.into(),
        sections: vec![(
            format!("`<!-- study: {name} -->` in EXPERIMENTS.md"),
            (s.render)(&run_cells(&(s.cells)())),
        )],
    }
}

/// The paper's cells and every study's, each once.
pub fn all_cells() -> Vec<Cell> {
    let mut all = paper_cells();
    for cell in STUDIES.iter().flat_map(|s| (s.cells)()) {
        push_new(&mut all, cell);
    }
    all
}

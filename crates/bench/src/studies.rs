//! The two extension studies, as exact counters: A\* versions 1–5 on the
//! paper's networks (the estimator study), and Dijkstra and A\* v3–v5 on
//! 1k / 10k / 100k-node metro networks through the partitioned storage
//! engine (the scaling study).
//!
//! Every cell these tables hold is a deterministic counter: node
//! expansions, charged and physical block reads, frontier peaks, and the
//! sizes of what preprocessing built. The generators are seeded and the
//! buffer pool is deterministic, so a row reads the same on every machine
//! and in debug and release builds. Wall time is not recorded here; the
//! repository benchmark under `benchmark/` measures it.
//!
//! The rendered tables are committed in `EXPERIMENTS.md` (estimators) and
//! `SCALING.md` (the scaling study's networks and counters), and `tests/study_counters.rs` holds each
//! committed table byte-equal to a fresh render, so a counter that moves
//! by one read fails there and is re-pinned in the doc's diff. The same
//! test asserts the orderings the studies exist to show.

use crate::experiments::{ExperimentOutput, PAPER_SEED};
use crate::table::Table;
use atis_algorithms::ladder::Needs;
use atis_algorithms::{AStarVersion, Algorithm, Database};
use atis_graph::{
    shuffle_layout, CostModel, Graph, Grid, Metro, MetroQuery, MetroSpec, Minneapolis, NamedPair,
    NodeId, PartitionMap, QueryKind, RadialCity, RadialQuery,
};
use atis_hierarchy::{Hierarchy, HierarchyConfig, ARC_TUPLE_SIZE};
use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
use atis_storage::{EdgeTuple, FixedTuple, JoinPolicy, NodeTuple, StorageProfile};

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

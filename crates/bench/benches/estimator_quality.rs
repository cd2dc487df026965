//! Estimator quality: A\* versions 1–5 head-to-head, plus the long-haul
//! metro study the hierarchy exists for.
//!
//! The paper compares its three A\* implementation versions on the grid
//! workloads (Figures 10–12); this bench extends the comparison to the
//! landmark-guided version 4 and the hierarchy-backed version 5, and to
//! the non-grid networks, measuring the quantities a better estimator
//! actually buys — node expansions, physical block reads, and wall time
//! — per version per network:
//!
//! * **30×30 grid**, 20% cost variance (the paper's benchmark family),
//!   over the three canonical query kinds;
//! * **radial city** (rings + spokes), where Manhattan geometry is
//!   actively wrong and v3's estimator misguides;
//! * **synthetic Minneapolis** (Section 5.2's 1089-node map), over the
//!   four named Table 8 pairs;
//! * **metro-10k / metro-100k long-haul**: corner-to-corner diagonal
//!   trips on the partitioned metro networks, v4 vs v5 only — the
//!   workload where goal-directed search still walks a full corridor
//!   and the contraction hierarchy's bidirectional upward search does
//!   not. The bench asserts v5 expands at least 10x fewer nodes than
//!   v4 at the 100k scale before it will write an artifact.
//!
//! v4 runs against landmark tables built once per network; v5 against a
//! contraction hierarchy built once per network (`hierarchy_ms` /
//! `hierarchy_arcs` on its records make the offline cost visible next
//! to the online win, exactly as `preprocess_ms` does for v4). Results
//! land in `BENCH_estimators.json` at the repository root — one JSON
//! record per line (network × version), awk-friendly for
//! `ci/compare-bench.sh`, which gates regressions in `nodes_expanded`
//! and `block_reads` against the committed baseline.
//!
//! CI reruns everything except the metro-100k section
//! (`ESTIMATORS_SMOKE=1`), which writes `BENCH_estimators_smoke.json`
//! and leaves the committed full artifact as the gate baseline — the
//! gate skips baseline networks the smoke run does not measure, so v5's
//! 10k-scale records stay gated on every PR.
//!
//! ```sh
//! cargo bench -p atis-bench --bench estimator_quality            # full
//! ESTIMATORS_SMOKE=1 cargo bench -p atis-bench --bench estimator_quality
//! ```

use atis_algorithms::ladder::Needs;
use atis_algorithms::{AStarVersion, Algorithm, Database};
use atis_bench::PAPER_SEED;
use atis_graph::{
    CostModel, Graph, Grid, Metro, MetroQuery, MetroSpec, Minneapolis, NamedPair, NodeId,
    PartitionMap, QueryKind, RadialCity, RadialQuery,
};
use atis_hierarchy::{Hierarchy, HierarchyConfig};
use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
use atis_storage::{JoinPolicy, StorageProfile};
use std::fmt::Write as _;
use std::time::Instant;

/// Landmarks for the metro long-haul sections, spread over partition
/// regions (matches the scaling study).
const METRO_LANDMARKS: usize = 8;

/// One network × version measurement, summed over the network's queries.
struct Record {
    network: &'static str,
    nodes: usize,
    edges: usize,
    version: AStarVersion,
    queries: usize,
    nodes_expanded: u64,
    block_reads: u64,
    frontier_peak: u64,
    wall_ms: f64,
    /// Landmark preprocessing wall time (v4 rows only).
    preprocess_ms: Option<f64>,
    landmarks: Option<usize>,
    /// Hierarchy preprocessing wall time (v5 rows only).
    hierarchy_ms: Option<f64>,
    hierarchy_arcs: Option<usize>,
}

/// Runs `versions` over `queries` against a prepared database, one
/// record per version.
#[allow(clippy::too_many_arguments)]
fn run_versions(
    network: &'static str,
    db: &Database,
    graph: &Graph,
    queries: &[(NodeId, NodeId)],
    versions: &[AStarVersion],
    preprocess_ms: f64,
    landmark_count: usize,
    hierarchy_ms: f64,
    hierarchy_arcs: usize,
) -> Vec<Record> {
    versions
        .iter()
        .map(|&version| {
            let needs = Algorithm::AStar(version).describe().needs;
            let mut rec = Record {
                network,
                nodes: graph.node_count(),
                edges: graph.edge_count(),
                version,
                queries: queries.len(),
                nodes_expanded: 0,
                block_reads: 0,
                frontier_peak: 0,
                wall_ms: 0.0,
                preprocess_ms: (needs == Needs::Landmarks).then_some(preprocess_ms),
                landmarks: (needs == Needs::Landmarks).then_some(landmark_count),
                hierarchy_ms: (needs == Needs::Hierarchy).then_some(hierarchy_ms),
                hierarchy_arcs: (needs == Needs::Hierarchy).then_some(hierarchy_arcs),
            };
            for &(s, d) in queries {
                let started = Instant::now();
                let trace = db.run(Algorithm::AStar(version), s, d).unwrap_or_else(|e| {
                    panic!("{network} {}: {s:?}->{d:?} failed: {e}", version.label())
                });
                rec.wall_ms += started.elapsed().as_secs_f64() * 1e3;
                rec.nodes_expanded += trace.iterations;
                rec.block_reads += trace.io.block_reads;
                rec.frontier_peak = rec.frontier_peak.max(trace.frontier_peak);
            }
            rec
        })
        .collect()
}

/// The small-network comparison: every version, one database.
fn run_network(
    network: &'static str,
    graph: &Graph,
    queries: &[(NodeId, NodeId)],
    config: PreprocessConfig,
) -> Vec<Record> {
    let preprocess_started = Instant::now();
    let tables = LandmarkTables::build(graph, config).expect("bench graphs are non-empty");
    let preprocess_ms = preprocess_started.elapsed().as_secs_f64() * 1e3;
    let landmark_count = tables.landmark_count();
    let hierarchy_started = Instant::now();
    let hierarchy =
        Hierarchy::build(graph, HierarchyConfig::paper()).expect("bench graphs are non-empty");
    let hierarchy_ms = hierarchy_started.elapsed().as_secs_f64() * 1e3;
    let hierarchy_arcs = hierarchy.arc_count();
    let db = Database::open(graph)
        .expect("bench graphs fit the engine")
        .with_landmarks(tables)
        .with_hierarchy(hierarchy);

    run_versions(
        network,
        &db,
        graph,
        queries,
        &AStarVersion::ALL_WITH_HIERARCHY,
        preprocess_ms,
        landmark_count,
        hierarchy_ms,
        hierarchy_arcs,
    )
}

/// The long-haul section: one diagonal trip across a partitioned metro
/// network, v4 vs v5 under the scaling study's storage configuration
/// (region-contiguous layout, pool smaller than the graph, cost-based
/// joins). v1–v3 are omitted: undirected search at this trip length is
/// the full-scan regime the scaling study already documents.
fn run_metro(target: usize, network: &'static str) -> Vec<Record> {
    let spec = MetroSpec::with_nodes(target, PAPER_SEED);
    let metro = Metro::new(spec).expect("estimator metro specs are non-degenerate");
    let map = PartitionMap::build(metro.graph(), 256);
    let (graph, new_of) = map.apply(metro.graph()).expect("permutation is valid");
    let (s, d) = metro.query_pair(MetroQuery::Diagonal);
    let queries = [(NodeId(new_of[s.index()]), NodeId(new_of[d.index()]))];

    let config = PreprocessConfig::new(
        LandmarkSelection::PartitionSpread { region_target: 256 },
        METRO_LANDMARKS,
    );
    let preprocess_started = Instant::now();
    let tables = LandmarkTables::build(&graph, config).expect("metro graphs are non-empty");
    let preprocess_ms = preprocess_started.elapsed().as_secs_f64() * 1e3;
    let hierarchy_started = Instant::now();
    let hierarchy =
        Hierarchy::build(&graph, HierarchyConfig::paper()).expect("metro graphs are non-empty");
    let hierarchy_ms = hierarchy_started.elapsed().as_secs_f64() * 1e3;
    let hierarchy_arcs = hierarchy.arc_count();

    let db = Database::open_with_profile(&graph, StorageProfile::for_nodes(graph.node_count()))
        .expect("metro fits the engine")
        .with_join_policy(JoinPolicy::CostBased)
        .with_landmarks(tables)
        .with_hierarchy(hierarchy);

    run_versions(
        network,
        &db,
        &graph,
        &queries,
        &[AStarVersion::V4, AStarVersion::V5],
        preprocess_ms,
        METRO_LANDMARKS,
        hierarchy_ms,
        hierarchy_arcs,
    )
}

fn main() {
    let smoke = std::env::var("ESTIMATORS_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");

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

    let mut records = Vec::new();
    records.extend(run_network(
        "grid30",
        grid.graph(),
        &grid_queries,
        PreprocessConfig::grid_default(),
    ));
    records.extend(run_network(
        "radial",
        city.graph(),
        &city_queries,
        PreprocessConfig::network_default(),
    ));
    records.extend(run_network(
        "minneapolis",
        mpls.graph(),
        &mpls_queries,
        PreprocessConfig::network_default(),
    ));
    records.extend(run_metro(10_000, "metro-10k"));
    if !smoke {
        records.extend(run_metro(100_000, "metro-100k"));
    }

    println!(
        "estimator_quality: v1-v5 over grid30 / radial / minneapolis, v4 vs v5 long-haul{}",
        if smoke { " (smoke: no metro-100k)" } else { "" }
    );
    let mut json = String::new();
    for r in &records {
        println!(
            "  {:<12} {:<16} expanded={:<6} reads={:<7} peak={:<5} wall={:.2}ms",
            r.network,
            r.version.label(),
            r.nodes_expanded,
            r.block_reads,
            r.frontier_peak,
            r.wall_ms
        );
        let _ = write!(
            json,
            r#"{{"benchmark":"estimator_quality","network":"{}","nodes":{},"edges":{},"algorithm":"{}","queries":{},"nodes_expanded":{},"block_reads":{},"frontier_peak":{},"wall_ms":{:.3}"#,
            r.network,
            r.nodes,
            r.edges,
            r.version.label(),
            r.queries,
            r.nodes_expanded,
            r.block_reads,
            r.frontier_peak,
            r.wall_ms,
        );
        if let (Some(pre), Some(k)) = (r.preprocess_ms, r.landmarks) {
            let _ = write!(json, r#","landmarks":{k},"preprocess_ms":{pre:.3}"#);
        }
        if let (Some(hms), Some(arcs)) = (r.hierarchy_ms, r.hierarchy_arcs) {
            let _ = write!(json, r#","hierarchy_arcs":{arcs},"hierarchy_ms":{hms:.3}"#);
        }
        json.push_str("}\n");
    }

    // The headline claims the CI baseline locks in. Fail loudly here
    // rather than commit a regressed baseline.
    //
    // First: v4 strictly beats v3 on expansions and block reads wherever
    // its floor estimator is admissible.
    for network in ["grid30", "minneapolis"] {
        let by = |v: AStarVersion| {
            records
                .iter()
                .find(|r| r.network == network && r.version == v)
                .expect("record")
        };
        let (v3, v4) = (by(AStarVersion::V3), by(AStarVersion::V4));
        assert!(
            v4.nodes_expanded < v3.nodes_expanded && v4.block_reads < v3.block_reads,
            "{network}: v4 ({} expanded / {} reads) must strictly beat v3 ({} / {})",
            v4.nodes_expanded,
            v4.block_reads,
            v3.nodes_expanded,
            v3.block_reads
        );
        println!(
            "  {network}: v4 beats v3 by {:.1}x expansions, {:.1}x reads",
            v3.nodes_expanded as f64 / v4.nodes_expanded as f64,
            v3.block_reads as f64 / v4.block_reads as f64
        );
    }

    // Second: on the long-haul metro sections, v5 strictly beats v4 at
    // every measured scale, and by at least 10x expansions at 100k — the
    // bar the hierarchy was built to clear.
    for (network, floor) in [("metro-10k", 1.0), ("metro-100k", 10.0)] {
        let by = |v: AStarVersion| {
            records
                .iter()
                .find(|r| r.network == network && r.version == v)
        };
        let (Some(v4), Some(v5)) = (by(AStarVersion::V4), by(AStarVersion::V5)) else {
            continue; // smoke run: metro-100k not measured
        };
        assert!(
            v5.nodes_expanded < v4.nodes_expanded && v5.block_reads < v4.block_reads,
            "{network}: v5 ({} expanded / {} reads) must strictly beat v4 ({} / {})",
            v5.nodes_expanded,
            v5.block_reads,
            v4.nodes_expanded,
            v4.block_reads
        );
        let speedup = v4.nodes_expanded as f64 / v5.nodes_expanded as f64;
        assert!(
            speedup >= floor,
            "{network}: v5 must expand at least {floor}x fewer nodes than v4 \
             (got {:.1}x: v4 {} vs v5 {})",
            speedup,
            v4.nodes_expanded,
            v5.nodes_expanded
        );
        println!(
            "  {network} long-haul: v5 expands {speedup:.1}x fewer nodes than v4 \
             ({} vs {}), {:.1}x fewer charged reads",
            v5.nodes_expanded,
            v4.nodes_expanded,
            v4.block_reads as f64 / v5.block_reads as f64
        );
    }

    let name = if smoke {
        "BENCH_estimators_smoke.json"
    } else {
        "BENCH_estimators.json"
    };
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"));
    std::fs::write(&out, json).expect("write estimator artifact");
    println!("  wrote {}", out.display());
}

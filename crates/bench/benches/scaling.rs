//! Scaling study: metro networks through the partitioned storage engine.
//!
//! The paper measures its algorithms on grids of at most ~4000 nodes
//! (Section 5). This bench asks what happens two to three orders of
//! magnitude later: deterministic metro networks of 1k / 10k / 100k
//! nodes ([`Metro`]) are partitioned into 256-node storage regions
//! ([`PartitionMap`]), loaded through segmented heap files under a
//! buffer pool *smaller than the graph* ([`StorageProfile::for_nodes`]),
//! and queried with the regional workload ([`MetroQuery::REGIONAL`])
//! plus a long-haul diagonal reserved for the goal-directed and
//! hierarchy-backed versions (a full-diagonal Dijkstra is intractable
//! inside the full-scan relational engine at these scales).
//!
//! Two layouts run at every scale:
//!
//! * **region** — nodes renumbered so each 256-node partition region is
//!   contiguous on disk, aligned with the heap segments;
//! * **shuffled** — the same graph under a seeded random renumbering,
//!   the locality-free control.
//!
//! Charged I/O (the paper's cost model) depends only on the algorithm;
//! what the layout changes is the *physical* read count — buffer-pool
//! misses — which is exactly what the region layout is supposed to
//! shrink. Each (scale, layout, algorithm) runs against a freshly
//! opened database so no measurement inherits another's warm pool.
//!
//! Two workloads run per scale. The **regional** workload (both
//! layouts) compares Dijkstra and A\* v3/v4/v5 on the traveller-scale
//! queries. The **long-haul** workload (region layout) runs the
//! full-diagonal trip that is intractable for the flat algorithms —
//! v4 against the hierarchy-backed v5 only — and asserts v5 expands at
//! least 10x fewer nodes at the 100k scale. v5 rows carry the
//! hierarchy's build cost (`hierarchy_ms`, `hierarchy_arcs`) the way v4
//! rows carry landmark preprocessing.
//!
//! Results land in `BENCH_scaling.json` at the repository root — one
//! JSON record per line (network × layout × workload × algorithm),
//! awk-friendly for `ci/compare-bench.sh`. `SCALING.md` is the write-up
//! of the committed numbers. CI reruns only the 10k smoke scale
//! (`SCALING_SMOKE=1`), which writes `BENCH_scaling_smoke.json` and
//! leaves the committed full artifact as the gate baseline — including
//! v5's 10k regional and long-haul records, the PR-by-PR smoke coverage
//! of the hierarchy path.
//!
//! ```sh
//! cargo bench -p atis-bench --bench scaling            # full, ~minutes
//! SCALING_SMOKE=1 cargo bench -p atis-bench --bench scaling
//! ```

use atis_algorithms::{AStarVersion, Algorithm, Database, RunTrace};
use atis_bench::PAPER_SEED;
use atis_graph::{shuffle_layout, Graph, Metro, MetroQuery, MetroSpec, NodeId, PartitionMap};
use atis_hierarchy::{Hierarchy, HierarchyConfig, ARC_TUPLE_SIZE};
use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
use atis_storage::{EdgeTuple, FixedTuple, JoinPolicy, NodeTuple, StorageProfile};
use std::fmt::Write as _;
use std::time::Instant;

/// The study's scales: node targets and the network labels the records
/// and `SCALING.md` use.
const SCALES: [(usize, &str); 3] = [
    (1_000, "metro-1k"),
    (10_000, "metro-10k"),
    (100_000, "metro-100k"),
];
/// The scale CI's smoke run measures.
const SMOKE_TARGET: usize = 10_000;
/// Storage region size: one `R` block of nodes (`Bf_r`).
const REGION_TARGET: usize = 256;
/// Landmarks for A* version 4, spread over partition regions.
const LANDMARKS: usize = 8;
/// Block size used to express index/table sizes in blocks.
const BLOCK: usize = 4096;

/// The algorithms the regional workload compares at every scale.
const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Dijkstra,
    Algorithm::AStar(AStarVersion::V3),
    Algorithm::AStar(AStarVersion::V4),
    Algorithm::AStar(AStarVersion::V5),
];

/// The long-haul workload: the two contenders that can afford a
/// full-diagonal trip at metro scale.
const LONG_HAUL_ALGORITHMS: [Algorithm; 2] = [
    Algorithm::AStar(AStarVersion::V4),
    Algorithm::AStar(AStarVersion::V5),
];

/// One (network, layout, algorithm) measurement, summed over the
/// regional query kinds.
struct Record {
    network: &'static str,
    nodes: usize,
    edges: usize,
    layout: &'static str,
    /// `regional` (traveller-scale queries, every algorithm) or
    /// `long-haul` (the full diagonal, v4 vs v5).
    workload: &'static str,
    algorithm: Algorithm,
    queries: usize,
    nodes_expanded: u64,
    block_reads: u64,
    physical_reads: u64,
    wall_ms: f64,
    /// Storage footprint in blocks: `S` + one run's `R` + landmark tables.
    index_blocks: usize,
    /// Blocks written to materialize that footprint (the build cost).
    preprocess_blocks: usize,
    regions: usize,
    cut_edges: usize,
    /// Landmark preprocessing wall time (v4 rows only).
    preprocess_ms: Option<f64>,
    landmarks: Option<usize>,
    /// Hierarchy preprocessing wall time (v5 rows only).
    hierarchy_ms: Option<f64>,
    hierarchy_arcs: Option<usize>,
}

/// One scale × layout: the renumbered graph, the query endpoints under
/// that numbering, its landmark tables, and its contraction hierarchy.
struct Layout {
    label: &'static str,
    graph: Graph,
    queries: Vec<(NodeId, NodeId)>,
    long_haul: (NodeId, NodeId),
    tables: LandmarkTables,
    hierarchy: Hierarchy,
    preprocess_ms: f64,
    hierarchy_ms: f64,
    regions: usize,
    cut_edges: usize,
}

fn build_layout(
    label: &'static str,
    metro: &Metro,
    graph: Graph,
    new_of: &[u32],
    regions: usize,
    cut_edges: usize,
) -> Layout {
    let renumber = |k| {
        let (s, d) = metro.query_pair(k);
        (NodeId(new_of[s.index()]), NodeId(new_of[d.index()]))
    };
    let queries = MetroQuery::REGIONAL.iter().map(|&k| renumber(k)).collect();
    let long_haul = renumber(MetroQuery::Diagonal);
    let config = PreprocessConfig::new(
        LandmarkSelection::PartitionSpread {
            region_target: REGION_TARGET,
        },
        LANDMARKS,
    );
    let preprocess_started = Instant::now();
    let tables = LandmarkTables::build(&graph, config).expect("metro graphs are non-empty");
    let preprocess_ms = preprocess_started.elapsed().as_secs_f64() * 1e3;
    let hierarchy_started = Instant::now();
    let hierarchy =
        Hierarchy::build(&graph, HierarchyConfig::paper()).expect("metro graphs are non-empty");
    let hierarchy_ms = hierarchy_started.elapsed().as_secs_f64() * 1e3;
    Layout {
        label,
        graph,
        queries,
        long_haul,
        tables,
        hierarchy,
        preprocess_ms,
        hierarchy_ms,
        regions,
        cut_edges,
    }
}

/// Buffer-pool misses so far for the database's pool (0 without one).
fn pool_misses(db: &Database) -> u64 {
    db.buffer()
        .map(|p| p.lock().expect("bench pool lock").misses)
        .unwrap_or(0)
}

fn run_workload(
    network: &'static str,
    layout: &Layout,
    profile: StorageProfile,
    workload: &'static str,
    queries: &[(NodeId, NodeId)],
    algorithms: &[Algorithm],
) -> Vec<Record> {
    let nodes = layout.graph.node_count();
    let edges = layout.graph.edge_count();
    // Sizes in blocks: S as loaded, R as one run materializes it, and
    // the landmark tables (2 directions × k landmarks × 8-byte entry
    // per node). `preprocess_blocks` is the one-time write cost of that
    // footprint — every block is written exactly once at build time.
    // v5 rows additionally count the shortcut overlay at its arc-record
    // size, the footprint the hierarchy adds on top of the relations.
    let s_blocks = edges.div_ceil(BLOCK / EdgeTuple::SIZE);
    let r_blocks = nodes.div_ceil(BLOCK / NodeTuple::SIZE);
    let landmark_blocks = (2 * LANDMARKS * nodes * 8).div_ceil(BLOCK);
    let index_blocks = s_blocks + r_blocks + landmark_blocks;
    let overlay_blocks = (layout.hierarchy.arc_count() * ARC_TUPLE_SIZE).div_ceil(BLOCK);

    algorithms
        .iter()
        .map(|&algorithm| {
            // A fresh database per algorithm: nobody inherits another
            // measurement's warm pool.
            // Cost-based joins: at metro scale the optimizer picks the
            // primary-key probe for each expansion, which is what makes
            // the access pattern local enough for layout to matter. The
            // paper's forced nested-loop rescans all of `S` every
            // iteration — the ablation benches keep that configuration.
            let mut db = Database::open_with_profile(&layout.graph, profile)
                .expect("metro fits the engine")
                .with_join_policy(JoinPolicy::CostBased)
                .with_partition_stats(
                    layout.regions as u64,
                    REGION_TARGET as u64,
                    layout.cut_edges as u64,
                )
                .with_landmarks(layout.tables.clone());
            let is_v4 = algorithm == Algorithm::AStar(AStarVersion::V4);
            let is_v5 = algorithm == Algorithm::AStar(AStarVersion::V5);
            if is_v5 {
                db = db.with_hierarchy(layout.hierarchy.clone());
            }
            let mut rec = Record {
                network,
                nodes,
                edges,
                layout: layout.label,
                workload,
                algorithm,
                queries: queries.len(),
                nodes_expanded: 0,
                block_reads: 0,
                physical_reads: 0,
                wall_ms: 0.0,
                index_blocks: index_blocks + if is_v5 { overlay_blocks } else { 0 },
                preprocess_blocks: index_blocks + if is_v5 { overlay_blocks } else { 0 },
                regions: layout.regions,
                cut_edges: layout.cut_edges,
                preprocess_ms: is_v4.then_some(layout.preprocess_ms),
                landmarks: is_v4.then_some(LANDMARKS),
                hierarchy_ms: is_v5.then_some(layout.hierarchy_ms),
                hierarchy_arcs: is_v5.then_some(layout.hierarchy.arc_count()),
            };
            for &(s, d) in queries {
                let misses_before = pool_misses(&db);
                let started = Instant::now();
                let trace: RunTrace = db.run(algorithm, s, d).unwrap_or_else(|e| {
                    panic!(
                        "{network} {} {} {}: {s:?}->{d:?} failed: {e}",
                        layout.label,
                        workload,
                        algorithm.label()
                    )
                });
                rec.wall_ms += started.elapsed().as_secs_f64() * 1e3;
                rec.nodes_expanded += trace.iterations;
                rec.block_reads += trace.io.block_reads;
                rec.physical_reads += pool_misses(&db) - misses_before;
            }
            rec
        })
        .collect()
}

fn run_scale(target: usize, network: &'static str) -> Vec<Record> {
    let spec = MetroSpec::with_nodes(target, PAPER_SEED);
    let generate_started = Instant::now();
    let metro = Metro::new(spec).expect("scaling specs are non-degenerate");
    let generate_ms = generate_started.elapsed().as_secs_f64() * 1e3;
    let n = metro.graph().node_count();

    let partition_started = Instant::now();
    let map = PartitionMap::build(metro.graph(), REGION_TARGET);
    let cut_edges = map.cut_edges(metro.graph());
    let regions = map.region_count();
    let (region_graph, region_new_of) = map.apply(metro.graph()).expect("permutation is valid");
    let partition_ms = partition_started.elapsed().as_secs_f64() * 1e3;

    let (shuffled_graph, shuffled_new_of) =
        shuffle_layout(metro.graph(), PAPER_SEED).expect("permutation is valid");

    println!(
        "  {network}: {} nodes, {} edges, {regions} regions ({cut_edges} cut edges), \
         generate {generate_ms:.0}ms, partition {partition_ms:.0}ms",
        n,
        metro.graph().edge_count()
    );

    let profile = StorageProfile::for_nodes(n);
    let mut records = Vec::new();
    for layout in [
        build_layout(
            "region",
            &metro,
            region_graph,
            &region_new_of,
            regions,
            cut_edges,
        ),
        build_layout(
            "shuffled",
            &metro,
            shuffled_graph,
            &shuffled_new_of,
            regions,
            cut_edges,
        ),
    ] {
        let report = layout.hierarchy.build_report();
        println!(
            "    {:<8} hierarchy_ms={:.1} (order {:.1}, fill {:.1}, customize {:.1}) \
             arcs={} triangles={}",
            layout.label,
            layout.hierarchy_ms,
            report.order_ms,
            report.fill_ms,
            report.customize_ms,
            layout.hierarchy.arc_count(),
            report.triangles
        );
        let mut rows = run_workload(
            network,
            &layout,
            profile,
            "regional",
            &layout.queries,
            &ALGORITHMS,
        );
        // The long-haul workload runs on the region layout only: the
        // diagonal's expansion counts are layout-independent, and v4 at
        // this trip length is expensive enough to run once per scale.
        if layout.label == "region" {
            rows.extend(run_workload(
                network,
                &layout,
                profile,
                "long-haul",
                &[layout.long_haul],
                &LONG_HAUL_ALGORITHMS,
            ));
        }
        for r in &rows {
            println!(
                "    {:<8} {:<9} {:<16} expanded={:<7} charged={:<8} physical={:<7} wall={:.1}ms",
                r.layout,
                r.workload,
                r.algorithm.label(),
                r.nodes_expanded,
                r.block_reads,
                r.physical_reads,
                r.wall_ms
            );
        }
        records.extend(rows);
    }
    records
}

fn main() {
    let smoke = std::env::var("SCALING_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let scales: Vec<(usize, &'static str)> = if smoke {
        SCALES
            .iter()
            .copied()
            .filter(|&(t, _)| t == SMOKE_TARGET)
            .collect()
    } else {
        SCALES.to_vec()
    };
    println!(
        "scaling: Dijkstra / A* v3-v5 regional, v4 vs v5 long-haul, region vs shuffled layout{}",
        if smoke { " (smoke scale only)" } else { "" }
    );

    let mut records = Vec::new();
    for (target, network) in scales {
        records.extend(run_scale(target, network));
    }

    // Acceptance bars, asserted here so a regressed artifact cannot be
    // committed silently.
    for (_, network) in SCALES.iter().filter(|(t, _)| !smoke || *t == SMOKE_TARGET) {
        let by = |workload: &str, v: AStarVersion| {
            records
                .iter()
                .find(|r| {
                    r.network == *network
                        && r.layout == "region"
                        && r.workload == workload
                        && r.algorithm == Algorithm::AStar(v)
                })
                .expect("record")
        };
        let (v3, v4) = (
            by("regional", AStarVersion::V3),
            by("regional", AStarVersion::V4),
        );
        assert!(
            v4.nodes_expanded < v3.nodes_expanded && v4.block_reads < v3.block_reads,
            "{network}: v4 ({} expanded / {} reads) must beat v3 ({} / {})",
            v4.nodes_expanded,
            v4.block_reads,
            v3.nodes_expanded,
            v3.block_reads
        );
        // The hierarchy claim: on the long-haul diagonal v5 strictly
        // beats v4 at every scale, and by at least 10x expansions at
        // 100k — the bar A* version 5 was built to clear.
        let (lh4, lh5) = (
            by("long-haul", AStarVersion::V4),
            by("long-haul", AStarVersion::V5),
        );
        assert!(
            lh5.nodes_expanded < lh4.nodes_expanded && lh5.block_reads < lh4.block_reads,
            "{network} long-haul: v5 ({} expanded / {} reads) must beat v4 ({} / {})",
            lh5.nodes_expanded,
            lh5.block_reads,
            lh4.nodes_expanded,
            lh4.block_reads
        );
        let speedup = lh4.nodes_expanded as f64 / lh5.nodes_expanded as f64;
        if *network == "metro-100k" {
            assert!(
                speedup >= 10.0,
                "{network} long-haul: v5 must expand at least 10x fewer nodes than v4 \
                 (got {speedup:.1}x: v4 {} vs v5 {})",
                lh4.nodes_expanded,
                lh5.nodes_expanded
            );
            // The size the top-down order bought (5.9 arcs per edge
            // before it, 3.9 with it): a later order may not quietly
            // give it back.
            let arcs = lh5
                .hierarchy_arcs
                .expect("v5 rows carry the overlay's size");
            assert!(
                arcs <= 4 * lh5.edges,
                "{network}: the overlay holds {arcs} arcs over {} edges, more than 4.0 per edge",
                lh5.edges
            );
        }
        println!(
            "  {network}: long-haul v5 expands {speedup:.1}x fewer nodes than v4 \
             ({} vs {})",
            lh5.nodes_expanded, lh4.nodes_expanded
        );
        // The layout claim: at every scale where the pool is smaller
        // than the hot set (10k up), the region layout takes fewer
        // physical reads than the shuffled control, summed over the
        // regional algorithms (the long-haul workload runs on one
        // layout only and is excluded).
        if *network != "metro-1k" {
            let sum = |layout: &str| -> u64 {
                records
                    .iter()
                    .filter(|r| {
                        r.network == *network && r.layout == layout && r.workload == "regional"
                    })
                    .map(|r| r.physical_reads)
                    .sum()
            };
            let (region, shuffled) = (sum("region"), sum("shuffled"));
            assert!(
                region < shuffled,
                "{network}: region layout must read fewer physical blocks \
                 ({region} vs shuffled {shuffled})"
            );
            println!(
                "  {network}: region layout reads {:.1}x fewer physical blocks than shuffled",
                shuffled as f64 / region as f64
            );
        }
    }

    let mut json = String::new();
    for r in &records {
        let _ = write!(
            json,
            r#"{{"benchmark":"scaling","network":"{}","nodes":{},"edges":{},"layout":"{}","workload":"{}","algorithm":"{}","queries":{},"nodes_expanded":{},"block_reads":{},"physical_reads":{},"wall_ms":{:.3},"index_blocks":{},"preprocess_blocks":{},"regions":{},"cut_edges":{}"#,
            r.network,
            r.nodes,
            r.edges,
            r.layout,
            r.workload,
            r.algorithm.label(),
            r.queries,
            r.nodes_expanded,
            r.block_reads,
            r.physical_reads,
            r.wall_ms,
            r.index_blocks,
            r.preprocess_blocks,
            r.regions,
            r.cut_edges,
        );
        if let (Some(pre), Some(k)) = (r.preprocess_ms, r.landmarks) {
            let _ = write!(json, r#","landmarks":{k},"preprocess_ms":{pre:.3}"#);
        }
        if let (Some(hms), Some(arcs)) = (r.hierarchy_ms, r.hierarchy_arcs) {
            let _ = write!(json, r#","hierarchy_arcs":{arcs},"hierarchy_ms":{hms:.3}"#);
        }
        json.push_str("}\n");
    }

    let name = if smoke {
        "BENCH_scaling_smoke.json"
    } else {
        "BENCH_scaling.json"
    };
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"));
    std::fs::write(&out, json).expect("write scaling artifact");
    println!("  wrote {}", out.display());
}

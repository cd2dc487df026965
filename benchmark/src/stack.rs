//! Set-up: the serving stack as we would ship it.
//!
//! One function builds everything a workload needs — network, region-major
//! layout, landmark tables, contraction hierarchy, storage engine, route
//! service — and times each public call on the way, so `setup_s` and the
//! per-layer set-up metrics (`graph.generate_ms`, `hierarchy.build_ms`, …)
//! come from the same pass.

use atis_algorithms::{AStarVersion, Algorithm, Database};
use atis_graph::{Graph, Metro, MetroSpec, PartitionMap};
use atis_hierarchy::{Hierarchy, HierarchyConfig};
use atis_obs::{SharedRegistry, SharedSink};
use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
use atis_serve::{RouteService, ServeConfig};
use atis_storage::{JoinPolicy, StorageProfile};
use std::time::Instant;

/// Seed of the network generator. The network is part of the system under
/// test, not of the traffic: `--seed` varies the traffic only, so runs
/// with different seeds measure the same database.
pub const NETWORK_SEED: u64 = 1993;
/// Storage region size (one `R` block of nodes) — the workspace convention.
pub const REGION_TARGET: usize = 256;
/// Landmarks for the v4 rung of the degrade ladder.
pub const LANDMARKS: usize = 8;
/// Service shape (ISSUE 11: "as we would ship it").
pub const WORKERS: usize = 2;
pub const SHARDS: usize = 8;
pub const BATCH_MAX: usize = 8;
pub const QUEUE_CAPACITY: usize = 256;
pub const CACHE_CAPACITY: usize = 1024;

/// The algorithm every request runs.
pub const PRIMARY: Algorithm = Algorithm::AStar(AStarVersion::V5);

/// Wall time of each set-up step, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub partition_ms: f64,
    pub landmarks_ms: f64,
    pub hierarchy_ms: f64,
    pub open_ms: f64,
    pub total_s: f64,
}

/// A running service plus the facts the harness needs about it.
pub struct Stack {
    pub service: RouteService,
    /// The region-major graph at install 0 (the oracle's base graph).
    pub graph: Graph,
    pub regions: usize,
    pub hierarchy_arcs: usize,
    pub pool_blocks: usize,
    pub graph_blocks: usize,
    pub times: SetupTimes,
}

pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_workers(WORKERS)
        .with_shards(SHARDS)
        .with_batch_max(BATCH_MAX)
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_cache_capacity(CACHE_CAPACITY)
        .with_algorithm(PRIMARY)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Builds the stack for a network of about `target_nodes` nodes. With
/// `observe` the service reports into a metrics registry and a trace sink
/// (the traced run); without, it runs exactly as `RouteService::new`.
pub fn build(target_nodes: usize, observe: Option<(SharedRegistry, SharedSink)>) -> Stack {
    let started = Instant::now();

    let t = Instant::now();
    let metro = Metro::new(MetroSpec::with_nodes(target_nodes, NETWORK_SEED))
        .expect("metro specs are non-degenerate");
    let generate_ms = ms_since(t);

    let t = Instant::now();
    let map = PartitionMap::build(metro.graph(), REGION_TARGET);
    let cut_edges = map.cut_edges(metro.graph());
    let regions = map.region_count();
    let (graph, _new_of) = map.apply(metro.graph()).expect("permutation is valid");
    let partition_ms = ms_since(t);
    drop(metro);

    let t = Instant::now();
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
    let landmarks_ms = ms_since(t);

    let t = Instant::now();
    let hierarchy =
        Hierarchy::build(&graph, HierarchyConfig::paper()).expect("metro graphs are non-empty");
    let hierarchy_ms = ms_since(t);
    let hierarchy_arcs = hierarchy.arc_count();

    let t = Instant::now();
    let profile = StorageProfile::for_nodes(graph.node_count());
    let db = Database::open_with_profile(&graph, profile)
        .expect("metro fits the engine")
        .with_join_policy(JoinPolicy::CostBased)
        .with_partition_stats(regions as u64, REGION_TARGET as u64, cut_edges as u64)
        .with_landmarks(tables)
        .with_hierarchy(hierarchy);
    let open_ms = ms_since(t);
    let pool_blocks = profile.buffer_blocks.unwrap_or(0);
    let graph_blocks = db.edges().block_count();

    let service = match observe {
        Some((metrics, sink)) => {
            RouteService::with_observability(db, serve_config(), Some(metrics), Some(sink))
        }
        None => RouteService::new(db, serve_config()),
    };

    Stack {
        service,
        graph,
        regions,
        hierarchy_arcs,
        pool_blocks,
        graph_blocks,
        times: SetupTimes {
            generate_ms,
            partition_ms,
            landmarks_ms,
            hierarchy_ms,
            open_ms,
            total_s: started.elapsed().as_secs_f64(),
        },
    }
}

//! Sharded-epoch serving correctness: a service with region-group
//! shards and batched expansion must be **answer-invisible** — every
//! route it returns is bit-identical (same node sequence, same `f64`
//! cost bits, same reachability) to the single-shard oracle service fed
//! the exact same update stream. Sharding changes *what survives in the
//! cache* and *how misses are expanded*, never what a route costs.
//!
//! The property runs under proptest over random grids, random jam/clear
//! update streams, and random query schedules interleaved with the
//! updates; deterministic tests pin the seam cases (routes crossing
//! shard boundaries, updates between queries of the same pair, a
//! decrease forcing the conservative sweep).

use atis::algorithms::{Algorithm, Database};
use atis::serve::{RouteService, ServeConfig, ServeError};
use atis::{CostModel, Grid, NodeId};
use proptest::prelude::*;
use std::time::Duration;

/// Routes with bounded retry on `SHED` (the suites run the services far
/// below admission limits, but a slow CI box can still race a worker).
fn route(service: &RouteService, from: NodeId, to: NodeId) -> atis::serve::RouteAnswer {
    loop {
        match service.route(from, to) {
            Ok(answer) => return answer,
            Err(ServeError::Shed { .. }) => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
}

/// Asserts two answers agree bit-for-bit on the route itself. Epoch and
/// cache provenance are allowed to differ — that is the sharding win
/// (the sharded service may serve from an older, still-valid epoch).
fn assert_same_route(
    sharded: &atis::serve::RouteAnswer,
    oracle: &atis::serve::RouteAnswer,
    context: &str,
) {
    match (&sharded.path, &oracle.path) {
        (None, None) => {}
        (Some(s), Some(o)) => {
            assert_eq!(s.nodes, o.nodes, "path diverged: {context}");
            assert_eq!(
                s.cost.to_bits(),
                o.cost.to_bits(),
                "cost bits diverged ({} vs {}): {context}",
                s.cost,
                o.cost
            );
        }
        _ => panic!(
            "reachability diverged (sharded {:?} vs oracle {:?}): {context}",
            sharded.path.is_some(),
            oracle.path.is_some()
        ),
    }
}

fn service(grid: &Grid, shards: usize, batch: usize) -> RouteService {
    RouteService::new(
        Database::open(grid.graph()).expect("grid fits the engine"),
        ServeConfig::default()
            .with_workers(2)
            .with_cache_capacity(64)
            .with_algorithm(Algorithm::Dijkstra)
            .with_shards(shards)
            .with_batch_max(batch),
    )
}

/// One scripted step: queries interleaved with an edge-cost update.
#[derive(Debug, Clone)]
struct Step {
    /// Horizontal or vertical grid edge, by (x, y, vertical).
    edge: (usize, usize, bool),
    /// Multiplier on the edge's current cost: > 1 jams, < 1 clears.
    factor: f64,
    /// Query pairs to run after the update installs.
    queries: Vec<(u32, u32)>,
}

fn arb_script(k: usize) -> impl Strategy<Value = Vec<Step>> {
    let n = (k * k) as u32;
    let step = (
        (0..k - 1, 0..k, 0u8..2).prop_map(|(x, y, d)| (x, y, d == 1)),
        // Mostly jams; the occasional clear exercises the conservative
        // decrease sweep on the sharded cache.
        prop_oneof![3 => 1.1f64..2.0, 1 => 0.5f64..0.95],
        prop::collection::vec((0..n, 0..n), 1..5),
    )
        .prop_map(|(edge, factor, queries)| Step {
            edge,
            factor,
            queries,
        });
    prop::collection::vec(step, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole property: cross-shard routes served by a sharded,
    /// batched service are bit-identical to the single-shard oracle
    /// under the same interleaved update stream.
    #[test]
    fn sharded_routes_match_the_single_shard_oracle(
        k in 4usize..10,
        seed in 0u64..500,
        shards in 2usize..8,
        batch in 1usize..4,
        script in (4usize..10).prop_flat_map(arb_script),
    ) {
        let grid = Grid::new(k, CostModel::TWENTY_PERCENT, seed).expect("k >= 2");
        let sharded = service(&grid, shards, batch);
        let oracle = service(&grid, 1, 1);

        for (i, step) in script.iter().enumerate() {
            let (x, y, vertical) = step.edge;
            // The script is drawn for a generic side length; clamp into
            // this grid and skip degenerate picks.
            let (x, y) = (x % k, y % k);
            let (u, v) = if vertical {
                if y + 1 >= k { continue; }
                (grid.node_at(x, y), grid.node_at(x, y + 1))
            } else {
                if x + 1 >= k { continue; }
                (grid.node_at(x, y), grid.node_at(x + 1, y))
            };
            let old = sharded
                .shard_snapshot()
                .db
                .graph()
                .edge_cost(u, v)
                .expect("grid edge exists");
            let new_cost = (old * step.factor).max(f64::MIN_POSITIVE);
            sharded
                .update_edge_cost(u, v, new_cost)
                .expect("sharded update");
            oracle
                .update_edge_cost(u, v, new_cost)
                .expect("oracle update");

            for &(s, d) in &step.queries {
                let s = NodeId(s % (k * k) as u32);
                let d = NodeId(d % (k * k) as u32);
                let a = route(&sharded, s, d);
                let b = route(&oracle, s, d);
                assert_same_route(
                    &a,
                    &b,
                    &format!("step {i}, {s:?}->{d:?}, k={k} seed={seed} shards={shards} batch={batch}"),
                );
            }
        }
    }
}

/// A route that crosses every region group stays bit-identical to the
/// oracle across updates that touch only some of its shards.
#[test]
fn a_cross_shard_diagonal_survives_partial_invalidation_bit_identically() {
    let k = 16;
    let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let sharded = service(&grid, 4, 4);
    let oracle = service(&grid, 1, 1);
    let corner = |x: usize, y: usize| grid.node_at(x, y);
    let pairs = [
        (corner(0, 0), corner(k - 1, k - 1)),
        (corner(k - 1, 0), corner(0, k - 1)),
        (corner(0, k / 2), corner(k - 1, k / 2)),
    ];

    for round in 0..6 {
        // Jam one edge per round, sweeping across the grid so different
        // rounds touch different shards.
        let x = (round * 3) % (k - 1);
        let y = (round * 5) % k;
        let (u, v) = (corner(x, y), corner(x + 1, y));
        let old = sharded
            .shard_snapshot()
            .db
            .graph()
            .edge_cost(u, v)
            .expect("edge");
        sharded.update_edge_cost(u, v, old * 1.5).expect("update");
        oracle.update_edge_cost(u, v, old * 1.5).expect("update");

        for &(s, d) in &pairs {
            let a = route(&sharded, s, d);
            let b = route(&oracle, s, d);
            assert_same_route(&a, &b, &format!("round {round}, {s:?}->{d:?}"));
        }
    }
}

/// A cost decrease (traffic clearing) must trigger the conservative
/// sweep: the sharded cache may not keep serving the old, now possibly
/// suboptimal route.
#[test]
fn a_cost_decrease_is_swept_conservatively() {
    let k = 10;
    let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 11).expect("grid");
    let sharded = service(&grid, 4, 2);
    let oracle = service(&grid, 1, 1);
    let from = grid.node_at(0, 0);
    let to = grid.node_at(k - 1, k - 1);

    // Prime both caches.
    assert_same_route(
        &route(&sharded, from, to),
        &route(&oracle, from, to),
        "prime",
    );

    // Clear a band of edges down the middle to one-tenth cost: the
    // optimal route almost certainly changes.
    for y in 0..k {
        let (u, v) = (grid.node_at(k / 2 - 1, y), grid.node_at(k / 2, y));
        let old = sharded
            .shard_snapshot()
            .db
            .graph()
            .edge_cost(u, v)
            .expect("edge");
        sharded.update_edge_cost(u, v, old * 0.1).expect("update");
        oracle.update_edge_cost(u, v, old * 0.1).expect("update");
    }

    assert_same_route(
        &route(&sharded, from, to),
        &route(&oracle, from, to),
        "after clearing",
    );
}

/// An `UPDATE` of a valid pair that has no edge between it changes no
/// tuple, so it must install nothing: same epoch, same shard versions,
/// nothing swept — the warm routes keep hitting the cache. (It used to
/// install an epoch classed as a decrease from `∞`, which bumped every
/// shard and dropped every cached route dearer than the typed cost.)
#[test]
fn an_update_of_a_pair_with_no_edge_installs_nothing() {
    use atis::serve::RouteOutcome;

    let k = 16;
    let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let sharded = service(&grid, 4, 1);
    let pairs = [
        (grid.node_at(0, 0), grid.node_at(k - 1, k - 1)),
        (grid.node_at(k - 1, 0), grid.node_at(0, k - 1)),
        (grid.node_at(0, k / 2), grid.node_at(k - 1, k / 2)),
    ];
    for &(s, d) in &pairs {
        route(&sharded, s, d);
    }
    let before = sharded.shard_snapshot();
    let swept = sharded.cache().stats().invalidations;

    let (u, far) = (grid.node_at(0, 0), grid.node_at(k - 1, k - 1));
    assert!(before.db.graph().edge_cost(u, far).is_none());
    let update = sharded.update_edge_cost(u, far, 0.5).expect("a valid pair");
    assert_eq!((update.updated, update.epoch), (0, before.install()));
    assert_eq!(update.arcs_examined, 0);

    let after = sharded.shard_snapshot();
    assert_eq!(after.install(), before.install());
    assert_eq!(after.epochs.versions(), before.epochs.versions());
    assert_eq!(sharded.cache().stats().invalidations, swept);
    for &(s, d) in &pairs {
        assert_eq!(route(&sharded, s, d).outcome, RouteOutcome::CacheHit);
    }
    // Invalid input is still refused, edge or no edge.
    assert!(sharded.update_edge_cost(u, far, f64::NAN).is_err());
    assert!(sharded.update_edge_cost(u, far, -1.0).is_err());
}

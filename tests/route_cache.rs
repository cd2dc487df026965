//! The invalidation-aware route cache, observed end to end through the
//! serving layer and the metrics registry (the counters the route
//! server's `STATS` command exposes), and the soundness of its
//! geometric bound under seeded update scripts.

use atis::algorithms::memory::dijkstra_pair;
use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::graph::metro::CORE;
use atis::graph::{Graph, Metro, MetroSpec, NodeId, PartitionMap, SplitMix64};
use atis::hierarchy::{Hierarchy, HierarchyConfig};
use atis::obs::MetricsRegistry;
use atis::serve::{RouteAnswer, RouteOutcome, RouteService, ServeConfig};
use atis::{CostModel, Grid, QueryKind};

fn observed_service(cache_capacity: usize) -> (RouteService, Grid, atis::obs::SharedRegistry) {
    let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 21).unwrap();
    let registry = MetricsRegistry::shared();
    let db = Database::open(grid.graph())
        .unwrap()
        .with_metrics(registry.clone());
    let service = RouteService::with_observability(
        db,
        ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(cache_capacity),
        Some(registry.clone()),
        None,
    );
    (service, grid, registry)
}

#[test]
fn hits_are_bit_identical_and_counted() {
    let (service, grid, registry) = observed_service(64);
    let (s, d) = grid.query_pair(QueryKind::Diagonal);

    let fresh = service.route(s, d).unwrap();
    let hit = service.route(s, d).unwrap();
    assert!(!fresh.cached && hit.cached);

    let fresh_path = fresh.path.unwrap();
    let hit_path = hit.path.unwrap();
    assert_eq!(fresh_path.nodes, hit_path.nodes);
    assert_eq!(fresh_path.cost.to_bits(), hit_path.cost.to_bits());
    assert_eq!(fresh.iterations, hit.iterations);
    assert_eq!(fresh.cost_units.to_bits(), hit.cost_units.to_bits());

    assert_eq!(registry.counter("cache_hits_total"), 1);
    assert_eq!(registry.counter("cache_misses_total"), 1);
    assert_eq!(registry.counter("cache_invalidations_total"), 0);
    // The cache hit ran no algorithm: exactly one database run happened.
    assert_eq!(registry.counter("runs_total"), 1);
}

#[test]
fn an_update_invalidates_exactly_the_affected_entries() {
    let (service, grid, registry) = observed_service(64);
    // Three disjoint-ish queries: one whose path will be jammed, two
    // whose paths avoid the jammed corner entirely.
    let jammed = (grid.node_at(0, 0), grid.node_at(0, 7));
    let far_a = (grid.node_at(6, 0), grid.node_at(7, 7));
    let far_b = (grid.node_at(7, 0), grid.node_at(5, 7));

    let jammed_path = service.route(jammed.0, jammed.1).unwrap().path.unwrap();
    service.route(far_a.0, far_a.1).unwrap();
    service.route(far_b.0, far_b.1).unwrap();
    assert_eq!(registry.counter("cache_misses_total"), 3);

    // Jam the first hop of the first route at a cost far above any cached
    // total: the on-path entry must drop, the far entries must survive
    // into the new epoch without recomputation. The install only logs
    // itself; the lookups that follow judge each entry by it.
    let (u, v) = jammed_path.hops().next().unwrap();
    let update = service.update_edge_cost(u, v, 1000.0).unwrap();
    assert_eq!(update.epoch, 1);
    assert_eq!(registry.counter("cache_invalidations_total"), 0);

    // Survivors hit at the new epoch; the jammed query recomputes.
    assert!(service.route(far_a.0, far_a.1).unwrap().cached);
    assert!(service.route(far_b.0, far_b.1).unwrap().cached);
    let recomputed = service.route(jammed.0, jammed.1).unwrap();
    assert!(!recomputed.cached);
    assert_ne!(recomputed.path.unwrap().nodes, jammed_path.nodes);
    assert_eq!(registry.counter("cache_invalidations_total"), 1);
    let stats = service.cache().stats();
    assert_eq!(stats.promotions, 2);

    // A cheap update (below every cached total) invalidates everything.
    let far_edge = (grid.node_at(3, 3), grid.node_at(3, 4));
    service
        .update_edge_cost(far_edge.0, far_edge.1, 0.01)
        .unwrap();
    let now = service.shard_snapshot().epochs;
    for (s, d) in [jammed, far_a, far_b] {
        assert!(service.cache().lookup_vec(s, d, &now).is_none());
    }
    assert_eq!(service.cache().len(), 0);
    assert_eq!(registry.counter("cache_invalidations_total"), 1 + 3);
}

#[test]
fn promoted_entries_still_match_fresh_computation() {
    let (service, grid, _registry) = observed_service(64);
    let (s, d) = (grid.node_at(7, 0), grid.node_at(7, 7));
    let cached = service.route(s, d).unwrap();
    let cached_path = cached.path.unwrap();

    // An irrelevant, expensive jam far from the bottom-row route.
    let update = service
        .update_edge_cost(grid.node_at(0, 0), grid.node_at(0, 1), 900.0)
        .unwrap();
    let hit = service.route(s, d).unwrap();
    assert!(
        hit.cached,
        "the promoted entry must hit at epoch {}",
        update.epoch
    );
    assert_eq!(hit.epoch, update.epoch);

    // Oracle: recompute from scratch against the post-update graph.
    let mut graph = grid.graph().clone();
    graph
        .set_edge_cost(grid.node_at(0, 0), grid.node_at(0, 1), 900.0)
        .unwrap();
    let oracle = Database::open(&graph).unwrap();
    let expected = oracle.run(service.algorithm(), s, d).unwrap().path.unwrap();
    let hit_path = hit.path.unwrap();
    assert_eq!(hit_path.nodes, expected.nodes);
    assert_eq!(hit_path.cost.to_bits(), expected.cost.to_bits());
    assert_eq!(hit_path.nodes, cached_path.nodes);
}

#[test]
fn stats_snapshot_orders_cache_counters_deterministically() {
    let (service, grid, registry) = observed_service(64);
    let (s, d) = grid.query_pair(QueryKind::SemiDiagonal);
    service.route(s, d).unwrap();
    service.route(s, d).unwrap();
    let path = service.route(s, d).unwrap().path.unwrap();
    let (u, v) = path.hops().next().unwrap();
    service.update_edge_cost(u, v, 750.0).unwrap();
    // The next lookup of the key replays the jam and drops the entry.
    let now = service.shard_snapshot().epochs;
    assert!(service.cache().lookup_vec(s, d, &now).is_none());

    let snapshot = registry.snapshot_json();
    // BTreeMap ordering: the three cache counters appear sorted, ahead of
    // the i/o and serve counters.
    let hits = snapshot.find(r#""cache_hits_total":"#).unwrap();
    let invalidations = snapshot.find(r#""cache_invalidations_total":"#).unwrap();
    let misses = snapshot.find(r#""cache_misses_total":"#).unwrap();
    let serve = snapshot.find(r#""serve_requests_total":"#).unwrap();
    assert!(
        hits < invalidations && invalidations < misses && misses < serve,
        "{snapshot}"
    );
    assert!(snapshot.contains(r#""cache_hits_total":2"#), "{snapshot}");
    assert!(snapshot.contains(r#""cache_misses_total":2"#), "{snapshot}");
    assert!(
        snapshot.contains(r#""cache_invalidations_total":1"#),
        "{snapshot}"
    );

    // Identical registry contents render identically, touch order aside.
    assert_eq!(snapshot, registry.snapshot_json());
}

#[test]
fn a_cleared_jam_far_from_cached_routes_keeps_them_cached() {
    let (service, grid, registry) = observed_service(64);
    let far_a = (grid.node_at(7, 0), grid.node_at(7, 3));
    let far_b = (grid.node_at(6, 0), grid.node_at(4, 2));
    for (s, d) in [far_a, far_b] {
        assert!(!service.route(s, d).unwrap().cached);
    }
    // Jam the opposite corner, then clear it back to its base cost: the
    // clear is a decrease below both cached totals, but any route
    // through the corner edge would first have to cross the grid.
    let (u, v) = (grid.node_at(0, 6), grid.node_at(0, 7));
    let base = grid.graph().edge_cost(u, v).unwrap();
    service.update_edge_cost(u, v, 900.0).unwrap();
    let cleared = service.update_edge_cost(u, v, base).unwrap();
    assert!(cleared.new_cost < cleared.old_cost);
    for (s, d) in [far_a, far_b] {
        let answer = service.route(s, d).unwrap();
        assert!(answer.cached, "the clear must not evict {s:?}->{d:?}");
        assert_eq!(answer.epoch, cleared.epoch, "promoted by the clear's sweep");
        assert!(base < answer.path.unwrap().cost);
    }
    assert_eq!(registry.counter("cache_invalidations_total"), 0);
    // One shard: each of the two sweeps promoted both entries.
    assert_eq!(registry.counter("cache_promotions_total"), 4);
    assert_eq!(service.cache().stats().promotions, 4);
}

#[test]
fn a_cleared_jam_between_a_cached_pairs_endpoints_still_drops_it() {
    let (service, grid, registry) = observed_service(64);
    let (s, d) = (grid.node_at(0, 0), grid.node_at(0, 7));
    let direct = service.route(s, d).unwrap().path.unwrap();
    // Jam a hop of the route: the pair is recomputed around the jam and
    // cached again at the detour's cost.
    let (u, v) = direct.hops().nth(3).unwrap();
    let base = grid.graph().edge_cost(u, v).unwrap();
    service.update_edge_cost(u, v, 900.0).unwrap();
    let detour = service.route(s, d).unwrap();
    assert!(!detour.cached);
    let detour = detour.path.unwrap();
    assert!(detour.cost > direct.cost && detour.hops().all(|hop| hop != (u, v)));
    assert!(service.route(s, d).unwrap().cached);
    // Clearing the jam reopens the direct route, which lies on the
    // straight line between the pair's endpoints: the bound cannot rule
    // it out, so the detour must drop.
    let before = registry.counter("cache_invalidations_total");
    service.update_edge_cost(u, v, base).unwrap();
    let after = service.route(s, d).unwrap();
    assert!(!after.cached);
    assert_eq!(registry.counter("cache_invalidations_total"), before + 1);
    let after = after.path.unwrap();
    assert_eq!(after.nodes, direct.nodes);
    assert_eq!(after.cost.to_bits(), direct.cost.to_bits());
}

/// The bit-identity rule of `tests/hierarchy_identity.rs`: `answer` has
/// the oracle's cost on `graph`, follows edges of `graph`, and reports
/// the bit-exact left-to-right sum of their costs.
fn assert_identical(answer: &RouteAnswer, graph: &Graph, s: NodeId, d: NodeId, context: &str) {
    let path = answer
        .path
        .as_ref()
        .expect("metro networks are strongly connected");
    let oracle = dijkstra_pair(graph, s, d).expect("oracle finds the route");
    assert_eq!((path.source(), path.destination()), (s, d), "{context}");
    assert!(
        (path.cost - oracle.cost).abs() < 1e-9,
        "{context}: cost {} != oracle {} for {s:?}->{d:?}",
        path.cost,
        oracle.cost
    );
    let repriced: f64 = path
        .nodes
        .windows(2)
        .map(|w| {
            graph
                .edge_cost(w[0], w[1])
                .unwrap_or_else(|| panic!("{context}: non-edge {:?}->{:?}", w[0], w[1]))
        })
        .sum();
    assert_eq!(repriced.to_bits(), path.cost.to_bits(), "{context}");
}

/// The street row through `node`, both directions, from its city's
/// west edge to its east edge: a lane that sub-geometric decreases turn
/// into a fast road one edge at a time.
fn fast_lane(metro: &Metro, node: NodeId) -> Vec<(NodeId, NodeId)> {
    let ((cx, cy), (row, _)) = (metro.city_of(node), metro.cell_of(node));
    let at = |col| metro.node_at(cx, cy, row, col);
    (0..CORE - 1)
        .flat_map(|col| [(at(col), at(col + 1)), (at(col + 1), at(col))])
        .collect()
}

/// One seeded script on a 3 × 2-city metro: queries repeat a pool of
/// local trips so the cache hits, and updates jam a hop of a pooled
/// route, clear the oldest jam, or drop the next edge of a fast lane
/// below its straight-line length, which lowers the cost floor the
/// sweeps bound routes by. Along a lane, routes cost less than their
/// straight-line span, so only a floor that has fallen keeps the bound
/// sound.
///
/// With `algorithm` v5 (which re-prices its routes in `f64`) every
/// answer must pass the bit-identity rule at the latest install, and
/// every cache hit at the epoch it claims too. With Dijkstra, whose
/// database-resident labels are `f32` sums, every cache hit must carry
/// the cost bits a fresh run at the latest install computes. Returns
/// (cache hits, hits served right after a decrease).
fn floor_script(metro: &Metro, algorithm: Algorithm, shards: usize, seed: u64) -> (u64, u64) {
    let graph = metro.graph();
    let mut db = Database::open(graph).unwrap();
    if algorithm == Algorithm::AStar(AStarVersion::V5) {
        db = db.with_hierarchy(Hierarchy::build(graph, HierarchyConfig::paper()).unwrap());
    }
    let service = RouteService::new(
        db,
        ServeConfig::default()
            .with_workers(1)
            .with_algorithm(algorithm)
            .with_shards(shards)
            .with_cache_capacity(256),
    );
    let mut rng = SplitMix64::new(seed);
    let map = PartitionMap::build(graph, 256);
    let mut regions: Vec<Vec<NodeId>> = vec![Vec::new(); map.region_count()];
    for id in graph.node_ids() {
        regions[map.region_of(id) as usize].push(id);
    }
    let mut pool: Vec<(NodeId, NodeId)> = Vec::new();
    while pool.len() < 16 {
        let r = &regions[rng.next_below(regions.len() as u64) as usize];
        let mut pick = || r[rng.next_below(r.len() as u64) as usize];
        let (s, d) = (pick(), pick());
        if s != d {
            pool.push((s, d));
        }
    }
    // Every install's graph, indexed by epoch, and a database at the
    // latest one.
    let mut epochs: Vec<Graph> = vec![graph.clone()];
    let mut oracle = Database::open(graph).unwrap();
    let mut jams: Vec<(NodeId, NodeId, f64)> = Vec::new();
    let mut lane: Vec<(NodeId, NodeId)> = Vec::new();
    let (mut hits, mut hits_after_decrease) = (0u64, 0u64);
    for step in 0..30 {
        let now = epochs.last().unwrap().clone();
        let (u, v, cost) = match rng.next_below(4) {
            0 if !jams.is_empty() => jams.remove(0),
            0 | 1 => {
                let (s, d) = pool[rng.next_below(pool.len() as u64) as usize];
                let route = dijkstra_pair(&now, s, d).unwrap();
                let hop = rng.next_below(route.nodes.len() as u64 - 1) as usize;
                let (u, v) = route.hops().nth(hop).unwrap();
                if jams.iter().any(|&(a, b, _)| (a, b) == (u, v)) {
                    continue;
                }
                let cost = now.edge_cost(u, v).unwrap();
                jams.push((u, v, cost));
                (u, v, cost * (2.0 + 4.0 * rng.next_f64()))
            }
            _ => {
                if lane.is_empty() {
                    lane = fast_lane(metro, pool[rng.next_below(pool.len() as u64) as usize].0);
                }
                let (u, v) = lane.remove(0);
                let length = now.point(u).euclidean(&now.point(v));
                (u, v, length * (0.05 + 0.85 * rng.next_f64()))
            }
        };
        let decrease = cost < now.edge_cost(u, v).unwrap();
        let update = service.update_edge_cost(u, v, cost).unwrap();
        assert_eq!(
            update.epoch as usize,
            epochs.len(),
            "one install per update"
        );
        let mut next = now;
        next.set_edge_cost(u, v, cost).unwrap();
        epochs.push(next);
        oracle.update_edge_cost(u, v, cost).unwrap();
        let latest = epochs.last().unwrap();
        for _ in 0..8 {
            let (s, d) = pool[rng.next_below(pool.len() as u64) as usize];
            let answer = service.route(s, d).unwrap();
            let cached = answer.outcome == RouteOutcome::CacheHit;
            let context = format!("{algorithm:?}, {shards} shard(s), seed {seed}, step {step}");
            if algorithm == Algorithm::Dijkstra {
                if cached {
                    let fresh = oracle.run(algorithm, s, d).unwrap().path_cost();
                    let served = answer.path.as_ref().unwrap().cost;
                    assert_eq!(
                        served.to_bits(),
                        fresh.to_bits(),
                        "{context}: {served} vs {fresh}"
                    );
                }
            } else {
                assert_identical(&answer, latest, s, d, &context);
                if cached {
                    let claimed = &epochs[answer.epoch as usize];
                    assert_identical(&answer, claimed, s, d, &format!("{context}, claimed"));
                }
            }
            hits += u64::from(cached);
            hits_after_decrease += u64::from(cached && decrease);
        }
    }
    (hits, hits_after_decrease)
}

#[test]
fn cache_hits_stay_exact_under_clears_and_sub_geometric_decreases() {
    let metro = Metro::new(MetroSpec::new(3, 2, 1993)).unwrap();
    assert_eq!(metro.graph().cost_floor(), 1.0);
    let v5 = Algorithm::AStar(AStarVersion::V5);
    // The database-resident Dijkstra is slow in debug builds: one seed.
    for (algorithm, shards, seeds) in [(v5, 1, 0..3), (v5, 8, 0..3), (Algorithm::Dijkstra, 1, 0..1)]
    {
        let (mut hits, mut after_decrease) = (0, 0);
        for seed in seeds {
            let (h, a) = floor_script(&metro, algorithm, shards, seed);
            hits += h;
            after_decrease += a;
        }
        // The scripts reach the bound: decreases leave routes cached.
        assert!(
            after_decrease > 0,
            "{algorithm:?}, {shards} shard(s): {hits} hits, {after_decrease} after a decrease"
        );
    }
}

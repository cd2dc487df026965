//! Loom model tests for the serving layer's load-bearing races.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI job);
//! the whole serving crate then builds against `loom::sync` through the
//! `crate::sync` shim, so these tests exercise the *real*
//! `ShardedEpochDb` / `RouteCache` / `RouteService` code under perturbed
//! schedules — not test doubles. The vendored loom stand-in explores
//! bounded randomized interleavings (see `vendor/loom`); upstream loom
//! would explore exhaustively with the same test source.
#![cfg(loom)]

use atis_algorithms::Database;
use atis_graph::{CostModel, Grid, NodeId, Path, QueryKind};
use atis_serve::sync::Level;
use atis_serve::{
    Admission, BreakerConfig, BreakerState, CachedRoute, CircuitBreaker, ProbeGuard, RouteCache,
    RouteService, ServeConfig, ServeError, ShardMap, ShardedEpochDb,
};
use std::sync::Arc;

fn small_db() -> (Database, NodeId, NodeId) {
    let grid = Grid::new(4, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    (Database::open(grid.graph()).expect("open"), s, d)
}

/// Race: concurrent submitters against a 1-worker, capacity-1 queue.
///
/// Invariants: every admitted ticket resolves (no lost wakeup, no
/// deadlocked `Ticket::wait`), every rejection is a typed `Shed`, and
/// the admitted + rejected counts add up — no request vanishes.
#[test]
fn admission_queue_reject_path() {
    let (base, s, d) = small_db();

    loom::model(move || {
        let service = Arc::new(RouteService::new(
            base.clone(),
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0),
        ));

        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let service = service.clone();
                loom::thread::spawn(move || match service.submit(s, d) {
                    Ok(ticket) => {
                        let answer = ticket.wait().expect("admitted request must resolve");
                        assert!(answer.path.is_some(), "grid pair is reachable");
                        assert_eq!(answer.epoch, 0);
                        1u32
                    }
                    Err(e) => {
                        assert!(matches!(e, ServeError::Shed { .. }), "unexpected: {e}");
                        0u32
                    }
                })
            })
            .collect();

        let admitted: u32 = submitters
            .into_iter()
            .map(|h| h.join().expect("join"))
            .sum();
        // At least one request always fits an empty queue; the rest is
        // schedule-dependent, but nothing may be lost.
        assert!((1..=3).contains(&admitted));
    });
}

/// Race: concurrent typed failures and a success racing an epoch
/// install against one circuit breaker.
///
/// Invariants under every interleaving:
/// * at most one of the racing failures reports the `closed → open`
///   transition (the trip fires exactly once, never twice);
/// * the machine is never corrupted — after the race it can always be
///   driven deterministically through trip → probe → re-close;
/// * the epoch install is independent of breaker state (the update
///   lands regardless of how the race resolved).
#[test]
fn breaker_trip_probe_reclose_vs_epoch_install() {
    let (base, _, _) = small_db();
    let u = NodeId(0);
    let v = base.graph().neighbors(u)[0].to;

    loom::model(move || {
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_ticks: 10,
            probes: 1,
        }));
        let epochs = Arc::new(ShardedEpochDb::new(base.clone(), ShardMap::single(16)));

        let failers: Vec<_> = (0..2)
            .map(|_| {
                let breaker = breaker.clone();
                loom::thread::spawn(move || breaker.on_failure(5).is_some())
            })
            .collect();
        let closer = {
            let breaker = breaker.clone();
            loom::thread::spawn(move || breaker.on_success())
        };
        let installer = {
            let epochs = epochs.clone();
            loom::thread::spawn(move || {
                epochs.update_edge_cost(u, v, 123.0).expect("update");
            })
        };

        let trips: usize = failers
            .into_iter()
            .map(|h| usize::from(h.join().expect("failer")))
            .sum();
        closer.join().expect("closer");
        installer.join().expect("installer");
        assert!(trips <= 1, "the trip transition fired {trips} times");
        assert_eq!(
            epochs.snapshot().install(),
            1,
            "the update must land regardless"
        );

        // Deterministic tail: whatever the race left behind, the machine
        // must still trip, probe, and re-close cleanly.
        let mut tripped = matches!(breaker.state(), BreakerState::Open { .. });
        for now in 0..4 {
            if tripped {
                break;
            }
            tripped = breaker.on_failure(now).is_some();
        }
        assert!(tripped, "bounded failures must trip the breaker");
        let until = match breaker.state() {
            BreakerState::Open { until } => until,
            other => panic!("expected open, got {other:?}"),
        };
        let (admission, transition) = breaker.admit(until);
        assert_eq!(admission, Admission::Probe);
        assert_eq!(
            transition.expect("open -> half-open").to,
            BreakerState::HalfOpen
        );
        let reclose = breaker.on_success().expect("half-open -> closed");
        assert_eq!(reclose.to, BreakerState::Closed);
        assert_eq!(breaker.state(), BreakerState::Closed);
    });
}

/// Race: an aborted half-open probe (guard dropped without a verdict)
/// against an unrelated failure report landing on the same breaker.
///
/// Invariants under every interleaving:
/// * the machine never wedges — after the race a probe slot is always
///   available again (either the breaker re-opened, whose window then
///   elapses into a fresh probe, or the released slot is re-admitted);
/// * the aborted probe never *closes* the breaker — only a success
///   verdict may do that.
#[test]
fn aborted_probe_release_vs_concurrent_failure() {
    loom::model(|| {
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_ticks: 10,
            probes: 1,
        }));
        // Trip and half-open: tick 0 failure opens until 10; the admit
        // at 10 takes the probe slot.
        breaker.on_failure(0);
        let (admission, _) = breaker.admit(10);
        assert_eq!(admission, Admission::Probe);

        let aborter = {
            let breaker = breaker.clone();
            loom::thread::spawn(move || {
                // The probe run is shed on its deadline: no verdict.
                drop(ProbeGuard::new(
                    &*breaker,
                    Admission::Probe,
                    &mut Level::root(),
                ));
            })
        };
        let failer = {
            let breaker = breaker.clone();
            loom::thread::spawn(move || breaker.on_failure(11))
        };

        aborter.join().expect("aborter");
        failer.join().expect("failer");

        match breaker.state() {
            // The failure won while half-open: re-opened; the window
            // elapsing must yield a fresh probe.
            BreakerState::Open { until } => {
                assert_eq!(breaker.admit(until).0, Admission::Probe);
            }
            // The release won and the failure saw half-open too — or
            // raced to a no-op; either way the freed slot must be
            // re-admittable, never denied forever.
            BreakerState::HalfOpen => {
                assert_eq!(breaker.admit(12).0, Admission::Probe);
            }
            BreakerState::Closed => panic!("an aborted probe must never close the breaker"),
        }
    });
}

/// Race: a sharded install (`ShardedEpochDb::update_edge_cost`) against
/// a batched worker's snapshot-then-read sequence.
///
/// The batched path pins ONE `ShardSnapshot` per dequeued batch and
/// serves every member from it; the hazard is a torn install — the new
/// database observed with the old epoch vector (or vice versa), which
/// would let a stale-stamped cache hit survive a sweep it should not
/// have. Invariants under every interleaving:
///
/// * database and vector always agree: install 0 ⇔ pre-update cost and
///   untouched endpoint-shard versions; install 1 ⇔ post-update cost
///   and both endpoint shards bumped;
/// * a shard the update never touched stays at version 0 throughout;
/// * the install counter observed by one reader never goes backwards.
#[test]
fn shard_install_vs_batched_read_race() {
    // A grid big enough that the region partitioner yields at least two
    // shards (regions target 256 nodes): 24x24 = 576 nodes.
    let grid = Grid::new(24, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let base = Database::open(grid.graph()).expect("open");
    let map = ShardMap::build(base.graph(), 4);
    assert!(
        map.shard_count() >= 2,
        "model needs a real multi-shard map, got {}",
        map.shard_count()
    );
    let u = NodeId(0);
    let v = base.graph().neighbors(u)[0].to;
    let shard_u = map.shard_of(u);
    let shard_v = map.shard_of(v);
    // A node guaranteed to live in a shard the update does not touch.
    let far = (0..base.graph().node_count() as u32)
        .map(NodeId)
        .find(|&n| map.shard_of(n) != shard_u && map.shard_of(n) != shard_v)
        .expect("multi-shard map has an untouched shard");
    let far_shard = map.shard_of(far);
    let old_cost = base.graph().edge_cost(u, v).expect("edge");
    let new_cost = old_cost + 50.0;

    loom::model(move || {
        let db = Arc::new(ShardedEpochDb::new(base.clone(), map.clone()));

        let writer = {
            let db = db.clone();
            loom::thread::spawn(move || {
                let installed = db.update_edge_cost(u, v, new_cost).expect("install");
                assert_eq!(installed.update.epoch, 1);
                assert!(installed.shards.contains(&shard_u));
            })
        };
        let reader = {
            let db = db.clone();
            loom::thread::spawn(move || {
                let mut last_install = 0;
                for _ in 0..3 {
                    // One snapshot per batch: db + vector under one
                    // lock acquisition (the consistency rule).
                    let snap = db.snapshot();
                    let seen = snap.db.graph().edge_cost(u, v).expect("edge");
                    let install = snap.install();
                    let (want_cost, want_version) = if install == 0 {
                        (old_cost, 0)
                    } else {
                        (new_cost, 1)
                    };
                    assert_eq!(
                        seen.to_bits(),
                        want_cost.to_bits(),
                        "torn install: install {install} with cost {seen}"
                    );
                    assert_eq!(
                        snap.epochs.version(shard_u),
                        want_version,
                        "vector behind the database at install {install}"
                    );
                    assert_eq!(
                        snap.epochs.version(shard_v),
                        want_version,
                        "endpoint shard missed its bump at install {install}"
                    );
                    assert_eq!(
                        snap.epochs.version(far_shard),
                        0,
                        "an untouched shard was bumped"
                    );
                    assert!(install >= last_install, "install counter went backwards");
                    last_install = install;
                }
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");
        assert_eq!(db.snapshot().install(), 1);
    });
}

/// Race: an update installing and then sweeping the cache, while a
/// reader pins snapshots and looks three one-hop routes up — one over
/// the updated edge, one beside it (same shards), one far from it
/// (other shards). `clear` picks a decrease; otherwise the edge jams.
///
/// Invariants under every interleaving, for a snapshot at or after the
/// update's install: the on-edge route is never served; a hit on the
/// neighbouring route was promoted by this sweep (it carries the
/// update's install, same cost bits); and after a decrease — which can
/// undercut a route anywhere — so was a hit on the far route: the
/// install takes every entry out of service until the sweep has
/// re-validated it. Either way the sweep drops exactly the on-edge
/// route.
fn install_and_sweep_vs_lookup_race(clear: bool) {
    let grid = Grid::new(24, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let base = Database::open(grid.graph()).expect("open");
    let map = ShardMap::build(base.graph(), 4);
    let edge = (grid.node_at(23, 22), grid.node_at(23, 23));
    let beside = (grid.node_at(22, 22), grid.node_at(22, 23));
    let far = (grid.node_at(0, 0), grid.node_at(0, 1));
    let shards = |(a, b): (NodeId, NodeId)| map.path_shards(&[a, b]);
    assert_eq!(shards(beside), shards(edge));
    assert!(shards(far).iter().all(|f| !shards(edge).contains(f)));
    let jammed = base.graph().edge_cost(edge.0, edge.1).expect("edge") + 50.0;

    loom::model(move || {
        let db = Arc::new(ShardedEpochDb::new(base.clone(), map.clone()));
        // Install 1 jams the edge, so install 2 can clear it part of the
        // way and still stay above the cached routes' totals.
        db.update_edge_cost(edge.0, edge.1, jammed).expect("jam");
        let pinned = db.snapshot();
        let cache = Arc::new(RouteCache::new(8));
        for (a, b) in [edge, beside, far] {
            let route = CachedRoute {
                path: Path {
                    nodes: vec![a, b],
                    cost: pinned.db.graph().edge_cost(a, b).expect("edge"),
                },
                epoch: pinned.install(),
                iterations: 3,
                cost_units: 10.0,
            };
            let stamps = map.path_shards(&[a, b]).into_iter();
            let stamps = stamps.map(|shard| (shard, pinned.epochs.version(shard)));
            cache.insert_stamped(a, b, route, stamps.collect());
        }

        let writer = {
            let (db, cache) = (db.clone(), cache.clone());
            let cost = if clear { jammed - 10.0 } else { jammed + 10.0 };
            loom::thread::spawn(move || {
                let up = db.update_edge_cost(edge.0, edge.1, cost).expect("install");
                let (old, new) = (up.update.old_cost, up.update.new_cost);
                cache.apply_shard_update(edge.0, edge.1, old, new, &up.shards, &up.epochs)
            })
        };
        let reader = {
            let (db, cache, pinned) = (db.clone(), cache.clone(), pinned.clone());
            loom::thread::spawn(move || {
                for _ in 0..4 {
                    let snap = db.snapshot();
                    if snap.install() < 2 {
                        continue;
                    }
                    let hit = |(a, b): (NodeId, NodeId)| cache.lookup_vec(a, b, &snap.epochs);
                    assert!(hit(edge).is_none(), "stale on-edge route served");
                    if let Some(hit) = hit(beside) {
                        let cost = pinned.db.graph().edge_cost(beside.0, beside.1);
                        assert_eq!(hit.epoch, 2);
                        assert_eq!(Some(hit.path.cost.to_bits()), cost.map(f64::to_bits));
                    }
                    if let Some(hit) = hit(far) {
                        assert!(!clear || hit.epoch == 2, "validated at {}", hit.epoch);
                    }
                }
            })
        };
        let promoted = if clear { 2 } else { 1 };
        assert_eq!(writer.join().expect("writer"), (1, promoted));
        reader.join().expect("reader");
        let now = db.snapshot().epochs;
        assert!(cache.lookup_vec(edge.0, edge.1, &now).is_none());
        assert!(cache.lookup_vec(beside.0, beside.1, &now).is_some());
        assert!(cache.lookup_vec(far.0, far.1, &now).is_some());
    });
}

#[test]
fn cache_promote_or_drop_sweep() {
    install_and_sweep_vs_lookup_race(false);
}

#[test]
fn decrease_install_vs_vector_lookup_race() {
    install_and_sweep_vs_lookup_race(true);
}

/// Race: two writers and one reader, now that an install is built
/// under the writer lock only and `lock_current` is held just for the
/// swap.
///
/// Each writer jams its own edge, so a lost update — both writers
/// building on install 0, the second swap overwriting the first — would
/// show as a final database missing one jam. Invariants under every
/// interleaving:
///
/// * every `(costs, install)` pair the reader pins is one of the three
///   consistent ones: install 0 with neither jam, install 1 with exactly
///   the jam of the writer that reported epoch 1, install 2 with both;
/// * the final install is 2, holds both jams, and the second writer's
///   report says it built on the first's (`updated` 1 each, epochs 1
///   and 2) — writer-lock order;
/// * and, across the explored schedules, at least once the reader's
///   `snapshot()` returns install *k* after a writer has begun building
///   *k + 1*. Holding `lock_current` across the build made that
///   impossible: a build in progress blocked `snapshot()` until it had
///   published. "Begun building" is observed through the fault state
///   the snapshots share — an inert plan, but it counts every physical
///   read, and each build makes exactly one (the tuple it rewrites in
///   `S`) and then stalls there for the plan's read latency, which is
///   what holds the window open for the reader.
#[test]
fn install_builds_outside_the_snapshot_lock() {
    use atis_storage::{FaultPlan, STALL_QUANTUM};
    use std::sync::atomic::{AtomicBool, Ordering};

    let grid = Grid::new(4, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let plan = FaultPlan::inert(7).with_read_latency(STALL_QUANTUM);
    let base = Database::open(grid.graph())
        .expect("open")
        .with_fault_plan(plan);
    let edges = [
        (grid.node_at(0, 0), grid.node_at(0, 1)),
        (grid.node_at(3, 2), grid.node_at(3, 3)),
    ];
    let old = edges.map(|(u, v)| base.graph().edge_cost(u, v).expect("edge"));
    let jam = [old[0] + 50.0, old[1] + 70.0];
    let overlapped = Arc::new(AtomicBool::new(false));

    let witnessed = overlapped.clone();
    loom::model(move || {
        let db = Arc::new(ShardedEpochDb::new(base.clone(), ShardMap::single(16)));
        let faults = base.faults().expect("plan attached").clone();
        let builds_begun = move || faults.lock().expect("fault state").reads();
        let begun_before = builds_begun();

        let writers: Vec<_> = (0..2)
            .map(|w| {
                let db = db.clone();
                loom::thread::spawn(move || {
                    let (u, v) = edges[w];
                    let up = db.update_edge_cost(u, v, jam[w]).expect("install");
                    assert_eq!(up.update.updated, 1);
                    up.update.epoch
                })
            })
            .collect();
        let reader = {
            let (db, witnessed) = (db.clone(), witnessed.clone());
            loom::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..24 {
                    let begun = builds_begun() - begun_before;
                    let snap = db.snapshot();
                    if begun > snap.install() {
                        witnessed.store(true, Ordering::Relaxed);
                    }
                    let costs = edges.map(|(u, v)| snap.db.graph().edge_cost(u, v).expect("edge"));
                    seen.push((costs, snap.install()));
                    if snap.install() == 2 {
                        break;
                    }
                    loom::thread::yield_now();
                }
                seen
            })
        };

        let epochs: Vec<u64> = writers
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .collect();
        let first = epochs.iter().position(|&e| e == 1).expect("an epoch 1");
        assert_eq!(epochs[1 - first], 2, "installs must be consecutive");
        let mut consistent = [(old, 0), (old, 1), (jam, 2)];
        consistent[1].0[first] = jam[first];
        let bits = |costs: [f64; 2]| costs.map(f64::to_bits);
        let mut last = 0;
        for (costs, install) in reader.join().expect("reader") {
            assert!(
                consistent.contains(&(costs, install))
                    && bits(costs) == bits(consistent[install as usize].0),
                "torn install: {costs:?} at install {install}"
            );
            assert!(install >= last, "install counter went backwards");
            last = install;
        }
        let end = db.snapshot();
        assert_eq!(end.install(), 2);
        for (w, (u, v)) in edges.into_iter().enumerate() {
            assert_eq!(end.db.graph().edge_cost(u, v), Some(jam[w]), "lost update");
        }
    });
    assert!(
        overlapped.load(Ordering::Relaxed),
        "no schedule pinned install k while install k + 1 was being built"
    );
}

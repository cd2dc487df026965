//! An update costs the route cache its log append, whatever the cache
//! holds: it reads no entry, moves no statistic and asks the allocator
//! for the same bytes whether 64 or 1 024 entries are cached. A lookup
//! that replays the update on its entry and promotes it where it sits
//! allocates nothing beyond the answer it hands back. Deterministic
//! counts of the bytes asked for, not timings.

use atis::algorithms::memory::dijkstra_pair;
use atis::algorithms::Database;
use atis::serve::{CachedRoute, RouteCache, ShardMap, ShardSnapshot, ShardedEpochDb};
use atis::{CostModel, Grid, NodeId, Path};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a byte count of what the current thread
/// asks for while its `COUNTING` flag is up (other test threads allocate
/// concurrently and must not show).
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            BYTES.with(|total| total.set(total.get() + bytes));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns what it returned with the bytes this thread
/// allocated meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|total| total.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, BYTES.with(Cell::get))
}

const CAPACITY: u32 = 1024;

/// A full cache of `capacity` one-hop routes that avoid `edge`: half
/// cross a shard a jam on it bumps, half do not. Their nodes are not the
/// graph's, so the bound is the edge's cost alone, which no clear brings
/// below their totals.
fn full_cache(store: &ShardedEpochDb, edge: (NodeId, NodeId), capacity: u32) -> RouteCache {
    let map = store.map();
    let touched = map.shard_of(edge.0);
    let other = (0..4)
        .find(|&s| s != map.shard_of(edge.0) && s != map.shard_of(edge.1))
        .unwrap();
    let cache = RouteCache::new(capacity as usize);
    for i in 0..capacity {
        let (from, to) = key(i);
        let route = CachedRoute {
            path: Path {
                nodes: vec![from, to],
                cost: 0.25,
            },
            epoch: 0,
            iterations: 1,
            cost_units: 1.0,
        };
        let shard = if i % 2 == 0 { touched } else { other };
        cache.insert_stamped(from, to, route, vec![(shard, 0)]);
    }
    assert_eq!(cache.len(), capacity as usize);
    cache
}

fn key(i: u32) -> (NodeId, NodeId) {
    (NodeId(10_000 + i), NodeId(20_000 + i))
}

#[test]
fn an_update_reads_no_entry_and_allocates_alike_into_a_small_and_a_large_cache() {
    let grid = Grid::new(40, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let graph = grid.graph();
    let store = ShardedEpochDb::new(Database::open(graph).unwrap(), ShardMap::build(graph, 4));
    assert_eq!(store.map().shard_count(), 4);
    let edge = graph.edges().next().unwrap();
    let (u, v) = (edge.from, edge.to);
    let caches = [64, 1024].map(|capacity| full_cache(&store, (u, v), capacity));
    let sites = |cache: &RouteCache| -> Vec<_> {
        let count = cache.capacity() as u32;
        let site = |(from, to)| cache.stamp_site(from, to).unwrap();
        (0..count).map(key).map(site).collect()
    };

    // A jam and its clear, each logged with both caches.
    let base = graph.edge_cost(u, v).unwrap();
    for cost in [base * 4.0, base] {
        let applied = store.update_edge_cost(u, v, cost).unwrap();
        let bytes = caches.each_ref().map(|cache| {
            let (before, stats) = (sites(cache), cache.stats());
            let (_, bytes) = counted(|| {
                cache.apply_shard_update(
                    u,
                    v,
                    applied.update.old_cost,
                    applied.update.new_cost,
                    &applied.shards,
                    &applied.epochs,
                )
            });
            assert_eq!(cache.stats(), stats, "the update moved a statistic");
            assert_eq!(sites(cache), before, "the update moved an entry");
            bytes
        });
        assert_eq!(
            bytes[0], bytes[1],
            "the update allocated {} bytes into 64 entries, {} into 1 024",
            bytes[0], bytes[1]
        );
    }
    // The lookups judge the entries: the jam bumped one shard of the
    // two, the clear every shard, and neither is on a cached path.
    let now = store.snapshot();
    for cache in &caches {
        for i in 0..cache.capacity() as u32 {
            let (from, to) = key(i);
            let hit = cache.lookup_vec(from, to, &now.epochs).unwrap();
            assert_eq!(hit.epoch, now.install(), "entry {i}");
        }
        let stats = cache.stats();
        let count = cache.capacity() as u64;
        assert_eq!((stats.invalidations, stats.promotions), (0, count / 2 * 3));
    }
}

/// A full cache of short trips in the grid's upper rows, computed at
/// `snapshot`.
fn trips(grid: &Grid, store: &ShardedEpochDb, snapshot: &ShardSnapshot) -> RouteCache {
    let cache = RouteCache::new(CAPACITY as usize);
    for at in 0..CAPACITY as usize {
        let (row, col) = (at / 37, at % 37);
        let (from, to) = (grid.node_at(row, col), grid.node_at(row + 1, col + 3));
        let path = dijkstra_pair(snapshot.db.graph(), from, to).unwrap();
        let stamps = store.map().path_shards(&path.nodes).into_iter();
        let stamps = stamps
            .map(|shard| (shard, snapshot.epochs.version(shard)))
            .collect();
        let route = CachedRoute {
            path,
            epoch: snapshot.install(),
            iterations: 1,
            cost_units: 1.0,
        };
        cache.insert_stamped(from, to, route, stamps);
    }
    assert_eq!(cache.len(), CAPACITY as usize);
    cache
}

#[test]
fn a_replaying_hit_that_promotes_allocates_only_its_answer() {
    let grid = Grid::new(40, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let graph = grid.graph();
    let store = ShardedEpochDb::new(Database::open(graph).unwrap(), ShardMap::build(graph, 4));
    // A jam in the far corner, below the trips' rows: its clear bumps
    // every shard, and the bound keeps every trip.
    let (u, v) = (grid.node_at(39, 38), grid.node_at(39, 39));
    let base = graph.edge_cost(u, v).unwrap();
    store.update_edge_cost(u, v, base * 4.0).unwrap();
    let jammed = store.snapshot();

    // Two caches alike; only the first logs the clear, and is looked up
    // after it. The second is looked up at the jam, where every entry
    // hits as it stands, so the two do the same LRU bookkeeping.
    let (replaying, standing) = (trips(&grid, &store, &jammed), trips(&grid, &store, &jammed));
    let applied = store.update_edge_cost(u, v, base).unwrap();
    assert!(applied.update.new_cost < applied.update.old_cost);
    replaying.apply_shard_update(
        u,
        v,
        applied.update.old_cost,
        applied.update.new_cost,
        &applied.shards,
        &applied.epochs,
    );
    for at in 0..CAPACITY as usize {
        let (row, col) = (at / 37, at % 37);
        let (from, to) = (grid.node_at(row, col), grid.node_at(row + 1, col + 3));
        let (promoted, bytes) = counted(|| replaying.lookup_vec(from, to, &applied.epochs));
        let (hit, plain) = counted(|| standing.lookup_vec(from, to, &jammed.epochs));
        let (promoted, hit) = (promoted.unwrap(), hit.unwrap());
        assert_eq!(
            (promoted.epoch, hit.epoch),
            (applied.update.epoch, jammed.install())
        );
        assert_eq!(promoted.path, hit.path);
        assert_eq!(
            bytes, plain,
            "trip {at}: the replaying hit allocated {bytes} bytes, a plain hit {plain}"
        );
    }
    let stats = replaying.stats();
    assert_eq!(stats.promotions, u64::from(CAPACITY));
    assert_eq!(stats.invalidations, 0);
}

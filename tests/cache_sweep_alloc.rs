//! The route cache's update sweep allocates for what it drops, not for
//! what it holds: an increase that promotes or skips every entry, and a
//! decrease whose geometric bound keeps the entries it examines, move
//! no entry, so neither may rebuild the table — and the increase
//! restamps each entry it promotes in the slot it holds. A deterministic
//! count of the bytes the sweep asks the allocator for, not a timing.

use atis::algorithms::memory::dijkstra_pair;
use atis::algorithms::Database;
use atis::serve::{CachedRoute, RouteCache, ShardMap, ShardedEpochDb};
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

#[test]
fn an_increase_sweep_that_moves_no_entry_allocates_at_most_a_kib() {
    let grid = Grid::new(12, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let graph = grid.graph();
    let store = ShardedEpochDb::new(Database::open(graph).unwrap(), ShardMap::build(graph, 4));
    let edge = graph.edges().next().unwrap();
    let (u, v) = (edge.from, edge.to);
    let map = store.map();
    let touched = map.shard_of(u);
    let other = (0..4)
        .find(|&s| s != map.shard_of(u) && s != map.shard_of(v))
        .unwrap();

    // A full cache of routes that avoid the jammed edge: half cross a
    // shard the jam bumps (promoted in place), half do not (skipped).
    let cache = RouteCache::new(CAPACITY as usize);
    for i in 0..CAPACITY {
        let (from, to) = (NodeId(10_000 + i), NodeId(20_000 + i));
        let route = CachedRoute {
            path: Path {
                nodes: vec![from, to],
                cost: 1.0,
            },
            epoch: 0,
            iterations: 1,
            cost_units: 1.0,
        };
        let shard = if i % 2 == 0 { touched } else { other };
        cache.insert_stamped(from, to, route, vec![(shard, 0)]);
    }
    assert_eq!(cache.len(), CAPACITY as usize);

    let applied = store.update_edge_cost(u, v, 1000.0).unwrap();
    assert!(applied.update.new_cost > applied.update.old_cost);
    let key = |i: u32| (NodeId(10_000 + i), NodeId(20_000 + i));
    let sites = |cache: &RouteCache| -> Vec<_> {
        let site = |(from, to)| cache.stamp_site(from, to).unwrap();
        (0..CAPACITY).map(key).map(site).collect()
    };
    let before = sites(&cache);
    let (swept, bytes) = counted(|| {
        cache.apply_shard_update(
            u,
            v,
            applied.update.old_cost,
            applied.update.new_cost,
            &applied.shards,
            &applied.epochs,
        )
    });
    assert_eq!(swept, (0, u64::from(CAPACITY / 2)), "nothing dropped");
    assert_eq!(cache.len(), CAPACITY as usize);
    assert!(
        bytes <= 1024,
        "the sweep allocated {bytes} bytes for a {CAPACITY}-entry cache it did not shrink"
    );
    // Every entry kept its slot in the same arrays: the promoted half was
    // restamped where it sits, and now hits at the new install as valid
    // there; the skipped half hits as the install-0 answer it was.
    assert_eq!(sites(&cache), before, "the sweep moved an entry");
    for i in 0..CAPACITY {
        let (from, to) = key(i);
        let hit = cache.lookup_vec(from, to, &applied.epochs).unwrap();
        let promoted = i % 2 == 0;
        let epoch = if promoted { applied.update.epoch } else { 0 };
        assert_eq!(hit.epoch, epoch, "entry {i}");
    }
}

#[test]
fn a_decrease_sweep_that_promotes_the_cache_allocates_at_most_a_kib() {
    let grid = Grid::new(40, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let graph = grid.graph();
    let store = ShardedEpochDb::new(Database::open(graph).unwrap(), ShardMap::build(graph, 4));
    // A jam at the edge of the trips' area: its clear undercuts the few
    // trips that run beside it, and the bound keeps the rest.
    let (u, v) = (grid.node_at(28, 24), grid.node_at(28, 25));
    let base = graph.edge_cost(u, v).unwrap();
    store.update_edge_cost(u, v, base * 4.0).unwrap();

    // A full cache of short trips all over the grid, computed at the jam.
    let snapshot = store.snapshot();
    let cache = RouteCache::new(CAPACITY as usize);
    let mut at = 0;
    while cache.len() < CAPACITY as usize {
        let (row, col) = (at / 37, at % 37);
        at += 1;
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

    let applied = store.update_edge_cost(u, v, base).unwrap();
    assert!(applied.update.new_cost < applied.update.old_cost);
    let (swept, bytes) = counted(|| {
        cache.apply_shard_update(
            u,
            v,
            applied.update.old_cost,
            applied.update.new_cost,
            &applied.shards,
            &applied.epochs,
        )
    });
    let (invalidated, promoted) = swept;
    assert_eq!(
        invalidated + promoted,
        u64::from(CAPACITY),
        "a decrease examines every entry"
    );
    assert!(
        promoted * 10 >= u64::from(CAPACITY) * 9,
        "the bound kept only {promoted} of {CAPACITY} entries"
    );
    assert!(
        bytes <= 1024,
        "the sweep allocated {bytes} bytes to drop {invalidated} of {CAPACITY} entries"
    );
}

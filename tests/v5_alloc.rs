//! A\* version 5 keeps no node-count state: each side's labels live in
//! an array as long as its root's elimination-tree ancestor chain, so a
//! run allocates for what it settles, not for the network it runs on.
//! A deterministic count of the bytes `Database::run` asks the
//! allocator for, not a timing: no single allocation may reach
//! `node_count × 4` bytes, and no run may allocate more than
//! [`RUN_BYTES`] in all, at metro-10k and at metro-100k alike. The same
//! runs pin the sweep's closed form: each side settles at most one node
//! a depth of its root's ancestor chain.

use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::graph::{Metro, MetroSpec, NodeId, SplitMix64};
use atis::hierarchy::{Hierarchy, HierarchyConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, plus a byte count and the largest single
/// request of what the current thread asks for while its `COUNTING`
/// flag is up (other test threads allocate concurrently and must not
/// show).
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            BYTES.with(|total| total.set(total.get() + bytes));
            LARGEST.with(|largest| largest.set(largest.get().max(bytes)));
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
/// allocated meanwhile and the largest single allocation among them.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    BYTES.with(|total| total.set(0));
    LARGEST.with(|largest| largest.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, BYTES.with(Cell::get), LARGEST.with(Cell::get))
}

/// Bytes one v5 run may allocate, whatever the network's size. The
/// two depth-indexed label arrays take 24 B a slot (node, predecessor,
/// cost and unpack middle), at most 544 slots a side at metro-100k; the
/// rest grows with the search, not the network: the expansion order,
/// the stack of up-down hops and the unpacked route. Over these 512
/// trips a run allocated 6.0 KB on average (8.8 KB at most) at
/// metro-10k and 35 KB (45 KB) at metro-100k; before the labels
/// carried a middle, 4.6 KB (7.1 KB) and 26 KB (36 KB). With the two
/// lazy-deletion heaps the depth sweep replaced, a run took 9.7 KB and
/// 119 KB on average; the node-count arrays before them were 24 B a
/// node: 258 KB at 10k, 2.5 MB at 100k.
const RUN_BYTES: usize = 64 * 1024;

/// v5 over `pairs` seeded uniform trips on the seed-1993 metro of about
/// `nodes` nodes: every run answers, settles at most
/// `depth(s) + depth(d) + 2` nodes, and allocates neither
/// `node_count × 4` bytes at once nor [`RUN_BYTES`] in all.
fn assert_runs_allocate_no_node_count_state(nodes: usize, pairs: usize) {
    let metro = Metro::new(MetroSpec::with_nodes(nodes, 1993)).unwrap();
    let graph = metro.graph();
    let n = graph.node_count();
    let hierarchy = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();
    let db = Database::open(graph).unwrap().with_hierarchy(hierarchy);
    let hierarchy = db.hierarchy().unwrap();
    let mut rng = SplitMix64::new(1993);
    let (mut total, mut most) = (0usize, 0usize);
    for _ in 0..pairs {
        let s = NodeId(rng.next_below(n as u64) as u32);
        let d = NodeId(rng.next_below(n as u64) as u32);
        let (trace, bytes, largest) = counted(|| db.run(Algorithm::AStar(AStarVersion::V5), s, d));
        let trace = trace.unwrap();
        assert!(trace.path.is_some(), "{s:?}->{d:?}: metros are connected");
        let chains = u64::from(hierarchy.depth(s) + hierarchy.depth(d)) + 2;
        assert!(
            trace.iterations <= chains,
            "{s:?}->{d:?}: {} settles on two ancestor chains of {chains} nodes",
            trace.iterations
        );
        assert!(
            largest < n * 4,
            "{s:?}->{d:?}: one allocation of {largest} bytes on a {n}-node network"
        );
        assert!(
            bytes <= RUN_BYTES,
            "{s:?}->{d:?}: the run allocated {bytes} bytes ({} settles)",
            trace.iterations
        );
        total += bytes;
        most = most.max(bytes);
    }
    println!(
        "metro {n}: {} bytes a run on average, {most} at most",
        total / pairs
    );
}

#[test]
fn a_metro_10k_run_allocates_no_node_count_state() {
    assert_runs_allocate_no_node_count_state(10_000, 512);
}

#[test]
#[ignore = "metro-100k: release job only"]
fn a_metro_100k_run_allocates_no_node_count_state() {
    assert_runs_allocate_no_node_count_state(100_000, 512);
}

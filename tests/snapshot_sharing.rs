//! Snapshots are persistent structures: an install shares with the
//! snapshot it was built from everything it did not write, and what it
//! did write never shows through to a snapshot taken earlier.
//!
//! *Isolation* is checked the strong way: a snapshot pinned before
//! update *k* must answer — `edge_cost`, `neighbors`, `S`'s adjacency
//! buckets, every overlay arc direction, sixteen v5 routes — exactly
//! (`to_bits`) like a database opened fresh on a **deep copy** of the
//! graph as it was at that moment, its overlay priced from scratch.
//! *Sharing* is counted in parts (edge groups, pages of `S`, price
//! groups, whole shared arrays) with the `shared_with` counters each
//! layer keeps for these tests, and in the chunk tables those parts sit
//! in: a clone shares a table's root until it writes through it.

use atis::algorithms::{AStarVersion, Algorithm, Database};
use atis::graph::{Graph, GraphBuilder, Metro, MetroSpec, PartitionMap, SplitMix64};
use atis::hierarchy::{Hierarchy, HierarchyConfig};
use atis::preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
use atis::serve::{ShardMap, ShardSnapshot, ShardedEpochDb};
use atis::storage::IoStats;
use atis::{CostModel, Grid, Minneapolis, NodeId};
use proptest::prelude::*;

/// A copy of `graph` that shares no memory with it: every node and edge
/// re-added through the builder.
fn deep_copy(graph: &Graph) -> Graph {
    let mut b = GraphBuilder::with_capacity(graph.node_count(), graph.edge_count());
    for u in graph.node_ids() {
        b.add_node(graph.point(u));
    }
    for e in graph.edges() {
        b.add_edge(*e);
    }
    let copy = b.build().expect("a copy of a valid graph");
    assert_eq!(copy.shared_with(graph).shared, 0);
    copy
}

/// The three networks of the isolation property, by index.
fn network(which: usize, seed: u64) -> Graph {
    match which {
        0 => Metro::new(MetroSpec::new(3, 2, seed))
            .expect("lattice")
            .graph()
            .clone(),
        1 => Grid::new(8, CostModel::TWENTY_PERCENT, seed)
            .expect("grid")
            .graph()
            .clone(),
        _ => Minneapolis::new(seed).expect("map").graph().clone(),
    }
}

/// Asserts `snapshot` answers exactly like `reference`, a database
/// opened on a deep copy of the costs the snapshot was installed with.
fn assert_answers_like(snapshot: &ShardSnapshot, reference: &Database, pairs: &[(NodeId, NodeId)]) {
    let (db, want) = (&*snapshot.db, reference.graph());
    let at = snapshot.install();
    let costs = |g: &Graph, u| -> Vec<(NodeId, u64)> {
        let row = g.neighbors(u).iter();
        row.map(|e| (e.to, e.cost.to_bits())).collect()
    };
    for u in want.node_ids() {
        assert_eq!(costs(db.graph(), u), costs(want, u), "install {at}: {u:?}");
        for e in want.neighbors(u) {
            let (got, want) = (db.graph().edge_cost(u, e.to), want.edge_cost(u, e.to));
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        }
        let fetch = |db: &Database| {
            let adjacency = db.edges().fetch_adjacency(u.0, &mut IoStats::new());
            let adjacency = adjacency.expect("no faults are planned");
            let row = adjacency.into_iter();
            row.map(|t| (t.end, t.cost.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(fetch(db), fetch(reference), "install {at}: S bucket {u:?}");
    }
    let (got, want) = (db.hierarchy().unwrap(), reference.hierarchy().unwrap());
    let bits = |d: Option<(f64, Option<NodeId>)>| d.map(|(cost, via)| (cost.to_bits(), via));
    for u in db.graph().node_ids() {
        for arc in want.up_arcs(u) {
            for (a, b) in [(u, arc.head), (arc.head, u)] {
                let (got, want) = (got.arc_direction(a, b), want.arc_direction(a, b));
                assert_eq!(bits(got), bits(want), "install {at}: arc {a:?}->{b:?}");
            }
        }
    }
    let v5 = Algorithm::AStar(AStarVersion::V5);
    for &(s, d) in pairs {
        let got = db.run(v5, s, d).expect("the snapshot's overlay is current");
        let want = reference.run(v5, s, d).expect("so is the reference's");
        let route =
            |t: &atis::RunTrace| t.path.as_ref().map(|p| (p.nodes.clone(), p.cost.to_bits()));
        assert_eq!(route(&got), route(&want), "install {at}: {s:?}->{d:?}");
        assert_eq!(
            got.io, want.io,
            "install {at}: {s:?}->{d:?} charged differently"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Every snapshot pinned along a script of 1–12 increases and
    /// decreases still answers, after the whole script has run, like a
    /// fresh database on a deep copy of the costs it was pinned at.
    #[test]
    fn a_pinned_snapshot_never_sees_a_later_update(
        which in 0usize..3,
        seed in 0u64..1_000_000,
        steps in 1usize..=12,
    ) {
        let graph = network(which, seed);
        let built = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
        let store = ShardedEpochDb::new(
            Database::open(&graph).unwrap().with_hierarchy(built.clone()),
            ShardMap::build(&graph, 4),
        );
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let n = graph.node_count() as u64;
        let mut node = || NodeId(rng.next_below(n) as u32);
        let pairs: Vec<_> = (0..16).map(|_| (node(), node())).collect();
        let edges: Vec<_> = graph.edges().copied().collect();

        // Pin every install with a deep copy of its costs beside it.
        let mut pinned = vec![(store.snapshot(), deep_copy(&graph))];
        for step in 0..steps {
            let e = edges[rng.next_below(edges.len() as u64) as usize];
            let factor = if step % 3 == 2 { 0.4 } else { 1.5 + step as f64 };
            let update = store.update_edge_cost(e.from, e.to, e.cost * factor).unwrap();
            prop_assert_eq!(update.update.epoch, step as u64 + 1);
            let snapshot = store.snapshot();
            let copy = deep_copy(snapshot.db.graph());
            pinned.push((snapshot, copy));
        }
        for (snapshot, costs) in &pinned {
            let overlay = built.customized_for(costs);
            let reference = Database::open(costs).unwrap().with_hierarchy(overlay);
            assert_answers_like(snapshot, &reference, &pairs);
        }
    }
}

/// The serving stack the benchmark builds, at `nodes` nodes: the metro
/// under the region-major relabel, landmark tables and overlay attached.
fn stack(nodes: usize) -> (Graph, ShardedEpochDb) {
    let metro = Metro::new(MetroSpec::with_nodes(nodes, 1993)).unwrap();
    let map = PartitionMap::build(metro.graph(), 256);
    let (graph, _) = map.apply(metro.graph()).unwrap();
    let selection = LandmarkSelection::PartitionSpread { region_target: 256 };
    let tables = LandmarkTables::build(&graph, PreprocessConfig::new(selection, 8)).unwrap();
    let overlay = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
    let db = Database::open(&graph).unwrap();
    // Opening a database copies no edge: it shares the caller's graph.
    assert_eq!(db.graph().shared_with(&graph).copied(), 0);
    let db = db.with_landmarks(tables).with_hierarchy(overlay);
    let shards = ShardMap::build(&graph, 8);
    (graph, ShardedEpochDb::new(db, shards))
}

/// A street edge well inside the network, and its cost.
fn some_edge(graph: &Graph) -> (NodeId, NodeId, f64) {
    let u = NodeId(graph.node_count() as u32 / 3);
    let e = graph.neighbors(u)[0];
    (e.from, e.to, e.cost)
}

/// One update on metro-10k copies one edge group, the page (or two) of
/// `S` the tuple sits in, and at most one group per column per overlay
/// arc examined — a quarter of a megabyte at the outside, where the
/// deep copy it replaces was the whole 5.5 MB database. Everything
/// immutable — coordinates, offsets, bucket directory, overlay topology
/// and its transpose, the landmark tables an increase re-stamps — is the
/// same allocation before and after.
#[test]
fn an_install_at_10k_shares_all_but_what_it_wrote() {
    let (graph, store) = stack(10_000);
    let (u, v, cost) = some_edge(&graph);
    let before = store.snapshot();
    let update = store.update_edge_cost(u, v, cost * 3.0).unwrap().update;
    let after = store.snapshot();

    let edges = after.db.graph().shared_with(before.db.graph());
    assert_eq!(edges.copied(), 1, "{edges:?}");
    assert_eq!(edges.total, graph.node_count().div_ceil(256) + 2);
    let pages = after.db.edges().shared_with(before.db.edges());
    assert!((1..=2).contains(&pages.copied()), "{pages:?}");
    let (old, new) = (
        before.db.hierarchy().unwrap(),
        after.db.hierarchy().unwrap(),
    );
    let prices = new.shared_with(old);
    assert!(update.arcs_examined >= 1);
    assert!(prices.copied() <= 4 * update.arcs_examined, "{prices:?}");
    let (old, new) = (
        before.db.landmarks().unwrap(),
        after.db.landmarks().unwrap(),
    );
    assert_eq!(new.shared_with(old).copied(), 0);

    let whole = after.db.shared_with(&before.db);
    assert_eq!(
        whole.copied(),
        edges.copied() + pages.copied() + prices.copied()
    );
    assert!(whole.copied_bytes <= 256 * 1024, "{whole:?}");
    // The caller's graph is still the one the first snapshot holds.
    assert_eq!(before.db.graph().shared_with(&graph).copied(), 0);
    assert_eq!(after.db.as_ref().clone().shared_with(&after.db).copied(), 0);
    // The install wrote through the edge table and `S`'s page table, so
    // it holds copies of their roots; a bare clone holds every root —
    // edges, pages, four price columns — that its source holds.
    assert_eq!((edges.tables, edges.tables_shared), (1, 0));
    assert_eq!((pages.tables, pages.tables_shared), (1, 0));
    assert!(prices.tables_shared < prices.tables, "{prices:?}");
    let bare = after.db.as_ref().clone().shared_with(&after.db);
    assert_eq!((bare.tables, bare.tables_shared), (6, 6), "{bare:?}");
}

/// PR CI builds the 10k scale; the copy an install used to make grew
/// with the network (≈ 64 MB at metro-100k: graph, every page of `S`,
/// all four price columns), so the property is pinned there too, for the
/// release job (`cargo test --release --test snapshot_sharing --
/// --ignored`, ≈ 0.7 s of set-up). An increase and then a decrease —
/// the decrease rebuilds the landmark tables, which are not part of the
/// claim — each copy at most 2 MB of chunks and pages.
#[test]
#[ignore = "metro-100k: release job only"]
fn an_install_at_100k_copies_kilobytes() {
    let (graph, store) = stack(100_000);
    let (u, v, cost) = some_edge(&graph);
    for new_cost in [cost * 3.0, cost * 0.5] {
        let before = store.snapshot();
        let update = store.update_edge_cost(u, v, new_cost).unwrap().update;
        let after = store.snapshot();
        let mut copied = after.db.graph().shared_with(before.db.graph());
        copied += after.db.edges().shared_with(before.db.edges());
        let (old, new) = (
            before.db.hierarchy().unwrap(),
            after.db.hierarchy().unwrap(),
        );
        copied += new.shared_with(old);
        assert!(
            copied.copied_bytes <= 2 * 1024 * 1024,
            "{copied:?} after examining {} arcs",
            update.arcs_examined
        );
        assert!(copied.copied() >= 3 && copied.shared > 4000, "{copied:?}");
    }
    let db = store.snapshot().db;
    assert_eq!(db.as_ref().clone().shared_with(&db).copied(), 0);
    let bare = db.as_ref().clone().shared_with(&db);
    assert_eq!((bare.tables, bare.tables_shared), (6, 6), "{bare:?}");
}

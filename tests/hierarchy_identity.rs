//! Property tests for the contraction hierarchy and A\* version 5: on
//! seeded metro networks (one-way freeway pairs included) the upward
//! search must return routes identical to the in-memory Dijkstra oracle
//! — same cost, valid edge sequence, bit-exact re-priced total — under
//! the region layout and under a seeded shuffle; the epoch staleness
//! contract must never let a stale-priced shortcut answer a query; and an
//! overlay is one state — built, fully re-priced or re-priced edge by
//! edge, it is the same overlay and v5 runs the same run over it.

use atis::algorithms::memory::dijkstra_pair;
use atis::algorithms::{AStarVersion, Algorithm, AlgorithmError, Database, HierarchyIssue};
use atis::graph::{shuffle_layout, Graph, Metro, MetroQuery, MetroSpec, NodeId};
use atis::hierarchy::{Hierarchy, HierarchyConfig};
use proptest::prelude::*;

/// Strategy: a small metro lattice (2–4 cities per axis keeps each case
/// under ~4100 nodes) with an arbitrary seed.
fn arb_metro() -> impl Strategy<Value = Metro> {
    (2usize..=4, 2usize..=4, 0u64..1_000_000).prop_map(|(cx, cy, seed)| {
        Metro::new(MetroSpec::new(cx, cy, seed)).expect("lattice is non-degenerate")
    })
}

/// The three named trips, `Diagonal` included — the corner-to-corner
/// trip must ride the one-way freeway carriageways.
const TRIPS: [MetroQuery; 3] = [
    MetroQuery::IntraCity,
    MetroQuery::AdjacentCity,
    MetroQuery::Diagonal,
];

/// Runs v5 on `(s, d)` and checks the returned route against the
/// in-memory Dijkstra oracle on the same graph: equal cost, a valid
/// edge sequence, and a reported total that bit-equals the left-to-right
/// re-priced sum (v5 unpacks shortcuts and re-prices against the f64
/// graph, so no storage rounding is in play).
fn assert_matches_oracle(db: &Database, graph: &Graph, s: NodeId, d: NodeId) {
    let trace = db
        .run(Algorithm::AStar(AStarVersion::V5), s, d)
        .expect("v5 runs on a current hierarchy");
    let oracle = dijkstra_pair(graph, s, d).expect("metro networks are strongly connected");
    let path = trace.path.as_ref().expect("oracle found a path");
    assert_eq!(path.source(), s);
    assert_eq!(path.destination(), d);
    assert!(
        (trace.path_cost() - oracle.cost).abs() < 1e-9,
        "v5 cost {} != oracle {} for {s:?}->{d:?}",
        trace.path_cost(),
        oracle.cost
    );
    let repriced: f64 = path
        .nodes
        .windows(2)
        .map(|w| {
            graph
                .edge_cost(w[0], w[1])
                .unwrap_or_else(|| panic!("v5 route uses a non-edge {:?}->{:?}", w[0], w[1]))
        })
        .sum();
    assert_eq!(
        repriced.to_bits(),
        trace.path_cost().to_bits(),
        "v5's reported cost must bit-equal its own route re-priced"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// v5 agrees with the Dijkstra oracle on every named trip, and two
    /// identical runs return the identical route (bit-deterministic).
    #[test]
    fn v5_routes_match_the_dijkstra_oracle(metro in arb_metro()) {
        let graph = metro.graph();
        let hierarchy = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();
        let db = Database::open(graph).unwrap().with_hierarchy(hierarchy);
        for &trip in &TRIPS {
            let (s, d) = metro.query_pair(trip);
            assert_matches_oracle(&db, graph, s, d);
            // The freeway carriageways are one-way: the reverse trip
            // takes the opposite carriageway and must agree too.
            assert_matches_oracle(&db, graph, d, s);
            let once = db.run(Algorithm::AStar(AStarVersion::V5), s, d).unwrap();
            let twice = db.run(Algorithm::AStar(AStarVersion::V5), s, d).unwrap();
            prop_assert_eq!(&once.path, &twice.path, "v5 must be bit-deterministic");
        }
    }

    /// A seeded shuffle of the node numbering is a pure layout change:
    /// the hierarchy built on the shuffled graph answers with the same
    /// costs at the renumbered endpoints.
    #[test]
    fn v5_is_layout_invariant_under_a_seeded_shuffle(metro in arb_metro()) {
        let graph = metro.graph();
        let (shuffled, new_of) = shuffle_layout(graph, 7).unwrap();
        let hierarchy = Hierarchy::build(&shuffled, HierarchyConfig::paper()).unwrap();
        let db = Database::open(&shuffled).unwrap().with_hierarchy(hierarchy);
        for &trip in &TRIPS {
            let (s, d) = metro.query_pair(trip);
            let (ss, sd) = (NodeId(new_of[s.index()]), NodeId(new_of[d.index()]));
            assert_matches_oracle(&db, &shuffled, ss, sd);
            let base = dijkstra_pair(graph, s, d).unwrap().cost;
            let via = db.run(Algorithm::AStar(AStarVersion::V5), ss, sd).unwrap();
            prop_assert!(
                (via.path_cost() - base).abs() < 1e-9,
                "shuffled layout changed the v5 route cost"
            );
        }
    }

    /// The staleness contract, end to end: after an UPDATE the old
    /// hierarchy is refused outright (`HierarchyUnavailable(Stale)` —
    /// never a stale-priced answer), the full customization pass absorbs
    /// a cost increase and a re-contraction a decrease, and the
    /// per-update phase absorbs either — every re-priced hierarchy
    /// agrees with the oracle on the *new* costs.
    #[test]
    fn updates_never_serve_a_stale_priced_shortcut(
        metro in arb_metro(),
        raise_sel in 0u64..2,
    ) {
        let raise = raise_sel == 1;
        let base = metro.graph();
        let hierarchy = Hierarchy::build(base, HierarchyConfig::paper()).unwrap();

        // Mutate one street edge: +60% (rush hour) or -40% (cleared).
        let mut updated = base.clone();
        let (s, d) = metro.query_pair(MetroQuery::IntraCity);
        let edge = base.neighbors(s)[0];
        let factor = if raise { 1.6 } else { 0.6 };
        updated
            .set_edge_cost(edge.from, edge.to, edge.cost * factor)
            .unwrap();

        // The un-refreshed hierarchy must be refused on the new graph.
        let stale_db = Database::open(&updated)
            .unwrap()
            .with_hierarchy(hierarchy.clone());
        match stale_db.run(Algorithm::AStar(AStarVersion::V5), s, d) {
            Err(AlgorithmError::HierarchyUnavailable(HierarchyIssue::Stale)) => {}
            other => prop_assert!(false, "stale hierarchy must be refused, got {other:?}"),
        }

        // The refreshed hierarchy answers with new-cost routes.
        let refreshed = if raise {
            hierarchy.customized_for(&updated)
        } else {
            hierarchy.rebuild_for(&updated).unwrap()
        };
        prop_assert!(refreshed.is_current_for(&updated));
        let db = Database::open(&updated).unwrap().with_hierarchy(refreshed);
        for &trip in &TRIPS {
            let (qs, qd) = metro.query_pair(trip);
            assert_matches_oracle(&db, &updated, qs, qd);
        }

        // The per-update phase — what a live UPDATE takes, whichever way
        // the cost moves — chained three deep from the build: the same
        // change, then the opposite one on an adjacent edge, then the
        // first edge back to its base cost.
        let adjacent = base.neighbors(edge.to)[0];
        let mut live = base.clone();
        let mut chained = hierarchy;
        for (e, cost) in [
            (edge, edge.cost * factor),
            (adjacent, adjacent.cost / factor),
            (edge, edge.cost),
        ] {
            live.set_edge_cost(e.from, e.to, cost).unwrap();
            let (next, examined) =
                chained.customized_for_edge(&live, e.from, e.to, live.cost_fingerprint());
            prop_assert!(examined >= 1 && examined < next.arc_count());
            prop_assert!(next.is_current_for(&live));
            let db = Database::open(&live).unwrap().with_hierarchy(next.clone());
            for &trip in &TRIPS {
                let (qs, qd) = metro.query_pair(trip);
                assert_matches_oracle(&db, &live, qs, qd);
            }
            chained = next;
        }
    }

    /// One state: however an overlay came to be priced for a graph — a
    /// build at those costs, the full pass over a build at other costs,
    /// or the per-update phase chained change by change — it holds the
    /// same arcs at the same prices with the same middles, and v5 makes
    /// the identical run over it: iterations, metered I/O, expansion
    /// order and route.
    #[test]
    fn built_and_customized_overlays_are_one_state(metro in arb_metro()) {
        let base = metro.graph();
        let built_at_base = Hierarchy::build(base, HierarchyConfig::paper()).unwrap();

        // A jam, a clearance below the base cost on an adjacent edge,
        // and a second jam elsewhere.
        let (s, d) = metro.query_pair(MetroQuery::IntraCity);
        let first = base.neighbors(s)[0];
        let adjacent = base.neighbors(first.to)[0];
        let far = base.neighbors(d)[0];
        let mut graph = base.clone();
        let mut chained = built_at_base.clone();
        for (e, factor) in [(first, 2.5), (adjacent, 0.5), (far, 1.75)] {
            graph.set_edge_cost(e.from, e.to, e.cost * factor).unwrap();
            chained = chained
                .customized_for_edge(&graph, e.from, e.to, graph.cost_fingerprint())
                .0;
        }
        let built = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
        let customized = built_at_base.customized_for(&graph);

        let arcs = |h: &Hierarchy| -> Vec<_> {
            graph
                .node_ids()
                .flat_map(|u| {
                    h.up_arcs(u).map(move |a| {
                        let direction = |x, y| {
                            h.arc_direction(x, y).map(|(cost, via)| (cost.to_bits(), via))
                        };
                        (
                            (u, a.head, a.fwd.to_bits(), a.bwd.to_bits()),
                            (direction(u, a.head), direction(a.head, u)),
                        )
                    })
                })
                .collect()
        };
        let runs = |h: &Hierarchy| -> Vec<_> {
            let db = Database::open(&graph).unwrap().with_hierarchy(h.clone());
            TRIPS
                .iter()
                .map(|&trip| {
                    let (qs, qd) = metro.query_pair(trip);
                    let t = db.run(Algorithm::AStar(AStarVersion::V5), qs, qd).unwrap();
                    let path = t.path.expect("metro networks are strongly connected");
                    (t.iterations, t.io, t.expansion_order, path.nodes, path.cost.to_bits())
                })
                .collect()
        };
        let (want_arcs, want_runs) = (arcs(&built), runs(&built));
        for (other, how) in [(&customized, "the full pass"), (&chained, "the per-update chain")] {
            prop_assert!(other.is_current_for(&graph));
            prop_assert!(arcs(other) == want_arcs, "{how} prices a different overlay");
            prop_assert!(runs(other) == want_runs, "v5 runs differently over {how}");
        }
    }
}

/// The regression gate wall-clock cannot be on this box: counts repeat
/// exactly. On metro-10k under the region layout a seeded script of 64
/// updates (three jams, then the oldest jam clears back to its base
/// cost, repeated) examines 27.9 of the overlay's 110 844 arcs per
/// update on average and never more than 82 — UPDATE cost proportional
/// to the change, not to the network. Gated at a mean of 0.1 % and a
/// maximum of 0.5 % of the arcs: room for a different order, none for
/// a pass that walks every upper triangle again (0.13 % / 0.51 %).
#[test]
fn an_update_examines_a_sliver_of_the_overlay() {
    let metro = Metro::new(MetroSpec::with_nodes(10_000, 1993)).unwrap();
    let map = atis::graph::PartitionMap::build(metro.graph(), 256);
    let (mut graph, _) = map.apply(metro.graph()).unwrap();
    let mut hierarchy = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
    let arcs = hierarchy.arc_count();
    let edges: Vec<_> = graph.edges().copied().collect();
    let mut rng = atis::graph::SplitMix64::new(1993);
    let (mut total, mut worst) = (0usize, 0usize);
    let mut jammed = Vec::new();
    for step in 0..64 {
        let (edge, cost) = if step % 4 == 3 {
            let edge: atis::graph::Edge = jammed.swap_remove(0);
            (edge, edge.cost)
        } else {
            let edge = edges[rng.next_below(edges.len() as u64) as usize];
            jammed.push(edge);
            (edge, edge.cost * (2.0 + rng.next_f64() * 6.0))
        };
        graph.set_edge_cost(edge.from, edge.to, cost).unwrap();
        let (next, examined) =
            hierarchy.customized_for_edge(&graph, edge.from, edge.to, graph.cost_fingerprint());
        hierarchy = next;
        total += examined;
        worst = worst.max(examined);
    }
    assert!(
        total * 1000 <= arcs * 64,
        "mean {} of {arcs} arcs examined per update exceeds 0.1 %",
        total / 64
    );
    assert!(
        worst * 200 <= arcs,
        "one update examined {worst} of {arcs} arcs, more than 0.5 %"
    );
}

/// The build's tripwire, in counts because counts repeat exactly where
/// wall time does not. On metro-10k under the region layout the overlay
/// has 110 844 arcs, 107 356 of them priced finite forward and 109 094
/// backward — the directions a query may relax, so an order, a fill or
/// a triangle pass that changes what the overlay holds moves these —
/// and the build reads exactly the one scan of the two relations, 359
/// blocks: customization runs over the fill, not over the database.
#[test]
fn the_build_keeps_its_live_directions_and_its_read_budget() {
    let metro = Metro::new(MetroSpec::with_nodes(10_000, 1993)).unwrap();
    let map = atis::graph::PartitionMap::build(metro.graph(), 256);
    let (graph, _) = map.apply(metro.graph()).unwrap();
    let hierarchy = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
    let arcs: Vec<_> = graph
        .node_ids()
        .flat_map(|u| hierarchy.up_arcs(u))
        .collect();
    assert_eq!(arcs.len(), 110_844);
    assert_eq!(arcs.iter().filter(|a| a.fwd.is_finite()).count(), 107_356);
    assert_eq!(arcs.iter().filter(|a| a.bwd.is_finite()).count(), 109_094);
    assert_eq!(hierarchy.build_io().block_reads, 359);
}

/// PR CI rebuilds the 10k scale, where the top-down order reads about
/// the same overlay as the flat boundary phase it replaced; what it
/// exists for shows at metro-100k, which only the release job can afford
/// (`cargo test --release --test hierarchy_identity -- --ignored`, the
/// build ≈ 0.4 s there). Under the region layout the overlay holds
/// 1 509 057 arcs — 3.90 per edge, where the flat phase held 5.89 — and
/// no node climbs more than 299 up-arcs (475). Gated with room for a
/// different order, none for giving the size back; and the long-haul
/// trip — the one that got *longer*, HIERARCHY.md says why — is still
/// the oracle's.
#[test]
#[ignore = "metro-100k: release job only"]
fn metro_100k_overlay_stays_small() {
    let metro = Metro::new(MetroSpec::with_nodes(100_000, 1993)).unwrap();
    let map = atis::graph::PartitionMap::build(metro.graph(), 256);
    let (graph, new_of) = map.apply(metro.graph()).unwrap();
    let hierarchy = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
    assert!(
        hierarchy.arc_count() <= 4 * graph.edge_count(),
        "{} overlay arcs over {} edges is more than 4.0 per edge",
        hierarchy.arc_count(),
        graph.edge_count()
    );
    let widest = graph.node_ids().map(|u| hierarchy.up_degree(u)).max();
    assert!(widest <= Some(320), "a node climbs {widest:?} up-arcs");
    let (s, d) = metro.query_pair(MetroQuery::Diagonal);
    let (s, d) = (NodeId(new_of[s.index()]), NodeId(new_of[d.index()]));
    let db = Database::open(&graph).unwrap().with_hierarchy(hierarchy);
    assert_matches_oracle(&db, &graph, s, d);
}

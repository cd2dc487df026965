//! A\* version 5's charged reads, recounted, and its settles against a
//! reference sweep.
//!
//! v5 fetches each overlay list a step needs once: a settled node's
//! up-arc list, once for both searches when they hold the same
//! ancestor, and a middle's list once for both halves of the shortcut
//! it unpacks. These tests recount that from outside the algorithm,
//! with a reference of the sweep written apart from it (labels in maps,
//! not depth slots) that reads the overlay only through
//! `Hierarchy::up_arcs` and `Hierarchy::arc_direction`:
//!
//! * a run's `block_reads` equal the blocks of each distinct list in
//!   its `expansion_order`, plus, for each middle the reference's
//!   unpacking expands, 1 block, or 2 when the middle's arcs to the
//!   two ends sit in different blocks of its list;
//! * `Hierarchy::halves` agrees with two `arc_direction` calls on every
//!   shortcut of the overlay;
//! * the run's route is the reference's, unpacked by `arc_direction`
//!   alone;
//! * the run settles what the reference settles, in the same order,
//!   also where labels tie with the best meeting cost, as they do on
//!   integer costs; and under an iteration budget of k it fails exactly
//!   when the reference settles more than k, stopping after its
//!   (k + 1)-th settle rather than after all of them.
//!
//! The networks are seeded pairs on metro-1k and on a 24×24 unit-cost
//! grid, and proptest random graphs with small integer costs.

use atis::algorithms::{
    AStarVersion, Algorithm, AlgorithmError, BudgetKind, Budgets, Database, RunTrace,
};
use atis::graph::graph::graph_from_arcs;
use atis::graph::{Graph, Metro, MetroSpec, NodeId, SplitMix64};
use atis::hierarchy::{Halves, Hierarchy, HierarchyConfig, ARC_TUPLE_SIZE};
use atis::obs::{IterationPhase, RingSink, TraceEvent};
use atis::storage::block::BLOCK_SIZE;
use atis::{CostModel, Grid};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const V5: Algorithm = Algorithm::AStar(AStarVersion::V5);

/// Forward (from the source) and backward (from the destination).
const FWD: usize = 0;
const BWD: usize = 1;

/// What the reference sweep settles, in order, and where its two
/// searches meet, with each side's predecessor links.
struct Reference {
    settles: Vec<NodeId>,
    meet: Option<NodeId>,
    parent: [BTreeMap<NodeId, NodeId>; 2],
}

/// The v5 sweep over `h`: from the deeper root's depth up to 0, each
/// side settles the node it reached at that depth while that node's
/// cost is below the best meeting cost, and relaxes its up-arcs in
/// order; a label written lowers the best meeting cost at once.
fn reference(h: &Hierarchy, s: NodeId, d: NodeId) -> Reference {
    let mut dist = [BTreeMap::from([(s, 0.0)]), BTreeMap::from([(d, 0.0)])];
    let mut parent = [BTreeMap::new(), BTreeMap::new()];
    let (mut best, mut meet) = if s == d {
        (0.0, Some(s))
    } else {
        (f64::INFINITY, None)
    };
    let mut settles = Vec::new();
    for depth in (0..=h.depth(s).max(h.depth(d))).rev() {
        for side in [FWD, BWD] {
            // A side reaches ancestors of its root only, one a depth.
            let Some((u, cost)) = dist[side]
                .iter()
                .map(|(&v, &cost)| (v, cost))
                .find(|&(v, _)| h.depth(v) == depth)
            else {
                continue;
            };
            if cost >= best {
                continue;
            }
            settles.push(u);
            for arc in h.up_arcs(u) {
                let next = cost + if side == FWD { arc.fwd } else { arc.bwd };
                let v = arc.head;
                if next < dist[side].get(&v).copied().unwrap_or(f64::INFINITY) {
                    dist[side].insert(v, next);
                    parent[side].insert(v, u);
                    if let Some(&other) = dist[1 - side].get(&v) {
                        if next + other < best {
                            best = next + other;
                            meet = Some(v);
                        }
                    }
                }
            }
        }
    }
    Reference {
        settles,
        meet,
        parent,
    }
}

/// The reference's route: the up-down chain through its meeting node,
/// each hop unpacked by `arc_direction` alone, with every shortcut it
/// expanded as `(from, middle, to)`.
fn unpack(h: &Hierarchy, r: &Reference, s: NodeId) -> Option<(Vec<NodeId>, Vec<[NodeId; 3]>)> {
    let meet = r.meet?;
    let mut chain = vec![meet];
    while let Some(&p) = r.parent[FWD].get(chain.last().unwrap()) {
        chain.push(p);
    }
    chain.reverse();
    let mut cur = meet;
    while let Some(&p) = r.parent[BWD].get(&cur) {
        chain.push(p);
        cur = p;
    }
    let mut nodes = vec![s];
    let mut expanded = Vec::new();
    for hop in chain.windows(2) {
        expand(h, hop[0], hop[1], &mut nodes, &mut expanded);
    }
    Some((nodes, expanded))
}

fn expand(
    h: &Hierarchy,
    a: NodeId,
    b: NodeId,
    nodes: &mut Vec<NodeId>,
    out: &mut Vec<[NodeId; 3]>,
) {
    match h.arc_direction(a, b) {
        Some((_, Some(m))) => {
            out.push([a, m, b]);
            expand(h, a, m, nodes, out);
            expand(h, m, b, nodes, out);
        }
        _ => nodes.push(b),
    }
}

/// Blocks `u`'s up-arc list occupies, at `ARC_TUPLE_SIZE` bytes an arc.
fn list_blocks(h: &Hierarchy, u: NodeId) -> u64 {
    (h.up_arcs(u).count() * ARC_TUPLE_SIZE)
        .div_ceil(BLOCK_SIZE)
        .max(1) as u64
}

/// Blocks of `m`'s up-arc list that hold its arcs to `a` and `b`: a
/// middle ranks below both ends of its shortcut, so both are its.
fn halves_blocks(h: &Hierarchy, [a, m, b]: [NodeId; 3]) -> u64 {
    let block = |end: NodeId| {
        let at = h.up_arcs(m).position(|arc| arc.head == end);
        at.expect("a middle's list holds both ends") / (BLOCK_SIZE / ARC_TUPLE_SIZE)
    };
    if block(a) == block(b) {
        1
    } else {
        2
    }
}

/// The reads a run should charge: each distinct settled list once,
/// and each expanded middle's one fetch.
fn recount(h: &Hierarchy, trace: &RunTrace, expanded: &[[NodeId; 3]]) -> u64 {
    let lists: BTreeSet<NodeId> = trace.expansion_order.iter().copied().collect();
    let settles: u64 = lists.iter().map(|&u| list_blocks(h, u)).sum();
    let middles: u64 = expanded.iter().map(|&hop| halves_blocks(h, hop)).sum();
    settles + middles
}

/// One v5 run from `s` to `d` held to the reference: same settles,
/// same route, and the recounted reads. Returns the settle count.
fn assert_run_matches_reference(db: &Database, s: NodeId, d: NodeId) -> usize {
    let h = db.hierarchy().unwrap();
    let trace = db.run(V5, s, d).unwrap();
    let r = reference(h, s, d);
    assert_eq!(
        trace.expansion_order, r.settles,
        "{s:?}->{d:?}: v5 settles other nodes than the reference sweep"
    );
    assert_eq!(trace.iterations, r.settles.len() as u64);
    let unpacked = unpack(h, &r, s);
    assert_eq!(
        trace.path.as_ref().map(|p| &p.nodes),
        unpacked.as_ref().map(|(nodes, _)| nodes),
        "{s:?}->{d:?}: v5's route is not the reference's unpacked by arc_direction"
    );
    let expanded = unpacked.map_or_else(Vec::new, |(_, expanded)| expanded);
    assert_eq!(
        trace.io.block_reads,
        recount(h, &trace, &expanded),
        "{s:?}->{d:?}: charged reads are not one fetch per list ({} settles, {} middles)",
        trace.iterations,
        expanded.len()
    );
    r.settles.len()
}

/// Under an iteration budget of `k`, a run whose unbudgeted twin
/// settles `settles` nodes fails exactly when `settles > k`. The budget
/// is checked before every settle, so a failing run stops after its
/// (k + 1)-th: its trace holds k + 1 `Search` spans, not one for every
/// settle the unbudgeted run makes.
fn assert_budgets_stop_the_sweep(db: &Database, s: NodeId, d: NodeId, settles: usize) {
    let ks: BTreeSet<usize> = [0, settles / 2, settles.saturating_sub(1), settles].into();
    for k in ks {
        let ring = RingSink::shared(1 << 16);
        let limited = (db.clone())
            .with_budgets(Budgets::unlimited().with_max_iterations(k as u64))
            .with_trace_sink(ring.clone());
        let result = limited.run(V5, s, d);
        let spans = (ring.events().iter())
            .filter(
                |e| matches!(e, TraceEvent::Iteration(ev) if ev.phase == IterationPhase::Search),
            )
            .count();
        if settles > k {
            assert!(
                matches!(
                    result,
                    Err(AlgorithmError::BudgetExceeded(BudgetKind::Iterations))
                ),
                "{s:?}->{d:?}: {settles} settles under a budget of {k} must fail"
            );
            assert_eq!(
                spans,
                k + 1,
                "{s:?}->{d:?}: a budget of {k} must stop the sweep at its next settle"
            );
        } else {
            assert!(result.is_ok(), "{s:?}->{d:?}: {settles} settles fit {k}");
            assert_eq!(spans, settles);
        }
    }
}

/// `Hierarchy::halves` on every shortcut direction of `h` equals two
/// `arc_direction` calls, with the blocks the recount gives. Returns
/// the number of shortcut directions.
fn assert_halves_agree_everywhere(h: &Hierarchy) -> usize {
    let mut shortcuts = 0;
    for u in (0..h.node_count() as u32).map(NodeId) {
        for arc in h.up_arcs(u) {
            for (a, b) in [(u, arc.head), (arc.head, u)] {
                let Some((_, Some(m))) = h.arc_direction(a, b) else {
                    continue;
                };
                shortcuts += 1;
                let want = Halves {
                    first: h.arc_direction(a, m),
                    second: h.arc_direction(m, b),
                    blocks: halves_blocks(h, [a, m, b]),
                };
                assert_eq!(h.halves(a, m, b), want, "{a:?}->{b:?} through {m:?}");
            }
        }
    }
    shortcuts
}

fn database(graph: &Graph) -> Database {
    let hierarchy = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();
    Database::open(graph).unwrap().with_hierarchy(hierarchy)
}

/// Every check over `pairs` seeded uniform pairs of `graph`.
fn assert_seeded_pairs(graph: &Graph, pairs: usize) {
    let db = database(graph);
    let shortcuts = assert_halves_agree_everywhere(db.hierarchy().unwrap());
    assert!(shortcuts > 0, "the overlay holds no shortcut to check");
    let n = graph.node_count() as u64;
    let mut rng = SplitMix64::new(1993);
    for _ in 0..pairs {
        let s = NodeId(rng.next_below(n) as u32);
        let d = NodeId(rng.next_below(n) as u32);
        let settles = assert_run_matches_reference(&db, s, d);
        assert_budgets_stop_the_sweep(&db, s, d, settles);
    }
}

#[test]
fn metro_1k_reads_are_one_fetch_per_list() {
    let metro = Metro::new(MetroSpec::with_nodes(1_000, 1993)).unwrap();
    assert_seeded_pairs(metro.graph(), 128);
}

#[test]
fn unit_grid_24_reads_are_one_fetch_per_list() {
    let grid = Grid::new(24, CostModel::Uniform, 1993).unwrap();
    assert_seeded_pairs(grid.graph(), 128);
}

/// Strategy: a random directed graph of 2–40 nodes whose costs are the
/// integers 1–4, so equal-cost routes and labels tying the best meeting
/// cost are common, and a query pair on it.
fn arb_integer_graph() -> impl Strategy<Value = (Graph, NodeId, NodeId)> {
    (2usize..40).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n as u32, 0..n as u32, 1u32..5), 1..n * 3);
        (Just(n), arcs, 0..n as u32, 0..n as u32).prop_map(|(n, arcs, s, d)| {
            let arcs: Vec<(u32, u32, f64)> = (arcs.into_iter())
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, cost)| (u, v, f64::from(cost)))
                .collect();
            (graph_from_arcs(n, &arcs).unwrap(), NodeId(s), NodeId(d))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn random_graph_reads_are_one_fetch_per_list((graph, s, d) in arb_integer_graph()) {
        let db = database(&graph);
        assert_halves_agree_everywhere(db.hierarchy().unwrap());
        let settles = assert_run_matches_reference(&db, s, d);
        assert_budgets_stop_the_sweep(&db, s, d, settles);
    }
}

//! Property-based invariants of the storage engine: heap files and keyed
//! temporary relations must behave like their abstract models under random
//! operation sequences, and the I/O meter must account coherently.

use atis::storage::{
    EdgeRelation, HeapFile, IoStats, NodeRelation, NodeStatus, NodeTuple, StorageProfile,
    TempRelation, NO_PRED,
};
use atis::{CostModel, Grid};
use proptest::prelude::*;
use std::collections::HashMap;

/// The paper's single-file layout cached in a plain LRU pool of
/// `capacity` blocks.
fn pool_only(capacity: usize) -> StorageProfile {
    StorageProfile {
        buffer_blocks: Some(capacity),
        ..StorageProfile::paper()
    }
}

fn node_tuple(cost: f32) -> NodeTuple {
    NodeTuple {
        x: 0.0,
        y: 0.0,
        status: NodeStatus::Open,
        path: NO_PRED,
        path_cost: cost,
    }
}

/// Abstract operations on a keyed temp relation.
#[derive(Debug, Clone)]
enum Op {
    Append(u8, f32),
    Delete(u8),
    Replace(u8, f32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..20, 0.0f32..100.0).prop_map(|(k, c)| Op::Append(k, c)),
            (0u8..20).prop_map(Op::Delete),
            (0u8..20, 0.0f32..100.0).prop_map(|(k, c)| Op::Replace(k, c)),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn temp_relation_matches_hashmap_model(ops in arb_ops()) {
        let mut io = IoStats::new();
        let mut rel: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        let mut model: HashMap<u8, f32> = HashMap::new();
        for op in ops {
            match op {
                Op::Append(k, c) => {
                    model.entry(k).or_insert_with(|| {
                        rel.append(k as u32, &node_tuple(c), &mut io).unwrap();
                        c
                    });
                }
                Op::Delete(k) => {
                    let res = rel.delete(k as u32, &mut io);
                    prop_assert_eq!(res.is_ok(), model.remove(&k).is_some());
                }
                Op::Replace(k, c) => {
                    let res = rel.replace(k as u32, &mut io, |t| t.path_cost = c);
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(k) {
                        prop_assert!(res.is_ok());
                        e.insert(c);
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
            }
        }
        // Final state must match the model exactly.
        prop_assert_eq!(rel.len(), model.len());
        let mut seen = HashMap::new();
        rel.scan(&mut io, |_, k, t| { seen.insert(k as u8, t.path_cost); }).unwrap();
        prop_assert_eq!(seen, model);
    }

    #[test]
    fn select_min_agrees_with_model(ops in arb_ops()) {
        let mut io = IoStats::new();
        let mut rel: TempRelation<NodeTuple> = TempRelation::create(3, &mut io);
        let mut model: HashMap<u8, f32> = HashMap::new();
        for op in ops {
            match op {
                Op::Append(k, c) if !model.contains_key(&k) => {
                    rel.append(k as u32, &node_tuple(c), &mut io).unwrap();
                    model.insert(k, c);
                }
                Op::Delete(k) => {
                    let _ = rel.delete(k as u32, &mut io);
                    model.remove(&k);
                }
                _ => {}
            }
        }
        let selected = rel.select_min(&mut io, |_, t| t.path_cost as f64).unwrap();
        match selected {
            None => prop_assert!(model.is_empty()),
            Some((_, _, t)) => {
                let min = model.values().cloned().fold(f32::INFINITY, f32::min);
                prop_assert_eq!(t.path_cost, min);
            }
        }
    }

    #[test]
    fn heapfile_roundtrips_random_batches(costs in prop::collection::vec(0.0f32..1e6, 1..600)) {
        let mut io = IoStats::new();
        let mut f: HeapFile<NodeTuple> = HeapFile::create(&mut io);
        for &c in &costs {
            f.append(&node_tuple(c));
        }
        f.flush(&mut io).unwrap();
        prop_assert_eq!(f.len(), costs.len());
        prop_assert_eq!(f.block_count(), costs.len().div_ceil(256));
        // Writes charged = block count (one bulk flush).
        prop_assert_eq!(io.block_writes as usize, f.block_count());
        let mut read_back = Vec::new();
        f.scan(&mut io, |_, t| read_back.push(t.path_cost)).unwrap();
        prop_assert_eq!(read_back, costs);
    }

    #[test]
    fn io_meter_addition_is_consistent(reads in 0u64..1000, writes in 0u64..1000, updates in 0u64..1000) {
        let params = atis::storage::CostParams::default();
        let mut a = IoStats::new();
        a.read_blocks(reads);
        let mut b = IoStats::new();
        b.write_blocks(writes);
        b.update_tuples(updates);
        let sum = a + b;
        let direct = {
            let mut s = IoStats::new();
            s.read_blocks(reads);
            s.write_blocks(writes);
            s.update_tuples(updates);
            s
        };
        prop_assert_eq!(sum, direct);
        prop_assert!((sum.cost(&params) - (a.cost(&params) + b.cost(&params))).abs() < 1e-9);
    }
}

#[test]
fn buffer_pool_never_increases_cost_and_never_changes_answers() {
    use atis::algorithms::{Algorithm, Database};
    let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 4).unwrap();
    let (s, d) = grid.query_pair(atis::QueryKind::Diagonal);
    let cold = Database::open(grid.graph()).unwrap();
    for capacity in [1usize, 4, 16, 256] {
        let warm = Database::open_with_profile(grid.graph(), pool_only(capacity)).unwrap();
        for alg in Algorithm::TABLE {
            let c = cold.run(alg, s, d).unwrap();
            let w = warm.run(alg, s, d).unwrap();
            // Identical answers and expansion order...
            assert_eq!(c.iterations, w.iterations, "{} cap {capacity}", alg.label());
            assert_eq!(c.expansion_order, w.expansion_order);
            assert!((c.path_cost() - w.path_cost()).abs() < 1e-6);
            // ...and never more charged I/O.
            let params = atis::storage::CostParams::default();
            assert!(
                w.cost_units(&params) <= c.cost_units(&params) + 1e-9,
                "{} cap {capacity}: warm {} > cold {}",
                alg.label(),
                w.cost_units(&params),
                c.cost_units(&params)
            );
        }
    }
}

#[test]
fn bigger_buffer_pools_absorb_more_reads() {
    use atis::algorithms::{Algorithm, Database};
    let grid = Grid::new(12, CostModel::TWENTY_PERCENT, 6).unwrap();
    let (s, d) = grid.query_pair(atis::QueryKind::Diagonal);
    let mut previous = u64::MAX;
    for capacity in [1usize, 8, 64] {
        let db = Database::open_with_profile(grid.graph(), pool_only(capacity)).unwrap();
        let t = db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert!(
            t.io.block_reads <= previous,
            "capacity {capacity}: {} reads > previous {previous}",
            t.io.block_reads
        );
        previous = t.io.block_reads;
    }
}

#[test]
fn node_relation_roundtrips_a_whole_grid() {
    let grid = Grid::new(15, CostModel::TWENTY_PERCENT, 8).unwrap();
    let mut io = IoStats::new();
    let s = EdgeRelation::load(grid.graph(), &mut io).unwrap();
    let r = NodeRelation::load(grid.graph(), s.block_count(), 3, &mut io).unwrap();
    // Every node's stored coordinates must round-trip through the f32
    // tuple encoding.
    for u in grid.graph().node_ids() {
        let t = r.peek(u.0).unwrap();
        let p = grid.graph().point(u);
        assert!((t.x as f64 - p.x).abs() < 1e-5);
        assert!((t.y as f64 - p.y).abs() < 1e-5);
    }
    // Every edge must be reachable through its begin-node bucket.
    let mut bucket_edges = 0;
    for u in grid.graph().node_ids() {
        bucket_edges += s.fetch_adjacency(u.0, &mut io).unwrap().len();
    }
    assert_eq!(bucket_edges, grid.graph().edge_count());
}

#[test]
fn edge_relation_preserves_costs_exactly() {
    // Edge costs are stored as f64 in the 32-byte tuple: bit-exact.
    let grid = Grid::new(12, CostModel::TWENTY_PERCENT, 99).unwrap();
    let mut io = IoStats::new();
    let s = EdgeRelation::load(grid.graph(), &mut io).unwrap();
    for u in grid.graph().node_ids() {
        let adj = s.fetch_adjacency(u.0, &mut io).unwrap();
        let expect: Vec<f64> = grid.graph().neighbors(u).iter().map(|e| e.cost).collect();
        let got: Vec<f64> = adj.iter().map(|t| t.cost).collect();
        assert_eq!(expect, got);
    }
}

/// Charged I/O counts buffer-pool misses, so under a pool it depends on
/// what earlier runs left there: an unpooled database charges a repeat
/// run exactly what it charged the first, and a pooled one charges its
/// repeat no more than its first run, which already differs from the
/// unpooled charge. Dijkstra on this grid's diagonal: 11 760 reads
/// unpooled, then 6 184 and 6 172 under the 400-node profile's pool.
#[test]
fn charged_reads_depend_on_the_pool_and_its_history() {
    use atis::algorithms::{Algorithm, Database};
    let grid = Grid::new(20, CostModel::TWENTY_PERCENT, 1993).unwrap();
    let (s, d) = grid.query_pair(atis::QueryKind::Diagonal);
    let reads = |db: &Database| db.run(Algorithm::Dijkstra, s, d).unwrap().io.block_reads;

    let unpooled = Database::open(grid.graph()).unwrap();
    let (first, repeat) = (reads(&unpooled), reads(&unpooled));
    assert_eq!(
        first, repeat,
        "an unpooled repeat charges what the first run did"
    );

    let profile = StorageProfile::for_nodes(grid.graph().node_count());
    let pooled = Database::open_with_profile(grid.graph(), profile).unwrap();
    let (pooled_first, pooled_repeat) = (reads(&pooled), reads(&pooled));
    assert!(
        pooled_repeat <= pooled_first,
        "{pooled_repeat} > {pooled_first}"
    );
    assert_ne!(
        pooled_first, first,
        "the pool changes what a run is charged"
    );
}

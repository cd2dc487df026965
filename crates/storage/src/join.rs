//! The four join strategies of Section 4 and the cost chooser `F(B1, B2, B3)`.
//!
//! Step 6/7 of every algorithm joins the *current* node(s) with the edge
//! relation `S` on `Begin-node` to fetch adjacency lists. "The function
//! uses the input parameters to choose the cheapest join strategy from
//! among four viable choices: (1) Hash Join, (2) Nested-Loop Join,
//! (3) Sort-Merge Join, and (4) Primary Key Join."
//!
//! All four strategies compute the same relation; what differs is the I/O
//! they charge — exactly how the paper's own "query optimizer simulation"
//! treats them. The charging formulas (with `B1` = outer blocks, `B2` =
//! inner blocks, `B3` = result blocks):
//!
//! * **Nested-loop**: `B1·t_read + B1·B2·t_read + B3·t_write` — the form
//!   the paper spells out in Section 4.3.
//! * **Hash**: `(B1 + B2)·t_read + B3·t_write` — build the smaller side in
//!   memory, stream the larger.
//! * **Sort-merge**: `(B1·⌈log2 B1⌉ + B2·⌈log2 B2⌉)·t_update +
//!   (B1 + B2)·t_read + B3·t_write` — external sorts then a merge pass.
//! * **Primary-key**: one hash-bucket probe of `S` per outer *tuple* plus
//!   the result write: `|C|·t_read + B3·t_write` (a probe touches the
//!   bucket's blocks, at least one).
//!
//! Note the paper's Table 4B example *forces* nested-loop ("we assume that
//! all the algorithms choose the nested-join approach"), which is why
//! [`JoinPolicy::default`] is `Force(NestedLoop)`; the cost-based chooser
//! is exercised by the `experiments optimizer` ablation.

use crate::io::{CostParams, IoStats};
use crate::relations::EdgeRelation;
use crate::tuple::{EdgeTuple, FixedTuple, NodeTuple};

/// `Bf_rs` — blocking factor of the `R × S` join result. The byte
/// arithmetic gives `4096 / (16 + 32) = 85`; Table 4A prints 86 (the paper
/// rounded up). We follow the bytes.
pub const JOIN_BLOCKING: usize = crate::block::BLOCK_SIZE / (NodeTuple::SIZE + EdgeTuple::SIZE);

/// Outer-side blocking: current nodes carry `R`'s 16-byte schema.
pub const OUTER_BLOCKING: usize = crate::block::BLOCK_SIZE / NodeTuple::SIZE;

/// One of the four join strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Block nested-loop join.
    NestedLoop,
    /// In-memory hash join.
    Hash,
    /// Sort-merge join.
    SortMerge,
    /// Index (primary-key) join through `S`'s hash clustering.
    PrimaryKey,
}

impl JoinStrategy {
    /// All four strategies, in the paper's listing order.
    pub const ALL: [JoinStrategy; 4] = [
        JoinStrategy::Hash,
        JoinStrategy::NestedLoop,
        JoinStrategy::SortMerge,
        JoinStrategy::PrimaryKey,
    ];

    /// Human-readable name.
    pub fn label(&self) -> &'static str {
        match self {
            JoinStrategy::NestedLoop => "nested-loop",
            JoinStrategy::Hash => "hash",
            JoinStrategy::SortMerge => "sort-merge",
            JoinStrategy::PrimaryKey => "primary-key",
        }
    }
}

/// How the engine picks the strategy for each join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPolicy {
    /// Always use one strategy. The paper's worked example (Table 4B)
    /// forces `NestedLoop`.
    Force(JoinStrategy),
    /// Choose the cheapest by estimated cost — the paper's
    /// "query optimizer simulation in C".
    CostBased,
}

impl Default for JoinPolicy {
    fn default() -> Self {
        JoinPolicy::Force(JoinStrategy::NestedLoop)
    }
}

/// Estimated cost of a strategy for a join of `b_outer` outer blocks
/// holding `outer_tuples` tuples (a fractional expectation when the cost
/// model prices a run) against `b_inner` inner blocks producing `b_join`
/// result blocks. This is `F(B1, B2, B3)` for one strategy, the one
/// definition [`JoinPolicy::choose`] prices with.
pub fn estimate_cost(
    strategy: JoinStrategy,
    b_outer: usize,
    outer_tuples: f64,
    b_inner: usize,
    b_join: usize,
    params: &CostParams,
) -> f64 {
    let b_outer = b_outer.max(1) as f64;
    let b_inner = b_inner.max(1) as f64;
    let b_join = b_join as f64;
    let log2 = |b: f64| b.log2().ceil().max(0.0);
    match strategy {
        JoinStrategy::NestedLoop => {
            (b_outer + b_outer * b_inner) * params.t_read + b_join * params.t_write
        }
        JoinStrategy::Hash => (b_outer + b_inner) * params.t_read + b_join * params.t_write,
        JoinStrategy::SortMerge => {
            (b_outer * log2(b_outer) + b_inner * log2(b_inner)) * params.t_update
                + (b_outer + b_inner) * params.t_read
                + b_join * params.t_write
        }
        JoinStrategy::PrimaryKey => outer_tuples.max(1.0) * params.t_read + b_join * params.t_write,
    }
}

impl JoinPolicy {
    /// The strategy this policy runs for a join of `b_outer` outer blocks
    /// holding `outer_tuples` tuples against `b_inner` inner blocks
    /// producing `b_join` result blocks, and its [`estimate_cost`]: the
    /// forced strategy, or the cheapest of the four (ties resolve in
    /// [`JoinStrategy::ALL`] order). This is `F(B1, B2, B3)` and the one
    /// place a policy becomes a strategy: [`join_adjacency`] runs its pick
    /// and `atis-costmodel` prices with it.
    pub fn choose(
        self,
        b_outer: usize,
        outer_tuples: f64,
        b_inner: usize,
        b_join: usize,
        params: &CostParams,
    ) -> (JoinStrategy, f64) {
        let cost = |s| estimate_cost(s, b_outer, outer_tuples, b_inner, b_join, params);
        match self {
            JoinPolicy::Force(s) => (s, cost(s)),
            JoinPolicy::CostBased => {
                let mut best = (JoinStrategy::ALL[0], f64::INFINITY);
                for s in JoinStrategy::ALL {
                    let c = cost(s);
                    if c < best.1 {
                        best = (s, c);
                    }
                }
                best
            }
        }
    }
}

/// Joins the current node set with `S` on begin-node, returning
/// `(begin, edge)` pairs grouped per current node in input order, and the
/// strategy charged.
///
/// Charging: the strategy's I/O formula over the *actual* result size plus
/// the result-materialisation writes (`B_join`). The join output is a
/// temporary relation; its creation cost `I` is charged once per algorithm
/// run (step `C1`), not here, matching Table 2/3's step structure.
///
/// # Errors
/// Surfaces injected read failures and checksum mismatches from `S`.
pub fn join_adjacency(
    current: &[(u32, NodeTuple)],
    edges: &EdgeRelation,
    policy: JoinPolicy,
    params: &CostParams,
    io: &mut IoStats,
) -> Result<(Vec<(u32, EdgeTuple)>, JoinStrategy), crate::error::StorageError> {
    if current.is_empty() {
        return Ok((Vec::new(), JoinStrategy::PrimaryKey));
    }
    let est_result = ((current.len() as f64 * edges.average_degree()).ceil() as usize).max(1);
    let est_b_join = est_result.div_ceil(JOIN_BLOCKING).max(1);
    let b_outer = current.len().div_ceil(OUTER_BLOCKING).max(1);
    let (strategy, _) = policy.choose(
        b_outer,
        current.len() as f64,
        edges.block_count(),
        est_b_join,
        params,
    );

    // Canonical result: adjacency of each current node, input order. All
    // four strategies produce this same relation.
    let mut result = Vec::with_capacity(est_result);
    for &(id, _) in current {
        edges.peek_adjacency(id, |e| result.push((id, *e)))?;
    }

    // Charging. Reads of `S` go through the relation's (possibly
    // buffered) heap; the outer side is an unbuffered in-flight temporary.
    let b_outer = b_outer as u64;
    let b_inner = edges.block_count().max(1) as u64;
    let b_join = result.len().div_ceil(JOIN_BLOCKING).max(1) as u64;
    match strategy {
        JoinStrategy::NestedLoop => {
            io.read_blocks(b_outer);
            for _ in 0..b_outer {
                edges.charge_scan(io)?; // one full rescan of S per outer block
            }
            io.write_blocks(b_join);
        }
        JoinStrategy::Hash => {
            io.read_blocks(b_outer);
            edges.charge_scan(io)?;
            io.write_blocks(b_join);
        }
        JoinStrategy::SortMerge => {
            let log2 = |b: u64| ((b as f64).log2().ceil().max(0.0)) as u64;
            io.update_tuples(b_outer * log2(b_outer) + b_inner * log2(b_inner));
            io.read_blocks(b_outer);
            edges.charge_scan(io)?;
            io.write_blocks(b_join);
        }
        JoinStrategy::PrimaryKey => {
            for &(id, _) in current {
                edges.charge_probe(id, io)?;
            }
            io.write_blocks(b_join);
        }
    }
    Ok((result, strategy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relations::NodeStatus;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::Graph;

    fn graph() -> Graph {
        graph_from_arcs(
            5,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (3, 4, 1.0),
                (4, 0, 1.0),
            ],
        )
        .unwrap()
    }

    fn current(ids: &[u32]) -> Vec<(u32, NodeTuple)> {
        ids.iter()
            .map(|&id| {
                (
                    id,
                    NodeTuple {
                        x: 0.0,
                        y: 0.0,
                        status: NodeStatus::Current,
                        path: crate::tuple::NO_PRED,
                        path_cost: 0.0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn join_blocking_factor_is_85() {
        assert_eq!(JOIN_BLOCKING, 85);
    }

    #[test]
    fn all_strategies_produce_the_same_relation() {
        let g = graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let cur = current(&[0, 1]);
        let p = CostParams::default();
        let mut results = Vec::new();
        for strat in JoinStrategy::ALL {
            let (r, used) =
                join_adjacency(&cur, &s, JoinPolicy::Force(strat), &p, &mut IoStats::new())
                    .unwrap();
            assert_eq!(used, strat);
            results.push(r);
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        let pairs: Vec<(u32, u32)> = results[0].iter().map(|(f, e)| (*f, e.end)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2), (1, 3)]);
    }

    #[test]
    fn nested_loop_charges_quadratic_reads() {
        let g = graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let cur = current(&[0]);
        let p = CostParams::default();
        let mut io2 = IoStats::new();
        let _ = join_adjacency(
            &cur,
            &s,
            JoinPolicy::Force(JoinStrategy::NestedLoop),
            &p,
            &mut io2,
        )
        .unwrap();
        // B1 = 1, B2 = 1: 1 + 1*1 = 2 reads, 1 result write.
        assert_eq!(io2.block_reads, 2);
        assert_eq!(io2.block_writes, 1);
    }

    #[test]
    fn primary_key_charges_per_probe() {
        let g = graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let cur = current(&[0, 1, 2]);
        let p = CostParams::default();
        let mut io2 = IoStats::new();
        let _ = join_adjacency(
            &cur,
            &s,
            JoinPolicy::Force(JoinStrategy::PrimaryKey),
            &p,
            &mut io2,
        )
        .unwrap();
        // One bucket block per current node (adjacencies fit one block).
        assert_eq!(io2.block_reads, 3);
        assert_eq!(io2.block_writes, 1);
    }

    #[test]
    fn chooser_picks_primary_key_for_single_current_node() {
        // The shape of Dijkstra/A* iterations: |C| = 1 against a large S:
        // one bucket probe plus the result write.
        let p = CostParams::default();
        let (s, c) = JoinPolicy::CostBased.choose(1, 1.0, 28, 1, &p);
        assert_eq!(s, JoinStrategy::PrimaryKey);
        assert!((c - (0.035 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn a_forced_policy_prices_its_own_strategy() {
        // F(1, 28, 1) under the paper's forced nested loop (Section 4.3):
        // 1*0.035 + 28*0.035 + 1*0.05 = 1.065.
        let p = CostParams::default();
        let (s, c) = JoinPolicy::Force(JoinStrategy::NestedLoop).choose(1, 0.0, 28, 1, &p);
        assert_eq!(s, JoinStrategy::NestedLoop);
        assert!((c - 1.065).abs() < 1e-9);
    }

    #[test]
    fn chooser_prefers_hash_for_bulk_joins() {
        // 1000 outer tuples in 4 blocks vs 28 inner blocks: primary key
        // would cost 1000 reads; hash costs 32.
        let p = CostParams::default();
        let (s, _) = JoinPolicy::CostBased.choose(4, 1000.0, 28, 2, &p);
        assert_eq!(s, JoinStrategy::Hash);
    }

    #[test]
    fn chooser_avoids_nested_loop_for_large_outer() {
        let p = CostParams::default();
        // 1000 outer tuples (4 blocks) x 100 inner blocks: nested loop is
        // 4 + 400 reads; hash is 104.
        let (s, _) = JoinPolicy::CostBased.choose(4, 1000.0, 100, 10, &p);
        assert_ne!(s, JoinStrategy::NestedLoop);
    }

    #[test]
    fn estimates_match_formulas() {
        let p = CostParams::default();
        // B1 = 1 (200 tuples fit 1 block at 256/block), B2 = 28, B3 = 1.
        let nl = estimate_cost(JoinStrategy::NestedLoop, 1, 200.0, 28, 1, &p);
        assert!((nl - ((1.0 + 28.0) * 0.035 + 0.05)).abs() < 1e-12);
        let h = estimate_cost(JoinStrategy::Hash, 1, 200.0, 28, 1, &p);
        assert!((h - (29.0 * 0.035 + 0.05)).abs() < 1e-12);
        let pk = estimate_cost(JoinStrategy::PrimaryKey, 1, 200.0, 28, 1, &p);
        assert!((pk - (200.0 * 0.035 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn sort_merge_estimate_reduces_to_merge_for_single_blocks() {
        // log2(1) = 0: just (1+1) reads + 1 write.
        let p = CostParams::default();
        let c = estimate_cost(JoinStrategy::SortMerge, 1, 5.0, 1, 1, &p);
        assert!((c - (2.0 * 0.035 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn estimates_scale_monotonically_with_inner_size() {
        let p = CostParams::default();
        for s in JoinStrategy::ALL {
            let small = estimate_cost(s, 2, 300.0, 4, 1, &p);
            let large = estimate_cost(s, 2, 300.0, 64, 1, &p);
            assert!(large >= small, "{} not monotone in B2", s.label());
        }
    }

    #[test]
    fn empty_current_set_joins_to_nothing() {
        let g = graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let p = CostParams::default();
        let before = io;
        let (r, _) = join_adjacency(&[], &s, JoinPolicy::CostBased, &p, &mut io).unwrap();
        assert!(r.is_empty());
        assert_eq!(io.since(&before), IoStats::default());
    }

    #[test]
    fn sort_merge_charges_sort_updates() {
        let g = graph();
        let mut io = IoStats::new();
        let s = EdgeRelation::load(&g, &mut io).unwrap();
        let cur = current(&[0]);
        let p = CostParams::default();
        let mut io2 = IoStats::new();
        let _ = join_adjacency(
            &cur,
            &s,
            JoinPolicy::Force(JoinStrategy::SortMerge),
            &p,
            &mut io2,
        )
        .unwrap();
        // log2(1) = 0 for both single-block sides: no sort updates, just
        // the merge reads and result write.
        assert_eq!(io2.tuple_updates, 0);
        assert_eq!(io2.block_reads, 2);
    }
}

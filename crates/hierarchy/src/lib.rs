//! Contraction-hierarchy preprocessing for A* version 5.
//!
//! The flat algorithm ladder (v1–v4) tops out at goal-directed search
//! over the base relations: every query still touches a corridor of
//! nodes proportional to its length. This crate trades preprocessing
//! for query work the way the hierarchy literature does (see PAPERS.md):
//! contract nodes in a good order, record shortcuts over the contracted
//! middles, and answer queries with a *bidirectional upward* search
//! that only climbs ranks — on metro networks that means a few hundred
//! settles regardless of trip length, where v4 expands thousands.
//!
//! The build splits into three passes, and the split is the point:
//!
//! 1. **Ordering** (`order`): one top-down nested dissection whose
//!    upper levels split lists of the storage layer's [`PartitionMap`]
//!    regions and whose lower levels split one region's nodes. Pure
//!    structure; no costs.
//! 2. **Contraction** (`overlay`): the elimination fill of the graph
//!    under that order, stored as an up-arc CSR. Pure structure too, so
//!    it survives every UPDATE.
//! 3. **Customization** (`overlay`): price every arc direction against
//!    the current costs via triangle relaxations.
//!
//! [`Hierarchy::build_report`] says what each pass cost.
//!
//! [`Hierarchy`] carries the same staleness contract that
//! `LandmarkTables` established for v4, keyed by
//! [`Graph::cost_fingerprint`]: a fingerprint mismatch means *stale*,
//! and the query layer refuses to serve stale-priced shortcuts — that
//! refusal is the typed `HierarchyUnavailable` degrade to v4/v3. An
//! UPDATE never re-contracts. The per-update phase,
//! [`Hierarchy::customized_for_edge`], re-prices only the arcs one
//! changed edge can reach — the same code for an increase and a
//! decrease, bit-identical to the full pass — and
//! [`Hierarchy::customized_for`], the full pass, is what the build
//! itself runs and what the tests compare against. An overlay is a fill
//! and the prices of one metric, however it got them: a built one and a
//! re-priced one are the same thing. A fill is valid only for the
//! topology it was built from, so an overlay of unknown provenance is
//! healed by [`Hierarchy::rebuild_for`], not re-priced.
//!
//! All preprocessing is metered in block I/O ([`IoStats`]) so the
//! paper's cost-model lens extends to the build: HIERARCHY.md tabulates
//! what a hierarchy costs to construct and refresh in the same currency
//! queries are charged in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
#![warn(clippy::iter_over_hash_type)]

mod error;
mod order;
mod overlay;

use std::sync::{Arc, OnceLock};

use atis_graph::grouped::Sharing;
use atis_graph::{Graph, NodeId, PartitionMap};
use atis_storage::block::{blocks_for, BLOCK_SIZE};
use atis_storage::{EdgeTuple, FixedTuple, IoStats, NodeTuple};

pub use error::HierarchyError;

use order::nested_dissection_order;
use overlay::{Core, DownArcs, Pricing, NO_VIA};

/// Bytes per overlay arc record: two endpoint ids (8), two directed
/// customized costs (16), and two unpack middles (8). Sets how many
/// arcs fit a 4 KB block when queries and preprocessing are charged for
/// touching the overlay.
pub const ARC_TUPLE_SIZE: usize = 32;

/// Overlay arc records per 4 KB block (128).
const ARCS_PER_BLOCK: usize = BLOCK_SIZE / ARC_TUPLE_SIZE;

/// Build-time knobs for [`Hierarchy::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Region size handed to [`PartitionMap`]: regions are the upper
    /// levels of the dissection — the ordering splits lists of whole
    /// regions until one is left, and only then that region's nodes.
    pub region_target: usize,
}

impl HierarchyConfig {
    /// The configuration used throughout the experiments: 256-node
    /// regions (the storage layer's block-aligned choice).
    pub fn paper() -> HierarchyConfig {
        HierarchyConfig { region_target: 256 }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper()
    }
}

/// One up-arc out of a node, as seen by the bidirectional upward
/// search. `fwd` prices tail → head travel, `bwd` head → tail.
#[derive(Debug, Clone, Copy)]
pub struct UpArc {
    /// The higher-ranked endpoint.
    pub head: NodeId,
    /// Customized cost tail → head (`∞` when that direction has no
    /// path through contracted middles — e.g. against a one-way).
    pub fwd: f64,
    /// Customized cost head → tail.
    pub bwd: f64,
}

/// One direction of an up-arc, as one side of the upward search relaxes
/// it: the record a settle fetches from its node's up-arc list.
#[derive(Debug, Clone, Copy)]
pub struct UpStep {
    /// The higher-ranked endpoint.
    pub head: NodeId,
    /// Customized cost of the direction ([`UpArc::fwd`] or
    /// [`UpArc::bwd`]).
    pub cost: f64,
    /// The direction's unpack middle, as [`Hierarchy::arc_direction`]
    /// gives it: `None` for an original edge.
    pub middle: Option<NodeId>,
}

/// The two halves of an overlay step `from → to` that unpacks through
/// `middle`, as [`Hierarchy::halves`] reads them. Both are arcs of
/// `middle`'s up-arc list, since a middle ranks below the two ends it
/// joins, so one fetch of that list serves both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Halves {
    /// `from → middle`, as [`Hierarchy::arc_direction`] gives it.
    pub first: Option<(f64, Option<NodeId>)>,
    /// `middle → to`, likewise.
    pub second: Option<(f64, Option<NodeId>)>,
    /// Blocks the two arc records occupy in `middle`'s list, which
    /// starts on a block of its own as a settle charges it: 1, or 2
    /// when they fall in different blocks (or either is missing).
    pub blocks: u64,
}

/// Where one [`Hierarchy::build`] spent its time and work, pass by pass.
/// The counts repeat exactly for a graph and configuration; the wall
/// times are this machine's.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildReport {
    /// Wall time of the ordering pass (partition regions included), ms.
    pub order_ms: f64,
    /// Wall time of the elimination fill, ms.
    pub fill_ms: f64,
    /// Wall time of the customization (triangle) pass, ms.
    pub customize_ms: f64,
    /// Triangles the customization pass relaxed: the sum of the next
    /// three counts.
    pub triangles: u64,
    /// Triangles over middles in either half of the order's top split,
    /// which the pass runs side by side on two threads when the machine
    /// has them.
    pub split_triangles: u64,
    /// Triangles the high half deferred, because they write rows of the
    /// top separator, and replayed alone after the two halves joined.
    pub deferred_triangles: u64,
    /// Triangles over middles in the top separator, run alone last.
    pub separator_triangles: u64,
}

/// A contraction hierarchy: contraction order, shortcut overlay, and
/// customized per-direction prices, stamped with the cost fingerprint
/// of the graph it was priced against.
///
/// Cloning is cheap (the topology and pricing are shared behind `Arc`),
/// which is what lets epoch snapshots carry the hierarchy the same
/// way they carry landmark tables. A re-priced descendant
/// ([`Hierarchy::customized_for_edge`]) shares the topology outright and
/// every group of the price columns its update did not write.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    core: Arc<Core>,
    /// Derived from `core` on the first UPDATE and shared, like it, by
    /// every re-priced descendant; a server that never sees an UPDATE
    /// never builds it.
    down: Arc<OnceLock<DownArcs>>,
    pricing: Arc<Pricing>,
    fingerprint: u64,
    config: HierarchyConfig,
    build_io: IoStats,
    report: BuildReport,
}

impl Hierarchy {
    /// Orders, contracts, and customizes a hierarchy for `graph` at its
    /// current costs: a fresh order and fill, then the pricing
    /// [`Hierarchy::customized_for`] computes. A `region_target` of 0
    /// is taken as 1.
    ///
    /// Metered honestly: the build scans the node and edge relations
    /// once, charges a tuple update per triangle relaxation that
    /// improved a price, and writes the overlay out at
    /// [`ARC_TUPLE_SIZE`] bytes per arc. The total is available as
    /// [`Hierarchy::build_io`] and feeds HIERARCHY.md's preprocessing
    /// cost tables; the per-pass split is [`Hierarchy::build_report`].
    pub fn build(graph: &Graph, config: HierarchyConfig) -> Result<Hierarchy, HierarchyError> {
        if graph.node_count() == 0 {
            return Err(HierarchyError::EmptyGraph);
        }
        let mut io = IoStats::new();
        let mut report = BuildReport::default();
        // One sequential scan of R and S to learn structure and costs.
        io.read_blocks(relation_blocks(graph));

        #[expect(
            clippy::disallowed_types,
            reason = "pass wall times are BuildReport metadata, never an input to the overlay"
        )]
        let clock = std::time::Instant::now;
        let mut pass = clock();
        let mut lap = || {
            std::mem::replace(&mut pass, clock())
                .elapsed()
                .as_secs_f64()
                * 1e3
        };
        let partition = PartitionMap::build(graph, config.region_target.max(1));
        let (order, top) = nested_dissection_order(graph, &partition);
        report.order_ms = lap();
        let core = Core::fill(graph, order, top);
        report.fill_ms = lap();
        let (pricing, triangles) = Pricing::customize(&core, graph, &mut io);
        report.triangles = triangles.total();
        report.split_triangles = triangles.halves;
        report.deferred_triangles = triangles.deferred;
        report.separator_triangles = triangles.separator;
        report.customize_ms = lap();

        // Materialize the overlay relation.
        io.write_blocks(overlay_blocks(core.arc_count()));
        io.relations_created += 1;

        Ok(Hierarchy {
            core: Arc::new(core),
            down: Arc::default(),
            pricing: Arc::new(pricing),
            fingerprint: graph.cost_stamp(),
            config,
            build_io: io,
            report,
        })
    }

    /// Re-prices the overlay against `graph`'s current costs *without*
    /// re-contracting: the elimination fill is metric-independent, so
    /// only the customization pass re-runs — the pass
    /// [`Hierarchy::build`] runs, so the result is the overlay a build
    /// under the same order would price.
    ///
    /// This is the reference pass of the UPDATE contract: what
    /// [`Hierarchy::customized_for_edge`] must equal bit for bit. It is
    /// exact only for a `graph` with the topology the fill was built
    /// from.
    pub fn customized_for(&self, graph: &Graph) -> Hierarchy {
        let mut io = self.build_io;
        // Re-read current costs, rewrite the overlay's price columns.
        io.read_blocks(relation_blocks(graph));
        let (pricing, _) = Pricing::customize(&self.core, graph, &mut io);
        io.write_blocks(overlay_blocks(self.core.arc_count()));
        Hierarchy {
            core: Arc::clone(&self.core),
            down: Arc::clone(&self.down),
            pricing: Arc::new(pricing),
            fingerprint: graph.cost_stamp(),
            config: self.config,
            build_io: io,
            report: self.report,
        }
    }

    /// The per-update phase: re-prices the overlay for a change to the
    /// cost of edge `from → to` alone, at a cost proportional to what
    /// the change can reach rather than to the overlay — the same code
    /// for an increase and a decrease. Returns the hierarchy and the
    /// number of arcs it examined.
    ///
    /// `self` must be current for `graph` as it was before that one
    /// cost changed (the caller compares [`Hierarchy::fingerprint`]
    /// with the pre-update graph's stamp; an overlay that fails that check
    /// goes through [`Hierarchy::rebuild_for`] instead). Under that
    /// precondition the result equals `customized_for(graph)` field
    /// for field, bit for bit. The price columns are copied on write, a
    /// group of 256 tails at a time, so holders of `self` keep reading
    /// the old prices and the result shares every group the change
    /// could not reach. The result is stamped with
    /// [`Graph::cost_stamp`], so nothing here passes over the edges.
    pub fn customized_for_edge(
        &self,
        graph: &Graph,
        from: NodeId,
        to: NodeId,
    ) -> (Hierarchy, usize) {
        let mut io = self.build_io;
        let mut pricing = Pricing::clone(&self.pricing);
        let down = self.down.get_or_init(|| DownArcs::build(&self.core));
        let examined = pricing.reprice_edge(&self.core, down, graph, from, to, &mut io);
        let hierarchy = Hierarchy {
            core: Arc::clone(&self.core),
            down: Arc::clone(&self.down),
            pricing: Arc::new(pricing),
            fingerprint: graph.cost_stamp(),
            config: self.config,
            build_io: io,
            report: self.report,
        };
        (hierarchy, examined)
    }

    /// Rebuilds from scratch at `graph`'s current costs — a fresh order
    /// and fill, for a changed *structure* or an overlay of unknown
    /// provenance. An UPDATE takes it only to heal an overlay that was
    /// not current for the costs before the change.
    pub fn rebuild_for(&self, graph: &Graph) -> Result<Hierarchy, HierarchyError> {
        Hierarchy::build(graph, self.config)
    }

    /// Whether this hierarchy was priced against exactly the costs
    /// `graph` currently has. A stale hierarchy must not answer queries
    /// — its shortcuts embed old prices. Re-derives
    /// [`Graph::cost_fingerprint`] from the edges rather than reading
    /// the stamp, so every run also checks the stamp an install
    /// maintained.
    pub fn is_current_for(&self, graph: &Graph) -> bool {
        self.fingerprint == graph.cost_fingerprint()
    }

    /// The cost fingerprint this hierarchy was priced at.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Cumulative block I/O spent building (and re-customizing) this
    /// artifact, in the same currency queries are charged in.
    pub fn build_io(&self) -> IoStats {
        self.build_io
    }

    /// The per-pass time and work of the [`Hierarchy::build`] this
    /// overlay descends from (re-pricing leaves it as it was).
    pub fn build_report(&self) -> BuildReport {
        self.report
    }

    /// Number of nodes the hierarchy covers.
    pub fn node_count(&self) -> usize {
        self.core.rank.len()
    }

    /// Number of overlay arcs (each prices both directions).
    pub fn arc_count(&self) -> usize {
        self.core.arc_count()
    }

    /// Contraction rank of `u` (0 = contracted first).
    #[inline]
    pub fn rank(&self, u: NodeId) -> u32 {
        self.core.rank[u.index()]
    }

    /// Depth of `u` in the elimination tree (0 for a node with no
    /// up-arcs). Every node an upward search from `r` reaches is an
    /// ancestor of `r` there, one a depth, so a search can keep the
    /// label of `v` at `depth(r) − depth(v)`: metric-independent, and
    /// shared by every re-priced overlay.
    #[inline]
    pub fn depth(&self, u: NodeId) -> u32 {
        self.core.depth[u.index()]
    }

    /// Number of up-arcs out of `u` — the width of one upward
    /// relaxation step, which is what a settle at `u` is charged for.
    #[inline]
    pub fn up_degree(&self, u: NodeId) -> usize {
        self.core.range(u.0).len()
    }

    /// Iterates the up-arcs out of `u` (heads in node-id order).
    pub fn up_arcs(&self, u: NodeId) -> impl Iterator<Item = UpArc> + '_ {
        let heads = &self.core.heads[self.core.range(u.0)];
        let fwd = self.pricing.fwd.row(&self.core.first, u.index());
        let bwd = self.pricing.bwd.row(&self.core.first, u.index());
        (heads.iter().zip(fwd).zip(bwd)).map(|((&head, &fwd), &bwd)| UpArc {
            head: NodeId(head),
            fwd,
            bwd,
        })
    }

    /// The up-arcs out of `u` in one direction (heads in node-id order):
    /// tail → head when `forward`, head → tail otherwise, each with its
    /// customized cost and unpack middle.
    pub fn up_steps(&self, u: NodeId, forward: bool) -> impl Iterator<Item = UpStep> + '_ {
        let heads = &self.core.heads[self.core.range(u.0)];
        let (cost, via) = if forward {
            (&self.pricing.fwd, &self.pricing.fwd_via)
        } else {
            (&self.pricing.bwd, &self.pricing.bwd_via)
        };
        let cost = cost.row(&self.core.first, u.index());
        let via = via.row(&self.core.first, u.index());
        (heads.iter().zip(cost).zip(via)).map(|((&head, &cost), &via)| UpStep {
            head: NodeId(head),
            cost,
            middle: middle_of(via),
        })
    }

    /// Customized cost and unpack middle for travelling `from → to`
    /// along the overlay arc joining the two nodes, if that arc exists
    /// and the direction is reachable. A `None` middle means the step
    /// is an original edge; a `Some(m)` step expands to `from → m → to`,
    /// recursively, until only real edges remain.
    pub fn arc_direction(&self, from: NodeId, to: NodeId) -> Option<(f64, Option<NodeId>)> {
        self.direction_at(self.locate(from, to)?)
    }

    /// Both halves of the step `from → to` through `middle`, each as
    /// [`Hierarchy::arc_direction`] gives it, and the blocks of
    /// `middle`'s up-arc list they occupy: what unpacking that step
    /// reads.
    pub fn halves(&self, from: NodeId, middle: NodeId, to: NodeId) -> Halves {
        let (first, second) = (self.locate(from, middle), self.locate(middle, to));
        let block = |arc: ArcAt| {
            let start = self.core.range(arc.tail).start;
            (arc.tail, (arc.idx - start) / ARCS_PER_BLOCK)
        };
        let blocks = match (first, second) {
            (Some(a), Some(b)) if block(a) == block(b) => 1,
            _ => 2,
        };
        Halves {
            first: first.and_then(|arc| self.direction_at(arc)),
            second: second.and_then(|arc| self.direction_at(arc)),
            blocks,
        }
    }

    /// The arc joining `from` and `to`, travelled `from → to`.
    fn locate(&self, from: NodeId, to: NodeId) -> Option<ArcAt> {
        let forward = self.rank(from) < self.rank(to);
        let (tail, head) = if forward {
            (from.0, to.0)
        } else {
            (to.0, from.0)
        };
        let idx = self.core.arc_index(tail, head)?;
        Some(ArcAt { tail, idx, forward })
    }

    /// Cost and middle of one located arc direction, if it is reachable.
    fn direction_at(&self, arc: ArcAt) -> Option<(f64, Option<NodeId>)> {
        let at = self.core.slot(arc.tail, arc.idx);
        let (cost, via) = if arc.forward {
            (self.pricing.fwd[at], self.pricing.fwd_via[at])
        } else {
            (self.pricing.bwd[at], self.pricing.bwd_via[at])
        };
        cost.is_finite().then(|| (cost, middle_of(via)))
    }

    /// How much of this overlay is the very memory `other` holds: the
    /// topology, the down-arc index and each group of each price column
    /// count one part.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &Hierarchy) -> Sharing {
        let mut sharing = self.pricing.shared_with(&other.pricing);
        sharing.part(&self.core, &other.core, self.core.bytes());
        let down = self.down.get().map_or(0, DownArcs::bytes);
        sharing.part(&self.down, &other.down, down);
        sharing
    }
}

/// An up-arc's place in the CSR (its tail and index) and the direction
/// a step travels it: `forward` is tail → head.
#[derive(Clone, Copy)]
struct ArcAt {
    tail: u32,
    idx: usize,
    forward: bool,
}

/// A stored `via` as an unpack middle: `None` for an original edge.
fn middle_of(via: u32) -> Option<NodeId> {
    (via != NO_VIA).then_some(NodeId(via))
}

/// Blocks one sequential scan of the node (R) and edge (S) relations
/// costs, at the storage layer's tuple sizes.
fn relation_blocks(graph: &Graph) -> u64 {
    let edge_blocks = blocks_for(graph.edge_count(), BLOCK_SIZE / EdgeTuple::SIZE).max(1);
    let node_blocks = blocks_for(graph.node_count(), BLOCK_SIZE / NodeTuple::SIZE).max(1);
    (edge_blocks + node_blocks) as u64
}

/// Blocks occupied by the overlay relation.
fn overlay_blocks(arcs: usize) -> u64 {
    blocks_for(arcs, ARCS_PER_BLOCK).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::grouped::GroupedColumn;
    use atis_graph::sssp;
    use atis_graph::{CostModel, Grid, Metro, MetroSpec, SplitMix64};
    use order::TopSplit;
    use proptest::test_runner::TestCaseError;

    /// Exhaustive bidirectional upward search —
    /// the reference implementation of the v5 query, kept here so the
    /// overlay is testable without the algorithms crate.
    fn updown_dist(h: &Hierarchy, s: NodeId, t: NodeId) -> f64 {
        let n = h.node_count();
        let df = upward(h, s, true, n);
        let db = upward(h, t, false, n);
        let mut best = f64::INFINITY;
        for u in 0..n {
            best = best.min(df[u] + db[u]);
        }
        best
    }

    fn upward(h: &Hierarchy, s: NodeId, forward: bool, n: usize) -> Vec<f64> {
        let arcs = |u| {
            h.up_arcs(u)
                .map(move |arc| (arc.head, if forward { arc.fwd } else { arc.bwd }))
        };
        sssp::dijkstra(n, s, None, arcs, |_, _| {})
    }

    /// Plain in-memory Dijkstra distance, the oracle of this crate's
    /// tests (`overlay`'s included).
    pub(crate) fn reference_dist(graph: &Graph, s: NodeId, t: NodeId) -> f64 {
        sssp::distances_from(graph, s)[t.index()]
    }

    fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                (
                    NodeId(rng.next_below(n as u64) as u32),
                    NodeId(rng.next_below(n as u64) as u32),
                )
            })
            .collect()
    }

    #[test]
    fn updown_distances_match_dijkstra_on_a_metro() {
        let metro = Metro::new(MetroSpec::new(3, 2, 1993)).unwrap();
        let graph = metro.graph();
        let h = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();
        for (s, t) in sample_pairs(graph.node_count(), 40, 42) {
            let got = updown_dist(&h, s, t);
            let want = reference_dist(graph, s, t);
            if want.is_finite() {
                assert!(
                    (got - want).abs() <= want.abs() * 1e-9 + 1e-12,
                    "{s:?}->{t:?}: hierarchy {got}, dijkstra {want}"
                );
            } else {
                assert!(got.is_infinite(), "{s:?}->{t:?} should be unreachable");
            }
        }
    }

    #[test]
    fn one_way_arcs_never_price_the_reverse_direction() {
        // A directed triangle with a single one-way chord: 0→1→2 plus
        // 0→2 one-way. Travelling 2⇝0 must stay impossible.
        let graph = graph_from_arcs(
            3,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (0, 2, 1.5),
            ],
        )
        .unwrap();
        let h = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
        let fwd = updown_dist(&h, NodeId(0), NodeId(2));
        let bwd = updown_dist(&h, NodeId(2), NodeId(0));
        assert!(
            (fwd - 1.5).abs() < 1e-12,
            "0->2 should use the one-way at 1.5, got {fwd}"
        );
        assert!(
            (bwd - 2.0).abs() < 1e-12,
            "2->0 must go around at 2.0, got {bwd}"
        );
    }

    #[test]
    fn arc_direction_unpacks_to_real_edges() {
        let metro = Metro::new(MetroSpec::new(2, 2, 5)).unwrap();
        let graph = metro.graph();
        let h = Hierarchy::build(graph, HierarchyConfig::paper()).unwrap();

        fn unpack(h: &Hierarchy, a: NodeId, b: NodeId, out: &mut Vec<(NodeId, NodeId)>) {
            match h.arc_direction(a, b) {
                Some((_, Some(m))) => {
                    unpack(h, a, m, out);
                    unpack(h, m, b, out);
                }
                _ => out.push((a, b)),
            }
        }

        let mut checked = 0;
        for tail in graph.node_ids() {
            for arc in h.up_arcs(tail) {
                let Some((cost, Some(_))) = h.arc_direction(tail, arc.head) else {
                    continue;
                };
                let mut hops = Vec::new();
                unpack(&h, tail, arc.head, &mut hops);
                let mut total = 0.0;
                for &(a, b) in &hops {
                    let edge = graph
                        .edge_cost(a, b)
                        .unwrap_or_else(|| panic!("unpacked hop {a:?}->{b:?} is not a real edge"));
                    total += edge;
                }
                assert!(
                    (total - cost).abs() <= cost * 1e-9,
                    "shortcut {tail:?}->{:?} prices {cost} but unpacks to {total}",
                    arc.head
                );
                checked += 1;
                if checked >= 200 {
                    return;
                }
            }
        }
        assert!(checked > 0, "metro overlay should contain shortcuts");
    }

    #[test]
    fn update_contract_customize_then_rebuild() {
        let metro = Metro::new(MetroSpec::new(2, 2, 21)).unwrap();
        let mut graph = metro.graph().clone();
        let h = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
        assert!(h.is_current_for(&graph));

        // Rush hour: a cost increase leaves the hierarchy stale.
        let edge = *graph.edges().next().unwrap();
        graph
            .set_edge_cost(edge.from, edge.to, edge.cost * 3.0)
            .unwrap();
        assert!(!h.is_current_for(&graph));

        // Each arm — the full pass, the per-update phase, a rebuild —
        // leaves the overlay current and exact.
        let customized = h.customized_for(&graph);
        let (partial, _) = h.customized_for_edge(&graph, edge.from, edge.to);
        let rebuilt = customized.rebuild_for(&graph).unwrap();
        for arm in [&customized, &partial, &rebuilt] {
            assert!(arm.is_current_for(&graph));
            for (s, t) in sample_pairs(graph.node_count(), 15, 7) {
                let got = updown_dist(arm, s, t);
                let want = reference_dist(&graph, s, t);
                if want.is_finite() {
                    assert!((got - want).abs() <= want.abs() * 1e-9 + 1e-12);
                }
            }
        }
    }

    /// `metro`'s graph with a seeded handful of edges doubled by a
    /// dearer parallel twin (`Graph::edge_cost` prices the cheaper one).
    fn with_parallel_edges(graph: &Graph, rng: &mut SplitMix64) -> Graph {
        let mut b =
            atis_graph::GraphBuilder::with_capacity(graph.node_count(), graph.edge_count() + 16);
        for u in graph.node_ids() {
            b.add_node(graph.point(u));
        }
        let edges: Vec<_> = graph.edges().copied().collect();
        for e in &edges {
            b.add_edge(*e);
        }
        for _ in 0..16 {
            let e = edges[rng.next_below(edges.len() as u64) as usize];
            b.add_arc(e.from, e.to, e.cost * 1.25);
        }
        b.build().unwrap()
    }

    fn assert_same_pricing(partial: &Hierarchy, full: &Hierarchy, step: &str) {
        let (p, f) = (&partial.pricing, &full.pricing);
        let bits = |v: &GroupedColumn<f64>| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p.fwd), bits(&f.fwd), "fwd after {step}");
        assert_eq!(bits(&p.bwd), bits(&f.bwd), "bwd after {step}");
        assert_eq!(p.fwd_via, f.fwd_via, "fwd_via after {step}");
        assert_eq!(p.bwd_via, f.bwd_via, "bwd_via after {step}");
        assert_eq!(partial.fingerprint, full.fingerprint);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 6,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The per-update phase's contract: after every step of a script
        /// of increases, decreases below the base cost, exact restores,
        /// chained updates of one edge and updates of adjacent edges,
        /// the partial pass — chained from its own previous result —
        /// equals the full pass on the updated graph bit for bit.
        #[test]
        fn partial_customization_is_bit_identical_to_the_full_pass(
            cx in 2usize..=3,
            cy in 2usize..=3,
            seed in 0u64..1_000_000,
        ) {
            let metro = Metro::new(MetroSpec::new(cx, cy, seed)).unwrap();
            let mut rng = SplitMix64::new(seed ^ 0x5eed);
            let mut graph = with_parallel_edges(metro.graph(), &mut rng);
            let built = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
            let mut partial = built.clone();
            let edges: Vec<_> = graph.edges().copied().collect();
            // A one-way freeway carriageway, then seeded picks.
            let one_way = edges.iter().find(|e| graph.edge_cost(e.to, e.from).is_none());
            let mut picks = vec![*one_way.expect("metros have one-way carriageways")];
            picks.extend((0..5).map(|_| edges[rng.next_below(edges.len() as u64) as usize]));
            for pick in picks {
                // An adjacent edge: another edge out of the pick's head.
                let adjacent = graph.neighbors(pick.to)[0];
                let script = [
                    (pick, 2.5, "increase"),
                    (pick, 4.0, "chained increase"),
                    (adjacent, 3.0, "adjacent increase"),
                    (pick, 0.4, "decrease below base"),
                    (adjacent, 1.0, "adjacent restore"),
                    (pick, 1.0, "exact restore"),
                ];
                for (edge, factor, step) in script {
                    graph
                        .set_edge_cost(edge.from, edge.to, edge.cost * factor)
                        .unwrap();
                    let (next, examined) = partial.customized_for_edge(&graph, edge.from, edge.to);
                    proptest::prop_assert!(examined >= 1 && examined <= next.arc_count());
                    assert_same_pricing(&next, &built.customized_for(&graph), step);
                    partial = next;
                }
            }
            // Every cost is back at its base: so is every price.
            proptest::prop_assert_eq!(&partial.pricing.fwd, &built.pricing.fwd);
            proptest::prop_assert_eq!(&partial.pricing.bwd, &built.pricing.bwd);
        }
    }

    /// A graph of `nodes` nodes and up to `arcs` random two-way segments.
    pub(crate) fn random_graph(nodes: u32, arcs: usize, seed: u64) -> Graph {
        let mut rng = SplitMix64::new(seed);
        let mut list = Vec::with_capacity(arcs);
        for _ in 0..arcs {
            let u = rng.next_below(nodes as u64) as u32;
            let v = rng.next_below(nodes as u64) as u32;
            if u != v {
                let cost = 1.0 + rng.next_f64() * 9.0;
                list.push((u, v, cost));
                list.push((v, u, cost));
            }
        }
        graph_from_arcs(nodes as usize, &list).unwrap()
    }

    /// Groups of 256 tails that hold tails of the high half of the top
    /// split and tails of the rest: the ones the split pass copies.
    fn straddling_groups(core: &Core) -> usize {
        let TopSplit { high, separator } = core.top;
        let tails: Vec<u32> = (0..core.rank.len() as u32).collect();
        let in_high = |&tail: &u32| (high..separator).contains(&core.rank[tail as usize]);
        (tails.chunks(atis_graph::grouped::GROUP_NODES))
            .filter(|group| group.iter().any(in_high) && !group.iter().all(in_high))
            .count()
    }

    /// The split triangle pass, on two threads and on one, and the
    /// build's, against the kernel it replaced, kept as a test-only
    /// oracle: both price columns (by bit pattern), both `via` columns,
    /// the improvement count and the triangle count all equal the
    /// binary-search pass's. Returns the core.
    fn assert_kernels_agree(graph: &Graph, region_target: usize) -> Result<Core, TestCaseError> {
        let partition = PartitionMap::build(graph, region_target);
        let (order, top) = nested_dissection_order(graph, &partition);
        let core = Core::fill(graph, order, top);
        let (searched, improvements, triangles) = Pricing::customize_by_search(&core, graph);
        let bits = |v: &GroupedColumn<f64>| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let built = Hierarchy::build(graph, HierarchyConfig { region_target }).unwrap();
        proptest::prop_assert_eq!(built.build_report().triangles, triangles);
        let mut passes = vec![(
            Pricing::clone(&built.pricing),
            built.build_io().tuple_updates,
        )];
        for parallel in [true, false] {
            let mut io = IoStats::new();
            let (split, counts) = Pricing::customize_on(&core, graph, &mut io, parallel);
            proptest::prop_assert_eq!(counts.total(), triangles);
            passes.push((split, io.tuple_updates));
        }
        for (split, updates) in &passes {
            proptest::prop_assert_eq!(bits(&split.fwd), bits(&searched.fwd));
            proptest::prop_assert_eq!(bits(&split.bwd), bits(&searched.bwd));
            proptest::prop_assert_eq!(&split.fwd_via, &searched.fwd_via);
            proptest::prop_assert_eq!(&split.bwd_via, &searched.bwd_via);
            proptest::prop_assert_eq!(*updates, improvements);
        }
        Ok(core)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 4,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The build kernel against the one it replaced. The metros carry
        /// parallel twins, one-way carriageways and a zero-cost edge (ties
        /// between a node and its neighbour); the grid and the random
        /// graph have groups of 256 tails that straddle the top split;
        /// one region splits only at the node level, and eight nodes do
        /// not split at all.
        #[test]
        fn build_kernels_are_bit_identical_to_the_reference_kernels(
            cx in 2usize..=3,
            seed in 0u64..1_000_000,
        ) {
            let metro = Metro::new(MetroSpec::new(cx, 2, seed)).unwrap();
            let mut rng = SplitMix64::new(seed ^ 0x5eed);
            let mut graph = with_parallel_edges(metro.graph(), &mut rng);
            let edges: Vec<_> = graph.edges().copied().collect();
            proptest::prop_assert!(
                edges.iter().any(|e| graph.edge_cost(e.to, e.from).is_none()),
                "metros have one-way carriageways"
            );
            let free = edges[rng.next_below(edges.len() as u64) as usize];
            graph.set_edge_cost(free.from, free.to, 0.0).unwrap();
            assert_kernels_agree(&graph, 256)?;

            let grid = Grid::new(24, CostModel::TWENTY_PERCENT, seed).unwrap();
            let core = assert_kernels_agree(grid.graph(), 256)?;
            proptest::prop_assert!(straddling_groups(&core) > 0, "grid");
            let core = assert_kernels_agree(&random_graph(700, 500, seed), 128)?;
            proptest::prop_assert!(straddling_groups(&core) > 0, "random graph");

            let one_region = Grid::new(12, CostModel::TWENTY_PERCENT, seed).unwrap();
            let core = assert_kernels_agree(one_region.graph(), 256)?;
            proptest::prop_assert!(core.top.high < core.top.separator, "a node-level split");
            let core = assert_kernels_agree(&random_graph(8, 12, seed), 256)?;
            proptest::prop_assert_eq!(core.top, TopSplit { high: 8, separator: 8 });
        }
    }

    /// The same at metro-100k, region-major as the benchmark lays it out.
    #[test]
    #[ignore = "metro-100k: release job only"]
    fn build_kernels_are_bit_identical_to_the_reference_kernels_at_metro_100k() {
        let metro = Metro::new(MetroSpec::with_nodes(100_000, 1993)).unwrap();
        let map = PartitionMap::build(metro.graph(), 256);
        let (graph, _) = map.apply(metro.graph()).unwrap();
        let core = assert_kernels_agree(&graph, 256).unwrap();
        assert!(core.top.high < core.top.separator);
    }

    #[test]
    fn the_per_update_phase_is_copy_on_write_and_metered() {
        let metro = Metro::new(MetroSpec::new(2, 2, 21)).unwrap();
        let mut graph = metro.graph().clone();
        let h = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
        let edge = *graph.edges().next().unwrap();
        let before = h.pricing.fwd.clone();
        graph
            .set_edge_cost(edge.from, edge.to, edge.cost * 3.0)
            .unwrap();
        let (next, examined) = h.customized_for_edge(&graph, edge.from, edge.to);
        assert!(Arc::ptr_eq(&h.core, &next.core), "the topology is shared");
        assert!(Arc::ptr_eq(&h.down, &next.down), "and so is its transpose");
        assert_eq!(h.pricing.fwd, before, "holders of the old overlay keep it");
        // Each arc examined can copy its tail's group in each of the
        // four columns, and nothing else is copied.
        let sharing = next.shared_with(&h);
        assert!(
            (1..=4 * examined).contains(&sharing.copied()),
            "{sharing:?}"
        );
        assert_eq!(h.clone().shared_with(&h).copied(), 0);
        assert!(!h.is_current_for(&graph) && next.is_current_for(&graph));
        let spent = next.build_io().since(&h.build_io());
        assert!(spent.block_reads >= 3 * examined as u64);
        assert!(spent.tuple_updates >= 1, "the seed arc's record changed");
        assert_eq!(spent.block_writes, 0, "no column is rewritten wholesale");
        // A self-loop has no overlay arc: nothing to examine.
        let (_, none) = next.customized_for_edge(&graph, edge.from, edge.from);
        assert_eq!(none, 0);
    }

    #[test]
    fn builds_are_deterministic() {
        let metro = Metro::new(MetroSpec::new(2, 2, 3)).unwrap();
        let a = Hierarchy::build(metro.graph(), HierarchyConfig::paper()).unwrap();
        let b = Hierarchy::build(metro.graph(), HierarchyConfig::paper()).unwrap();
        assert_eq!(a.core.heads, b.core.heads);
        assert_eq!(a.core.order, b.core.order);
        assert_eq!(a.pricing.fwd, b.pricing.fwd);
        assert_eq!(a.build_io(), b.build_io());
        // The report's count repeats; its wall times need not.
        assert_eq!(a.build_report().triangles, b.build_report().triangles);
        assert!(a.build_report().triangles > 0);
    }

    #[test]
    fn a_zero_region_target_builds_like_one() {
        let graph = graph_from_arcs(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let h = Hierarchy::build(&graph, HierarchyConfig { region_target: 0 }).unwrap();
        assert!((updown_dist(&h, NodeId(0), NodeId(2)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let graph = graph_from_arcs(0, &[]).unwrap();
        assert!(matches!(
            Hierarchy::build(&graph, HierarchyConfig::paper()),
            Err(HierarchyError::EmptyGraph)
        ));
    }

    #[test]
    fn build_io_is_charged() {
        let metro = Metro::new(MetroSpec::new(2, 2, 13)).unwrap();
        let h = Hierarchy::build(metro.graph(), HierarchyConfig::paper()).unwrap();
        let io = h.build_io();
        assert!(io.block_reads > 0, "the relation scan must be metered");
        assert!(
            io.block_writes > 0,
            "overlay materialization must be metered"
        );
        assert!(
            io.tuple_updates > 0,
            "triangle improvements must be metered"
        );
        assert_eq!(io.relations_created, 1);
    }
}

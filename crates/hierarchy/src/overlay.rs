//! Shortcut overlay: elimination fill and metric customization.
//!
//! The overlay follows the customizable-contraction-hierarchy split of
//! concerns (Strasser & Zeitz, PAPERS.md):
//!
//! * **Topology** ([`Core`]) depends only on the graph's *structure* and
//!   the contraction order — it is the chordal completion (elimination
//!   fill) of the graph under that order. Every up-arc can carry
//!   traffic in both directions, so one arc record prices both.
//! * **Metric** ([`Pricing`]) is a per-direction cost plus the middle
//!   node (`via`) recorded when a triangle relaxation shortened the
//!   arc; `via` is what lets a query unpack a shortcut back into real
//!   edges. Re-costing the graph re-runs only this pass — the fill is
//!   untouched, which is what makes UPDATE-driven customization cheap.
//!
//! The four price columns are [`GroupedColumn`]s cut by *tail* group —
//! the same [`GROUP_NODES`] the graph's edge column is cut at — so a
//! re-priced overlay shares every group its update did not write with
//! the overlay it came from, while a tail's fan is still one contiguous
//! slice per column: the triangle pass borrows every group once, up
//! front, and its loops run over plain `&mut [f64]` as they did over the
//! flat columns.
//!
//! That is all of it: a direction a query may relax is one priced
//! finite, and nothing prunes further (HIERARCHY.md, "Why there is no
//! witness pass"). The triangle pass has the kernel it replaced beside
//! it under `#[cfg(test)]` (`customize_by_search`): 6× slower at
//! metro-100k, obviously right, and the crate's property tests hold the
//! fast one to it bit for bit.

use std::collections::BTreeSet;

use atis_graph::grouped::{GroupedColumn, Sharing, GROUP_NODES};
use atis_graph::{Graph, NodeId};
use atis_storage::IoStats;

/// Sentinel for "no middle node": the arc direction is an original edge.
pub(crate) const NO_VIA: u32 = u32::MAX;

/// An arc's position in the price columns ([`Core::slot`]).
type Slot = (usize, usize);

/// Metric-independent overlay topology: the contraction order and the
/// elimination fill stored as an up-arc CSR (tails in node-id order,
/// heads sorted by node id within each tail's range).
#[derive(Debug)]
pub(crate) struct Core {
    /// `rank[node] = rank`; higher rank = contracted later.
    pub(crate) rank: Vec<u32>,
    /// `order[rank] = node` (inverse of `rank`).
    pub(crate) order: Vec<u32>,
    /// CSR offsets into `heads`, indexed by tail node id, length `n + 1`.
    pub(crate) first: Vec<u32>,
    /// Up-arc heads (always higher-ranked than the tail), sorted by id.
    pub(crate) heads: Vec<u32>,
}

/// Down-arc index — the transpose of [`Core`]'s up-arc CSR: for every
/// node the tails of its incoming up-arcs, its *down-neighbours*, as a
/// CSR indexed by head node id with tails in rank order within each
/// head's range. Metric-independent like [`Core`], but kept beside it
/// rather than in it: only the per-update pass
/// ([`Pricing::reprice_edge`]) reads it, so it is derived lazily, and a
/// lazily-filled cell inside `Core` would cost every `&Core` hot loop
/// its read-only guarantee (the full pass ran 13 % slower that way).
#[derive(Debug)]
pub(crate) struct DownArcs {
    first: Vec<u32>,
    tails: Vec<u32>,
}

impl DownArcs {
    /// Transposes `core`'s up-arcs, keeping each arc's tail.
    pub(crate) fn build(core: &Core) -> DownArcs {
        let (first, tails) = core.transpose();
        DownArcs { first, tails }
    }

    /// Bytes the index holds.
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.first.len() + self.tails.len())
    }

    /// The down-neighbours of `head` in rank order.
    fn of(&self, head: u32) -> &[u32] {
        &self.tails[self.first[head as usize] as usize..self.first[head as usize + 1] as usize]
    }
}

impl Core {
    /// Computes the elimination fill of `graph` under the contraction
    /// order `order` (`order[rank] = node`).
    ///
    /// The fill uses the quotient-graph (minimum-neighbour) rule: when
    /// node `m` is eliminated, instead of inserting the full clique over
    /// its higher-ranked neighbours, arcs are inserted only from the
    /// lowest-ranked up-neighbour to the others. The lowest neighbour is
    /// eliminated before the rest, and its own elimination completes the
    /// clique transitively — the resulting fill is identical (a unit
    /// test checks this against the textbook full-clique rule).
    pub(crate) fn fill(graph: &Graph, order: Vec<u32>) -> Core {
        let n = order.len();
        let mut rank = vec![0u32; n];
        for (r, &node) in order.iter().enumerate() {
            rank[node as usize] = r as u32;
        }

        // Up-neighbour lists keyed by tail node id, pushed unsorted —
        // an arc can arrive more than once (parallel edges, both
        // directions, several eliminated middles) — then sorted and
        // deduplicated when the tail's own turn comes: everything that
        // pushes into a list ranks below its owner, so the list is final
        // by then. A node pushes one arc fewer than it has, so together
        // the lists never hold more than the edges plus the fill.
        let mut up: Vec<Vec<u32>> = vec![Vec::new(); n];
        for e in graph.edges() {
            let (a, b) = (e.from.0, e.to.0);
            if a == b {
                continue;
            }
            if rank[a as usize] < rank[b as usize] {
                up[a as usize].push(b);
            } else {
                up[b as usize].push(a);
            }
        }

        for &m in &order {
            let mut heads = std::mem::take(&mut up[m as usize]);
            heads.sort_unstable();
            heads.dedup();
            if let Some(&lowest) = heads.iter().min_by_key(|&&v| rank[v as usize]) {
                up[lowest as usize].extend(heads.iter().filter(|&&v| v != lowest));
            }
            up[m as usize] = heads;
        }

        let mut first = Vec::with_capacity(n + 1);
        let mut heads = Vec::new();
        first.push(0u32);
        for list in &up {
            heads.extend_from_slice(list);
            first.push(heads.len() as u32);
        }
        Core {
            rank,
            order,
            first,
            heads,
        }
    }

    /// Groups the up-arcs by head — the transpose of the CSR: offsets
    /// indexed by head node id, and for each head the tails of its
    /// incoming arcs in rank order. A counting sort.
    fn transpose(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.rank.len();
        let mut first = vec![0u32; n + 1];
        for &h in &self.heads {
            first[h as usize + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut next = first.clone();
        let mut tails = vec![0u32; self.heads.len()];
        for &tail in &self.order {
            for idx in self.range(tail) {
                let slot = &mut next[self.heads[idx] as usize];
                tails[*slot as usize] = tail;
                *slot += 1;
            }
        }
        (first, tails)
    }

    /// Number of overlay arcs (each prices both directions).
    pub(crate) fn arc_count(&self) -> usize {
        self.heads.len()
    }

    /// Bytes the topology holds.
    pub(crate) fn bytes(&self) -> usize {
        4 * (self.rank.len() + self.order.len() + self.first.len() + self.heads.len())
    }

    /// The CSR range of up-arc indexes out of `tail`.
    #[inline]
    pub(crate) fn range(&self, tail: u32) -> std::ops::Range<usize> {
        self.first[tail as usize] as usize..self.first[tail as usize + 1] as usize
    }

    /// Where the up-arc with index `idx` out of `tail` sits in a price
    /// column: `tail`'s group and the position within it.
    #[inline]
    pub(crate) fn slot(&self, tail: u32, idx: usize) -> (usize, usize) {
        let group = tail as usize / GROUP_NODES;
        (group, idx - self.first[group * GROUP_NODES] as usize)
    }

    /// Index of the up-arc `tail → head`, if present. `heads` is sorted
    /// within each tail's range, so this is a binary search.
    #[inline]
    pub(crate) fn arc_index(&self, tail: u32, head: u32) -> Option<usize> {
        let range = self.range(tail);
        self.heads[range.clone()]
            .binary_search(&head)
            .ok()
            .map(|i| range.start + i)
    }
}

/// Metric state for one overlay: per-direction customized costs and
/// unpack middles. `fwd` prices tail → head, `bwd` head → tail. Rows
/// follow [`Core`]'s CSR (`core.first` are the offsets); an arc is
/// addressed by its [`Core::slot`]. A clone shares every group.
#[derive(Debug, Clone)]
pub(crate) struct Pricing {
    pub(crate) fwd: GroupedColumn<f64>,
    pub(crate) bwd: GroupedColumn<f64>,
    pub(crate) fwd_via: GroupedColumn<u32>,
    pub(crate) bwd_via: GroupedColumn<u32>,
}

impl Pricing {
    /// Prices every arc direction against `graph`'s current costs via a
    /// bottom-up triangle pass, and returns the pricing with the number
    /// of triangles the pass relaxed.
    ///
    /// Arcs are initialised from the cheapest parallel original edge in
    /// each direction (`∞` when absent — one-way streets stay one-way in
    /// the overlay), then for each middle `m` in rank order every pair
    /// of up-arcs `(m→x, m→y)` relaxes the third side `x–y` of the
    /// triangle, which the chordal fill guarantees exists. Processing
    /// middles bottom-up makes each arc final before it is used as a
    /// side, so one pass suffices. Successful relaxations are charged to
    /// `io` as tuple updates.
    pub(crate) fn customize(core: &Core, graph: &Graph, io: &mut IoStats) -> (Pricing, u64) {
        let mut pricing = Pricing::from_edges(core, graph);
        let (improvements, triangles) = pricing.relax_triangles(core);
        io.update_tuples(improvements);
        (pricing, triangles)
    }

    /// Every arc direction at the cost of its cheapest original edge,
    /// `∞` where there is none.
    fn from_edges(core: &Core, graph: &Graph) -> Pricing {
        let mut pricing = Pricing {
            fwd: GroupedColumn::filled(&core.first, f64::INFINITY),
            bwd: GroupedColumn::filled(&core.first, f64::INFINITY),
            fwd_via: GroupedColumn::filled(&core.first, NO_VIA),
            bwd_via: GroupedColumn::filled(&core.first, NO_VIA),
        };
        let (mut fwd, mut bwd) = (pricing.fwd.groups_mut(), pricing.bwd.groups_mut());
        for tail in 0..core.rank.len() as u32 {
            let range = core.range(tail);
            let heads = &core.heads[range.clone()];
            let (group, lo) = core.slot(tail, range.start);
            let fwd = &mut fwd[group][lo..][..heads.len()];
            let bwd = &mut bwd[group][lo..][..heads.len()];
            for ((&head, fwd), bwd) in heads.iter().zip(fwd).zip(bwd) {
                if let Some(c) = graph.edge_cost(NodeId(tail), NodeId(head)) {
                    *fwd = c;
                }
                if let Some(c) = graph.edge_cost(NodeId(head), NodeId(tail)) {
                    *bwd = c;
                }
            }
        }
        pricing
    }

    /// How much of these prices is the very memory `other` holds: each
    /// group of each of the four columns counts one part.
    pub(crate) fn shared_with(&self, other: &Pricing) -> Sharing {
        let mut sharing = self.fwd.shared_with(&other.fwd);
        sharing += self.bwd.shared_with(&other.bwd);
        sharing += self.fwd_via.shared_with(&other.fwd_via);
        sharing += self.bwd_via.shared_with(&other.bwd_via);
        sharing
    }

    /// The triangle pass: returns the number of successful relaxations
    /// and the number of triangles relaxed.
    ///
    /// Middles are taken in rank order — that order is the contract:
    /// [`Pricing::relax`]'s strict `<` lets the first middle offered win
    /// a tie. Within one middle `m` every pair of up-arcs prices a
    /// different third side and reads only `m`'s own arcs, which are
    /// final, so that order is free, and the pass takes it in memory
    /// order. In a chordal fill the up-neighbours of `m` ranked above
    /// `x` are exactly the up-neighbours of `m` that `x` has too, so the
    /// triangles over an up-arc `lo = m → x` are found by walking `x`'s
    /// arcs once, in place, and asking of each head whether `m` reaches
    /// it — a table from node to position in `m`'s fan, set for the fan
    /// and unset after it, answers without a search. `m`'s own prices
    /// are read from a copy, which keeps them contiguous and lets `x`'s
    /// columns be borrowed as plain slices — out of the groups, which
    /// are all borrowed once before the loop. This is the
    /// neighbour-intersection enumeration of customizable CH (Strasser &
    /// Zeitz, PAPERS.md). An up-arc with no finite direction can relax
    /// nothing (`∞ + c < d` never holds) and is skipped. The arithmetic
    /// is [`Pricing::relax`]'s, with `lo`'s two prices held in locals.
    fn relax_triangles(&mut self, core: &Core) -> (u64, u64) {
        /// One group's rows in each column, and the CSR index they start at.
        struct Rows<'a> {
            base: usize,
            fwd: &'a mut [f64],
            bwd: &'a mut [f64],
            fwd_via: &'a mut [u32],
            bwd_via: &'a mut [u32],
        }
        let (mut improvements, mut triangles) = (0u64, 0u64);
        let mut fan_slot = vec![u32::MAX; core.rank.len()];
        let (mut fan_fwd, mut fan_bwd): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        let prices = self.fwd.groups_mut().into_iter().zip(self.bwd.groups_mut());
        let vias = (self.fwd_via.groups_mut().into_iter()).zip(self.bwd_via.groups_mut());
        let mut groups: Vec<Rows> = (prices.zip(vias).enumerate())
            .map(|(g, ((fwd, bwd), (fwd_via, bwd_via)))| Rows {
                base: core.first[g * GROUP_NODES] as usize,
                fwd,
                bwd,
                fwd_via,
                bwd_via,
            })
            .collect();
        for &m in &core.order {
            let fan = core.range(m);
            if fan.len() < 2 {
                continue;
            }
            let fan_heads = &core.heads[fan.clone()];
            // Rows are sliced to the length of the heads they belong to,
            // here and below, so the loops index them unchecked.
            let own = &groups[m as usize / GROUP_NODES];
            fan_fwd.clear();
            fan_fwd.extend_from_slice(&own.fwd[fan.start - own.base..][..fan_heads.len()]);
            fan_bwd.clear();
            fan_bwd.extend_from_slice(&own.bwd[fan.start - own.base..][..fan_heads.len()]);
            for (slot, &y) in fan_heads.iter().enumerate() {
                fan_slot[y as usize] = slot as u32;
            }
            // Heads come in id order, so successive `x` mostly share a
            // group: its rows are looked up when the group changes.
            let (mut group, mut rows) = (usize::MAX, None);
            for (lo, &x) in fan_heads.iter().enumerate() {
                let (lo_fwd, lo_bwd) = (fan_fwd[lo], fan_bwd[lo]);
                if lo_fwd.is_infinite() && lo_bwd.is_infinite() {
                    continue;
                }
                let upper = core.range(x);
                let upper_heads = &core.heads[upper.clone()];
                if group != x as usize / GROUP_NODES {
                    group = x as usize / GROUP_NODES;
                    rows = Some(&mut groups[group]);
                }
                let Some(rows) = &mut rows else {
                    unreachable!("set for the first head and kept since");
                };
                let (lo, len) = (upper.start - rows.base, upper_heads.len());
                let fwd = &mut rows.fwd[lo..][..len];
                let bwd = &mut rows.bwd[lo..][..len];
                let fwd_via = &mut rows.fwd_via[lo..][..len];
                let bwd_via = &mut rows.bwd_via[lo..][..len];
                for (idx, &y) in upper_heads.iter().enumerate() {
                    // `u32::MAX` (not in the fan) fails this test too.
                    let hi = fan_slot[y as usize] as usize;
                    if hi >= fan_heads.len() {
                        continue;
                    }
                    triangles += 1;
                    let via_fwd = lo_bwd + fan_fwd[hi];
                    if via_fwd < fwd[idx] {
                        fwd[idx] = via_fwd;
                        fwd_via[idx] = m;
                        improvements += 1;
                    }
                    let via_bwd = fan_bwd[hi] + lo_fwd;
                    if via_bwd < bwd[idx] {
                        bwd[idx] = via_bwd;
                        bwd_via[idx] = m;
                        improvements += 1;
                    }
                }
            }
            for &y in fan_heads {
                fan_slot[y as usize] = u32::MAX;
            }
        }
        (improvements, triangles)
    }

    /// The triangle pass as it was before the fan table: each third side
    /// found by binary search ([`Core::arc_index`]), each relaxation
    /// through [`Pricing::relax`]. The oracle [`Pricing::customize`] is
    /// compared against; returns the pricing and its `improvements`.
    #[cfg(test)]
    pub(crate) fn customize_by_search(core: &Core, graph: &Graph) -> (Pricing, u64) {
        let mut pricing = Pricing::from_edges(core, graph);
        let mut improvements = 0u64;
        let mut fan: Vec<usize> = Vec::new();
        for &m in &core.order {
            let range = core.range(m);
            if range.len() < 2 {
                continue;
            }
            fan.clear();
            fan.extend(range);
            fan.sort_unstable_by_key(|&idx| core.rank[core.heads[idx] as usize]);
            for i in 0..fan.len() {
                for j in i + 1..fan.len() {
                    let (lo, hi) = (fan[i], fan[j]);
                    let (x, y) = (core.heads[lo], core.heads[hi]);
                    let at = core.slot(x, core.arc_index(x, y).expect("chordal fill"));
                    let mut arc = pricing.record(at);
                    improvements += pricing.relax(&mut arc, core.slot(m, lo), core.slot(m, hi), m);
                    pricing.store(at, arc);
                }
            }
        }
        (pricing, improvements)
    }

    /// Relaxes both directions of `arc` (`x`–`y`, `x` the lower rank)
    /// through the middle `m` whose up-arcs sit at `lo` (`m → x`) and
    /// `hi` (`m → y`), both as [`Core::slot`]s, returning how many
    /// directions improved. Strict `<`: among equal-cost middles the
    /// first one offered wins, so callers offer middles in rank order.
    /// `arc` is the caller's copy of the record: the columns are written
    /// by [`Pricing::store`], and only where the record moved.
    #[inline]
    fn relax(&self, arc: &mut Record, lo: Slot, hi: Slot, m: u32) -> u64 {
        let mut improvements = 0;
        // x → m → y uses the bwd side of (m, x) and the fwd side of
        // (m, y); the reverse direction mirrors it.
        let via_fwd = self.bwd[lo] + self.fwd[hi];
        if via_fwd < arc.fwd {
            arc.fwd = via_fwd;
            arc.fwd_via = m;
            improvements += 1;
        }
        let via_bwd = self.bwd[hi] + self.fwd[lo];
        if via_bwd < arc.bwd {
            arc.bwd = via_bwd;
            arc.bwd_via = m;
            improvements += 1;
        }
        improvements
    }

    /// The per-update phase: brings `self` — which must hold exactly
    /// what [`Pricing::customize`] computes for `graph` as it was before
    /// the cost of edge `a → b` (either direction, any parallels)
    /// changed — to exactly what it computes for `graph` now, touching
    /// only the arcs the change can reach. Increase and decrease run the
    /// same code. Returns the number of arcs examined.
    ///
    /// A queue ordered by tail rank starts at the overlay arc joining
    /// `a` and `b`. Each popped arc `x`–`y` is recomputed from scratch,
    /// in a local: its original edge costs, then its *lower triangles* —
    /// the down-neighbours `m` of `x` that also reach `y`, in rank
    /// order, through the same [`Pricing::relax`] the full pass's oracle
    /// uses, so prices and vias come out bit-identical — and written
    /// back only where the record moved. Only when a price moved are the
    /// arc's *upper triangles* — the arcs joining `y` to the rest of
    /// `x`'s fan — looked at, and of those only the ones `x` can change
    /// are enqueued: `x` was a recorded middle, or what it now offers
    /// ties or beats the standing price. They have higher-ranked tails,
    /// so every arc is final before it is read as a side, as in the
    /// full pass; an arc never enqueued keeps its argmin candidate and
    /// sees no new one at or below it, so recomputing it would change
    /// nothing.
    ///
    /// Charged to `io`: per arc examined one overlay block and the two
    /// adjacency blocks its original costs come from, one overlay block
    /// per triangle — lower (both sides sit in the middle's fan) or upper
    /// (the arc looked at) — and a tuple update per arc whose record
    /// changed.
    // Out of line on purpose: inlined into its one caller it moved the
    // code the *build* runs and cost metro-10k's 236 ms build 10 ms
    // (measured, alternating binaries; with this attribute, parity).
    #[inline(never)]
    pub(crate) fn reprice_edge(
        &mut self,
        core: &Core,
        down: &DownArcs,
        graph: &Graph,
        a: NodeId,
        b: NodeId,
        io: &mut IoStats,
    ) -> usize {
        let (Some(&rank_a), Some(&rank_b)) = (core.rank.get(a.index()), core.rank.get(b.index()))
        else {
            return 0;
        };
        let (tail, head) = if rank_a < rank_b {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        };
        // No arc: a self-loop, which the fill skips and no route can use.
        let Some(seed) = core.arc_index(tail, head) else {
            return 0;
        };
        let offers = |offer: f64, standing: f64| offer.is_finite() && offer <= standing;
        let mut queue = BTreeSet::from([(rank_a.min(rank_b), seed)]);
        let (mut examined, mut triangles, mut rewritten) = (0usize, 0u64, 0u64);
        while let Some((rank, idx)) = queue.pop_first() {
            examined += 1;
            let (x, y) = (core.order[rank as usize], core.heads[idx]);
            let at = core.slot(x, idx);
            let before = self.record(at);
            let edge = |a, b| graph.edge_cost(NodeId(a), NodeId(b));
            let mut arc = Record {
                fwd: edge(x, y).unwrap_or(f64::INFINITY),
                bwd: edge(y, x).unwrap_or(f64::INFINITY),
                fwd_via: NO_VIA,
                bwd_via: NO_VIA,
            };
            for &m in down.of(x) {
                let Some(hi) = core.arc_index(m, y) else {
                    continue;
                };
                let Some(lo) = core.arc_index(m, x) else {
                    debug_assert!(false, "down-arc index lists {m} under {x}");
                    continue;
                };
                triangles += 1;
                self.relax(&mut arc, core.slot(m, lo), core.slot(m, hi), m);
            }
            let (before, after) = (before.bits(), arc.bits());
            if after == before {
                continue;
            }
            rewritten += 1;
            self.store(at, arc);
            if after[..2] == before[..2] {
                continue;
            }
            for side in core.range(x) {
                let z = core.heads[side];
                if z == y {
                    continue;
                }
                let (lo, hi) = if core.rank[y as usize] < core.rank[z as usize] {
                    (idx, side)
                } else {
                    (side, idx)
                };
                let (t, h) = (core.heads[lo], core.heads[hi]);
                triangles += 1;
                let Some(upper) = core.arc_index(t, h) else {
                    debug_assert!(false, "chordal fill: up-neighbours {t}, {h} of {x}");
                    continue;
                };
                let (lo, hi, at) = (core.slot(x, lo), core.slot(x, hi), core.slot(t, upper));
                // `x` can change `upper` only if it was a middle there,
                // or what it now offers ties (the via may move to it)
                // or beats the standing price. `∞` never wins a relax.
                if self.fwd_via[at] == x
                    || self.bwd_via[at] == x
                    || offers(self.bwd[lo] + self.fwd[hi], self.fwd[at])
                    || offers(self.bwd[hi] + self.fwd[lo], self.bwd[at])
                {
                    queue.insert((core.rank[t as usize], upper));
                }
            }
        }
        io.read_blocks(3 * examined as u64 + triangles);
        io.update_tuples(rewritten);
        examined
    }

    /// The record of the arc at `at`.
    fn record(&self, at: Slot) -> Record {
        Record {
            fwd: self.fwd[at],
            bwd: self.bwd[at],
            fwd_via: self.fwd_via[at],
            bwd_via: self.bwd_via[at],
        }
    }

    /// Writes `arc` as the record at `at`, column by column and only
    /// where it differs — a write copies the group it lands in if the
    /// overlay this one was cloned from still shares it, and most
    /// re-priced arcs keep their middles.
    fn store(&mut self, at: Slot, arc: Record) {
        if self.fwd[at].to_bits() != arc.fwd.to_bits() {
            self.fwd[at] = arc.fwd;
        }
        if self.bwd[at].to_bits() != arc.bwd.to_bits() {
            self.bwd[at] = arc.bwd;
        }
        if self.fwd_via[at] != arc.fwd_via {
            self.fwd_via[at] = arc.fwd_via;
        }
        if self.bwd_via[at] != arc.bwd_via {
            self.bwd_via[at] = arc.bwd_via;
        }
    }
}

/// One arc's row across the four price columns.
#[derive(Debug, Clone, Copy)]
struct Record {
    fwd: f64,
    bwd: f64,
    fwd_via: u32,
    bwd_via: u32,
}

impl Record {
    /// Prices (first two) and middles as bit patterns, for exact
    /// before/after comparison.
    fn bits(&self) -> [u64; 4] {
        [
            self.fwd.to_bits(),
            self.bwd.to_bits(),
            u64::from(self.fwd_via),
            u64::from(self.bwd_via),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{PartitionMap, SplitMix64};

    impl Core {
        /// Order and fill, as `Hierarchy::build` composes them.
        pub(crate) fn build(graph: &Graph, partition: &PartitionMap) -> Core {
            Core::fill(
                graph,
                crate::order::nested_dissection_order(graph, partition),
            )
        }
    }

    /// Textbook full-clique elimination fill, for cross-checking the
    /// quotient-graph rule used by `Core::build`.
    fn full_clique_fill(graph: &Graph, order: &[u32]) -> BTreeSet<(u32, u32)> {
        let n = order.len();
        let mut rank = vec![0u32; n];
        for (r, &node) in order.iter().enumerate() {
            rank[node as usize] = r as u32;
        }
        let mut up: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for e in graph.edges() {
            let (a, b) = (e.from.0, e.to.0);
            if a == b {
                continue;
            }
            if rank[a as usize] < rank[b as usize] {
                up[a as usize].insert(b);
            } else {
                up[b as usize].insert(a);
            }
        }
        for &m in order {
            let neighbours: Vec<u32> = up[m as usize].iter().copied().collect();
            for (i, &x) in neighbours.iter().enumerate() {
                for &y in &neighbours[i + 1..] {
                    if rank[x as usize] < rank[y as usize] {
                        up[x as usize].insert(y);
                    } else {
                        up[y as usize].insert(x);
                    }
                }
            }
        }
        let mut arcs = BTreeSet::new();
        for (tail, set) in up.iter().enumerate() {
            for &head in set {
                arcs.insert((tail as u32, head));
            }
        }
        arcs
    }

    fn random_graph(nodes: u32, arcs: usize, seed: u64) -> Graph {
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

    #[test]
    fn quotient_fill_matches_full_clique_fill() {
        for seed in 0..8 {
            let graph = random_graph(24, 40, seed);
            let partition = PartitionMap::build(&graph, 256);
            let core = Core::build(&graph, &partition);
            let expected = full_clique_fill(&graph, &core.order);
            let mut actual = BTreeSet::new();
            for tail in 0..graph.node_count() as u32 {
                for idx in core.range(tail) {
                    actual.insert((tail, core.heads[idx]));
                }
            }
            assert_eq!(actual, expected, "fill diverged for seed {seed}");
        }
    }

    #[test]
    fn triangle_pass_prices_arcs_at_true_distance_or_above() {
        // Customized cost can exceed the true distance (the up-down
        // restriction), but must never undercut it — undercutting would
        // produce impossible routes.
        let graph = random_graph(16, 30, 9);
        let partition = PartitionMap::build(&graph, 256);
        let core = Core::build(&graph, &partition);
        let mut io = IoStats::new();
        let (pricing, _) = Pricing::customize(&core, &graph, &mut io);
        for tail in 0..graph.node_count() as u32 {
            for idx in core.range(tail) {
                let (head, at) = (core.heads[idx], core.slot(tail, idx));
                for (cost, s, t) in [(pricing.fwd[at], tail, head), (pricing.bwd[at], head, tail)] {
                    if cost.is_finite() {
                        let true_dist = crate::tests::reference_dist(&graph, NodeId(s), NodeId(t));
                        assert!(
                            cost >= true_dist - 1e-9,
                            "arc {s}->{t} priced {cost} below true distance {true_dist}"
                        );
                    }
                }
            }
        }
    }
}

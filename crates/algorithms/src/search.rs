//! The one loop behind the iterative algorithm (Figure 1), Dijkstra
//! (Figure 2) and every A\* version that walks the base relations
//! (Figure 3).
//!
//! The paper says it itself (Section 5.3): the algorithms are *one* loop
//! — select, close, fetch the adjacency lists by a join against `S`,
//! relax — and the implementations differ only along the axes that are
//! [`best_first`]'s parameters: the frontierSet representation (Section
//! 5.3.1 — a [`Frontier`] impl, statically dispatched, that owns *every*
//! storage call of its representation and therefore every charge, and
//! its settle rule: one minimum or Figure 1's every current node), the
//! estimator (Section 5.3.2 — one score closure, the only place `h` is
//! computed), and whether a closed node may reopen (Figure 2 vs Figure
//! 3). A run has one source and one destination: the paper's single-pair
//! query. DESIGN.md, "One loop, four frontiers", has the table of which
//! public entry point is which combination.
//!
//! Six wrinkles keep every charge, tie order and event of the five
//! hand-written loops this replaced; each is commented where it lives,
//! tagged (a)–(f), and `tests/driver_identity.rs` pins them.

use crate::database::{Budgets, Database};
use crate::error::AlgorithmError;
use crate::estimator::Estimator;
use crate::observe::RunObserver;
use crate::trace::RunTrace;
use atis_graph::{NodeId, Path, Point};
use atis_obs::{IterationPhase, StepIo};
use atis_preprocess::DestBounds;
use atis_storage::{
    join_adjacency, IoStats, MultiRelation, NodeRelation, NodeStatus, NodeTuple, StorageError,
    TempRelation, NO_PRED,
};
use std::collections::HashMap;
#[expect(
    clippy::disallowed_types,
    reason = "wall_ms is trace reporting metadata, never an algorithm input"
)]
use std::time::Instant;

/// What a best-first run is, beyond its frontier representation.
pub(crate) struct Spec {
    /// Trace and event label.
    pub label: String,
    /// Estimator added to the path cost during selection.
    pub estimator: Estimator,
    /// Whether an improved closed node re-enters the frontier (Figure 3;
    /// `false` is Figure 2's Dijkstra).
    pub reopen_closed: bool,
    /// Landmark (ALT) lower bounds resolved against the destination.
    /// When present the score uses `max(estimator(u, d), alt.bound(u))`
    /// — both are admissible lower bounds, so their max is too, and it
    /// is never looser than either alone (A\* version 4).
    pub alt: Option<DestBounds>,
}

/// What a selection scan returns: the frontier's own handle on the
/// entry (only [`BlindFrontier`] reads it — its keys are not unique, so
/// it deletes by slot), the node, and the node's frontier tuple.
type Selected = (usize, u32, NodeTuple);

/// A frontierSet representation (Section 5.3.1): every storage
/// operation the loop performs on the frontier and the explored set.
pub(crate) trait Frontier: Sized {
    /// The settle rule: each iteration selects every current node, and
    /// the run ends when none is (Figure 1) — or, `false`, the one node
    /// of minimum score, and the run ends when it is `d` (Figures 2–3).
    const EVERY_CURRENT: bool = false;

    /// Steps `C1..C3`: creates the working relation(s) and attaches the
    /// database's buffer pool and fault plan.
    fn create(db: &Database, io: &mut IoStats) -> Result<Self, StorageError>;

    /// The destination's position, for the estimator. (b) A relation
    /// frontier holds no tuple for a node it has not discovered, so the
    /// position comes from the resident graph, uncharged and at full
    /// `f64` precision.
    fn locate(&self, db: &Database, d: NodeId, _: &mut IoStats) -> Result<Point, StorageError> {
        Ok(db.graph().point(d))
    }

    /// Step `C4`: puts the start node on the frontier at cost zero.
    fn start(&mut self, db: &Database, s: NodeId, io: &mut IoStats) -> Result<(), StorageError>;

    /// FrontierSet cardinality, kept in memory so reporting it costs no
    /// storage work (`IoStats` stays bit-identical under tracing).
    fn len(&self) -> u64;

    /// Appends the iteration's batch to `batch`: "select u from
    /// frontierSet with minimum score" (one scan), or Figure 1's every
    /// current node. Appends nothing when the frontier is empty.
    fn select(
        &self,
        io: &mut IoStats,
        score: impl FnMut(u32, &NodeTuple) -> f64,
        batch: &mut Vec<Selected>,
    ) -> Result<(), StorageError>;

    /// Moves the selected node from the frontierSet to the exploredSet
    /// and returns the tuple to expand it with — or `None` when the
    /// entry was a stale duplicate of a node already explored at no
    /// worse a cost (Section 4's "redundant iteration"). By default the
    /// node stays as selected, uncharged: Figure 1 closes its current
    /// nodes in [`Frontier::apply`].
    fn close(
        &mut self,
        (_, _, ut): Selected,
        _: &mut IoStats,
    ) -> Result<Option<NodeTuple>, StorageError> {
        Ok(Some(ut))
    }

    /// Relaxes one edge out of a node just closed: offers its end node
    /// `v` the tuple `offer` (open, with the new predecessor and path
    /// cost). Returns whether that reopened a closed node.
    fn relax(
        &mut self,
        v: u32,
        offer: &NodeTuple,
        reopen_closed: bool,
        io: &mut IoStats,
    ) -> Result<bool, StorageError>;

    /// Hook after an iteration's relaxations, part of its update step:
    /// applies the offers a frontier kept in memory. Returns how many
    /// closed nodes that reopened.
    fn apply(&mut self, _reopen_closed: bool, _io: &mut IoStats) -> Result<u64, StorageError> {
        Ok(0)
    }

    /// Hook after the update step (duplicate elimination, Figure 1's
    /// count of current nodes).
    fn sweep(
        &mut self,
        _io: &mut IoStats,
        _score: impl FnMut(u32, &NodeTuple) -> f64,
    ) -> Result<(), StorageError> {
        Ok(())
    }

    /// What is recorded for node `id`, if it was discovered. Uncharged
    /// (post-run path extraction, not part of the metered work).
    fn peek(&self, id: u32) -> Result<Option<NodeTuple>, StorageError>;
}

/// The frontier as the `status` attribute of the node relation `R`
/// (A\* versions 2–4, Dijkstra): `R` is bulk loaded and indexed up
/// front, and every mutation is a keyed REPLACE.
pub(crate) struct StatusFrontier {
    r: NodeRelation,
    open: u64,
}

impl Frontier for StatusFrontier {
    fn create(db: &Database, io: &mut IoStats) -> Result<Self, StorageError> {
        Ok(StatusFrontier {
            r: db.create_node_relation(io)?,
            open: 0,
        })
    }

    /// (b) A keyed read of `R`: the estimator sees the destination's
    /// *stored* `f32` coordinates, which differ from `graph.point(d)` in
    /// the last bits — and so does the tie order.
    fn locate(&self, _: &Database, d: NodeId, io: &mut IoStats) -> Result<Point, StorageError> {
        let dt = self.r.get(d.0, io)?;
        Ok(Point::new(dt.x as f64, dt.y as f64))
    }

    fn start(&mut self, _: &Database, s: NodeId, io: &mut IoStats) -> Result<(), StorageError> {
        self.open = 1;
        self.r.replace(s.0, io, |t| {
            t.status = NodeStatus::Open;
            t.path_cost = 0.0;
        })
    }

    fn len(&self) -> u64 {
        self.open
    }

    fn select(
        &self,
        io: &mut IoStats,
        score: impl FnMut(u32, &NodeTuple) -> f64,
        batch: &mut Vec<Selected>,
    ) -> Result<(), StorageError> {
        let best = self.r.select_min_open(io, score)?;
        batch.extend(best.map(|(u, ut)| (0, u, ut)));
        Ok(())
    }

    fn close(
        &mut self,
        (_, u, ut): Selected,
        io: &mut IoStats,
    ) -> Result<Option<NodeTuple>, StorageError> {
        self.open -= 1;
        self.r.replace(u, io, |t| t.status = NodeStatus::Closed)?;
        Ok(Some(ut))
    }

    fn relax(
        &mut self,
        v: u32,
        offer: &NodeTuple,
        reopen_closed: bool,
        io: &mut IoStats,
    ) -> Result<bool, StorageError> {
        let mut reopened = false;
        let mut became_open = false;
        self.r.replace(v, io, |t| {
            if offer.path_cost < t.path_cost {
                t.path_cost = offer.path_cost;
                t.path = offer.path;
                match t.status {
                    NodeStatus::Null => {
                        t.status = NodeStatus::Open;
                        became_open = true;
                    }
                    NodeStatus::Closed if reopen_closed => {
                        t.status = NodeStatus::Open;
                        became_open = true;
                        reopened = true;
                    }
                    _ => {}
                }
            }
        })?;
        self.open += u64::from(became_open);
        Ok(reopened)
    }

    fn peek(&self, id: u32) -> Result<Option<NodeTuple>, StorageError> {
        Ok(Some(self.r.peek(id)?))
    }
}

/// Figure 1's frontier: the `Current` status of `R`. A round settles the
/// whole current set, keeps each neighbour's best offer in memory,
/// uncharged, and applies the offers with step 7's two passes over `R`:
/// a closed node whose cost improves becomes current again (§5.1.3).
pub(crate) struct LevelFrontier {
    r: NodeRelation,
    /// Step 8's count of current nodes.
    current: u64,
    /// This round's best offer per neighbour: `(path_cost, path)`.
    offers: HashMap<u32, (f32, u32)>,
}

impl Frontier for LevelFrontier {
    const EVERY_CURRENT: bool = true;

    fn create(db: &Database, io: &mut IoStats) -> Result<Self, StorageError> {
        Ok(LevelFrontier {
            r: db.create_node_relation(io)?,
            current: 0,
            offers: HashMap::new(),
        })
    }

    /// Step `C4`: marks the start node current, then counts (step 8).
    fn start(&mut self, _: &Database, s: NodeId, io: &mut IoStats) -> Result<(), StorageError> {
        self.r.replace(s.0, io, |t| {
            t.status = NodeStatus::Current;
            t.path_cost = 0.0;
        })?;
        self.sweep(io, |_, _| 0.0)
    }

    fn len(&self) -> u64 {
        self.current
    }

    /// Step 5: "fetch all current-nodes from R", a scan — skipped once
    /// step 8 counted none.
    fn select(
        &self,
        io: &mut IoStats,
        _: impl FnMut(u32, &NodeTuple) -> f64,
        batch: &mut Vec<Selected>,
    ) -> Result<(), StorageError> {
        if self.current > 0 {
            let current = self.r.fetch_status(NodeStatus::Current, io)?;
            batch.extend(current.into_iter().map(|(u, ut)| (0, u, ut)));
        }
        Ok(())
    }

    fn relax(
        &mut self,
        v: u32,
        offer: &NodeTuple,
        _: bool,
        _: &mut IoStats,
    ) -> Result<bool, StorageError> {
        let best = self.offers.entry(v).or_insert((f32::INFINITY, NO_PRED));
        if offer.path_cost < best.0 {
            *best = (offer.path_cost, offer.path);
        }
        Ok(false)
    }

    /// Step 7: pass 1 applies each offer that improves a node and opens
    /// it, pass 2 turns current nodes closed and open ones current.
    fn apply(&mut self, reopen_closed: bool, io: &mut IoStats) -> Result<u64, StorageError> {
        let mut reopened = 0;
        let offers = &self.offers;
        self.r.rewrite(io, |id, t| {
            let closed = t.status == NodeStatus::Closed;
            match offers.get(&id) {
                Some(&(cost, path)) if cost < t.path_cost && (reopen_closed || !closed) => {
                    reopened += u64::from(closed);
                    (t.status, t.path, t.path_cost) = (NodeStatus::Open, path, cost);
                    true
                }
                _ => false,
            }
        })?;
        self.offers.clear();
        self.r.rewrite(io, |_, t| {
            t.status = match t.status {
                NodeStatus::Current => NodeStatus::Closed,
                NodeStatus::Open => NodeStatus::Current,
                NodeStatus::Null | NodeStatus::Closed => return false,
            };
            true
        })?;
        Ok(reopened)
    }

    /// Step 8: "scan R to count the number of current-nodes".
    fn sweep(
        &mut self,
        io: &mut IoStats,
        _: impl FnMut(u32, &NodeTuple) -> f64,
    ) -> Result<(), StorageError> {
        self.current = self.r.count_status(NodeStatus::Current, io)? as u64;
        Ok(())
    }

    fn peek(&self, id: u32) -> Result<Option<NodeTuple>, StorageError> {
        Ok(Some(self.r.peek(id)?))
    }
}

/// The start node's tuple, as the two relation frontiers APPEND it to
/// both of their relations.
fn start_tuple(db: &Database, s: NodeId) -> NodeTuple {
    let sp = db.graph().point(s);
    NodeTuple {
        x: sp.x as f32,
        y: sp.y as f32,
        status: NodeStatus::Open,
        path: NO_PRED,
        path_cost: 0.0,
    }
}

/// The resultant-relation half of a relaxation, shared by the two
/// relation frontiers. Beside the frontier proper they keep a lazily
/// grown *resultant relation* ("A\* version 1 expands nodes and appends
/// them to the resultant relation as it goes along, unlike version 2,
/// which begins by loading all neighbors into the resultant relation")
/// holding every discovered node's best cost, predecessor and status. A
/// relaxation probes it for membership, then either reads the node and
/// (on improvement) REPLACEs it, or APPENDs the newly discovered node —
/// whose coordinates came from the segment data in `S`. Returns the
/// status `v` had before (`Null` for a node just discovered), or `None`
/// when nothing changed.
fn relax_resultant(
    result: &mut TempRelation<NodeTuple>,
    v: u32,
    offer: &NodeTuple,
    reopen_closed: bool,
    io: &mut IoStats,
) -> Result<Option<NodeStatus>, StorageError> {
    if !result.contains(v, io)? {
        result.append(v, offer, io)?;
        return Ok(Some(NodeStatus::Null));
    }
    let current = result.get(v, io)?;
    let is_final = current.status == NodeStatus::Closed && !reopen_closed;
    if offer.path_cost < current.path_cost && !is_final {
        result.replace(v, io, |t| {
            t.path_cost = offer.path_cost;
            t.path = offer.path;
            t.status = NodeStatus::Open;
        })?;
        return Ok(Some(current.status));
    }
    Ok(None)
}

/// The frontier as an independent keyed relation (A\* version 1, the
/// `Avoid` duplicate policy): APPEND/DELETE with index adjustment, and
/// a membership probe before every insertion. No bulk load, no
/// index-build pass — version 1's cheap initialisation.
pub(crate) struct RelationFrontier {
    result: TempRelation<NodeTuple>,
    frontier: TempRelation<NodeTuple>,
}

impl Frontier for RelationFrontier {
    fn create(db: &Database, io: &mut IoStats) -> Result<Self, StorageError> {
        let levels = db.params().isam_levels;
        let mut result = TempRelation::create(levels, io);
        let mut frontier = TempRelation::create(levels, io);
        if let Some(pool) = db.buffer() {
            result.attach_buffer(pool);
            frontier.attach_buffer(pool);
        }
        if let Some(faults) = db.faults() {
            result.attach_faults(faults);
            frontier.attach_faults(faults);
        }
        Ok(RelationFrontier { result, frontier })
    }

    fn start(&mut self, db: &Database, s: NodeId, io: &mut IoStats) -> Result<(), StorageError> {
        let tuple = start_tuple(db, s);
        self.result.append(s.0, &tuple, io)?;
        self.frontier.append(s.0, &tuple, io)
    }

    fn len(&self) -> u64 {
        self.frontier.len() as u64
    }

    fn select(
        &self,
        io: &mut IoStats,
        score: impl FnMut(u32, &NodeTuple) -> f64,
        batch: &mut Vec<Selected>,
    ) -> Result<(), StorageError> {
        batch.extend(self.frontier.select_min(io, score)?);
        Ok(())
    }

    /// DELETE from the frontier (index adjustment charged), close in the
    /// resultant relation.
    fn close(
        &mut self,
        (_, u, ut): Selected,
        io: &mut IoStats,
    ) -> Result<Option<NodeTuple>, StorageError> {
        self.frontier.delete(u, io)?;
        self.result
            .replace(u, io, |t| t.status = NodeStatus::Closed)?;
        Ok(Some(ut))
    }

    fn relax(
        &mut self,
        v: u32,
        offer: &NodeTuple,
        reopen_closed: bool,
        io: &mut IoStats,
    ) -> Result<bool, StorageError> {
        match relax_resultant(&mut self.result, v, offer, reopen_closed, io)? {
            None => Ok(false),
            // Already on the frontier: no duplicate, REPLACE in place.
            Some(NodeStatus::Open) => {
                self.frontier.replace(v, io, |t| {
                    t.path_cost = offer.path_cost;
                    t.path = offer.path;
                })?;
                Ok(false)
            }
            // Newly discovered, or a closed node improved: APPEND.
            Some(was) => {
                self.frontier.append(v, offer, io)?;
                Ok(was == NodeStatus::Closed)
            }
        }
    }

    fn peek(&self, id: u32) -> Result<Option<NodeTuple>, StorageError> {
        self.result.peek(id)
    }
}

/// The frontier as a relation that allows duplicate keys: insertions
/// are blind (no frontier probe), so stale entries accumulate and are
/// either skipped when selected (`ELIMINATE = false`, the `Allow`
/// policy) or swept after each iteration's relaxations
/// (`ELIMINATE = true`).
pub(crate) struct BlindFrontier<const ELIMINATE: bool> {
    result: TempRelation<NodeTuple>,
    frontier: MultiRelation<NodeTuple>,
}

impl<const ELIMINATE: bool> Frontier for BlindFrontier<ELIMINATE> {
    /// (d) The fault plan is attached but, by choice, no buffer pool:
    /// both relations stay cold, as they were measured when the
    /// `duplicates` digests of the pooled driver-identity configuration
    /// (`grid10-pool`) were pinned — a pool would absorb their reads and
    /// move those digests.
    fn create(db: &Database, io: &mut IoStats) -> Result<Self, StorageError> {
        let levels = db.params().isam_levels;
        let mut result = TempRelation::create(levels, io);
        let mut frontier = MultiRelation::create(levels, io);
        if let Some(faults) = db.faults() {
            result.attach_faults(faults);
            frontier.attach_faults(faults);
        }
        Ok(BlindFrontier { result, frontier })
    }

    fn start(&mut self, db: &Database, s: NodeId, io: &mut IoStats) -> Result<(), StorageError> {
        let tuple = start_tuple(db, s);
        self.result.append(s.0, &tuple, io)?;
        self.frontier.append(s.0, &tuple, io)
    }

    fn len(&self) -> u64 {
        self.frontier.len() as u64
    }

    fn select(
        &self,
        io: &mut IoStats,
        score: impl FnMut(u32, &NodeTuple) -> f64,
        batch: &mut Vec<Selected>,
    ) -> Result<(), StorageError> {
        batch.extend(self.frontier.select_min(io, score)?);
        Ok(())
    }

    /// (d) A selected entry is stale when its node has already been
    /// explored at a cost no worse than the entry's; a live one expands
    /// with the resultant relation's tuple (the node's *best* known
    /// cost, which a fresher duplicate may have improved past this
    /// entry), marked `Current`.
    fn close(
        &mut self,
        (slot, u, ut): Selected,
        io: &mut IoStats,
    ) -> Result<Option<NodeTuple>, StorageError> {
        self.frontier.delete_slot(slot, io)?;
        let current = self.result.get(u, io)?;
        if current.status == NodeStatus::Closed && current.path_cost <= ut.path_cost {
            return Ok(None);
        }
        self.result
            .replace(u, io, |t| t.status = NodeStatus::Closed)?;
        Ok(Some(NodeTuple {
            status: NodeStatus::Current,
            ..current
        }))
    }

    /// Blind duplicate APPEND: no frontier probe.
    fn relax(
        &mut self,
        v: u32,
        offer: &NodeTuple,
        reopen_closed: bool,
        io: &mut IoStats,
    ) -> Result<bool, StorageError> {
        let Some(was) = relax_resultant(&mut self.result, v, offer, reopen_closed, io)? else {
            return Ok(false);
        };
        self.frontier.append(v, offer, io)?;
        Ok(was == NodeStatus::Closed)
    }

    fn sweep(
        &mut self,
        io: &mut IoStats,
        score: impl FnMut(u32, &NodeTuple) -> f64,
    ) -> Result<(), StorageError> {
        if ELIMINATE {
            self.frontier.eliminate_duplicates(io, score)?;
        }
        Ok(())
    }

    fn peek(&self, id: u32) -> Result<Option<NodeTuple>, StorageError> {
        self.result.peek(id)
    }
}

/// Runs best-first search from `s` over frontier representation `F`
/// until its settle rule stops it: `d` selected, or the frontier
/// exhausted.
///
/// # Errors
/// Storage faults surface as errors, and so does exhausting `budgets`.
pub(crate) fn best_first<F: Frontier>(
    db: &Database,
    s: NodeId,
    d: NodeId,
    spec: Spec,
    budgets: Budgets,
) -> Result<RunTrace, AlgorithmError> {
    #[expect(
        clippy::disallowed_types,
        reason = "wall_ms is trace reporting metadata, never an algorithm input"
    )]
    let wall_start = Instant::now();
    let mut io = IoStats::new();
    let mut steps = StepIo::default();
    let mut observer = RunObserver::new(db, &spec.label);
    observer.run_started(s, d);

    let mut frontier = F::create(db, &mut io)?;
    let meter = db.budget_meter_with(budgets);
    // (a) Op order at init is create → destination → start mark, and
    // Dijkstra pays the destination read although its zero estimator
    // ignores it. Either change moves every later physical op number.
    let dest = frontier.locate(db, d, &mut io)?;
    frontier.start(db, s, &mut io)?;
    steps.init = io;
    let mut frontier_peak = frontier.len();
    observer.span(IterationPhase::Init, 0, None, frontier.len(), None, &io);

    let score = |id: u32, t: &NodeTuple| {
        let mut h = spec.estimator.evaluate_f32(t.x, t.y, dest);
        if let Some(alt) = &spec.alt {
            h = h.max(alt.bound(NodeId(id)));
        }
        t.path_cost as f64 + h
    };

    let mut iterations = 0u64;
    let mut expanded = 0u64;
    let mut reopened = 0u64;
    let mut order = Vec::new();
    let mut join_strategy = None;
    // Reused across iterations, so a batch of one allocates nothing.
    let mut batch = Vec::new();
    let mut closed = Vec::new();
    // `Some(found)` once the settle rule has ended the run.
    let mut ended = None;

    let found = loop {
        // (e) The one budget check sits at the loop top, before the
        // selection scan — and once more after the last selection, so
        // every charge of a run that returns `Ok` has passed it.
        meter.check(iterations, &io)?;
        if let Some(found) = ended {
            break found;
        }
        let mark = io;
        frontier.select(&mut io, score, &mut batch)?;
        steps.select += io.since(&mark);
        let Some(&(_, u, _)) = batch.first() else {
            // The frontier is empty. (f) Under Figure 1's rule `d` is
            // found if its label is finite; under the other, unreachable.
            let finite = |t: NodeTuple| t.path_cost.is_finite();
            ended = Some(F::EVERY_CURRENT && frontier.peek(d.0)?.is_some_and(finite));
            continue;
        };
        // (f) Under Figure 1's rule no single node is selected: the
        // events name none, and selecting `d` does not end the run.
        let selected = (!F::EVERY_CURRENT).then_some(u);

        let mark = io;
        closed.clear();
        for entry @ (_, v, _) in batch.drain(..) {
            if let Some(vt) = frontier.close(entry, &mut io)? {
                closed.push((v, vt));
            }
        }
        steps.update += io.since(&mark);
        if selected == Some(d.0) && !closed.is_empty() {
            // Lemma 2 / Lemma 3 termination: the selection of the
            // destination is not itself counted as an iteration.
            ended = Some(true);
            continue;
        }
        iterations += 1;
        // (d) A stale duplicate closes nothing: the selection was a full
        // scan all the same, so it counts as an iteration — not an
        // expansion.
        let mut strategy = None;
        if !closed.is_empty() {
            expanded += closed.len() as u64;
            order.extend(closed.iter().map(|&(u, _)| NodeId(u)));

            // Fetch the batch's adjacency lists via the join against S.
            let mark = io;
            let (adjacency, chosen) =
                join_adjacency(&closed, db.edges(), db.join_policy(), db.params(), &mut io)?;
            steps.join += io.since(&mark);
            strategy = Some(chosen);
            join_strategy = strategy;

            let mark = io;
            // The join lists each closed node's adjacency in batch order.
            let mut adjacency = adjacency.into_iter().peekable();
            for &(u, ut) in &closed {
                while let Some((_, e)) = adjacency.next_if(|&(from, _)| from == u) {
                    let offer = NodeTuple {
                        x: e.end_x,
                        y: e.end_y,
                        status: NodeStatus::Open,
                        path: u,
                        path_cost: ut.path_cost + e.cost as f32,
                    };
                    let reopen = frontier.relax(e.end, &offer, spec.reopen_closed, &mut io)?;
                    reopened += u64::from(reopen);
                }
            }
            reopened += frontier.apply(spec.reopen_closed, &mut io)?;
            steps.update += io.since(&mark);
            // (d) The peak is read *before* the elimination pass: the
            // scan that just happened saw the duplicated frontier at this
            // size.
            frontier_peak = frontier_peak.max(frontier.len());
            frontier.sweep(&mut io, score)?;
        }
        observer.span(
            IterationPhase::Search,
            iterations,
            selected,
            frontier.len(),
            strategy,
            &io,
        );
    };
    let attributed = steps.total();
    steps.bookkeeping = io.since(&attributed);

    // (c) The predecessor array is only asked for when `d` was found:
    // reading it surfaces checksum errors.
    let path = if found {
        let predecessors = (0..db.graph().node_count() as u32)
            .map(|id| {
                let tuple = frontier.peek(id)?;
                Ok(tuple.filter(|t| t.path != NO_PRED).map(|t| NodeId(t.path)))
            })
            .collect::<Result<Vec<_>, StorageError>>()?;
        let tuple = frontier.peek(d.0)?;
        let cost = tuple.map_or(f64::INFINITY, |t| t.path_cost as f64);
        Path::from_predecessors(s, d, cost, &predecessors)
    } else {
        None
    };
    observer.finished(iterations, found, frontier.len(), &io, io.cost(db.params()));

    Ok(RunTrace {
        algorithm: spec.label,
        iterations,
        expanded,
        reopened,
        io,
        join_strategy,
        path,
        wall: wall_start.elapsed(),
        expansion_order: order,
        steps,
        frontier_peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Algorithm;
    use crate::memory;
    use atis_graph::graph::graph_from_arcs;
    use atis_graph::{CostModel, Grid, Minneapolis, NamedPair, QueryKind};

    /// The axes are independent: Figure 2's rule (closed nodes are
    /// final) holds on every frontier representation, not only on the
    /// one Dijkstra happens to use.
    #[test]
    fn every_frontier_honours_the_reopening_rule_it_is_given() {
        // Manhattan overestimates on the Minneapolis map, so Figure 3
        // reopens closed nodes here.
        let map = Minneapolis::paper();
        let db = Database::open(map.graph()).unwrap();
        let (s, d) = map.query_pair(NamedPair::ALL[0]);
        let reopened = |run: fn(&Database, NodeId, NodeId, Spec, Budgets) -> _,
                        reopen_closed: bool| {
            let spec = Spec {
                label: "test".to_string(),
                estimator: Estimator::Manhattan,
                reopen_closed,
                alt: None,
            };
            let run: Result<RunTrace, AlgorithmError> = run(&db, s, d, spec, db.budgets());
            let trace = run.unwrap();
            assert!(trace.found());
            trace.reopened
        };
        for run in [
            best_first::<StatusFrontier>,
            best_first::<RelationFrontier>,
            best_first::<BlindFrontier<false>>,
            best_first::<BlindFrontier<true>>,
            best_first::<LevelFrontier>,
        ] {
            assert_eq!(reopened(run, false), 0);
            assert!(reopened(run, true) > 0);
        }
    }

    // Figure 1's iterative algorithm: the level frontier.

    #[test]
    fn finds_shortest_paths_like_the_oracle() {
        let grid = Grid::new(7, CostModel::TWENTY_PERCENT, 17).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        for kind in [
            QueryKind::Horizontal,
            QueryKind::Diagonal,
            QueryKind::Random,
        ] {
            let (s, d) = grid.query_pair(kind);
            let t = db.run(Algorithm::Iterative, s, d).unwrap();
            let oracle = memory::dijkstra_pair(grid.graph(), s, d).unwrap();
            assert!((t.path_cost() - oracle.cost).abs() < 1e-3);
            t.path.unwrap().validate(grid.graph()).unwrap();
        }
    }

    #[test]
    fn iteration_count_is_insensitive_to_path_length() {
        // Table 6: the iterative algorithm performs the same number of
        // iterations for every query pair.
        let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 1993).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let counts: Vec<u64> = QueryKind::TABLE
            .iter()
            .map(|&k| {
                let (s, d) = grid.query_pair(k);
                db.run(Algorithm::Iterative, s, d).unwrap().iterations
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn rounds_match_table5_formula() {
        // Table 5: 19 / 39 / 59 rounds for 10x10 / 20x20 / 30x30 grids
        // under 20% variance = 2(k-1)+1 (hop eccentricity + the final
        // empty-producing round).
        for (k, expect) in [(10usize, 19u64), (20, 39)] {
            let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 1993).unwrap();
            let db = Database::open(grid.graph()).unwrap();
            let (s, d) = grid.query_pair(QueryKind::Diagonal);
            let t = db.run(Algorithm::Iterative, s, d).unwrap();
            assert_eq!(t.iterations, expect, "k = {k}");
        }
    }

    #[test]
    fn matches_bellman_ford_round_count() {
        let grid = Grid::new(9, CostModel::TWENTY_PERCENT, 5).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let t = db.run(Algorithm::Iterative, s, d).unwrap();
        let (_, rounds) = memory::bellman_ford_rounds(grid.graph(), s);
        assert_eq!(t.iterations, rounds);
    }

    #[test]
    fn skewed_costs_cause_reopening() {
        // Section 5.1.3 / Table 7: the cheap corridor keeps improving
        // already-closed nodes, so the skewed model costs BFS extra rounds.
        let uniform = Grid::new(10, CostModel::Uniform, 0).unwrap();
        let skewed = Grid::new(10, CostModel::Skewed, 0).unwrap();
        let (s, d) = uniform.query_pair(QueryKind::Diagonal);
        let tu = Database::open(uniform.graph())
            .unwrap()
            .run(Algorithm::Iterative, s, d)
            .unwrap();
        let ts = Database::open(skewed.graph())
            .unwrap()
            .run(Algorithm::Iterative, s, d)
            .unwrap();
        assert_eq!(tu.reopened, 0);
        assert!(ts.reopened > 0, "skewed corridor must reopen nodes");
        assert!(ts.iterations > tu.iterations);
    }

    #[test]
    fn explores_the_whole_reachable_graph() {
        let grid = Grid::new(6, CostModel::Uniform, 0).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Horizontal);
        let t = db.run(Algorithm::Iterative, s, d).unwrap();
        // Every node is expanded at least once.
        assert!(t.expanded >= grid.graph().node_count() as u64 - 1);
    }

    #[test]
    fn unreachable_destination_yields_none() {
        let g = graph_from_arcs(3, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Iterative, NodeId(0), NodeId(2)).unwrap();
        assert!(t.path.is_none());
    }

    #[test]
    fn source_equals_destination() {
        let g = graph_from_arcs(2, &[(0, 1, 1.0)]).unwrap();
        let db = Database::open(&g).unwrap();
        let t = db.run(Algorithm::Iterative, NodeId(0), NodeId(0)).unwrap();
        let p = t.path.unwrap();
        assert_eq!(p.cost, 0.0);
        // BFS still floods the graph even for the trivial query.
        assert!(t.iterations >= 1);
    }
}

//! The one best-first loop behind Dijkstra (Figure 2) and every A\*
//! version that walks the base relations (Figure 3).
//!
//! The paper says it itself (Section 5.3): the algorithms are *one* loop
//! — select the frontier node with minimum `C(s,u) [+ f(u,d)]`, close
//! it, fetch its adjacency list by a join against `S`, relax — and the
//! implementations differ only along the axes that are [`best_first`]'s
//! parameters: the frontierSet representation (Section 5.3.1 — a
//! [`Frontier`] impl, statically dispatched, that owns *every* storage
//! call of its representation and therefore every charge), the
//! estimator (Section 5.3.2 — one score closure, the only place `h` is
//! computed), and whether a closed node may reopen (Figure 2 vs Figure
//! 3). A run has one source and one destination: the paper's single-pair
//! query. DESIGN.md, "One loop, three frontiers", has the table of which
//! public entry point is which combination.
//!
//! Five wrinkles keep every charge, tie order and event of the four
//! hand-written loops this replaced; each is commented where it lives,
//! tagged (a)–(e), and `tests/driver_identity.rs` pins them.

use crate::database::{Budgets, Database, FrontierKind};
use crate::error::AlgorithmError;
use crate::estimator::Estimator;
use crate::observe::RunObserver;
use crate::trace::{RunTrace, StepBreakdown};
use atis_graph::{NodeId, Path, Point};
use atis_obs::IterationPhase;
use atis_preprocess::DestBounds;
use atis_storage::{
    join_adjacency, IoStats, MultiRelation, NodeRelation, NodeStatus, NodeTuple, StorageError,
    TempRelation, NO_PRED,
};
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

    /// "Select u from frontierSet with minimum score": one scan.
    fn select(
        &self,
        io: &mut IoStats,
        score: impl FnMut(u32, &NodeTuple) -> f64,
    ) -> Result<Option<Selected>, StorageError>;

    /// Moves the selected node from the frontierSet to the exploredSet
    /// and returns the tuple to expand it with — or `None` when the
    /// entry was a stale duplicate of a node already explored at no
    /// worse a cost (Section 4's "redundant iteration").
    fn close(
        &mut self,
        selected: Selected,
        io: &mut IoStats,
    ) -> Result<Option<NodeTuple>, StorageError>;

    /// Relaxes one edge out of the node just closed: offers its end node
    /// `v` the tuple `offer` (open, with the new predecessor and path
    /// cost). Returns whether that reopened a closed node.
    fn relax(
        &mut self,
        v: u32,
        offer: &NodeTuple,
        reopen_closed: bool,
        io: &mut IoStats,
    ) -> Result<bool, StorageError>;

    /// Hook after an iteration's relaxations (duplicate elimination).
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
        let mut r = db.create_node_relation(io)?;
        if let Some(pool) = db.buffer() {
            r.attach_buffer(pool);
        }
        if let Some(faults) = db.faults() {
            r.attach_faults(faults);
        }
        Ok(StatusFrontier { r, open: 0 })
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
    ) -> Result<Option<Selected>, StorageError> {
        let best = self.r.select_min_open(io, score)?;
        Ok(best.map(|(u, ut)| (0, u, ut)))
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
    ) -> Result<Option<Selected>, StorageError> {
        let best = self.frontier.select_min(io, score)?;
        Ok(best.map(|(u, ut)| (0, u, ut)))
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
    /// (d) The fault plan is attached but no buffer pool:
    /// `MultiRelation` has none, and the resultant relation beside it
    /// stays cold with it.
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
    ) -> Result<Option<Selected>, StorageError> {
        self.frontier.select_min(io, score)
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
/// until `d` is selected, or the frontier is exhausted.
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
    let mut steps = StepBreakdown::default();
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

    let mut found = false;
    let mut iterations = 0u64;
    let mut expanded = 0u64;
    let mut reopened = 0u64;
    let mut order = Vec::new();
    let mut join_strategy = None;

    loop {
        // (e) The budget check sits at the loop top, before the scan.
        meter.check(iterations, &io)?;
        let mark = io;
        let selected = frontier.select(&mut io, score)?;
        steps.select += io.since(&mark);
        let Some(selected @ (_, u, _)) = selected else {
            break; // frontier exhausted: d is unreachable
        };

        let mark = io;
        let closed = frontier.close(selected, &mut io)?;
        steps.update += io.since(&mark);
        let Some(ut) = closed else {
            // (d) A stale duplicate: the selection was a full scan all
            // the same, so it counts as an iteration — not an expansion.
            iterations += 1;
            observer.span(
                IterationPhase::Search,
                iterations,
                Some(u),
                frontier.len(),
                None,
                &io,
            );
            continue;
        };
        if u == d.0 {
            // Lemma 2 / Lemma 3 termination: the selection of the
            // destination is not itself counted as an iteration.
            found = true;
            break;
        }
        iterations += 1;
        expanded += 1;
        order.push(NodeId(u));

        // Fetch u.adjacencyList via the join against S.
        let mark = io;
        let (adjacency, strategy) = join_adjacency(
            &[(u, ut)],
            db.edges(),
            db.join_policy(),
            db.params(),
            &mut io,
        )?;
        steps.join += io.since(&mark);
        join_strategy = Some(strategy);

        let mark = io;
        for (_, e) in adjacency {
            let offer = NodeTuple {
                x: e.end_x,
                y: e.end_y,
                status: NodeStatus::Open,
                path: u,
                path_cost: ut.path_cost + e.cost as f32,
            };
            reopened += u64::from(frontier.relax(e.end, &offer, spec.reopen_closed, &mut io)?);
        }
        steps.update += io.since(&mark);
        // (d) The peak is read *before* the elimination pass: the scan
        // that just happened saw the duplicated frontier at this size.
        frontier_peak = frontier_peak.max(frontier.len());
        frontier.sweep(&mut io, score)?;
        observer.span(
            IterationPhase::Search,
            iterations,
            Some(u),
            frontier.len(),
            Some(strategy),
            &io,
        );
    }
    let attributed = steps.total();
    steps.bookkeeping = io.since(&attributed);

    // (c) The predecessor array is only asked for when `d` was
    // selected: reading it surfaces checksum errors.
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

/// [`best_first`] over the frontier representation `kind` names.
pub(crate) fn best_first_on(
    kind: FrontierKind,
    db: &Database,
    s: NodeId,
    d: NodeId,
    spec: Spec,
    budgets: Budgets,
) -> Result<RunTrace, AlgorithmError> {
    match kind {
        FrontierKind::StatusAttribute => best_first::<StatusFrontier>(db, s, d, spec, budgets),
        FrontierKind::SeparateRelation => best_first::<RelationFrontier>(db, s, d, spec, budgets),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{Minneapolis, NamedPair};

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
        ] {
            assert_eq!(reopened(run, false), 0);
            assert!(reopened(run, true) > 0);
        }
    }
}

//! The execute layer: one singleflight group of a dequeued batch — the
//! requests for one `(from, to)` key — from the route cache through one
//! walk of the degrade ladder (`atis_algorithms::ladder`) down to the
//! stale tier and the typed refusal, and the serving layer's side of
//! that walk (storage-breaker admission, probe verdicts, virtual-clock
//! charges). One walk answers one key.

use super::{Deadline, Job, RouteAnswer, RouteOutcome, Shared, DEFAULT_DEADLINE_TICKS};
use crate::breaker::{Admission, BreakerState, ProbeGuard};
use crate::cache::CachedRoute;
use crate::error::{ServeError, ShedReason};
use crate::shard::ShardSnapshot;
use crate::sync::{Level, Unlocked};
use atis_algorithms::ladder::{self, Fall, Needs, Policy, Rung, Step, Walked};
use atis_algorithms::{AlgorithmError, BudgetKind, Budgets, RunTrace};
use atis_graph::{NodeId, Path};
use atis_obs::ServeEvent;
use atis_storage::StorageError;
use std::time::{Duration, Instant};

/// One singleflight batch group: requests for the same `(from, to)` key
/// served by a single run.
pub(super) struct Group {
    pub(super) from: NodeId,
    pub(super) to: NodeId,
    pub(super) members: Vec<(Job, Duration)>,
}

impl Group {
    /// The request id the group's trace events are filed under.
    fn lead(&self) -> u64 {
        self.members.first().map_or(0, |(job, _)| job.id)
    }
}

/// Classifies one request's result, counts it, emits its life-cycle
/// events, and resolves its ticket. The caller has already advanced the
/// virtual clock for the work consumed.
fn finish(
    shared: &Shared,
    level: &mut Level<Unlocked>,
    worker: usize,
    (job, queue_wait): (Job, Duration),
    service_time: Duration,
    outcome: Result<Exec, ServeError>,
) {
    shared.observe("serve_service_seconds", service_time.as_secs_f64());
    shared.inc("serve_requests_total");
    shared.inc(&format!("serve_worker_{worker}_requests_total"));
    let answer = outcome.map(|exec| {
        if let RouteOutcome::Stale { age } = exec.outcome {
            shared.inc("serve_stale_served_total");
            shared.emit(ServeEvent::StaleServed {
                request: job.id,
                epoch: exec.epoch,
                age,
            });
        }
        if let RouteOutcome::Degraded { .. } = exec.outcome {
            shared.inc("serve_degraded_total");
        }
        shared.emit(ServeEvent::Completed {
            request: job.id,
            worker: worker as u64,
            epoch: exec.epoch,
            cached: exec.outcome == RouteOutcome::CacheHit,
            found: exec.path.is_some(),
        });
        RouteAnswer {
            path: exec.path,
            epoch: exec.epoch,
            outcome: exec.outcome,
            deadline: job.deadline,
            class: job.class,
            cached: exec.outcome == RouteOutcome::CacheHit,
            iterations: exec.iterations,
            cost_units: exec.cost_units,
            queue_wait,
            service_time,
            worker,
        }
    });
    match answer {
        Err(ServeError::Shed {
            reason,
            retry_after,
            queue_depth,
        }) => {
            // A mid-run shed already carries its true back-off hint
            // (the breaker's remaining countdown, a deadline
            // renewal) and its consumed cost was metered above:
            // resolve it as-is instead of recomputing the hint from
            // queue depth.
            shared.resolve_shed(level, &job, reason, retry_after, queue_depth);
        }
        other => {
            if other.is_err() {
                shared.inc("serve_failed_total");
            }
            job.ticket.resolve(level, other);
        }
    }
}

/// Resolves every member of a singleflight group with (a clone of) the
/// group's one result.
fn resolve_group(
    shared: &Shared,
    level: &mut Level<Unlocked>,
    worker: usize,
    group: Group,
    result: Result<Exec, ServeError>,
    service_time: Duration,
) {
    for (job, wait) in group.members {
        finish(
            shared,
            level,
            worker,
            (job, wait),
            service_time,
            result.clone(),
        );
    }
}

/// What one executed request produced. Cloneable so a singleflight
/// group can fan one result out to every member.
#[derive(Clone)]
struct Exec {
    path: Option<Path>,
    outcome: RouteOutcome,
    epoch: u64,
    iterations: u64,
    cost_units: f64,
}

/// Cost units rounded up to whole virtual-clock ticks.
fn ticks(cost_units: f64) -> u64 {
    cost_units.max(0.0).ceil() as u64
}

/// Answers one singleflight group against its pinned snapshot: a cache
/// hit answers every member; a miss rides **one** walk of the degrade
/// ladder, each rung one `run_with_budgets` from `from` to `to`; and a
/// walk without an answer, or a request the open storage breaker refuses
/// before it, ends in the tail (stale tier, typed refusal).
///
/// The virtual clock is ticked by what the work consumed whether it
/// completed or died — exact for completed runs and cost-budget aborts,
/// a one-unit floor per other failed attempt — so breaker open-windows
/// and queued deadlines keep progressing under fault storms instead of
/// freezing while every run fails.
pub(super) fn execute(
    shared: &Shared,
    level: &mut Level<Unlocked>,
    worker: usize,
    snapshot: &ShardSnapshot,
    group: Group,
    now: u64,
) {
    let started = Instant::now();
    if let Some(hit) = cache_hit(shared, level, snapshot, &group) {
        shared.advance(ticks(hit.cost_units));
        resolve_group(shared, level, worker, group, Ok(hit), started.elapsed());
        return;
    }

    // The group's budget is the *maximum* member allowance (fairness
    // bound 2): if the walk aborts on it, every member's own (smaller or
    // equal) budget would have aborted too, so shedding the whole group
    // is sound.
    let deadline = group
        .members
        .iter()
        .map(|(job, _)| job.deadline)
        .max()
        .unwrap_or(Deadline { expires_at: 0 });
    let lead = group.lead();
    let (result, consumed) = match Breakered::begin(shared, level, snapshot, lead, deadline, now) {
        Ok(mut policy) => {
            let budgets = policy.budgets;
            let walked = ladder::walk(&snapshot.db, &shared.rungs, &mut policy, |step| {
                snapshot
                    .db
                    .run_with_budgets(step.rung.algorithm, group.from, group.to, budgets)
            });
            policy.settle(walked)
        }
        Err(retry_after) => {
            let error = ServeError::Shed {
                reason: ShedReason::BreakerOpen,
                retry_after,
                queue_depth: 0,
            };
            let refusal = Refusal {
                error,
                try_stale: true,
            };
            (Err(refusal), 0)
        }
    };
    match result {
        Ok((outcome, trace)) => {
            let cost_units = trace.cost_units(snapshot.db.params());
            shared.advance(consumed + ticks(cost_units));
            let service_time = started.elapsed();
            let exec = computed(shared, level, snapshot, &group, trace, cost_units, outcome);
            resolve_group(shared, level, worker, group, Ok(exec), service_time);
        }
        Err(refusal) => {
            shared.advance(consumed);
            let service_time = started.elapsed();
            let (result, stale_ticks) = tail(shared, level, snapshot, &group, &refusal);
            shared.advance(stale_ticks);
            resolve_group(shared, level, worker, group, result, service_time);
        }
    }
}

/// Share of a request's remaining deadline one walk may spend as cost
/// units before the budget meter aborts it mid-expansion.
const DEADLINE_SPEND_FRACTION: f64 = 0.8;

/// Oldest answer, in epochs, the stale tier may serve.
const STALE_MAX_AGE: u64 = 8;

/// The serving layer's side of one ladder walk — the [`Policy`]
/// [`execute`] hands to `ladder::walk`: the storage breaker's verdicts
/// and virtual-clock charges after each failed rung, one
/// `AlgorithmDegraded` event per hop.
struct Breakered<'a> {
    shared: &'a Shared,
    request: u64,
    now: u64,
    /// The deadline-derived budget every rung runs under.
    budgets: Budgets,
    /// Whether the deadline (not the database's standing budget) is what
    /// caps the cost units.
    deadline_binding: bool,
    /// This request's claim on the storage breaker, until a failure
    /// mid-walk trips it. The guard resolves a held half-open probe slot
    /// exactly once: a verdict defuses it, and every other exit
    /// (deadline shed, an error that says nothing about storage)
    /// releases the slot on drop, so an aborted probe can never wedge
    /// the breaker half-open.
    storage: Option<ProbeGuard<'a>>,
    /// Ticks charged for failed attempts so far.
    consumed: u64,
}

impl<'a> Breakered<'a> {
    /// Derives the budget from the deadline and asks the storage breaker
    /// for admission — every rung reads the database, so a refusal
    /// (`Err(retry_after)`) means nothing runs.
    fn begin(
        shared: &'a Shared,
        level: &'a mut Level<Unlocked>,
        snapshot: &'a ShardSnapshot,
        request: u64,
        deadline: Deadline,
        now: u64,
    ) -> Result<Self, u64> {
        let (admission, t) = shared.breakers.storage.admit_at(level, now);
        shared.emit_transition(t);
        if let Admission::Deny { retry_after } = admission {
            return Err(retry_after);
        }
        // The run may spend at most `DEADLINE_SPEND_FRACTION` of the
        // remaining ticks as cost units, intersected with the database's
        // own standing budgets.
        let allowance = (deadline.remaining(now) as f64 * DEADLINE_SPEND_FRACTION).max(1.0);
        let budgets = snapshot
            .db
            .budgets()
            .min_with(Budgets::unlimited().with_max_cost_units(allowance));
        Ok(Breakered {
            shared,
            request,
            now,
            budgets,
            deadline_binding: budgets.max_cost_units == Some(allowance),
            storage: Some(ProbeGuard::new(&shared.breakers.storage, admission, level)),
            consumed: 0,
        })
    }

    /// Closes the walk: the storage verdict of an answer, or how a walk
    /// without one is refused. Also returns the ticks its failed
    /// attempts were charged.
    fn settle<T>(mut self, walked: Walked<T>) -> (Result<(RouteOutcome, T), Refusal>, u64) {
        let shared = self.shared;
        let result = match walked {
            Walked::Answered { index, rung, value } => {
                if let Some(guard) = &mut self.storage {
                    shared.emit_transition(guard.success());
                }
                let outcome = match index {
                    0 => RouteOutcome::Computed,
                    _ => RouteOutcome::Degraded { rung: rung.name },
                };
                Ok((outcome, value))
            }
            Walked::Ended { error } => {
                let fall = Fall::of(&error);
                if let AlgorithmError::Storage(fault) = &error {
                    shared.inc(storage_fault_metric(fault));
                }
                // No rung can answer a wrong query: counted and surfaced,
                // never retried or served stale.
                if fall == Fall::Stop {
                    shared.inc("serve_deterministic_error_total");
                }
                let error = match fall {
                    // The deadline, not the database's own budget, stopped
                    // the run: a shed, not an algorithm failure — and no
                    // verdict on storage health.
                    Fall::Budget(BudgetKind::CostUnits) if self.deadline_binding => {
                        ServeError::Shed {
                            reason: ShedReason::DeadlineExpired,
                            retry_after: DEFAULT_DEADLINE_TICKS,
                            queue_depth: 0,
                        }
                    }
                    Fall::Budget(_) | Fall::Artifact | Fall::Storage | Fall::Stop => {
                        ServeError::from(error)
                    }
                };
                Err(Refusal {
                    error,
                    try_stale: fall == Fall::Storage,
                })
            }
        };
        (result, self.consumed)
    }
}

impl Policy for Breakered<'_> {
    /// A rung the walk falls to runs only while the storage breaker
    /// still admits this request: a failure that tripped it mid-walk
    /// stops the storage fall.
    fn admit(&mut self, _: &Rung) -> bool {
        self.storage.is_some()
    }

    fn failed(&mut self, _: &Step<'_>, error: &AlgorithmError) {
        let shared = self.shared;
        match Fall::of(error) {
            // A cost-budget abort read blocks until it crossed its
            // allowance, so it is charged in full; any other failure's
            // partial spend is unknowable, so it is charged a floor.
            Fall::Budget(BudgetKind::CostUnits) => {
                self.consumed += self.budgets.max_cost_units.map_or(1, ticks).max(1);
                return;
            }
            Fall::Storage => {
                if let Some(guard) = &mut self.storage {
                    shared.emit_transition(guard.failure(self.now));
                    // A failure that trips the breaker denies the retry too.
                    if let BreakerState::Open { .. } = guard.state() {
                        self.storage = None;
                    }
                }
            }
            Fall::Artifact | Fall::Budget(_) | Fall::Stop => {}
        }
        self.consumed += 1;
    }

    fn hop(&mut self, from: &Rung, to: &Step<'_>, error: &AlgorithmError) {
        if from.needs == Needs::Hierarchy {
            self.shared.inc("serve_hierarchy_degraded_total");
        }
        self.shared.emit(ServeEvent::AlgorithmDegraded {
            request: self.request,
            from: from.name.to_string(),
            to: to.rung.name.to_string(),
            reason: error.to_string(),
            at_tick: self.now,
        });
    }
}

/// How a walk without an answer is refused — unless storage was the
/// trouble and the stale tier still holds the key.
struct Refusal {
    error: ServeError,
    try_stale: bool,
}

/// The ladder's tail for the group's key: a stale answer tagged with its
/// age, and the ticks it is charged; failing that, the typed refusal.
fn tail(
    shared: &Shared,
    level: &mut Level<Unlocked>,
    snapshot: &ShardSnapshot,
    group: &Group,
    refusal: &Refusal,
) -> (Result<Exec, ServeError>, u64) {
    let stale = refusal.try_stale.then(|| {
        let install = snapshot.install();
        (shared.cache).lookup_stale(level, group.from, group.to, install, STALE_MAX_AGE)
    });
    match stale.flatten() {
        Some((route, age)) => {
            let consumed = ticks(route.cost_units);
            let exec = Exec {
                path: Some(route.path),
                outcome: RouteOutcome::Stale { age },
                epoch: route.epoch,
                iterations: route.iterations,
                cost_units: route.cost_units,
            };
            (Ok(exec), consumed)
        }
        None => (Err(refusal.error.clone()), 0),
    }
}

/// Metric name classifying a storage fault observed on the serving
/// path. Every `StorageError` variant is named, with no `_` arm, so a new
/// storage failure mode does not compile until serving decides how to
/// count it.
fn storage_fault_metric(fault: &StorageError) -> &'static str {
    match fault {
        StorageError::IoFailed { .. } => "serve_storage_fault_io_total",
        StorageError::CorruptBlock { .. } => "serve_storage_fault_corrupt_total",
        StorageError::KeyNotFound(_) => "serve_storage_fault_key_total",
        StorageError::SlotOutOfRange { .. } => "serve_storage_fault_slot_total",
        StorageError::InvalidValue(_) => "serve_storage_fault_value_total",
        StorageError::CapacityExceeded { .. } => "serve_storage_fault_capacity_total",
    }
}

/// The group's key in the route cache at the pinned epoch vector, as a
/// `CacheHit` answer.
fn cache_hit(
    shared: &Shared,
    level: &mut Level<Unlocked>,
    snapshot: &ShardSnapshot,
    group: &Group,
) -> Option<Exec> {
    let hit = shared
        .cache
        .lookup_vec_at(level, group.from, group.to, &snapshot.epochs)?;
    shared.emit(ServeEvent::CacheHit {
        request: group.lead(),
        epoch: snapshot.install(),
    });
    Some(Exec {
        path: Some(hit.path),
        outcome: RouteOutcome::CacheHit,
        epoch: snapshot.install(),
        iterations: hit.iterations,
        cost_units: hit.cost_units,
    })
}

/// A fresh answer for the group's key: caches the route, stamped with
/// the version (from the pinned vector) of every shard the path crosses.
fn computed(
    shared: &Shared,
    level: &mut Level<Unlocked>,
    snapshot: &ShardSnapshot,
    group: &Group,
    trace: RunTrace,
    cost_units: f64,
    outcome: RouteOutcome,
) -> Exec {
    if let Some(path) = &trace.path {
        let stamps: Vec<(u32, u64)> = shared
            .epoch_db
            .map()
            .path_shards(&path.nodes)
            .into_iter()
            .map(|shard| (shard, snapshot.epochs.version(shard)))
            .collect();
        let route = CachedRoute {
            path: path.clone(),
            epoch: snapshot.install(),
            iterations: trace.iterations,
            cost_units,
        };
        shared.cache.insert_stamped_at(
            level,
            group.from,
            group.to,
            route,
            stamps,
            snapshot.epochs.points(),
        );
    }
    Exec {
        path: trace.path,
        outcome,
        epoch: snapshot.install(),
        iterations: trace.iterations,
        cost_units,
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests drive the public API, which mints the root lock level"
)]
mod tests {
    use super::super::tests::grid_service;
    use super::super::*;
    use super::*;
    use atis_graph::{CostModel, Grid, QueryKind};
    use atis_obs::{MetricsRegistry, RingSink};

    #[test]
    fn storage_breaker_opens_and_serves_stale_then_recovers() {
        use atis_storage::FaultPlan;
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);

        // Replay the warm-up against an inert-fault oracle to learn
        // exactly how many physical reads it consumes, so the brownout
        // window can be placed deterministically *after* it.
        let oracle = Database::open(grid.graph())
            .unwrap()
            .with_fault_plan(FaultPlan::inert(3));
        let trace = oracle.run(ServeConfig::default().algorithm, s, d).unwrap();
        let path = trace.path.clone().unwrap();
        let (u, v) = path.hops().next().unwrap();
        let mut updated = oracle.clone();
        updated.update_edge_cost(u, v, path.cost + 100.0).unwrap();
        #[expect(
            clippy::disallowed_methods,
            reason = "a storage lock, outside the serve crate's ranks"
        )]
        let warm_reads = oracle.faults().unwrap().lock().unwrap().reads();

        // The brownout: every read after the warm-up fails, for a
        // 40-operation window, then storage recovers.
        let window = (warm_reads + 1, warm_reads + 40);
        let db = Database::open(grid.graph())
            .unwrap()
            .with_fault_plan(FaultPlan::inert(3).with_read_failure_window(window.0, window.1, 1.0));
        let service = RouteService::new(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_breaker(BreakerConfig {
                    failure_threshold: 2,
                    open_ticks: 50,
                    probes: 1,
                }),
        );

        // Warm the cache, then retire the entry so the stale tier has it.
        let fresh = service.route(s, d).unwrap();
        assert_eq!(fresh.outcome, RouteOutcome::Computed);
        service.update_edge_cost(u, v, path.cost + 100.0).unwrap();

        // Drive the storm: typed failures trip the breaker, the open
        // breaker stale-serves, probes burn through the fault window one
        // read at a time, and the first probe past the window re-closes
        // the breaker.
        let mut stale_seen = 0;
        let mut opened = false;
        for _ in 0..400 {
            match service.route(s, d) {
                Ok(answer) => {
                    if let RouteOutcome::Stale { age } = answer.outcome {
                        assert!(age >= 1);
                        assert!(answer.epoch < service.epoch());
                        stale_seen += 1;
                    }
                }
                Err(ServeError::Shed { reason, .. }) => {
                    assert_eq!(reason, ShedReason::BreakerOpen);
                }
                Err(ServeError::Algorithm(AlgorithmError::Storage(_))) => {}
                Err(e) => panic!("unexpected {e}"),
            }
            if matches!(
                service.breaker_state("storage"),
                Some(BreakerState::Open { .. })
            ) {
                opened = true;
            }
            if opened && service.breaker_state("storage") == Some(BreakerState::Closed) {
                break;
            }
        }
        assert!(opened, "repeated storage faults must open the breaker");
        assert!(
            stale_seen > 0,
            "an open breaker with a retired route must stale-serve"
        );
        assert_eq!(
            service.breaker_state("storage"),
            Some(BreakerState::Closed),
            "the breaker must re-close once the brownout ends"
        );
    }

    #[test]
    fn virtual_clock_advances_with_completed_work() {
        let (service, grid) = grid_service(
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0),
        );
        assert_eq!(service.now_ticks(), 0);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let answer = service.route(s, d).unwrap();
        let after_one = service.now_ticks();
        assert!(
            after_one > answer.cost_units as u64,
            "clock {after_one} must cover the dequeue tick plus {} cost units",
            answer.cost_units
        );
        service.route(s, d).unwrap();
        assert!(service.now_ticks() > after_one);
    }

    #[test]
    fn a_stale_hierarchy_degrades_v5_to_v4_with_a_typed_event() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        use atis_preprocess::{LandmarkTables, PreprocessConfig};
        let registry = MetricsRegistry::shared();
        let ring = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        // Overlay built on the pristine grid, landmarks on the mutated
        // copy the service actually runs: v5 fails typed (stale), the
        // ladder lands on v4, and the answer is still exact.
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let mut changed = grid.graph().clone();
        changed
            .set_edge_cost(grid.node_at(2, 2), grid.node_at(2, 3), 9.0)
            .unwrap();
        let tables = LandmarkTables::build(&changed, PreprocessConfig::grid_default()).unwrap();
        let db = Database::open(&changed)
            .unwrap()
            .with_hierarchy(overlay)
            .with_landmarks(tables);
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V5)),
            Some(registry.clone()),
            Some(ring.clone() as SharedSink),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Degraded { rung: "astar-v4" });
        let oracle = atis_algorithms::memory::dijkstra_pair(&changed, s, d).unwrap();
        assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-3);
        assert_eq!(registry.counter("serve_hierarchy_degraded_total"), 1);
        assert_eq!(registry.counter("serve_degraded_total"), 1);
        let json: Vec<String> = ring.events().iter().map(|e| e.to_json()).collect();
        let degrade = json
            .iter()
            .find(|j| j.contains(r#""type":"serve_algorithm_degraded""#))
            .expect("the v5 -> v4 fall must be announced");
        assert!(degrade.contains(r#""from":"primary""#), "{degrade}");
        assert!(degrade.contains(r#""to":"astar-v4""#), "{degrade}");
        assert!(degrade.contains("stale"), "{degrade}");
    }

    /// The `serve_algorithm_degraded` events in `ring`, as JSON.
    fn degrade_events(ring: &RingSink) -> Vec<String> {
        ring.events()
            .iter()
            .map(|e| e.to_json())
            .filter(|j| j.contains(r#""type":"serve_algorithm_degraded""#))
            .collect()
    }

    #[test]
    fn stale_landmarks_announce_the_v4_to_v3_hop() {
        use atis_preprocess::{LandmarkTables, PreprocessConfig};
        let ring = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let mut changed = grid.graph().clone();
        changed
            .set_edge_cost(grid.node_at(2, 2), grid.node_at(2, 3), 9.0)
            .unwrap();
        let db = Database::open(&changed).unwrap().with_landmarks(tables);
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V4)),
            None,
            Some(ring.clone() as SharedSink),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Degraded { rung: "astar-v3" });
        let events = degrade_events(&ring);
        assert_eq!(events.len(), 1, "{events:#?}");
        assert!(events[0].contains(r#""from":"primary""#), "{events:#?}");
        assert!(events[0].contains(r#""to":"astar-v3""#), "{events:#?}");
        assert!(events[0].contains("stale"), "{events:#?}");
    }

    #[test]
    fn a_retry_of_the_primary_is_not_a_degrade() {
        use atis_storage::FaultPlan;
        let registry = MetricsRegistry::shared();
        let ring = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        // One planned hard read failure: the first Dijkstra run dies, the
        // storage fall re-runs the ladder's last rung — which *is* the
        // configured primary.
        let db = Database::open(grid.graph())
            .unwrap()
            .with_fault_plan(FaultPlan::inert(5).with_fail_nth_read(40));
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::Dijkstra),
            Some(registry.clone()),
            Some(ring.clone() as SharedSink),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        assert_eq!(registry.counter("serve_degraded_total"), 0);
        assert!(degrade_events(&ring).is_empty(), "no rung changed");
        // The failed first attempt still cost its one-tick floor.
        assert_eq!(
            service.now_ticks(),
            1 + 1 + answer.cost_units.ceil() as u64,
            "dequeue + failed attempt + the run that answered"
        );
    }

    /// Ladder conformance, driven by the table instead of hand-picked
    /// cases: for every primary × artifact state, the rung that answers
    /// in `RouteService` is the first rung of `ladder::sequence(primary)`
    /// whose artifact is usable, and its answer is exact.
    #[test]
    fn every_primary_lands_on_the_rung_the_table_predicts() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        use atis_preprocess::{LandmarkTables, PreprocessConfig};

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Artifact {
            Fresh,
            Stale,
            Missing,
        }
        const STATES: [Artifact; 3] = [Artifact::Fresh, Artifact::Stale, Artifact::Missing];

        // Artifacts built on the pristine grid are stale for `changed`,
        // the graph every service below runs on.
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let mut changed = grid.graph().clone();
        changed
            .set_edge_cost(grid.node_at(2, 2), grid.node_at(2, 3), 9.0)
            .unwrap();
        let overlay = |g| Hierarchy::build(g, HierarchyConfig::paper()).unwrap();
        let tables = |g| LandmarkTables::build(g, PreprocessConfig::grid_default()).unwrap();
        let overlays = [overlay(&changed), overlay(grid.graph())];
        let landmarks = [tables(&changed), tables(grid.graph())];
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let oracle = atis_algorithms::memory::dijkstra_pair(&changed, s, d).unwrap();

        let mut checked = 0;
        for primary in ladder::TABLE.map(|row| row.algorithm) {
            let rungs = ladder::sequence(primary);
            for (h, l) in STATES
                .iter()
                .flat_map(|&h| STATES.iter().map(move |&l| (h, l)))
            {
                let case = format!("{primary:?} hierarchy {h:?} landmarks {l:?}");
                let mut db = Database::open(&changed).unwrap();
                if h != Artifact::Missing {
                    db = db.with_hierarchy(overlays[(h == Artifact::Stale) as usize].clone());
                }
                if l != Artifact::Missing {
                    db = db.with_landmarks(landmarks[(l == Artifact::Stale) as usize].clone());
                }
                // The table's prediction: the first rung whose artifact
                // is fresh.
                let predicted = rungs
                    .iter()
                    .find(|rung| match rung.needs {
                        Needs::Nothing => true,
                        Needs::Hierarchy => h == Artifact::Fresh,
                        Needs::Landmarks => l == Artifact::Fresh,
                    })
                    .unwrap();

                let service = RouteService::new(
                    db,
                    ServeConfig::default()
                        .with_workers(1)
                        .with_cache_capacity(0)
                        .with_algorithm(primary),
                );
                let answer = service.route(s, d).unwrap();
                let answered = match answer.outcome {
                    RouteOutcome::Computed => "primary",
                    RouteOutcome::Degraded { rung } => rung,
                    other => panic!("{case}: unexpected outcome {other:?}"),
                };
                assert_eq!(answered, predicted.name, "{case}");
                assert!(
                    (answer.path.unwrap().cost - oracle.cost).abs() < 1e-3,
                    "{case}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 4 * 3 * 3);
    }

    #[test]
    fn a_standing_budget_ends_the_walk_typed_without_a_hop() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        use atis_preprocess::{LandmarkTables, PreprocessConfig};
        let registry = MetricsRegistry::shared();
        let ring = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        // Fresh artifacts for every rung, so only the database's own
        // one-iteration budget stops the primary: the walk ends there
        // instead of trying a lower rung against the same budget.
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let db = Database::open(grid.graph())
            .unwrap()
            .with_hierarchy(overlay)
            .with_landmarks(tables)
            .with_budgets(Budgets::unlimited().with_max_iterations(1));
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V5)),
            Some(registry.clone()),
            Some(ring.clone() as SharedSink),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        assert!(matches!(
            service.route(s, d),
            Err(ServeError::Algorithm(AlgorithmError::BudgetExceeded(
                BudgetKind::Iterations
            )))
        ));
        assert!(degrade_events(&ring).is_empty(), "no rung below ran");
        assert_eq!(registry.counter("serve_degraded_total"), 0);
    }

    #[test]
    fn a_stale_hierarchy_without_landmarks_degrades_v5_to_v3() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let mut changed = grid.graph().clone();
        changed
            .set_edge_cost(grid.node_at(2, 2), grid.node_at(2, 3), 9.0)
            .unwrap();
        let db = Database::open(&changed).unwrap().with_hierarchy(overlay);
        let service = RouteService::new(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V5)),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Degraded { rung: "astar-v3" });
        let oracle = atis_algorithms::memory::dijkstra_pair(&changed, s, d).unwrap();
        assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-3);

        // Enough stale runs to trip a breaker over the overlay, were
        // there one; then the jam clears and the update re-prices the
        // overlay. Nothing is left to keep v5 off: the very next request
        // is answered by the primary.
        for _ in 0..BreakerConfig::default().failure_threshold {
            let answer = service.route(s, d).unwrap();
            assert_eq!(answer.outcome, RouteOutcome::Degraded { rung: "astar-v3" });
        }
        let (u, v) = (grid.node_at(2, 2), grid.node_at(2, 3));
        let base = grid.graph().edge_cost(u, v).unwrap();
        let update = service.update_edge_cost(u, v, base).unwrap();
        assert_eq!(update.hierarchy, Refresh::Rebuilt);
        let snap = service.shard_snapshot();
        assert!(snap.db.hierarchy().unwrap().is_current_for(snap.db.graph()));
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-9);
    }

    #[test]
    fn a_deadline_shed_probe_releases_the_storage_breaker_slot() {
        let (service, grid) = grid_service(
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_breaker(BreakerConfig {
                    failure_threshold: 1,
                    open_ticks: 64,
                    probes: 1,
                }),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);

        // Trip the storage breaker at tick 0: open until tick 64.
        let tripped = service.shared.breakers.storage.on_failure(0);
        assert!(tripped.is_some());

        // While open, requests shed with the breaker's *actual*
        // countdown (not the queue-depth retry formula), and each shed
        // still ticks the clock by its dequeue.
        match service.route(s, d) {
            Err(ServeError::Shed {
                reason,
                retry_after,
                ..
            }) => {
                assert_eq!(reason, ShedReason::BreakerOpen);
                assert!(
                    retry_after > 16,
                    "retry_after {retry_after} must be the breaker countdown, \
                     not the 16-tick retry unit"
                );
            }
            other => panic!("open breaker must shed, got {other:?}"),
        }
        while service.now_ticks() < 64 {
            let _ = service.route(s, d);
        }

        // The open window has elapsed: the next request is admitted as
        // the half-open probe, but its 3-tick deadline aborts the run
        // mid-expansion — a shed, with no verdict on storage health.
        let before = service.now_ticks();
        match service.route_with(s, d, RequestClass::Interactive, Some(3)) {
            Err(ServeError::Shed { reason, .. }) => {
                assert_eq!(
                    reason,
                    ShedReason::DeadlineExpired,
                    "the probe must be admitted (BreakerOpen would mean denied)"
                );
            }
            other => panic!("a 3-tick deadline must shed mid-run, got {other:?}"),
        }
        // The aborted run burned its whole cost allowance; the clock
        // must be charged for it (dequeue + ⌈allowance⌉), not just the
        // dequeue tick.
        assert!(
            service.now_ticks() >= before + 3,
            "aborted work must still meter the clock: {} -> {}",
            before,
            service.now_ticks()
        );

        // The aborted probe released its slot: the next request probes,
        // succeeds, and re-closes the breaker instead of being denied
        // by a permanently saturated half-open machine.
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        assert_eq!(service.breaker_state("storage"), Some(BreakerState::Closed));
    }

    /// Spin until the worker pool has emitted `Started` for `request` —
    /// the deterministic "the plug is running solo" barrier the batching
    /// tests queue up behind.
    fn wait_for_started(sink: &std::sync::Arc<RingSink>, request: u64) {
        for _ in 0..20_000 {
            let started = sink.events().iter().any(|e| {
                matches!(
                    e,
                    TraceEvent::Serve(ServeEvent::Started { request: r, .. }) if *r == request
                )
            });
            if started {
                return;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        panic!("worker never started request {request}");
    }

    #[test]
    fn a_batched_dijkstra_worker_answers_every_key_with_its_own_run() {
        use atis_storage::FaultPlan;
        let sink = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        // Slow, reliable reads: the plug request holds the lone worker
        // for milliseconds while the microsecond-scale submits below
        // pile up behind it.
        let db = Database::open(grid.graph()).unwrap().with_fault_plan(
            FaultPlan::inert(0x5EED).with_read_latency(Duration::from_micros(100)),
        );
        let oracle = Database::open(grid.graph()).unwrap();
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_batch_max(8)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::Dijkstra),
            None,
            Some(sink.clone()),
        );
        let plug = service
            .submit(grid.node_at(5, 5), grid.node_at(0, 0))
            .unwrap();
        wait_for_started(&sink, plug.id());
        let s = grid.node_at(0, 0);
        let targets = [
            grid.node_at(5, 5),
            grid.node_at(0, 5),
            grid.node_at(5, 0),
            grid.node_at(5, 5), // duplicate key: singleflight member
        ];
        let tickets: Vec<Ticket> = targets
            .iter()
            .map(|&d| service.submit(s, d).unwrap())
            .collect();
        plug.wait().unwrap();
        let answers: Vec<RouteAnswer> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        // Same-source keys share a batch and a snapshot, never a run:
        // every answer is its own key's solo run, cost included.
        for (answer, &d) in answers.iter().zip(&targets) {
            let solo = oracle.run(Algorithm::Dijkstra, s, d).unwrap();
            assert_eq!(
                answer.path.as_ref().unwrap().nodes,
                solo.path.as_ref().unwrap().nodes,
                "batched answers must be bit-identical to solo runs"
            );
            assert_eq!(answer.iterations, solo.iterations, "to {d:?}");
            assert_eq!(
                answer.cost_units,
                solo.cost_units(oracle.params()),
                "to {d:?}"
            );
            assert_eq!(answer.outcome, RouteOutcome::Computed);
        }
        let batches: Vec<(u64, u64)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Serve(ServeEvent::BatchExecuted { size, groups, .. }) => {
                    Some((*size, *groups))
                }
                _ => None,
            })
            .collect();
        assert_eq!(batches, vec![(4, 3)], "4 requests, 3 distinct keys");
    }

    #[test]
    fn a_bad_destination_in_a_batch_is_counted_like_a_solo_failure() {
        use atis_storage::FaultPlan;
        let registry = MetricsRegistry::shared();
        let sink = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let db = Database::open(grid.graph()).unwrap().with_fault_plan(
            FaultPlan::inert(0x5EED).with_read_latency(Duration::from_micros(100)),
        );
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_batch_max(8)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::Dijkstra),
            Some(registry.clone()),
            Some(sink.clone()),
        );
        let plug = service
            .submit(grid.node_at(5, 5), grid.node_at(0, 0))
            .unwrap();
        wait_for_started(&sink, plug.id());
        let s = grid.node_at(0, 0);
        let tickets: Vec<Ticket> = [grid.node_at(5, 5), NodeId(9999), grid.node_at(0, 5)]
            .iter()
            .map(|&d| service.submit(s, d).unwrap())
            .collect();
        plug.wait().unwrap();
        let answers: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(answers[0].is_ok() && answers[2].is_ok());
        assert!(matches!(
            answers[1],
            Err(ServeError::Algorithm(AlgorithmError::UnknownDestination(_)))
        ));
        // The bad key failed on its own run and was counted there; the
        // two good keys were answered beside it.
        assert_eq!(registry.counter("serve_deterministic_error_total"), 1);
    }

    #[test]
    fn batching_never_regresses_a_lone_interactive_request() {
        // Fairness bound 1 (drain-only): with an idle queue a batched
        // service serves a lone request exactly as an unbatched one —
        // same outcome, same clock charge, no waiting for a batch.
        let (batched, grid) =
            grid_service(ServeConfig::default().with_workers(1).with_batch_max(8));
        let (plain, _) = grid_service(ServeConfig::default().with_workers(1));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let a = batched.route(s, d).unwrap();
        let b = plain.route(s, d).unwrap();
        assert_eq!(
            a.path.as_ref().map(|p| &p.nodes),
            b.path.as_ref().map(|p| &p.nodes)
        );
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.cost_units, b.cost_units);
        assert_eq!(batched.now_ticks(), plain.now_ticks());
    }

    #[test]
    fn batched_non_dijkstra_groups_run_singleflight_per_key() {
        // Identical (from, to) keys collapse into one run.
        use atis_storage::FaultPlan;
        let registry = MetricsRegistry::shared();
        let sink = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let db = Database::open(grid.graph()).unwrap().with_fault_plan(
            FaultPlan::inert(0x5EED).with_read_latency(Duration::from_micros(100)),
        );
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_batch_max(8)
                .with_cache_capacity(0),
            Some(registry.clone()),
            Some(sink.clone()),
        );
        let plug = service
            .submit(grid.node_at(5, 5), grid.node_at(0, 0))
            .unwrap();
        wait_for_started(&sink, plug.id());
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let tickets: Vec<Ticket> = (0..3).map(|_| service.submit(s, d).unwrap()).collect();
        plug.wait().unwrap();
        let answers: Vec<RouteAnswer> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert!(answers.iter().all(|a| a.outcome == RouteOutcome::Computed));
        assert!(answers
            .windows(2)
            .all(|w| w[0].path.as_ref().unwrap().nodes == w[1].path.as_ref().unwrap().nodes));
        // Every request was counted, and the singleflight saved two
        // runs' worth of cache misses.
        assert_eq!(registry.counter("serve_requests_total"), 4);
    }
}

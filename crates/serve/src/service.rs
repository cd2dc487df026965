//! The concurrent route service: two-class admission control with
//! load-shedding, deadline propagation over a virtual clock, a fixed
//! worker pool, epoch snapshots, circuit breakers with stale-serve
//! degradation, and the route cache.
//!
//! ## Request life cycle
//!
//! ```text
//! submit() ──admission──▶ class queues ──▶ worker i
//!    │ shed? SHED            (interactive     │ deadline check (virtual ticks)
//!    ▼       (typed reason)   before bulk)    │ pin snapshot (epoch vector e)
//! Ticket::wait() ◀── answer ◀────────────────┤ cache lookup (from,to) @ e
//!                                            │ hit: serve cached
//!                                            └ miss: degrade ladder
//!                                               primary → v4/v3 → Dijkstra
//!                                               → stale tier (STALE k)
//! ```
//!
//! ## Overload policy
//!
//! Admission is **shed-not-queue**: the submission queue is bounded, and
//! when it is full the service sheds the *least valuable* work first —
//! requests whose deadline already expired (either class), then the
//! oldest-deadline bulk request (displaced to admit interactive work) —
//! before finally refusing the newcomer with a typed
//! [`ServeError::Shed`] carrying a `retry_after` hint. `BUSY` never
//! appears; every refusal says why and when to come back.
//!
//! **Deadlines** are measured on a deterministic virtual clock
//! ([`RouteService::now_ticks`]): one tick per dequeue plus one tick per
//! Table 4A cost unit of completed work, so virtual time advances with
//! admitted load, never with wall time (consistent with the analyze
//! determinism rules). An admitted request whose deadline passes while
//! queued is shed at dequeue without running; one that is still running
//! when its deadline-derived cost budget (80% of the remaining ticks by
//! default) runs out is aborted mid-expansion by the planner's budget
//! meter — it stops consuming block reads instead of completing
//! uselessly.
//!
//! **Circuit breakers** guard the storage engine, the landmark rebuild
//! path, and the hierarchy maintenance path (see `breaker.rs`). An open
//! storage breaker skips the database rungs entirely and serves from
//! the stale cache tier; an open hierarchy breaker skips A\* v5 and
//! starts the ladder at v4 (or v3 without landmark tables); an open
//! landmark breaker skips A\* v4 and starts the ladder at v3.
//!
//! Updates bypass the queue: [`RouteService::update_edge_cost`] installs
//! a new epoch copy-on-write (running queries keep their snapshots) and
//! sweeps the cache under the invalidation rule, retiring invalidated
//! entries into the stale tier.
//!
//! ## Sharded epochs and batched expansion
//!
//! The epoch state is versioned per region-group shard (see `shard.rs`;
//! [`ServeConfig::with_shards`] sets how many, and one shard is the
//! same code at a different data point): a cost increase bumps only the
//! shards its edge touches (a decrease bumps them all), queries pin one
//! consistent epoch *vector*, and the cache validates entries against
//! the shard versions they were stamped with — so a jam in one shard
//! does not evict routes that never cross it. With
//! [`ServeConfig::with_batch_max`] a worker drains
//! up to `batch_max` queued requests in one dequeue (never waiting for
//! more — batching adds zero queueing latency), serves identical
//! `(from, to)` keys from a single run, and — when the primary
//! algorithm is Dijkstra — folds same-source requests into one shared
//! frontier sweep (`dijkstra_many`) charged a single pass of block
//! reads. Fairness bounds: a batch is drain-only (bound 1: no request
//! ever waits for a batch to fill), and a shared run's cost budget is
//! the *maximum* member allowance (bound 2: no member is aborted
//! earlier than its solo run would have been).

use crate::breaker::{
    Admission, BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, ProbeGuard,
};
use crate::cache::{CachedRoute, RouteCache};
use crate::epoch::{EpochUpdate, HierarchyRefresh, LandmarkRefresh};
use crate::error::{ServeError, ShedReason};
use crate::shard::{ShardMap, ShardSnapshot, ShardedEpochDb, ShardedUpdate};
use crate::sync::{self, Arc, Condvar, Mutex, MutexGuard};
use atis_algorithms::{AStarVersion, Algorithm, AlgorithmError, BudgetKind, Budgets, Database};
use atis_graph::{NodeId, Path};
use atis_obs::{ServeEvent, SharedRegistry, SharedSink, TraceEvent};
use atis_storage::StorageError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

type JoinHandle = sync::thread::JoinHandle<()>;

/// Admission class of a request. Interactive work is served first; bulk
/// work is displaced first under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// A traveller waiting on an answer (the `ROUTE` wire command).
    Interactive,
    /// Deferrable background work (incident-driven refresh, prefetch).
    Bulk,
}

impl RequestClass {
    /// Stable lowercase label (trace events, docs).
    pub fn label(&self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Bulk => "bulk",
        }
    }
}

/// An absolute expiry on the service's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    /// Virtual tick at which the request is no longer worth answering.
    pub expires_at: u64,
}

impl Deadline {
    /// Ticks left at virtual time `now` (0 = expired).
    pub fn remaining(&self, now: u64) -> u64 {
        self.expires_at.saturating_sub(now)
    }

    /// Whether the deadline has passed at virtual time `now`.
    pub fn expired(&self, now: u64) -> bool {
        now >= self.expires_at
    }
}

/// How an answer was produced — every response is classified, so a
/// client (and the chaos harness) can always tell full-fidelity service
/// from degraded service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteOutcome {
    /// A fresh run of the configured algorithm at the current epoch.
    Computed,
    /// Served from the route cache, bit-identical to a fresh run.
    CacheHit,
    /// A fallback rung of the degrade ladder answered (still exact, and
    /// still at the current epoch — just a cheaper/estimator-free
    /// algorithm).
    Degraded {
        /// Ladder rung that produced the answer (`"astar-v3"`,
        /// `"dijkstra"`).
        rung: &'static str,
    },
    /// Served from the stale cache tier: a route valid `age` epochs ago
    /// (the `STALE k` wire tag).
    Stale {
        /// Age of the answer in epochs.
        age: u64,
    },
}

impl RouteOutcome {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            RouteOutcome::Computed => "computed",
            RouteOutcome::CacheHit => "cache-hit",
            RouteOutcome::Degraded { .. } => "degraded",
            RouteOutcome::Stale { .. } => "stale",
        }
    }

    /// Whether the answer is anything other than full-fidelity service
    /// at the current epoch.
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            RouteOutcome::Degraded { .. } | RouteOutcome::Stale { .. }
        )
    }
}

/// Tuning knobs for a [`RouteService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing planner runs (≥ 1).
    pub workers: usize,
    /// Bounded submission-queue capacity (both classes combined); a full
    /// queue sheds (see [`ServeError::Shed`]) (≥ 1).
    pub queue_capacity: usize,
    /// Route-cache capacity in entries (0 disables caching, including
    /// the stale tier).
    pub cache_capacity: usize,
    /// Algorithm every `ROUTE` request runs.
    pub algorithm: Algorithm,
    /// Default per-request deadline, in virtual-time ticks.
    pub default_deadline_ticks: u64,
    /// Fraction of the remaining deadline a run may spend as cost units
    /// before being aborted mid-expansion (the "shed at 80%" rule).
    pub deadline_spend_fraction: f64,
    /// `retry_after = queue_depth × retry_unit_ticks` on queue-full
    /// sheds.
    pub retry_unit_ticks: u64,
    /// Circuit-breaker tuning (shared by the storage, landmark and
    /// hierarchy breakers).
    pub breaker: BreakerConfig,
    /// Oldest answer (in epochs) the stale-serve rung may return.
    pub stale_max_age: u64,
    /// Epoch shards (region groups over the partition map). With `1`
    /// every update bumps the one shard (a single global epoch); more
    /// shards confine a cost increase's cache invalidation to the shards
    /// its edge touches.
    pub shards: usize,
    /// Most requests a worker folds into one dequeue (≥ 1; `1` disables
    /// batching). A batch is drain-only — a worker never waits for one
    /// to fill.
    pub batch_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 1024,
            algorithm: Algorithm::AStar(AStarVersion::V3),
            default_deadline_ticks: 100_000,
            deadline_spend_fraction: 0.8,
            retry_unit_ticks: 16,
            breaker: BreakerConfig::default(),
            stale_max_age: 8,
            shards: 1,
            batch_max: 1,
        }
    }
}

impl ServeConfig {
    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the submission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the route-cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Overrides the default per-request deadline (virtual ticks).
    pub fn with_default_deadline_ticks(mut self, ticks: u64) -> Self {
        self.default_deadline_ticks = ticks;
        self
    }

    /// Overrides the deadline spend fraction (clamped to `(0, 1]`).
    pub fn with_deadline_spend_fraction(mut self, fraction: f64) -> Self {
        self.deadline_spend_fraction = fraction.clamp(0.05, 1.0);
        self
    }

    /// Overrides the circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Overrides the maximum stale-serve age (epochs).
    pub fn with_stale_max_age(mut self, age: u64) -> Self {
        self.stale_max_age = age;
        self
    }

    /// Overrides the epoch shard count (`1` = single global epoch).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the per-dequeue batch bound (`1` disables batching).
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }
}

/// One answered route request.
#[derive(Debug, Clone)]
pub struct RouteAnswer {
    /// The route, or `None` when the destination is unreachable.
    pub path: Option<Path>,
    /// Epoch the answer is valid at: every edge cost the answer reflects
    /// comes from exactly this snapshot. For a [`RouteOutcome::Stale`]
    /// answer this is the *older* epoch the route was computed at.
    pub epoch: u64,
    /// How the answer was produced (fresh run, cache hit, degraded rung,
    /// stale tier).
    pub outcome: RouteOutcome,
    /// The deadline the request ran under (virtual ticks).
    pub deadline: Deadline,
    /// Admission class the request was served as.
    pub class: RequestClass,
    /// Whether the answer came from the route cache (kept alongside
    /// [`RouteAnswer::outcome`] for call-site convenience).
    pub cached: bool,
    /// Iterations of the (original) run.
    pub iterations: u64,
    /// Simulated I/O cost of the (original) run, Table 4A units.
    pub cost_units: f64,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Worker time (cache lookup + algorithm run).
    pub service_time: Duration,
    /// Pool index of the worker that served the request.
    pub worker: usize,
}

/// The pending-answer slot a submitted request blocks on.
#[derive(Debug, Default)]
struct TicketInner {
    slot: Mutex<Option<Result<RouteAnswer, ServeError>>>,
    ready: Condvar,
}

impl TicketInner {
    /// Designated acquirer for the answer slot (rank 4 in the declared
    /// order — see `sync.rs`).
    fn lock_slot(&self) -> MutexGuard<'_, Option<Result<RouteAnswer, ServeError>>> {
        sync::lock(&self.slot)
    }

    /// Fills the slot and wakes the waiter.
    fn resolve(&self, answer: Result<RouteAnswer, ServeError>) {
        let mut slot = self.lock_slot();
        *slot = Some(answer);
        drop(slot);
        self.ready.notify_all();
    }
}

/// A claim on a submitted request's future answer.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// The request id (monotonic per service, matches trace events).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the worker pool answers this request.
    pub fn wait(self) -> Result<RouteAnswer, ServeError> {
        let mut slot = self.inner.lock_slot();
        loop {
            if let Some(answer) = slot.take() {
                return answer;
            }
            slot = sync::wait(&self.inner.ready, slot);
        }
    }
}

struct Job {
    id: u64,
    from: NodeId,
    to: NodeId,
    class: RequestClass,
    deadline: Deadline,
    submitted: Instant,
    ticket: Arc<TicketInner>,
}

#[derive(Default)]
struct QueueState {
    interactive: VecDeque<Job>,
    bulk: VecDeque<Job>,
    closed: bool,
}

impl QueueState {
    fn len(&self) -> usize {
        self.interactive.len() + self.bulk.len()
    }

    fn pop(&mut self) -> Option<Job> {
        self.interactive
            .pop_front()
            .or_else(|| self.bulk.pop_front())
    }

    /// Removes every queued job whose deadline has passed at `now`.
    fn drain_expired(&mut self, now: u64) -> Vec<Job> {
        let mut expired = Vec::new();
        for queue in [&mut self.interactive, &mut self.bulk] {
            let mut keep = VecDeque::with_capacity(queue.len());
            while let Some(job) = queue.pop_front() {
                if job.deadline.expired(now) {
                    expired.push(job);
                } else {
                    keep.push_back(job);
                }
            }
            *queue = keep;
        }
        expired
    }

    /// Removes the bulk job with the earliest deadline (the one that
    /// would be shed soonest anyway), if any.
    fn displace_bulk(&mut self) -> Option<Job> {
        let victim = self
            .bulk
            .iter()
            .enumerate()
            .min_by_key(|(i, job)| (job.deadline, *i))
            .map(|(i, _)| i);
        victim.and_then(|i| self.bulk.remove(i))
    }
}

struct Breakers {
    storage: CircuitBreaker,
    landmarks: CircuitBreaker,
    hierarchy: CircuitBreaker,
}

struct Shared {
    epoch_db: ShardedEpochDb,
    cache: RouteCache,
    queue: Mutex<QueueState>,
    available: Condvar,
    queue_capacity: usize,
    algorithm: Algorithm,
    batch_max: usize,
    default_deadline_ticks: u64,
    deadline_spend_fraction: f64,
    retry_unit_ticks: u64,
    stale_max_age: u64,
    breakers: Breakers,
    /// The virtual clock: +1 per dequeue, +⌈cost units⌉ per run —
    /// completed *or* failed (a cost-budget abort is charged its full
    /// allowance, other failures a one-unit floor). A deterministic
    /// measure of admitted load, never wall time.
    clock: AtomicU64,
    next_request: AtomicU64,
    metrics: Option<SharedRegistry>,
    sink: Option<SharedSink>,
}

impl Shared {
    /// Designated acquirer for the admission queue (rank 1, the
    /// outermost lock in the declared order — see `sync.rs`).
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        sync::lock(&self.queue)
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    fn advance(&self, ticks: u64) -> u64 {
        self.clock.fetch_add(ticks, Ordering::Relaxed) + ticks
    }

    fn emit(&self, event: ServeEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&TraceEvent::Serve(event));
        }
    }

    fn observe(&self, name: &str, value: f64) {
        if let Some(m) = &self.metrics {
            m.observe(name, value);
        }
    }

    fn inc(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.inc(name);
        }
    }

    fn emit_transition(&self, resource: &'static str, transition: Option<BreakerTransition>) {
        let Some(t) = transition else { return };
        if matches!(t.to, BreakerState::Open { .. }) {
            self.inc("serve_breaker_open_total");
        }
        if matches!(t.to, BreakerState::Closed) {
            self.inc("serve_breaker_close_total");
        }
        self.emit(ServeEvent::BreakerTransition {
            resource: resource.to_string(),
            from: t.from.label().to_string(),
            to: t.to.label().to_string(),
            at_tick: self.now(),
        });
    }

    /// Sheds `job` with a typed reason: resolves its ticket, counts it,
    /// and emits the trace span. Never called with a lock held.
    fn shed_job(&self, job: &Job, reason: ShedReason, queue_depth: usize) {
        let retry_after = match reason {
            ShedReason::DeadlineExpired => self.default_deadline_ticks,
            _ => (queue_depth as u64).max(1) * self.retry_unit_ticks,
        };
        self.resolve_shed(job, reason, retry_after, queue_depth);
    }

    /// Sheds `job` with a back-off hint that is already known — a
    /// breaker's actual countdown, a deadline renewal — instead of the
    /// queue-depth formula. Never called with a lock held.
    fn resolve_shed(&self, job: &Job, reason: ShedReason, retry_after: u64, queue_depth: usize) {
        self.inc("serve_shed_total");
        if reason == ShedReason::DeadlineExpired {
            self.inc("serve_deadline_expired_total");
        }
        self.emit(ServeEvent::Shed {
            request: job.id,
            reason: reason.label().to_string(),
            retry_after,
            queue_depth: queue_depth as u64,
        });
        job.ticket.resolve(Err(ServeError::Shed {
            reason,
            retry_after,
            queue_depth,
        }));
    }
}

/// A pooled, cached, epoch-snapshotted, overload-resilient route-serving
/// engine.
///
/// Dropping the service closes admission, lets the workers drain every
/// already-admitted request (so no [`Ticket::wait`] deadlocks), and joins
/// the pool.
pub struct RouteService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle>,
}

impl std::fmt::Debug for RouteService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteService")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.shared.queue_capacity)
            .field("cache_capacity", &self.shared.cache.capacity())
            .field("algorithm", &self.shared.algorithm)
            .finish()
    }
}

impl RouteService {
    /// Starts a service over `db` with `config`. The database becomes
    /// epoch 0; `config.workers` threads start immediately.
    pub fn new(db: Database, config: ServeConfig) -> Self {
        Self::build(db, config, None, None)
    }

    /// Starts a service with observability attached: `metrics` receives
    /// the serving counters/histograms (and the cache counters), `sink`
    /// receives one [`ServeEvent`] span per request stage.
    pub fn with_observability(
        db: Database,
        config: ServeConfig,
        metrics: Option<SharedRegistry>,
        sink: Option<SharedSink>,
    ) -> Self {
        Self::build(db, config, metrics, sink)
    }

    fn build(
        db: Database,
        config: ServeConfig,
        metrics: Option<SharedRegistry>,
        sink: Option<SharedSink>,
    ) -> Self {
        let workers = config.workers.max(1);
        let mut cache = RouteCache::new(config.cache_capacity);
        if let Some(m) = &metrics {
            cache = cache.with_metrics(m.clone());
        }
        let map = ShardMap::build(db.graph(), config.shards);
        if let Some(m) = &metrics {
            m.set("serve_shards", map.shard_count() as u64);
            m.set("serve_batch_max", config.batch_max.max(1) as u64);
        }
        let shared = Arc::new(Shared {
            epoch_db: ShardedEpochDb::new(db, map),
            cache,
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            algorithm: config.algorithm,
            batch_max: config.batch_max.max(1),
            default_deadline_ticks: config.default_deadline_ticks.max(1),
            deadline_spend_fraction: config.deadline_spend_fraction.clamp(0.05, 1.0),
            retry_unit_ticks: config.retry_unit_ticks.max(1),
            stale_max_age: config.stale_max_age,
            breakers: Breakers {
                storage: CircuitBreaker::new(config.breaker),
                landmarks: CircuitBreaker::new(config.breaker),
                hierarchy: CircuitBreaker::new(config.breaker),
            },
            clock: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            metrics,
            sink,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                sync::thread::Builder::new()
                    .name(format!("atis-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    // Startup-only: no request is admitted before the pool
                    // exists, so a spawn failure aborts construction here,
                    // never a client request.
                    // analyze::allow(panic-hygiene): startup-time spawn failure is fatal by design
                    .expect("spawn worker thread")
            })
            .collect();
        RouteService {
            shared,
            workers: handles,
        }
    }

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The algorithm every request runs.
    pub fn algorithm(&self) -> Algorithm {
        self.shared.algorithm
    }

    /// The current epoch — the global install counter (every update
    /// advances it, whichever shards it touches).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch_db.install()
    }

    /// The number of epoch shards (`1` = single global epoch).
    pub fn shards(&self) -> usize {
        self.shared.epoch_db.map().shard_count()
    }

    /// The per-dequeue batch bound (`1` = batching disabled).
    pub fn batch_max(&self) -> usize {
        self.shared.batch_max
    }

    /// The current virtual time, in ticks. Advances with admitted work
    /// (one tick per dequeue plus one per Table 4A cost unit completed),
    /// never with wall time.
    pub fn now_ticks(&self) -> u64 {
        self.shared.now()
    }

    /// The current snapshot: the database plus the whole epoch vector,
    /// pinned together under one lock acquisition — for read-only side
    /// queries (`EVAL`) that must see one consistent epoch
    /// ([`ShardSnapshot::install`] is the epoch answers report).
    pub fn shard_snapshot(&self) -> ShardSnapshot {
        self.shared.epoch_db.snapshot()
    }

    /// The route cache (counters, capacity).
    pub fn cache(&self) -> &RouteCache {
        &self.shared.cache
    }

    /// The state of a named circuit breaker (`"storage"`,
    /// `"landmarks"`, `"hierarchy"`); `None` for unknown names.
    pub fn breaker_state(&self, resource: &str) -> Option<BreakerState> {
        match resource {
            "storage" => Some(self.shared.breakers.storage.state()),
            "landmarks" => Some(self.shared.breakers.landmarks.state()),
            "hierarchy" => Some(self.shared.breakers.hierarchy.state()),
            _ => None,
        }
    }

    /// Submits an interactive request with the default deadline.
    ///
    /// # Errors
    /// [`ServeError::Shed`] when admission sheds the request;
    /// [`ServeError::ShuttingDown`] after the service started closing.
    pub fn submit(&self, from: NodeId, to: NodeId) -> Result<Ticket, ServeError> {
        self.submit_with(from, to, RequestClass::Interactive, None)
    }

    /// Submits a request with an explicit class and (optionally) an
    /// explicit deadline in virtual ticks from now.
    ///
    /// Under pressure the admission controller sheds in value order:
    /// already-expired queued work first (either class), then the
    /// oldest-deadline bulk request if the newcomer is interactive, and
    /// only then the newcomer itself.
    ///
    /// # Errors
    /// [`ServeError::Shed`] when the request itself is shed;
    /// [`ServeError::ShuttingDown`] after the service started closing.
    pub fn submit_with(
        &self,
        from: NodeId,
        to: NodeId,
        class: RequestClass,
        deadline_ticks: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        let id = self.shared.next_request.fetch_add(1, Ordering::Relaxed);
        let now = self.shared.now();
        let deadline = Deadline {
            expires_at: now
                + deadline_ticks
                    .unwrap_or(self.shared.default_deadline_ticks)
                    .max(1),
        };
        let mut victims: Vec<(Job, ShedReason)> = Vec::new();
        let mut queue = self.shared.lock_queue();
        if queue.closed {
            return Err(ServeError::ShuttingDown);
        }
        if queue.len() >= self.shared.queue_capacity {
            for job in queue.drain_expired(now) {
                victims.push((job, ShedReason::DeadlineExpired));
            }
        }
        if queue.len() >= self.shared.queue_capacity && class == RequestClass::Interactive {
            if let Some(job) = queue.displace_bulk() {
                victims.push((job, ShedReason::Displaced));
            }
        }
        if queue.len() >= self.shared.queue_capacity {
            let depth = queue.len();
            drop(queue);
            for (job, reason) in victims {
                self.shared.shed_job(&job, reason, depth);
            }
            let retry_after = (depth as u64).max(1) * self.shared.retry_unit_ticks;
            self.shared.inc("serve_shed_total");
            self.shared.emit(ServeEvent::Shed {
                request: id,
                reason: ShedReason::QueueFull.label().to_string(),
                retry_after,
                queue_depth: depth as u64,
            });
            return Err(ServeError::Shed {
                reason: ShedReason::QueueFull,
                retry_after,
                queue_depth: depth,
            });
        }
        let ticket = Ticket {
            id,
            inner: Arc::new(TicketInner::default()),
        };
        let job = Job {
            id,
            from,
            to,
            class,
            deadline,
            submitted: Instant::now(),
            ticket: ticket.inner.clone(),
        };
        match class {
            RequestClass::Interactive => queue.interactive.push_back(job),
            RequestClass::Bulk => queue.bulk.push_back(job),
        }
        let depth = queue.len();
        drop(queue);
        for (job, reason) in victims {
            self.shared.shed_job(&job, reason, depth);
        }
        self.shared.available.notify_one();
        self.shared.observe("serve_queue_depth", depth as f64);
        self.shared.emit(ServeEvent::Submitted {
            request: id,
            queue_depth: depth as u64,
        });
        Ok(ticket)
    }

    /// Submits an interactive request and blocks for the answer.
    ///
    /// # Errors
    /// [`ServeError::Shed`] / [`ServeError::ShuttingDown`] at admission,
    /// a deadline shed while queued or mid-run, or the run's own
    /// [`ServeError::Algorithm`] failure.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<RouteAnswer, ServeError> {
        self.submit(from, to)?.wait()
    }

    /// Submits with an explicit class/deadline and blocks for the
    /// answer.
    ///
    /// # Errors
    /// As [`RouteService::route`].
    pub fn route_with(
        &self,
        from: NodeId,
        to: NodeId,
        class: RequestClass,
        deadline_ticks: Option<u64>,
    ) -> Result<RouteAnswer, ServeError> {
        self.submit_with(from, to, class, deadline_ticks)?.wait()
    }

    /// Applies a traffic update: installs a new epoch copy-on-write and
    /// sweeps the route cache (see `cache.rs` for the invalidation rule;
    /// invalidated entries retire into the stale tier). Queries already
    /// running keep their snapshots; queries admitted after this call
    /// see the new costs. A failed landmark rebuild counts against the
    /// landmark circuit breaker.
    ///
    /// # Errors
    /// Fails for unknown endpoints or invalid costs (no epoch change).
    pub fn update_edge_cost(
        &self,
        u: NodeId,
        v: NodeId,
        cost: f64,
    ) -> Result<EpochUpdate, AlgorithmError> {
        let ShardedUpdate {
            update,
            shards,
            epochs,
        } = self.shared.epoch_db.update_edge_cost(u, v, cost)?;
        match update.hierarchy {
            HierarchyRefresh::RebuildFailed => {
                self.shared.inc("serve_hierarchy_rebuild_failed_total");
                let t = self.shared.breakers.hierarchy.on_failure(self.shared.now());
                self.shared.emit_transition("hierarchy", t);
            }
            HierarchyRefresh::Customized => {
                self.shared.inc("serve_hierarchy_customized_total");
                let t = self.shared.breakers.hierarchy.on_success();
                self.shared.emit_transition("hierarchy", t);
            }
            HierarchyRefresh::Recontracted => {
                self.shared.inc("serve_hierarchy_recontracted_total");
                let t = self.shared.breakers.hierarchy.on_success();
                self.shared.emit_transition("hierarchy", t);
            }
            HierarchyRefresh::None => {}
        }
        match update.landmarks {
            LandmarkRefresh::RebuildFailed => {
                let t = self.shared.breakers.landmarks.on_failure(self.shared.now());
                self.shared.emit_transition("landmarks", t);
            }
            LandmarkRefresh::Rebuilt | LandmarkRefresh::Patched => {
                let t = self.shared.breakers.landmarks.on_success();
                self.shared.emit_transition("landmarks", t);
            }
            _ => {}
        }
        let (invalidated, promoted) = self.shared.cache.apply_shard_update(
            u,
            v,
            update.old_cost,
            update.new_cost,
            &shards,
            &epochs,
        );
        self.shared.inc("serve_epoch_installs_total");
        self.shared.emit(ServeEvent::EpochInstalled {
            epoch: update.epoch,
            updated_edges: update.updated as u64,
            invalidated,
            promoted,
        });
        self.shared.inc("serve_shard_installs_total");
        self.shared.emit(ServeEvent::ShardEpochInstalled {
            install: epochs.install(),
            shards_touched: shards.len() as u64,
            shards_total: self.shared.epoch_db.map().shard_count() as u64,
            invalidated,
            promoted,
        });
        Ok(update)
    }
}

impl Drop for RouteService {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.lock_queue();
            queue.closed = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        // Drain-only batching: take one job (waiting if necessary), then
        // fold in whatever is *already* queued up to `batch_max`. A
        // worker never waits for a batch to fill, so batching can only
        // remove queueing latency, never add it (fairness bound 1).
        let mut batch = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop() {
                    let mut batch = vec![job];
                    while batch.len() < shared.batch_max {
                        match queue.pop() {
                            Some(job) => batch.push(job),
                            None => break,
                        }
                    }
                    break batch;
                }
                if queue.closed {
                    return;
                }
                queue = sync::wait(&shared.available, queue);
            }
        };
        // One dequeue tick per admitted request, batched or not.
        let now = shared.advance(batch.len() as u64);

        // Deadlines that passed while the requests were queued: shed
        // them without spending a single block read.
        let mut live: Vec<(Job, Duration)> = Vec::with_capacity(batch.len());
        for job in batch.drain(..) {
            if job.deadline.expired(now) {
                shared.shed_job(&job, ShedReason::DeadlineExpired, 0);
            } else {
                let queue_wait = job.submitted.elapsed();
                shared.observe("serve_queue_wait_seconds", queue_wait.as_secs_f64());
                live.push((job, queue_wait));
            }
        }
        if live.is_empty() {
            continue;
        }

        // One pinned snapshot per batch: every member sees the same
        // database and the same (whole) epoch vector.
        let snapshot = shared.epoch_db.snapshot();
        for (job, _) in &live {
            shared.emit(ServeEvent::Started {
                request: job.id,
                worker: worker as u64,
                epoch: snapshot.install(),
            });
        }

        if live.len() == 1 {
            // The solo path — byte-for-byte the pre-batching life cycle.
            let Some((job, queue_wait)) = live.pop() else {
                continue;
            };
            let started = Instant::now();
            let (outcome, consumed) = execute(shared, &snapshot, &job, job.deadline, now);
            let service_time = started.elapsed();
            // The run ticks the virtual clock by what it consumed whether
            // it completed or died: a cost-budget abort burned its whole
            // allowance before the meter fired, and any other failed run
            // is charged a one-unit floor — so breaker open-windows and
            // queued deadlines keep progressing under fault storms
            // instead of freezing while every run fails.
            shared.advance(consumed);
            finish(shared, worker, job, queue_wait, service_time, outcome);
            continue;
        }

        // The batched path: identical (from, to) keys collapse into one
        // run (singleflight), and — when the primary algorithm is
        // Dijkstra — same-source groups share one multi-target frontier
        // sweep charged a single pass of block reads.
        let size = live.len() as u64;
        let mut groups: Vec<Group> = Vec::new();
        for (job, wait) in live {
            match groups
                .iter_mut()
                .find(|g| g.from == job.from && g.to == job.to)
            {
                Some(g) => g.members.push((job, wait)),
                None => groups.push(Group {
                    from: job.from,
                    to: job.to,
                    members: vec![(job, wait)],
                }),
            }
        }
        shared.observe("serve_batch_size", size as f64);
        shared.emit(ServeEvent::BatchExecuted {
            worker: worker as u64,
            size,
            groups: groups.len() as u64,
            epoch: snapshot.install(),
        });

        if shared.algorithm == Algorithm::Dijkstra {
            // Cluster the groups by source; each multi-group cluster
            // becomes one shared sweep.
            let mut clusters: Vec<Vec<Group>> = Vec::new();
            for group in groups {
                match clusters
                    .iter_mut()
                    .find(|c| c.first().is_some_and(|g| g.from == group.from))
                {
                    Some(c) => c.push(group),
                    None => clusters.push(vec![group]),
                }
            }
            for mut cluster in clusters {
                if cluster.len() == 1 {
                    if let Some(group) = cluster.pop() {
                        run_group(shared, worker, &snapshot, group, now);
                    }
                } else {
                    run_cluster(shared, worker, &snapshot, cluster, now);
                }
            }
        } else {
            for group in groups {
                run_group(shared, worker, &snapshot, group, now);
            }
        }
    }
}

/// One singleflight batch group: requests for the same `(from, to)` key
/// served by a single run.
struct Group {
    from: NodeId,
    to: NodeId,
    members: Vec<(Job, Duration)>,
}

impl Group {
    /// The latest member deadline — a shared run's budget covers every
    /// member's own allowance (fairness bound 2).
    fn deadline(&self) -> Deadline {
        self.members
            .iter()
            .map(|(job, _)| job.deadline)
            .max()
            .unwrap_or(Deadline { expires_at: 0 })
    }
}

/// Classifies one request's result, counts it, emits its life-cycle
/// events, and resolves its ticket. The caller has already advanced the
/// virtual clock for the work consumed.
fn finish(
    shared: &Shared,
    worker: usize,
    job: Job,
    queue_wait: Duration,
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
            shared.resolve_shed(&job, reason, retry_after, queue_depth);
        }
        other => {
            if other.is_err() {
                shared.inc("serve_failed_total");
            }
            job.ticket.resolve(other);
        }
    }
}

/// Resolves every member of a singleflight group with (a clone of) the
/// group's one result.
fn resolve_group(
    shared: &Shared,
    worker: usize,
    group: Group,
    result: Result<Exec, ServeError>,
    service_time: Duration,
) {
    for (job, wait) in group.members {
        finish(shared, worker, job, wait, service_time, result.clone());
    }
}

/// Runs one batch group through the full solo ladder (cache, breakers,
/// degrade rungs, stale tier) exactly once, under the group deadline,
/// and fans the result out to every member.
fn run_group(shared: &Shared, worker: usize, snapshot: &ShardSnapshot, group: Group, now: u64) {
    let deadline = group.deadline();
    let started = Instant::now();
    let (result, consumed) = match group.members.first() {
        Some((lead, _)) => execute(shared, snapshot, lead, deadline, now),
        None => return,
    };
    shared.advance(consumed);
    let service_time = started.elapsed();
    resolve_group(shared, worker, group, result, service_time);
}

/// Runs a same-source cluster of ≥ 2 Dijkstra groups as **one** shared
/// frontier sweep: per-group cache lookups first, then a single
/// `dijkstra_many` run whose charged I/O pass serves every remaining
/// frontier, under the maximum member allowance.
fn run_cluster(
    shared: &Shared,
    worker: usize,
    snapshot: &ShardSnapshot,
    cluster: Vec<Group>,
    now: u64,
) {
    let started = Instant::now();
    let Some(source) = cluster.first().map(|g| g.from) else {
        return;
    };
    let install = snapshot.install();

    // Cache first: a hit detaches its group from the sweep entirely.
    let mut misses: Vec<Group> = Vec::new();
    for group in cluster {
        if let Some(hit) = shared
            .cache
            .lookup_vec(group.from, group.to, &snapshot.epochs)
        {
            if let Some((lead, _)) = group.members.first() {
                shared.emit(ServeEvent::CacheHit {
                    request: lead.id,
                    epoch: install,
                });
            }
            shared.advance(ticks(hit.cost_units));
            let exec = Exec {
                path: Some(hit.path),
                outcome: RouteOutcome::CacheHit,
                epoch: install,
                iterations: hit.iterations,
                cost_units: hit.cost_units,
            };
            resolve_group(shared, worker, group, Ok(exec), started.elapsed());
        } else {
            misses.push(group);
        }
    }
    if misses.is_empty() {
        return;
    }

    // Unknown endpoints fail per request, exactly as solo runs do — one
    // bad destination must not poison the shared sweep.
    if !snapshot.db.graph().contains(source) {
        let service_time = started.elapsed();
        for group in misses {
            shared.advance(1);
            resolve_group(
                shared,
                worker,
                group,
                Err(ServeError::from(AlgorithmError::UnknownSource(source))),
                service_time,
            );
        }
        return;
    }
    let mut valid: Vec<Group> = Vec::new();
    for group in misses {
        if snapshot.db.graph().contains(group.to) {
            valid.push(group);
        } else {
            shared.advance(1);
            let err = Err(ServeError::from(AlgorithmError::UnknownDestination(
                group.to,
            )));
            resolve_group(shared, worker, group, err, started.elapsed());
        }
    }
    if valid.is_empty() {
        return;
    }

    // The shared budget is the *maximum* member allowance: if the sweep
    // aborts on it, every member's own (smaller or equal) solo budget
    // would have aborted too, so shedding the whole cluster is sound.
    let deadline = valid
        .iter()
        .map(Group::deadline)
        .max()
        .unwrap_or(Deadline { expires_at: 0 });
    let remaining = deadline.remaining(now);
    let allowance = (remaining as f64) * shared.deadline_spend_fraction;
    let budgets = snapshot
        .db
        .budgets()
        .min_with(Budgets::unlimited().with_max_cost_units(allowance.max(1.0)));
    let deadline_binding = budgets.max_cost_units == Some(allowance.max(1.0));

    let (storage_admission, t) = shared.breakers.storage.admit(now);
    shared.emit_transition("storage", t);
    if let Admission::Deny { retry_after } = storage_admission {
        for group in valid {
            let result = stale_or_shed(shared, snapshot, group.from, group.to, retry_after);
            if let Ok(exec) = &result {
                shared.advance(ticks(exec.cost_units));
            }
            resolve_group(shared, worker, group, result, started.elapsed());
        }
        return;
    }
    let mut storage_probe = ProbeGuard::new(&shared.breakers.storage, storage_admission);

    let targets: Vec<NodeId> = valid.iter().map(|g| g.to).collect();
    let mut consumed: u64 = 0;
    let mut result =
        snapshot
            .db
            .run_many_with_budgets(Algorithm::Dijkstra, source, &targets, budgets);
    if let Err(AlgorithmError::Storage(_)) = &result {
        let t = storage_probe.failure(now);
        shared.emit_transition("storage", t);
        if matches!(
            shared.breakers.storage.state(),
            BreakerState::Closed | BreakerState::HalfOpen
        ) {
            consumed += 1;
            result =
                snapshot
                    .db
                    .run_many_with_budgets(Algorithm::Dijkstra, source, &targets, budgets);
        }
    }
    match result {
        Ok(traces) => {
            let t = storage_probe.success();
            shared.emit_transition("storage", t);
            shared.inc("serve_batched_runs_total");
            // Every trace carries the same shared I/O: the sweep is
            // charged exactly once, which is the entire point.
            let cost_units = traces
                .first()
                .map_or(0.0, |trace| trace.cost_units(snapshot.db.params()));
            consumed += ticks(cost_units);
            shared.advance(consumed);
            let service_time = started.elapsed();
            for (group, trace) in valid.into_iter().zip(traces) {
                if let Some(path) = &trace.path {
                    cache_insert(
                        shared,
                        snapshot,
                        group.from,
                        group.to,
                        path.clone(),
                        trace.iterations,
                        cost_units,
                    );
                }
                let exec = Exec {
                    path: trace.path,
                    outcome: RouteOutcome::Computed,
                    epoch: install,
                    iterations: trace.iterations,
                    cost_units,
                };
                resolve_group(shared, worker, group, Ok(exec), service_time);
            }
        }
        Err(e) => {
            consumed += match &e {
                AlgorithmError::BudgetExceeded(BudgetKind::CostUnits) => {
                    budgets.max_cost_units.map_or(1, ticks).max(1)
                }
                _ => 1,
            };
            shared.advance(consumed);
            let service_time = started.elapsed();
            match e {
                AlgorithmError::BudgetExceeded(BudgetKind::CostUnits) if deadline_binding => {
                    for group in valid {
                        let shed = Err(ServeError::Shed {
                            reason: ShedReason::DeadlineExpired,
                            retry_after: shared.default_deadline_ticks,
                            queue_depth: 0,
                        });
                        resolve_group(shared, worker, group, shed, service_time);
                    }
                }
                e @ AlgorithmError::Storage(_) => {
                    let t = storage_probe.failure(now);
                    shared.emit_transition("storage", t);
                    if let AlgorithmError::Storage(fault) = &e {
                        shared.inc(storage_fault_metric(fault));
                    }
                    for group in valid {
                        let result = match stale_or_shed(
                            shared,
                            snapshot,
                            group.from,
                            group.to,
                            shared.retry_unit_ticks,
                        ) {
                            Ok(exec) => {
                                shared.advance(ticks(exec.cost_units));
                                Ok(exec)
                            }
                            Err(ServeError::Shed { .. }) => Err(ServeError::from(e.clone())),
                            Err(other) => Err(other),
                        };
                        resolve_group(shared, worker, group, result, service_time);
                    }
                }
                e => {
                    for group in valid {
                        resolve_group(
                            shared,
                            worker,
                            group,
                            Err(ServeError::from(e.clone())),
                            service_time,
                        );
                    }
                }
            }
        }
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

/// Answers one job against its pinned snapshot: cache, then the degrade
/// ladder (primary → v3 on landmark trouble → Dijkstra on storage
/// trouble → the stale tier), under the deadline-derived cost budget.
///
/// Also returns the cost-unit ticks the attempt consumed — exact for
/// completed runs and cost-budget aborts (which burned their whole
/// allowance before the meter fired), a one-unit floor for failures
/// whose partial spend is unknowable — so the worker can meter the
/// virtual clock for aborted work too, not just completed work.
fn execute(
    shared: &Shared,
    snapshot: &ShardSnapshot,
    job: &Job,
    deadline: Deadline,
    now: u64,
) -> (Result<Exec, ServeError>, u64) {
    let install = snapshot.install();
    if let Some(hit) = shared.cache.lookup_vec(job.from, job.to, &snapshot.epochs) {
        shared.emit(ServeEvent::CacheHit {
            request: job.id,
            epoch: install,
        });
        let consumed = ticks(hit.cost_units);
        return (
            Ok(Exec {
                path: Some(hit.path),
                outcome: RouteOutcome::CacheHit,
                epoch: install,
                iterations: hit.iterations,
                cost_units: hit.cost_units,
            }),
            consumed,
        );
    }

    // The deadline-derived budget: the run may spend at most
    // `deadline_spend_fraction` of the remaining ticks as cost units,
    // intersected with the database's own standing budgets. `deadline`
    // is the job's own for solo runs, the group maximum for batches.
    let remaining = deadline.remaining(now);
    let allowance = (remaining as f64) * shared.deadline_spend_fraction;
    let budgets = snapshot
        .db
        .budgets()
        .min_with(Budgets::unlimited().with_max_cost_units(allowance.max(1.0)));
    let deadline_binding = budgets.max_cost_units == Some(allowance.max(1.0));

    // Storage breaker open: skip every database rung, serve stale or
    // refuse with the breaker's countdown.
    let (storage_admission, t) = shared.breakers.storage.admit(now);
    shared.emit_transition("storage", t);
    if let Admission::Deny { retry_after } = storage_admission {
        let result = stale_or_shed(shared, snapshot, job.from, job.to, retry_after);
        let consumed = result.as_ref().map_or(0, |exec| ticks(exec.cost_units));
        return (result, consumed);
    }
    // From here this request may hold the storage breaker's half-open
    // probe slot. The guard resolves it exactly once: a verdict below
    // defuses it, and every other exit path (deadline shed, an error
    // that says nothing about storage) releases the slot on drop, so an
    // aborted probe can never wedge the breaker half-open.
    let mut storage_probe = ProbeGuard::new(&shared.breakers.storage, storage_admission);

    // Rung 0: the configured algorithm, unless a breaker denies its
    // preprocessed artifact — an open hierarchy breaker starts a v5
    // service one rung down (v4 when the snapshot carries landmark
    // tables, v3 otherwise), an open landmark breaker starts v4 at v3.
    // Admission (not a bare state read) drives the machine, so an open
    // breaker whose window has elapsed half-opens here and this request
    // runs the guarded rung as the probe that can re-close it.
    let needs_hierarchy = shared.algorithm == Algorithm::AStar(AStarVersion::V5);
    let (hierarchy_admission, t) = if needs_hierarchy {
        shared.breakers.hierarchy.admit(now)
    } else {
        (Admission::Allow, None)
    };
    shared.emit_transition("hierarchy", t);
    let mut hierarchy_probe = ProbeGuard::new(&shared.breakers.hierarchy, hierarchy_admission);
    let hierarchy_denied = matches!(hierarchy_admission, Admission::Deny { .. });
    // Where a v5 request lands when its overlay is unusable.
    let below_v5: (&'static str, Algorithm) = if snapshot.db.landmarks().is_some() {
        ("astar-v4", Algorithm::AStar(AStarVersion::V4))
    } else {
        ("astar-v3", Algorithm::AStar(AStarVersion::V3))
    };
    let needs_landmarks = shared.algorithm == Algorithm::AStar(AStarVersion::V4)
        || (hierarchy_denied && below_v5.1 == Algorithm::AStar(AStarVersion::V4));
    let (landmark_admission, t) = if needs_landmarks {
        shared.breakers.landmarks.admit(now)
    } else {
        (Admission::Allow, None)
    };
    shared.emit_transition("landmarks", t);
    let mut landmark_probe = ProbeGuard::new(&shared.breakers.landmarks, landmark_admission);
    let landmarks_denied = matches!(landmark_admission, Admission::Deny { .. });
    let (mut rung, mut result) = if landmarks_denied {
        (
            "astar-v3",
            snapshot.db.run_with_budgets(
                Algorithm::AStar(AStarVersion::V3),
                job.from,
                job.to,
                budgets,
            ),
        )
    } else if hierarchy_denied {
        (
            below_v5.0,
            snapshot
                .db
                .run_with_budgets(below_v5.1, job.from, job.to, budgets),
        )
    } else {
        (
            "primary",
            snapshot
                .db
                .run_with_budgets(shared.algorithm, job.from, job.to, budgets),
        )
    };

    // Ticks consumed by failed rungs whose traces were discarded before
    // a later rung replaced them (exact spend is unknowable without
    // threading IoStats through errors, so each is a one-unit floor).
    let mut consumed: u64 = 0;

    // Hierarchy trouble (a missing or stale overlay): count it against
    // the hierarchy breaker, announce the degrade, and fall to the
    // strongest flat rung — still exact answers, just more expansions.
    let hierarchy_failure = match &result {
        Err(e @ AlgorithmError::HierarchyUnavailable(_)) => Some(e.to_string()),
        _ => None,
    };
    if let Some(reason) = hierarchy_failure {
        let t = hierarchy_probe.failure(now);
        shared.emit_transition("hierarchy", t);
        shared.inc("serve_hierarchy_degraded_total");
        shared.emit(ServeEvent::AlgorithmDegraded {
            request: job.id,
            from: rung.to_string(),
            to: below_v5.0.to_string(),
            reason,
            at_tick: now,
        });
        consumed += 1;
        rung = below_v5.0;
        result = snapshot
            .db
            .run_with_budgets(below_v5.1, job.from, job.to, budgets);
    } else if needs_hierarchy && !hierarchy_denied && result.is_ok() {
        let t = hierarchy_probe.success();
        shared.emit_transition("hierarchy", t);
    }

    // Landmark trouble: count it against the landmark breaker and fall
    // to v3 (exact, estimator degraded to Manhattan-family bounds).
    if let Err(AlgorithmError::LandmarksUnavailable(_)) = &result {
        let t = landmark_probe.failure(now);
        shared.emit_transition("landmarks", t);
        consumed += 1;
        rung = "astar-v3";
        result = snapshot.db.run_with_budgets(
            Algorithm::AStar(AStarVersion::V3),
            job.from,
            job.to,
            budgets,
        );
    } else if needs_landmarks && !landmarks_denied && result.is_ok() {
        let t = landmark_probe.success();
        shared.emit_transition("landmarks", t);
    }

    // Storage trouble: count it, then retry once on Dijkstra (transient
    // fault counters advance, and the plain algorithm reads fewer
    // blocks than an estimator-guided one under partial information).
    if let Err(AlgorithmError::Storage(_)) = &result {
        let t = storage_probe.failure(now);
        shared.emit_transition("storage", t);
        if matches!(
            shared.breakers.storage.state(),
            BreakerState::Closed | BreakerState::HalfOpen
        ) {
            consumed += 1;
            rung = "dijkstra";
            result = snapshot
                .db
                .run_with_budgets(Algorithm::Dijkstra, job.from, job.to, budgets);
        }
    }

    match result {
        Ok(trace) => {
            let t = storage_probe.success();
            shared.emit_transition("storage", t);
            let cost_units = trace.cost_units(snapshot.db.params());
            consumed += ticks(cost_units);
            if let Some(path) = &trace.path {
                cache_insert(
                    shared,
                    snapshot,
                    job.from,
                    job.to,
                    path.clone(),
                    trace.iterations,
                    cost_units,
                );
            }
            let outcome = if rung == "primary" {
                RouteOutcome::Computed
            } else {
                RouteOutcome::Degraded { rung }
            };
            (
                Ok(Exec {
                    path: trace.path,
                    outcome,
                    epoch: install,
                    iterations: trace.iterations,
                    cost_units,
                }),
                consumed,
            )
        }
        Err(e) => {
            // A cost-budget abort read blocks until it crossed its
            // allowance, so it is charged in full; any other failure's
            // partial spend is the floor.
            consumed += match &e {
                AlgorithmError::BudgetExceeded(BudgetKind::CostUnits) => {
                    budgets.max_cost_units.map_or(1, ticks).max(1)
                }
                _ => 1,
            };
            match e {
                AlgorithmError::BudgetExceeded(BudgetKind::CostUnits) if deadline_binding => {
                    // The deadline, not the database's own budget,
                    // stopped the run: this is a shed, not an algorithm
                    // failure — and no verdict on storage health, so a
                    // held probe slot is released by the guard.
                    (
                        Err(ServeError::Shed {
                            reason: ShedReason::DeadlineExpired,
                            retry_after: shared.default_deadline_ticks,
                            queue_depth: 0,
                        }),
                        consumed,
                    )
                }
                e @ AlgorithmError::Storage(_) => {
                    let t = storage_probe.failure(now);
                    shared.emit_transition("storage", t);
                    if let AlgorithmError::Storage(fault) = &e {
                        shared.inc(storage_fault_metric(fault));
                    }
                    let result = match stale_or_shed(
                        shared,
                        snapshot,
                        job.from,
                        job.to,
                        shared.retry_unit_ticks,
                    ) {
                        Ok(exec) => Ok(exec),
                        Err(ServeError::Shed { .. }) => Err(ServeError::from(e)),
                        Err(other) => Err(other),
                    };
                    if let Ok(exec) = &result {
                        consumed += ticks(exec.cost_units);
                    }
                    (result, consumed)
                }
                e @ (AlgorithmError::Graph(_)
                | AlgorithmError::UnknownSource(_)
                | AlgorithmError::UnknownDestination(_)) => {
                    // Deterministic failures — a corrupt graph or
                    // endpoints absent from it. No degrade rung can
                    // answer these, so they are counted and surfaced
                    // immediately rather than retried or served stale.
                    shared.inc("serve_deterministic_error_total");
                    (Err(ServeError::from(e)), consumed)
                }
                e => (Err(ServeError::from(e)), consumed),
            }
        }
    }
}

/// Metric name classifying a storage fault observed on the serving
/// path. Every `StorageError` variant is named so that when the storage
/// crate grows a failure mode, the degrade ladder is forced to decide
/// how serving should count it; the `_` arm exists only because the
/// enum is `#[non_exhaustive]`.
fn storage_fault_metric(fault: &StorageError) -> &'static str {
    match fault {
        StorageError::IoFailed { .. } => "serve_storage_fault_io_total",
        StorageError::CorruptBlock { .. } => "serve_storage_fault_corrupt_total",
        StorageError::KeyNotFound(_) => "serve_storage_fault_key_total",
        StorageError::SlotOutOfRange { .. } => "serve_storage_fault_slot_total",
        StorageError::InvalidValue(_) => "serve_storage_fault_value_total",
        StorageError::CapacityExceeded { .. } => "serve_storage_fault_capacity_total",
        _ => "serve_storage_fault_other_total",
    }
}

/// Inserts a computed route, stamped with the version (from the pinned
/// vector) of every shard the path crosses.
fn cache_insert(
    shared: &Shared,
    snapshot: &ShardSnapshot,
    from: NodeId,
    to: NodeId,
    path: Path,
    iterations: u64,
    cost_units: f64,
) {
    let stamps: Vec<(u32, u64)> = shared
        .epoch_db
        .map()
        .path_shards(&path.nodes)
        .into_iter()
        .map(|shard| (shard, snapshot.epochs.version(shard)))
        .collect();
    let route = CachedRoute {
        path,
        epoch: snapshot.install(),
        iterations,
        cost_units,
    };
    shared.cache.insert_stamped(from, to, route, stamps);
}

/// The ladder's last rung: a stale-tier answer tagged with its age, or a
/// typed breaker-open shed when even that is empty.
fn stale_or_shed(
    shared: &Shared,
    snapshot: &ShardSnapshot,
    from: NodeId,
    to: NodeId,
    retry_after: u64,
) -> Result<Exec, ServeError> {
    if let Some((route, age)) =
        shared
            .cache
            .lookup_stale(from, to, snapshot.install(), shared.stale_max_age)
    {
        return Ok(Exec {
            path: Some(route.path),
            outcome: RouteOutcome::Stale { age },
            epoch: route.epoch,
            iterations: route.iterations,
            cost_units: route.cost_units,
        });
    }
    Err(ServeError::Shed {
        reason: ShedReason::BreakerOpen,
        retry_after: retry_after.max(1),
        queue_depth: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_graph::{CostModel, Grid, QueryKind};
    use atis_obs::{MetricsRegistry, RingSink};

    fn grid_service(config: ServeConfig) -> (RouteService, Grid) {
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        (RouteService::new(db, config), grid)
    }

    #[test]
    fn answers_match_a_direct_run() {
        let (service, grid) = grid_service(ServeConfig::default().with_workers(2));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.epoch, 0);
        assert!(!answer.cached);
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        assert_eq!(answer.class, RequestClass::Interactive);

        let oracle = Database::open(grid.graph()).unwrap();
        let expected = oracle.run(service.algorithm(), s, d).unwrap();
        assert_eq!(answer.path, expected.path);
        assert_eq!(answer.iterations, expected.iterations);
    }

    #[test]
    fn second_identical_request_is_served_from_cache_bit_identically() {
        let (service, grid) = grid_service(ServeConfig::default().with_workers(1));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let fresh = service.route(s, d).unwrap();
        let cached = service.route(s, d).unwrap();
        assert!(!fresh.cached && cached.cached);
        assert_eq!(cached.outcome, RouteOutcome::CacheHit);
        assert_eq!(fresh.path, cached.path);
        assert_eq!(fresh.iterations, cached.iterations);
        assert_eq!(fresh.cost_units.to_bits(), cached.cost_units.to_bits());
        let stats = service.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn updates_bump_the_epoch_and_change_answers() {
        let (service, grid) = grid_service(ServeConfig::default().with_workers(2));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let before = service.route(s, d).unwrap();
        let path = before.path.clone().unwrap();
        let (u, v) = path.hops().next().unwrap();
        let update = service.update_edge_cost(u, v, 500.0).unwrap();
        assert_eq!(update.epoch, 1);
        let after = service.route(s, d).unwrap();
        assert_eq!(after.epoch, 1);
        assert!(!after.cached, "the jammed entry must have been invalidated");
        assert_ne!(before.path, after.path);
    }

    #[test]
    fn full_queue_sheds_with_a_typed_reason() {
        // One worker, capacity 1: park the worker on a long request by
        // flooding; at least one submission must be shed.
        let (service, grid) = grid_service(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let mut tickets = Vec::new();
        let mut shed = 0;
        for _ in 0..50 {
            match service.submit(s, d) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Shed {
                    reason,
                    retry_after,
                    queue_depth,
                }) => {
                    assert_eq!(reason, ShedReason::QueueFull);
                    assert_eq!(queue_depth, 1);
                    assert!(retry_after >= 1);
                    shed += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            shed > 0,
            "a capacity-1 queue must shed under a 50-request burst"
        );
        for t in tickets {
            assert!(t.wait().unwrap().path.is_some());
        }
    }

    #[test]
    fn interactive_requests_displace_queued_bulk_work() {
        let (service, grid) = grid_service(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(2)
                .with_cache_capacity(0),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        // Fill the queue with bulk work (plus whatever the worker takes).
        let bulk: Vec<Ticket> = (0..12)
            .filter_map(|_| service.submit_with(s, d, RequestClass::Bulk, None).ok())
            .collect();
        // Interactive submissions displace queued bulk jobs until the
        // queue holds no more bulk to displace.
        let mut displaced_observed = 0;
        let mut interactive = Vec::new();
        for _ in 0..12 {
            if let Ok(t) = service.submit(s, d) {
                interactive.push(t);
            }
        }
        for t in bulk {
            match t.wait() {
                Ok(answer) => assert!(answer.path.is_some()),
                Err(ServeError::Shed { reason, .. }) => {
                    assert!(
                        reason == ShedReason::Displaced || reason == ShedReason::DeadlineExpired,
                        "bulk sheds must be displacement/deadline, got {reason:?}"
                    );
                    displaced_observed += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            displaced_observed > 0,
            "interactive pressure must displace queued bulk work"
        );
        for t in interactive {
            assert!(t.wait().is_ok(), "admitted interactive work completes");
        }
    }

    #[test]
    fn expired_deadlines_shed_at_dequeue_without_running() {
        let (service, grid) = grid_service(
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(64)
                .with_cache_capacity(0),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        // Burst enough work that the virtual clock (advanced by each
        // completed run's cost units) passes the tiny deadline of the
        // later requests while they queue.
        let tickets: Vec<Ticket> = (0..24)
            .filter_map(|_| {
                service
                    .submit_with(s, d, RequestClass::Interactive, Some(2))
                    .ok()
            })
            .collect();
        let mut expired = 0;
        for t in tickets {
            match t.wait() {
                Ok(answer) => assert!(answer.path.is_some()),
                Err(ServeError::Shed { reason, .. }) => {
                    assert_eq!(reason, ShedReason::DeadlineExpired);
                    expired += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            expired > 0,
            "2-tick deadlines must expire while queued behind real runs"
        );
    }

    #[test]
    fn drop_drains_admitted_requests() {
        let (service, grid) = grid_service(ServeConfig::default().with_workers(1));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let tickets: Vec<Ticket> = (0..8).map(|_| service.submit(s, d).unwrap()).collect();
        drop(service);
        for t in tickets {
            assert!(
                t.wait().unwrap().path.is_some(),
                "admitted requests must be answered"
            );
        }
    }

    #[test]
    fn unknown_endpoints_fail_per_request_not_per_service() {
        let (service, grid) = grid_service(ServeConfig::default().with_workers(2));
        let err = service.route(NodeId(9999), NodeId(0)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Algorithm(AlgorithmError::UnknownSource(_))
        ));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        assert!(
            service.route(s, d).is_ok(),
            "the pool must survive failed requests"
        );
    }

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
    fn metrics_and_spans_cover_the_request_life_cycle() {
        let registry = MetricsRegistry::shared();
        let ring = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let service = RouteService::with_observability(
            db,
            ServeConfig::default().with_workers(1),
            Some(registry.clone()),
            Some(ring.clone() as SharedSink),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        service.route(s, d).unwrap();
        service.route(s, d).unwrap();
        let path = service.route(s, d).unwrap().path.unwrap();
        let (u, v) = path.hops().next().unwrap();
        service.update_edge_cost(u, v, 400.0).unwrap();

        assert_eq!(registry.counter("serve_requests_total"), 3);
        assert_eq!(registry.counter("serve_worker_0_requests_total"), 3);
        assert_eq!(registry.counter("serve_epoch_installs_total"), 1);
        assert_eq!(registry.counter("cache_hits_total"), 2);
        assert_eq!(registry.counter("cache_misses_total"), 1);
        assert!(registry.counter("cache_invalidations_total") >= 1);
        assert!(
            registry
                .histogram("serve_queue_wait_seconds")
                .unwrap()
                .count
                >= 3
        );
        assert!(registry.histogram("serve_service_seconds").unwrap().count >= 3);

        let events = ring.events();
        let json: Vec<String> = events.iter().map(|e| e.to_json()).collect();
        for kind in [
            "serve_submitted",
            "serve_started",
            "serve_cache_hit",
            "serve_completed",
            "serve_epoch_installed",
        ] {
            assert!(
                json.iter()
                    .any(|j| j.contains(&format!(r#""type":"{kind}""#))),
                "missing {kind} span in {json:#?}"
            );
        }
    }

    #[test]
    fn shed_events_and_counters_fire_on_queue_full() {
        let registry = MetricsRegistry::shared();
        let ring = RingSink::shared(256);
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0),
            Some(registry.clone()),
            Some(ring.clone() as SharedSink),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let mut tickets = Vec::new();
        let mut shed = 0;
        for _ in 0..40 {
            match service.submit(s, d) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Shed { .. }) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        if shed > 0 {
            assert!(registry.counter("serve_shed_total") >= shed);
            let json: Vec<String> = ring.events().iter().map(|e| e.to_json()).collect();
            assert!(
                json.iter().any(|j| j.contains(r#""type":"serve_shed""#)),
                "shed spans must be emitted"
            );
        }
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
    fn a_tripped_landmark_breaker_recovers_through_query_probing() {
        use atis_preprocess::{LandmarkTables, PreprocessConfig};
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let db = Database::open(grid.graph()).unwrap().with_landmarks(tables);
        let service = RouteService::new(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V4))
                .with_breaker(BreakerConfig {
                    failure_threshold: 1,
                    open_ticks: 8,
                    probes: 1,
                }),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);

        // Trip the landmark breaker, exactly as a failed rebuild would.
        let tripped = service
            .shared
            .breakers
            .landmarks
            .on_failure(service.now_ticks());
        assert!(tripped.is_some(), "threshold 1 must trip on one failure");

        // While open, the ladder starts at v3.
        let degraded = service.route(s, d).unwrap();
        assert_eq!(
            degraded.outcome,
            RouteOutcome::Degraded { rung: "astar-v3" }
        );

        // Each served query advances the virtual clock; once the open
        // window elapses, admission half-opens the breaker, a request
        // probes v4, and its success re-closes the machine — the
        // breaker must not stay open forever after landmarks recover.
        let mut recovered = false;
        for _ in 0..64 {
            if service.route(s, d).unwrap().outcome == RouteOutcome::Computed {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "an elapsed open window must let v4 probe back");
        assert_eq!(
            service.breaker_state("landmarks"),
            Some(BreakerState::Closed)
        );
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
    }

    #[test]
    fn a_tripped_hierarchy_breaker_recovers_through_query_probing() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let db = Database::open(grid.graph())
            .unwrap()
            .with_hierarchy(overlay);
        let service = RouteService::new(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V5))
                .with_breaker(BreakerConfig {
                    failure_threshold: 1,
                    open_ticks: 8,
                    probes: 1,
                }),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);

        // Trip the hierarchy breaker, exactly as a failed re-contraction
        // would.
        let tripped = service
            .shared
            .breakers
            .hierarchy
            .on_failure(service.now_ticks());
        assert!(tripped.is_some(), "threshold 1 must trip on one failure");

        // While open, the ladder starts below v5 (no landmark tables
        // here, so at v3).
        let degraded = service.route(s, d).unwrap();
        assert_eq!(
            degraded.outcome,
            RouteOutcome::Degraded { rung: "astar-v3" }
        );

        // Once the open window elapses, admission half-opens the
        // breaker, a request probes v5, and its success re-closes it.
        let mut recovered = false;
        for _ in 0..64 {
            if service.route(s, d).unwrap().outcome == RouteOutcome::Computed {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "an elapsed open window must let v5 probe back");
        assert_eq!(
            service.breaker_state("hierarchy"),
            Some(BreakerState::Closed)
        );
    }

    #[test]
    fn updates_maintain_the_hierarchy_and_count_refreshes() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let registry = MetricsRegistry::shared();
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let db = Database::open(grid.graph())
            .unwrap()
            .with_hierarchy(overlay);
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V5)),
            Some(registry.clone()),
            None,
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));

        // Congestion: customize. The very next request runs v5 at full
        // fidelity against the re-priced overlay.
        let up = service.update_edge_cost(a, b, 9.0).unwrap();
        assert_eq!(up.hierarchy, HierarchyRefresh::Customized);
        assert_eq!(registry.counter("serve_hierarchy_customized_total"), 1);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        let snap = service.shard_snapshot();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-9);

        // The jam clears: re-contract.
        let down = service.update_edge_cost(a, b, 1.0).unwrap();
        assert_eq!(down.hierarchy, HierarchyRefresh::Recontracted);
        assert_eq!(registry.counter("serve_hierarchy_recontracted_total"), 1);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        assert_eq!(registry.counter("serve_hierarchy_degraded_total"), 0);
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

    /// A grid big enough for the partition map to yield several regions
    /// (and so several shards) — the 6×6 test grid collapses to one.
    fn sharded_service(config: ServeConfig) -> (RouteService, Grid) {
        let grid = Grid::new(32, CostModel::TWENTY_PERCENT, 7).unwrap();
        let db = Database::open(grid.graph()).unwrap();
        (RouteService::new(db, config), grid)
    }

    #[test]
    fn sharded_answers_match_the_one_shard_service_across_updates() {
        let grid = Grid::new(32, CostModel::TWENTY_PERCENT, 7).unwrap();
        let single = RouteService::new(
            Database::open(grid.graph()).unwrap(),
            ServeConfig::default().with_workers(1),
        );
        let sharded = RouteService::new(
            Database::open(grid.graph()).unwrap(),
            ServeConfig::default().with_workers(1).with_shards(8),
        );
        assert!(sharded.shards() > 1, "the 32-grid must split into shards");
        let pairs = [
            (grid.node_at(0, 0), grid.node_at(31, 31)),
            (grid.node_at(0, 31), grid.node_at(31, 0)),
            (grid.node_at(4, 4), grid.node_at(27, 29)),
        ];
        for (u, v, cost) in [
            (grid.node_at(10, 10), grid.node_at(10, 11), 9.0),
            (grid.node_at(30, 30), grid.node_at(30, 31), 11.0),
        ] {
            single.update_edge_cost(u, v, cost).unwrap();
            sharded.update_edge_cost(u, v, cost).unwrap();
            for &(s, d) in &pairs {
                let a = single.route(s, d).unwrap();
                let b = sharded.route(s, d).unwrap();
                assert_eq!(
                    a.path.as_ref().map(|p| &p.nodes),
                    b.path.as_ref().map(|p| &p.nodes),
                    "answers must be bit-identical whatever the shard count"
                );
                assert_eq!(a.path.map(|p| p.cost), b.path.map(|p| p.cost));
                assert_eq!(
                    a.epoch, b.epoch,
                    "installs are counted globally whatever the shard count"
                );
            }
        }
    }

    #[test]
    fn a_far_update_keeps_a_route_cached_unless_a_decrease_undercuts_it() {
        // The route hugs one corner, the updated edge the opposite one.
        // One shard or eight, the rule sees `old_cost`: a jam — even a
        // cheap one, below the cached total — cannot have made any route
        // better, so the entry stays hot; a decrease below the cached
        // total could have, so it drops.
        let (single, grid) = sharded_service(ServeConfig::default().with_workers(1));
        let (sharded, _) = sharded_service(ServeConfig::default().with_workers(1).with_shards(8));
        assert!(single.shards() == 1 && sharded.shards() > 1);
        let (s, d) = (grid.node_at(0, 0), grid.node_at(0, 3));
        let (ju, jv) = (grid.node_at(31, 30), grid.node_at(31, 31));
        for service in [&single, &sharded] {
            let shards = service.shards();
            let fresh = service.route(s, d).unwrap();
            assert_eq!(fresh.outcome, RouteOutcome::Computed);
            let total = fresh.path.unwrap().cost;
            assert!(total > 2.5);
            service.update_edge_cost(ju, jv, 2.5).unwrap();
            assert_eq!(
                service.route(s, d).unwrap().outcome,
                RouteOutcome::CacheHit,
                "{shards} shard(s): a far increase must not evict the route"
            );
            service.update_edge_cost(ju, jv, 0.01).unwrap();
            assert_eq!(
                service.route(s, d).unwrap().outcome,
                RouteOutcome::Computed,
                "{shards} shard(s): an undercutting decrease must evict it"
            );
        }
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
    fn a_batched_worker_folds_queued_requests_into_one_shared_sweep() {
        use atis_storage::FaultPlan;
        let registry = MetricsRegistry::shared();
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
            Some(registry.clone()),
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
        for (answer, &d) in answers.iter().zip(&targets) {
            let solo = oracle.run(Algorithm::Dijkstra, s, d).unwrap();
            assert_eq!(
                answer.path.as_ref().unwrap().nodes,
                solo.path.as_ref().unwrap().nodes,
                "batched answers must be bit-identical to solo runs"
            );
            assert_eq!(answer.iterations, solo.iterations);
            assert_eq!(answer.outcome, RouteOutcome::Computed);
        }
        // All four answers came from one charged sweep: every member
        // reports the same shared cost, and exactly one batch ran.
        assert!(answers
            .iter()
            .all(|a| a.cost_units == answers[0].cost_units));
        assert_eq!(registry.counter("serve_batched_runs_total"), 1);
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
        // An estimator-guided primary cannot share frontiers, but
        // identical (from, to) keys still collapse into one run.
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
        // No shared sweep ran (not Dijkstra), every request was counted,
        // and the singleflight saved two runs' worth of cache misses.
        assert_eq!(registry.counter("serve_batched_runs_total"), 0);
        assert_eq!(registry.counter("serve_requests_total"), 4);
    }
}

//! The concurrent route service: two-class admission control with
//! load-shedding, deadline propagation over a virtual clock, a fixed
//! worker pool, epoch snapshots, a storage circuit breaker with
//! stale-serve degradation, and the route cache.
//!
//! ## Request life cycle
//!
//! ```text
//! submit() ──admission──▶ class queues ──▶ worker i
//!    │ shed? SHED            (interactive     │ deadline check (virtual ticks)
//!    ▼       (typed reason)   before bulk)    │ pin snapshot (epoch vector e)
//! Ticket::wait() ◀── answer ◀────────────────┤ cache lookup (from,to) @ e
//!                                            │ hit: serve cached
//!                                            └ miss: storage breaker open?
//!                                               no: degrade ladder from
//!                                               the primary
//!                                               (atis_algorithms::ladder)
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
//! admitted load, never with wall time. An admitted request whose
//! deadline passes while queued is shed at dequeue without running; one
//! that is still running when its deadline-derived cost budget (80% of
//! the remaining ticks by default) runs out is aborted mid-expansion by
//! the planner's budget meter — it stops consuming block reads instead
//! of completing uselessly.
//!
//! **One circuit breaker** guards the storage engine (see `breaker.rs`):
//! an open breaker sends a request straight to the stale tier, and one
//! that trips mid-walk stops the storage fall — this layer's admission
//! argument to the one ladder walker (`atis_algorithms::ladder::walk`).
//! SERVING.md "The storage breaker and the degrade ladder" is the full
//! account.
//!
//! Updates bypass the queue: [`RouteService::update_edge_cost`] installs
//! a new epoch copy-on-write (running queries keep their snapshots) and
//! logs it with the route cache, whose lookups replay it under the
//! invalidation rule, retiring invalidated entries into the stale tier.
//!
//! ## Sharded epochs and single-flight batches
//!
//! The epoch state is versioned per region-group shard (see `shard.rs`;
//! [`ServeConfig::with_shards`] sets how many, and one shard is the
//! same code at a different data point): a cost increase bumps only the
//! shards its edge touches (a decrease bumps them all), queries pin one
//! consistent epoch *vector*, and the cache validates entries against
//! the shard versions they were stamped with — so a jam in one shard
//! does not evict routes that never cross it. With
//! [`ServeConfig::with_batch_max`] a worker drains up to `batch_max`
//! queued requests in one dequeue, pins one snapshot for all of them,
//! and serves identical `(from, to)` keys from a single run
//! (single-flight); each distinct key runs once, on its own. Fairness
//! bounds: a batch is drain-only (bound 1: no request ever waits for a
//! batch to fill), and a single-flight run's cost budget is the
//! *maximum* member allowance (bound 2: no member is aborted earlier
//! than its solo run would have been).

use crate::breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
use crate::cache::RouteCache;
use crate::epoch::{EpochUpdate, Refresh};
use crate::error::{ServeError, ShedReason};
use crate::shard::{ShardMap, ShardSnapshot, ShardedEpochDb, ShardedUpdate};
use crate::sync::{self, Arc, Condvar, Level, LockBefore, Locked, Mutex, Queue, Slot, Unlocked};
use atis_algorithms::ladder::{self, Rung};
use atis_algorithms::{AStarVersion, Algorithm, AlgorithmError, Database};
use atis_graph::{NodeId, Path};
use atis_obs::{ServeEvent, SharedRegistry, SharedSink, TraceEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[path = "execute.rs"]
mod execute;
use execute::{execute, Group, Worker};

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
pub enum RouteOutcome {
    /// A fresh run of the configured algorithm at the current epoch.
    Computed,
    /// Served from the route cache, bit-identical to a fresh run.
    CacheHit,
    /// A rung below the configured algorithm answered — still exact,
    /// still at the current epoch (the ladder is SERVING.md "The storage
    /// breaker and the degrade ladder").
    Degraded {
        /// Name of the answering rung in `atis_algorithms::ladder::TABLE`.
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
    /// Tuning of the storage circuit breaker.
    pub breaker: BreakerConfig,
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
            breaker: BreakerConfig::default(),
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

    /// Overrides the circuit-breaker tuning.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
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
    /// Designated acquirer for the answer slot (rank 5, `sync::Slot`).
    fn lock_slot<'a, L: LockBefore<Slot>>(
        &'a self,
        level: &'a mut Level<L>,
    ) -> Locked<'a, Option<Result<RouteAnswer, ServeError>>, Slot> {
        sync::lock(level, &self.slot)
    }

    /// Fills the slot and wakes the waiter.
    fn resolve(&self, level: &mut Level<Unlocked>, answer: Result<RouteAnswer, ServeError>) {
        *self.lock_slot(level).0 = Some(answer);
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
        self.wait_at(&mut Level::root())
    }

    fn wait_at(self, level: &mut Level<Unlocked>) -> Result<RouteAnswer, ServeError> {
        let (mut slot, _) = self.inner.lock_slot(level);
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

/// The service's circuit breakers — the storage engine's is the only one.
struct Breakers {
    storage: CircuitBreaker,
}

struct Shared {
    epoch_db: ShardedEpochDb,
    cache: RouteCache,
    queue: Mutex<QueueState>,
    available: Condvar,
    queue_capacity: usize,
    algorithm: Algorithm,
    /// The degrade ladder `algorithm` walks, resolved once at build.
    rungs: Vec<Rung>,
    batch_max: usize,
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

/// The deadline, in virtual ticks, of a request that brings none — and
/// the `retry_after` hint of a deadline shed.
const DEFAULT_DEADLINE_TICKS: u64 = 100_000;

/// `retry_after = queue_depth × RETRY_UNIT_TICKS` on queue-full sheds.
const RETRY_UNIT_TICKS: u64 = 16;

impl Shared {
    /// Designated acquirer for the admission queue (rank 1, `sync::Queue`).
    fn lock_queue<'a, L: LockBefore<Queue>>(
        &'a self,
        level: &'a mut Level<L>,
    ) -> Locked<'a, QueueState, Queue> {
        sync::lock(level, &self.queue)
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    fn advance(&self, ticks: u64) -> u64 {
        self.clock.fetch_add(ticks, Ordering::Relaxed) + ticks
    }

    /// Records the event `event` builds, building it (and its strings)
    /// only when a sink is attached.
    fn emit(&self, event: impl FnOnce() -> ServeEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&TraceEvent::Serve(event()));
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

    /// Mirrors a storage-breaker transition into metrics and the trace.
    fn emit_transition(&self, transition: Option<BreakerTransition>) {
        let Some(t) = transition else { return };
        if matches!(t.to, BreakerState::Open { .. }) {
            self.inc("serve_breaker_open_total");
        }
        if matches!(t.to, BreakerState::Closed) {
            self.inc("serve_breaker_close_total");
        }
        self.emit(|| ServeEvent::BreakerTransition {
            resource: "storage".to_string(),
            from: t.from.label().to_string(),
            to: t.to.label().to_string(),
            at_tick: self.now(),
        });
    }

    /// Sheds `job` with a typed reason: resolves its ticket, counts it,
    /// and emits the trace span.
    fn shed_job(&self, level: &mut Level<Unlocked>, job: &Job, reason: ShedReason, depth: usize) {
        let retry_after = match reason {
            ShedReason::DeadlineExpired => DEFAULT_DEADLINE_TICKS,
            ShedReason::QueueFull | ShedReason::Displaced | ShedReason::BreakerOpen => {
                (depth as u64).max(1) * RETRY_UNIT_TICKS
            }
        };
        self.resolve_shed(level, job, reason, retry_after, depth);
    }

    /// Sheds `job` with a back-off hint that is already known — a
    /// breaker's actual countdown, a deadline renewal — instead of the
    /// queue-depth formula.
    fn resolve_shed(
        &self,
        level: &mut Level<Unlocked>,
        job: &Job,
        reason: ShedReason,
        retry_after: u64,
        queue_depth: usize,
    ) {
        self.inc("serve_shed_total");
        if reason == ShedReason::DeadlineExpired {
            self.inc("serve_deadline_expired_total");
        }
        self.emit(|| ServeEvent::Shed {
            request: job.id,
            reason: reason.label().to_string(),
            retry_after,
            queue_depth: queue_depth as u64,
        });
        job.ticket.resolve(
            level,
            Err(ServeError::Shed {
                reason,
                retry_after,
                queue_depth,
            }),
        );
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
            rungs: ladder::sequence(config.algorithm),
            batch_max: config.batch_max.max(1),
            breakers: Breakers {
                storage: CircuitBreaker::new(config.breaker),
            },
            clock: AtomicU64::new(0),
            next_request: AtomicU64::new(0),
            metrics,
            sink,
        });
        // Startup-only: no request is admitted before the pool exists, so
        // a spawn failure aborts construction here, never a client request.
        #[expect(
            clippy::expect_used,
            reason = "startup-time spawn failure is fatal by design"
        )]
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                sync::thread::Builder::new()
                    .name(format!("atis-serve-{i}"))
                    .spawn(move || worker_loop(&shared, i))
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
        let level = &mut Level::root();
        self.shared.epoch_db.snapshot_at(level).install()
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
        self.shared.epoch_db.snapshot_at(&mut Level::root())
    }

    /// The route cache (counters, capacity).
    pub fn cache(&self) -> &RouteCache {
        &self.shared.cache
    }

    /// The state of a named circuit breaker — `"storage"` is the one;
    /// `None` for any other name.
    pub fn breaker_state(&self, resource: &str) -> Option<BreakerState> {
        match resource {
            "storage" => Some(self.shared.breakers.storage.state_at(&mut Level::root())),
            _ => None,
        }
    }

    /// Submits an interactive request with the default deadline.
    ///
    /// # Errors
    /// [`ServeError::Shed`] when admission sheds the request;
    /// [`ServeError::ShuttingDown`] after the service started closing.
    pub fn submit(&self, from: NodeId, to: NodeId) -> Result<Ticket, ServeError> {
        let level = &mut Level::root();
        self.submit_at(level, from, to, RequestClass::Interactive, None)
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
        self.submit_at(&mut Level::root(), from, to, class, deadline_ticks)
    }

    fn submit_at(
        &self,
        level: &mut Level<Unlocked>,
        from: NodeId,
        to: NodeId,
        class: RequestClass,
        deadline_ticks: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        let id = self.shared.next_request.fetch_add(1, Ordering::Relaxed);
        let now = self.shared.now();
        let deadline = Deadline {
            expires_at: now + deadline_ticks.unwrap_or(DEFAULT_DEADLINE_TICKS).max(1),
        };
        let mut victims: Vec<(Job, ShedReason)> = Vec::new();
        let (mut queue, _) = self.shared.lock_queue(level);
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
                self.shared.shed_job(level, &job, reason, depth);
            }
            let retry_after = (depth as u64).max(1) * RETRY_UNIT_TICKS;
            self.shared.inc("serve_shed_total");
            self.shared.emit(|| ServeEvent::Shed {
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
            self.shared.shed_job(level, &job, reason, depth);
        }
        self.shared.available.notify_one();
        self.shared.observe("serve_queue_depth", depth as f64);
        self.shared.emit(|| ServeEvent::Submitted {
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
        let level = &mut Level::root();
        self.submit_at(level, from, to, RequestClass::Interactive, None)?
            .wait_at(level)
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
        let level = &mut Level::root();
        self.submit_at(level, from, to, class, deadline_ticks)?
            .wait_at(level)
    }

    /// Applies a traffic update: installs a new epoch copy-on-write and
    /// logs it with the route cache, reading no cached entry (lookups
    /// replay it: see `cache.rs` for the invalidation rule; invalidated
    /// entries retire into the stale tier). Queries already
    /// running keep their snapshots; queries admitted after this call
    /// see the new costs. The hierarchy is re-priced where the edge can
    /// reach (or rebuilt, when it was not current) and the arcs examined
    /// are recorded
    /// (`serve_hierarchy_arcs_examined`); a failed landmark rebuild is
    /// counted (`serve_landmark_rebuild_failed_total`) and leaves v4
    /// failing typed until a later rebuild succeeds. How long the store
    /// took to build and publish the install is observed as
    /// `serve_install_seconds`, and how long the cache's log append that
    /// follows took as `serve_cache_sweep_seconds`.
    ///
    /// An update of a pair with no edge between it changes nothing and
    /// installs nothing: no epoch, no log, no event — the report
    /// carries the current epoch and `updated: 0`.
    ///
    /// # Errors
    /// Fails for unknown endpoints or invalid costs (no epoch change).
    pub fn update_edge_cost(
        &self,
        u: NodeId,
        v: NodeId,
        cost: f64,
    ) -> Result<EpochUpdate, AlgorithmError> {
        let started = Instant::now();
        let (level, db) = (&mut Level::root(), &self.shared.epoch_db);
        let ShardedUpdate {
            update,
            shards,
            epochs,
        } = db.update_edge_cost_at(level, u, v, cost)?;
        if update.updated == 0 {
            return Ok(update);
        }
        self.shared
            .observe("serve_install_seconds", started.elapsed().as_secs_f64());
        if matches!(update.hierarchy, Refresh::Patched | Refresh::Rebuilt) {
            self.shared.inc("serve_hierarchy_customized_total");
            self.shared
                .observe("serve_hierarchy_arcs_examined", update.arcs_examined as f64);
        }
        if update.landmarks == Refresh::RebuildFailed {
            self.shared.inc("serve_landmark_rebuild_failed_total");
        }
        let logged = Instant::now();
        self.shared.cache.apply_shard_update_at(
            level,
            (u, v),
            update.old_cost,
            update.new_cost,
            &shards,
            &epochs,
        );
        (self.shared).observe("serve_cache_sweep_seconds", logged.elapsed().as_secs_f64());
        self.shared.inc("serve_epoch_installs_total");
        self.shared.emit(|| ServeEvent::EpochInstalled {
            epoch: update.epoch,
            updated_edges: update.updated as u64,
            shards_touched: shards.len() as u64,
            shards_total: self.shared.epoch_db.map().shard_count() as u64,
        });
        Ok(update)
    }
}

impl Drop for RouteService {
    fn drop(&mut self) {
        self.shared.lock_queue(&mut Level::root()).0.closed = true;
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let worker = &Worker::new(index);
    let level = &mut Level::root();
    loop {
        // Drain-only batching: take one job (waiting if necessary), then
        // fold in whatever is *already* queued up to `batch_max`. A
        // worker never waits for a batch to fill, so batching can only
        // remove queueing latency, never add it (fairness bound 1).
        let mut batch = {
            let (mut queue, _) = shared.lock_queue(level);
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
                shared.shed_job(level, &job, ShedReason::DeadlineExpired, 0);
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
        let snapshot = shared.epoch_db.snapshot_at(level);
        for (job, _) in &live {
            shared.emit(|| ServeEvent::Started {
                request: job.id,
                worker: index as u64,
                epoch: snapshot.install(),
            });
        }

        // Identical (from, to) keys collapse into one run (singleflight);
        // a lone request is a group of one, served exactly as before
        // batching existed.
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
        if size > 1 {
            shared.observe("serve_batch_size", size as f64);
            shared.emit(|| ServeEvent::BatchExecuted {
                worker: index as u64,
                size,
                groups: groups.len() as u64,
                epoch: snapshot.install(),
            });
        }

        for group in groups {
            execute(shared, level, worker, &snapshot, group, now);
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests drive the public API, which mints the root lock level"
)]
mod tests {
    use super::*;
    use atis_graph::{CostModel, Grid, QueryKind};
    use atis_obs::{MetricsRegistry, RingSink};

    pub(super) fn grid_service(config: ServeConfig) -> (RouteService, Grid) {
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
        // The install only logged itself: the jammed entry is judged by
        // the next lookup of its key.
        assert_eq!(registry.counter("cache_invalidations_total"), 0);
        assert!(
            registry
                .histogram("serve_queue_wait_seconds")
                .unwrap()
                .count
                >= 3
        );
        assert!(registry.histogram("serve_service_seconds").unwrap().count >= 3);
        assert_eq!(
            registry.histogram("serve_install_seconds").unwrap().count,
            1
        );
        assert_eq!(
            registry
                .histogram("serve_cache_sweep_seconds")
                .unwrap()
                .count,
            1
        );

        let events = ring.events();
        let json: Vec<String> = events.iter().map(|e| e.to_json()).collect();
        for kind in [
            "serve_submitted",
            "serve_started",
            "serve_cache_hit",
            "serve_completed",
        ] {
            assert!(
                json.iter()
                    .any(|j| j.contains(&format!(r#""type":"{kind}""#))),
                "missing {kind} span in {json:#?}"
            );
        }
        // The install is one event, and the last one: the epoch and its
        // shard footprint together.
        let installs: Vec<&String> = json.iter().filter(|j| j.contains("_installed")).collect();
        assert_eq!(installs.len(), 1, "{json:#?}");
        assert_eq!(json.last(), Some(installs[0]));
        assert!(
            installs[0].starts_with(
                r#"{"type":"serve_epoch_installed","epoch":1,"updated_edges":1,"shards_touched":1,"shards_total":1}"#
            ),
            "{}",
            installs[0]
        );
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
    fn updates_customize_the_hierarchy_and_count_refreshes() {
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
        assert_eq!(up.hierarchy, Refresh::Patched);
        assert_eq!(registry.counter("serve_hierarchy_customized_total"), 1);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        let snap = service.shard_snapshot();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-9);

        // The jam clears: the same arm, and v5 answers exactly again.
        let down = service.update_edge_cost(a, b, 1.0).unwrap();
        assert_eq!(down.hierarchy, Refresh::Patched);
        assert_eq!(registry.counter("serve_hierarchy_customized_total"), 2);
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Computed);
        let snap = service.shard_snapshot();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-9);
        assert_eq!(registry.counter("serve_hierarchy_degraded_total"), 0);
        // The write side shows its work: one observation per update,
        // each a small part of the overlay.
        let examined = registry.histogram("serve_hierarchy_arcs_examined").unwrap();
        let arcs = snap.db.hierarchy().unwrap().arc_count() as f64;
        assert_eq!(examined.count, 2);
        assert!(examined.min >= 1.0 && examined.max < arcs);
        assert_eq!(examined.sum, (up.arcs_examined + down.arcs_examined) as f64);
    }

    /// A landmark rebuild fails only for tables attached to a graph they
    /// were not built for — no cost update causes one. Eight landmarks
    /// cannot be chosen on four nodes: the stale tables stay attached,
    /// the failure is counted, and v4 requests are answered one rung
    /// down, exactly.
    #[test]
    fn a_failed_landmark_rebuild_is_counted_and_v4_degrades_to_v3() {
        use atis_graph::graph::graph_from_arcs;
        use atis_preprocess::{LandmarkTables, PreprocessConfig};
        let registry = MetricsRegistry::shared();
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        // 0 -> 1 -> 3 (cost 3) versus 0 -> 2 -> 3 (cost 4).
        let graph =
            graph_from_arcs(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 2.0), (2, 3, 2.0)]).unwrap();
        let db = Database::open(&graph)
            .unwrap()
            .with_landmarks(tables.clone());
        let service = RouteService::with_observability(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V4)),
            Some(registry.clone()),
            None,
        );
        let update = service.update_edge_cost(NodeId(0), NodeId(1), 3.0).unwrap();
        assert_eq!(update.landmarks, Refresh::RebuildFailed);
        let snap = service.shard_snapshot();
        let kept = snap.db.landmarks().unwrap();
        assert_eq!(
            kept.shared_with(&tables).copied(),
            0,
            "the stale tables stay"
        );
        assert!(!kept.is_current_for(snap.db.graph()));
        assert_eq!(registry.counter("serve_landmark_rebuild_failed_total"), 1);
        for gone in ["landmarks", "hierarchy"] {
            assert_eq!(service.breaker_state(gone), None, "no {gone} breaker");
        }

        let (s, d) = (NodeId(0), NodeId(3));
        let answer = service.route(s, d).unwrap();
        assert_eq!(answer.outcome, RouteOutcome::Degraded { rung: "astar-v3" });
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-9);
    }

    /// An overlay built for another graph with as many nodes — here the
    /// grid, attached to the grid plus one cheap corner-to-corner arc —
    /// is not current, so the first update rebuilds it. Re-pricing its
    /// elimination fill instead would drop the arc the fill lacks and
    /// stamp the result current, so v5 would miss the shortcut.
    #[test]
    fn a_service_started_on_a_foreign_hierarchy_rebuilds_it_on_its_first_update() {
        use atis_graph::GraphBuilder;
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let mut b = GraphBuilder::new();
        for u in grid.graph().node_ids() {
            b.add_node(grid.graph().point(u));
        }
        for e in grid.graph().edges() {
            b.add_edge(*e);
        }
        b.add_arc(grid.node_at(0, 0), grid.node_at(5, 5), 0.5);
        let graph = b.build().unwrap();
        let db = Database::open(&graph).unwrap().with_hierarchy(overlay);
        let service = RouteService::new(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V5)),
        );
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));
        let up = service.update_edge_cost(a, b, 9.0).unwrap();
        assert_eq!(up.hierarchy, Refresh::Rebuilt);
        let snap = service.shard_snapshot();
        let live = snap.db.graph();
        for s in live.node_ids() {
            for d in live.node_ids() {
                let answer = service.route(s, d).unwrap();
                assert_eq!(answer.outcome, RouteOutcome::Computed, "{s} -> {d}");
                assert_eq!(answer.epoch, up.epoch);
                let oracle = atis_algorithms::memory::dijkstra_pair(live, s, d).unwrap();
                assert!(
                    (answer.path.unwrap().cost - oracle.cost).abs() < 1e-9,
                    "{s} -> {d}"
                );
            }
        }
    }

    /// The per-update phase is exact only from an overlay that is
    /// current for the costs before the update; the install checks that
    /// rather than assuming it. Started on an overlay priced before a
    /// jam on the route, a service must come out of its first update —
    /// in either direction, on an unrelated edge — with v5 answering at
    /// the real costs: re-pricing only what the updated edge can reach
    /// would stamp the jam's stale price as current.
    #[test]
    fn a_service_started_on_a_stale_hierarchy_is_healed_by_its_first_update() {
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 7).unwrap();
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let free_flow = atis_algorithms::memory::dijkstra_pair(grid.graph(), s, d).unwrap();
        let (ju, jv) = free_flow.hops().next().unwrap();
        let mut jammed = grid.graph().clone();
        jammed.set_edge_cost(ju, jv, 50.0).unwrap();
        let (a, b) = (grid.node_at(5, 0), grid.node_at(5, 1));
        assert!((a, b) != (ju, jv));
        let base = jammed.edge_cost(a, b).unwrap();

        for cost in [base * 2.0, base * 0.5] {
            let db = Database::open(&jammed)
                .unwrap()
                .with_hierarchy(overlay.clone());
            let service = RouteService::new(
                db,
                ServeConfig::default()
                    .with_workers(1)
                    .with_cache_capacity(0)
                    .with_algorithm(Algorithm::AStar(AStarVersion::V5)),
            );
            assert!(matches!(
                service.route(s, d).unwrap().outcome,
                RouteOutcome::Degraded { .. }
            ));
            let up = service.update_edge_cost(a, b, cost).unwrap();
            assert_eq!(up.hierarchy, Refresh::Rebuilt);
            let snap = service.shard_snapshot();
            let overlay = snap.db.hierarchy().unwrap();
            assert!(overlay.is_current_for(snap.db.graph()));
            let answer = service.route(s, d).unwrap();
            assert_eq!(answer.outcome, RouteOutcome::Computed);
            let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
            assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-9);
            assert_eq!(up.arcs_examined, overlay.arc_count(), "the full pass");
            // Healed: the next update is proportional to its change.
            let next = service.update_edge_cost(a, b, base).unwrap();
            assert!(next.arcs_examined < overlay.arc_count());
        }
    }

    /// Installs compare and stamp artifacts with the graph's O(1)
    /// `cost_stamp`, which the update patches edge by edge. Through a
    /// seeded script of 64 updates on metro-10k — three jams, then the
    /// oldest clears to its base cost or, every other time, below it
    /// (a rebuild) — every published snapshot's tables and overlay pass
    /// the full-pass currency check, the overlay took the per-update
    /// phase, and v5 answers at the oracle's cost.
    #[test]
    fn every_install_of_an_update_script_leaves_its_artifacts_current() {
        use atis_graph::{Metro, MetroQuery, MetroSpec, PartitionMap, SplitMix64};
        use atis_hierarchy::{Hierarchy, HierarchyConfig};
        use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
        let metro = Metro::new(MetroSpec::with_nodes(10_000, 1993)).unwrap();
        let (graph, new_of) = PartitionMap::build(metro.graph(), 256)
            .apply(metro.graph())
            .unwrap();
        let spread = LandmarkSelection::PartitionSpread { region_target: 256 };
        let tables = LandmarkTables::build(&graph, PreprocessConfig::new(spread, 8)).unwrap();
        let overlay = Hierarchy::build(&graph, HierarchyConfig::paper()).unwrap();
        let arcs = overlay.arc_count();
        let db = Database::open(&graph)
            .unwrap()
            .with_landmarks(tables)
            .with_hierarchy(overlay);
        let service = RouteService::new(
            db,
            ServeConfig::default()
                .with_workers(1)
                .with_cache_capacity(0)
                .with_algorithm(Algorithm::AStar(AStarVersion::V5)),
        );
        let trips: Vec<(NodeId, NodeId)> = [MetroQuery::IntraCity, MetroQuery::Diagonal]
            .into_iter()
            .map(|trip| {
                let (s, d) = metro.query_pair(trip);
                (NodeId(new_of[s.index()]), NodeId(new_of[d.index()]))
            })
            .collect();
        let edges: Vec<_> = graph.edges().copied().collect();
        let mut rng = SplitMix64::new(1993);
        let mut jammed = Vec::new();
        let mut rebuilt = 0;
        for step in 0..64 {
            let (edge, cost) = if step % 4 == 3 {
                let edge: atis_graph::Edge = jammed.remove(0);
                (edge, edge.cost * if step % 8 == 7 { 0.5 } else { 1.0 })
            } else {
                let edge = edges[rng.next_below(edges.len() as u64) as usize];
                jammed.push(edge);
                (edge, edge.cost * (2.0 + rng.next_f64() * 6.0))
            };
            let up = service.update_edge_cost(edge.from, edge.to, cost).unwrap();
            assert!(up.updated >= 1, "step {step}");
            assert!(
                matches!(up.landmarks, Refresh::Patched | Refresh::Rebuilt),
                "step {step}: {:?}",
                up.landmarks
            );
            rebuilt += usize::from(up.landmarks == Refresh::Rebuilt);
            assert!(up.arcs_examined < arcs, "step {step}: the full pass ran");
            let snap = service.shard_snapshot();
            assert_eq!(snap.install(), up.epoch, "step {step}");
            let live = snap.db.graph();
            assert!(
                snap.db.landmarks().unwrap().is_current_for(live),
                "step {step}"
            );
            assert!(
                snap.db.hierarchy().unwrap().is_current_for(live),
                "step {step}"
            );
            for &(s, d) in &trips {
                let answer = service.route(s, d).unwrap();
                assert_eq!(answer.outcome, RouteOutcome::Computed, "step {step}");
                assert_eq!(answer.epoch, up.epoch, "step {step}");
                let oracle = atis_algorithms::memory::dijkstra_pair(live, s, d).unwrap();
                assert!((answer.path.unwrap().cost - oracle.cost).abs() < 1e-9);
            }
        }
        assert!(rebuilt >= 1, "the script must undercut a table value");
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
        // better, so the entry stays hot; a decrease whose floor bound
        // undercuts the cached total could have, so it drops. (0.01 is
        // far below the edge's length, so it also lowers the cost floor
        // to 0.01: crossing the grid no longer costs enough to rule the
        // edge out, and Manhattan is no longer admissible, so the v3
        // primary is refused and Dijkstra answers.)
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
                RouteOutcome::Degraded { rung: "dijkstra" },
                "{shards} shard(s): an undercutting decrease must evict it"
            );
        }
    }
}

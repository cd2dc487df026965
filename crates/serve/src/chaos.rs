//! The deterministic chaos harness: seeded overload waves against a
//! real [`RouteService`].
//!
//! A [`ChaosScenario`] describes one reproducible storm — concurrent
//! client threads replaying seeded query streams, an update thread
//! replaying an incident storm, optionally a [`FaultPlan`] browning out
//! the storage engine — and [`run_scenario`] drives it to completion,
//! returning a [`ChaosReport`] with every response classified. All
//! randomness is `splitmix64` from the scenario seed: the same scenario
//! produces the same query streams, the same update log, and the same
//! injected-fault decisions on every run, so CI failures replay locally
//! byte-for-byte.
//!
//! The resilience invariants the harness lets tests assert:
//!
//! 1. **Every request ends in a typed outcome** — an answer, a typed
//!    [`ServeError::Shed`] with a retry hint, or a typed algorithm
//!    error. Never a hang (the run completes) and never a panic
//!    ([`ChaosReport::panicked_clients`] is 0).
//! 2. **No torn or invented answers** —
//!    [`ChaosReport::verify_answers`] replays the update log and checks
//!    every returned path prices cost-exactly against the graph at
//!    exactly the epoch the answer claims (stale answers against their
//!    *older* epoch).
//! 3. **The breaker recovers** — after the fault window closes, the
//!    storage breaker is driven back to `closed`
//!    ([`ChaosReport::storage_breaker`]).
//! 4. **Shedding stays within policy** — [`ChaosReport::shed_fraction`]
//!    is bounded away from both 0 (the storm really overloaded the
//!    service) and 1 (the service kept serving).
//!
//! The three standard scenarios ([`standard_scenarios`]) are the ones
//! the CI stress job replays: `burst-overload`, `update-storm`, and
//! `io-brownout`.

use crate::breaker::{BreakerConfig, BreakerState};
use crate::error::ServeError;
use crate::service::{RequestClass, RouteService, ServeConfig};
use atis_algorithms::ladder::{self, Needs};
use atis_algorithms::{
    AlgorithmError, Database, Hierarchy, HierarchyConfig, LandmarkTables, PreprocessConfig,
};
use atis_graph::rng::splitmix64;
use atis_graph::{CostModel, Graph, Grid, NodeId, Path};
use atis_storage::FaultPlan;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One seeded, reproducible overload scenario.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Scenario name (report labels, CI output).
    pub name: &'static str,
    /// Master seed; every client stream and the update storm derive
    /// from it.
    pub seed: u64,
    /// Grid side length of the generated road network.
    pub grid_size: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Every `bulk_every`-th request is submitted as
    /// [`RequestClass::Bulk`] (0 = interactive only).
    pub bulk_every: usize,
    /// Per-request deadline in virtual ticks (`None` = service default).
    pub deadline_ticks: Option<u64>,
    /// Updates the incident storm applies.
    pub updates: usize,
    /// Milliseconds the storm sleeps between updates (0 = full-rate
    /// storm).
    pub update_pause_ms: u64,
    /// Storage fault injection for the scenario's database.
    pub fault_plan: Option<FaultPlan>,
    /// Requests to warm the cache with before the storm (their answers
    /// are counted separately and excluded from the report).
    pub warmup_requests: usize,
    /// Service tuning under test.
    pub config: ServeConfig,
}

/// How the responses of one scenario broke down. Every request the
/// harness submitted lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Fresh full-fidelity answers at the current epoch.
    pub computed: u64,
    /// Cache-served answers (bit-identical to fresh).
    pub cache_hits: u64,
    /// Degrade-ladder answers (exact, current epoch, fallback rung).
    pub degraded: u64,
    /// Stale-tier answers (tagged with their age).
    pub stale: u64,
    /// Typed sheds (queue-full, displaced, deadline, breaker-open).
    pub shed: u64,
    /// Typed algorithm errors (storage faults that exhausted the
    /// ladder).
    pub failed: u64,
}

impl OutcomeCounts {
    /// Total classified responses.
    pub fn total(&self) -> u64 {
        self.computed + self.cache_hits + self.degraded + self.stale + self.shed + self.failed
    }

    /// Answers that carried a route (any fidelity).
    pub fn answered(&self) -> u64 {
        self.computed + self.cache_hits + self.degraded + self.stale
    }
}

/// One recorded answer, kept for post-hoc replay verification.
#[derive(Debug, Clone)]
pub struct RecordedAnswer {
    /// Queried source.
    pub from: NodeId,
    /// Queried destination.
    pub to: NodeId,
    /// Epoch the answer claims validity at.
    pub epoch: u64,
    /// The returned route (`None` = unreachable).
    pub path: Option<Path>,
    /// Whether the answer came from the stale tier.
    pub stale: bool,
    /// End-to-end wall time the client observed (queue wait + service).
    pub wall: Duration,
}

/// Everything one scenario run produced.
#[derive(Debug)]
pub struct ChaosReport {
    /// The scenario's name.
    pub scenario: &'static str,
    /// Response breakdown (storm phase only; warm-up excluded).
    pub counts: OutcomeCounts,
    /// Client threads that panicked (must be 0 — a panic is an
    /// invariant violation, never an acceptable outcome).
    pub panicked_clients: usize,
    /// Every answered request, for replay verification.
    pub answers: Vec<RecordedAnswer>,
    /// The exact update log: `(epoch, u, v, cost)` in install order.
    pub updates: Vec<(u64, NodeId, NodeId, f64)>,
    /// Storage-breaker state at the end of the run (after recovery
    /// probing).
    pub storage_breaker: BreakerState,
    /// The service's final epoch.
    pub final_epoch: u64,
    /// The service's final virtual time.
    pub final_ticks: u64,
}

impl ChaosReport {
    /// Fraction of storm-phase requests that were shed.
    pub fn shed_fraction(&self) -> f64 {
        let total = self.counts.total();
        if total == 0 {
            return 0.0;
        }
        self.counts.shed as f64 / total as f64
    }

    /// Wall-clock percentile (0.0–1.0) over the *answered* requests.
    /// `None` when nothing was answered.
    pub fn answered_wall_percentile(&self, q: f64) -> Option<Duration> {
        let mut walls: Vec<Duration> = self.answers.iter().map(|a| a.wall).collect();
        if walls.is_empty() {
            return None;
        }
        walls.sort();
        let rank = ((walls.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        walls.get(rank).copied()
    }

    /// Replays the update log and checks every recorded answer against
    /// the graph at exactly the epoch it claims: all hops exist there
    /// and the path's stored cost re-prices exactly (±1e-6 relative).
    /// Catches both torn answers (mixed epochs) and invented routes
    /// (paths no epoch ever contained).
    ///
    /// # Errors
    /// A description of the first violating answer.
    pub fn verify_answers(&self, initial: &Graph) -> Result<(), String> {
        for (i, answer) in self.answers.iter().enumerate() {
            let Some(path) = &answer.path else { continue };
            let mut graph = initial.clone();
            for &(epoch, u, v, cost) in &self.updates {
                if epoch <= answer.epoch {
                    graph
                        .set_edge_cost(u, v, cost)
                        .map_err(|e| format!("replaying update at epoch {epoch}: {e}"))?;
                }
            }
            let repriced = path.validate(&graph).map_err(|e| {
                format!(
                    "answer {i} ({:?}->{:?}, epoch {}): invalid at its own epoch: {e}",
                    answer.from, answer.to, answer.epoch
                )
            })?;
            if (repriced - path.cost).abs() > 1e-6 * repriced.abs().max(1.0) {
                return Err(format!(
                    "answer {i} ({:?}->{:?}, epoch {}): torn pricing — stored {} vs replayed {}",
                    answer.from, answer.to, answer.epoch, path.cost, repriced
                ));
            }
        }
        Ok(())
    }
}

/// A tiny deterministic stream over `splitmix64`.
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng {
            state: splitmix64(seed ^ splitmix64(stream)),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next() % n
    }
}

/// The scenario's road network: deterministic in the scenario seed, so
/// tests and the report's replay verification reconstruct the exact
/// graph the harness served.
///
/// # Errors
/// Grid construction failures as strings.
pub fn scenario_grid(scenario: &ChaosScenario) -> Result<Grid, String> {
    Grid::new(
        scenario.grid_size,
        CostModel::TWENTY_PERCENT,
        scenario.seed % 1_000,
    )
    .map_err(|e| format!("grid: {e}"))
}

/// A deterministic query pair on the grid (endpoints never equal).
fn query_pair_from(grid: &Grid, size: u64, rng: &mut Rng) -> (NodeId, NodeId) {
    let (r1, c1) = (rng.below(size) as usize, rng.below(size) as usize);
    let (mut r2, c2) = (rng.below(size) as usize, rng.below(size) as usize);
    if r1 == r2 && c1 == c2 {
        r2 = (r2 + 1) % size as usize;
    }
    (grid.node_at(r1, c1), grid.node_at(r2, c2))
}

/// The three seeded storms the CI stress job replays.
pub fn standard_scenarios() -> Vec<ChaosScenario> {
    vec![
        // A pure arrival burst: more clients than workers, a deliberately
        // tiny queue, bulk traffic mixed in. Exercises queue-full
        // shedding, displacement, and deadline expiry under pressure. The
        // tiny queue is what keeps admitted-request latency bounded (a
        // dequeued request waited behind at most ~queue/workers runs), so
        // the CI invariant "admitted p99 stays within a small factor of
        // uncontended p99" holds by construction; the injected uniform
        // read latency makes service times large enough to swamp
        // scheduler noise.
        ChaosScenario {
            name: "burst-overload",
            seed: 0xA71B_0001,
            grid_size: 8,
            clients: 8,
            requests_per_client: 32,
            bulk_every: 4,
            deadline_ticks: Some(4_000),
            updates: 0,
            update_pause_ms: 0,
            fault_plan: Some(
                FaultPlan::inert(0xA71B_0001).with_read_latency(Duration::from_micros(30)),
            ),
            warmup_requests: 0,
            config: ServeConfig::default()
                .with_workers(4)
                .with_queue_capacity(2)
                .with_cache_capacity(0),
        },
        // An incident storm: full-rate UPDATEs racing queries. Exercises
        // epoch installs, cache invalidation/promotion, and torn-answer
        // freedom under churn.
        ChaosScenario {
            name: "update-storm",
            seed: 0xA71B_0002,
            grid_size: 8,
            clients: 6,
            requests_per_client: 24,
            bulk_every: 0,
            deadline_ticks: None,
            updates: 48,
            update_pause_ms: 0,
            fault_plan: None,
            warmup_requests: 0,
            config: ServeConfig::default()
                .with_workers(4)
                .with_queue_capacity(64)
                .with_cache_capacity(128),
        },
        // An I/O brownout with a deterministic end: reads fail hard for
        // a bounded window of physical operations, then recover.
        // Exercises the storage breaker (open, stale-serve, half-open
        // probe, re-close). The window is sized so the breaker's probe
        // cycles — each burning one failed read while the clock crawls
        // through `open_ticks` of refused work — traverse it within the
        // harness's bounded recovery phase.
        ChaosScenario {
            name: "io-brownout",
            seed: 0xA71B_0003,
            grid_size: 6,
            clients: 4,
            requests_per_client: 24,
            bulk_every: 0,
            deadline_ticks: None,
            updates: 2,
            update_pause_ms: 1,
            fault_plan: Some(FaultPlan::inert(0xA71B_0003).with_read_failure_window(400, 430, 1.0)),
            warmup_requests: 6,
            config: ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(32)
                .with_cache_capacity(64)
                .with_breaker(BreakerConfig {
                    failure_threshold: 3,
                    open_ticks: 8,
                    probes: 1,
                }),
        },
    ]
}

/// Builds the scenario's service and drives the storm to completion.
///
/// Phases: warm-up (optional, cache priming), the storm itself
/// (clients + update thread concurrently), then a bounded recovery
/// phase that keeps probing until the storage breaker re-closes (or a
/// fixed probe budget runs out — the report then shows the stuck
/// state).
///
/// # Errors
/// Setup failures (grid/database/artifact construction, thread
/// spawning) as strings; the storm itself never errors — client failures land in
/// the report.
#[expect(clippy::disallowed_methods, reason = "a client of the public API")]
pub fn run_scenario(scenario: &ChaosScenario) -> Result<ChaosReport, String> {
    let grid = scenario_grid(scenario)?;
    let mut db = Database::open(grid.graph()).map_err(|e| format!("database: {e}"))?;
    // The storm drives the ladder as shipped: every artifact a rung of
    // the scenario's primary needs is attached.
    for rung in ladder::sequence(scenario.config.algorithm) {
        db = match rung.needs {
            Needs::Hierarchy => db.with_hierarchy(
                Hierarchy::build(grid.graph(), HierarchyConfig::paper())
                    .map_err(|e| format!("hierarchy: {e}"))?,
            ),
            Needs::Landmarks => db.with_landmarks(
                LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default())
                    .map_err(|e| format!("landmarks: {e}"))?,
            ),
            Needs::Nothing => db,
        };
    }
    if let Some(plan) = &scenario.fault_plan {
        db = db.with_fault_plan(*plan);
    }
    let service = Arc::new(RouteService::new(db, scenario.config.clone()));
    let size = scenario.grid_size.max(2) as u64;

    // Warm-up: prime the cache so the stale tier has something to
    // retire into when the storm's updates sweep it.
    {
        let mut rng = Rng::new(scenario.seed, 0xFEED);
        for _ in 0..scenario.warmup_requests {
            let (from, to) = query_pair_from(&grid, size, &mut rng);
            let _ = service.route(from, to);
        }
    }

    // The update storm, on its own thread, recording the exact log.
    let updater = {
        let service = service.clone();
        let updates = scenario.updates;
        let pause = scenario.update_pause_ms;
        let seed = scenario.seed;
        let grid_updates = grid.clone();
        std::thread::Builder::new()
            .name("chaos-updater".to_string())
            .spawn(move || {
                let mut rng = Rng::new(seed, 0xD1CE);
                let mut log = Vec::new();
                for i in 0..updates {
                    if pause > 0 {
                        std::thread::sleep(Duration::from_millis(pause));
                    }
                    let r = rng.below(size) as usize;
                    let c = rng.below(size.saturating_sub(1)) as usize;
                    let (u, v) = (grid_updates.node_at(r, c), grid_updates.node_at(r, c + 1));
                    // Alternate congestion spikes and clears.
                    let cost = if i % 2 == 0 {
                        20.0 + rng.below(30) as f64
                    } else {
                        1.0 + rng.below(4) as f64
                    };
                    if let Ok(update) = service.update_edge_cost(u, v, cost) {
                        log.push((update.epoch, u, v, cost));
                    }
                }
                log
            })
            .map_err(|e| format!("spawn updater: {e}"))?
    };

    // The client storm.
    let mut clients = Vec::new();
    for client in 0..scenario.clients {
        let service = service.clone();
        let seed = scenario.seed;
        let requests = scenario.requests_per_client;
        let bulk_every = scenario.bulk_every;
        let deadline = scenario.deadline_ticks;
        let grid_client = grid.clone();
        let handle = std::thread::Builder::new()
            .name(format!("chaos-client-{client}"))
            .spawn(move || {
                let mut rng = Rng::new(seed, client as u64 + 1);
                let mut results = Vec::with_capacity(requests);
                for r in 0..requests {
                    let (from, to) = query_pair_from(&grid_client, size, &mut rng);
                    let class = if bulk_every > 0 && r % bulk_every == bulk_every - 1 {
                        RequestClass::Bulk
                    } else {
                        RequestClass::Interactive
                    };
                    let started = Instant::now();
                    let outcome = service.route_with(from, to, class, deadline);
                    results.push((from, to, started.elapsed(), outcome));
                }
                results
            })
            .map_err(|e| format!("spawn client {client}: {e}"))?;
        clients.push(handle);
    }

    let updates = updater.join().unwrap_or_default();
    let mut counts = OutcomeCounts::default();
    let mut answers = Vec::new();
    let mut panicked_clients = 0usize;
    for handle in clients {
        let Ok(results) = handle.join() else {
            panicked_clients += 1;
            continue;
        };
        for (from, to, wall, outcome) in results {
            match outcome {
                Ok(answer) => {
                    use crate::service::RouteOutcome;
                    let stale = matches!(answer.outcome, RouteOutcome::Stale { .. });
                    match answer.outcome {
                        RouteOutcome::Computed => counts.computed += 1,
                        RouteOutcome::CacheHit => counts.cache_hits += 1,
                        RouteOutcome::Degraded { .. } => counts.degraded += 1,
                        RouteOutcome::Stale { .. } => counts.stale += 1,
                    }
                    answers.push(RecordedAnswer {
                        from,
                        to,
                        epoch: answer.epoch,
                        path: answer.path,
                        stale,
                        wall,
                    });
                }
                Err(e) if e.is_shed() => counts.shed += 1,
                Err(ServeError::Algorithm(AlgorithmError::Storage(_))) => counts.failed += 1,
                Err(ServeError::ShuttingDown) => counts.failed += 1,
                Err(ServeError::Algorithm(_)) => counts.failed += 1,
                Err(_) => counts.failed += 1,
            }
        }
    }

    // Recovery phase: keep probing (cheap, deterministic stream) until
    // the storage breaker re-closes. Bounded so a genuinely stuck
    // breaker surfaces in the report instead of hanging the harness.
    let mut rng = Rng::new(scenario.seed, 0x9EC0);
    for _ in 0..400 {
        if service.breaker_state("storage") == Some(BreakerState::Closed) {
            break;
        }
        let (from, to) = query_pair_from(&grid, size, &mut rng);
        let _ = service.route(from, to);
    }

    Ok(ChaosReport {
        scenario: scenario.name,
        counts,
        panicked_clients,
        answers,
        updates,
        storage_breaker: service
            .breaker_state("storage")
            .unwrap_or(BreakerState::Closed),
        final_epoch: service.epoch(),
        final_ticks: service.now_ticks(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b, "same seed + stream replays identically");
        assert_ne!(a, c, "streams are independent");
    }

    #[test]
    fn standard_scenarios_are_three_distinct_storms() {
        let scenarios = standard_scenarios();
        assert_eq!(scenarios.len(), 3);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(names, ["burst-overload", "update-storm", "io-brownout"]);
        assert!(scenarios.iter().all(|s| s.clients > 0));
        assert!(
            scenarios.iter().any(|s| s.fault_plan.is_some()),
            "one scenario must inject I/O faults"
        );
        assert!(
            scenarios.iter().any(|s| s.updates > 10),
            "one scenario must storm updates"
        );
    }

    #[test]
    fn a_tiny_scenario_runs_to_a_fully_typed_report() {
        let scenario = ChaosScenario {
            name: "smoke",
            seed: 42,
            grid_size: 5,
            clients: 2,
            requests_per_client: 6,
            bulk_every: 3,
            deadline_ticks: None,
            updates: 2,
            update_pause_ms: 0,
            fault_plan: None,
            warmup_requests: 0,
            config: ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(16),
        };
        let report = run_scenario(&scenario).expect("scenario runs");
        assert_eq!(report.panicked_clients, 0);
        assert_eq!(report.counts.total(), 12, "every request is classified");
        let grid = scenario_grid(&scenario).unwrap();
        report
            .verify_answers(grid.graph())
            .expect("no torn answers");
    }

    #[test]
    fn percentiles_and_fractions_handle_empty_reports() {
        let report = ChaosReport {
            scenario: "empty",
            counts: OutcomeCounts::default(),
            panicked_clients: 0,
            answers: Vec::new(),
            updates: Vec::new(),
            storage_breaker: BreakerState::Closed,
            final_epoch: 0,
            final_ticks: 0,
        };
        assert_eq!(report.shed_fraction(), 0.0);
        assert!(report.answered_wall_percentile(0.99).is_none());
    }
}

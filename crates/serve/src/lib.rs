//! # atis-serve — the concurrent, overload-resilient query-serving layer
//!
//! The paper's IVHS setting is a *serving* problem: many in-vehicle
//! clients querying one central map database (Section 1.1). This crate
//! turns the workspace's single-query planner into a first-class
//! concurrent service that stays predictable under overload and
//! storage faults:
//!
//! * **Worker pool + two-class admission control** ([`RouteService`]) —
//!   a fixed pool of worker threads executes planner runs drawn from a
//!   bounded, two-class (interactive / bulk) submission queue. Under
//!   pressure the service sheds the least valuable work first —
//!   expired-deadline requests, then queued bulk work displaced for
//!   interactive traffic — and refuses the rest with a typed
//!   [`ServeError::Shed`] (the `SHED` wire reply) carrying a
//!   `retry_after` hint, so overload is pushed back to clients, not
//!   absorbed as memory growth.
//! * **Deadline propagation** ([`Deadline`]) — every admitted request
//!   carries an expiry on a deterministic virtual clock; the remaining
//!   ticks flow into the planner's cost-unit budget, so a request that
//!   would blow its deadline stops consuming block reads mid-expansion
//!   instead of completing uselessly.
//! * **Epoch snapshots** ([`ShardedEpochDb`]) — `ROUTE` queries run in
//!   parallel against an immutable `Arc<Database>` snapshot while
//!   `UPDATE` traffic installs a new epoch copy-on-write, bumping the
//!   version of each region-group shard the update can affect. Every
//!   answer carries the epoch it was computed at; no answer can mix pre-
//!   and post-update edge costs.
//! * **A storage circuit breaker + stale-serve degradation**
//!   ([`CircuitBreaker`]) — the breaker opens after a threshold of typed
//!   storage errors and sends requests to the degrade ladder's tail,
//!   which serves the last good cached answer tagged
//!   [`RouteOutcome::Stale`] (the `STALE k` wire reply); half-open
//!   probing re-closes it once the fault clears.
//! * **Invalidation-aware route cache** ([`RouteCache`]) — LRU-bounded,
//!   keyed by `(from, to)` and validated against the shard versions the
//!   route was stamped with. An update only logs itself; a lookup
//!   replays the logged installs its entry has not seen, drops it if one
//!   could have changed it (path uses the updated edge, or a cost
//!   decrease plus the straight-line detour through the edge, priced at
//!   that install's cost floor, falls below the cached total) and
//!   otherwise promotes it to the snapshot without recomputation;
//!   invalidated entries retire into the stale tier that backs the
//!   degrade ladder's last rung.
//! * **Deterministic chaos harness** ([`chaos`]) — seeded overload
//!   waves (arrival bursts, `UPDATE` storms, injected I/O brownouts)
//!   driven against a real service, asserting the resilience
//!   invariants: no torn answers, every request ends in a typed
//!   outcome, the breaker re-closes after faults clear.
//!
//! The whole subsystem is threaded through `atis-obs`: request-level
//! trace spans ([`atis_obs::ServeEvent`]), per-worker counters, queue
//! depth/wait and service-time histograms, shed/stale/breaker counters,
//! and the cache counters (`cache_hits_total`, `cache_misses_total`,
//! `cache_invalidations_total`) that the route server's `STATS` command
//! serves.
//!
//! See `SERVING.md` at the repository root for the architecture diagram,
//! the overload policy, the cache-invalidation rules, and the
//! wire-protocol additions; `examples/route_server.rs` is the thin TCP
//! front-end over this crate.
//!
//! ## Example
//!
//! ```
//! use atis_algorithms::Database;
//! use atis_graph::{CostModel, Grid, QueryKind};
//! use atis_serve::{RouteService, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = Grid::new(8, CostModel::TWENTY_PERCENT, 1)?;
//! let service = RouteService::new(Database::open(grid.graph())?, ServeConfig::default());
//! let (s, d) = grid.query_pair(QueryKind::Diagonal);
//!
//! let fresh = service.route(s, d)?;
//! let cached = service.route(s, d)?;
//! assert!(!fresh.cached && cached.cached);
//! assert_eq!(fresh.path, cached.path); // hits are bit-identical
//!
//! // Live traffic: a new epoch; the jammed entry is invalidated.
//! let hop = fresh.path.as_ref().unwrap().hops().next().unwrap();
//! let update = service.update_edge_cost(hop.0, hop.1, 99.0)?;
//! assert_eq!(update.epoch, 1);
//! assert_eq!(service.route(s, d)?.epoch, 1);
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::iter_over_hash_type
)]
// A new variant of a serving-path enum must not compile until every
// serving match names it. Test matches may still use `_`.
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

pub mod breaker;
pub mod cache;
#[cfg(not(loom))]
pub mod chaos;
pub mod epoch;
pub mod error;
pub mod service;
pub mod shard;
pub mod sync;

pub use breaker::{
    Admission, BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker, ProbeGuard,
};
pub use cache::{CacheStats, CachedRoute, RouteCache};
#[cfg(not(loom))]
pub use chaos::{ChaosReport, ChaosScenario, OutcomeCounts};
pub use epoch::{EpochUpdate, Refresh};
pub use error::{ServeError, ShedReason};
pub use service::{
    Deadline, RequestClass, RouteAnswer, RouteOutcome, RouteService, ServeConfig, Ticket,
};
pub use shard::{EpochVector, ShardMap, ShardSnapshot, ShardedEpochDb, ShardedUpdate};

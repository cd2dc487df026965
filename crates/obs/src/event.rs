//! The typed event taxonomy.
//!
//! Every observable moment in the system is one [`TraceEvent`]. The
//! variants mirror the layers that emit them:
//!
//! * `RunStarted` / [`IterationEvent`] / `RunFinished` — the algorithm
//!   layer: one event per main-loop iteration of a database-resident run,
//!   carrying the per-iteration [`IoStats`] delta. The deltas partition
//!   the run's total I/O exactly: `Init` covers relation creation through
//!   start-node marking (steps `C1..C4` of Tables 2–3), each `Search`
//!   event covers one iteration, and `Finish` covers the terminal
//!   selection and path extraction. Summing every delta reproduces the
//!   run's `IoStats` to the counter.
//! * `Fault` — the storage layer's fault-injection log
//!   ([`atis_storage::FaultEvent`]), re-emitted per run so a trace shows
//!   faults interleaved with the work they disrupted.
//! * `Serve` ([`ServeEvent`]) — the serving layer's request spans:
//!   admission (accepted/shed), execution start on a worker at a pinned
//!   epoch, cache hits, stale-tier serves, circuit-breaker transitions,
//!   completion, and epoch installation.
//!
//! Events render to single-line JSON via [`TraceEvent::to_json`] with a
//! `type` discriminator, suitable for JSONL files (`jq`-able, one event
//! per line). Field order is fixed, so identical runs produce identical
//! bytes.

use crate::json::JsonObject;
use atis_storage::{FaultEvent, IoStats, JoinStrategy};

/// Which part of a run an [`IterationEvent`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationPhase {
    /// Initialisation: create/load/index the working relation(s) and mark
    /// the start node (steps `C1..C4`). Emitted once, as iteration 0.
    Init,
    /// One main-loop iteration: select, join, relax (steps `C5..C8`).
    Search,
    /// The tail: the terminal selection (if any), final scans, and path
    /// extraction. Emitted once after the loop.
    Finish,
}

impl IterationPhase {
    /// Stable lowercase label used in the JSON encoding.
    pub fn label(&self) -> &'static str {
        match self {
            IterationPhase::Init => "init",
            IterationPhase::Search => "search",
            IterationPhase::Finish => "finish",
        }
    }
}

/// One iteration of a database-resident run, with its exact I/O delta.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationEvent {
    /// Algorithm label (e.g. `"A* (version 2)"`).
    pub algorithm: String,
    /// Which span of the run this event covers.
    pub phase: IterationPhase,
    /// 1-based main-loop iteration (0 for `Init`; for `Finish` the final
    /// iteration count).
    pub iteration: u64,
    /// Node expanded this iteration (`None` for `Init`/`Finish` and for
    /// the set-oriented iterative algorithm, which expands whole levels).
    pub selected: Option<u32>,
    /// FrontierSet size *after* this iteration's relaxations: open nodes
    /// for the best-first family, the new current set for the iterative
    /// algorithm.
    pub frontier_size: u64,
    /// Join strategy the engine chose for this iteration's adjacency join
    /// (`None` when the span performed no join).
    pub join_strategy: Option<JoinStrategy>,
    /// Storage work performed by this span alone.
    pub io_delta: IoStats,
    /// Cumulative storage work at the end of this span.
    pub io_total: IoStats,
    /// Iterations left before the run's budget trips (`None` =
    /// unlimited).
    pub budget_iterations_left: Option<u64>,
}

/// One span of a request's life inside the serving layer (`atis-serve`):
/// admission, execution, cache interaction, and epoch installation. Request
/// ids are monotonic per service; worker ids index the fixed pool.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A request passed admission control and entered the submission queue.
    Submitted {
        /// Monotonic request id.
        request: u64,
        /// Queue depth *after* this request was enqueued.
        queue_depth: u64,
    },
    /// The overload policy shed a request: admission refused it, it was
    /// displaced from the queue, its deadline expired, or an open
    /// circuit breaker had nothing to serve it with.
    Shed {
        /// Monotonic request id.
        request: u64,
        /// Stable shed-reason label (`queue-full`, `deadline-expired`,
        /// `displaced`, `breaker-open`).
        reason: String,
        /// Suggested client back-off, in virtual-time ticks.
        retry_after: u64,
        /// Queue depth at the moment of shedding.
        queue_depth: u64,
    },
    /// A worker dequeued the request and pinned an epoch snapshot.
    Started {
        /// Monotonic request id.
        request: u64,
        /// Pool index of the executing worker.
        worker: u64,
        /// Epoch the request will be answered at.
        epoch: u64,
    },
    /// The route cache answered the request without running an algorithm.
    CacheHit {
        /// Monotonic request id.
        request: u64,
        /// Epoch of the cached entry (== the request's epoch).
        epoch: u64,
    },
    /// The request finished (answer delivered to the waiting client).
    Completed {
        /// Monotonic request id.
        request: u64,
        /// Pool index of the executing worker.
        worker: u64,
        /// Epoch the answer is valid at.
        epoch: u64,
        /// Whether the answer came from the route cache.
        cached: bool,
        /// Whether a route was found.
        found: bool,
    },
    /// The degrade ladder answered from the stale cache tier: a route
    /// from an older epoch, explicitly tagged with its age.
    StaleServed {
        /// Monotonic request id.
        request: u64,
        /// Epoch the stale route was computed at.
        epoch: u64,
        /// Age of the answer in epochs (current − answer epoch).
        age: u64,
    },
    /// The serving ladder abandoned an algorithm rung mid-request and
    /// fell to a cheaper one (e.g. A\* v5 losing its hierarchy and
    /// degrading to v4) — the algorithm-level sibling of
    /// [`ServeEvent::BreakerTransition`].
    AlgorithmDegraded {
        /// Monotonic request id.
        request: u64,
        /// Rung label abandoned (`primary`, `astar-v4`).
        from: String,
        /// Rung label the ladder fell to (`astar-v4`, `astar-v3`).
        to: String,
        /// Why the abandoned rung failed (rendered error).
        reason: String,
        /// Virtual-time tick of the degrade.
        at_tick: u64,
    },
    /// A circuit breaker changed state.
    BreakerTransition {
        /// Resource the breaker guards (`storage`).
        resource: String,
        /// State label before (`closed`, `open`, `half-open`).
        from: String,
        /// State label after.
        to: String,
        /// Virtual-time tick of the transition.
        at_tick: u64,
    },
    /// An `UPDATE` installed a new database epoch and logged it with the
    /// route cache: the global install counter advanced, but only the
    /// touched shards' versions moved — cached routes over other shards
    /// keep hitting without a replay. The cache judges the entries the
    /// install touched when they are looked up, not here.
    EpochInstalled {
        /// The new epoch number (the global install counter).
        epoch: u64,
        /// Directed edge tuples the update touched.
        updated_edges: u64,
        /// How many shards the update touched (the endpoints' shards for
        /// an increase, every shard for a decrease).
        shards_touched: u64,
        /// Total shards in the serving state.
        shards_total: u64,
    },
    /// A worker drained a batch of admitted requests in one dequeue and
    /// pinned one snapshot for all of them. Requests for the same
    /// `(from, to)` key share one run (single-flight); each distinct key
    /// runs once, on its own.
    BatchExecuted {
        /// Pool index of the executing worker.
        worker: u64,
        /// Requests in the batch (≥ 2).
        size: u64,
        /// Distinct `(from, to)` groups in the batch (singleflight
        /// collapses duplicates to one run).
        groups: u64,
        /// Global install counter of the pinned snapshot.
        epoch: u64,
    },
}

/// Any event the observability layer can record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A database-resident run is starting.
    RunStarted {
        /// Algorithm label.
        algorithm: String,
        /// Source node id.
        source: u32,
        /// Destination node id.
        destination: u32,
    },
    /// One span of a run with its I/O delta.
    Iteration(IterationEvent),
    /// An injected storage fault fired during the current run.
    Fault {
        /// Algorithm that was running when the fault fired.
        algorithm: String,
        /// The storage layer's fault record.
        fault: FaultEvent,
    },
    /// A serving-layer span (admission, execution, cache, epochs).
    Serve(ServeEvent),
    /// A run finished (found a path, proved unreachability, or failed).
    RunFinished {
        /// Algorithm label.
        algorithm: String,
        /// Main-loop iterations performed.
        iterations: u64,
        /// Whether a path was found.
        found: bool,
        /// Total metered storage work.
        io_total: IoStats,
        /// The total in Table 4A cost units.
        cost_units: f64,
    },
}

/// Renders an [`IoStats`] as a nested JSON object with fixed key order.
fn io_json(io: &IoStats) -> String {
    JsonObject::new()
        .u64("reads", io.block_reads)
        .u64("writes", io.block_writes)
        .u64("updates", io.tuple_updates)
        .u64("index", io.index_adjustments)
        .u64("created", io.relations_created)
        .u64("dropped", io.relations_deleted)
        .finish()
}

impl TraceEvent {
    /// Renders the event as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::RunStarted {
                algorithm,
                source,
                destination,
            } => JsonObject::new()
                .string("type", "run_started")
                .string("algorithm", algorithm)
                .u64("source", u64::from(*source))
                .u64("destination", u64::from(*destination))
                .finish(),
            TraceEvent::Iteration(ev) => {
                let mut o = JsonObject::new();
                o.string("type", "iteration")
                    .string("algorithm", &ev.algorithm)
                    .string("phase", ev.phase.label())
                    .u64("iteration", ev.iteration)
                    .opt_u64("selected", ev.selected.map(u64::from))
                    .u64("frontier_size", ev.frontier_size)
                    .opt_string("join", ev.join_strategy.map(|s| s.label()))
                    .raw("io_delta", &io_json(&ev.io_delta))
                    .raw("io_total", &io_json(&ev.io_total))
                    .opt_u64("budget_iterations_left", ev.budget_iterations_left);
                o.finish()
            }
            TraceEvent::Fault { algorithm, fault } => JsonObject::new()
                .string("type", "fault")
                .string("algorithm", algorithm)
                .string("op", fault.op)
                .usize("block", fault.block)
                .u64("op_index", fault.op_index)
                .bool("torn", fault.torn)
                .finish(),
            TraceEvent::Serve(s) => s.to_json(),
            TraceEvent::RunFinished {
                algorithm,
                iterations,
                found,
                io_total,
                cost_units,
            } => JsonObject::new()
                .string("type", "run_finished")
                .string("algorithm", algorithm)
                .u64("iterations", *iterations)
                .bool("found", *found)
                .raw("io_total", &io_json(io_total))
                .f64("cost_units", *cost_units)
                .finish(),
        }
    }
}

impl ServeEvent {
    fn to_json(&self) -> String {
        match self {
            ServeEvent::Submitted {
                request,
                queue_depth,
            } => JsonObject::new()
                .string("type", "serve_submitted")
                .u64("request", *request)
                .u64("queue_depth", *queue_depth)
                .finish(),
            ServeEvent::Shed {
                request,
                reason,
                retry_after,
                queue_depth,
            } => JsonObject::new()
                .string("type", "serve_shed")
                .u64("request", *request)
                .string("reason", reason)
                .u64("retry_after", *retry_after)
                .u64("queue_depth", *queue_depth)
                .finish(),
            ServeEvent::Started {
                request,
                worker,
                epoch,
            } => JsonObject::new()
                .string("type", "serve_started")
                .u64("request", *request)
                .u64("worker", *worker)
                .u64("epoch", *epoch)
                .finish(),
            ServeEvent::CacheHit { request, epoch } => JsonObject::new()
                .string("type", "serve_cache_hit")
                .u64("request", *request)
                .u64("epoch", *epoch)
                .finish(),
            ServeEvent::Completed {
                request,
                worker,
                epoch,
                cached,
                found,
            } => JsonObject::new()
                .string("type", "serve_completed")
                .u64("request", *request)
                .u64("worker", *worker)
                .u64("epoch", *epoch)
                .bool("cached", *cached)
                .bool("found", *found)
                .finish(),
            ServeEvent::StaleServed {
                request,
                epoch,
                age,
            } => JsonObject::new()
                .string("type", "serve_stale_served")
                .u64("request", *request)
                .u64("epoch", *epoch)
                .u64("age", *age)
                .finish(),
            ServeEvent::AlgorithmDegraded {
                request,
                from,
                to,
                reason,
                at_tick,
            } => JsonObject::new()
                .string("type", "serve_algorithm_degraded")
                .u64("request", *request)
                .string("from", from)
                .string("to", to)
                .string("reason", reason)
                .u64("at_tick", *at_tick)
                .finish(),
            ServeEvent::BreakerTransition {
                resource,
                from,
                to,
                at_tick,
            } => JsonObject::new()
                .string("type", "serve_breaker_transition")
                .string("resource", resource)
                .string("from", from)
                .string("to", to)
                .u64("at_tick", *at_tick)
                .finish(),
            ServeEvent::EpochInstalled {
                epoch,
                updated_edges,
                shards_touched,
                shards_total,
            } => JsonObject::new()
                .string("type", "serve_epoch_installed")
                .u64("epoch", *epoch)
                .u64("updated_edges", *updated_edges)
                .u64("shards_touched", *shards_touched)
                .u64("shards_total", *shards_total)
                .finish(),
            ServeEvent::BatchExecuted {
                worker,
                size,
                groups,
                epoch,
            } => JsonObject::new()
                .string("type", "serve_batch_executed")
                .u64("worker", *worker)
                .u64("size", *size)
                .u64("groups", *groups)
                .u64("epoch", *epoch)
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_iteration() -> IterationEvent {
        let mut delta = IoStats::new();
        delta.read_blocks(4);
        delta.update_tuples(2);
        IterationEvent {
            algorithm: "Dijkstra".into(),
            phase: IterationPhase::Search,
            iteration: 3,
            selected: Some(17),
            frontier_size: 5,
            join_strategy: Some(JoinStrategy::NestedLoop),
            io_delta: delta,
            io_total: delta,
            budget_iterations_left: None,
        }
    }

    #[test]
    fn iteration_json_has_fixed_shape() {
        let ev = TraceEvent::Iteration(sample_iteration());
        let json = ev.to_json();
        assert!(
            json.starts_with(r#"{"type":"iteration","algorithm":"Dijkstra""#),
            "{json}"
        );
        assert!(json.contains(r#""phase":"search""#));
        assert!(json.contains(r#""selected":17"#));
        assert!(json.contains(r#""join":"nested-loop""#));
        assert!(json.contains(r#""io_delta":{"reads":4,"writes":0,"updates":2"#));
        assert!(json.contains(r#""budget_iterations_left":null"#));
    }

    #[test]
    fn identical_events_render_identically() {
        let a = TraceEvent::Iteration(sample_iteration());
        let b = TraceEvent::Iteration(sample_iteration());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn run_events_round_out_the_taxonomy() {
        let started = TraceEvent::RunStarted {
            algorithm: "Iterative".into(),
            source: 0,
            destination: 63,
        };
        assert!(started.to_json().contains(r#""type":"run_started""#));
        let finished = TraceEvent::RunFinished {
            algorithm: "Iterative".into(),
            iterations: 15,
            found: true,
            io_total: IoStats::new(),
            cost_units: 12.5,
        };
        let json = finished.to_json();
        assert!(json.contains(r#""type":"run_finished""#));
        assert!(json.contains(r#""cost_units":12.5"#));
    }

    #[test]
    fn fault_events_mirror_the_storage_record() {
        let ev = TraceEvent::Fault {
            algorithm: "Dijkstra".into(),
            fault: FaultEvent {
                op: "read",
                block: 9,
                op_index: 41,
                torn: false,
            },
        };
        let json = ev.to_json();
        assert!(json.contains(r#""op":"read""#));
        assert!(json.contains(r#""block":9"#));
        assert!(json.contains(r#""op_index":41"#));
    }

    #[test]
    fn serve_events_render_every_span() {
        let submitted = TraceEvent::Serve(ServeEvent::Submitted {
            request: 7,
            queue_depth: 3,
        });
        assert_eq!(
            submitted.to_json(),
            r#"{"type":"serve_submitted","request":7,"queue_depth":3}"#
        );
        let shed = TraceEvent::Serve(ServeEvent::Shed {
            request: 8,
            reason: "queue-full".into(),
            retry_after: 12,
            queue_depth: 64,
        });
        assert_eq!(
            shed.to_json(),
            r#"{"type":"serve_shed","request":8,"reason":"queue-full","retry_after":12,"queue_depth":64}"#
        );
        let stale = TraceEvent::Serve(ServeEvent::StaleServed {
            request: 9,
            epoch: 3,
            age: 2,
        });
        assert!(stale.to_json().contains(r#""type":"serve_stale_served""#));
        assert!(stale.to_json().contains(r#""age":2"#));
        let degraded = TraceEvent::Serve(ServeEvent::AlgorithmDegraded {
            request: 9,
            from: "primary".into(),
            to: "astar-v4".into(),
            reason: "hierarchy is stale for the current costs".into(),
            at_tick: 40,
        });
        assert_eq!(
            degraded.to_json(),
            r#"{"type":"serve_algorithm_degraded","request":9,"from":"primary","to":"astar-v4","reason":"hierarchy is stale for the current costs","at_tick":40}"#
        );
        let breaker = TraceEvent::Serve(ServeEvent::BreakerTransition {
            resource: "storage".into(),
            from: "closed".into(),
            to: "open".into(),
            at_tick: 41,
        });
        assert_eq!(
            breaker.to_json(),
            r#"{"type":"serve_breaker_transition","resource":"storage","from":"closed","to":"open","at_tick":41}"#
        );
        let started = TraceEvent::Serve(ServeEvent::Started {
            request: 7,
            worker: 2,
            epoch: 4,
        });
        assert!(started.to_json().contains(r#""worker":2"#));
        let hit = TraceEvent::Serve(ServeEvent::CacheHit {
            request: 7,
            epoch: 4,
        });
        assert!(hit.to_json().contains(r#""type":"serve_cache_hit""#));
        let done = TraceEvent::Serve(ServeEvent::Completed {
            request: 7,
            worker: 2,
            epoch: 4,
            cached: true,
            found: true,
        });
        let json = done.to_json();
        assert!(
            json.contains(r#""cached":true"#) && json.contains(r#""found":true"#),
            "{json}"
        );
        let installed = TraceEvent::Serve(ServeEvent::EpochInstalled {
            epoch: 5,
            updated_edges: 2,
            shards_touched: 1,
            shards_total: 8,
        });
        assert_eq!(
            installed.to_json(),
            r#"{"type":"serve_epoch_installed","epoch":5,"updated_edges":2,"shards_touched":1,"shards_total":8}"#
        );
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(IterationPhase::Init.label(), "init");
        assert_eq!(IterationPhase::Search.label(), "search");
        assert_eq!(IterationPhase::Finish.label(), "finish");
    }
}

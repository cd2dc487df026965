//! The algorithms' hook into the observability layer.
//!
//! A [`RunObserver`] is created at the top of every database-resident run
//! and carries the run's trace sink (if any), its label, and the I/O
//! high-water mark of the last emitted span. Each call to
//! [`RunObserver::span`] emits one [`IterationEvent`] whose `io_delta` is
//! exactly the storage work since the previous span — so the emitted
//! deltas partition the run's total `IoStats` with nothing counted twice
//! and nothing missed (`tests/observability.rs` enforces this for every
//! preset).
//!
//! With no sink attached every method is a single `Option` check; no
//! event is built, nothing allocates, and — because observers read
//! `IoStats` without ever writing it — the engine's accounting and
//! answers are bit-identical whether or not anyone is watching.

use crate::database::Database;
use atis_graph::NodeId;
use atis_obs::{IterationEvent, IterationPhase, SharedSink, TraceEvent};
use atis_storage::{IoStats, JoinStrategy};

/// Per-run event emitter: tracks the I/O mark between spans.
pub(crate) struct RunObserver {
    sink: Option<SharedSink>,
    algorithm: String,
    mark: IoStats,
    max_iterations: Option<u64>,
}

impl RunObserver {
    /// An observer for one run of `algorithm` against `db`. Cheap (one
    /// `Arc` clone) when a sink is attached, trivial when not.
    pub(crate) fn new(db: &Database, algorithm: &str) -> RunObserver {
        RunObserver {
            sink: db.trace_sink().cloned(),
            algorithm: algorithm.to_string(),
            mark: IoStats::new(),
            max_iterations: db.budgets().max_iterations,
        }
    }

    /// Emits `RunStarted`.
    pub(crate) fn run_started(&self, s: NodeId, d: NodeId) {
        let Some(sink) = &self.sink else { return };
        sink.record(&TraceEvent::RunStarted {
            algorithm: self.algorithm.clone(),
            source: s.0,
            destination: d.0,
        });
    }

    /// Emits one span covering everything since the previous span: the
    /// delta is `io.since(mark)` and the mark advances to `io`.
    pub(crate) fn span(
        &mut self,
        phase: IterationPhase,
        iteration: u64,
        selected: Option<u32>,
        frontier_size: u64,
        join_strategy: Option<JoinStrategy>,
        io: &IoStats,
    ) {
        let Some(sink) = &self.sink else { return };
        let io_delta = io.since(&self.mark);
        self.mark = *io;
        sink.record(&TraceEvent::Iteration(IterationEvent {
            algorithm: self.algorithm.clone(),
            phase,
            iteration,
            selected,
            frontier_size,
            join_strategy,
            io_delta,
            io_total: *io,
            budget_iterations_left: self.max_iterations.map(|m| m.saturating_sub(iteration)),
        }));
    }

    /// Emits the `Finish` span (terminal selection, final scans, path
    /// extraction — everything since the last `Search` span) followed by
    /// `RunFinished`. Call after *all* of the run's I/O is charged.
    pub(crate) fn finished(
        &mut self,
        iterations: u64,
        found: bool,
        frontier_size: u64,
        io: &IoStats,
        cost_units: f64,
    ) {
        if self.sink.is_none() {
            return;
        }
        self.span(
            IterationPhase::Finish,
            iterations,
            None,
            frontier_size,
            None,
            io,
        );
        if let Some(sink) = &self.sink {
            sink.record(&TraceEvent::RunFinished {
                algorithm: self.algorithm.clone(),
                iterations,
                found,
                io_total: *io,
                cost_units,
            });
        }
    }
}

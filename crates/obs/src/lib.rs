//! # atis-obs — structured observability for the ATIS engine
//!
//! This crate is the engine's flight recorder. It answers three
//! questions the rest of the workspace raises but cannot answer alone:
//!
//! 1. **What did this run do, step by step?** — iteration-level tracing.
//!    Every instrumented algorithm emits a [`TraceEvent`] stream: one
//!    [`RunStarted`](TraceEvent::RunStarted), one [`IterationEvent`] per
//!    main-loop iteration (frontier size, selected node, join strategy,
//!    and the *exact* [`IoStats`](atis_storage::IoStats) delta charged
//!    by that iteration), any injected-fault events, and one
//!    [`RunFinished`](TraceEvent::RunFinished). The deltas partition the
//!    run: summed, they equal the run's total `IoStats` to the block
//!    (an invariant the integration tests enforce for every preset).
//! 2. **What has this process done so far?** — a [`MetricsRegistry`] of
//!    named monotonic counters and histograms (iterations per run,
//!    blocks per iteration, buffer-pool hit rate, …), snapshot-able as
//!    deterministic JSON. The route server serves the snapshot verbatim
//!    as its `STATS` response.
//! 3. **Does reality match the paper's algebra?** — the [`report`]
//!    module joins a run's per-step I/O against the Tables 2–3 cost
//!    models from [`atis_costmodel`] and flags divergence beyond a
//!    tolerance.
//!
//! ## Where it sits
//!
//! `atis-obs` depends only on `atis-storage` (for `IoStats` and fault
//! events) and `atis-costmodel` (for predictions). The algorithm, core,
//! and bench crates depend on *it* — the layering is
//! `graph → storage → costmodel → obs → algorithms → core → bench`.
//! Event types carry algorithm *labels*, not algorithm types, so the
//! crate never needs to look upward.
//!
//! ## Cost when disabled
//!
//! Instrumented code holds an `Option<SharedSink>`; with `None` the
//! per-iteration cost is one branch, no allocation, and — because
//! sinks observe `IoStats` rather than participate in it — the engine's
//! I/O accounting and answers are bit-identical with and without a sink
//! attached.
//!
//! ## Choosing a sink
//!
//! | Sink | Keeps | For |
//! |------|-------|-----|
//! | [`RingSink`] | last *N* events in memory | tests, live introspection, post-mortems |
//! | [`JsonlSink`] | every event, one JSON line each | offline analysis, the worked example in `OBSERVABILITY.md` |
//!
//! Implement [`TraceSink`] for anything else — the trait is one method.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
#![deny(missing_docs)]

mod event;
mod json;
pub mod metrics;
pub mod report;
mod sink;

pub use event::{IterationEvent, IterationPhase, ServeEvent, TraceEvent};
pub use metrics::{Histogram, MetricsRegistry, SharedRegistry, DEFAULT_BUCKETS};
pub use report::{ModelReport, ReportRow, StepIo};
pub use sink::{JsonlSink, RingSink, SharedSink, TraceSink};

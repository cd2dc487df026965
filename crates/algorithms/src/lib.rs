//! The paper's three single-pair path-computation algorithms, executed
//! *database-resident* against the `atis-storage` engine, plus in-memory
//! reference implementations used as correctness oracles.
//!
//! Section 3 of the paper defines the candidates:
//!
//! * [`iterative`] — the transitive-closure representative (Figure 1):
//!   breadth-first, set-oriented relaxation of *all* current nodes per
//!   round; cannot stop early.
//! * [`dijkstra`] — the partial-transitive-closure representative
//!   (Figure 2): expands one minimum-`C(s,u)` node per iteration and
//!   terminates when the destination is selected.
//! * [`astar`] — the estimator-based single-pair representative
//!   (Figure 3), in the three implementation versions of Section 5.3:
//!   v1 (separate frontier relation + Euclidean), v2 (status-attribute
//!   frontier + Euclidean), v3 (status-attribute frontier + Manhattan),
//!   plus the landmark-guided v4 and the hierarchy-backed v5.
//!
//! Figures 2 and 3 are one loop (Section 5.3): the crate has a single
//! best-first driver, parameterised by frontier representation,
//! estimator and reopening rule, and [`Algorithm::describe`] is the one
//! `match` that says which parameters each algorithm is.
//!
//! Every run produces a [`RunTrace`]: the iteration count the paper's
//! tables report, the metered [`atis_storage::IoStats`], the cost in
//! Table 4A units (the paper's "execution time"), and the discovered path.
//!
//! Entry point: [`Database`] — load a graph once (the persistent edge
//! relation `S`), then [`Database::run`] any [`Algorithm`] between node
//! pairs.
//!
//! Every run is observable: attach an `atis-obs` trace sink with
//! [`Database::with_trace_sink`] to receive one event per main-loop
//! iteration (with its exact I/O delta), or a metrics registry with
//! [`Database::with_metrics`] for process-wide counters and histograms.
//! With neither attached, instrumentation costs one branch per iteration
//! and the metered `IoStats` are bit-identical.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod astar;
pub mod bidirectional;
pub mod closure;
pub mod database;
pub mod dijkstra;
pub mod duplicates;
pub mod error;
pub mod estimator;
pub(crate) mod hierarchy_search;
pub mod iterative;
pub mod ladder;
pub mod memory;
pub(crate) mod observe;
pub(crate) mod search;
pub mod trace;

pub use astar::AStarVersion;
pub use bidirectional::{bidirectional_dijkstra, BidirectionalResult};
pub use database::{Algorithm, Budgets, Database, Description, FrontierKind, Kernel, Label};
pub use duplicates::DuplicatePolicy;
pub use error::{AlgorithmError, BudgetKind, HierarchyIssue, LandmarkIssue};
pub use estimator::Estimator;
pub use trace::RunTrace;

// The artifacts `Database::with_hierarchy` / `with_landmarks` take, so a
// caller can build them without dependencies of its own.
pub use atis_hierarchy::{Hierarchy, HierarchyConfig};
pub use atis_preprocess::{LandmarkTables, PreprocessConfig};

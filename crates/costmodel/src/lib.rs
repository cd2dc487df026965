//! The paper's algebraic cost models (Section 4) and the query-optimizer
//! simulation that validates them.
//!
//! The paper derives per-step I/O formulas for each algorithm — Table 2
//! (iterative) and Table 3 (Dijkstra / A\*) over the notation of Table 1 —
//! instantiates them with the Table 4A parameters, and shows (Table 4B)
//! that the resulting estimates reproduce the measured execution times:
//! "With our algebraic cost models and simulation we were able to predict
//! actual execution time within ten percent."
//!
//! This crate rebuilds that machinery:
//!
//! * [`params`] — [`params::ModelParams`]: Table 4A plus the derived
//!   blocking factors and block counts of Table 1.
//! * [`model`] — Tables 2 and 3 as one step table: a [`Model`] is a list
//!   of steps `C1..C8`, each tagged with the [`Part`] of a run's metered
//!   I/O it is charged to and priced at the run's own
//!   `atis_storage::JoinPolicy` (the join `F(B1, B2, B3)` is
//!   `JoinPolicy::choose`, the engine's own chooser); plus the Table 4B
//!   reproduction from Table 6's iteration counts.
//! * [`relation_frontier_model`] — the A\* version-1 model the paper
//!   never derives (its frontier scan grows with the iteration number).
//! * [`device`] — where Table 4A's unit costs come from.
//!
//! The workspace's own validation inverts the paper's: our *physical*
//! engine meters actual block I/O, and tests assert the algebraic model
//! predicts it within a comparable envelope. That check is also available
//! as a runtime artifact — `atis-obs::report` renders any single run's
//! measured per-step I/O beside these models with tolerance verdicts (see
//! `OBSERVABILITY.md`).
//!
//! This crate sits *below* the algorithms in the build DAG (pure math
//! over iteration counts and trace summaries); its cross-validation
//! against live runs of `atis-algorithms` is a dev-dependency only.

#![warn(missing_docs)]
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
#![warn(clippy::iter_over_hash_type)]

pub mod device;
pub mod model;
pub mod params;
pub mod relation_frontier_model;

pub use device::DiskModel;
pub use model::{table_4b, Model, Part, Step, PAPER_TABLE_4B};
pub use params::ModelParams;
pub use relation_frontier_model::RelationFrontierModel;

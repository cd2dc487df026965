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
//! * [`join_cost`] — the algebraic `F(B1, B2, B3)` over the four join
//!   strategies.
//! * [`iterative_model`] — Table 2's steps `C1..C8`.
//! * [`dijkstra_astar_model`] — Table 3's per-iteration steps for Dijkstra
//!   and A\* (version 3).
//! * [`estimator_model`] — predicted expansion counts, frontier-size and
//!   I/O curves as a function of estimator *tightness* (the v1–v4
//!   comparison, including the landmark estimator of A\* version 4).
//! * [`predict`] — end-to-end prediction from an iteration count, the
//!   Table 4B reproduction, and validation helpers comparing predictions
//!   against the physically metered runs of `atis-algorithms`.
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
pub mod dijkstra_astar_model;
pub mod estimator_model;
pub mod iterative_model;
pub mod join_cost;
pub mod params;
pub mod predict;
pub mod relation_frontier_model;

pub use device::DiskModel;
pub use dijkstra_astar_model::{BestFirstModel, ModelStep};
pub use estimator_model::{
    alt_tightness, estimator_curve, CurvePoint, EstimatorModel, FRONTIER_SPREAD,
    TIGHTNESS_EUCLIDEAN, TIGHTNESS_MANHATTAN, TIGHTNESS_ZERO,
};
pub use iterative_model::IterativeModel;
pub use join_cost::{algebraic_join_cost, cheapest_join};
pub use params::ModelParams;
pub use predict::{predict_cost, table_4b, AlgorithmKind, Prediction};
pub use relation_frontier_model::RelationFrontierModel;

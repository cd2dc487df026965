//! Offline preprocessing for ATIS route queries: landmark (ALT) selection
//! and per-epoch distance tables.
//!
//! The paper's central observation is that A\*'s advantage over Dijkstra
//! is entirely a function of estimator tightness: a sharper admissible
//! `f(u, d)` shrinks the frontierSet and with it the per-iteration block
//! I/O that dominates the measured execution times (Tables 2–3). The
//! estimators the paper studies — Euclidean and Manhattan — are purely
//! geometric; they know nothing about the road network's actual costs.
//!
//! This crate adds the *graph-aware* estimator family known as ALT
//! (A\*, Landmarks, Triangle inequality; Goldberg & Harrelson): pick a
//! handful of landmark nodes, precompute exact shortest-path distances
//! from and to every landmark once per traffic epoch, and derive an
//! admissible, consistent lower bound for any query pair from the
//! triangle inequality:
//!
//! ```text
//! d(u, t) ≥ d(L, t) − d(L, u)      (forward table of landmark L)
//! d(u, t) ≥ d(u, L) − d(t, L)      (backward table of landmark L)
//! ```
//!
//! The bound is exact whenever `u` lies on a shortest path from a
//! landmark to `t` (or `t` on one from `u` to a landmark), so with a few
//! well-placed landmarks the estimator is near-perfect along the long
//! corridors where Dijkstra wastes the most work. Because the tables are
//! built from the *actual* edge costs they absorb cost variance that the
//! geometric estimators must underestimate away — on the paper's 20%
//! variance grid the Manhattan estimator loses ≈9% tightness to variance,
//! the ALT bound none.
//!
//! Preprocessing is a one-time cost per traffic epoch: `2·k` single-source
//! Dijkstra runs for `k` landmarks, entirely in memory. `atis-serve`
//! amortizes it across every query answered at that epoch, and its
//! copy-on-write `UPDATE` path decides between patching (a new cost that
//! [`LandmarkTables::admits_cost`] passes — every increase, and a
//! decrease that undercuts no table value — keeps the tables admissible;
//! see [`LandmarkTables::patched_for`]) and a full rebuild (an
//! undercutting decrease can make stale tables overestimate).
//!
//! Entry points: [`LandmarkSelection`] (farthest-point and coverage-based
//! selection), [`LandmarkTables::build`], and
//! [`LandmarkTables::bounds_to`] (the per-query resolved evaluator the
//! search loop calls).

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

pub mod error;
pub mod select;
pub mod sssp;
pub mod tables;

pub use error::PreprocessError;
pub use select::LandmarkSelection;
pub use tables::{DestBounds, LandmarkTables, PreprocessConfig};

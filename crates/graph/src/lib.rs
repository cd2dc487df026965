//! Road-network graph substrate for the ATIS path-computation study.
//!
//! This crate provides the graph model used throughout the reproduction of
//! Shekhar, Kohli and Coyle, *Path Computation Algorithms for Advanced
//! Traveller Information System (ATIS)*, ICDE 1993:
//!
//! * [`Graph`] — a directed graph with per-node planar coordinates and
//!   per-edge real-valued costs, stored in compressed sparse row form
//!   (Section 2 of the paper).
//! * [`grid`] — the synthetic `k × k` four-neighbour grid benchmark together
//!   with the paper's named query pairs (horizontal, semi-diagonal, diagonal;
//!   Section 5.1, Figure 4).
//! * [`cost_model`] — the three edge-cost models: uniform, uniform with 20%
//!   variance, and skewed (Section 5.1.3).
//! * [`minneapolis`] — a deterministic synthetic stand-in for the paper's
//!   1089-node Minneapolis road map (Section 5.2); see `DESIGN.md` for the
//!   substitution rationale.
//! * [`rng`] — a small, dependency-free, seedable PRNG so that every
//!   experiment in the repository is reproducible bit-for-bit.
//! * [`metro`] — deterministic metro/continental networks (stitched city
//!   cores, arterial rings, a one-way freeway hierarchy; 1k–1M nodes)
//!   built through the streaming CSR builder, for the scaling study of
//!   `SCALING.md`.
//! * [`sssp`] — the one in-memory Dijkstra kernel, with a compact CSR and
//!   its transpose, that every in-memory search (the oracle too) runs.
//! * [`partition`] — BFS region partitioning and node reordering so each
//!   region occupies a contiguous id range (and hence a contiguous run of
//!   storage blocks).
//!
//! The crate is intentionally free of I/O and of the storage engine; the
//! database-resident representation of a graph (edge relation `S`, node
//! relation `R`) lives in `atis-storage`.

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

pub mod cost_model;
pub mod edge;
pub mod error;
pub mod format;
pub mod graph;
pub mod grid;
#[doc(hidden)]
pub mod grouped;
pub mod metro;
pub mod minneapolis;
pub mod node;
pub mod partition;
pub mod path;
pub mod radial;
pub mod rng;
pub mod sssp;

pub use cost_model::CostModel;
pub use edge::{Edge, RoadClass};
pub use error::GraphError;
pub use format::{read_graph, write_graph, FormatError};
pub use graph::{floor_bound, Graph, GraphBuilder, StreamingGraphBuilder};
pub use grid::{Grid, QueryKind};
pub use metro::{Metro, MetroQuery, MetroSpec};
pub use minneapolis::{Minneapolis, NamedPair};
pub use node::{NodeId, Norm, Point};
pub use partition::{shuffle_layout, PartitionMap};
pub use path::Path;
pub use radial::{RadialCity, RadialQuery};
pub use rng::SplitMix64;

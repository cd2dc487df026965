//! # atis — single-pair path computation for traveller information systems
//!
//! A full reproduction of Shekhar, Kohli and Coyle, *Path Computation
//! Algorithms for Advanced Traveller Information System (ATIS)*, ICDE 1993.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — road networks: grids, cost models, the synthetic
//!   Minneapolis map.
//! * [`storage`] — the paged relational storage engine (edge relation `S`,
//!   node relation `R`, hash/ISAM indexes, four join strategies) with
//!   block-level I/O cost accounting.
//! * [`algorithms`] — database-resident Iterative BFS, Dijkstra and A\*
//!   (versions 1–5), plus in-memory reference implementations.
//! * [`preprocess`] — offline landmark (ALT) preprocessing: landmark
//!   selection and per-epoch forward/backward distance tables, the fuel
//!   for A\* version 4's triangle-inequality bounds.
//! * [`hierarchy`] — contraction-hierarchy preprocessing: nested-
//!   dissection ordering over partition regions, elimination-fill shortcut
//!   overlay, and metric customization, the machinery behind A\*
//!   version 5's bidirectional upward search (see `HIERARCHY.md`).
//! * [`costmodel`] — the paper's algebraic cost models (Tables 1–3) and the
//!   query-optimizer simulation.
//! * [`obs`] — structured observability: iteration-level tracing, a
//!   metrics registry, and model-vs-measured reports (see
//!   `OBSERVABILITY.md`).
//! * [`core`] — the ATIS route-planning service: route computation,
//!   evaluation and display.
//! * [`serve`] — the concurrent query-serving layer: worker pool with
//!   admission control, epoch snapshots for parallel reads under live
//!   updates, and an invalidation-aware route cache (see `SERVING.md`).
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! reproduction of every table and figure in the paper.
//!
//! ## Example
//!
//! ```
//! use atis::core::RoutePlanner;
//! use atis::{CostModel, Grid, QueryKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 10x10 road grid with ~20% cost variance between blocks.
//! let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 42)?;
//!
//! // The planner holds the map in the paper's relational storage engine;
//! // A* (version 3) is the default algorithm.
//! let planner = RoutePlanner::new(grid.graph())?;
//! let (start, dest) = grid.query_pair(QueryKind::SemiDiagonal);
//! let report = planner.plan(start, dest)?;
//!
//! let route = report.route.expect("grids are connected");
//! assert_eq!(route.source(), start);
//! assert_eq!(route.destination(), dest);
//! assert!(report.cost_units > 0.0); // simulated I/O, Table 4A units
//! # Ok(()) }
//! ```

pub use atis_algorithms as algorithms;
pub use atis_core as core;
pub use atis_costmodel as costmodel;
pub use atis_graph as graph;
pub use atis_hierarchy as hierarchy;
pub use atis_obs as obs;
pub use atis_preprocess as preprocess;
pub use atis_serve as serve;
pub use atis_storage as storage;

pub use atis_algorithms::{Algorithm, RunTrace};
pub use atis_core::{PlanReport, RoutePlanner};
pub use atis_graph::{CostModel, Graph, Grid, Minneapolis, NodeId, Path, QueryKind};

/// One-import convenience for applications:
/// `use atis::prelude::*;`.
pub mod prelude {
    pub use atis_algorithms::{AStarVersion, Algorithm, Database, Estimator, RunTrace};
    pub use atis_core::{
        evaluate_route, plan_alternatives, plan_trip, render_map, render_svg, turn_instructions,
        PlanReport, RoutePlanner,
    };
    pub use atis_graph::{
        CostModel, Graph, GraphBuilder, Grid, Minneapolis, NodeId, Path, Point, QueryKind,
        RadialCity,
    };
    pub use atis_hierarchy::{Hierarchy, HierarchyConfig};
    pub use atis_obs::{JsonlSink, MetricsRegistry, RingSink, TraceEvent, TraceSink};
    pub use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
    pub use atis_serve::{RouteAnswer, RouteService, ServeConfig, ServeError};
    pub use atis_storage::{CostParams, IoStats, JoinPolicy};
}

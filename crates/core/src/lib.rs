//! The ATIS route-planning service (Section 1.1 of the paper).
//!
//! "Route planning services need to provide three facilities: route
//! computation, route evaluation and route display."
//!
//! * [`planner`] — **route computation**: [`RoutePlanner`] wraps the
//!   database-resident algorithms of `atis-algorithms` behind a
//!   destination-oriented API and picks A\* (version 3) by default — the
//!   paper's recommendation for the short-trip queries an ATIS serves.
//! * [`evaluation`] — **route evaluation**: "to find the attributes of a
//!   given route between two points ... travel time and traffic congestion
//!   information".
//! * [`display`] — **route display**: turn-by-turn instructions and an
//!   ASCII map renderer (used to regenerate Figure 8's Minneapolis map).
//!
//! Beyond the paper's three facilities, `with_trace_sink` /
//! `with_metrics` attach the `atis-obs` observability layer so every
//! run's per-iteration I/O delta is emitted as a structured event
//! (`OBSERVABILITY.md`). Riding out storage faults is the serving
//! layer's job: `atis-serve`'s `RouteService` walks the degrade ladder
//! (`DESIGN.md` §5a), and [`RoutePlanner::into_database`] hands it the
//! planner's configured database.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing
    )
)]

pub mod display;
pub mod evaluation;
pub mod planner;
pub mod svg;
pub mod trip;

pub use display::{render_map, turn_instructions, MapCanvas};
pub use evaluation::{evaluate_route, RouteAttributes};
pub use planner::{PlanReport, RoutePlanner};
pub use svg::{render_svg, SvgOptions};
pub use trip::{itinerary, plan_alternatives, plan_trip, TripPlan};

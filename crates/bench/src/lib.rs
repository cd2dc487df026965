//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) from live runs of the database-resident
//! algorithms, and prints them side by side with the paper's published
//! numbers where the paper printed any.
//!
//! * Table 4B, Figures 5–7 with Tables 5–7, Figure 9 with Table 8 and
//!   Figures 10–12 — rows of exact counters ([`studies::paper_rows`]),
//!   rendered one artifact at a time by [`studies::table_4b`] and
//!   [`studies::paper_figure`] (the figures are [`studies::PAPER_FIGURES`])
//!   and committed in EXPERIMENTS.md.
//! * Figure 8 — the Minneapolis map render ([`experiments::fig8_map`]).
//! * Model validation — per-step breakdowns against Tables 2–3
//!   ([`experiments::step_breakdown`]) and the `atis-obs` per-run
//!   model-vs-measured reports ([`experiments::model_vs_measured`]).
//! * Ablations beyond the paper ([`experiments::ablation_join_strategies`],
//!   [`experiments::ablation_optimizer`],
//!   [`experiments::ablation_estimators`],
//!   [`experiments::ablation_memory_vs_db`]).
//! * The estimator and metro scaling studies, exact counters whose tables
//!   EXPERIMENTS.md and SCALING.md commit ([`studies::estimator_quality`],
//!   [`studies::metro_scaling`]).
//!
//! [`DRIVERS`] lists every experiment once; the binary `experiments`
//! runs them from the command line.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
pub mod experiments;
pub mod studies;
pub mod table;

pub use chart::BarChart;
pub use experiments::{ExperimentOutput, PAPER_SEED};
pub use table::Table;

use experiments as exp;

/// An experiment: its command-line id, a one-line description, and the
/// driver that runs it.
pub type Driver = (&'static str, &'static str, fn() -> ExperimentOutput);

/// Every experiment, in paper order.
pub const DRIVERS: &[Driver] = &[
    (
        "table4b",
        "Table 4B: algebraic cost estimates",
        studies::table_4b,
    ),
    (
        "breakdown",
        "Validation: per-step cost breakdown",
        exp::step_breakdown,
    ),
    (
        "obsreport",
        "Validation: obs model-vs-measured reports",
        exp::model_vs_measured,
    ),
    (
        "models",
        "Validation: A* version models vs measured",
        exp::validation_version_models,
    ),
    ("fig5", "Figure 5 / Table 5: graph size", || {
        studies::paper_figure("fig5")
    }),
    ("fig6", "Figure 6 / Table 6: path length", || {
        studies::paper_figure("fig6")
    }),
    ("fig7", "Figure 7 / Table 7: edge cost models", || {
        studies::paper_figure("fig7")
    }),
    ("fig8", "Figure 8: Minneapolis map", exp::fig8_map),
    ("fig9", "Figure 9 / Table 8: Minneapolis queries", || {
        studies::paper_figure("fig9")
    }),
    ("fig10", "Figure 10: A* versions vs graph size", || {
        studies::paper_figure("fig10")
    }),
    ("fig11", "Figure 11: A* versions vs cost model", || {
        studies::paper_figure("fig11")
    }),
    ("fig12", "Figure 12: A* versions vs path length", || {
        studies::paper_figure("fig12")
    }),
    (
        "joins",
        "Ablation: four join strategies",
        exp::ablation_join_strategies,
    ),
    (
        "optimizer",
        "Ablation: forced vs cost-based joins",
        exp::ablation_optimizer,
    ),
    (
        "estimators",
        "Ablation: estimator quality",
        exp::ablation_estimators,
    ),
    (
        "duplicates",
        "Ablation: frontier duplicate policies",
        exp::ablation_duplicates,
    ),
    (
        "buffer",
        "Ablation: buffer pool vs cold cache",
        exp::ablation_buffer_pool,
    ),
    (
        "isam",
        "Ablation: ISAM index depth sensitivity",
        exp::ablation_isam_depth,
    ),
    (
        "allpairs",
        "Ablation: all-pairs closure vs single-pair",
        exp::ablation_allpairs,
    ),
    (
        "memdb",
        "Ablation: in-memory vs database-resident",
        exp::ablation_memory_vs_db,
    ),
    (
        "tradeoff",
        "Extension: optimality/speed trade-off curve",
        exp::tradeoff_curve,
    ),
    (
        "scaling",
        "Extension: grids beyond the paper (up to 50x50)",
        exp::extension_scaling,
    ),
    (
        "devices",
        "Extension: device sensitivity (disk vs SSD re-pricing)",
        exp::extension_devices,
    ),
    (
        "radial",
        "Extension: radial city (estimator ranking reverses)",
        exp::extension_radial,
    ),
    (
        "seeds",
        "Extension: seed robustness of draw-dependent counts",
        exp::extension_seeds,
    ),
    (
        "estimator-quality",
        "Extension: A* versions 1-5 on the paper's networks (EXPERIMENTS.md)",
        studies::estimator_quality,
    ),
    (
        "metro-scaling",
        "Extension: 1k/10k/100k metro networks on partitioned storage (SCALING.md)",
        studies::metro_scaling,
    ),
];

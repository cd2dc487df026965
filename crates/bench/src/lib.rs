//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) from live runs of the database-resident
//! algorithms, and prints them side by side with the paper's published
//! numbers where the paper printed any.
//!
//! * Figures 5–7 + Tables 5–7 — the synthetic-grid experiments
//!   ([`experiments::fig5_table5`], [`experiments::fig6_table6`],
//!   [`experiments::fig7_table7`]).
//! * Figure 8 — the Minneapolis map render ([`experiments::fig8_map`]).
//! * Figure 9 + Table 8 — the Minneapolis queries
//!   ([`experiments::fig9_table8`]).
//! * Figures 10–12 — the A\* version studies
//!   ([`experiments::fig10_versions_size`],
//!   [`experiments::fig11_versions_cost`],
//!   [`experiments::fig12_versions_path`]).
//! * Table 4B — the algebraic estimates
//!   ([`experiments::table_4b_comparison`]).
//! * Model validation — per-step breakdowns against Tables 2–3
//!   ([`experiments::step_breakdown`]) and the `atis-obs` per-run
//!   model-vs-measured reports ([`experiments::model_vs_measured`]).
//! * Ablations beyond the paper ([`experiments::ablation_join_strategies`],
//!   [`experiments::ablation_optimizer`],
//!   [`experiments::ablation_estimators`],
//!   [`experiments::ablation_memory_vs_db`]).
//! * The estimator and metro scaling studies, exact counters whose tables
//!   EXPERIMENTS.md and SCALING.md commit ([`studies`]).
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
        exp::table_4b_comparison,
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
    ("fig5", "Figure 5 / Table 5: graph size", exp::fig5_table5),
    ("fig6", "Figure 6 / Table 6: path length", exp::fig6_table6),
    (
        "fig7",
        "Figure 7 / Table 7: edge cost models",
        exp::fig7_table7,
    ),
    ("fig8", "Figure 8: Minneapolis map", exp::fig8_map),
    (
        "fig9",
        "Figure 9 / Table 8: Minneapolis queries",
        exp::fig9_table8,
    ),
    (
        "fig10",
        "Figure 10: A* versions vs graph size",
        exp::fig10_versions_size,
    ),
    (
        "fig11",
        "Figure 11: A* versions vs cost model",
        exp::fig11_versions_cost,
    ),
    (
        "fig12",
        "Figure 12: A* versions vs path length",
        exp::fig12_versions_path,
    ),
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

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
//!
//! The binary `experiments` drives all of this from the command line; the
//! benches under `benches/` are the CI-gated estimator-quality and scaling
//! studies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
pub mod experiments;
pub mod table;

pub use chart::BarChart;
pub use experiments::{ExperimentOutput, PAPER_SEED};
pub use table::Table;

/// Runs every experiment in paper order, returning the rendered outputs.
pub fn run_all() -> Vec<ExperimentOutput> {
    vec![
        experiments::table_4b_comparison(),
        experiments::step_breakdown(),
        experiments::model_vs_measured(),
        experiments::validation_version_models(),
        experiments::fig5_table5(),
        experiments::fig6_table6(),
        experiments::fig7_table7(),
        experiments::fig8_map(),
        experiments::fig9_table8(),
        experiments::fig10_versions_size(),
        experiments::fig11_versions_cost(),
        experiments::fig12_versions_path(),
        experiments::ablation_join_strategies(),
        experiments::ablation_optimizer(),
        experiments::ablation_estimators(),
        experiments::ablation_duplicates(),
        experiments::ablation_buffer_pool(),
        experiments::ablation_isam_depth(),
        experiments::ablation_allpairs(),
        experiments::ablation_memory_vs_db(),
        experiments::tradeoff_curve(),
        experiments::extension_scaling(),
        experiments::extension_devices(),
        experiments::extension_radial(),
        experiments::extension_seeds(),
    ]
}

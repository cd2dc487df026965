//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 5) from live runs of the database-resident
//! algorithms, and prints them side by side with the paper's published
//! numbers where the paper printed any.
//!
//! * Table 4B, Figures 5–7 with Tables 5–7, Figure 9 with Table 8 and
//!   Figures 10–12 — rows of exact counters ([`studies::paper_rows`]),
//!   rendered one artifact at a time by [`studies::table_4b`] and
//!   [`studies::paper_figure`] (the figures are [`studies::PAPER_FIGURES`]).
//! * The validations, ablations and extensions — [`ablations::STUDIES`],
//!   each a render over rows of the same runner
//!   ([`studies::run_cells`]) that vary one database configuration
//!   ([`studies::Config`]) or sweep a workload.
//! * The estimator and metro scaling studies ([`studies::estimator_quality`],
//!   [`studies::metro_scaling`]).
//! * Figure 8's map and the two wall-clock ablations, all-pairs closure and
//!   in-memory baselines ([`experiments`]).
//!
//! Every table but the last three's is a deterministic counter committed
//! between `<!-- study: … -->` markers in EXPERIMENTS.md or SCALING.md.
//! [`DRIVERS`] lists every experiment once; the binary `experiments`
//! runs them from the command line.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod chart;
pub mod experiments;
pub mod studies;
pub mod table;

pub use chart::BarChart;
pub use experiments::{ExperimentOutput, PAPER_SEED};
pub use table::Table;

use experiments as exp;

/// An experiment: its command-line id, a one-line description (also
/// the heading a study prints), and the driver, which is handed the id.
pub type Driver = (&'static str, &'static str, fn(&str) -> ExperimentOutput);

/// Every experiment, in paper order: the paper's artifacts
/// ([`studies::paper_figure`]), the validations, ablations and extensions
/// of [`ablations::STUDIES`] (`reports`, `models`, `joins`, `optimizer`,
/// `tradeoff`, `duplicates`, `buffer`, `isam`, `devices`, `scaling`,
/// `radial`, `seeds`), the two wall-clock ablations (`allpairs`,
/// `memdb`), and the estimator and metro studies.
#[rustfmt::skip]
pub const DRIVERS: &[Driver] = &[
    ("table4b", "Table 4B: algebraic cost estimates", |_| studies::table_4b()),
    ("fig5", "Figure 5 / Table 5: graph size", studies::paper_figure),
    ("fig6", "Figure 6 / Table 6: path length", studies::paper_figure),
    ("fig7", "Figure 7 / Table 7: edge cost models", studies::paper_figure),
    ("fig8", "Figure 8: Minneapolis map", |_| exp::fig8_map()),
    ("fig9", "Figure 9 / Table 8: Minneapolis queries", studies::paper_figure),
    ("fig10", "Figure 10: A* versions vs graph size", studies::paper_figure),
    ("fig11", "Figure 11: A* versions vs cost model", studies::paper_figure),
    ("fig12", "Figure 12: A* versions vs path length", studies::paper_figure),
    ("reports", "Validation: model-vs-measured reports", ablations::study),
    ("models", "Validation: A* version models vs measured", ablations::study),
    ("joins", "Ablation: four join strategies", ablations::study),
    ("optimizer", "Ablation: forced vs cost-based joins", ablations::study),
    ("tradeoff", "Ablation: estimators and the optimality/speed trade-off", ablations::study),
    ("duplicates", "Ablation: frontier duplicate policies", ablations::study),
    ("buffer", "Ablation: buffer pool vs cold cache", ablations::study),
    ("isam", "Ablation: ISAM index depth sensitivity", ablations::study),
    ("allpairs", "Ablation: all-pairs closure vs single-pair (wall clock)", |_| exp::ablation_allpairs()),
    ("memdb", "Ablation: in-memory vs database-resident (wall clock)", |_| exp::ablation_memory_vs_db()),
    ("devices", "Extension: device sensitivity (disk vs SSD re-pricing)", ablations::study),
    ("scaling", "Extension: grids beyond the paper (up to 50x50)", ablations::study),
    ("radial", "Extension: radial city (estimator ranking reverses)", ablations::study),
    ("seeds", "Extension: seed robustness of draw-dependent counts", ablations::study),
    ("estimator-quality", "Extension: A* versions 1-5 on the paper's networks (EXPERIMENTS.md)", |_| studies::estimator_quality()),
    ("metro-scaling", "Extension: 1k/10k/100k metro networks on partitioned storage (SCALING.md)", |_| studies::metro_scaling()),
];

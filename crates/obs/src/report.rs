//! Model-vs-measured validation as a first-class artifact.
//!
//! The paper's central claim is that its algebraic cost models (Tables
//! 2–3) predict the measured execution cost "within ten percent". The
//! engine meters every run's physical I/O per cost-model step; this
//! module joins that observation against the algebraic prediction and
//! renders the comparison as a table with an explicit verdict per step —
//! turning what used to be a bench-only experiment into something any
//! run can produce automatically.
//!
//! The measured side arrives as a [`StepIo`] (the five-way attribution
//! every `RunTrace` carries as its `steps`); the predicted side is an
//! [`atis_costmodel::Model`] (Table 2 or 3, priced at the run's join
//! policy), whose steps are tagged with the same five [`Part`]s. One row
//! per part, flagged when it diverges beyond the caller's tolerance.

use atis_costmodel::{Model, Part};
use atis_storage::IoStats;
use std::fmt::Write;

/// Per-step observed I/O, mirroring the step structure of the paper's
/// cost models (Tables 2–3). Every `RunTrace` carries one as its `steps`;
/// its parts sum to the run total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepIo {
    /// Relation creation, bulk load, index build, start-node marking
    /// (`C1..C4`).
    pub init: IoStats,
    /// Frontier selection scans (`C5`).
    pub select: IoStats,
    /// Adjacency joins (`C6` of Table 2 / `C7` of Table 3).
    pub join: IoStats,
    /// State updates: marking and relaxing (`C7` of Table 2 / `C6`+`C8`
    /// of Table 3).
    pub update: IoStats,
    /// Remaining bookkeeping (current-count scans, path extraction).
    pub bookkeeping: IoStats,
}

impl StepIo {
    /// The sum of all five parts.
    pub fn total(&self) -> IoStats {
        self.init + self.select + self.join + self.update + self.bookkeeping
    }

    /// The I/O attributed to one part.
    pub fn part(&self, part: Part) -> IoStats {
        match part {
            Part::Init => self.init,
            Part::Select => self.select,
            Part::Join => self.join,
            Part::Update => self.update,
            Part::Bookkeeping => self.bookkeeping,
        }
    }
}

/// One row of a [`ModelReport`]: one part's predicted vs measured cost
/// units.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Row label: the part and the model steps charged to it (e.g.
    /// `"select (C5)"`).
    pub step: String,
    /// Algebraic prediction, Table 4A cost units, totalled over the run.
    pub predicted: f64,
    /// Metered cost of the same step, Table 4A cost units.
    pub measured: f64,
    /// `|measured − predicted| / predicted`; for a zero prediction the
    /// error is measured relative to the run's predicted total instead.
    pub relative_error: f64,
    /// Whether the row stays inside the report's tolerance.
    pub within: bool,
}

/// A per-run table comparing observed per-step I/O against the Tables
/// 2–3 algebraic predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Algorithm label.
    pub algorithm: String,
    /// Iteration count fed to the model (taken from the trace, exactly
    /// as the paper's simulation does).
    pub iterations: u64,
    /// Relative-error tolerance each row was checked against.
    pub tolerance: f64,
    /// One row per [`Part`], in [`Part::ALL`] order.
    pub rows: Vec<ReportRow>,
    /// Whole-run algebraic prediction.
    pub predicted_total: f64,
    /// Whole-run metered cost.
    pub measured_total: f64,
}

impl ModelReport {
    /// Compares a run's measured per-part I/O against `model` at the
    /// run's iteration count: one row per [`Part`], labelled with the
    /// part and the model steps charged to it (e.g. `"update (C6+C8)"`),
    /// measured I/O priced at the model's unit costs.
    pub fn new(
        algorithm: &str,
        iterations: u64,
        steps: &StepIo,
        model: &Model,
        tolerance: f64,
    ) -> ModelReport {
        let predicted_total = model.total(iterations);
        let rows = Part::ALL
            .into_iter()
            .map(|part| {
                let predicted = model.part(part, iterations);
                let measured = steps.part(part).cost(&model.io);
                let relative_error = if predicted > 0.0 {
                    (measured - predicted).abs() / predicted
                } else if predicted_total > 0.0 {
                    measured / predicted_total
                } else {
                    0.0
                };
                ReportRow {
                    step: row_label(model, part),
                    predicted,
                    measured,
                    relative_error,
                    within: relative_error <= tolerance,
                }
            })
            .collect();
        ModelReport {
            algorithm: algorithm.to_string(),
            iterations,
            tolerance,
            rows,
            predicted_total,
            measured_total: steps.total().cost(&model.io),
        }
    }

    /// Whether every step (and the total) stays inside the tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.rows.iter().all(|r| r.within) && self.total_relative_error() <= self.tolerance
    }

    /// Steps that diverged beyond the tolerance.
    pub fn divergent(&self) -> Vec<&ReportRow> {
        self.rows.iter().filter(|r| !r.within).collect()
    }

    /// `|measured − predicted| / predicted` over the whole run.
    pub fn total_relative_error(&self) -> f64 {
        if self.predicted_total > 0.0 {
            (self.measured_total - self.predicted_total).abs() / self.predicted_total
        } else {
            0.0
        }
    }

    /// Renders the report as an aligned text table with a verdict column.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} — model vs measured at {} iterations (tolerance {:.0}%)",
            self.algorithm,
            self.iterations,
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>8}  verdict",
            "step", "predicted", "measured", "err"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<22} {:>12.2} {:>12.2} {:>7.1}%  {}",
                r.step,
                r.predicted,
                r.measured,
                r.relative_error * 100.0,
                if r.within { "ok" } else { "DIVERGES" }
            );
        }
        let total_err = self.total_relative_error();
        let _ = writeln!(
            out,
            "{:<22} {:>12.2} {:>12.2} {:>7.1}%  {}",
            "TOTAL",
            self.predicted_total,
            self.measured_total,
            total_err * 100.0,
            if total_err <= self.tolerance {
                "ok"
            } else {
                "DIVERGES"
            }
        );
        out
    }
}

/// `part` followed by the model steps charged to it: `"join (C7)"`,
/// `"update (C6+C8)"`, `"init (C1-C4)"`, or the bare part name when the
/// model charges nothing to it.
fn row_label(model: &Model, part: Part) -> String {
    let names: Vec<&str> = model
        .steps
        .iter()
        .filter(|s| s.part == part)
        .map(|s| s.label)
        .collect();
    let part = part.label();
    match names.as_slice() {
        [] => part.to_string(),
        [one] => format!("{part} ({one})"),
        [a, b] => format!("{part} ({a}+{b})"),
        [first, .., last] => format!("{part} ({first}-{last})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_costmodel::ModelParams;
    use atis_storage::JoinPolicy;

    /// A synthetic observation matching the model exactly: feed the
    /// prediction back as the measurement (in block-read units).
    fn io_costing(units: f64, params: &atis_storage::CostParams) -> IoStats {
        let mut io = IoStats::new();
        io.read_blocks((units / params.t_read).round() as u64);
        io
    }

    fn table_3() -> Model {
        Model::table_3(&ModelParams::table_4a(), JoinPolicy::default())
    }

    /// The model's own prediction for 100 iterations, as measured I/O.
    fn agreeing_steps(model: &Model) -> StepIo {
        let part = |p| io_costing(model.part(p, 100), &model.io);
        StepIo {
            init: part(Part::Init),
            select: part(Part::Select),
            join: part(Part::Join),
            update: part(Part::Update),
            bookkeeping: part(Part::Bookkeeping),
        }
    }

    #[test]
    fn perfect_agreement_is_within_any_tolerance() {
        let model = table_3();
        let report = ModelReport::new("Dijkstra", 100, &agreeing_steps(&model), &model, 0.02);
        assert!(report.within_tolerance(), "{}", report.render());
        assert!(report.divergent().is_empty());
        assert!(report.rows.iter().all(|r| r.relative_error < 0.01));
    }

    #[test]
    fn a_wildly_wrong_step_is_flagged() {
        let model = table_3();
        let mut huge = IoStats::new();
        huge.read_blocks(1_000_000);
        let steps = StepIo {
            select: huge, // ~35000 units against a ~14-unit prediction
            ..agreeing_steps(&model)
        };
        let report = ModelReport::new("Dijkstra", 100, &steps, &model, 0.10);
        assert!(!report.within_tolerance());
        let divergent = report.divergent();
        assert_eq!(divergent.len(), 1);
        assert_eq!(divergent[0].step, "select (C5)");
        assert!(report.render().contains("DIVERGES"));
    }

    #[test]
    fn zero_prediction_rows_are_judged_against_the_total() {
        let model = table_3();
        // Nothing measured, nothing predicted for bookkeeping: fine.
        let report = ModelReport::new("Dijkstra", 10, &StepIo::default(), &model, 0.5);
        let bk = report
            .rows
            .iter()
            .find(|r| r.step == "bookkeeping")
            .unwrap();
        assert!(bk.within);
        // A bookkeeping bucket the size of the whole predicted run: not.
        let mut steps = StepIo::default();
        let mut io = IoStats::new();
        io.read_blocks((report.predicted_total / model.io.t_read) as u64);
        steps.bookkeeping = io;
        let report = ModelReport::new("Dijkstra", 10, &steps, &model, 0.5);
        let bk = report
            .rows
            .iter()
            .find(|r| r.step == "bookkeeping")
            .unwrap();
        assert!(!bk.within);
    }

    #[test]
    fn rows_are_named_by_part_and_the_model_steps_charged_to_it() {
        let labels = |model: &Model| {
            let report = ModelReport::new("run", 59, &StepIo::default(), model, 0.25);
            assert!(report.predicted_total > 0.0);
            report.rows.into_iter().map(|r| r.step).collect::<Vec<_>>()
        };
        let p = ModelParams::table_4a();
        assert_eq!(
            labels(&Model::table_2(
                &p,
                JoinPolicy::default(),
                p.avg_current(59)
            )),
            [
                "init (C1-C4)",
                "select (C5)",
                "join (C6)",
                "update (C7)",
                "bookkeeping (C8)"
            ]
        );
        assert_eq!(
            labels(&table_3()),
            [
                "init (C1-C4)",
                "select (C5)",
                "join (C7)",
                "update (C6+C8)",
                "bookkeeping"
            ]
        );
    }

    #[test]
    fn step_io_totals_sum_the_parts() {
        let mut a = IoStats::new();
        a.read_blocks(2);
        let mut b = IoStats::new();
        b.write_blocks(3);
        let s = StepIo {
            init: a,
            select: b,
            ..Default::default()
        };
        assert_eq!(s.total().block_reads, 2);
        assert_eq!(s.total().block_writes, 3);
    }
}

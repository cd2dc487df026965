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
//! every `RunTrace` carries as its `steps`); the predicted side comes from
//! [`atis_costmodel`]'s [`BestFirstModel`] (Table 3) or
//! [`IterativeModel`] (Table 2). Each row is flagged when it diverges
//! beyond the caller's tolerance.

use atis_costmodel::{BestFirstModel, EstimatorModel, IterativeModel, ModelParams};
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
}

/// One step of a [`ModelReport`]: predicted vs measured cost units.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Step label (e.g. `"select (C5)"`).
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
    /// One row per cost-model step.
    pub rows: Vec<ReportRow>,
    /// Whole-run algebraic prediction.
    pub predicted_total: f64,
    /// Whole-run metered cost.
    pub measured_total: f64,
}

fn make_rows(
    labelled: [(&'static str, f64, IoStats); 5],
    params: &atis_storage::CostParams,
    predicted_total: f64,
    tolerance: f64,
) -> Vec<ReportRow> {
    labelled
        .into_iter()
        .map(|(step, predicted, io)| {
            let measured = io.cost(params);
            let relative_error = if predicted > 0.0 {
                (measured - predicted).abs() / predicted
            } else if predicted_total > 0.0 {
                measured / predicted_total
            } else {
                0.0
            };
            ReportRow {
                step: step.to_string(),
                predicted,
                measured,
                relative_error,
                within: relative_error <= tolerance,
            }
        })
        .collect()
}

/// Builds the Table 3 comparison for a best-first run (Dijkstra or a
/// status-frontier A\*).
pub fn best_first_report(
    algorithm: &str,
    iterations: u64,
    steps: &StepIo,
    mp: ModelParams,
    tolerance: f64,
) -> ModelReport {
    let model = BestFirstModel::new(mp);
    let params = mp.io;
    let iters = iterations as f64;
    let predicted_total = model.total(iterations);
    let rows = make_rows(
        [
            ("init (C1-C4)", model.init_cost(), steps.init),
            ("select (C5)", iters * model.select_cost(), steps.select),
            ("join (C7)", iters * model.join_step_cost(), steps.join),
            (
                "update (C6+C8)",
                iters * model.update_step_cost(),
                steps.update,
            ),
            ("bookkeeping", 0.0, steps.bookkeeping),
        ],
        &params,
        predicted_total,
        tolerance,
    );
    ModelReport {
        algorithm: algorithm.to_string(),
        iterations,
        tolerance,
        rows,
        predicted_total,
        measured_total: steps.total().cost(&params),
    }
}

/// Builds the Table 2 comparison for an iterative (BFS) run, using the
/// paper's no-backtracking average current-set estimate `|R| / L`.
pub fn iterative_report(
    algorithm: &str,
    iterations: u64,
    steps: &StepIo,
    mp: ModelParams,
    tolerance: f64,
) -> ModelReport {
    let model = IterativeModel::new(mp);
    let params = mp.io;
    let iters = iterations as f64;
    let avg_current = mp.r_tuples as f64 / iterations.max(1) as f64;
    let predicted_total = model.total(iterations);
    let rows = make_rows(
        [
            ("init (C1-C4)", model.init_cost(), steps.init),
            (
                "fetch current (C5)",
                iters * model.select_cost(),
                steps.select,
            ),
            (
                "join (C6)",
                iters * model.join_step_cost(avg_current),
                steps.join,
            ),
            (
                "relax+flip (C7)",
                iters * model.update_step_cost(),
                steps.update,
            ),
            (
                "count current (C8)",
                iters * model.count_cost(),
                steps.bookkeeping,
            ),
        ],
        &params,
        predicted_total,
        tolerance,
    );
    ModelReport {
        algorithm: algorithm.to_string(),
        iterations,
        tolerance,
        rows,
        predicted_total,
        measured_total: steps.total().cost(&params),
    }
}

impl ModelReport {
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

/// One metered A\* run, labelled with the tightness the estimator model
/// assigns its estimator — the measured side of an [`EstimatorReport`]
/// row. Take `iterations` and `frontier_peak` straight from the
/// `RunTrace` and `block_reads` from its `IoStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorObservation {
    /// Algorithm label (e.g. `"A* (version 4)"`).
    pub label: String,
    /// Model tightness τ for this estimator (see
    /// [`atis_costmodel::estimator_model`]).
    pub tightness: f64,
    /// Metered main-loop iterations (node expansions).
    pub iterations: u64,
    /// Metered peak frontier cardinality.
    pub frontier_peak: u64,
    /// Metered physical block reads.
    pub block_reads: u64,
}

/// One estimator's predicted-vs-measured line in an [`EstimatorReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorRow {
    /// Algorithm label.
    pub label: String,
    /// Tightness the prediction used.
    pub tightness: f64,
    /// Predicted expansions from the τ-model.
    pub predicted_iterations: f64,
    /// Metered expansions.
    pub measured_iterations: u64,
    /// Predicted peak frontier cardinality.
    pub predicted_frontier_peak: f64,
    /// Metered peak frontier cardinality.
    pub measured_frontier_peak: u64,
    /// Predicted physical block reads.
    pub predicted_block_reads: f64,
    /// Metered physical block reads.
    pub measured_block_reads: u64,
    /// `|measured − predicted| / predicted` on the iteration count (the
    /// quantity the τ-model is calibrated on).
    pub relative_error: f64,
    /// Whether the iteration error stays inside the report's tolerance.
    pub within: bool,
}

/// The estimator-quality companion to [`ModelReport`]: one row per A\*
/// version, each comparing the tightness model's predicted expansions /
/// frontier peak / block reads against a metered run of the same query.
///
/// The τ-model is an envelope model (it predicts curve *shape* and
/// version *ordering*, not 2% accuracy), so callers should pass a
/// correspondingly generous tolerance; [`EstimatorReport::ranked_like_model`]
/// checks the ordering claim separately from the per-row envelopes.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorReport {
    /// Shortest-path hop count of the query all rows ran.
    pub hops: f64,
    /// Relative-error tolerance each row's iteration count was checked
    /// against.
    pub tolerance: f64,
    /// One row per observed estimator, in the caller's order.
    pub rows: Vec<EstimatorRow>,
}

/// Builds the estimator-quality comparison: for each observed run,
/// predicts expansions, frontier peak, and block reads from the
/// estimator's tightness and the query's hop count, and scores the
/// iteration prediction against the metered value.
pub fn estimator_report(
    hops: f64,
    observations: &[EstimatorObservation],
    mp: ModelParams,
    tolerance: f64,
) -> EstimatorReport {
    let rows = observations
        .iter()
        .map(|o| {
            let model = EstimatorModel::new(mp, o.tightness);
            let predicted_iterations = model.predicted_iterations(hops);
            let relative_error =
                (o.iterations as f64 - predicted_iterations).abs() / predicted_iterations;
            EstimatorRow {
                label: o.label.clone(),
                tightness: model.tightness,
                predicted_iterations,
                measured_iterations: o.iterations,
                predicted_frontier_peak: model.predicted_frontier_peak(hops),
                measured_frontier_peak: o.frontier_peak,
                predicted_block_reads: model.predicted_block_reads(hops),
                measured_block_reads: o.block_reads,
                relative_error,
                within: relative_error <= tolerance,
            }
        })
        .collect();
    EstimatorReport {
        hops,
        tolerance,
        rows,
    }
}

impl EstimatorReport {
    /// Whether every row's iteration prediction stays inside the
    /// tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.rows.iter().all(|r| r.within)
    }

    /// The model's headline claim: sorting the versions by *predicted*
    /// expansions gives the same order as sorting by *measured*
    /// expansions (ties in either ranking are allowed to flip).
    pub fn ranked_like_model(&self) -> bool {
        self.rows.windows(2).all(|w| {
            match w[0]
                .predicted_iterations
                .partial_cmp(&w[1].predicted_iterations)
            {
                Some(std::cmp::Ordering::Less) => {
                    w[0].measured_iterations <= w[1].measured_iterations
                }
                Some(std::cmp::Ordering::Greater) => {
                    w[0].measured_iterations >= w[1].measured_iterations
                }
                _ => true,
            }
        })
    }

    /// Renders the report as an aligned text table (one row per
    /// estimator) with a verdict column, in the same style as
    /// [`ModelReport::render`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "estimator quality — model vs measured over {} hops (tolerance {:.0}%)",
            self.hops,
            self.tolerance * 100.0
        );
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>16} {:>14} {:>16} {:>8}  verdict",
            "algorithm", "τ", "iters pred/meas", "peak pred/meas", "reads pred/meas", "err"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<18} {:>5.2} {:>9.0}/{:<6} {:>8.0}/{:<5} {:>10.0}/{:<5} {:>7.0}%  {}",
                r.label,
                r.tightness,
                r.predicted_iterations,
                r.measured_iterations,
                r.predicted_frontier_peak,
                r.measured_frontier_peak,
                r.predicted_block_reads,
                r.measured_block_reads,
                r.relative_error * 100.0,
                if r.within { "ok" } else { "DIVERGES" }
            );
        }
        let _ = writeln!(
            out,
            "ranking: {}",
            if self.ranked_like_model() {
                "measured order matches the model"
            } else {
                "ORDER FLIPPED"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic observation matching the model exactly: feed the
    /// prediction back as the measurement (in block-read units).
    fn io_costing(units: f64, params: &atis_storage::CostParams) -> IoStats {
        let mut io = IoStats::new();
        io.read_blocks((units / params.t_read).round() as u64);
        io
    }

    #[test]
    fn perfect_agreement_is_within_any_tolerance() {
        let mp = ModelParams::table_4a();
        let model = BestFirstModel::new(mp);
        let steps = StepIo {
            init: io_costing(model.init_cost(), &mp.io),
            select: io_costing(100.0 * model.select_cost(), &mp.io),
            join: io_costing(100.0 * model.join_step_cost(), &mp.io),
            update: io_costing(100.0 * model.update_step_cost(), &mp.io),
            bookkeeping: IoStats::new(),
        };
        let report = best_first_report("Dijkstra", 100, &steps, mp, 0.02);
        assert!(report.within_tolerance(), "{}", report.render());
        assert!(report.divergent().is_empty());
        assert!(report.rows.iter().all(|r| r.relative_error < 0.01));
    }

    #[test]
    fn a_wildly_wrong_step_is_flagged() {
        let mp = ModelParams::table_4a();
        let model = BestFirstModel::new(mp);
        let mut huge = IoStats::new();
        huge.read_blocks(1_000_000);
        let steps = StepIo {
            init: io_costing(model.init_cost(), &mp.io),
            select: huge, // ~35000 units against a ~14-unit prediction
            join: io_costing(100.0 * model.join_step_cost(), &mp.io),
            update: io_costing(100.0 * model.update_step_cost(), &mp.io),
            bookkeeping: IoStats::new(),
        };
        let report = best_first_report("Dijkstra", 100, &steps, mp, 0.10);
        assert!(!report.within_tolerance());
        let divergent = report.divergent();
        assert_eq!(divergent.len(), 1);
        assert_eq!(divergent[0].step, "select (C5)");
        assert!(report.render().contains("DIVERGES"));
    }

    #[test]
    fn zero_prediction_rows_are_judged_against_the_total() {
        let mp = ModelParams::table_4a();
        // Nothing measured, nothing predicted for bookkeeping: fine.
        let report = best_first_report("Dijkstra", 10, &StepIo::default(), mp, 0.5);
        let bk = report
            .rows
            .iter()
            .find(|r| r.step == "bookkeeping")
            .unwrap();
        assert!(bk.within);
        // A bookkeeping bucket the size of the whole predicted run: not.
        let mut steps = StepIo::default();
        let mut io = IoStats::new();
        io.read_blocks((report.predicted_total / mp.io.t_read) as u64);
        steps.bookkeeping = io;
        let report = best_first_report("Dijkstra", 10, &steps, mp, 0.5);
        let bk = report
            .rows
            .iter()
            .find(|r| r.step == "bookkeeping")
            .unwrap();
        assert!(!bk.within);
    }

    #[test]
    fn iterative_report_names_table2_steps() {
        let mp = ModelParams::table_4a();
        let report = iterative_report("Iterative", 59, &StepIo::default(), mp, 0.25);
        let labels: Vec<&str> = report.rows.iter().map(|r| r.step.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "init (C1-C4)",
                "fetch current (C5)",
                "join (C6)",
                "relax+flip (C7)",
                "count current (C8)"
            ]
        );
        assert!(report.predicted_total > 0.0);
    }

    fn observed(label: &str, tightness: f64, iterations: u64) -> EstimatorObservation {
        EstimatorObservation {
            label: label.to_string(),
            tightness,
            iterations,
            frontier_peak: 0,
            block_reads: 0,
        }
    }

    #[test]
    fn estimator_report_scores_each_version_against_its_tau() {
        use atis_costmodel::{alt_tightness, TIGHTNESS_MANHATTAN, TIGHTNESS_ZERO};
        let mp = ModelParams::table_4a();
        // Feed each row its own prediction back: zero error everywhere.
        let obs: Vec<EstimatorObservation> = [
            ("Dijkstra", TIGHTNESS_ZERO),
            ("A* (version 3)", TIGHTNESS_MANHATTAN),
            ("A* (version 4)", alt_tightness(8)),
        ]
        .into_iter()
        .map(|(label, tau)| {
            let n = EstimatorModel::new(mp, tau).predicted_iterations(58.0);
            observed(label, tau, n.round() as u64)
        })
        .collect();
        let report = estimator_report(58.0, &obs, mp, 0.05);
        assert!(report.within_tolerance(), "{}", report.render());
        assert!(report.ranked_like_model());
        assert!(report.render().contains("A* (version 4)"));
    }

    #[test]
    fn estimator_report_flags_divergence_and_order_flips() {
        let mp = ModelParams::table_4a();
        // v4 (tight) measured *worse* than v3 (loose): both the envelope
        // and the ranking must complain.
        let obs = vec![observed("v3", 0.2, 430), observed("v4", 0.9, 800)];
        let report = estimator_report(58.0, &obs, mp, 0.5);
        assert!(!report.within_tolerance());
        assert!(!report.ranked_like_model());
        assert!(report.render().contains("DIVERGES"));
        assert!(report.render().contains("ORDER FLIPPED"));
    }

    #[test]
    fn estimator_report_allows_ties_in_the_ranking() {
        let mp = ModelParams::table_4a();
        let obs = vec![observed("a", 0.5, 300), observed("b", 0.5, 290)];
        let report = estimator_report(58.0, &obs, mp, 2.0);
        assert!(report.ranked_like_model());
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

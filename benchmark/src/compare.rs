//! `compare A B`: applies the end-to-end bounds per (metric, workload) to
//! two result sets and prints one verdict per pair.
//!
//! A result set is a file of run records, one JSON object per line — what
//! `repeat.sh` collects from `out/<workload>.json`. With several runs per
//! workload the medians are compared and the run-to-run spread (distance
//! between the quartiles, as a share of the median) decides whether the
//! comparison can be resolved at all. A run that failed its own checks (a
//! wrong answer, a generator-limited phase) measured something else: it is
//! counted and left out.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Bound, Metric};
use crate::stats;
use std::collections::BTreeMap;

/// workload → metric → the values of its runs.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The runs of a result-set file that passed their own checks, and how
/// many did not.
pub fn parse_set(text: &str) -> Result<(ResultSet, usize), String> {
    let mut set = ResultSet::new();
    let mut failed_runs = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if matches!(record.get("correct"), Some(Value::Bool(false))) {
            failed_runs += 1;
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = record
            .get("metrics")
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, observation) in metrics.fields() {
            if let Some(value) = observation.get("value").and_then(Value::as_f64) {
                per_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok((set, failed_runs))
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The spread between runs of one side is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    /// Distance between the first and third quartile (0 for one run).
    pub iqr: f64,
    pub runs: usize,
}

pub fn summarize(values: &[f64]) -> Option<Summary> {
    let sorted = stats::sorted(values.to_vec());
    let (median, iqr) = match stats::quartiles(&sorted) {
        Some((q1, q2, q3)) => (q2, q3 - q1),
        None => (*sorted.first()?, 0.0),
    };
    Some(Summary {
        median,
        iqr,
        runs: sorted.len(),
    })
}

/// The verdict on one (metric, workload) pair: `base` is the parent's
/// runs, `new` the change's.
pub fn judge(metric: &Metric, base: Summary, new: Summary) -> Verdict {
    // Positive = worse, in the metric's own unit.
    let worsening = match metric.better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    let (allowed, spread) = match metric.bound {
        Some(Bound::Relative(share)) => (share * base.median.abs(), base.iqr.max(new.iqr)),
        Some(Bound::Absolute(amount)) => (amount, base.iqr.max(new.iqr)),
        Some(Bound::Exact) | None => (0.0, 0.0),
    };
    if spread > allowed {
        Verdict::Unresolved
    } else if worsening > allowed {
        Verdict::Worse
    } else if worsening < -allowed {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn bound_label(bound: Option<Bound>) -> String {
    match bound {
        Some(Bound::Relative(s)) => format!("{:.0} %", s * 100.0),
        Some(Bound::Absolute(a)) => format!("+{a} abs"),
        Some(Bound::Exact) => "exact".to_string(),
        None => "-".to_string(),
    }
}

/// The comparison table and whether any pair came out worse.
pub fn compare(base: &ResultSet, new: &ResultSet) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<22} {:<11} {:>14} {:>14} {:>9} {:>9} {:>10}  verdict",
        "metric", "workload", "base median", "new median", "new/base", "spread", "bound"
    );
    for metric in &metrics::END_TO_END {
        for (workload, base_metrics) in base {
            let (Some(b), Some(n)) = (
                base_metrics.get(metric.name).and_then(|v| summarize(v)),
                new.get(workload)
                    .and_then(|m| m.get(metric.name))
                    .and_then(|v| summarize(v)),
            ) else {
                continue;
            };
            let verdict = judge(metric, b, n);
            any_worse |= verdict == Verdict::Worse;
            let ratio = if b.median != 0.0 {
                format!("{:.4}", n.median / b.median)
            } else {
                "-".to_string()
            };
            // In the unit the bound is in: a share of the base median, or
            // the metric's own unit for an absolute bound.
            let absolute = matches!(metric.bound, Some(Bound::Absolute(_)));
            let spread = if b.median != 0.0 && !absolute {
                format!("{:.2} %", 100.0 * b.iqr.max(n.iqr) / b.median.abs())
            } else {
                format!("{:.4}", b.iqr.max(n.iqr))
            };
            let _ = writeln!(
                out,
                "{:<22} {:<11} {:>14.4} {:>14.4} {:>9} {:>9} {:>10}  {} ({} vs {} runs)",
                metric.name,
                workload,
                b.median,
                n.median,
                ratio,
                spread,
                bound_label(metric.bound),
                verdict.label(),
                b.runs,
                n.runs
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(value: f64) -> Summary {
        Summary {
            median: value,
            iqr: 0.0,
            runs: 1,
        }
    }

    fn metric(name: &str) -> &'static Metric {
        metrics::end_to_end(name).unwrap()
    }

    #[test]
    fn relative_bounds_follow_the_direction_that_is_better() {
        let p50 = metric("route_p50_ms"); // lower is better, 10 %
        assert_eq!(judge(p50, one(1.0), one(1.09)), Verdict::WithinBound);
        assert_eq!(judge(p50, one(1.0), one(1.11)), Verdict::Worse);
        assert_eq!(judge(p50, one(1.0), one(0.85)), Verdict::Better);
        let sat = metric("sat_routes_per_s"); // higher is better, 10 %
        assert_eq!(judge(sat, one(1000.0), one(880.0)), Verdict::Worse);
        assert_eq!(judge(sat, one(1000.0), one(1200.0)), Verdict::Better);
        assert_eq!(judge(sat, one(1000.0), one(950.0)), Verdict::WithinBound);
    }

    #[test]
    fn absolute_and_exact_bounds() {
        let slo = metric("slo_miss_frac"); // +0.02 absolute
        assert_eq!(judge(slo, one(0.0), one(0.019)), Verdict::WithinBound);
        assert_eq!(judge(slo, one(0.0), one(0.021)), Verdict::Worse);
        let wrong = metric("wrong_answers"); // exact
        assert_eq!(judge(wrong, one(0.0), one(0.0)), Verdict::WithinBound);
        assert_eq!(judge(wrong, one(0.0), one(1.0)), Verdict::Worse);
        let units = metric("cost_units_per_route");
        assert_eq!(judge(units, one(9.4), one(9.4)), Verdict::WithinBound);
        assert_eq!(judge(units, one(9.4), one(9.3)), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let p99 = metric("route_p99_ms");
        let noisy = Summary {
            median: 10.0,
            iqr: 1.5,
            runs: 10,
        };
        assert_eq!(judge(p99, noisy, one(10.0)), Verdict::Unresolved);
        assert_eq!(judge(p99, one(10.0), noisy), Verdict::Unresolved);
        let steady = Summary {
            median: 10.0,
            iqr: 0.5,
            runs: 10,
        };
        assert_eq!(judge(p99, steady, one(10.2)), Verdict::WithinBound);
    }

    #[test]
    fn result_sets_group_runs_by_workload_and_skip_missing_values() {
        let text = "\
{\"workload\":\"a\",\"metrics\":{\"route_p50_ms\":{\"value\":1.0,\"unit\":\"ms\",\"n\":5},\"route_p99_ms\":{\"value\":null,\"unit\":\"ms\",\"n\":5}}}\n\
{\"workload\":\"a\",\"metrics\":{\"route_p50_ms\":{\"value\":3.0,\"unit\":\"ms\",\"n\":5}}}\n\
\n\
{\"workload\":\"b\",\"metrics\":{\"route_p50_ms\":{\"value\":2.0,\"unit\":\"ms\",\"n\":5}}}\n\
{\"workload\":\"b\",\"correct\":false,\"metrics\":{\"route_p50_ms\":{\"value\":9.0,\"unit\":\"ms\",\"n\":5}}}\n";
        let (set, failed_runs) = parse_set(text).unwrap();
        assert_eq!(failed_runs, 1, "the run that failed its checks is left out");
        assert_eq!(set["a"]["route_p50_ms"], vec![1.0, 3.0]);
        assert!(!set["a"].contains_key("route_p99_ms"));
        assert_eq!(set["b"]["route_p50_ms"], vec![2.0]);
        let (table, worse) = compare(&set, &set);
        assert!(!worse);
        assert!(table.contains("route_p50_ms"));
        assert!(parse_set("{\"metrics\":{}}").is_err());
    }
}

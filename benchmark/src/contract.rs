//! The growth driver's contract (`BENCHMARK.json`): the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — every `end_to_end` metric of `BENCHMARK.json` after an
//! untraced run, every `per_layer` metric after a traced one.
//!
//! The contract takes one list of metrics for all workloads, each defined
//! and never 0 on every one of them, and refuses a metric whose spread
//! over ten seeds exceeds its bound (at most 25 %). ISSUE 11's end-to-end
//! metrics are per workload — a saturation rate where there is a
//! saturation phase, update latencies where there are updates — so the
//! driver's list is [`DRIVER_GATED`]: the harness metrics that exist
//! everywhere, plus one slot, `subject_ms`, that carries the timing each
//! workload exists to show (`Workload::subject`). The rest are still
//! printed by every run and judged by `compare`, and those defined on
//! every workload reach the driver as per-layer metrics under `serve.`
//! (see the README's "What the driver sees").

use crate::json;
use crate::metrics::{self, Better};
use crate::run::{Options, Report};

/// Where a driver-gated metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// The harness metric of this name.
    Metric(&'static str),
    /// The harness metric the workload names as its subject.
    Subject,
    /// `1 - slo_miss_frac`: the share of requests that met the limit, which
    /// is never 0 where `slo_miss_frac` is 0 whenever all is well.
    SloOk,
}

/// One driver-gated end-to-end metric. `bound` is the driver's — about
/// three times the spread measured over ten seeds (`baseline/`), at most
/// 0.25 — not the bound `compare` applies, which is ISSUE 11's.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub source: Source,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: Source,
) -> Gated {
    Gated {
        name,
        unit,
        better,
        bound,
        source,
    }
}

pub const DRIVER_GATED: [Gated; 6] = [
    gated(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        Source::Metric("setup_s"),
    ),
    gated("subject_ms", "ms", Better::Lower, 0.25, Source::Subject),
    gated("slo_ok_frac", "share", Better::Higher, 0.25, Source::SloOk),
    gated(
        "cpu_ms_per_route",
        "ms",
        Better::Lower,
        0.25,
        Source::Metric("cpu_ms_per_route"),
    ),
    gated(
        "cost_units_per_route",
        "units",
        Better::Lower,
        0.15,
        Source::Metric("cost_units_per_route"),
    ),
    gated(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        0.1,
        Source::Metric("peak_rss_mb"),
    ),
];

/// End-to-end metrics of the traced run's observed re-run that exist on
/// every workload, which the driver sees as per-layer metrics of the serve
/// layer: (contract name, harness name).
pub const DEMOTED: [(&str, &str); 6] = [
    ("serve.route_p50_ms", "route_p50_ms"),
    ("serve.route_p99_ms", "route_p99_ms"),
    ("serve.slo_miss_frac", "slo_miss_frac"),
    ("serve.fail_frac", "fail_frac"),
    ("serve.degraded_frac", "degraded_frac"),
    ("serve.wrong_answers", "wrong_answers"),
];

/// (contract name, unit) of every per-layer metric a traced run hands the
/// driver, in order.
pub fn per_layer_names() -> Vec<(&'static str, &'static str)> {
    let unit_of = |name: &str| metrics::end_to_end(name).map_or("", |m| m.unit);
    metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(
            DEMOTED
                .iter()
                .map(|&(name, source)| (name, unit_of(source))),
        )
        .collect()
}

fn gated_value(g: &Gated, opts: &Options, report: &Report) -> Option<f64> {
    let measured = |name: &str| report.metrics.get(name).and_then(|obs| obs.value);
    match g.source {
        Source::Metric(name) => measured(name),
        Source::Subject => measured(opts.workload.subject),
        Source::SloOk => measured("slo_miss_frac").map(|miss| 1.0 - miss),
    }
}

/// What the growth driver gates on after an untraced run, readably: one
/// line per metric with its source, direction and the driver's bound.
pub fn gated_lines(opts: &Options, report: &Report) -> Vec<String> {
    DRIVER_GATED
        .iter()
        .map(|g| {
            let source = match g.source {
                Source::Metric(_) => String::new(),
                Source::Subject => format!(" = {}", opts.workload.subject),
                Source::SloOk => " = 1 - slo_miss_frac".to_string(),
            };
            let value = gated_value(g, opts, report)
                .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
            let better = match g.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            format!(
                "  {:<42} {value:>16} {:<6} {better} is better, may worsen {:.0} %",
                format!("{}{source}", g.name),
                g.unit,
                g.bound * 100.0
            )
        })
        .collect()
}

/// The result line for `report`.
///
/// # Errors
/// Fails when a contract metric has no value: the driver must not be
/// handed a number that was not measured.
pub fn result_line(opts: &Options, report: &Report) -> Result<String, String> {
    let values: Vec<(&str, &str, Option<f64>)> = if opts.trace {
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = report.metrics.get(name).and_then(|obs| obs.value);
                (name, unit, value)
            })
            .collect()
    } else {
        DRIVER_GATED
            .iter()
            .map(|g| (g.name, g.unit, gated_value(g, opts, report)))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit, value) in values {
        let value = value.ok_or_else(|| format!("contract metric {name} was not measured"))?;
        fields.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(name),
            json::number(value),
            json::quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workload::WORKLOADS;

    fn listed(doc: &Value, key: &str) -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                ["name", "unit", "better"]
                    .iter()
                    .map(|f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string())
                    .collect()
            })
            .collect()
    }

    fn label(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// harness emits, with the harness's units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let gated: Vec<Vec<String>> = DRIVER_GATED
            .iter()
            .map(|g| vec![g.name.into(), g.unit.into(), label(g.better).into()])
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), gated);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .collect();
        let ours: Vec<f64> = DRIVER_GATED.iter().map(|g| g.bound).collect();
        assert_eq!(bounds, ours);
        assert!(ours.iter().all(|&b| b > 0.0 && b <= 0.25));
        assert_eq!(DRIVER_GATED[0].name, "setup_s");

        let layers: Vec<Vec<String>> = per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let better = metrics::PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .or_else(|| {
                        let source = DEMOTED.iter().find(|d| d.0 == name)?.1;
                        metrics::end_to_end(source)
                    })
                    .map(|m| label(m.better))
                    .unwrap();
                vec![name.into(), unit.into(), better.into()]
            })
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);

        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|w| w[0].clone())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    /// Every workload's subject is an end-to-end timing in milliseconds
    /// that the workload measures.
    #[test]
    fn every_subject_is_a_timing_the_workload_has() {
        for w in &WORKLOADS {
            let metric = metrics::end_to_end(w.subject)
                .unwrap_or_else(|| panic!("{}: no metric {}", w.name, w.subject));
            assert_eq!(metric.unit, "ms", "{}", w.name);
            if w.subject.starts_with("update_") {
                let updates = w.updates.expect("an update latency needs updates");
                assert!(w.subject != "update_dec_p50_ms" || updates.decrease_every > 0);
            }
        }
    }
}

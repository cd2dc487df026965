//! The repository's benchmark: the serving stack as we would ship it, on
//! metro networks, under open-loop load, with per-layer probes. See
//! `README.md` beside this package and `BENCHMARK.json` at the repository
//! root.

mod compare;
mod contract;
mod inputs;
mod json;
mod load;
mod metrics;
mod probe;
mod run;
mod stack;
mod stats;
mod verify;
mod workload;

use run::{Options, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed runs use when none is given. The second documented seed is
/// 2024: confirm a claim on the one it was not developed on.
const DEFAULT_SEED: u64 = 1993;
/// Timed seconds of a `--smoke` run.
const SMOKE_SECONDS: f64 = 2.4;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       benchmark/run.sh compare BASE.jsonl NEW.jsonl

  --workload NAME   one of cold-10k, hot-10k, storm-10k, cold-100k (default: all four)
  --seed N          seeds the OD lists, Zipf pool, Poisson schedules and update script
                    (default 1993; 2024 is the second documented seed)
  --seconds S       timed seconds per workload, every phase scaled alike (default: the
                    workload's own lengths - 32 s, storm-10k and cold-100k 30 s)
  --trace [0|1]     1 (or bare): the traced run — layer probes, per-layer metrics,
                    span file; 0: the untraced run — end-to-end metrics (default)
  --smoke           the same shapes on metro-1k for a few seconds (harness self-test)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                out.workload = Some(value(i)?.clone());
                i += 1;
            }
            "--seed" => {
                out.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                out.seconds = Some(s);
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    out.trace = false;
                    i += 1;
                }
                Some("1") => {
                    out.trace = true;
                    i += 1;
                }
                _ => out.trace = true,
            },
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(out)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The package directory (`benchmark/`): results go under `out/` there.
fn package_dir() -> PathBuf {
    std::env::var_os("ATIS_BENCHMARK_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// (name, unit) of every metric a run of this kind reports: all the
/// end-to-end metrics untraced, everything the driver gets traced.
fn reported(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        contract::per_layer_names()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    }
}

fn print_report(name: &str, opts: &Options, report: &Report) {
    let what = if opts.smoke {
        format!(
            "the {name} shape on {} (harness self-test: its numbers are not metrics)",
            opts.workload.network
        )
    } else {
        opts.workload.why.to_string()
    };
    println!(
        "== {name}: {what} — seed {}, {} timed s, {}, nproc {}",
        opts.seed,
        opts.seconds,
        if opts.trace {
            "traced run (per-layer metrics)"
        } else {
            "untraced run (end-to-end metrics)"
        },
        nproc()
    );
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "  {:<42} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (metric, unit) in reported(opts.trace) {
        let Some(obs) = report.metrics.get(metric) else {
            continue;
        };
        let value = obs.value.map_or_else(
            || {
                if obs.n == 0 {
                    "n/a".to_string()
                } else {
                    "too few".to_string()
                }
            },
            |v| format!("{v:.4}"),
        );
        println!("  {metric:<42} {value:>16} {unit:<6} {:>8}", obs.n);
    }
    if !opts.trace {
        println!("  the growth driver gates on (BENCHMARK.json):");
        for line in contract::gated_lines(opts, report) {
            println!("{line}");
        }
    }
    for problem in &report.problems {
        println!("  PROBLEM: {problem}");
    }
}

/// The run's record, one JSON object on one line: concatenate the files
/// of several runs and you have a result set `compare` reads.
fn record_json(name: &str, opts: &Options, report: &Report) -> String {
    let fields: Vec<String> = reported(opts.trace)
        .into_iter()
        .filter_map(|(metric, unit)| {
            let obs = report.metrics.get(metric)?;
            Some(format!(
                "{}:{{\"value\":{},\"unit\":{},\"n\":{}}}",
                json::quote(metric),
                obs.value.map_or("null".to_string(), json::number),
                json::quote(unit),
                obs.n
            ))
        })
        .collect();
    let problems: Vec<String> = report.problems.iter().map(|p| json::quote(p)).collect();
    let late: Vec<String> = report
        .generator_limited
        .iter()
        .map(|p| json::quote(p))
        .collect();
    let lateness: Vec<String> = report
        .lateness_ms
        .iter()
        .map(|(phase, [p50, p90, p99])| {
            format!(
                "{}:{{\"p50\":{},\"p90\":{},\"p99\":{}}}",
                json::quote(phase),
                json::number(*p50),
                json::number(*p90),
                json::number(*p99)
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{},\
         \"digest\":\"{:016x}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"problems\":[{}],\
         \"generator_limited\":[{}],\"lateness_ms\":{{{}}},\"metrics\":{{{}}}}}",
        json::quote(name),
        opts.seed,
        json::number(opts.seconds),
        opts.trace,
        opts.smoke,
        nproc(),
        report.digest,
        report.correct,
        report.attempted,
        report.failed,
        problems.join(","),
        late.join(","),
        lateness.join(","),
        fields.join(",")
    )
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let workload =
        workload::find(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let workload = if args.smoke {
        workload.smoke()
    } else {
        workload
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            workload.default_seconds()
        }),
        trace: args.trace,
        smoke: args.smoke,
    };
    let out_dir = package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let prefix = if args.smoke { "smoke-" } else { "" };
    let report = if opts.trace {
        run::traced(&opts, &out_dir.join(format!("{prefix}trace-{name}.jsonl")))
    } else {
        run::untraced(&opts)
    };
    print_report(name, &opts, &report);
    let file = if opts.trace {
        format!("{prefix}layers-{name}.json")
    } else {
        format!("{prefix}{name}.json")
    };
    let path = out_dir.join(file);
    std::fs::write(&path, record_json(name, &opts, &report) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  record written to {}", path.display());
    // The last line of standard output: the result the driver reads.
    println!("{}", contract::result_line(&opts, &report)?);
    Ok(report.correct)
}

/// All four workloads, each in a process of its own so that peak memory
/// is the workload's, not the sum of its predecessors'.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in &workload::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(raw)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn compare_sets(base: &Path, new: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| compare::parse_set(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    let ((base_set, base_failed), (new_set, new_failed)) = (read(base)?, read(new)?);
    let (table, any_worse) = compare::compare(&base_set, &new_set);
    println!("base {}  new {}", base.display(), new.display());
    if base_failed + new_failed > 0 {
        println!(
            "left out: {base_failed} run(s) of base and {new_failed} of new that failed their own checks"
        );
    }
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("compare") if raw.len() == 3 => compare_sets(Path::new(&raw[1]), Path::new(&raw[2])),
        Some("compare") | Some("--help") | Some("-h") => Err(USAGE.to_string()),
        _ => parse_args(&raw).and_then(|args| match &args.workload {
            Some(name) => run_one(name, &args),
            None => run_all(&raw),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_value() {
        assert!(!args(&[]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        let a = args(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
        // The driver's exact argument order.
        let a = args(&[
            "--workload",
            "hot-10k",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("hot-10k"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(15.0), false));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}

//! CLI for the workspace invariant analyzer.
//!
//! ```sh
//! atis-analyze check [--root DIR] [--format text|json]
//! atis-analyze graph [--root DIR] --dot   # Graphviz dump of the call graph
//! atis-analyze rules                      # print the rule table and lock order
//! ```
//!
//! `check` exits 0 when clean, 1 with findings, 2 on usage or scan
//! errors. Text findings print one header line plus the indented
//! call-chain witness; `--format json` emits a machine-readable array
//! (rule id, file:line, message, witness) for CI artifacts.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => {
            let opts = match CheckOpts::parse(&args[1..]) {
                Ok(opts) => opts,
                Err(msg) => {
                    eprintln!("{msg}");
                    return usage();
                }
            };
            run_check(&opts)
        }
        Some("graph") => {
            let root = match parse_graph_args(&args[1..]) {
                Ok(root) => root,
                Err(msg) => {
                    eprintln!("{msg}");
                    return usage();
                }
            };
            match atis_analyze::build_graph(&root) {
                Ok(g) => {
                    print!("{}", g.to_dot());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("atis-analyze: workspace scan failed: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("rules") => {
            println!("{:<30} {:<44} scope", "rule", "summary");
            for r in atis_analyze::RULES {
                println!("{:<30} {:<44} {}", r.id, r.summary, r.scope);
            }
            println!("\nlock acquisition order (the lock-order rule):");
            for (name, rank, what) in atis_analyze::LOCK_ORDER {
                println!("  {rank}. {name:<14} {what}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

struct CheckOpts {
    root: PathBuf,
    json: bool,
}

impl CheckOpts {
    fn parse(args: &[String]) -> Result<CheckOpts, String> {
        let mut opts = CheckOpts {
            root: PathBuf::from("."),
            json: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--root" => opts.root = PathBuf::from(value("--root")?),
                "--format" => {
                    opts.json = match value("--format")? {
                        "json" => true,
                        "text" => false,
                        other => return Err(format!("unknown format `{other}`")),
                    }
                }
                other => return Err(format!("unrecognized argument: {other}")),
            }
        }
        Ok(opts)
    }
}

fn run_check(opts: &CheckOpts) -> ExitCode {
    match atis_analyze::check_workspace(&opts.root) {
        Ok(findings) if findings.is_empty() => {
            if opts.json {
                println!("[]");
            } else {
                println!(
                    "atis-analyze: workspace clean ({} rules)",
                    atis_analyze::RULES.len()
                );
            }
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            if opts.json {
                println!("{}", atis_analyze::findings_to_json(&findings));
            } else {
                for f in &findings {
                    eprintln!("{f}");
                    for hop in &f.witness {
                        eprintln!("    {hop}");
                    }
                }
                eprintln!(
                    "atis-analyze: {} finding(s); see ANALYSIS.md for rules and \
                     `analyze::allow(rule): reason` escape hatches",
                    findings.len()
                );
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("atis-analyze: workspace scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_graph_args(args: &[String]) -> Result<PathBuf, String> {
    let mut root = PathBuf::from(".");
    let mut dot = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dot" => dot = true,
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root requires a value".to_string())?,
                )
            }
            other => return Err(format!("unrecognized argument: {other}")),
        }
    }
    if !dot {
        return Err("graph requires --dot (the only supported output)".to_string());
    }
    Ok(root)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: atis-analyze <check [--root DIR] [--format text|json] \
         | graph [--root DIR] --dot | rules>"
    );
    ExitCode::from(2)
}

//! CLI for the serve crate's lock-order checker.
//!
//! ```sh
//! atis-analyze check [--root DIR]   # lint crates/serve/src under DIR
//! atis-analyze rules                # print the lock-order table
//! ```
//!
//! `check` exits 0 when clean, 1 with findings, 2 on usage or scan
//! errors. Each finding prints one header line plus its indented
//! call-chain witness.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["check"] => run_check(PathBuf::from(".")),
        ["check", "--root", root] => run_check(PathBuf::from(root)),
        ["rules"] => {
            println!(
                "lock acquisition order (the {} rule):",
                atis_analyze::lock_order::ID
            );
            for (name, rank, what) in atis_analyze::LOCK_ORDER {
                println!("  {rank}. {name:<14} {what}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: atis-analyze <check [--root DIR] | rules>");
            ExitCode::from(2)
        }
    }
}

fn run_check(root: PathBuf) -> ExitCode {
    match atis_analyze::check_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("atis-analyze: serve crate clean (lock order)");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
                for hop in &f.witness {
                    eprintln!("    {hop}");
                }
            }
            eprintln!(
                "atis-analyze: {} finding(s); see ANALYSIS.md for the lock ranks",
                findings.len()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("atis-analyze: workspace scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

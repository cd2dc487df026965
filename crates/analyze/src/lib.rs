//! # atis-analyze — the workspace invariant analyzer
//!
//! Repo-specific conventions — bit-determinism of the algorithm crates,
//! the `IoStats` metering choke point, panic hygiene on the serving
//! path, and the serve crate's lock discipline — were enforced only by
//! review until this crate existed. `atis-analyze` turns them into
//! machine-checked rules that run at `cargo` time:
//!
//! ```sh
//! cargo run -p atis-analyze -- check             # exit 1 + findings on stderr
//! cargo run -p atis-analyze -- check --format json
//! cargo run -p atis-analyze -- graph --dot       # call-graph dump
//! cargo run -p atis-analyze -- rules             # the rule table
//! ```
//!
//! One pipeline runs over every first-party source file ([`workspace`]):
//!
//! * A hand-rolled Rust tokenizer ([`lexer`], standing in for `syn`,
//!   which the offline build cannot fetch) feeds the per-file token
//!   rules ([`rules`]).
//! * An item-level parser ([`parser`]) recovers `fn`/`impl` items and
//!   brace-matched bodies from the same tokens, a resolved cross-crate
//!   call graph ([`graph`]) links them, and the graph passes
//!   ([`passes`]) check what one file cannot show: lock ranks held
//!   across calls, raw I/O escaping the `IoStats` cost model, panic
//!   sites reachable from the serving roots, and error variants that
//!   fall through the degrade ladder unmatched.
//!
//! Escape hatches are comment directives (`analyze::allow(rule):
//! reason` / `analyze::allow-file(...)`); directives that suppress
//! nothing are themselves findings (`unused-allow`), so stale allows
//! cannot mask regressions. `#[cfg(test)]` items and `#[test]`
//! functions are stripped before anything runs.
//!
//! `ANALYSIS.md` at the repository root documents every rule, the
//! resolution/ambiguity policy, and the directive syntax;
//! `tests/linter.rs` and `tests/ipa.rs` pin both directions (each rule
//! trips on its fixture; the workspace at HEAD is clean).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod rules;
pub mod workspace;

pub use passes::lock_order::LOCK_ORDER;
pub use rules::{Finding, RULES};

use std::io;
use std::path::Path;

/// Runs the token rules, the graph passes and unused-allow detection
/// over an in-memory file set of `(repo-relative path, source)` pairs
/// (the path determines rule scoping) and returns unsuppressed findings
/// sorted by `(path, line, rule)`.
pub fn check_files(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut allows_by_path: Vec<(String, lexer::Allows)> = Vec::new();
    let mut parsed = Vec::new();
    for (path, source) in files {
        let (tokens, allows) = lexer::lex(source);
        let tokens = rules::strip_test_regions(&tokens);
        findings.extend(rules::run_all(path, &tokens));
        parsed.push(parser::parse_file(path, tokens));
        allows_by_path.push((path.clone(), allows));
    }
    findings.extend(passes::run_graph_passes(&graph::CallGraph::build(parsed)));
    let covered = |rule: &str, path: &str, line: u32| {
        allows_by_path
            .iter()
            .find(|(p, _)| p == path)
            .is_some_and(|(_, a)| a.covers(rule, line) || a.covers("all", line))
    };
    findings.retain(|f| !covered(f.rule, &f.path, f.line));
    let mut unused = Vec::new();
    for (path, allows) in &allows_by_path {
        for (rule, line) in allows.unused() {
            unused.push(Finding {
                rule: "unused-allow",
                path: path.clone(),
                line,
                message: format!(
                    "`analyze::allow({rule})` suppresses nothing: the finding it \
                     masked is gone, so the directive is stale — remove it"
                ),
                witness: Vec::new(),
            });
        }
    }
    unused.retain(|f| !covered(f.rule, &f.path, f.line));
    findings.extend(unused);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

/// Reads every first-party source file under `root` into memory.
///
/// # Errors
/// Propagates filesystem errors from the workspace walk or file reads.
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for rel in workspace::source_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    Ok(files)
}

/// Lints every first-party source file under `root` (the CI gate).
///
/// # Errors
/// Propagates filesystem errors from the workspace walk or file reads.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(check_files(&load_workspace(root)?))
}

/// Builds the whole-workspace call graph (for `graph --dot`).
///
/// # Errors
/// Propagates filesystem errors from the workspace walk or file reads.
pub fn build_graph(root: &Path) -> io::Result<graph::CallGraph> {
    let mut parsed = Vec::new();
    for (path, source) in load_workspace(root)? {
        let (tokens, _) = lexer::lex(&source);
        let tokens = rules::strip_test_regions(&tokens);
        parsed.push(parser::parse_file(&path, tokens));
    }
    Ok(graph::CallGraph::build(parsed))
}

/// Renders findings as a JSON array (hand-rolled; no serde offline).
pub fn findings_to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        let witness: Vec<String> = f
            .witness
            .iter()
            .map(|w| format!("\"{}\"", esc(w)))
            .collect();
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"witness\": [{}]}}{}\n",
            esc(f.rule),
            esc(&f.path),
            f.line,
            esc(&f.message),
            witness.join(", "),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

//! # atis-analyze — the serve crate's lock-order checker
//!
//! Every lock in `atis-serve` is taken through a designated helper with
//! a rank, and a helper may only be entered while every live guard has
//! a strictly lower rank. rustc and Clippy check everything else this
//! workspace promises about its code (`ANALYSIS.md`); lock order held
//! across calls is the one invariant they cannot see, so it is checked
//! here.
//!
//! ```sh
//! cargo run -p atis-analyze -- check     # exit 1 + findings on stderr
//! cargo run -p atis-analyze -- rules     # the lock-order table
//! ```
//!
//! One pipeline runs over every source file under `crates/serve/src/`
//! (the lock helpers are private to the serve crate, so no other crate
//! can acquire a serve lock):
//!
//! * A hand-rolled Rust tokenizer ([`lexer`], standing in for `syn`,
//!   which the offline build cannot fetch) drops comments, strings and
//!   `#[cfg(test)]`/`#[test]` items.
//! * An item-level parser ([`parser`]) recovers `fn`/`impl` items and
//!   brace-matched bodies from the tokens, and a resolved call graph
//!   ([`graph`]) links them.
//! * The [`lock_order`] pass walks every body with guard tracking and
//!   reports inversions, direct or through any call chain.
//!
//! `tests/linter.rs` pins both directions: the fixtures trip the pass,
//! and the serve crate at HEAD is clean.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod lock_order;
pub mod parser;

pub use lock_order::LOCK_ORDER;

use std::io;
use std::path::Path;

/// One lock-order violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Call-chain witness: one hop per entry, holder first.
    pub witness: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Runs the lock-order pass over an in-memory file set of
/// `(repo-relative path, source)` pairs and returns the findings sorted
/// by `(path, line)`.
pub fn check_files(files: &[(String, String)]) -> Vec<Finding> {
    let parsed = files
        .iter()
        .map(|(path, source)| {
            parser::parse_file(path, lexer::strip_test_regions(&lexer::lex(source)))
        })
        .collect();
    let mut findings = Vec::new();
    lock_order::run(&graph::CallGraph::build(parsed), &mut findings);
    findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    findings
}

/// The directory scanned, relative to the repository root.
const SCOPE: &str = "crates/serve/src";

/// Reads every `.rs` file under `root`'s `crates/serve/src/`, in sorted
/// order.
///
/// # Errors
/// Propagates filesystem errors from the directory walk or file reads.
pub fn load_workspace(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join(SCOPE)];
    while let Some(dir) = dirs.pop() {
        if !dir.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push((relative(root, &path), std::fs::read_to_string(&path)?));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, with forward slashes.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Checks the serve crate under `root` (the CI gate).
///
/// # Errors
/// Propagates filesystem errors from the directory walk or file reads.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(check_files(&load_workspace(root)?))
}

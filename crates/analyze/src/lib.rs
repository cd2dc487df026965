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
//! cargo run -p atis-analyze -- check --format json --stage graph
//! cargo run -p atis-analyze -- graph --dot       # call-graph dump
//! cargo run -p atis-analyze -- rules             # the rule table
//! cargo run -p atis-analyze -- --self-test       # embedded end-to-end checks
//! ```
//!
//! Architecture, in two stages:
//!
//! * **Lexical** — a hand-rolled Rust tokenizer ([`lexer`], standing in
//!   for `syn`, which the offline build cannot fetch) feeds per-rule
//!   token scans ([`rules`]) over every first-party source file
//!   ([`workspace`]).
//! * **Graph** — an item-level parser ([`parser`]) recovers `fn`/`impl`
//!   items and brace-matched bodies, a resolved cross-crate call graph
//!   ([`graph`]) links them, and the interprocedural passes ([`passes`])
//!   check reachability properties the lexical rules cannot see: lock
//!   ranks propagated through calls, raw I/O escaping the `IoStats`
//!   cost model, panic sites reachable from the serving roots, and
//!   error variants that fall through the degrade ladder unmatched.
//!
//! Escape hatches are comment directives (`analyze::allow(rule):
//! reason` / `analyze::allow-file(...)`); directives that suppress
//! nothing are themselves findings (`unused-allow`), so stale allows
//! cannot mask regressions. `#[cfg(test)]` items and `#[test]`
//! functions are stripped before either stage runs.
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

pub use rules::{Finding, LOCK_ORDER, RULES};

use std::io;
use std::path::Path;

/// Which analysis stages to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Token-scan rules only (fast; no call graph).
    Lexical,
    /// Interprocedural graph passes only.
    Graph,
    /// Both stages plus unused-allow detection (the CI gate).
    All,
}

/// Lints one file's source as if it lived at repo-relative `path`
/// (which determines rule scoping). Lexical stage only — kept for
/// single-file callers and fixture tests; [`check_files`] is the full
/// pipeline.
pub fn check_source(path: &str, source: &str) -> Vec<Finding> {
    let (tokens, allows) = lexer::lex(source);
    let tokens = rules::strip_test_regions(&tokens);
    rules::run_all(path, &tokens)
        .into_iter()
        .filter(|f| !allows.covers(f.rule, f.line) && !allows.covers("all", f.line))
        .collect()
}

/// Runs the requested stages over an in-memory file set of
/// `(repo-relative path, source)` pairs and returns unsuppressed
/// findings sorted by `(path, line, rule)`.
///
/// At [`Stage::All`], allow directives that suppressed nothing across
/// *both* stages are reported as `unused-allow` findings.
pub fn check_files(files: &[(String, String)], stage: Stage) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut allows_by_path: Vec<(String, lexer::Allows)> = Vec::new();
    let mut parsed = Vec::new();
    for (path, source) in files {
        let (tokens, allows) = lexer::lex(source);
        let tokens = rules::strip_test_regions(&tokens);
        if stage != Stage::Graph {
            findings.extend(rules::run_all(path, &tokens));
        }
        if stage != Stage::Lexical {
            parsed.push(parser::parse_file(path, tokens));
        }
        allows_by_path.push((path.clone(), allows));
    }
    if stage != Stage::Lexical {
        let g = graph::CallGraph::build(parsed);
        findings.extend(passes::run_graph_passes(&g));
    }
    let covered = |rule: &str, path: &str, line: u32| {
        allows_by_path
            .iter()
            .find(|(p, _)| p == path)
            .is_some_and(|(_, a)| a.covers(rule, line) || a.covers("all", line))
    };
    findings.retain(|f| !covered(f.rule, &f.path, f.line));
    if stage == Stage::All {
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
    }
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

/// Lints every first-party source file under `root` at the given stage.
///
/// # Errors
/// Propagates filesystem errors from the workspace walk or file reads.
pub fn check_workspace_stage(root: &Path, stage: Stage) -> io::Result<Vec<Finding>> {
    Ok(check_files(&load_workspace(root)?, stage))
}

/// Lints every first-party source file under `root` with both stages
/// plus unused-allow detection (the CI gate).
///
/// # Errors
/// Propagates filesystem errors from the workspace walk or file reads.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    check_workspace_stage(root, Stage::All)
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

/// Embedded end-to-end self-test: tiny in-memory workspaces that must
/// trip each interprocedural pass (and the unused-allow check), plus a
/// clean workspace that must not. Returns the failure description on
/// mismatch; used by `atis-analyze --self-test` in CI.
///
/// # Errors
/// Returns a description of the first expectation that failed.
pub fn self_test() -> Result<(), String> {
    let expect = |name: &str, files: &[(&str, &str)], rule: &str, want: bool| {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let findings = check_files(&owned, Stage::All);
        let hit = findings.iter().any(|f| f.rule == rule);
        if hit == want {
            Ok(())
        } else {
            Err(format!(
                "self-test `{name}`: expected {}`{rule}`, got findings: {:?}",
                if want { "" } else { "no " },
                findings.iter().map(|f| f.rule).collect::<Vec<_>>()
            ))
        }
    };
    expect(
        "lock-order-interprocedural trips",
        &[(
            "crates/serve/src/lib.rs",
            "impl Pool { fn helper(&self) { self.inner.lock_queue(); } }\n\
             impl Pool { fn caller(&self) { let g = self.inner.lock_slot(); self.helper(); } }",
        )],
        passes::lock_order::ID,
        true,
    )?;
    expect(
        "lock-order-interprocedural clean in rank order",
        &[(
            "crates/serve/src/lib.rs",
            "impl Pool { fn helper(&self) { self.inner.lock_slot(); } }\n\
             impl Pool { fn caller(&self) { let g = self.inner.lock_queue(); drop(g); self.helper(); } }",
        )],
        passes::lock_order::ID,
        false,
    )?;
    expect(
        "lock-order trips when the install lock is taken under the snapshot slot",
        &[(
            "crates/serve/src/lib.rs",
            "impl Store { fn publish(&self) { let current = self.lock_current(); \
             let writer = self.lock_writer(); } }",
        )],
        "lock-order",
        true,
    )?;
    expect(
        "lock-order clean when an install takes the writer lock first",
        &[(
            "crates/serve/src/lib.rs",
            "impl Store { fn install(&self) { let writer = self.lock_writer(); \
             *self.lock_current() = 1; } }",
        )],
        "lock-order",
        false,
    )?;
    expect(
        "metered-io-escape trips",
        &[(
            "crates/serve/src/lib.rs",
            "fn worker_loop() { read_raw(); }\n\
             fn read_raw() { let f = std::fs::read(\"x\"); }",
        )],
        passes::metered_io::ID,
        true,
    )?;
    expect(
        "metered-io-escape clean through a charging wrapper",
        &[(
            "crates/serve/src/lib.rs",
            "fn worker_loop(io: &IoStats) { read_charged(io); }\n\
             fn read_charged(io: &IoStats) { io.read_blocks(1); raw_inner(); }\n\
             fn raw_inner() { let f = std::fs::read(\"x\"); }",
        )],
        passes::metered_io::ID,
        false,
    )?;
    expect(
        "panic-reachability trips across crates",
        &[
            (
                "crates/serve/src/lib.rs",
                "fn execute() { atis_storage::fetch(); }",
            ),
            (
                "crates/storage/src/lib.rs",
                "pub fn fetch() { None::<u32>.unwrap(); }",
            ),
        ],
        passes::panic_reach::ID,
        true,
    )?;
    expect(
        "panic-reachability ignores unreachable panics",
        &[
            ("crates/serve/src/lib.rs", "fn execute() { }"),
            (
                "crates/storage/src/lib.rs",
                "pub fn fetch() { None::<u32>.unwrap(); }",
            ),
        ],
        passes::panic_reach::ID,
        false,
    )?;
    expect(
        "degrade-ladder-exhaustiveness trips on an unmatched variant",
        &[(
            "crates/serve/src/lib.rs",
            "pub enum ServeError { Shed, Orphan }\n\
             fn build() -> ServeError { ServeError::Orphan }\n\
             fn classify(e: &ServeError) { match e { ServeError::Shed => {} _ => {} } }",
        )],
        passes::ladder::ID,
        true,
    )?;
    expect(
        "degrade-ladder-exhaustiveness clean when every variant is matched",
        &[(
            "crates/serve/src/lib.rs",
            "pub enum ServeError { Shed, Orphan }\n\
             fn build() -> ServeError { ServeError::Orphan }\n\
             fn classify(e: &ServeError) { match e { ServeError::Shed => {} ServeError::Orphan => {} } }",
        )],
        passes::ladder::ID,
        false,
    )?;
    expect(
        "unused-allow trips on a stale directive",
        &[(
            "crates/serve/src/lib.rs",
            "// analyze::allow(panic-hygiene): long gone\nfn quiet() {}",
        )],
        "unused-allow",
        true,
    )?;
    expect(
        "used allow stays silent",
        &[(
            "crates/serve/src/lib.rs",
            "fn f(v: &[u32]) -> u32 {\n\
             // analyze::allow(panic-hygiene): bounds proven by caller\n\
             v[0]\n}",
        )],
        "unused-allow",
        false,
    )?;
    Ok(())
}

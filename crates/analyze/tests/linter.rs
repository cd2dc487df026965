//! Integration tests for `atis-analyze`: each fixture under
//! `tests/fixtures/` trips exactly the rule it is named after (checked
//! as a one-file workspace under a fake path, since the graph passes
//! dispatch on the file path), the allow-directive fixtures come back
//! clean (their directives count as used), the binary's exit codes
//! match the contract, and the workspace at HEAD is clean.

use atis_analyze::passes::lock_order;
use atis_analyze::{check_files, Finding};
use std::process::Command;

/// Runs the full pipeline over `source` as the one file at `path`.
fn check_one(path: &str, source: &str) -> Vec<Finding> {
    check_files(&[(path.to_string(), source.to_string())])
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Checks `fixture` as if it lived at `as_path`; returns the rule ids.
fn rules_hit(name: &str, as_path: &str) -> Vec<String> {
    let mut rules: Vec<String> = check_one(as_path, &fixture(name))
        .into_iter()
        .map(|f| f.rule.to_string())
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

const ALGO_PATH: &str = "crates/algorithms/src/fixture.rs";
const SERVE_PATH: &str = "crates/serve/src/fixture.rs";

#[test]
fn fixture_trips_non_exhaustive_errors() {
    let findings = check_one(ALGO_PATH, &fixture("non_exhaustive_errors"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "non-exhaustive-errors");
    assert!(
        findings[0].message.contains("ProtocolError"),
        "the attributed enum must not be flagged: {findings:?}"
    );
}

#[test]
fn fixture_trips_lock_order() {
    // A direct inversion inside one function: the call-graph pass owns
    // lock order, so this is its rule id.
    assert_eq!(rules_hit("lock_order", SERVE_PATH), [lock_order::ID]);
}

#[test]
fn allow_directives_suppress_findings() {
    assert!(check_one(ALGO_PATH, &fixture("allowed_line")).is_empty());
    assert!(check_one(ALGO_PATH, &fixture("allowed_file")).is_empty());
}

#[test]
fn test_code_is_exempt() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            pub enum FixtureError { Boom }
            #[test]
            fn fails() { let _ = FixtureError::Boom; }
        }
    "#;
    assert!(check_one(ALGO_PATH, src).is_empty());
}

// --- the binary's exit-code contract ---------------------------------------

fn run_binary(root: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_atis-analyze"))
        .args(["check", "--root"])
        .arg(root)
        .output()
        .expect("run atis-analyze")
}

struct TempRoot(std::path::PathBuf);

impl TempRoot {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("atis-analyze-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("crates/algorithms/src")).expect("mkdir");
        TempRoot(dir)
    }

    fn write(&self, rel: &str, content: &str) {
        std::fs::write(self.0.join(rel), content).expect("write fixture workspace");
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn binary_exits_nonzero_on_violation_and_zero_when_clean() {
    let root = TempRoot::new("dirty");
    root.write(
        "crates/algorithms/src/lib.rs",
        &fixture("non_exhaustive_errors"),
    );
    let out = run_binary(&root.0);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("non-exhaustive-errors"), "{stderr}");

    let root = TempRoot::new("clean");
    root.write("crates/algorithms/src/lib.rs", "pub fn ok() {}\n");
    let out = run_binary(&root.0);
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
}

#[test]
fn workspace_at_head_is_clean() {
    // The crate lives at <repo>/crates/analyze.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let findings = atis_analyze::check_workspace(repo).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "the workspace must stay lint-clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

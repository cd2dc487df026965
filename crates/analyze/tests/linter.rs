//! Integration tests for `atis-analyze`: each fixture under
//! `tests/fixtures/` trips exactly the rule it is named after (checked
//! as a one-file workspace under a scope-appropriate fake path, since
//! rules dispatch on the file path), the allow-directive fixtures come
//! back clean (their directives count as used), the binary's exit codes
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
fn fixture_trips_determinism_wall_clock() {
    assert_eq!(
        rules_hit("determinism_wall_clock", ALGO_PATH),
        ["determinism-wall-clock"]
    );
}

#[test]
fn fixture_trips_determinism_rng() {
    assert_eq!(rules_hit("determinism_rng", ALGO_PATH), ["determinism-rng"]);
}

#[test]
fn fixture_trips_determinism_hash_iteration() {
    assert_eq!(
        rules_hit("determinism_hash_iteration", ALGO_PATH),
        ["determinism-hash-iteration"]
    );
    // Both the `.iter()`/`.values()` calls and the `for … in` loop count.
    let findings = check_one(ALGO_PATH, &fixture("determinism_hash_iteration"));
    assert!(findings.len() >= 2, "expected both sites: {findings:?}");
}

#[test]
fn fixture_trips_determinism_nan_compare() {
    assert_eq!(
        rules_hit("determinism_nan_compare", ALGO_PATH),
        ["determinism-nan-compare"]
    );
}

#[test]
fn fixture_trips_metered_io() {
    assert_eq!(rules_hit("metered_io", ALGO_PATH), ["metered-io"]);
}

#[test]
fn fixture_trips_metered_io_in_the_hierarchy_crate() {
    // The new crate is opted into the determinism/metered-io scope: a
    // raw std::fs call in `crates/hierarchy/src/` must fire the rule.
    assert_eq!(
        rules_hit("metered_io_hierarchy", "crates/hierarchy/src/fixture.rs"),
        ["metered-io"]
    );
}

#[test]
fn fixture_trips_panic_hygiene() {
    assert_eq!(rules_hit("panic_hygiene", SERVE_PATH), ["panic-hygiene"]);
    let findings = check_one(SERVE_PATH, &fixture("panic_hygiene"));
    // unwrap, expect, panic!, and two index expressions.
    assert!(findings.len() >= 4, "expected all sites: {findings:?}");
}

#[test]
fn fixture_trips_serve_outcome() {
    assert_eq!(rules_hit("serve_outcome", SERVE_PATH), ["serve-outcome"]);
    // Exactly one finding: the classified literal and the `..`
    // destructuring pattern must both pass.
    let findings = check_one(SERVE_PATH, &fixture("serve_outcome"));
    assert_eq!(findings.len(), 1, "{findings:?}");
}

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
fn fixture_trips_lock_discipline() {
    // The unwrap_or_else recovery is fine; the raw lock()/wait() is not.
    assert!(rules_hit("lock_discipline", SERVE_PATH).contains(&"lock-discipline".to_string()));
}

#[test]
fn fixture_trips_lock_order() {
    // A direct inversion inside one function: the call-graph pass owns
    // lock order, so this is its rule id.
    assert_eq!(rules_hit("lock_order", SERVE_PATH), [lock_order::ID]);
}

#[test]
fn scope_gates_the_rules() {
    // The same violating source outside its rule's scope: no findings.
    let outside = "crates/obs/src/fixture.rs";
    assert!(check_one(outside, &fixture("determinism_wall_clock")).is_empty());
    assert!(check_one(outside, &fixture("panic_hygiene")).is_empty());
    assert!(check_one(outside, &fixture("lock_discipline")).is_empty());
    assert!(check_one(outside, &fixture("serve_outcome")).is_empty());
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
            use std::time::Instant;
            #[test]
            fn timing() { let _ = Instant::now(); }
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
        &fixture("determinism_wall_clock"),
    );
    let out = run_binary(&root.0);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("determinism-wall-clock"), "{stderr}");

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

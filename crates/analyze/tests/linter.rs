//! Integration tests for `atis-analyze`: the one-file fixture and the
//! `lock_order_bad` tree trip the lock-order pass, the fixed
//! `lock_order_good` tree comes back clean, test code is exempt, the
//! binary's exit codes match the contract, and the workspace at HEAD is
//! clean.

use atis_analyze::lock_order::ID;
use atis_analyze::{check_files, check_workspace, Finding};
use std::path::{Path, PathBuf};
use std::process::Command;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
const SERVE_PATH: &str = "crates/serve/src/fixture.rs";

/// Runs the full pipeline over `source` as the one file at `path`.
fn check_one(path: &str, source: &str) -> Vec<Finding> {
    check_files(&[(path.to_string(), source.to_string())])
}

fn fixture(name: &str) -> String {
    let path = format!("{FIXTURES}/{name}.rs");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Findings over the named fixture tree (a miniature repository).
fn check_tree(name: &str) -> Vec<Finding> {
    check_workspace(&Path::new(FIXTURES).join(name)).unwrap_or_else(|e| panic!("scan {name}: {e}"))
}

#[test]
fn fixture_trips_lock_order() {
    // A direct inversion inside one function.
    let findings = check_one(SERVE_PATH, &fixture("lock_order"));
    assert!(!findings.is_empty());
    assert!(findings.iter().all(|f| f.rule == ID), "{findings:?}");
}

#[test]
fn lock_order_tree_trips_and_its_fix_is_clean() {
    assert!(check_tree("lock_order_good").is_empty());
    // Both inversions are found: the writer lock taken directly under
    // the snapshot slot, and the queue taken two calls below `drain`.
    let findings = check_tree("lock_order_bad");
    assert!(findings.iter().all(|f| f.rule == ID), "{findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.message.starts_with("`lock_writer` (rank 2)")),
        "missing the direct inversion: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.witness.iter().any(|w| w.contains("requeue"))),
        "missing the call-chain inversion: {findings:?}"
    );
}

#[test]
fn test_code_is_exempt() {
    let src = r#"
        #[cfg(test)]
        mod tests {
            fn inverted(t: &TicketInner, s: &Shared) {
                let slot = t.lock_slot();
                let queue = s.lock_queue();
            }
            #[test]
            fn also_inverted() { inverted(&T, &S); }
        }
    "#;
    assert!(check_one(SERVE_PATH, src).is_empty());
}

// --- the binary's exit-code contract ---------------------------------------

fn run_binary(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_atis-analyze"))
        .args(["check", "--root"])
        .arg(root)
        .output()
        .expect("run atis-analyze")
}

/// A scratch repository holding one serve-crate source file.
struct TempRoot(PathBuf);

impl TempRoot {
    fn with_serve_lib(tag: &str, content: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("atis-analyze-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = dir.join("crates/serve/src");
        std::fs::create_dir_all(&src).expect("mkdir");
        std::fs::write(src.join("lib.rs"), content).expect("write fixture workspace");
        TempRoot(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn binary_exits_nonzero_on_violation_and_zero_when_clean() {
    let root = TempRoot::with_serve_lib("dirty", &fixture("lock_order"));
    let out = run_binary(&root.0);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(ID), "{stderr}");

    let root = TempRoot::with_serve_lib("clean", "pub fn ok() {}\n");
    let out = run_binary(&root.0);
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");
}

#[test]
fn workspace_at_head_is_clean() {
    // The crate lives at <repo>/crates/analyze.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let files = atis_analyze::load_workspace(repo).expect("scan workspace");
    assert!(
        files.len() > 5,
        "the scan must reach the serve crate's sources, found {}",
        files.len()
    );
    let findings = check_files(&files);
    assert!(
        findings.is_empty(),
        "the serve crate must stay lock-order clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

//! Integration tests for the call-graph passes: each fixture tree under
//! `tests/fixtures/ipa/` is a miniature workspace run through the full
//! pipeline — every `*_bad` tree trips exactly the pass it is named
//! after, and the matching `*_good` tree (the same code with the fix
//! applied) comes back clean, pinning both directions of every pass.
//! The stale-allow tree pins `unused-allow`.

use atis_analyze::{check_workspace, Finding};
use std::path::PathBuf;

fn tree(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/ipa")
        .join(name)
}

/// Findings over the named fixture tree.
fn check(name: &str) -> Vec<Finding> {
    check_workspace(&tree(name)).unwrap_or_else(|e| panic!("scan {name}: {e}"))
}

/// Rule ids hit over the named fixture tree.
fn rule_ids(name: &str) -> Vec<String> {
    let mut rules: Vec<String> = check(name)
        .into_iter()
        .map(|f| f.rule.to_string())
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn lock_order_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(rule_ids("lock_order_bad"), ["lock-order"]);
    assert_eq!(rule_ids("lock_order_good"), [] as [&str; 0]);
    // Both inversions are found: the writer lock taken directly under
    // the snapshot slot, and the queue taken two calls below `drain`.
    let findings = check("lock_order_bad");
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
fn metered_io_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(rule_ids("metered_io_bad"), ["metered-io-escape"]);
    assert_eq!(rule_ids("metered_io_good"), [] as [&str; 0]);
}

#[test]
fn panic_reach_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(rule_ids("panic_reach_bad"), ["panic-reachability"]);
    assert_eq!(rule_ids("panic_reach_good"), [] as [&str; 0]);
}

#[test]
fn ladder_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(rule_ids("ladder_bad"), ["degrade-ladder-exhaustiveness"]);
    assert_eq!(rule_ids("ladder_good"), [] as [&str; 0]);
}

#[test]
fn findings_carry_call_chain_witnesses() {
    let findings = check("panic_reach_bad");
    let f = findings
        .iter()
        .find(|f| f.rule == "panic-reachability")
        .expect("panic finding");
    // The witness walks the chain from the panic site back to the
    // serving root, naming the cross-crate hop.
    let chain = f.witness.join("\n");
    assert!(chain.contains("fetch"), "missing callee hop: {chain}");
    assert!(
        chain.contains("crates/serve/src/lib.rs"),
        "missing root hop: {chain}"
    );
}

#[test]
fn ladder_finding_names_the_unmatched_variant() {
    let findings = check("ladder_bad");
    let f = findings
        .iter()
        .find(|f| f.rule == "degrade-ladder-exhaustiveness")
        .expect("ladder finding");
    assert!(
        f.message.contains("AlgorithmError::Timeout"),
        "wrong variant: {}",
        f.message
    );
    assert!(
        f.witness.iter().any(|w| w.contains("constructed at")),
        "missing construction site: {:?}",
        f.witness
    );
}

#[test]
fn stale_allows_are_findings() {
    assert_eq!(rule_ids("unused_allow"), ["unused-allow"]);
}

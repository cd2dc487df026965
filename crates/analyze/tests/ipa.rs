//! Integration tests for the interprocedural (graph) stage: each
//! fixture tree under `tests/fixtures/ipa/` is a miniature workspace —
//! every `*_bad` tree trips exactly the pass it is named after, and the
//! matching `*_good` tree (the same code with the fix applied) comes
//! back clean, pinning both directions of every pass. The stale-allow
//! tree pins the stage gating of `unused-allow`.

use atis_analyze::{check_workspace_stage, Stage};
use std::path::PathBuf;

fn tree(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/ipa")
        .join(name)
}

/// Rule ids hit by the graph stage over the named fixture tree.
fn graph_rules(name: &str) -> Vec<String> {
    let mut rules: Vec<String> = check_workspace_stage(&tree(name), Stage::Graph)
        .unwrap_or_else(|e| panic!("scan {name}: {e}"))
        .into_iter()
        .map(|f| f.rule.to_string())
        .collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn lock_order_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(
        graph_rules("lock_order_bad"),
        ["lock-order-interprocedural"]
    );
    assert_eq!(graph_rules("lock_order_good"), [] as [&str; 0]);
}

#[test]
fn metered_io_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(graph_rules("metered_io_bad"), ["metered-io-escape"]);
    assert_eq!(graph_rules("metered_io_good"), [] as [&str; 0]);
}

#[test]
fn panic_reach_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(graph_rules("panic_reach_bad"), ["panic-reachability"]);
    assert_eq!(graph_rules("panic_reach_good"), [] as [&str; 0]);
}

#[test]
fn ladder_fixture_trips_and_its_fix_is_clean() {
    assert_eq!(graph_rules("ladder_bad"), ["degrade-ladder-exhaustiveness"]);
    assert_eq!(graph_rules("ladder_good"), [] as [&str; 0]);
}

#[test]
fn findings_carry_call_chain_witnesses() {
    let findings = check_workspace_stage(&tree("panic_reach_bad"), Stage::Graph).unwrap();
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
    let findings = check_workspace_stage(&tree("ladder_bad"), Stage::Graph).unwrap();
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
fn stale_allows_are_findings_at_the_full_stage_only() {
    let all: Vec<String> = check_workspace_stage(&tree("unused_allow"), Stage::All)
        .unwrap()
        .into_iter()
        .map(|f| f.rule.to_string())
        .collect();
    assert_eq!(all, ["unused-allow"]);
    // The graph stage alone cannot judge staleness (a directive may
    // cover a lexical finding), so it stays silent.
    assert_eq!(graph_rules("unused_allow"), [] as [&str; 0]);
}

//! The interprocedural graph passes.
//!
//! Each pass is a pure function over the whole-workspace
//! [`CallGraph`] and reports
//! [`Finding`]s with **call-chain witnesses**: a
//! list of `root -> … -> site` hops, one per line, so a reviewer can
//! replay exactly how the entry point reaches the flagged code. Allow
//! filtering happens in the caller ([`crate::check_files`]), keyed by
//! the file each finding is anchored in.
//!
//! Passes (each declares its own `ID` constant, which is also its
//! allow-directive key — the rule-id drift check in
//! `ci/check-doc-links.sh` greps these):
//!
//! * [`lock_order`] — lock ranks acquired under a held guard, directly
//!   or through calls.
//! * [`metered_io`] — raw I/O reachable without an `IoStats` charge.
//! * [`panic_reach`] — panic sites reachable from the serving roots.
//! * [`ladder`] — constructed error variants never matched on the
//!   serving path.

pub mod ladder;
pub mod lock_order;
pub mod metered_io;
pub mod panic_reach;

use crate::graph::CallGraph;
use crate::rules::Finding;

/// Runs every graph pass over the call graph, in declaration order.
pub fn run_graph_passes(graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    lock_order::run(graph, &mut findings);
    metered_io::run(graph, &mut findings);
    panic_reach::run(graph, &mut findings);
    ladder::run(graph, &mut findings);
    findings
}

/// Collects every node id whose `(krate, name)` matches one of the
/// given root specs. Missing specs are skipped (a fixture workspace
/// typically defines only one of them).
pub(crate) fn root_nodes(g: &CallGraph, specs: &[(&str, &str)]) -> Vec<usize> {
    let mut roots = Vec::new();
    for (id, n) in g.nodes.iter().enumerate() {
        if specs.iter().any(|(k, f)| n.krate == *k && n.name == *f) {
            roots.push(id);
        }
    }
    roots
}

/// The serving entry points every reachability pass starts from: the
/// worker loop and the per-group ladder walk (`execute`) in
/// `atis-serve`, and the route_server accept loop.
pub(crate) const SERVE_ROOTS: &[(&str, &str)] = &[
    ("serve", "worker_loop"),
    ("serve", "execute"),
    ("example:route_server", "serve"),
];

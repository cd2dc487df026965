//! Panic reachability from the serving roots.
//!
//! Clippy's `unwrap_used` / `expect_used` / `panic` / `unreachable` /
//! `indexing_slicing`, warned on in `crates/serve` and
//! `examples/route_server.rs`, ban panic sites there. But the worker
//! loop calls into storage, algorithms, and the planner — an `unwrap()`
//! three crates down still aborts the server on a client request. This
//! pass computes the transitive closure of panic sites reachable from
//! `worker_loop` / `execute` / the route_server accept loop.
//!
//! Site definition, per reachable function:
//!
//! * `.unwrap(` / `.expect(` method calls and `panic!` / `unreachable!`
//!   / `todo!` / `unimplemented!` macros — in any crate *except* the
//!   serve scope, which those (stricter, whole-file) Clippy lints
//!   already own; double-reporting there would force every site to
//!   carry both an `#[expect]` and an allow directive.
//! * Slice/array indexing — only in `crates/core/src/` (the planner
//!   orchestration layer). The algorithm/storage kernels index dense
//!   arrays pervasively with lengths they construct themselves; flagging
//!   those would bury the signal (documented approximation, see
//!   ANALYSIS.md).
//!
//! Each finding carries the call-chain witness from a root to the
//! containing function plus the site line.

use crate::graph::CallGraph;
use crate::rules::{is_indexing, Finding};
use std::collections::BTreeSet;

/// Stable rule identifier (allow-directive key).
pub const ID: &str = "panic-reachability";

/// Whether the serving scope's Clippy panic lints already own this file.
fn in_serve_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/") || path == "examples/route_server.rs"
}

/// Runs the pass.
pub fn run(g: &CallGraph, findings: &mut Vec<Finding>) {
    let roots = super::root_nodes(g, super::SERVE_ROOTS);
    if roots.is_empty() {
        return;
    }
    let parents = g.reach_from(&roots, &|_| false);
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for &id in parents.keys() {
        let node = &g.nodes[id];
        if in_serve_scope(&node.path) {
            continue;
        }
        let Some((open, close, nested)) = g.body_span(id) else {
            continue;
        };
        let index_scope = node.path.starts_with("crates/core/src/");
        let toks = &g.files[node.file].tokens;
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, e)) = nested.iter().find(|&&(b, e)| i >= b && i <= e) {
                i = e + 1;
                continue;
            }
            let t = &toks[i];
            let site: Option<String> = if (t.is_ident("unwrap") || t.is_ident("expect"))
                && i >= 1
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
            {
                Some(format!(".{}()", t.text))
            } else if toks.get(i + 1).is_some_and(|b| b.is_punct('!'))
                && ["panic", "unreachable", "todo", "unimplemented"].contains(&t.text.as_str())
            {
                Some(format!("{}!", t.text))
            } else if index_scope && t.is_punct('[') && is_indexing(toks, i) {
                Some("slice/array indexing".to_string())
            } else {
                None
            };
            if let Some(what) = site {
                if seen.insert((node.path.clone(), t.line, what.clone())) {
                    let mut witness = g.witness(&parents, id);
                    witness.push(format!("`{what}` at {}:{}", node.path, t.line));
                    findings.push(Finding {
                        rule: ID,
                        path: node.path.clone(),
                        line: t.line,
                        message: format!(
                            "`{what}` in {} is reachable from the serving path: a client \
                             request must never abort the server",
                            g.label(id),
                        ),
                        witness,
                    });
                }
            }
            i += 1;
        }
    }
}

//! Metered-I/O escape analysis.
//!
//! The paper's cost tables are only honest if every block access on a
//! query path is charged through the `IoStats` choke point. Clippy's
//! `disallowed-types` / `disallowed-methods` ban raw `std::fs` in the
//! algorithm crates; this pass checks the *reachability* claim instead:
//! starting from the serving/algorithm entry points, every path must
//! reach raw access only **through** a charging wrapper.
//!
//! * **Raw access** — real-filesystem tokens (`std::fs`, `File::open`/
//!   `create`/`options`, `OpenOptions`) or a `.peek_slot(…)` call (the
//!   documented unmetered heap accessor for callers that already paid).
//! * **Charging wrapper** — a function that calls one of the `IoStats`
//!   charge methods ([`CHARGE_FNS`]). The traversal does not descend
//!   below a charging function: whatever it reaches has been paid for.
//! * **Finding** — a function reachable from a root that touches raw
//!   access without itself charging, anchored at the raw site with the
//!   full call-chain witness.
//!
//! Known approximation: charging anywhere in a function covers all of
//! its raw access (no intra-function ordering); conversely a function
//! whose charge is conditional still counts as charging.

use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;

/// Stable rule identifier (allow-directive key).
pub const ID: &str = "metered-io-escape";

/// The `IoStats` charge methods plus the heapfile-internal charging
/// points; calling any of these makes a function a charging wrapper.
pub const CHARGE_FNS: &[&str] = &[
    "read_blocks",
    "write_blocks",
    "update_tuples",
    "adjust_index",
    "create_relation",
    "delete_relation",
    "charge_read",
    "charge_scan",
];

/// Entry points whose downstream I/O must be metered: the serving roots
/// plus the algorithm dispatchers.
const ROOTS: &[(&str, &str)] = &[
    ("serve", "worker_loop"),
    ("serve", "execute"),
    ("example:route_server", "serve"),
    ("algorithms", "run"),
    ("algorithms", "run_with_budgets"),
];

/// The first raw-access site in a body, if any: `(line, what)`.
fn raw_site(
    toks: &[Token],
    open: usize,
    close: usize,
    nested: &[(usize, usize)],
) -> Option<(u32, &'static str)> {
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, e)) = nested.iter().find(|&&(b, e)| i >= b && i <= e) {
            i = e + 1;
            continue;
        }
        let t = &toks[i];
        let seq3 = |a: &str, b: &str| {
            t.is_ident(a)
                && toks.get(i + 1).is_some_and(|c| c.is_punct(':'))
                && toks.get(i + 2).is_some_and(|c| c.is_punct(':'))
                && toks.get(i + 3).is_some_and(|f| f.is_ident(b))
        };
        if seq3("std", "fs") {
            return Some((t.line, "std::fs"));
        }
        if t.is_ident("OpenOptions") {
            return Some((t.line, "OpenOptions"));
        }
        if seq3("File", "open") || seq3("File", "create") || seq3("File", "options") {
            return Some((t.line, "File::*"));
        }
        if t.is_ident("peek_slot")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            return Some((t.line, ".peek_slot() (unmetered heap access)"));
        }
        i += 1;
    }
    None
}

/// Whether a body contains a call to any charge method.
fn charges(toks: &[Token], open: usize, close: usize, nested: &[(usize, usize)]) -> bool {
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, e)) = nested.iter().find(|&&(b, e)| i >= b && i <= e) {
            i = e + 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && CHARGE_FNS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            return true;
        }
        i += 1;
    }
    false
}

/// Runs the pass.
pub fn run(g: &CallGraph, findings: &mut Vec<Finding>) {
    let roots = super::root_nodes(g, ROOTS);
    if roots.is_empty() {
        return;
    }
    let mut raw: Vec<Option<(u32, &'static str)>> = vec![None; g.nodes.len()];
    let mut charging = vec![false; g.nodes.len()];
    for id in 0..g.nodes.len() {
        let Some((open, close, nested)) = g.body_span(id) else {
            continue;
        };
        let toks = &g.files[g.nodes[id].file].tokens;
        raw[id] = raw_site(toks, open, close, &nested);
        charging[id] = charges(toks, open, close, &nested);
    }
    let parents = g.reach_from(&roots, &|id| charging[id]);
    for &id in parents.keys() {
        let Some((line, what)) = raw[id] else {
            continue;
        };
        if charging[id] {
            continue; // a charging wrapper may touch raw access
        }
        let mut witness = g.witness(&parents, id);
        witness.push(format!(
            "raw access `{what}` at {}:{line}",
            g.nodes[id].path
        ));
        findings.push(Finding {
            rule: ID,
            path: g.nodes[id].path.clone(),
            line,
            message: format!(
                "`{what}` in {} is reachable from a serving/algorithm entry point without \
                 passing an IoStats-charging wrapper: block access escapes the cost model",
                g.label(id),
            ),
            witness,
        });
    }
}

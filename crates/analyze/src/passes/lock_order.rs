//! Lock-order checking: the one check of the serve crate's lock ranks.
//!
//! Every lock in `atis-serve` is taken through a designated helper
//! ([`LOCK_ORDER`]), and a helper may only be entered while every live
//! guard has a strictly lower rank. The pass sees inversions inside one
//! function and across any call chain:
//!
//! 1. **Direct acquisitions** — every `.lock_X(…)` call site of a
//!    [`LOCK_ORDER`] helper, per function.
//! 2. **Transitive acquisitions** — a fixpoint propagates each
//!    function's acquired-rank set to its callers, recording one hop
//!    per `(function, rank)` so a witness chain can be replayed.
//! 3. **Guard-tracked walk** — every serve-crate function body is
//!    walked with guard-lifetime tracking (guards die at block close,
//!    `drop(name)`, or the statement end for unnamed temporaries). A
//!    helper call at rank ≤ the highest held rank is a direct
//!    inversion; a call to a *non-helper* function that transitively
//!    acquires such a rank is an interprocedural one.
//!
//! Known approximation: a callee that acquires and fully releases a
//! lock before returning still counts as "acquires" — that is the
//! conservative direction, because acquiring a lower rank even briefly
//! while holding a higher one is exactly the ordering inversion the
//! ranks forbid.

use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;
use std::collections::BTreeMap;

/// Stable rule identifier (allow-directive key).
pub const ID: &str = "lock-order";

/// Designated lock-acquisition helpers in `atis-serve`, in the global
/// acquisition order. A helper may only be called while holding locks
/// of *strictly lower* rank. `crates/serve/src/sync.rs` is the one
/// place allowed to touch `Mutex::lock` / `Condvar::wait` directly.
pub const LOCK_ORDER: &[(&str, u32, &str)] = &[
    ("lock_queue", 1, "Shared.queue — the admission queue"),
    (
        "lock_writer",
        2,
        "ShardedEpochDb.writer — the install lock, held while an epoch is built",
    ),
    (
        "lock_current",
        3,
        "ShardedEpochDb.current — the epoch snapshot slot",
    ),
    (
        "lock_entries",
        4,
        "RouteCache.inner — the route-cache table",
    ),
    ("lock_slot", 5, "TicketInner.slot — a ticket's answer slot"),
    (
        "lock_breaker",
        6,
        "CircuitBreaker.inner — a breaker's state machine",
    ),
];

/// How a function comes to acquire a rank: at its own call site, or
/// through a callee.
#[derive(Clone, Copy)]
enum Hop {
    /// Acquired directly at this 1-based line.
    Direct(u32),
    /// Acquired inside the callee node, called at this line.
    Via(usize, u32),
}

fn rank_of(name: &str) -> Option<u32> {
    LOCK_ORDER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, r, _)| *r)
}

fn helper_name(rank: u32) -> &'static str {
    LOCK_ORDER
        .iter()
        .find(|(_, r, _)| *r == rank)
        .map(|(n, _, _)| *n)
        .unwrap_or("?")
}

/// Whether token `i` is a method-style call site `.name(`.
fn is_call_site(toks: &[Token], i: usize) -> bool {
    i >= 1
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        && toks[i].kind == TokenKind::Ident
}

/// Runs the pass.
pub fn run(g: &CallGraph, findings: &mut Vec<Finding>) {
    // 1. Direct acquisitions per node.
    let mut acq: Vec<BTreeMap<u32, Hop>> = vec![BTreeMap::new(); g.nodes.len()];
    for (id, slot) in acq.iter_mut().enumerate() {
        let Some((open, close, nested)) = g.body_span(id) else {
            continue;
        };
        let toks = &g.files[g.nodes[id].file].tokens;
        let mut i = open + 1;
        while i < close {
            if let Some(&(_, e)) = nested.iter().find(|&&(b, e)| i >= b && i <= e) {
                i = e + 1;
                continue;
            }
            if is_call_site(toks, i) {
                if let Some(rank) = rank_of(&toks[i].text) {
                    slot.entry(rank).or_insert(Hop::Direct(toks[i].line));
                }
            }
            i += 1;
        }
    }
    // 2. Fixpoint: propagate acquired ranks to callers. Each (node,
    //    rank) records the hop it was first discovered through, so
    //    chains are acyclic by construction.
    loop {
        let mut changed = false;
        for id in 0..g.nodes.len() {
            for ci in 0..g.calls[id].len() {
                let call = g.calls[id][ci];
                let ranks: Vec<u32> = acq[call.callee].keys().copied().collect();
                for rank in ranks {
                    if let std::collections::btree_map::Entry::Vacant(e) = acq[id].entry(rank) {
                        e.insert(Hop::Via(call.callee, call.line));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // 3. Guard-tracked walk of every serve-crate function.
    for id in 0..g.nodes.len() {
        if !g.nodes[id].path.starts_with("crates/serve/src/") {
            continue;
        }
        check_body(g, &acq, id, findings);
    }
}

/// Walks one body with guard-lifetime tracking, flagging helper calls
/// and calls into functions that transitively acquire a rank ≤ the
/// highest held rank.
fn check_body(g: &CallGraph, acq: &[BTreeMap<u32, Hop>], id: usize, findings: &mut Vec<Finding>) {
    let Some((open, close, nested)) = g.body_span(id) else {
        return;
    };
    let node = &g.nodes[id];
    let toks = &g.files[node.file].tokens;
    // Call edges indexed by their call-site token.
    let mut by_tok: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for call in &g.calls[id] {
        by_tok.entry(call.tok).or_default().push(call.callee);
    }
    let mut depth: i32 = 0;
    let mut guards: Vec<(u32, i32, Option<String>)> = Vec::new();
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, e)) = nested.iter().find(|&&(b, e)| i >= b && i <= e) {
            i = e + 1;
            continue;
        }
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|(_, d, _)| *d <= depth);
        } else if t.is_punct(';') {
            guards.retain(|(_, d, name)| name.is_some() || *d != depth);
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            if let Some(var) = toks.get(i + 2) {
                guards.retain(|(_, _, name)| name.as_deref() != Some(var.text.as_str()));
            }
        } else if is_call_site(toks, i) {
            if let Some(rank) = rank_of(&t.text) {
                // A direct helper acquisition: check it against the
                // highest held guard, then bind its own guard.
                let held = guards.iter().max_by_key(|(r, _, _)| *r);
                if let Some((held, _, held_name)) = held.filter(|(r, _, _)| *r >= rank) {
                    let held_name = held_name.as_deref().unwrap_or(helper_name(*held));
                    findings.push(Finding {
                        rule: ID,
                        path: node.path.clone(),
                        line: t.line,
                        message: format!(
                            "`{}` (rank {rank}) acquired while `{held_name}` (rank {held}) is \
                             held: violates the declared lock order",
                            t.text,
                        ),
                        witness: vec![format!(
                            "{} ({}:{}) holds `{held_name}` (rank {held}), acquires `{}` at {}:{}",
                            g.label(id),
                            node.path,
                            node.line,
                            t.text,
                            node.path,
                            t.line,
                        )],
                    });
                }
                guards.push((rank, depth, statement_binding(toks, i)));
            } else if let Some(callees) = by_tok.get(&i) {
                flag_calls(g, acq, id, t, callees, &guards, findings);
            }
        } else if by_tok.contains_key(&i) {
            // Free-function / qualified call site.
            flag_calls(g, acq, id, t, &by_tok[&i], &guards, findings);
        }
        i += 1;
    }
}

fn flag_calls(
    g: &CallGraph,
    acq: &[BTreeMap<u32, Hop>],
    caller: usize,
    site: &Token,
    callees: &[usize],
    guards: &[(u32, i32, Option<String>)],
    findings: &mut Vec<Finding>,
) {
    let Some(&(held, _, ref held_name)) = guards.iter().max_by_key(|(r, _, _)| *r) else {
        return;
    };
    for &callee in callees {
        // The lowest offending rank gives the sharpest message.
        let Some((&rank, hop)) = acq[callee].iter().find(|(r, _)| **r <= held) else {
            continue;
        };
        let node = &g.nodes[caller];
        let mut witness = vec![format!(
            "{} ({}:{}) holds `{}` (rank {held}), calls {} at {}:{}",
            g.label(caller),
            node.path,
            node.line,
            held_name
                .clone()
                .unwrap_or_else(|| helper_name(held).to_string()),
            g.label(callee),
            node.path,
            site.line,
        )];
        let mut cur = callee;
        let mut h = *hop;
        loop {
            match h {
                Hop::Direct(line) => {
                    witness.push(format!(
                        "{} acquires `{}` (rank {rank}) at {}:{line}",
                        g.label(cur),
                        helper_name(rank),
                        g.nodes[cur].path,
                    ));
                    break;
                }
                Hop::Via(next, line) => {
                    witness.push(format!(
                        "{} calls {} at {}:{line}",
                        g.label(cur),
                        g.label(next),
                        g.nodes[cur].path,
                    ));
                    h = acq[next][&rank];
                    cur = next;
                }
            }
        }
        let f = Finding {
            rule: ID,
            path: node.path.clone(),
            line: site.line,
            message: format!(
                "call into {} acquires `{}` (rank {rank}) while `{}` (rank {held}) is held: \
                 inverts the declared lock order",
                g.label(callee),
                helper_name(rank),
                helper_name(held),
            ),
            witness,
        };
        if !findings.contains(&f) {
            findings.push(f);
        }
    }
}

/// If the statement containing token `i` is `let [mut] NAME = ...`,
/// returns `NAME`. Searches backwards to the statement start.
fn statement_binding(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.is_ident("let") {
            let mut k = j + 1;
            if matches!(tokens.get(k), Some(m) if m.is_ident("mut")) {
                k += 1;
            }
            return tokens.get(k).map(|n| n.text.clone());
        }
    }
    None
}

//! Degrade-ladder exhaustiveness.
//!
//! The serving stack degrades failures through a typed ladder
//! (v5→v4→v3→Dijkstra→stale→shed); every error enum variant that is
//! *constructed* anywhere in the workspace must therefore be *named in a
//! pattern* somewhere on the serving path — otherwise a new failure mode
//! silently falls through a `_` arm (the tracked enums are all
//! `#[non_exhaustive]`, so downstream matches are forced to carry `_`
//! arms, and "the compiler checks exhaustiveness" stops being true).
//! For `AlgorithmError` that pattern is the ladder's one error → fall
//! `match` (`Fall::of` in `crates/algorithms/src/ladder.rs`), which the
//! serving layer's one ladder walk (`ladder::walk` from `execute`) reads.
//!
//! Mechanics:
//!
//! * Tracked enums: `AlgorithmError`, `ServeError`, `StorageError`
//!   (located by parsing, wherever they are defined).
//! * An occurrence `Enum::Variant` (or `Self::Variant` inside one of the
//!   enum's own impl blocks) is classified by a **pattern-region
//!   scanner**: `match` arm patterns (tokens up to `=>` at arm depth),
//!   `let` / `if let` / `while let` bindings (tokens up to `=`), and the
//!   second argument of `matches!(…)`. Everything else is a
//!   construction; `use` imports are ignored.
//! * A pattern occurrence only counts as "matched on the serving path"
//!   when it appears in [`MATCH_SCOPE`] **and** outside the enum's own
//!   impl blocks — `impl Display for ServeError` naming every variant
//!   must not satisfy the serving-path requirement.
//!
//! Known approximations: a variant named inside a match *guard*
//! (`p if x == E::V =>`) is classified as a pattern; wildcard `_` arms
//! deliberately never count as matching.

use crate::graph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::parser::ParsedFile;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Stable rule identifier (allow-directive key).
pub const ID: &str = "degrade-ladder-exhaustiveness";

/// Error enums whose variants ride the degrade ladder.
const TRACKED: &[&str] = &["AlgorithmError", "ServeError", "StorageError"];

/// Files that constitute "the serving path" for matching purposes: the
/// serve crate, the TCP front-end, and the declared ladder table.
pub const MATCH_SCOPE: &[&str] = &[
    "crates/serve/src/",
    "examples/route_server.rs",
    "crates/algorithms/src/ladder.rs",
];

fn in_match_scope(path: &str) -> bool {
    MATCH_SCOPE
        .iter()
        .any(|p| path.starts_with(p) || path == *p)
}

/// Self type of the innermost function item containing token `i`.
fn enclosing_self_ty(file: &ParsedFile, i: usize) -> Option<&str> {
    file.fns
        .iter()
        .filter(|f| f.body.is_some_and(|(b, e)| i > b && i < e))
        .min_by_key(|f| {
            let (b, e) = f.body.unwrap_or((0, usize::MAX));
            e - b
        })
        .and_then(|f| f.self_ty.as_deref())
}

/// Whether the statement containing token `i` starts with `use`.
fn in_use_statement(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        if t.is_ident("use") {
            return true;
        }
    }
    false
}

/// Marks every token that sits in a *pattern* position: `match` arm
/// patterns, `let`-family bindings, and `matches!` second arguments.
fn pattern_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("match") {
            // Scrutinee runs to the first `{` at bracket depth 0.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && (u.is_punct('{') || u.is_punct(';')) {
                    break;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                mark_match_arms(toks, j, &mut mask);
            }
        } else if t.is_ident("let") {
            // Binding pattern runs to `=` (or `;`) at bracket depth 0.
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if depth == 0 && (u.is_punct('=') || u.is_punct(';')) {
                    break;
                }
                mask[j] = true;
                j += 1;
            }
        } else if t.is_ident("matches")
            && toks.get(i + 1).is_some_and(|b| b.is_punct('!'))
            && toks.get(i + 2).is_some_and(|p| p.is_punct('('))
        {
            // Second macro argument (after the top-level `,`) is a pattern.
            let mut j = i + 3;
            let mut depth = 1i32;
            let mut comma = None;
            while j < toks.len() && depth > 0 {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    depth -= 1;
                } else if u.is_punct(',') && depth == 1 && comma.is_none() {
                    comma = Some(j);
                }
                j += 1;
            }
            if let Some(c) = comma {
                for m in &mut mask[c + 1..j.saturating_sub(1)] {
                    *m = true;
                }
            }
        }
        i += 1;
    }
    mask
}

/// Marks the pattern regions of one `match` body whose `{` is at
/// `open`. Arm patterns run to `=>` at arm depth; block-bodied arms are
/// skipped wholesale (nested `match`es are handled by the outer scan).
fn mark_match_arms(toks: &[Token], open: usize, mask: &mut [bool]) {
    let mut j = open + 1;
    let mut pattern = true;
    let mut depth = 0i32; // combined bracket depth relative to arm level
    while j < toks.len() {
        let u = &toks[j];
        if u.is_punct('}') && depth == 0 {
            return; // end of match body
        }
        if u.is_punct('{') && !pattern && depth == 0 {
            // Arm body block: skip it; the next arm's pattern follows.
            let mut d = 1i32;
            j += 1;
            while j < toks.len() && d > 0 {
                if toks[j].is_punct('{') {
                    d += 1;
                } else if toks[j].is_punct('}') {
                    d -= 1;
                }
                j += 1;
            }
            pattern = true;
            continue;
        }
        if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
            depth += 1;
        } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
            depth -= 1;
        } else if depth == 0 {
            if pattern && u.is_punct('=') && toks.get(j + 1).is_some_and(|v| v.is_punct('>')) {
                pattern = false;
                j += 2;
                continue;
            }
            if !pattern && u.is_punct(',') {
                pattern = true;
                j += 1;
                continue;
            }
        }
        if pattern {
            mask[j] = true;
        }
        j += 1;
    }
}

/// One tracked enum's `(defining path, variants)`.
type EnumInfo<'a> = (&'a str, &'a [(String, u32)]);

/// Runs the pass.
pub fn run(g: &CallGraph, findings: &mut Vec<Finding>) {
    // Locate the tracked enums: name -> (defining path, variants).
    let mut enums: BTreeMap<&str, EnumInfo> = BTreeMap::new();
    for file in &g.files {
        for e in &file.enums {
            if TRACKED.contains(&e.name.as_str()) && !enums.contains_key(e.name.as_str()) {
                enums.insert(e.name.as_str(), (file.path.as_str(), e.variants.as_slice()));
            }
        }
    }
    if enums.is_empty() {
        return;
    }
    let mut constructed: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    let mut matched: BTreeSet<(String, String)> = BTreeSet::new();
    for file in &g.files {
        let toks = &file.tokens;
        let mask = pattern_mask(toks);
        let scope = in_match_scope(&file.path);
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let qualified = toks.get(i + 1).is_some_and(|c| c.is_punct(':'))
                && toks.get(i + 2).is_some_and(|c| c.is_punct(':'))
                && toks.get(i + 3).is_some_and(|v| v.kind == TokenKind::Ident);
            if !qualified {
                continue;
            }
            let enum_name: &str = if t.is_ident("Self") {
                match enclosing_self_ty(file, i) {
                    Some(ty) => ty,
                    None => continue,
                }
            } else {
                &t.text
            };
            let Some(&(_, variants)) = enums.get(enum_name) else {
                continue;
            };
            let vtok = &toks[i + 3];
            if !variants.iter().any(|(v, _)| *v == vtok.text) {
                continue;
            }
            let key = (enum_name.to_string(), vtok.text.clone());
            if mask[i] || mask[i + 3] {
                // Pattern position: counts toward the serving path only
                // outside the enum's own impls.
                if scope && enclosing_self_ty(file, i) != Some(enum_name) {
                    matched.insert(key);
                }
            } else if !in_use_statement(toks, i) {
                constructed
                    .entry(key)
                    .or_default()
                    .push(format!("{}:{}", file.path, vtok.line));
            }
        }
    }
    for ((enum_name, variant), sites) in &constructed {
        if matched.contains(&(enum_name.clone(), variant.clone())) {
            continue;
        }
        let Some(&(def_path, variants)) = enums.get(enum_name.as_str()) else {
            continue;
        };
        let def_line = variants
            .iter()
            .find(|(v, _)| v == variant)
            .map(|(_, l)| *l)
            .unwrap_or(1);
        let mut witness: Vec<String> = sites
            .iter()
            .take(5)
            .map(|s| format!("constructed at {s}"))
            .collect();
        if sites.len() > 5 {
            witness.push(format!("… and {} more construction sites", sites.len() - 5));
        }
        witness.push(format!(
            "never named in a pattern under {}",
            MATCH_SCOPE.join(", ")
        ));
        findings.push(Finding {
            rule: ID,
            path: def_path.to_string(),
            line: def_line,
            message: format!(
                "`{enum_name}::{variant}` is constructed but never matched on the serving \
                 path: this failure mode falls through the degrade ladder's `_` arms \
                 unclassified",
            ),
            witness,
        });
    }
}

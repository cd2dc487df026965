//! The per-file token rule and the shared finding type.
//!
//! One rule is lexical: `non-exhaustive-errors`, a pure function over
//! the lexed token stream of one file, because no Clippy lint is scoped
//! to `*Error` enums. (The determinism, metered-I/O, panic and lock
//! checks are Clippy configuration: `ANALYSIS.md`, "Clippy
//! configuration".) The rule is tripped by a fixture under
//! `tests/fixtures/` and must report zero findings on the workspace at
//! HEAD — that pair of properties is what `tests/linter.rs` pins.

use crate::lexer::{Token, TokenKind};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (also the allow-directive key).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Call-chain witness for interprocedural findings: one hop per
    /// entry, root first. Empty for per-file findings.
    pub witness: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Static description of one rule for `atis-analyze rules` and the
/// docs.
pub struct RuleInfo {
    /// Stable identifier (allow-directive key).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Human-readable scope.
    pub scope: &'static str,
}

/// The rule table, in evaluation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "non-exhaustive-errors",
        summary: "public *Error enums must be #[non_exhaustive]",
        scope: "all workspace crates",
    },
    RuleInfo {
        id: crate::passes::lock_order::ID,
        summary: "no lower-or-equal lock rank acquired while one is held, directly or via calls",
        scope: "atis-serve callers, whole-workspace callees (graph pass)",
    },
    RuleInfo {
        id: crate::passes::metered_io::ID,
        summary: "raw I/O reachable from serving/algorithm roots only via IoStats wrappers",
        scope: "whole workspace (graph pass)",
    },
    RuleInfo {
        id: crate::passes::panic_reach::ID,
        summary: "no panic site transitively reachable from the serving entry points",
        scope: "whole workspace (graph pass)",
    },
    RuleInfo {
        id: crate::passes::ladder::ID,
        summary: "every constructed error variant is matched somewhere on the serving path",
        scope: "AlgorithmError/ServeError/StorageError (graph pass)",
    },
    RuleInfo {
        id: "unused-allow",
        summary: "analyze::allow directives that suppress nothing are findings themselves",
        scope: "all workspace crates",
    },
];

/// Removes `#[cfg(test)]` items and `#[test]` functions from the token
/// stream: test code may unwrap and panic freely.
pub fn strip_test_regions(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attribute(tokens, i) {
            // Skip the attribute itself, any further attributes, then
            // the annotated item (through its `;` or matching `}`).
            i = skip_attribute(tokens, i);
            while i < tokens.len() && tokens[i].is_punct('#') {
                i = skip_attribute(tokens, i);
            }
            i = skip_item(tokens, i);
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Whether tokens at `i` start `#[cfg(test)]` or `#[test]`.
fn is_test_attribute(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_punct('#') {
        return false;
    }
    let t = |k: usize| tokens.get(i + k);
    let Some(open) = t(1) else { return false };
    if !open.is_punct('[') {
        return false;
    }
    match t(2) {
        Some(tok) if tok.is_ident("test") => t(3).is_some_and(|x| x.is_punct(']')),
        Some(tok) if tok.is_ident("cfg") => {
            t(3).is_some_and(|x| x.is_punct('('))
                && t(4).is_some_and(|x| x.is_ident("test"))
                && t(5).is_some_and(|x| x.is_punct(')'))
        }
        _ => false,
    }
}

/// Skips one `#[...]` attribute starting at `i`; returns the index just
/// past its closing `]`.
fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1; // at '['
    let mut depth = 0;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Skips one item starting at `i`: through the first `;` seen before
/// any `{`, or through the matching `}` of the first `{`.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_punct(';') {
            return j + 1;
        }
        if tokens[j].is_punct('{') {
            let mut depth = 0;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                j += 1;
            }
            return j;
        }
        j += 1;
    }
    j
}

// --- indexing ---------------------------------------------------------------

/// Keywords that may legally precede a `[` that starts an array
/// expression/type rather than an indexing operation.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "return", "in", "if", "else", "match", "mut", "ref", "move", "break", "continue", "as",
    "dyn", "impl", "for", "where", "use", "pub", "enum", "struct", "fn", "type", "static", "const",
    "box", "yield",
];

/// Whether the `[` at token `i` is an indexing operation (as opposed to
/// an array expression/type or attribute): preceded by a non-keyword
/// identifier, `)`, or `]`. Used by the panic-reachability pass.
pub(crate) fn is_indexing(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &tokens[i - 1];
    match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct(c) => c == ')' || c == ']',
        _ => false,
    }
}

// --- non-exhaustive errors --------------------------------------------------

/// Runs the token rule, `non-exhaustive-errors`, over `tokens` (test
/// regions already stripped). Allow filtering happens in the caller.
pub fn run_all(path: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        let Some(kw) = tokens.get(i + 1) else {
            continue;
        };
        let Some(name) = tokens.get(i + 2) else {
            continue;
        };
        if !kw.is_ident("enum") || name.kind != TokenKind::Ident || !name.text.ends_with("Error") {
            continue;
        }
        // Walk back over the item's attributes/doc tokens looking for
        // `non_exhaustive`, stopping at the previous item boundary.
        let mut j = i;
        let mut found = false;
        while j > 0 {
            j -= 1;
            let b = &tokens[j];
            if b.is_punct('}') || b.is_punct(';') || b.is_punct('{') {
                break;
            }
            if b.is_ident("non_exhaustive") {
                found = true;
                break;
            }
        }
        if !found {
            findings.push(Finding {
                rule: "non-exhaustive-errors",
                path: path.to_string(),
                line: name.line,
                message: format!(
                    "public error enum `{}` is not #[non_exhaustive]: adding a variant \
                     (new failure mode) would be a breaking change, so errors rot instead",
                    name.text
                ),
                witness: Vec::new(),
            });
        }
    }
    findings
}

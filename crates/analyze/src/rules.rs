//! The invariant rules.
//!
//! Every rule is a pure function over the lexed token stream of one
//! file; scoping (which crates a rule applies to) is path-prefix based
//! and lives in [`RuleInfo::scope`]. `ANALYSIS.md` documents each
//! rule, its rationale, and the allow-list escape hatch; keep the two
//! in sync.
//!
//! These are deliberately *lexical* checks: with no type information
//! they over-approximate in places (documented per rule). Every rule is
//! tripped by a fixture under `tests/fixtures/` and must report zero
//! findings on the workspace at HEAD — that pair of properties is what
//! `tests/linter.rs` pins.

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
    /// entry, root first. Empty for lexical rules.
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

/// Crates whose algorithm results must be bit-deterministic (the
/// paper-table oracle tests depend on it).
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/algorithms/src/",
    "crates/costmodel/src/",
    "crates/hierarchy/src/",
    "crates/preprocess/src/",
];

/// The serving request path: no panics on client-reachable input.
const SERVE_SCOPE: &[&str] = &["crates/serve/src/", "examples/route_server.rs"];

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
        id: "determinism-wall-clock",
        summary: "no std::time::{Instant, SystemTime} — wall clock must not reach algorithm state",
        scope: "atis-algorithms, atis-costmodel, atis-hierarchy, atis-preprocess",
    },
    RuleInfo {
        id: "determinism-rng",
        summary: "no ambient randomness (thread_rng, rand::random, OsRng, from_entropy)",
        scope: "atis-algorithms, atis-costmodel, atis-hierarchy, atis-preprocess",
    },
    RuleInfo {
        id: "determinism-hash-iteration",
        summary: "no iteration over HashMap/HashSet — iteration order is unspecified",
        scope: "atis-algorithms, atis-costmodel, atis-hierarchy, atis-preprocess",
    },
    RuleInfo {
        id: "determinism-nan-compare",
        summary: "no partial_cmp().unwrap()/expect() — use total_cmp for floats",
        scope: "atis-algorithms, atis-costmodel, atis-hierarchy, atis-preprocess",
    },
    RuleInfo {
        id: "metered-io",
        summary: "no direct filesystem access — all I/O goes through IoStats-metered storage",
        scope: "atis-algorithms, atis-costmodel, atis-hierarchy, atis-preprocess",
    },
    RuleInfo {
        id: "panic-hygiene",
        summary: "no unwrap/expect/panic!/indexing in the serving request path",
        scope: "atis-serve, examples/route_server.rs",
    },
    RuleInfo {
        id: "serve-outcome",
        summary: "every RouteAnswer is built with its outcome and deadline classification",
        scope: "atis-serve, examples/route_server.rs",
    },
    RuleInfo {
        id: "non-exhaustive-errors",
        summary: "public *Error enums must be #[non_exhaustive]",
        scope: "all workspace crates",
    },
    RuleInfo {
        id: "lock-discipline",
        summary: "Mutex::lock / Condvar::wait only via the sync:: helpers",
        scope: "atis-serve (sync.rs exempt)",
    },
    RuleInfo {
        id: "lock-order",
        summary: "designated lock helpers acquired in declared rank order",
        scope: "atis-serve",
    },
    RuleInfo {
        id: crate::passes::lock_order::ID,
        summary: "no call chain acquires a lower-or-equal lock rank while one is held",
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

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p) || path == *p)
}

/// Runs every rule that applies to `path` over `tokens` (test regions
/// already stripped). Allow filtering happens in the caller.
pub fn run_all(path: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if in_scope(path, DETERMINISM_SCOPE) {
        determinism_wall_clock(path, tokens, &mut findings);
        determinism_rng(path, tokens, &mut findings);
        determinism_hash_iteration(path, tokens, &mut findings);
        determinism_nan_compare(path, tokens, &mut findings);
        metered_io(path, tokens, &mut findings);
    }
    if in_scope(path, SERVE_SCOPE) {
        panic_hygiene(path, tokens, &mut findings);
        serve_outcome(path, tokens, &mut findings);
    }
    non_exhaustive_errors(path, tokens, &mut findings);
    if path.starts_with("crates/serve/src/") && !path.ends_with("/sync.rs") {
        lock_discipline(path, tokens, &mut findings);
    }
    if path.starts_with("crates/serve/src/") {
        lock_order(path, tokens, &mut findings);
    }
    findings
}

/// Removes `#[cfg(test)]` items and `#[test]` functions from the token
/// stream: test code may unwrap, time, and shuffle freely.
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

fn push(findings: &mut Vec<Finding>, rule: &'static str, path: &str, line: u32, message: String) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line,
        message,
        witness: Vec::new(),
    });
}

// --- determinism ------------------------------------------------------------

fn determinism_wall_clock(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for t in tokens {
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            push(
                findings,
                "determinism-wall-clock",
                path,
                t.line,
                format!(
                    "`{}` in a determinism-scoped crate: wall-clock values must never \
                     influence algorithm results (bit-identity oracle tests)",
                    t.text
                ),
            );
        }
    }
}

fn determinism_rng(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let ambient = t.is_ident("thread_rng")
            || t.is_ident("OsRng")
            || t.is_ident("from_entropy")
            || (t.is_ident("rand")
                && matches!(tokens.get(i + 1), Some(c) if c.is_punct(':'))
                && matches!(tokens.get(i + 3), Some(r) if r.is_ident("random")));
        if ambient {
            push(
                findings,
                "determinism-rng",
                path,
                t.line,
                format!(
                    "`{}`: ambient randomness in a determinism-scoped crate; \
                     seed explicitly via atis_graph::rng",
                    t.text
                ),
            );
        }
    }
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Collects names bound (by `let` or as a typed field/param) to a hash
/// container, then flags iteration over them. Lexical approximation:
/// `name : ... HashMap` within a 6-token window, or
/// `let [mut] name = Hash{Map,Set}::...`.
fn determinism_hash_iteration(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut hash_names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name : [path ::]* HashMap/HashSet`
        if matches!(tokens.get(i + 1), Some(c) if c.is_punct(':')) {
            let window = tokens.iter().skip(i + 2).take(6);
            if window
                .take_while(|w| !w.is_punct(';') && !w.is_punct(',') && !w.is_punct(')'))
                .any(|w| HASH_TYPES.contains(&w.text.as_str()))
            {
                hash_names.push(t.text.clone());
            }
        }
        // `let [mut] name = HashMap::...`
        if t.is_ident("let") {
            let mut j = i + 1;
            if matches!(tokens.get(j), Some(m) if m.is_ident("mut")) {
                j += 1;
            }
            if let (Some(name), Some(eq), Some(ty)) =
                (tokens.get(j), tokens.get(j + 1), tokens.get(j + 2))
            {
                if name.kind == TokenKind::Ident
                    && eq.is_punct('=')
                    && HASH_TYPES.contains(&ty.text.as_str())
                {
                    hash_names.push(name.text.clone());
                }
            }
        }
    }
    if hash_names.is_empty() {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !hash_names.contains(&t.text) {
            continue;
        }
        // `name . iter ( ` and friends
        if matches!(tokens.get(i + 1), Some(d) if d.is_punct('.')) {
            if let Some(m) = tokens.get(i + 2) {
                if ITER_METHODS.contains(&m.text.as_str())
                    && matches!(tokens.get(i + 3), Some(p) if p.is_punct('('))
                {
                    push(
                        findings,
                        "determinism-hash-iteration",
                        path,
                        m.line,
                        format!(
                            "iterating hash container `{}` via `.{}()`: iteration order is \
                             unspecified; use a BTree container or sort first",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // `for pat in [&][mut] name {`
        if i >= 1 {
            let mut j = i - 1;
            if tokens[j].is_ident("mut") && j > 0 {
                j -= 1;
            }
            if tokens[j].is_punct('&') && j > 0 {
                j -= 1;
            }
            if tokens[j].is_ident("in") && matches!(tokens.get(i + 1), Some(b) if b.is_punct('{')) {
                push(
                    findings,
                    "determinism-hash-iteration",
                    path,
                    t.line,
                    format!(
                        "`for _ in {}`: hash container iteration order is unspecified",
                        t.text
                    ),
                );
            }
        }
    }
}

fn determinism_nan_compare(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        let Some(open) = tokens.get(i + 1) else {
            continue;
        };
        if !open.is_punct('(') {
            continue; // a definition or a bare path, not a call
        }
        // Balance the call's parens, then look for `.unwrap(` / `.expect(`.
        let mut depth = 0;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if matches!(tokens.get(j + 1), Some(d) if d.is_punct('.')) {
            if let Some(m) = tokens.get(j + 2) {
                if m.is_ident("unwrap") || m.is_ident("expect") {
                    push(
                        findings,
                        "determinism-nan-compare",
                        path,
                        m.line,
                        format!(
                            "`partial_cmp(..).{}()`: panics on NaN and leaves comparison \
                             order undefined; use `total_cmp`",
                            m.text
                        ),
                    );
                }
            }
        }
    }
}

fn metered_io(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        let seq3 = |a: &str, b: &str| {
            t.is_ident(a)
                && matches!(tokens.get(i + 1), Some(c) if c.is_punct(':'))
                && matches!(tokens.get(i + 2), Some(c) if c.is_punct(':'))
                && matches!(tokens.get(i + 3), Some(f) if f.is_ident(b))
        };
        let hit = if seq3("std", "fs") {
            Some("std::fs")
        } else if t.is_ident("OpenOptions") {
            Some("OpenOptions")
        } else if seq3("File", "open") || seq3("File", "create") || seq3("File", "options") {
            Some("File::*")
        } else {
            None
        };
        if let Some(what) = hit {
            push(
                findings,
                "metered-io",
                path,
                t.line,
                format!(
                    "`{what}`: direct filesystem access in an algorithm crate bypasses the \
                     IoStats choke point the paper's cost tables are metered through"
                ),
            );
        }
    }
}

// --- panic hygiene ----------------------------------------------------------

/// Keywords that may legally precede a `[` that starts an array
/// expression/type rather than an indexing operation.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "return", "in", "if", "else", "match", "mut", "ref", "move", "break", "continue", "as",
    "dyn", "impl", "for", "where", "use", "pub", "enum", "struct", "fn", "type", "static", "const",
    "box", "yield",
];

fn panic_hygiene(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        // .unwrap( / .expect(
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && matches!(tokens.get(i + 1), Some(p) if p.is_punct('('))
        {
            push(
                findings,
                "panic-hygiene",
                path,
                t.line,
                format!(
                    "`.{}()` in the serving path: convert to a typed ServeError / ERR reply \
                     — a client request must never abort the server",
                    t.text
                ),
            );
        }
        // panic!/unreachable!/todo!/unimplemented!
        if matches!(tokens.get(i + 1), Some(b) if b.is_punct('!'))
            && ["panic", "unreachable", "todo", "unimplemented"].contains(&t.text.as_str())
        {
            push(
                findings,
                "panic-hygiene",
                path,
                t.line,
                format!("`{}!` in the serving path", t.text),
            );
        }
        // indexing: `expr[...]` — `[` preceded by an identifier, `)` or `]`
        if t.is_punct('[') && is_indexing(tokens, i) {
            push(
                findings,
                "panic-hygiene",
                path,
                t.line,
                "slice/array indexing in the serving path: panics when out of bounds; \
                 use .get() or pattern matching"
                    .to_string(),
            );
        }
    }
}

/// Whether the `[` at token `i` is an indexing operation (as opposed to
/// an array expression/type or attribute): preceded by a non-keyword
/// identifier, `)`, or `]`. Shared with the panic-reachability pass.
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

// --- serve outcome ----------------------------------------------------------

/// Every `RouteAnswer { ... }` struct literal in the serving path must
/// name both `outcome` and `deadline` (or functionally forward them via
/// `..`): a response constructed without its overload classification is
/// exactly the bug the degrade ladder exists to prevent — an answer that
/// silently drops whether it was fresh, stale, degraded, or on deadline.
///
/// Lexical approximation: `RouteAnswer` followed by `{` that is not a
/// type definition (`struct`/`impl`/`enum` before it), not a return-type
/// position (`->` before it), and not a pattern with `..`. Destructuring
/// patterns that already name both fields or use `..` pass unflagged.
fn serve_outcome(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("RouteAnswer") {
            continue;
        }
        if !matches!(tokens.get(i + 1), Some(b) if b.is_punct('{')) {
            continue;
        }
        if i >= 1 {
            let prev = &tokens[i - 1];
            // `struct RouteAnswer {` / `impl RouteAnswer {` define or
            // extend the type; `-> ... RouteAnswer {` opens a function
            // body, not a literal.
            if prev.is_ident("struct") || prev.is_ident("impl") || prev.is_punct('>') {
                continue;
            }
        }
        // Walk the balanced literal body collecting depth-1 field names
        // and any rest pattern (`..`).
        let mut depth = 0i32;
        let mut has_outcome = false;
        let mut has_deadline = false;
        let mut has_rest = false;
        let mut j = i + 1;
        while j < tokens.len() {
            let tok = &tokens[j];
            if tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1 {
                if tok.is_ident("outcome") {
                    has_outcome = true;
                } else if tok.is_ident("deadline") {
                    has_deadline = true;
                } else if tok.is_punct('.')
                    && matches!(tokens.get(j + 1), Some(d) if d.is_punct('.'))
                {
                    has_rest = true;
                }
            }
            j += 1;
        }
        if !(has_rest || (has_outcome && has_deadline)) {
            push(
                findings,
                "serve-outcome",
                path,
                t.line,
                "`RouteAnswer { .. }` built without `outcome`/`deadline`: every serving-path \
                 response must carry its overload classification (fresh/stale/degraded + \
                 deadline), or the shed/degrade policy becomes unauditable"
                    .to_string(),
            );
        }
    }
}

// --- non-exhaustive errors --------------------------------------------------

fn non_exhaustive_errors(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
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
            push(
                findings,
                "non-exhaustive-errors",
                path,
                name.line,
                format!(
                    "public error enum `{}` is not #[non_exhaustive]: adding a variant \
                     (new failure mode) would be a breaking change, so errors rot instead",
                    name.text
                ),
            );
        }
    }
}

// --- lock discipline --------------------------------------------------------

fn lock_discipline(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        // `Condvar::wait` always consumes a guard argument, which is what
        // separates it from argument-less methods that happen to share the
        // name (`Ticket::wait()`), so `.wait(` only counts with arguments.
        let takes_args = || !matches!(tokens.get(i + 2), Some(p) if p.is_punct(')'));
        if i >= 1
            && tokens[i - 1].is_punct('.')
            && matches!(tokens.get(i + 1), Some(p) if p.is_punct('('))
            && (t.is_ident("lock")
                || t.is_ident("try_lock")
                || (t.is_ident("wait") && takes_args()))
        {
            push(
                findings,
                "lock-discipline",
                path,
                t.line,
                format!(
                    "raw `.{}()` outside sync.rs: acquire through the designated \
                     sync:: helpers so poisoning policy and lock order stay auditable",
                    t.text
                ),
            );
        }
    }
}

/// Per-function lexical lock-order check over the designated helpers.
///
/// Tracks live guards as `(rank, brace_depth, Option<name>)`; a guard
/// dies when its enclosing block closes, when `drop(name)` is seen, or
/// (for unnamed temporaries) at the next `;` at its own depth.
/// Acquiring a helper while a guard of *higher or equal* rank is live is
/// a violation of the declared order.
fn lock_order(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let rank_of = |name: &str| {
        LOCK_ORDER
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, r, _)| *r)
    };
    let mut depth: i32 = 0;
    let mut guards: Vec<(u32, i32, Option<String>)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|(_, d, _)| *d <= depth);
        } else if t.is_punct(';') {
            guards.retain(|(_, d, name)| name.is_some() || *d != depth);
        } else if t.is_ident("drop") && matches!(tokens.get(i + 1), Some(p) if p.is_punct('(')) {
            if let Some(var) = tokens.get(i + 2) {
                guards.retain(|(_, _, name)| name.as_deref() != Some(var.text.as_str()));
            }
        } else if t.kind == TokenKind::Ident {
            let Some(rank) = rank_of(&t.text) else {
                continue;
            };
            // Only count call sites: `.helper(` — skip the definitions
            // (`fn lock_queue`) and paths.
            if i == 0
                || !tokens[i - 1].is_punct('.')
                || !matches!(tokens.get(i + 1), Some(p) if p.is_punct('('))
            {
                continue;
            }
            for (held, _, name) in &guards {
                if *held >= rank {
                    let held_name = LOCK_ORDER
                        .iter()
                        .find(|(_, r, _)| r == held)
                        .map(|(n, _, _)| *n)
                        .unwrap_or("?");
                    push(
                        findings,
                        "lock-order",
                        path,
                        t.line,
                        format!(
                            "`{}` (rank {rank}) acquired while `{held_name}` (rank {held}) is \
                             held{}: violates the declared lock order",
                            t.text,
                            name.as_deref()
                                .map(|n| format!(" as `{n}`"))
                                .unwrap_or_default(),
                        ),
                    );
                }
            }
            // Bind the guard name if this is a `let [mut] name = ...` stmt.
            let name = statement_binding(tokens, i);
            guards.push((rank, depth, name));
        }
    }
}

/// If the statement containing token `i` is `let [mut] NAME = ...`,
/// returns `NAME`. Searches backwards to the statement start. Shared
/// with the interprocedural lock-order pass.
pub(crate) fn statement_binding(tokens: &[Token], i: usize) -> Option<String> {
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

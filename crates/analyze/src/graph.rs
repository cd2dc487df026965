//! The resolved call graph of the scanned files.
//!
//! Nodes are the function items parsed by [`crate::parser`]; edges are
//! call sites found in their bodies, resolved by name plus a
//! lightweight, flow-insensitive *type environment*. The **ambiguity
//! policy**: when the receiver or path tells us the target type, only
//! that type's methods are candidates — even if that leaves zero
//! candidates (a std or other-crate type adds no edges). When nothing
//! pins the type down, an edge is added to *every* candidate so the
//! lock-order pass over-approximates rather than misses. The three
//! call forms:
//!
//! * **Path-qualified** `Qual::name(…)` — an uppercase `Qual` (or
//!   `Self`, substituted from the enclosing impl) is a type: candidates
//!   are exactly that type's methods named `name`, possibly none —
//!   `Box::new(…)` and `Vec::with_capacity(…)` must not fan out to
//!   every `new`. A lowercase `Qual` is a module path segment:
//!   candidates are the free functions named `name`. Uppercase `name`
//!   (a tuple-variant constructor) is skipped.
//! * **Method** `recv.name(…)` — the receiver is typed when it is
//!   `self` (the enclosing impl), a parameter or `let` binding with a
//!   recoverable type, or a direct `self.field` access (struct field
//!   types are parsed from every scanned file). A typed receiver
//!   resolves to that type's methods only; an untyped receiver (chained
//!   calls, nested field paths, `dyn`/`impl Trait`, generics) fans out
//!   to every method named `name`.
//! * **Bare** `name(…)` — candidates are the free functions named
//!   `name`.
//!
//! **Std collisions** tame the untyped fan-out: an untyped receiver
//! never fans out on a method name from the std prelude/collection/
//! iterator API (`STD_METHODS` — `len`, `insert`, `get`, …); those
//! calls are overwhelmingly `Vec`/`BTreeMap`/`Option` operations, and
//! typed receivers still resolve them precisely.
//!
//! Known approximations, deliberate in both directions: trait-default
//! methods are keyed under the trait's name, so a typed receiver can
//! miss a default method inherited from a trait; `let` rebinding is
//! flow-insensitive (the last recoverable binding in the body wins and
//! an opaque rebinding erases the type); a `Type::CONST`
//! associated-const initialiser types the binding as `Type`; calls
//! through trait objects and closures add no edges. Calls to functions
//! the scanned files do not define resolve to nothing.

use crate::lexer::{Token, TokenKind};
use crate::parser::{effective_type, is_keyword, FnItem, ParsedFile};
use std::collections::BTreeMap;

/// One function node.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the owning file in [`CallGraph::files`].
    pub file: usize,
    /// Index of the item in that file's `fns`.
    pub item: usize,
    /// Function name.
    pub name: String,
    /// Impl/trait self type for methods.
    pub self_ty: Option<String>,
    /// Repo-relative path of the defining file.
    pub path: String,
    /// 1-based line of the definition.
    pub line: u32,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Callee node index.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// Token index of the callee name at the call site (used by the
    /// lock-order pass to interleave calls with guard tracking).
    pub tok: usize,
}

/// The call graph of the scanned files. Owns the parsed files so node body
/// ranges stay resolvable.
#[derive(Debug)]
pub struct CallGraph {
    /// The parsed source files the nodes index into.
    pub files: Vec<ParsedFile>,
    /// All function nodes.
    pub nodes: Vec<FnNode>,
    /// Outgoing calls per node (parallel to `nodes`).
    pub calls: Vec<Vec<Call>>,
}

impl CallGraph {
    /// Builds the graph from parsed files.
    pub fn build(files: Vec<ParsedFile>) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                nodes.push(FnNode {
                    file: fi,
                    item: ii,
                    name: f.name.clone(),
                    self_ty: f.self_ty.clone(),
                    path: file.path.clone(),
                    line: f.line,
                });
            }
        }
        // Name index over all nodes.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(n.name.as_str()).or_default().push(id);
        }
        // Field types across the files: (struct, field) → effective
        // type (first definition wins on name collisions),
        // plus field name → type when the name types identically in
        // every struct that declares it (used for receivers reached
        // through a guard or intermediate value, `cur.epochs.bump(…)`).
        let mut field_types: BTreeMap<(&str, &str), &str> = BTreeMap::new();
        let mut unique_fields: BTreeMap<&str, Option<&str>> = BTreeMap::new();
        for file in &files {
            for s in &file.structs {
                for (f, ty) in &s.fields {
                    field_types
                        .entry((s.name.as_str(), f.as_str()))
                        .or_insert(ty.as_str());
                    unique_fields
                        .entry(f.as_str())
                        .and_modify(|seen| {
                            if *seen != Some(ty.as_str()) {
                                *seen = None; // conflicting types: opaque
                            }
                        })
                        .or_insert(Some(ty.as_str()));
                }
            }
        }
        let mut calls = vec![Vec::new(); nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            let file = &files[node.file];
            let item = &file.fns[node.item];
            let Some((open, close)) = item.body else {
                continue;
            };
            // Token ranges of *other* fns nested inside this body are
            // skipped so a nested item's calls are attributed to it.
            let nested: Vec<(usize, usize)> = file
                .fns
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != node.item)
                .filter_map(|(_, g)| g.body)
                .filter(|&(b, e)| b > open && e < close)
                .collect();
            let toks = &file.tokens;
            let locals = local_types(toks, open, close, &nested, item);
            let mut i = open + 1;
            while i < close {
                if let Some(&(_, e)) = nested.iter().find(|&&(b, e)| i >= b && i <= e) {
                    i = e + 1;
                    continue;
                }
                let t = &toks[i];
                let is_call = t.kind == TokenKind::Ident
                    && !is_keyword(&t.text)
                    && toks
                        .get(after_turbofish(toks, i + 1))
                        .is_some_and(|p| p.is_punct('('));
                if is_call {
                    let name = t.text.as_str();
                    let prev = i.checked_sub(1).map(|j| &toks[j]);
                    let candidates = if prev.is_some_and(|p| p.is_punct('.')) {
                        // method call: `recv.name(…)`
                        let recv =
                            classify_receiver(toks, i, node, &locals, &field_types, &unique_fields);
                        resolve_method(&nodes, &by_name, name, &recv, node)
                    } else if prev.is_some_and(|p| p.is_punct(':'))
                        && i >= 2
                        && toks[i - 2].is_punct(':')
                    {
                        // qualified call: `Qual::name(…)`
                        if name.starts_with(char::is_uppercase) {
                            Vec::new() // tuple-variant constructor
                        } else {
                            let qual = toks
                                .get(i.wrapping_sub(3))
                                .and_then(|q| (q.kind == TokenKind::Ident).then(|| q.text.clone()));
                            resolve_qualified(&nodes, &by_name, name, qual.as_deref(), node)
                        }
                    } else if name.starts_with(char::is_uppercase) {
                        Vec::new() // `Some(…)`, tuple struct/variant
                    } else {
                        free_fns(&nodes, &by_name, name)
                    };
                    for callee in candidates {
                        if calls[id]
                            .last()
                            .is_some_and(|c: &Call| c.callee == callee && c.tok == i)
                        {
                            continue;
                        }
                        calls[id].push(Call {
                            callee,
                            line: t.line,
                            tok: i,
                        });
                    }
                }
                i += 1;
            }
        }
        CallGraph {
            files,
            nodes,
            calls,
        }
    }

    /// A short human label: `[SelfTy::]name`.
    pub fn label(&self, id: usize) -> String {
        let n = &self.nodes[id];
        match &n.self_ty {
            Some(ty) => format!("{ty}::{}", n.name),
            None => n.name.clone(),
        }
    }

    /// Iterates the token indices of `id`'s body, excluding nested fn
    /// items. Returns `(open, close, nested_ranges)`; `None` if
    /// bodiless.
    pub(crate) fn body_span(&self, id: usize) -> Option<BodySpan> {
        let node = &self.nodes[id];
        let file = &self.files[node.file];
        let (open, close) = file.fns[node.item].body?;
        let nested = file
            .fns
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != node.item)
            .filter_map(|(_, g)| g.body)
            .filter(|&(b, e)| b > open && e < close)
            .collect();
        Some((open, close, nested))
    }
}

/// One function body's token extent: `(open brace, close brace,
/// nested fn ranges to skip)`.
pub(crate) type BodySpan = (usize, usize, Vec<(usize, usize)>);

/// How much the call site tells us about a method receiver.
enum Recv {
    /// Literally `self` — the enclosing impl's type.
    SelfTy,
    /// A binding or field whose effective type is known.
    Typed(String),
    /// Anything else: chained calls, nested paths, opaque bindings.
    Unknown,
}

/// Method names that collide with the std prelude / collection /
/// iterator API. An *untyped* receiver never fans out on these — such
/// calls are overwhelmingly `Vec`/`BTreeMap`/`Option` operations, and
/// letting them reach same-named accessors manufactures
/// absurd edges (`guard.map.len()` → `RouteCache::len`). Typed
/// receivers still resolve them precisely.
const STD_METHODS: &[&str] = &[
    "append",
    "chain",
    "clear",
    "clone",
    "cloned",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "enumerate",
    "extend",
    "filter",
    "find",
    "first",
    "fold",
    "get",
    "get_mut",
    "insert",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "last",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "pop",
    "push",
    "remove",
    "replace",
    "retain",
    "rev",
    "sum",
    "take",
    "values",
    "zip",
];

/// Classifies the receiver of the method call whose name token is at
/// `i` (so `toks[i - 1]` is the `.`).
fn classify_receiver(
    toks: &[Token],
    i: usize,
    caller: &FnNode,
    locals: &BTreeMap<String, String>,
    field_types: &BTreeMap<(&str, &str), &str>,
    unique_fields: &BTreeMap<&str, Option<&str>>,
) -> Recv {
    if i < 2 {
        return Recv::Unknown;
    }
    let r = &toks[i - 2];
    if r.kind != TokenKind::Ident {
        return Recv::Unknown; // `foo().m(`, `xs[0].m(`, literals…
    }
    if r.is_ident("self") {
        // `self.m(` — but not the tail of a longer chain.
        return if i >= 3 && toks[i - 3].is_punct('.') {
            Recv::Unknown
        } else {
            Recv::SelfTy
        };
    }
    if is_keyword(&r.text) {
        return Recv::Unknown;
    }
    if i >= 3 && toks[i - 3].is_punct('.') {
        // `….field.m(` — precise for a direct `self.field.m(`; for a
        // longer chain the field name alone decides, but only when it
        // types identically in every struct that declares it.
        if i >= 4 && toks[i - 4].is_ident("self") && !(i >= 5 && toks[i - 5].is_punct('.')) {
            if let Some(st) = &caller.self_ty {
                if let Some(ty) = field_types.get(&(st.as_str(), r.text.as_str())) {
                    return Recv::Typed((*ty).to_string());
                }
            }
        }
        if let Some(Some(ty)) = unique_fields.get(r.text.as_str()) {
            return Recv::Typed((*ty).to_string());
        }
        return Recv::Unknown;
    }
    if i >= 3 && toks[i - 3].is_punct(':') {
        return Recv::Unknown; // path-qualified receiver `m::ITEM.m(`
    }
    match locals.get(&r.text) {
        Some(ty) => Recv::Typed(ty.clone()),
        None => Recv::Unknown,
    }
}

/// Builds the flow-insensitive type environment for one body: parameter
/// types from the signature plus `let` bindings whose initialiser or
/// annotation pins down an effective type. A rebinding with an opaque
/// type *erases* the name so later calls fan out conservatively.
fn local_types(
    toks: &[Token],
    open: usize,
    close: usize,
    nested: &[(usize, usize)],
    item: &FnItem,
) -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    for (name, ty) in &item.params {
        if let Some(ty) = ty {
            env.insert(name.clone(), ty.clone());
        }
    }
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, e)) = nested.iter().find(|&&(b, e)| i >= b && i <= e) {
            i = e + 1;
            continue;
        }
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name_tok) = toks.get(j) {
                if name_tok.kind == TokenKind::Ident && !is_keyword(&name_tok.text) {
                    let k = j + 1;
                    if toks.get(k).is_some_and(|t| t.is_punct(':'))
                        && !toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                    {
                        // `let x: Type = …` — annotation to `=`/`;`.
                        let mut b = k + 1;
                        let mut d = 0i32;
                        while b < close {
                            let u = &toks[b];
                            if u.is_punct('(')
                                || u.is_punct('[')
                                || u.is_punct('{')
                                || u.is_punct('<')
                            {
                                d += 1;
                            } else if (u.is_punct('>') && !toks[b - 1].is_punct('-'))
                                || u.is_punct(')')
                                || u.is_punct(']')
                                || u.is_punct('}')
                            {
                                d -= 1;
                            } else if d == 0 && (u.is_punct('=') || u.is_punct(';')) {
                                break;
                            }
                            b += 1;
                        }
                        match effective_type(toks, k + 1, b) {
                            Some(ty) => {
                                env.insert(name_tok.text.clone(), ty);
                            }
                            None => {
                                env.remove(&name_tok.text);
                            }
                        }
                    } else if toks.get(k).is_some_and(|t| t.is_punct('='))
                        && !toks.get(k + 1).is_some_and(|t| t.is_punct('='))
                    {
                        match init_type(toks, k + 1) {
                            Some(ty) => {
                                env.insert(name_tok.text.clone(), ty);
                            }
                            None => {
                                env.remove(&name_tok.text);
                            }
                        }
                    }
                }
            }
        }
        i += 1;
    }
    env
}

/// Types a `let` initialiser by its leading tokens: `Type::ctor(…)`,
/// `Type { … }`, and `Tuple(…)` forms bind `Type`; `Arc::new(…)` /
/// `Rc::new(…)` / `Box::new(…)` bind the pointee. Lowercase calls,
/// SCREAMING consts, and anything else are opaque (`None`).
fn init_type(toks: &[Token], m: usize) -> Option<String> {
    let t = toks.get(m)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    if !t.text.starts_with(char::is_uppercase) || !t.text.contains(char::is_lowercase) {
        return None;
    }
    if matches!(t.text.as_str(), "Arc" | "Rc" | "Box")
        && toks.get(m + 1).is_some_and(|a| a.is_punct(':'))
        && toks.get(m + 2).is_some_and(|a| a.is_punct(':'))
        && toks.get(m + 3).is_some_and(|a| a.is_ident("new"))
        && toks.get(m + 4).is_some_and(|a| a.is_punct('('))
    {
        return init_type(toks, m + 5);
    }
    let next = toks.get(m + 1)?;
    let qualified = next.is_punct(':') && toks.get(m + 2).is_some_and(|a| a.is_punct(':'));
    if qualified || next.is_punct('{') || next.is_punct('(') {
        return Some(t.text.clone());
    }
    None
}

fn resolve_method(
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    name: &str,
    recv: &Recv,
    caller: &FnNode,
) -> Vec<usize> {
    let Some(ids) = by_name.get(name) else {
        return Vec::new();
    };
    let methods = |ty: Option<&str>| -> Vec<usize> {
        ids.iter()
            .copied()
            .filter(|&id| match ty {
                Some(ty) => nodes[id].self_ty.as_deref() == Some(ty),
                None => nodes[id].self_ty.is_some(),
            })
            .collect()
    };
    match recv {
        Recv::SelfTy => {
            if let Some(ty) = &caller.self_ty {
                let own = methods(Some(ty));
                if !own.is_empty() {
                    return own;
                }
            }
            if STD_METHODS.contains(&name) {
                return Vec::new(); // `self.len()` etc. via Deref: std
            }
            methods(None) // inherited trait method: fan out
        }
        Recv::Typed(ty) => {
            let ty = if ty == "Self" {
                caller.self_ty.as_deref().unwrap_or("Self")
            } else {
                ty.as_str()
            };
            methods(Some(ty)) // possibly empty: std/foreign type
        }
        Recv::Unknown => {
            if STD_METHODS.contains(&name) {
                return Vec::new();
            }
            methods(None)
        }
    }
}

fn resolve_qualified(
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    name: &str,
    qual: Option<&str>,
    caller: &FnNode,
) -> Vec<usize> {
    let ty = match qual {
        Some("Self") => caller.self_ty.as_deref(),
        Some(q) if q.starts_with(char::is_uppercase) => Some(q),
        _ => return free_fns(nodes, by_name, name),
    };
    // Type-qualified: exactly the type's methods. A type the scanned
    // files never implement (std, another crate) adds no edges —
    // `Box::new(…)` must not fan out to every `new`.
    let (Some(ty), Some(ids)) = (ty, by_name.get(name)) else {
        return Vec::new();
    };
    ids.iter()
        .copied()
        .filter(|&id| nodes[id].self_ty.as_deref() == Some(ty))
        .collect()
}

/// Free functions named `name`: the candidates of a bare or
/// module-qualified call.
fn free_fns(nodes: &[FnNode], by_name: &BTreeMap<&str, Vec<usize>>, name: &str) -> Vec<usize> {
    let Some(ids) = by_name.get(name) else {
        return Vec::new();
    };
    ids.iter()
        .copied()
        .filter(|&id| nodes[id].self_ty.is_none())
        .collect()
}

/// The token index after the turbofish starting at `i`, or `i` itself
/// when there is none — so `name::<A, B>(…)` is the call of `name` that
/// `name(…)` is (a generic function picked by type is otherwise an
/// invisible edge, and everything below it unreachable).
fn after_turbofish(toks: &[Token], i: usize) -> usize {
    let is = |j: usize, c: char| toks.get(j).is_some_and(|t| t.is_punct(c));
    if !(is(i, ':') && is(i + 1, ':') && is(i + 2, '<')) {
        return i;
    }
    let mut depth = 0usize;
    for j in i + 2..toks.len() {
        if is(j, '<') {
            depth += 1;
        } else if is(j, '>') && !is(j - 1, '-') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if is(j, ';') || is(j, '{') {
            break; // not a type list after all
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parser::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed = files
            .iter()
            .map(|(p, s)| parse_file(p, lexer::lex(s)))
            .collect();
        CallGraph::build(parsed)
    }

    /// The node named `name` (and, when given, with self type `ty`).
    fn node(g: &CallGraph, name: &str, ty: Option<&str>) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name && (ty.is_none() || n.self_ty.as_deref() == ty))
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    /// Deduplicated callee ids of `id`.
    fn callees(g: &CallGraph, id: usize) -> Vec<usize> {
        let mut out: Vec<usize> = g.calls[id].iter().map(|c| c.callee).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    const LIB: &str = "crates/serve/src/lib.rs";

    #[test]
    fn untyped_method_calls_fan_out_to_every_candidate() {
        let g = graph(&[
            (LIB, "fn run() { fetch().poke(); }"),
            (
                "crates/serve/src/pool.rs",
                "impl Pool { fn poke(&self) {} }\nimpl Sink { fn poke(&self) {} }",
            ),
        ]);
        let run = node(&g, "run", None);
        let pool_poke = node(&g, "poke", Some("Pool"));
        let sink_poke = node(&g, "poke", Some("Sink"));
        assert_eq!(callees(&g, run), vec![pool_poke, sink_poke]);
    }

    #[test]
    fn std_collision_names_do_not_fan_out_untyped() {
        let g = graph(&[(
            LIB,
            "impl Cache { fn len(&self) -> usize { 0 } }\n\
             fn probe(c: &Cache) -> usize { c.len() + guard().map.len() }\n\
             fn guard() -> u32 { 0 }",
        )]);
        let probe = node(&g, "probe", None);
        let cache_len = node(&g, "len", Some("Cache"));
        let guard = node(&g, "guard", None);
        assert_eq!(
            callees(&g, probe),
            vec![cache_len, guard],
            "typed receiver resolves len; the untyped guard chain adds nothing"
        );
    }

    #[test]
    fn typed_receivers_narrow_to_the_receiver_type() {
        let g = graph(&[(
            LIB,
            "fn by_param(p: &Pool) { p.poke(); }\n\
             fn by_let() { let s = Sink::open(); s.poke(); }\n\
             fn foreign(v: Vec<u8>) { v.poke(); }\n\
             impl Pool { fn poke(&self) {} }\n\
             impl Sink { fn open() -> Sink { Sink } fn poke(&self) {} }",
        )]);
        let pool_poke = node(&g, "poke", Some("Pool"));
        let sink_open = node(&g, "open", Some("Sink"));
        let sink_poke = node(&g, "poke", Some("Sink"));
        assert_eq!(callees(&g, node(&g, "by_param", None)), vec![pool_poke]);
        assert_eq!(
            callees(&g, node(&g, "by_let", None)),
            vec![sink_open, sink_poke]
        );
        assert!(
            callees(&g, node(&g, "foreign", None)).is_empty(),
            "a std-typed receiver adds no edges"
        );
    }

    #[test]
    fn self_field_receivers_use_struct_field_types() {
        let g = graph(&[(
            LIB,
            "struct Service { cache: Cache, names: Vec<String> }\n\
             impl Service { fn hit(&self) { self.cache.touch(); self.names.touch(); } }\n\
             impl Cache { fn touch(&self) {} }\n\
             impl Other { fn touch(&self) {} }",
        )]);
        let hit = node(&g, "hit", Some("Service"));
        let cache_touch = node(&g, "touch", Some("Cache"));
        assert_eq!(
            callees(&g, hit),
            vec![cache_touch],
            "self.cache narrows; self.names (Vec) adds nothing"
        );
    }

    #[test]
    fn unknown_type_qualifiers_resolve_to_nothing() {
        let g = graph(&[(
            LIB,
            "impl Pool { fn new() -> Pool { Pool } }\n\
             fn run() { let v = Box::new(3); side(v); }\n\
             fn side(_v: Box<i32>) {}",
        )]);
        let run = node(&g, "run", None);
        let side = node(&g, "side", None);
        assert_eq!(
            callees(&g, run),
            vec![side],
            "Box::new must not fan out to Pool::new"
        );
    }

    #[test]
    fn module_qualifiers_resolve_to_free_functions() {
        let g = graph(&[(
            LIB,
            "pub fn top() { sync::lock(); }\npub fn lock() {}\nimpl Q { fn lock(&self) {} }",
        )]);
        let top = node(&g, "top", None);
        let free_lock = node(&g, "lock", None);
        assert_eq!(callees(&g, top), vec![free_lock]);
    }

    #[test]
    fn self_receiver_narrows_to_the_own_impl() {
        let g = graph(&[(
            LIB,
            "impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let go = node(&g, "go", Some("A"));
        let a_step = node(&g, "step", Some("A"));
        assert_eq!(callees(&g, go), vec![a_step]);
    }

    #[test]
    fn trait_impls_resolve_through_the_type_qualifier() {
        let g = graph(&[(
            LIB,
            "impl Render for Page { fn draw(&self) {} }\n\
             fn paint() { Page::draw(); }",
        )]);
        let paint = node(&g, "paint", None);
        let draw = node(&g, "draw", Some("Page"));
        assert_eq!(callees(&g, paint), vec![draw]);
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let g = graph(&[(
            LIB,
            "fn run() { pick::<Vec<Box<u8>>, fn() -> u8>(); Page::draw::<u8>(); }\n\
             fn pick<A, B>() {}\nimpl Page { fn draw<T>() {} }\n\
             fn idle() { let _ = pick::<u8, u8>; }",
        )]);
        let run = node(&g, "run", None);
        let pick = node(&g, "pick", None);
        let draw = node(&g, "draw", Some("Page"));
        assert_eq!(callees(&g, run), vec![pick, draw]);
        // Naming a generic function without calling it is not a call.
        assert!(callees(&g, node(&g, "idle", None)).is_empty());
    }

    #[test]
    fn std_calls_resolve_to_nothing() {
        let g = graph(&[(LIB, "fn run(v: Vec<u8>) { v.sort(); println(); Some(3); }")]);
        assert!(callees(&g, node(&g, "run", None)).is_empty());
    }
}

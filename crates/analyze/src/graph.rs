//! The resolved cross-crate call graph.
//!
//! Nodes are the function items parsed by [`crate::parser`]; edges are
//! call sites found in their bodies, resolved by name plus a
//! lightweight, flow-insensitive *type environment*. The **ambiguity
//! policy**: when the receiver or path tells us the target type, only
//! that type's methods are candidates — even if that leaves zero
//! candidates (a std or vendored type adds no edges). When nothing
//! pins the type down, an edge is added to *every* candidate so the
//! safety passes (panic reachability, metered-I/O escape, lock order)
//! over-approximate rather than miss. The three call forms:
//!
//! * **Path-qualified** `Qual::name(…)` — an uppercase `Qual` (or
//!   `Self`, substituted from the enclosing impl) is a type: candidates
//!   are exactly that type's methods named `name`, possibly none —
//!   `Box::new(…)` and `Vec::with_capacity(…)` must not fan out to
//!   every workspace `new`. A lowercase `Qual` is a module/crate path
//!   segment: candidates are free functions named `name`, preferring
//!   (1) the crate matching `Qual` (with `atis_` normalisation), then
//!   (2) the caller's own crate — module paths are almost always
//!   crate-local — then (3) any free function. Uppercase `name` (a
//!   tuple-variant constructor) is skipped.
//! * **Method** `recv.name(…)` — the receiver is typed when it is
//!   `self` (the enclosing impl), a parameter or `let` binding with a
//!   recoverable type, or a direct `self.field` access (struct field
//!   types are parsed workspace-wide). A typed receiver resolves to
//!   that type's methods only; an untyped receiver (chained calls,
//!   nested field paths, `dyn`/`impl Trait`, generics) fans out to
//!   every workspace method named `name`.
//! * **Bare** `name(…)` — candidates are free functions named `name`
//!   in the same crate, else anywhere in the workspace.
//!
//! Two guards tame the untyped fan-out. **Crate visibility**: crate C
//! only dispatches into crate D when C names D (`atis_<d>` appears in
//! C's sources) — storage can never "call" serve. **Std collisions**:
//! an untyped receiver never fans out on a method name from the std
//! prelude/collection/iterator API (`STD_METHODS` — `len`, `insert`,
//! `get`, …); those calls are overwhelmingly `Vec`/`BTreeMap`/`Option`
//! operations, and typed receivers still resolve them precisely.
//!
//! Known approximations, deliberate in both directions: trait-default
//! methods are keyed under the trait's name, so a typed receiver can
//! miss a default method inherited from a trait; `let` rebinding is
//! flow-insensitive (the last recoverable binding in the body wins and
//! an opaque rebinding erases the type); a `Type::CONST`
//! associated-const initialiser types the binding as `Type`; dynamic
//! dispatch into a crate the caller never names (callback objects
//! registered by a higher layer) is invisible. Calls to functions the
//! workspace does not define resolve to nothing.
//! `cargo run -p atis-analyze -- graph --dot` dumps the graph.

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
    /// Crate identifier (see [`crate::parser::crate_of`]).
    pub krate: String,
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

/// The whole-workspace call graph. Owns the parsed files so node body
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
                    krate: file.krate.clone(),
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
        // Field types across the workspace: (struct, field) → effective
        // type (first definition wins on cross-crate name collisions),
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
        // Crate visibility: crate C can dispatch into crate D only when
        // C *names* D (`atis_<d>` appears somewhere in C) or C == D.
        // Dynamic dispatch into a crate the caller never names (a
        // callback object registered by a higher layer) is out of
        // scope — a documented approximation.
        let mut crate_deps: BTreeMap<&str, std::collections::BTreeSet<&str>> = BTreeMap::new();
        for file in &files {
            let entry = crate_deps.entry(file.krate.as_str()).or_default();
            for t in &file.tokens {
                if t.kind == TokenKind::Ident {
                    if let Some(dep) = t.text.strip_prefix("atis_") {
                        entry.insert(dep);
                    }
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
                        resolve_method(&nodes, &by_name, &crate_deps, name, &recv, node)
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
                            resolve_qualified(
                                &nodes,
                                &by_name,
                                &crate_deps,
                                name,
                                qual.as_deref(),
                                node,
                            )
                        }
                    } else if name.starts_with(char::is_uppercase) {
                        Vec::new() // `Some(…)`, tuple struct/variant
                    } else {
                        resolve_bare(&nodes, &by_name, &crate_deps, name, node)
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

    /// Finds a node by crate and name (and, when given, self type).
    /// Returns the first match in file order.
    pub fn node(&self, krate: &str, name: &str, self_ty: Option<&str>) -> Option<usize> {
        self.nodes.iter().position(|n| {
            n.krate == krate
                && n.name == name
                && (self_ty.is_none() || n.self_ty.as_deref() == self_ty)
        })
    }

    /// Deduplicated callee ids of `id`.
    pub fn callees(&self, id: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.calls[id].iter().map(|c| c.callee).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// A short human label: `crate::[SelfTy::]name`.
    pub fn label(&self, id: usize) -> String {
        let n = &self.nodes[id];
        match &n.self_ty {
            Some(ty) => format!("{}::{}::{}", n.krate, ty, n.name),
            None => format!("{}::{}", n.krate, n.name),
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

    /// Renders the graph in Graphviz DOT format (one node per function,
    /// one edge per deduplicated call pair).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n");
        for (id, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "  n{id} [label=\"{}\\n{}:{}\"];\n",
                self.label(id),
                n.path,
                n.line
            ));
        }
        for (id, _) in self.nodes.iter().enumerate() {
            for callee in self.callees(id) {
                out.push_str(&format!("  n{id} -> n{callee};\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Breadth-first reachability from `roots`; returns, for every
    /// node, the parent hop `(caller, call_line)` discovered first
    /// (roots map to themselves with line 0).
    pub(crate) fn reach_from(
        &self,
        roots: &[usize],
        stop_at: &dyn Fn(usize) -> bool,
    ) -> BTreeMap<usize, (usize, u32)> {
        let mut parent: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if parent.insert(r, (r, 0)).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            if stop_at(id) {
                continue; // the node itself is reachable; its callees are not
            }
            for call in &self.calls[id] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(call.callee) {
                    e.insert((id, call.line));
                    queue.push_back(call.callee);
                }
            }
        }
        parent
    }

    /// Reconstructs the call-chain witness from a root down to `id`
    /// using a `reach_from` parent map: one string per hop.
    pub(crate) fn witness(&self, parent: &BTreeMap<usize, (usize, u32)>, id: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = id;
        while let Some(&(p, line)) = parent.get(&cur) {
            let n = &self.nodes[cur];
            if p == cur {
                chain.push(format!("{} ({}:{})", self.label(cur), n.path, n.line));
                break;
            }
            chain.push(format!(
                "{} ({}:{}) <- called at {}:{}",
                self.label(cur),
                n.path,
                n.line,
                self.nodes[p].path,
                line
            ));
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// One function body's token extent: `(open brace, close brace,
/// nested fn ranges to skip)`.
pub(crate) type BodySpan = (usize, usize, Vec<(usize, usize)>);

/// Normalises a path qualifier against a crate id: `atis_storage` and
/// `atis-storage` both match crate `storage`.
fn qual_matches_crate(qual: &str, krate: &str) -> bool {
    let q = qual.strip_prefix("atis_").unwrap_or(qual);
    q == krate || qual == krate
}

/// How much the call site tells us about a method receiver.
enum Recv {
    /// Literally `self` — the enclosing impl's type.
    SelfTy,
    /// A binding or field whose effective type is known.
    Typed(String),
    /// Anything else: chained calls, nested paths, opaque bindings.
    Unknown,
}

/// Crate-visibility check: can `caller`'s crate dispatch into the
/// crate of node `id`? True for the same crate and for any crate the
/// caller's crate names via an `atis_*` path or import.
fn visible(
    nodes: &[FnNode],
    deps: &BTreeMap<&str, std::collections::BTreeSet<&str>>,
    caller: &FnNode,
    id: usize,
) -> bool {
    let ck = caller.krate.as_str();
    let dk = nodes[id].krate.as_str();
    ck == dk || deps.get(ck).is_some_and(|d| d.contains(dk))
}

/// Method names that collide with the std prelude / collection /
/// iterator API. An *untyped* receiver never fans out on these — such
/// calls are overwhelmingly `Vec`/`BTreeMap`/`Option` operations, and
/// letting them reach same-named workspace accessors manufactures
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
    deps: &BTreeMap<&str, std::collections::BTreeSet<&str>>,
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
                None => nodes[id].self_ty.is_some() && visible(nodes, deps, caller, id),
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
    deps: &BTreeMap<&str, std::collections::BTreeSet<&str>>,
    name: &str,
    qual: Option<&str>,
    caller: &FnNode,
) -> Vec<usize> {
    let Some(ids) = by_name.get(name) else {
        return Vec::new();
    };
    let qual = match qual {
        Some("Self") => caller.self_ty.clone(),
        Some(q) => Some(q.to_string()),
        None => None,
    };
    if let Some(q) = &qual {
        if q.starts_with(char::is_uppercase) {
            // Type-qualified: exactly the type's methods. A type the
            // workspace never implements (std, vendored) adds no edges
            // — `Box::new(…)` must not fan out to every `new`.
            return ids
                .iter()
                .copied()
                .filter(|&id| nodes[id].self_ty.as_deref() == Some(q.as_str()))
                .collect();
        }
        // Module/crate-qualified free functions: the matching crate,
        // else the caller's crate (module paths are almost always
        // crate-local), else anywhere.
        let free: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| nodes[id].self_ty.is_none())
            .collect();
        let in_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&id| qual_matches_crate(q, &nodes[id].krate))
            .collect();
        if !in_crate.is_empty() {
            return in_crate;
        }
        let same_crate: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&id| nodes[id].krate == caller.krate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        return free
            .into_iter()
            .filter(|&id| visible(nodes, deps, caller, id))
            .collect();
    }
    ids.clone()
}

fn resolve_bare(
    nodes: &[FnNode],
    by_name: &BTreeMap<&str, Vec<usize>>,
    deps: &BTreeMap<&str, std::collections::BTreeSet<&str>>,
    name: &str,
    caller: &FnNode,
) -> Vec<usize> {
    let Some(ids) = by_name.get(name) else {
        return Vec::new();
    };
    let free: Vec<usize> = ids
        .iter()
        .copied()
        .filter(|&id| nodes[id].self_ty.is_none())
        .collect();
    let same_crate: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&id| nodes[id].krate == caller.krate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    free.into_iter()
        .filter(|&id| visible(nodes, deps, caller, id))
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
            .map(|(p, s)| {
                let (tokens, _) = lexer::lex(s);
                parse_file(p, tokens)
            })
            .collect();
        CallGraph::build(parsed)
    }

    #[test]
    fn cross_crate_qualified_call_resolves_to_the_named_crate() {
        let g = graph(&[
            (
                "crates/serve/src/lib.rs",
                "fn run() { atis_storage::charge(); }",
            ),
            ("crates/storage/src/lib.rs", "pub fn charge() {}"),
            ("crates/obs/src/lib.rs", "pub fn charge() {}"),
        ]);
        let run = g.node("serve", "run", None).unwrap();
        let storage_charge = g.node("storage", "charge", None).unwrap();
        assert_eq!(g.callees(run), vec![storage_charge]);
    }

    #[test]
    fn untyped_method_calls_fan_out_to_visible_candidates() {
        let g = graph(&[
            (
                "crates/serve/src/lib.rs",
                "use atis_storage::Pool;\nfn run() { fetch().poke(); }",
            ),
            (
                "crates/storage/src/lib.rs",
                "impl Pool { fn poke(&self) {} }",
            ),
            ("crates/obs/src/lib.rs", "impl Sink { fn poke(&self) {} }"),
        ]);
        let run = g.node("serve", "run", None).unwrap();
        let pool_poke = g.node("storage", "poke", Some("Pool")).unwrap();
        assert_eq!(
            g.callees(run),
            vec![pool_poke],
            "fan-out reaches named crates only: obs is invisible to serve here"
        );
    }

    #[test]
    fn std_collision_names_do_not_fan_out_untyped() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "impl Cache { fn len(&self) -> usize { 0 } }\n\
             fn probe(c: &Cache) -> usize { c.len() + guard().map.len() }\n\
             fn guard() -> u32 { 0 }",
        )]);
        let probe = g.node("serve", "probe", None).unwrap();
        let cache_len = g.node("serve", "len", Some("Cache")).unwrap();
        let guard = g.node("serve", "guard", None).unwrap();
        assert_eq!(
            g.callees(probe),
            vec![cache_len, guard],
            "typed receiver resolves len; the untyped guard chain adds nothing"
        );
    }

    #[test]
    fn typed_receivers_narrow_to_the_receiver_type() {
        let g = graph(&[
            (
                "crates/serve/src/lib.rs",
                "fn by_param(p: &Pool) { p.poke(); }\n\
                 fn by_let() { let s = Sink::open(); s.poke(); }\n\
                 fn foreign(v: Vec<u8>) { v.poke(); }",
            ),
            (
                "crates/storage/src/lib.rs",
                "impl Pool { fn poke(&self) {} }\n\
                 impl Sink { fn open() -> Sink { Sink } fn poke(&self) {} }",
            ),
        ]);
        let pool_poke = g.node("storage", "poke", Some("Pool")).unwrap();
        let sink_open = g.node("storage", "open", Some("Sink")).unwrap();
        let sink_poke = g.node("storage", "poke", Some("Sink")).unwrap();
        let by_param = g.node("serve", "by_param", None).unwrap();
        let by_let = g.node("serve", "by_let", None).unwrap();
        let foreign = g.node("serve", "foreign", None).unwrap();
        assert_eq!(g.callees(by_param), vec![pool_poke]);
        assert_eq!(g.callees(by_let), vec![sink_open, sink_poke]);
        assert!(
            g.callees(foreign).is_empty(),
            "a std-typed receiver adds no edges"
        );
    }

    #[test]
    fn self_field_receivers_use_struct_field_types() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "struct Service { cache: Cache, names: Vec<String> }\n\
             impl Service { fn hit(&self) { self.cache.touch(); self.names.touch(); } }\n\
             impl Cache { fn touch(&self) {} }\n\
             impl Other { fn touch(&self) {} }",
        )]);
        let hit = g.node("serve", "hit", Some("Service")).unwrap();
        let cache_touch = g.node("serve", "touch", Some("Cache")).unwrap();
        assert_eq!(
            g.callees(hit),
            vec![cache_touch],
            "self.cache narrows; self.names (Vec) adds nothing"
        );
    }

    #[test]
    fn unknown_type_qualifiers_resolve_to_nothing() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "impl Pool { fn new() -> Pool { Pool } }\n\
             fn run() { let v = Box::new(3); side(v); }\n\
             fn side(_v: Box<i32>) {}",
        )]);
        let run = g.node("serve", "run", None).unwrap();
        let side = g.node("serve", "side", None).unwrap();
        assert_eq!(
            g.callees(run),
            vec![side],
            "Box::new must not fan out to Pool::new"
        );
    }

    #[test]
    fn module_qualifiers_prefer_the_callers_crate() {
        let g = graph(&[
            (
                "crates/algorithms/src/lib.rs",
                "pub fn top() { search::run(); }\npub fn run() {}",
            ),
            ("crates/bench/src/lib.rs", "pub fn run() {}"),
        ]);
        let top = g.node("algorithms", "top", None).unwrap();
        let own_run = g.node("algorithms", "run", None).unwrap();
        assert_eq!(
            g.callees(top),
            vec![own_run],
            "an unknown module path stays crate-local when possible"
        );
    }

    #[test]
    fn self_receiver_narrows_to_the_own_impl() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let go = g.node("serve", "go", Some("A")).unwrap();
        let a_step = g.node("serve", "step", Some("A")).unwrap();
        assert_eq!(g.callees(go), vec![a_step]);
    }

    #[test]
    fn trait_impls_resolve_through_the_type_qualifier() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "impl Render for Page { fn draw(&self) {} }\n\
             fn paint() { Page::draw(); }",
        )]);
        let paint = g.node("serve", "paint", None).unwrap();
        let draw = g.node("serve", "draw", Some("Page")).unwrap();
        assert_eq!(g.callees(paint), vec![draw]);
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "fn run() { pick::<Vec<Box<u8>>, fn() -> u8>(); Page::draw::<u8>(); }\n\
             fn pick<A, B>() {}\nimpl Page { fn draw<T>() {} }\n\
             fn idle() { let _ = pick::<u8, u8>; }",
        )]);
        let run = g.node("serve", "run", None).unwrap();
        let pick = g.node("serve", "pick", None).unwrap();
        let draw = g.node("serve", "draw", Some("Page")).unwrap();
        assert_eq!(g.callees(run), vec![pick, draw]);
        // Naming a generic function without calling it is not a call.
        assert!(g.callees(g.node("serve", "idle", None).unwrap()).is_empty());
    }

    #[test]
    fn std_calls_resolve_to_nothing() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "fn run(v: Vec<u8>) { v.sort(); println(); Some(3); }",
        )]);
        let run = g.node("serve", "run", None).unwrap();
        assert!(g.callees(run).is_empty());
    }

    #[test]
    fn dot_dump_contains_nodes_and_edges() {
        let g = graph(&[("crates/serve/src/lib.rs", "fn a() { b(); }\nfn b() {}")]);
        let dot = g.to_dot();
        assert!(dot.contains("digraph callgraph"));
        assert!(dot.contains("serve::a"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn witness_chains_read_root_to_sink() {
        let g = graph(&[(
            "crates/serve/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}",
        )]);
        let a = g.node("serve", "a", None).unwrap();
        let c = g.node("serve", "c", None).unwrap();
        let parents = g.reach_from(&[a], &|_| false);
        let w = g.witness(&parents, c);
        assert_eq!(w.len(), 3);
        assert!(w[0].starts_with("serve::a"));
        assert!(w[2].starts_with("serve::c"));
    }
}

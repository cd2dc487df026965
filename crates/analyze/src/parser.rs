//! A dependency-free item-level parser over the lexed token stream.
//!
//! The lock-order pass ([`crate::lock_order`]) needs *items*: which
//! function a token belongs to, which `impl` block a method lives in,
//! where a body starts and ends. This module recovers exactly that
//! much structure — no expression trees, no type resolution — from the
//! test-stripped token stream:
//!
//! * every `fn` item (free, `impl` method, trait default method) with
//!   its brace-matched body kept as a token *range* into the file's
//!   stream;
//! * the self type of the enclosing `impl`/`trait` block (last
//!   top-level path segment of the implemented type, a documented
//!   approximation — `impl fmt::Display for RouteAnswer` records
//!   `RouteAnswer`);
//! * every `struct` with its named fields' *effective types*, and every
//!   `fn`'s parameter bindings — the receiver-typing inputs for the
//!   call graph's method resolution (see [`effective_type`]).
//!
//! Bodies are *not* re-lexed per pass: a [`FnItem::body`] is an index
//! range `[open_brace, close_brace]` into [`ParsedFile::tokens`], and
//! nested `fn` items are parsed as their own items so a pass walking an
//! outer body can skip the inner ranges.

use crate::lexer::{Token, TokenKind};

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The self type when this is an `impl`/`trait` method (`None` for
    /// free functions).
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range `[open, close]` of the brace-matched body in
    /// [`ParsedFile::tokens`] (`None` for bodiless trait declarations).
    pub body: Option<(usize, usize)>,
    /// Parameter bindings recovered from the signature as `(name,
    /// effective type)` pairs (see [`effective_type`]). Receivers
    /// (`self`) and destructuring patterns are omitted.
    pub params: Vec<(String, Option<String>)>,
}

/// One parsed `struct` item: its name and the effective type of each
/// named field (consumed by the call graph's receiver typing).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// Named fields as `(field, effective type)`; empty for tuple and
    /// unit structs.
    pub fields: Vec<(String, String)>,
}

/// One parsed source file: its (test-stripped) tokens plus the items
/// recovered from them.
#[derive(Debug)]
pub struct ParsedFile {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// The test-stripped token stream the item spans index into.
    pub tokens: Vec<Token>,
    /// Every function item found.
    pub fns: Vec<FnItem>,
    /// Every `struct` found (for field typing).
    pub structs: Vec<StructItem>,
}

/// Keywords that can never be a call target or a type name.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "async", "await",
];

/// Whether `s` is a Rust keyword.
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Collapses a type region `tokens[start..end]` to the one identifier
/// that governs method dispatch, or `None` when dispatch cannot be
/// pinned down lexically:
///
/// * references, `mut`, and lifetimes are skipped (`&'a mut Foo` →
///   `Foo`);
/// * the pointer wrappers `Arc`/`Rc`/`Box` are looked *through* because
///   they auto-deref method calls to the inner type (`Arc<Grid>` →
///   `Grid`);
/// * `dyn Trait` / `impl Trait` collapse to `None` — the concrete
///   receiver is unknowable here, so callers fall back to fan-out;
/// * single-uppercase-letter names (`T`, `F`) are treated as generic
///   parameters and collapse to `None` for the same reason;
/// * tuple, slice, and fn-pointer types collapse to `None`.
pub fn effective_type(tokens: &[Token], start: usize, end: usize) -> Option<String> {
    let mut j = start;
    while j < end {
        let t = &tokens[j];
        if t.kind == TokenKind::Lifetime || t.is_punct('&') || t.is_ident("mut") {
            j += 1;
            continue;
        }
        if t.is_ident("dyn") || t.is_ident("impl") || t.is_ident("fn") {
            return None;
        }
        if t.kind == TokenKind::Ident {
            if tokens.get(j + 1).is_some_and(|a| a.is_punct(':'))
                && tokens.get(j + 2).is_some_and(|b| b.is_punct(':'))
            {
                j += 3; // `mod::` path prefix — the last segment governs
                continue;
            }
            if is_keyword(&t.text) {
                return None;
            }
            if matches!(t.text.as_str(), "Arc" | "Rc" | "Box")
                && tokens.get(j + 1).is_some_and(|n| n.is_punct('<'))
            {
                j += 2; // look through the wrapper to the pointee
                continue;
            }
            let mut chars = t.text.chars();
            let first = chars.next()?;
            if first.is_uppercase() && chars.next().is_none() {
                return None; // single letter: almost surely a generic
            }
            return Some(t.text.clone());
        }
        return None; // `(`, `[`, `*`, … — not a plain path type
    }
    None
}

/// Precomputes, for every `{`, the index of its matching `}`.
fn brace_matches(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut matches = vec![None; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                matches[open] = Some(i);
            }
        }
    }
    matches
}

/// Parses one file's (test-stripped) token stream into items.
pub fn parse_file(path: &str, tokens: Vec<Token>) -> ParsedFile {
    let matches = brace_matches(&tokens);
    let mut fns = Vec::new();
    let mut structs = Vec::new();
    // Stack of (close_brace_index, self_ty) for enclosing impl/trait
    // blocks; the innermost one supplies the method's self type.
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while let Some(&(close, _)) = impl_stack.last() {
            if i > close {
                impl_stack.pop();
            } else {
                break;
            }
        }
        let t = &tokens[i];
        if t.is_ident("impl") || t.is_ident("trait") {
            if let Some((open, self_ty)) = parse_impl_header(&tokens, i) {
                if let Some(close) = matches[open] {
                    impl_stack.push((close, self_ty));
                }
                i = open + 1;
                continue;
            }
        } else if t.is_ident("fn") {
            if let Some((item, next)) = parse_fn(&tokens, i, &matches, &impl_stack) {
                // Continue scanning *inside* the body so nested fns are
                // their own items; the outer range already excludes
                // nothing (the pass skips nested ranges itself).
                fns.push(item);
                i = next;
                continue;
            }
        } else if t.is_ident("struct") {
            if let Some((item, next)) = parse_struct(&tokens, i, &matches) {
                structs.push(item);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    ParsedFile {
        path: path.to_string(),
        tokens,
        fns,
        structs,
    }
}

/// Parses an `impl`/`trait` header starting at `i` (the keyword).
/// Returns the index of the opening `{` and the recovered self type.
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(usize, Option<String>)> {
    let is_trait = tokens[i].is_ident("trait");
    let mut j = i + 1;
    // Skip the generic parameter list, if any. `>` that is part of a
    // `->` (e.g. `impl<F: Fn() -> T>`) does not close an angle bracket.
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    if is_trait {
        // `trait Name …` — the name is the first identifier.
        let name = tokens.get(j).filter(|t| t.kind == TokenKind::Ident)?;
        let name = name.text.clone();
        let open = find_open_brace(tokens, j)?;
        return Some((open, Some(name)));
    }
    // `impl [Trait for] Type … {` — collect top-level identifiers until
    // the body `{` or a `where` clause; `for` resets the collection so
    // the implemented type wins; the *last* top-level segment of a path
    // is the type name (`fmt::Display for RouteAnswer` → `RouteAnswer`,
    // `Iter<'a, T>` → `Iter`).
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut last: Option<String> = None;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
            angle -= 1;
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if angle == 0 && paren == 0 {
            if t.is_punct('{') {
                return Some((j, last));
            }
            if t.is_ident("where") {
                let open = find_open_brace(tokens, j)?;
                return Some((open, last));
            }
            if t.is_ident("for") {
                last = None;
            } else if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                last = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Finds the next `{` at paren depth 0 starting from `j`.
fn find_open_brace(tokens: &[Token], mut j: usize) -> Option<usize> {
    let mut paren = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('{') && paren == 0 {
            return Some(j);
        } else if t.is_punct(';') && paren == 0 {
            return None;
        }
        j += 1;
    }
    None
}

/// Parses a `fn` item starting at `i` (the `fn` keyword). Returns the
/// item and the index to continue scanning from (just *inside* the body
/// so nested items are found, or past the `;` of a bodiless
/// declaration).
fn parse_fn(
    tokens: &[Token],
    i: usize,
    matches: &[Option<usize>],
    impl_stack: &[(usize, Option<String>)],
) -> Option<(FnItem, usize)> {
    let name_tok = tokens.get(i + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(` — a function-pointer type, not an item
    }
    let name = name_tok.text.clone();
    // Find the parameter list: the first balanced paren group after the
    // name (skipping generics between name and `(`).
    let mut j = i + 2;
    let mut params = Vec::new();
    let mut angle = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')) {
            angle -= 1;
        } else if t.is_punct('(') && angle == 0 {
            break;
        } else if (t.is_punct('{') || t.is_punct(';')) && angle == 0 {
            return None; // malformed — bail out of this candidate
        }
        j += 1;
    }
    if j < tokens.len() && tokens[j].is_punct('(') {
        let open = j;
        let mut paren = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            j += 1;
        }
        params = parse_params(tokens, open + 1, j);
        j += 1;
    }
    let self_ty = impl_stack.last().and_then(|(_, ty)| ty.clone());
    // The body is the first `{` at paren depth 0 after the signature
    // (return types and where clauses contain no braces); a `;` first
    // means a bodiless trait declaration.
    match find_open_brace(tokens, j) {
        Some(open) => {
            let close = matches.get(open).copied().flatten()?;
            Some((
                FnItem {
                    name,
                    self_ty,
                    line: name_tok.line,
                    body: Some((open, close)),
                    params,
                },
                open + 1,
            ))
        }
        None => Some((
            FnItem {
                name,
                self_ty,
                line: name_tok.line,
                body: None,
                params,
            },
            j + 1,
        )),
    }
}

/// Parses a parameter list `tokens[start..end)` (the region between the
/// signature's parens) into `(binding name, effective type)` pairs.
/// Receivers and destructuring patterns contribute nothing.
fn parse_params(tokens: &[Token], start: usize, end: usize) -> Vec<(String, Option<String>)> {
    let mut params = Vec::new();
    let mut a = start;
    while a < end {
        // One parameter runs to the next `,` at combined depth 0
        // (angle-depth counts `<`/`>` with the `->` guard so generic
        // arguments keep their commas).
        let mut depth = 0i32;
        let mut b = a;
        let mut colon = None;
        while b < end {
            let t = &tokens[b];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                depth += 1;
            } else if (t.is_punct('>') && !(b > 0 && tokens[b - 1].is_punct('-')))
                || t.is_punct(')')
                || t.is_punct(']')
                || t.is_punct('}')
            {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                break;
            } else if depth == 0
                && colon.is_none()
                && t.is_punct(':')
                && !tokens.get(b + 1).is_some_and(|n| n.is_punct(':'))
                && !(b > 0 && tokens[b - 1].is_punct(':'))
            {
                colon = Some(b);
            }
            b += 1;
        }
        if let Some(c) = colon {
            // Binding name: the pattern side must be a plain
            // `[mut] name`; anything else (tuples, struct patterns) is
            // skipped.
            let mut p = a;
            while p < c && (tokens[p].is_ident("mut") || tokens[p].is_punct('&')) {
                p += 1;
            }
            if p + 1 == c && tokens[p].kind == TokenKind::Ident && !is_keyword(&tokens[p].text) {
                params.push((tokens[p].text.clone(), effective_type(tokens, c + 1, b)));
            }
        }
        a = b + 1;
    }
    params
}

/// Parses a `struct` item at `i` (the keyword): the name plus, for
/// brace-form structs, each named field's effective type. Tuple and
/// unit structs yield an empty field list.
fn parse_struct(
    tokens: &[Token],
    i: usize,
    matches: &[Option<usize>],
) -> Option<(StructItem, usize)> {
    let name_tok = tokens.get(i + 1)?;
    if name_tok.kind != TokenKind::Ident || is_keyword(&name_tok.text) {
        return None;
    }
    let mut fields = Vec::new();
    let Some(open) = find_open_brace(tokens, i + 2) else {
        // Tuple (`struct P(u32);`) or unit struct: name only.
        return Some((
            StructItem {
                name: name_tok.text.clone(),
                fields,
            },
            i + 2,
        ));
    };
    let close = matches.get(open).copied().flatten()?;
    let mut j = open + 1;
    let mut depth = 0i32;
    while j < close {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if (t.is_punct('>') && !(j > 0 && tokens[j - 1].is_punct('-')))
            || t.is_punct(')')
            || t.is_punct(']')
            || t.is_punct('}')
        {
            depth -= 1;
        } else if depth == 0
            && t.kind == TokenKind::Ident
            && !is_keyword(&t.text)
            && tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(j + 2).is_some_and(|n| n.is_punct(':'))
        {
            // `field: Type` — the type region runs to the next `,` at
            // depth 0 (or the closing brace).
            let mut b = j + 2;
            let mut d = 0i32;
            while b < close {
                let u = &tokens[b];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') || u.is_punct('<') {
                    d += 1;
                } else if (u.is_punct('>') && !(b > 0 && tokens[b - 1].is_punct('-')))
                    || u.is_punct(')')
                    || u.is_punct(']')
                    || u.is_punct('}')
                {
                    d -= 1;
                } else if d == 0 && u.is_punct(',') {
                    break;
                }
                b += 1;
            }
            if let Some(ty) = effective_type(tokens, j + 2, b) {
                fields.push((t.text.clone(), ty));
            }
            j = b;
            continue;
        }
        j += 1;
    }
    Some((
        StructItem {
            name: name_tok.text.clone(),
            fields,
        },
        close + 1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/serve/src/lib.rs", lexer::lex(src))
    }

    #[test]
    fn free_and_impl_fns_are_separated() {
        let f = parse(
            "fn free() { helper(); }\n\
             impl Widget { fn method(&self) -> u32 { 1 } }\n\
             impl fmt::Display for Widget { fn fmt(&self) {} }",
        );
        let names: Vec<(String, Option<String>)> = f
            .fns
            .iter()
            .map(|x| (x.name.clone(), x.self_ty.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("Widget".into())),
                ("fmt".into(), Some("Widget".into())),
            ]
        );
    }

    #[test]
    fn generic_impls_recover_the_type_name() {
        let f = parse("impl<'a, T: Fn() -> u8> Iterator for Iter<'a, T> { fn next(&mut self) {} }");
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("Iter"));
    }

    #[test]
    fn trait_default_methods_carry_the_trait_name() {
        let f = parse("trait Sink { fn flush(&self); fn emit(&self) { self.flush(); } }");
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].body.is_none());
        assert_eq!(f.fns[1].name, "emit");
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("Sink"));
    }

    #[test]
    fn nested_fns_are_their_own_items() {
        let f = parse("fn outer() { fn inner() { boom(); } inner(); }");
        assert_eq!(f.fns.len(), 2);
        let outer = &f.fns[0];
        let inner = &f.fns[1];
        let (ob, oe) = outer.body.unwrap();
        let (ib, ie) = inner.body.unwrap();
        assert!(ob < ib && ie < oe, "inner body nested in outer");
    }

    #[test]
    fn where_clauses_do_not_leak_into_the_self_type() {
        let f = parse("impl<T> Holder<T> where T: Clone { fn get(&self) {} }");
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("Holder"));
    }

    #[test]
    fn params_carry_effective_types() {
        let f = parse(
            "fn go(g: &Grid, mut k: u32, m: BTreeMap<NodeId, Vec<Edge>>, \
             db: Arc<Database>, obs: &mut dyn Observer, t: T, (a, b): (u8, u8)) {}",
        );
        assert_eq!(
            f.fns[0].params,
            vec![
                ("g".into(), Some("Grid".into())),
                ("k".into(), Some("u32".into())),
                ("m".into(), Some("BTreeMap".into())),
                ("db".into(), Some("Database".into())),
                ("obs".into(), None), // dyn: dispatch target unknown
                ("t".into(), None),   // single letter: generic
            ]
        );
    }

    #[test]
    fn struct_fields_collapse_to_effective_types() {
        let f = parse(
            "pub struct Service { pub cache: RouteCache, db: Arc<storage::Database>, \
             names: Vec<String>, #[allow(dead_code)] n: u32 }\n\
             struct Unit;\nstruct Pair(u32, u32);",
        );
        assert_eq!(f.structs.len(), 3);
        assert_eq!(
            f.structs[0].fields,
            vec![
                ("cache".into(), "RouteCache".into()),
                ("db".into(), "Database".into()),
                ("names".into(), "Vec".into()),
                ("n".into(), "u32".into()),
            ]
        );
        assert!(f.structs[1].fields.is_empty());
        assert!(f.structs[2].fields.is_empty());
    }

    #[test]
    fn effective_types_see_through_wrappers_and_paths() {
        let cases = [
            ("&'a mut Grid", Some("Grid")),
            ("Arc<Mutex<Grid>>", Some("Mutex")),
            ("std::sync::Arc<Grid>", Some("Grid")),
            ("graph::NodeId", Some("NodeId")),
            ("impl Iterator<Item = u8>", None),
            ("&[Block]", None),
            ("F", None),
        ];
        for (src, want) in cases {
            let tokens = lexer::lex(src);
            let n = tokens.len();
            assert_eq!(
                effective_type(&tokens, 0, n).as_deref(),
                want,
                "type `{src}`"
            );
        }
    }
}

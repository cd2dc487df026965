//! A minimal Rust tokenizer for the invariant linter.
//!
//! This is the stand-in for `syn` (unavailable offline): it produces a
//! flat token stream with line numbers, correctly skipping the places
//! where forbidden identifiers may legally appear as *text* — line and
//! block comments (nested), string literals (plain, raw, byte), and
//! char literals — so the rules in [`crate::rules`] only ever see real
//! code tokens.
//!
//! While lexing, `analyze::allow(...)` directives embedded in comments
//! are collected into an [`Allows`] table (see `ANALYSIS.md` for the
//! syntax); the rule engine uses it to suppress findings.

use std::cell::Cell;

/// What kind of token this is. Rules mostly match on identifier text,
/// but punctuation kinds matter for context (attribute vs indexing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `HashMap`, `unwrap`, ...).
    Ident,
    /// A numeric, string, char, or byte literal (text not preserved for
    /// strings — replaced by a placeholder so rules cannot match inside).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
    /// A single punctuation character (`.`, `[`, `::` is two tokens).
    Punct(char),
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Token text (`""` placeholder for string literals).
    pub text: String,
    /// 1-based line number.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Allow-directive table collected from comments.
///
/// * `analyze::allow(rule)` — suppresses `rule` findings on the
///   directive's own line and the next line (so a trailing comment
///   covers its statement, and a comment line covers the line below).
/// * `analyze::allow-file(rule)` — suppresses `rule` for the whole file.
///
/// Multiple rules may be listed comma-separated. An optional trailing
/// `: reason` is encouraged (and ignored by the machinery).
///
/// Each directive tracks whether it ever suppressed a finding, so the
/// `unused-allow` check (see [`crate::check_files`]) can flag stale
/// directives that no longer mask anything.
#[derive(Debug, Default)]
pub struct Allows {
    entries: Vec<AllowEntry>,
}

/// One parsed `analyze::allow` / `allow-file` directive.
#[derive(Debug)]
struct AllowEntry {
    /// The rule id the directive names.
    rule: String,
    /// Whether this is an `allow-file` (whole-file) directive.
    file_level: bool,
    /// 1-based line the directive appears on.
    line: u32,
    /// Whether any finding was suppressed by this entry.
    used: Cell<bool>,
}

impl Allows {
    /// Whether a finding of `rule` at `line` is suppressed. Every
    /// directive that covers the finding is marked used.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for e in self.entries.iter().filter(|e| e.rule == rule) {
            // A directive on line N covers N and N+1.
            if e.file_level || line == e.line || line == e.line + 1 {
                e.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Directives that never suppressed anything: `(rule, directive
    /// line)`, in source order.
    pub fn unused(&self) -> Vec<(String, u32)> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| (e.rule.clone(), e.line))
            .collect()
    }

    fn record(&mut self, comment: &str, line: u32) {
        // Doc comments describe the directive syntax; only plain
        // comments carry live directives (otherwise every module doc
        // quoting the syntax would register a stale entry and trip
        // `unused-allow` on itself).
        if ["//!", "///", "/*!", "/**"]
            .iter()
            .any(|doc| comment.starts_with(doc))
        {
            return;
        }
        for (marker, file_level) in [("analyze::allow-file(", true), ("analyze::allow(", false)] {
            let Some(start) = comment.find(marker) else {
                continue;
            };
            let rest = &comment[start + marker.len()..];
            let Some(end) = rest.find(')') else { continue };
            for rule in rest[..end].split(',') {
                let rule = rule.trim().to_string();
                if rule.is_empty() {
                    continue;
                }
                self.entries.push(AllowEntry {
                    rule,
                    file_level,
                    line,
                    used: Cell::new(false),
                });
            }
            return; // allow-file( also contains allow( — first match wins
        }
    }
}

/// Lexes `source` into a token stream plus its allow-directive table.
pub fn lex(source: &str) -> (Vec<Token>, Allows) {
    let bytes: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut allows = Allows::default();
    let mut i = 0;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($s:expr) => {
            line += $s.chars().filter(|&c| c == '\n').count() as u32
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                let start = i;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let comment: String = bytes[start..i].iter().collect();
                allows.record(&comment, line);
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == '/' && i + 1 < bytes.len() && bytes[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < bytes.len() && bytes[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let comment: String = bytes[start..i].iter().collect();
                allows.record(&comment, line);
                bump_lines!(comment);
            }
            '"' => {
                let (consumed, _) = scan_string(&bytes[i..]);
                let text: String = bytes[i..i + consumed].iter().collect();
                bump_lines!(text);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                });
                i += consumed;
            }
            'r' | 'b' if starts_string(&bytes[i..]) => {
                let mut j = i;
                if bytes[j] == 'b' {
                    j += 1;
                }
                let consumed = if bytes[j] == 'r' {
                    j += 1;
                    let mut hashes = 0;
                    while bytes[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    j += 1; // opening quote
                            // body ends at `"` followed by `hashes` hash marks
                    loop {
                        if j >= bytes.len() {
                            break j - i;
                        }
                        if bytes[j] == '"'
                            && bytes.len() - (j + 1) >= hashes
                            && bytes[j + 1..j + 1 + hashes].iter().all(|&h| h == '#')
                        {
                            break j + 1 + hashes - i;
                        }
                        j += 1;
                    }
                } else {
                    // b"..." — escapes behave like a plain string
                    let (c, _) = scan_string(&bytes[j..]);
                    j - i + c
                };
                let text: String = bytes[i..i + consumed].iter().collect();
                bump_lines!(text);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                });
                i += consumed;
            }
            '\'' => {
                // Lifetime or char literal. `'ident` not followed by a
                // closing quote is a lifetime.
                let mut j = i + 1;
                let is_lifetime = j < bytes.len()
                    && (bytes[j].is_alphabetic() || bytes[j] == '_')
                    && !(j + 1 < bytes.len() && bytes[j + 1] == '\'');
                if is_lifetime {
                    while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                        j += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: bytes[i..j].iter().collect(),
                        line,
                    });
                    i = j;
                } else {
                    // Char literal: consume until unescaped closing quote.
                    j = i + 1;
                    while j < bytes.len() {
                        if bytes[j] == '\\' {
                            j += 2;
                        } else if bytes[j] == '\'' {
                            j += 1;
                            break;
                        } else {
                            j += 1;
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_alphanumeric()
                        || bytes[j] == '_'
                        || (bytes[j] == '.'
                            && j + 1 < bytes.len()
                            && bytes[j + 1].is_ascii_digit()
                            && !bytes[i..j].contains(&'.')))
                {
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: bytes[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: bytes[i..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c => {
                tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    (tokens, allows)
}

/// Whether the stream starting at an `r`/`b` begins a (raw/byte) string
/// literal rather than an identifier.
fn starts_string(s: &[char]) -> bool {
    // r" r#" b" br" rb"? (rb is not legal Rust; br is) — accept r, b, br.
    let mut j = 0;
    if s[j] == 'b' {
        j += 1;
    }
    if j < s.len() && s[j] == 'r' {
        j += 1;
        while j < s.len() && s[j] == '#' {
            j += 1;
        }
    }
    j < s.len() && s[j] == '"' && j > 0
}

/// Consumes a plain string starting at its opening `"`; returns
/// (chars consumed, lines spanned).
fn scan_string(s: &[char]) -> (usize, u32) {
    let mut j = 1;
    while j < s.len() {
        match s[j] {
            '\\' => j += 2,
            '"' => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    (j, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // unwrap in a comment
            /* Instant in /* a nested */ block */
            let s = "thread_rng inside a string";
            let r = r#"HashMap "quoted" inside raw"#;
            let c = 'x';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        for hidden in ["unwrap", "Instant", "thread_rng", "HashMap"] {
            assert!(!ids.contains(&hidden.to_string()), "{hidden} leaked");
        }
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (tokens, _) = lex("fn f<'a>(x: &'a str) { let c = 'q'; }");
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        // the 'q' char literal must not produce a stray lifetime
        assert!(!tokens.iter().any(|t| t.text == "'q"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let (tokens, _) = lex(src);
        let b = tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn allow_directives_cover_their_line_and_the_next() {
        let src = "// analyze::allow(panic-reachability): invariant\nlet t = x.unwrap();\nlet u = y.unwrap();";
        let (_, allows) = lex(src);
        assert!(allows.covers("panic-reachability", 1));
        assert!(allows.covers("panic-reachability", 2));
        assert!(!allows.covers("panic-reachability", 3));
        assert!(!allows.covers("other-rule", 2));
    }

    #[test]
    fn unmatched_directives_are_reported_unused() {
        let src = "// analyze::allow(metered-io-escape): stale\n// analyze::allow(lock-order)\nx;";
        let (_, allows) = lex(src);
        assert!(allows.covers("lock-order", 3));
        assert_eq!(allows.unused(), vec![("metered-io-escape".to_string(), 1)]);
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        let src = "//! syntax: analyze::allow(rule): reason\n/// e.g. analyze::allow(lock-order)\n/*! analyze::allow(a) */\nx;";
        let (_, allows) = lex(src);
        assert!(!allows.covers("rule", 1));
        assert!(!allows.covers("lock-order", 2));
        assert!(allows.unused().is_empty());
    }

    #[test]
    fn allow_file_covers_everything_and_lists_split() {
        let src =
            "// analyze::allow-file(non-exhaustive-errors): fixture\n// analyze::allow(a, b)\nx;";
        let (_, allows) = lex(src);
        assert!(allows.covers("non-exhaustive-errors", 999));
        assert!(allows.covers("a", 2) && allows.covers("b", 3));
    }
}

//! A minimal Rust tokenizer for the lock-order checker.
//!
//! This is the stand-in for `syn` (unavailable offline): it produces a
//! flat token stream with line numbers, correctly skipping the places
//! where a lock helper's name may legally appear as *text* — line and
//! block comments (nested), string literals (plain, raw, byte), and
//! char literals — so the parser only ever sees real code tokens.
//! [`strip_test_regions`] then drops test items, which may take locks
//! in any order.

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

/// Lexes `source` into a token stream.
pub fn lex(source: &str) -> Vec<Token> {
    let bytes: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
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
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
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
    tokens
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

/// Removes `#[cfg(test)]` items and `#[test]` functions from the token
/// stream: test code may take locks in any order.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // lock_queue in a comment
            /* lock_slot in /* a nested */ block */
            let s = "lock_writer inside a string";
            let r = r#"lock_entries "quoted" inside raw"#;
            let c = 'x';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        for hidden in ["lock_queue", "lock_slot", "lock_writer", "lock_entries"] {
            assert!(!ids.contains(&hidden.to_string()), "{hidden} leaked");
        }
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let tokens = lex("fn f<'a>(x: &'a str) { let c = 'q'; }");
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        // the 'q' char literal must not produce a stray lifetime
        assert!(!tokens.iter().any(|t| t.text == "'q"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nlet b = 1;";
        let tokens = lex(src);
        let b = tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }
}

//! A line-tracking Rust lexer sufficient for invariant linting.
//!
//! `syn` is not available in this build environment, so the analyzer works
//! from a hand-rolled token stream. The lexer's contract is deliberately
//! narrower than rustc's: it must (a) never confuse comment/string content
//! with code, (b) keep doc comments apart from code tokens, and (c)
//! report accurate line numbers for diagnostics.
//! Everything else — precise number grammar, multi-character operators —
//! is left to the token consumers, which match on adjacent single-character
//! punctuation instead.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// Token payload.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`, stored without `r#`).
    Ident(String),
    /// Lifetime such as `'a` (stored without the quote).
    Lifetime(String),
    /// Any literal: number, string, char, byte string. Stored as source
    /// text for numbers and as an opaque marker for strings (their content
    /// must never be mistaken for code).
    Literal(String),
    /// Outer (`///`) or inner (`//!`) doc comment text, `///`-prefix
    /// stripped, one token per comment line.
    DocComment {
        /// `true` for `//!` module-level docs.
        inner: bool,
        /// The comment text after the marker.
        text: String,
    },
    /// A single punctuation character (`.`, `#`, `!`, `:`, `>`, ...).
    Punct(char),
    /// An opening delimiter: `(`, `[`, or `{`.
    Open(char),
    /// A closing delimiter: `)`, `]`, or `}`.
    Close(char),
}

impl TokenKind {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> String {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if pred(b) {
                self.bump();
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    /// Consumes a `//`-comment; returns a doc token when it is one.
    fn line_comment(&mut self) -> Option<TokenKind> {
        let line_start = self.pos;
        debug_assert!(self.src[line_start..].starts_with(b"//"));
        self.bump();
        self.bump();
        let (is_doc, inner) = match self.peek() {
            // `////...` is an ordinary comment by Rust's rules.
            Some(b'/') if self.peek_at(1) != Some(b'/') => {
                self.bump();
                (true, false)
            }
            Some(b'!') => {
                self.bump();
                (true, true)
            }
            _ => (false, false),
        };
        let text = self.take_while(|b| b != b'\n');
        if is_doc {
            Some(TokenKind::DocComment { inner, text })
        } else {
            None
        }
    }

    /// Consumes a nested `/* ... */` block comment.
    fn block_comment(&mut self) {
        debug_assert!(self.src[self.pos..].starts_with(b"/*"));
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Consumes a `"..."` string body (opening quote already consumed).
    fn string_body(&mut self) {
        while let Some(b) = self.bump() {
            match b {
                b'"' => return,
                b'\\' => {
                    self.bump();
                }
                _ => {}
            }
        }
    }

    /// Consumes a raw string `r##"..."##` where `hashes` `#`s follow `r`.
    fn raw_string_body(&mut self, hashes: usize) {
        // Opening quote already consumed.
        loop {
            match self.bump() {
                None => return,
                Some(b'"') => {
                    let mut seen = 0;
                    while seen < hashes && self.peek() == Some(b'#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
    }

    fn number(&mut self) -> String {
        let start = self.pos;
        self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        // Fraction: `.` followed by a digit (so `0..5` and `1.max()` stay
        // separate tokens).
        if self.peek() == Some(b'.') && self.peek_at(1).is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        }
        // Signed exponent (`1e-3`): the `e` was consumed above; a trailing
        // sign+digits follows only in that case.
        if matches!(self.src.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            && matches!(self.peek(), Some(b'+' | b'-'))
            && self.peek_at(1).is_some_and(|b| b.is_ascii_digit())
        {
            self.bump();
            self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes Rust source into a token stream with line numbers.
///
/// Comment and string *content* never appears as code tokens; doc comments
/// are preserved as [`TokenKind::DocComment`].
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer { src: src.as_bytes(), pos: 0, line: 1 };
    let mut tokens = Vec::new();
    while let Some(b) = lx.peek() {
        let line = lx.line;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                lx.bump();
            }
            b'/' if lx.peek_at(1) == Some(b'/') => {
                if let Some(doc) = lx.line_comment() {
                    tokens.push(Token { kind: doc, line });
                }
            }
            b'/' if lx.peek_at(1) == Some(b'*') => lx.block_comment(),
            b'"' => {
                lx.bump();
                lx.string_body();
                tokens.push(Token { kind: TokenKind::Literal("\"str\"".into()), line });
            }
            b'\'' => {
                // Lifetime vs char literal.
                let next = lx.peek_at(1);
                let after = lx.peek_at(2);
                let is_lifetime =
                    next.is_some_and(is_ident_start) && next != Some(b'\\') && after != Some(b'\'');
                if is_lifetime {
                    lx.bump(); // '
                    let name = lx.take_while(is_ident_continue);
                    tokens.push(Token { kind: TokenKind::Lifetime(name), line });
                } else {
                    lx.bump(); // '
                    if lx.peek() == Some(b'\\') {
                        lx.bump();
                        lx.bump();
                    } else {
                        lx.bump();
                    }
                    // Closing quote (missing on malformed input).
                    if lx.peek() == Some(b'\'') {
                        lx.bump();
                    }
                    tokens.push(Token { kind: TokenKind::Literal("'c'".into()), line });
                }
            }
            b if b.is_ascii_digit() => {
                let text = lx.number();
                tokens.push(Token { kind: TokenKind::Literal(text), line });
            }
            b if is_ident_start(b) => {
                let text = lx.take_while(is_ident_continue);
                // String-ish prefixes: r"", r#""#, b"", br"", b''.
                let hashes_then_quote = |lx: &Lexer<'_>| {
                    let mut n = 0;
                    while lx.peek_at(n) == Some(b'#') {
                        n += 1;
                    }
                    (lx.peek_at(n) == Some(b'"')).then_some(n)
                };
                match text.as_str() {
                    "r" | "br" | "b" if lx.peek() == Some(b'"') => {
                        lx.bump();
                        if text == "b" {
                            lx.string_body();
                        } else {
                            lx.raw_string_body(0);
                        }
                        tokens.push(Token { kind: TokenKind::Literal("\"str\"".into()), line });
                    }
                    "r" | "br" => {
                        if let Some(n) = hashes_then_quote(&lx) {
                            for _ in 0..=n {
                                lx.bump(); // the hashes and the quote
                            }
                            lx.raw_string_body(n);
                            tokens.push(Token { kind: TokenKind::Literal("\"str\"".into()), line });
                        } else if lx.peek() == Some(b'#') {
                            // Raw identifier r#ident.
                            lx.bump();
                            let name = lx.take_while(is_ident_continue);
                            tokens.push(Token { kind: TokenKind::Ident(name), line });
                        } else {
                            tokens.push(Token { kind: TokenKind::Ident(text), line });
                        }
                    }
                    "b" if lx.peek() == Some(b'\'') => {
                        lx.bump();
                        if lx.peek() == Some(b'\\') {
                            lx.bump();
                        }
                        lx.bump();
                        if lx.peek() == Some(b'\'') {
                            lx.bump();
                        }
                        tokens.push(Token { kind: TokenKind::Literal("b'c'".into()), line });
                    }
                    _ => tokens.push(Token { kind: TokenKind::Ident(text), line }),
                }
            }
            b'(' | b'[' | b'{' => {
                lx.bump();
                tokens.push(Token { kind: TokenKind::Open(b as char), line });
            }
            b')' | b']' | b'}' => {
                lx.bump();
                tokens.push(Token { kind: TokenKind::Close(b as char), line });
            }
            _ => {
                lx.bump();
                tokens.push(Token { kind: TokenKind::Punct(b as char), line });
            }
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).into_iter().filter_map(|t| t.kind.ident().map(str::to_string)).collect()
    }

    #[test]
    fn comments_and_strings_hide_code_like_text() {
        let src = r##"
            // thread_rng() in a comment
            /* unwrap() in /* nested */ block */
            let s = "thread_rng() in a string";
            let r = r#"panic!("in raw string")"#;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"thread_rng".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn doc_comments_are_preserved_separately() {
        let src = "/// # Panics\n///\n/// Panics if x < 0.\npub fn f() {}\n";
        let docs: Vec<String> = lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::DocComment { text, inner: false } => Some(text),
                _ => None,
            })
            .collect();
        assert_eq!(docs.len(), 3);
        assert!(docs[0].contains("# Panics"));
        // The doc text must NOT appear as identifiers.
        assert!(!idents(src).contains(&"Panics".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|t| matches!(t.kind, TokenKind::Lifetime(_))).collect();
        assert_eq!(lifetimes.len(), 3);
    }

    #[test]
    fn char_literals_lex_as_literals() {
        let toks = lex("let c = 'x'; let esc = '\\n'; let q = '\\'';");
        let lits = toks.iter().filter(|t| matches!(t.kind, TokenKind::Literal(_))).count();
        assert_eq!(lits, 3);
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let toks = lex("for i in 0..10 { let x = 0.5e-3f32; }");
        let texts: Vec<String> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Literal(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["0", "10", "0.5e-3f32"]);
    }

    #[test]
    fn line_numbers_are_accurate() {
        let src = "fn a() {}\n\nfn b() {}\n";
        let toks = lex(src);
        let fn_lines: Vec<u32> =
            toks.iter().filter(|t| t.kind.ident() == Some("fn")).map(|t| t.line).collect();
        assert_eq!(fn_lines, vec![1, 3]);
    }

    #[test]
    fn multiline_strings_track_lines() {
        let src = "let s = \"line1\nline2\nline3\";\nfn after() {}\n";
        let toks = lex(src);
        let fn_tok = toks.iter().find(|t| t.kind.ident() == Some("fn")).unwrap();
        assert_eq!(fn_tok.line, 4);
    }
}

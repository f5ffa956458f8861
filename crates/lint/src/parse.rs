//! Structure extraction over the token stream: function records, outer
//! attributes, `#[cfg(test)]` regions, and delimiter matching.
//!
//! This is not a full Rust parser. It recognizes exactly the item shapes
//! the rules need — functions with their attributes, visibility,
//! parameter names, and body span — and tracks which token spans live
//! inside test-only code. Unrecognized constructs degrade gracefully: the
//! parser skips them without losing delimiter balance.

use crate::lexer::{Token, TokenKind};
use std::ops::Range;

/// One `fn` item (free function, method, or nested function).
#[derive(Debug, Clone)]
pub struct FunctionRecord {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `true` for `pub` / `pub(...)` functions.
    pub is_pub: bool,
    /// Flattened outer attributes, e.g. `"cfg(test)"`, `"test"`,
    /// `"inline"`.
    pub attrs: Vec<String>,
    /// Identifiers of the value parameters (binding names, not types).
    pub params: Vec<String>,
    /// Token-index range of the body between its braces (empty for
    /// trait-method declarations without a body).
    pub body: Range<usize>,
    /// `true` when the function is test-only: `#[test]`, `#[cfg(test)]`,
    /// or nested anywhere inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A token stream plus the structure the rules consume.
#[derive(Debug)]
pub struct ParsedFile {
    /// The underlying tokens.
    pub tokens: Vec<Token>,
    /// Every function item found, in source order.
    pub functions: Vec<FunctionRecord>,
    /// For each token, whether it lies inside test-only code.
    pub test_mask: Vec<bool>,
    /// For each `Open` token, the index of its matching `Close` (and vice
    /// versa); `usize::MAX` for unbalanced input.
    pub match_of: Vec<usize>,
    /// For each token, the index of the innermost enclosing `Open` token,
    /// or `usize::MAX` at the top level.
    pub parent: Vec<usize>,
}

impl ParsedFile {
    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        self.tokens.get(i).and_then(|t| t.kind.ident())
    }

    /// Whether token `i` is the punctuation character `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i), Some(Token { kind: TokenKind::Punct(p), .. }) if *p == c)
    }

    /// Whether token `i` is the opening delimiter `c`.
    pub fn is_open(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i), Some(Token { kind: TokenKind::Open(p), .. }) if *p == c)
    }

    /// The 1-based line of token `i` (0 if out of range).
    pub fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map_or(0, |t| t.line)
    }

    /// Whether token `i` (an identifier) is a method call: preceded by `.`
    /// and followed by `(`.
    pub fn is_method_call(&self, i: usize) -> bool {
        i > 0 && self.is_punct(i - 1, '.') && self.is_open(i + 1, '(')
    }
}

/// Flattens the tokens of an attribute group (between `[` and `]`) into a
/// compact string such as `cfg(test)` or `derive(Debug,Clone)`.
fn flatten_attr(tokens: &[Token], range: Range<usize>) -> String {
    let mut out = String::new();
    for tok in &tokens[range] {
        match &tok.kind {
            TokenKind::Ident(s) => out.push_str(s),
            TokenKind::Literal(s) => out.push_str(s),
            TokenKind::Lifetime(s) => {
                out.push('\'');
                out.push_str(s);
            }
            TokenKind::Punct(c) => out.push(*c),
            TokenKind::Open(c) => out.push(*c),
            TokenKind::Close(c) => out.push(*c),
            TokenKind::DocComment { .. } => {}
        }
    }
    out
}

fn attr_is_test(attr: &str) -> bool {
    attr == "test" || attr.starts_with("cfg(test") || attr.contains("cfg(test)")
}

/// Parses a lexed file into rule-consumable structure.
pub fn parse(tokens: Vec<Token>) -> ParsedFile {
    let n = tokens.len();
    let mut match_of = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];

    // Delimiter matching and parent chains.
    {
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..n {
            parent[i] = stack.last().copied().unwrap_or(usize::MAX);
            match tokens[i].kind {
                TokenKind::Open(_) => stack.push(i),
                TokenKind::Close(_) => {
                    if let Some(open) = stack.pop() {
                        match_of[open] = i;
                        match_of[i] = open;
                        // The close token belongs to the outer scope.
                        parent[i] = stack.last().copied().unwrap_or(usize::MAX);
                    }
                }
                _ => {}
            }
        }
    }

    let mut functions = Vec::new();
    let mut test_mask = vec![false; n];

    // Brace stack: for each currently-open `{`, whether it is test-scoped.
    let mut brace_test: Vec<bool> = Vec::new();
    // Set when an item header with `#[cfg(test)]`/`#[test]` has been seen
    // and its body brace is still ahead.
    let mut armed_test = false;

    let mut pending_attrs: Vec<String> = Vec::new();
    let mut pending_vis = false;

    let mut i = 0usize;
    while i < n {
        let in_test_now = brace_test.iter().any(|&b| b);
        test_mask[i] = in_test_now;
        match &tokens[i].kind {
            TokenKind::DocComment { .. } => {
                i += 1;
            }
            TokenKind::Punct('#') => {
                // `#[attr]` or `#![attr]`.
                let mut j = i + 1;
                let inner_attr =
                    matches!(tokens.get(j), Some(t) if t.kind == TokenKind::Punct('!'));
                if inner_attr {
                    j += 1;
                }
                if j < n && matches!(tokens[j].kind, TokenKind::Open('[')) {
                    let close = match_of[j];
                    if close != usize::MAX {
                        if !inner_attr {
                            pending_attrs.push(flatten_attr(&tokens, j + 1..close));
                        }
                        for m in test_mask.iter_mut().take(close + 1).skip(i) {
                            *m = in_test_now;
                        }
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            TokenKind::Ident(id) if id == "pub" => {
                pending_vis = true;
                i += 1;
                // pub(crate), pub(super), pub(in ...)
                if i < n && matches!(tokens[i].kind, TokenKind::Open('(')) {
                    let close = match_of[i];
                    if close != usize::MAX {
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
            }
            TokenKind::Ident(id) if id == "fn" => {
                let fn_line = tokens[i].line;
                let name = tokens.get(i + 1).and_then(|t| t.kind.ident()).unwrap_or("").to_string();
                // Find the parameter list: first `(` outside the generic
                // parameter list (a `Fn(..)` bound inside `<...>` must not
                // be mistaken for it).
                let mut j = i + 1;
                let mut params = Vec::new();
                let mut body = 0..0;
                let mut angle: i32 = 0;
                while j < n {
                    match tokens[j].kind {
                        TokenKind::Open('(') if angle == 0 => break,
                        TokenKind::Punct('<') => {
                            angle += 1;
                            j += 1;
                        }
                        TokenKind::Punct('>') => {
                            // `->` is an arrow, not a closing angle.
                            let arrow =
                                j > 0 && matches!(tokens[j - 1].kind, TokenKind::Punct('-'));
                            if !arrow {
                                angle = (angle - 1).max(0);
                            }
                            j += 1;
                        }
                        TokenKind::Open(_) => {
                            let c = match_of[j];
                            j = if c != usize::MAX { c + 1 } else { j + 1 };
                        }
                        _ => j += 1,
                    }
                }
                if j < n {
                    let close = match_of[j];
                    if close != usize::MAX {
                        // Parameter binding names: idents at depth 1 that
                        // are directly followed by `:` (skips `self`,
                        // pattern internals, and type tokens).
                        for k in j + 1..close {
                            if parent[k] == j {
                                if let Some(p) = tokens[k].kind.ident() {
                                    if matches!(
                                        tokens.get(k + 1),
                                        Some(t) if t.kind == TokenKind::Punct(':')
                                    ) && !matches!(
                                        tokens.get(k + 2),
                                        Some(t) if t.kind == TokenKind::Punct(':')
                                    ) {
                                        params.push(p.to_string());
                                    }
                                }
                            }
                        }
                        // Scan past the signature to the body `{` or `;`.
                        let mut k = close + 1;
                        while k < n {
                            match tokens[k].kind {
                                TokenKind::Open('{') => {
                                    let bclose = match_of[k];
                                    if bclose != usize::MAX {
                                        body = k + 1..bclose;
                                    }
                                    break;
                                }
                                TokenKind::Punct(';') => break,
                                TokenKind::Open(_) => {
                                    let c = match_of[k];
                                    k = if c != usize::MAX { c + 1 } else { k + 1 };
                                }
                                _ => k += 1,
                            }
                        }
                    }
                }
                let fn_is_test = pending_attrs.iter().any(|a| attr_is_test(a));
                functions.push(FunctionRecord {
                    name,
                    line: fn_line,
                    is_pub: pending_vis,
                    attrs: std::mem::take(&mut pending_attrs),
                    params,
                    body: body.clone(),
                    in_test: in_test_now || fn_is_test,
                });
                pending_vis = false;
                if fn_is_test {
                    armed_test = true;
                }
                i += 1;
            }
            TokenKind::Ident(id)
                if matches!(
                    id.as_str(),
                    "mod" | "struct" | "enum" | "trait" | "impl" | "union"
                ) =>
            {
                if pending_attrs.iter().any(|a| attr_is_test(a)) {
                    armed_test = true;
                }
                pending_attrs.clear();
                pending_vis = false;
                i += 1;
            }
            TokenKind::Ident(id) if id == "use" => {
                // Skip to the terminating `;` so `use foo::{...}` braces
                // don't consume an armed test flag.
                pending_attrs.clear();
                pending_vis = false;
                let mut j = i + 1;
                while j < n {
                    match tokens[j].kind {
                        TokenKind::Punct(';') => break,
                        TokenKind::Open(_) => {
                            let c = match_of[j];
                            j = if c != usize::MAX { c + 1 } else { j + 1 };
                        }
                        _ => j += 1,
                    }
                }
                let end = j.min(n.saturating_sub(1));
                for m in test_mask.iter_mut().take(end + 1).skip(i) {
                    *m = in_test_now;
                }
                i = j + 1;
            }
            TokenKind::Open('{') => {
                brace_test.push(in_test_now || armed_test);
                armed_test = false;
                test_mask[i] = brace_test.iter().any(|&b| b);
                i += 1;
            }
            TokenKind::Close('}') => {
                brace_test.pop();
                i += 1;
            }
            TokenKind::Punct(';') => {
                pending_attrs.clear();
                pending_vis = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    // Second pass: functions marked test (e.g. `#[test]`) mask their whole
    // body even when the enclosing module is not `cfg(test)`.
    for f in &functions {
        if f.in_test {
            for k in f.body.clone() {
                test_mask[k] = true;
            }
        }
    }

    ParsedFile { tokens, functions, test_mask, match_of, parent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(lex(src))
    }

    #[test]
    fn finds_functions_with_visibility_and_params() {
        let src = r#"
/// Does a thing.
///
/// # Panics
///
/// Panics if `x` is negative.
pub fn thing(x: f32, label: usize) -> f32 { x }

fn helper() {}
"#;
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 2);
        let f = &p.functions[0];
        assert_eq!(f.name, "thing");
        assert!(f.is_pub);
        assert_eq!(f.params, vec!["x", "label"]);
        assert!(!f.in_test);
        let h = &p.functions[1];
        assert_eq!(h.name, "helper");
        assert!(!h.is_pub);
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = r#"
pub fn library_code() { value.unwrap(); }

#[cfg(test)]
mod tests {
    #[test]
    fn a_test() { value.unwrap(); }
}
"#;
        let p = parse_src(src);
        let unwraps: Vec<usize> =
            (0..p.tokens.len()).filter(|&i| p.ident(i) == Some("unwrap")).collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!p.test_mask[unwraps[0]], "library unwrap must not be masked");
        assert!(p.test_mask[unwraps[1]], "test unwrap must be masked");
        let records: Vec<_> = p.functions.iter().map(|f| (f.name.clone(), f.in_test)).collect();
        assert_eq!(
            records,
            vec![("library_code".to_string(), false), ("a_test".to_string(), true)]
        );
    }

    #[test]
    fn test_attribute_alone_masks_function_body() {
        let src = r#"
#[test]
fn standalone_test() { value.unwrap(); }
"#;
        let p = parse_src(src);
        let unwrap_idx =
            (0..p.tokens.len()).find(|&i| p.ident(i) == Some("unwrap")).expect("unwrap token");
        assert!(p.test_mask[unwrap_idx]);
    }

    #[test]
    fn impl_methods_are_recorded() {
        let src = r#"
impl Foo {
    /// Ctor.
    pub fn new(epsilon: f32) -> Self { Foo }
    fn private_helper(&self) {}
}
"#;
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.functions[0].name, "new");
        assert!(p.functions[0].is_pub);
        assert_eq!(p.functions[0].params, vec!["epsilon"]);
        assert_eq!(p.functions[1].name, "private_helper");
        assert!(p.functions[1].params.is_empty());
    }

    #[test]
    fn use_braces_do_not_consume_test_arming() {
        let src = r#"
#[cfg(test)]
mod tests {
    use super::{a, b};
    fn inner() { x.unwrap(); }
}
"#;
        let p = parse_src(src);
        let unwrap_idx =
            (0..p.tokens.len()).find(|&i| p.ident(i) == Some("unwrap")).expect("unwrap token");
        assert!(p.test_mask[unwrap_idx]);
    }

    #[test]
    fn generic_functions_parse() {
        let src = "pub fn zip_map<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor { body }";
        let p = parse_src(src);
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "zip_map");
        assert_eq!(p.functions[0].params, vec!["other", "f"]);
    }
}

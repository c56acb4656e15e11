//! A lightweight Rust lexer — the token substrate every rule runs over.
//!
//! This is deliberately *not* a parser. The rules in this crate are
//! lexical pattern matchers (see DESIGN.md, "Static analysis": the
//! properties we police — a named hash collection in a golden path, a
//! collective call under a rank guard, an `unsafe` token without a
//! `// SAFETY:` neighbor — are all decidable on the token stream), so
//! all we need is a tokenizer that is *exactly right about what is not
//! code*: comments, string literals (including raw and byte strings),
//! char literals versus lifetimes. Getting those right is what lets a
//! rule say "ident `HashMap`" without tripping over a doc comment that
//! merely mentions one.
//!
//! Tokens carry their 1-based line number and an `in_test` flag set for
//! ranges covered by `#[cfg(test)]` / `#[test]` items, so rules that
//! only police production code can filter cheaply.

/// Token classes. Rules match on `kind` + `text`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`HashMap`, `if`, `unsafe`, ...).
    Ident,
    /// Numeric literal blob (`0x1f`, `1.5e3`, `42u64`).
    Num,
    /// Single punctuation character.
    Punct,
    /// String literal (regular, raw, or byte); `text` is the contents.
    Str,
    /// Char literal; `text` is the raw contents between quotes.
    Char,
    /// Lifetime (`'a`); `text` is the name without the quote.
    Lifetime,
    /// Comment (line or block); `text` is the contents.
    Comment,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: Kind,
    /// Token text (see [`Kind`] for what each class stores).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// True when the token sits inside a `#[cfg(test)]` or `#[test]`
    /// item (set by [`mark_test_regions`], which [`lex`] runs).
    pub in_test: bool,
}

impl Token {
    /// Ident with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Punct with exactly this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Tokenize `src`, then mark test regions. Never fails: unterminated
/// constructs are closed at EOF (a linter must not die on the code it
/// inspects — the compiler will reject it anyway).
pub fn lex(src: &str) -> Vec<Token> {
    let mut toks = raw_lex(src);
    mark_test_regions(&mut toks);
    toks
}

fn raw_lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut toks = Vec::new();
    let push = |toks: &mut Vec<Token>, kind: Kind, text: String, line: u32| {
        toks.push(Token {
            kind,
            text,
            line,
            in_test: false,
        });
    };

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start_line = line;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && b[j] != '\n' {
                text.push(b[j]);
                j += 1;
            }
            push(&mut toks, Kind::Comment, text, start_line);
            i = j;
            continue;
        }
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start_line = line;
            let mut depth = 1;
            let mut j = i + 2;
            let mut text = String::new();
            while j < n && depth > 0 {
                if b[j] == '\n' {
                    line += 1;
                }
                if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                    text.push_str("/*");
                    continue;
                }
                if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    continue;
                }
                text.push(b[j]);
                j += 1;
            }
            push(&mut toks, Kind::Comment, text, start_line);
            i = j;
            continue;
        }
        // Raw / byte string prefixes: r", r#", br", b", b'.
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && j < n && b[j] == 'r' {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            let is_raw = c == 'r' || (i + 1 < n && b[i + 1] == 'r');
            if j < n && b[j] == '"' && (is_raw || hashes == 0) {
                if is_raw {
                    // Raw string: ends at `"` followed by `hashes` hashes.
                    let start_line = line;
                    let mut k = j + 1;
                    let mut text = String::new();
                    'raw: while k < n {
                        if b[k] == '\n' {
                            line += 1;
                        }
                        if b[k] == '"' {
                            let mut h = 0;
                            while h < hashes && k + 1 + h < n && b[k + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                k += 1 + hashes;
                                break 'raw;
                            }
                        }
                        text.push(b[k]);
                        k += 1;
                    }
                    push(&mut toks, Kind::Str, text, start_line);
                    i = k;
                    continue;
                } else {
                    // b"..." — fall through to normal string at j.
                    let (tok, next, nl) = lex_string(&b, j, line);
                    push(&mut toks, Kind::Str, tok, line);
                    line += nl;
                    i = next;
                    continue;
                }
            }
            if c == 'b' && hashes == 0 && i + 1 < n && b[i + 1] == '\'' {
                let (tok, next) = lex_char(&b, i + 1);
                push(&mut toks, Kind::Char, tok, line);
                i = next;
                continue;
            }
            // Not a literal prefix: plain identifier starting with r/b.
        }
        if c == '"' {
            let (tok, next, nl) = lex_string(&b, i, line);
            push(&mut toks, Kind::Str, tok, line);
            line += nl;
            i = next;
            continue;
        }
        if c == '\'' {
            // Lifetime vs char literal: 'ident not followed by a closing
            // quote is a lifetime.
            if i + 1 < n && (b[i + 1].is_alphabetic() || b[i + 1] == '_') {
                let mut j = i + 2;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                if j >= n || b[j] != '\'' {
                    let text: String = b[i + 1..j].iter().collect();
                    push(&mut toks, Kind::Lifetime, text, line);
                    i = j;
                    continue;
                }
            }
            let (tok, next) = lex_char(&b, i);
            push(&mut toks, Kind::Char, tok, line);
            i = next;
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            let text: String = b[i..j].iter().collect();
            push(&mut toks, Kind::Ident, text, line);
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n {
                let d = b[j];
                if d.is_alphanumeric() || d == '_' {
                    j += 1;
                } else if d == '.' && j + 1 < n && b[j + 1].is_ascii_digit() {
                    // `1.5` yes; `0..n` no (range operator).
                    j += 1;
                } else {
                    break;
                }
            }
            let text: String = b[i..j].iter().collect();
            push(&mut toks, Kind::Num, text, line);
            i = j;
            continue;
        }
        push(&mut toks, Kind::Punct, c.to_string(), line);
        i += 1;
    }
    toks
}

/// Lex a normal (possibly byte) string starting at the opening quote.
/// Returns (contents, index past closing quote, newlines consumed).
fn lex_string(b: &[char], start: usize, _line: u32) -> (String, usize, u32) {
    let mut j = start + 1;
    let mut text = String::new();
    let mut newlines = 0u32;
    while j < b.len() {
        match b[j] {
            '\\' => {
                if j + 1 < b.len() {
                    if b[j + 1] == '\n' {
                        newlines += 1;
                    }
                    text.push(b[j + 1]);
                    j += 2;
                } else {
                    j += 1;
                }
            }
            '"' => {
                j += 1;
                break;
            }
            ch => {
                if ch == '\n' {
                    newlines += 1;
                }
                text.push(ch);
                j += 1;
            }
        }
    }
    (text, j, newlines)
}

/// Lex a char literal starting at the opening quote. Returns
/// (contents, index past closing quote).
fn lex_char(b: &[char], start: usize) -> (String, usize) {
    let mut j = start + 1;
    let mut text = String::new();
    while j < b.len() {
        match b[j] {
            '\\' => {
                if j + 1 < b.len() {
                    text.push(b[j + 1]);
                    j += 2;
                } else {
                    j += 1;
                }
            }
            '\'' => {
                j += 1;
                break;
            }
            ch => {
                text.push(ch);
                j += 1;
            }
        }
    }
    (text, j)
}

/// Mark tokens covered by `#[cfg(test)]` and `#[test]` items.
///
/// After the attribute, the item extends to the first `;` at brace depth
/// zero (e.g. `#[cfg(test)] use ...;`) or to the matching close of the
/// first `{` (a `mod tests { ... }` or `fn` body).
fn mark_test_regions(toks: &mut [Token]) {
    let mut i = 0;
    while i < toks.len() {
        if let Some(after) = match_test_attr(toks, i) {
            let mut j = after;
            let mut depth = 0usize;
            let mut opened = false;
            let end = loop {
                if j >= toks.len() {
                    break toks.len();
                }
                let t = &toks[j];
                if t.is_punct('{') {
                    depth += 1;
                    opened = true;
                } else if t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break j + 1;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    break j + 1;
                }
                j += 1;
            };
            for t in &mut toks[i..end] {
                t.in_test = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
}

/// If `i` starts `#[cfg(test)]` or `#[test]` (comments allowed inside),
/// return the index one past the closing `]`.
fn match_test_attr(toks: &[Token], i: usize) -> Option<usize> {
    // Cheap reject first: this runs once per token.
    if toks[i].kind != Kind::Comment && !toks[i].is_punct('#') {
        return None;
    }
    let sig: Vec<usize> = (i..toks.len().min(i + 16))
        .filter(|&k| toks[k].kind != Kind::Comment)
        .collect();
    let at = |k: usize| sig.get(k).map(|&x| &toks[x]);
    if !(at(0)?.is_punct('#') && at(1)?.is_punct('[')) {
        return None;
    }
    if at(2)?.is_ident("test") && at(3)?.is_punct(']') {
        return Some(sig[3] + 1);
    }
    if at(2)?.is_ident("cfg")
        && at(3)?.is_punct('(')
        && at(4)?.is_ident("test")
        && at(5)?.is_punct(')')
        && at(6)?.is_punct(']')
    {
        return Some(sig[6] + 1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_idents() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in a /* nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" here"#;
            let b = b"HashMap bytes";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|s| *s == "HashMap").count(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lts: Vec<_> = toks.iter().filter(|t| t.kind == Kind::Lifetime).collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == Kind::Char).collect();
        assert_eq!(lts.len(), 2);
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "x");
    }

    #[test]
    fn escaped_quote_char_literal() {
        let toks = lex(r"let q = '\''; let z = 1;");
        assert!(toks.iter().any(|t| t.kind == Kind::Char));
        assert!(toks.iter().any(|t| t.is_ident("z")));
    }

    #[test]
    fn line_numbers_advance_through_literals() {
        let src = "let a = \"x\ny\";\nlet b = 2;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn range_is_not_a_float() {
        let toks = lex("for i in 0..n {}");
        let nums: Vec<_> = toks.iter().filter(|t| t.kind == Kind::Num).collect();
        assert_eq!(nums.len(), 1);
        assert_eq!(nums[0].text, "0");
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "
            fn prod() { touch(); }
            #[cfg(test)]
            mod tests {
                fn helper() { touch(); }
            }
            fn prod2() { touch(); }
        ";
        let toks = lex(src);
        let touch: Vec<bool> = toks
            .iter()
            .filter(|t| t.is_ident("touch"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(touch, vec![false, true, false]);
    }

    #[test]
    fn test_attr_fn_is_marked_and_semicolon_items_end() {
        let src = "
            #[cfg(test)]
            use std::x;
            fn prod() { a(); }
            #[test]
            fn t() { a(); }
        ";
        let toks = lex(src);
        let marks: Vec<bool> = toks
            .iter()
            .filter(|t| t.is_ident("a"))
            .map(|t| t.in_test)
            .collect();
        assert_eq!(marks, vec![false, true]);
    }

    #[test]
    fn raw_ident_prefix_chars_still_lex_as_idents() {
        let ids = idents("let rank = broadcast(buf);");
        assert_eq!(ids, vec!["let", "rank", "broadcast", "buf"]);
    }
}

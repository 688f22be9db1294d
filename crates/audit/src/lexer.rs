//! A hand-rolled Rust lexer: just enough tokenization to scan source
//! for determinism hazards without false positives from comments,
//! strings, or char/lifetime ambiguity.
//!
//! The lexer is deliberately *not* a parser: it produces a flat token
//! stream (identifiers, numbers, single-character punctuation) plus the
//! line comments, with string/char/byte/raw-string literals and block
//! comments consumed and discarded. That is exactly the surface the
//! CLR1xx rules need — they match short token sequences like
//! `Instant :: now` or `. name (` — while guaranteeing that a hazard
//! word inside a string literal or a doc comment never fires a lint.

/// What kind of token was scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `as`, `HashMap`, ...).
    Ident,
    /// A numeric literal (value is never interpreted).
    Number,
    /// One punctuation character (`::` arrives as two `:` tokens).
    Punct,
}

/// One scanned token with its 1-based source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// 1-based line the token starts on.
    pub line: usize,
    /// The token class.
    pub kind: TokenKind,
    /// The token text, borrowed from the source.
    pub text: &'a str,
}

/// One `//` line comment (block comments are discarded — annotations
/// are line-comment only, so a `/* clr-audit: ... */` can never be an
/// annotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comment<'a> {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The text after `//`, untrimmed.
    pub text: &'a str,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// All code tokens in source order.
    pub tokens: Vec<Token<'a>>,
    /// All line comments in source order.
    pub comments: Vec<Comment<'a>>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and line comments.
pub fn lex(source: &str) -> Lexed<'_> {
    let mut out = Lexed::default();
    let bytes = source.as_bytes();
    let len = bytes.len();
    let mut i = 0usize;
    let mut line = 1usize;

    // Returns the char starting at byte `at`, if any.
    let char_at = |at: usize| source[at..].chars().next();

    while i < len {
        let Some(c) = char_at(i) else { break };
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => {
                i += c.len_utf8();
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let eol = source[i..].find('\n').map_or(len, |p| i + p);
                out.comments.push(Comment {
                    line,
                    text: &source[i + 2..eol],
                });
                i = eol; // the '\n' advances the line counter next round
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment; count newlines inside it.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < len && depth > 0 {
                    if bytes[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                i = skip_string(source, i, &mut line);
            }
            '\'' => {
                i = skip_char_or_lifetime(source, i, &mut line);
            }
            c if is_ident_start(c) => {
                let start = i;
                let mut j = i;
                while j < len {
                    match char_at(j) {
                        Some(c) if is_ident_continue(c) => j += c.len_utf8(),
                        _ => break,
                    }
                }
                let word = &source[start..j];
                // String-ish prefixes: r"", r#""#, b"", br"", b'x', and
                // raw identifiers r#name.
                let next = if j < len { char_at(j) } else { None };
                match (word, next) {
                    ("r" | "b" | "br" | "rb", Some('"')) => {
                        i = skip_string(source, j, &mut line);
                    }
                    ("r" | "br" | "rb", Some('#')) => {
                        let mut hashes = 0usize;
                        let mut k = j;
                        while bytes.get(k) == Some(&b'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if bytes.get(k) == Some(&b'"') {
                            i = skip_raw_string(source, k, hashes, &mut line);
                        } else {
                            // A raw identifier `r#name`: emit the name.
                            let mut m = k;
                            while m < len {
                                match char_at(m) {
                                    Some(c) if is_ident_continue(c) => m += c.len_utf8(),
                                    _ => break,
                                }
                            }
                            out.tokens.push(Token {
                                line,
                                kind: TokenKind::Ident,
                                text: &source[k..m],
                            });
                            i = m;
                        }
                    }
                    ("b", Some('\'')) => {
                        // Byte char literal b'x' — always a literal.
                        i = skip_char_literal(source, j, &mut line);
                    }
                    _ => {
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Ident,
                            text: word,
                        });
                        i = j;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i + 1;
                while j < len {
                    match char_at(j) {
                        Some('.') => {
                            // Stop before `.method` on a numeric/tuple
                            // receiver so `x.0.total_cmp(..)` keeps its
                            // method-call token shape.
                            match char_at(j + 1) {
                                Some(n) if is_ident_start(n) => break,
                                _ => j += 1,
                            }
                        }
                        Some(c) if c.is_ascii_alphanumeric() || c == '_' => j += 1,
                        _ => break,
                    }
                }
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Number,
                    text: &source[start..j],
                });
                i = j;
            }
            c => {
                let end = i + c.len_utf8();
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Punct,
                    text: &source[i..end],
                });
                i = end;
            }
        }
    }
    out
}

/// Skips a `"`-delimited string starting at `open` (the quote), handling
/// `\"`/`\\` escapes and embedded newlines. Returns the index after the
/// closing quote.
fn skip_string(source: &str, open: usize, line: &mut usize) -> usize {
    let bytes = source.as_bytes();
    let mut j = open + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skips a raw string whose opening quote is at `quote`, closed by a
/// quote followed by `hashes` `#`s.
fn skip_raw_string(source: &str, quote: usize, hashes: usize, line: &mut usize) -> usize {
    let bytes = source.as_bytes();
    let mut j = quote + 1;
    while j < bytes.len() {
        if bytes[j] == b'\n' {
            *line += 1;
            j += 1;
        } else if bytes[j] == b'"' && bytes[j + 1..].iter().take(hashes).all(|&b| b == b'#') {
            return j + 1 + hashes;
        } else {
            j += 1;
        }
    }
    j
}

/// Skips a char literal starting at `open` (the `'`).
fn skip_char_literal(source: &str, open: usize, line: &mut usize) -> usize {
    let bytes = source.as_bytes();
    let mut j = open + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Disambiguates `'` at `open`: a char literal is skipped, a lifetime is
/// consumed silently (lifetimes carry no lint signal).
fn skip_char_or_lifetime(source: &str, open: usize, line: &mut usize) -> usize {
    let bytes = source.as_bytes();
    let Some(next) = source[open + 1..].chars().next() else {
        return open + 1;
    };
    if next == '\\' {
        return skip_char_literal(source, open, line);
    }
    if is_ident_start(next) {
        // Scan the identifier after the quote; a closing quote right
        // after it means a char literal ('a'), anything else a lifetime.
        let mut j = open + 1;
        while j < bytes.len() {
            match source[j..].chars().next() {
                Some(c) if is_ident_continue(c) => j += c.len_utf8(),
                _ => break,
            }
        }
        if bytes.get(j) == Some(&b'\'') {
            return j + 1;
        }
        return j; // lifetime: skip `'name`, emit nothing
    }
    // Non-identifier char literal: '1', '(', ' ', multibyte chars.
    skip_char_literal(source, open, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_never_leak_tokens() {
        let src = r###"
            // partial_cmp in a line comment
            /* HashMap in a /* nested */ block comment */
            let s = "Instant::now() in a string";
            let r = r#"thread_rng in a raw "string""#;
            let b = b"SystemTime bytes";
            let c = 'H';
            fn real_code() {}
        "###;
        let ids = idents(src);
        assert!(ids.contains(&"real_code"));
        for hazard in [
            "partial_cmp",
            "HashMap",
            "Instant",
            "thread_rng",
            "SystemTime",
        ] {
            assert!(!ids.contains(&hazard), "{hazard} leaked out of a literal");
        }
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let _ = c; x }";
        let ids = idents(src);
        // 'x' is a char literal (no `x` ident from it), but the fn body
        // identifiers survive.
        assert!(ids.contains(&"str"));
        assert!(!ids.contains(&"a"), "lifetime name leaked as ident");
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"two\nlines\";\nInstant";
        let lexed = lex(src);
        let instant = lexed.tokens.iter().find(|t| t.text == "Instant").unwrap();
        assert_eq!(instant.line, 3);
    }

    #[test]
    fn line_comments_are_captured_with_lines() {
        let src = "fn f() {}\n// clr-audit: allow(CLR102) tested elsewhere\nfn g() {}";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("clr-audit"));
    }

    #[test]
    fn tuple_field_method_calls_keep_their_shape() {
        let src = "a.0.partial_cmp(&b.0)";
        let texts: Vec<&str> = lex(src).tokens.iter().map(|t| t.text).collect();
        assert_eq!(
            texts,
            [
                "a",
                ".",
                "0",
                ".",
                "partial_cmp",
                "(",
                "&",
                "b",
                ".",
                "0",
                ")"
            ]
        );
    }

    #[test]
    fn raw_identifiers_emit_their_name() {
        let ids = idents("let r#type = 1; let rb = 2;");
        assert!(ids.contains(&"type"));
        assert!(ids.contains(&"rb"));
    }
}

//! A minimal Rust lexer for static analysis.
//!
//! The goal is not a conforming front-end but a token stream that is
//! *comment-, string-, and char-literal-aware*, so rules never fire on text
//! inside a doc comment or a string literal the way regex-over-raw-lines
//! linters do. Comments are captured out-of-band (with line spans) because
//! several rules key off adjacent `// SAFETY:` justifications.

/// Token classification. `Punct` carries the single ASCII byte; multi-byte
/// operators (`::`, `->`, `=>`) appear as adjacent single-byte puncts, which
/// rules reconstruct from byte positions when adjacency matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct(u8),
    Literal,
    Lifetime,
}

#[derive(Debug, Clone, Copy)]
pub struct Token {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

/// A line (`//`) or block (`/* */`, nesting-aware) comment.
#[derive(Debug, Clone, Copy)]
pub struct Comment {
    pub start: usize,
    pub end: usize,
    pub line: u32,
    pub end_line: u32,
}

pub struct Lexed<'a> {
    pub src: &'a str,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl<'a> Lexed<'a> {
    pub fn text(&self, idx: usize) -> &'a str {
        let t = &self.tokens[idx];
        &self.src[t.start..t.end]
    }

    pub fn comment_text(&self, c: &Comment) -> &'a str {
        &self.src[c.start..c.end]
    }

    pub fn is_punct(&self, idx: usize, b: u8) -> bool {
        matches!(self.tokens.get(idx), Some(t) if t.kind == TokKind::Punct(b))
    }

    pub fn is_ident(&self, idx: usize, s: &str) -> bool {
        matches!(self.tokens.get(idx), Some(t) if t.kind == TokKind::Ident) && self.text(idx) == s
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic() || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80
}

pub fn lex(src: &str) -> Lexed<'_> {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    start,
                    end: i,
                    line,
                    end_line: line,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (start, start_line) = (i, line);
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                comments.push(Comment {
                    start,
                    end: i,
                    line: start_line,
                    end_line: line,
                });
            }
            b'"' => {
                let (start, start_line) = (i, line);
                i += 1;
                scan_string_body(b, &mut i, &mut line);
                tokens.push(Token {
                    kind: TokKind::Literal,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'\'' => {
                let start = i;
                // Disambiguate char literal from lifetime: a lifetime is `'`
                // followed by an identifier not closed by another quote.
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: skip to closing quote.
                    i += 2;
                    if i < b.len() {
                        i += 1; // escaped byte
                    }
                    while i < b.len() && b[i] != b'\'' {
                        i += 1; // \u{...} escapes
                    }
                    i += 1;
                    tokens.push(Token {
                        kind: TokKind::Literal,
                        start,
                        end: i.min(b.len()),
                        line,
                    });
                } else if b.get(i + 1).is_some_and(|&n| is_ident_continue(n))
                    && b.get(i + 2) != Some(&b'\'')
                {
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokKind::Lifetime,
                        start,
                        end: i,
                        line,
                    });
                } else {
                    // 'x' or '(' etc: plain char literal.
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    tokens.push(Token {
                        kind: TokKind::Literal,
                        start,
                        end: i.min(b.len()),
                        line,
                    });
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                // Raw string / byte string / raw identifier prefixes:
                // r"..", r#".."#, br"..", b"..", cr"..", and r#ident.
                let word = &src[start..i];
                if matches!(word, "r" | "b" | "br" | "c" | "cr") {
                    if b.get(i) == Some(&b'"') {
                        let start_line = line;
                        i += 1;
                        if word == "b" || word == "c" {
                            scan_string_body(b, &mut i, &mut line);
                        } else {
                            scan_raw_string_body(b, &mut i, &mut line, 0);
                        }
                        tokens.push(Token {
                            kind: TokKind::Literal,
                            start,
                            end: i,
                            line: start_line,
                        });
                        continue;
                    }
                    if word != "b" && word != "c" && b.get(i) == Some(&b'#') {
                        let mut hashes = 0usize;
                        let mut j = i;
                        while b.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if b.get(j) == Some(&b'"') {
                            let start_line = line;
                            i = j + 1;
                            scan_raw_string_body(b, &mut i, &mut line, hashes);
                            tokens.push(Token {
                                kind: TokKind::Literal,
                                start,
                                end: i,
                                line: start_line,
                            });
                            continue;
                        }
                        if word == "r"
                            && hashes == 1
                            && b.get(j).is_some_and(|&n| is_ident_start(n))
                        {
                            // Raw identifier r#type: emit the identifier part.
                            i = j;
                            while i < b.len() && is_ident_continue(b[i]) {
                                i += 1;
                            }
                            tokens.push(Token {
                                kind: TokKind::Ident,
                                start: j,
                                end: i,
                                line,
                            });
                            continue;
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokKind::Ident,
                    start,
                    end: i,
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (is_ident_continue(b[i])
                        || (b[i] == b'.' && b.get(i + 1).is_some_and(|n| n.is_ascii_digit())))
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Literal,
                    start,
                    end: i,
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokKind::Punct(c),
                    start: i,
                    end: i + 1,
                    line,
                });
                i += 1;
            }
        }
    }

    Lexed {
        src,
        tokens,
        comments,
    }
}

/// Scans a regular (escaped) string body; `i` points past the opening quote
/// on entry and past the closing quote on exit (clamped to the buffer end on
/// an unterminated literal, so token spans never exceed the source).
fn scan_string_body(b: &[u8], i: &mut usize, line: &mut u32) {
    while *i < b.len() {
        match b[*i] {
            b'\\' => {
                // A `\<newline>` line continuation still ends a source line;
                // skipping it without counting desynchronizes every token
                // line number after the string.
                if b.get(*i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                *i += 2;
            }
            b'"' => {
                *i += 1;
                return;
            }
            b'\n' => {
                *line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
    // Unterminated string ending in `\`: the escape skip may step past the
    // end; clamp so the token's end offset stays a valid slice bound.
    *i = (*i).min(b.len());
}

/// Scans a raw string body terminated by `"` followed by `hashes` `#`s.
fn scan_raw_string_body(b: &[u8], i: &mut usize, line: &mut u32, hashes: usize) {
    while *i < b.len() {
        if b[*i] == b'\n' {
            *line += 1;
            *i += 1;
        } else if b[*i] == b'"'
            && b[*i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&h| h == b'#')
                .count()
                == hashes
        {
            *i += 1 + hashes;
            return;
        } else {
            *i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        let lx = lex(src);
        (0..lx.tokens.len())
            .filter(|&i| lx.tokens[i].kind == TokKind::Ident)
            .map(|i| lx.text(i).to_string())
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let lx = lex("let x = 1; // unsafe unwrap()\n/* panic! */ let y = 2;");
        assert!((0..lx.tokens.len()).all(|i| lx.text(i) != "unsafe" && lx.text(i) != "panic"));
        assert_eq!(lx.comments.len(), 2);
    }

    #[test]
    fn strings_hide_keywords() {
        assert_eq!(
            idents(r#"let s = "unsafe { unwrap() }";"#),
            vec!["let", "s"]
        );
        assert_eq!(idents(r##"let s = r#"panic!()"#;"##), vec!["let", "s"]);
        assert_eq!(idents(r#"let s = b"spawn";"#), vec!["let", "s"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal && lx.src[t.start..].starts_with('\''))
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn nested_block_comments() {
        let lx = lex("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(lx.comments.len(), 1);
        assert!(lx.is_ident(0, "fn"));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let lx = lex("a\nb\n\nc");
        let lines: Vec<u32> = lx.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn escaped_quote_in_string() {
        assert_eq!(
            idents(r#"let s = "he said \"unsafe\""; done"#),
            vec!["let", "s", "done"]
        );
    }
}

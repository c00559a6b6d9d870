//! A small, line-aware Rust lexer.
//!
//! The analyzer's rules are token-level: they must never fire on the word
//! `unwrap` inside a string literal or a doc comment. This lexer produces
//! exactly what the rules need — identifiers, literals, and punctuation
//! with 1-based line numbers — plus a side channel of comments so rules
//! can look for `// SAFETY:` / `// DETERMINISM:` justifications. It is not
//! a full Rust lexer (no token trees, no float grammar), but it handles
//! the constructs that would otherwise cause false positives: nested block
//! comments, raw strings, byte strings, char literals vs. lifetimes, and
//! raw identifiers.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `as`, `unsafe`, …).
    Ident,
    /// Numeric literal (loosely lexed; never interpreted).
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — distinct from [`TokKind::Char`].
    Lifetime,
    /// Single punctuation character.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// Verbatim text for idents/puncts; literal classes keep their text too
    /// but rules never match on it.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Lexer output: the token stream plus every comment with its start line.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub toks: Vec<Tok>,
    /// `(line, text)` for every comment, doc comments included.
    pub comments: Vec<(u32, String)>,
}

impl Lexed {
    /// True if any comment on lines `[line - within, line]` contains the
    /// given needle (e.g. `"SAFETY:"`).
    pub fn comment_near(&self, line: u32, within: u32, needle: &str) -> bool {
        let lo = line.saturating_sub(within);
        self.comments.iter().any(|(l, t)| *l >= lo && *l <= line && t.contains(needle))
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens and comments. Never fails: unterminated
/// constructs simply run to end of input (the compiler, not this tool, is
/// the arbiter of well-formedness).
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < n {
        let c = chars[i];
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
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            out.comments.push((line, chars[start..i].iter().collect()));
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            out.comments.push((start_line, chars[start..i.min(n)].iter().collect()));
            continue;
        }
        // Raw identifiers and raw / byte string prefixes.
        if c == 'r' || c == 'b' {
            // r"…", r#"…"#, b"…", br"…", br#"…"#, r#ident
            let mut j = i + 1;
            if c == 'b' && j < n && chars[j] == 'r' {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n
                && chars[j] == '"'
                && (c == 'r' || chars[i + 1] == '"' || chars[i + 1] == 'r' || hashes > 0)
            {
                // A raw or byte string: scan to closing quote + hashes.
                let start_line = line;
                let raw = c == 'r' || (c == 'b' && chars[i + 1] == 'r');
                let mut k = j + 1;
                while k < n {
                    if chars[k] == '\n' {
                        line += 1;
                        k += 1;
                        continue;
                    }
                    if !raw && chars[k] == '\\' {
                        k += 2;
                        continue;
                    }
                    if chars[k] == '"' {
                        let mut h = 0usize;
                        while h < hashes && k + 1 + h < n && chars[k + 1 + h] == '#' {
                            h += 1;
                        }
                        if h == hashes {
                            k += 1 + hashes;
                            break;
                        }
                    }
                    k += 1;
                }
                out.toks.push(Tok { kind: TokKind::Str, text: String::new(), line: start_line });
                i = k;
                continue;
            }
            if hashes == 1 && j < n && is_ident_start(chars[j]) {
                // Raw identifier r#match — lex the ident part.
                let start = j;
                let mut k = j;
                while k < n && is_ident_continue(chars[k]) {
                    k += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..k].iter().collect(),
                    line,
                });
                i = k;
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        if c == '"' {
            let start_line = line;
            let mut k = i + 1;
            while k < n {
                match chars[k] {
                    '\\' => k += 2,
                    '"' => {
                        k += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        k += 1;
                    }
                    _ => k += 1,
                }
            }
            out.toks.push(Tok { kind: TokKind::Str, text: String::new(), line: start_line });
            i = k;
            continue;
        }
        if c == '\'' {
            // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
            if i + 1 < n && chars[i + 1] == '\\' {
                // Skip the escape payload up to the closing quote. Start
                // past the escaped character itself so `'\''` does not
                // terminate on the quote it escapes.
                let mut k = i + 3;
                while k < n && chars[k] != '\'' {
                    k += 1;
                }
                out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
                i = k + 1;
                continue;
            }
            if i + 1 < n && is_ident_start(chars[i + 1]) {
                let mut k = i + 1;
                while k < n && is_ident_continue(chars[k]) {
                    k += 1;
                }
                if k < n && chars[k] == '\'' {
                    out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
                    i = k + 1;
                } else {
                    out.toks.push(Tok { kind: TokKind::Lifetime, text: String::new(), line });
                    i = k;
                }
                continue;
            }
            // Something like '(' as a char literal, or stray quote.
            let mut k = i + 1;
            while k < n && chars[k] != '\'' && chars[k] != '\n' {
                k += 1;
            }
            out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
            i = (k + 1).min(n);
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut k = i;
            while k < n && (is_ident_continue(chars[k])) {
                k += 1;
            }
            // One fractional part: `1.5`, but not the range `1..5`.
            if k < n && chars[k] == '.' && k + 1 < n && chars[k + 1].is_ascii_digit() {
                k += 1;
                while k < n && is_ident_continue(chars[k]) {
                    k += 1;
                }
            }
            out.toks.push(Tok { kind: TokKind::Num, text: chars[start..k].iter().collect(), line });
            i = k;
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            let mut k = i;
            while k < n && is_ident_continue(chars[k]) {
                k += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..k].iter().collect(),
                line,
            });
            i = k;
            continue;
        }
        out.toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn words_in_strings_and_comments_are_not_tokens() {
        let src = r##"
            // this unwrap is a comment
            let x = "calls .unwrap() inside a string";
            let y = r#"raw unwrap"# ; /* block unwrap */
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn comments_carry_their_line() {
        let lexed = lex("fn f() {}\n// SAFETY: fine\nfn g() {}\n");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].0, 2);
        assert!(lexed.comment_near(3, 3, "SAFETY:"));
        assert!(!lexed.comment_near(1, 0, "SAFETY:"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = lexed.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn line_numbers_are_one_based_and_advance() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let lexed = lex("/* outer /* inner */ still */ token");
        assert_eq!(lexed.toks.len(), 1);
        assert_eq!(lexed.toks[0].text, "token");
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let lexed = lex("0..n");
        let texts: Vec<&str> = lexed.toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["0", ".", ".", "n"]);
    }

    #[test]
    fn byte_and_raw_strings_lex_as_strings() {
        let lexed = lex(r##"f(b"x", br"y", r#"z"#, 'q')"##);
        let strs = lexed.toks.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn raw_strings_hide_quotes_and_track_lines() {
        // The embedded `"` and `unwrap` must not leak out of the raw
        // string, and the multi-line body must advance the line counter.
        let src = "let a = r#\"has \" quote\nand .unwrap() inside\"#;\nlet b = 1;\n";
        let lexed = lex(src);
        assert!(!lexed.toks.iter().any(|t| t.text == "unwrap"), "{:?}", lexed.toks);
        let b = lexed.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 3, "raw-string newlines must advance the counter");
    }

    #[test]
    fn escaped_quote_char_literal_terminates_correctly() {
        // `'\''` escapes the quote: before the fix the scan stopped on the
        // escaped quote, leaving a stray `'` that swallowed following code.
        let lexed = lex("if c == '\\'' { found(); }\nafter();\n");
        let ids: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["if", "c", "found", "after"]);
        assert_eq!(lexed.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn escaped_backslash_char_literal_terminates_correctly() {
        let lexed = lex("let sep = '\\\\'; next();");
        let ids: Vec<&str> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["let", "sep", "next"]);
    }

    #[test]
    fn nested_block_comments_track_lines_and_depth() {
        let lexed = lex("/* l1 /* l2\n inner */\n outer */ tok_a\n/* plain */ tok_b");
        let texts: Vec<(&str, u32)> =
            lexed.toks.iter().map(|t| (t.text.as_str(), t.line)).collect();
        assert_eq!(texts, vec![("tok_a", 3), ("tok_b", 4)]);
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lifetime_ticks_in_generics_and_bounds_are_lifetimes() {
        let lexed = lex("struct S<'a, 'b: 'a> { x: &'a str }\nfn f() -> char { 'a' }");
        let lifetimes = lexed.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = lexed.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 4, "{:?}", lexed.toks);
        assert_eq!(chars, 1, "'a' with a closing tick is a char literal");
    }
}

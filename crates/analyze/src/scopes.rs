//! The two structures L1 reads from the token stream, recovered without
//! syn or rustc by tracking bracket nesting:
//!
//! - [`let_bindings`] finds simple `let name = …;` local bindings, with
//!   the token range of each initializer — L1 tracks guard bindings from
//!   these, and a guard's block ends where the nesting drops below the
//!   binding's own.
//! - [`cfg_test_ranges`] finds `#[cfg(test)]` item spans, which both rules
//!   skip.
//!
//! Both are conservative by design: tuple/struct patterns in `let` are
//! skipped (a destructured guard is exotic enough to audit by hand).

use crate::lexer::{Tok, TokKind};

/// One simple `let name = …;` binding.
#[derive(Debug, Clone)]
pub struct LetBinding {
    /// The bound identifier.
    pub name: String,
    /// 1-based line of the binding.
    pub line: u32,
    /// Token index range `(start, end)` of the initializer expression —
    /// everything between `=` and the terminating `;` (exclusive).
    pub init: (usize, usize),
    /// Token index of the terminating `;` (where the binding goes live).
    pub end_idx: usize,
}

/// Recovers every simple `let [mut] name [: Ty] = init;` binding in the
/// token stream. Tuple and struct patterns are skipped — L1 only tracks
/// bindings it can name.
pub fn let_bindings(toks: &[Tok]) -> Vec<LetBinding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "let") {
            i += 1;
            continue;
        }
        let let_idx = i;
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident && t.text == "mut") {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else { break };
        if name_tok.kind != TokKind::Ident {
            // Tuple/struct pattern or `let _ = …` with punctuation: skip.
            i = j + 1;
            continue;
        }
        let name = name_tok.text.clone();
        // Scan to `=` at relative depth 0 (skipping a `: Type` ascription,
        // whose generics may contain `=` only inside brackets we balance).
        let mut depth = 0i32;
        let mut k = j + 1;
        let mut eq = None;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                "=" if depth == 0 => {
                    // `==`/`=>` never follow a let pattern here; a plain
                    // `=` starts the initializer.
                    eq = Some(k);
                    break;
                }
                ";" if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // Initializer: to the `;` at relative depth 0.
        let mut depth = 0i32;
        let mut m = eq + 1;
        let mut semi = None;
        while m < toks.len() {
            match toks[m].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => {
                    semi = Some(m);
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        let Some(semi) = semi else {
            i = eq + 1;
            continue;
        };
        out.push(LetBinding {
            name,
            line: toks[let_idx].line,
            init: (eq + 1, semi.saturating_sub(1)),
            end_idx: semi,
        });
        i = semi + 1;
    }
    out
}

/// Collects `(start_line, end_line)` spans of every item annotated
/// `#[cfg(test)]` — any item kind (`mod tests`, `mod proptests`, a lone
/// `fn`, a `use`), tracked by brace depth so nested items stay inside.
pub fn cfg_test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
            let mut depth = 0i32;
            j += 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Consume the item: up to the matching `}` of its first top-level
        // brace, or to a `;` if none comes first (e.g. `use`, `mod m;`).
        let mut depth = 0i32;
        let mut end_line = start_line;
        let mut closed = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[j].line;
                        j += 1;
                        closed = true;
                    }
                }
                ";" if depth == 0 => {
                    end_line = toks[j].line;
                    j += 1;
                    closed = true;
                }
                _ => {}
            }
            if closed {
                break;
            }
            j += 1;
        }
        if !closed {
            end_line = toks.last().map_or(start_line, |t| t.line);
        }
        ranges.push((start_line, end_line));
        i = j;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_ranges_span_the_whole_item() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        assert_eq!(cfg_test_ranges(&lex(src).toks), vec![(2, 5)]);
        let src = "#[cfg(test)]\nuse std::fmt;\nfn lib() {}\n";
        assert_eq!(cfg_test_ranges(&lex(src).toks), vec![(1, 2)], "a `use` ends at its `;`");
    }

    #[test]
    fn let_bindings_capture_name_and_initializer() {
        let src = "fn f() {\n    let a = g(1, 2);\n    let mut b: Vec<u32> = Vec::new();\n    let (x, y) = pair();\n}\n";
        let lexed = lex(src);
        let binds = let_bindings(&lexed.toks);
        let names: Vec<&str> = binds.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"], "tuple patterns are skipped");
        let (s, e) = binds[0].init;
        let init: Vec<&str> = lexed.toks[s..=e].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(init, vec!["g", "(", "1", ",", "2", ")"]);
    }
}

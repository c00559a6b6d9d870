//! The two repo contracts no type-aware lint can express.
//!
//! | Rule | Contract |
//! |------|----------|
//! | D2   | No order-sensitive reductions (`.sum`/`.fold`/`.reduce`/`.product`) chained directly on a parallel iterator outside the blessed wrapper (`reorderlab_graph::det_sum_f64`). |
//! | L1   | No `MutexGuard` binding live across blocking work (socket/file I/O, `try_reorder`-class kernel calls) in the serve/ops surface — a held lock across a stall serializes every peer on the shard. |
//!
//! D2 is token-level; L1 reads `let` bindings and block nesting from
//! [`crate::scopes`]. Code under `#[cfg(test)]` is exempt
//! from both. The other contracts of DESIGN.md §8 are rustc and clippy
//! lints, configured in the manifests, the crate roots and `clippy.toml`.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::scopes::{cfg_test_ranges, let_bindings};

/// Every rule id the analyzer knows, in report order.
pub const RULE_IDS: [&str; 2] = ["D2", "L1"];

/// One finding: rule id, 1-based line, and a human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id from [`RULE_IDS`].
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// What was found and what to do instead.
    pub message: String,
}

/// Which rules apply to a given file. Computed from the workspace path by
/// the driver; fixtures and unit tests construct it directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// D2 applies (not the blessed `determinism.rs` wrapper module).
    pub d2: bool,
    /// L1 applies (serve/ops concurrent surface).
    pub l1: bool,
}

impl Scope {
    /// Everything on — used by the fixture corpus.
    pub fn all() -> Self {
        Scope { d2: true, l1: true }
    }
}

/// Identifiers that start a parallel iterator chain.
const PAR_ITER_STARTS: [&str; 5] =
    ["par_iter", "par_iter_mut", "into_par_iter", "par_chunks", "par_chunks_mut"];

/// `.sum` / `.fold` / `.reduce` / `.product` directly on a par chain.
const D2_REDUCERS: [&str; 4] = ["sum", "fold", "reduce", "product"];

/// Adapters that hand the chain back to a serial iterator (deactivate D2).
const SERIAL_REENTRY: [&str; 7] =
    ["iter", "into_iter", "chars", "bytes", "drain", "windows", "chunks"];

/// Blocking work a lock guard must not outlive (L1): socket and file I/O,
/// JSONL appends, channel receives, and the reorder/kernel entry points.
/// Condvar `wait` is deliberately absent — waiting *is* the one blocking
/// operation a guard legitimately spans.
const L1_BLOCKING: &str = "read read_line read_to_string read_exact write write_all writeln \
    flush append_jsonl try_reorder try_reorder_recorded execute_with run_with_threads recv \
    recv_timeout accept connect";

/// Chain methods after a `lock` call that detach the binding from the
/// guard (the binding holds copied data, not the `MutexGuard`).
const L1_DETACH: &str = "clone cloned to_vec to_owned to_string len is_empty drain collect \
    extend iter get remove insert take position contains_key pop_front";

/// Whether `word` is one of the whitespace-separated names in `list`.
fn listed(list: &str, word: &str) -> bool {
    list.split_whitespace().any(|w| w == word)
}

/// Per-rule documentation for `--explain`: `(id, contract, rationale,
/// minimal fixture example)`.
pub const RULE_DOCS: [(&str, &str, &str, &str); 2] = [
    (
        "D2",
        "No .sum/.fold/.reduce/.product chained directly on a parallel iterator.",
        "Float reduction order depends on the schedule. Write the parts into an input-ordered \
         buffer (a collect, or a per-index array the parallel pass fills) and reduce that \
         slice through reorderlab_graph::det_sum_f64, or allowlist order-free reductions with \
         a DETERMINISM comment. No lint can tell a parallel chain from a serial one, because \
         the order lives in the runtime, not in the types.",
        "v.par_iter().map(|x| x * 2.0).sum()   // <- D2",
    ),
    (
        "L1",
        "No MutexGuard binding live across blocking work (socket/file I/O, \
         try_reorder-class kernel calls).",
        "A lock held across a stall serializes every request on the shard and can deadlock \
         with the coalescing cell. Drop the guard (end its block, or drop(guard)) before \
         blocking; audited exceptions (e.g. the audit-log append, whose lock exists to \
         serialize the write) carry a SAFETY comment. Clippy's await_holding_lock covers \
         async code only.",
        "let guard = lock(&m);\nstream.write_all(buf);   // <- L1: guard still live",
    ),
];

/// Runs every in-scope rule over one lexed file.
pub fn check(lexed: &Lexed, scope: &Scope) -> Vec<Diagnostic> {
    let toks = &lexed.toks;
    let test_ranges = cfg_test_ranges(toks);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line));
    let mut out = Vec::new();
    if scope.d2 {
        check_d2(toks, &in_test, &mut out);
    }
    if scope.l1 {
        check_l1(toks, &in_test, &mut out);
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

fn check_d2(toks: &[Tok], in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Diagnostic>) {
    let mut active = false;
    let mut rel = 0i32;
    let mut idx = 0usize;
    while idx < toks.len() {
        let t = &toks[idx];
        let starts_chain = t.kind == TokKind::Ident
            && PAR_ITER_STARTS.contains(&t.text.as_str())
            && toks.get(idx + 1).is_some_and(|n| n.text == "(");
        if starts_chain {
            active = true;
            rel = 0;
            idx += 1;
            continue;
        }
        if active {
            match t.text.as_str() {
                "(" | "{" | "[" => rel += 1,
                ")" | "}" | "]" => {
                    rel -= 1;
                    if rel < 0 {
                        active = false;
                    }
                }
                ";" if rel <= 0 => active = false,
                _ => {}
            }
            // Only method calls chained directly on the parallel iterator
            // (relative depth 0) are part of the chain; anything inside a
            // closure body sits at depth > 0 and is serial code.
            if active
                && rel == 0
                && t.kind == TokKind::Ident
                && idx > 0
                && toks[idx - 1].text == "."
            {
                if D2_REDUCERS.contains(&t.text.as_str()) {
                    if !in_test(t.line) {
                        out.push(Diagnostic {
                            rule: "D2",
                            line: t.line,
                            message: format!(
                                "`.{}` chained on a parallel iterator: the reduction order \
                                 depends on the schedule; write the parts in input order and \
                                 reduce them through reorderlab_graph::det_sum_f64 (or \
                                 allowlist with a DETERMINISM comment if the operation is \
                                 order-free)",
                                t.text
                            ),
                        });
                    }
                } else if SERIAL_REENTRY.contains(&t.text.as_str()) {
                    active = false;
                }
            }
        }
        idx += 1;
    }
}

/// L1 — the lock-scope pass. For every simple `let g = …lock(…)…;`
/// binding (or one whose initializer names `MutexGuard`), the guard is
/// live from its `;` until its enclosing block closes or `drop(g)` runs.
/// Any [`L1_BLOCKING`] call in the live range is a finding. Initializers
/// that *detach* from the guard after the lock call (`.clone()`,
/// `.drain().collect()`, …) bind copied data, not the guard, and are
/// skipped.
fn check_l1(toks: &[Tok], in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Diagnostic>) {
    for b in let_bindings(toks) {
        if in_test(b.line) || !binds_a_guard(toks, b.init) {
            continue;
        }
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().skip(b.end_idx + 1) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" if depth == 0 => break, // the binding's block closed
                "}" => depth -= 1,
                "drop"
                    if toks.get(j + 1).is_some_and(|n| n.text == "(")
                        && toks.get(j + 2).is_some_and(|n| n.text == b.name) =>
                {
                    break; // explicit drop: guard dead
                }
                _ => {}
            }
            if t.kind == TokKind::Ident
                && listed(L1_BLOCKING, &t.text)
                && toks.get(j + 1).is_some_and(|n| n.text == "(" || n.text == "!")
            {
                out.push(Diagnostic {
                    rule: "L1",
                    line: t.line,
                    message: format!(
                        "blocking call `{}` while lock guard `{}` (line {}) is live: drop the \
                         guard before blocking work, or allowlist with a SAFETY comment if the \
                         lock exists to serialize exactly this",
                        t.text, b.name, b.line
                    ),
                });
            }
        }
    }
}

/// Does this initializer bind a lock guard? True when it contains a
/// `lock(`/`.lock(` call or names `MutexGuard`, and no detaching chain
/// method follows the (last) lock call.
fn binds_a_guard(toks: &[Tok], (start, end): (usize, usize)) -> bool {
    let end = end.min(toks.len().saturating_sub(1));
    let mut last_lock = None;
    for i in start..=end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "MutexGuard" {
            return true;
        }
        if t.text == "lock" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
            last_lock = Some(i);
        }
    }
    let Some(lock_idx) = last_lock else { return false };
    !toks[lock_idx + 1..=end].iter().any(|t| t.kind == TokKind::Ident && listed(L1_DETACH, &t.text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&lex(src), &Scope::all())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d2_flags_sum_on_par_chain() {
        let src = "fn f(v: &[f64]) -> f64 { v.par_iter().map(|x| x * 2.0).sum() }\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == "D2" && d.line == 1), "{d:?}");
    }

    #[test]
    fn d2_ignores_serial_fold_inside_closure() {
        let src = "fn f(v: &[Vec<f64>]) { v.par_iter().for_each(|row| { let _s = row.iter().fold(0.0, |a, b| a + b); }); }\n";
        assert!(!rules_of(&run(src)).contains(&"D2"));
    }

    #[test]
    fn d2_chain_ends_at_statement() {
        let src = "fn f(v: &[f64]) -> f64 { let parts: Vec<f64> = v.par_iter().map(|x| *x).collect();\n parts.iter().fold(0.0, |a, b| a + b) }\n";
        assert!(!rules_of(&run(src)).contains(&"D2"));
    }

    #[test]
    fn d2_suppressed_in_cfg_test() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t(v: &[f64]) -> f64 { v.par_iter().sum() }\n}\n";
        assert!(!rules_of(&run(src)).contains(&"D2"));
    }

    #[test]
    fn clean_file_has_no_diagnostics() {
        let src = "/// Docs mentioning par_iter().sum() are fine.\npub fn f(x: Option<u32>) -> Option<u32> { x.map(|v| v.saturating_add(1)) }\n";
        assert_eq!(run(src), Vec::new());
    }

    #[test]
    fn l1_flags_guard_live_across_blocking_call() {
        let src = "fn f(m: &Mutex<u32>, s: &mut TcpStream) {\n let guard = lock(m);\n s.write_all(b\"x\");\n}\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == "L1" && d.line == 3), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("`guard` (line 2)")), "{d:?}");
    }

    #[test]
    fn l1_block_scope_ends_the_guard() {
        let src = "fn f(m: &Mutex<u32>, s: &mut TcpStream) {\n { let guard = lock(m); *guard += 1; }\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }

    #[test]
    fn l1_explicit_drop_ends_the_guard() {
        let src = "fn f(m: &Mutex<u32>, s: &mut TcpStream) {\n let guard = lock(m);\n drop(guard);\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }

    #[test]
    fn l1_detached_bindings_are_not_guards() {
        let src = "fn f(m: &Mutex<Vec<u32>>, s: &mut TcpStream) {\n let copy = lock(m).clone();\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }

    #[test]
    fn l1_temporary_guards_do_not_fire() {
        let src = "fn f(m: &Mutex<u32>, s: &mut TcpStream) {\n *lock(m) += 1;\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }
}

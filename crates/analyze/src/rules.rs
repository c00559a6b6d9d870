//! The nine repo contracts.
//!
//! | Rule | Contract |
//! |------|----------|
//! | D1   | No `HashMap`/`HashSet` in modules that touch the parallel runtime: iteration order is seeded per process, so any traversal is schedule-visible. |
//! | D2   | No order-sensitive reductions (`.sum`/`.fold`/`.reduce`/`.product`) chained directly on a parallel iterator outside the blessed wrapper (`reorderlab_graph::det_sum_f64`). |
//! | D3   | No call, inside a parallel region, to a function that (transitively, across files) iterates a hash container — the call-graph closure of D1. |
//! | P1   | No `.unwrap()` / `.expect("…")` / `panic!` / `todo!` / `unimplemented!` in library crates outside `#[cfg(test)]`; ingestion files additionally ban slice indexing `[…]`. |
//! | C1   | No lossy `as` integer casts in the graph/core/kernels crates; ingestion files ban *all* integer `as` casts. Use `reorderlab_graph::cast` or `TryFrom`. |
//! | U1   | Every crate root carries `#![forbid(unsafe_code)]`, and any `unsafe` token anywhere is a diagnostic (audited exceptions live in `analyze.toml`). |
//! | L1   | No `MutexGuard` binding live across blocking work (socket/file I/O, `try_reorder`-class kernel calls) in the serve/ops surface — a held lock across a stall serializes every peer on the shard. |
//! | E1   | In serve/ops library code, no `unwrap`/`expect` on lock/channel/socket results outside the blessed poison-recovering `lock()` helper — every failure must map to a typed `OpError`. |
//! | W1   | Wire-contract exhaustiveness: every `OpError` variant appears exactly once in both the exit-code match and the wire-status match. |
//!
//! D1/D2/P1/C1/U1 are token-level; L1/E1/W1 additionally consult the
//! [`crate::scopes`] block tree (guard liveness, enclosing-function names,
//! `impl` membership), and D3 runs workspace-wide over the
//! [`crate::callgraph`] — it is emitted by the driver, not by [`check`].
//! Code under `#[cfg(test)]` is exempt from everything but U1.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::scopes::{cfg_test_ranges, let_bindings_in, ScopeTree};

/// Every rule id the analyzer knows, in report order.
pub const RULE_IDS: [&str; 9] = ["D1", "D2", "D3", "P1", "C1", "U1", "L1", "E1", "W1"];

/// One finding: rule id, 1-based line, human message, and (for D3) the
/// call-graph evidence chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id from [`RULE_IDS`].
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// What was found and what to do instead.
    pub message: String,
    /// Call-graph evidence (`["a", "b", "c"]` = `a` calls `b` calls `c`);
    /// empty for every rule but D3.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// A chain-less diagnostic (every rule but D3).
    pub fn new(rule: &'static str, line: u32, message: String) -> Diagnostic {
        Diagnostic { rule, line, message, chain: Vec::new() }
    }
}

/// Which rules apply to a given file. Computed from the workspace path by
/// the driver; fixtures and unit tests construct it directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// D1 applies (file is in an analyzed crate and not D1-blessed).
    pub d1: bool,
    /// D2 applies (not the blessed `determinism.rs` wrapper module).
    pub d2: bool,
    /// D3 call sites in this file are reported (driver-level rule).
    pub d3: bool,
    /// P1 applies (library crate, not a binary).
    pub p1: bool,
    /// P1's slice-index leg applies (ingestion files only).
    pub p1_index: bool,
    /// C1 applies (graph/core/kernels, not the blessed `cast.rs`).
    pub c1: bool,
    /// C1 bans *all* integer casts, not just narrowing ones (ingestion).
    pub c1_all_int: bool,
    /// U1's `unsafe`-token check applies.
    pub u1: bool,
    /// U1's `#![forbid(unsafe_code)]` requirement applies (crate/bin roots).
    pub u1_root: bool,
    /// L1 applies (serve/ops concurrent surface).
    pub l1: bool,
    /// E1 applies (serve/ops library code).
    pub e1: bool,
    /// W1 applies (fires only in the file defining `enum OpError`).
    pub w1: bool,
}

impl Scope {
    /// Everything on — used by the fixture corpus.
    pub fn all() -> Self {
        Scope {
            d1: true,
            d2: true,
            d3: true,
            p1: true,
            p1_index: true,
            c1: true,
            c1_all_int: true,
            u1: true,
            u1_root: true,
            l1: true,
            e1: true,
            w1: true,
        }
    }
}

/// Identifiers that mark a file as touching the parallel runtime (gates D1).
const PAR_HINTS: [&str; 6] =
    ["rayon", "par_iter", "par_iter_mut", "into_par_iter", "par_chunks", "par_chunks_mut"];

/// Identifiers that start a parallel iterator chain (activates D2, and
/// delimits the parallel regions D3 scans).
pub const PAR_ITER_STARTS: [&str; 5] =
    ["par_iter", "par_iter_mut", "into_par_iter", "par_chunks", "par_chunks_mut"];

/// `.sum` / `.fold` / `.reduce` / `.product` directly on a par chain.
const D2_REDUCERS: [&str; 4] = ["sum", "fold", "reduce", "product"];

/// Adapters that hand the chain back to a serial iterator (deactivate D2).
const SERIAL_REENTRY: [&str; 7] =
    ["iter", "into_iter", "chars", "bytes", "drain", "windows", "chunks"];

/// Integer targets where `as` can truncate from any wider source.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// The remaining integer targets, banned only in ingestion files.
const WIDE_INTS: [&str; 6] = ["u64", "i64", "usize", "isize", "u128", "i128"];

/// Keywords that can legitimately precede `[` without it being an index.
const NON_INDEX_BEFORE_BRACKET: [&str; 12] =
    ["in", "return", "break", "else", "match", "if", "while", "loop", "move", "as", "let", "use"];

/// Blocking work a lock guard must not outlive (L1): socket and file I/O,
/// JSONL appends, channel receives, and the reorder/kernel entry points.
/// Condvar `wait` is deliberately absent — waiting *is* the one blocking
/// operation a guard legitimately spans.
const L1_BLOCKING: [&str; 17] = [
    "read",
    "read_line",
    "read_to_string",
    "read_exact",
    "write",
    "write_all",
    "writeln",
    "flush",
    "append_jsonl",
    "try_reorder",
    "try_reorder_recorded",
    "execute_with",
    "run_with_threads",
    "recv",
    "recv_timeout",
    "accept",
    "connect",
];

/// Chain methods after a `lock` call that detach the binding from the
/// guard (the binding holds copied data, not the `MutexGuard`).
const L1_DETACH: [&str; 18] = [
    "clone",
    "cloned",
    "to_vec",
    "to_owned",
    "to_string",
    "len",
    "is_empty",
    "drain",
    "collect",
    "extend",
    "iter",
    "get",
    "remove",
    "insert",
    "take",
    "position",
    "contains_key",
    "pop_front",
];

/// Receiver-chain identifiers that mark an `unwrap`/`expect` as sitting on
/// a lock/channel/socket result (E1).
const E1_SOURCES: [&str; 18] = [
    "lock",
    "send",
    "try_send",
    "recv",
    "try_recv",
    "try_clone",
    "connect",
    "accept",
    "bind",
    "local_addr",
    "peer_addr",
    "read_line",
    "read_to_string",
    "write_all",
    "flush",
    "spawn",
    "join",
    "wait",
];

/// The one function allowed to consume a lock result without mapping it
/// to `OpError`: the poison-recovering helper every serve module defines.
const E1_BLESSED_FN: &str = "lock";

/// Per-rule documentation for `--explain`: `(id, contract, rationale,
/// minimal fixture example)`.
pub const RULE_DOCS: [(&str, &str, &str, &str); 9] = [
    (
        "D1",
        "No HashMap/HashSet in files that touch the parallel runtime.",
        "Iteration order of randomized-hash containers is seeded per process; any traversal \
         that feeds parallel work makes the result schedule-visible. Use a sorted Vec or an \
         index-keyed scatter array.",
        "use rayon::prelude::*;\nuse std::collections::HashMap;   // <- D1",
    ),
    (
        "D2",
        "No .sum/.fold/.reduce/.product chained directly on a parallel iterator.",
        "Float reduction order depends on the schedule. Write the parts into an input-ordered \
         buffer (a collect, or a per-index array the parallel pass fills) and reduce that \
         slice through reorderlab_graph::det_sum_f64, or allowlist order-free reductions with \
         a DETERMINISM comment.",
        "v.par_iter().map(|x| x * 2.0).sum()   // <- D2",
    ),
    (
        "D3",
        "No call, inside a parallel region, to a function that transitively iterates a \
         hash container.",
        "D1 only sees hash containers lexically near par_iter; a helper in another file \
         reintroduces the leak. The analyzer builds a workspace call graph, taints every \
         function whose body touches HashMap/HashSet, propagates taint to callers, and \
         reports tainted calls reachable from parallel regions with the evidence chain \
         (tainted via a -> b -> c).",
        "fn tally() { /* iterates a HashMap */ }\nv.par_iter().for_each(|_| { tally(); })   // <- D3",
    ),
    (
        "P1",
        "No unwrap/expect/panic!/todo!/unimplemented! in library crates; ingestion files \
         also ban bare slice indexing.",
        "Library code returns typed errors; aborting the caller's process is a CLI \
         privilege. Invariant-backed sites carry a SAFETY comment and an allowlist entry.",
        "let x = maybe.unwrap();   // <- P1 (library crate)",
    ),
    (
        "C1",
        "No lossy `as` integer casts in graph/core/kernels; ingestion files ban all \
         integer `as` casts.",
        "`as` silently truncates. Use reorderlab_graph::cast or TryFrom, or prove the \
         bound in a SAFETY comment and allowlist.",
        "let small = big as u32;   // <- C1",
    ),
    (
        "U1",
        "Every crate root carries #![forbid(unsafe_code)]; any `unsafe` token is a \
         diagnostic.",
        "The workspace is 100% safe Rust and the compiler enforces it per crate; U1 \
         catches new roots added without the attribute.",
        "unsafe { *ptr }   // <- U1",
    ),
    (
        "L1",
        "No MutexGuard binding live across blocking work (socket/file I/O, \
         try_reorder-class kernel calls).",
        "A lock held across a stall serializes every request on the shard and can deadlock \
         with the coalescing cell. Drop the guard (end its block, or drop(guard)) before \
         blocking; audited exceptions (e.g. the audit-log append, whose lock exists to \
         serialize the write) carry a SAFETY comment.",
        "let guard = lock(&m);\nstream.write_all(buf);   // <- L1: guard still live",
    ),
    (
        "E1",
        "In serve/ops library code, no unwrap/expect on lock/channel/socket results \
         outside the blessed poison-recovering lock() helper.",
        "A poisoned mutex or closed channel must surface as a typed OpError on the wire, \
         not a worker panic. The lock() helper recovers poisoning once, in one audited \
         place.",
        "let g = m.lock().unwrap();   // <- E1 (use the lock() helper)",
    ),
    (
        "W1",
        "Every OpError variant appears exactly once in both the exit-code match and the \
         wire-status match.",
        "The error taxonomy defines exit codes and wire statuses exactly once; a variant \
         added without both mappings silently degrades clients. The rule parses enum \
         OpError and the exit_code()/status() bodies and checks per-variant counts.",
        "enum OpError { Usage(String), Io(String) }\nfn status(&self) -> &str { match self { OpError::Usage(_) => \"usage\" } }   // <- W1: Io unmapped",
    ),
];

/// Runs every in-scope per-file rule over one lexed file. (D3 is
/// workspace-level and emitted by the driver.)
pub fn check(lexed: &Lexed, scope: &Scope) -> Vec<Diagnostic> {
    let toks = &lexed.toks;
    let test_ranges = cfg_test_ranges(toks);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| (a..=b).contains(&line));
    let mut out = Vec::new();

    let file_has_par =
        toks.iter().any(|t| t.kind == TokKind::Ident && PAR_HINTS.contains(&t.text.as_str()));

    if scope.d1 && file_has_par {
        check_d1(toks, &in_test, &mut out);
    }
    if scope.d2 {
        check_d2(toks, &in_test, &mut out);
    }
    if scope.p1 {
        check_p1(toks, &in_test, &mut out);
    }
    if scope.p1 && scope.p1_index {
        check_p1_index(toks, &in_test, &mut out);
    }
    if scope.c1 {
        check_c1(toks, scope.c1_all_int, &in_test, &mut out);
    }
    if scope.u1 {
        check_u1(toks, scope.u1_root, &mut out);
    }
    if scope.l1 || scope.e1 || scope.w1 {
        let tree = ScopeTree::build(toks);
        if scope.l1 {
            check_l1(toks, &tree, &mut out);
        }
        if scope.e1 {
            check_e1(toks, &tree, &mut out);
        }
        if scope.w1 {
            check_w1(toks, &tree, &mut out);
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

fn check_d1(toks: &[Tok], in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Diagnostic>) {
    for (idx, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || (t.text != "HashMap" && t.text != "HashSet")
            || in_test(t.line)
        {
            continue;
        }
        // `Qualifier::HashMap` where the qualifier is not `collections` is a
        // path into some other namespace (e.g. an enum variant named after
        // the kernel it mirrors), not the std type.
        let variant_path = idx >= 3
            && toks[idx - 1].text == ":"
            && toks[idx - 2].text == ":"
            && toks[idx - 3].kind == TokKind::Ident
            && toks[idx - 3].text != "collections";
        if variant_path {
            continue;
        }
        out.push(Diagnostic::new(
            "D1",
            t.line,
            format!(
                "`{}` in a module that touches the parallel runtime: iteration \
                 order is seeded per process; use a sorted Vec or an \
                 index-keyed scatter array instead",
                t.text
            ),
        ));
    }
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
                        out.push(Diagnostic::new(
                            "D2",
                            t.line,
                            format!(
                                "`.{}` chained on a parallel iterator: the \
                                 reduction order depends on the schedule; \
                                 write the parts in input order and reduce \
                                 them through reorderlab_graph::det_sum_f64 \
                                 (or allowlist with a DETERMINISM comment if \
                                 the operation is order-free)",
                                t.text
                            ),
                        ));
                    }
                } else if SERIAL_REENTRY.contains(&t.text.as_str()) {
                    active = false;
                }
            }
        }
        idx += 1;
    }
}

fn check_p1(toks: &[Tok], in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Diagnostic>) {
    for (idx, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let prev_dot = idx > 0 && toks[idx - 1].text == ".";
        let next_paren = toks.get(idx + 1).is_some_and(|n| n.text == "(");
        match t.text.as_str() {
            "unwrap" if prev_dot && next_paren => out.push(Diagnostic::new(
                "P1",
                t.line,
                "`.unwrap()` in library code: return a typed error, or prove the \
                 invariant and allowlist the site with a SAFETY comment"
                    .to_string(),
            )),
            // Only `.expect("…")` with a string-literal message is the
            // panicking Option/Result method; `self.expect(b'[')`-style
            // parser methods take non-string arguments.
            "expect"
                if prev_dot
                    && next_paren
                    && toks.get(idx + 2).is_some_and(|a| a.kind == TokKind::Str) =>
            {
                out.push(Diagnostic::new(
                    "P1",
                    t.line,
                    "`.expect(\"…\")` in library code: return a typed error, or prove \
                     the invariant and allowlist the site with a SAFETY comment"
                        .to_string(),
                ));
            }
            "panic" | "todo" | "unimplemented"
                if toks.get(idx + 1).is_some_and(|n| n.text == "!") =>
            {
                out.push(Diagnostic::new(
                    "P1",
                    t.line,
                    format!(
                        "`{}!` in library code: return a typed error instead of aborting the \
                         caller",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

fn check_p1_index(toks: &[Tok], in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Diagnostic>) {
    for (idx, t) in toks.iter().enumerate() {
        if t.text != "[" || t.kind != TokKind::Punct || idx == 0 || in_test(t.line) {
            continue;
        }
        let p = &toks[idx - 1];
        let indexing = (p.kind == TokKind::Ident
            && !NON_INDEX_BEFORE_BRACKET.contains(&p.text.as_str()))
            || p.text == ")"
            || p.text == "]";
        if indexing {
            out.push(Diagnostic::new(
                "P1",
                t.line,
                "slice index `[…]` in an ingestion path can panic on malformed \
                 input: use `.get()` and surface a typed parse error"
                    .to_string(),
            ));
        }
    }
}

fn check_c1(toks: &[Tok], all_int: bool, in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Diagnostic>) {
    for (idx, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || in_test(t.line) {
            continue;
        }
        let Some(target) = toks.get(idx + 1) else { continue };
        if target.kind != TokKind::Ident {
            continue;
        }
        let narrow = NARROW_INTS.contains(&target.text.as_str());
        let wide = WIDE_INTS.contains(&target.text.as_str());
        if narrow || (all_int && wide) {
            out.push(Diagnostic::new(
                "C1",
                t.line,
                format!(
                    "`as {}` silently truncates out-of-range values: use \
                     reorderlab_graph::cast or TryFrom, or allowlist the site with a \
                     SAFETY comment proving the bound",
                    target.text
                ),
            ));
        }
    }
}

fn check_u1(toks: &[Tok], require_forbid: bool, out: &mut Vec<Diagnostic>) {
    for t in toks {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            out.push(Diagnostic::new(
                "U1",
                t.line,
                "`unsafe` requires an audit: add a // SAFETY: comment and register \
                 the site in analyze.toml"
                    .to_string(),
            ));
        }
    }
    if require_forbid && !has_forbid_unsafe(toks) {
        out.push(Diagnostic::new(
            "U1",
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    for i in 0..toks.len().saturating_sub(5) {
        let head = toks[i].text == "#"
            && toks[i + 1].text == "!"
            && toks[i + 2].text == "["
            && toks[i + 3].text == "forbid"
            && toks[i + 4].text == "(";
        if !head {
            continue;
        }
        let mut j = i + 5;
        while j < toks.len() && toks[j].text != ")" {
            if toks[j].kind == TokKind::Ident && toks[j].text == "unsafe_code" {
                return true;
            }
            j += 1;
        }
    }
    false
}

/// L1 — the lock-scope pass. For every simple `let g = …lock(…)…;`
/// binding (or one whose initializer names `MutexGuard`), the guard is
/// live from its `;` until its enclosing block closes, `drop(g)` runs,
/// or the function ends. Any [`L1_BLOCKING`] call in the live range is a
/// finding. Initializers that *detach* from the guard after the lock call
/// (`.clone()`, `.drain().collect()`, …) bind copied data, not the
/// guard, and are skipped.
fn check_l1(toks: &[Tok], tree: &ScopeTree, out: &mut Vec<Diagnostic>) {
    for scope in &tree.functions {
        if scope.in_test {
            continue;
        }
        let Some((open, close)) = scope.body else { continue };
        for b in let_bindings_in(toks, open, close) {
            if !binds_a_guard(toks, b.init) {
                continue;
            }
            // Walk the live range.
            let mut depth = 0i32;
            let mut j = b.end_idx + 1;
            while j <= close && j < toks.len() {
                let t = &toks[j];
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            break; // the binding's block closed: guard dropped
                        }
                    }
                    "drop"
                        if t.kind == TokKind::Ident
                            && toks.get(j + 1).is_some_and(|n| n.text == "(")
                            && toks.get(j + 2).is_some_and(|n| n.text == b.name) =>
                    {
                        j = close + 1; // explicit drop: guard dead
                        continue;
                    }
                    _ => {}
                }
                if t.kind == TokKind::Ident
                    && L1_BLOCKING.contains(&t.text.as_str())
                    && toks.get(j + 1).is_some_and(|n| n.text == "(" || n.text == "!")
                {
                    out.push(Diagnostic::new(
                        "L1",
                        t.line,
                        format!(
                            "blocking call `{}` while lock guard `{}` (line {}) is live: \
                             drop the guard before blocking work, or allowlist with a \
                             SAFETY comment if the lock exists to serialize exactly this",
                            t.text, b.name, b.line
                        ),
                    ));
                }
                j += 1;
            }
        }
    }
}

/// Does this initializer bind a lock guard? True when it contains a
/// `lock(`/`.lock(` call or names `MutexGuard`, and no detaching chain
/// method follows the (last) lock call.
fn binds_a_guard(toks: &[Tok], (start, end): (usize, usize)) -> bool {
    let mut last_lock = None;
    for i in start..=end.min(toks.len().saturating_sub(1)) {
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
    !((lock_idx + 1)..=end.min(toks.len().saturating_sub(1)))
        .any(|i| toks[i].kind == TokKind::Ident && L1_DETACH.contains(&toks[i].text.as_str()))
}

/// E1 — unwrap/expect on lock/channel/socket results. Walks the receiver
/// chain backward from the `.unwrap`/`.expect` through method calls,
/// `?`, and paths; if any chain identifier is an [`E1_SOURCES`] name and
/// the site is not inside the blessed `lock()` helper, it fires.
fn check_e1(toks: &[Tok], tree: &ScopeTree, out: &mut Vec<Diagnostic>) {
    for (idx, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || (t.text != "unwrap" && t.text != "expect")
            || idx == 0
            || toks[idx - 1].text != "."
            || toks.get(idx + 1).is_none_or(|n| n.text != "(")
            || tree.in_test(t.line)
        {
            continue;
        }
        let enclosing = tree.enclosing_fn(idx).map(|f| tree.functions[f].name.as_str());
        if enclosing == Some(E1_BLESSED_FN) {
            continue;
        }
        let chain = receiver_chain(toks, idx - 1);
        if let Some(source) = chain.iter().find(|n| E1_SOURCES.contains(&n.as_str())) {
            out.push(Diagnostic::new(
                "E1",
                t.line,
                format!(
                    "`.{}` on a `{source}` result in serving code: a poisoned lock or \
                     closed channel must map to a typed OpError (or go through the \
                     blessed poison-recovering lock() helper), not panic the worker",
                    t.text
                ),
            ));
        }
    }
}

/// Collects the identifiers of the receiver chain ending at the `.` at
/// `dot_idx`: `a.b(x).c?.d` → `["d", "c", "b", "a"]` (argument lists are
/// skipped, not descended into).
fn receiver_chain(toks: &[Tok], dot_idx: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = dot_idx as i64 - 1;
    while i >= 0 {
        let t = &toks[i as usize];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => {
                // Skip the balanced group backward.
                let close = t.text.clone();
                let open = if close == ")" { "(" } else { "[" };
                let mut depth = 0i32;
                while i >= 0 {
                    let s = toks[i as usize].text.as_str();
                    if s == close {
                        depth += 1;
                    } else if s == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i -= 1;
                }
                i -= 1;
            }
            (TokKind::Punct, "?") => i -= 1,
            (TokKind::Punct, ".") => i -= 1,
            (TokKind::Ident, _) => {
                names.push(t.text.clone());
                // Continue through `.`/`::` path segments; otherwise stop.
                if i >= 1 && toks[i as usize - 1].text == "." {
                    i -= 2;
                } else if i >= 2
                    && toks[i as usize - 1].text == ":"
                    && toks[i as usize - 2].text == ":"
                {
                    i -= 3;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    names
}

/// W1 — wire-contract exhaustiveness. Fires only in a file that defines
/// `enum OpError`: every variant must appear exactly once in the body of
/// `exit_code` and exactly once in the body of `status` (both in
/// `impl OpError`).
fn check_w1(toks: &[Tok], tree: &ScopeTree, out: &mut Vec<Diagnostic>) {
    let Some((enum_line, variants)) = op_error_variants(toks) else { return };
    for fn_name in ["exit_code", "status"] {
        let mapping = tree
            .functions
            .iter()
            .find(|f| f.name == fn_name && f.impl_of.as_deref() == Some("OpError"));
        let Some(mapping) = mapping else {
            out.push(Diagnostic::new(
                "W1",
                enum_line,
                format!(
                    "enum OpError is defined here but `fn {fn_name}` is missing from \
                     `impl OpError`: every variant needs an exit-code and a wire-status \
                     mapping"
                ),
            ));
            continue;
        };
        let Some((open, close)) = mapping.body else { continue };
        for v in &variants {
            let count = variant_mentions(toks, open, close, v);
            if count != 1 {
                out.push(Diagnostic::new(
                    "W1",
                    mapping.line,
                    format!(
                        "OpError::{v} appears {count} time(s) in the `{fn_name}` match \
                         (must be exactly 1): a variant without both mappings silently \
                         degrades clients"
                    ),
                ));
            }
        }
    }
}

/// The variants of `enum OpError { … }`, with the enum's line. A variant
/// is an ident at brace depth 1 whose previous significant token is `{`
/// or `,` (or an attribute's closing `]`).
fn op_error_variants(toks: &[Tok]) -> Option<(u32, Vec<String>)> {
    let mut i = 0usize;
    let open = loop {
        if i + 2 >= toks.len() {
            return None;
        }
        if toks[i].kind == TokKind::Ident
            && toks[i].text == "enum"
            && toks[i + 1].text == "OpError"
            && toks[i + 2].text == "{"
        {
            break i + 2;
        }
        i += 1;
    };
    let enum_line = toks[open - 2].line;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if depth == 1
            && toks[j].kind == TokKind::Ident
            && j > 0
            && matches!(toks[j - 1].text.as_str(), "{" | "," | "]")
        {
            variants.push(toks[j].text.clone());
        }
        j += 1;
    }
    Some((enum_line, variants))
}

/// How many times `OpError::<variant>` (or `Self::<variant>`) appears in
/// the token range.
fn variant_mentions(toks: &[Tok], open: usize, close: usize, variant: &str) -> u32 {
    let mut count = 0u32;
    for i in open..=close.min(toks.len().saturating_sub(1)) {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == variant
            && i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && (toks[i - 3].text == "OpError" || toks[i - 3].text == "Self")
        {
            count += 1;
        }
    }
    count
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
    fn d1_flags_hashmap_in_par_file() {
        let src =
            "#![forbid(unsafe_code)]\nuse rayon::prelude::*;\nuse std::collections::HashMap;\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == "D1" && d.line == 3), "{d:?}");
    }

    #[test]
    fn d1_silent_without_par_tokens() {
        let src = "#![forbid(unsafe_code)]\nuse std::collections::HashMap;\n";
        assert!(!rules_of(&run(src)).contains(&"D1"));
    }

    #[test]
    fn d1_skips_enum_variant_paths() {
        let src = "#![forbid(unsafe_code)]\nuse rayon::prelude::*;\nfn f() { let k = MoveKernel::HashMap; }\n";
        assert!(!rules_of(&run(src)).contains(&"D1"));
    }

    #[test]
    fn d2_flags_sum_on_par_chain() {
        let src = "#![forbid(unsafe_code)]\nfn f(v: &[f64]) -> f64 { v.par_iter().map(|x| x * 2.0).sum() }\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == "D2" && d.line == 2), "{d:?}");
    }

    #[test]
    fn d2_ignores_serial_fold_inside_closure() {
        let src = "#![forbid(unsafe_code)]\nfn f(v: &[Vec<f64>]) { v.par_iter().for_each(|row| { let _s = row.iter().fold(0.0, |a, b| a + b); }); }\n";
        assert!(!rules_of(&run(src)).contains(&"D2"));
    }

    #[test]
    fn d2_chain_ends_at_statement() {
        let src = "#![forbid(unsafe_code)]\nfn f(v: &[f64]) -> f64 { let parts: Vec<f64> = v.par_iter().map(|x| *x).collect();\n parts.iter().fold(0.0, |a, b| a + b) }\n";
        assert!(!rules_of(&run(src)).contains(&"D2"));
    }

    #[test]
    fn p1_flags_unwrap_expect_panic() {
        let src = "#![forbid(unsafe_code)]\nfn f(x: Option<u32>) -> u32 {\n let a = x.unwrap();\n let b = x.expect(\"must\");\n if a == b { panic!(\"boom\"); }\n a\n}\n";
        let lines: Vec<u32> = run(src).iter().filter(|d| d.rule == "P1").map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 4, 5]);
    }

    #[test]
    fn p1_skips_non_string_expect_and_unwrap_or() {
        let src = "#![forbid(unsafe_code)]\nfn f(p: &mut P, x: Option<u32>) -> u32 {\n p.expect(b'[');\n x.unwrap_or(0)\n}\n";
        assert!(!rules_of(&run(src)).contains(&"P1"));
    }

    #[test]
    fn p1_suppressed_in_cfg_test() {
        let src = "#![forbid(unsafe_code)]\nfn lib() {}\n#[cfg(test)]\nmod proptests {\n fn t(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(!rules_of(&run(src)).contains(&"P1"));
    }

    #[test]
    fn p1_index_flags_indexing_not_attributes() {
        let src = "#![forbid(unsafe_code)]\n#[derive(Debug)]\nstruct S;\nfn f(v: &[u32]) -> u32 { v[0] }\nfn g() { for _x in [1, 2] {} }\n";
        let p1: Vec<u32> = run(src).iter().filter(|d| d.rule == "P1").map(|d| d.line).collect();
        assert_eq!(p1, vec![4]);
    }

    #[test]
    fn c1_flags_narrow_casts_only_unless_all_int() {
        let src = "#![forbid(unsafe_code)]\nfn f(n: usize) -> u32 { n as u32 }\nfn g(n: u32) -> f64 { n as f64 }\nfn h(n: u32) -> usize { n as usize }\n";
        let mut scope = Scope::all();
        scope.c1_all_int = false;
        let d = check(&lex(src), &scope);
        let c1: Vec<u32> = d.iter().filter(|d| d.rule == "C1").map(|d| d.line).collect();
        assert_eq!(c1, vec![2], "narrow mode flags only `as u32`");
        let d = run(src);
        let c1: Vec<u32> = d.iter().filter(|d| d.rule == "C1").map(|d| d.line).collect();
        assert_eq!(c1, vec![2, 4], "ingestion mode also flags `as usize`");
    }

    #[test]
    fn u1_missing_forbid_and_unsafe_token() {
        let src = "fn f() { let p = 0 as *const u8; unsafe { let _ = *p; } }\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == "U1" && d.line == 1));
        assert!(d.iter().filter(|d| d.rule == "U1").count() >= 2, "{d:?}");
    }

    #[test]
    fn u1_satisfied_by_forbid_attribute() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}\n";
        assert!(!rules_of(&run(src)).contains(&"U1"));
    }

    #[test]
    fn clean_file_has_no_diagnostics() {
        let src = "#![forbid(unsafe_code)]\n/// Docs mentioning unwrap() and panic! are fine.\npub fn f(x: Option<u32>) -> Option<u32> { x.map(|v| v.saturating_add(1)) }\n";
        assert_eq!(run(src), Vec::new());
    }

    // --- L1 ---

    #[test]
    fn l1_flags_guard_live_across_blocking_call() {
        let src = "#![forbid(unsafe_code)]\nfn f(m: &Mutex<u32>, s: &mut TcpStream) {\n let guard = lock(m);\n s.write_all(b\"x\");\n}\n";
        let d = run(src);
        assert!(d.iter().any(|d| d.rule == "L1" && d.line == 4), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("`guard` (line 3)")), "{d:?}");
    }

    #[test]
    fn l1_block_scope_ends_the_guard() {
        let src = "#![forbid(unsafe_code)]\nfn f(m: &Mutex<u32>, s: &mut TcpStream) {\n { let guard = lock(m); *guard += 1; }\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }

    #[test]
    fn l1_explicit_drop_ends_the_guard() {
        let src = "#![forbid(unsafe_code)]\nfn f(m: &Mutex<u32>, s: &mut TcpStream) {\n let guard = lock(m);\n drop(guard);\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }

    #[test]
    fn l1_detached_bindings_are_not_guards() {
        let src = "#![forbid(unsafe_code)]\nfn f(m: &Mutex<Vec<u32>>, s: &mut TcpStream) {\n let copy = lock(m).clone();\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }

    #[test]
    fn l1_temporary_guards_do_not_fire() {
        let src = "#![forbid(unsafe_code)]\nfn f(m: &Mutex<u32>, s: &mut TcpStream) {\n *lock(m) += 1;\n s.write_all(b\"x\");\n}\n";
        assert!(!rules_of(&run(src)).contains(&"L1"));
    }

    // --- E1 ---

    #[test]
    fn e1_flags_unwrap_on_lock_and_channel_results() {
        let src = "#![forbid(unsafe_code)]\nfn f(m: &Mutex<u32>, rx: &Receiver<u32>) {\n let g = m.lock().unwrap();\n let v = rx.recv().expect(\"closed\");\n}\n";
        let e1: Vec<u32> = run(src).iter().filter(|d| d.rule == "E1").map(|d| d.line).collect();
        assert_eq!(e1, vec![3, 4]);
    }

    #[test]
    fn e1_blessed_inside_the_lock_helper() {
        let src = "#![forbid(unsafe_code)]\nfn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n m.lock().unwrap()\n}\n";
        assert!(!rules_of(&run(src)).contains(&"E1"));
    }

    #[test]
    fn e1_ignores_non_channel_unwraps() {
        // Plain Option unwraps are P1's business, not E1's.
        let src = "#![forbid(unsafe_code)]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = run(src);
        assert!(!rules_of(&d).contains(&"E1"), "{d:?}");
        assert!(rules_of(&d).contains(&"P1"));
    }

    // --- W1 ---

    const W1_COMPLETE: &str = "#![forbid(unsafe_code)]\n\
        pub enum OpError { Usage(String), Io(String) }\n\
        impl OpError {\n\
         pub fn exit_code(&self) -> u8 { match self { OpError::Usage(_) => 2, OpError::Io(_) => 1 } }\n\
         pub fn status(&self) -> &'static str { match self { OpError::Usage(_) => \"usage\", OpError::Io(_) => \"io\" } }\n\
        }\n";

    #[test]
    fn w1_complete_mapping_is_clean() {
        let d = run(W1_COMPLETE);
        assert!(!rules_of(&d).contains(&"W1"), "{d:?}");
    }

    #[test]
    fn w1_flags_a_missing_status_arm() {
        let src = W1_COMPLETE.replace("OpError::Io(_) => \"io\"", "_ => \"io\"");
        let d = run(&src);
        let w1: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "W1").collect();
        assert_eq!(w1.len(), 1, "{d:?}");
        assert!(w1[0].message.contains("OpError::Io"), "{}", w1[0].message);
        assert!(w1[0].message.contains("status"), "{}", w1[0].message);
    }

    #[test]
    fn w1_flags_a_duplicated_exit_code_arm() {
        let src = W1_COMPLETE
            .replace("OpError::Io(_) => 1", "OpError::Io(_) => 1, OpError::Usage(_) => 3");
        let d = run(&src);
        assert!(d.iter().any(|d| d.rule == "W1" && d.message.contains("2 time(s)")), "{d:?}");
    }

    #[test]
    fn w1_flags_a_missing_mapping_fn() {
        let src = "#![forbid(unsafe_code)]\npub enum OpError { Usage(String) }\n\
            impl OpError { pub fn exit_code(&self) -> u8 { match self { OpError::Usage(_) => 2 } } }\n";
        let d = run(src);
        assert!(
            d.iter().any(|d| d.rule == "W1" && d.message.contains("`fn status` is missing")),
            "{d:?}"
        );
    }

    #[test]
    fn w1_silent_without_the_enum() {
        let src = "#![forbid(unsafe_code)]\nfn uses(e: &OpError) -> u8 { e.exit_code() }\n";
        assert!(!rules_of(&run(src)).contains(&"W1"));
    }
}

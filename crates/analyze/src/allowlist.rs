//! The committed allowlist (`analyze.toml`): a registry of audited
//! exceptions to the two analyzer rules.
//!
//! Format — a deliberate subset of TOML, parsed locally so the crate stays
//! dependency-free:
//!
//! ```toml
//! schema = 3
//!
//! [[allow]]
//! rule = "L1"
//! path = "crates/serve/src/server.rs"
//! fingerprint = "7eae2031a30cf0bf"  # FNV-1a 64 of the trimmed source line
//! reason = "why this is sound"
//! ```
//!
//! Every entry must carry `rule`, `path`, `fingerprint` (a pin by line
//! *content*, shift-proof against edits elsewhere in the file) and
//! `reason`. An entry may add `count = N` when N identical lines in the
//! file are blessed together (default 1). The analyzer additionally
//! requires a `// SAFETY:` or `// DETERMINISM:` comment at the blessed
//! site; an allowlist entry alone is never sufficient.
//!
//! Compute a fingerprint with [`line_fingerprint`] on the trimmed source
//! line, or run the analyzer: unmatched-fingerprint problems print the
//! expected hash for every candidate line.

use crate::rules::RULE_IDS;

/// The allowlist schema this analyzer reads. Schema 1 pinned sites by line
/// number and schema 2 also budgeted whole files by count; both readers are
/// retired, so an older header fails the run, `line` is an unknown key and
/// a `count` without a `fingerprint` is an error.
pub const ALLOWLIST_SCHEMA: u32 = 3;

/// FNV-1a 64-bit hash of the *trimmed* source line — the entry's
/// fingerprint. Trimming makes the pin robust to re-indentation; any other
/// content change (even whitespace inside the line) re-opens the audit.
pub fn line_fingerprint(line: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in line.trim().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One audited exception.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id (`"D2"` or `"L1"`).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// FNV-1a 64 of the trimmed source line ([`line_fingerprint`]).
    pub hash: u64,
    /// How many identical lines this entry blesses (usually 1); exactly
    /// this many must fire.
    pub count: u32,
    /// Human justification; must be non-empty.
    pub reason: String,
}

/// Parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Schema version as written in the file (`schema = 3`).
    pub schema: u32,
    /// All entries in file order.
    pub entries: Vec<AllowEntry>,
}

/// A parse or validation failure, with the offending 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowlistError {
    /// 1-based line in the allowlist file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "allowlist line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AllowlistError {}

/// Partial entry being accumulated while parsing.
#[derive(Debug, Default)]
struct Draft {
    start_line: usize,
    rule: Option<String>,
    path: Option<String>,
    fingerprint: Option<u64>,
    count: Option<u32>,
    reason: Option<String>,
}

fn finish(draft: Draft) -> Result<AllowEntry, AllowlistError> {
    let at = draft.start_line;
    let err = |m: &str| AllowlistError { line: at, message: m.to_string() };
    let rule = draft.rule.ok_or_else(|| err("entry is missing `rule`"))?;
    if !RULE_IDS.contains(&rule.as_str()) {
        return Err(err(&format!("unknown rule {rule:?} (expected one of {RULE_IDS:?})")));
    }
    let path = draft.path.ok_or_else(|| err("entry is missing `path`"))?;
    let reason = draft.reason.ok_or_else(|| err("entry is missing `reason`"))?;
    if reason.trim().is_empty() {
        return Err(err("`reason` must not be empty"));
    }
    let hash = draft.fingerprint.ok_or_else(|| err("entry is missing `fingerprint`"))?;
    let count = draft.count.unwrap_or(1);
    if count == 0 {
        return Err(err("`count` must be at least 1"));
    }
    Ok(AllowEntry { rule, path, hash, count, reason })
}

/// Parses the allowlist text.
///
/// # Errors
///
/// Returns the first syntactic or semantic problem with its line number.
pub fn parse(text: &str) -> Result<Allowlist, AllowlistError> {
    let mut list = Allowlist::default();
    let mut draft: Option<Draft> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(d) = draft.take() {
                list.entries.push(finish(d)?);
            }
            draft = Some(Draft { start_line: lineno, ..Draft::default() });
            continue;
        }
        if line.starts_with('[') {
            return Err(AllowlistError {
                line: lineno,
                message: format!("unsupported table {line:?} (only [[allow]] is recognized)"),
            });
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(AllowlistError {
                line: lineno,
                message: format!("expected `key = value`, got {line:?}"),
            });
        };
        let key = key.trim();
        // Strip a trailing `# comment` only outside quoted strings.
        let value = strip_comment(value.trim());
        match (key, &mut draft) {
            ("schema", None) => {
                list.schema = parse_int(value, lineno)?;
            }
            (_, None) => {
                return Err(AllowlistError {
                    line: lineno,
                    message: format!("key {key:?} outside any [[allow]] entry"),
                });
            }
            ("rule", Some(d)) => d.rule = Some(parse_str(value, lineno)?),
            ("path", Some(d)) => d.path = Some(parse_str(value, lineno)?),
            ("reason", Some(d)) => d.reason = Some(parse_str(value, lineno)?),
            ("fingerprint", Some(d)) => {
                d.fingerprint = Some(parse_fingerprint(value, lineno)?);
            }
            ("count", Some(d)) => d.count = Some(parse_int(value, lineno)?),
            (other, Some(_)) => {
                return Err(AllowlistError {
                    line: lineno,
                    message: format!("unknown key {other:?} in [[allow]] entry"),
                });
            }
        }
    }
    if let Some(d) = draft.take() {
        list.entries.push(finish(d)?);
    }
    Ok(list)
}

fn strip_comment(value: &str) -> &str {
    let mut in_str = false;
    for (i, c) in value.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return value[..i].trim_end(),
            _ => {}
        }
    }
    value
}

fn parse_str(value: &str, line: usize) -> Result<String, AllowlistError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(AllowlistError { line, message: format!("expected a quoted string, got {v:?}") })
    }
}

fn parse_int(value: &str, line: usize) -> Result<u32, AllowlistError> {
    value.trim().parse().map_err(|_| AllowlistError {
        line,
        message: format!("expected an integer, got {value:?}"),
    })
}

fn parse_fingerprint(value: &str, line: usize) -> Result<u64, AllowlistError> {
    let v = parse_str(value, line)?;
    if v.len() != 16 || !v.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(AllowlistError {
            line,
            message: format!("expected 16 hex digits (FNV-1a 64 of the trimmed line), got {v:?}"),
        });
    }
    u64::from_str_radix(&v, 16)
        .map_err(|_| AllowlistError { line, message: format!("expected 16 hex digits, got {v:?}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fingerprint_entries() {
        let text = r#"
schema = 3

# an audited lock site
[[allow]]
rule = "L1"
path = "crates/x/src/a.rs"
fingerprint = "8c55ad8585a1c9d3"   # pinned by content
reason = "cannot fail: invariant"
"#;
        let list = parse(text).unwrap();
        assert_eq!(list.schema, 3);
        assert_eq!(list.entries.len(), 1);
        assert_eq!((list.entries[0].hash, list.entries[0].count), (0x8c55_ad85_85a1_c9d3, 1));
    }

    #[test]
    fn rejects_retired_count_budgets() {
        let text = "[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\ncount = 3\nreason = \"r\"\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("missing `fingerprint`"), "{err}");
    }

    #[test]
    fn fingerprint_entry_accepts_a_count() {
        let text = "[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\n\
                    fingerprint = \"00000000000000ff\"\ncount = 2\nreason = \"r\"\n";
        let list = parse(text).unwrap();
        assert_eq!((list.entries[0].hash, list.entries[0].count), (0xff, 2));
    }

    #[test]
    fn rejects_malformed_fingerprints() {
        for bad in ["\"12ab\"", "\"zzzzzzzzzzzzzzzz\"", "12ab34cd12ab34cd"] {
            let text = format!(
                "[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\nfingerprint = {bad}\nreason = \"r\"\n"
            );
            assert!(parse(&text).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rejects_missing_reason() {
        let text =
            "[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\nfingerprint = \"00000000000000ff\"\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_retired_line_pins_at_the_key() {
        let text = "[[allow]]\nrule = \"L1\"\npath = \"x.rs\"\nline = 1\nreason = \"r\"\n";
        let err = parse(text).unwrap_err();
        assert!(err.message.contains("unknown key \"line\""), "{err}");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn rejects_unknown_rule() {
        for retired in ["Z9", "P1", "D1"] {
            let text = format!(
                "[[allow]]\nrule = \"{retired}\"\npath = \"x.rs\"\n\
                 fingerprint = \"00000000000000ff\"\nreason = \"r\"\n"
            );
            let err = parse(&text).unwrap_err();
            assert!(err.message.contains("unknown rule"), "{retired}: {err}");
        }
    }

    #[test]
    fn accepts_every_rule_id() {
        for rule in RULE_IDS {
            let text = format!(
                "[[allow]]\nrule = \"{rule}\"\npath = \"x.rs\"\n\
                 fingerprint = \"00000000000000ff\"\nreason = \"r\"\n"
            );
            assert!(parse(&text).is_ok(), "rejected {rule}");
        }
    }

    #[test]
    fn rejects_keys_outside_entries() {
        let err = parse("rule = \"L1\"\n").unwrap_err();
        assert!(err.message.contains("outside"), "{err}");
    }

    #[test]
    fn empty_text_is_an_empty_allowlist() {
        let list = parse("").unwrap();
        assert_eq!(list.entries.len(), 0);
    }

    #[test]
    fn fingerprints_trim_but_are_content_sensitive() {
        let a = line_fingerprint("    let x = v.unwrap();");
        let b = line_fingerprint("let x = v.unwrap();");
        let c = line_fingerprint("let x = v.unwrap() ;");
        assert_eq!(a, b, "leading/trailing whitespace must not matter");
        assert_ne!(b, c, "interior content changes must re-open the audit");
    }
}

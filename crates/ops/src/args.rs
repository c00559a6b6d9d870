//! Flag scanning shared by the operational binaries.
//!
//! The CLI and the serve daemon both parse `--flag value` style argument
//! lists; these helpers are the one copy of that scanning logic (formerly
//! private functions inside the CLI binary).

/// Returns the value following `flag`, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// True when the bare flag is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Collects all values of a repeatable flag.
pub fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < args.len() {
        if args[i] == flag {
            out.push(args[i + 1].clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scans_values_and_presence() {
        let args = argv(&["--input", "g.mtx", "--json", "--scheme", "rcm", "--scheme", "cdfs"]);
        assert_eq!(flag_value(&args, "--input").as_deref(), Some("g.mtx"));
        assert_eq!(flag_value(&args, "--out"), None);
        assert!(has_flag(&args, "--json"));
        assert!(!has_flag(&args, "--quick"));
        assert_eq!(flag_values(&args, "--scheme"), argv(&["rcm", "cdfs"]));
    }

    #[test]
    fn trailing_flag_without_value_yields_none() {
        let args = argv(&["--input"]);
        assert_eq!(flag_value(&args, "--input"), None);
        assert!(flag_values(&args, "--input").is_empty());
    }
}

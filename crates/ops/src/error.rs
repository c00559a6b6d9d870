//! The shared operation error taxonomy.
//!
//! Every frontend — the CLI binary, the serve daemon, the bench harness —
//! reports failures through [`OpError`], so the mapping from failure class
//! to process exit code (CLI) and to response status string (daemon) is
//! specified exactly once, here.

use reorderlab_core::SchemeError;
use std::fmt;

/// Why an operation failed.
///
/// The split mirrors the CLI's historical contract: *caller mistakes* the
/// invoker can fix by re-issuing the request (usage, bad scheme specs,
/// inputs diagnosed as malformed) versus *runtime failures* (I/O,
/// mid-command parse errors).
#[derive(Debug, Clone, PartialEq)]
pub enum OpError {
    /// The request itself is wrong: unknown command, missing required
    /// field, malformed flag value. Exit code 2 / status `"usage"`.
    Usage(String),
    /// A scheme spec was rejected by the registry. Exit code 2 / status
    /// `"scheme"`.
    Scheme(SchemeError),
    /// A file could not be opened, created, or written. Exit code 1 /
    /// status `"io"`.
    Io(String),
    /// An input opened but failed to parse. Exit code 1 / status
    /// `"parse"`.
    Parse(String),
    /// Validation diagnosed at least one input as malformed — a verdict,
    /// not a runtime failure. Exit code 2 / status `"malformed"`.
    Malformed(String),
}

// Every variant has exactly one exit-code arm and one wire-status arm:
// rustc's exhaustiveness check fails a missing arm, `unreachable_patterns`
// a repeated one, and this lint a wildcard that would swallow a new variant.
#[deny(clippy::wildcard_enum_match_arm)]
impl OpError {
    /// The process exit code this error maps to: `2` for caller mistakes,
    /// `1` for runtime failures.
    pub fn exit_code(&self) -> u8 {
        match self {
            OpError::Usage(_) | OpError::Scheme(_) | OpError::Malformed(_) => 2,
            OpError::Io(_) | OpError::Parse(_) => 1,
        }
    }

    /// The stable status keyword the daemon reports in error responses.
    pub fn status(&self) -> &'static str {
        match self {
            OpError::Usage(_) => "usage",
            OpError::Scheme(_) => "scheme",
            OpError::Io(_) => "io",
            OpError::Parse(_) => "parse",
            OpError::Malformed(_) => "malformed",
        }
    }

    /// Reconstructs an error from its wire form (`status` keyword plus
    /// message), for clients that surface daemon errors with the same exit
    /// codes as local failures. Unknown keywords degrade to [`OpError::Io`]
    /// (a runtime failure) rather than being dropped.
    pub fn from_wire(status: &str, message: &str) -> OpError {
        match status {
            "usage" => OpError::Usage(message.to_string()),
            // Scheme errors lose their typed payload over the wire but keep
            // the exit-code class via Usage (both map to 2).
            "scheme" | "malformed" => OpError::Malformed(message.to_string()),
            "parse" => OpError::Parse(message.to_string()),
            _ => OpError::Io(message.to_string()),
        }
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Usage(msg)
            | OpError::Io(msg)
            | OpError::Parse(msg)
            | OpError::Malformed(msg) => f.write_str(msg),
            OpError::Scheme(e) => write!(f, "{e}"),
        }
    }
}

impl From<SchemeError> for OpError {
    fn from(e: SchemeError) -> Self {
        OpError::Scheme(e)
    }
}

impl std::error::Error for OpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_split_caller_mistakes_from_runtime() {
        assert_eq!(OpError::Usage("x".into()).exit_code(), 2);
        assert_eq!(OpError::Scheme(SchemeError::UnknownScheme { name: "x".into() }).exit_code(), 2);
        assert_eq!(OpError::Malformed("x".into()).exit_code(), 2);
        assert_eq!(OpError::Io("x".into()).exit_code(), 1);
        assert_eq!(OpError::Parse("x".into()).exit_code(), 1);
    }

    #[test]
    fn failures_carry_exit_code_two_and_list_accepted_names() {
        let err = OpError::from(reorderlab_core::Scheme::parse("nope").unwrap_err());
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("accepted schemes:"), "{msg}");
        for def in reorderlab_core::SCHEMES {
            assert!(msg.contains(def.spec), "error must list {}: {msg}", def.spec);
        }
    }

    #[test]
    fn status_keywords_are_stable() {
        assert_eq!(OpError::Usage("x".into()).status(), "usage");
        assert_eq!(
            OpError::Scheme(SchemeError::UnknownScheme { name: "x".into() }).status(),
            "scheme"
        );
        assert_eq!(OpError::Io("x".into()).status(), "io");
        assert_eq!(OpError::Parse("x".into()).status(), "parse");
        assert_eq!(OpError::Malformed("x".into()).status(), "malformed");
    }

    #[test]
    fn wire_round_trip_preserves_exit_code_class() {
        for e in [
            OpError::Usage("a".into()),
            OpError::Scheme(SchemeError::UnknownScheme { name: "x".into() }),
            OpError::Io("b".into()),
            OpError::Parse("c".into()),
            OpError::Malformed("d".into()),
        ] {
            let back = OpError::from_wire(e.status(), &e.to_string());
            assert_eq!(back.exit_code(), e.exit_code(), "{e:?}");
        }
    }
}

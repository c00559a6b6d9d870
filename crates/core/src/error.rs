//! Typed errors for scheme validation, spec parsing, and measures.
//!
//! [`SchemeError`](crate::SchemeError) replaces the panics and stringly
//! errors that previously guarded scheme parameters: construction-time
//! ranges (`k_frac ∈ (0, 1]`, `window ≥ 1`, `parts ≥ 1`), graph-dependent
//! constraints (`parts ≤ n`), and the `name[:key=val,...]` spec grammar of
//! [`Scheme::parse`](crate::Scheme::parse).
//!
//! [`MeasureError`](crate::MeasureError) does the same for the measure
//! layer: every `assert!` that used to guard gap measures, packing factors,
//! and performance-profile construction is now a typed error the `try_*`
//! entry points return, so harness code can degrade gracefully on
//! degenerate inputs instead of aborting.

use std::fmt;

/// Why a [`Scheme`](crate::Scheme) could not be validated, parsed, or run.
///
/// Returned by [`Scheme::parse`](crate::Scheme::parse),
/// [`Scheme::validate`](crate::Scheme::validate), and
/// [`Scheme::try_reorder`](crate::Scheme::try_reorder);
/// [`Scheme::reorder`](crate::Scheme::reorder) panics with the same
/// message via [`Display`](std::fmt::Display).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchemeError {
    /// SlashBurn's hub fraction was outside `(0, 1]` (or NaN).
    KFracOutOfRange {
        /// The rejected fraction.
        k_frac: f64,
    },
    /// Gorder's window was zero.
    WindowTooSmall {
        /// The rejected window size.
        window: usize,
    },
    /// METIS was asked for zero parts.
    PartsTooSmall {
        /// The rejected part count.
        parts: usize,
    },
    /// METIS was asked for more parts than the graph has vertices.
    PartsExceedVertices {
        /// The requested part count.
        parts: usize,
        /// The graph's vertex count.
        vertices: usize,
    },
    /// A spec named a scheme that is not in the registry.
    UnknownScheme {
        /// The unrecognized name.
        name: String,
    },
    /// A spec passed a `key=value` parameter the scheme does not accept.
    UnknownParameter {
        /// The scheme's display name.
        scheme: &'static str,
        /// The unrecognized key.
        key: String,
    },
    /// A spec parameter value failed to parse for its key.
    InvalidValue {
        /// The parameter key (or positional parameter name).
        key: String,
        /// The unparseable value text.
        value: String,
    },
    /// A spec passed a parameter to a parameterless scheme.
    UnexpectedParameter {
        /// The scheme's display name.
        scheme: &'static str,
        /// The offending parameter text.
        param: String,
    },
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::KFracOutOfRange { k_frac } => {
                write!(f, "slashburn fraction {k_frac} must be in (0, 1]")
            }
            SchemeError::WindowTooSmall { .. } => write!(f, "gorder window must be at least 1"),
            SchemeError::PartsTooSmall { .. } => write!(f, "metis needs at least 1 part"),
            SchemeError::PartsExceedVertices { parts, vertices } => {
                write!(f, "metis parts {parts} exceed the graph's {vertices} vertices")
            }
            SchemeError::UnknownScheme { name } => {
                write!(f, "unknown scheme {name:?}; accepted schemes: ")?;
                for (i, def) in crate::SCHEMES.iter().enumerate() {
                    write!(f, "{}{}", if i == 0 { "" } else { ", " }, def.spec)?;
                }
                Ok(())
            }
            SchemeError::UnknownParameter { scheme, key } => {
                write!(f, "scheme {scheme} has no parameter {key:?}")
            }
            SchemeError::InvalidValue { key, value } => {
                write!(f, "invalid value {value:?} for {key}")
            }
            SchemeError::UnexpectedParameter { scheme, param } => {
                write!(f, "scheme {scheme} takes no parameter (got {param:?})")
            }
        }
    }
}

impl std::error::Error for SchemeError {}

/// Why a measure could not be computed.
///
/// Returned by the fallible measure entry points
/// ([`try_gap_measures`](crate::measures::try_gap_measures),
/// [`try_packing_factor`](crate::measures::try_packing_factor),
/// [`PerformanceProfile::try_new`](crate::PerformanceProfile::try_new), …);
/// the panicking wrappers abort with the same message via
/// [`Display`](std::fmt::Display).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MeasureError {
    /// A permutation's length did not match the graph it was measured on.
    PermutationMismatch {
        /// Length of the permutation.
        permutation_len: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// A packing-factor geometry declared zero-byte entries.
    ZeroEntryBytes,
    /// A packing-factor cache line is smaller than one entry.
    LineTooSmall {
        /// Bytes per entry.
        entry_bytes: usize,
        /// Bytes per cache line.
        line_bytes: usize,
    },
    /// A performance profile's method list and score matrix disagree.
    MethodCountMismatch {
        /// Number of method names.
        methods: usize,
        /// Number of score rows.
        rows: usize,
    },
    /// A performance profile was built from zero methods.
    NoMethods,
    /// A performance profile was built from zero instances.
    NoInstances,
    /// A performance profile's score matrix is ragged.
    RaggedScores {
        /// 0-based index of the offending row.
        row: usize,
        /// That row's length.
        len: usize,
        /// The expected instance count (row 0's length).
        expected: usize,
    },
    /// A score was negative, NaN, or infinite.
    InvalidScore {
        /// 0-based method index.
        method: usize,
        /// 0-based instance index.
        instance: usize,
        /// The offending value.
        value: f64,
    },
    /// A performance-profile factor τ was below 1 (or NaN).
    TauOutOfRange {
        /// The offending τ.
        tau: f64,
    },
    /// A performance profile was given no τ sample points.
    NoTaus,
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::PermutationMismatch { permutation_len, num_vertices } => write!(
                f,
                "permutation must cover the graph: length {permutation_len} vs {num_vertices} vertices"
            ),
            MeasureError::ZeroEntryBytes => write!(f, "entries must occupy at least a byte"),
            MeasureError::LineTooSmall { entry_bytes, line_bytes } => write!(
                f,
                "a line must hold at least one entry ({line_bytes}-byte lines, {entry_bytes}-byte entries)"
            ),
            MeasureError::MethodCountMismatch { methods, rows } => {
                write!(f, "one score row per method: {methods} methods, {rows} rows")
            }
            MeasureError::NoMethods => write!(f, "need at least one method"),
            MeasureError::NoInstances => write!(f, "need at least one instance"),
            MeasureError::RaggedScores { row, len, expected } => write!(
                f,
                "score matrix must be rectangular: row {row} has {len} scores, expected {expected}"
            ),
            MeasureError::InvalidScore { method, instance, value } => write!(
                f,
                "scores must be finite and non-negative: method {method}, instance {instance} scored {value}"
            ),
            MeasureError::TauOutOfRange { tau } => {
                write!(f, "factors must be at least 1, got {tau}")
            }
            MeasureError::NoTaus => write!(f, "need at least one factor sample point"),
        }
    }
}

impl std::error::Error for MeasureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_value() {
        let e = SchemeError::KFracOutOfRange { k_frac: 2.0 };
        assert_eq!(e.to_string(), "slashburn fraction 2 must be in (0, 1]");
        let e = SchemeError::PartsExceedVertices { parts: 32, vertices: 5 };
        assert_eq!(e.to_string(), "metis parts 32 exceed the graph's 5 vertices");
        let e = SchemeError::UnknownScheme { name: "nope".into() };
        let msg = e.to_string();
        assert!(msg.starts_with("unknown scheme \"nope\"; accepted schemes: natural, "), "{msg}");
        for def in crate::SCHEMES {
            assert!(msg.contains(def.spec), "error must list accepted scheme {:?}", def.spec);
        }
        let e = SchemeError::UnknownParameter { scheme: "RCM", key: "window".into() };
        assert_eq!(e.to_string(), "scheme RCM has no parameter \"window\"");
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&SchemeError::WindowTooSmall { window: 0 });
        takes_error(&MeasureError::NoMethods);
    }

    #[test]
    fn measure_messages_name_the_offending_value() {
        let e = MeasureError::PermutationMismatch { permutation_len: 3, num_vertices: 5 };
        assert_eq!(e.to_string(), "permutation must cover the graph: length 3 vs 5 vertices");
        let e = MeasureError::LineTooSmall { entry_bytes: 64, line_bytes: 4 };
        assert!(e.to_string().contains("at least one entry"));
        let e = MeasureError::RaggedScores { row: 1, len: 1, expected: 2 };
        assert!(e.to_string().contains("rectangular"));
        let e = MeasureError::InvalidScore { method: 0, instance: 2, value: f64::NAN };
        assert!(e.to_string().contains("finite"));
        let e = MeasureError::TauOutOfRange { tau: 0.5 };
        assert!(e.to_string().contains("at least 1"));
    }

    #[test]
    fn measure_errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MeasureError>();
    }
}

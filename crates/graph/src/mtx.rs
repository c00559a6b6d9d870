//! Matrix Market (`.mtx`) I/O — the exchange format of the SuiteSparse
//! Matrix Collection through which the paper obtained its DIMACS10
//! instances.
//!
//! Supported: `matrix coordinate (pattern|real|integer) (general|symmetric)`
//! headers. Adjacency matrices are interpreted as graphs: symmetric (or
//! square general with mirrored entries) files become undirected graphs,
//! other general files become directed graphs. Diagonal entries are
//! self loops (dropped by default, matching the builder policy).

// Ingestion parses untrusted bytes: no slice index, no `as` conversion.
#![deny(clippy::indexing_slicing, clippy::as_conversions)]

use crate::builder::{DuplicatePolicy, GraphBuilder, SelfLoopPolicy};
use crate::cast;
use crate::csr::Csr;
use crate::error::GraphError;
use crate::io::MAX_TRUSTED_RESERVE;
use std::io::{BufRead, Write};

/// How a Matrix Market file's symmetry field maps onto graph direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MtxSymmetry {
    General,
    Symmetric,
}

/// Reads a graph from a Matrix Market *coordinate* stream.
///
/// `symmetric` files produce undirected graphs; `general` files produce
/// directed graphs. Entry values (for `real`/`integer` fields) become edge
/// weights; `pattern` files are unweighted. Non-square matrices are
/// rejected (a graph adjacency must be square).
///
/// A mutable reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed headers or entries.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Csr, GraphError> {
    let mut lines = reader.lines().enumerate();
    let mut last_line = 0usize;

    // Banner.
    let (banner_line, banner) = next_content_line(&mut lines, &mut last_line, true)?;
    let lower = banner.to_ascii_lowercase();
    let mut parts = lower.split_whitespace();
    if parts.next() != Some("%%matrixmarket") || parts.next() != Some("matrix") {
        return Err(GraphError::Parse {
            line: banner_line,
            message: "expected '%%MatrixMarket matrix …' banner".into(),
        });
    }
    if parts.next() != Some("coordinate") {
        return Err(GraphError::Parse {
            line: banner_line,
            message: "only coordinate (sparse) matrices are supported".into(),
        });
    }
    let field = parts.next().unwrap_or("");
    let weighted = match field {
        "pattern" => false,
        "real" | "integer" => true,
        other => {
            return Err(GraphError::Parse {
                line: banner_line,
                message: format!("unsupported field {other:?}"),
            })
        }
    };
    let symmetry = match parts.next().unwrap_or("") {
        "general" => MtxSymmetry::General,
        "symmetric" => MtxSymmetry::Symmetric,
        other => {
            return Err(GraphError::Parse {
                line: banner_line,
                message: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // Size line.
    let (size_line, size) = next_content_line(&mut lines, &mut last_line, false)?;
    let mut sp = size.split_whitespace();
    let rows: usize = parse_num(sp.next(), size_line, "row count")?;
    let cols: usize = parse_num(sp.next(), size_line, "column count")?;
    let nnz: usize = parse_num(sp.next(), size_line, "entry count")?;
    if rows != cols {
        return Err(GraphError::Parse {
            line: size_line,
            message: format!("adjacency matrix must be square, got {rows}x{cols}"),
        });
    }
    // Vertex ids are u32; a larger declared dimension would silently
    // truncate every index below.
    if cast::try_vertex_id(rows).is_none() {
        return Err(GraphError::Parse {
            line: size_line,
            message: format!("dimension {rows} exceeds the supported vertex id space (u32)"),
        });
    }

    let directed = symmetry == MtxSymmetry::General;
    // The declared nnz is untrusted until matched against actual entries;
    // cap the pre-allocation so a forged header cannot balloon memory.
    let mut b =
        if directed { GraphBuilder::directed(rows) } else { GraphBuilder::undirected(rows) }
            .self_loops(SelfLoopPolicy::Drop)
            .duplicates(DuplicatePolicy::MergeSum)
            .reserve(nnz.min(MAX_TRUSTED_RESERVE));

    let mut seen = 0usize;
    for (i, line) in lines {
        let line =
            line.map_err(|e| GraphError::Parse { line: i + 1, message: format!("io error: {e}") })?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut ep = t.split_whitespace();
        let r: usize = parse_num(ep.next(), i + 1, "row index")?;
        let c: usize = parse_num(ep.next(), i + 1, "column index")?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(GraphError::Parse {
                line: i + 1,
                message: format!("entry ({r},{c}) outside 1..={rows}"),
            });
        }
        seen += 1;
        if seen > nnz {
            return Err(GraphError::Parse {
                line: i + 1,
                message: format!("more entries than the declared {nnz}"),
            });
        }
        // In-range per the check above (r, c <= rows <= u32::MAX), but the
        // narrowing stays checked so a future refactor cannot truncate.
        let (u, v) = match (cast::try_vertex_id(r - 1), cast::try_vertex_id(c - 1)) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(GraphError::Parse {
                    line: i + 1,
                    message: format!("entry ({r},{c}) exceeds the vertex id space (u32)"),
                })
            }
        };
        if weighted {
            let tok = ep.next().ok_or_else(|| GraphError::Parse {
                line: i + 1,
                message: "missing value for weighted entry".into(),
            })?;
            let w: f64 = tok.parse().map_err(|_| GraphError::Parse {
                line: i + 1,
                message: format!("invalid numeric value {tok:?}"),
            })?;
            // "NaN"/"inf" parse as f64 — reject here so the error carries
            // the offending line instead of a builder error without one.
            if !w.is_finite() {
                return Err(GraphError::Parse {
                    line: i + 1,
                    message: format!("value {w} must be finite"),
                });
            }
            // Graph weights must be non-negative; matrices may carry signs
            // (e.g. Laplacians) — take magnitudes, the usual adjacency view.
            b = b.weighted_edge(u, v, w.abs());
        } else {
            b = b.edge(u, v);
        }
    }
    if seen != nnz {
        return Err(GraphError::Parse {
            line: size_line,
            message: format!("expected {nnz} entries, found {seen}"),
        });
    }
    b.build().map_err(|e| match e {
        GraphError::TooLarge { .. } => {
            GraphError::Parse { line: size_line, message: e.to_string() }
        }
        e => e,
    })
}

/// Writes a graph as Matrix Market coordinate data (`pattern` for
/// unweighted graphs, `real` for weighted; `symmetric` for undirected,
/// `general` for directed).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_matrix_market<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    let field = if graph.is_weighted() { "real" } else { "pattern" };
    let symmetry = if graph.is_directed() { "general" } else { "symmetric" };
    writeln!(writer, "%%MatrixMarket matrix coordinate {field} {symmetry}")?;
    writeln!(writer, "% written by reorderlab")?;
    let n = graph.num_vertices();
    writeln!(writer, "{n} {n} {}", graph.num_edges())?;
    for (u, v, w) in graph.edges() {
        // Symmetric files store the lower triangle: row >= column.
        let (r, c) = if graph.is_directed() { (u, v) } else { (u.max(v), u.min(v)) };
        if graph.is_weighted() {
            writeln!(writer, "{} {} {}", r + 1, c + 1, w)?;
        } else {
            writeln!(writer, "{} {}", r + 1, c + 1)?;
        }
    }
    Ok(())
}

type NumberedLines<'a, R> = &'a mut std::iter::Enumerate<std::io::Lines<R>>;

/// Pulls the next non-empty line; comments (`%…`) are skipped unless the
/// banner itself is requested. `last_line` tracks the highest 1-based line
/// number consumed so an unexpected EOF can report the line *after* the
/// last one read (line 1 for an empty file) instead of a bogus 0.
fn next_content_line<R: BufRead>(
    lines: NumberedLines<'_, R>,
    last_line: &mut usize,
    banner: bool,
) -> Result<(usize, String), GraphError> {
    for (i, line) in lines.by_ref() {
        *last_line = i + 1;
        let line =
            line.map_err(|e| GraphError::Parse { line: i + 1, message: format!("io error: {e}") })?;
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if banner {
            return Ok((i + 1, t.to_string()));
        }
        if t.starts_with('%') {
            continue;
        }
        return Ok((i + 1, t.to_string()));
    }
    Err(GraphError::Parse { line: *last_line + 1, message: "unexpected end of file".into() })
}

fn parse_num(tok: Option<&str>, line: usize, what: &str) -> Result<usize, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    tok.parse().map_err(|_| GraphError::Parse { line, message: format!("invalid {what} {tok:?}") })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn round_trip_undirected_pattern() {
        let g = GraphBuilder::undirected(5)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let h = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn round_trip_directed_weighted() {
        let g = GraphBuilder::directed(3)
            .weighted_edge(0, 1, 2.5)
            .weighted_edge(2, 0, 0.5)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let h = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(g, h);
        assert!(h.is_directed());
        assert_eq!(h.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn parses_reference_symmetric_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    % a triangle\n\
                    3 3 3\n\
                    2 1\n\
                    3 1\n\
                    3 2\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert!(!g.is_directed());
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn negative_values_become_magnitudes() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 1\n\
                    2 1 -4.0\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(4.0));
    }

    #[test]
    fn diagonal_entries_dropped() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    2 2 2\n\
                    1 1\n\
                    2 1\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_bad_banner() {
        let err = read_matrix_market("%%NotMatrixMarket\n1 1 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("banner"));
    }

    #[test]
    fn rejects_non_square() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 2 0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("square"));
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 2 entries"));
    }

    #[test]
    fn rejects_out_of_range_entry() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n3 1\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn rejects_unsupported_field() {
        let text = "%%MatrixMarket matrix coordinate complex symmetric\n2 2 0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_file_reports_line_one() {
        let err = read_matrix_market("".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "got {err:?}");
        assert!(err.to_string().contains("end of file"));
    }

    #[test]
    fn truncated_after_banner_reports_following_line() {
        let err =
            read_matrix_market("%%MatrixMarket matrix coordinate pattern symmetric\n".as_bytes())
                .unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "got {err:?}");
    }

    #[test]
    fn handles_crlf_and_trailing_whitespace() {
        let text =
            "%%MatrixMarket matrix coordinate pattern symmetric\r\n3 3 2  \r\n2 1 \r\n3 2\t\r\n";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn huge_declared_nnz_rejected_without_preallocation() {
        // Declares ~10^18 entries but provides one; must fail on the count
        // mismatch, not abort on allocation.
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 999999999999999999\n\
                    2 1\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 999999999999999999 entries"));
    }

    #[test]
    fn excess_entries_fail_at_the_offending_line() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2 1\n3 1\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 4, .. }), "got {err:?}");
    }

    #[test]
    fn rejects_dimension_beyond_u32() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n5000000000 5000000000 0\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("vertex id space"), "got {err}");
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_non_finite_value_with_line() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 NaN\n";
        let err = read_matrix_market(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "got {err:?}");
        assert!(err.to_string().contains("finite"));
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 inf\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn every_parse_failure_carries_a_positive_line() {
        for text in [
            "",
            "%%MatrixMarket matrix coordinate pattern symmetric\n",
            "%%NotMatrixMarket\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\nx y\n",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1\n",
        ] {
            let err = read_matrix_market(text.as_bytes()).unwrap_err();
            match err {
                GraphError::Parse { line, .. } => assert!(line >= 1, "line 0 for {text:?}"),
                other => panic!("expected Parse, got {other:?} for {text:?}"),
            }
        }
    }
}

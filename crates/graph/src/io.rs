//! Text I/O for graphs: whitespace-separated edge lists (the format of the
//! KONECT collection the paper draws from) and the METIS/DIMACS10 adjacency
//! format.

// Ingestion parses untrusted bytes: no slice index, no `as` conversion.
#![deny(clippy::indexing_slicing, clippy::as_conversions)]

use crate::builder::{DuplicatePolicy, GraphBuilder, SelfLoopPolicy};
use crate::cast;
use crate::csr::Csr;
use crate::error::GraphError;
use std::io::{BufRead, Write};

/// Cap on pre-allocation driven by *declared* sizes in file headers.
///
/// A forged header (`nnz` or `m` in the trillions) must not force a huge
/// up-front allocation before a single entry has been read; genuine large
/// inputs simply grow past the cap organically.
pub(crate) const MAX_TRUSTED_RESERVE: usize = 1 << 20;

/// Reads an undirected graph from an edge-list text stream.
///
/// Each non-comment line is `u v` or `u v w` with 0-based vertex ids. Lines
/// starting with `#` or `%` are comments. The vertex count is
/// `1 + max(endpoint)`. Duplicate edges are merged (weights summed) and self
/// loops dropped, matching how the paper's simple input graphs are treated.
///
/// A mutable reference can be passed for `reader`.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed lines and propagates builder
/// validation errors.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Csr, GraphError> {
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut max_vertex: i64 = -1;
    // The line that set `max_vertex`, which sizes the graph.
    let mut max_line = 0;
    let mut weighted = false;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| GraphError::Parse {
            line: lineno + 1,
            message: format!("io error: {e}"),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: u32 = parse_field(parts.next(), lineno + 1, "source vertex")?;
        let v: u32 = parse_field(parts.next(), lineno + 1, "target vertex")?;
        let w: f64 = match parts.next() {
            Some(tok) => {
                weighted = true;
                let w: f64 = tok.parse().map_err(|_| GraphError::Parse {
                    line: lineno + 1,
                    message: format!("invalid weight {tok:?}"),
                })?;
                // Validate here rather than in the builder so the error
                // carries the offending line ("NaN" and "inf" parse as f64).
                if !w.is_finite() || w < 0.0 {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        message: format!("weight {w} must be finite and non-negative"),
                    });
                }
                w
            }
            None => 1.0,
        };
        if i64::from(u.max(v)) > max_vertex {
            max_vertex = i64::from(u.max(v));
            max_line = lineno + 1;
        }
        edges.push((u, v, w));
    }
    // max_vertex is -1 (empty input) or a u32 id, so the +1 always fits a
    // usize; the checked conversion keeps that reasoning local.
    let n = cast::try_usize_from_i64(max_vertex + 1).unwrap_or(0);
    let mut b = GraphBuilder::undirected(n)
        .self_loops(SelfLoopPolicy::Drop)
        .duplicates(DuplicatePolicy::MergeSum);
    if weighted {
        b = b.weighted_edges(edges);
    } else {
        b = b.edges(edges.into_iter().map(|(u, v, _)| (u, v)));
    }
    b.build().map_err(|e| match e {
        GraphError::TooLarge { .. } => GraphError::Parse { line: max_line, message: e.to_string() },
        e => e,
    })
}

fn parse_field(tok: Option<&str>, line: usize, what: &str) -> Result<u32, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    tok.parse().map_err(|_| GraphError::Parse { line, message: format!("invalid {what} {tok:?}") })
}

/// Writes a graph as an edge list (`u v` per line, `u v w` when weighted).
///
/// A mutable reference can be passed for `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_edge_list<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    for (u, v, w) in graph.edges() {
        if graph.is_weighted() {
            writeln!(writer, "{u} {v} {w}")?;
        } else {
            writeln!(writer, "{u} {v}")?;
        }
    }
    Ok(())
}

/// Reads an undirected graph in METIS format: a header line `n m [fmt]`
/// followed by `n` adjacency lines with **1-based** neighbor ids.
///
/// Only unweighted METIS files (`fmt` absent or `0`/`00`/`000`) are
/// supported, which covers the DIMACS10 instances the paper uses.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] for malformed content.
pub fn read_metis<R: BufRead>(reader: R) -> Result<Csr, GraphError> {
    let mut lines = reader.lines().enumerate();
    // Header.
    let (header_line, header) = loop {
        match lines.next() {
            Some((i, Ok(l))) => {
                let t = l.trim().to_string();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i + 1, t);
                }
            }
            Some((i, Err(e))) => {
                return Err(GraphError::Parse { line: i + 1, message: format!("io error: {e}") })
            }
            None => return Err(GraphError::Parse { line: 1, message: "missing header".into() }),
        }
    };
    let mut hp = header.split_whitespace();
    let n: usize = cast::usize_from_u32(parse_field(hp.next(), header_line, "vertex count")?);
    let m: usize = cast::usize_from_u32(parse_field(hp.next(), header_line, "edge count")?);
    if let Some(fmt) = hp.next() {
        if fmt.chars().any(|c| c != '0') {
            return Err(GraphError::Parse {
                line: header_line,
                message: format!("unsupported METIS format flags {fmt:?}"),
            });
        }
    }

    let mut b = GraphBuilder::undirected(n).reserve(m.min(MAX_TRUSTED_RESERVE));
    let mut vertex = 0u32;
    for (i, line) in lines {
        let line =
            line.map_err(|e| GraphError::Parse { line: i + 1, message: format!("io error: {e}") })?;
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if cast::usize_from_u32(vertex) >= n {
            if t.is_empty() {
                continue;
            }
            return Err(GraphError::Parse {
                line: i + 1,
                message: "more adjacency lines than vertices".into(),
            });
        }
        for tok in t.split_whitespace() {
            let nbr: u32 = tok.parse().map_err(|_| GraphError::Parse {
                line: i + 1,
                message: format!("invalid neighbor {tok:?}"),
            })?;
            if nbr == 0 || cast::usize_from_u32(nbr) > n {
                return Err(GraphError::Parse {
                    line: i + 1,
                    message: format!("neighbor {nbr} out of 1..={n}"),
                });
            }
            // Add each undirected edge once (from its lower endpoint).
            if nbr > vertex {
                b = b.edge(vertex, nbr - 1);
            }
        }
        vertex += 1;
    }
    if cast::usize_from_u32(vertex) < n {
        return Err(GraphError::Parse {
            line: header_line,
            message: format!("expected {n} adjacency lines, found {vertex}"),
        });
    }
    b.build()
}

/// Writes a graph in unweighted METIS format (1-based adjacency lines).
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_metis<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "{} {}", graph.num_vertices(), graph.num_edges())?;
    for v in graph.vertices() {
        let line: Vec<String> = graph.neighbors(v).iter().map(|&u| (u + 1).to_string()).collect();
        writeln!(writer, "{}", line.join(" "))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn edge_list_round_trip() {
        let g = GraphBuilder::undirected(4).edges([(0, 1), (1, 2), (2, 3)]).build().unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_weighted_round_trip() {
        let g = GraphBuilder::undirected(3)
            .weighted_edge(0, 1, 2.5)
            .weighted_edge(1, 2, 1.5)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(h.edge_weight(0, 1), Some(2.5));
        assert!(h.is_weighted());
    }

    #[test]
    fn edge_list_skips_comments_and_merges() {
        let text = "# comment\n% other comment\n0 1\n1 0\n\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_reports_line_numbers() {
        let text = "0 1\nbogus 2\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn edge_list_missing_target() {
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn metis_round_trip() {
        let g =
            GraphBuilder::undirected(4).edges([(0, 1), (1, 2), (2, 3), (0, 3)]).build().unwrap();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let h = read_metis(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn metis_parses_reference_example() {
        // The 7-vertex example from the METIS manual (unweighted part).
        let text = "7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 11);
        assert!(g.has_edge(0, 4));
        assert!(g.has_edge(3, 6));
    }

    #[test]
    fn metis_rejects_weighted_format() {
        let err = read_metis("3 2 011\n2 3\n1\n1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn metis_rejects_bad_neighbor() {
        let err = read_metis("2 1\n3\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of"));
    }

    #[test]
    fn metis_rejects_short_file() {
        let err = read_metis("3 1\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 3 adjacency lines"));
    }

    #[test]
    fn metis_isolated_vertex_blank_line() {
        let g = read_metis("3 1\n2\n1\n\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edge_list_handles_crlf() {
        let text = "0 1\r\n1 2 2.5\r\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(2.5));
    }

    #[test]
    fn edge_list_rejects_nan_weight_with_line() {
        let err = read_edge_list("0 1\n1 2 NaN\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "got {err:?}");
        assert!(err.to_string().contains("finite"));
    }

    #[test]
    fn edge_list_rejects_negative_and_infinite_weights() {
        for text in ["0 1 -2.0\n", "0 1 inf\n", "0 1 -inf\n"] {
            let err = read_edge_list(text.as_bytes()).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 1, .. }), "got {err:?} for {text:?}");
        }
    }

    #[test]
    fn edge_list_rejects_overflowing_id_with_line() {
        // 5 × 10^9 does not fit a u32 vertex id.
        let err = read_edge_list("0 1\n5000000000 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "got {err:?}");
    }

    #[test]
    fn empty_edge_list_is_the_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        let g = read_edge_list("# only comments\n\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn metis_huge_declared_edge_count_is_capped_not_allocated() {
        // 4 × 10^9 declared edges with one real one: the mismatch must be
        // reported without attempting the full reservation.
        let err = read_metis("2 4000000000\n2\n1\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("more adjacency lines"), "got {err}");
        let g = read_metis("2 4000000000\n2\n1\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn metis_missing_header_reports_line_one() {
        let err = read_metis("".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "got {err:?}");
    }
}

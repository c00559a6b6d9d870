//! Graph resolution: where an operation's input graph comes from.
//!
//! [`GraphSource`] names a graph in one of three ways — a file path, a
//! named generator instance, or an entry of a preloaded corpus — and a
//! [`ResolveGraph`] implementation turns the name into an in-memory
//! [`Csr`]. The filesystem resolver here serves the CLI; the serve daemon
//! supplies its own corpus-backed resolver so graphs parse once per
//! process, not once per request. A resolved graph carries its fact cell
//! ([`GraphFacts`]): the corpus resolver hands out the one it keeps beside
//! each graph, so what one request computed about a graph the next reads;
//! this resolver's cells are new with every request.

use crate::error::OpError;
use crate::facts::GraphFacts;
use reorderlab_datasets::by_name;
use reorderlab_graph::{
    read_binary_csr, read_compressed_csr, read_edge_list, read_matrix_market, read_metis,
    write_binary_csr, write_compressed_csr, write_edge_list, write_matrix_market, write_metis,
    CompressedCsr, Csr,
};
use reorderlab_trace::Json;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::sync::Arc;

/// Where an operation's input graph comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// A file on disk; the reader is selected by extension (`.mtx` Matrix
    /// Market, `.graph`/`.metis` METIS, `.csrbin` checksummed binary CSR,
    /// `.csrz` compressed CSR, `.el` edge list). Unrecognized extensions
    /// are a typed usage error, never a silent edge-list fallthrough.
    Path(String),
    /// A named instance of the generated evaluation suite
    /// (`reorderlab_datasets::by_name`).
    Instance(String),
    /// A named entry of a preloaded corpus (serve daemon only; the
    /// filesystem resolver rejects it).
    Corpus(String),
}

impl GraphSource {
    /// The display identity used in reports and manifests: the path,
    /// instance name, or corpus entry name.
    pub fn id(&self) -> &str {
        match self {
            GraphSource::Path(s) | GraphSource::Instance(s) | GraphSource::Corpus(s) => s,
        }
    }

    /// Wire form: `{"path": …}` / `{"instance": …}` / `{"corpus": …}`.
    pub fn to_json(&self) -> Json {
        let (key, value) = match self {
            GraphSource::Path(s) => ("path", s),
            GraphSource::Instance(s) => ("instance", s),
            GraphSource::Corpus(s) => ("corpus", s),
        };
        Json::Obj(vec![(key.to_string(), Json::Str(value.clone()))])
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`OpError::Parse`] unless the value is an object with exactly one of
    /// the three recognized keys mapping to a string.
    pub fn from_json(v: &Json) -> Result<GraphSource, OpError> {
        let take = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        match (take("path"), take("instance"), take("corpus")) {
            (Some(p), None, None) => Ok(GraphSource::Path(p)),
            (None, Some(i), None) => Ok(GraphSource::Instance(i)),
            (None, None, Some(c)) => Ok(GraphSource::Corpus(c)),
            _ => Err(OpError::Parse(
                "graph source must be exactly one of {\"path\"|\"instance\"|\"corpus\": name}"
                    .into(),
            )),
        }
    }
}

/// A resolved graph plus the identity metadata operations report with.
#[derive(Debug, Clone)]
pub struct ResolvedGraph {
    /// The graph itself, shared so resolvers can hand out corpus entries
    /// without copying.
    pub graph: Arc<Csr>,
    /// Display identity (path, instance, or corpus entry name).
    pub id: String,
    /// Content digest when the resolver knows it (corpus entries compute it
    /// at load time); `None` means "compute on demand if needed".
    pub digest: Option<u64>,
    /// The graph's fact cell. A resolver that keeps the graph resident
    /// hands out the cell it keeps beside it, so the facts outlive the
    /// request; any other resolver hands out an empty one.
    pub facts: Arc<GraphFacts>,
}

impl ResolvedGraph {
    /// A graph resolved for this request only: its fact cell starts empty
    /// and is dropped with it.
    pub fn fresh(graph: Csr, id: &str, digest: Option<u64>) -> ResolvedGraph {
        ResolvedGraph { graph: Arc::new(graph), id: id.to_string(), digest, facts: Arc::default() }
    }
}

/// Turns a [`GraphSource`] into an in-memory graph.
pub trait ResolveGraph {
    /// Resolves `source`.
    ///
    /// # Errors
    ///
    /// [`OpError`] describing why the source cannot be resolved (missing
    /// file, unknown instance, unsupported source kind, parse failure).
    fn resolve(&self, source: &GraphSource) -> Result<ResolvedGraph, OpError>;
}

/// The CLI's resolver: paths from the filesystem, instances from the
/// generator registry, no corpus.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsResolver;

impl ResolveGraph for FsResolver {
    fn resolve(&self, source: &GraphSource) -> Result<ResolvedGraph, OpError> {
        match source {
            GraphSource::Path(path) => Ok(ResolvedGraph::fresh(read_graph_auto(path)?, path, None)),
            GraphSource::Instance(name) => {
                let spec = by_name(name).ok_or_else(|| {
                    OpError::Usage(format!("unknown instance {name:?}; see `reorderlab list`"))
                })?;
                Ok(ResolvedGraph::fresh(spec.generate(), name, None))
            }
            GraphSource::Corpus(name) => Err(OpError::Usage(format!(
                "corpus entry {name:?} requires a serving daemon; use --input or --instance"
            ))),
        }
    }
}

/// The on-disk graph format a path's extension selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiskFormat {
    /// `.mtx` — Matrix Market coordinate.
    MatrixMarket,
    /// `.graph` / `.metis` — METIS adjacency.
    Metis,
    /// `.csrbin` — checksummed flat binary CSR.
    BinCsr,
    /// `.csrz` — checksummed delta/varint compressed CSR.
    CompressedCsr,
    /// `.el` — whitespace edge list.
    EdgeList,
}

/// Maps a path to its [`DiskFormat`].
///
/// # Errors
///
/// [`OpError::Usage`] for an extension outside the accepted set. An
/// unrecognized extension used to fall through to the edge-list reader,
/// which turned typos like `g.mxt` into baffling parse errors (or, worse,
/// silently mis-ingested data); rejecting up front names every accepted
/// extension instead.
fn disk_format(path: &str) -> Result<DiskFormat, OpError> {
    if path.ends_with(".mtx") {
        Ok(DiskFormat::MatrixMarket)
    } else if path.ends_with(".graph") || path.ends_with(".metis") {
        Ok(DiskFormat::Metis)
    } else if path.ends_with(".csrbin") {
        Ok(DiskFormat::BinCsr)
    } else if path.ends_with(".csrz") {
        Ok(DiskFormat::CompressedCsr)
    } else if path.ends_with(".el") {
        Ok(DiskFormat::EdgeList)
    } else {
        Err(OpError::Usage(format!(
            "unrecognized graph extension in {path:?}; accepted: .mtx (Matrix Market), \
             .graph/.metis (METIS), .csrbin (binary CSR), .csrz (compressed CSR), \
             .el (edge list)"
        )))
    }
}

/// Reads a graph from `path`, selecting the format by extension: `.mtx`
/// Matrix Market, `.graph`/`.metis` METIS, `.csrbin` checksummed binary
/// CSR, `.csrz` checksummed compressed CSR (decoded to flat form), `.el`
/// whitespace edge list.
///
/// # Errors
///
/// [`OpError::Usage`] for an unrecognized extension, [`OpError::Io`] when
/// the file cannot be opened, [`OpError::Parse`] when it opens but is
/// rejected by the selected reader.
pub fn read_graph_auto(path: &str) -> Result<Csr, OpError> {
    let format = disk_format(path)?;
    let file = File::open(path).map_err(|e| OpError::Io(format!("cannot open {path}: {e}")))?;
    let mut reader = BufReader::new(file);
    let parsed = match format {
        DiskFormat::BinCsr => read_binary_csr(&mut reader).map_err(|e| e.to_string()),
        DiskFormat::CompressedCsr => {
            read_compressed_csr(&mut reader).map(|cz| cz.decode()).map_err(|e| e.to_string())
        }
        DiskFormat::MatrixMarket => read_matrix_market(reader).map_err(|e| e.to_string()),
        DiskFormat::Metis => read_metis(reader).map_err(|e| e.to_string()),
        DiskFormat::EdgeList => read_edge_list(reader).map_err(|e| e.to_string()),
    };
    parsed.map_err(|e| OpError::Parse(format!("failed to parse {path}: {e}")))
}

/// Writes `graph` to `path`, selecting the format by extension (same
/// dispatch as [`read_graph_auto`]). The buffered writer is flushed
/// explicitly: a drop would swallow the last write's error, so a full disk
/// would read as success.
///
/// # Errors
///
/// [`OpError::Usage`] for an unrecognized extension, [`OpError::Io`] when
/// the file cannot be created, written or flushed.
pub fn write_graph_auto(graph: &Csr, path: &str) -> Result<(), OpError> {
    let format = disk_format(path)?;
    let file = File::create(path).map_err(|e| OpError::Io(format!("cannot create {path}: {e}")))?;
    let mut writer = BufWriter::new(file);
    let written = match format {
        DiskFormat::BinCsr => write_binary_csr(graph, &mut writer).map_err(|e| e.to_string()),
        DiskFormat::CompressedCsr => CompressedCsr::from_csr(graph)
            .map_err(|e| e.to_string())
            .and_then(|cz| write_compressed_csr(&cz, &mut writer).map_err(|e| e.to_string())),
        DiskFormat::MatrixMarket => {
            write_matrix_market(graph, &mut writer).map_err(|e| e.to_string())
        }
        DiskFormat::Metis => write_metis(graph, &mut writer).map_err(|e| e.to_string()),
        DiskFormat::EdgeList => write_edge_list(graph, &mut writer).map_err(|e| e.to_string()),
    };
    written
        .and_then(|()| writer.flush().map_err(|e| e.to_string()))
        .map_err(|e| OpError::Io(format!("failed to write {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn source_json_round_trips() {
        for src in [
            GraphSource::Path("g.mtx".into()),
            GraphSource::Instance("euroroad".into()),
            GraphSource::Corpus("orkut".into()),
        ] {
            let j = src.to_json();
            assert_eq!(GraphSource::from_json(&j).unwrap(), src);
        }
        assert!(GraphSource::from_json(&Json::Obj(vec![])).is_err());
        assert!(GraphSource::from_json(&Json::Str("x".into())).is_err());
    }

    #[test]
    fn fs_resolver_rejects_corpus_sources() {
        let err = FsResolver.resolve(&GraphSource::Corpus("x".into())).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("daemon"));
    }

    #[test]
    fn extension_dispatch_round_trips_every_format() {
        let g = GraphBuilder::undirected(4).edges([(0u32, 1u32), (1, 2), (2, 3)]).build().unwrap();
        let dir = std::env::temp_dir();
        for name in ["ops_rt.mtx", "ops_rt.graph", "ops_rt.el", "ops_rt.csrbin", "ops_rt.csrz"] {
            let path = dir.join(format!("{}_{name}", std::process::id()));
            let path = path.to_string_lossy().to_string();
            write_graph_auto(&g, &path).unwrap();
            let h = read_graph_auto(&path).unwrap();
            assert_eq!(h.num_vertices(), 4, "{name}");
            assert_eq!(h.num_edges(), 3, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn unknown_extension_is_a_typed_usage_error() {
        // Strict dispatch: a typo'd extension must not fall through to the
        // edge-list reader — even when the file exists and would parse.
        let path = std::env::temp_dir().join(format!("ops_typo_{}.mxt", std::process::id()));
        std::fs::write(&path, "0 1\n1 2\n").unwrap();
        let path = path.to_string_lossy().to_string();
        let err = read_graph_auto(&path).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        for listed in [".mtx", ".graph", ".metis", ".csrbin", ".csrz", ".el"] {
            assert!(err.to_string().contains(listed), "{err} should list {listed}");
        }
        let g = GraphBuilder::undirected(2).edges([(0u32, 1u32)]).build().unwrap();
        let err = write_graph_auto(&g, &path).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_disk_is_an_io_error_not_success() {
        // `/dev/full` accepts the open and fails every write with ENOSPC. A
        // graph this small fits the writer's buffer, so only the final flush
        // can see the error.
        let path = std::env::temp_dir().join(format!("ops_full_{}.csrbin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::os::unix::fs::symlink("/dev/full", &path).unwrap();
        let g = GraphBuilder::undirected(4).edges([(0u32, 1u32), (1, 2), (2, 3)]).build().unwrap();
        let result = write_graph_auto(&g, &path.to_string_lossy());
        let _ = std::fs::remove_file(&path);
        assert!(matches!(result, Err(OpError::Io(_))), "{result:?}");
    }

    #[test]
    fn missing_file_is_io_and_garbage_is_parse() {
        assert_eq!(read_graph_auto("/nonexistent/g.mtx").unwrap_err().exit_code(), 1);
        let path = std::env::temp_dir().join(format!("ops_bad_{}.mtx", std::process::id()));
        std::fs::write(&path, "not a matrix market file\n").unwrap();
        let err = read_graph_auto(&path.to_string_lossy()).unwrap_err();
        assert!(matches!(err, OpError::Parse(_)), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }
}

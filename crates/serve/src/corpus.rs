//! The daemon's preloaded graph corpus.
//!
//! A corpus is a directory of checksummed graph containers: flat binary
//! CSR files (`*.csrbin`) and delta/varint compressed CSR files
//! (`*.csrz`), read and written through `reorderlab_ops`'
//! extension-dispatched `read_graph_auto`/`write_graph_auto`. The daemon
//! loads every entry once at startup — parse cost is paid per
//! process, not per request — decodes compressed entries to flat form for
//! serving, and remembers each graph's content digest, which keys the
//! permutation cache. The digest is always computed over the decoded
//! graph, so a `.csrz` corpus entry shares cache entries with the same
//! graph served from `.csrbin` or generated on demand.
//!
//! A corpus graph never changes while the daemon runs, so each entry also
//! owns the graph's fact cell (`reorderlab_ops::GraphFacts`): its
//! natural-order gap measures, its `stats` and its natural-layout memsim
//! replays, each computed by the first request that reads it and kept for
//! as long as the entry is. A generator instance is regenerated per
//! request and its facts go with it.

use reorderlab_datasets::by_name;
use reorderlab_graph::{csr_digest, Csr, BINARY_CSR_EXTENSION, COMPRESSED_CSR_EXTENSION};
use reorderlab_ops::{
    read_graph_auto, write_graph_auto, GraphFacts, GraphSource, OpError, ResolveGraph,
    ResolvedGraph,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// One loaded corpus graph.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The graph, shared with every request that names it.
    pub graph: Arc<Csr>,
    /// FNV-1a content digest (`reorderlab_graph::csr_digest`): the
    /// graph half of every permutation-cache key.
    pub digest: u64,
    /// What requests have computed about the graph so far, handed to each
    /// of them by [`CorpusResolver`].
    facts: Arc<GraphFacts>,
}

/// A named set of preloaded graphs.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: BTreeMap<String, CorpusEntry>,
}

impl Corpus {
    /// An empty corpus (requests can still name generator instances).
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Loads every `*.csrbin` and `*.csrz` file under `dir`; the entry
    /// name is the file stem. Compressed entries are checksum-validated
    /// and decoded to flat form at load time, so serving cost is identical
    /// across container formats.
    ///
    /// # Errors
    ///
    /// [`OpError::Io`] when the directory or an entry is unreadable,
    /// [`OpError::Parse`] when any entry fails its checksum or structural
    /// validation (a corrupt corpus never half-loads),
    /// [`OpError::Usage`] when two files (e.g. `g.csrbin` and `g.csrz`)
    /// claim the same entry name.
    pub fn load_dir(dir: &Path) -> Result<Corpus, OpError> {
        let mut corpus = Corpus::new();
        let listing = std::fs::read_dir(dir)
            .map_err(|e| OpError::Io(format!("cannot read corpus dir {}: {e}", dir.display())))?;
        // Sort so load order (and thus which duplicate is diagnosed) never
        // depends on directory enumeration order.
        let mut paths = Vec::new();
        for entry in listing {
            let entry =
                entry.map_err(|e| OpError::Io(format!("cannot list {}: {e}", dir.display())))?;
            paths.push(entry.path());
        }
        paths.sort();
        for path in paths {
            let is_container = path
                .extension()
                .is_some_and(|x| x == BINARY_CSR_EXTENSION || x == COMPRESSED_CSR_EXTENSION);
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()).filter(|_| is_container)
            else {
                continue;
            };
            if corpus.get(stem).is_some() {
                return Err(OpError::Usage(format!(
                    "duplicate corpus entry {stem:?}: {} collides with an earlier container",
                    path.display()
                )));
            }
            // The reader dispatches on the extension and types an
            // unopenable file `Io`, a rejected one `Parse`.
            corpus.insert(stem, read_graph_auto(utf8(&path)?)?);
        }
        Ok(corpus)
    }

    /// Adds a graph under `name`, computing its digest.
    pub fn insert(&mut self, name: &str, graph: Csr) {
        let digest = csr_digest(&graph);
        let entry = CorpusEntry { graph: Arc::new(graph), digest, facts: Arc::default() };
        self.entries.insert(name.to_string(), entry);
    }

    /// Looks up an entry.
    pub fn get(&self, name: &str) -> Option<&CorpusEntry> {
        self.entries.get(name)
    }

    /// Entry names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `path` as the `&str` the `reorderlab_ops` readers and writers take.
fn utf8(path: &Path) -> Result<&str, OpError> {
    path.to_str()
        .ok_or_else(|| OpError::Io(format!("corpus path {} is not valid UTF-8", path.display())))
}

/// Generates the named suite instances and writes them into `dir` as
/// corpus entries in the container `extension` names
/// ([`BINARY_CSR_EXTENSION`] or [`COMPRESSED_CSR_EXTENSION`]), returning
/// `(name, digest)` per entry. Digests are computed over the uncompressed
/// graph, so a compressed corpus shares permutation-cache keys with a flat
/// one.
///
/// # Errors
///
/// [`OpError::Usage`] for an unknown instance name or an extension that is
/// not a graph format, [`OpError::Io`] when a file cannot be written.
pub fn prepare_corpus(
    dir: &Path,
    instances: &[String],
    extension: &str,
) -> Result<Vec<(String, u64)>, OpError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| OpError::Io(format!("cannot create corpus dir {}: {e}", dir.display())))?;
    let mut out = Vec::with_capacity(instances.len());
    for name in instances {
        let spec = by_name(name).ok_or_else(|| {
            OpError::Usage(format!("unknown instance {name:?}; see `reorderlab list`"))
        })?;
        let g = spec.generate();
        write_graph_auto(&g, utf8(&dir.join(format!("{name}.{extension}")))?)?;
        out.push((name.clone(), csr_digest(&g)));
    }
    Ok(out)
}

/// The daemon's resolver: corpus entries from memory, generator instances
/// on demand (with digests, so both are cacheable), client file paths
/// rejected — the daemon never reads caller-named files.
#[derive(Debug, Clone)]
pub struct CorpusResolver {
    corpus: Arc<Corpus>,
}

impl CorpusResolver {
    /// Wraps a loaded corpus.
    pub fn new(corpus: Arc<Corpus>) -> CorpusResolver {
        CorpusResolver { corpus }
    }
}

impl ResolveGraph for CorpusResolver {
    fn resolve(&self, source: &GraphSource) -> Result<ResolvedGraph, OpError> {
        match source {
            GraphSource::Corpus(name) => {
                let entry = self.corpus.get(name).ok_or_else(|| {
                    OpError::Usage(format!(
                        "unknown corpus entry {name:?}; loaded: {}",
                        self.corpus.names().join(", ")
                    ))
                })?;
                Ok(ResolvedGraph {
                    graph: Arc::clone(&entry.graph),
                    id: name.clone(),
                    digest: Some(entry.digest),
                    facts: Arc::clone(&entry.facts),
                })
            }
            GraphSource::Instance(name) => {
                let spec = by_name(name).ok_or_else(|| {
                    OpError::Usage(format!("unknown instance {name:?}; see `reorderlab list`"))
                })?;
                let g = spec.generate();
                let digest = csr_digest(&g);
                Ok(ResolvedGraph::fresh(g, name, Some(digest)))
            }
            GraphSource::Path(path) => Err(OpError::Usage(format!(
                "the daemon does not read client paths ({path:?}); use a corpus or instance source"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("serve_corpus_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn prepare_then_load_round_trips_digests() {
        let dir = tmp_dir("rt");
        let made =
            prepare_corpus(&dir, &["euroroad".into(), "rovira".into()], BINARY_CSR_EXTENSION)
                .unwrap();
        assert_eq!(made.len(), 2);
        let corpus = Corpus::load_dir(&dir).unwrap();
        assert_eq!(corpus.names(), vec!["euroroad", "rovira"]);
        for (name, digest) in &made {
            assert_eq!(corpus.get(name).unwrap().digest, *digest, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compressed_corpus_round_trips_with_identical_digests() {
        let dir = tmp_dir("csrz");
        let flat = prepare_corpus(&dir, &["euroroad".into()], BINARY_CSR_EXTENSION).unwrap();
        let zdir = tmp_dir("csrz2");
        let packed = prepare_corpus(&zdir, &["euroroad".into()], COMPRESSED_CSR_EXTENSION).unwrap();
        // Same graph, same digest — container format is invisible to the
        // permutation-cache key.
        assert_eq!(flat, packed);
        let corpus = Corpus::load_dir(&zdir).unwrap();
        assert_eq!(corpus.names(), vec!["euroroad"]);
        let entry = corpus.get("euroroad").unwrap();
        assert_eq!(entry.digest, packed[0].1);
        assert_eq!(entry.graph.num_vertices(), 1190);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&zdir);
    }

    #[test]
    fn duplicate_entry_names_are_rejected() {
        let dir = tmp_dir("dup");
        prepare_corpus(&dir, &["euroroad".into()], BINARY_CSR_EXTENSION).unwrap();
        prepare_corpus(&dir, &["euroroad".into()], COMPRESSED_CSR_EXTENSION).unwrap();
        let err = Corpus::load_dir(&dir).unwrap_err();
        assert!(matches!(err, OpError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("duplicate"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_compressed_entries_fail_to_load_with_typed_errors() {
        let dir = tmp_dir("badz");
        prepare_corpus(&dir, &["euroroad".into()], COMPRESSED_CSR_EXTENSION).unwrap();
        let path = dir.join("euroroad.csrz");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Corpus::load_dir(&dir).unwrap_err();
        assert!(matches!(err, OpError::Parse(_)), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_fail_to_load_with_typed_errors() {
        let dir = tmp_dir("bad");
        prepare_corpus(&dir, &["euroroad".into()], BINARY_CSR_EXTENSION).unwrap();
        let path = dir.join("euroroad.csrbin");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Corpus::load_dir(&dir).unwrap_err();
        assert!(matches!(err, OpError::Parse(_)), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolver_rules() {
        let mut corpus = Corpus::new();
        corpus.insert("tiny", reorderlab_datasets::by_name("euroroad").unwrap().generate());
        let r = CorpusResolver::new(Arc::new(corpus));
        let hit = r.resolve(&GraphSource::Corpus("tiny".into())).unwrap();
        assert!(hit.digest.is_some());
        assert_eq!(hit.id, "tiny");
        let inst = r.resolve(&GraphSource::Instance("euroroad".into())).unwrap();
        // Same generated content → same digest: instance and corpus
        // requests share cache entries.
        assert_eq!(inst.digest, hit.digest);
        assert!(r.resolve(&GraphSource::Corpus("nope".into())).is_err());
        assert!(r.resolve(&GraphSource::Path("/etc/passwd".into())).is_err());
    }
}

//! The versioned JSON **run manifest**: a machine-readable record of one
//! pipeline run — what ran, on which graph, with which parameters, at what
//! per-phase cost, and what it measured.
//!
//! ## Schema (version 1)
//!
//! ```json
//! {
//!   "manifest_version": 1,
//!   "tool": "reorderlab",
//!   "command": "measure",
//!   "graph": {"id": "euroroad", "vertices": 1190, "edges": 1305},
//!   "scheme": {"name": "RCM", "spec": "rcm"},
//!   "seed": 42,
//!   "threads": 2,
//!   "phases": [{"name": "reorder/RCM", "wall_s": 0.0021, "count": 1}],
//!   "counters": {"graph/vertices": 1190},
//!   "series": {"louvain/modularity": [0.31, 0.44]},
//!   "measures": {"avg_gap": 187.2, "bandwidth": 1021},
//!   "notes": {"kernel": "flat"}
//! }
//! ```
//!
//! Every key in [`REQUIRED_KEYS`] must be present; `scheme` and `notes` are
//! optional. **Versioning policy:** adding keys is backward compatible and
//! does not bump the version; removing or re-typing a key bumps
//! [`MANIFEST_VERSION`], and parsers reject any version they do not know.

use crate::json::{Json, JsonError};
use crate::recorder::RunRecorder;
use std::fmt;
use std::io::Write;

/// Current manifest schema version.
pub(crate) const MANIFEST_VERSION: u64 = 1;

/// Tool identifier stamped into every manifest.
pub(crate) const TOOL: &str = "reorderlab";

/// Top-level keys every valid manifest must carry.
pub(crate) const REQUIRED_KEYS: &[&str] = &[
    "manifest_version",
    "tool",
    "command",
    "graph",
    "seed",
    "threads",
    "phases",
    "counters",
    "series",
    "measures",
];

/// Identity and size of the input graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphInfo {
    /// Instance name or input path.
    pub id: String,
    /// Number of vertices.
    pub vertices: u64,
    /// Number of (logical) edges.
    pub edges: u64,
}

/// The scheme that ran, as both display name and round-trippable spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeInfo {
    /// Display name (`"RCM"`, `"Grappolo-RCM"`, …).
    pub name: String,
    /// Canonical parse-able spec (`"rcm"`, `"slashburn:k_frac=0.005"`, …)
    /// including every parameter.
    pub spec: String,
}

/// Wall time of one (aggregated) pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Span path, `"outer/inner"`.
    pub name: String,
    /// Total wall seconds.
    pub wall_s: f64,
    /// Number of times the span ran.
    pub count: u64,
}

/// One run's machine-readable record. See the module docs for the JSON
/// schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Which pipeline produced this record (`"measure"`, `"reorder"`, …).
    pub command: String,
    /// Input graph identity.
    pub graph: GraphInfo,
    /// Scheme that ran, if the command is scheme-bound.
    pub scheme: Option<SchemeInfo>,
    /// RNG seed governing the run.
    pub seed: u64,
    /// Worker thread count the run executed with.
    pub threads: u64,
    /// Per-phase wall times.
    pub phases: Vec<PhaseTiming>,
    /// Named counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named value series (trajectories), sorted by name.
    pub series: Vec<(String, Vec<f64>)>,
    /// Scalar results (gap measures, modularity, throughput, …).
    pub measures: Vec<(String, f64)>,
    /// Free-form annotations.
    pub notes: Vec<(String, String)>,
}

impl Manifest {
    /// A manifest with identity fields set and everything else empty.
    pub fn new(command: &str, graph_id: &str, vertices: usize, edges: usize) -> Self {
        Manifest {
            command: command.to_string(),
            graph: GraphInfo {
                id: graph_id.to_string(),
                vertices: vertices as u64,
                edges: edges as u64,
            },
            scheme: None,
            seed: 0,
            threads: 1,
            phases: Vec::new(),
            counters: Vec::new(),
            series: Vec::new(),
            measures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Sets the scheme identity.
    pub fn with_scheme(mut self, name: &str, spec: &str) -> Self {
        self.scheme = Some(SchemeInfo { name: name.to_string(), spec: spec.to_string() });
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads as u64;
        self
    }

    /// Rolls a [`RunRecorder`]'s spans, counters, series, and notes into
    /// this manifest (appending to whatever is already present).
    pub fn absorb(&mut self, rec: &RunRecorder) {
        for (path, totals) in rec.spans() {
            self.phases.push(PhaseTiming {
                name: path.clone(),
                wall_s: totals.wall.as_secs_f64(),
                count: totals.count,
            });
        }
        for (name, &value) in rec.counters() {
            self.counters.push((name.clone(), value));
        }
        for (name, values) in rec.series_map() {
            self.series.push((name.clone(), values.clone()));
        }
        for (key, value) in rec.notes() {
            self.notes.push((key.clone(), value.clone()));
        }
    }

    /// Adds one scalar measure.
    pub fn push_measure(&mut self, key: &str, value: f64) {
        self.measures.push((key.to_string(), value));
    }

    /// Adds one annotation.
    pub fn push_note(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Serializes to a [`Json`] value (always at `MANIFEST_VERSION`).
    pub fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = vec![
            ("manifest_version".into(), Json::from(MANIFEST_VERSION)),
            ("tool".into(), Json::from(TOOL)),
            ("command".into(), Json::from(self.command.as_str())),
            (
                "graph".into(),
                Json::Obj(vec![
                    ("id".into(), Json::from(self.graph.id.as_str())),
                    ("vertices".into(), Json::from(self.graph.vertices)),
                    ("edges".into(), Json::from(self.graph.edges)),
                ]),
            ),
        ];
        if let Some(s) = &self.scheme {
            obj.push((
                "scheme".into(),
                Json::Obj(vec![
                    ("name".into(), Json::from(s.name.as_str())),
                    ("spec".into(), Json::from(s.spec.as_str())),
                ]),
            ));
        }
        obj.push(("seed".into(), Json::from(self.seed)));
        obj.push(("threads".into(), Json::from(self.threads)));
        obj.push((
            "phases".into(),
            Json::Arr(
                self.phases
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("name".into(), Json::from(p.name.as_str())),
                            ("wall_s".into(), Json::from(p.wall_s)),
                            ("count".into(), Json::from(p.count)),
                        ])
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "counters".into(),
            Json::Obj(self.counters.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect()),
        ));
        obj.push((
            "series".into(),
            Json::Obj(
                self.series
                    .iter()
                    .map(|(k, vs)| {
                        (k.clone(), Json::Arr(vs.iter().map(|&v| Json::from(v)).collect()))
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "measures".into(),
            Json::Obj(self.measures.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect()),
        ));
        if !self.notes.is_empty() {
            obj.push((
                "notes".into(),
                Json::Obj(
                    self.notes.iter().map(|(k, v)| (k.clone(), Json::from(v.as_str()))).collect(),
                ),
            ));
        }
        Json::Obj(obj)
    }

    /// Pretty-printed JSON document.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Compact single-line JSON (for append-only `.jsonl` trajectories).
    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    /// Parses and validates a JSON document as a manifest.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        Manifest::from_json(&Json::parse(text)?)
    }

    /// Reconstructs a manifest from a parsed [`Json`] value, enforcing the
    /// version and every required key.
    pub fn from_json(v: &Json) -> Result<Manifest, ManifestError> {
        for &key in REQUIRED_KEYS {
            if v.get(key).is_none() {
                return Err(ManifestError::MissingKey(key));
            }
        }
        let version = v
            .get("manifest_version")
            .and_then(Json::as_u64)
            .ok_or(ManifestError::Type { key: "manifest_version", expected: "integer" })?;
        if version != MANIFEST_VERSION {
            return Err(ManifestError::BadVersion(version));
        }
        let tool = req_str(v, "tool")?;
        if tool != TOOL {
            return Err(ManifestError::WrongTool(tool.to_string()));
        }
        // Present per the REQUIRED_KEYS check above; stays fallible so the
        // check and this lookup cannot drift apart.
        let graph = v.get("graph").ok_or(ManifestError::MissingKey("graph"))?;
        let scheme = match v.get("scheme") {
            None => None,
            Some(s) => Some(SchemeInfo {
                name: req_str(s, "name")?.to_string(),
                spec: req_str(s, "spec")?.to_string(),
            }),
        };
        let phases = v
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or(ManifestError::Type { key: "phases", expected: "array" })?
            .iter()
            .map(|p| {
                Ok(PhaseTiming {
                    name: req_str(p, "name")?.to_string(),
                    wall_s: req_f64(p, "wall_s")?,
                    count: req_u64(p, "count")?,
                })
            })
            .collect::<Result<Vec<_>, ManifestError>>()?;
        let counters = obj_pairs(v, "counters")?
            .iter()
            .map(|(k, val)| {
                val.as_u64()
                    .map(|x| (k.clone(), x))
                    .ok_or(ManifestError::Type { key: "counters", expected: "integer values" })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let series = obj_pairs(v, "series")?
            .iter()
            .map(|(k, val)| {
                let arr = val
                    .as_arr()
                    .ok_or(ManifestError::Type { key: "series", expected: "array values" })?;
                let vals = arr
                    .iter()
                    .map(|x| {
                        x.as_f64().ok_or(ManifestError::Type { key: "series", expected: "numbers" })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((k.clone(), vals))
            })
            .collect::<Result<Vec<_>, ManifestError>>()?;
        let measures = obj_pairs(v, "measures")?
            .iter()
            .map(|(k, val)| {
                val.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or(ManifestError::Type { key: "measures", expected: "number values" })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let notes = match v.get("notes") {
            None => Vec::new(),
            Some(n) => n
                .as_obj()
                .ok_or(ManifestError::Type { key: "notes", expected: "object" })?
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or(ManifestError::Type { key: "notes", expected: "string values" })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(Manifest {
            command: req_str(v, "command")?.to_string(),
            graph: GraphInfo {
                id: req_str(graph, "id")?.to_string(),
                vertices: req_u64(graph, "vertices")?,
                edges: req_u64(graph, "edges")?,
            },
            scheme,
            seed: req_u64(v, "seed")?,
            threads: req_u64(v, "threads")?,
            phases,
            counters,
            series,
            measures,
            notes,
        })
    }

    /// Appends this manifest as one line to a `.jsonl` file, creating the
    /// file (and missing parent directories) on first use.
    pub fn append_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", self.to_line())
    }

    /// Looks up a scalar measure by key.
    pub fn measure(&self, key: &str) -> Option<f64> {
        self.measures.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

fn req_str<'a>(v: &'a Json, key: &'static str) -> Result<&'a str, ManifestError> {
    v.get(key).and_then(Json::as_str).ok_or(ManifestError::Type { key, expected: "string" })
}

fn req_u64(v: &Json, key: &'static str) -> Result<u64, ManifestError> {
    v.get(key).and_then(Json::as_u64).ok_or(ManifestError::Type { key, expected: "integer" })
}

fn req_f64(v: &Json, key: &'static str) -> Result<f64, ManifestError> {
    v.get(key).and_then(Json::as_f64).ok_or(ManifestError::Type { key, expected: "number" })
}

fn obj_pairs<'a>(v: &'a Json, key: &'static str) -> Result<&'a [(String, Json)], ManifestError> {
    v.get(key).and_then(Json::as_obj).ok_or(ManifestError::Type { key, expected: "object" })
}

/// Why a document failed to validate as a run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// A required key is absent.
    MissingKey(&'static str),
    /// The version is not one this build understands.
    BadVersion(u64),
    /// Produced by a different tool.
    WrongTool(String),
    /// A key holds the wrong JSON type.
    Type {
        /// The offending key.
        key: &'static str,
        /// What the schema expects there.
        expected: &'static str,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "invalid JSON: {e}"),
            ManifestError::MissingKey(k) => write!(f, "missing required key {k:?}"),
            ManifestError::BadVersion(v) => {
                write!(f, "unsupported manifest_version {v} (this build reads {MANIFEST_VERSION})")
            }
            ManifestError::WrongTool(t) => write!(f, "manifest from tool {t:?}, expected {TOOL:?}"),
            ManifestError::Type { key, expected } => {
                write!(f, "key {key:?} must be {expected}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<JsonError> for ManifestError {
    fn from(e: JsonError) -> Self {
        ManifestError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{counter, note, recording, series, span};

    fn sample() -> Manifest {
        let mut m = Manifest::new("measure", "euroroad", 1190, 1305)
            .with_scheme("RCM", "rcm")
            .with_seed(42)
            .with_threads(2);
        m.phases.push(PhaseTiming { name: "reorder/RCM".into(), wall_s: 0.0021, count: 1 });
        m.counters.push(("graph/vertices".into(), 1190));
        m.series.push(("louvain/modularity".into(), vec![0.31, 0.44]));
        m.push_measure("avg_gap", 187.25);
        m.push_measure("bandwidth", 1021.0);
        m.push_note("kernel", "flat");
        m
    }

    #[test]
    fn json_round_trip_is_identity() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.to_pretty()).unwrap(), m);
        assert_eq!(Manifest::parse(&m.to_line()).unwrap(), m);
    }

    #[test]
    fn required_keys_are_present_in_serialized_form() {
        let json = sample().to_json();
        for &key in REQUIRED_KEYS {
            assert!(json.get(key).is_some(), "serialized manifest missing {key}");
        }
    }

    #[test]
    fn missing_key_is_rejected() {
        let m = sample();
        let Json::Obj(pairs) = m.to_json() else { panic!() };
        for &key in REQUIRED_KEYS {
            let pruned: Vec<(String, Json)> =
                pairs.iter().filter(|(k, _)| k != key).cloned().collect();
            let err = Manifest::from_json(&Json::Obj(pruned)).unwrap_err();
            assert_eq!(err, ManifestError::MissingKey(key), "dropping {key}");
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let text = sample().to_line().replace("\"manifest_version\":1", "\"manifest_version\":99");
        assert_eq!(Manifest::parse(&text).unwrap_err(), ManifestError::BadVersion(99));
    }

    #[test]
    fn foreign_tool_is_rejected() {
        let text = sample().to_line().replace("\"tool\":\"reorderlab\"", "\"tool\":\"other\"");
        assert_eq!(Manifest::parse(&text).unwrap_err(), ManifestError::WrongTool("other".into()));
    }

    #[test]
    fn absorbs_recorder_state() {
        let ((), rec) = recording(RunRecorder::new(), || {
            let _reorder = span("reorder");
            counter("rounds", 7);
            series("modularity", 0.5);
            note("kernel", "flat");
        });
        let mut m = Manifest::new("reorder", "g", 10, 20);
        m.absorb(&rec);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].name, "reorder");
        assert_eq!(m.counter("rounds"), Some(7));
        assert_eq!(m.series[0].1, vec![0.5]);
        assert_eq!(m.notes[0], ("kernel".to_string(), "flat".to_string()));
    }

    #[test]
    fn lookup_helpers() {
        let m = sample();
        assert_eq!(m.measure("avg_gap"), Some(187.25));
        assert_eq!(m.measure("nope"), None);
        assert_eq!(m.counter("graph/vertices"), Some(1190));
    }

    #[test]
    fn jsonl_append_accumulates_lines() {
        let path = std::env::temp_dir()
            .join(format!("reorderlab_trace_{}.jsonl", std::process::id()))
            .to_string_lossy()
            .to_string();
        let _ = std::fs::remove_file(&path);
        sample().append_jsonl(&path).unwrap();
        sample().append_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Manifest::parse(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }
}

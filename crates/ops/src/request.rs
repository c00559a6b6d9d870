//! The typed request surface: every operation a frontend can ask for.
//!
//! [`OpRequest`] is what the CLI builds from argv and what the serve
//! daemon decodes from the wire; both hand it to [`execute`]
//! (crate::exec::execute), so a request means exactly the same thing no
//! matter which frontend carried it.

use crate::error::OpError;
use crate::source::GraphSource;
use reorderlab_trace::Json;

/// One operation over a graph (or, for `validate`, over input files).
#[derive(Debug, Clone, PartialEq)]
pub enum OpRequest {
    /// Compute structural statistics (`reorderlab stats`).
    Stats {
        /// The graph to analyze.
        source: GraphSource,
    },
    /// Compute (or apply) one ordering and report gap measures before and
    /// after (`reorderlab reorder`).
    Reorder {
        /// The graph to reorder.
        source: GraphSource,
        /// Scheme spec (`rcm`, `metis:parts=16,seed=9`, …). Exactly one of
        /// `scheme` / `apply_perm` must be set.
        scheme: Option<String>,
        /// Path of a saved permutation to apply instead of computing one.
        /// Filesystem frontends only; the daemon rejects it.
        apply_perm: Option<String>,
        /// Include the permutation (text form) in the response.
        return_perm: bool,
    },
    /// Run a set of schemes and tabulate gap measures
    /// (`reorderlab measure`). An empty list means the paper's default
    /// evaluation suite.
    Measure {
        /// The graph to measure on.
        source: GraphSource,
        /// Scheme specs to run; empty selects `Scheme::evaluation_suite(42)`.
        schemes: Vec<String>,
    },
    /// Run a set of schemes and tabulate the compression footprint each
    /// ordering induces — exact gap-stream bytes and bits-per-edge
    /// (`reorderlab measure compression` / `reorderlab compression`). An
    /// empty list means the paper's default evaluation suite.
    Compression {
        /// The graph to compress.
        source: GraphSource,
        /// Scheme specs to run; empty selects `Scheme::evaluation_suite(42)`.
        schemes: Vec<String>,
    },
    /// Check input files against the ingestion contract
    /// (`reorderlab validate`). Filesystem frontends only; the daemon
    /// refuses it, like `apply_perm`.
    Validate {
        /// Paths to check.
        files: Vec<String>,
    },
    /// Replay a hot kernel's access stream through the simulated memory
    /// hierarchy (`reorderlab memsim`).
    Memsim {
        /// The graph to replay on.
        source: GraphSource,
        /// Optional layout pass before the replay.
        scheme: Option<String>,
        /// Workload: `louvain`, `rr`, or `pagerank`.
        workload: String,
        /// The workload's kernel by name (`packed` for louvain, `classic`
        /// for rr, `pull` for pagerank); `None` means the same kernel.
        kernel: Option<String>,
    },
}

fn str_field(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_string)
}

fn str_list(v: &Json, key: &str) -> Result<Vec<String>, OpError> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(item) => item
            .as_arr()
            .ok_or_else(|| OpError::Parse(format!("{key:?} must be an array of strings")))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| OpError::Parse(format!("{key:?} must be an array of strings")))
            })
            .collect(),
    }
}

fn source_field(v: &Json) -> Result<GraphSource, OpError> {
    let src = v
        .get("source")
        .ok_or_else(|| OpError::Usage("request needs a \"source\" object".into()))?;
    GraphSource::from_json(src)
}

impl OpRequest {
    /// The operation's wire name (`stats`, `reorder`, …).
    pub fn op_name(&self) -> &'static str {
        match self {
            OpRequest::Stats { .. } => "stats",
            OpRequest::Reorder { .. } => "reorder",
            OpRequest::Measure { .. } => "measure",
            OpRequest::Compression { .. } => "compression",
            OpRequest::Validate { .. } => "validate",
            OpRequest::Memsim { .. } => "memsim",
        }
    }

    /// Wire form: an object whose `"op"` key selects the operation and
    /// whose remaining keys are that operation's fields.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("op".into(), Json::Str(self.op_name().into()))];
        match self {
            OpRequest::Stats { source } => pairs.push(("source".into(), source.to_json())),
            OpRequest::Reorder { source, scheme, apply_perm, return_perm } => {
                pairs.push(("source".into(), source.to_json()));
                if let Some(s) = scheme {
                    pairs.push(("scheme".into(), Json::Str(s.clone())));
                }
                if let Some(p) = apply_perm {
                    pairs.push(("apply_perm".into(), Json::Str(p.clone())));
                }
                if *return_perm {
                    pairs.push(("return_perm".into(), Json::Bool(true)));
                }
            }
            OpRequest::Measure { source, schemes } => {
                pairs.push(("source".into(), source.to_json()));
                if !schemes.is_empty() {
                    pairs.push((
                        "schemes".into(),
                        Json::Arr(schemes.iter().map(|s| Json::Str(s.clone())).collect()),
                    ));
                }
            }
            OpRequest::Compression { source, schemes } => {
                pairs.push(("source".into(), source.to_json()));
                if !schemes.is_empty() {
                    pairs.push((
                        "schemes".into(),
                        Json::Arr(schemes.iter().map(|s| Json::Str(s.clone())).collect()),
                    ));
                }
            }
            OpRequest::Validate { files } => {
                pairs.push((
                    "files".into(),
                    Json::Arr(files.iter().map(|s| Json::Str(s.clone())).collect()),
                ));
            }
            OpRequest::Memsim { source, scheme, workload, kernel } => {
                pairs.push(("source".into(), source.to_json()));
                if let Some(s) = scheme {
                    pairs.push(("scheme".into(), Json::Str(s.clone())));
                }
                pairs.push(("workload".into(), Json::Str(workload.clone())));
                if let Some(k) = kernel {
                    pairs.push(("kernel".into(), Json::Str(k.clone())));
                }
            }
        }
        Json::Obj(pairs)
    }

    /// Decodes the wire form. Unknown extra keys (e.g. an envelope's
    /// `"threads"`) are ignored so the envelope can ride in the same
    /// object.
    ///
    /// # Errors
    ///
    /// [`OpError::Usage`] for a missing or unknown `"op"`,
    /// [`OpError::Parse`] for fields of the wrong shape.
    pub fn from_json(v: &Json) -> Result<OpRequest, OpError> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| OpError::Usage("request needs an \"op\" string".into()))?;
        match op {
            "stats" => Ok(OpRequest::Stats { source: source_field(v)? }),
            "reorder" => Ok(OpRequest::Reorder {
                source: source_field(v)?,
                scheme: str_field(v, "scheme"),
                apply_perm: str_field(v, "apply_perm"),
                return_perm: matches!(v.get("return_perm"), Some(Json::Bool(true))),
            }),
            "measure" => Ok(OpRequest::Measure {
                source: source_field(v)?,
                schemes: str_list(v, "schemes")?,
            }),
            "compression" => Ok(OpRequest::Compression {
                source: source_field(v)?,
                schemes: str_list(v, "schemes")?,
            }),
            "validate" => {
                let files = str_list(v, "files")?;
                if files.is_empty() {
                    return Err(OpError::Usage("validate needs a non-empty \"files\" list".into()));
                }
                Ok(OpRequest::Validate { files })
            }
            "memsim" => Ok(OpRequest::Memsim {
                source: source_field(v)?,
                scheme: str_field(v, "scheme"),
                workload: str_field(v, "workload").unwrap_or_else(|| "louvain".into()),
                kernel: str_field(v, "kernel"),
            }),
            other => Err(OpError::Usage(format!(
                "unknown op {other:?}; try stats|reorder|measure|compression|validate|memsim"
            ))),
        }
    }
}

/// A request plus transport-level options: the unit the daemon reads off
/// the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// The operation itself.
    pub request: OpRequest,
    /// Worker-thread bound for this request (`--threads` equivalent).
    /// Every kernel is thread-count invariant, so this only affects
    /// wall-clock time, never any output.
    pub threads: Option<usize>,
}

impl RequestEnvelope {
    /// Wraps a request with no thread bound.
    pub fn new(request: OpRequest) -> Self {
        RequestEnvelope { request, threads: None }
    }

    /// Wire form: the request object with an optional `"threads"` key.
    pub fn to_json(&self) -> Json {
        let mut json = self.request.to_json();
        if let (Json::Obj(pairs), Some(t)) = (&mut json, self.threads) {
            let t = u32::try_from(t).unwrap_or(u32::MAX);
            pairs.push(("threads".into(), Json::Num(f64::from(t))));
        }
        json
    }

    /// Decodes the wire form.
    ///
    /// # Errors
    ///
    /// As [`OpRequest::from_json`], plus [`OpError::Usage`] for a
    /// `"threads"` value that is not a positive integer.
    pub fn from_json(v: &Json) -> Result<RequestEnvelope, OpError> {
        let request = OpRequest::from_json(v)?;
        let threads = match v.get("threads") {
            None => None,
            Some(t) => {
                let t = t.as_u64().filter(|&t| t > 0).ok_or_else(|| {
                    OpError::Usage("\"threads\" must be a positive integer".into())
                })?;
                Some(usize::try_from(t).unwrap_or(usize::MAX))
            }
        };
        Ok(RequestEnvelope { request, threads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: OpRequest) {
        let j = req.to_json();
        let text = j.to_line();
        let back = OpRequest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(OpRequest::Stats { source: GraphSource::Instance("euroroad".into()) });
        round_trip(OpRequest::Reorder {
            source: GraphSource::Path("g.mtx".into()),
            scheme: Some("rcm".into()),
            apply_perm: None,
            return_perm: true,
        });
        round_trip(OpRequest::Reorder {
            source: GraphSource::Corpus("orkut".into()),
            scheme: None,
            apply_perm: Some("pi.txt".into()),
            return_perm: false,
        });
        round_trip(OpRequest::Measure {
            source: GraphSource::Instance("euroroad".into()),
            schemes: vec!["rcm".into(), "metis:parts=16,seed=9".into()],
        });
        round_trip(OpRequest::Measure {
            source: GraphSource::Instance("euroroad".into()),
            schemes: Vec::new(),
        });
        round_trip(OpRequest::Compression {
            source: GraphSource::Path("g.csrz".into()),
            schemes: vec!["natural".into(), "rcm".into()],
        });
        round_trip(OpRequest::Compression {
            source: GraphSource::Corpus("pgp".into()),
            schemes: Vec::new(),
        });
        round_trip(OpRequest::Validate { files: vec!["a.mtx".into(), "b.el".into()] });
        round_trip(OpRequest::Memsim {
            source: GraphSource::Instance("euroroad".into()),
            scheme: Some("dbg".into()),
            workload: "rr".into(),
            kernel: Some("classic".into()),
        });
    }

    #[test]
    fn envelope_carries_threads() {
        let env = RequestEnvelope {
            request: OpRequest::Stats { source: GraphSource::Instance("euroroad".into()) },
            threads: Some(7),
        };
        let back = RequestEnvelope::from_json(&env.to_json()).unwrap();
        assert_eq!(back, env);
        assert_eq!(RequestEnvelope::new(env.request.clone()).threads, None);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let bad = |text: &str| RequestEnvelope::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert_eq!(bad("{}").exit_code(), 2);
        assert_eq!(bad("{\"op\":\"frob\"}").exit_code(), 2);
        assert_eq!(bad("{\"op\":\"stats\"}").exit_code(), 2);
        assert_eq!(bad("{\"op\":\"validate\",\"files\":[]}").exit_code(), 2);
        let e = bad("{\"op\":\"stats\",\"source\":{\"instance\":\"x\"},\"threads\":0}");
        assert!(e.to_string().contains("threads"), "{e}");
    }
}

//! The typed response surface: what an operation returns.
//!
//! Every [`OpReport`] variant carries the typed numbers an operation
//! produced *and* knows how to render the CLI's human-facing text from
//! them. The CLI and the serve daemon both render through these methods,
//! so a daemon response is byte-identical to the CLI's stdout by
//! construction, not by parallel maintenance.

use crate::error::OpError;
use reorderlab_trace::{Json, Manifest};
use std::fmt::Write as _;

/// Structural statistics of one graph (`stats`).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Display identity of the graph.
    pub graph: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Degree standard deviation.
    pub degree_std_dev: f64,
    /// Triangle count.
    pub triangles: u64,
    /// Global clustering coefficient.
    pub clustering_coefficient: f64,
    /// The run manifest (phases, counters, measures).
    pub manifest: Manifest,
}

impl StatsReport {
    /// The CLI's human-readable stdout block (no trailing newline).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "graph: {}", self.graph);
        let _ = writeln!(out, "  vertices:               {}", self.vertices);
        let _ = writeln!(out, "  edges:                  {}", self.edges);
        let _ = writeln!(out, "  max degree:             {}", self.max_degree);
        let _ = writeln!(out, "  mean degree:            {:.3}", self.mean_degree);
        let _ = writeln!(out, "  degree std dev:         {:.3}", self.degree_std_dev);
        let _ = writeln!(out, "  triangles:              {}", self.triangles);
        let _ = write!(out, "  clustering coefficient: {:.4}", self.clustering_coefficient);
        out
    }
}

/// Gap measures of one ordering, as reported by `reorder` and `measure`.
#[derive(Debug, Clone, PartialEq)]
pub struct GapRow {
    /// Average gap ξ̂.
    pub avg_gap: f64,
    /// Bandwidth β (maximum gap).
    pub bandwidth: u32,
    /// Average per-vertex bandwidth β̂.
    pub avg_bandwidth: f64,
    /// Average log₂ gap.
    pub avg_log_gap: f64,
}

/// Outcome of computing (or applying) one ordering (`reorder`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReorderReport {
    /// Display identity of the graph.
    pub graph: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// Human label: the scheme name, or `perm file PATH`.
    pub label: String,
    /// Gap measures under the identity ordering.
    pub before: GapRow,
    /// Gap measures under the produced ordering.
    pub after: GapRow,
    /// Wall-clock seconds spent producing the ordering.
    pub wall_s: f64,
    /// True when the ordering came from a permutation cache rather than a
    /// fresh computation (always false in the CLI).
    pub cache_hit: bool,
    /// The run manifest.
    pub manifest: Manifest,
    /// The permutation in its text form, when the request asked for it.
    pub permutation: Option<String>,
}

impl ReorderReport {
    /// The CLI's one-line stderr summary (includes the wall time, so two
    /// runs of the same request differ here and only here).
    pub fn summary_line(&self) -> String {
        format!(
            "{} on {}: ξ̂ {:.1} -> {:.1}, β {} -> {}, β̂ {:.1} -> {:.1} ({:.3}s)",
            self.label,
            self.graph,
            self.before.avg_gap,
            self.after.avg_gap,
            self.before.bandwidth,
            self.after.bandwidth,
            self.before.avg_bandwidth,
            self.after.avg_bandwidth,
            self.wall_s
        )
    }
}

/// One scheme's row in a `measure` table.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureRow {
    /// The scheme's display name.
    pub scheme: String,
    /// Its gap measures.
    pub gaps: GapRow,
    /// Its run manifest.
    pub manifest: Manifest,
}

/// Gap measures across a set of schemes (`measure`).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureReport {
    /// Display identity of the graph.
    pub graph: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// One row per scheme, in request order.
    pub rows: Vec<MeasureRow>,
}

impl MeasureReport {
    /// The CLI's human-readable table (no trailing newline).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gap measures on {} (|V|={}, |E|={}):",
            self.graph, self.vertices, self.edges
        );
        let _ = write!(
            out,
            "{:<16} {:>12} {:>12} {:>12} {:>12}",
            "scheme", "avg gap", "bandwidth", "avg band", "log gap"
        );
        for row in &self.rows {
            let _ = write!(
                out,
                "\n{:<16} {:>12.1} {:>12} {:>12.1} {:>12.2}",
                row.scheme,
                row.gaps.avg_gap,
                row.gaps.bandwidth,
                row.gaps.avg_bandwidth,
                row.gaps.avg_log_gap
            );
        }
        out
    }
}

/// One scheme's row in a `compression` table.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionRow {
    /// The scheme's display name.
    pub scheme: String,
    /// Exact size in bytes of the LEB128 gap stream under the ordering.
    pub gap_bytes: u64,
    /// `8 · gap_bytes / max(arcs, 1)` — realized bits per stored arc.
    pub bits_per_edge: f64,
    /// Average log₂ gap: the information-theoretic lower bound on
    /// `bits_per_edge`.
    pub avg_log_gap: f64,
    /// Its run manifest.
    pub manifest: Manifest,
}

/// Compression footprint across a set of schemes (`compression`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionReport {
    /// Display identity of the graph.
    pub graph: String,
    /// Vertex count.
    pub vertices: usize,
    /// Edge count.
    pub edges: usize,
    /// Stored arc count (2·edges undirected): the denominator of
    /// bits-per-edge.
    pub arcs: usize,
    /// One row per scheme, in request order.
    pub rows: Vec<CompressionRow>,
}

impl CompressionReport {
    /// The CLI's human-readable table (no trailing newline).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compression footprint on {} (|V|={}, |E|={}, arcs={}):",
            self.graph, self.vertices, self.edges, self.arcs
        );
        let _ = write!(
            out,
            "{:<16} {:>12} {:>12} {:>12}",
            "scheme", "gap bytes", "bits/edge", "log-gap lb"
        );
        for row in &self.rows {
            let _ = write!(
                out,
                "\n{:<16} {:>12} {:>12.3} {:>12.3}",
                row.scheme, row.gap_bytes, row.bits_per_edge, row.avg_log_gap
            );
        }
        out
    }
}

/// One file's verdict under `validate`.
#[derive(Debug, Clone, PartialEq)]
pub struct FileVerdict {
    /// The path checked.
    pub path: String,
    /// `ok`, `unreadable`, or `malformed`.
    pub status: String,
    /// The reader's diagnosis for non-ok files.
    pub detail: Option<String>,
    /// Vertex count for clean files, 0 otherwise.
    pub vertices: usize,
    /// Edge count for clean files, 0 otherwise.
    pub edges: usize,
    /// The per-file run manifest.
    pub manifest: Manifest,
}

impl FileVerdict {
    /// The CLI's one-line stderr verdict for this file.
    pub fn verdict_line(&self) -> String {
        match &self.detail {
            None => format!("{}: ok (|V|={}, |E|={})", self.path, self.vertices, self.edges),
            Some(msg) => format!("{}: {}: {msg}", self.path, self.status),
        }
    }
}

/// Ingestion-contract verdicts over a set of files (`validate`).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateReport {
    /// One verdict per file, in request order.
    pub files: Vec<FileVerdict>,
}

impl ValidateReport {
    /// Number of files diagnosed as malformed.
    pub(crate) fn malformed(&self) -> usize {
        self.files.iter().filter(|f| f.status == "malformed").count()
    }

    /// Number of files that could not be read at all.
    pub(crate) fn unreadable(&self) -> usize {
        self.files.iter().filter(|f| f.status == "unreadable").count()
    }

    /// The overall outcome: `Err` with the CLI's summary message when any
    /// file failed (malformed dominates unreadable), `Ok` with the success
    /// summary line otherwise.
    ///
    /// # Errors
    ///
    /// [`OpError::Malformed`] / [`OpError::Io`] carrying the exact
    /// summary the CLI prints.
    pub fn overall(&self) -> Result<String, OpError> {
        let total = self.files.len();
        let malformed = self.malformed();
        let unreadable = self.unreadable();
        if malformed > 0 {
            Err(OpError::Malformed(format!("{malformed} of {total} file(s) malformed")))
        } else if unreadable > 0 {
            Err(OpError::Io(format!("{unreadable} of {total} file(s) unreadable")))
        } else {
            Ok(format!("{total} file(s) ok"))
        }
    }
}

/// Memory-hierarchy replay counters (`memsim`).
#[derive(Debug, Clone, PartialEq)]
pub struct MemsimReport {
    /// Display identity of the graph.
    pub graph: String,
    /// The layout scheme's display name (`Natural` when none was given).
    pub scheme: String,
    /// The workload replayed.
    pub workload: String,
    /// The kernel replayed.
    pub kernel: String,
    /// Total loads issued.
    pub loads: u64,
    /// Hits per level (L1, L2, L3, DRAM).
    pub level_hits: Vec<u64>,
    /// Average load latency in cycles.
    pub avg_latency: f64,
    /// Boundedness fractions per level.
    pub bound: Vec<f64>,
    /// L1 hit rate.
    pub l1_hit_rate: f64,
}

impl MemsimReport {
    /// The CLI's human-readable counter block (no trailing newline).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "memsim replay: {}/{} on {} ({} layout)",
            self.workload, self.kernel, self.graph, self.scheme
        );
        let _ = writeln!(out, "  loads        {}", self.loads);
        let levels = ["L1", "L2", "L3", "DRAM"];
        for (i, level) in levels.iter().enumerate() {
            let hits = self.level_hits.get(i).copied().unwrap_or(0);
            let rate = if self.loads == 0 { 0.0 } else { num_f64(hits) / num_f64(self.loads) };
            let _ = writeln!(out, "  {level:<4} hits    {:<10} ({:.1}%)", hits, rate * 100.0);
        }
        let _ = writeln!(out, "  avg latency  {:.3} cycles", self.avg_latency);
        let bound = |i: usize| self.bound.get(i).copied().unwrap_or(0.0) * 100.0;
        let _ = write!(
            out,
            "  boundedness  L1 {:.1}% | L2 {:.1}% | L3 {:.1}% | DRAM {:.1}%",
            bound(0),
            bound(1),
            bound(2),
            bound(3)
        );
        out
    }

    /// The CLI's `--json` object (pretty-printed by the caller).
    pub fn render_json(&self) -> Json {
        Json::Obj(vec![
            ("graph".into(), Json::Str(self.graph.clone())),
            ("scheme".into(), Json::Str(self.scheme.clone())),
            ("workload".into(), Json::Str(self.workload.clone())),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("hierarchy".into(), Json::Str("scaled_cascade_lake".into())),
            ("loads".into(), Json::Num(num_f64(self.loads))),
            (
                "level_hits".into(),
                Json::Arr(self.level_hits.iter().map(|&h| Json::Num(num_f64(h))).collect()),
            ),
            ("avg_latency".into(), Json::Num(self.avg_latency)),
            ("bound".into(), Json::Arr(self.bound.iter().map(|&b| Json::Num(b)).collect())),
            ("l1_hit_rate".into(), Json::Num(self.l1_hit_rate)),
        ])
    }
}

/// What an operation returned.
#[derive(Debug, Clone, PartialEq)]
pub enum OpReport {
    /// `stats` result.
    Stats(StatsReport),
    /// `reorder` result.
    Reorder(ReorderReport),
    /// `measure` result.
    Measure(MeasureReport),
    /// `compression` result.
    Compression(CompressionReport),
    /// `validate` result.
    Validate(ValidateReport),
    /// `memsim` result.
    Memsim(MemsimReport),
}

/// `u64` → `f64` for JSON numbers; counters stay below 2^53 so the
/// conversion is exact (the serializer asserts the same bound).
fn num_f64(x: u64) -> f64 {
    // Not a lossy semantic cast: JSON numbers *are* f64.
    let mut v = 0.0f64;
    let mut rem = x;
    // Decompose in 32-bit halves to avoid a lossy `as` cast.
    let high = u32::try_from(rem >> 32).unwrap_or(u32::MAX);
    rem &= 0xFFFF_FFFF;
    let low = u32::try_from(rem).unwrap_or(u32::MAX);
    v += f64::from(high) * 4_294_967_296.0;
    v += f64::from(low);
    v
}

fn usize_f64(x: usize) -> f64 {
    num_f64(u64::try_from(x).unwrap_or(u64::MAX))
}

fn get_f64(v: &Json, key: &str) -> Result<f64, OpError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| OpError::Parse(format!("report missing number {key:?}")))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, OpError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| OpError::Parse(format!("report missing integer {key:?}")))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, OpError> {
    usize::try_from(get_u64(v, key)?).map_err(|_| OpError::Parse(format!("{key:?} out of range")))
}

fn get_str(v: &Json, key: &str) -> Result<String, OpError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| OpError::Parse(format!("report missing string {key:?}")))
}

fn get_manifest(v: &Json, key: &str) -> Result<Manifest, OpError> {
    let m = v.get(key).ok_or_else(|| OpError::Parse(format!("report missing {key:?}")))?;
    Manifest::from_json(m).map_err(|e| OpError::Parse(format!("bad manifest in report: {e}")))
}

fn gap_row_json(g: &GapRow) -> Json {
    Json::Obj(vec![
        ("avg_gap".into(), Json::Num(g.avg_gap)),
        ("bandwidth".into(), Json::Num(f64::from(g.bandwidth))),
        ("avg_bandwidth".into(), Json::Num(g.avg_bandwidth)),
        ("avg_log_gap".into(), Json::Num(g.avg_log_gap)),
    ])
}

fn gap_row_from(v: &Json, key: &str) -> Result<GapRow, OpError> {
    let g = v.get(key).ok_or_else(|| OpError::Parse(format!("report missing {key:?}")))?;
    let bandwidth = u32::try_from(get_u64(g, "bandwidth")?)
        .map_err(|_| OpError::Parse("\"bandwidth\" out of range".into()))?;
    Ok(GapRow {
        avg_gap: get_f64(g, "avg_gap")?,
        bandwidth,
        avg_bandwidth: get_f64(g, "avg_bandwidth")?,
        avg_log_gap: get_f64(g, "avg_log_gap")?,
    })
}

impl OpReport {
    /// The report's wire name (matches the request's `op_name`).
    pub fn op_name(&self) -> &'static str {
        match self {
            OpReport::Stats(_) => "stats",
            OpReport::Reorder(_) => "reorder",
            OpReport::Measure(_) => "measure",
            OpReport::Compression(_) => "compression",
            OpReport::Validate(_) => "validate",
            OpReport::Memsim(_) => "memsim",
        }
    }

    /// Wire form: an object whose `"report"` key selects the variant.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> =
            vec![("report".into(), Json::Str(self.op_name().into()))];
        match self {
            OpReport::Stats(s) => {
                pairs.push(("graph".into(), Json::Str(s.graph.clone())));
                pairs.push(("vertices".into(), Json::Num(usize_f64(s.vertices))));
                pairs.push(("edges".into(), Json::Num(usize_f64(s.edges))));
                pairs.push(("max_degree".into(), Json::Num(usize_f64(s.max_degree))));
                pairs.push(("mean_degree".into(), Json::Num(s.mean_degree)));
                pairs.push(("degree_std_dev".into(), Json::Num(s.degree_std_dev)));
                pairs.push(("triangles".into(), Json::Num(num_f64(s.triangles))));
                pairs.push(("clustering_coefficient".into(), Json::Num(s.clustering_coefficient)));
                pairs.push(("manifest".into(), s.manifest.to_json()));
            }
            OpReport::Reorder(r) => {
                pairs.push(("graph".into(), Json::Str(r.graph.clone())));
                pairs.push(("vertices".into(), Json::Num(usize_f64(r.vertices))));
                pairs.push(("edges".into(), Json::Num(usize_f64(r.edges))));
                pairs.push(("label".into(), Json::Str(r.label.clone())));
                pairs.push(("before".into(), gap_row_json(&r.before)));
                pairs.push(("after".into(), gap_row_json(&r.after)));
                pairs.push(("wall_s".into(), Json::Num(r.wall_s)));
                pairs.push(("cache_hit".into(), Json::Bool(r.cache_hit)));
                pairs.push(("manifest".into(), r.manifest.to_json()));
                if let Some(p) = &r.permutation {
                    pairs.push(("permutation".into(), Json::Str(p.clone())));
                }
            }
            OpReport::Measure(m) => {
                pairs.push(("graph".into(), Json::Str(m.graph.clone())));
                pairs.push(("vertices".into(), Json::Num(usize_f64(m.vertices))));
                pairs.push(("edges".into(), Json::Num(usize_f64(m.edges))));
                let rows = m
                    .rows
                    .iter()
                    .map(|row| {
                        Json::Obj(vec![
                            ("scheme".into(), Json::Str(row.scheme.clone())),
                            ("gaps".into(), gap_row_json(&row.gaps)),
                            ("manifest".into(), row.manifest.to_json()),
                        ])
                    })
                    .collect();
                pairs.push(("rows".into(), Json::Arr(rows)));
            }
            OpReport::Compression(c) => {
                pairs.push(("graph".into(), Json::Str(c.graph.clone())));
                pairs.push(("vertices".into(), Json::Num(usize_f64(c.vertices))));
                pairs.push(("edges".into(), Json::Num(usize_f64(c.edges))));
                pairs.push(("arcs".into(), Json::Num(usize_f64(c.arcs))));
                let rows = c
                    .rows
                    .iter()
                    .map(|row| {
                        Json::Obj(vec![
                            ("scheme".into(), Json::Str(row.scheme.clone())),
                            ("gap_bytes".into(), Json::Num(num_f64(row.gap_bytes))),
                            ("bits_per_edge".into(), Json::Num(row.bits_per_edge)),
                            ("avg_log_gap".into(), Json::Num(row.avg_log_gap)),
                            ("manifest".into(), row.manifest.to_json()),
                        ])
                    })
                    .collect();
                pairs.push(("rows".into(), Json::Arr(rows)));
            }
            OpReport::Validate(v) => {
                let files = v
                    .files
                    .iter()
                    .map(|f| {
                        let mut p = vec![
                            ("path".into(), Json::Str(f.path.clone())),
                            ("status".into(), Json::Str(f.status.clone())),
                        ];
                        if let Some(d) = &f.detail {
                            p.push(("detail".into(), Json::Str(d.clone())));
                        }
                        p.push(("vertices".into(), Json::Num(usize_f64(f.vertices))));
                        p.push(("edges".into(), Json::Num(usize_f64(f.edges))));
                        p.push(("manifest".into(), f.manifest.to_json()));
                        Json::Obj(p)
                    })
                    .collect();
                pairs.push(("files".into(), Json::Arr(files)));
            }
            OpReport::Memsim(m) => {
                pairs.push(("graph".into(), Json::Str(m.graph.clone())));
                pairs.push(("scheme".into(), Json::Str(m.scheme.clone())));
                pairs.push(("workload".into(), Json::Str(m.workload.clone())));
                pairs.push(("kernel".into(), Json::Str(m.kernel.clone())));
                pairs.push(("loads".into(), Json::Num(num_f64(m.loads))));
                pairs.push((
                    "level_hits".into(),
                    Json::Arr(m.level_hits.iter().map(|&h| Json::Num(num_f64(h))).collect()),
                ));
                pairs.push(("avg_latency".into(), Json::Num(m.avg_latency)));
                pairs.push((
                    "bound".into(),
                    Json::Arr(m.bound.iter().map(|&b| Json::Num(b)).collect()),
                ));
                pairs.push(("l1_hit_rate".into(), Json::Num(m.l1_hit_rate)));
            }
        }
        Json::Obj(pairs)
    }

    /// Decodes the wire form.
    ///
    /// # Errors
    ///
    /// [`OpError::Parse`] for any missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<OpReport, OpError> {
        let kind = v
            .get("report")
            .and_then(Json::as_str)
            .ok_or_else(|| OpError::Parse("response missing \"report\" kind".into()))?;
        match kind {
            "stats" => Ok(OpReport::Stats(StatsReport {
                graph: get_str(v, "graph")?,
                vertices: get_usize(v, "vertices")?,
                edges: get_usize(v, "edges")?,
                max_degree: get_usize(v, "max_degree")?,
                mean_degree: get_f64(v, "mean_degree")?,
                degree_std_dev: get_f64(v, "degree_std_dev")?,
                triangles: get_u64(v, "triangles")?,
                clustering_coefficient: get_f64(v, "clustering_coefficient")?,
                manifest: get_manifest(v, "manifest")?,
            })),
            "reorder" => Ok(OpReport::Reorder(ReorderReport {
                graph: get_str(v, "graph")?,
                vertices: get_usize(v, "vertices")?,
                edges: get_usize(v, "edges")?,
                label: get_str(v, "label")?,
                before: gap_row_from(v, "before")?,
                after: gap_row_from(v, "after")?,
                wall_s: get_f64(v, "wall_s")?,
                cache_hit: matches!(v.get("cache_hit"), Some(Json::Bool(true))),
                manifest: get_manifest(v, "manifest")?,
                permutation: v.get("permutation").and_then(Json::as_str).map(str::to_string),
            })),
            "measure" => {
                let rows = v
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| OpError::Parse("measure report missing \"rows\"".into()))?
                    .iter()
                    .map(|row| {
                        Ok(MeasureRow {
                            scheme: get_str(row, "scheme")?,
                            gaps: gap_row_from(row, "gaps")?,
                            manifest: get_manifest(row, "manifest")?,
                        })
                    })
                    .collect::<Result<Vec<_>, OpError>>()?;
                Ok(OpReport::Measure(MeasureReport {
                    graph: get_str(v, "graph")?,
                    vertices: get_usize(v, "vertices")?,
                    edges: get_usize(v, "edges")?,
                    rows,
                }))
            }
            "compression" => {
                let rows = v
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| OpError::Parse("compression report missing \"rows\"".into()))?
                    .iter()
                    .map(|row| {
                        Ok(CompressionRow {
                            scheme: get_str(row, "scheme")?,
                            gap_bytes: get_u64(row, "gap_bytes")?,
                            bits_per_edge: get_f64(row, "bits_per_edge")?,
                            avg_log_gap: get_f64(row, "avg_log_gap")?,
                            manifest: get_manifest(row, "manifest")?,
                        })
                    })
                    .collect::<Result<Vec<_>, OpError>>()?;
                Ok(OpReport::Compression(CompressionReport {
                    graph: get_str(v, "graph")?,
                    vertices: get_usize(v, "vertices")?,
                    edges: get_usize(v, "edges")?,
                    arcs: get_usize(v, "arcs")?,
                    rows,
                }))
            }
            "validate" => {
                let files = v
                    .get("files")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| OpError::Parse("validate report missing \"files\"".into()))?
                    .iter()
                    .map(|f| {
                        Ok(FileVerdict {
                            path: get_str(f, "path")?,
                            status: get_str(f, "status")?,
                            detail: f.get("detail").and_then(Json::as_str).map(str::to_string),
                            vertices: get_usize(f, "vertices")?,
                            edges: get_usize(f, "edges")?,
                            manifest: get_manifest(f, "manifest")?,
                        })
                    })
                    .collect::<Result<Vec<_>, OpError>>()?;
                Ok(OpReport::Validate(ValidateReport { files }))
            }
            "memsim" => {
                let nums = |key: &str| -> Result<Vec<u64>, OpError> {
                    v.get(key)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| OpError::Parse(format!("report missing array {key:?}")))?
                        .iter()
                        .map(|x| {
                            x.as_u64().ok_or_else(|| {
                                OpError::Parse(format!("{key:?} must hold integers"))
                            })
                        })
                        .collect()
                };
                let floats = |key: &str| -> Result<Vec<f64>, OpError> {
                    v.get(key)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| OpError::Parse(format!("report missing array {key:?}")))?
                        .iter()
                        .map(|x| {
                            x.as_f64()
                                .ok_or_else(|| OpError::Parse(format!("{key:?} must hold numbers")))
                        })
                        .collect()
                };
                Ok(OpReport::Memsim(MemsimReport {
                    graph: get_str(v, "graph")?,
                    scheme: get_str(v, "scheme")?,
                    workload: get_str(v, "workload")?,
                    kernel: get_str(v, "kernel")?,
                    loads: get_u64(v, "loads")?,
                    level_hits: nums("level_hits")?,
                    avg_latency: get_f64(v, "avg_latency")?,
                    bound: floats("bound")?,
                    l1_hit_rate: get_f64(v, "l1_hit_rate")?,
                }))
            }
            other => Err(OpError::Parse(format!("unknown report kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        let mut m = Manifest::new("stats", "g", 5, 4).with_seed(42).with_threads(2);
        m.push_measure("x", 1.5);
        m
    }

    fn sample_gaps() -> GapRow {
        GapRow { avg_gap: 3.25, bandwidth: 9, avg_bandwidth: 4.5, avg_log_gap: 1.125 }
    }

    #[test]
    fn stats_report_round_trips_and_renders() {
        let r = OpReport::Stats(StatsReport {
            graph: "g.mtx".into(),
            vertices: 5,
            edges: 4,
            max_degree: 3,
            mean_degree: 1.6,
            degree_std_dev: 0.8,
            triangles: 1,
            clustering_coefficient: 0.25,
            manifest: manifest(),
        });
        let text = r.to_json().to_line();
        let back = OpReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        if let OpReport::Stats(s) = &back {
            let rendered = s.render_text();
            assert!(rendered.starts_with("graph: g.mtx\n"));
            assert!(rendered.contains("  mean degree:            1.600"));
            assert!(rendered.ends_with("clustering coefficient: 0.2500"));
        }
    }

    #[test]
    fn reorder_and_measure_round_trip() {
        let r = OpReport::Reorder(ReorderReport {
            graph: "euroroad".into(),
            vertices: 1174,
            edges: 1417,
            label: "RCM".into(),
            before: sample_gaps(),
            after: GapRow { avg_gap: 1.0, bandwidth: 2, avg_bandwidth: 1.5, avg_log_gap: 0.5 },
            wall_s: 0.012,
            cache_hit: true,
            manifest: manifest(),
            permutation: Some("3\n0\n2\n1\n".into()),
        });
        let back = OpReport::from_json(&Json::parse(&r.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(back, r);

        let m = OpReport::Measure(MeasureReport {
            graph: "g".into(),
            vertices: 5,
            edges: 4,
            rows: vec![MeasureRow {
                scheme: "RCM".into(),
                gaps: sample_gaps(),
                manifest: manifest(),
            }],
        });
        let back = OpReport::from_json(&Json::parse(&m.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(back, m);
        if let OpReport::Measure(m) = &back {
            let text = m.render_text();
            assert!(text.starts_with("gap measures on g (|V|=5, |E|=4):\n"));
            assert!(text.contains("RCM "), "{text}");
        }
    }

    #[test]
    fn compression_report_round_trips_and_renders() {
        let c = OpReport::Compression(CompressionReport {
            graph: "euroroad".into(),
            vertices: 1174,
            edges: 1417,
            arcs: 2834,
            rows: vec![
                CompressionRow {
                    scheme: "Natural".into(),
                    gap_bytes: 3101,
                    bits_per_edge: 8.754,
                    avg_log_gap: 5.5,
                    manifest: manifest(),
                },
                CompressionRow {
                    scheme: "RCM".into(),
                    gap_bytes: 2901,
                    bits_per_edge: 8.19,
                    avg_log_gap: 3.25,
                    manifest: manifest(),
                },
            ],
        });
        let back = OpReport::from_json(&Json::parse(&c.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(back, c);
        if let OpReport::Compression(c) = &back {
            let text = c.render_text();
            assert!(
                text.starts_with(
                    "compression footprint on euroroad (|V|=1174, |E|=1417, arcs=2834):\n"
                ),
                "{text}"
            );
            assert!(text.contains("bits/edge"), "{text}");
            assert!(text.contains("RCM "), "{text}");
        }
    }

    #[test]
    fn validate_and_memsim_round_trip() {
        let v = OpReport::Validate(ValidateReport {
            files: vec![
                FileVerdict {
                    path: "a.mtx".into(),
                    status: "ok".into(),
                    detail: None,
                    vertices: 5,
                    edges: 4,
                    manifest: manifest(),
                },
                FileVerdict {
                    path: "b.el".into(),
                    status: "malformed".into(),
                    detail: Some("parse error at line 3: bad arity".into()),
                    vertices: 0,
                    edges: 0,
                    manifest: manifest(),
                },
            ],
        });
        let back = OpReport::from_json(&Json::parse(&v.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(back, v);
        if let OpReport::Validate(v) = &back {
            assert_eq!(v.files[0].verdict_line(), "a.mtx: ok (|V|=5, |E|=4)");
            assert_eq!(
                v.files[1].verdict_line(),
                "b.el: malformed: parse error at line 3: bad arity"
            );
            let err = v.overall().unwrap_err();
            assert_eq!(err.to_string(), "1 of 2 file(s) malformed");
            assert_eq!(err.exit_code(), 2);
        }

        let m = OpReport::Memsim(MemsimReport {
            graph: "g".into(),
            scheme: "Natural".into(),
            workload: "louvain".into(),
            kernel: "packed".into(),
            loads: 100,
            level_hits: vec![80, 10, 5, 5],
            avg_latency: 7.25,
            bound: vec![0.5, 0.25, 0.125, 0.125],
            l1_hit_rate: 0.8,
        });
        let back = OpReport::from_json(&Json::parse(&m.to_json().to_line()).unwrap()).unwrap();
        assert_eq!(back, m);
        if let OpReport::Memsim(m) = &back {
            let text = m.render_text();
            assert!(text.starts_with("memsim replay: louvain/packed on g (Natural layout)\n"));
            assert!(text.contains("L1   hits    80         (80.0%)"), "{text}");
            assert!(m.render_json().to_line().contains("scaled_cascade_lake"));
        }
    }

    #[test]
    fn large_counters_serialize_exactly() {
        assert_eq!(num_f64(0), 0.0);
        assert_eq!(num_f64(1 << 52), 4_503_599_627_370_496.0);
        assert_eq!(num_f64(123_456_789_012), 123_456_789_012.0);
    }
}

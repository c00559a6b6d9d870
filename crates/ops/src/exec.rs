//! Execution: turning an [`OpRequest`] into an [`OpReport`].
//!
//! `execute` is the single implementation behind both frontends; the CLI
//! calls it with the filesystem resolver and the compute-always
//! permutation source, the daemon injects its corpus resolver and its
//! permutation cache. Behavior (numbers, manifests, error strings) is
//! identical by construction: every measure, every natural-layout memsim
//! replay and a returned permutation's text is read through the fact cell
//! of the ordering or graph it describes ([`crate::facts`]), and only who
//! owns that cell differs between the frontends.

use crate::error::OpError;
use crate::facts::{FactTally, MeasuredOrdering, ReplayWorkload};
use crate::report::{
    CompressionReport, CompressionRow, FileVerdict, GapRow, MeasureReport, MeasureRow,
    MemsimReport, OpReport, ReorderReport, StatsReport, ValidateReport,
};
use crate::request::OpRequest;
use crate::source::{read_graph_auto, ResolveGraph, ResolvedGraph};
use reorderlab_core::measures::GapMeasures;
use reorderlab_core::Scheme;
use reorderlab_graph::{build_pool, Csr, Permutation};
use reorderlab_trace::{recording, span, Manifest, RunRecorder};
use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;

/// Where orderings come from.
///
/// The CLI always computes (`ComputePerm`); the daemon consults its
/// permutation cache first and reports whether the request hit it. Either
/// way the ordering arrives with its measure cells: empty when it was just
/// computed, as filled as earlier requests left them when it was cached.
pub trait PermSource {
    /// Produces the ordering `scheme` defines on `resolved`, together with
    /// whether it came from a cache. A computed ordering records its
    /// phases on the installed recorder.
    ///
    /// # Errors
    ///
    /// [`OpError::Scheme`] when the scheme rejects the graph.
    fn ordering(
        &mut self,
        resolved: &ResolvedGraph,
        scheme: &Scheme,
    ) -> Result<(Arc<MeasuredOrdering>, bool), OpError>;
}

/// The cache-free permutation source: always runs the scheme.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ComputePerm;

impl PermSource for ComputePerm {
    fn ordering(
        &mut self,
        resolved: &ResolvedGraph,
        scheme: &Scheme,
    ) -> Result<(Arc<MeasuredOrdering>, bool), OpError> {
        let pi = scheme.try_reorder(&resolved.graph).map_err(OpError::Scheme)?;
        Ok((Arc::new(MeasuredOrdering::new(pi)), false))
    }
}

/// An executed operation: the report plus the artifacts a frontend may
/// still need (the CLI writes `--out`/`--perm` files from these).
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// The typed result.
    pub report: OpReport,
    /// The ordering a `reorder` produced.
    pub permutation: Option<Arc<MeasuredOrdering>>,
    /// The resolved input graph of a `reorder` (for writing the permuted
    /// graph out) or a `memsim` (whose report does not carry its size).
    pub graph: Option<Arc<Csr>>,
    /// The facts the operation read, reused against computed.
    pub facts: FactTally,
}

impl OpOutcome {
    fn report_only(report: OpReport) -> OpOutcome {
        OpOutcome { report, permutation: None, graph: None, facts: FactTally::default() }
    }
}

/// Runs `f` under a worker-thread bound, like the CLI's global
/// `--threads N`. Every kernel is thread-count invariant, so the bound
/// only affects wall-clock time, never any output.
///
/// # Errors
///
/// [`OpError::Usage`] for a zero bound, plus whatever `f` returns.
pub fn run_with_threads<T>(
    threads: Option<usize>,
    f: impl FnOnce() -> Result<T, OpError> + Send,
) -> Result<T, OpError>
where
    T: Send,
{
    match threads {
        None => f(),
        Some(0) => Err(OpError::Usage("--threads must be at least 1".into())),
        Some(t) => build_pool(t).install(f),
    }
}

/// Executes `request`, computing orderings from scratch.
///
/// # Errors
///
/// Any [`OpError`] the operation produces (resolution, scheme, I/O).
pub fn execute(request: &OpRequest, resolver: &dyn ResolveGraph) -> Result<OpOutcome, OpError> {
    execute_with(request, resolver, &mut ComputePerm)
}

/// Executes `request` with an injected permutation source (the daemon's
/// cache).
///
/// # Errors
///
/// Any [`OpError`] the operation produces (resolution, scheme, I/O).
pub fn execute_with(
    request: &OpRequest,
    resolver: &dyn ResolveGraph,
    perms: &mut dyn PermSource,
) -> Result<OpOutcome, OpError> {
    let mut facts = FactTally::default();
    let mut outcome = match request {
        OpRequest::Stats { source } => {
            let resolved = resolver.resolve(source)?;
            OpOutcome::report_only(OpReport::Stats(exec_stats(&resolved, &mut facts)))
        }
        OpRequest::Reorder { source, scheme, apply_perm, return_perm } => {
            let resolved = resolver.resolve(source)?;
            exec_reorder(
                &resolved,
                scheme.as_deref(),
                apply_perm.as_deref(),
                *return_perm,
                perms,
                &mut facts,
            )?
        }
        OpRequest::Measure { source, schemes } => {
            let resolved = resolver.resolve(source)?;
            OpOutcome::report_only(OpReport::Measure(exec_measure(
                &resolved, schemes, perms, &mut facts,
            )?))
        }
        OpRequest::Compression { source, schemes } => {
            let resolved = resolver.resolve(source)?;
            OpOutcome::report_only(OpReport::Compression(exec_compression(
                &resolved, schemes, perms, &mut facts,
            )?))
        }
        OpRequest::Validate { files } => {
            OpOutcome::report_only(OpReport::Validate(exec_validate(files)))
        }
        OpRequest::Memsim { source, scheme, workload, kernel } => {
            let resolved = resolver.resolve(source)?;
            let report = exec_memsim(
                &resolved,
                scheme.as_deref(),
                workload,
                kernel.as_deref(),
                perms,
                &mut facts,
            )?;
            OpOutcome {
                graph: Some(resolved.graph),
                ..OpOutcome::report_only(OpReport::Memsim(report))
            }
        }
    };
    outcome.facts = facts;
    Ok(outcome)
}

fn gap_row(m: &GapMeasures) -> GapRow {
    GapRow {
        avg_gap: m.avg_gap,
        bandwidth: m.bandwidth,
        avg_bandwidth: m.avg_bandwidth,
        avg_log_gap: m.avg_log_gap,
    }
}

fn exec_stats(resolved: &ResolvedGraph, facts: &mut FactTally) -> StatsReport {
    let g = &resolved.graph;
    let (s, rec) = recording(RunRecorder::new(), || {
        let _stats = span("stats");
        resolved.facts.stats(g, facts)
    });
    let mut m = Manifest::new("stats", &resolved.id, g.num_vertices(), g.num_edges())
        .with_seed(42)
        .with_threads(rayon::current_num_threads());
    m.absorb(&rec);
    m.push_measure("max_degree", int_f64(s.max_degree));
    m.push_measure("mean_degree", s.mean_degree);
    m.push_measure("degree_std_dev", s.degree_std_dev);
    m.push_measure("triangles", u64_f64(s.triangles));
    m.push_measure("clustering_coefficient", s.clustering_coefficient);
    StatsReport {
        graph: resolved.id.clone(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        max_degree: s.max_degree,
        mean_degree: s.mean_degree,
        degree_std_dev: s.degree_std_dev,
        triangles: s.triangles,
        clustering_coefficient: s.clustering_coefficient,
        manifest: m,
    }
}

fn exec_reorder(
    resolved: &ResolvedGraph,
    scheme_spec: Option<&str>,
    apply_perm: Option<&str>,
    return_perm: bool,
    perms: &mut dyn PermSource,
    facts: &mut FactTally,
) -> Result<OpOutcome, OpError> {
    let g = Arc::clone(&resolved.graph);
    let (run, rec) = recording(RunRecorder::new(), || {
        let t0 = std::time::Instant::now();
        // Either compute an ordering from a scheme, or apply a saved one.
        let (pi, label, scheme, cache_hit) = if let Some(path) = apply_perm {
            let file =
                File::open(path).map_err(|e| OpError::Io(format!("cannot open {path}: {e}")))?;
            let pi = Permutation::read_text(BufReader::new(file))
                .map_err(|e| OpError::Parse(format!("failed to parse {path}: {e}")))?;
            if pi.len() != g.num_vertices() {
                return Err(OpError::Parse(format!(
                    "permutation covers {} vertices but the graph has {}",
                    pi.len(),
                    g.num_vertices()
                )));
            }
            (Arc::new(MeasuredOrdering::new(pi)), format!("perm file {path}"), None, false)
        } else {
            let spec = scheme_spec.ok_or_else(|| {
                OpError::Usage(
                    "need --scheme NAME or --apply-perm FILE (see `reorderlab list`)".into(),
                )
            })?;
            let scheme = Scheme::parse(spec)?;
            let (pi, hit) = perms.ordering(resolved, &scheme)?;
            (pi, scheme.name().to_string(), Some(scheme), hit)
        };
        let elapsed = t0.elapsed();
        let _measure = span("measure");
        let before = resolved.facts.natural_gaps(&g, facts);
        let after = pi.gaps(&g, facts);
        Ok((pi, label, scheme, cache_hit, elapsed, before, after))
    });
    let (pi, label, scheme, cache_hit, elapsed, before, after) = run?;
    let mut m = Manifest::new("reorder", &resolved.id, g.num_vertices(), g.num_edges())
        .with_seed(scheme.as_ref().map_or(42, Scheme::manifest_seed))
        .with_threads(rayon::current_num_threads());
    if let Some(s) = &scheme {
        m = m.with_scheme(s.name(), &s.spec());
    } else {
        m.push_note("source", &label);
    }
    m.absorb(&rec);
    m.push_measure("reorder_wall_s", elapsed.as_secs_f64());
    m.push_measure("avg_gap_before", before.avg_gap);
    m.push_measure("avg_gap", after.avg_gap);
    m.push_measure("bandwidth_before", f64::from(before.bandwidth));
    m.push_measure("bandwidth", f64::from(after.bandwidth));
    m.push_measure("avg_bandwidth_before", before.avg_bandwidth);
    m.push_measure("avg_bandwidth", after.avg_bandwidth);
    m.push_measure("avg_log_gap", after.avg_log_gap);
    let permutation = if return_perm {
        Some(pi.text(facts).map_err(|e| OpError::Io(e.to_string()))?.to_string())
    } else {
        None
    };
    let report = ReorderReport {
        graph: resolved.id.clone(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        label,
        before: gap_row(&before),
        after: gap_row(&after),
        wall_s: elapsed.as_secs_f64(),
        cache_hit,
        manifest: m,
        permutation,
    };
    Ok(OpOutcome {
        report: OpReport::Reorder(report),
        permutation: Some(pi),
        graph: Some(g),
        facts: FactTally::default(),
    })
}

fn exec_measure(
    resolved: &ResolvedGraph,
    specs: &[String],
    perms: &mut dyn PermSource,
    facts: &mut FactTally,
) -> Result<MeasureReport, OpError> {
    let g = &resolved.graph;
    // Parse every spec up front so a bad one fails the whole request
    // before any scheme runs (matching the CLI).
    let mut schemes: Vec<Scheme> = Vec::new();
    for s in specs {
        schemes.push(Scheme::parse(s)?);
    }
    if schemes.is_empty() {
        schemes = Scheme::evaluation_suite(42);
    }
    let mut rows = Vec::with_capacity(schemes.len());
    for scheme in schemes {
        let (m, rec) = recording(RunRecorder::new(), || {
            let (pi, _) = perms.ordering(resolved, &scheme)?;
            let _measure = span("measure");
            Ok::<_, OpError>(pi.gaps(g, facts))
        });
        let m = m?;
        let mut man = Manifest::new("measure", &resolved.id, g.num_vertices(), g.num_edges())
            .with_scheme(scheme.name(), &scheme.spec())
            .with_seed(scheme.manifest_seed())
            .with_threads(rayon::current_num_threads());
        man.absorb(&rec);
        man.push_measure("avg_gap", m.avg_gap);
        man.push_measure("bandwidth", f64::from(m.bandwidth));
        man.push_measure("avg_bandwidth", m.avg_bandwidth);
        man.push_measure("avg_log_gap", m.avg_log_gap);
        rows.push(MeasureRow {
            scheme: scheme.name().to_string(),
            gaps: gap_row(&m),
            manifest: man,
        });
    }
    Ok(MeasureReport {
        graph: resolved.id.clone(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        rows,
    })
}

fn exec_compression(
    resolved: &ResolvedGraph,
    specs: &[String],
    perms: &mut dyn PermSource,
    facts: &mut FactTally,
) -> Result<CompressionReport, OpError> {
    let g = &resolved.graph;
    // Parse every spec up front so a bad one fails the whole request
    // before any scheme runs (matching `measure`).
    let mut schemes: Vec<Scheme> = Vec::new();
    for s in specs {
        schemes.push(Scheme::parse(s)?);
    }
    if schemes.is_empty() {
        schemes = Scheme::evaluation_suite(42);
    }
    let mut rows = Vec::with_capacity(schemes.len());
    for scheme in schemes {
        let (measured, rec) = recording(RunRecorder::new(), || {
            let (pi, _) = perms.ordering(resolved, &scheme)?;
            let _compress = span("compress");
            // Unreachable in practice: the ordering was produced for this
            // very graph, so the lengths agree; keep the plumbing typed
            // regardless.
            let comp = pi
                .compression(g, facts)
                .map_err(|e| OpError::Parse(format!("{}: {e}", scheme.name())))?;
            Ok::<_, OpError>((comp, pi.gaps(g, facts)))
        });
        let (comp, gaps) = measured?;
        let mut man = Manifest::new("compression", &resolved.id, g.num_vertices(), g.num_edges())
            .with_scheme(scheme.name(), &scheme.spec())
            .with_seed(scheme.manifest_seed())
            .with_threads(rayon::current_num_threads());
        man.absorb(&rec);
        man.push_measure("gap_bytes", u64_f64(comp.gap_bytes));
        man.push_measure("bits_per_edge", comp.bits_per_edge);
        man.push_measure("avg_log_gap", gaps.avg_log_gap);
        rows.push(CompressionRow {
            scheme: scheme.name().to_string(),
            gap_bytes: comp.gap_bytes,
            bits_per_edge: comp.bits_per_edge,
            avg_log_gap: gaps.avg_log_gap,
            manifest: man,
        });
    }
    Ok(CompressionReport {
        graph: resolved.id.clone(),
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        arcs: g.num_arcs(),
        rows,
    })
}

/// The outcome of validating one input file.
enum Verdict {
    /// Parsed cleanly into a graph of this size.
    Clean { vertices: usize, edges: usize },
    /// The file could not be opened or read at all.
    Unreadable(String),
    /// The file opened but the reader rejected it; the message carries a
    /// 1-based line number (`parse error at line N: …`).
    Malformed(String),
}

/// Parses one file with the reader its extension selects (the same
/// dispatch as [`read_graph_auto`]), without building anything downstream.
fn validate_file(path: &str) -> Verdict {
    match read_graph_auto(path) {
        Ok(g) => Verdict::Clean { vertices: g.num_vertices(), edges: g.num_edges() },
        // `read_graph_auto` wraps messages with the path for command
        // errors; validate verdicts historically carry the bare reader
        // message, so strip the prefix it added.
        Err(OpError::Io(msg)) => {
            Verdict::Unreadable(strip_prefix(&msg, &format!("cannot open {path}: ")))
        }
        Err(e) => {
            Verdict::Malformed(strip_prefix(&e.to_string(), &format!("failed to parse {path}: ")))
        }
    }
}

fn strip_prefix(msg: &str, prefix: &str) -> String {
    msg.strip_prefix(prefix).unwrap_or(msg).to_string()
}

fn exec_validate(files: &[String]) -> ValidateReport {
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let verdict = validate_file(path);
        let (status, detail, vertices, edges) = match verdict {
            Verdict::Clean { vertices, edges } => ("ok", None, vertices, edges),
            Verdict::Unreadable(msg) => ("unreadable", Some(msg), 0, 0),
            Verdict::Malformed(msg) => ("malformed", Some(msg), 0, 0),
        };
        let mut m = Manifest::new("validate", path, vertices, edges)
            .with_seed(42)
            .with_threads(rayon::current_num_threads());
        m.push_note("status", status);
        if let Some(msg) = &detail {
            m.push_note("error", msg);
        }
        out.push(FileVerdict {
            path: path.clone(),
            status: status.to_string(),
            detail,
            vertices,
            edges,
            manifest: m,
        });
    }
    ValidateReport { files: out }
}

fn exec_memsim(
    resolved: &ResolvedGraph,
    scheme_spec: Option<&str>,
    workload: &str,
    kernel: Option<&str>,
    perms: &mut dyn PermSource,
    facts: &mut FactTally,
) -> Result<MemsimReport, OpError> {
    // Each workload replays the one kernel the applications run; `--kernel`
    // may name it, and nothing else.
    let workload = ReplayWorkload::parse(workload).ok_or_else(|| {
        let names: Vec<&str> = ReplayWorkload::ALL.iter().map(|w| w.name()).collect();
        OpError::Usage(format!("unknown workload {workload:?}; try {}", names.join("|")))
    })?;
    if let Some(other) = kernel.filter(|&k| k != workload.kernel()) {
        return Err(OpError::Usage(format!(
            "unknown {} kernel {other:?}; try {}",
            workload.name(),
            workload.kernel()
        )));
    }

    let g: &Csr = &resolved.graph;
    // With a scheme, the replay walks the graph as that ordering lays it
    // out, keeping the ordering so every layout walks the same logical
    // traversal (matching the `bench snapshot` corpus semantics). Only the
    // natural layout's replay is a fact of the graph's cell.
    let (scheme_name, r) = match scheme_spec {
        Some(spec) => {
            let scheme = Scheme::parse(spec)?;
            scheme
                .validate(g.num_vertices())
                .map_err(|e| OpError::Usage(format!("scheme {spec:?}: {e}")))?;
            // The report carries no manifest, so nothing installs a
            // recorder for the scheme's phases.
            let (pi, _) = perms.ordering(resolved, &scheme)?;
            let laid_out = g
                .permuted(&pi)
                .map_err(|e| OpError::Parse(format!("permutation rejected: {e}")))?;
            (scheme.name().to_string(), workload.replay(&laid_out, Some(&pi)))
        }
        None => ("Natural".to_string(), resolved.facts.replay(g, workload, facts)),
    };
    Ok(MemsimReport {
        graph: resolved.id.clone(),
        scheme: scheme_name,
        workload: workload.name().to_string(),
        kernel: workload.kernel().to_string(),
        loads: r.loads,
        level_hits: r.level_hits.to_vec(),
        avg_latency: r.avg_latency,
        bound: r.bound.to_vec(),
        l1_hit_rate: r.l1_hit_rate(),
    })
}

/// `usize` → exact `f64` for manifest measures (counts stay below 2^53).
fn int_f64(x: usize) -> f64 {
    u64_f64(u64::try_from(x).unwrap_or(u64::MAX))
}

/// `u64` → exact `f64` without a lossy `as` cast.
fn u64_f64(x: u64) -> f64 {
    let high = u32::try_from(x >> 32).unwrap_or(u32::MAX);
    let low = u32::try_from(x & 0xFFFF_FFFF).unwrap_or(u32::MAX);
    f64::from(high) * 4_294_967_296.0 + f64::from(low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FsResolver, GraphSource, ResolveGraph};
    use reorderlab_graph::GraphStats;
    use std::collections::BTreeMap;

    fn instance(name: &str) -> GraphSource {
        GraphSource::Instance(name.into())
    }

    /// A resolver that keeps its graphs and their fact cells, as the
    /// daemon's corpus does.
    struct KeptGraphs(Vec<ResolvedGraph>);

    impl KeptGraphs {
        fn new(names: &[&str]) -> KeptGraphs {
            KeptGraphs(names.iter().map(|n| FsResolver.resolve(&instance(n)).unwrap()).collect())
        }
    }

    impl ResolveGraph for KeptGraphs {
        fn resolve(&self, source: &GraphSource) -> Result<ResolvedGraph, OpError> {
            Ok(self.0.iter().find(|r| r.id == source.id()).expect("a kept graph").clone())
        }
    }

    /// A permutation source that keeps its orderings and their measure
    /// cells, as the daemon's cache does.
    #[derive(Default)]
    struct KeptPerms(BTreeMap<(String, String), Arc<MeasuredOrdering>>);

    impl PermSource for KeptPerms {
        fn ordering(
            &mut self,
            resolved: &ResolvedGraph,
            scheme: &Scheme,
        ) -> Result<(Arc<MeasuredOrdering>, bool), OpError> {
            let key = (resolved.id.clone(), scheme.spec());
            if let Some(kept) = self.0.get(&key) {
                return Ok((Arc::clone(kept), true));
            }
            let (pi, _) = ComputePerm.ordering(resolved, scheme)?;
            self.0.insert(key, Arc::clone(&pi));
            Ok((pi, false))
        }
    }

    /// `report` without what legitimately differs between a computed and a
    /// memoized answer: wall times, the hit flag, and the recorder's view
    /// of a scheme that did or did not run.
    fn without_timing(mut report: OpReport) -> OpReport {
        fn strip(m: &mut Manifest) {
            m.threads = 0;
            m.phases.clear();
            m.counters.clear();
            m.series.clear();
            m.measures.retain(|(name, _)| name != "reorder_wall_s");
        }
        match &mut report {
            OpReport::Stats(s) => strip(&mut s.manifest),
            OpReport::Reorder(r) => {
                r.wall_s = 0.0;
                r.cache_hit = false;
                strip(&mut r.manifest);
            }
            OpReport::Measure(m) => m.rows.iter_mut().for_each(|row| strip(&mut row.manifest)),
            OpReport::Compression(c) => c.rows.iter_mut().for_each(|row| strip(&mut row.manifest)),
            OpReport::Validate(_) | OpReport::Memsim(_) => {}
        }
        report
    }

    /// Every request whose numbers are facts, on one graph: the memsim
    /// requests replay each workload once in the natural layout.
    fn fact_reading_requests(name: &str) -> [OpRequest; 7] {
        [
            OpRequest::Stats { source: instance(name) },
            OpRequest::Reorder {
                source: instance(name),
                scheme: Some("rcm".into()),
                apply_perm: None,
                return_perm: true,
            },
            OpRequest::Measure {
                source: instance(name),
                schemes: vec!["rcm".into(), "dbg".into()],
            },
            OpRequest::Compression {
                source: instance(name),
                schemes: vec!["natural".into(), "rcm".into()],
            },
            OpRequest::Memsim {
                source: instance(name),
                scheme: None,
                workload: "louvain".into(),
                kernel: None,
            },
            OpRequest::Memsim {
                source: instance(name),
                scheme: None,
                workload: "rr".into(),
                kernel: None,
            },
            OpRequest::Memsim {
                source: instance(name),
                scheme: None,
                workload: "pagerank".into(),
                kernel: None,
            },
        ]
    }

    /// One body for both front ends: with fresh cells (the CLI) every fact
    /// is computed; with kept cells (the daemon) the second answer runs no
    /// graph pass; and all three answers are the same numbers.
    #[test]
    fn memoized_reports_equal_computed_ones_in_every_non_time_field() {
        let kept = KeptGraphs::new(&["euroroad", "rovira"]);
        let mut perms = KeptPerms::default();
        for name in ["euroroad", "rovira"] {
            for request in fact_reading_requests(name) {
                let local = execute(&request, &FsResolver).unwrap();
                assert_eq!(local.facts.reused, 0, "the CLI path memoizes nothing: {request:?}");
                assert!(local.facts.computed > 0, "{request:?}");
                let first = execute_with(&request, &kept, &mut perms).unwrap();
                let second = execute_with(&request, &kept, &mut perms).unwrap();
                assert_eq!(
                    first.facts.reused + first.facts.computed,
                    local.facts.computed,
                    "the same reads either way: {request:?}"
                );
                assert_eq!(
                    second.facts,
                    FactTally { reused: local.facts.computed, computed: 0 },
                    "{request:?}"
                );
                let local = without_timing(local.report);
                assert_eq!(without_timing(first.report), local, "computed: {request:?}");
                assert_eq!(without_timing(second.report), local, "memoized: {request:?}");
            }
        }
    }

    #[test]
    fn a_new_ordering_of_a_known_graph_costs_one_gap_pass() {
        let kept = KeptGraphs::new(&["euroroad"]);
        let mut perms = KeptPerms::default();
        let reorder = |scheme: &str| OpRequest::Reorder {
            source: instance("euroroad"),
            scheme: Some(scheme.into()),
            apply_perm: None,
            return_perm: false,
        };
        let first = execute_with(&reorder("rcm"), &kept, &mut perms).unwrap();
        assert_eq!(first.facts, FactTally { reused: 0, computed: 2 });
        // The `before` row is the graph's; only the `after` row is new.
        let miss = execute_with(&reorder("random:seed=1"), &kept, &mut perms).unwrap();
        assert_eq!(miss.facts, FactTally { reused: 1, computed: 1 });
        let hit = execute_with(&reorder("random:seed=1"), &kept, &mut perms).unwrap();
        assert_eq!(hit.facts, FactTally { reused: 2, computed: 0 });
    }

    #[test]
    fn stats_matches_direct_computation() {
        let req = OpRequest::Stats { source: instance("euroroad") };
        let out = execute(&req, &FsResolver).unwrap();
        let OpReport::Stats(s) = &out.report else { panic!("wrong report") };
        let g = reorderlab_datasets::by_name("euroroad").unwrap().generate();
        let direct = GraphStats::compute(&g);
        assert_eq!(s.vertices, direct.num_vertices);
        assert_eq!(s.edges, direct.num_edges);
        assert_eq!(s.max_degree, direct.max_degree);
        assert_eq!(s.triangles, direct.triangles);
        assert_eq!(s.manifest.command, "stats");
        assert_eq!(s.manifest.measure("triangles"), Some(u64_f64(direct.triangles)));
    }

    #[test]
    fn reorder_produces_permutation_and_manifest() {
        let req = OpRequest::Reorder {
            source: instance("euroroad"),
            scheme: Some("rcm".into()),
            apply_perm: None,
            return_perm: true,
        };
        let out = execute(&req, &FsResolver).unwrap();
        let OpReport::Reorder(r) = &out.report else { panic!("wrong report") };
        assert_eq!(r.label, "RCM");
        assert!(!r.cache_hit);
        assert!(r.after.bandwidth <= r.before.bandwidth);
        let pi = out.permutation.as_ref().unwrap();
        assert_eq!(pi.len(), r.vertices);
        // The returned text form round-trips to the same permutation.
        let text = r.permutation.as_ref().unwrap();
        let parsed = Permutation::read_text(text.as_bytes()).unwrap();
        assert_eq!(parsed.ranks(), pi.ranks());
    }

    #[test]
    fn reorder_without_scheme_or_perm_is_usage() {
        let req = OpRequest::Reorder {
            source: instance("euroroad"),
            scheme: None,
            apply_perm: None,
            return_perm: false,
        };
        let err = execute(&req, &FsResolver).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--scheme"));
    }

    #[test]
    fn measure_defaults_to_the_evaluation_suite() {
        let req = OpRequest::Measure { source: instance("euroroad"), schemes: Vec::new() };
        let out = execute(&req, &FsResolver).unwrap();
        let OpReport::Measure(m) = &out.report else { panic!("wrong report") };
        assert_eq!(m.rows.len(), Scheme::evaluation_suite(42).len());
        for row in &m.rows {
            assert_eq!(row.manifest.command, "measure");
            assert_eq!(row.manifest.measure("avg_gap"), Some(row.gaps.avg_gap));
        }
    }

    #[test]
    fn compression_reports_exact_footprints() {
        use reorderlab_core::measures::try_compression_measures;
        let req = OpRequest::Compression {
            source: instance("euroroad"),
            schemes: vec!["natural".into(), "rcm".into()],
        };
        let out = execute(&req, &FsResolver).unwrap();
        let OpReport::Compression(c) = &out.report else { panic!("wrong report") };
        assert_eq!(c.rows.len(), 2);
        assert_eq!(c.arcs, 2 * c.edges);
        // The natural row must match the measure computed directly.
        let g = reorderlab_datasets::by_name("euroroad").unwrap().generate();
        let direct =
            try_compression_measures(&g, &Permutation::identity(g.num_vertices())).unwrap();
        assert_eq!(c.rows[0].gap_bytes, direct.gap_bytes);
        assert_eq!(c.rows[0].bits_per_edge, direct.bits_per_edge);
        for row in &c.rows {
            assert_eq!(row.manifest.command, "compression");
            assert_eq!(row.manifest.measure("gap_bytes"), Some(u64_f64(row.gap_bytes)));
            assert_eq!(row.manifest.measure("bits_per_edge"), Some(row.bits_per_edge));
            // Realized cost never beats its information-theoretic bound.
            assert!(row.avg_log_gap <= row.bits_per_edge, "{row:?}");
        }
        // RCM improves (or at worst matches) the natural footprint on this
        // locality-friendly road network.
        assert!(c.rows[1].gap_bytes <= c.rows[0].gap_bytes);
    }

    #[test]
    fn compression_defaults_to_the_evaluation_suite() {
        let req = OpRequest::Compression { source: instance("euroroad"), schemes: Vec::new() };
        let out = execute(&req, &FsResolver).unwrap();
        let OpReport::Compression(c) = &out.report else { panic!("wrong report") };
        assert_eq!(c.rows.len(), Scheme::evaluation_suite(42).len());
    }

    #[test]
    fn executions_are_deterministic() {
        let req = OpRequest::Measure {
            source: instance("euroroad"),
            schemes: vec!["rcm".into(), "dbg".into()],
        };
        let a = execute(&req, &FsResolver).unwrap();
        let b = execute(&req, &FsResolver).unwrap();
        let (OpReport::Measure(a), OpReport::Measure(b)) = (&a.report, &b.report) else {
            panic!("wrong reports")
        };
        assert_eq!(a.render_text(), b.render_text());
    }

    #[test]
    fn validate_reports_mixed_verdicts() {
        let dir = std::env::temp_dir();
        let ok = dir.join(format!("ops_exec_ok_{}.el", std::process::id()));
        std::fs::write(&ok, "0 1\n1 2\n").unwrap();
        let bad = dir.join(format!("ops_exec_bad_{}.mtx", std::process::id()));
        std::fs::write(&bad, "garbage\n").unwrap();
        let req = OpRequest::Validate {
            files: vec![
                ok.to_string_lossy().into_owned(),
                bad.to_string_lossy().into_owned(),
                "/nonexistent/x.el".into(),
            ],
        };
        let out = execute(&req, &FsResolver).unwrap();
        let OpReport::Validate(v) = &out.report else { panic!("wrong report") };
        assert_eq!(v.files[0].status, "ok");
        assert_eq!(v.files[1].status, "malformed");
        assert_eq!(v.files[2].status, "unreadable");
        // Malformed dominates unreadable in the overall verdict.
        assert_eq!(v.overall().unwrap_err().exit_code(), 2);
        let _ = std::fs::remove_file(&ok);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn memsim_replays_deterministically() {
        let req = OpRequest::Memsim {
            source: instance("euroroad"),
            scheme: Some("dbg".into()),
            workload: "rr".into(),
            kernel: Some("classic".into()),
        };
        let a = execute(&req, &FsResolver).unwrap();
        let b = execute(&req, &FsResolver).unwrap();
        let (OpReport::Memsim(a), OpReport::Memsim(b)) = (&a.report, &b.report) else {
            panic!("wrong reports")
        };
        assert_eq!(a, b);
        assert!(a.loads > 0);
        assert_eq!(a.scheme, "DBG");
    }

    #[test]
    fn memsim_takes_its_ordering_from_the_permutation_source() {
        let memsim = |scheme: &str| OpRequest::Memsim {
            source: instance("euroroad"),
            scheme: Some(scheme.into()),
            workload: "pagerank".into(),
            kernel: None,
        };
        let kept = KeptGraphs::new(&["euroroad"]);
        let mut perms = KeptPerms::default();
        let first = execute_with(&memsim("dbg"), &kept, &mut perms).unwrap();
        assert_eq!(perms.0.len(), 1, "the ordering came from, and stayed with, the source");
        let again = execute_with(&memsim("dbg"), &kept, &mut perms).unwrap();
        let local = execute(&memsim("dbg"), &FsResolver).unwrap();
        assert_eq!(first.report, local.report);
        assert_eq!(again.report, local.report);
        let unmemoized = "a replay in a scheme's layout is not memoized";
        assert_eq!(first.facts, FactTally::default(), "{unmemoized}");
        assert_eq!(again.facts, FactTally::default(), "{unmemoized}");
        // Parameters are still validated first, as a usage error.
        let e = execute_with(&memsim("metis:parts=99999"), &kept, &mut perms).unwrap_err();
        assert!(matches!(e, OpError::Usage(_)), "{e}");
        assert!(e.to_string().starts_with("scheme \"metis:parts=99999\": "), "{e}");
        assert_eq!(perms.0.len(), 1);
    }

    #[test]
    fn memsim_accepts_only_the_production_kernel() {
        let memsim = |workload: &str, kernel: Option<&str>| {
            let req = OpRequest::Memsim {
                source: instance("euroroad"),
                scheme: None,
                workload: workload.into(),
                kernel: kernel.map(str::to_string),
            };
            execute(&req, &FsResolver).map(|out| {
                let OpReport::Memsim(m) = out.report else { panic!("wrong report") };
                (m.kernel.clone(), m.render_text(), m.render_json().to_line())
            })
        };
        // Naming the production kernel is the default, byte for byte.
        for (workload, name) in [("louvain", "packed"), ("rr", "classic"), ("pagerank", "pull")] {
            let default = memsim(workload, None).unwrap();
            assert_eq!(default.0, name);
            assert_eq!(memsim(workload, Some(name)).unwrap(), default, "{workload}");
        }
        // Retired variants are usage errors that name the accepted value.
        for (workload, retired, accepted) in [
            ("louvain", "blocked", "packed"),
            ("louvain", "flat", "packed"),
            ("louvain", "hashmap", "packed"),
            ("rr", "hubsplit", "classic"),
        ] {
            let e = memsim(workload, Some(retired)).unwrap_err();
            assert!(matches!(e, OpError::Usage(_)), "{e}");
            let text = e.to_string();
            assert!(text.contains(retired) && text.ends_with(&format!("try {accepted}")), "{text}");
        }
    }

    #[test]
    fn thread_bound_never_changes_results() {
        let req = OpRequest::Measure { source: instance("euroroad"), schemes: vec!["rcm".into()] };
        let base = execute(&req, &FsResolver).unwrap();
        let OpReport::Measure(base) = base.report else { panic!("wrong report") };
        for t in [1usize, 2, 7] {
            let out = run_with_threads(Some(t), || execute(&req, &FsResolver)).unwrap();
            let OpReport::Measure(m) = out.report else { panic!("wrong report") };
            assert_eq!(m.render_text(), base.render_text(), "threads={t}");
        }
        assert!(run_with_threads(Some(0), || Ok(())).is_err());
    }
}

//! The scheme registry: a closed enumeration of every reordering scheme the
//! paper evaluates, with uniform dispatch. Harness code sweeps
//! [`Scheme::evaluation_suite`] to reproduce the 11-scheme comparisons of
//! §V.
//!
//! The registry offers three dispatch entry points:
//!
//! - [`Scheme::try_reorder`] — validates parameters against the graph and
//!   returns a typed [`SchemeError`] instead of panicking;
//! - [`Scheme::reorder`] — thin wrapper that panics with the error's
//!   message, for callers that treat bad parameters as bugs;
//! - [`Scheme::try_reorder_recorded`] — [`Scheme::try_reorder`] under
//!   [`recording`](reorderlab_trace::recording), for callers that hold a
//!   [`RunRecorder`] rather than install one.
//!
//! Every entry point runs under a `"reorder"` span and records the
//! scheme's per-phase spans and counters on the installed recorder, if
//! any. Recording only observes: outputs are bit-identical with or without
//! a recorder at any thread count.
//!
//! Specs round-trip through [`Scheme::parse`] / [`Scheme::spec`] using the
//! grammar `name[:key=val,...]` (e.g. `slashburn:k_frac=0.005`,
//! `metis:parts=32,seed=42`), with single positional parameters accepted
//! for back-compatibility (`random:7`, `metis:64`).

use crate::error::SchemeError;
use crate::schemes::{
    adaptive_order, cdfs_order, comm_order, dbg_order, degree_sort, gorder, grappolo_order,
    grappolo_rcm_order, hub_cluster, hub_cluster_dbg_order, hub_sort, hub_sort_dbg_order,
    metis_order, natural_order, nd_order, rabbit_order, random_order, rcm_order, slashburn_order,
    CommIntra, DegreeDirection,
};
use reorderlab_graph::{Csr, Permutation};
use reorderlab_trace::{recording, span, RunRecorder};

/// A vertex reordering scheme, parameterized where the paper parameterizes
/// it (Random's seed, METIS's part count, Gorder's window, SlashBurn's hub
/// fraction).
///
/// # Examples
///
/// ```
/// use reorderlab_core::Scheme;
/// use reorderlab_datasets::grid2d;
///
/// let g = grid2d(8, 8);
/// for scheme in Scheme::evaluation_suite(7) {
///     let pi = scheme.reorder(&g);
///     assert_eq!(pi.len(), 64, "{} must order every vertex", scheme.name());
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Scheme {
    /// The input order (identity).
    Natural,
    /// Uniform random shuffle.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Sort by degree.
    DegreeSort {
        /// Sort direction.
        direction: DegreeDirection,
    },
    /// Hubs first, sorted by degree \[38\].
    HubSort,
    /// Hubs first, natural order within \[2\].
    HubCluster,
    /// Iterative hub slashing \[21\].
    SlashBurn {
        /// Fraction of remaining vertices slashed per round.
        k_frac: f64,
    },
    /// Window-based Gscore greedy \[37\].
    Gorder {
        /// Window size.
        window: usize,
    },
    /// Reverse Cuthill–McKee \[9\].
    Rcm,
    /// Children Depth-First Search \[3\]: RCM without the per-level degree
    /// sort (the paper's footnote 1).
    Cdfs,
    /// Nested dissection \[15, 23\].
    NestedDissection {
        /// Partitioner seed.
        seed: u64,
    },
    /// Partition-induced ordering (METIS-style) \[22\].
    Metis {
        /// Number of parts.
        parts: usize,
        /// Partitioner seed.
        seed: u64,
    },
    /// Community-contiguous ordering from parallel Louvain \[28\].
    Grappolo,
    /// Communities ordered by RCM on the coarsened graph (this paper).
    GrappoloRcm,
    /// Incremental-aggregation community ordering \[1\].
    RabbitOrder,
    /// Degree-Based Grouping: power-of-two degree buckets, hottest first,
    /// natural order within (Faldu et al.).
    Dbg,
    /// DBG with each bucket's hubs degree-sorted to its front.
    HubSortDbg,
    /// Hub/cold split with DBG bucket grouping of the hubs only.
    HubClusterDbg,
    /// Louvain communities cluster-major, BFS inside each community.
    CommunityBfs,
    /// Louvain communities cluster-major, DFS inside each community.
    CommunityDfs,
    /// Louvain communities cluster-major, degree-sorted inside each.
    CommunityDegree,
    /// Feature-driven selection among the lightweight schemes, with a
    /// recorded decision trail (see
    /// [`adaptive_decide`](crate::schemes::adaptive_decide)).
    Adaptive,
}

impl Scheme {
    /// Stable display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Natural => "Natural",
            Scheme::Random { .. } => "Random",
            Scheme::DegreeSort { direction: DegreeDirection::Decreasing } => "DegreeSort",
            Scheme::DegreeSort { direction: DegreeDirection::Increasing } => "DegreeSortAsc",
            Scheme::HubSort => "HubSort",
            Scheme::HubCluster => "HubCluster",
            Scheme::SlashBurn { .. } => "SlashBurn",
            Scheme::Gorder { .. } => "Gorder",
            Scheme::Rcm => "RCM",
            Scheme::Cdfs => "CDFS",
            Scheme::NestedDissection { .. } => "ND",
            Scheme::Metis { .. } => "METIS",
            Scheme::Grappolo => "Grappolo",
            Scheme::GrappoloRcm => "Grappolo-RCM",
            Scheme::RabbitOrder => "Rabbit",
            Scheme::Dbg => "DBG",
            Scheme::HubSortDbg => "HubSortDBG",
            Scheme::HubClusterDbg => "HubClusterDBG",
            Scheme::CommunityBfs => "CommBFS",
            Scheme::CommunityDfs => "CommDFS",
            Scheme::CommunityDegree => "CommDegree",
            Scheme::Adaptive => "Adaptive",
        }
    }

    /// Checks this scheme's parameters against a graph of `vertices`
    /// vertices: `k_frac ∈ (0, 1]` (NaN rejected), `window ≥ 1`,
    /// `parts ≥ 1`, and `parts ≤ vertices`.
    ///
    /// # Errors
    ///
    /// The [`SchemeError`] variant naming the violated constraint.
    pub fn validate(&self, vertices: usize) -> Result<(), SchemeError> {
        match *self {
            Scheme::SlashBurn { k_frac } if !(k_frac > 0.0 && k_frac <= 1.0) => {
                Err(SchemeError::KFracOutOfRange { k_frac })
            }
            Scheme::Gorder { window: 0 } => Err(SchemeError::WindowTooSmall { window: 0 }),
            Scheme::Metis { parts: 0, .. } => Err(SchemeError::PartsTooSmall { parts: 0 }),
            Scheme::Metis { parts, .. } if parts > vertices => {
                Err(SchemeError::PartsExceedVertices { parts, vertices })
            }
            _ => Ok(()),
        }
    }

    /// Computes this scheme's permutation for `graph`, validating
    /// parameters first. The computation runs under a `"reorder"` span of
    /// the installed recorder, with the scheme's own phases underneath.
    ///
    /// # Errors
    ///
    /// Returns the [`SchemeError`] from [`Scheme::validate`], recording
    /// nothing; the computation itself is infallible.
    ///
    /// # Examples
    ///
    /// ```
    /// use reorderlab_core::{Scheme, SchemeError};
    /// use reorderlab_datasets::grid2d;
    ///
    /// let g = grid2d(3, 3); // 9 vertices
    /// let err = Scheme::Metis { parts: 32, seed: 0 }.try_reorder(&g).unwrap_err();
    /// assert_eq!(err, SchemeError::PartsExceedVertices { parts: 32, vertices: 9 });
    /// ```
    pub fn try_reorder(&self, graph: &Csr) -> Result<Permutation, SchemeError> {
        self.validate(graph.num_vertices())?;
        let _reorder = span("reorder");
        Ok(match *self {
            Scheme::Natural => natural_order(graph),
            Scheme::Random { seed } => random_order(graph, seed),
            Scheme::DegreeSort { direction } => degree_sort(graph, direction),
            Scheme::HubSort => hub_sort(graph),
            Scheme::HubCluster => hub_cluster(graph),
            Scheme::SlashBurn { k_frac } => slashburn_order(graph, k_frac),
            Scheme::Gorder { window } => gorder(graph, window, 4096),
            Scheme::Rcm => rcm_order(graph),
            Scheme::Cdfs => cdfs_order(graph),
            Scheme::NestedDissection { seed } => nd_order(graph, seed),
            Scheme::Metis { parts, seed } => metis_order(graph, parts, seed),
            Scheme::Grappolo => grappolo_order(graph),
            Scheme::GrappoloRcm => grappolo_rcm_order(graph),
            Scheme::RabbitOrder => rabbit_order(graph),
            Scheme::Dbg => dbg_order(graph),
            Scheme::HubSortDbg => hub_sort_dbg_order(graph),
            Scheme::HubClusterDbg => hub_cluster_dbg_order(graph),
            Scheme::CommunityBfs => comm_order(graph, CommIntra::Bfs),
            Scheme::CommunityDfs => comm_order(graph, CommIntra::Dfs),
            Scheme::CommunityDegree => comm_order(graph, CommIntra::Degree),
            Scheme::Adaptive => adaptive_order(graph),
        })
    }

    /// Computes this scheme's permutation for `graph`.
    ///
    /// # Panics
    ///
    /// Panics with the [`SchemeError`] message when
    /// [`Scheme::validate`] rejects the parameters; use
    /// [`Scheme::try_reorder`] to handle that as a value.
    pub fn reorder(&self, graph: &Csr) -> Permutation {
        #[expect(
            clippy::panic,
            reason = "SAFETY: documented panicking twin over `try_reorder` (# Panics in the doc above)"
        )]
        self.try_reorder(graph).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Scheme::try_reorder`] with `recorder` installed: the `"reorder"`
    /// span and the scheme's phases land in it.
    ///
    /// # Errors
    ///
    /// Returns the [`SchemeError`] from [`Scheme::validate`]; nothing is
    /// recorded on error.
    pub fn try_reorder_recorded(
        &self,
        graph: &Csr,
        recorder: &mut RunRecorder,
    ) -> Result<Permutation, SchemeError> {
        let (pi, recorded) = recording(std::mem::take(recorder), || self.try_reorder(graph));
        *recorder = recorded;
        pi
    }

    /// Parses a scheme spec: `name[:key=val,...]`, or a single positional
    /// parameter for the schemes that take one (`random:7` ≡
    /// `random:seed=7`, `metis:64` ≡ `metis:parts=64`, `gorder:10`,
    /// `slashburn:0.01`, `nd:3`). Names are case-insensitive; `degreesort`,
    /// `nested-dissection`, `grappolorcm`, and `rabbit-order` are accepted
    /// aliases.
    ///
    /// Parameter ranges that do not depend on the graph (`k_frac`,
    /// `window`, `parts ≥ 1`) are validated here; `parts ≤ n` is checked
    /// by [`Scheme::try_reorder`].
    ///
    /// # Errors
    ///
    /// [`SchemeError::UnknownScheme`], [`SchemeError::UnknownParameter`],
    /// [`SchemeError::InvalidValue`], [`SchemeError::UnexpectedParameter`],
    /// or a range variant.
    ///
    /// # Examples
    ///
    /// ```
    /// use reorderlab_core::Scheme;
    ///
    /// let s = Scheme::parse("slashburn:k_frac=0.005").unwrap();
    /// assert_eq!(s, Scheme::SlashBurn { k_frac: 0.005 });
    /// assert_eq!(Scheme::parse(&s.spec()).unwrap(), s);
    /// ```
    pub fn parse(spec: &str) -> Result<Scheme, SchemeError> {
        Self::parse_impl(spec)
    }

    fn parse_impl(spec: &str) -> Result<Scheme, SchemeError> {
        let (name, mut params) = match spec.split_once(':') {
            Some((n, p)) => (n, Params::parse(p)?),
            None => (spec, Params::default()),
        };
        let scheme = match name.to_ascii_lowercase().as_str() {
            "natural" => Scheme::Natural,
            "random" => Scheme::Random { seed: params.take_u64("seed", 42)? },
            "degree" | "degreesort" => {
                Scheme::DegreeSort { direction: DegreeDirection::Decreasing }
            }
            "degree-asc" => Scheme::DegreeSort { direction: DegreeDirection::Increasing },
            "hubsort" => Scheme::HubSort,
            "hubcluster" => Scheme::HubCluster,
            "slashburn" => Scheme::SlashBurn { k_frac: params.take_f64("k_frac", 0.005)? },
            "gorder" => Scheme::Gorder { window: params.take_usize("window", 5)? },
            "rcm" => Scheme::Rcm,
            "cdfs" => Scheme::Cdfs,
            "nd" | "nested-dissection" => {
                Scheme::NestedDissection { seed: params.take_u64("seed", 42)? }
            }
            "metis" => {
                // Positional `metis:64` sets parts; `seed` is key-only.
                let parts = params.take_usize("parts", 32)?;
                let seed = params.take_u64("seed", 42)?;
                Scheme::Metis { parts, seed }
            }
            "grappolo" => Scheme::Grappolo,
            "grappolo-rcm" | "grappolorcm" => Scheme::GrappoloRcm,
            "rabbit" | "rabbit-order" => Scheme::RabbitOrder,
            "dbg" => Scheme::Dbg,
            "hubsort-dbg" | "hubsortdbg" => Scheme::HubSortDbg,
            "hubcluster-dbg" | "hubclusterdbg" => Scheme::HubClusterDbg,
            "comm-bfs" | "commbfs" => Scheme::CommunityBfs,
            "comm-dfs" | "commdfs" => Scheme::CommunityDfs,
            "comm-degree" | "commdegree" => Scheme::CommunityDegree,
            "adaptive" => Scheme::Adaptive,
            other => return Err(SchemeError::UnknownScheme { name: other.to_string() }),
        };
        params.finish(&scheme)?;
        // Graph-independent ranges are rejected at parse time; `usize::MAX`
        // stands in for "any graph" so only `parts ≤ n` is deferred.
        scheme.validate(usize::MAX)?;
        Ok(scheme)
    }

    /// The canonical, round-trippable spec of this scheme: bare names for
    /// parameterless schemes, `name:key=val[,...]` otherwise. No spec names
    /// a thread count — width is a property of the pool the scheme runs in
    /// and never changes a permutation — so the spec is a sound cache key.
    /// `Scheme::parse(&s.spec())` reconstructs `s` exactly.
    pub fn spec(&self) -> String {
        match *self {
            Scheme::Natural => "natural".into(),
            Scheme::Random { seed } => format!("random:seed={seed}"),
            Scheme::DegreeSort { direction: DegreeDirection::Decreasing } => "degree".into(),
            Scheme::DegreeSort { direction: DegreeDirection::Increasing } => "degree-asc".into(),
            Scheme::HubSort => "hubsort".into(),
            Scheme::HubCluster => "hubcluster".into(),
            Scheme::SlashBurn { k_frac } => format!("slashburn:k_frac={k_frac}"),
            Scheme::Gorder { window } => format!("gorder:window={window}"),
            Scheme::Rcm => "rcm".into(),
            Scheme::Cdfs => "cdfs".into(),
            Scheme::NestedDissection { seed } => format!("nd:seed={seed}"),
            Scheme::Metis { parts, seed } => format!("metis:parts={parts},seed={seed}"),
            Scheme::Grappolo => "grappolo".into(),
            Scheme::GrappoloRcm => "grappolo-rcm".into(),
            Scheme::RabbitOrder => "rabbit".into(),
            Scheme::Dbg => "dbg".into(),
            Scheme::HubSortDbg => "hubsort-dbg".into(),
            Scheme::HubClusterDbg => "hubcluster-dbg".into(),
            Scheme::CommunityBfs => "comm-bfs".into(),
            Scheme::CommunityDfs => "comm-dfs".into(),
            Scheme::CommunityDegree => "comm-degree".into(),
            Scheme::Adaptive => "adaptive".into(),
        }
    }

    /// The 11 schemes of the paper's qualitative study (§V): Natural,
    /// Random, Degree Sort, SlashBurn, Gorder, Rabbit Order, Grappolo,
    /// Grappolo-RCM, METIS (32 parts), RCM, and ND — with the paper's
    /// parameter choices.
    pub fn evaluation_suite(seed: u64) -> Vec<Scheme> {
        vec![
            Scheme::Natural,
            Scheme::Random { seed },
            Scheme::DegreeSort { direction: DegreeDirection::Decreasing },
            Scheme::SlashBurn { k_frac: 0.005 },
            Scheme::Gorder { window: 5 },
            Scheme::RabbitOrder,
            Scheme::Grappolo,
            Scheme::GrappoloRcm,
            Scheme::Metis { parts: 32, seed },
            Scheme::Rcm,
            Scheme::NestedDissection { seed },
        ]
    }

    /// Every scheme in the crate — the 11-scheme evaluation suite plus the
    /// extensions (Hub Sort, Hub Clustering, ascending Degree Sort, CDFS) —
    /// for exhaustive sweeps.
    pub(crate) fn extended_suite(seed: u64) -> Vec<Scheme> {
        let mut all = Scheme::evaluation_suite(seed);
        all.push(Scheme::HubSort);
        all.push(Scheme::HubCluster);
        all.push(Scheme::DegreeSort { direction: DegreeDirection::Increasing });
        all.push(Scheme::Cdfs);
        all
    }

    /// Every canonical spec name [`Scheme::parse`] accepts (aliases and
    /// parameter forms excluded), in the order schemes are listed by the
    /// suites. [`SchemeError::UnknownScheme`] messages enumerate this list.
    pub const ACCEPTED_NAMES: [&'static str; 22] = [
        "natural",
        "random",
        "degree",
        "degree-asc",
        "hubsort",
        "hubcluster",
        "slashburn",
        "gorder",
        "rcm",
        "cdfs",
        "nd",
        "metis",
        "grappolo",
        "grappolo-rcm",
        "rabbit",
        "dbg",
        "hubsort-dbg",
        "hubcluster-dbg",
        "comm-bfs",
        "comm-dfs",
        "comm-degree",
        "adaptive",
    ];

    /// Every scheme in the registry with its suite parameterization: the
    /// extended suite plus the lightweight + adaptive family. This is the
    /// canonical enumeration the contract, degenerate, chaos, and recording
    /// test matrices sweep — a scheme absent here escapes every gate, so
    /// the registry's own tests assert each enum variant appears.
    pub fn all_schemes(seed: u64) -> Vec<Scheme> {
        let mut all = Scheme::extended_suite(seed);
        all.extend([
            Scheme::Dbg,
            Scheme::HubSortDbg,
            Scheme::HubClusterDbg,
            Scheme::CommunityBfs,
            Scheme::CommunityDfs,
            Scheme::CommunityDegree,
            Scheme::Adaptive,
        ]);
        all
    }

    /// The four schemes of the application study (§VI): Grappolo, RCM,
    /// Natural, and Degree Sort.
    pub fn application_suite() -> Vec<Scheme> {
        vec![
            Scheme::Grappolo,
            Scheme::Rcm,
            Scheme::Natural,
            Scheme::DegreeSort { direction: DegreeDirection::Decreasing },
        ]
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scheme {
    type Err = SchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::parse(s)
    }
}

/// Parsed `key=val` pairs (or one positional value) from the text after
/// `name:`. Each key may be consumed once; leftovers are reported by
/// [`Params::finish`].
#[derive(Default)]
struct Params {
    /// `(key, value)` pairs; the positional form is stored under `""`.
    pairs: Vec<(String, String)>,
    taken: Vec<bool>,
    /// True when the spec used the positional form, which parameterless
    /// schemes report as [`SchemeError::UnexpectedParameter`].
    positional: bool,
}

impl Params {
    fn parse(text: &str) -> Result<Params, SchemeError> {
        let mut pairs = Vec::new();
        let mut positional = false;
        if text.contains('=') {
            for item in text.split(',') {
                let (k, v) = item.split_once('=').ok_or_else(|| SchemeError::InvalidValue {
                    key: "parameter".into(),
                    value: item.to_string(),
                })?;
                pairs.push((k.trim().to_string(), v.trim().to_string()));
            }
        } else {
            // Positional back-compat: a single bare value for the scheme's
            // primary parameter.
            pairs.push((String::new(), text.to_string()));
            positional = true;
        }
        let taken = vec![false; pairs.len()];
        Ok(Params { pairs, taken, positional })
    }

    /// Consumes `key` (or the positional value), parsing it as `T`.
    fn take<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, SchemeError> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if !self.taken[i] && (k == key || (k.is_empty() && !self.taken.iter().any(|&t| t))) {
                self.taken[i] = true;
                return v.parse().map_err(|_| SchemeError::InvalidValue {
                    key: key.to_string(),
                    value: v.clone(),
                });
            }
        }
        Ok(default)
    }

    fn take_u64(&mut self, key: &str, default: u64) -> Result<u64, SchemeError> {
        self.take(key, default)
    }

    fn take_usize(&mut self, key: &str, default: usize) -> Result<usize, SchemeError> {
        self.take(key, default)
    }

    fn take_f64(&mut self, key: &str, default: f64) -> Result<f64, SchemeError> {
        self.take(key, default)
    }

    /// Reports any parameter no `take` call consumed.
    fn finish(&self, scheme: &Scheme) -> Result<(), SchemeError> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if !self.taken[i] {
                return Err(if self.positional {
                    SchemeError::UnexpectedParameter { scheme: scheme.name(), param: v.clone() }
                } else {
                    SchemeError::UnknownParameter { scheme: scheme.name(), key: k.clone() }
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{clique_chain, grid2d};
    #[test]
    fn evaluation_suite_has_eleven_schemes() {
        let suite = Scheme::evaluation_suite(0);
        assert_eq!(suite.len(), 11);
        let names: std::collections::BTreeSet<&str> = suite.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 11, "scheme names must be unique");
        assert!(names.contains("METIS"));
        assert!(names.contains("Grappolo-RCM"));
    }

    #[test]
    fn application_suite_matches_figure9_columns() {
        let names: Vec<&str> = Scheme::application_suite().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["Grappolo", "RCM", "Natural", "DegreeSort"]);
    }

    #[test]
    fn every_scheme_produces_valid_permutation() {
        let g = grid2d(7, 7);
        for scheme in Scheme::evaluation_suite(3) {
            let pi = scheme.reorder(&g);
            assert_eq!(pi.len(), 49, "{scheme}");
            assert!(
                Permutation::from_ranks(pi.ranks().to_vec()).is_ok(),
                "{scheme} produced an invalid permutation"
            );
        }
    }

    #[test]
    fn every_scheme_handles_communities_graph() {
        // 4 cliques of 8 = 32 vertices, the minimum for METIS's 32 parts.
        let g = clique_chain(4, 8);
        for scheme in Scheme::evaluation_suite(1) {
            assert_eq!(scheme.reorder(&g).len(), 32, "{scheme}");
        }
    }

    #[test]
    fn extended_suite_is_superset_with_unique_names() {
        let ext = Scheme::extended_suite(1);
        assert_eq!(ext.len(), 15);
        let names: std::collections::BTreeSet<&str> = ext.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 15);
        assert!(names.contains("HubSort"));
        assert!(names.contains("CDFS"));
        let g = grid2d(6, 6);
        for s in &ext {
            assert_eq!(s.reorder(&g).len(), 36, "{s}");
        }
    }

    #[test]
    fn cdfs_variant_dispatches() {
        let g = grid2d(6, 6);
        let pi = Scheme::Cdfs.reorder(&g);
        assert_eq!(pi.len(), 36);
        assert_eq!(Scheme::Cdfs.name(), "CDFS");
        // CDFS is the no-sort relaxation of RCM, not part of the paper's
        // 11-scheme evaluation suite.
        assert!(Scheme::evaluation_suite(0).iter().all(|s| s.name() != "CDFS"));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Scheme::Rcm.to_string(), "RCM");
        assert_eq!(Scheme::Metis { parts: 32, seed: 0 }.to_string(), "METIS");
    }

    #[test]
    fn validate_rejects_each_bad_parameter() {
        assert_eq!(
            Scheme::SlashBurn { k_frac: 0.0 }.validate(10),
            Err(SchemeError::KFracOutOfRange { k_frac: 0.0 })
        );
        assert_eq!(
            Scheme::Gorder { window: 0 }.validate(10),
            Err(SchemeError::WindowTooSmall { window: 0 })
        );
        assert_eq!(
            Scheme::Metis { parts: 0, seed: 0 }.validate(10),
            Err(SchemeError::PartsTooSmall { parts: 0 })
        );
        assert_eq!(
            Scheme::Metis { parts: 11, seed: 0 }.validate(10),
            Err(SchemeError::PartsExceedVertices { parts: 11, vertices: 10 })
        );
        assert_eq!(Scheme::Metis { parts: 10, seed: 0 }.validate(10), Ok(()));
        assert_eq!(Scheme::SlashBurn { k_frac: 1.0 }.validate(10), Ok(()));
    }

    #[test]
    fn validate_rejects_nan_k_frac() {
        // Derived PartialEq compares f64 by `==`, which NaN fails, so this
        // case needs a structural match rather than assert_eq.
        match (Scheme::SlashBurn { k_frac: f64::NAN }).validate(5) {
            Err(SchemeError::KFracOutOfRange { k_frac }) => assert!(k_frac.is_nan()),
            other => panic!("expected KFracOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn try_reorder_surfaces_typed_errors() {
        let g = grid2d(3, 3);
        let err = Scheme::Metis { parts: 32, seed: 1 }.try_reorder(&g).unwrap_err();
        assert_eq!(err, SchemeError::PartsExceedVertices { parts: 32, vertices: 9 });
        let err = Scheme::SlashBurn { k_frac: -0.5 }.try_reorder(&g).unwrap_err();
        assert_eq!(err, SchemeError::KFracOutOfRange { k_frac: -0.5 });
        assert!(Scheme::Rcm.try_reorder(&g).is_ok());
    }

    #[test]
    #[should_panic(expected = "metis parts 32 exceed the graph's 9 vertices")]
    fn reorder_panics_with_typed_message() {
        let g = grid2d(3, 3);
        Scheme::Metis { parts: 32, seed: 1 }.reorder(&g);
    }

    /// One slot per enum variant. The `match` has no wildcard arm, so
    /// adding a `Scheme` variant fails to compile until it is listed here —
    /// and the `all_schemes_covers_every_variant` test then fails until the
    /// variant joins [`Scheme::all_schemes`], keeping every test matrix
    /// exhaustive by construction.
    fn variant_slot(s: &Scheme) -> usize {
        match s {
            Scheme::Natural => 0,
            Scheme::Random { .. } => 1,
            Scheme::DegreeSort { direction: DegreeDirection::Decreasing } => 2,
            Scheme::DegreeSort { direction: DegreeDirection::Increasing } => 3,
            Scheme::HubSort => 4,
            Scheme::HubCluster => 5,
            Scheme::SlashBurn { .. } => 6,
            Scheme::Gorder { .. } => 7,
            Scheme::Rcm => 8,
            Scheme::Cdfs => 9,
            Scheme::NestedDissection { .. } => 10,
            Scheme::Metis { .. } => 11,
            Scheme::Grappolo => 12,
            Scheme::GrappoloRcm => 13,
            Scheme::RabbitOrder => 14,
            Scheme::Dbg => 15,
            Scheme::HubSortDbg => 16,
            Scheme::HubClusterDbg => 17,
            Scheme::CommunityBfs => 18,
            Scheme::CommunityDfs => 19,
            Scheme::CommunityDegree => 20,
            Scheme::Adaptive => 21,
        }
    }

    #[test]
    fn all_schemes_covers_every_variant() {
        let all = Scheme::all_schemes(42);
        assert_eq!(all.len(), 22);
        let mut seen = [false; 22];
        for s in &all {
            seen[variant_slot(s)] = true;
        }
        assert!(seen.iter().all(|&hit| hit), "a Scheme variant is missing from all_schemes");
        let names: std::collections::BTreeSet<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 22, "scheme names must be unique");
    }

    #[test]
    fn accepted_names_parse_and_cover_all_schemes() {
        for name in Scheme::ACCEPTED_NAMES {
            Scheme::parse(name).unwrap_or_else(|e| panic!("accepted name {name:?} rejected: {e}"));
        }
        for scheme in Scheme::all_schemes(3) {
            let spec = scheme.spec();
            let head = spec.split(':').next().unwrap_or(&spec);
            assert!(
                Scheme::ACCEPTED_NAMES.contains(&head),
                "spec head {head:?} missing from ACCEPTED_NAMES"
            );
        }
    }

    #[test]
    fn lightweight_family_dispatches() {
        let g = clique_chain(4, 8);
        for scheme in [
            Scheme::Dbg,
            Scheme::HubSortDbg,
            Scheme::HubClusterDbg,
            Scheme::CommunityBfs,
            Scheme::CommunityDfs,
            Scheme::CommunityDegree,
            Scheme::Adaptive,
        ] {
            assert_eq!(scheme.reorder(&g).len(), 32, "{scheme}");
            assert_eq!(scheme.validate(0), Ok(()), "{scheme} takes no parameters");
        }
    }

    #[test]
    fn parse_spec_round_trips_every_suite_scheme() {
        for scheme in Scheme::all_schemes(7) {
            let spec = scheme.spec();
            let parsed =
                Scheme::parse(&spec).unwrap_or_else(|e| panic!("{spec:?} failed to re-parse: {e}"));
            assert_eq!(parsed, scheme, "spec {spec:?} did not round-trip");
        }
    }

    #[test]
    fn parse_accepts_key_value_and_positional_forms() {
        assert_eq!(Scheme::parse("random:7").unwrap(), Scheme::Random { seed: 7 });
        assert_eq!(Scheme::parse("random:seed=7").unwrap(), Scheme::Random { seed: 7 });
        assert_eq!(Scheme::parse("metis:64").unwrap(), Scheme::Metis { parts: 64, seed: 42 });
        assert_eq!(
            Scheme::parse("metis:parts=64,seed=3").unwrap(),
            Scheme::Metis { parts: 64, seed: 3 }
        );
        assert_eq!(
            Scheme::parse("slashburn:k_frac=0.01").unwrap(),
            Scheme::SlashBurn { k_frac: 0.01 }
        );
        assert_eq!(Scheme::parse("gorder:window=10").unwrap(), Scheme::Gorder { window: 10 });
        assert_eq!("rcm".parse::<Scheme>().unwrap(), Scheme::Rcm);
    }

    #[test]
    fn parse_rejects_bad_specs_with_typed_errors() {
        assert!(matches!(
            Scheme::parse("nope"),
            Err(SchemeError::UnknownScheme { name }) if name == "nope"
        ));
        assert!(matches!(
            Scheme::parse("rcm:5"),
            Err(SchemeError::UnexpectedParameter { scheme: "RCM", .. })
        ));
        assert!(matches!(
            Scheme::parse("metis:parts=8,window=2"),
            Err(SchemeError::UnknownParameter { scheme: "METIS", key }) if key == "window"
        ));
        assert!(matches!(Scheme::parse("gorder:x"), Err(SchemeError::InvalidValue { .. })));
        assert_eq!(
            Scheme::parse("gorder:window=0"),
            Err(SchemeError::WindowTooSmall { window: 0 })
        );
        assert_eq!(
            Scheme::parse("slashburn:2.0"),
            Err(SchemeError::KFracOutOfRange { k_frac: 2.0 })
        );
        assert_eq!(Scheme::parse("metis:0"), Err(SchemeError::PartsTooSmall { parts: 0 }));
    }

    #[test]
    fn recorded_reorder_is_bit_identical_and_times_the_run() {
        let g = clique_chain(4, 8);
        for scheme in Scheme::extended_suite(5) {
            let plain = scheme.reorder(&g);
            let (recorded, rec) = recording(RunRecorder::new(), || scheme.reorder(&g));
            assert_eq!(plain, recorded, "{scheme}: recording perturbed the permutation");
            assert_eq!(rec.spans()["reorder"].count, 1, "{scheme}");
            assert_eq!(rec.open_spans(), 0, "{scheme}: unbalanced spans");
        }
    }
}

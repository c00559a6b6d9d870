//! The scheme registry: [`SCHEMES`], one row per scheme, and the closed
//! [`Scheme`] enumeration with uniform dispatch. Parsing, specs, names,
//! help and the test matrices read the table; adding a scheme is one row,
//! one variant, one [`Scheme::try_reorder`] arm and its body. Harness code
//! sweeps [`Scheme::evaluation_suite`] to reproduce the 11-scheme
//! comparisons of §V.
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
use std::fmt;
use DegreeDirection::{Decreasing, Increasing};
use Provenance::{Described, Evaluated, Extension};

/// Where a scheme comes from, relative to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// One of the 11 schemes the paper evaluates (§V).
    Evaluated,
    /// Described in the paper's survey of schemes (§III), not evaluated.
    Described,
    /// Beyond the paper.
    Extension,
}

/// One row of [`SCHEMES`].
#[derive(Debug)]
pub struct SchemeDef {
    /// The canonical spec name, which [`Scheme::spec`] writes.
    pub spec: &'static str,
    /// Other spellings [`Scheme::parse`] accepts.
    pub aliases: &'static [&'static str],
    /// The display name, as in the paper's figure legends.
    pub name: &'static str,
    /// Where the scheme comes from.
    pub provenance: Provenance,
    /// The scheme with every parameter at its default.
    pub default: Scheme,
    /// The parameter keys; the first also takes the positional form.
    pub keys: &'static [&'static str],
    /// A one-line description for the help text.
    pub help: &'static str,
}

/// The seed of every seeded scheme's default, and the seed a manifest
/// reports for an unseeded scheme.
const SEED: u64 = 42;

/// Every scheme [`Scheme::parse`] accepts, one row per canonical name, in
/// the order that [`Scheme::all_schemes`] and the unknown-scheme message
/// list them.
#[rustfmt::skip]
pub const SCHEMES: &[SchemeDef] = &[
    SchemeDef { spec: "natural", aliases: &[], name: "Natural", provenance: Evaluated,
        default: Scheme::Natural, keys: &[], help: "input order" },
    SchemeDef { spec: "random", aliases: &[], name: "Random", provenance: Evaluated,
        default: Scheme::Random { seed: SEED }, keys: &["seed"], help: "uniform shuffle" },
    SchemeDef { spec: "degree", aliases: &["degreesort"], name: "DegreeSort", provenance: Evaluated,
        default: Scheme::DegreeSort { direction: Decreasing }, keys: &[],
        help: "degree sort, decreasing" },
    SchemeDef { spec: "degree-asc", aliases: &[], name: "DegreeSortAsc", provenance: Extension,
        default: Scheme::DegreeSort { direction: Increasing }, keys: &[],
        help: "degree sort, increasing" },
    SchemeDef { spec: "hubsort", aliases: &[], name: "HubSort", provenance: Described,
        default: Scheme::HubSort, keys: &[], help: "hubs first, sorted [38]" },
    SchemeDef { spec: "hubcluster", aliases: &[], name: "HubCluster", provenance: Described,
        default: Scheme::HubCluster, keys: &[], help: "hubs first, natural order [2]" },
    SchemeDef { spec: "slashburn", aliases: &[], name: "SlashBurn", provenance: Evaluated,
        default: Scheme::SlashBurn { k_frac: 0.005 }, keys: &["k_frac"],
        help: "iterative hub slashing [21]" },
    SchemeDef { spec: "gorder", aliases: &[], name: "Gorder", provenance: Evaluated,
        default: Scheme::Gorder { window: 5 }, keys: &["window"],
        help: "windowed Gscore greedy [37]" },
    SchemeDef { spec: "rcm", aliases: &[], name: "RCM", provenance: Evaluated, default: Scheme::Rcm,
        keys: &[], help: "Reverse Cuthill-McKee [9]" },
    SchemeDef { spec: "cdfs", aliases: &[], name: "CDFS", provenance: Extension,
        default: Scheme::Cdfs, keys: &[], help: "Children-DFS (RCM without degree sort) [3]" },
    SchemeDef { spec: "nd", aliases: &["nested-dissection"], name: "ND", provenance: Evaluated,
        default: Scheme::NestedDissection { seed: SEED }, keys: &["seed"],
        help: "nested dissection [15,23]" },
    SchemeDef { spec: "metis", aliases: &[], name: "METIS", provenance: Evaluated,
        default: Scheme::Metis { parts: 32, seed: SEED }, keys: &["parts", "seed"],
        help: "partition-induced order [22]" },
    SchemeDef { spec: "grappolo", aliases: &[], name: "Grappolo", provenance: Evaluated,
        default: Scheme::Grappolo, keys: &[],
        help: "community-contiguous (parallel Louvain) [28]" },
    SchemeDef { spec: "grappolo-rcm", aliases: &["grappolorcm"], name: "Grappolo-RCM",
        provenance: Evaluated, default: Scheme::GrappoloRcm, keys: &[],
        help: "communities ordered by RCM (this paper)" },
    SchemeDef { spec: "rabbit", aliases: &["rabbit-order"], name: "Rabbit", provenance: Evaluated,
        default: Scheme::RabbitOrder, keys: &[], help: "incremental-aggregation communities [1]" },
    SchemeDef { spec: "dbg", aliases: &[], name: "DBG", provenance: Extension, default: Scheme::Dbg,
        keys: &[], help: "degree-based grouping, log2 buckets" },
    SchemeDef { spec: "hubsort-dbg", aliases: &["hubsortdbg"], name: "HubSortDBG",
        provenance: Extension, default: Scheme::HubSortDbg, keys: &[],
        help: "DBG with hubs degree-sorted in-bucket" },
    SchemeDef { spec: "hubcluster-dbg", aliases: &["hubclusterdbg"], name: "HubClusterDBG",
        provenance: Extension, default: Scheme::HubClusterDbg, keys: &[],
        help: "DBG hot buckets + natural cold block" },
    SchemeDef { spec: "comm-bfs", aliases: &["commbfs"], name: "CommBFS", provenance: Extension,
        default: Scheme::CommunityBfs, keys: &[], help: "Louvain communities, BFS within each" },
    SchemeDef { spec: "comm-dfs", aliases: &["commdfs"], name: "CommDFS", provenance: Extension,
        default: Scheme::CommunityDfs, keys: &[], help: "Louvain communities, DFS within each" },
    SchemeDef { spec: "comm-degree", aliases: &["commdegree"], name: "CommDegree",
        provenance: Extension, default: Scheme::CommunityDegree, keys: &[],
        help: "Louvain communities, degree-sorted within" },
    SchemeDef { spec: "adaptive", aliases: &[], name: "Adaptive", provenance: Extension,
        default: Scheme::Adaptive, keys: &[], help: "picks a scheme from structural features" },
];

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
    /// This scheme's row of [`SCHEMES`].
    #[expect(
        clippy::expect_used,
        reason = "SAFETY: every variant has a row; `table_and_enum_are_in_bijection` checks it"
    )]
    fn def(&self) -> &'static SchemeDef {
        SCHEMES.iter().find(|def| def.default.same_row(self)).expect("every Scheme has a row")
    }

    /// True when `self` and `other` share a row of [`SCHEMES`], whatever
    /// their parameters.
    fn same_row(&self, other: &Scheme) -> bool {
        match (self, other) {
            (Scheme::DegreeSort { direction: a }, Scheme::DegreeSort { direction: b }) => a == b,
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }

    /// The field behind the parameter `key`, if this scheme has one.
    fn field(&mut self, key: &str) -> Option<&mut dyn Field> {
        let field: &mut dyn Field = match (self, key) {
            (
                Scheme::Random { seed }
                | Scheme::NestedDissection { seed }
                | Scheme::Metis { seed, .. },
                "seed",
            ) => seed,
            (Scheme::Metis { parts, .. }, "parts") => parts,
            (Scheme::Gorder { window }, "window") => window,
            (Scheme::SlashBurn { k_frac }, "k_frac") => k_frac,
            _ => return None,
        };
        Some(field)
    }

    /// Stable display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        self.def().name
    }

    /// The seed a manifest of this scheme reports: its own `seed`
    /// parameter where it has one, otherwise 42.
    pub fn manifest_seed(&self) -> u64 {
        let seed = self.clone().field("seed").map(|field| field.to_string());
        seed.and_then(|text| text.parse().ok()).unwrap_or(SEED)
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
    /// value for the row's first key (`random:7` ≡ `random:seed=7`,
    /// `metis:64` ≡ `metis:parts=64`, `gorder:10`, `slashburn:0.01`,
    /// `nd:3`). The name is a canonical name or an alias of a row of
    /// [`SCHEMES`], in any case; keys the spec leaves out keep the row's
    /// defaults.
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
        let (name, mut params) = match spec.split_once(':') {
            Some((n, p)) => (n, Params::parse(p)?),
            None => (spec, Params::default()),
        };
        let answers = |alias: &&str| alias.eq_ignore_ascii_case(name);
        let def = SCHEMES
            .iter()
            .find(|def| answers(&def.spec) || def.aliases.iter().any(answers))
            .ok_or_else(|| SchemeError::UnknownScheme { name: name.to_ascii_lowercase() })?;
        let mut scheme = def.default.clone();
        for key in def.keys {
            if let Some(text) = params.take(key) {
                if !scheme.field(key).is_some_and(|field| field.set(text)) {
                    let (key, value) = (key.to_string(), text.to_string());
                    return Err(SchemeError::InvalidValue { key, value });
                }
            }
        }
        params.finish(def.name)?;
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
        use std::fmt::Write;
        let def = self.def();
        let mut spec = def.spec.to_string();
        let mut fields = self.clone();
        for (i, key) in def.keys.iter().enumerate() {
            if let Some(value) = fields.field(key) {
                let sep = if i == 0 { ':' } else { ',' };
                let _ = write!(spec, "{sep}{key}={value}");
            }
        }
        spec
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

    /// Every row of [`SCHEMES`] at its defaults, with `seed` for every
    /// seed. This is the enumeration the contract, degenerate, chaos, and
    /// recording test matrices sweep.
    pub fn all_schemes(seed: u64) -> Vec<Scheme> {
        let seeded = |def: &SchemeDef| {
            let mut scheme = def.default.clone();
            if let Some(field) = scheme.field("seed") {
                field.set(&seed.to_string());
            }
            scheme
        };
        SCHEMES.iter().map(seeded).collect()
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

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scheme {
    type Err = SchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::parse(s)
    }
}

/// A parameter field of a scheme value: it prints as its spec text and
/// parses back from it.
trait Field: fmt::Display {
    /// Sets the field from `text`; false, and unchanged, if it does not parse.
    fn set(&mut self, text: &str) -> bool;
}

impl<T: fmt::Display + std::str::FromStr> Field for T {
    fn set(&mut self, text: &str) -> bool {
        text.parse().map(|value| *self = value).is_ok()
    }
}

/// Parsed `key=val` pairs (or one positional value) from the text after
/// `name:`. Each key may be consumed once; leftovers are reported by
/// [`Params::finish`].
#[derive(Default)]
struct Params<'a> {
    /// `(key, value, taken)`; the positional form is stored under `""`.
    pairs: Vec<(&'a str, &'a str, bool)>,
    /// True when the spec used the positional form, which parameterless
    /// schemes report as [`SchemeError::UnexpectedParameter`].
    positional: bool,
}

impl<'a> Params<'a> {
    fn parse(text: &'a str) -> Result<Params<'a>, SchemeError> {
        if !text.contains('=') {
            // Positional back-compat: a single bare value for the scheme's
            // primary parameter.
            return Ok(Params { pairs: vec![("", text, false)], positional: true });
        }
        let mut pairs = Vec::new();
        for item in text.split(',') {
            let (k, v) = item.split_once('=').ok_or_else(|| SchemeError::InvalidValue {
                key: "parameter".into(),
                value: item.to_string(),
            })?;
            pairs.push((k.trim(), v.trim(), false));
        }
        Ok(Params { pairs, positional: false })
    }

    /// Consumes `key` (or the positional value, before anything else is
    /// consumed) and returns its text.
    fn take(&mut self, key: &str) -> Option<&'a str> {
        let fresh = self.pairs.iter().all(|&(_, _, taken)| !taken);
        let (_, value, taken) = self
            .pairs
            .iter_mut()
            .find(|(k, _, taken)| !*taken && (*k == key || (k.is_empty() && fresh)))?;
        *taken = true;
        Some(*value)
    }

    /// Reports the first parameter no `take` call consumed.
    fn finish(&self, scheme: &'static str) -> Result<(), SchemeError> {
        match self.pairs.iter().find(|&&(_, _, taken)| !taken) {
            None => Ok(()),
            Some(&(_, v, _)) if self.positional => {
                Err(SchemeError::UnexpectedParameter { scheme, param: v.to_string() })
            }
            Some(&(k, _, _)) => Err(SchemeError::UnknownParameter { scheme, key: k.to_string() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{clique_chain, grid2d};
    use std::collections::BTreeSet;

    #[test]
    fn evaluation_suite_has_eleven_schemes() {
        let suite = Scheme::evaluation_suite(0);
        assert_eq!(suite.len(), 11);
        let names: BTreeSet<&str> = suite.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 11, "scheme names must be unique");
        // The suite is the table's paper-§V rows, at their defaults.
        let evaluated: BTreeSet<&str> = Scheme::all_schemes(0)
            .iter()
            .filter(|s| s.def().provenance == Evaluated)
            .map(|s| s.name())
            .collect();
        assert_eq!(names, evaluated);
        for scheme in &suite {
            assert_eq!(Scheme::all_schemes(0).iter().find(|s| s.same_row(scheme)), Some(scheme));
        }
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

    /// Each row's default maps back to that row and to no other, so rows
    /// and the variants they name are one-to-one. Every spelling is unique
    /// and parses to its row's default, every key names a field, and every
    /// row runs. A variant with no row is unreachable from a spec, and
    /// `name` and `spec` refuse it at first use.
    #[test]
    fn table_and_enum_are_in_bijection() {
        let g = grid2d(6, 6);
        let mut spellings = BTreeSet::new();
        let mut displays = BTreeSet::new();
        for (row, def) in SCHEMES.iter().enumerate() {
            let claims: Vec<usize> =
                (0..SCHEMES.len()).filter(|&i| SCHEMES[i].default.same_row(&def.default)).collect();
            assert_eq!(claims, [row], "{}: the rows that claim its default", def.spec);
            assert!(displays.insert(def.name), "display name {} repeats", def.name);
            for spelling in std::iter::once(&def.spec).chain(def.aliases) {
                assert!(spellings.insert(*spelling), "spelling {spelling} repeats");
                assert_eq!(Scheme::parse(spelling).as_ref(), Ok(&def.default), "{spelling}");
            }
            for key in def.keys {
                let mut scheme = def.default.clone();
                let field = scheme.field(key);
                assert!(
                    field.is_some_and(|f| f.set("1")),
                    "{}: key {key} names no field",
                    def.spec
                );
            }
            assert_eq!(def.default.spec().split(':').next(), Some(def.spec));
            assert_eq!(def.default.reorder(&g).len(), 36, "{}", def.spec);
        }
        assert_eq!(Scheme::all_schemes(42).len(), SCHEMES.len());
    }

    #[test]
    fn seed_rule_matches_the_manifest_contract() {
        assert_eq!(Scheme::Rcm.manifest_seed(), 42);
        assert_eq!(Scheme::Random { seed: 7 }.manifest_seed(), 7);
        assert_eq!(Scheme::Metis { parts: 8, seed: 9 }.manifest_seed(), 9);
        assert_eq!(Scheme::NestedDissection { seed: 3 }.manifest_seed(), 3);
        for scheme in Scheme::all_schemes(5) {
            let seeded = scheme.def().keys.contains(&"seed");
            assert_eq!(scheme.manifest_seed(), if seeded { 5 } else { 42 }, "{scheme}");
        }
    }

    #[test]
    fn accepted_names_parse_and_cover_all_schemes() {
        for def in SCHEMES {
            Scheme::parse(def.spec)
                .unwrap_or_else(|e| panic!("accepted name {:?} rejected: {e}", def.spec));
        }
        for scheme in Scheme::all_schemes(3) {
            let spec = scheme.spec();
            let head = spec.split(':').next().unwrap_or(&spec);
            assert!(SCHEMES.iter().any(|d| d.spec == head), "spec head {head:?} has no row");
        }
    }

    #[test]
    fn lightweight_family_dispatches() {
        let g = clique_chain(4, 8);
        for def in SCHEMES.iter().filter(|def| def.keys.is_empty()) {
            let scheme = &def.default;
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
        for scheme in Scheme::all_schemes(5) {
            let plain = scheme.reorder(&g);
            let (recorded, rec) = recording(RunRecorder::new(), || scheme.reorder(&g));
            assert_eq!(plain, recorded, "{scheme}: recording perturbed the permutation");
            assert_eq!(rec.spans()["reorder"].count, 1, "{scheme}");
            assert_eq!(rec.open_spans(), 0, "{scheme}: unbalanced spans");
        }
    }
}

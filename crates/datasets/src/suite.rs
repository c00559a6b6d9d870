//! The named instance suite standing in for the paper's Table I.
//!
//! The paper evaluates 25 small graphs (gap-measure study, §V) and 9 large
//! graphs (application study, §VI) drawn from KONECT and DIMACS10. Those
//! collections are not redistributable here, so every instance is replaced
//! by a synthetic graph from the generator that matches its *structural
//! class* — road / mesh / social / web / collaboration — with parameters
//! chosen to land near the paper's vertex count, edge count, and degree
//! skew. Large instances are additionally scaled down (factor recorded in
//! [`InstanceSpec::scale_denominator`]) so the full suite runs on a laptop.
//!
//! Every instance is deterministic: the generation seed is derived from the
//! instance name.

use crate::mesh::{road_fragment, road_network, tri_mesh};
use crate::powerlaw::{barabasi_albert, hub_and_spokes, rmat, RmatParams};
use crate::random::{erdos_renyi_gnm, random_geometric, watts_strogatz};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{fnv1a, Csr, Permutation};

/// Fraction of vertices displaced by the collection-order jitter applied to
/// every suite instance (see [`InstanceSpec::generate`]).
const JITTER_FRACTION: f64 = 0.3;

/// The application domain a synthetic instance models (Table I groups its
/// inputs informally by these classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Domain {
    /// Road networks and power grids: near-planar, low degree, huge diameter.
    Road,
    /// Finite-element and Delaunay meshes: uniform moderate degree.
    Mesh,
    /// Social networks: heavy-tailed degree, strong communities.
    Social,
    /// Web / internet topology: extreme hubs.
    Web,
    /// Co-authorship / collaboration: dense, clustered, skewed.
    Collaboration,
    /// Peer-to-peer overlays: mild skew, low clustering.
    PeerToPeer,
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Domain::Road => "road",
            Domain::Mesh => "mesh",
            Domain::Social => "social",
            Domain::Web => "web",
            Domain::Collaboration => "collaboration",
            Domain::PeerToPeer => "p2p",
        };
        f.write_str(s)
    }
}

/// A recipe describing how to synthesize an instance. Kept as data (rather
/// than a closure) so specs are inspectable and comparable.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Recipe {
    /// [`road_fragment`]: possibly-disconnected sparse road extract.
    RoadFragment {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// Probability of dropping a tree edge.
        drop_prob: f64,
    },
    /// [`road_network`]: connected road network.
    RoadNetwork {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// Probability of keeping a non-tree lattice edge.
        keep_prob: f64,
    },
    /// [`tri_mesh`]: triangulated grid.
    TriMesh {
        /// Mesh rows.
        rows: usize,
        /// Mesh columns.
        cols: usize,
        /// Probability of flipping each cell diagonal.
        flip_prob: f64,
    },
    /// [`barabasi_albert`] preferential attachment.
    Ba {
        /// Vertex count.
        n: usize,
        /// Edges per new vertex.
        m_attach: usize,
    },
    /// [`rmat`] recursive quadrant model.
    Rmat {
        /// Vertex count.
        n: usize,
        /// Target edge count.
        m: usize,
        /// Quadrant probability a (skew strength).
        a: f64,
        /// Quadrant probability b.
        b: f64,
        /// Quadrant probability c.
        c: f64,
    },
    /// [`hub_and_spokes`] ego-network model.
    HubSpokes {
        /// Vertex count.
        n: usize,
        /// Number of hubs.
        hubs: usize,
        /// Fraction of vertices each hub attaches to.
        frac: f64,
        /// Extra uniform edges.
        extra: usize,
    },
    /// [`watts_strogatz`] small world.
    Ws {
        /// Vertex count.
        n: usize,
        /// Ring degree (even).
        k: usize,
        /// Rewiring probability.
        beta: f64,
    },
    /// [`erdos_renyi_gnm`] uniform random.
    Gnm {
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
    },
    /// [`random_geometric`] unit-square geometric graph.
    Geometric {
        /// Vertex count.
        n: usize,
        /// Connection radius.
        radius: f64,
    },
}

impl Recipe {
    /// Synthesizes the graph for this recipe with the given seed.
    pub fn generate(&self, seed: u64) -> Csr {
        match *self {
            Recipe::RoadFragment { rows, cols, drop_prob } => {
                road_fragment(rows, cols, drop_prob, seed)
            }
            Recipe::RoadNetwork { rows, cols, keep_prob } => {
                road_network(rows, cols, keep_prob, seed)
            }
            Recipe::TriMesh { rows, cols, flip_prob } => tri_mesh(rows, cols, flip_prob, seed),
            Recipe::Ba { n, m_attach } => barabasi_albert(n, m_attach, seed),
            Recipe::Rmat { n, m, a, b, c } => rmat(n, m, RmatParams { a, b, c }, seed),
            Recipe::HubSpokes { n, hubs, frac, extra } => {
                hub_and_spokes(n, hubs, frac, extra, seed)
            }
            Recipe::Ws { n, k, beta } => watts_strogatz(n, k, beta, seed),
            Recipe::Gnm { n, m } => erdos_renyi_gnm(n, m, seed),
            Recipe::Geometric { n, radius } => random_geometric(n, radius, seed),
        }
    }
}

/// A named synthetic instance: the stand-in for one row of the paper's
/// Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSpec {
    /// The (paper's) instance name, e.g. `"delaunay_n12"`.
    pub name: &'static str,
    /// Structural class the synthetic replacement models.
    pub domain: Domain,
    /// Vertex count reported in the paper's Table I.
    pub paper_vertices: u64,
    /// Edge count reported in the paper's Table I.
    pub paper_edges: u64,
    /// Down-scaling denominator relative to the paper (1 = unscaled).
    pub scale_denominator: u32,
    /// Generation recipe.
    pub recipe: Recipe,
}

impl InstanceSpec {
    /// Deterministic seed derived from the instance name (FNV-1a).
    pub fn seed(&self) -> u64 {
        fnv1a(self.name.as_bytes())
    }

    /// Synthesizes the graph.
    ///
    /// A deterministic *collection-order jitter* is applied after
    /// generation: a fraction of vertex ids are randomly transposed. Raw
    /// generator output carries an artificially perfect "natural" order
    /// (e.g. row-major grids), whereas real collected datasets arrive in a
    /// crawl/collection order with only partial locality — the paper's
    /// results place the Natural scheme mid-field, and this jitter
    /// reproduces that property.
    pub fn generate(&self) -> Csr {
        let g = self.generate_unjittered();
        let pi = jitter_permutation(g.num_vertices(), self.seed() ^ 0x6a77);
        #[expect(
            clippy::expect_used,
            reason = "SAFETY: the jitter permutation is built for exactly `g.num_vertices()` ids two lines above"
        )]
        g.permuted(&pi).expect("jitter permutation matches the graph")
    }

    /// Synthesizes the graph in raw generator order (no collection-order
    /// jitter).
    pub(crate) fn generate_unjittered(&self) -> Csr {
        self.recipe.generate(self.seed())
    }

    /// Whether this instance was scaled down relative to the paper.
    pub fn is_scaled(&self) -> bool {
        self.scale_denominator > 1
    }
}

/// The 25 small instances used in the paper's qualitative gap-measure study
/// (§V), in Table I order.
pub fn small_suite() -> Vec<InstanceSpec> {
    use Domain::*;
    use Recipe::*;
    vec![
        InstanceSpec {
            name: "chicago_road",
            domain: Road,
            paper_vertices: 1_467,
            paper_edges: 1_298,
            scale_denominator: 1,
            recipe: RoadFragment { rows: 39, cols: 38, drop_prob: 0.125 },
        },
        InstanceSpec {
            name: "euroroad",
            domain: Road,
            paper_vertices: 1_174,
            paper_edges: 1_417,
            scale_denominator: 1,
            recipe: RoadNetwork { rows: 34, cols: 35, keep_prob: 0.203 },
        },
        InstanceSpec {
            name: "facebook_nips",
            domain: Social,
            paper_vertices: 2_888,
            paper_edges: 2_981,
            scale_denominator: 1,
            recipe: HubSpokes { n: 2_888, hubs: 1, frac: 0.266, extra: 2_213 },
        },
        InstanceSpec {
            name: "rovira",
            domain: Social,
            paper_vertices: 1_133,
            paper_edges: 5_451,
            scale_denominator: 1,
            recipe: Ba { n: 1_133, m_attach: 5 },
        },
        InstanceSpec {
            name: "delaunay_n11",
            domain: Mesh,
            paper_vertices: 2_048,
            paper_edges: 6_128,
            scale_denominator: 1,
            recipe: TriMesh { rows: 32, cols: 64, flip_prob: 0.3 },
        },
        InstanceSpec {
            name: "figeys",
            domain: Web,
            paper_vertices: 2_239,
            paper_edges: 6_452,
            scale_denominator: 1,
            recipe: Rmat { n: 2_239, m: 6_452, a: 0.65, b: 0.15, c: 0.15 },
        },
        InstanceSpec {
            name: "us_power_grid",
            domain: Road,
            paper_vertices: 4_941,
            paper_edges: 6_594,
            scale_denominator: 1,
            recipe: RoadNetwork { rows: 70, cols: 71, keep_prob: 0.336 },
        },
        InstanceSpec {
            name: "delaunay_n12",
            domain: Mesh,
            paper_vertices: 4_096,
            paper_edges: 12_265,
            scale_denominator: 1,
            recipe: TriMesh { rows: 64, cols: 64, flip_prob: 0.3 },
        },
        InstanceSpec {
            name: "hamster_small",
            domain: Social,
            paper_vertices: 1_858,
            paper_edges: 12_534,
            scale_denominator: 1,
            recipe: Ba { n: 1_858, m_attach: 7 },
        },
        InstanceSpec {
            name: "hamster_full",
            domain: Social,
            paper_vertices: 2_426,
            paper_edges: 16_631,
            scale_denominator: 1,
            recipe: Ba { n: 2_426, m_attach: 7 },
        },
        InstanceSpec {
            name: "pgp",
            domain: Social,
            paper_vertices: 10_680,
            paper_edges: 24_316,
            scale_denominator: 1,
            recipe: Rmat { n: 10_680, m: 24_316, a: 0.5, b: 0.2, c: 0.2 },
        },
        InstanceSpec {
            name: "delaunay_n13",
            domain: Mesh,
            paper_vertices: 8_192,
            paper_edges: 24_548,
            scale_denominator: 1,
            recipe: TriMesh { rows: 64, cols: 128, flip_prob: 0.3 },
        },
        InstanceSpec {
            name: "openflights",
            domain: Web,
            paper_vertices: 2_939,
            paper_edges: 30_501,
            scale_denominator: 1,
            recipe: Rmat { n: 2_939, m: 30_501, a: 0.6, b: 0.17, c: 0.17 },
        },
        InstanceSpec {
            name: "fe_4elt2",
            domain: Mesh,
            paper_vertices: 11_143,
            paper_edges: 32_819,
            scale_denominator: 1,
            recipe: TriMesh { rows: 86, cols: 130, flip_prob: 0.3 },
        },
        InstanceSpec {
            name: "twitter_lists",
            domain: Social,
            paper_vertices: 23_370,
            paper_edges: 33_101,
            scale_denominator: 1,
            recipe: Rmat { n: 23_370, m: 33_101, a: 0.55, b: 0.19, c: 0.19 },
        },
        InstanceSpec {
            name: "google_plus",
            domain: Social,
            paper_vertices: 23_628,
            paper_edges: 39_242,
            scale_denominator: 1,
            recipe: HubSpokes { n: 23_628, hubs: 2, frac: 0.11, extra: 34_044 },
        },
        InstanceSpec {
            name: "cs4",
            domain: Mesh,
            paper_vertices: 22_499,
            paper_edges: 43_859,
            scale_denominator: 1,
            recipe: RoadNetwork { rows: 150, cols: 150, keep_prob: 1.0 },
        },
        InstanceSpec {
            name: "cti",
            domain: Mesh,
            paper_vertices: 16_840,
            paper_edges: 48_233,
            scale_denominator: 1,
            recipe: TriMesh { rows: 120, cols: 140, flip_prob: 0.2 },
        },
        InstanceSpec {
            name: "delaunay_n14",
            domain: Mesh,
            paper_vertices: 16_384,
            paper_edges: 49_123,
            scale_denominator: 1,
            recipe: TriMesh { rows: 128, cols: 128, flip_prob: 0.3 },
        },
        InstanceSpec {
            name: "caida",
            domain: Web,
            paper_vertices: 26_475,
            paper_edges: 53_381,
            scale_denominator: 1,
            recipe: Rmat { n: 26_475, m: 53_381, a: 0.72, b: 0.13, c: 0.13 },
        },
        InstanceSpec {
            name: "vsp",
            domain: Web,
            paper_vertices: 10_498,
            paper_edges: 53_869,
            scale_denominator: 1,
            recipe: Rmat { n: 10_498, m: 53_869, a: 0.5, b: 0.2, c: 0.2 },
        },
        InstanceSpec {
            name: "wing_nodal",
            domain: Mesh,
            paper_vertices: 10_937,
            paper_edges: 75_489,
            scale_denominator: 1,
            recipe: Geometric { n: 10_937, radius: 0.02 },
        },
        InstanceSpec {
            name: "cora",
            domain: Collaboration,
            paper_vertices: 23_166,
            paper_edges: 91_500,
            scale_denominator: 1,
            recipe: Ba { n: 23_166, m_attach: 4 },
        },
        InstanceSpec {
            name: "gnutella",
            domain: PeerToPeer,
            paper_vertices: 62_586,
            paper_edges: 147_892,
            scale_denominator: 1,
            recipe: Rmat { n: 62_586, m: 147_892, a: 0.45, b: 0.22, c: 0.22 },
        },
        InstanceSpec {
            name: "arxiv_astro_ph",
            domain: Collaboration,
            paper_vertices: 18_771,
            paper_edges: 198_050,
            scale_denominator: 1,
            recipe: Ba { n: 18_771, m_attach: 10 },
        },
    ]
}

/// The 9 large instances used in the paper's application study (§VI), in
/// Table I order, scaled down by the recorded denominators.
pub fn large_suite() -> Vec<InstanceSpec> {
    use Domain::*;
    use Recipe::*;
    vec![
        InstanceSpec {
            name: "livemocha",
            domain: Social,
            paper_vertices: 104_000,
            paper_edges: 2_190_000,
            scale_denominator: 8,
            recipe: Ba { n: 13_032, m_attach: 21 },
        },
        InstanceSpec {
            name: "ca_roadnet",
            domain: Road,
            paper_vertices: 1_970_000,
            paper_edges: 2_770_000,
            scale_denominator: 16,
            recipe: RoadNetwork { rows: 350, cols: 351, keep_prob: 0.41 },
        },
        InstanceSpec {
            name: "hyves",
            domain: Social,
            paper_vertices: 1_400_000,
            paper_edges: 2_780_000,
            scale_denominator: 16,
            recipe: Rmat { n: 87_500, m: 174_000, a: 0.7, b: 0.13, c: 0.13 },
        },
        InstanceSpec {
            name: "arxiv_hep_ph",
            domain: Collaboration,
            paper_vertices: 28_100,
            paper_edges: 4_600_000,
            scale_denominator: 4,
            recipe: Ba { n: 7_025, m_attach: 41 },
        },
        InstanceSpec {
            name: "youtube",
            domain: Social,
            paper_vertices: 3_220_000,
            paper_edges: 9_380_000,
            scale_denominator: 32,
            recipe: Rmat { n: 100_600, m: 293_000, a: 0.65, b: 0.15, c: 0.15 },
        },
        InstanceSpec {
            name: "skitter",
            domain: Web,
            paper_vertices: 1_700_000,
            paper_edges: 11_100_000,
            scale_denominator: 16,
            recipe: Rmat { n: 106_250, m: 694_000, a: 0.62, b: 0.16, c: 0.16 },
        },
        InstanceSpec {
            name: "actor_collab",
            domain: Collaboration,
            paper_vertices: 382_000,
            paper_edges: 33_100_000,
            scale_denominator: 32,
            recipe: Ba { n: 11_938, m_attach: 87 },
        },
        InstanceSpec {
            name: "livejournal",
            domain: Social,
            paper_vertices: 5_200_000,
            paper_edges: 48_700_000,
            scale_denominator: 64,
            recipe: Rmat { n: 81_250, m: 761_000, a: 0.6, b: 0.17, c: 0.17 },
        },
        InstanceSpec {
            name: "orkut",
            domain: Social,
            paper_vertices: 3_070_000,
            paper_edges: 117_000_000,
            scale_denominator: 64,
            recipe: Ba { n: 47_968, m_attach: 38 },
        },
    ]
}

/// All 34 instances (25 small followed by 9 large).
pub fn full_suite() -> Vec<InstanceSpec> {
    let mut all = small_suite();
    all.extend(large_suite());
    all
}

/// Looks up an instance spec by its name.
pub fn by_name(name: &str) -> Option<InstanceSpec> {
    full_suite().into_iter().find(|s| s.name == name)
}

/// Builds the collection-order jitter permutation: identity with
/// `JITTER_FRACTION / 2 × n` random transpositions.
fn jitter_permutation(n: usize, seed: u64) -> Permutation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranks: Vec<u32> = (0..n as u32).collect();
    let swaps = ((n as f64 * JITTER_FRACTION) / 2.0).round() as usize;
    for _ in 0..swaps {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        ranks.swap(i, j);
    }
    Permutation::from_ranks_unchecked(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::GraphStats;

    #[test]
    fn suites_have_paper_cardinality() {
        assert_eq!(small_suite().len(), 25);
        assert_eq!(large_suite().len(), 9);
        assert_eq!(full_suite().len(), 34);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = full_suite().into_iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 34);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("delaunay_n12").is_some());
        assert!(by_name("no_such_graph").is_none());
    }

    #[test]
    fn seeds_differ_across_instances() {
        let a = by_name("delaunay_n12").unwrap().seed();
        let b = by_name("delaunay_n13").unwrap().seed();
        assert_ne!(a, b);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = by_name("euroroad").unwrap();
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn small_instances_match_paper_sizes_within_tolerance() {
        for spec in small_suite() {
            let g = spec.generate();
            let n = g.num_vertices() as f64;
            let m = g.num_edges() as f64;
            let pn = spec.paper_vertices as f64;
            let pm = spec.paper_edges as f64;
            assert!((n - pn).abs() / pn < 0.05, "{}: |V|={n} vs paper {pn}", spec.name);
            assert!((m - pm).abs() / pm < 0.15, "{}: |E|={m} vs paper {pm}", spec.name);
        }
    }

    #[test]
    fn chicago_road_is_sparser_than_vertices() {
        let g = by_name("chicago_road").unwrap().generate();
        assert!(g.num_edges() < g.num_vertices(), "Chicago Road has m < n in Table I");
    }

    #[test]
    fn social_instances_are_skewed_mesh_are_not() {
        let social = by_name("facebook_nips").unwrap().generate();
        let mesh = by_name("delaunay_n12").unwrap().generate();
        let ss = GraphStats::compute(&social);
        let ms = GraphStats::compute(&mesh);
        assert!(ss.degree_std_dev > 10.0, "social σ={}", ss.degree_std_dev);
        assert!(ms.degree_std_dev < 2.0, "mesh σ={}", ms.degree_std_dev);
        assert!(ss.max_degree > 500, "facebook_nips needs an extreme hub (paper Δ=769)");
        assert!(ms.max_degree <= 8);
    }

    #[test]
    fn large_instances_are_marked_scaled() {
        for spec in large_suite() {
            assert!(spec.is_scaled(), "{} should record its scale", spec.name);
        }
        for spec in small_suite() {
            assert!(!spec.is_scaled(), "{} should be unscaled", spec.name);
        }
    }

    #[test]
    fn cs4_is_a_bounded_degree_mesh() {
        let g = by_name("cs4").unwrap().generate();
        assert!(g.max_degree() <= 4, "cs4 has Δ=4 in the paper");
    }

    #[test]
    fn jitter_preserves_structure_but_breaks_layout() {
        let spec = by_name("delaunay_n11").unwrap();
        let raw = spec.generate_unjittered();
        let jittered = spec.generate();
        // Same graph up to relabeling…
        assert_eq!(raw.num_vertices(), jittered.num_vertices());
        assert_eq!(raw.num_edges(), jittered.num_edges());
        assert_eq!(raw.max_degree(), jittered.max_degree());
        // …but the natural layout's locality is partially destroyed: the
        // mesh generator's row-major bandwidth is tiny, the jittered one
        // is not.
        let band =
            |g: &reorderlab_graph::Csr| g.edges().map(|(u, v, _)| u.abs_diff(v)).max().unwrap_or(0);
        assert!(band(&jittered) > 4 * band(&raw), "jitter must break perfect layouts");
    }

    #[test]
    fn jitter_is_deterministic() {
        let spec = by_name("vsp").unwrap();
        assert_eq!(spec.generate(), spec.generate());
    }
}

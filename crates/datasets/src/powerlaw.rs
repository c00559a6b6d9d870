//! Skewed-degree graph models: Barabási–Albert preferential attachment,
//! RMAT, and an explicit hub-and-spokes model for ego-network-like inputs
//! with extreme maximum degree.
//!
//! These stand in for the paper's social/web/collaboration instances, whose
//! defining features for reordering behaviour are the heavy-tailed degree
//! distribution (Table I reports degree σ up to 591) and the presence of
//! hubs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reorderlab_graph::{Csr, GraphBuilder};
#[expect(
    clippy::disallowed_types,
    reason = "membership sets; what leaves them is sorted first (the generators run in set-up, outside every timed region)"
)]
use std::collections::HashSet;

/// A Barabási–Albert preferential-attachment graph: starting from a small
/// clique, each new vertex attaches to `m_attach` existing vertices chosen
/// proportionally to degree.
///
/// # Panics
///
/// Panics if `m_attach == 0` or `n <= m_attach`.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Csr {
    assert!(m_attach >= 1, "attachment count must be positive");
    assert!(n > m_attach, "need more vertices than the attachment count");
    let mut rng = StdRng::seed_from_u64(seed);
    // `endpoints` holds one entry per arc endpoint; sampling uniformly from
    // it implements preferential attachment.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_attach);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * m_attach);
    // Seed clique over the first m_attach + 1 vertices.
    let core = m_attach as u32 + 1;
    for u in 0..core {
        for v in (u + 1)..core {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    #[expect(
        clippy::disallowed_types,
        reason = "a membership set whose contents are sorted before use"
    )]
    let mut chosen: HashSet<u32> = HashSet::with_capacity(m_attach * 2);
    for v in core..n as u32 {
        chosen.clear();
        // Sample m_attach distinct targets by degree.
        let mut guard = 0;
        while chosen.len() < m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            chosen.insert(t);
            guard += 1;
            if guard > 64 * m_attach {
                // Degenerate corner (tiny graphs): fall back to uniform.
                let t = rng.gen_range(0..v);
                chosen.insert(t);
            }
        }
        // Sort for determinism: HashSet iteration order would otherwise leak
        // into the preferential-attachment stream.
        let mut targets: Vec<u32> = chosen.iter().copied().collect();
        targets.sort_unstable();
        for t in targets {
            edges.push((v, t));
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    GraphBuilder::undirected(n).edges(edges).build_expect()
}

/// Parameters of the RMAT recursive quadrant model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the (0,0) quadrant — larger `a` means stronger skew.
    pub a: f64,
    /// Probability of the (0,1) quadrant.
    pub b: f64,
    /// Probability of the (1,0) quadrant.
    pub c: f64,
}

impl RmatParams {
    /// The Graph500 parameterization `(0.57, 0.19, 0.19)`.
    #[cfg(test)]
    pub(crate) fn graph500() -> Self {
        RmatParams { a: 0.57, b: 0.19, c: 0.19 }
    }

    /// Implied probability of the (1,1) quadrant.
    pub(crate) fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// An RMAT graph on `n` vertices with (approximately) `m` distinct
/// undirected edges.
///
/// Edges are drawn in the standard `2^ceil(log2 n)` recursive id space, then
/// mapped into `[0, n)`; self loops and duplicates are rejected, and we
/// resample until `m` distinct edges exist (with a cap of `32 m` attempts to
/// guarantee termination on dense requests).
///
/// # Panics
///
/// Panics if the quadrant probabilities are not a distribution or `n < 2`.
pub fn rmat(n: usize, m: usize, params: RmatParams, seed: u64) -> Csr {
    assert!(n >= 2, "rmat needs at least two vertices");
    let d = params.d();
    assert!(
        params.a > 0.0 && params.b >= 0.0 && params.c >= 0.0 && (0.0..=1.0).contains(&d),
        "rmat quadrant probabilities must form a distribution"
    );
    let levels = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n)
    let mut rng = StdRng::seed_from_u64(seed);
    #[expect(clippy::disallowed_types, reason = "membership-only: the set is never iterated")]
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m * 2);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
    let mut attempts = 0usize;
    let max_attempts = 32 * m.max(1);
    while edges.len() < m && attempts < max_attempts {
        attempts += 1;
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..levels {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < params.a {
                // (0,0): nothing to add
            } else if r < params.a + params.b {
                v |= 1;
            } else if r < params.a + params.b + params.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        let (u, v) = (u % n as u32, v % n as u32);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            edges.push(key);
        }
    }
    GraphBuilder::undirected(n).edges(edges).build_expect()
}

/// A hub-and-spokes graph modelling ego networks: `num_hubs` designated hubs
/// each connect to a `hub_frac` fraction of all vertices; `extra_edges`
/// additional uniform edges connect the periphery.
///
/// This reproduces inputs like the paper's *Facebook (NIPS)* instance
/// (n = 2 888, Δ = 769) whose maximum degree is a large fraction of `n` —
/// far beyond what preferential attachment produces at that size.
///
/// # Panics
///
/// Panics if `num_hubs >= n` or `hub_frac` is outside `(0, 1]`.
pub fn hub_and_spokes(
    n: usize,
    num_hubs: usize,
    hub_frac: f64,
    extra_edges: usize,
    seed: u64,
) -> Csr {
    assert!(num_hubs < n, "need fewer hubs than vertices");
    assert!(hub_frac > 0.0 && hub_frac <= 1.0, "hub_frac must be in (0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let spokes_per_hub = ((n as f64) * hub_frac) as usize;
    for h in 0..num_hubs as u32 {
        #[expect(
            clippy::disallowed_types,
            reason = "its contents reach the edge list, which GraphBuilder sorts"
        )]
        let mut attached: HashSet<u32> = HashSet::with_capacity(spokes_per_hub);
        while attached.len() < spokes_per_hub {
            let t = rng.gen_range(0..n as u32);
            if t != h {
                attached.insert(t);
            }
        }
        edges.extend(attached.into_iter().map(|t| (h, t)));
    }
    for _ in 0..extra_edges {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            edges.push((u, v));
        }
    }
    GraphBuilder::undirected(n).edges(edges).build_expect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_graph::{Components, GraphStats};

    #[test]
    fn ba_edge_count_and_connectivity() {
        let g = barabasi_albert(200, 3, 13);
        assert_eq!(g.num_vertices(), 200);
        // Seed clique C(4,2)=6 + 196 * 3 new edges, minus any duplicates
        // (sampled targets are distinct per vertex, so none).
        assert_eq!(g.num_edges(), 6 + 196 * 3);
        assert!(Components::find(&g).count() <= 1);
    }

    #[test]
    fn ba_is_skewed() {
        let g = barabasi_albert(2000, 2, 13);
        let s = GraphStats::compute(&g);
        assert!(s.max_degree > 20, "BA should grow hubs, got Δ={}", s.max_degree);
        assert!(s.degree_std_dev > 2.0);
    }

    #[test]
    fn ba_deterministic() {
        assert_eq!(barabasi_albert(100, 2, 5), barabasi_albert(100, 2, 5));
    }

    #[test]
    #[should_panic(expected = "more vertices")]
    fn ba_rejects_tiny_n() {
        let _ = barabasi_albert(2, 2, 0);
    }

    #[test]
    fn rmat_hits_edge_target() {
        let g = rmat(512, 2000, RmatParams::graph500(), 21);
        assert_eq!(g.num_vertices(), 512);
        assert_eq!(g.num_edges(), 2000);
    }

    #[test]
    fn rmat_skew_increases_with_a() {
        let skewed = rmat(1024, 4000, RmatParams { a: 0.7, b: 0.12, c: 0.12 }, 3);
        let uniform = rmat(1024, 4000, RmatParams { a: 0.25, b: 0.25, c: 0.25 }, 3);
        let ds = GraphStats::compute(&skewed).degree_std_dev;
        let du = GraphStats::compute(&uniform).degree_std_dev;
        assert!(ds > 1.5 * du, "skewed σ={ds} vs uniform σ={du}");
    }

    #[test]
    fn rmat_params_d_complements() {
        assert!((RmatParams::graph500().d() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn hub_and_spokes_has_extreme_hub() {
        let g = hub_and_spokes(1000, 2, 0.4, 500, 17);
        let s = GraphStats::compute(&g);
        assert!(s.max_degree >= 400, "Δ={}", s.max_degree);
    }

    #[test]
    fn hub_and_spokes_deterministic() {
        assert_eq!(hub_and_spokes(300, 1, 0.5, 100, 9), hub_and_spokes(300, 1, 0.5, 100, 9));
    }
}

//! PageRank goldens: `iterations`, `converged` and a digest of every
//! score's bits, recorded from the kernel as it stood before the per-vertex
//! share (PR 25). The iteration now reads `share[u] = scores[u] / deg(u)`
//! instead of dividing per arc; these pins prove that is the same float
//! sequence, flat and compressed, at every width.

use reorderlab_datasets::{barabasi_albert, by_name};
use reorderlab_graph::{build_pool, CompressedCsr, Csr, GraphBuilder};
use reorderlab_kernels::{pagerank, pagerank_compressed, PageRankConfig, PageRankResult};

/// FNV-1a over the little-endian bits of every score, in vertex order.
fn digest(scores: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A directed graph with dangling vertices: the edges of a preferential-
/// attachment graph, oriented by id parity, with every arc out of a
/// multiple of 9 dropped (so those vertices have out-degree 0).
fn directed_with_dangling() -> Csr {
    let g = barabasi_albert(600, 3, 7);
    let mut arcs = Vec::new();
    for u in 0..g.num_vertices() as u32 {
        for &v in g.neighbors(u) {
            if u < v {
                let (s, t) = if (u ^ v) & 1 == 0 { (u, v) } else { (v, u) };
                if s % 9 != 0 {
                    arcs.push((s, t));
                }
            }
        }
    }
    GraphBuilder::directed(g.num_vertices()).edges(arcs).build().expect("valid arcs")
}

fn fingerprint(r: &PageRankResult) -> (usize, bool, u64) {
    (r.iterations, r.converged, digest(&r.scores))
}

/// `(name, graph, (iterations, converged, digest))`, recorded at the parent.
fn goldens() -> Vec<(&'static str, Csr, (usize, bool, u64))> {
    vec![
        (
            "pgp",
            by_name("pgp").expect("in suite").generate(),
            (66, true, 2_299_050_549_998_755_492),
        ),
        (
            "euroroad",
            by_name("euroroad").expect("in suite").generate(),
            (90, true, 4_840_823_879_771_303_858),
        ),
        ("directed-dangling", directed_with_dangling(), (25, true, 10_012_763_054_801_701_566)),
    ]
}

#[test]
fn pagerank_matches_parent_goldens_at_every_width() {
    let cfg = PageRankConfig::new();
    for (name, g, want) in goldens() {
        let cz = CompressedCsr::from_csr(&g).expect("compressible");
        // `pgp` has isolated vertices and the directed case sinks, so the
        // dangling-mass list is exercised on both storage forms.
        let dangling = (0..g.num_vertices() as u32).any(|v| g.degree(v) == 0);
        assert_eq!(dangling, name != "euroroad", "{name}: dangling vertices");
        for threads in [1usize, 2, 7] {
            let (flat, packed) = build_pool(threads)
                .install(|| (pagerank(&g, &cfg), pagerank_compressed(&cz, &cfg).expect("sorted")));
            assert_eq!(fingerprint(&flat), want, "{name}: flat at {threads} threads");
            assert_eq!(fingerprint(&packed), want, "{name}: compressed at {threads} threads");
        }
    }
}

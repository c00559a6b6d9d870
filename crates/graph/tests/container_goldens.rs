//! Byte goldens of both containers. For every degenerate-suite graph, plus
//! one weighted and one directed graph, the length and FNV-1a of its
//! `.csrbin` and `.csrz` encodings and its `csr_digest` are pinned to the
//! values the formats had before `.csrbin` and `.csrz` shared one frame.
//! Any change to a header layout, a payload codec, a checksum or the digest
//! fails here, so "the written bytes are identical" is checked on every
//! run.

use reorderlab_datasets::degenerate_suite;
use reorderlab_graph::{
    csr_digest, fnv1a, write_binary_csr, write_compressed_csr, CompressedCsr, Csr, GraphBuilder,
};

/// `(name, .csrbin bytes, .csrbin FNV-1a, .csrz bytes, .csrz FNV-1a,
/// csr_digest)`.
const GOLDENS: [(&str, usize, u64, usize, u64, u64); 12] = [
    ("empty", 64, 0x627a242539b386dd, 64, 0x91ad4b810b69dcca, 0x8e2acb43b43b3ba7),
    ("single_vertex", 72, 0x36ff9d3a0ad5d244, 65, 0x0f7188320aa97c16, 0xb1733a891ef75be6),
    ("zero_edge_4", 96, 0xfdc76e4f8cc8d46a, 68, 0x885ca3eb15f400ba, 0x282833a47089cb23),
    ("zero_edge_33", 328, 0x63efc96f92cec7db, 97, 0x938e1654ded5fdbc, 0x588737a7c0d91fc6),
    ("single_edge", 96, 0x6b08d08d38728715, 69, 0xe2e2af9234b6ef4e, 0x1f1d393134882007),
    ("all_self_loops", 124, 0x7c9f51f99c717936, 74, 0x30ae03defae5a27c, 0x8e0d490942228b17),
    ("disconnected_pairs", 208, 0x7271800f62fc748c, 88, 0xd90176a98db177cd, 0xdd36c57524d5f7ed),
    ("two_components", 160, 0x298959f253191fd1, 81, 0xbacbb1a51a5ca283, 0x17886f86d1ff4307),
    ("star_9", 200, 0xa36876588a41f475, 89, 0x8815af09aa34c3df, 0xd83a0172efb008ee),
    ("duplicate_heavy", 168, 0x615bd5741629cd5e, 83, 0xcc65baebedef1272, 0x62c77f2a1d814f12),
    ("weighted_path", 168, 0xa5ad841e50b613b8, 122, 0x5606c276fdf185d6, 0x9c26f8cffd8a32b6),
    ("directed_cycle", 140, 0xe41289e84abef63d, 77, 0x5bbb77e989efa9d3, 0x313e1e8717d09dd6),
];

fn graphs() -> Vec<(&'static str, Csr)> {
    let mut graphs: Vec<(&'static str, Csr)> =
        degenerate_suite().into_iter().map(|case| (case.name, case.graph)).collect();
    graphs.push((
        "weighted_path",
        GraphBuilder::undirected(4)
            .weighted_edges([(0, 1, 2.5), (1, 2, 0.25), (2, 3, 7.0)])
            .build()
            .unwrap(),
    ));
    graphs.push((
        "directed_cycle",
        GraphBuilder::directed(6)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3), (5, 0)])
            .build()
            .unwrap(),
    ));
    graphs
}

#[test]
fn written_bytes_and_digests_match_the_goldens() {
    let graphs = graphs();
    assert_eq!(graphs.len(), GOLDENS.len(), "one golden per graph");
    for ((name, g), (golden, flat_len, flat_fnv, packed_len, packed_fnv, digest)) in
        graphs.iter().zip(GOLDENS)
    {
        assert_eq!(*name, golden);
        let mut flat = Vec::new();
        write_binary_csr(g, &mut flat).unwrap();
        assert_eq!((flat.len(), fnv1a(&flat)), (flat_len, flat_fnv), "{name}: .csrbin bytes");
        let mut packed = Vec::new();
        write_compressed_csr(&CompressedCsr::from_csr(g).unwrap(), &mut packed).unwrap();
        assert_eq!((packed.len(), fnv1a(&packed)), (packed_len, packed_fnv), "{name}: .csrz bytes");
        assert_eq!(csr_digest(g), digest, "{name}: csr_digest");
    }
}

//! Compressed CSR (`.csrz`) contract tests, mirroring `tests/binfmt.rs`:
//! every pathological graph shape must round-trip byte-exactly through
//! compress → write → read → decode, and every single-bit corruption of an
//! encoded stream must be detected — never silently accepted as a
//! different graph. A proptest additionally drives the round trip across
//! every synthetic generator family.

use proptest::prelude::*;
use reorderlab_datasets::{
    barabasi_albert, binary_tree, clique_chain, complete, cycle, degenerate_suite, erdos_renyi_gnm,
    grid2d, hub_and_spokes, path, random_geometric, rmat, road_fragment, road_network, star,
    stochastic_block_model, tri_mesh, watts_strogatz, RmatParams,
};
use reorderlab_graph::{
    read_compressed_csr, write_compressed_csr, BinCsrError, CompressedCsr, Csr,
    COMPRESSED_CSR_MAGIC,
};

fn encode(graph: &Csr) -> Vec<u8> {
    let cz = CompressedCsr::from_csr(graph).expect("suite graphs have sorted rows");
    let mut bytes = Vec::new();
    write_compressed_csr(&cz, &mut bytes).unwrap();
    bytes
}

#[test]
fn every_degenerate_case_round_trips_exactly() {
    for case in degenerate_suite() {
        let bytes = encode(&case.graph);
        let back = read_compressed_csr(&mut bytes.as_slice())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert_eq!(back.decode(), case.graph, "{}", case.name);
        // The in-memory compressed forms agree too, not just the decodes.
        assert_eq!(back, CompressedCsr::from_csr(&case.graph).unwrap(), "{}", case.name);
    }
}

#[test]
fn encoding_is_deterministic() {
    for case in degenerate_suite() {
        assert_eq!(encode(&case.graph), encode(&case.graph), "{}", case.name);
    }
}

#[test]
fn every_flipped_bit_is_detected() {
    for case in degenerate_suite() {
        let clean = encode(&case.graph);
        // Flip one bit in every byte position (cheap: degenerate graphs
        // are tiny, so this is a full corruption sweep, not a sample).
        for pos in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x01;
            match read_compressed_csr(&mut corrupt.as_slice()) {
                Err(_) => {}
                Ok(decoded) => panic!(
                    "{}: flipping byte {pos}/{} went undetected (decoded |V|={}, arcs={})",
                    case.name,
                    clean.len(),
                    decoded.num_vertices(),
                    decoded.num_arcs()
                ),
            }
        }
    }
}

#[test]
fn truncation_at_every_length_is_detected() {
    for case in degenerate_suite() {
        let clean = encode(&case.graph);
        for len in 0..clean.len() {
            let err = read_compressed_csr(&mut clean[..len].to_vec().as_slice());
            assert!(err.is_err(), "{}: truncation to {len} bytes went undetected", case.name);
        }
    }
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let Some(case) = degenerate_suite().into_iter().next() else {
        panic!("degenerate suite is empty");
    };
    let mut bytes = encode(&case.graph);
    bytes[..8].copy_from_slice(b"NOTACSR!");
    match read_compressed_csr(&mut bytes.as_slice()) {
        Err(BinCsrError::BadMagic { found }) => {
            assert_eq!(&found, b"NOTACSR!");
            assert_ne!(found, COMPRESSED_CSR_MAGIC);
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn flat_and_compressed_containers_are_distinguishable() {
    // A `.csrbin` stream fed to the `.csrz` reader (and vice versa) is a
    // typed magic error, not garbage or a panic.
    let Some(case) = degenerate_suite().into_iter().next() else {
        panic!("degenerate suite is empty");
    };
    let mut flat = Vec::new();
    reorderlab_graph::write_binary_csr(&case.graph, &mut flat).unwrap();
    assert!(matches!(read_compressed_csr(&mut flat.as_slice()), Err(BinCsrError::BadMagic { .. })));
    let packed = encode(&case.graph);
    assert!(matches!(
        reorderlab_graph::read_binary_csr(&mut packed.as_slice()),
        Err(BinCsrError::BadMagic { .. })
    ));
}

/// One small instance of each synthetic generator family, keyed by seed.
fn family(idx: usize, seed: u64) -> Csr {
    match idx {
        0 => road_network(6, 7, 0.9, seed),
        1 => road_fragment(5, 6, 0.2, seed),
        2 => tri_mesh(5, 5, 0.3, seed),
        3 => barabasi_albert(40, 2, seed),
        4 => rmat(32, 60, RmatParams { a: 0.57, b: 0.19, c: 0.19 }, seed),
        5 => hub_and_spokes(40, 3, 0.4, 15, seed),
        6 => watts_strogatz(30, 4, 0.2, seed),
        7 => erdos_renyi_gnm(30, 50, seed),
        8 => random_geometric(30, 0.25, seed),
        9 => stochastic_block_model(40, 4, 0.4, 0.02, seed).graph,
        10 => binary_tree(31),
        11 => clique_chain(4, 5),
        12 => grid2d(6, 7),
        13 => path(17),
        14 => cycle(13),
        15 => star(11),
        _ => complete(8),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(34))]

    /// Compress → decompress is bit-identical for every generator family,
    /// and the `.csrz` container round-trips the compressed form exactly.
    #[test]
    fn compression_round_trips_every_family(idx in 0usize..17, seed in any::<u64>()) {
        let g = family(idx, seed);
        let cz = CompressedCsr::from_csr(&g).unwrap();
        prop_assert_eq!(&cz.decode(), &g, "family {} decode", idx);
        let mut bytes = Vec::new();
        write_compressed_csr(&cz, &mut bytes).unwrap();
        let back = read_compressed_csr(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(&back, &cz, "family {} container", idx);
        prop_assert_eq!(&back.decode(), &g, "family {} container decode", idx);
    }
}

//! The flat payload codec of the checksummed binary CSR container
//! (`.csrbin`).
//!
//! Text ingestion (`io.rs` / `mtx.rs`) pays a full tokenize-and-validate
//! pass on every load. A long-lived server cannot afford that per request,
//! so this module defines a binary on-disk form of [`Csr`] that is parsed
//! once when a corpus is built and then loaded with two checksum passes and
//! a structural validation — no text parsing at all.
//!
//! The header, both checksums and their verification are the container
//! frame `.csrz` shares (`container.rs`). Here the header is 56 bytes and
//! stores no payload length, because the counts fix it. The payload (all
//! integers little-endian):
//!
//! ```text
//! size      field
//! 8(n+1)    offsets, u64 each
//! 4a        targets, u32 each
//! 8a        weight bits (f64::to_bits), only when the weighted flag is set
//! ```
//!
//! Every deviation — wrong magic, unknown version, a flipped byte anywhere
//! in header or payload, truncation, or a structurally impossible graph
//! (non-monotone offsets, out-of-range targets, non-finite weights) — is a
//! typed [`BinCsrError`], never a panic.
//!
//! [`csr_digest`] hashes the same canonical byte stream without touching
//! disk; it is the graph-identity half of the serve layer's permutation
//! cache key (DESIGN.md §11).

use crate::cast::usize_from_u32;
use crate::container::{
    le_u32, le_u64, read_container, read_weights, visit_weights, write_container, BinCsrError,
    Fnv64, Format, Header, Payload, PayloadLen, PREFIX_LEN,
};
use crate::csr::Csr;
use crate::io::MAX_TRUSTED_RESERVE;
use std::io::{Read, Write};

/// Magic bytes opening every binary CSR file.
pub const BINARY_CSR_MAGIC: [u8; 8] = *b"RLCSRB01";

/// Current format version written by [`write_binary_csr`].
pub(crate) const BINARY_CSR_VERSION: u32 = 1;

/// Canonical file extension for the format.
pub const BINARY_CSR_EXTENSION: &str = "csrbin";

/// The `.csrbin` frame: every section is fixed-width, so the counts fix
/// the payload length.
pub(crate) const CSRBIN: Format = Format {
    magic: BINARY_CSR_MAGIC,
    version: BINARY_CSR_VERSION,
    payload_len: PayloadLen::Derived(payload_len),
};

/// Payload bytes of a flat graph: `n + 1` offsets, `arcs` targets and,
/// when weighted, `arcs` weights.
fn payload_len(n: u64, arcs: u64, weighted: bool) -> Result<u64, BinCsrError> {
    let offsets_len =
        n.checked_add(1).ok_or(BinCsrError::TooLarge { field: "num_vertices", value: n })?;
    offsets_len
        .checked_mul(8)
        .and_then(|x| x.checked_add(arcs.checked_mul(4)?))
        .and_then(|x| if weighted { x.checked_add(arcs.checked_mul(8)?) } else { Some(x) })
        .ok_or(BinCsrError::TooLarge { field: "payload", value: u64::MAX })
}

impl Payload for Csr {
    fn header(&self) -> Header {
        Header::of(self, self.is_weighted())
    }

    fn visit(&self, mut sink: impl FnMut(&[u8])) {
        for &off in self.offsets() {
            // Lossless once the header's arc count fits u64: no offset
            // exceeds it.
            sink(&u64::try_from(off).unwrap_or(u64::MAX).to_le_bytes());
        }
        for &t in self.targets() {
            sink(&t.to_le_bytes());
        }
        visit_weights(self.weights_raw(), &mut sink);
    }
}

/// Writes `graph` to `writer` in the checksummed binary CSR format.
///
/// The output is byte-deterministic: the same graph always serializes to
/// the same bytes, so `write → read → write` is bit-identical.
///
/// # Errors
///
/// [`BinCsrError::Io`] on write failures; [`BinCsrError::TooLarge`] when a
/// dimension does not fit the 64-bit header fields (unreachable for graphs
/// this workspace can hold in memory).
pub fn write_binary_csr<W: Write>(graph: &Csr, writer: &mut W) -> Result<(), BinCsrError> {
    write_container(&CSRBIN, graph, writer)
}

/// The 64-bit identity digest of a graph: FNV-1a over the header metadata
/// and the canonical payload byte stream — exactly the bytes
/// [`write_binary_csr`] emits, minus the checksums themselves.
///
/// Two graphs share a digest iff they serialize identically, so the digest
/// is a stable cache key for anything derived purely from the graph (the
/// serve layer keys permutations by `(digest, scheme spec)`).
pub fn csr_digest(graph: &Csr) -> u64 {
    let mut hash = Fnv64::new();
    match CSRBIN.prefix(&graph.header()) {
        Ok(prefix) => hash.update(&prefix[..PREFIX_LEN]),
        // Unreachable for in-memory graphs (usize always fits u64 on
        // supported platforms); fold the failure into the digest rather
        // than panicking in library code.
        Err(_) => hash.update(b"header-overflow"),
    }
    graph.visit(|bytes| hash.update(bytes));
    hash.finish()
}

/// Reads a graph from the checksummed binary CSR format.
///
/// Verification order: the container frame's (magic → version → header
/// checksum → flags → payload length → payload checksum), then structural
/// validation. The first failure wins, so a flipped header byte is always
/// reported as a header problem, never as a confusing downstream
/// structural error.
///
/// # Errors
///
/// Every rejection is a typed [`BinCsrError`]; this function never panics
/// on any byte stream.
pub fn read_binary_csr<R: Read>(reader: &mut R) -> Result<Csr, BinCsrError> {
    let (Header { directed, weighted, n, arcs, edges }, payload) = read_container(&CSRBIN, reader)?;
    let mut cursor = payload.as_slice();
    let mut take = |len: usize| -> &[u8] {
        let (head, tail) = cursor.split_at(len.min(cursor.len()));
        cursor = tail;
        head
    };

    let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
    let mut prev = 0u64;
    for (i, raw) in take((n + 1).saturating_mul(8)).chunks_exact(8).enumerate() {
        let off = le_u64(raw);
        if off < prev {
            return Err(BinCsrError::Inconsistent {
                message: format!("offsets not monotone at vertex {i}: {off} < {prev}"),
            });
        }
        prev = off;
        let off = usize::try_from(off)
            .map_err(|_| BinCsrError::TooLarge { field: "offset", value: off })?;
        offsets.push(off);
    }
    if offsets.len() != n + 1 {
        return Err(BinCsrError::Inconsistent {
            message: format!("expected {} offsets, payload holds {}", n + 1, offsets.len()),
        });
    }
    if offsets.first().copied() != Some(0) {
        return Err(BinCsrError::Inconsistent { message: "offsets must start at 0".to_string() });
    }
    if offsets.last().copied() != Some(arcs) {
        return Err(BinCsrError::Inconsistent {
            message: format!(
                "final offset {} disagrees with num_arcs {}",
                offsets.last().copied().unwrap_or(0),
                arcs
            ),
        });
    }

    let mut targets: Vec<u32> = Vec::with_capacity(arcs.min(MAX_TRUSTED_RESERVE));
    for raw in take(arcs.saturating_mul(4)).chunks_exact(4) {
        let t = le_u32(raw);
        if usize_from_u32(t) >= n {
            return Err(BinCsrError::Inconsistent {
                message: format!("target {t} out of range for {n} vertices"),
            });
        }
        targets.push(t);
    }
    if targets.len() != arcs {
        return Err(BinCsrError::Inconsistent {
            message: format!("expected {arcs} targets, payload holds {}", targets.len()),
        });
    }

    let weights =
        if weighted { Some(read_weights(take(arcs.saturating_mul(8)), arcs)?) } else { None };
    Ok(Csr::from_raw_parts(offsets, targets, weights, edges, directed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample() -> Csr {
        GraphBuilder::undirected(5)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary_csr(&g, &mut buf).unwrap();
        let h = read_binary_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g, h);
        let mut buf2 = Vec::new();
        write_binary_csr(&h, &mut buf2).unwrap();
        assert_eq!(buf, buf2, "write→read→write must be byte-stable");
    }

    #[test]
    fn digest_matches_identity_semantics() {
        let g = sample();
        let h = GraphBuilder::undirected(5)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
            .build()
            .unwrap();
        assert_eq!(csr_digest(&g), csr_digest(&h), "equal graphs share a digest");
        let k = GraphBuilder::undirected(5).edges([(0, 1), (1, 2)]).build().unwrap();
        assert_ne!(csr_digest(&g), csr_digest(&k), "different graphs differ");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary_csr(&g, &mut buf).unwrap();
        for i in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x40;
            let err = read_binary_csr(&mut corrupt.as_slice())
                .expect_err(&format!("flip at byte {i} must be rejected"));
            match err {
                BinCsrError::BadMagic { .. }
                | BinCsrError::UnsupportedVersion { .. }
                | BinCsrError::HeaderChecksum { .. }
                | BinCsrError::PayloadChecksum { .. }
                | BinCsrError::Truncated { .. } => {}
                other => panic!("flip at byte {i}: unexpected error class {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_typed() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary_csr(&g, &mut buf).unwrap();
        let header_len = CSRBIN.header_len();
        for len in [0, 7, header_len - 1, header_len, buf.len() - 1] {
            let err = read_binary_csr(&mut &buf[..len]).unwrap_err();
            assert!(matches!(err, BinCsrError::Truncated { .. }), "prefix of {len} bytes: {err:?}");
        }
    }

    #[test]
    fn forged_giant_header_fails_without_huge_allocation() {
        // A syntactically valid header (checksums recomputed) declaring a
        // petabyte-scale payload must fail at EOF, not OOM.
        let mut header = [0u8; 56];
        assert_eq!(header.len(), CSRBIN.header_len());
        header[0..8].copy_from_slice(&BINARY_CSR_MAGIC);
        header[8..12].copy_from_slice(&BINARY_CSR_VERSION.to_le_bytes());
        header[16..24].copy_from_slice(&(1u64 << 45).to_le_bytes()); // n
        header[24..32].copy_from_slice(&(1u64 << 46).to_le_bytes()); // arcs
        header[32..40].copy_from_slice(&(1u64 << 45).to_le_bytes()); // edges
        let mut hash = Fnv64::new();
        hash.update(&header[0..48]);
        let checksum = hash.finish();
        header[48..56].copy_from_slice(&checksum.to_le_bytes());
        let err = read_binary_csr(&mut header.as_slice()).unwrap_err();
        assert!(matches!(err, BinCsrError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn weighted_graphs_round_trip() {
        let g = GraphBuilder::undirected(4)
            .weighted_edges([(0u32, 1u32, 2.5f64), (1, 2, 0.25), (2, 3, 7.0)])
            .build()
            .unwrap();
        assert!(g.is_weighted());
        let mut buf = Vec::new();
        write_binary_csr(&g, &mut buf).unwrap();
        let h = read_binary_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g, h);
        assert_eq!(h.edge_weight(0, 1), Some(2.5));
    }
}

//! The container frame `.csrbin` and `.csrz` share.
//!
//! Both on-disk graph formats are one frame around a payload codec: the
//! flat offsets/targets codec of `binfmt.rs` and the degree/gap varint
//! codec of `compressed.rs`. The frame is a fixed header (all integers
//! little-endian), then the payload:
//!
//! ```text
//! offset  size  field
//! 0       8     magic                       (b"RLCSRB01" / b"RLCSRZ01")
//! 8       4     format version              (u32, currently 1)
//! 12      4     flags                       (bit 0: directed, bit 1: weighted)
//! 16      8     num_vertices  n             (u64)
//! 24      8     num_arcs      a             (u64)
//! 32      8     num_edges     m (logical)   (u64)
//! 40      8     payload length              (u64; `.csrz` only)
//! h-16    8     payload checksum            (FNV-1a 64 over the payload)
//! h-8     8     header checksum             (FNV-1a 64 over bytes 0..h-8)
//! ```
//!
//! The header is `h` = 56 bytes for `.csrbin`, whose fixed-width payload
//! length follows from the counts, and 64 for `.csrz`, whose varint payload
//! length does not. A weighted graph's payload ends with the weight
//! section: `a` f64 bit patterns.
//!
//! The frame owns what the formats share: the header write, the
//! verification order (magic → version → header checksum → flags →
//! payload length → payload read → payload checksum; the first failure
//! wins, so a flipped header byte is always a header error), the count
//! conversions, the edge-count plausibility rule and the weight section. A
//! codec only ever parses checksum-verified bytes. The reader grows its
//! buffers while streaming (capped initial reserve), so a forged header
//! declaring absurd sizes fails with [`BinCsrError::Truncated`] instead of
//! exhausting memory.

use crate::adjacency::Adjacency;
use crate::io::MAX_TRUSTED_RESERVE;
use std::fmt;
use std::io::{Read, Write};

/// Why a binary CSR stream was rejected.
#[derive(Debug)]
pub enum BinCsrError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The stream does not start with the format's magic bytes
    /// ([`crate::BINARY_CSR_MAGIC`] or [`crate::COMPRESSED_CSR_MAGIC`]).
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The version field names a format this build cannot read.
    UnsupportedVersion {
        /// The version the header declared.
        found: u32,
    },
    /// The header checksum does not match the header bytes: the header
    /// itself is corrupt, so none of its fields can be trusted.
    HeaderChecksum {
        /// Checksum recorded in the stream.
        stored: u64,
        /// Checksum recomputed over the received header bytes.
        computed: u64,
    },
    /// The payload checksum does not match the payload bytes.
    PayloadChecksum {
        /// Checksum recorded in the stream.
        stored: u64,
        /// Checksum recomputed over the received payload bytes.
        computed: u64,
    },
    /// The stream ended before the declared payload was complete.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// Header and payload are self-consistent bytes but describe an
    /// impossible graph (non-monotone offsets, out-of-range target,
    /// non-finite weight, contradictory edge counts).
    Inconsistent {
        /// What contradiction was found.
        message: String,
    },
    /// The declared dimensions overflow this platform's address space.
    TooLarge {
        /// Which field overflowed.
        field: &'static str,
        /// The declared value.
        value: u64,
    },
}

impl fmt::Display for BinCsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinCsrError::Io(e) => write!(f, "binary csr io error: {e}"),
            BinCsrError::BadMagic { found } => {
                write!(f, "not a binary csr stream (magic {found:?})")
            }
            BinCsrError::UnsupportedVersion { found } => {
                write!(f, "unsupported binary csr version {found} (this build reads 1)")
            }
            BinCsrError::HeaderChecksum { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BinCsrError::PayloadChecksum { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            BinCsrError::Truncated { expected, got } => {
                write!(f, "truncated payload: header declares {expected} bytes, stream has {got}")
            }
            BinCsrError::Inconsistent { message } => {
                write!(f, "inconsistent binary csr: {message}")
            }
            BinCsrError::TooLarge { field, value } => {
                write!(f, "{field} {value} exceeds this platform's address space")
            }
        }
    }
}

impl std::error::Error for BinCsrError {}

impl From<std::io::Error> for BinCsrError {
    fn from(e: std::io::Error) -> Self {
        BinCsrError::Io(e)
    }
}

/// Streaming FNV-1a 64-bit hasher — dependency-free and byte-exact across
/// platforms, which is all a corruption check and cache key need.
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes`: the hash both containers checksum with, and the
/// workspace's one stable byte hash (instance seeds, shard routing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    hash.finish()
}

/// One container format: its identity and its payload-length rule.
pub(crate) struct Format {
    pub(crate) magic: [u8; 8],
    pub(crate) version: u32,
    pub(crate) payload_len: PayloadLen,
}

/// Where a format's payload length comes from.
pub(crate) enum PayloadLen {
    /// The header stores it (`.csrz`: a varint payload has no closed form).
    Stored,
    /// The counts fix it, by this rule over `(n, arcs, weighted)`
    /// (`.csrbin`: every section is fixed-width).
    Derived(fn(u64, u64, bool) -> Result<u64, BinCsrError>),
}

impl Format {
    /// Fixed header length: 56 bytes, plus 8 where the header stores the
    /// payload length.
    pub(crate) fn header_len(&self) -> usize {
        match self.payload_len {
            PayloadLen::Stored => MAX_HEADER_LEN,
            PayloadLen::Derived(_) => MAX_HEADER_LEN - 8,
        }
    }

    /// The header fields every format shares, in bytes `..PREFIX_LEN` of a
    /// fixed buffer the rest of the header is written into. Headers stay
    /// off the heap, so reading or writing a container allocates only
    /// payload-sized buffers.
    ///
    /// # Errors
    ///
    /// [`BinCsrError::TooLarge`] when a count does not fit its u64 field.
    pub(crate) fn prefix(&self, header: &Header) -> Result<[u8; MAX_HEADER_LEN], BinCsrError> {
        let as_u64 = |x: usize, field: &'static str| {
            u64::try_from(x).map_err(|_| BinCsrError::TooLarge { field, value: u64::MAX })
        };
        let flags = u32::from(header.directed) | u32::from(header.weighted) << 1;
        let mut out = [0u8; MAX_HEADER_LEN];
        out[..8].copy_from_slice(&self.magic);
        out[8..12].copy_from_slice(&self.version.to_le_bytes());
        out[12..16].copy_from_slice(&flags.to_le_bytes());
        out[16..24].copy_from_slice(&as_u64(header.n, "num_vertices")?.to_le_bytes());
        out[24..32].copy_from_slice(&as_u64(header.arcs, "num_arcs")?.to_le_bytes());
        out[32..40].copy_from_slice(&as_u64(header.edges, "num_edges")?.to_le_bytes());
        Ok(out)
    }
}

/// Bytes of the shared header fields: magic through `num_edges`.
pub(crate) const PREFIX_LEN: usize = 40;

/// The longest header: one that stores its payload length.
const MAX_HEADER_LEN: usize = PREFIX_LEN + 24;

/// The graph-level header fields, in this platform's sizes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub(crate) directed: bool,
    pub(crate) weighted: bool,
    pub(crate) n: usize,
    pub(crate) arcs: usize,
    pub(crate) edges: usize,
}

impl Header {
    /// The header of `graph`, whose payload carries weights iff `weighted`.
    pub(crate) fn of(graph: &impl Adjacency, weighted: bool) -> Header {
        Header {
            directed: graph.is_directed(),
            weighted,
            n: graph.num_vertices(),
            arcs: graph.num_arcs(),
            edges: graph.num_edges(),
        }
    }
}

/// A codec's side of a write: the header fields and the payload bytes.
pub(crate) trait Payload {
    /// The header fields of the encoded graph.
    fn header(&self) -> Header;

    /// Feeds every payload byte to `sink` in layout order, weight section
    /// included. A write calls it twice, to hash and then to write.
    fn visit(&self, sink: impl FnMut(&[u8]));
}

/// Writes `payload` framed as `format`: the sealed header, then the
/// payload. The payload is streamed twice, hashed and then written, and is
/// never collected into a buffer. The output is byte-deterministic.
///
/// # Errors
///
/// [`BinCsrError::Io`] on write failures; [`BinCsrError::TooLarge`] when a
/// dimension does not fit the 64-bit header fields (unreachable for graphs
/// this workspace can hold in memory).
pub(crate) fn write_container<W: Write>(
    format: &Format,
    payload: &impl Payload,
    writer: &mut W,
) -> Result<(), BinCsrError> {
    writer.write_all(&seal(format, payload)?[..format.header_len()])?;
    let mut failed: Option<std::io::Error> = None;
    payload.visit(|bytes| {
        if failed.is_none() {
            if let Err(e) = writer.write_all(bytes) {
                failed = Some(e);
            }
        }
    });
    failed.map_or(Ok(()), |e| Err(BinCsrError::Io(e)))
}

/// The header of `payload` framed as `format`, sealed by both checksums,
/// in the first `format.header_len()` bytes. Kept out of
/// [`write_container`]: with both hash passes in the same function as the
/// write loop, writing `.csrbin` through a `BufWriter<File>` measured about
/// 25 % slower.
fn seal(format: &Format, payload: &impl Payload) -> Result<[u8; MAX_HEADER_LEN], BinCsrError> {
    let mut header = format.prefix(&payload.header())?;
    let mut hash = Fnv64::new();
    if let PayloadLen::Stored = format.payload_len {
        // Counted only where it is stored: a fixed-width payload feeds the
        // sink once per value, and a count there slows its hash pass.
        let mut len = 0usize;
        payload.visit(|bytes| {
            hash.update(bytes);
            len += bytes.len();
        });
        let len = u64::try_from(len)
            .map_err(|_| BinCsrError::TooLarge { field: "payload", value: u64::MAX })?;
        header[PREFIX_LEN..PREFIX_LEN + 8].copy_from_slice(&len.to_le_bytes());
    } else {
        payload.visit(|bytes| hash.update(bytes));
    }
    let sealed = format.header_len() - 8;
    header[sealed - 8..sealed].copy_from_slice(&hash.finish().to_le_bytes());
    let checksum = fnv1a(&header[..sealed]);
    header[sealed..sealed + 8].copy_from_slice(&checksum.to_le_bytes());
    Ok(header)
}

/// Reads one `format` container: the verified header fields and the
/// verified payload, for the codec to parse.
///
/// Verification order: magic → version → header checksum → flags →
/// payload length → payload read → payload checksum, then the count
/// conversions and the edge-count plausibility rule. The first failure
/// wins.
///
/// # Errors
///
/// Every rejection is a typed [`BinCsrError`]; this function never panics
/// on any byte stream.
pub(crate) fn read_container<R: Read>(
    format: &Format,
    reader: &mut R,
) -> Result<(Header, Vec<u8>), BinCsrError> {
    let header_len = format.header_len();
    let expected = u64::try_from(header_len).unwrap_or(u64::MAX);
    let mut raw = [0u8; MAX_HEADER_LEN];
    let mut window = raw.get_mut(..header_len).unwrap_or_default();
    let got = std::io::copy(&mut reader.by_ref().take(expected), &mut window)?;
    if got < expected {
        return Err(BinCsrError::Truncated { expected, got });
    }
    let u32_at = |at: usize| le_u32(raw.get(at..at + 4).unwrap_or(&[]));
    let u64_at = |at: usize| le_u64(raw.get(at..at + 8).unwrap_or(&[]));

    let found: [u8; 8] = raw.get(..8).and_then(|m| m.try_into().ok()).unwrap_or_default();
    if found != format.magic {
        return Err(BinCsrError::BadMagic { found });
    }
    let version = u32_at(8);
    if version != format.version {
        return Err(BinCsrError::UnsupportedVersion { found: version });
    }
    let sealed = header_len - 8;
    let (stored, computed) = (u64_at(sealed), fnv1a(raw.get(..sealed).unwrap_or(&[])));
    if computed != stored {
        return Err(BinCsrError::HeaderChecksum { stored, computed });
    }
    let flags = u32_at(12);
    if flags & !3 != 0 {
        return Err(BinCsrError::Inconsistent { message: format!("unknown flags {flags:#x}") });
    }
    let (directed, weighted) = (flags & 1 != 0, flags & 2 != 0);
    let (n, arcs, edges) = (u64_at(16), u64_at(24), u64_at(32));
    let payload_len = match format.payload_len {
        PayloadLen::Stored => u64_at(PREFIX_LEN),
        PayloadLen::Derived(rule) => rule(n, arcs, weighted)?,
    };
    let payload = read_exact(reader, payload_len)?;
    let (stored, computed) = (u64_at(sealed - 8), fnv1a(&payload));
    if computed != stored {
        return Err(BinCsrError::PayloadChecksum { stored, computed });
    }

    // Checksums passed: the bytes are what a writer produced (or a
    // collision-grade forgery); the checks from here on, and the codec's
    // structural validation, guard against writers that were themselves
    // handed garbage.
    let header = Header {
        directed,
        weighted,
        n: usize::try_from(n)
            .ok()
            .filter(|x| x.checked_add(1).is_some())
            .ok_or(BinCsrError::TooLarge { field: "num_vertices", value: n })?,
        arcs: usize::try_from(arcs)
            .map_err(|_| BinCsrError::TooLarge { field: "num_arcs", value: arcs })?,
        edges: usize::try_from(edges)
            .map_err(|_| BinCsrError::TooLarge { field: "num_edges", value: edges })?,
    };
    if u32::try_from(n).is_err() {
        return Err(BinCsrError::Inconsistent {
            message: format!("num_vertices {n} exceeds the u32 vertex-id space"),
        });
    }
    // Logical-vs-stored edge accounting: a directed graph stores each edge
    // as one arc; an undirected graph stores non-loop edges twice and self
    // loops once, so `m <= arcs <= 2m`.
    let Header { arcs, edges, .. } = header;
    let plausible =
        if directed { edges == arcs } else { edges <= arcs && arcs <= edges.saturating_mul(2) };
    if !plausible {
        return Err(BinCsrError::Inconsistent {
            message: format!(
                "num_edges {edges} impossible for {arcs} stored arcs (directed: {directed})"
            ),
        });
    }
    Ok((header, payload))
}

/// Reads exactly `expected` bytes into a buffer that grows as they arrive
/// (initial reserve capped by `MAX_TRUSTED_RESERVE`), so a forged header
/// cannot force a huge allocation before the stream proves it has the
/// bytes.
fn read_exact<R: Read>(reader: &mut R, expected: u64) -> Result<Vec<u8>, BinCsrError> {
    let cap = usize::try_from(expected).map_or(MAX_TRUSTED_RESERVE, |e| e.min(MAX_TRUSTED_RESERVE));
    let mut buf = Vec::with_capacity(cap);
    let got = reader.take(expected).read_to_end(&mut buf)?;
    let got = u64::try_from(got).unwrap_or(u64::MAX);
    if got < expected {
        return Err(BinCsrError::Truncated { expected, got });
    }
    Ok(buf)
}

/// Feeds the weight section to `sink`: each weight's bit pattern.
pub(crate) fn visit_weights(weights: Option<&[f64]>, mut sink: impl FnMut(&[u8])) {
    for &w in weights.unwrap_or(&[]) {
        sink(&w.to_bits().to_le_bytes());
    }
}

/// Parses the weight section: `arcs` f64 bit patterns, each finite and
/// non-negative.
pub(crate) fn read_weights(bytes: &[u8], arcs: usize) -> Result<Vec<f64>, BinCsrError> {
    let mut ws: Vec<f64> = Vec::with_capacity(arcs.min(MAX_TRUSTED_RESERVE));
    for raw in bytes.chunks_exact(8) {
        let w = f64::from_bits(le_u64(raw));
        if !w.is_finite() || w < 0.0 {
            return Err(BinCsrError::Inconsistent {
                message: format!("weight {w} must be finite and non-negative"),
            });
        }
        ws.push(w);
    }
    if ws.len() != arcs {
        return Err(BinCsrError::Inconsistent {
            message: format!("expected {arcs} weights, payload holds {}", ws.len()),
        });
    }
    Ok(ws)
}

/// Little-endian u64 from an 8-byte window; any other window reads 0,
/// which the checksum pass has already ruled out on real input.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    bytes.try_into().map_or(0, u64::from_le_bytes)
}

/// Little-endian u32 from a 4-byte window, as [`le_u64`].
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    bytes.try_into().map_or(0, u32::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::{read_binary_csr, write_binary_csr, CSRBIN};
    use crate::builder::GraphBuilder;
    use crate::compressed::{read_compressed_csr, write_compressed_csr, CompressedCsr, CSRZ};

    /// One sample encoding: the container it is in and that container's
    /// reader, with the decoded graph dropped.
    struct Case {
        name: String,
        format: &'static Format,
        bytes: Vec<u8>,
        read: fn(&[u8]) -> Result<(), BinCsrError>,
    }

    /// A flat and a weighted graph, each in both containers.
    fn cases() -> Vec<Case> {
        let flat = GraphBuilder::undirected(5)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
            .build()
            .unwrap();
        let weighted = GraphBuilder::undirected(4)
            .weighted_edges([(0, 1, 2.5), (1, 2, 0.25), (2, 3, 7.0)])
            .build()
            .unwrap();
        let mut out = Vec::new();
        for (label, g) in [("flat", flat), ("weighted", weighted)] {
            let mut bytes = Vec::new();
            write_binary_csr(&g, &mut bytes).unwrap();
            out.push(Case {
                name: format!(".csrbin {label}"),
                format: &CSRBIN,
                bytes,
                read: |mut b| read_binary_csr(&mut b).map(drop),
            });
            let mut bytes = Vec::new();
            write_compressed_csr(&CompressedCsr::from_csr(&g).unwrap(), &mut bytes).unwrap();
            out.push(Case {
                name: format!(".csrz {label}"),
                format: &CSRZ,
                bytes,
                read: |mut b| read_compressed_csr(&mut b).map(drop),
            });
        }
        out
    }

    fn class(read: Result<(), BinCsrError>) -> &'static str {
        match read {
            Ok(()) => "accepted",
            Err(BinCsrError::Io(_)) => "Io",
            Err(BinCsrError::BadMagic { .. }) => "BadMagic",
            Err(BinCsrError::UnsupportedVersion { .. }) => "UnsupportedVersion",
            Err(BinCsrError::HeaderChecksum { .. }) => "HeaderChecksum",
            Err(BinCsrError::PayloadChecksum { .. }) => "PayloadChecksum",
            Err(BinCsrError::Truncated { .. }) => "Truncated",
            Err(BinCsrError::Inconsistent { .. }) => "Inconsistent",
            Err(BinCsrError::TooLarge { .. }) => "TooLarge",
        }
    }

    #[test]
    fn every_flipped_bit_yields_its_exact_error_class() {
        for case in cases() {
            assert_eq!(class((case.read)(&case.bytes)), "accepted", "{}", case.name);
            let header_len = case.format.header_len();
            for offset in 0..case.bytes.len() {
                let expected = match offset {
                    0..8 => "BadMagic",
                    8..12 => "UnsupportedVersion",
                    _ if offset < header_len => "HeaderChecksum",
                    _ => "PayloadChecksum",
                };
                for bit in 0..8 {
                    let mut corrupt = case.bytes.clone();
                    corrupt[offset] ^= 1 << bit;
                    let got = class((case.read)(&corrupt));
                    assert_eq!(got, expected, "{}: byte {offset} bit {bit}", case.name);
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_typed() {
        for case in cases() {
            for len in 0..case.bytes.len() {
                let got = class((case.read)(&case.bytes[..len]));
                assert_eq!(got, "Truncated", "{}: prefix of {len} bytes", case.name);
            }
        }
    }

    #[test]
    fn forged_giant_headers_fail_without_huge_allocation() {
        // Resealed headers declaring a petabyte-scale graph (and, where the
        // header stores it, an exabyte payload) with no payload behind them
        // must fail at EOF, not OOM.
        for case in cases() {
            let header_len = case.format.header_len();
            let mut forged = case.bytes[..header_len].to_vec();
            forged[16..24].copy_from_slice(&(1u64 << 45).to_le_bytes());
            forged[24..32].copy_from_slice(&(1u64 << 46).to_le_bytes());
            forged[32..40].copy_from_slice(&(1u64 << 45).to_le_bytes());
            if let PayloadLen::Stored = case.format.payload_len {
                forged[40..48].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            }
            let checksum = fnv1a(&forged[..header_len - 8]);
            forged[header_len - 8..].copy_from_slice(&checksum.to_le_bytes());
            match (case.read)(&forged) {
                Err(BinCsrError::Truncated { expected, got: 0 }) => {
                    assert!(expected > 1 << 45, "{}: {expected}", case.name);
                }
                other => panic!("{}: expected Truncated, got {other:?}", case.name),
            }
        }
    }
}

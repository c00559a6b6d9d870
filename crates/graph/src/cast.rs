//! Checked integer conversions for ingestion paths.
//!
//! Vertex ids are `u32` and adjacency offsets are `usize`; text ingestion
//! parses into wider types (`usize`, `i64`) before narrowing. A bare `as`
//! cast silently truncates, so the ingestion modules deny every `as`
//! conversion (clippy `as_conversions`, DESIGN.md §8) and route each
//! narrowing through the helpers here, which make the failure mode
//! explicit: conversions below are either checked (`Option`) or
//! compile-time guarded.

/// Converts a 0-based `usize` index into a `u32` vertex id, or `None` if
/// it does not fit the vertex-id space.
#[inline]
pub(crate) fn try_vertex_id(x: usize) -> Option<u32> {
    u32::try_from(x).ok()
}

/// Converts a (possibly negative) `i64` into a `usize`, or `None` when the
/// value is negative or exceeds the address space.
#[inline]
pub(crate) fn try_usize_from_i64(x: i64) -> Option<usize> {
    usize::try_from(x).ok()
}

/// Widens a `u32` vertex id into a `usize` index.
///
/// Infallible on every platform the workspace supports: the compile-time
/// assertion below rejects targets whose `usize` is narrower than 32 bits,
/// so the conversion can never truncate.
#[inline]
pub(crate) fn usize_from_u32(x: u32) -> usize {
    const _: () =
        assert!(usize::BITS >= 32, "reorderlab requires usize to hold every u32 vertex id");
    // Lossless by the compile-time width assertion above; this is the
    // widening the ingestion paths use in place of `as`.
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_round_trips_in_range() {
        assert_eq!(try_vertex_id(0), Some(0));
        assert_eq!(try_vertex_id(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(try_vertex_id(u32::MAX as usize + 1), None);
    }

    #[test]
    fn i64_to_usize_rejects_negatives() {
        assert_eq!(try_usize_from_i64(-1), None);
        assert_eq!(try_usize_from_i64(0), Some(0));
        assert_eq!(try_usize_from_i64(1 << 40), Some(1usize << 40));
    }

    #[test]
    fn widening_is_exact() {
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
    }
}

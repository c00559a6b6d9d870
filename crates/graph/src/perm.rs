//! Validated vertex permutations.
//!
//! A [`Permutation`] is a bijection from vertex ids onto ranks `[0, n)`. The
//! paper calls `Π(i)` the *rank* of vertex `i`; the natural ordering is the
//! identity permutation. All reordering schemes in `reorderlab-core` produce a
//! `Permutation`, and all gap measures consume one.

use crate::error::{GraphError, PermutationDefect};

/// A validated bijection `Π : V → [0, n)` mapping vertex ids to ranks.
///
/// Internally stores the forward map `rank[v] = Π(v)`. The inverse view
/// (`vertex at rank r`) is computed on demand by [`Permutation::inverse`] or
/// [`Permutation::to_order`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use reorderlab_graph::Permutation;
///
/// let pi = Permutation::from_ranks(vec![2, 0, 1])?;
/// assert_eq!(pi.rank(0), 2);
/// assert_eq!(pi.inverse().rank(2), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    /// `ranks[v]` is the new position (rank) of vertex `v`.
    ranks: Vec<u32>,
}

impl Permutation {
    /// Creates the identity permutation (the paper's *natural* ordering) on
    /// `n` vertices.
    ///
    /// # Examples
    ///
    /// ```
    /// use reorderlab_graph::Permutation;
    /// let id = Permutation::identity(4);
    /// assert_eq!(id.rank(3), 3);
    /// ```
    pub fn identity(n: usize) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        Permutation { ranks: (0..n as u32).collect() }
    }

    /// Builds a permutation from a forward rank map, validating that it is a
    /// bijection onto `[0, n)`.
    ///
    /// `ranks[v]` is the rank assigned to vertex `v`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPermutation`] if any rank is out of range
    /// or duplicated.
    pub fn from_ranks(ranks: Vec<u32>) -> Result<Self, GraphError> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let n = ranks.len() as u32;
        let mut seen = vec![false; ranks.len()];
        for &r in &ranks {
            if r >= n {
                return Err(GraphError::InvalidPermutation {
                    reason: PermutationDefect::RankOutOfRange { rank: r, len: n },
                });
            }
            if seen[r as usize] {
                return Err(GraphError::InvalidPermutation {
                    reason: PermutationDefect::DuplicateRank { rank: r },
                });
            }
            seen[r as usize] = true;
        }
        Ok(Permutation { ranks })
    }

    /// Builds a permutation from an *order*: `order[r]` is the vertex placed
    /// at rank `r`. This is the output shape of traversal-based schemes such
    /// as RCM ("the 5th vertex visited gets rank 5").
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPermutation`] if `order` is not a
    /// bijection.
    pub fn from_order(order: &[u32]) -> Result<Self, GraphError> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let n = order.len() as u32;
        let mut ranks = vec![u32::MAX; order.len()];
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        for (r, &v) in order.iter().enumerate() {
            if v >= n {
                return Err(GraphError::InvalidPermutation {
                    reason: PermutationDefect::RankOutOfRange { rank: v, len: n },
                });
            }
            if ranks[v as usize] != u32::MAX {
                return Err(GraphError::InvalidPermutation {
                    reason: PermutationDefect::DuplicateRank { rank: v },
                });
            }
            ranks[v as usize] = r as u32;
        }
        Ok(Permutation { ranks })
    }

    /// Builds a permutation from a rank map that is trusted to be valid.
    ///
    /// This is intended for scheme implementations that construct ranks by
    /// counting, where validity holds by construction. In debug builds the
    /// input is still validated.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ranks` is not a valid permutation.
    pub fn from_ranks_unchecked(ranks: Vec<u32>) -> Self {
        debug_assert!(
            Permutation::from_ranks(ranks.clone()).is_ok(),
            "from_ranks_unchecked received an invalid permutation"
        );
        Permutation { ranks }
    }

    /// The number of vertices covered by this permutation.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the permutation covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The rank `Π(v)` of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    #[inline]
    pub fn rank(&self, v: u32) -> u32 {
        self.ranks[v as usize]
    }

    /// The forward rank map as a slice: `ranks()[v] == Π(v)`.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// Computes the inverse permutation `Π⁻¹`, where
    /// `inverse.rank(r)` is the vertex occupying rank `r`.
    pub fn inverse(&self) -> Permutation {
        Permutation { ranks: self.to_order() }
    }

    /// Returns the order view: element `r` is the vertex placed at rank `r`.
    pub fn to_order(&self) -> Vec<u32> {
        let mut order = vec![0u32; self.ranks.len()];
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        for (v, &r) in self.ranks.iter().enumerate() {
            order[r as usize] = v as u32;
        }
        order
    }

    /// Whether this permutation is the identity (natural order).
    pub fn is_identity(&self) -> bool {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        self.ranks.iter().enumerate().all(|(v, &r)| v as u32 == r)
    }

    /// Reverses the permutation: rank `r` becomes rank `n - 1 - r`.
    /// This is the final step of Reverse Cuthill–McKee.
    pub fn reversed(&self) -> Permutation {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        let n = self.ranks.len() as u32;
        Permutation { ranks: self.ranks.iter().map(|&r| n - 1 - r).collect() }
    }

    /// Writes the permutation as text: one rank per line, line `v` holding
    /// `Π(v)` — the interchange format of the `reorderlab` CLI. Blank lines
    /// and `#` comments are tolerated on read.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_text<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        for &r in &self.ranks {
            writeln!(writer, "{r}")?;
        }
        Ok(())
    }

    /// Reads a permutation written by [`Permutation::write_text`],
    /// validating bijectivity.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Parse`] for malformed lines and
    /// [`GraphError::InvalidPermutation`] if the ranks are not a bijection.
    pub fn read_text<R: std::io::BufRead>(reader: R) -> Result<Permutation, GraphError> {
        let mut ranks = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| GraphError::Parse {
                line: i + 1,
                message: format!("io error: {e}"),
            })?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let r: u32 = t.parse().map_err(|_| GraphError::Parse {
                line: i + 1,
                message: format!("invalid rank {t:?}"),
            })?;
            ranks.push(r);
        }
        Permutation::from_ranks(ranks)
    }
}

impl Default for Permutation {
    fn default() -> Self {
        Permutation::identity(0)
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Permutation(n={})", self.ranks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_to_self() {
        let p = Permutation::identity(5);
        for v in 0..5 {
            assert_eq!(p.rank(v), v);
        }
        assert!(p.is_identity());
    }

    #[test]
    fn from_ranks_accepts_valid() {
        let p = Permutation::from_ranks(vec![2, 0, 1]).unwrap();
        assert_eq!(p.rank(0), 2);
        assert_eq!(p.rank(1), 0);
        assert_eq!(p.rank(2), 1);
        assert!(!p.is_identity());
    }

    #[test]
    fn from_ranks_rejects_duplicate() {
        let err = Permutation::from_ranks(vec![0, 0, 1]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::InvalidPermutation { reason: PermutationDefect::DuplicateRank { rank: 0 } }
        ));
    }

    #[test]
    fn from_ranks_rejects_out_of_range() {
        let err = Permutation::from_ranks(vec![0, 3, 1]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::InvalidPermutation {
                reason: PermutationDefect::RankOutOfRange { rank: 3, len: 3 }
            }
        ));
    }

    #[test]
    fn from_order_inverts_ranks() {
        // order: rank 0 holds vertex 2, rank 1 holds vertex 0, rank 2 holds vertex 1
        let p = Permutation::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(p.rank(2), 0);
        assert_eq!(p.rank(0), 1);
        assert_eq!(p.rank(1), 2);
    }

    #[test]
    fn from_order_rejects_duplicates() {
        assert!(Permutation::from_order(&[1, 1, 0]).is_err());
        assert!(Permutation::from_order(&[0, 5, 1]).is_err());
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_ranks(vec![3, 1, 0, 2]).unwrap();
        let inv = p.inverse();
        for v in 0..4u32 {
            assert_eq!(inv.rank(p.rank(v)), v);
            assert_eq!(p.rank(inv.rank(v)), v);
        }
    }

    #[test]
    fn reversed_flips_ranks() {
        let p = Permutation::identity(4).reversed();
        assert_eq!(p.ranks(), &[3, 2, 1, 0]);
        assert!(p.reversed().is_identity());
    }

    #[test]
    fn to_order_matches_inverse_ranks() {
        let p = Permutation::from_ranks(vec![2, 0, 1]).unwrap();
        assert_eq!(p.to_order(), vec![1, 2, 0]);
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_identity());
        assert_eq!(p.inverse().len(), 0);
    }

    #[test]
    fn text_round_trip() {
        let p = Permutation::from_ranks(vec![3, 1, 0, 2]).unwrap();
        let mut buf = Vec::new();
        p.write_text(&mut buf).unwrap();
        assert_eq!(std::str::from_utf8(&buf).unwrap(), "3\n1\n0\n2\n");
        let q = Permutation::read_text(&buf[..]).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn text_read_tolerates_comments() {
        let text = "# a permutation\n1\n\n0\n";
        let p = Permutation::read_text(text.as_bytes()).unwrap();
        assert_eq!(p.ranks(), &[1, 0]);
    }

    #[test]
    fn text_read_rejects_invalid() {
        assert!(Permutation::read_text("0\nbogus\n".as_bytes()).is_err());
        assert!(Permutation::read_text("0\n0\n".as_bytes()).is_err(), "duplicate rank");
        assert!(Permutation::read_text("5\n0\n".as_bytes()).is_err(), "rank out of range");
    }

    #[test]
    fn display_shows_length() {
        let p = Permutation::identity(7);
        assert_eq!(p.to_string(), "Permutation(n=7)");
    }
}

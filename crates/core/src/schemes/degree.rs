//! Degree- and hub-based orderings (paper §III-B): Degree Sort, Hub Sort
//! \[38\], and Hub Clustering \[2\].
//!
//! These lightweight schemes exploit the skew of real-world degree
//! distributions: frequently-accessed hub vertices are packed together so
//! their (large) adjacency data shares cache lines, without attempting to
//! optimize any gap measure directly.

use reorderlab_graph::{Csr, Permutation};

/// Sort direction for [`degree_sort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegreeDirection {
    /// Highest-degree vertices first (the common choice for hub packing).
    #[default]
    Decreasing,
    /// Lowest-degree vertices first.
    Increasing,
}

/// Degree Sort: order vertices by degree, ties broken by original id (a
/// stable sort, so the natural order survives within each degree class).
///
/// # Examples
///
/// ```
/// use reorderlab_core::schemes::{degree_sort, DegreeDirection};
/// use reorderlab_datasets::star;
///
/// let g = star(5); // hub 0 with degree 4
/// let pi = degree_sort(&g, DegreeDirection::Decreasing);
/// assert_eq!(pi.rank(0), 0); // the hub gets the first slot
/// ```
pub fn degree_sort(graph: &Csr, direction: DegreeDirection) -> Permutation {
    let n = graph.num_vertices();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut order: Vec<u32> = (0..n as u32).collect();
    match direction {
        DegreeDirection::Decreasing => {
            order.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        }
        DegreeDirection::Increasing => {
            order.sort_by_key(|&v| (graph.degree(v), v));
        }
    }
    super::order_permutation(&order)
}

/// The hub threshold used by `hub_sort` and [`hub_cluster`]: a vertex is a
/// hub when its degree exceeds the average degree, the standard cutoff from
/// the hub-sorting literature \[38\].
pub fn hub_threshold(graph: &Csr) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    graph.num_arcs() as f64 / n as f64
}

/// Hub Sort \[38\]: hubs (degree above the mean) are placed first in
/// non-increasing degree order; all remaining vertices keep their relative
/// natural order afterwards.
pub(crate) fn hub_sort(graph: &Csr) -> Permutation {
    let n = graph.num_vertices();
    let threshold = hub_threshold(graph);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    let mut hubs: Vec<u32> =
        (0..n as u32).filter(|&v| graph.degree(v) as f64 > threshold).collect();
    hubs.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut order = hubs;
    let is_hub: Vec<bool> = {
        let mut flags = vec![false; n];
        for &v in &order {
            flags[v as usize] = true;
        }
        flags
    };
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    order.extend((0..n as u32).filter(|&v| !is_hub[v as usize]));
    super::order_permutation(&order)
}

/// Hub Clustering \[2\]: the lighter-weight variant — hubs are made
/// contiguous (first), but *retain their natural relative order* instead of
/// being sorted; non-hubs follow in natural order.
pub fn hub_cluster(graph: &Csr) -> Permutation {
    let n = graph.num_vertices();
    let threshold = hub_threshold(graph);
    let mut order: Vec<u32> = Vec::with_capacity(n);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    order.extend((0..n as u32).filter(|&v| graph.degree(v) as f64 > threshold));
    let hub_count = order.len();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
    )]
    order.extend((0..n as u32).filter(|&v| graph.degree(v) as f64 <= threshold));
    debug_assert_eq!(order.len(), n);
    let _ = hub_count;
    super::order_permutation(&order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorderlab_datasets::{barabasi_albert, path, star};
    use reorderlab_graph::GraphBuilder;

    #[test]
    fn degree_sort_decreasing_orders_by_degree() {
        let g =
            GraphBuilder::undirected(4).edges([(0, 1), (0, 2), (0, 3), (1, 2)]).build().unwrap();
        // degrees: 0->3, 1->2, 2->2, 3->1
        let pi = degree_sort(&g, DegreeDirection::Decreasing);
        assert_eq!(pi.rank(0), 0);
        assert_eq!(pi.rank(1), 1); // tie with 2 broken by id
        assert_eq!(pi.rank(2), 2);
        assert_eq!(pi.rank(3), 3);
    }

    #[test]
    fn degree_sort_increasing_is_reverse_class_order() {
        let g = star(4);
        let pi = degree_sort(&g, DegreeDirection::Increasing);
        assert_eq!(pi.rank(0), 3, "hub goes last in increasing order");
    }

    #[test]
    fn degree_sort_stable_on_regular_graph() {
        // All degrees equal: the order must be natural.
        let g = path(2); // both endpoints degree 1
        assert!(degree_sort(&g, DegreeDirection::Decreasing).is_identity());
    }

    #[test]
    fn hub_sort_places_hubs_first_sorted() {
        let g = barabasi_albert(300, 2, 5);
        let pi = hub_sort(&g);
        let order = pi.to_order();
        let threshold = hub_threshold(&g);
        let hub_count = (0..300u32).filter(|&v| g.degree(v) as f64 > threshold).count();
        // First hub_count slots hold exactly the hubs, in degree order.
        for i in 0..hub_count {
            assert!(g.degree(order[i]) as f64 > threshold, "slot {i} is not a hub");
            if i > 0 {
                assert!(g.degree(order[i - 1]) >= g.degree(order[i]));
            }
        }
        // Remaining slots keep natural relative order.
        for w in order[hub_count..].windows(2) {
            assert!(w[0] < w[1], "non-hub tail must stay naturally ordered");
        }
    }

    #[test]
    fn hub_cluster_keeps_hub_natural_order() {
        let g = barabasi_albert(300, 2, 5);
        let pi = hub_cluster(&g);
        let order = pi.to_order();
        let threshold = hub_threshold(&g);
        let hub_count = (0..300u32).filter(|&v| g.degree(v) as f64 > threshold).count();
        for w in order[..hub_count].windows(2) {
            assert!(w[0] < w[1], "hubs must stay naturally ordered");
        }
        for w in order[hub_count..].windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn hub_schemes_agree_on_hub_set() {
        let g = barabasi_albert(200, 3, 9);
        let t = hub_threshold(&g);
        let a: std::collections::BTreeSet<u32> =
            hub_sort(&g).to_order().into_iter().take_while(|&v| g.degree(v) as f64 > t).collect();
        let b: std::collections::BTreeSet<u32> = hub_cluster(&g)
            .to_order()
            .into_iter()
            .take_while(|&v| g.degree(v) as f64 > t)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn regular_graph_has_no_hubs() {
        let g = reorderlab_datasets::cycle(10); // all degree 2, threshold 2
        assert!(hub_sort(&g).is_identity());
        assert!(hub_cluster(&g).is_identity());
    }

    #[test]
    fn empty_graph_ok() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        assert!(degree_sort(&g, DegreeDirection::Decreasing).is_empty());
        assert!(hub_sort(&g).is_empty());
        assert!(hub_cluster(&g).is_empty());
        assert_eq!(hub_threshold(&g), 0.0);
    }
}

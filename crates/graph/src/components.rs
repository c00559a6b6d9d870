//! Connected components.
//!
//! Several ordering schemes process one connected component at a time (RCM
//! restarts its search at a new minimum-degree vertex per component;
//! SlashBurn orders spokes per component), so component discovery is part of
//! the substrate.

use crate::csr::Csr;

/// The connected components of an undirected graph (weakly connected
/// components when applied to a directed graph's symmetrized adjacency).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `assignment[v]` is the component id of vertex `v`, in `[0, count)`.
    assignment: Vec<u32>,
    /// Number of vertices per component.
    sizes: Vec<usize>,
}

impl Components {
    /// Computes connected components by repeated BFS.
    ///
    /// Component ids are assigned in order of the smallest vertex id they
    /// contain, so the labeling is deterministic.
    pub fn find(graph: &Csr) -> Self {
        let n = graph.num_vertices();
        let mut assignment = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        let mut queue = Vec::new();
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        for s in 0..n as u32 {
            if assignment[s as usize] != u32::MAX {
                continue;
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            let id = sizes.len() as u32;
            let mut size = 0usize;
            assignment[s as usize] = id;
            queue.push(s);
            while let Some(v) = queue.pop() {
                size += 1;
                for &w in graph.neighbors(v) {
                    if assignment[w as usize] == u32::MAX {
                        assignment[w as usize] = id;
                        queue.push(w);
                    }
                }
            }
            sizes.push(size);
        }
        Components { assignment, sizes }
    }

    /// Number of components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Component id of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub(crate) fn component_of(&self, v: u32) -> u32 {
        self.assignment[v as usize]
    }

    /// Size of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= count()`.
    pub fn size(&self, c: u32) -> usize {
        self.sizes[c as usize]
    }

    /// Sizes of all components, indexed by component id.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Id of the largest component (ties broken by smaller id); `None` for an
    /// empty graph.
    pub fn largest(&self) -> Option<u32> {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        self.sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
    }

    /// Groups vertex ids per component.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut groups: Vec<Vec<u32>> = self.sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
        for (v, &c) in self.assignment.iter().enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
            )]
            groups[c as usize].push(v as u32);
        }
        groups
    }
}

/// A disjoint-set (union–find) structure with path halving and union by size.
///
/// Used by the partitioner's matching phase and by incremental community
/// aggregation in Rabbit Order.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "SAFETY: a vertex id, count or degree, so at most num_vertices() <= u32::MAX"
        )]
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the representative of `x`'s set, with path halving.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Finds the representative of `x`'s set without mutating the structure
    /// (no path compression). Useful from parallel read-only phases, where a
    /// shared `&UnionFind` is probed concurrently; the answer always matches
    /// what [`UnionFind::find`] would return.
    pub fn root(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Unites the sets containing `a` and `b`. Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn single_component() {
        let g = GraphBuilder::undirected(3).edge(0, 1).edge(1, 2).build().unwrap();
        let c = Components::find(&g);
        assert_eq!(c.count(), 1);
        assert_eq!(c.size(0), 3);
        assert_eq!(c.largest(), Some(0));
    }

    #[test]
    fn multiple_components_and_isolated() {
        let g = GraphBuilder::undirected(6).edge(0, 1).edge(3, 4).edge(4, 5).build().unwrap();
        let c = Components::find(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.component_of(0), c.component_of(1));
        assert_ne!(c.component_of(0), c.component_of(2));
        assert_eq!(c.size(c.component_of(2)), 1);
        assert_eq!(c.largest(), Some(c.component_of(3)));
    }

    #[test]
    fn deterministic_labeling_by_smallest_vertex() {
        let g = GraphBuilder::undirected(4).edge(2, 3).edge(0, 1).build().unwrap();
        let c = Components::find(&g);
        assert_eq!(c.component_of(0), 0);
        assert_eq!(c.component_of(2), 1);
    }

    #[test]
    fn members_partition_vertices() {
        let g = GraphBuilder::undirected(5).edge(0, 2).edge(1, 3).build().unwrap();
        let c = Components::find(&g);
        let members = c.members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert!(members[c.component_of(0) as usize].contains(&2));
    }

    #[test]
    fn empty_graph_components() {
        let g = GraphBuilder::undirected(0).build().unwrap();
        let c = Components::find(&g);
        assert_eq!(c.count(), 0);
        assert_eq!(c.largest(), None);
    }

    #[test]
    fn union_find_basic() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn union_find_len_and_empty() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.len(), 0);
        let uf2 = UnionFind::new(3);
        assert!(!uf2.is_empty());
        assert_eq!(uf2.len(), 3);
    }

    #[test]
    fn union_find_root_matches_find() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(5, 6);
        uf.union(2, 6);
        let frozen = uf.clone();
        for x in 0..8 {
            assert_eq!(frozen.root(x), uf.find(x), "root/find disagree on {x}");
        }
    }

    #[test]
    fn union_find_matches_components() {
        let g = GraphBuilder::undirected(6).edge(0, 1).edge(3, 4).edge(4, 5).build().unwrap();
        let mut uf = UnionFind::new(6);
        for (u, v, _) in g.edges() {
            uf.union(u, v);
        }
        let c = Components::find(&g);
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(
                    uf.find(u) == uf.find(v),
                    c.component_of(u) == c.component_of(v),
                    "disagreement on ({u},{v})"
                );
            }
        }
    }
}

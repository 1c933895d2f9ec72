//! Possible worlds (Definition 2).
//!
//! A possible world `W_i` keeps the vertex set and weights of the backbone
//! and includes each edge `e` independently with probability `p(e)`. We
//! represent a world as a bitset over edge ids; weights and adjacency are
//! read through the backbone graph.

use crate::bitset::BitSet;
use crate::graph::UncertainBipartiteGraph;
use crate::types::{EdgeId, Left, Right};

/// A concrete possible world: a subset of the backbone's edges.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PossibleWorld {
    present: BitSet,
}

impl PossibleWorld {
    /// An empty world (no edges) over a graph with `num_edges` edges.
    pub fn empty(num_edges: usize) -> Self {
        PossibleWorld {
            present: BitSet::new(num_edges),
        }
    }

    /// The world containing every backbone edge (the backbone itself, which
    /// the related-work §II calls "a possible world containing all edges").
    pub fn full(g: &UncertainBipartiteGraph) -> Self {
        let mut w = Self::empty(g.num_edges());
        for e in g.edge_ids() {
            w.insert(e);
        }
        w
    }

    /// Domain size (number of backbone edges, not present edges).
    #[inline]
    pub fn domain(&self) -> usize {
        self.present.len()
    }

    /// Whether edge `e` exists in this world.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.present.contains(e.index())
    }

    /// Adds edge `e` to the world.
    #[inline]
    pub fn insert(&mut self, e: EdgeId) {
        self.present.insert(e.index());
    }

    /// Removes edge `e` from the world.
    #[inline]
    pub fn remove(&mut self, e: EdgeId) {
        self.present.remove(e.index());
    }

    /// Sets the presence of edge `e`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, present: bool) {
        self.present.set(e.index(), present);
    }

    /// Empties the world, keeping capacity (workhorse reuse across trials).
    pub fn clear(&mut self) {
        self.present.clear();
    }

    /// Number of edges present.
    pub fn num_present(&self) -> usize {
        self.present.count_ones()
    }

    /// The probability of this world under `g` (Equation 1):
    /// `Pr(W) = Π_{e∈W} p(e) · Π_{e∉W} (1 − p(e))`.
    pub fn probability(&self, g: &UncertainBipartiteGraph) -> f64 {
        assert_eq!(self.domain(), g.num_edges(), "world/graph mismatch");
        g.edge_ids()
            .map(|e| {
                if self.contains(e) {
                    g.prob(e)
                } else {
                    1.0 - g.prob(e)
                }
            })
            .product()
    }

    /// Degree of a left vertex within this world.
    pub fn left_degree(&self, g: &UncertainBipartiteGraph, u: Left) -> usize {
        g.left_adj(u)
            .iter()
            .filter(|a| self.contains(a.edge))
            .count()
    }

    /// Degree of a right vertex within this world.
    pub fn right_degree(&self, g: &UncertainBipartiteGraph, v: Right) -> usize {
        g.right_adj(v)
            .iter()
            .filter(|a| self.contains(a.edge))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn fig1() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fig1b_world_probability_matches_paper() {
        // Figure 1(b): world missing only (u1,v1); the paper computes
        // (1−0.5)·0.6·0.8·0.3·0.4·0.7 = 0.02016.
        let g = fig1();
        let mut w = PossibleWorld::full(&g);
        w.remove(g.find_edge(Left(0), Right(0)).unwrap());
        assert!((w.probability(&g) - 0.02016).abs() < 1e-12);
    }

    #[test]
    fn empty_and_full_world_probabilities() {
        let g = fig1();
        let empty = PossibleWorld::empty(g.num_edges());
        let expected: f64 = g.edge_ids().map(|e| 1.0 - g.prob(e)).product();
        assert!((empty.probability(&g) - expected).abs() < 1e-15);
        let full = PossibleWorld::full(&g);
        let expected: f64 = g.edge_ids().map(|e| g.prob(e)).product();
        assert!((full.probability(&g) - expected).abs() < 1e-15);
    }

    #[test]
    fn set_insert_remove_roundtrip() {
        let g = fig1();
        let mut w = PossibleWorld::empty(g.num_edges());
        let e = EdgeId(3);
        assert!(!w.contains(e));
        w.insert(e);
        assert!(w.contains(e));
        assert_eq!(w.num_present(), 1);
        w.set(e, false);
        assert!(!w.contains(e));
        w.set(e, true);
        w.clear();
        assert_eq!(w.num_present(), 0);
    }

    #[test]
    fn world_degrees_count_present_edges_only() {
        let g = fig1();
        let mut w = PossibleWorld::empty(g.num_edges());
        w.insert(g.find_edge(Left(0), Right(0)).unwrap());
        w.insert(g.find_edge(Left(0), Right(1)).unwrap());
        assert_eq!(w.left_degree(&g, Left(0)), 2);
        assert_eq!(w.left_degree(&g, Left(1)), 0);
        assert_eq!(w.right_degree(&g, Right(0)), 1);
        assert_eq!(w.right_degree(&g, Right(2)), 0);
    }

    #[test]
    #[should_panic(expected = "world/graph mismatch")]
    fn probability_checks_domain() {
        let g = fig1();
        let w = PossibleWorld::empty(3);
        let _ = w.probability(&g);
    }
}

//! Degree-based vertex priority order `o(·)` for BFC-VP-style enumeration.
//!
//! The MC-VP baseline (Algorithm 1, line 2) assigns every vertex of
//! `V = L ∪ R` a priority: *"a vertex with a larger degree will have a
//! larger priority order"*. Angle generation then only starts from the
//! highest-priority vertex of each wedge (`o(u_i) > o(u_j)` and
//! `o(u_i) > o(u_k)`), which is the load-balancing idea of BFC-VP
//! [Wang et al., PVLDB 2019]: each wedge is produced exactly once, and the
//! middle vertex is never the highest-degree one.

use crate::graph::UncertainBipartiteGraph;
use crate::types::{Left, Right, Vertex};

/// Precomputed priority ranks over `V = L ∪ R`.
///
/// Ranks are dense `0..(|L|+|R|)`, ascending with (degree, side, id), so
/// `rank(a) > rank(b)` iff `a` has larger degree, with deterministic
/// tie-breaking. Higher rank = higher priority.
#[derive(Clone, Debug)]
pub struct VertexPriority {
    left_rank: Vec<u32>,
    right_rank: Vec<u32>,
}

impl VertexPriority {
    /// Computes the priority order for `g` from backbone degrees.
    pub fn from_degrees(g: &UncertainBipartiteGraph) -> Self {
        let nl = g.num_left();
        let nr = g.num_right();
        // (degree, side, id) ascending; side=0 for left to keep ties stable.
        let mut order: Vec<(u32, u8, u32)> = Vec::with_capacity(nl + nr);
        for i in 0..nl {
            order.push((g.left_degree(Left(i as u32)) as u32, 0, i as u32));
        }
        for i in 0..nr {
            order.push((g.right_degree(Right(i as u32)) as u32, 1, i as u32));
        }
        order.sort_unstable();
        let mut left_rank = vec![0u32; nl];
        let mut right_rank = vec![0u32; nr];
        for (rank, &(_, side, id)) in order.iter().enumerate() {
            if side == 0 {
                left_rank[id as usize] = rank as u32;
            } else {
                right_rank[id as usize] = rank as u32;
            }
        }
        VertexPriority {
            left_rank,
            right_rank,
        }
    }

    /// Priority rank of a left vertex.
    #[inline]
    pub fn left(&self, u: Left) -> u32 {
        self.left_rank[u.index()]
    }

    /// Priority rank of a right vertex.
    #[inline]
    pub fn right(&self, v: Right) -> u32 {
        self.right_rank[v.index()]
    }

    /// Priority rank of an arbitrary vertex.
    #[inline]
    pub fn rank(&self, v: Vertex) -> u32 {
        match v {
            Vertex::L(u) => self.left(u),
            Vertex::R(r) => self.right(r),
        }
    }
}

/// Dense degree-**descending** ranks over one vertex side (ties broken by
/// id ascending): returns `(rank, by_rank)` with `rank[v] = r` iff
/// `by_rank[r] = v`. Rank 0 is the most-connected vertex.
///
/// This is the single-side variant of the BFC-VP priority idea that the
/// wedge-listing kernel uses as a *storage relabeling*: bucketing wedge
/// endpoints by rank instead of raw id concentrates the frequently touched
/// counters at the head of the bucket arrays (high-degree vertices appear
/// in the most wedges), so the hot part of the scratch stays cache
/// resident. It is a pure permutation of index space — consumers that
/// translate back through `by_rank` before emitting observe no change.
pub fn degree_desc_ranks(degrees: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = degrees.len();
    let mut by_rank: Vec<u32> = (0..n as u32).collect();
    by_rank.sort_unstable_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
    let mut rank = vec![0u32; n];
    for (r, &v) in by_rank.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    (rank, by_rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn star_plus_edge() -> UncertainBipartiteGraph {
        // u0 connected to v0..v3 (deg 4); u1–v0 (deg 1); v0 deg 2.
        let mut b = GraphBuilder::new();
        for v in 0..4 {
            b.add_edge(Left(0), Right(v), 1.0, 0.5).unwrap();
        }
        b.add_edge(Left(1), Right(0), 1.0, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn larger_degree_gets_larger_rank() {
        let g = star_plus_edge();
        let p = VertexPriority::from_degrees(&g);
        assert!(p.left(Left(0)) > p.right(Right(0)), "deg4 vs deg2");
        assert!(p.right(Right(0)) > p.left(Left(1)), "deg2 vs deg1");
        assert!(p.right(Right(0)) > p.right(Right(1)), "deg2 vs deg1");
    }

    #[test]
    fn ranks_are_a_permutation() {
        let g = star_plus_edge();
        let p = VertexPriority::from_degrees(&g);
        let mut all: Vec<u32> = (0..g.num_left() as u32)
            .map(|i| p.left(Left(i)))
            .chain((0..g.num_right() as u32).map(|i| p.right(Right(i))))
            .collect();
        all.sort_unstable();
        let expect: Vec<u32> = (0..(g.num_left() + g.num_right()) as u32).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn ties_break_deterministically() {
        let g = star_plus_edge();
        let p1 = VertexPriority::from_degrees(&g);
        let p2 = VertexPriority::from_degrees(&g);
        for i in 0..g.num_right() as u32 {
            assert_eq!(p1.right(Right(i)), p2.right(Right(i)));
        }
        // Equal-degree vertices still get a strict order.
        assert_ne!(p1.right(Right(1)), p1.right(Right(2)));
    }

    #[test]
    fn degree_desc_ranks_is_an_inverse_pair_with_ties_by_id() {
        let degrees = [2u32, 5, 2, 0, 5];
        let (rank, by_rank) = degree_desc_ranks(&degrees);
        // Degree 5 first (ids 1 then 4), then degree 2 (ids 0 then 2),
        // then degree 0.
        assert_eq!(by_rank, vec![1, 4, 0, 2, 3]);
        for (r, &v) in by_rank.iter().enumerate() {
            assert_eq!(rank[v as usize], r as u32);
        }
        assert_eq!(degree_desc_ranks(&[]), (vec![], vec![]));
    }
}

//! Butterflies (Definition 4) and brute-force enumeration references.
//!
//! A butterfly `B(u₁,u₂,v₁,v₂)` is a (2,2)-biclique: two left vertices, two
//! right vertices, and all four connecting edges. The type is kept
//! canonical (`u₁ < u₂`, `v₁ < v₂`) so structural equality, hashing, and
//! ordering agree with the paper's set semantics for `S_MB`.

use bigraph::{EdgeId, Left, PossibleWorld, Right, UncertainBipartiteGraph, Weight};
use std::fmt;

/// A canonical butterfly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Butterfly {
    /// Smaller left vertex.
    pub u1: Left,
    /// Larger left vertex.
    pub u2: Left,
    /// Smaller right vertex.
    pub v1: Right,
    /// Larger right vertex.
    pub v2: Right,
}

impl Butterfly {
    /// Builds a canonical butterfly from arbitrary vertex order.
    ///
    /// # Panics
    /// Panics if `a == b` or `c == d` — a butterfly requires two distinct
    /// vertices on each side.
    pub fn new(a: Left, b: Left, c: Right, d: Right) -> Self {
        assert_ne!(a, b, "butterfly needs two distinct left vertices");
        assert_ne!(c, d, "butterfly needs two distinct right vertices");
        Butterfly {
            u1: a.min(b),
            u2: a.max(b),
            v1: c.min(d),
            v2: c.max(d),
        }
    }

    /// The four edges of this butterfly in the backbone, in canonical
    /// order `(u₁v₁, u₁v₂, u₂v₁, u₂v₂)`, or `None` if any is missing from
    /// the backbone (then this vertex quadruple is not a butterfly of `g`).
    pub fn edges(&self, g: &UncertainBipartiteGraph) -> Option<[EdgeId; 4]> {
        Some([
            g.find_edge(self.u1, self.v1)?,
            g.find_edge(self.u1, self.v2)?,
            g.find_edge(self.u2, self.v1)?,
            g.find_edge(self.u2, self.v2)?,
        ])
    }

    /// Canonical butterfly weight (Equation 2): the sum of its four edge
    /// weights, always accumulated in canonical edge order so equality
    /// comparisons are reproducible.
    pub fn weight(&self, g: &UncertainBipartiteGraph) -> Option<Weight> {
        let [a, b, c, d] = self.edges(g)?;
        Some(g.weight(a) + g.weight(b) + g.weight(c) + g.weight(d))
    }

    /// Existence probability `Pr[E(B)] = Π p(e)` over the four edges.
    pub fn existence_prob(&self, g: &UncertainBipartiteGraph) -> Option<f64> {
        let [a, b, c, d] = self.edges(g)?;
        Some(g.prob(a) * g.prob(b) * g.prob(c) * g.prob(d))
    }

    /// Whether all four edges are present in `world`.
    pub fn exists_in(&self, g: &UncertainBipartiteGraph, world: &PossibleWorld) -> bool {
        match self.edges(g) {
            Some(es) => es.iter().all(|&e| world.contains(e)),
            None => false,
        }
    }

    /// The vertices as a `(left, left, right, right)` tuple.
    pub fn vertices(&self) -> (Left, Left, Right, Right) {
        (self.u1, self.u2, self.v1, self.v2)
    }
}

impl fmt::Display for Butterfly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B({},{},{},{})", self.u1, self.u2, self.v1, self.v2)
    }
}

/// Enumeration of every butterfly in the backbone of `g`, in canonical
/// `(u₁, u₂)`-major order.
///
/// For graphs with many butterflies prefer [`for_each_backbone_butterfly`]
/// (streams without materializing the output vector).
pub fn enumerate_backbone_butterflies(g: &UncertainBipartiteGraph) -> Vec<Butterfly> {
    let mut out = Vec::new();
    for_each_backbone_butterfly(g, |b| out.push(b));
    out
}

/// Streams every backbone butterfly of `g` to `f`, each exactly once, in
/// canonical `(u₁, u₂)`-major order.
///
/// Backed by the wedge kernel in `listing.rs`: `O(Σ wedges)` rather than
/// the `O(|L|²)` pair scan the order is defined by.
pub fn for_each_backbone_butterfly(g: &UncertainBipartiteGraph, f: impl FnMut(Butterfly)) {
    crate::listing::for_each(g, f);
}

/// Counts backbone butterflies without materializing them.
pub fn count_backbone_butterflies(g: &UncertainBipartiteGraph) -> u64 {
    crate::listing::count(g)
}

/// Brute-force maximum-weighted butterfly set `S_MB(W)` (Equation 3) of a
/// fixed possible world. Returns `(w_max, butterflies)`; empty vec when
/// the world contains no butterfly.
pub fn max_butterflies_in_world(
    g: &UncertainBipartiteGraph,
    world: &PossibleWorld,
) -> (Weight, Vec<Butterfly>) {
    let mut best = f64::NEG_INFINITY;
    let mut smb: Vec<Butterfly> = Vec::new();
    for b in enumerate_backbone_butterflies(g) {
        if !b.exists_in(g, world) {
            continue;
        }
        let w = b.weight(g).expect("backbone butterfly has edges");
        match w.total_cmp(&best) {
            std::cmp::Ordering::Greater => {
                best = w;
                smb.clear();
                smb.push(b);
            }
            std::cmp::Ordering::Equal => smb.push(b),
            std::cmp::Ordering::Less => {}
        }
    }
    if smb.is_empty() {
        (0.0, smb)
    } else {
        (best, smb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::GraphBuilder;

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
    fn canonicalization_sorts_both_sides() {
        let b = Butterfly::new(Left(5), Left(2), Right(9), Right(3));
        assert_eq!(b.vertices(), (Left(2), Left(5), Right(3), Right(9)));
        assert_eq!(b, Butterfly::new(Left(2), Left(5), Right(3), Right(9)));
    }

    #[test]
    #[should_panic(expected = "distinct left")]
    fn rejects_degenerate_left_pair() {
        let _ = Butterfly::new(Left(1), Left(1), Right(0), Right(1));
    }

    #[test]
    fn fig1_butterfly_weight_matches_paper() {
        // Figure 1(b): B(u1, u2, v2, v3) has weight 7 (ids are 0-based here).
        let g = fig1();
        let b = Butterfly::new(Left(0), Left(1), Right(1), Right(2));
        assert_eq!(b.weight(&g), Some(7.0));
        let p = b.existence_prob(&g).unwrap();
        assert!((p - 0.6 * 0.8 * 0.4 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn missing_edge_means_no_butterfly() {
        let mut bld = GraphBuilder::new();
        bld.add_edge(Left(0), Right(0), 1.0, 0.5).unwrap();
        bld.add_edge(Left(0), Right(1), 1.0, 0.5).unwrap();
        bld.add_edge(Left(1), Right(0), 1.0, 0.5).unwrap();
        let g = bld.build().unwrap();
        let b = Butterfly::new(Left(0), Left(1), Right(0), Right(1));
        assert_eq!(b.edges(&g), None);
        assert_eq!(b.weight(&g), None);
        assert!(!b.exists_in(&g, &PossibleWorld::full(&g)));
    }

    #[test]
    fn fig1_has_three_backbone_butterflies() {
        // K_{2,3} contains C(3,2) = 3 butterflies.
        let g = fig1();
        let all = enumerate_backbone_butterflies(&g);
        assert_eq!(all.len(), 3);
        let weights: Vec<f64> = all.iter().map(|b| b.weight(&g).unwrap()).collect();
        let mut sorted = weights.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![7.0, 7.0, 10.0]);
    }

    #[test]
    fn smb_of_full_world_is_unique_max() {
        let g = fig1();
        let (w, smb) = max_butterflies_in_world(&g, &PossibleWorld::full(&g));
        assert_eq!(w, 10.0);
        assert_eq!(
            smb,
            vec![Butterfly::new(Left(0), Left(1), Right(0), Right(1))]
        );
    }

    #[test]
    fn smb_collects_ties() {
        let g = fig1();
        // Remove (u1,v1) and (u2,v1): kills both butterflies through v1...
        let mut w = PossibleWorld::full(&g);
        w.remove(g.find_edge(Left(0), Right(0)).unwrap());
        let (wt, smb) = max_butterflies_in_world(&g, &w);
        // Without u1–v1 only the butterfly avoiding v1 on u1 survives:
        // B(u1,u2,v2,v3) with weight 7.
        assert_eq!(wt, 7.0);
        assert_eq!(
            smb,
            vec![Butterfly::new(Left(0), Left(1), Right(1), Right(2))]
        );
    }

    #[test]
    fn empty_world_has_no_butterflies() {
        let g = fig1();
        let (w, smb) = max_butterflies_in_world(&g, &PossibleWorld::empty(g.num_edges()));
        assert_eq!(w, 0.0);
        assert!(smb.is_empty());
    }

    #[test]
    fn display_format() {
        let b = Butterfly::new(Left(0), Left(1), Right(2), Right(3));
        assert_eq!(b.to_string(), "B(u0,u1,v2,v3)");
    }
}

//! Closed-form expected butterfly count on uncertain bipartite networks.
//!
//! The related-work line the paper builds on (uncertain butterfly
//! counting, Zhou et al. VLDB'21) estimates the *expected* number of
//! butterflies over the possible-world distribution. By edge
//! independence and linearity of expectation it has an exact closed
//! form, no sampling needed:
//!
//! * an angle `∠(u, v, u')` exists with probability `p(u,v)·p(u',v)`;
//! * a butterfly `(u, u', v, v')` exists with probability
//!   `q_v · q_{v'}` where `q_v = p(u,v)·p(u',v)`, so per left pair the
//!   expected count is `((Σ_v q_v)² − Σ_v q_v²) / 2`.
//!
//! `mpmb count --method fast` prints it beside the sublinear tier's
//! estimate, and the tests use it as an oracle.

use crate::fx::FxHashMap;
use crate::graph::UncertainBipartiteGraph;
use crate::types::Right;

/// Exact expected number of butterflies over all possible worlds.
///
/// Complexity `O(Σ_v deg(v)²)` via wedge enumeration over right middles
/// (each wedge contributes its probability to its left-pair accumulator).
pub fn expected_butterfly_count(g: &UncertainBipartiteGraph) -> f64 {
    // (sum q, sum q²) per unordered left pair.
    let mut acc: FxHashMap<(u32, u32), (f64, f64)> = FxHashMap::default();
    for v in 0..g.num_right() as u32 {
        let adj = g.right_adj(Right(v));
        for i in 0..adj.len() {
            let (ui, pi) = (adj[i].nbr, g.prob(adj[i].edge));
            for aj in &adj[(i + 1)..] {
                let (uj, pj) = (aj.nbr, g.prob(aj.edge));
                let q = pi * pj;
                let key = (ui.min(uj), ui.max(uj));
                let slot = acc.entry(key).or_insert((0.0, 0.0));
                slot.0 += q;
                slot.1 += q * q;
            }
        }
    }
    acc.values().map(|&(s1, s2)| (s1 * s1 - s2) / 2.0).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::types::Left;
    use crate::world::PossibleWorld;
    use crate::EdgeId;

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

    /// Brute-force expectation by enumerating all worlds.
    fn reference_expected_butterflies(g: &UncertainBipartiteGraph) -> f64 {
        let m = g.num_edges();
        assert!(m <= 16);
        let mut total = 0.0;
        for mask in 0u32..(1 << m) {
            let mut w = PossibleWorld::empty(m);
            for i in 0..m {
                if mask >> i & 1 == 1 {
                    w.insert(EdgeId(i as u32));
                }
            }
            let count = count_butterflies_in_world(g, &w);
            total += w.probability(g) * count as f64;
        }
        total
    }

    fn count_butterflies_in_world(g: &UncertainBipartiteGraph, w: &PossibleWorld) -> usize {
        let mut n = 0;
        let nl = g.num_left() as u32;
        for a in 0..nl {
            for b in (a + 1)..nl {
                let mut common = 0usize;
                for (v, e1) in g.left_neighbors(Left(a)) {
                    if !w.contains(e1) {
                        continue;
                    }
                    if let Some(e2) = g.find_edge(Left(b), v) {
                        if w.contains(e2) {
                            common += 1;
                        }
                    }
                }
                n += common * common.saturating_sub(1) / 2;
            }
        }
        n
    }

    #[test]
    fn fig1_expected_butterflies_hand_computed() {
        // q = (.15, .24, .56): E = .15·.24 + .15·.56 + .24·.56 = .2544.
        let g = fig1();
        let e = expected_butterfly_count(&g);
        assert!((e - 0.2544).abs() < 1e-12, "e={e}");
    }

    #[test]
    fn closed_form_matches_world_enumeration() {
        let g = fig1();
        let closed = expected_butterfly_count(&g);
        let reference = reference_expected_butterflies(&g);
        assert!((closed - reference).abs() < 1e-9, "{closed} vs {reference}");
    }

    #[test]
    fn deterministic_graph_counts_are_integral() {
        // All p = 1: expected = actual backbone butterfly count.
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
            }
        }
        let g = b.build().unwrap();
        // K_{3,3}: C(3,2)² = 9 butterflies.
        assert!((expected_butterfly_count(&g) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_butterfly_free_graphs() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(expected_butterfly_count(&g), 0.0);
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.9).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 0.9).unwrap();
        let g = b.build().unwrap();
        assert_eq!(expected_butterfly_count(&g), 0.0);
    }
}

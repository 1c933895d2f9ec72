//! Vertex-induced subsampling for the Fig. 9 scalability experiment.
//!
//! The paper evaluates scalability "by randomly choosing 25%, 50%, 75%,
//! 100% of vertices to form a new dataset": sample that fraction of each
//! side, keep the induced edges, and remap ids densely.

use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Returns the subgraph induced by a random `frac` of each side's
/// vertices. `frac = 1.0` reproduces the input (with identical ids).
///
/// # Panics
/// Panics unless `0 < frac ≤ 1`.
pub fn induced_vertex_sample(
    g: &UncertainBipartiteGraph,
    frac: f64,
    seed: u64,
) -> UncertainBipartiteGraph {
    assert!(frac > 0.0 && frac <= 1.0, "frac must be in (0,1]");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5CA1E);

    let pick = |n: usize, rng: &mut ChaCha8Rng| -> Vec<u32> {
        let keep = ((n as f64 * frac).round() as usize).clamp(1.min(n), n);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        // Partial Fisher–Yates, then sort the kept prefix so remapping
        // preserves relative order (stable, deterministic ids).
        for i in 0..keep {
            let j = rng.random_range(i..n);
            ids.swap(i, j);
        }
        let mut kept = ids[..keep].to_vec();
        kept.sort_unstable();
        kept
    };

    let left_kept = pick(g.num_left(), &mut rng);
    let right_kept = pick(g.num_right(), &mut rng);

    // Old id -> new dense id (u32::MAX = dropped).
    let mut left_map = vec![u32::MAX; g.num_left()];
    for (new, &old) in left_kept.iter().enumerate() {
        left_map[old as usize] = new as u32;
    }
    let mut right_map = vec![u32::MAX; g.num_right()];
    for (new, &old) in right_kept.iter().enumerate() {
        right_map[old as usize] = new as u32;
    }

    let mut b = GraphBuilder::new();
    b.reserve_vertices(left_kept.len() as u32, right_kept.len() as u32);
    for (e, (u, v)) in g.edge_ids().zip(g.edge_endpoints()) {
        let (nu, nv) = (left_map[u.index()], right_map[v.index()]);
        if nu != u32::MAX && nv != u32::MAX {
            b.add_edge(Left(nu), Right(nv), g.weight(e), g.prob(e))
                .expect("induced edges are unique");
        }
    }
    b.build().expect("induced subgraph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    #[test]
    fn full_fraction_is_identity() {
        let g = Dataset::MovieLens.generate(0.01, 1);
        let s = induced_vertex_sample(&g, 1.0, 7);
        assert_eq!(s.num_left(), g.num_left());
        assert_eq!(s.num_right(), g.num_right());
        assert_eq!(s.num_edges(), g.num_edges());
    }

    #[test]
    fn half_fraction_halves_vertices() {
        let g = Dataset::MovieLens.generate(0.02, 2);
        let s = induced_vertex_sample(&g, 0.5, 8);
        assert_eq!(s.num_left(), g.num_left() / 2 + g.num_left() % 2);
        assert!((s.num_right() as f64 - g.num_right() as f64 * 0.5).abs() <= 1.0);
        // Induced edges: roughly frac² of the original, very loosely.
        assert!(s.num_edges() < g.num_edges());
        assert!(s.num_edges() > 0);
    }

    #[test]
    fn induced_edges_keep_weights_and_probs() {
        let g = Dataset::Abide.generate(0.1, 3);
        let s = induced_vertex_sample(&g, 0.6, 9);
        // ABIDE is complete, so the induced graph is complete too and the
        // multiset of (weight, prob) pairs is a subset of the original's.
        assert_eq!(s.num_edges(), s.num_left() * s.num_right());
        let orig: std::collections::BTreeSet<(u64, u64)> = g
            .edge_ids()
            .map(|e| (g.weight(e).to_bits(), g.prob(e).to_bits()))
            .collect();
        for e in s.edge_ids() {
            assert!(orig.contains(&(s.weight(e).to_bits(), s.prob(e).to_bits())));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = Dataset::MovieLens.generate(0.02, 4);
        let a = induced_vertex_sample(&g, 0.25, 10);
        let b = induced_vertex_sample(&g, 0.25, 10);
        assert_eq!(a.num_edges(), b.num_edges());
        let c = induced_vertex_sample(&g, 0.25, 11);
        // Different seed: almost surely a different vertex sample.
        assert!(a.num_edges() != c.num_edges() || a.edge_endpoints() != c.edge_endpoints());
    }

    #[test]
    #[should_panic(expected = "frac must be in (0,1]")]
    fn rejects_bad_fraction() {
        let g = Dataset::Abide.generate(0.05, 5);
        let _ = induced_vertex_sample(&g, 0.0, 0);
    }
}

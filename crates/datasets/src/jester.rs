//! Jester stand-in.
//!
//! Jester is the paper's most asymmetric dataset: 100 jokes (`|L|`) ×
//! 73,421 users (`|R|`) with 4.1 M ratings — every user rates over half
//! the jokes on average, so the *left* side is a set of ultra-dense hubs.
//! **Weight = rating** (Jester's continuous −10..+10 scale, shifted to
//! 0..20 since MPMB weights are non-negative and the shift is rank-
//! preserving) and **probability = reliability** as for MovieLens.
//!
//! The stand-in quantizes ratings to a coarse 0.5 grid, which produces the
//! massive weight-tie structure the paper calls out in Fig. 10(c) ("many
//! same ratios … many butterflies with the same weights").

use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::scaled;

/// Generates the Jester stand-in at `scale` (1.0 = 100×73,421 with
/// ~4.1 M edges).
pub fn generate(scale: f64, seed: u64) -> UncertainBipartiteGraph {
    let jokes = scaled(100, scale.sqrt(), 4) as u32;
    let users = scaled(73_421, scale / scale.sqrt(), 8) as u32;
    let mean_deg = (4_136_360.0 / 73_421.0) * (jokes as f64 / 100.0);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E57E2);
    // Per-joke funniness bias drives both rating level and tie structure.
    let joke_bias: Vec<f64> = (0..jokes).map(|_| rng.random_range(4.0..16.0)).collect();

    let mut b = GraphBuilder::with_capacity((users as f64 * mean_deg) as usize);
    b.reserve_vertices(jokes, users);
    let mut jokes_rated: Vec<u32> = (0..jokes).collect();
    for user in 0..users {
        // Each user rates d distinct jokes, d ≈ N(mean, mean/3).
        let d = (mean_deg + bigraph::generators::standard_normal(&mut rng) * mean_deg / 3.0)
            .round()
            .clamp(1.0, jokes as f64) as usize;
        // Partial Fisher–Yates over the joke list.
        for i in 0..d {
            let j = rng.random_range(i..jokes as usize);
            jokes_rated.swap(i, j);
            let joke = jokes_rated[i];
            let raw =
                joke_bias[joke as usize] + bigraph::generators::standard_normal(&mut rng) * 3.0;
            // Coarse 0.5-grid quantization in [0, 20] ⇒ heavy ties.
            let rating = (raw.clamp(0.0, 20.0) * 2.0).round() / 2.0;
            let reliability =
                (1.0 - (rating - joke_bias[joke as usize]).abs() / 16.0).clamp(0.05, 0.95);
            b.add_edge(Left(joke), Right(user), rating, reliability)
                .expect("per-user jokes are distinct");
        }
    }
    b.build().expect("valid Jester stand-in")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetry_matches_table3_shape() {
        let g = generate(0.01, 1);
        assert!(g.num_left() <= 12, "|L|={}", g.num_left());
        assert!(g.num_right() > 5_000, "|R|={}", g.num_right());
        // Edge count tracks scale: ~1% of 4.1M within generous slack
        // (degree draws are stochastic).
        let e = g.num_edges() as f64;
        assert!((20_000.0..65_000.0).contains(&e), "|E|={e}");
    }

    #[test]
    fn left_side_is_ultra_dense() {
        let g = generate(0.01, 2);
        let avg_left_deg = g.num_edges() as f64 / g.num_left() as f64;
        assert!(avg_left_deg > 1_000.0, "avg left degree {avg_left_deg}");
    }

    #[test]
    fn ratings_tie_heavily() {
        let g = generate(0.005, 3);
        let mut distinct: std::collections::BTreeSet<u64> = Default::default();
        for e in g.edge_ids() {
            distinct.insert((g.weight(e) * 2.0) as u64);
        }
        // ≤ 41 possible grid points for thousands of edges.
        assert!(distinct.len() <= 41);
        assert!(g.num_edges() > distinct.len() * 20);
    }

    #[test]
    fn users_rate_distinct_jokes() {
        let g = generate(0.005, 4);
        for v in 0..g.num_right() as u32 {
            let mut seen = std::collections::HashSet::new();
            for (l, _) in g.right_neighbors(Right(v)) {
                assert!(seen.insert(l), "user {v} rated joke {l:?} twice");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(0.005, 5);
        let b = generate(0.005, 5);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edge_endpoints(), b.edge_endpoints());
        for e in a.edge_ids().take(500) {
            assert_eq!(a.weight(e), b.weight(e));
        }
    }
}

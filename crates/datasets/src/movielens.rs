//! MovieLens-small stand-in.
//!
//! The paper uses the MovieLens 100K ratings graph: 610 users × 9,724
//! movies, 100,836 ratings. **Weight = rating** (the 0.5–5.0 half-star
//! grid) and **probability = reliability**, "the relative difference
//! between the user rating and the average rating".
//!
//! The stand-in draws edges with Zipf item popularity (a few blockbusters
//! dominate — the degree skew that makes vertex-priority/edge-ordering
//! optimizations bite), assigns grid ratings with a per-item bias, and
//! derives reliability as `1 − |rating − item_mean| / 4.5` (deviation over
//! the rating range) so consensus ratings carry high-probability edges —
//! real rating data concentrates reliability near 1, which is what gives
//! the paper's Fig. 10 its positive per-candidate trial ratios.

use bigraph::fx::FxHashMap;
use bigraph::generators::{zipf_bipartite, ValueDist};
use bigraph::{GraphBuilder, UncertainBipartiteGraph};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::scaled;

/// The half-star rating grid.
pub const RATING_GRID: [f64; 10] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0];

/// Generates the MovieLens stand-in at `scale` (1.0 = 610×9,724 with
/// 100,836 edges).
pub fn generate(scale: f64, seed: u64) -> UncertainBipartiteGraph {
    let users = scaled(610, scale, 4) as u32;
    let movies = scaled(9_724, scale, 8) as u32;
    let ratings = scaled(100_836, scale, 16).min(users as usize * movies as usize);

    // First pass: structure from the Zipf generator (weights/probs are
    // placeholders, replaced below once item means are known).
    let skeleton = zipf_bipartite(
        users,
        movies,
        ratings,
        1.1,
        &ValueDist::Constant(1.0),
        &ValueDist::Constant(0.5),
        seed ^ 0x0071E5,
    );

    // Per-item rating bias. Capped below the scale top so 5.0 ratings are
    // a tail event: the maximum-weight butterfly class stays contested
    // (several weight classes populate the OLS candidate set) instead of
    // collapsing into one enormous tie at 4×5.0.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0000_71E5_0001);
    let item_bias: Vec<f64> = (0..movies).map(|_| rng.random_range(1.0..3.8)).collect();

    // Draw ratings around each item's bias, clamped to the grid.
    let mut edge_rating: Vec<f64> = Vec::with_capacity(skeleton.num_edges());
    let mut item_sum: FxHashMap<u32, (f64, u32)> = FxHashMap::default();
    let ends = skeleton.edge_endpoints();
    for &(_, v) in &ends {
        let raw = item_bias[v.index()] + bigraph::generators::standard_normal(&mut rng) * 0.8;
        let idx = RATING_GRID
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (raw - **a).abs().total_cmp(&(raw - **b).abs()))
            .map(|(i, _)| i)
            .unwrap();
        let rating = RATING_GRID[idx];
        edge_rating.push(rating);
        let entry = item_sum.entry(v.0).or_insert((0.0, 0));
        entry.0 += rating;
        entry.1 += 1;
    }

    // Second pass: reliability = 1 − |rating − item mean| / 4.5.
    let mut b = GraphBuilder::with_capacity(skeleton.num_edges());
    b.reserve_vertices(users, movies);
    for (&(u, v), &rating) in ends.iter().zip(&edge_rating) {
        let (sum, cnt) = item_sum[&v.0];
        let mean = sum / cnt as f64;
        let reliability = (1.0 - (rating - mean).abs() / 4.5).clamp(0.02, 0.98);
        b.add_edge(u, v, rating, reliability)
            .expect("skeleton has no duplicates");
    }
    b.build().expect("valid MovieLens stand-in")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::Right;

    #[test]
    fn small_scale_shape() {
        let g = generate(0.02, 5);
        assert_eq!(g.num_left(), 12); // 610 * 0.02
        assert_eq!(g.num_right(), 194);
        assert_eq!(g.num_edges(), 2_017);
    }

    #[test]
    fn weights_are_on_the_rating_grid() {
        let g = generate(0.02, 6);
        for e in g.edge_ids() {
            assert!(
                RATING_GRID.contains(&g.weight(e)),
                "off-grid rating {}",
                g.weight(e)
            );
        }
    }

    #[test]
    fn probabilities_are_valid_and_varied() {
        let g = generate(0.02, 7);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for e in g.edge_ids() {
            let p = g.prob(e);
            assert!((0.0..=1.0).contains(&p));
            min = min.min(p);
            max = max.max(p);
        }
        assert!(
            max - min > 0.2,
            "degenerate reliability spread [{min},{max}]"
        );
    }

    #[test]
    fn item_popularity_is_skewed() {
        let g = generate(0.05, 8);
        let mut degs: Vec<usize> = (0..g.num_right())
            .map(|v| g.right_degree(Right(v as u32)))
            .collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = degs[..g.num_right() / 10].iter().sum();
        assert!(
            head * 100 > g.num_edges() * 25,
            "top-10% items hold only {head}/{} edges",
            g.num_edges()
        );
    }

    #[test]
    fn consensus_ratings_are_more_reliable() {
        // An edge whose rating sits at its item's mean must beat one far
        // from the mean. Verify statistically: correlation between
        // |rating − mean| and probability is strongly negative by
        // construction, so the extremes suffice.
        let g = generate(0.05, 9);
        // Recover item means from the generated graph itself.
        let mut sums: std::collections::HashMap<u32, (f64, u32)> = Default::default();
        let ends = g.edge_endpoints();
        for (e, &(_, v)) in g.edge_ids().zip(&ends) {
            let s = sums.entry(v.0).or_insert((0.0, 0));
            s.0 += g.weight(e);
            s.1 += 1;
        }
        for (e, &(_, v)) in g.edge_ids().zip(&ends) {
            let (s, c) = sums[&v.0];
            let mean = s / c as f64;
            let expect = (1.0 - (g.weight(e) - mean).abs() / 4.5).clamp(0.02, 0.98);
            assert!((g.prob(e) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(0.02, 11);
        let b = generate(0.02, 11);
        assert_eq!(a.edge_endpoints(), b.edge_endpoints());
        for e in a.edge_ids() {
            assert_eq!(a.weight(e), b.weight(e));
            assert_eq!(a.prob(e), b.prob(e));
        }
        let c = generate(0.02, 12);
        let (ends_a, ends_c) = (a.edge_endpoints(), c.edge_endpoints());
        assert!(a
            .edge_ids()
            .any(|e| ends_a[e.index()] != ends_c[e.index()] || a.weight(e) != c.weight(e)));
    }
}

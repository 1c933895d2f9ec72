//! STRING protein-interaction stand-in.
//!
//! The paper's largest dataset: 186,773 × 186,772 vertices and 39.5 M
//! edges derived from the STRING protein network, bipartitioned by odd/even
//! protein ids. Notably, the paper's own preprocessing *already
//! synthesizes the probabilities* — "we preprocessed this dataset to
//! randomly generate probabilities with normal distribution"
//! Normal(0.5, 0.2) — so this stand-in uses the identical probability
//! model.
//!
//! Interaction weights follow STRING's well-known **bimodal** combined-
//! score shape: a broad body of low/medium-confidence scores plus a
//! saturated high-confidence tier clustered at the top of the scale
//! (experimentally-validated interactions pile up near the 1000 cap).
//! That saturated tier produces many weight ties at the maximum — the
//! property that lets the §V-B edge-ordering pruning cut each Ordering
//! Sampling trial down to the top weight class, as the paper's Fig. 7
//! Protein results (OS finishing while MC-VP times out) require.
//!
//! Scaling keeps the paper's **average degree (~211)** constant: vertices
//! and edges both scale linearly, because the solvers' per-trial costs are
//! degree-driven (Lemmas IV.1, V.1) and a density-collapsed subsample
//! would not reproduce the paper's cost regime.

use bigraph::fx::FxHashSet;
use bigraph::generators::quantize_weight;
use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::scaled;

/// Fraction of edges in the saturated high-confidence tier.
const TOP_TIER_FRACTION: f64 = 0.04;
/// The saturated score (top of the 0–10 scale).
const TOP_SCORE: f64 = 10.0;

/// Generates the Protein stand-in at `scale` (1.0 = full Table III size:
/// 39.5 M edges — ~1.3 GB of graph; prefer small scales on laptops).
pub fn generate(scale: f64, seed: u64) -> UncertainBipartiteGraph {
    let left = scaled(186_773, scale, 8) as u32;
    let right = scaled(186_772, scale, 8) as u32;
    let edges = scaled(39_471_870, scale, 16).min(left as usize * right as usize);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9207E14);
    let mut b = GraphBuilder::with_capacity(edges);
    b.reserve_vertices(left, right);
    let mut used: FxHashSet<u64> = FxHashSet::default();
    used.reserve(edges);
    while used.len() < edges {
        let u = rng.random_range(0..left);
        let v = rng.random_range(0..right);
        if !used.insert(u as u64 * right as u64 + v as u64) {
            continue;
        }
        // Bimodal STRING-like score: saturated top tier or broad body.
        let w = if rng.random::<f64>() < TOP_TIER_FRACTION {
            TOP_SCORE
        } else {
            quantize_weight(rng.random_range(1.0..8.5))
        };
        // The paper's own model: Normal(0.5, 0.2), clamped into (0,1).
        let p = (0.5 + 0.2 * bigraph::generators::standard_normal(&mut rng)).clamp(0.01, 0.99);
        b.add_edge(Left(u), Right(v), w, p)
            .expect("pair uniqueness checked");
    }
    b.build().expect("valid Protein stand-in")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{Left, Right};

    #[test]
    fn scale_controls_size_with_constant_degree() {
        let g = generate(0.002, 1);
        assert_eq!(g.num_left(), 374);
        assert_eq!(g.num_right(), 374);
        // Edges scale linearly: average degree stays ≈ 211 like Table III.
        assert_eq!(g.num_edges(), 78_944);
        let avg_deg = g.num_edges() as f64 / g.num_left() as f64;
        assert!((avg_deg - 211.0).abs() < 10.0, "avg degree {avg_deg}");
    }

    #[test]
    fn weights_are_bimodal_with_saturated_top_tier() {
        let g = generate(0.001, 7);
        let top = g.edge_ids().filter(|&e| g.weight(e) == TOP_SCORE).count();
        let frac = top as f64 / g.num_edges() as f64;
        assert!((frac - TOP_TIER_FRACTION).abs() < 0.01, "top tier {frac}");
        // Body strictly below the saturated tier.
        assert!(g
            .edge_ids()
            .all(|e| g.weight(e) == TOP_SCORE || g.weight(e) < 8.6));
    }

    #[test]
    fn probabilities_follow_the_papers_normal_model() {
        let g = generate(0.001, 2);
        let n = g.num_edges() as f64;
        assert!(n > 5_000.0);
        let mean: f64 = g.edge_ids().map(|e| g.prob(e)).sum::<f64>() / n;
        let var: f64 = g
            .edge_ids()
            .map(|e| (g.prob(e) - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
        assert!((var.sqrt() - 0.2).abs() < 0.03, "sd={}", var.sqrt());
    }

    #[test]
    fn near_regular_degrees() {
        // Uniform edge placement ⇒ no heavy hubs (unlike MovieLens).
        let g = generate(0.001, 3);
        let max_l = (0..g.num_left())
            .map(|u| g.left_degree(Left(u as u32)))
            .max()
            .unwrap();
        let max_r = (0..g.num_right())
            .map(|v| g.right_degree(Right(v as u32)))
            .max()
            .unwrap();
        let avg = g.num_edges() as f64 / g.num_left() as f64;
        assert!(
            (max_l as f64) < avg * 8.0 + 8.0,
            "hub on left: {max_l} vs avg {avg}"
        );
        assert!((max_r as f64) < avg * 8.0 + 8.0, "hub on right: {max_r}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(0.0005, 4);
        let b = generate(0.0005, 4);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edge_endpoints(), b.edge_endpoints());
        for e in a.edge_ids() {
            assert_eq!(a.prob(e), b.prob(e));
        }
    }
}

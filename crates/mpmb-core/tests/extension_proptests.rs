//! Property-based tests for the extension modules: targeted queries,
//! diverse top-k, adaptive sampling, and count distributions.

use bigraph::{GraphBuilder, Left, Right};
use mpmb_core::{
    count_distribution_from_histogram, enumerate_backbone_butterflies, exact_distribution,
    shared_vertices, top_k_diverse, Cancel, CountTrials, ExactConfig, Executor, QueryTrials,
};
use proptest::prelude::*;

/// Small random graph with coarse probabilities (exact-friendly).
fn arb_graph() -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0u32..4, 0u32..4), 1..=10).prop_flat_map(|pairs| {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let n = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(1u32..=32, n..=n),
            proptest::collection::vec(1u32..=9, n..=n),
        )
            .prop_map(|(pairs, ws, ps)| {
                pairs
                    .into_iter()
                    .zip(ws.iter().zip(ps.iter()))
                    .map(|((u, v), (&w, &p))| (u, v, w as f64 / 4.0, p as f64 / 10.0))
                    .collect()
            })
    })
}

fn build(edges: &[(u32, u32, f64, f64)]) -> bigraph::UncertainBipartiteGraph {
    let mut b = GraphBuilder::new();
    for &(u, v, w, p) in edges {
        b.add_edge(Left(u), Right(v), w, p).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    /// The conditioned query estimator converges to exact P(B) for every
    /// backbone butterfly.
    #[test]
    fn query_matches_exact(edges in arb_graph(), seed in 0u64..30) {
        let g = build(&edges);
        let exact = exact_distribution(&g, ExactConfig { max_uncertain_edges: 10 }).unwrap();
        for b in enumerate_backbone_butterflies(&g) {
            let query = QueryTrials::new(&g, &b, seed).unwrap();
            let q = query.finalize(Executor::new(1).run(&query, 4_000, &Cancel::never()).acc, 4_000);
            let p = exact.prob(&b);
            prop_assert!((q.prob - p).abs() < 0.06, "{}: {} vs {}", b, q.prob, p);
            // The decomposition is consistent.
            prop_assert!((q.prob - q.existence_prob * q.conditional_max_prob).abs() < 1e-12);
            prop_assert!(q.existence_prob <= 1.0 && q.conditional_max_prob <= 1.0);
        }
    }

    /// Diverse top-k invariants: respects the overlap limit pairwise, is
    /// a subsequence of the sorted ranking, and contains the argmax.
    #[test]
    fn diverse_top_k_invariants(edges in arb_graph(), k in 1usize..6, limit in 0usize..5) {
        let g = build(&edges);
        let exact = exact_distribution(&g, ExactConfig { max_uncertain_edges: 10 }).unwrap();
        let picks = top_k_diverse(&exact, k, limit);
        prop_assert!(picks.len() <= k);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                prop_assert!(shared_vertices(&picks[i].0, &picks[j].0) <= limit);
            }
        }
        // Subsequence of the sorted ranking.
        let sorted = exact.sorted();
        let mut cursor = 0;
        for pick in &picks {
            let pos = sorted[cursor..].iter().position(|x| x == pick);
            prop_assert!(pos.is_some(), "pick not in ranking order");
            cursor += pos.unwrap() + 1;
        }
        // The argmax always survives (greedy starts from it).
        if let Some(top) = exact.mpmb() {
            if !picks.is_empty() {
                prop_assert_eq!(picks[0], top);
            }
        }
    }

    /// Sampled count mean tracks the closed-form expectation.
    #[test]
    fn count_mean_matches_expectation(edges in arb_graph(), seed in 0u64..10) {
        let g = build(&edges);
        let expect = bigraph::expected::expected_butterfly_count(&g);
        let histogram = Executor::new(1).run(&CountTrials::new(&g, seed), 4_000, &Cancel::never()).acc;
        let d = count_distribution_from_histogram(histogram, 4_000);
        // Counts are small integers here; 3σ-ish tolerance.
        let tol = 0.08 + 0.08 * expect.sqrt();
        prop_assert!((d.mean - expect).abs() < tol, "mean {} vs {}", d.mean, expect);
        let total: u64 = d.histogram.values().sum();
        prop_assert_eq!(total, 4_000);
    }
}

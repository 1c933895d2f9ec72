//! Property-based tests for the bipartite-graph substrate.

use bigraph::{BitSet, EdgeId, GraphBuilder, Left, PossibleWorld, Right, WorldSampler};
use proptest::prelude::*;

/// Strategy: a small random uncertain bipartite graph as an edge list with
/// distinct endpoint pairs, quantized weights, and valid probabilities.
fn arb_edges(
    max_l: u32,
    max_r: u32,
    max_m: usize,
) -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0..max_l, 0..max_r), 0..=max_m).prop_flat_map(move |pairs| {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let n = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(0u32..=320, n..=n),
            proptest::collection::vec(0.0f64..=1.0, n..=n),
        )
            .prop_map(|(pairs, ws, ps)| {
                pairs
                    .into_iter()
                    .zip(ws.iter().zip(ps.iter()))
                    .map(|((u, v), (&w, &p))| (u, v, w as f64 / 64.0, p))
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
    /// Both CSR sides describe the same edge set, consistently.
    #[test]
    fn csr_sides_agree(edges in arb_edges(12, 12, 60)) {
        let g = build(&edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        for (e, (u, v)) in g.edge_ids().zip(g.edge_endpoints()) {
            prop_assert!(g.left_neighbors(u).any(|(r, ee)| r == v && ee == e));
            prop_assert!(g.right_neighbors(v).any(|(l, ee)| l == u && ee == e));
            prop_assert_eq!(g.find_edge(u, v), Some(e));
        }
        let left_sum: usize = (0..g.num_left()).map(|i| g.left_degree(Left(i as u32))).sum();
        let right_sum: usize = (0..g.num_right()).map(|i| g.right_degree(Right(i as u32))).sum();
        prop_assert_eq!(left_sum, g.num_edges());
        prop_assert_eq!(right_sum, g.num_edges());
    }

    /// The weight-descending edge order is a permutation sorted by weight.
    #[test]
    fn weight_order_is_sorted_permutation(edges in arb_edges(10, 10, 40)) {
        let g = build(&edges);
        let order: Vec<EdgeId> = g.edges_by_weight_desc().collect();
        prop_assert_eq!(order.len(), g.num_edges());
        let mut seen: Vec<u32> = order.iter().map(|e| e.0).collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..g.num_edges() as u32).collect();
        prop_assert_eq!(seen, expect);
        for w in order.windows(2) {
            prop_assert!(g.weight(w[0]) >= g.weight(w[1]));
        }
    }

    /// Possible-world probabilities over the full enumeration sum to 1.
    /// (Only for tiny graphs: 2^|E| worlds.)
    #[test]
    fn world_probabilities_sum_to_one(edges in arb_edges(4, 4, 8)) {
        let g = build(&edges);
        let m = g.num_edges();
        let mut total = 0.0;
        for mask in 0u32..(1 << m) {
            let mut w = PossibleWorld::empty(m);
            for i in 0..m {
                if mask >> i & 1 == 1 {
                    w.insert(EdgeId(i as u32));
                }
            }
            total += w.probability(&g);
        }
        prop_assert!((total - 1.0).abs() < 1e-9, "sum={}", total);
    }

    /// A sampled world only ever contains backbone edges, and respects
    /// deterministic (p∈{0,1}) edges.
    #[test]
    fn sampled_worlds_respect_deterministic_edges(
        edges in arb_edges(8, 8, 24),
        seed in 0u64..1000,
    ) {
        let mut edges = edges;
        // Force a deterministic pair if we have at least 2 edges.
        if edges.len() >= 2 {
            edges[0].3 = 0.0;
            edges[1].3 = 1.0;
        }
        let g = build(&edges);
        let mut rng = bigraph::trial_rng(seed, 0);
        let w = WorldSampler::sample(&g, &mut rng);
        if edges.len() >= 2 {
            prop_assert!(!w.contains(EdgeId(0)));
            prop_assert!(w.contains(EdgeId(1)));
        }
        prop_assert!(w.num_present() <= g.num_edges());
    }

    /// BitSet behaves like a reference HashSet under a random op sequence.
    #[test]
    fn bitset_matches_reference(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..300)) {
        let mut bs = BitSet::new(200);
        let mut reference = std::collections::HashSet::new();
        for (i, insert) in ops {
            if insert {
                bs.insert(i);
                reference.insert(i);
            } else {
                bs.remove(i);
                reference.remove(&i);
            }
        }
        prop_assert_eq!(bs.count_ones(), reference.len());
        for i in 0..200 {
            prop_assert_eq!(bs.contains(i), reference.contains(&i));
        }
        let mut from_iter: Vec<usize> = bs.iter_ones().collect();
        let mut expect: Vec<usize> = reference.into_iter().collect();
        expect.sort_unstable();
        from_iter.sort_unstable();
        prop_assert_eq!(from_iter, expect);
    }

    /// Vertex priority ranks form a permutation and are monotone in degree.
    #[test]
    fn priority_monotone_in_degree(edges in arb_edges(10, 10, 50)) {
        let g = build(&edges);
        let p = bigraph::VertexPriority::from_degrees(&g);
        for a in 0..g.num_left() as u32 {
            for b in 0..g.num_right() as u32 {
                let (da, db) = (g.left_degree(Left(a)), g.right_degree(Right(b)));
                if da > db {
                    prop_assert!(p.left(Left(a)) > p.right(Right(b)));
                } else if db > da {
                    prop_assert!(p.right(Right(b)) > p.left(Left(a)));
                }
            }
        }
    }

    /// Closed-form expected butterfly count equals the world-enumeration
    /// expectation on tiny graphs.
    #[test]
    fn expected_count_matches_enumeration(edges in arb_edges(4, 4, 9)) {
        let g = build(&edges);
        let closed = bigraph::expected::expected_butterfly_count(&g);
        // Reference: sum over worlds of Pr(W) * count(W).
        let m = g.num_edges();
        let mut reference = 0.0;
        for mask in 0u32..(1 << m) {
            let mut w = PossibleWorld::empty(m);
            for i in 0..m {
                if mask >> i & 1 == 1 {
                    w.insert(EdgeId(i as u32));
                }
            }
            let mut count = 0.0;
            // Count butterflies by common-neighbor pairs.
            for a in 0..g.num_left() as u32 {
                for b in (a + 1)..g.num_left() as u32 {
                    let mut common = 0u64;
                    for (v, e1) in g.left_neighbors(Left(a)) {
                        if !w.contains(e1) { continue; }
                        if let Some(e2) = g.find_edge(Left(b), v) {
                            if w.contains(e2) { common += 1; }
                        }
                    }
                    count += (common * common.saturating_sub(1) / 2) as f64;
                }
            }
            reference += w.probability(&g) * count;
        }
        prop_assert!((closed - reference).abs() < 1e-9, "{} vs {}", closed, reference);
    }

    /// Edge-list round-trip: write then read reproduces the graph exactly.
    #[test]
    fn io_roundtrip(edges in arb_edges(10, 10, 40)) {
        let g = build(&edges);
        let mut buf = Vec::new();
        bigraph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = bigraph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        prop_assert_eq!(g.edge_endpoints(), g2.edge_endpoints());
        for e in g.edge_ids() {
            prop_assert_eq!(g.weight(e), g2.weight(e));
            prop_assert_eq!(g.prob(e), g2.prob(e));
        }
    }
}

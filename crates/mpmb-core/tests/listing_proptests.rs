//! Property-based verification of the backbone listing kernel.
//!
//! The central invariant: the wedge kernel lists exactly the butterflies
//! of the `O(|L|²)` pairwise scan, in the scan's canonical
//! `(u₁, u₂)`-major order. OLS keys Karp-Luby RNG streams by candidate
//! index, so the order is part of the answer. Also checks that OLS
//! prepare is thread-count independent, and cross-checks
//! `count_backbone_butterflies` against the closed-form expectation in
//! `bigraph::expected`: with every edge probability forced to 1 the
//! expected count IS the backbone count.

use bigraph::expected::expected_butterfly_count;
use bigraph::{GraphBuilder, Left, Right};
use mpmb_core::{
    count_backbone_butterflies, enumerate_backbone_butterflies, Butterfly, Cancel, CandidateSet,
    Executor, PrepareTrials,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Denser variant of the solver proptests' generator: ≤ 24 edges over a
/// 6×6 grid so multi-butterfly graphs are common.
fn arb_graph() -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0u32..6, 0u32..6), 0..=24).prop_flat_map(|pairs| {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let n = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(0u32..=64, n..=n),
            proptest::collection::vec(0u32..=10, n..=n),
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

/// The pairwise reference: for every left pair `a < b`, merge the two
/// sorted adjacency lists and emit each pair of common right neighbours
/// in `(v₁, v₂)` lexicographic order. This defines the canonical order.
fn pairwise_butterflies(g: &bigraph::UncertainBipartiteGraph) -> Vec<Butterfly> {
    let mut out = Vec::new();
    let nl = g.num_left() as u32;
    for a in 0..nl {
        for b in (a + 1)..nl {
            let (la, lb) = (g.left_adj(Left(a)), g.left_adj(Left(b)));
            let common: Vec<u32> = la
                .iter()
                .map(|x| x.nbr)
                .filter(|v| lb.binary_search_by_key(v, |y| y.nbr).is_ok())
                .collect();
            for x in 0..common.len() {
                for &v2 in &common[(x + 1)..] {
                    out.push(Butterfly::new(
                        Left(a),
                        Left(b),
                        Right(common[x]),
                        Right(v2),
                    ));
                }
            }
        }
    }
    out
}

/// Byte-level candidate set equality: same indices, same butterflies,
/// same weight/probability bits, same edge ids, same `L(i)`.
fn assert_candidate_sets_identical(
    a: &CandidateSet,
    b: &CandidateSet,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        let (ca, cb) = (a.get(i), b.get(i));
        prop_assert_eq!(ca.butterfly, cb.butterfly, "candidate index {}", i);
        prop_assert_eq!(ca.weight.to_bits(), cb.weight.to_bits());
        prop_assert_eq!(ca.edges, cb.edges);
        prop_assert_eq!(ca.existence_prob.to_bits(), cb.existence_prob.to_bits());
        prop_assert_eq!(a.larger_count(i), b.larger_count(i));
    }
    Ok(())
}

proptest! {
    /// The wedge kernel equals the pairwise scan in content and order,
    /// and the count equals the scan's length.
    #[test]
    fn wedge_kernel_matches_pairwise_scan(edges in arb_graph()) {
        let g = build(&edges);
        let reference = pairwise_butterflies(&g);
        prop_assert_eq!(&enumerate_backbone_butterflies(&g), &reference);
        prop_assert_eq!(count_backbone_butterflies(&g), reference.len() as u64);
    }

    /// OLS prepare: the threaded preparing phase yields the same
    /// candidate set (indices included) as the sequential one.
    #[test]
    fn ols_prepare_is_thread_count_independent(edges in arb_graph(), seed in 0u64..1_000) {
        let g = build(&edges);
        let prep = PrepareTrials::new(&g, seed);
        let prepare = |threads| prep.finalize(Executor::new(threads).run(&prep, 60, &Cancel::never()).acc);
        let seq = prepare(1);
        for threads in THREAD_COUNTS {
            assert_candidate_sets_identical(&seq, &prepare(threads))?;
        }
    }

    /// With all probabilities forced to 1 the closed-form expected count
    /// equals the exact backbone count.
    #[test]
    fn count_matches_closed_form_on_certain_graphs(edges in arb_graph()) {
        let mut b = GraphBuilder::new();
        for &(u, v, w, _) in &edges {
            b.add_edge(Left(u), Right(v), w, 1.0).unwrap();
        }
        let certain = b.build().unwrap();
        let exact = count_backbone_butterflies(&certain);
        let closed = expected_butterfly_count(&certain);
        prop_assert!(
            (closed - exact as f64).abs() < 1e-9,
            "closed-form {} vs exact {}", closed, exact
        );
        // And the original uncertain graph's backbone count is the same:
        // the backbone ignores probabilities.
        prop_assert_eq!(count_backbone_butterflies(&build(&edges)), exact);
    }
}

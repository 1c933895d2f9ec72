//! Property-based verification of the parallel listing kernel.
//!
//! The central invariant: parallel listing is *bit-identical* to the
//! sequential path — same butterfly stream (content and order), same
//! candidate indices, same weight bits — for every thread count. This is
//! what keeps candidate-index-keyed RNG streams (Karp-Luby) stable when
//! a caller flips `--threads`.
//!
//! Also cross-checks `count_backbone_butterflies` against the
//! closed-form expectation in `bigraph::expected`: with every edge
//! probability forced to 1 the expected count IS the backbone count.

use bigraph::expected::expected_butterfly_count;
use bigraph::{GraphBuilder, Left, Right};
use mpmb_core::{
    backbone_candidate_set, count_backbone_butterflies, count_backbone_butterflies_parallel,
    enumerate_backbone_butterflies, enumerate_backbone_butterflies_parallel, listing_shards,
    Cancel, CandidateSet, Executor, OlsConfig, PrepareTrials,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Denser variant of the solver proptests' generator: ≤ 24 edges over a
/// 6×6 grid so multi-butterfly (and multi-shard) graphs are common.
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
    /// Parallel enumeration: identical butterfly stream (content AND
    /// order) at every thread count, and shards always tile `0..|L|`.
    #[test]
    fn parallel_listing_is_bit_identical(edges in arb_graph()) {
        let g = build(&edges);
        let seq = enumerate_backbone_butterflies(&g);
        let count = count_backbone_butterflies(&g);
        prop_assert_eq!(count, seq.len() as u64);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(
                &enumerate_backbone_butterflies_parallel(&g, threads),
                &seq,
                "threads={}", threads
            );
            prop_assert_eq!(count_backbone_butterflies_parallel(&g, threads), count);
            let shards = listing_shards(&g, threads * 4);
            let mut expect = 0u32;
            for s in &shards {
                prop_assert_eq!(s.start, expect);
                prop_assert!(!s.is_empty());
                expect = s.end;
            }
            prop_assert_eq!(expect as usize, g.num_left());
        }
    }

    /// Full-backbone candidate set: byte-identical to the sequential
    /// `from_butterflies` build at every thread count — candidate
    /// indices included.
    #[test]
    fn parallel_candidate_set_is_bit_identical(edges in arb_graph()) {
        let g = build(&edges);
        let seq = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        for threads in THREAD_COUNTS {
            let par = backbone_candidate_set(&g, threads);
            assert_candidate_sets_identical(&seq, &par)?;
        }
    }

    /// OLS prepare: the threaded preparing phase yields the same
    /// candidate set (indices included) as the sequential one.
    #[test]
    fn ols_prepare_is_thread_count_independent(edges in arb_graph(), seed in 0u64..1_000) {
        let g = build(&edges);
        let prep = PrepareTrials::new(&g, &OlsConfig { seed, ..Default::default() });
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

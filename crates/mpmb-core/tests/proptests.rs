//! Property-based cross-validation of the MPMB solvers.
//!
//! The central invariant: for any graph and any possible world, MC-VP's
//! per-world routine, Ordering Sampling's engine, and the brute-force
//! reference all agree on `S_MB(W)`; and on small graphs every sampling
//! solver's estimate converges to the exact enumeration.

use bigraph::{EdgeId, GraphBuilder, Left, PossibleWorld, Right, Side, VertexPriority};
use mpmb_core::{
    enumerate_backbone_butterflies, exact_distribution, max_butterflies_in_world, os_smb_of_world,
    Butterfly, Cancel, CandidateSet, ExactConfig, Executor, KarpLubyTrials, KlTrialPolicy,
    OptimizedTrials, OsConfig, OsTrials,
};
use proptest::prelude::*;

/// Small random graph: ≤ 12 edges over a 5×5 vertex grid, quantized
/// weights, probabilities on a coarse grid (so exact enumeration is cheap
/// and nothing degenerates to 2^52 float noise).
fn arb_graph() -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0u32..5, 0u32..5), 0..=12).prop_flat_map(|pairs| {
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

fn world_from_mask(m: usize, mask: u32) -> PossibleWorld {
    let mut w = PossibleWorld::empty(m);
    for i in 0..m {
        if mask >> i & 1 == 1 {
            w.insert(EdgeId(i as u32));
        }
    }
    w
}

fn sorted(mut v: Vec<Butterfly>) -> Vec<Butterfly> {
    v.sort();
    v
}

proptest! {
    /// OS engine == MC-VP per-world routine == brute force, on arbitrary
    /// worlds, for every middle-side/pruning configuration.
    #[test]
    fn smb_agreement_across_algorithms(edges in arb_graph(), mask in any::<u32>()) {
        let g = build(&edges);
        let m = g.num_edges();
        let world = world_from_mask(m, mask & ((1u32 << m.min(31)) - 1));
        let (ref_w, ref_smb) = max_butterflies_in_world(&g, &world);
        let ref_smb = sorted(ref_smb);

        // MC-VP per-world.
        let priority = VertexPriority::from_degrees(&g);
        let mut mc_smb = Vec::new();
        let mc_w = mpmb_core::mcvp::smb_of_world(&g, &priority, &world, &mut mc_smb);
        prop_assert_eq!(sorted(mc_smb), ref_smb.clone());
        if !ref_smb.is_empty() {
            prop_assert_eq!(mc_w, ref_w);
        }

        // OS engine in all 8 configurations.
        for middle in [Some(Side::Left), Some(Side::Right)] {
            for ordering in [true, false] {
                for dynamic in [true, false] {
                    let cfg = OsConfig {
                        edge_ordering: ordering,
                        dynamic_wbar: dynamic,
                        middle_side: middle,
                        ..Default::default()
                    };
                    let (os_w, os_smb) = os_smb_of_world(&g, &world, &cfg);
                    prop_assert_eq!(
                        sorted(os_smb), ref_smb.clone(),
                        "middle={:?} ordering={} dynamic={}", middle, ordering, dynamic
                    );
                    if !ref_smb.is_empty() {
                        prop_assert_eq!(os_w, ref_w);
                    }
                }
            }
        }
    }

    /// Exact P(B) values are valid probabilities and P(B) ≤ Pr[E(B)].
    #[test]
    fn exact_probabilities_are_bounded(edges in arb_graph()) {
        let g = build(&edges);
        let d = exact_distribution(&g, ExactConfig { max_uncertain_edges: 12 }).unwrap();
        for (b, &p) in d.iter() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
            let pe = b.existence_prob(&g).unwrap();
            prop_assert!(p <= pe + 1e-12, "{}: P={} > Pr[E]={}", b, p, pe);
        }
        // Worlds credit ≥1 butterfly each among ties, so the mass summed
        // per weight-class can't exceed... total mass can exceed 1 only
        // via ties; with the mass restricted to distinct-weight classes it
        // is ≤ 1. Check the coarse bound: mass ≤ number of butterflies.
        prop_assert!(d.total_mass() <= d.len() as f64 + 1e-9);
    }

    /// Both OLS estimators, given the full butterfly set as candidates,
    /// agree with exact enumeration within Monte-Carlo tolerance.
    #[test]
    fn estimators_converge_to_exact(edges in arb_graph(), seed in 0u64..100) {
        let g = build(&edges);
        let all = enumerate_backbone_butterflies(&g);
        if all.is_empty() {
            return Ok(());
        }
        let cs = CandidateSet::from_butterflies(&g, all);
        let exact = exact_distribution(&g, ExactConfig { max_uncertain_edges: 12 }).unwrap();
        let trials = 8_000;
        let opt = Executor::new(1)
            .run(&OptimizedTrials::new(&g, &cs, seed), trials, &Cancel::never())
            .acc
            .into_distribution();
        let kl_engine = KarpLubyTrials::new(&g, &cs, KlTrialPolicy::Fixed(trials), seed);
        let kl = kl_engine.finalize(Executor::new(1).run(&kl_engine, kl_engine.trials(), &Cancel::never()).acc);
        for (b, &p) in exact.iter() {
            // 4/sqrt(N) ≈ 0.045 tolerance: generous enough to avoid
            // flakes, tight enough to catch systematic bias.
            prop_assert!((opt.prob(b) - p).abs() < 0.05, "opt {}: {} vs {}", b, opt.prob(b), p);
            prop_assert!((kl.distribution.prob(b) - p).abs() < 0.05, "kl {}: {} vs {}", b, kl.distribution.prob(b), p);
        }
    }

    /// The §III-B reduction on random *chain-like* (sound) formulas:
    /// exact P(target) equals #SAT/2ⁿ.
    #[test]
    fn reduction_equality_on_sound_instances(n in 2u32..7, extra in 0usize..3) {
        let mut clauses: Vec<(u32, u32)> = (1..n).map(|i| (i, i + 1)).collect();
        // A few unit clauses keep the instance interesting but sound.
        for k in 0..extra {
            let v = (k as u32 % n) + 1;
            clauses.push((v, v));
        }
        let f = mpmb_core::Monotone2Sat::new(n, clauses);
        let r = mpmb_core::Reduction::build(f);
        if r.is_exactly_sound() {
            let p = r.exact_target_prob().unwrap();
            prop_assert!((p - r.claimed_prob()).abs() < 1e-12, "{} vs {}", p, r.claimed_prob());
        } else {
            // Accidental butterflies only ever suppress the target.
            let p = r.exact_target_prob().unwrap();
            prop_assert!(p <= r.claimed_prob() + 1e-12);
        }
    }

    /// Sampling with ANY seed never reports a butterfly that exact
    /// enumeration assigns probability zero (impossible butterflies).
    #[test]
    fn sampling_never_reports_impossible_butterflies(edges in arb_graph(), seed in 0u64..50) {
        let g = build(&edges);
        let os = OsTrials::new(&g, &OsConfig { seed, ..Default::default() });
        let d = Executor::new(1).run(&os, 300, &Cancel::never()).acc.into_distribution();
        let exact = exact_distribution(&g, ExactConfig { max_uncertain_edges: 12 }).unwrap();
        for (b, &p) in d.iter() {
            prop_assert!(p >= 0.0);
            prop_assert!(exact.prob(b) > 0.0, "{} sampled but exactly impossible", b);
        }
    }

    /// Top-k is a prefix of the full sorted ranking, and ranking is
    /// stable/deterministic.
    #[test]
    fn top_k_is_prefix_of_sorted(edges in arb_graph()) {
        let g = build(&edges);
        let d = exact_distribution(&g, ExactConfig { max_uncertain_edges: 12 }).unwrap();
        let full = d.sorted();
        for k in 0..=full.len() {
            prop_assert_eq!(&d.top_k(k)[..], &full[..k]);
        }
        if let Some((b, p)) = d.mpmb() {
            prop_assert_eq!(full[0], (b, p));
        }
    }
}

//! Statistical integration tests: the solvers honor the paper's
//! approximation guarantees on graphs where exact answers are computable.

mod common;

use common::solve;
use mpmb::prelude::*;
use mpmb_core::{bounds, convergence_trace, OlsConfig, OptimizedTrials, PrepareTrials};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random 4×4 uncertain graph with quantized weights and coarse probs.
fn random_graph(seed: u64) -> UncertainBipartiteGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for u in 0..4u32 {
        for v in 0..4u32 {
            if rng.random::<f64>() < 0.75 {
                let w = rng.random_range(1..=32) as f64 / 4.0;
                let p = rng.random_range(1..=9) as f64 / 10.0;
                b.add_edge(Left(u), Right(v), w, p).unwrap();
            }
        }
    }
    b.build().unwrap()
}

#[test]
fn theorem_iv1_bound_delivers_epsilon_delta() {
    // For each random instance, run every sampler with the Theorem IV.1
    // trial count for the exact P(B*) at ε=δ=0.25 and check the
    // relative error. With δ=0.25 an individual failure is possible;
    // across 8 instances the expected failures are at most 2 per method
    // — we allow 3 before declaring the bound violated (P(>3 failures)
    // < 4% under the guarantee). OLS prepares with Lemma VI.4's trial
    // count for a 1% candidate-miss rate, so a miss adds at most 0.08
    // expected failures. OLS-KL draws the bound's count per candidate.
    for method in [Method::Os, Method::McVp, Method::Ols, Method::OlsKl] {
        let mut failures = 0;
        let mut checked = 0;
        for seed in 0..8u64 {
            let g = random_graph(seed);
            let exact = mpmb_core::exact_distribution(&g, ExactConfig::default()).unwrap();
            let Some((target, p_exact)) = exact.mpmb() else {
                continue;
            };
            if p_exact < 0.02 {
                continue; // bound would demand enormous trial counts
            }
            checked += 1;
            let (eps, delta) = (0.25, 0.25);
            let n = bounds::mc_trial_lower_bound(p_exact, eps, delta).ceil() as u64;
            let prep = bounds::prep_trials_for_miss_rate(p_exact, 0.01);
            let d = solve(&g, method, n, prep, seed ^ 0xFEED);
            let rel_err = (d.prob(&target) - p_exact).abs() / p_exact;
            if rel_err > eps {
                failures += 1;
            }
        }
        assert!(checked >= 5, "too few usable instances: {checked}");
        assert!(
            failures <= 3,
            "{method}: {failures}/{checked} exceeded the ε bound"
        );
    }
}

#[test]
fn lemma_vi4_candidate_miss_rate_matches_the_bound() {
    // Lemma VI.4: after N preparing trials the exact MPMB B* is missing
    // from the candidate set with probability (1 − P(B*))^N, which
    // `prep_trials_for_miss_rate(P(B*), miss)` holds at or below `miss`.
    // Over a sweep of 150 seeds per instance and target rate, the
    // observed misses must match that rate: within 4σ of the binomial
    // mean (a false alarm has probability < 10⁻⁴), and never above
    // `miss` by more than that tolerance.
    let seeds = 150u64;
    let (mut observed, mut expected, mut variance, mut bound) = (0u64, 0.0, 0.0, 0.0);
    for instance in 0..8u64 {
        let g = random_graph(instance);
        let exact = mpmb_core::exact_distribution(&g, ExactConfig::default()).unwrap();
        let Some((target, p_exact)) = exact.mpmb() else {
            continue;
        };
        for miss in [0.1, 0.5] {
            let prep = bounds::prep_trials_for_miss_rate(p_exact, miss);
            let q = (1.0 - p_exact).powi(prep as i32);
            assert!(q <= miss, "{prep} trials miss at rate {q} > {miss}");
            for seed in 0..seeds {
                let cfg = OlsConfig {
                    seed,
                    ..Default::default()
                };
                let union = Executor::new(1)
                    .run(&PrepareTrials::new(&g, &cfg), prep, &Cancel::never())
                    .acc;
                observed += u64::from(!union.contains(&target));
            }
            expected += q * seeds as f64;
            variance += q * (1.0 - q) * seeds as f64;
            bound += miss * seeds as f64;
        }
    }
    assert!(expected > 50.0, "too few expected misses: {expected}");
    let tolerance = 4.0 * variance.sqrt();
    let observed = observed as f64;
    assert!(
        (observed - expected).abs() <= tolerance,
        "observed {observed} misses, Lemma VI.4 predicts {expected:.1} ± {tolerance:.1}"
    );
    assert!(
        observed <= bound + tolerance,
        "{observed} misses over the {bound} allowed"
    );
}

#[test]
fn all_solvers_converge_to_exact_on_random_instances() {
    for seed in [3u64, 17, 99] {
        let g = random_graph(seed);
        let exact = mpmb_core::exact_distribution(&g, ExactConfig::default()).unwrap();
        if exact.is_empty() {
            continue;
        }
        let trials = 30_000;
        let mc = solve(&g, Method::McVp, trials, 300, seed);
        let os = solve(&g, Method::Os, trials, 300, seed);
        let ols = solve(&g, Method::Ols, trials, 300, seed);
        let kl = solve(&g, Method::OlsKl, trials, 300, seed);
        for (b, &p) in exact.iter() {
            for (name, est) in [
                ("mcvp", mc.prob(b)),
                ("os", os.prob(b)),
                ("ols", ols.prob(b)),
                ("ols-kl", kl.prob(b)),
            ] {
                assert!(
                    (est - p).abs() < 0.02,
                    "seed {seed} {name} {b}: {est} vs exact {p}"
                );
            }
        }
    }
}

#[test]
fn convergence_tracker_stabilizes_within_band() {
    let g = random_graph(5);
    let exact = mpmb_core::exact_distribution(&g, ExactConfig::default()).unwrap();
    let (target, p_exact) = exact.mpmb().unwrap();
    let trials = 40_000;
    let os = OsTrials::new(
        &g,
        &OsConfig {
            seed: 8,
            ..Default::default()
        },
    );
    let points = convergence_trace(&Executor::new(1), &os, trials, trials / 8, &target);
    // The paper's Fig. 11 criterion: the trace enters and stays in the 2ε
    // band over the second half of the budget.
    let eps = 0.1;
    for &(n, est) in points.iter().filter(|(n, _)| *n >= trials / 2) {
        assert!(
            (est - p_exact).abs() <= 2.0 * eps * p_exact + 0.01,
            "N={n}: {est} outside the 2ε band around {p_exact}"
        );
    }
}

#[test]
fn lemma_vi5_truncation_error_is_bounded() {
    // Build candidate sets that *deliberately* drop butterflies and check
    // the observed over-estimate against the Lemma VI.5 bound.
    for seed in [2u64, 9, 31] {
        let g = random_graph(seed);
        let exact = mpmb_core::exact_distribution(&g, ExactConfig::default()).unwrap();
        let all = mpmb_core::enumerate_backbone_butterflies(&g);
        if all.len() < 3 {
            continue;
        }
        let full = mpmb_core::CandidateSet::from_butterflies(&g, all.clone());
        // Drop every other candidate (keep the heaviest so L(i) indexes
        // stay meaningful).
        let kept: Vec<_> = (0..full.len())
            .filter(|i| *i == 0 || i % 2 == 0)
            .map(|i| full.get(i).butterfly)
            .collect();
        let truncated = mpmb_core::CandidateSet::from_butterflies(&g, kept.clone());
        let est = Executor::new(1)
            .run(
                &OptimizedTrials::new(&g, &truncated, seed),
                60_000,
                &Cancel::never(),
            )
            .acc
            .into_distribution();
        for i in 0..truncated.len() {
            let b = truncated.get(i).butterfly;
            let p_exact = exact.prob(&b);
            // Lemma VI.5: the over-estimate is at most the summed exact
            // probabilities of skipped, strictly heavier butterflies.
            let bound: f64 = (0..full.len())
                .filter(|&j| {
                    full.get(j).weight > truncated.get(i).weight
                        && !kept.contains(&full.get(j).butterfly)
                })
                .map(|j| exact.prob(&full.get(j).butterfly))
                .sum();
            let over = est.prob(&b) - p_exact;
            assert!(
                over <= bound + 0.02,
                "seed {seed} {b}: over-estimate {over} exceeds Lemma VI.5 bound {bound}"
            );
        }
    }
}

//! Paper-scale smoke tests, `#[ignore]`d by default (minutes + GBs).
//!
//! Run with `cargo test --release --test full_scale -- --ignored`.

mod common;

use common::solve;
use datasets::Dataset;
use mpmb::prelude::*;
use mpmb_core::PrepareTrials;

#[test]
#[ignore = "full Table III sizes; run explicitly with --ignored"]
fn abide_full_scale_solves() {
    let g = Dataset::Abide.generate(1.0, 1);
    assert_eq!(g.num_edges(), 3_364);
    let d = solve(&g, Method::Os, 20_000, 0, 1);
    assert!(!d.is_empty());
}

#[test]
#[ignore = "full Table III sizes; run explicitly with --ignored"]
fn movielens_full_scale_solves() {
    let g = Dataset::MovieLens.generate(1.0, 1);
    assert_eq!(g.num_edges(), 100_836);
    assert_eq!(g.num_left(), 610);
    assert_eq!(g.num_right(), 9_724);
    let result = solve(&g, Method::Ols, 20_000, 100, 1);
    assert!(result.mpmb().is_some());
}

#[test]
#[ignore = "full Table III sizes; run explicitly with --ignored"]
fn jester_full_scale_solves() {
    let g = Dataset::Jester.generate(1.0, 1);
    assert!(g.num_edges() > 3_000_000, "|E|={}", g.num_edges());
    assert_eq!(g.num_left(), 100);
    let result = solve(&g, Method::Ols, 20_000, 100, 1);
    assert!(result.mpmb().is_some());
}

#[test]
#[ignore = "full Table III sizes (~1.3 GB); run explicitly with --ignored"]
fn protein_full_scale_generates_and_prepares() {
    let g = Dataset::Protein.generate(1.0, 1);
    assert!(g.num_edges() > 39_000_000, "|E|={}", g.num_edges());
    // Preparing phase only (a full 20k-trial OS run takes many minutes).
    let prep = PrepareTrials::new(&g, 1);
    let candidates = prep.finalize(Executor::new(1).run(&prep, 20, &Cancel::never()).acc);
    assert!(!candidates.is_empty());
}

#[test]
#[ignore = "long-running statistical stress; run explicitly with --ignored"]
fn cross_solver_stress_on_many_random_graphs() {
    use rand::Rng;
    use rand::SeedableRng;
    // 50 random instances, all four estimates vs exact.
    for seed in 0..50u64 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if rng.random::<f64>() < 0.6 {
                    let w = rng.random_range(1..=40) as f64 / 4.0;
                    let p = rng.random_range(1..=9) as f64 / 10.0;
                    b.add_edge(Left(u), Right(v), w, p).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        let Ok(exact) = mpmb_core::exact_distribution(
            &g,
            ExactConfig {
                max_uncertain_edges: 25,
            },
        ) else {
            continue;
        };
        if exact.is_empty() {
            continue;
        }
        let trials = 50_000;
        let os = solve(&g, Method::Os, trials, 300, seed);
        let ols = solve(&g, Method::Ols, trials, 300, seed);
        for (bf, &p) in exact.iter() {
            assert!((os.prob(bf) - p).abs() < 0.015, "seed {seed} os {bf}");
            assert!((ols.prob(bf) - p).abs() < 0.015, "seed {seed} ols {bf}");
        }
    }
}

//! Integration tests of the §III-B hardness reduction against both the
//! exact engine and the sampling solvers.

mod common;

use common::solve;
use mpmb_core::{Monotone2Sat, Reduction};
use mpmb_serve::Method;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Random monotone 2-CNF without clause triangles (sound instances).
fn random_sound_formula(n: u32, m: usize, seed: u64) -> Monotone2Sat {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut clauses: Vec<(u32, u32)> = Vec::new();
    let mut adj = vec![vec![false; n as usize + 1]; n as usize + 1];
    while clauses.len() < m {
        let a = rng.random_range(1..=n);
        let b = rng.random_range(1..=n);
        if a == b {
            clauses.push((a, a));
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        if adj[lo as usize][hi as usize] {
            continue;
        }
        // Reject if adding (lo,hi) would close a clause triangle.
        let triangle = (1..=n).any(|c| {
            c != lo
                && c != hi
                && adj[lo.min(c) as usize][lo.max(c) as usize]
                && adj[hi.min(c) as usize][hi.max(c) as usize]
        });
        if triangle {
            continue;
        }
        adj[lo as usize][hi as usize] = true;
        clauses.push((lo, hi));
    }
    Monotone2Sat::new(n, clauses)
}

#[test]
fn exact_engine_validates_reduction_on_random_sound_instances() {
    for seed in 0..10u64 {
        let f = random_sound_formula(6, 4, seed);
        let r = Reduction::build(f);
        if !r.is_exactly_sound() {
            // Unit clauses can occasionally combine into accidental
            // butterflies; those instances only obey the inequality.
            let p = r.exact_target_prob().unwrap();
            assert!(p <= r.claimed_prob() + 1e-12, "seed {seed}");
            continue;
        }
        let p = r.exact_target_prob().unwrap();
        assert!(
            (p - r.claimed_prob()).abs() < 1e-12,
            "seed {seed}: exact {p} vs claimed {}",
            r.claimed_prob()
        );
    }
}

#[test]
fn sampling_counts_models_through_the_reduction() {
    // The reduction turns model counting into MPMB probability
    // estimation; the OS solver therefore *approximately counts* the
    // models of F. Check the count recovered from the estimate.
    let f = Monotone2Sat::new(5, vec![(1, 2), (2, 3), (4, 5)]);
    let true_count = f.count_satisfying();
    let r = Reduction::build(f);
    assert!(r.is_exactly_sound());
    let d = solve(&r.graph, Method::Os, 60_000, 0, 1234);
    let est_count = d.prob(&r.target) * 2f64.powi(5);
    assert!(
        (est_count - true_count as f64).abs() < 1.0,
        "estimated {est_count} vs true {true_count}"
    );
}

#[test]
fn unsatisfied_clause_forces_clause_butterfly_maximum() {
    // With an unsatisfiable-ish world view: if the formula is the single
    // clause (y1 ∨ y1) and y1 is false (variable edge present), the
    // clause butterfly (weight 4) dominates the target (weight 2).
    let f = Monotone2Sat::new(1, vec![(1, 1)]);
    let r = Reduction::build(f);
    let p = r.exact_target_prob().unwrap();
    // Exactly half the assignments satisfy: P = 1/2.
    assert!((p - 0.5).abs() < 1e-12, "p={p}");
    // And the clause butterfly takes the other half.
    let clause_b = r.clause_butterfly((1, 1));
    let p_clause = mpmb_core::exact_prob(&r.graph, &clause_b, Default::default()).unwrap();
    assert!((p_clause - 0.5).abs() < 1e-12, "clause p={p_clause}");
}

#[test]
fn reduction_scales_to_twenty_variables_for_sampling() {
    // Exact enumeration is already infeasible at n = 20 (2^20 worlds is
    // fine, but the point is the *solver* side stays cheap): OS handles
    // the reduction graph comfortably.
    let clauses: Vec<(u32, u32)> = (1..20).map(|i| (i, i + 1)).collect();
    let f = Monotone2Sat::new(20, clauses);
    let claimed = f.count_satisfying() as f64 / 2f64.powi(20);
    let r = Reduction::build(f);
    assert!(r.is_exactly_sound());
    let d = solve(&r.graph, Method::Os, 30_000, 0, 5);
    let est = d.prob(&r.target);
    assert!(
        (est - claimed).abs() < 0.02,
        "est {est} vs claimed {claimed}"
    );
}

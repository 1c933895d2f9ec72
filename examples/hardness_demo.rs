//! §III-B live: model counting through butterfly search.
//!
//! Lemma III.1 reduces Monotone #2-SAT to computing `P(B)`: the reference
//! butterfly of the constructed network is the maximum-weighted butterfly
//! in exactly the possible worlds whose variable assignments satisfy the
//! formula, so `P(B) = #SAT(F)/2ⁿ`. This demo builds the reduction for a
//! small formula, verifies the equality with the exact engine, and then
//! *approximately counts models* with the Ordering Sampling solver — the
//! #P-hardness argument running in the forward direction.
//!
//! ```text
//! cargo run --release --example hardness_demo
//! ```

use mpmb::prelude::*;
use mpmb_core::{Monotone2Sat, Reduction};

fn main() {
    // F = (y1 ∨ y2) ∧ (y2 ∨ y3) ∧ (y4 ∨ y4) ∧ (y5 ∨ y6) over 6 variables.
    let formula = Monotone2Sat::new(6, vec![(1, 2), (2, 3), (4, 4), (5, 6)]);
    let true_count = formula.count_satisfying();
    println!(
        "formula: {} clauses over {} variables; #SAT = {true_count} / {}",
        formula.clauses().len(),
        formula.num_vars(),
        1u64 << formula.num_vars()
    );

    let reduction = Reduction::build(formula);
    println!(
        "reduction graph: {} (uncertain edges = variables)",
        GraphStats::compute(&reduction.graph)
    );
    println!(
        "reference butterfly {} with weight {} and Pr[E] = {}",
        reduction.target,
        reduction.target.weight(&reduction.graph).unwrap(),
        reduction.target.existence_prob(&reduction.graph).unwrap()
    );
    assert!(
        reduction.is_exactly_sound(),
        "this formula has no clause triangles, so the equality holds"
    );

    // Exact check: P(B) = #SAT / 2^n.
    let exact = reduction.exact_target_prob().unwrap();
    println!(
        "\nexact P(B) = {exact:.6}  (claimed #SAT/2^n = {:.6})",
        reduction.claimed_prob()
    );
    assert!((exact - reduction.claimed_prob()).abs() < 1e-12);

    // Approximate model counting by sampling.
    let trials = 60_000;
    let job = Job::new(Method::Os, trials, 0, 2025);
    let run = advance_local(&reduction.graph, &job, None, 1, &Cancel::never()).unwrap();
    let Outcome::Done(Answer::Distribution(dist)) = run.outcome else {
        unreachable!("an uncancelled os run ranks butterflies")
    };
    let est = dist.prob(&reduction.target);
    let est_count = est * (1u64 << reduction.formula.num_vars()) as f64;
    println!(
        "sampled P(B) ≈ {est:.6} over {trials} trials → estimated #SAT ≈ {est_count:.1} \
         (true {true_count})"
    );
    assert!((est_count - true_count as f64).abs() < 1.5);

    // The flip side: the paper's caveat case. Clause triangles create
    // accidental butterflies and the equality degrades to ≤.
    let triangle = Monotone2Sat::new(3, vec![(1, 2), (1, 3), (2, 3)]);
    let r2 = Reduction::build(triangle);
    let exact2 = r2.exact_target_prob().unwrap();
    println!(
        "\nclause-triangle instance: sound = {}, exact P(B) = {exact2:.4} ≤ claimed {:.4}",
        r2.is_exactly_sound(),
        r2.claimed_prob()
    );
    assert!(!r2.is_exactly_sound());
    assert!(exact2 <= r2.claimed_prob() + 1e-12);
    println!("(see mpmb_core::hardness docs for the analysis of this gap)");
}

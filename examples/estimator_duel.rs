//! §VI head-to-head: the optimized shared-trial estimator (Algorithm 5)
//! vs Karp-Luby (Algorithm 4) on one candidate set — same accuracy
//! target, measured work, and the Eq. 8 ratio that predicts the outcome.
//!
//! ```text
//! cargo run --release --example estimator_duel
//! ```

use datasets::abide::{self, Group};
use mpmb::prelude::*;
use mpmb_core::{bounds, KarpLubyTrials, OptimizedTrials, PrepareTrials};
use std::time::Instant;

fn main() {
    let g = abide::generate(1.0, Group::TypicalControls, 7);
    println!("dataset: {}", GraphStats::compute(&g));

    // Shared preparing phase: 200 OS trials, unioned into C_MB. The duel
    // needs Karp-Luby's Eq. 8 dynamic policy, which the `ols-kl` method
    // does not expose, so it drives the phase engines directly.
    let prep = PrepareTrials::new(
        &g,
        &OlsConfig {
            seed: 3,
            ..Default::default()
        },
    );
    let candidates = prep.finalize(Executor::new(1).run(&prep, 200, &Cancel::never()).acc);
    println!("|C_MB| = {} candidates\n", candidates.len());

    // Eq. 8 prediction per candidate (mu = 0.1, like Fig. 10).
    let mu = 0.1;
    println!("Eq. 8 prediction (mu={mu}):");
    println!(
        "  balanced ratio 1/|C_MB| = {:.4}",
        bounds::balanced_ratio(candidates.len())
    );
    let mut above = 0;
    for i in 0..candidates.len() {
        let c = candidates.get(i);
        let s_i: f64 = (0..candidates.larger_count(i))
            .map(|j| g.edges_existence_prob(&candidates.residual(j, i)))
            .sum();
        let ratio = bounds::kl_over_op_ratio(c.existence_prob, s_i, mu).max(0.0);
        if ratio > bounds::balanced_ratio(candidates.len()) {
            above += 1;
        }
        if i < 8 {
            println!(
                "  cand {i}: w={:7.2} Pr[E]={:.3} S={:.3} -> N_kl/N_op = {ratio:.3}",
                c.weight, c.existence_prob, s_i
            );
        }
    }
    println!(
        "  {above}/{} candidates above the balanced line => optimized should win\n",
        candidates.len()
    );

    // The duel at equal ε–δ accuracy: optimized gets the Theorem IV.1
    // count; Karp-Luby the Eq. 8-derived dynamic counts.
    let n_op = 20_000;
    let t = Instant::now();
    let optimized = OptimizedTrials::new(&g, &candidates, 9);
    let d_opt = Executor::new(1)
        .run(&optimized, n_op, &Cancel::never())
        .acc
        .into_distribution();
    let opt_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let policy = KlTrialPolicy::Dynamic {
        mu,
        base: n_op,
        min: 1_000,
        cap: 200_000,
    };
    let kl = KarpLubyTrials::new(&g, &candidates, policy, 9);
    let report = kl.finalize(Executor::new(1).run(&kl, kl.trials(), &Cancel::never()).acc);
    let kl_secs = t.elapsed().as_secs_f64();

    println!("optimized (Alg. 5): {n_op} shared trials in {opt_secs:.3}s");
    println!(
        "karp-luby (Alg. 4): {} total trials in {kl_secs:.3}s  ({:.1}x slower)",
        report.total_trials(),
        kl_secs / opt_secs.max(1e-9)
    );

    // Agreement check: the two estimates coincide within MC noise.
    let max_diff = d_opt.max_abs_diff(&report.distribution);
    println!("max |P_opt − P_kl| over candidates = {max_diff:.4}");
    assert!(max_diff < 0.05, "estimators disagree beyond tolerance");

    let (b_opt, p_opt) = d_opt.mpmb().unwrap();
    println!("\nagreed MPMB: {b_opt} with P ≈ {p_opt:.4}");
}

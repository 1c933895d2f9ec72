//! §VII: top-k MPMB search on the MovieLens stand-in, plus a convergence
//! trace showing the Theorem IV.1 trial bound at work.
//!
//! ```text
//! cargo run --release --example topk_analysis
//! ```

use datasets::Dataset;
use mpmb::prelude::*;
use mpmb_core::convergence_trace;

fn main() {
    let g = Dataset::MovieLens.generate(0.1, 99);
    println!("dataset: {}", GraphStats::compute(&g));

    // One OLS run (200 preparing trials, 20,000 sampling trials) ranks
    // its whole candidate set.
    let job = Job::new(Method::Ols, 20_000, 200, 5);
    let run = advance_local(&g, &job, None, 1, &Cancel::never()).unwrap();
    let Outcome::Done(Answer::Distribution(result)) = run.outcome else {
        unreachable!("an uncancelled ols run ranks butterflies")
    };

    println!(
        "\n{} candidates with a nonzero estimate, top-10 MPMBs:",
        result.len()
    );
    for (i, (butterfly, p)) in result.top_k(10).iter().enumerate() {
        println!(
            "  #{:<2} {butterfly}  w={:5.1}  Pr[E]={:.4}  P≈{p:.4}",
            i + 1,
            butterfly.weight(&g).unwrap(),
            butterfly.existence_prob(&g).unwrap(),
        );
    }

    // Convergence of the top butterfly's estimate under OS, against the
    // Theorem IV.1 bound for its probability level.
    let (target, p_ref) = result.mpmb().expect("nonempty");
    let eps = 0.1;
    let delta = 0.1;
    let bound = mpmb_core::bounds::mc_trial_lower_bound(p_ref.max(1e-3), eps, delta);
    println!("\ntracking {target} (P≈{p_ref:.4}); Theorem IV.1 bound for ε=δ=0.1: N ≥ {bound:.0}");

    let trials = (bound as u64).clamp(2_000, 200_000);
    let os = OsTrials::new(
        &g,
        &OsConfig {
            seed: 17,
            ..Default::default()
        },
    );
    let points = convergence_trace(&Executor::new(1), &os, trials, trials / 10, &target);
    for &(n, est) in &points {
        let bar_len = (est / p_ref.max(1e-9) * 30.0).min(60.0) as usize;
        println!("  N={n:>7}  P̂={est:.4}  {}", "#".repeat(bar_len));
    }
    let (n, final_est) = points.last().copied().unwrap_or((0, 0.0));
    println!(
        "final relative error at N={n} : {:.1}% (ε target was {:.0}%)",
        (final_est - p_ref).abs() / p_ref.max(1e-9) * 100.0,
        eps * 100.0
    );
}

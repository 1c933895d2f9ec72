//! Use case 2 (§I, Fig. 3): top-10 MPMBs on the ABIDE brain-network
//! stand-in, contrasting Typical Controls (TC) with the Autism Spectrum
//! Disorder (ASD) cohort.
//!
//! The paper's observation: TC brains keep strong long-range
//! (hemisphere-crossing) connections, so their top MPMBs span *far* ROI
//! pairs and carry roughly twice the activation intensity of the ASD
//! group's. We reproduce both effects on the synthetic cohort pair.
//!
//! ```text
//! cargo run --release --example brain_network
//! ```

use datasets::abide::{self, Group};
use mpmb::prelude::*;

/// Runs top-10 MPMB on one cohort and returns (mean weight, mean P).
fn analyze(group: Group, label: &str) -> (f64, f64) {
    let g = abide::generate(1.0, group, 2026);
    // OLS: 300 preparing trials, then 30,000 shared sampling trials.
    let job = Job::new(Method::Ols, 30_000, 300, 11);
    let run = advance_local(&g, &job, None, 1, &Cancel::never()).unwrap();
    let Outcome::Done(Answer::Distribution(result)) = run.outcome else {
        unreachable!("an uncancelled ols run ranks butterflies")
    };

    let top = result.top_k(10);
    println!("top-10 MPMBs, {label}:");
    let mut w_sum = 0.0;
    let mut p_sum = 0.0;
    for (i, (butterfly, p)) in top.iter().enumerate() {
        let w = butterfly.weight(&g).unwrap();
        w_sum += w;
        p_sum += p;
        let (u1, u2, v1, v2) = butterfly.vertices();
        println!(
            "  #{:<2} ROIs L{{{},{}}} × R{{{},{}}}  total distance {w:7.2}  P≈{p:.4}",
            i + 1,
            u1.index(),
            u2.index(),
            v1.index(),
            v2.index()
        );
    }
    (w_sum / top.len() as f64, p_sum / top.len() as f64)
}

fn main() {
    let (tc_w, tc_p) = analyze(Group::TypicalControls, "Typical Controls (TC)");
    println!();
    let (asd_w, asd_p) = analyze(Group::Asd, "Autism Spectrum Disorder (ASD)");

    println!("\ncohort contrast:");
    println!("  mean top-10 butterfly distance: TC {tc_w:.1} vs ASD {asd_w:.1}");
    println!("  mean top-10 probability:        TC {tc_p:.4} vs ASD {asd_p:.4}");
    println!(
        "  activation (P-weighted span):   TC/ASD ratio = {:.2}",
        (tc_w * tc_p) / (asd_w * asd_p)
    );
    // The §I claim: intensity "on average twice as high in TC compared to
    // ASD, since patients generally have weak connections between long
    // regions".
    assert!(
        tc_w * tc_p > asd_w * asd_p,
        "TC cohort should dominate long-range activation"
    );
}

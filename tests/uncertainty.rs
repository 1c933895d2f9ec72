//! Integration of the uncertainty-quantification extensions on dataset
//! stand-ins: the adaptive stopping rule against a high-trial reference,
//! and the butterfly-count distribution against its closed-form mean.

mod common;

use common::{run, solve};
use datasets::Dataset;
use mpmb::prelude::*;
use mpmb_core::{bounds, run_os_adaptive, AdaptiveConfig};

fn graph() -> UncertainBipartiteGraph {
    Dataset::Abide.generate(0.2, 77)
}

#[test]
fn adaptive_run_passes_the_self_check() {
    let g = graph();
    let result = run_os_adaptive(
        &g,
        &AdaptiveConfig {
            epsilon: 0.15,
            delta: 0.15,
            batch: 2_000,
            max_trials: 400_000,
            seed: 3,
            ..Default::default()
        },
    );
    assert!(result.bound_satisfied, "cap hit at {}", result.trials_used);
    // Exact enumeration is infeasible here (complete ~26×26 graph), so
    // the check runs against a high-trial OS reference.
    let reference = solve(&g, Method::Os, 200_000, 0, 0xACC0_7E57);
    let err = result.distribution.max_abs_diff(&reference);
    assert!(err < 0.03, "err {err}");
    // Theorem IV.1: the run used at least the trials its own MPMB
    // estimate calls for at ε = δ = 0.15.
    let (_, p) = result.distribution.mpmb().expect("butterflies exist");
    let needed = bounds::mc_trial_lower_bound(p, 0.15, 0.15);
    assert!(
        result.trials_used as f64 >= needed,
        "{} trials < Theorem IV.1's {needed} at P = {p}",
        result.trials_used
    );
}

#[test]
fn count_distribution_consistent_with_expected_count() {
    let g = Dataset::MovieLens.generate(0.02, 5);
    let expect = bigraph::expected::expected_butterfly_count(&g);
    let Answer::Count(d) = run(&g, &Job::new(Method::Count, 2_000, 0, 5), 1) else {
        panic!("count answers with a count distribution")
    };
    // Wide tolerance: counts are heavy-tailed; 2k trials suffice for ±6σ/√n.
    let se = (d.variance / 2_000.0).sqrt().max(1e-9);
    assert!(
        (d.mean - expect).abs() < 8.0 * se + 0.05 * expect,
        "mean {} vs expected {expect} (se {se})",
        d.mean
    );
}

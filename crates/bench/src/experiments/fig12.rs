//! Fig. 12: sensitivity to the preparing-phase trial count — `P(B)` of
//! the tracked butterfly when `N_os` sweeps up to twice the default 100,
//! each point an **independent** run (§VIII-D: "each experiment is
//! conducted independently so the trend is not convergent but fluctuant").
//!
//! Early points miss the butterfly entirely (`P = 0`, not yet in the
//! candidate set) or over-estimate (tiny candidate set ⇒ fewer heavier
//! rivals accounted); past ~50% the estimates settle into the `2ε` band.

use crate::experiments::fig11::pick_target;
use crate::experiments::{solve_distribution, ExpOptions};
use crate::report::Table;
use crate::BenchDataset;
use mpmb_serve::{Job, Method};

/// Preparing-trial fractions of the default on the x-axis (up to 200%).
pub const FRACTIONS: [f64; 8] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0];

/// Renders the preparing-phase sweep.
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions) -> Table {
    let mut headers: Vec<String> = vec!["dataset".into()];
    headers.extend(FRACTIONS.iter().map(|f| format!("{:.0}%", f * 100.0)));
    headers.push("reference".into());
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 12: P(B) vs preparing-phase trials (independent runs)",
        &headers_ref,
    );
    for d in datasets {
        let g = &d.graph;
        let Some((target, reference)) = pick_target(g, opts) else {
            continue;
        };
        let mut row = vec![d.dataset.name().to_string()];
        for (k, f) in FRACTIONS.iter().enumerate() {
            let prep = ((opts.plan.prep_trials as f64 * f).round() as u64).max(1);
            // Independent runs: vary the seed per point.
            let seed = opts.seed.wrapping_add(1 + k as u64);
            let job = Job::new(Method::Ols, opts.plan.sampling_trials, prep, seed);
            let d = solve_distribution(g, &job);
            row.push(format!("{:.4}", d.prob(&target)));
        }
        row.push(format!("{reference:.4}"));
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::tiny_datasets;
    use crate::TrialPlan;

    #[test]
    fn one_row_per_dataset_with_reference() {
        let ds = tiny_datasets();
        let opts = ExpOptions {
            seed: 5,
            plan: TrialPlan::scaled(0.05),
            budget: std::time::Duration::from_secs(10),
        };
        let t = run(&ds[..1], &opts);
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("reference"));
    }
}

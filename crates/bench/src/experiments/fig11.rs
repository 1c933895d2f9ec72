//! Fig. 11: convergence of the estimated `P(B)` for a tracked butterfly
//! as sampling-phase trials grow to **twice** the theoretical budget,
//! with the `2ε` error band (§VIII-D).
//!
//! The paper tracks a butterfly with `P(B) ≈ 0.05`; we pick the candidate
//! whose high-trial estimate is closest to 0.05.

use crate::experiments::{karp_luby, ols_candidates, optimized, ExpOptions};
use crate::report::Table;
use crate::BenchDataset;
use mpmb_core::{
    convergence_trace, Butterfly, Executor, KlTrialPolicy, OptimizedTrials, OsConfig, OsTrials,
};

/// Trial fractions of the sampling budget on the x-axis (up to 200%).
pub const FRACTIONS: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0];

/// The relative-error half-width `ε` of the band.
pub const EPSILON: f64 = 0.1;

/// Picks the tracked butterfly: the OLS candidate whose reference
/// estimate is closest to the paper's `P ≈ 0.05`, with its estimate.
pub fn pick_target(
    g: &bigraph::UncertainBipartiteGraph,
    opts: &ExpOptions,
) -> Option<(Butterfly, f64)> {
    let candidates = ols_candidates(g, opts.plan.prep_trials, opts.seed);
    if candidates.is_empty() {
        return None;
    }
    let trials = opts.plan.sampling_trials.max(1_000);
    let reference = optimized(g, &candidates, trials, opts.seed);
    reference
        .iter()
        .filter(|(_, &p)| p > 0.0)
        .min_by(|(_, &a), (_, &b)| (a - 0.05).abs().total_cmp(&(b - 0.05).abs()))
        .map(|(&b, &p)| (b, p))
}

/// Renders convergence traces for OS, OLS, and OLS-KL.
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions) -> Table {
    let mut headers: Vec<String> = vec!["dataset".into(), "method".into()];
    headers.extend(FRACTIONS.iter().map(|f| format!("{:.0}%", f * 100.0)));
    headers.push("band".into());
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig. 11: P(B) convergence over sampling-phase trials (2x budget)",
        &headers_ref,
    );

    for d in datasets {
        let g = &d.graph;
        let Some((target, reference)) = pick_target(g, opts) else {
            continue;
        };
        let n = opts.plan.sampling_trials.max(8);
        let total = n * 2;
        let every = (total / FRACTIONS.len() as u64).max(1);
        let band = format!(
            "[{:.4},{:.4}]",
            reference * (1.0 - 2.0 * EPSILON),
            reference * (1.0 + 2.0 * EPSILON)
        );
        let trace_cells = |points: &[(u64, f64)]| -> Vec<String> {
            FRACTIONS
                .iter()
                .map(|f| {
                    // Fraction f of the theoretical budget n (x-axis).
                    let want = ((n as f64 * f).round() as u64).clamp(1, total);
                    points
                        .iter()
                        .min_by_key(|(tr, _)| tr.abs_diff(want))
                        .map(|(_, p)| format!("{p:.4}"))
                        .unwrap_or_else(|| "-".into())
                })
                .collect()
        };

        // OS trace.
        let os = OsTrials::new(
            g,
            &OsConfig {
                seed: opts.seed,
                ..Default::default()
            },
        );
        let points = convergence_trace(&Executor::new(1), &os, total, every, &target);
        let mut row = vec![d.dataset.name().to_string(), "OS".into()];
        row.extend(trace_cells(&points));
        row.push(band.clone());
        t.row(&row);

        // OLS (optimized) trace over a shared candidate set.
        let candidates = ols_candidates(g, opts.plan.prep_trials, opts.seed);
        let ols = OptimizedTrials::new(g, &candidates, opts.seed);
        let points = convergence_trace(&Executor::new(1), &ols, total, every, &target);
        let mut row = vec![d.dataset.name().to_string(), "OLS".into()];
        row.extend(trace_cells(&points));
        row.push(band.clone());
        t.row(&row);

        // OLS-KL: independent runs at each checkpoint (the estimator has
        // no shared-trial structure to observe).
        let mut row = vec![d.dataset.name().to_string(), "OLS-KL".into()];
        for f in FRACTIONS {
            let trials = ((n as f64 * f).round() as u64).max(1);
            let report = karp_luby(g, &candidates, KlTrialPolicy::Fixed(trials), opts.seed);
            row.push(format!("{:.4}", report.distribution.prob(&target)));
        }
        row.push(band);
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::dense_dataset;
    use crate::TrialPlan;

    fn options() -> ExpOptions {
        ExpOptions {
            seed: 11,
            plan: TrialPlan::scaled(0.05), // 1,000 sampling trials
            budget: std::time::Duration::from_secs(10),
        }
    }

    #[test]
    fn picks_a_positive_target() {
        let d = dense_dataset();
        let (b, p) = pick_target(&d.graph, &options()).expect("dense graph has butterflies");
        assert!(p > 0.0, "{b} has zero estimate");
    }

    #[test]
    fn traces_converge_into_band_at_full_budget() {
        let ds = [dense_dataset()];
        let t = run(&ds, &options());
        assert_eq!(t.len(), 3, "OS, OLS, OLS-KL rows");
        assert!(t.render().contains("band"));
    }
}

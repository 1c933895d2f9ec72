//! Fig. 10: the per-candidate trial-number ratio `N_kl/N_op` (Eq. 8 with
//! `μ = 0.1`) against the break-even line `1/|C_MB|` (Eq. 9).
//!
//! Bars above the red line mean the optimized estimator needs *less* work
//! than Karp-Luby for that candidate at equal accuracy.

use crate::experiments::ols_candidates;
use crate::experiments::ExpOptions;
use crate::report::Table;
use crate::BenchDataset;
use mpmb_core::bounds::{balanced_ratio, kl_over_op_ratio};
use mpmb_core::CandidateSet;

/// The `μ` the paper uses for this figure.
pub const MU: f64 = 0.1;

/// Per-candidate ratio data for one dataset.
pub struct Fig10Data {
    /// `(weight, Pr[E(B)], S_i, ratio)` per candidate in weight order.
    pub rows: Vec<(f64, f64, f64, f64)>,
    /// The Eq. 9 break-even value `1/|C_MB|`.
    pub balanced: f64,
}

/// Computes ratios over the OLS candidate set of `g`.
pub fn compute(
    g: &bigraph::UncertainBipartiteGraph,
    prep_trials: u64,
    seed: u64,
) -> Option<Fig10Data> {
    let candidates = ols_candidates(g, prep_trials, seed);
    if candidates.is_empty() {
        return None;
    }
    let rows = (0..candidates.len())
        .map(|i| {
            let c = candidates.get(i);
            let s_i = s_value(&candidates, i, g);
            (
                c.weight,
                c.existence_prob,
                s_i,
                kl_over_op_ratio(c.existence_prob, s_i, MU).max(0.0),
            )
        })
        .collect();
    Some(Fig10Data {
        rows,
        balanced: balanced_ratio(candidates.len()),
    })
}

/// `S_i = Σ_{j≤L(i)} Pr[E(B_j ∖ B_i)]` — the Algorithm 4 line 4 quantity.
fn s_value(candidates: &CandidateSet, i: usize, g: &bigraph::UncertainBipartiteGraph) -> f64 {
    (0..candidates.larger_count(i))
        .map(|j| g.edges_existence_prob(&candidates.residual(j, i)))
        .sum()
}

/// Renders the figure (capped at `max_bars` candidates per dataset to
/// keep terminal output readable).
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions, max_bars: usize) -> Table {
    let mut t = Table::new(
        "Fig. 10: per-candidate trial ratio N_kl/N_op (mu=0.1) vs 1/|C_MB|",
        &[
            "dataset",
            "cand#",
            "weight",
            "Pr[E(B)]",
            "S_i",
            "ratio",
            "1/|C_MB|",
            "OLS wins?",
        ],
    );
    for d in datasets {
        let Some(data) = compute(&d.graph, opts.plan.prep_trials, opts.seed) else {
            continue;
        };
        for (i, &(w, pe, s, ratio)) in data.rows.iter().take(max_bars).enumerate() {
            t.row(&[
                d.dataset.name().to_string(),
                i.to_string(),
                format!("{w:.2}"),
                format!("{pe:.4}"),
                format!("{s:.4}"),
                format!("{ratio:.4}"),
                format!("{:.4}", data.balanced),
                if ratio > data.balanced { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::{dense_dataset, fast_options};

    #[test]
    fn heaviest_candidate_has_zero_s_and_ratio() {
        let d = dense_dataset();
        let data = compute(&d.graph, 50, 3).expect("dense graph has butterflies");
        assert_eq!(data.rows[0].2, 0.0, "S_0 must be 0");
        assert_eq!(data.rows[0].3, 0.0);
        assert!(data.balanced > 0.0);
    }

    #[test]
    fn table_renders_win_column() {
        let ds = [dense_dataset()];
        let mut opts = fast_options();
        opts.plan = crate::TrialPlan::scaled(0.5);
        let t = run(&ds, &opts, 10);
        assert!(!t.is_empty());
        assert!(t.render().contains("OLS wins?"));
    }
}

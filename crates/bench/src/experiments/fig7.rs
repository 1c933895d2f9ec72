//! Fig. 7: overall executing time of MC-VP, OS, OLS-KL, and OLS on the
//! four datasets — the headline efficiency comparison (§VIII-C).
//!
//! MC-VP runs under the wall-clock budget (the paper's 4-hour timeout,
//! scaled); when truncated its total is extrapolated from per-trial cost,
//! which is exactly how the paper reports "could not finish".

use crate::experiments::{mcvp_budgeted, ols_kl_dynamic, os_budgeted, solve, ExpOptions};
use crate::report::{fmt_speedup, Table};
use crate::timing::time_it;
use crate::BenchDataset;
use mpmb_serve::{Job, Method};

/// Measured times for one dataset.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Row {
    /// MC-VP total seconds (possibly extrapolated).
    pub mcvp_secs: f64,
    /// Whether MC-VP hit the budget.
    pub mcvp_timed_out: bool,
    /// OS total seconds.
    pub os_secs: f64,
    /// OLS-KL total seconds (prep + sampling).
    pub ols_kl_secs: f64,
    /// OLS total seconds (prep + sampling).
    pub ols_secs: f64,
}

/// Runs the comparison on one dataset.
pub fn measure(d: &BenchDataset, opts: &ExpOptions) -> Fig7Row {
    let g = &d.graph;
    let (mc_t, _) = mcvp_budgeted(g, opts.plan.direct_trials, opts.seed, opts.budget);
    let (os_t, _) = os_budgeted(g, opts.plan.direct_trials, opts.seed, opts.budget);

    let (_, ols_kl_secs) = time_it(|| ols_kl_dynamic(g, &opts.plan, opts.seed));
    let plan = &opts.plan;
    let ols = Job::new(
        Method::Ols,
        plan.sampling_trials,
        plan.prep_trials,
        opts.seed,
    );
    let (_, ols_secs) = time_it(|| solve(g, &ols));

    Fig7Row {
        mcvp_secs: mc_t.estimated_total.as_secs_f64(),
        mcvp_timed_out: !mc_t.finished(),
        os_secs: os_t.estimated_total.as_secs_f64(),
        ols_kl_secs,
        ols_secs,
    }
}

/// Renders the figure as a table with speedup columns.
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 7: overall executing time (seconds)",
        &[
            "dataset",
            "MC-VP",
            "OS",
            "OLS-KL",
            "OLS",
            "OS vs MC-VP",
            "OLS vs OS",
            "OLS vs OLS-KL",
        ],
    );
    for d in datasets {
        let r = measure(d, opts);
        t.row(&[
            d.dataset.name().to_string(),
            if r.mcvp_timed_out {
                format!("~{:.1} (timeout extrapolated)", r.mcvp_secs)
            } else {
                format!("{:.3}", r.mcvp_secs)
            },
            format!("{:.3}", r.os_secs),
            format!("{:.3}", r.ols_kl_secs),
            format!("{:.3}", r.ols_secs),
            fmt_speedup(r.mcvp_secs / r.os_secs.max(1e-9)),
            fmt_speedup(r.os_secs / r.ols_secs.max(1e-9)),
            fmt_speedup(r.ols_kl_secs / r.ols_secs.max(1e-9)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::{fast_options, tiny_datasets};

    #[test]
    fn produces_positive_times_for_all_methods() {
        let ds = tiny_datasets();
        let opts = fast_options();
        let r = measure(&ds[0], &opts);
        assert!(r.mcvp_secs > 0.0);
        assert!(r.os_secs > 0.0);
        assert!(r.ols_kl_secs > 0.0);
        assert!(r.ols_secs > 0.0);
    }

    #[test]
    fn table_has_one_row_per_dataset() {
        let ds = tiny_datasets();
        let t = run(&ds[..2], &fast_options());
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("OLS vs OS"));
    }
}

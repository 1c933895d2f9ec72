//! Fig. 8: executing time split by phase, with the sampling-phase trial
//! count varied over 0% (preparing only), 25%, 50%, 75%, 100%.

use crate::experiments::{karp_luby, ols_candidates, optimized, os_budgeted, ExpOptions};
use crate::report::Table;
use crate::timing::time_it;
use crate::BenchDataset;
use mpmb_core::KlTrialPolicy;

/// The sampling-phase fractions on the x-axis.
pub const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Renders the phase-split timing table.
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 8: executing time by sampling-phase trial fraction (seconds)",
        &[
            "dataset",
            "method",
            "N=0% (prep)",
            "25%",
            "50%",
            "75%",
            "100%",
        ],
    );
    for d in datasets {
        let g = &d.graph;

        // OS has no preparing phase: report cumulative time at fractions.
        let mut os_cells = vec![d.dataset.name().to_string(), "OS".into(), "-".into()];
        for f in FRACTIONS {
            let trials = ((opts.plan.direct_trials as f64 * f).round() as u64).max(1);
            let (bt, _) = os_budgeted(g, trials, opts.seed, opts.budget);
            os_cells.push(format!("{:.3}", bt.estimated_total.as_secs_f64()));
        }
        t.row(&os_cells);

        // Shared preparing phase for both OLS variants.
        let (candidates, prep_secs) =
            time_it(|| ols_candidates(g, opts.plan.prep_trials, opts.seed));

        let mut kl_cells = vec![
            d.dataset.name().to_string(),
            "OLS-KL".into(),
            format!("{prep_secs:.3}"),
        ];
        let mut opt_cells = vec![
            d.dataset.name().to_string(),
            "OLS".into(),
            format!("{prep_secs:.3}"),
        ];
        for f in FRACTIONS {
            let trials = ((opts.plan.sampling_trials as f64 * f).round() as u64).max(1);
            let (_, kl_secs) =
                time_it(|| karp_luby(g, &candidates, KlTrialPolicy::Fixed(trials), opts.seed));
            kl_cells.push(format!("{:.3}", prep_secs + kl_secs));
            let (_, opt_secs) = time_it(|| optimized(g, &candidates, trials, opts.seed));
            opt_cells.push(format!("{:.3}", prep_secs + opt_secs));
        }
        t.row(&kl_cells);
        t.row(&opt_cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::{fast_options, tiny_datasets};

    #[test]
    fn three_methods_per_dataset() {
        let ds = tiny_datasets();
        let t = run(&ds[..1], &fast_options());
        assert_eq!(t.len(), 3);
        let text = t.render();
        assert!(text.contains("OLS-KL"));
        assert!(text.contains("N=0%"));
    }
}

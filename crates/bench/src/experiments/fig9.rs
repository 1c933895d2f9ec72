//! Fig. 9: scalability — executing time on vertex-induced subsamples of
//! 25%, 50%, 75%, 100% of each dataset.

use crate::experiments::{ols_kl_dynamic, os_budgeted, solve, ExpOptions};
use crate::report::Table;
use crate::timing::time_it;
use crate::BenchDataset;
use datasets::scale::induced_vertex_sample;
use mpmb_serve::{Job, Method};

/// The vertex fractions on the x-axis.
pub const FRACTIONS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Renders the scalability table.
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 9: executing time vs dataset scale (seconds)",
        &["dataset", "method", "25%", "50%", "75%", "100%"],
    );
    for d in datasets {
        let subgraphs: Vec<_> = FRACTIONS
            .iter()
            .map(|&f| induced_vertex_sample(&d.graph, f, opts.seed))
            .collect();

        let mut os_cells = vec![d.dataset.name().to_string(), "OS".into()];
        let mut kl_cells = vec![d.dataset.name().to_string(), "OLS-KL".into()];
        let mut opt_cells = vec![d.dataset.name().to_string(), "OLS".into()];
        for g in &subgraphs {
            let (bt, _) = os_budgeted(g, opts.plan.direct_trials, opts.seed, opts.budget);
            os_cells.push(format!("{:.3}", bt.estimated_total.as_secs_f64()));

            let (_, kl_secs) = time_it(|| ols_kl_dynamic(g, &opts.plan, opts.seed));
            kl_cells.push(format!("{kl_secs:.3}"));
            let plan = &opts.plan;
            let ols = Job::new(
                Method::Ols,
                plan.sampling_trials,
                plan.prep_trials,
                opts.seed,
            );
            let (_, opt_secs) = time_it(|| solve(g, &ols));
            opt_cells.push(format!("{opt_secs:.3}"));
        }
        t.row(&os_cells);
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
    fn three_methods_four_fractions() {
        let ds = tiny_datasets();
        let t = run(&ds[..1], &fast_options());
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("25%"));
    }
}

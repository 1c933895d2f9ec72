//! Ablation study (beyond the paper): how much each Ordering Sampling
//! design choice contributes.
//!
//! Dimensions:
//! * §V-B edge-ordering pruning — off / paper's static `w̄` / this
//!   library's dynamic `w̄`;
//! * middle-side selection — the Lemma V.1 cost-proxy choice vs forcing
//!   each side.
//!
//! All variants produce identical distributions (verified in tests); the
//! table reports wall-clock only.

use crate::experiments::ExpOptions;
use crate::report::Table;
use crate::timing::budgeted;
use crate::BenchDataset;
use bigraph::Side;
use mpmb_core::{OsConfig, OsTrials};

/// The ablation variants, in presentation order.
pub fn variants() -> Vec<(&'static str, OsConfig)> {
    let base = OsConfig::default();
    vec![
        (
            "no edge ordering",
            OsConfig {
                edge_ordering: false,
                dynamic_wbar: false,
                ..base
            },
        ),
        (
            "paper w-bar",
            OsConfig {
                edge_ordering: true,
                dynamic_wbar: false,
                ..base
            },
        ),
        (
            "dynamic w-bar",
            OsConfig {
                edge_ordering: true,
                dynamic_wbar: true,
                ..base
            },
        ),
        (
            "forced left middles",
            OsConfig {
                middle_side: Some(Side::Left),
                ..base
            },
        ),
        (
            "forced right middles",
            OsConfig {
                middle_side: Some(Side::Right),
                ..base
            },
        ),
    ]
}

/// Renders the ablation table.
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Ablation: OS design choices (seconds; * = extrapolated past budget)",
        &[
            "dataset",
            "no edge ordering",
            "paper w-bar",
            "dynamic w-bar",
            "left middles",
            "right middles",
        ],
    );
    for d in datasets {
        let mut row = vec![d.dataset.name().to_string()];
        let trials = opts.plan.direct_trials;
        for (_, cfg) in variants() {
            let cfg = OsConfig {
                seed: opts.seed,
                ..cfg
            };
            let (bt, _) = budgeted(&OsTrials::new(&d.graph, &cfg), trials, opts.budget);
            let secs = bt.estimated_total.as_secs_f64();
            row.push(format!("{secs:.3}{}", if bt.finished() { "" } else { "*" }));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::{dense_dataset, fast_options};
    use mpmb_core::{Cancel, Executor};

    #[test]
    fn all_variants_produce_identical_distributions() {
        let d = dense_dataset();
        let mut reference = None;
        for (name, cfg) in variants() {
            let os = OsTrials::new(&d.graph, &OsConfig { seed: 77, ..cfg });
            let dist = Executor::new(1)
                .run(&os, 500, &Cancel::never())
                .acc
                .into_distribution();
            match &reference {
                None => reference = Some(dist),
                Some(r) => assert_eq!(r.max_abs_diff(&dist), 0.0, "variant `{name}` diverged"),
            }
        }
    }

    #[test]
    fn table_has_all_variant_columns() {
        let ds = [dense_dataset()];
        let t = run(&ds, &fast_options());
        assert_eq!(t.len(), 1);
        let text = t.render();
        assert!(text.contains("dynamic w-bar"));
        assert!(text.contains("no edge ordering"));
    }
}

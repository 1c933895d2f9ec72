//! One module per table/figure of the paper's evaluation (§VIII).
//!
//! Each experiment is a function from datasets + options to [`Table`]s,
//! so the `repro` binary only parses flags and prints, and the logic is
//! unit-testable on tiny inputs.

pub mod ablation;
pub mod adaptive;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table3;
pub mod table4;

use crate::timing::{budgeted, BudgetedTime};
use crate::TrialPlan;
use bigraph::UncertainBipartiteGraph;
use mpmb_core::{Distribution, McVpConfig, McVpTrials, OsConfig, OsTrials};
use std::time::Duration;

/// Shared experiment options.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Base RNG seed for all solvers.
    pub seed: u64,
    /// Trial counts (Table IV, possibly scaled down).
    pub plan: TrialPlan,
    /// Wall-clock budget per (method, dataset) — the stand-in for the
    /// paper's 4-hour timeout; MC-VP routinely hits it.
    pub budget: Duration,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 42,
            plan: TrialPlan::default(),
            budget: Duration::from_secs(30),
        }
    }
}

/// Runs MC-VP under a wall-clock budget, on the engine `mcvp` requests
/// run; returns timing and the distribution over completed trials.
pub fn mcvp_budgeted(
    g: &UncertainBipartiteGraph,
    trials: u64,
    seed: u64,
    budget: Duration,
) -> (BudgetedTime, Distribution) {
    let engine = McVpTrials::new(g, &McVpConfig { trials, seed });
    let (timing, partial) = budgeted(&engine, trials, budget);
    (timing, partial.acc.into_distribution())
}

/// Runs Ordering Sampling under a wall-clock budget, on the engine `os`
/// requests run.
pub fn os_budgeted(
    g: &UncertainBipartiteGraph,
    trials: u64,
    seed: u64,
    budget: Duration,
) -> (BudgetedTime, Distribution) {
    let cfg = OsConfig {
        trials,
        seed,
        ..Default::default()
    };
    let (timing, partial) = budgeted(&OsTrials::new(g, &cfg), trials, budget);
    (timing, partial.acc.into_distribution())
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::BenchDataset;
    use datasets::Dataset;

    /// Tiny instantiations of all four datasets for experiment tests.
    pub fn tiny_datasets() -> Vec<BenchDataset> {
        Dataset::all()
            .into_iter()
            .map(|dataset| BenchDataset {
                dataset,
                graph: dataset.generate(0.01, 3),
                scale: 0.01,
            })
            .collect()
    }

    /// A fast options profile for tests.
    pub fn fast_options() -> super::ExpOptions {
        super::ExpOptions {
            seed: 7,
            plan: crate::TrialPlan::scaled(0.01),
            budget: std::time::Duration::from_secs(5),
        }
    }

    /// A dense, high-probability graph where every preparing phase finds
    /// butterflies within a few trials — for tests that need a non-empty
    /// candidate set regardless of trial budget.
    pub fn dense_dataset() -> BenchDataset {
        use bigraph::{GraphBuilder, Left, Right};
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                // Varied weights, comfortably high probabilities.
                b.add_edge(Left(u), Right(v), ((u * 5 + v) % 7 + 1) as f64, 0.7)
                    .unwrap();
            }
        }
        BenchDataset {
            dataset: Dataset::Abide,
            graph: b.build().unwrap(),
            scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::*;

    #[test]
    fn budgeted_runners_agree_with_solvers_when_unconstrained() {
        let ds = tiny_datasets();
        let g = &ds[0].graph; // ABIDE tiny
        let (t1, d1) = mcvp_budgeted(g, 50, 9, Duration::from_secs(60));
        assert!(t1.finished());
        let d_ref = mpmb_core::McVp::new(mpmb_core::McVpConfig {
            trials: 50,
            seed: 9,
        })
        .run(g);
        assert_eq!(d1.max_abs_diff(&d_ref), 0.0);

        let (t2, d2) = os_budgeted(g, 50, 9, Duration::from_secs(60));
        assert!(t2.finished());
        let d_ref = mpmb_core::OrderingSampling::new(OsConfig {
            trials: 50,
            seed: 9,
            ..Default::default()
        })
        .run(g);
        assert_eq!(d2.max_abs_diff(&d_ref), 0.0);
    }
}

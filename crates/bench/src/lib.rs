//! Experiment harness shared by the `repro` and `solver_bench` binaries:
//! dataset preparation at laptop or paper scale, budgeted timing (the
//! stand-in for the paper's 4-hour timeout), and table formatting.

pub mod baseline;
pub mod experiments;
pub mod loadpath;
pub mod report;
pub mod timing;

use bigraph::UncertainBipartiteGraph;
use datasets::Dataset;

/// A dataset instantiated for benchmarking.
pub struct BenchDataset {
    /// Which paper dataset this stands in for.
    pub dataset: Dataset,
    /// The generated graph.
    pub graph: UncertainBipartiteGraph,
    /// The generation scale used.
    pub scale: f64,
}

/// Default laptop-scale generation factors. Chosen so the heaviest
/// experiment (Fig. 7's OS runs) completes in minutes, while preserving
/// each dataset's characteristic shape (density, asymmetry, ties).
pub fn default_scale(d: Dataset) -> f64 {
    match d {
        Dataset::Abide => 1.0,      // tiny at full size
        Dataset::MovieLens => 0.10, // ~10k ratings
        Dataset::Jester => 0.01,    // ~41k ratings, 10×7,342
        Dataset::Protein => 0.05,   // ~99k interactions
    }
}

/// Instantiates the four benchmark datasets. `full` uses Table III sizes
/// (Protein at full size needs ~2 GB and many minutes; laptop users want
/// `false`).
pub fn bench_datasets(full: bool, seed: u64) -> Vec<BenchDataset> {
    Dataset::all()
        .into_iter()
        .map(|dataset| {
            let scale = if full { 1.0 } else { default_scale(dataset) };
            BenchDataset {
                dataset,
                graph: dataset.generate(scale, seed),
                scale,
            }
        })
        .collect()
}

/// The trial numbers of Table IV, scaled by `trial_factor` so quick runs
/// stay faithful to the ratios between methods (20,000 : 100).
#[derive(Clone, Copy, Debug)]
pub struct TrialPlan {
    /// `N_mc = N_os` for the direct solvers (paper: 20,000).
    pub direct_trials: u64,
    /// Preparing-phase trials for OLS (paper: 100).
    pub prep_trials: u64,
    /// `N_op` for the optimized estimator (paper: 20,000).
    pub sampling_trials: u64,
}

impl TrialPlan {
    /// The paper's Table IV plan scaled by `factor` (1.0 = paper values).
    pub fn scaled(factor: f64) -> Self {
        assert!(factor > 0.0, "trial factor must be positive");
        let scale = |n: f64| ((n * factor).round() as u64).max(1);
        TrialPlan {
            direct_trials: scale(20_000.0),
            // The preparing phase is already tiny (100 trials) and its
            // job — candidate recall per Lemma VI.1 — degrades fast below
            // a few dozen trials, so it floors at 25 instead of scaling
            // all the way down.
            prep_trials: scale(100.0).max(25),
            sampling_trials: scale(20_000.0),
        }
    }
}

impl Default for TrialPlan {
    fn default() -> Self {
        TrialPlan::scaled(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_plan_scales_proportionally() {
        let p = TrialPlan::scaled(0.1);
        assert_eq!(p.direct_trials, 2_000);
        assert_eq!(p.prep_trials, 25, "prep floors at 25");
        assert_eq!(p.sampling_trials, 2_000);
        let full = TrialPlan::default();
        assert_eq!(full.direct_trials, 20_000);
        assert_eq!(full.prep_trials, 100);
        assert_eq!(TrialPlan::scaled(0.5).prep_trials, 50);
    }

    #[test]
    fn tiny_factor_floors() {
        let p = TrialPlan::scaled(1e-9);
        assert_eq!(p.direct_trials, 1);
        assert_eq!(p.prep_trials, 25);
    }

    #[test]
    fn bench_datasets_produce_all_four() {
        // Generate at a very small ad-hoc scale to keep the test fast.
        let ds: Vec<BenchDataset> = Dataset::all()
            .into_iter()
            .map(|dataset| BenchDataset {
                dataset,
                graph: dataset.generate(0.01, 1),
                scale: 0.01,
            })
            .collect();
        assert_eq!(ds.len(), 4);
        for d in &ds {
            assert!(d.graph.num_edges() > 0, "{} empty", d.dataset.name());
        }
    }
}

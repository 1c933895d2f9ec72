//! One module per table/figure of the paper's evaluation (§VIII).
//!
//! Each experiment is a function from datasets + options to
//! [`Table`](crate::report::Table)s,
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
use mpmb_core::{
    sample_seed, Cancel, CandidateSet, Distribution, Executor, KarpLubyTrials, KlReport,
    KlTrialPolicy, McVpTrials, OptimizedTrials, OsConfig, OsTrials, PrepareTrials,
};
use mpmb_serve::{advance_local, Answer, Job, Outcome};
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
    let engine = McVpTrials::new(g, seed);
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
        seed,
        ..Default::default()
    };
    let (timing, partial) = budgeted(&OsTrials::new(g, &cfg), trials, budget);
    (timing, partial.acc.into_distribution())
}

/// Runs a whole method through the method table's local entry point,
/// on one thread: the path `mpmb solve` and every request take.
pub fn solve(g: &UncertainBipartiteGraph, job: &Job) -> Answer {
    let progress = advance_local(g, job, None, 1, &Cancel::never())
        .unwrap_or_else(|e| panic!("{} failed: {e}", job.method));
    match progress.outcome {
        Outcome::Done(answer) => answer,
        Outcome::Incomplete(_) => unreachable!("an uncancelled run completes"),
    }
}

/// [`solve`] for a method that ranks butterflies.
pub fn solve_distribution(g: &UncertainBipartiteGraph, job: &Job) -> Distribution {
    match solve(g, job) {
        Answer::Distribution(d) => d,
        other => unreachable!("{} ranks butterflies, got {other:?}", job.method),
    }
}

/// OLS's preparing phase (Algorithm 3 lines 2–4) on one thread: the
/// candidate set of `prep` OS trials on `seed`'s preparing stream.
pub fn ols_candidates(g: &UncertainBipartiteGraph, prep: u64, seed: u64) -> CandidateSet {
    let engine = PrepareTrials::new(g, seed);
    engine.finalize(Executor::new(1).run(&engine, prep, &Cancel::never()).acc)
}

/// Algorithm 5 on one thread: `trials` shared trials over `candidates`
/// on stream `seed`.
pub fn optimized(
    g: &UncertainBipartiteGraph,
    candidates: &CandidateSet,
    trials: u64,
    seed: u64,
) -> Distribution {
    let engine = OptimizedTrials::new(g, candidates, seed);
    Executor::new(1)
        .run(&engine, trials, &Cancel::never())
        .acc
        .into_distribution()
}

/// Algorithm 4 on one thread over `candidates` on stream `seed`, one
/// candidate per executor trial.
pub fn karp_luby(
    g: &UncertainBipartiteGraph,
    candidates: &CandidateSet,
    policy: KlTrialPolicy,
    seed: u64,
) -> KlReport {
    let engine = KarpLubyTrials::new(g, candidates, policy, seed);
    let partial = Executor::new(1)
        .check_every(1)
        .run(&engine, engine.trials(), &Cancel::never());
    engine.finalize(partial.acc)
}

/// OLS-KL with the §VIII-B Eq. 8 dynamic trial policy (`μ = 0.05`,
/// clamped to `[N_op/20, 10·N_op]`), the configuration Figs. 7 and 9
/// time. The method table serves `ols-kl` with a fixed per-candidate
/// count, so this composes the two phases itself, with the seeds the
/// table uses.
pub fn ols_kl_dynamic(g: &UncertainBipartiteGraph, plan: &TrialPlan, seed: u64) -> KlReport {
    let candidates = ols_candidates(g, plan.prep_trials, seed);
    let policy = KlTrialPolicy::Dynamic {
        mu: 0.05,
        base: plan.sampling_trials,
        min: (plan.sampling_trials / 20).max(1),
        cap: plan.sampling_trials * 10,
    };
    karp_luby(g, &candidates, policy, sample_seed(seed))
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
    fn budgeted_runners_agree_with_the_method_table_when_unconstrained() {
        use mpmb_serve::Method;
        let ds = tiny_datasets();
        let g = &ds[0].graph; // ABIDE tiny
        let (t1, d1) = mcvp_budgeted(g, 50, 9, Duration::from_secs(60));
        assert!(t1.finished());
        let d_ref = solve_distribution(g, &Job::new(Method::McVp, 50, 1, 9));
        assert_eq!(d1.max_abs_diff(&d_ref), 0.0);

        let (t2, d2) = os_budgeted(g, 50, 9, Duration::from_secs(60));
        assert!(t2.finished());
        let d_ref = solve_distribution(g, &Job::new(Method::Os, 50, 1, 9));
        assert_eq!(d2.max_abs_diff(&d_ref), 0.0);
    }

    #[test]
    fn phase_helpers_compose_to_the_method_table_answer() {
        use mpmb_serve::Method;
        let d = dense_dataset();
        let g = &d.graph;
        let job = Job::new(Method::Ols, 400, 30, 13);
        let candidates = ols_candidates(g, 30, 13);
        let stream = sample_seed(13);
        let composed = optimized(g, &candidates, 400, stream);
        assert_eq!(composed.max_abs_diff(&solve_distribution(g, &job)), 0.0);

        let kl = Job::new(Method::OlsKl, 200, 30, 13);
        let report = karp_luby(g, &candidates, KlTrialPolicy::Fixed(200), stream);
        assert_eq!(
            report
                .distribution
                .max_abs_diff(&solve_distribution(g, &kl)),
            0.0
        );
    }
}

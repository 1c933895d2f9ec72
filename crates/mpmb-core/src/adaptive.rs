//! Adaptive trial counts (extension).
//!
//! The Theorem IV.1 lower bound `N ≥ (1/μ)·4 ln(2/δ)/ε²` depends on the
//! unknown target probability `μ = P(B)`. The paper fixes `N` from an
//! assumed `μ = 0.05`; this module instead runs Ordering Sampling in
//! batches and re-evaluates the bound against the *running estimate* of
//! the current MPMB, stopping as soon as the trials performed satisfy the
//! bound for it. On easy instances (high `P(B)`) this uses a fraction of
//! the fixed budget; on hard ones it keeps going up to a cap instead of
//! silently under-sampling.

use crate::bounds::mc_trial_lower_bound;
use crate::butterfly::Butterfly;
use crate::distribution::Distribution;
use crate::engine::{Cancel, Executor, Partial, TrialEngine};
use crate::os::{OsConfig, OsTrials};
use bigraph::UncertainBipartiteGraph;

/// Configuration for [`run_os_adaptive`].
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Relative error target `ε`.
    pub epsilon: f64,
    /// Failure probability target `δ`.
    pub delta: f64,
    /// Trials per batch between bound re-evaluations.
    pub batch: u64,
    /// Hard cap on total trials.
    pub max_trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads per batch (values ≤ 1 mean sequential). Batches
    /// run chunked-parallel on the engine [`Executor`]; the result is
    /// bit-identical to the sequential run at any thread count.
    pub threads: usize,
    /// Ordering Sampling options for the per-trial engine.
    pub os: OsConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            epsilon: 0.1,
            delta: 0.1,
            batch: 1_000,
            max_trials: 1_000_000,
            seed: 0x5EED,
            threads: 1,
            os: OsConfig::default(),
        }
    }
}

/// Outcome of an adaptive run.
#[derive(Clone, Debug)]
pub struct AdaptiveResult {
    /// The estimated distribution over all executed trials.
    pub distribution: Distribution,
    /// Trials actually executed.
    pub trials_used: u64,
    /// Whether the Theorem IV.1 bound was satisfied for the final MPMB
    /// estimate (false = the `max_trials` cap hit first, or no butterfly
    /// was ever observed).
    pub bound_satisfied: bool,
    /// The MPMB estimate the stopping rule used, if any.
    pub target: Option<(Butterfly, f64)>,
}

/// Runs Ordering Sampling with the adaptive stopping rule.
///
/// # Panics
/// Panics unless `0 < ε`, `0 < δ < 1`, `batch > 0`, `max_trials > 0`.
pub fn run_os_adaptive(g: &UncertainBipartiteGraph, cfg: &AdaptiveConfig) -> AdaptiveResult {
    assert!(cfg.epsilon > 0.0, "epsilon must be positive");
    assert!(cfg.delta > 0.0 && cfg.delta < 1.0, "delta must be in (0,1)");
    assert!(
        cfg.batch > 0 && cfg.max_trials > 0,
        "trial counts must be positive"
    );

    // The adaptive stream is keyed by cfg.seed (not cfg.os.seed), batch
    // after batch on the one trial engine.
    let os = OsTrials::new(
        g,
        &OsConfig {
            seed: cfg.seed,
            ..cfg.os
        },
    );
    let executor = Executor::new(cfg.threads);
    // One partial over the whole capped trial space, resumed batch by
    // batch: the tally after each batch is the fold of trials `0..t`,
    // bit-identical to one sequential run at any thread count.
    let mut partial = Partial::empty(os.new_acc(), cfg.max_trials);
    let mut satisfied = false;

    let mut t = 0u64;
    while t < cfg.max_trials {
        t = (t + cfg.batch).min(cfg.max_trials);
        executor.resume_within(&os, &mut partial, 0..t, &Cancel::never());
        // Stopping rule: enough trials for the running MPMB estimate?
        if let Some((_, count)) = partial.acc.leader() {
            let mu = count as f64 / t as f64;
            if mu > 0.0 && (t as f64) >= mc_trial_lower_bound(mu, cfg.epsilon, cfg.delta) {
                satisfied = true;
                break;
            }
        }
    }

    let tally = partial.acc;
    let target = tally.leader().map(|(b, c)| (b, c as f64 / t as f64));
    AdaptiveResult {
        distribution: tally.into_distribution(),
        trials_used: t,
        bound_satisfied: satisfied,
        target,
    }
}

/// The variance-driven escalation rule for the serving fast tier: given
/// a fast-tier answer (`estimate` with confidence half-width
/// `half_width`), decide whether an exact-method run should be
/// scheduled. The fast answer stands on its own only when its interval
/// certifies relative error `ε` — the same target the adaptive stopping
/// rule above enforces for Ordering Sampling. A zero estimate with a
/// non-degenerate interval always escalates: nothing was certified.
///
/// # Panics
/// Panics unless `ε > 0`.
pub fn fast_escalation_needed(estimate: f64, half_width: f64, epsilon: f64) -> bool {
    assert!(epsilon > 0.0, "epsilon must be positive");
    if estimate <= 0.0 {
        return half_width > 0.0;
    }
    half_width > epsilon * estimate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_distribution, ExactConfig};
    use bigraph::{GraphBuilder, Left, Right};

    fn fig1() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stops_once_bound_is_met_and_is_accurate() {
        let g = fig1();
        let cfg = AdaptiveConfig {
            seed: 33,
            ..Default::default()
        };
        let result = run_os_adaptive(&g, &cfg);
        assert!(result.bound_satisfied);
        assert!(result.trials_used < cfg.max_trials, "cap should not bind");
        // Theorem IV.1 for P≈0.114, ε=δ=0.1: N ≈ 1.05e5.
        let exact = exact_distribution(&g, ExactConfig::default()).unwrap();
        let (b_exact, p_exact) = exact.mpmb().unwrap();
        let (b, p) = result.target.unwrap();
        assert_eq!(b, b_exact);
        assert!((p - p_exact).abs() / p_exact < 0.1, "p={p} vs {p_exact}");
        // Sanity: used at least the bound for its own estimate.
        let needed = mc_trial_lower_bound(p, cfg.epsilon, cfg.delta);
        assert!(result.trials_used as f64 >= needed);
    }

    #[test]
    fn easy_instances_use_fewer_trials_than_hard_ones() {
        // High-probability MPMB (certain heavy butterfly) stops almost
        // immediately; Fig. 1 (P≈0.11) needs ~9x more.
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            b.add_edge(Left(u), Right(v), 5.0, 0.99).unwrap();
        }
        let easy = b.build().unwrap();
        let cfg = AdaptiveConfig {
            seed: 34,
            ..Default::default()
        };
        let r_easy = run_os_adaptive(&easy, &cfg);
        let r_hard = run_os_adaptive(&fig1(), &cfg);
        assert!(r_easy.bound_satisfied && r_hard.bound_satisfied);
        assert!(
            r_easy.trials_used * 4 < r_hard.trials_used,
            "easy {} vs hard {}",
            r_easy.trials_used,
            r_hard.trials_used
        );
    }

    #[test]
    fn butterfly_free_graph_hits_the_cap() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.9).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 0.9).unwrap();
        let g = b.build().unwrap();
        let cfg = AdaptiveConfig {
            batch: 50,
            max_trials: 200,
            seed: 35,
            ..Default::default()
        };
        let result = run_os_adaptive(&g, &cfg);
        assert!(!result.bound_satisfied);
        assert_eq!(result.trials_used, 200);
        assert!(result.target.is_none());
        assert!(result.distribution.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = fig1();
        let cfg = AdaptiveConfig {
            batch: 500,
            max_trials: 5_000,
            epsilon: 0.3,
            delta: 0.3,
            seed: 36,
            ..Default::default()
        };
        let a = run_os_adaptive(&g, &cfg);
        let b = run_os_adaptive(&g, &cfg);
        assert_eq!(a.trials_used, b.trials_used);
        assert_eq!(a.distribution.max_abs_diff(&b.distribution), 0.0);
    }

    #[test]
    fn threads_are_bit_identical_to_sequential() {
        let g = fig1();
        let base = AdaptiveConfig {
            batch: 300,
            max_trials: 3_000,
            epsilon: 0.3,
            delta: 0.3,
            seed: 37,
            ..Default::default()
        };
        let seq = run_os_adaptive(&g, &base);
        for threads in [2, 3, 8] {
            let par = run_os_adaptive(&g, &AdaptiveConfig { threads, ..base });
            assert_eq!(seq.trials_used, par.trials_used, "threads={threads}");
            assert_eq!(seq.bound_satisfied, par.bound_satisfied);
            assert_eq!(seq.target, par.target, "threads={threads}");
            assert_eq!(seq.distribution.max_abs_diff(&par.distribution), 0.0);
        }
    }

    #[test]
    fn escalation_rule_tracks_certified_relative_error() {
        // Interval tighter than ε·estimate: the fast answer stands.
        assert!(!fast_escalation_needed(10.0, 0.5, 0.1));
        // Interval too wide: escalate.
        assert!(fast_escalation_needed(10.0, 2.0, 0.1));
        // Zero estimate: only a degenerate interval is self-certifying.
        assert!(!fast_escalation_needed(0.0, 0.0, 0.1));
        assert!(fast_escalation_needed(0.0, 0.3, 0.1));
    }
}

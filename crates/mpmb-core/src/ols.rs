//! Ordering-Listing Sampling (Algorithm 3) — the paper's second method.
//!
//! Two phases:
//!
//! 1. **Preparing (§VI-B)** — a *small* number of Ordering Sampling trials
//!    (default 100 vs the 20,000 a direct OS run needs) whose per-trial
//!    `S_MB` sets are unioned into the candidate set `C_MB`. Lemma VI.1:
//!    a butterfly with probability `P(B)` is included with probability
//!    `1 − (1 − P(B))^N`.
//! 2. **Sampling (§VI-C)** — probabilities are estimated over `C_MB`
//!    alone, ignoring the rest of the network, with either the paper's
//!    optimized shared-trial estimator (Algorithm 5) or Karp-Luby
//!    (Algorithm 4).
//!
//! Each phase is a [`TrialEngine`]: [`PrepareTrials`] here, then
//! [`OptimizedTrials`](crate::estimators::optimized::OptimizedTrials) or
//! [`KarpLubyTrials`](crate::estimators::karp_luby::KarpLubyTrials) over
//! the finalized candidate set. Every phase runs on the deterministic
//! [`Executor`](crate::engine::Executor), so results are bit-identical at
//! every thread count (preparing merges per-range unions in range order,
//! and the candidate sort is a total order, so indices are stable).

use crate::butterfly::Butterfly;
use crate::candidates::CandidateSet;
use crate::engine::TrialEngine;
use crate::os::{OsConfig, OsEngine, StreamingOracle};
use bigraph::{trial_rng, UncertainBipartiteGraph};

/// The OLS preparing phase as a [`TrialEngine`]: each trial runs one OS
/// trial (on the derived `prep_seed` stream) and appends its `S_MB` to
/// the growing butterfly union. Only deduplication ever observes the
/// concatenation order, and the final candidate sort is a total order —
/// so merges commute up to the finalized [`CandidateSet`].
pub struct PrepareTrials<'g> {
    g: &'g UncertainBipartiteGraph,
    os_cfg: OsConfig,
}

impl<'g> PrepareTrials<'g> {
    /// Builds the phase-1 engine for an OLS run seeded with `seed`.
    /// The trial budget is the caller's (paper default `N_os = 100`).
    pub fn new(g: &'g UncertainBipartiteGraph, seed: u64) -> Self {
        PrepareTrials {
            g,
            os_cfg: OsConfig {
                seed: prep_seed(seed),
                ..Default::default()
            },
        }
    }

    /// Finalizes a completed union into the candidate set.
    pub fn finalize(&self, union: Vec<Butterfly>) -> CandidateSet {
        let mut span = obs::span("ols.listing");
        span.items(union.len() as u64);
        CandidateSet::from_butterflies(self.g, union)
    }
}

impl<'g> TrialEngine for PrepareTrials<'g> {
    type Acc = Vec<Butterfly>;
    type Scratch = (OsEngine<'g>, Vec<Butterfly>);

    fn new_acc(&self) -> Vec<Butterfly> {
        Vec::new()
    }

    fn new_scratch(&self) -> Self::Scratch {
        (OsEngine::new(self.g, &self.os_cfg), Vec::new())
    }

    fn trial(&self, t: u64, (engine, smb): &mut Self::Scratch, union: &mut Vec<Butterfly>) {
        let mut rng = trial_rng(self.os_cfg.seed, t);
        // Single-scan engine: the non-memoizing streaming oracle draws
        // the same stream the lazy sampler did, without the memo writes.
        let mut oracle = StreamingOracle::new(self.g, &mut rng);
        engine.trial(&mut oracle, smb);
        union.extend_from_slice(smb);
    }

    fn merge(&self, into: &mut Vec<Butterfly>, from: Vec<Butterfly>) {
        into.extend(from);
    }

    fn phase(&self) -> &'static str {
        "ols.prepare"
    }
}

/// The preparing-phase OS trial stream of an OLS run seeded with
/// `seed`; disjoint from [`sample_seed`]'s.
fn prep_seed(seed: u64) -> u64 {
    seed ^ 0x00C0_FFEE_0000_0001
}

/// The sampling-phase estimator stream of an OLS run seeded with `seed`
/// (both [`OptimizedTrials`](crate::estimators::optimized::OptimizedTrials)
/// and [`KarpLubyTrials`](crate::estimators::karp_luby::KarpLubyTrials)).
pub fn sample_seed(seed: u64) -> u64 {
    seed ^ 0x00C0_FFEE_0000_0002
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::engine::{Cancel, Executor};
    use crate::estimators::karp_luby::{KarpLubyTrials, KlReport, KlTrialPolicy};
    use crate::estimators::optimized::OptimizedTrials;
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

    /// Phase 1: the candidate set after `prep` preparing trials.
    fn prepare(g: &UncertainBipartiteGraph, seed: u64, prep: u64, threads: usize) -> CandidateSet {
        let engine = PrepareTrials::new(g, seed);
        let union = Executor::new(threads)
            .run(&engine, prep, &Cancel::never())
            .acc;
        engine.finalize(union)
    }

    /// Phase 2 with Algorithm 5.
    fn optimized(
        g: &UncertainBipartiteGraph,
        seed: u64,
        cs: &CandidateSet,
        trials: u64,
        threads: usize,
    ) -> Distribution {
        let engine = OptimizedTrials::new(g, cs, sample_seed(seed));
        Executor::new(threads)
            .run(&engine, trials, &Cancel::never())
            .acc
            .into_distribution()
    }

    /// Phase 2 with Algorithm 4.
    fn karp_luby(
        g: &UncertainBipartiteGraph,
        seed: u64,
        cs: &CandidateSet,
        trials: u64,
        threads: usize,
    ) -> KlReport {
        let engine = KarpLubyTrials::new(g, cs, KlTrialPolicy::Fixed(trials), sample_seed(seed));
        let acc = Executor::new(threads)
            .run(&engine, engine.trials(), &Cancel::never())
            .acc;
        engine.finalize(acc)
    }

    fn assert_close_to_exact(g: &UncertainBipartiteGraph, d: &Distribution) {
        let exact = exact_distribution(g, ExactConfig::default()).unwrap();
        for (b, &p) in exact.iter() {
            assert!(
                (d.prob(b) - p).abs() < 0.01,
                "{b}: est {} vs exact {}",
                d.prob(b),
                p
            );
        }
        assert_eq!(d.mpmb().unwrap().0, exact.mpmb().unwrap().0);
    }

    #[test]
    fn preparing_phase_catches_high_probability_butterflies() {
        // Every Fig. 1 butterfly has P(B) ≥ 0.036; with 200 preparing
        // trials the miss probability per butterfly is < 0.07% — and the
        // chosen seed finds all three.
        let cs = prepare(&fig1(), 42, 200, 1);
        assert_eq!(cs.len(), 3, "candidate set {:?}", cs);
    }

    #[test]
    fn ols_optimized_converges_to_exact() {
        let g = fig1();
        let cs = prepare(&g, 7, 200, 1);
        assert_close_to_exact(&g, &optimized(&g, 7, &cs, 60_000, 1));
    }

    #[test]
    fn ols_karp_luby_converges_to_exact() {
        let g = fig1();
        let cs = prepare(&g, 8, 200, 1);
        let report = karp_luby(&g, 8, &cs, 60_000, 1);
        assert_close_to_exact(&g, &report.distribution);
    }

    #[test]
    fn both_estimators_agree_with_each_other() {
        let g = fig1();
        let cs = prepare(&g, 12, 200, 1);
        let opt = optimized(&g, 12, &cs, 40_000, 1);
        let kl = karp_luby(&g, 12, &cs, 40_000, 1).distribution;
        assert!(
            opt.max_abs_diff(&kl) < 0.015,
            "diff = {}",
            opt.max_abs_diff(&kl)
        );
    }

    #[test]
    fn empty_graph_yields_empty_candidate_set() {
        let g = GraphBuilder::new().build().unwrap();
        let cs = prepare(&g, 0x5EED, 100, 1);
        assert!(cs.is_empty());
        assert!(optimized(&g, 0x5EED, &cs, 100, 1).is_empty());
    }

    #[test]
    fn threads_do_not_change_either_phase() {
        let g = fig1();
        let c = 9;
        let seq = prepare(&g, c, 150, 1);
        let opt = optimized(&g, c, &seq, 2_000, 1);
        let kl = karp_luby(&g, c, &seq, 1_000, 1).distribution;
        for threads in [2, 3, 8] {
            let par = prepare(&g, c, 150, threads);
            assert_eq!(seq.len(), par.len());
            for i in 0..seq.len() {
                assert_eq!(
                    seq.get(i).butterfly,
                    par.get(i).butterfly,
                    "candidate index {i} differs at threads={threads}"
                );
            }
            let par_opt = optimized(&g, c, &par, 2_000, threads);
            assert_eq!(opt.max_abs_diff(&par_opt), 0.0, "threads={threads}");
            let par_kl = karp_luby(&g, c, &par, 1_000, threads).distribution;
            assert_eq!(kl.max_abs_diff(&par_kl), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn top_k_is_sorted_by_probability() {
        let g = fig1();
        let cs = prepare(&g, 5, 200, 1);
        let top = optimized(&g, 5, &cs, 20_000, 1).top_k(3);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Exact order: B(0,1,1,2) > B(0,1,0,2) > B(0,1,0,1).
        assert_eq!(
            top[0].0,
            Butterfly::new(Left(0), Left(1), Right(1), Right(2))
        );
    }
}

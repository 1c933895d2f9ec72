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

use crate::butterfly::Butterfly;
use crate::candidates::CandidateSet;
use crate::distribution::Distribution;
use crate::engine::{Cancel, Executor, TrialEngine};
use crate::estimators::karp_luby::{KarpLubyTrials, KlReport, KlTrialPolicy};
use crate::estimators::optimized::OptimizedTrials;
use crate::os::{OsConfig, OsEngine, StreamingOracle};
use bigraph::{trial_rng, Side, UncertainBipartiteGraph};

/// Which probability estimator the sampling phase uses.
#[derive(Clone, Copy, Debug)]
pub enum EstimatorKind {
    /// Algorithm 5: shared trials in weight order ("OLS" in the paper).
    Optimized {
        /// Number of shared trials `N_op` (paper default `2·10⁴`).
        trials: u64,
    },
    /// Algorithm 4: per-candidate Karp-Luby sampling ("OLS-KL").
    KarpLuby {
        /// Trial policy (fixed or Eq. 8 dynamic).
        policy: KlTrialPolicy,
    },
}

impl Default for EstimatorKind {
    fn default() -> Self {
        EstimatorKind::Optimized { trials: 20_000 }
    }
}

/// Configuration for [`OrderingListingSampling`].
#[derive(Clone, Copy, Debug)]
pub struct OlsConfig {
    /// Preparing-phase OS trials `N_os` (paper default 100).
    pub prep_trials: u64,
    /// Base RNG seed. The preparing and sampling phases derive disjoint
    /// streams from it.
    pub seed: u64,
    /// Sampling-phase estimator.
    pub estimator: EstimatorKind,
    /// §V-B pruning in the preparing phase (ablation toggle).
    pub edge_ordering: bool,
    /// Middle side override for the preparing phase.
    pub middle_side: Option<Side>,
    /// Worker threads for both phases (values ≤ 1 mean sequential).
    /// Results are bit-identical at every thread count: both phases run
    /// on the deterministic [`Executor`](crate::engine::Executor) (the
    /// preparing phase merges per-range trial unions in range order, and
    /// the candidate sort is a total order, so indices are stable).
    pub threads: usize,
}

impl Default for OlsConfig {
    fn default() -> Self {
        OlsConfig {
            prep_trials: 100,
            seed: 0x5EED,
            estimator: EstimatorKind::default(),
            edge_ordering: true,
            middle_side: None,
            threads: 1,
        }
    }
}

impl OlsConfig {
    /// The derived seed of the preparing-phase OS trial stream. Exposed
    /// so external drivers (e.g. the query daemon's cancellable runners)
    /// can reproduce phase 1 bit-for-bit.
    pub fn prep_seed(&self) -> u64 {
        prep_seed(self.seed)
    }

    /// The derived seed of the sampling-phase estimator stream.
    pub fn sample_seed(&self) -> u64 {
        sample_seed(self.seed)
    }
}

/// Everything a finished OLS run produced.
#[derive(Clone, Debug)]
pub struct OlsResult {
    /// Estimated `P(B)` over the candidate set.
    pub distribution: Distribution,
    /// The candidate set `C_MB` from the preparing phase.
    pub candidates: CandidateSet,
    /// Karp-Luby bookkeeping, when that estimator ran.
    pub kl_report: Option<KlReport>,
}

impl OlsResult {
    /// The MPMB over the candidate set.
    pub fn mpmb(&self) -> Option<(Butterfly, f64)> {
        self.distribution.mpmb()
    }

    /// Top-k MPMBs (§VII for OLS: sort the candidate set by estimated
    /// probability).
    pub fn top_k(&self, k: usize) -> Vec<(Butterfly, f64)> {
        self.distribution.top_k(k)
    }
}

/// The Ordering-Listing Sampling solver.
#[derive(Clone, Copy, Debug)]
pub struct OrderingListingSampling {
    cfg: OlsConfig,
}

impl OrderingListingSampling {
    /// Creates a solver with the given configuration.
    pub fn new(cfg: OlsConfig) -> Self {
        OrderingListingSampling { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OlsConfig {
        &self.cfg
    }

    /// Runs both phases.
    pub fn run(&self, g: &UncertainBipartiteGraph) -> OlsResult {
        let candidates = self.prepare(g);
        self.estimate(g, candidates)
    }

    /// Phase 1 alone: the candidate set after `prep_trials` OS trials
    /// (Algorithm 3 lines 2–4).
    ///
    /// With `threads > 1` the [`Executor`] splits the trial range with
    /// [`crate::engine::chunk_ranges`] and merges per-range `S_MB`
    /// unions in range order before the (total-order) candidate sort —
    /// the result is byte-identical to the sequential build, candidate
    /// indices included.
    pub fn prepare(&self, g: &UncertainBipartiteGraph) -> CandidateSet {
        let prep = PrepareTrials::new(g, &self.cfg);
        let union = Executor::new(self.cfg.threads)
            .run(&prep, self.cfg.prep_trials, &Cancel::never())
            .acc;
        prep.finalize(union)
    }

    /// Phase 2 alone: probability estimation over a prepared candidate
    /// set (Algorithm 3 line 5, dispatching to Algorithm 4 or 5).
    ///
    /// With `threads > 1` the estimators run on the deterministic
    /// [`Executor`](crate::engine::Executor) (identical output).
    pub fn estimate(&self, g: &UncertainBipartiteGraph, candidates: CandidateSet) -> OlsResult {
        if candidates.is_empty() {
            return OlsResult {
                distribution: Distribution::new(),
                candidates,
                kl_report: None,
            };
        }
        let threads = self.cfg.threads.max(1);
        let optimized = |candidates: &CandidateSet, trials: u64| {
            assert!(trials > 0, "trials must be positive");
            Executor::new(threads)
                .run(
                    &OptimizedTrials::new(g, candidates, sample_seed(self.cfg.seed)),
                    trials,
                    &Cancel::never(),
                )
                .acc
                .into_distribution()
        };
        match self.cfg.estimator {
            EstimatorKind::Optimized { trials } => {
                let distribution = optimized(&candidates, trials);
                OlsResult {
                    distribution,
                    candidates,
                    kl_report: None,
                }
            }
            EstimatorKind::KarpLuby { policy } => {
                let kl = KarpLubyTrials::new(g, &candidates, policy, sample_seed(self.cfg.seed));
                let acc = Executor::new(threads)
                    .check_every(1)
                    .run(&kl, kl.trials(), &Cancel::never())
                    .acc;
                let report = kl.finalize(acc);
                OlsResult {
                    distribution: report.distribution.clone(),
                    candidates,
                    kl_report: Some(report),
                }
            }
        }
    }
}

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
    /// Builds the phase-1 engine from an OLS configuration.
    pub fn new(g: &'g UncertainBipartiteGraph, cfg: &OlsConfig) -> Self {
        PrepareTrials {
            g,
            os_cfg: OsConfig {
                trials: cfg.prep_trials,
                seed: prep_seed(cfg.seed),
                edge_ordering: cfg.edge_ordering,
                middle_side: cfg.middle_side,
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

/// Disjoint derived seeds for the two phases.
fn prep_seed(seed: u64) -> u64 {
    seed ^ 0x00C0_FFEE_0000_0001
}

fn sample_seed(seed: u64) -> u64 {
    seed ^ 0x00C0_FFEE_0000_0002
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
    fn preparing_phase_catches_high_probability_butterflies() {
        // Every Fig. 1 butterfly has P(B) ≥ 0.036; with 200 preparing
        // trials the miss probability per butterfly is < 0.07% — and the
        // chosen seed finds all three.
        let g = fig1();
        let ols = OrderingListingSampling::new(OlsConfig {
            prep_trials: 200,
            seed: 42,
            ..Default::default()
        });
        let cs = ols.prepare(&g);
        assert_eq!(cs.len(), 3, "candidate set {:?}", cs);
    }

    #[test]
    fn ols_optimized_converges_to_exact() {
        let g = fig1();
        let result = OrderingListingSampling::new(OlsConfig {
            prep_trials: 200,
            seed: 7,
            estimator: EstimatorKind::Optimized { trials: 60_000 },
            ..Default::default()
        })
        .run(&g);
        let exact = exact_distribution(&g, ExactConfig::default()).unwrap();
        for (b, &p) in exact.iter() {
            assert!(
                (result.distribution.prob(b) - p).abs() < 0.01,
                "{b}: est {} vs exact {}",
                result.distribution.prob(b),
                p
            );
        }
        assert_eq!(result.mpmb().unwrap().0, exact.mpmb().unwrap().0);
    }

    #[test]
    fn ols_karp_luby_converges_to_exact() {
        let g = fig1();
        let result = OrderingListingSampling::new(OlsConfig {
            prep_trials: 200,
            seed: 8,
            estimator: EstimatorKind::KarpLuby {
                policy: KlTrialPolicy::Fixed(60_000),
            },
            ..Default::default()
        })
        .run(&g);
        let exact = exact_distribution(&g, ExactConfig::default()).unwrap();
        for (b, &p) in exact.iter() {
            assert!(
                (result.distribution.prob(b) - p).abs() < 0.01,
                "{b}: est {} vs exact {}",
                result.distribution.prob(b),
                p
            );
        }
        assert!(result.kl_report.is_some());
    }

    #[test]
    fn both_estimators_agree_with_each_other() {
        let g = fig1();
        let base = OlsConfig {
            prep_trials: 200,
            seed: 12,
            ..Default::default()
        };
        let opt = OrderingListingSampling::new(OlsConfig {
            estimator: EstimatorKind::Optimized { trials: 40_000 },
            ..base
        })
        .run(&g);
        let kl = OrderingListingSampling::new(OlsConfig {
            estimator: EstimatorKind::KarpLuby {
                policy: KlTrialPolicy::Fixed(40_000),
            },
            ..base
        })
        .run(&g);
        assert!(
            opt.distribution.max_abs_diff(&kl.distribution) < 0.015,
            "diff = {}",
            opt.distribution.max_abs_diff(&kl.distribution)
        );
    }

    #[test]
    fn empty_graph_yields_empty_result() {
        let g = GraphBuilder::new().build().unwrap();
        let result = OrderingListingSampling::new(OlsConfig::default()).run(&g);
        assert!(result.distribution.is_empty());
        assert!(result.candidates.is_empty());
        assert!(result.mpmb().is_none());
    }

    #[test]
    fn runs_are_reproducible() {
        let g = fig1();
        let cfg = OlsConfig {
            prep_trials: 100,
            seed: 3,
            estimator: EstimatorKind::Optimized { trials: 2_000 },
            ..Default::default()
        };
        let a = OrderingListingSampling::new(cfg).run(&g);
        let b = OrderingListingSampling::new(cfg).run(&g);
        assert_eq!(a.distribution.max_abs_diff(&b.distribution), 0.0);
        assert_eq!(a.candidates.len(), b.candidates.len());
    }

    #[test]
    fn threads_do_not_change_results() {
        let g = fig1();
        let estimators = [
            EstimatorKind::Optimized { trials: 2_000 },
            EstimatorKind::KarpLuby {
                policy: KlTrialPolicy::Fixed(1_000),
            },
        ];
        for estimator in estimators {
            let base = OlsConfig {
                prep_trials: 150,
                seed: 9,
                estimator,
                ..Default::default()
            };
            let seq = OrderingListingSampling::new(base).run(&g);
            for threads in [2, 3, 8] {
                let par = OrderingListingSampling::new(OlsConfig { threads, ..base }).run(&g);
                assert_eq!(
                    seq.distribution.max_abs_diff(&par.distribution),
                    0.0,
                    "threads={threads}"
                );
                assert_eq!(seq.candidates.len(), par.candidates.len());
                for i in 0..seq.candidates.len() {
                    assert_eq!(
                        seq.candidates.get(i).butterfly,
                        par.candidates.get(i).butterfly,
                        "candidate index {i} differs at threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_k_is_sorted_by_probability() {
        let g = fig1();
        let result = OrderingListingSampling::new(OlsConfig {
            prep_trials: 200,
            seed: 5,
            estimator: EstimatorKind::Optimized { trials: 20_000 },
            ..Default::default()
        })
        .run(&g);
        let top = result.top_k(3);
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

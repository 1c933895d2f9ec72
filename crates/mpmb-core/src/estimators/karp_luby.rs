//! The Karp-Luby probability estimator (Algorithm 4) — "OLS-KL".
//!
//! For each candidate `B_i`, `P(B_i) = Pr[E(B_i)] · (1 − Pr[⋃_{j≤L(i)}
//! E(B_j ∖ B_i)])`: the butterfly must exist and no strictly heavier
//! candidate may. The union probability is estimated with Karp-Luby
//! coverage sampling over the shared edge space: pick event `j` with
//! probability `Pr[E(D_j)]/S_i`, force `D_j`'s edges present, lazily draw
//! everything else, and count the trial iff no earlier event is fully
//! present. The estimate is `S_i · Cnt/N`.
//!
//! Per Lemma VI.4 / Eq. 8, the trial count can be fixed or derived per
//! candidate ([`KlTrialPolicy`]).

use crate::bounds::kl_over_op_ratio;
use crate::candidates::CandidateSet;
use crate::distribution::Distribution;
use crate::engine::TrialEngine;
use bigraph::fx::FxHashMap;
use bigraph::{fixed_point_threshold, trial_rng, EdgeId, LazyEdgeSampler, UncertainBipartiteGraph};
use rand::Rng;

/// How many Karp-Luby trials each candidate receives.
#[derive(Clone, Copy, Debug)]
pub enum KlTrialPolicy {
    /// The same trial count for every candidate.
    Fixed(u64),
    /// Per-candidate `N_kl = ratio · base` with the Eq. 8 ratio
    /// `Pr[E(B_i)]·S_i·(Pr[E(B_i)]/μ − 1)`, clamped to `[min, cap]` —
    /// the §VIII-B "dynamic" configuration.
    Dynamic {
        /// Target probability scale `μ` (paper uses 0.05–0.1).
        mu: f64,
        /// The `N_op` the ratio multiplies (paper default `2·10⁴`).
        base: u64,
        /// Lower clamp: never fewer trials than this.
        min: u64,
        /// Upper clamp: never more trials than this.
        cap: u64,
    },
}

impl KlTrialPolicy {
    /// Trials for a candidate with existence probability `p_exist` and
    /// residual probability mass `s_i`.
    pub fn trials_for(&self, p_exist: f64, s_i: f64) -> u64 {
        match *self {
            KlTrialPolicy::Fixed(n) => n,
            KlTrialPolicy::Dynamic { mu, base, min, cap } => {
                let ratio = kl_over_op_ratio(p_exist, s_i, mu).max(0.0);
                ((ratio * base as f64).ceil() as u64).clamp(min, cap)
            }
        }
    }
}

impl Default for KlTrialPolicy {
    fn default() -> Self {
        KlTrialPolicy::Dynamic {
            mu: 0.05,
            base: 20_000,
            min: 1_000,
            cap: 200_000,
        }
    }
}

/// Result of a Karp-Luby estimation run, including the per-candidate
/// bookkeeping plotted in Fig. 10.
#[derive(Clone, Debug)]
pub struct KlReport {
    /// Estimated probabilities.
    pub distribution: Distribution,
    /// Trials spent per candidate (sorted order of the candidate set).
    pub trials_per_candidate: Vec<u64>,
    /// `S_i = Σ_{j≤L(i)} Pr[E(B_j ∖ B_i)]` per candidate.
    pub s_values: Vec<f64>,
}

impl KlReport {
    /// Total Karp-Luby trials across all candidates.
    pub fn total_trials(&self) -> u64 {
        self.trials_per_candidate.iter().sum()
    }
}

/// Outcome of Algorithm 4 for one candidate: its estimated probability,
/// the trials it consumed, and its residual mass `S_i`.
#[derive(Clone, Copy, Debug)]
pub struct KlCandidate {
    /// Estimated `P(B_i)`, clamped to `[0, 1]`.
    pub prob: f64,
    /// Karp-Luby trials spent (0 when `S_i = 0`).
    pub trials: u64,
    /// `S_i = Σ_{j≤L(i)} Pr[E(B_j ∖ B_i)]`.
    pub s_value: f64,
}

/// Runs Algorithm 4 for exactly one candidate index, with the
/// per-`(candidate, trial)` RNG stream `trial_rng(seed ^ (0xA5A5… | i),
/// t)` — the unit every execution mode (sequential, parallel, resumed)
/// is built from.
fn kl_single_candidate(
    g: &UncertainBipartiteGraph,
    candidates: &CandidateSet,
    i: usize,
    policy: KlTrialPolicy,
    seed: u64,
) -> KlCandidate {
    let cand = candidates.get(i);
    let l_i = candidates.larger_count(i);

    // Residual events D_j = B_j ∖ B_i and their probabilities
    // (Algorithm 4 lines 3–4). Impossible events (p = 0) can never
    // occur and are excluded from the union outright. Each residual
    // edge carries its acceptance threshold, computed once here rather
    // than on every trial's draw.
    let mut residuals: Vec<Vec<(EdgeId, u64)>> = Vec::with_capacity(l_i);
    let mut prefix: Vec<f64> = Vec::with_capacity(l_i);
    let mut s_i = 0.0;
    for j in 0..l_i {
        let d_j = candidates.residual(j, i);
        let p_j: f64 = g.edges_existence_prob(&d_j);
        if p_j > 0.0 {
            s_i += p_j;
            residuals.push(
                d_j.into_iter()
                    .map(|e| (e, fixed_point_threshold(g.prob(e))))
                    .collect(),
            );
            prefix.push(s_i);
        }
    }
    if s_i == 0.0 {
        // No heavier candidate can ever exist: P(B_i) = Pr[E(B_i)].
        return KlCandidate {
            prob: cand.existence_prob,
            trials: 0,
            s_value: 0.0,
        };
    }

    let n = policy.trials_for(cand.existence_prob, s_i).max(1);
    let mut sampler = LazyEdgeSampler::new(g.num_edges());
    let mut cnt = 0u64;
    for t in 0..n {
        // Independent stream per (candidate, trial).
        let mut rng = trial_rng(seed ^ (0xA5A5_0000_0000_0000 | i as u64), t);
        sampler.begin_trial();
        // Line 6: choose event j with probability Pr[E(D_j)]/S_i.
        let x: f64 = rng.random::<f64>() * s_i;
        let j = prefix.partition_point(|&c| c <= x).min(residuals.len() - 1);
        // Line 7: condition on D_j present.
        for &(e, _) in &residuals[j] {
            sampler.force_present(e);
        }
        // Line 8: canonical iff no earlier event fully present.
        let mut canonical = true;
        'earlier: for d_k in residuals.iter().take(j) {
            if d_k
                .iter()
                .all(|&(e, t)| sampler.is_present_slot(e.index(), t, &mut rng))
            {
                canonical = false;
                break 'earlier;
            }
        }
        if canonical {
            cnt += 1;
        }
    }
    // Line 10; clamped because the unbiased estimate of
    // 1 − S·Cnt/N can stray outside [0,1] when S_i > 1.
    let union_est = s_i * cnt as f64 / n as f64;
    KlCandidate {
        prob: ((1.0 - union_est) * cand.existence_prob).clamp(0.0, 1.0),
        trials: n,
        s_value: s_i,
    }
}

/// Algorithm 4 as a [`TrialEngine`]: executor trial `t` runs *candidate*
/// `t` end to end (its whole inner trial loop), so cancellation and
/// resume operate at candidate granularity and the per-candidate RNG
/// streams are untouched by scheduling. Run with
/// [`Executor::check_every`](crate::Executor::check_every)`(1)` — one
/// "trial" here is heavy.
pub struct KarpLubyTrials<'a> {
    g: &'a UncertainBipartiteGraph,
    candidates: &'a CandidateSet,
    policy: KlTrialPolicy,
    seed: u64,
}

impl<'a> KarpLubyTrials<'a> {
    /// Builds the engine over a prepared candidate set.
    pub fn new(
        g: &'a UncertainBipartiteGraph,
        candidates: &'a CandidateSet,
        policy: KlTrialPolicy,
        seed: u64,
    ) -> Self {
        KarpLubyTrials {
            g,
            candidates,
            policy,
            seed,
        }
    }

    /// The executor trial count: one trial per candidate.
    pub fn trials(&self) -> u64 {
        self.candidates.len() as u64
    }

    /// Assembles the final report from a *complete* accumulator (one row
    /// per candidate, any order).
    ///
    /// # Panics
    /// Panics if `acc` does not cover every candidate exactly once.
    pub fn finalize(&self, mut acc: Vec<(u32, KlCandidate)>) -> KlReport {
        assert_eq!(
            acc.len(),
            self.candidates.len(),
            "finalize requires a completed run"
        );
        acc.sort_by_key(|&(i, _)| i);
        let mut probs: FxHashMap<crate::butterfly::Butterfly, f64> = FxHashMap::default();
        let mut trials_per_candidate = Vec::with_capacity(acc.len());
        let mut s_values = Vec::with_capacity(acc.len());
        let mut max_trials = 1u64;
        for (i, single) in acc {
            probs.insert(self.candidates.get(i as usize).butterfly, single.prob);
            trials_per_candidate.push(single.trials);
            s_values.push(single.s_value);
            max_trials = max_trials.max(single.trials);
        }
        KlReport {
            distribution: Distribution::from_estimates(probs, max_trials),
            trials_per_candidate,
            s_values,
        }
    }

    /// Karp-Luby trials actually consumed by the rows of a (possibly
    /// partial) accumulator — the server reports these as `trials_done`.
    pub fn consumed(acc: &[(u32, KlCandidate)]) -> u64 {
        acc.iter().map(|(_, s)| s.trials).sum()
    }
}

impl TrialEngine for KarpLubyTrials<'_> {
    type Acc = Vec<(u32, KlCandidate)>;
    type Scratch = ();

    fn new_acc(&self) -> Self::Acc {
        Vec::new()
    }

    fn new_scratch(&self) {}

    fn trial(&self, t: u64, _scratch: &mut (), acc: &mut Self::Acc) {
        let i = t as usize;
        acc.push((
            t as u32,
            kl_single_candidate(self.g, self.candidates, i, self.policy, self.seed),
        ));
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        into.extend(from);
    }

    fn phase(&self) -> &'static str {
        "ols.kl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::{enumerate_backbone_butterflies, Butterfly};
    use crate::engine::{Cancel, Executor};
    use crate::exact::{exact_distribution, ExactConfig};
    use bigraph::{GraphBuilder, Left, Right};

    /// Algorithm 4 over `cs`, sequentially, one candidate per executor
    /// trial.
    fn run(
        g: &UncertainBipartiteGraph,
        cs: &CandidateSet,
        policy: KlTrialPolicy,
        seed: u64,
    ) -> KlReport {
        let kl = KarpLubyTrials::new(g, cs, policy, seed);
        let acc = Executor::new(1).run(&kl, kl.trials(), &Cancel::never()).acc;
        kl.finalize(acc)
    }

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
    fn full_candidate_set_converges_to_exact() {
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let report = run(&g, &cs, KlTrialPolicy::Fixed(60_000), 13);
        let exact = exact_distribution(&g, ExactConfig::default()).unwrap();
        for (b, &p) in exact.iter() {
            let est = report.distribution.prob(b);
            assert!((est - p).abs() < 0.01, "{b}: est {est} vs exact {p}");
        }
    }

    #[test]
    fn heaviest_candidate_needs_no_trials() {
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let report = run(&g, &cs, KlTrialPolicy::Fixed(100), 1);
        // The weight-10 butterfly has no heavier rival: S_0 = 0, 0 trials,
        // P = Pr[E(B)] exactly.
        assert_eq!(report.trials_per_candidate[0], 0);
        assert_eq!(report.s_values[0], 0.0);
        let b0 = cs.get(0).butterfly;
        assert!((report.distribution.prob(&b0) - cs.get(0).existence_prob).abs() < 1e-15);
    }

    #[test]
    fn s_values_are_monotone_with_position_within_fig1() {
        // S_i sums residual masses over strictly heavier candidates; the
        // lighter the candidate, the more (or equal) events accumulate.
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let report = run(&g, &cs, KlTrialPolicy::Fixed(10), 2);
        // Same weight class ⇒ same L(i) ⇒ both tied candidates see the
        // single heavier butterfly.
        assert_eq!(report.s_values.len(), 3);
        assert!(report.s_values[1] > 0.0 && report.s_values[2] > 0.0);
    }

    #[test]
    fn dynamic_policy_clamps() {
        let p = KlTrialPolicy::Dynamic {
            mu: 0.05,
            base: 20_000,
            min: 500,
            cap: 2_000,
        };
        // Tiny existence probability → ratio ≤ 0 → min clamp.
        assert_eq!(p.trials_for(0.01, 1.0), 500);
        // Large existence probability and S → cap clamp.
        assert_eq!(p.trials_for(0.9, 5.0), 2_000);
        // Fixed ignores inputs.
        assert_eq!(KlTrialPolicy::Fixed(7).trials_for(0.5, 3.0), 7);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let r1 = run(&g, &cs, KlTrialPolicy::Fixed(500), 3);
        let r2 = run(&g, &cs, KlTrialPolicy::Fixed(500), 3);
        assert_eq!(r1.distribution.max_abs_diff(&r2.distribution), 0.0);
        assert_eq!(r1.trials_per_candidate, r2.trials_per_candidate);
    }

    #[test]
    fn certain_heavier_rival_zeroes_the_estimate() {
        // B_heavy has p=1 edges; B_light can exist but is never maximum.
        let mut b = GraphBuilder::new();
        for (u, v) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)] {
            b.add_edge(Left(u), Right(v), 5.0, 1.0).unwrap();
        }
        for (u, v) in [(2u32, 2u32), (2, 3), (3, 2), (3, 3)] {
            b.add_edge(Left(u), Right(v), 1.0, 0.9).unwrap();
        }
        let g = b.build().unwrap();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let report = run(&g, &cs, KlTrialPolicy::Fixed(200), 4);
        let light = Butterfly::new(Left(2), Left(3), Right(2), Right(3));
        assert_eq!(report.distribution.prob(&light), 0.0);
        let heavy = Butterfly::new(Left(0), Left(1), Right(0), Right(1));
        assert_eq!(report.distribution.prob(&heavy), 1.0);
    }

    #[test]
    fn report_totals() {
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let report = run(&g, &cs, KlTrialPolicy::Fixed(100), 5);
        assert_eq!(report.total_trials(), 200, "2 non-top candidates x 100");
    }
}

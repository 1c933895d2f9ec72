//! Targeted queries: estimate `P(B)` for a *given* butterfly.
//!
//! The solvers answer the arg-max question; applications often also need
//! the probability of one specific butterfly (e.g. "how likely is this
//! recommendation pair to be the strongest signal?"). Two routes:
//!
//! * [`QueryTrials`] — conditioned sampling: since
//!   `P(B) = Pr[E(B)] · Pr[no heavier butterfly exists | E(B)]`, force
//!   `B`'s edges present, sample the rest lazily in weight order, and
//!   count trials where nothing heavier materializes. The conditioning
//!   removes the `Pr[E(B)]` factor from the variance, so the estimate
//!   needs ~`Pr[E(B)]⁻¹` fewer trials than waiting for `B` to appear in
//!   unconditioned OS runs (the same trick Karp-Luby exploits).
//! * The exact engine ([`crate::exact`]) for small instances.

use crate::butterfly::Butterfly;
use crate::engine::TrialEngine;
use crate::os::{OsConfig, OsEngine, SamplingOracle};
use bigraph::{trial_rng, EdgeId, LazyEdgeSampler, UncertainBipartiteGraph, Weight};

/// Result of a conditioned probability query.
#[derive(Clone, Copy, Debug)]
pub struct QueryResult {
    /// `Pr[E(B)]`, computed exactly from the edge probabilities.
    pub existence_prob: f64,
    /// Estimated `Pr[B ∈ S_MB | E(B)]`.
    pub conditional_max_prob: f64,
    /// The product: the estimated `P(B)`.
    pub prob: f64,
    /// Trials used.
    pub trials: u64,
}

/// Conditioned sampling for one target butterfly as a [`TrialEngine`]:
/// each trial forces `B`'s edges present, runs an OS trial over the
/// rest, and counts a hit when nothing strictly heavier materializes.
/// The accumulator is the hit count — merging is addition.
pub struct QueryTrials<'g> {
    g: &'g UncertainBipartiteGraph,
    cfg: OsConfig,
    edges: [EdgeId; 4],
    existence_prob: f64,
    w_b: Weight,
    seed: u64,
}

impl<'g> QueryTrials<'g> {
    /// Builds the engine; `None` if `b` is not a backbone butterfly.
    pub fn new(g: &'g UncertainBipartiteGraph, b: &Butterfly, seed: u64) -> Option<Self> {
        Some(QueryTrials {
            g,
            cfg: OsConfig::default(),
            edges: b.edges(g)?,
            existence_prob: b.existence_prob(g)?,
            w_b: b.weight(g)?,
            seed,
        })
    }

    /// Assembles the query result from a hit count over `trials` trials.
    pub fn finalize(&self, hits: u64, trials: u64) -> QueryResult {
        let conditional = hits as f64 / trials as f64;
        QueryResult {
            existence_prob: self.existence_prob,
            conditional_max_prob: conditional,
            prob: self.existence_prob * conditional,
            trials,
        }
    }
}

impl<'g> TrialEngine for QueryTrials<'g> {
    type Acc = u64;
    type Scratch = (OsEngine<'g>, LazyEdgeSampler, Vec<Butterfly>);

    fn new_acc(&self) -> u64 {
        0
    }

    fn new_scratch(&self) -> Self::Scratch {
        (
            OsEngine::new(self.g, &self.cfg),
            LazyEdgeSampler::new(self.g.num_edges()),
            Vec::new(),
        )
    }

    fn trial(&self, t: u64, (engine, sampler, smb): &mut Self::Scratch, hits: &mut u64) {
        let mut rng = trial_rng(self.seed, t);
        sampler.begin_trial();
        for &e in &self.edges {
            sampler.force_present(e);
        }
        let mut oracle = SamplingOracle::new(self.g, sampler, &mut rng);
        let w_max = engine.trial(&mut oracle, smb);
        // B is maximum iff nothing strictly heavier exists. B itself is
        // present (forced), so w_max ≥ w(B) always; equality means B ties
        // for the maximum, which Equation 3 counts as "maximum".
        if w_max <= self.w_b {
            *hits += 1;
        }
    }

    fn merge(&self, into: &mut u64, from: u64) {
        *into += from;
    }

    fn phase(&self) -> &'static str {
        "query.sample"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Cancel, Executor};
    use crate::exact::{exact_distribution, ExactConfig};
    use bigraph::{GraphBuilder, Left, Right};

    /// `trials` conditioned trials for `b`; `None` off the backbone.
    fn query(
        g: &UncertainBipartiteGraph,
        b: &Butterfly,
        trials: u64,
        seed: u64,
    ) -> Option<QueryResult> {
        let engine = QueryTrials::new(g, b, seed)?;
        let hits = Executor::new(1).run(&engine, trials, &Cancel::never()).acc;
        Some(engine.finalize(hits, trials))
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
    fn conditioned_estimates_match_exact_for_every_butterfly() {
        let g = fig1();
        let exact = exact_distribution(&g, ExactConfig::default()).unwrap();
        for b in crate::enumerate_backbone_butterflies(&g) {
            let q = query(&g, &b, 30_000, 7).unwrap();
            let p = exact.prob(&b);
            assert!(
                (q.prob - p).abs() < 0.01,
                "{b}: est {} vs exact {p}",
                q.prob
            );
            assert!((0.0..=1.0).contains(&q.conditional_max_prob));
            assert!((q.existence_prob - b.existence_prob(&g).unwrap()).abs() < 1e-15);
        }
    }

    #[test]
    fn heaviest_butterfly_is_always_conditionally_maximum() {
        let g = fig1();
        let heavy = Butterfly::new(Left(0), Left(1), Right(0), Right(1));
        let q = query(&g, &heavy, 500, 3).unwrap();
        assert_eq!(q.conditional_max_prob, 1.0);
        assert!((q.prob - q.existence_prob).abs() < 1e-15);
    }

    #[test]
    fn non_backbone_butterfly_returns_none() {
        let g = fig1();
        let bogus = Butterfly::new(Left(0), Left(5), Right(0), Right(1));
        assert!(query(&g, &bogus, 10, 0).is_none());
    }

    #[test]
    fn conditioning_beats_unconditioned_sampling_at_low_existence() {
        // A butterfly with tiny Pr[E(B)] but conditional probability 1:
        // unconditioned OS would need ~1/Pr[E] trials to even see it once;
        // the conditioned query nails it with a handful.
        let mut bld = GraphBuilder::new();
        for (u, v) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            bld.add_edge(Left(u), Right(v), 5.0, 0.05).unwrap();
        }
        let g = bld.build().unwrap();
        let b = Butterfly::new(Left(0), Left(1), Right(0), Right(1));
        let q = query(&g, &b, 50, 4).unwrap();
        let expect = 0.05f64.powi(4);
        assert!((q.prob - expect).abs() < 1e-12, "q={} vs {expect}", q.prob);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = fig1();
        let b = Butterfly::new(Left(0), Left(1), Right(1), Right(2));
        let q1 = query(&g, &b, 2_000, 9).unwrap();
        let q2 = query(&g, &b, 2_000, 9).unwrap();
        assert_eq!(q1.prob, q2.prob);
    }
}

//! The paper's optimized probability estimator (Algorithm 5).
//!
//! All candidates **share each trial**: candidates are scanned in weight
//! order, each butterfly's edges are sampled lazily (memoized within the
//! trial, so shared edges are drawn once), and the scan stops at the first
//! weight class below the heaviest existing butterfly. One trial therefore
//! costs `O(|C_MB|)` worst case but typically far less — versus Karp-Luby's
//! per-candidate trials (`O(N·|C_MB|²)` total, Lemma VI.2 vs VI.3).

use crate::butterfly::Butterfly;
use crate::candidates::CandidateSet;
use crate::distribution::Tally;
use crate::engine::TrialEngine;
use bigraph::fx::FxHashMap;
use bigraph::{trial_rng, LazyEdgeSampler, UncertainBipartiteGraph};

/// Algorithm 5's shared trial as a [`TrialEngine`]: scan candidates in
/// weight order, sample their edges lazily (memoized within the trial),
/// stop below the first existing weight class, tally the survivors.
///
/// The memo covers only the candidates' edges: construction numbers
/// their distinct edges densely (in first-touch order) and keeps each
/// one's acceptance threshold, so a trial's memo is a few thousand
/// cache-resident slots rather than a stamp per graph edge. Outcomes are
/// drawn from the same stream position as a whole-graph
/// [`LazyEdgeSampler`] would draw them — the first touch of an edge
/// consumes the next word either way — so answers are bit-identical.
pub struct OptimizedTrials<'a> {
    candidates: &'a CandidateSet,
    seed: u64,
    /// Each candidate's four edges as memo slots, in candidate order.
    slots: Vec<[u32; 4]>,
    /// Acceptance threshold of each slot's edge.
    accept: Vec<u64>,
}

impl<'a> OptimizedTrials<'a> {
    /// Builds the engine over a prepared candidate set.
    pub fn new(g: &UncertainBipartiteGraph, candidates: &'a CandidateSet, seed: u64) -> Self {
        let mut slot_of = FxHashMap::default();
        let mut accept = Vec::new();
        let slots = candidates
            .iter()
            .map(|cand| {
                cand.edges.map(|e| {
                    *slot_of.entry(e).or_insert_with(|| {
                        accept.push(g.accept_threshold(e));
                        accept.len() as u32 - 1
                    })
                })
            })
            .collect();
        OptimizedTrials {
            candidates,
            seed,
            slots,
            accept,
        }
    }
}

impl TrialEngine for OptimizedTrials<'_> {
    type Acc = Tally;
    type Scratch = (LazyEdgeSampler, Vec<Butterfly>);

    fn new_acc(&self) -> Tally {
        Tally::new()
    }

    fn new_scratch(&self) -> Self::Scratch {
        (LazyEdgeSampler::new(self.accept.len()), Vec::new())
    }

    fn trial(&self, t: u64, (memo, smb): &mut Self::Scratch, tally: &mut Tally) {
        let mut rng = trial_rng(self.seed, t);
        memo.begin_trial();
        smb.clear();
        let mut w_max = f64::NEG_INFINITY;
        for (cand, slots) in self.candidates.iter().zip(&self.slots) {
            // Algorithm 5 lines 5–6: strictly lighter candidates cannot be
            // maximum once some butterfly exists.
            if cand.weight < w_max {
                break;
            }
            // Lines 7–10: sample unseen edges, memoized within the trial.
            let exists = slots.iter().all(|&s| {
                let s = s as usize;
                memo.is_present_slot(s, self.accept[s], &mut rng)
            });
            if exists {
                smb.push(cand.butterfly);
                w_max = cand.weight;
            }
        }
        tally.record_trial(smb.iter());
    }

    fn merge(&self, into: &mut Tally, from: Tally) {
        into.merge(from);
    }

    fn phase(&self) -> &'static str {
        "ols.sample"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::enumerate_backbone_butterflies;
    use crate::distribution::Distribution;
    use crate::engine::{Cancel, Executor};
    use crate::exact::{exact_distribution, ExactConfig};
    use bigraph::{GraphBuilder, Left, Right};

    /// Algorithm 5: `trials` shared trials over `cs`, sequentially.
    fn run(g: &UncertainBipartiteGraph, cs: &CandidateSet, trials: u64, seed: u64) -> Distribution {
        Executor::new(1)
            .run(&OptimizedTrials::new(g, cs, seed), trials, &Cancel::never())
            .acc
            .into_distribution()
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
        // With C_MB = all butterflies there is no truncation error
        // (Lemma VI.5 bound is 0), so estimates converge to exact P(B).
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let d = run(&g, &cs, 60_000, 21);
        let exact = exact_distribution(&g, ExactConfig::default()).unwrap();
        for (b, &p) in exact.iter() {
            assert!(
                (d.prob(b) - p).abs() < 0.01,
                "{b}: est {} vs exact {}",
                d.prob(b),
                p
            );
        }
    }

    #[test]
    fn tied_candidates_all_get_sampled() {
        // Two disjoint butterflies with equal weight: both should be able
        // to be maximum in the same trial (S_MB ties).
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            b.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
        }
        for (u, v) in [(2, 2), (2, 3), (3, 2), (3, 3)] {
            b.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let d = run(&g, &cs, 100, 1);
        // Both certain and tied: each is always a maximum butterfly.
        for c in cs.iter() {
            assert_eq!(d.prob(&c.butterfly), 1.0, "{}", c.butterfly);
        }
    }

    #[test]
    fn shared_edges_drawn_once_per_trial() {
        // Two butterflies overlapping in two edges, equal weight. If the
        // shared edges were redrawn independently the joint behaviour
        // would be wrong; with p = 1 on shared edges and p = 0 elsewhere
        // the lighter candidate must never exist.
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 1.0).unwrap();
        b.add_edge(Left(0), Right(1), 1.0, 1.0).unwrap();
        b.add_edge(Left(1), Right(0), 1.0, 1.0).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 1.0).unwrap();
        b.add_edge(Left(2), Right(0), 1.0, 0.0).unwrap();
        b.add_edge(Left(2), Right(1), 1.0, 0.0).unwrap();
        let g = b.build().unwrap();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let d = run(&g, &cs, 200, 2);
        let certain = crate::butterfly::Butterfly::new(Left(0), Left(1), Right(0), Right(1));
        assert_eq!(d.prob(&certain), 1.0);
        assert_eq!(d.len(), 1, "impossible butterflies acquired mass");
    }

    #[test]
    fn deterministic_across_runs() {
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let d1 = run(&g, &cs, 1_000, 5);
        let d2 = run(&g, &cs, 1_000, 5);
        assert_eq!(d1.max_abs_diff(&d2), 0.0);
    }

    #[test]
    fn empty_candidate_set_yields_empty_distribution() {
        let g = fig1();
        let cs = CandidateSet::from_butterflies(&g, []);
        let d = run(&g, &cs, 10, 0);
        assert!(d.is_empty());
    }
}

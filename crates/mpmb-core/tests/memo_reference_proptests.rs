//! The OLS sampling engine's candidate-local memo against a test-only
//! reference: the same shared trial memoized over **every** graph edge
//! with a [`LazyEdgeSampler`] (the estimator's previous kernel). Both
//! must consume the trial stream identically, so tallies must match bit
//! for bit at every thread count and across a cancel-then-resume split.

use bigraph::{trial_rng, GraphBuilder, LazyEdgeSampler, Left, Right, UncertainBipartiteGraph};
use mpmb_core::{
    enumerate_backbone_butterflies, Butterfly, Cancel, CandidateSet, Executor, OlsConfig,
    OptimizedTrials, PrepareTrials, Tally, TrialEngine,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Algorithm 5's shared trial with a whole-graph memo.
struct WholeGraphMemo<'a> {
    g: &'a UncertainBipartiteGraph,
    candidates: &'a CandidateSet,
    seed: u64,
}

impl TrialEngine for WholeGraphMemo<'_> {
    type Acc = Tally;
    type Scratch = (LazyEdgeSampler, Vec<Butterfly>);

    fn new_acc(&self) -> Tally {
        Tally::new()
    }

    fn new_scratch(&self) -> Self::Scratch {
        (LazyEdgeSampler::new(self.g.num_edges()), Vec::new())
    }

    fn trial(&self, t: u64, (sampler, smb): &mut Self::Scratch, tally: &mut Tally) {
        let mut rng = trial_rng(self.seed, t);
        sampler.begin_trial();
        smb.clear();
        let mut w_max = f64::NEG_INFINITY;
        for cand in self.candidates.iter() {
            if cand.weight < w_max {
                break;
            }
            if cand
                .edges
                .iter()
                .all(|&e| sampler.is_present(self.g, e, &mut rng))
            {
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
        "reference"
    }
}

/// ≤ 40 edges over a 7×7 grid, few weight classes so ties and shared
/// edges between candidates are common.
fn arb_graph() -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0u32..7, 0u32..7), 0..=40).prop_flat_map(|pairs| {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let n = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(0u32..=3, n..=n),
            proptest::collection::vec(0u32..=10, n..=n),
        )
            .prop_map(|(pairs, ws, ps)| {
                pairs
                    .into_iter()
                    .zip(ws.iter().zip(ps.iter()))
                    .map(|((u, v), (&w, &p))| (u, v, w as f64, p as f64 / 10.0))
                    .collect()
            })
    })
}

fn build(edges: &[(u32, u32, f64, f64)]) -> UncertainBipartiteGraph {
    let mut b = GraphBuilder::new();
    for &(u, v, w, p) in edges {
        b.add_edge(Left(u), Right(v), w, p).unwrap();
    }
    b.build().unwrap()
}

fn tally_bytes(t: &Tally) -> (u64, BTreeMap<Butterfly, u64>) {
    (t.trials(), t.counts().map(|(b, &c)| (*b, c)).collect())
}

/// Runs `engine` on `threads` workers, cancelled every `budget` trials
/// and resumed until done.
fn run_split<E: TrialEngine>(engine: &E, trials: u64, threads: usize, budget: u64) -> E::Acc {
    let exec = Executor::new(threads).check_every(8);
    let mut partial = exec.run(engine, trials, &Cancel::after_trials(budget));
    while !partial.completed() {
        exec.resume(engine, &mut partial, &Cancel::after_trials(budget));
    }
    partial.acc
}

proptest! {
    #[test]
    fn candidate_local_memo_equals_whole_graph_memo(
        edges in arb_graph(),
        seed in 0u64..1_000,
        budget in 1u64..200,
        from_prep in any::<bool>(),
    ) {
        let g = build(&edges);
        // Either every backbone butterfly (many overlapping candidates)
        // or a preparing phase's union (the production candidate set).
        let cands = if from_prep {
            let (cfg, prep_trials) = (OlsConfig { seed, ..Default::default() }, 32);
            let prep = PrepareTrials::new(&g, &cfg);
            prep.finalize(Executor::new(1).run(&prep, prep_trials, &Cancel::never()).acc)
        } else {
            CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g))
        };
        let trials = 200u64;
        let reference = WholeGraphMemo { g: &g, candidates: &cands, seed };
        let want = tally_bytes(&Executor::new(1).run(&reference, trials, &Cancel::never()).acc);
        let engine = OptimizedTrials::new(&g, &cands, seed);
        for threads in [1usize, 2, 3] {
            let got = Executor::new(threads).run(&engine, trials, &Cancel::never());
            prop_assert_eq!(&tally_bytes(&got.acc), &want, "threads={}", threads);
            let split = run_split(&engine, trials, threads, budget);
            prop_assert_eq!(&tally_bytes(&split), &want, "threads={} budget={}", threads, budget);
        }
    }
}

//! Property-based verification of the unified trial engine.
//!
//! The executor's determinism contract, checked against every real
//! sampler (not just toy engines): for any thread count, any
//! cancellation point, and any resume schedule, completing all `N`
//! trials produces an accumulator **bit-identical** to one sequential
//! uninterrupted pass. This is what lets the server cache a timed-out
//! run's `Partial` and refine it on the next request without changing
//! the answer.

use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
use mpmb_core::{
    enumerate_backbone_butterflies, run_os_adaptive, AdaptiveConfig, Butterfly, Cancel,
    CandidateSet, Executor, FastSample, KarpLubyTrials, KlCandidate, KlTrialPolicy, McVpTrials,
    OptimizedTrials, OsConfig, OsTrials, Partial, PrepareTrials, SublinearTrials, Tally,
    TrialEngine,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Same generator as the listing proptests: ≤ 24 edges over a 6×6 grid
/// so multi-butterfly graphs are common.
fn arb_graph() -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0u32..6, 0u32..6), 0..=24).prop_flat_map(|pairs| {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let n = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(0u32..=64, n..=n),
            proptest::collection::vec(0u32..=10, n..=n),
        )
            .prop_map(|(pairs, ws, ps)| {
                pairs
                    .into_iter()
                    .zip(ws.iter().zip(ps.iter()))
                    .map(|((u, v), (&w, &p))| (u, v, w as f64 / 4.0, p as f64 / 10.0))
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

/// A tally, flattened to comparable bytes (count maps are unordered).
fn tally_bytes(t: &Tally) -> (u64, BTreeMap<Butterfly, u64>) {
    (t.trials(), t.counts().map(|(b, &c)| (*b, c)).collect())
}

/// A Karp-Luby accumulator, flattened to comparable bytes: rows sorted
/// by candidate index, floats compared via `to_bits`.
fn kl_bytes(acc: &[(u32, KlCandidate)]) -> Vec<(u32, u64, u64, u64)> {
    let mut rows: Vec<_> = acc
        .iter()
        .map(|&(i, c)| (i, c.prob.to_bits(), c.trials, c.s_value.to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

/// Runs `engine` to completion in one uninterrupted sequential pass,
/// then re-runs it cancelled at `budget` trials and resumed to
/// completion on `threads` workers, and hands both accumulators to
/// `check` for a bit-level comparison.
fn run_interrupted<E: TrialEngine>(
    engine: &E,
    trials: u64,
    budget: u64,
    threads: usize,
    check_every: u64,
) -> (E::Acc, Partial<E::Acc>) {
    let baseline = Executor::new(1)
        .check_every(check_every)
        .run(engine, trials, &Cancel::never());
    assert!(baseline.completed());

    let exec = Executor::new(threads).check_every(check_every);
    let mut partial = exec.run(engine, trials, &Cancel::after_trials(budget));
    // Resume (possibly repeatedly) until done; each resume gets its own
    // small budget so completion is reached over several schedules.
    let mut guard = 0;
    while !partial.completed() {
        exec.resume(engine, &mut partial, &Cancel::after_trials(budget.max(1)));
        guard += 1;
        assert!(guard < 10_000, "resume failed to make progress");
    }
    (baseline.acc, partial)
}

/// Block sizes exercised by the cancel/resume tests.
const CHECK_GRAINS: [u64; 4] = [1, 7, 16, 64];

proptest! {
    /// OS and MC-VP: parallel execution is bit-identical to sequential
    /// for every thread count.
    #[test]
    fn tally_engines_parallel_is_bit_identical(
        edges in arb_graph(),
        seed in 0u64..1_000,
    ) {
        let g = build(&edges);
        let trials = 160u64;
        let os = OsTrials::new(&g, &OsConfig { seed, ..Default::default() });
        let mcvp = McVpTrials::new(&g, seed);

        let os_seq = Executor::new(1).run(&os, trials, &Cancel::never());
        let mc_seq = Executor::new(1).run(&mcvp, trials, &Cancel::never());
        for threads in THREAD_COUNTS {
            let os_par = Executor::new(threads).run(&os, trials, &Cancel::never());
            prop_assert!(os_par.completed());
            prop_assert_eq!(tally_bytes(&os_par.acc), tally_bytes(&os_seq.acc), "os threads={}", threads);
            let mc_par = Executor::new(threads).run(&mcvp, trials, &Cancel::never());
            prop_assert_eq!(tally_bytes(&mc_par.acc), tally_bytes(&mc_seq.acc), "mcvp threads={}", threads);
        }
    }

    /// OS and MC-VP: cancelling at an arbitrary block boundary and
    /// resuming to completion — on an arbitrary worker count — lands on
    /// the exact bytes of the uninterrupted run.
    #[test]
    fn tally_engines_cancel_resume_is_bit_identical(
        edges in arb_graph(),
        seed in 0u64..1_000,
        budget in 1u64..160,
        threads_idx in 0usize..THREAD_COUNTS.len(),
        grain_idx in 0usize..CHECK_GRAINS.len(),
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let check_every = CHECK_GRAINS[grain_idx];
        let g = build(&edges);
        let trials = 160u64;
        let os = OsTrials::new(&g, &OsConfig { seed, ..Default::default() });
        let (base, resumed) = run_interrupted(&os, trials, budget, threads, check_every);
        prop_assert_eq!(tally_bytes(&resumed.acc), tally_bytes(&base), "os");

        let mcvp = McVpTrials::new(&g, seed);
        let (base, resumed) = run_interrupted(&mcvp, trials, budget, threads, check_every);
        prop_assert_eq!(tally_bytes(&resumed.acc), tally_bytes(&base), "mcvp");
    }

    /// The full OLS pipeline — preparing phase and optimized estimator —
    /// under cancellation, resume, and parallelism. The preparing
    /// union's *finalized* candidate set must be schedule-independent,
    /// and the sampling tally bit-identical.
    #[test]
    fn ols_engines_cancel_resume_is_bit_identical(
        edges in arb_graph(),
        seed in 0u64..1_000,
        budget in 1u64..120,
        threads_idx in 0usize..THREAD_COUNTS.len(),
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let g = build(&edges);
        let prep_trials = 48;

        let prep = PrepareTrials::new(&g, seed);
        let (base_union, resumed) = run_interrupted(&prep, prep_trials, budget.min(47), threads, 16);
        let base_cands = prep.finalize(base_union);
        let cands = prep.finalize(resumed.acc);
        prop_assert_eq!(base_cands.len(), cands.len());
        for i in 0..cands.len() {
            prop_assert_eq!(base_cands.get(i).butterfly, cands.get(i).butterfly, "candidate {}", i);
            prop_assert_eq!(base_cands.get(i).weight.to_bits(), cands.get(i).weight.to_bits());
        }

        let trials = 120u64;
        let opt = OptimizedTrials::new(&g, &cands, seed);
        let (base, resumed) = run_interrupted(&opt, trials, budget, threads, 16);
        prop_assert_eq!(tally_bytes(&resumed.acc), tally_bytes(&base), "optimized");
    }

    /// Karp-Luby: candidate-granular cancellation and resume (executor
    /// trial = one candidate, `check_every(1)`) reproduces the
    /// uninterrupted accumulator bitwise, rows included.
    #[test]
    fn karp_luby_cancel_resume_is_bit_identical(
        edges in arb_graph(),
        seed in 0u64..1_000,
        budget in 1u64..8,
        threads_idx in 0usize..THREAD_COUNTS.len(),
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let g = build(&edges);
        let cands = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        if cands.is_empty() {
            return Ok(());
        }
        let kl = KarpLubyTrials::new(&g, &cands, KlTrialPolicy::Fixed(64), seed);
        let trials = kl.trials();
        let (base, resumed) = run_interrupted(&kl, trials, budget.min(trials), threads, 1);
        prop_assert_eq!(kl_bytes(&resumed.acc), kl_bytes(&base));
        // And the finalized reports agree exactly.
        let a = kl.finalize(base);
        let b = kl.finalize(resumed.acc);
        prop_assert_eq!(a.distribution.max_abs_diff(&b.distribution), 0.0);
        prop_assert_eq!(a.trials_per_candidate, b.trials_per_candidate);
    }

    /// The sublinear fast tier: cancel/resume on any worker count lands
    /// on the same index-tagged rows — and therefore the same finalized
    /// estimate bits — as the uninterrupted sequential run.
    #[test]
    fn sublinear_cancel_resume_is_bit_identical(
        edges in arb_graph(),
        seed in 0u64..1_000,
        budget in 1u64..160,
        threads_idx in 0usize..THREAD_COUNTS.len(),
        grain_idx in 0usize..CHECK_GRAINS.len(),
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let check_every = CHECK_GRAINS[grain_idx];
        let g = build(&edges);
        let trials = 160u64;
        let engine = SublinearTrials::new(&g, seed);
        let (base, resumed) = run_interrupted(&engine, trials, budget, threads, check_every);
        prop_assert_eq!(fast_bytes(&resumed.acc), fast_bytes(&base));
        let a = engine.finalize(base, 0.1);
        let b = engine.finalize(resumed.acc, 0.1);
        prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        prop_assert_eq!(a.variance.to_bits(), b.variance.to_bits());
        prop_assert_eq!(a.ci_low.to_bits(), b.ci_low.to_bits());
        prop_assert_eq!(a.ci_high.to_bits(), b.ci_high.to_bits());
    }

    /// The adaptive OS driver at `threads` ∈ {1,2,3,8}: every thread
    /// count stops at the same batch with the same distribution bits —
    /// the `--threads N` flag can never change an adaptive answer.
    #[test]
    fn adaptive_threads_are_bit_identical(
        edges in arb_graph(),
        seed in 0u64..1_000,
    ) {
        let g = build(&edges);
        let base_cfg = AdaptiveConfig {
            epsilon: 0.4,
            delta: 0.3,
            batch: 100,
            max_trials: 600,
            seed,
            threads: 1,
            ..Default::default()
        };
        let sequential = run_os_adaptive(&g, &base_cfg);
        for threads in THREAD_COUNTS {
            let parallel = run_os_adaptive(&g, &AdaptiveConfig { threads, ..base_cfg });
            prop_assert_eq!(parallel.trials_used, sequential.trials_used, "threads={}", threads);
            prop_assert_eq!(parallel.bound_satisfied, sequential.bound_satisfied);
            prop_assert_eq!(parallel.target, sequential.target);
            prop_assert_eq!(
                parallel.distribution.max_abs_diff(&sequential.distribution),
                0.0,
                "threads={}",
                threads
            );
        }
    }
}

/// A fast accumulator, flattened to comparable bytes: rows sorted by
/// trial index (the merge order is schedule-dependent, the set is not).
fn fast_bytes(acc: &[FastSample]) -> Vec<FastSample> {
    let mut rows = acc.to_vec();
    rows.sort_unstable();
    rows
}

//! The Ordering Sampling kernel against brute force.
//!
//! Graphs carry only 2–4 distinct edge weights, so ties are the rule and
//! the scan's prunes (the §V-B break, the partner-head prune and the
//! per-partner break) keep landing exactly on tie boundaries, where a
//! `<` turned `<=` drops a maximum butterfly. Endpoint sides fall both
//! below and above `SlotTable`'s direct-index bound, under both middle
//! sides, so both slot index paths run.
//!
//! Two properties:
//! * per world, `os_smb_of_world` equals `max_butterflies_in_world`
//!   under every prune setting;
//! * `OsTrials` tallies equal a reference that draws one word per edge
//!   for the *whole* scan order (no prune at all), builds that world and
//!   brute-forces it — at threads 1, 2 and 3 and across
//!   cancel-then-resume splits. The kernel draws a prefix of the same
//!   words, so any change to what it consumes, or to which butterflies
//!   it keeps, shows here.

use bigraph::{
    accept_word, fixed_point_threshold, trial_rng, EdgeId, GraphBuilder, Left, PossibleWorld,
    Right, Side, UncertainBipartiteGraph,
};
use mpmb_core::angle::DIRECT_MAX_PAIRS;
use mpmb_core::{
    max_butterflies_in_world, os_smb_of_world, Butterfly, Cancel, Executor, OsConfig, OsTrials,
    Tally, TrialEngine,
};
use proptest::prelude::*;
use rand::RngCore;
use std::collections::BTreeMap;

/// Draws every edge of the scan order from the trial stream, then
/// brute-forces the world's maximum butterflies.
struct FullScanReference<'a> {
    g: &'a UncertainBipartiteGraph,
    seed: u64,
}

impl TrialEngine for FullScanReference<'_> {
    type Acc = Tally;
    type Scratch = PossibleWorld;

    fn new_acc(&self) -> Tally {
        Tally::new()
    }

    fn new_scratch(&self) -> PossibleWorld {
        PossibleWorld::empty(self.g.num_edges())
    }

    fn trial(&self, t: u64, world: &mut PossibleWorld, tally: &mut Tally) {
        let mut rng = trial_rng(self.seed, t);
        world.clear();
        for &e in self.g.desc_edge_ids() {
            let e = EdgeId(e);
            world.set(
                e,
                accept_word(rng.next_u64(), fixed_point_threshold(self.g.prob(e))),
            );
        }
        let (_, smb) = max_butterflies_in_world(self.g, world);
        tally.record_trial(smb.iter());
    }

    fn merge(&self, into: &mut Tally, from: Tally) {
        into.merge(from);
    }

    fn phase(&self) -> &'static str {
        "reference"
    }
}

/// The largest endpoint side `SlotTable` still indexes directly.
fn direct_side_max() -> u32 {
    (1..)
        .take_while(|&n: &u32| (n * (n - 1) / 2) as usize <= DIRECT_MAX_PAIRS)
        .last()
        .unwrap()
}

/// A graph on a 6×6 core grid (≤ 30 random edges plus `(5, 5)`), each
/// side's ids optionally spread out by a stride so that side has more
/// vertices than the direct-index bound. Weights take 2–4 distinct
/// values; probabilities are multiples of 0.1, 1.0 included.
fn arb_graph() -> impl Strategy<Value = UncertainBipartiteGraph> {
    (
        proptest::collection::btree_set((0u32..6, 0u32..6), 0..=30),
        2usize..=4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_flat_map(|(mut pairs, classes, wide_left, wide_right)| {
            pairs.insert((5, 5));
            let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
            let n = pairs.len();
            (
                Just((pairs, wide_left, wide_right)),
                proptest::collection::vec(0usize..classes, n..=n),
                proptest::collection::vec(0u32..=10, n..=n),
            )
        })
        .prop_map(|((pairs, wide_left, wide_right), ws, ps)| {
            // The spread-out side's largest id, 5·stride, lands past the
            // direct-index bound.
            let stride = direct_side_max() / 5 + 1;
            let (ls, rs) = (
                if wide_left { stride } else { 1 },
                if wide_right { stride } else { 1 },
            );
            const WEIGHTS: [f64; 4] = [4.0, 2.5, 1.5, 1.0];
            let mut b = GraphBuilder::new();
            for ((u, v), (&w, &p)) in pairs.iter().zip(ws.iter().zip(&ps)) {
                b.add_edge(Left(u * ls), Right(v * rs), WEIGHTS[w], p as f64 / 10.0)
                    .unwrap();
            }
            b.build().unwrap()
        })
}

fn sorted(mut v: Vec<Butterfly>) -> Vec<Butterfly> {
    v.sort();
    v
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

const MIDDLES: [Option<Side>; 3] = [Some(Side::Left), Some(Side::Right), None];

proptest! {
    #[test]
    fn os_smb_of_world_equals_brute_force(g in arb_graph(), world_seed in any::<u64>()) {
        let mut rng = trial_rng(world_seed, 0);
        let mut worlds = vec![PossibleWorld::full(&g)];
        for _ in 0..6 {
            let mut w = PossibleWorld::empty(g.num_edges());
            for e in g.edge_ids() {
                w.set(e, accept_word(rng.next_u64(), fixed_point_threshold(g.prob(e))));
            }
            worlds.push(w);
        }
        for (i, world) in worlds.iter().enumerate() {
            let (rw, rsmb) = max_butterflies_in_world(&g, world);
            let rsmb = sorted(rsmb);
            for middle_side in MIDDLES {
                for (edge_ordering, dynamic_wbar) in [(true, true), (true, false), (false, false)] {
                    let cfg = OsConfig { edge_ordering, dynamic_wbar, middle_side, ..Default::default() };
                    let (w, smb) = os_smb_of_world(&g, world, &cfg);
                    prop_assert_eq!(
                        &sorted(smb.clone()), &rsmb,
                        "world {} middle={:?} ordering={} dynamic={}",
                        i, middle_side, edge_ordering, dynamic_wbar
                    );
                    if !smb.is_empty() {
                        prop_assert_eq!(w, rw);
                    }
                }
            }
        }
    }

    #[test]
    fn os_trials_equal_the_full_scan_reference_at_any_split(
        g in arb_graph(),
        seed in 0u64..1_000,
        budget in 1u64..150,
        middle in 0usize..3,
    ) {
        let trials = 150u64;
        let reference = FullScanReference { g: &g, seed };
        let want = tally_bytes(&Executor::new(1).run(&reference, trials, &Cancel::never()).acc);
        let cfg = OsConfig { seed, middle_side: MIDDLES[middle], ..Default::default() };
        let engine = OsTrials::new(&g, &cfg);
        for threads in [1usize, 2, 3] {
            let got = Executor::new(threads).run(&engine, trials, &Cancel::never());
            prop_assert_eq!(&tally_bytes(&got.acc), &want, "threads={}", threads);
            let split = run_split(&engine, trials, threads, budget);
            prop_assert_eq!(&tally_bytes(&split), &want, "threads={} budget={}", threads, budget);
        }
    }
}

/// The strategy really reaches both index paths on both sides.
#[test]
fn generated_sides_straddle_the_direct_index_bound() {
    let n = direct_side_max();
    assert!((n * (n - 1) / 2) as usize <= DIRECT_MAX_PAIRS);
    assert!(((n + 1) * n / 2) as usize > DIRECT_MAX_PAIRS);
    let stride = n / 5 + 1;
    assert!(5 * stride + 1 > n, "a spread side exceeds the bound");
    assert!(6 <= n, "an unspread side stays under it");
}

//! The baseline: Monte-Carlo with Vertex Priority (Algorithm 1).
//!
//! Each trial samples a complete possible world, enumerates *every*
//! butterfly in it with BFC-VP-style vertex-priority wedge generation, and
//! tallies the maximum-weighted set `S_MB`. This is deliberately the
//! paper's naive baseline: no weight ordering, no angle pruning — all
//! angles are materialized and all butterflies created (Lemma IV.1 costs).

use crate::butterfly::Butterfly;
use crate::distribution::Tally;
use crate::engine::TrialEngine;
use bigraph::fx::FxHashMap;
use bigraph::{
    trial_rng, Left, PossibleWorld, Right, UncertainBipartiteGraph, Vertex, VertexPriority, Weight,
    WorldSampler,
};

/// Algorithm 1's per-trial body as a [`TrialEngine`]: sample a world,
/// list its `S_MB` with vertex-priority wedge generation, tally it.
pub struct McVpTrials<'g> {
    g: &'g UncertainBipartiteGraph,
    priority: VertexPriority,
    seed: u64,
}

impl<'g> McVpTrials<'g> {
    /// Builds the engine (precomputes the vertex priority once); trial
    /// `t` uses the derived stream `(seed, t)`. The trial count is the
    /// caller's (paper default `N_mc = 2·10⁴`).
    pub fn new(g: &'g UncertainBipartiteGraph, seed: u64) -> Self {
        McVpTrials {
            g,
            priority: VertexPriority::from_degrees(g),
            seed,
        }
    }
}

impl TrialEngine for McVpTrials<'_> {
    type Acc = Tally;
    type Scratch = (PossibleWorld, Vec<Butterfly>);

    fn new_acc(&self) -> Tally {
        Tally::new()
    }

    fn new_scratch(&self) -> Self::Scratch {
        (PossibleWorld::empty(self.g.num_edges()), Vec::new())
    }

    fn trial(&self, t: u64, (world, smb): &mut Self::Scratch, tally: &mut Tally) {
        let mut rng = trial_rng(self.seed, t);
        WorldSampler::sample_into(self.g, world, &mut rng);
        smb_of_world(self.g, &self.priority, world, smb);
        tally.record_trial(smb.iter());
    }

    fn merge(&self, into: &mut Tally, from: Tally) {
        into.merge(from);
    }

    fn phase(&self) -> &'static str {
        "mcvp.sample"
    }
}

/// Computes `S_MB(W)` of a fixed possible world with vertex-priority wedge
/// generation (the per-trial body of Algorithm 1, lines 5–17). Exposed so
/// tests can cross-validate it against brute force and against Ordering
/// Sampling on identical worlds. `smb` is an out-parameter for buffer
/// reuse across trials.
pub fn smb_of_world(
    g: &UncertainBipartiteGraph,
    priority: &VertexPriority,
    world: &PossibleWorld,
    smb: &mut Vec<Butterfly>,
) -> Weight {
    smb.clear();
    let mut best = f64::NEG_INFINITY;
    // Angle buckets for the current start vertex: endpoint -> (mid, w).
    let mut buckets: FxHashMap<u32, Vec<(u32, Weight)>> = FxHashMap::default();

    // Closure-free double dispatch over the two sides keeps the hot loop
    // monomorphic; the two passes are symmetric.
    for start_left in 0..g.num_left() as u32 {
        let u_i = Left(start_left);
        let rank_i = priority.rank(Vertex::L(u_i));
        buckets.clear();
        for (m, e1) in g.left_neighbors(u_i) {
            if !world.contains(e1) || priority.rank(Vertex::R(m)) >= rank_i {
                continue;
            }
            let w1 = g.weight(e1);
            for (k, e2) in g.right_neighbors(m) {
                if k == u_i || !world.contains(e2) || priority.rank(Vertex::L(k)) >= rank_i {
                    continue;
                }
                buckets
                    .entry(k.0)
                    .or_default()
                    .push((m.0, w1 + g.weight(e2)));
            }
        }
        flush_buckets(&mut buckets, |k, mids, wsum| {
            let b = Butterfly::new(u_i, Left(k), Right(mids.0), Right(mids.1));
            update_smb(&mut best, smb, b, wsum);
        });
    }
    for start_right in 0..g.num_right() as u32 {
        let v_i = Right(start_right);
        let rank_i = priority.rank(Vertex::R(v_i));
        buckets.clear();
        for (m, e1) in g.right_neighbors(v_i) {
            if !world.contains(e1) || priority.rank(Vertex::L(m)) >= rank_i {
                continue;
            }
            let w1 = g.weight(e1);
            for (k, e2) in g.left_neighbors(m) {
                if k == v_i || !world.contains(e2) || priority.rank(Vertex::R(k)) >= rank_i {
                    continue;
                }
                buckets
                    .entry(k.0)
                    .or_default()
                    .push((m.0, w1 + g.weight(e2)));
            }
        }
        flush_buckets(&mut buckets, |k, mids, wsum| {
            let b = Butterfly::new(Left(mids.0), Left(mids.1), v_i, Right(k));
            update_smb(&mut best, smb, b, wsum);
        });
    }
    if smb.is_empty() {
        0.0
    } else {
        best
    }
}

/// Emits every angle pair of every bucket: `(endpoint, (mid_a, mid_b),
/// combined weight)` — Algorithm 1 lines 11–13.
fn flush_buckets(
    buckets: &mut FxHashMap<u32, Vec<(u32, Weight)>>,
    mut emit: impl FnMut(u32, (u32, u32), Weight),
) {
    for (&k, angles) in buckets.iter() {
        for x in 0..angles.len() {
            for y in (x + 1)..angles.len() {
                let (mx, wx) = angles[x];
                let (my, wy) = angles[y];
                emit(k, (mx, my), wx + wy);
            }
        }
    }
}

/// Algorithm 1 lines 14–17: grow/replace the running maximum set.
#[inline]
fn update_smb(best: &mut Weight, smb: &mut Vec<Butterfly>, b: Butterfly, w: Weight) {
    match w.total_cmp(best) {
        std::cmp::Ordering::Greater => {
            *best = w;
            smb.clear();
            smb.push(b);
        }
        std::cmp::Ordering::Equal => smb.push(b),
        std::cmp::Ordering::Less => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::max_butterflies_in_world;
    use crate::distribution::Distribution;
    use crate::engine::{Cancel, Executor};
    use bigraph::GraphBuilder;

    /// `trials` MC-VP trials on stream `seed`, sequentially.
    fn run(g: &UncertainBipartiteGraph, trials: u64, seed: u64) -> Distribution {
        Executor::new(1)
            .run(&McVpTrials::new(g, seed), trials, &Cancel::never())
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

    fn sorted(mut v: Vec<Butterfly>) -> Vec<Butterfly> {
        v.sort();
        v
    }

    #[test]
    fn per_world_smb_matches_brute_force_on_fig1_worlds() {
        let g = fig1();
        let priority = VertexPriority::from_degrees(&g);
        let mut smb = Vec::new();
        // All 64 worlds of the 6-edge example.
        for mask in 0u32..64 {
            let mut world = PossibleWorld::empty(6);
            for i in 0..6 {
                if mask >> i & 1 == 1 {
                    world.insert(bigraph::EdgeId(i));
                }
            }
            let w = smb_of_world(&g, &priority, &world, &mut smb);
            let (rw, rsmb) = max_butterflies_in_world(&g, &world);
            assert_eq!(sorted(smb.clone()), sorted(rsmb), "mask={mask}");
            if !smb.is_empty() {
                assert_eq!(w, rw, "mask={mask}");
            }
        }
    }

    #[test]
    fn each_butterfly_generated_once_per_world() {
        // In the full world of K_{2,3} there is a unique maximum; ensure
        // no duplicate S_MB entries (i.e. no double counting of wedges).
        let g = fig1();
        let priority = VertexPriority::from_degrees(&g);
        let mut smb = Vec::new();
        smb_of_world(&g, &priority, &PossibleWorld::full(&g), &mut smb);
        assert_eq!(smb.len(), 1);
        let mut with_ties = GraphBuilder::new();
        // K_{2,2} with all equal weights: a single butterfly.
        for u in 0..2 {
            for v in 0..2 {
                with_ties.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
            }
        }
        let g2 = with_ties.build().unwrap();
        let p2 = VertexPriority::from_degrees(&g2);
        smb_of_world(&g2, &p2, &PossibleWorld::full(&g2), &mut smb);
        assert_eq!(smb.len(), 1, "butterfly multi-counted: {smb:?}");
    }

    #[test]
    fn estimates_converge_to_exact_on_fig1() {
        let g = fig1();
        let d = run(&g, 40_000, 1);
        let exact = crate::exact::exact_distribution(&g, Default::default()).unwrap();
        for (b, &p) in exact.iter() {
            assert!(
                (d.prob(b) - p).abs() < 0.01,
                "{b}: est {} vs exact {}",
                d.prob(b),
                p
            );
        }
        let (mp, _) = d.mpmb().unwrap();
        assert_eq!(mp, exact.mpmb().unwrap().0);
    }

    #[test]
    fn runs_are_reproducible() {
        let g = fig1();
        let d1 = run(&g, 500, 9);
        let d2 = run(&g, 500, 9);
        assert_eq!(d1.max_abs_diff(&d2), 0.0);
    }

    #[test]
    fn butterfly_free_graph_yields_empty_distribution() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.9).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 0.9).unwrap();
        let g = b.build().unwrap();
        let d = run(&g, 50, 3);
        assert!(d.is_empty());
    }
}

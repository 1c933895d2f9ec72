//! Sublinear-time approximate butterfly counting (the `fast` tier).
//!
//! Every other method in the workspace pays at least one full pass over
//! the edge set *per trial*; on paper-scale inputs that makes a tight
//! serving deadline produce a cached partial and a 503 instead of an
//! answer. This module implements the sampling estimator of Luo et al.
//! (*Approximate Butterfly Counting in Sublinear Time*), adapted to
//! uncertain graphs with the vertex-sampling variance control of
//! Sanei-Mehri et al. (*Butterfly Counting in Bipartite Networks*): each
//! trial touches one sampled wedge and two adjacency lists, never the
//! whole graph.
//!
//! # What one trial does
//!
//! The estimand is the expected butterfly count over possible worlds,
//! `E[X] = Σ_B Pr[E(B)]` — the same quantity
//! [`bigraph::expected::expected_butterfly_count`] computes in closed
//! form with a full pass. Every butterfly contains exactly two
//! right-centered wedges, so with `W = Σ_v C(d(v), 2)` wedges overall:
//!
//! `E[X] = ½ · Σ_{(u1,v,u2)} p(u1v) p(u2v) · Σ_{v'≠v} p(u1v') p(u2v')`
//!
//! where `v'` ranges over common neighbors of the left pair. A trial
//! samples one wedge uniformly (probability `1/W`), computes the inner
//! sum by intersecting the two left vertices' adjacency lists (mark the
//! shorter, walk the longer in id order), and reports the
//! Horvitz–Thompson reweighted value `X_t = W · f(wedge)`. `E[X_t] =
//! E[X]` exactly — the estimator is unbiased at any trial count.
//!
//! # Determinism
//!
//! The engine follows the [`engine`](crate::engine) contract. Wedge
//! selection for trial `t` draws from `trial_rng(seed ^ FAST_SALT, t)`
//! (integer draws only: a global wedge index unranked through the
//! degree-ordered prefix table, then a pair index within the vertex).
//! The accumulator is a vector of `(trial index, value bits)` rows and
//! `merge` concatenates; [`SublinearTrials::finalize`] sorts rows by
//! trial index and folds the moment sums in that canonical order, so
//! the estimate is bit-identical at any thread count, cancellation
//! point, resume schedule, or cluster partition.
//!
//! The confidence interval is distribution-free (Chebyshev over the
//! sample variance, [`crate::bounds::chebyshev_half_width`]): at
//! confidence `1 − δ` the interval `estimate ± half_width` covers the
//! true expectation, conservatively.

use crate::bounds::chebyshev_half_width;
use crate::engine::TrialEngine;
use bigraph::{trial_rng, Left, Right, UncertainBipartiteGraph};
use rand::Rng;

/// Domain separator: the fast tier draws from its own stream family so
/// it never correlates with `os`/`count` trials under a shared seed.
const FAST_SALT: u64 = 0xFA_57_B1_7E;

/// One completed fast-tier trial: `(trial index, f64 bits of the
/// reweighted sample)`. Kept index-tagged so finalization can impose a
/// canonical accumulation order regardless of scheduling.
pub type FastSample = (u64, u64);

/// Finalized fast-tier answer: point estimate, sample variance of the
/// per-trial estimator, and a `1 − δ` confidence interval.
#[derive(Clone, Copy, Debug)]
pub struct FastEstimate {
    /// Unbiased estimate of the expected butterfly count.
    pub estimate: f64,
    /// Unbiased sample variance of the per-trial estimator `X_t`.
    pub variance: f64,
    /// Interval lower end (clamped at 0; counts are non-negative).
    pub ci_low: f64,
    /// Interval upper end.
    pub ci_high: f64,
    /// Half-width over the estimate (`1.0` when the estimate is 0 but
    /// the interval is not degenerate — "100% uncertain", which keeps
    /// the field a finite JSON number and trips escalation).
    pub relative_error: f64,
    /// Trials behind the estimate.
    pub trials: u64,
    /// The `δ` the interval was computed at.
    pub delta: f64,
}

impl FastEstimate {
    /// Whether `value` lies inside the reported interval.
    pub fn covers(&self, value: f64) -> bool {
        self.ci_low <= value && value <= self.ci_high
    }
}

/// The fast tier as a [`TrialEngine`]: per-trial wedge sampling with
/// Horvitz–Thompson reweighting. Construction builds the degree-ordered
/// sampling table (one `O(|V_R| log |V_R|)` pass); trials are
/// `O(log |V_R| + d(v) + d(u1) + d(u2))` — sublinear in the edge count.
pub struct SublinearTrials<'g> {
    g: &'g UncertainBipartiteGraph,
    seed: u64,
    /// Total right-centered wedges `W`.
    total_wedges: u64,
    /// Right ids holding ≥ 1 wedge, degree-descending (ties by id):
    /// hub wedges sit in the table prefix, so the unranking binary
    /// search resolves the common (heavy-mass) draws fastest.
    order: Vec<u32>,
    /// `prefix[i]` = cumulative wedge count over `order[..=i]`.
    prefix: Vec<u64>,
}

impl<'g> SublinearTrials<'g> {
    /// Builds the engine and its sampling table.
    pub fn new(g: &'g UncertainBipartiteGraph, seed: u64) -> Self {
        let mut order: Vec<u32> = (0..g.num_right() as u32)
            .filter(|&v| g.right_degree(Right(v)) >= 2)
            .collect();
        order.sort_unstable_by_key(|&v| (usize::MAX - g.right_degree(Right(v)), v));
        let mut prefix = Vec::with_capacity(order.len());
        let mut total = 0u64;
        for &v in &order {
            let d = g.right_degree(Right(v)) as u64;
            total += d * (d - 1) / 2;
            prefix.push(total);
        }
        SublinearTrials {
            g,
            seed: seed ^ FAST_SALT,
            total_wedges: total,
            order,
            prefix,
        }
    }

    /// The wedge count `W` the reweighting uses.
    pub fn total_wedges(&self) -> u64 {
        self.total_wedges
    }

    /// One trial's reweighted sample `X_t = W · f(wedge_t)`. `mark` is
    /// an all-zero vector of length `|V_R|`, and is all-zero again on
    /// return.
    fn sample_value(&self, t: u64, mark: &mut [u32]) -> f64 {
        if self.total_wedges == 0 {
            return 0.0;
        }
        let mut rng = trial_rng(self.seed, t);
        let x = rng.random_range(0..self.total_wedges);
        // Degree-ordered unranking: first table entry whose cumulative
        // mass exceeds the draw.
        let i = self.prefix.partition_point(|&p| p <= x);
        let v = self.order[i];
        let local = x - if i > 0 { self.prefix[i - 1] } else { 0 };
        let adj = self.g.right_adj(Right(v));
        let (ai, bi) = unrank_pair(local, adj.len());
        let (u1, e1) = (adj[ai].nbr, adj[ai].edge);
        let (u2, e2) = (adj[bi].nbr, adj[bi].edge);
        // Inner sum over common neighbors v' ≠ v of (u1, u2). The shorter
        // list is marked in `mark` (entry index + 1), the longer one walked
        // in ascending-id order: hits arrive in exactly the order a sorted
        // merge of the two lists would produce them, and each term is the
        // same product (`×` is commutative bit for bit), so the float fold
        // has one canonical order — without the merge's unpredictable
        // three-way branch.
        let (l1, l2) = (self.g.left_adj(Left(u1)), self.g.left_adj(Left(u2)));
        let (marked, walked) = if l1.len() <= l2.len() {
            (l1, l2)
        } else {
            (l2, l1)
        };
        for (i, a) in marked.iter().enumerate() {
            mark[a.nbr as usize] = i as u32 + 1;
        }
        let mut inner = 0.0f64;
        for q in walked {
            let m = mark[q.nbr as usize];
            if m != 0 && q.nbr != v {
                inner += self.g.prob(marked[m as usize - 1].edge) * self.g.prob(q.edge);
            }
        }
        for a in marked {
            mark[a.nbr as usize] = 0;
        }
        0.5 * self.total_wedges as f64 * self.g.prob(e1) * self.g.prob(e2) * inner
    }

    /// Folds completed rows into the final estimate at failure
    /// probability `delta`. Rows may arrive in any order (parallel
    /// chunks, cluster pieces); they are sorted by trial index first, so
    /// every schedule folds the same canonical sum.
    pub fn finalize(&self, mut rows: Vec<FastSample>, delta: f64) -> FastEstimate {
        finalize_rows(&mut rows, delta)
    }
}

/// The body of [`SublinearTrials::finalize`].
fn finalize_rows(rows: &mut [FastSample], delta: f64) -> FastEstimate {
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    rows.sort_unstable_by_key(|r| r.0);
    let n = rows.len() as u64;
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for &(_, bits) in rows.iter() {
        let x = f64::from_bits(bits);
        s1 += x;
        s2 += x * x;
    }
    let estimate = if n > 0 { s1 / n as f64 } else { 0.0 };
    let variance = if n > 1 {
        ((s2 - s1 * s1 / n as f64) / (n - 1) as f64).max(0.0)
    } else {
        0.0
    };
    let half = if n > 0 {
        chebyshev_half_width(variance, n, delta)
    } else {
        0.0
    };
    let relative_error = if estimate > 0.0 {
        half / estimate
    } else if half == 0.0 {
        0.0
    } else {
        1.0
    };
    FastEstimate {
        estimate,
        variance,
        ci_low: (estimate - half).max(0.0),
        ci_high: estimate + half,
        relative_error,
        trials: n,
        delta,
    }
}

impl TrialEngine for SublinearTrials<'_> {
    type Acc = Vec<FastSample>;
    /// The intersection's neighbour marks, one slot per right vertex.
    type Scratch = Vec<u32>;

    fn new_acc(&self) -> Self::Acc {
        Vec::new()
    }

    fn new_scratch(&self) -> Vec<u32> {
        vec![0; self.g.num_right()]
    }

    fn trial(&self, t: u64, mark: &mut Vec<u32>, acc: &mut Self::Acc) {
        acc.push((t, self.sample_value(t, mark).to_bits()));
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        into.extend(from);
    }

    fn phase(&self) -> &'static str {
        "fast.sample"
    }
}

/// Maps a rank in `0..C(len, 2)` to the pair `(a, b)` with `a < b` in
/// the combinatorial-number-system order `(0,1), (0,2), …, (1,2), …`.
fn unrank_pair(rank: u64, len: usize) -> (usize, usize) {
    debug_assert!(len >= 2);
    let mut a = 0usize;
    let mut rem = rank;
    loop {
        let row = (len - 1 - a) as u64;
        if rem < row {
            return (a, a + 1 + rem as usize);
        }
        rem -= row;
        a += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Cancel, Executor};
    use bigraph::expected::expected_butterfly_count;
    use bigraph::GraphBuilder;

    /// `trials` wedge probes on `threads` workers, finalized at `delta`.
    fn run(
        g: &UncertainBipartiteGraph,
        trials: u64,
        seed: u64,
        delta: f64,
        threads: usize,
    ) -> FastEstimate {
        let engine = SublinearTrials::new(g, seed);
        let partial = Executor::new(threads).run(&engine, trials, &Cancel::never());
        engine.finalize(partial.acc, delta)
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

    fn dense(n: u32, p: f64) -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..n {
            for v in 0..n {
                b.add_edge(Left(u), Right(v), 1.0, p).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn wedge_table_counts_every_wedge() {
        let g = fig1();
        let e = SublinearTrials::new(&g, 0);
        // Two left vertices fully connected to three rights: C(2,2)=1
        // wedge per right vertex.
        assert_eq!(e.total_wedges(), 3);
        let g = dense(4, 0.5);
        assert_eq!(SublinearTrials::new(&g, 0).total_wedges(), 4 * 6);
    }

    #[test]
    fn unrank_pair_is_a_bijection() {
        for len in 2..=7usize {
            let mut seen = std::collections::BTreeSet::new();
            let pairs = (len * (len - 1) / 2) as u64;
            for rank in 0..pairs {
                let (a, b) = unrank_pair(rank, len);
                assert!(a < b && b < len, "rank {rank} len {len} -> ({a},{b})");
                assert!(seen.insert((a, b)), "duplicate pair at rank {rank}");
            }
            assert_eq!(seen.len() as u64, pairs);
        }
    }

    #[test]
    fn estimate_converges_to_closed_form_expectation() {
        let g = fig1();
        let expect = expected_butterfly_count(&g); // 0.2544
        let fe = run(&g, 60_000, 7, 0.05, 2);
        assert!(
            (fe.estimate - expect).abs() < 0.02,
            "estimate {} vs {expect}",
            fe.estimate
        );
        assert!(fe.covers(expect), "CI [{}, {}]", fe.ci_low, fe.ci_high);
        assert!(fe.variance > 0.0);
    }

    #[test]
    fn deterministic_graph_estimate_is_exact_with_zero_variance() {
        let g = dense(3, 1.0);
        let fe = run(&g, 500, 3, 0.1, 1);
        // Every wedge probe sees the same fully-present neighborhood.
        assert_eq!(fe.estimate, 9.0);
        assert_eq!(fe.variance, 0.0);
        assert_eq!(fe.relative_error, 0.0);
        assert!(fe.covers(9.0));
    }

    #[test]
    fn butterfly_free_graph_estimates_zero() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.9).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 0.9).unwrap();
        let g = b.build().unwrap();
        let fe = run(&g, 100, 1, 0.1, 1);
        assert_eq!(fe.estimate, 0.0);
        assert_eq!(fe.variance, 0.0);
        assert_eq!((fe.ci_low, fe.ci_high), (0.0, 0.0));
        assert_eq!(fe.relative_error, 0.0);
    }

    #[test]
    fn bit_identical_across_thread_counts_and_resume() {
        let g = fig1();
        let (trials, seed, delta) = (4_000, 11, 0.1);
        let seq = run(&g, trials, seed, delta, 1);
        for threads in [2, 3, 8] {
            let par = run(&g, trials, seed, delta, threads);
            assert_eq!(seq.estimate.to_bits(), par.estimate.to_bits());
            assert_eq!(seq.variance.to_bits(), par.variance.to_bits());
            assert_eq!(seq.ci_low.to_bits(), par.ci_low.to_bits());
            assert_eq!(seq.ci_high.to_bits(), par.ci_high.to_bits());
        }
        // Cancel mid-run, resume on a different thread count: same bits.
        let engine = SublinearTrials::new(&g, seed);
        let mut p = Executor::new(2).run(&engine, trials, &Cancel::after_trials(700));
        assert!(!p.completed());
        Executor::new(3).resume(&engine, &mut p, &Cancel::never());
        let resumed = engine.finalize(p.acc, delta);
        assert_eq!(seq.estimate.to_bits(), resumed.estimate.to_bits());
        assert_eq!(seq.ci_high.to_bits(), resumed.ci_high.to_bits());
    }

    #[test]
    fn finalize_of_zero_rows_is_well_defined() {
        let fe = finalize_rows(&mut [], 0.1);
        assert_eq!(fe.estimate, 0.0);
        assert_eq!(fe.variance, 0.0);
        assert_eq!(fe.relative_error, 0.0);
        assert_eq!(fe.trials, 0);
        assert!(fe.estimate.is_finite() && fe.ci_high.is_finite());
    }

    /// The satellite calibration property: across seeds, the `1 − δ` CI
    /// covers the exact expected count at least `1 − δ` of the time
    /// (Chebyshev is conservative, so in practice nearly always).
    #[test]
    fn ci_calibration_covers_exact_count_across_seeds() {
        // Heterogeneous probabilities so the per-wedge estimator has
        // genuine variance (a uniform dense graph makes every probe
        // return the exact value and the interval degenerate).
        let mut b = GraphBuilder::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                let p = 0.25 + 0.1 * ((u + 2 * v) % 6) as f64;
                b.add_edge(Left(u), Right(v), 1.0, p).unwrap();
            }
        }
        let hetero = b.build().unwrap();
        let delta = 0.1;
        for g in [fig1(), hetero] {
            let expect = expected_butterfly_count(&g);
            let seeds = 20u64;
            let covered = (0..seeds)
                .filter(|&s| run(&g, 5_000, 1000 + s, delta, 2).covers(expect))
                .count();
            let floor = ((1.0 - delta) * seeds as f64).floor() as usize;
            assert!(
                covered >= floor,
                "only {covered}/{seeds} CIs covered {expect}"
            );
        }
    }

    #[test]
    fn per_trial_cost_is_local_not_global() {
        // A star-heavy graph: one hub right vertex plus many isolated
        // edges. The sampling table must hold only the hub.
        let mut b = GraphBuilder::new();
        for u in 0..6u32 {
            b.add_edge(Left(u), Right(0), 1.0, 0.5).unwrap();
        }
        for i in 0..50u32 {
            b.add_edge(Left(100 + i), Right(1 + i), 1.0, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let e = SublinearTrials::new(&g, 0);
        assert_eq!(e.order.len(), 1, "only the hub holds wedges");
        assert_eq!(e.total_wedges(), 15);
    }

    /// Test-only reference: the inner sum by a three-way sorted merge of
    /// the two left adjacency lists (the kernel the marked walk replaced).
    fn merge_sample_value(e: &SublinearTrials, t: u64) -> f64 {
        if e.total_wedges == 0 {
            return 0.0;
        }
        let mut rng = trial_rng(e.seed, t);
        let x = rng.random_range(0..e.total_wedges);
        let i = e.prefix.partition_point(|&p| p <= x);
        let v = e.order[i];
        let local = x - if i > 0 { e.prefix[i - 1] } else { 0 };
        let adj = e.g.right_adj(Right(v));
        let (ai, bi) = unrank_pair(local, adj.len());
        let (u1, e1) = (adj[ai].nbr, adj[ai].edge);
        let (u2, e2) = (adj[bi].nbr, adj[bi].edge);
        let (mut a, mut b) = (e.g.left_adj(Left(u1)).iter(), e.g.left_adj(Left(u2)).iter());
        let (mut x1, mut x2) = (a.next(), b.next());
        let mut inner = 0.0f64;
        while let (Some(p), Some(q)) = (x1, x2) {
            match p.nbr.cmp(&q.nbr) {
                std::cmp::Ordering::Less => x1 = a.next(),
                std::cmp::Ordering::Greater => x2 = b.next(),
                std::cmp::Ordering::Equal => {
                    if p.nbr != v {
                        inner += e.g.prob(p.edge) * e.g.prob(q.edge);
                    }
                    x1 = a.next();
                    x2 = b.next();
                }
            }
        }
        0.5 * e.total_wedges as f64 * e.g.prob(e1) * e.g.prob(e2) * inner
    }

    proptest::proptest! {
        /// The marked walk reproduces the sorted merge bit for bit on
        /// random graphs — every trial's wedge centre `v` is a common
        /// neighbour the sum must skip — and leaves `mark` all-zero.
        #[test]
        fn marked_walk_equals_sorted_merge_and_clears_its_marks(
            pairs in proptest::collection::btree_set((0u32..10, 0u32..14), 0..=90),
            probs in proptest::collection::vec(1u32..=16, 90..=90),
            seed in 0u64..1_000,
        ) {
            let mut b = GraphBuilder::new();
            for (&(u, v), &p) in pairs.iter().zip(&probs) {
                b.add_edge(Left(u), Right(v), 1.0, p as f64 / 16.0).unwrap();
            }
            let g = b.build().unwrap();
            let e = SublinearTrials::new(&g, seed);
            let mut mark = e.new_scratch();
            for t in 0..200 {
                let got = e.sample_value(t, &mut mark);
                let want = merge_sample_value(&e, t);
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "trial {}", t);
                proptest::prop_assert!(mark.iter().all(|&m| m == 0), "marks left after trial {}", t);
            }
        }
    }
}

//! Distribution-based uncertain butterfly counting (related work §II).
//!
//! The MPMB paper positions itself against *distribution-based* methods
//! that "count instances across all possible worlds, thereby generating a
//! distribution of count numbers" (Zhou et al. VLDB'21, LINC). This
//! module provides that capability over the same substrate: Monte-Carlo
//! sampling of the butterfly-count distribution (mean, variance, and
//! empirical PMF), cross-checkable against the closed-form expectation in
//! [`bigraph::expected`].

use crate::engine::TrialEngine;
use bigraph::fx::FxHashMap;
use bigraph::{trial_rng, LazyEdgeSampler, Right, UncertainBipartiteGraph};
use rand::Rng;

/// Sampled distribution of the per-world butterfly count.
#[derive(Clone, Debug)]
pub struct CountDistribution {
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub variance: f64,
    /// Empirical PMF: count value → number of trials observing it.
    pub histogram: FxHashMap<u64, u64>,
    /// Trials performed.
    pub trials: u64,
}

/// Finalizes a (possibly resumed) count histogram into the moment
/// summary. `trials` must equal the histogram's total mass. Zero trials
/// (a zero-progress resumed partial finalized as-is) yield a
/// well-defined empty distribution — zero moments, not `0/0 = NaN`.
pub fn count_distribution_from_histogram(
    histogram: FxHashMap<u64, u64>,
    trials: u64,
) -> CountDistribution {
    if trials == 0 {
        return CountDistribution {
            mean: 0.0,
            variance: 0.0,
            histogram,
            trials: 0,
        };
    }
    let mut keys: Vec<u64> = histogram.keys().copied().collect();
    keys.sort_unstable();
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for &count in &keys {
        let n = histogram[&count] as f64;
        s1 += n * count as f64;
        s2 += n * (count as f64) * (count as f64);
    }
    let mean = s1 / trials as f64;
    let variance = if trials > 1 {
        (s2 - s1 * s1 / trials as f64) / (trials - 1) as f64
    } else {
        0.0
    };
    CountDistribution {
        mean,
        variance,
        histogram,
        trials,
    }
}

/// Per-world butterfly counting as a [`TrialEngine`]: each trial samples
/// a world lazily (derived stream `seed ^ 0xC0_17_17`) and bumps its
/// count's histogram bucket. Histogram merges are integer additions, so
/// accumulation order never shows in the result.
pub struct CountTrials<'g> {
    g: &'g UncertainBipartiteGraph,
    seed: u64,
}

impl<'g> CountTrials<'g> {
    /// Builds the engine (`seed` is the caller-facing base seed).
    pub fn new(g: &'g UncertainBipartiteGraph, seed: u64) -> Self {
        CountTrials {
            g,
            seed: seed ^ 0xC0_17_17,
        }
    }
}

impl TrialEngine for CountTrials<'_> {
    type Acc = FxHashMap<u64, u64>;
    type Scratch = LazyEdgeSampler;

    fn new_acc(&self) -> Self::Acc {
        FxHashMap::default()
    }

    fn new_scratch(&self) -> LazyEdgeSampler {
        LazyEdgeSampler::new(self.g.num_edges())
    }

    fn trial(&self, t: u64, sampler: &mut LazyEdgeSampler, histogram: &mut Self::Acc) {
        let mut rng = trial_rng(self.seed, t);
        sampler.begin_trial();
        let count = count_in_trial(self.g, sampler, &mut rng);
        *histogram.entry(count).or_insert(0) += 1;
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        for (count, n) in from {
            *into.entry(count).or_insert(0) += n;
        }
    }

    fn phase(&self) -> &'static str {
        "count.sample"
    }
}

/// Exact variance of the butterfly count over the possible-world
/// distribution, in closed form.
///
/// `Var[X] = Σ_B P(B)(1−P(B)) + 2 Σ_{B<B'} (P(B∧B') − P(B)P(B'))` where
/// `P(B)` here is the *existence* probability `Pr[E(B)]`. Butterfly pairs
/// sharing no edge are independent and contribute nothing, so only
/// edge-overlapping pairs are enumerated (found via an edge → butterflies
/// index). Refuses graphs whose backbone holds more than
/// `max_butterflies` butterflies, since the overlap enumeration is
/// quadratic in local butterfly density.
pub fn exact_count_variance(
    g: &UncertainBipartiteGraph,
    max_butterflies: u64,
) -> Result<f64, TooManyButterflies> {
    let total = crate::butterfly::count_backbone_butterflies(g);
    if total > max_butterflies {
        return Err(TooManyButterflies {
            found: total,
            limit: max_butterflies,
        });
    }
    // Materialize (edges, Pr[E]) per butterfly.
    let mut probs: Vec<f64> = Vec::with_capacity(total as usize);
    let mut edge_sets: Vec<[bigraph::EdgeId; 4]> = Vec::with_capacity(total as usize);
    crate::butterfly::for_each_backbone_butterfly(g, |b| {
        let edges = b.edges(g).expect("backbone butterfly");
        probs.push(b.existence_prob(g).expect("backbone butterfly"));
        edge_sets.push(edges);
    });

    // Edge → butterfly indices.
    let mut by_edge: FxHashMap<bigraph::EdgeId, Vec<u32>> = FxHashMap::default();
    for (i, es) in edge_sets.iter().enumerate() {
        for &e in es {
            by_edge.entry(e).or_default().push(i as u32);
        }
    }

    // Diagonal terms.
    let mut var: f64 = probs.iter().map(|&p| p * (1.0 - p)).sum();

    // Overlapping off-diagonal pairs, each counted once.
    let mut seen_pairs: bigraph::fx::FxHashSet<(u32, u32)> = Default::default();
    for bfs in by_edge.values() {
        for x in 0..bfs.len() {
            for &j in &bfs[(x + 1)..] {
                let i = bfs[x];
                let key = (i.min(j), i.max(j));
                if !seen_pairs.insert(key) {
                    continue;
                }
                // P(B ∧ B') = Π p(e) over the edge union (shared edges
                // counted once).
                let (a, b) = (&edge_sets[i as usize], &edge_sets[j as usize]);
                let mut p_and: f64 = a.iter().map(|&e| g.prob(e)).product();
                for &e in b.iter() {
                    if !a.contains(&e) {
                        p_and *= g.prob(e);
                    }
                }
                var += 2.0 * (p_and - probs[i as usize] * probs[j as usize]);
            }
        }
    }
    Ok(var)
}

/// Error: the backbone holds too many butterflies for exact variance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooManyButterflies {
    /// Butterflies found.
    pub found: u64,
    /// The configured limit.
    pub limit: u64,
}

impl std::fmt::Display for TooManyButterflies {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} backbone butterflies exceed the exact-variance limit {}",
            self.found, self.limit
        )
    }
}

impl std::error::Error for TooManyButterflies {}

/// Counts butterflies in one lazily-sampled world: for each right middle,
/// collect present neighbors; each left pair with `c` common present
/// middles holds `C(c, 2)` butterflies.
fn count_in_trial(
    g: &UncertainBipartiteGraph,
    sampler: &mut LazyEdgeSampler,
    rng: &mut impl Rng,
) -> u64 {
    let mut pair_commons: FxHashMap<(u32, u32), u64> = FxHashMap::default();
    let mut present: Vec<u32> = Vec::new();
    for v in 0..g.num_right() as u32 {
        present.clear();
        for a in g.right_adj(Right(v)) {
            if sampler.is_present(g, a.edge, rng) {
                present.push(a.nbr);
            }
        }
        for i in 0..present.len() {
            for &uj in &present[(i + 1)..] {
                let ui = present[i];
                *pair_commons.entry((ui.min(uj), ui.max(uj))).or_insert(0) += 1;
            }
        }
    }
    pair_commons
        .values()
        .map(|&c| c * c.saturating_sub(1) / 2)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Cancel, Executor};
    use bigraph::expected::expected_butterfly_count;
    use bigraph::{GraphBuilder, Left};

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

    /// `trials` sampled worlds on `threads` workers, finalized.
    fn sample(
        g: &UncertainBipartiteGraph,
        trials: u64,
        seed: u64,
        threads: usize,
    ) -> CountDistribution {
        let histogram = Executor::new(threads)
            .run(&CountTrials::new(g, seed), trials, &Cancel::never())
            .acc;
        count_distribution_from_histogram(histogram, trials)
    }

    #[test]
    fn sampled_mean_matches_closed_form_expectation() {
        let g = fig1();
        let d = sample(&g, 40_000, 5, 1);
        let expect = expected_butterfly_count(&g); // 0.2544
        assert!(
            (d.mean - expect).abs() < 0.01,
            "mean {} vs {expect}",
            d.mean
        );
    }

    #[test]
    fn deterministic_graph_has_zero_variance() {
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
            }
        }
        let g = b.build().unwrap();
        let d = sample(&g, 100, 1, 1);
        assert_eq!(d.mean, 9.0);
        assert_eq!(d.variance, 0.0);
        assert_eq!(d.histogram.len(), 1);
        assert_eq!(d.histogram[&9], 100);
    }

    #[test]
    fn histogram_sums_to_trials() {
        let g = fig1();
        let d = sample(&g, 5_000, 2, 1);
        let total: u64 = d.histogram.values().sum();
        assert_eq!(total, 5_000);
        assert!(
            d.histogram.keys().all(|&c| c <= 3),
            "fig1 has 3 butterflies"
        );
    }

    #[test]
    fn variance_positive_for_uncertain_graphs() {
        let g = fig1();
        let d = sample(&g, 5_000, 3, 1);
        assert!(d.variance > 0.0);
    }

    /// Brute-force Var[X] over all possible worlds.
    fn reference_variance(g: &UncertainBipartiteGraph) -> f64 {
        use bigraph::{EdgeId, PossibleWorld};
        let m = g.num_edges();
        assert!(m <= 16);
        let (mut e1, mut e2) = (0.0, 0.0);
        for mask in 0u32..(1 << m) {
            let mut w = PossibleWorld::empty(m);
            for i in 0..m {
                if mask >> i & 1 == 1 {
                    w.insert(EdgeId(i as u32));
                }
            }
            let wp = w.probability(g);
            let mut count = 0.0;
            crate::butterfly::for_each_backbone_butterfly(g, |b| {
                if b.exists_in(g, &w) {
                    count += 1.0;
                }
            });
            e1 += wp * count;
            e2 += wp * count * count;
        }
        e2 - e1 * e1
    }

    #[test]
    fn exact_variance_matches_world_enumeration() {
        let g = fig1();
        let closed = exact_count_variance(&g, 1_000).unwrap();
        let reference = reference_variance(&g);
        assert!((closed - reference).abs() < 1e-9, "{closed} vs {reference}");
    }

    #[test]
    fn exact_variance_matches_sampling() {
        let g = fig1();
        let closed = exact_count_variance(&g, 1_000).unwrap();
        let d = sample(&g, 40_000, 8, 1);
        assert!(
            (d.variance - closed).abs() < 0.02,
            "sampled {} vs exact {closed}",
            d.variance
        );
    }

    #[test]
    fn exact_variance_zero_for_deterministic_graphs() {
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
            }
        }
        let g = b.build().unwrap();
        assert_eq!(exact_count_variance(&g, 100).unwrap(), 0.0);
    }

    #[test]
    fn exact_variance_respects_limit() {
        let g = fig1();
        let err = exact_count_variance(&g, 2).unwrap_err();
        assert_eq!(err, TooManyButterflies { found: 3, limit: 2 });
    }

    #[test]
    fn disjoint_butterflies_have_zero_covariance() {
        // Two edge-disjoint butterflies: Var = Σ p(1−p), no cross term.
        let mut b = GraphBuilder::new();
        for (u, v) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)] {
            b.add_edge(Left(u), Right(v), 1.0, 0.5).unwrap();
        }
        for (u, v) in [(2u32, 2u32), (2, 3), (3, 2), (3, 3)] {
            b.add_edge(Left(u), Right(v), 1.0, 0.25).unwrap();
        }
        let g = b.build().unwrap();
        let p1 = 0.5f64.powi(4);
        let p2 = 0.25f64.powi(4);
        let expect = p1 * (1.0 - p1) + p2 * (1.0 - p2);
        let got = exact_count_variance(&g, 100).unwrap();
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = fig1();
        let a = sample(&g, 1_000, 9, 1);
        let b = sample(&g, 1_000, 9, 1);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.histogram, b.histogram);
    }

    #[test]
    fn zero_trial_distribution_is_nan_free() {
        // A zero-progress resumed partial finalized as-is must not leak
        // NaN (which serializes as `null` in JSON) to clients.
        let d = count_distribution_from_histogram(FxHashMap::default(), 0);
        assert_eq!(d.mean, 0.0);
        assert_eq!(d.variance, 0.0);
        assert_eq!(d.trials, 0);
    }

    #[test]
    fn parallel_count_distribution_matches_sequential_bitwise() {
        let g = fig1();
        let seq = sample(&g, 2_000, 11, 1);
        for threads in [1, 2, 3, 8] {
            let par = sample(&g, 2_000, 11, threads);
            assert_eq!(seq.mean.to_bits(), par.mean.to_bits(), "threads={threads}");
            assert_eq!(seq.variance.to_bits(), par.variance.to_bits());
            assert_eq!(seq.histogram, par.histogram);
            assert_eq!(seq.trials, par.trials);
        }
    }
}

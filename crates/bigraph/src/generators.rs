//! Synthetic uncertain bipartite network generators.
//!
//! These are the generic building blocks; the `datasets` crate composes
//! them into stand-ins for the paper's four evaluation datasets. All
//! generators are deterministic given a seed.
//!
//! Weights are quantized to multiples of 1/64 by default (see
//! [`quantize_weight`]): binary fractions of modest magnitude add exactly
//! in `f64`, which makes weight-equality comparisons (`S_MB` membership,
//! Algorithm 2 lines 16–18) independent of summation order.

use crate::builder::GraphBuilder;
use crate::fx::FxHashSet;
use crate::graph::UncertainBipartiteGraph;
use crate::types::{Left, Right, Weight};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Quantizes a weight to the nearest multiple of 1/64 (non-negative).
#[inline]
pub fn quantize_weight(w: f64) -> Weight {
    ((w * 64.0).round() / 64.0).max(0.0)
}

/// A distribution over edge scalar values (weights or probabilities).
#[derive(Clone, Debug)]
pub enum ValueDist {
    /// A single constant.
    Constant(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Normal(mean, sd) clamped to `[lo, hi]` — the paper's own Protein
    /// preprocessing draws probabilities from Normal(0.5, 0.2).
    ClampedNormal {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal.
        sd: f64,
        /// Clamp lower bound.
        lo: f64,
        /// Clamp upper bound.
        hi: f64,
    },
    /// Uniform pick from an explicit grid of values (e.g. the MovieLens
    /// half-star rating scale).
    Grid(Vec<f64>),
}

impl ValueDist {
    /// Draws one value.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        match self {
            ValueDist::Constant(c) => *c,
            ValueDist::Uniform { lo, hi } => rng.random_range(*lo..=*hi),
            ValueDist::ClampedNormal { mean, sd, lo, hi } => {
                (mean + sd * standard_normal(rng)).clamp(*lo, *hi)
            }
            ValueDist::Grid(vals) => {
                assert!(!vals.is_empty(), "empty value grid");
                vals[rng.random_range(0..vals.len())]
            }
        }
    }
}

/// One standard-normal draw via Box–Muller (we avoid a `rand_distr`
/// dependency; two uniforms per normal is fine at generator scale).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Guard against ln(0).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generates a bipartite graph with Zipf-distributed right-vertex
/// popularity (exponent `s`): each of the `m` edges picks its right
/// endpoint from a Zipf law over `R` and its left endpoint uniformly,
/// rejecting duplicates. Models rating data where a few items are "hot".
pub fn zipf_bipartite(
    nl: u32,
    nr: u32,
    m: usize,
    s: f64,
    weights: &ValueDist,
    probs: &ValueDist,
    seed: u64,
) -> UncertainBipartiteGraph {
    assert!(m as u64 <= nl as u64 * nr as u64, "m exceeds capacity");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Cumulative Zipf weights over right vertices.
    let mut cum = Vec::with_capacity(nr as usize);
    let mut total = 0.0;
    for k in 1..=nr as u64 {
        total += 1.0 / (k as f64).powf(s);
        cum.push(total);
    }

    let mut b = GraphBuilder::with_capacity(m);
    b.reserve_vertices(nl, nr);
    let mut used: FxHashSet<u64> = FxHashSet::default();
    used.reserve(m);
    let mut stall = 0u32;
    while used.len() < m {
        let x = rng.random_range(0.0..total);
        let v = cum.partition_point(|&c| c <= x) as u32;
        let u = rng.random_range(0..nl);
        if used.insert(u as u64 * nr as u64 + v as u64) {
            add(&mut b, u, v, weights, probs, &mut rng);
            stall = 0;
        } else {
            stall += 1;
            if stall > 10_000 {
                // The hot Zipf head saturated; fall back to uniform pairs
                // for the remainder so generation always terminates.
                let u = rng.random_range(0..nl);
                let v = rng.random_range(0..nr);
                if used.insert(u as u64 * nr as u64 + v as u64) {
                    add(&mut b, u, v, weights, probs, &mut rng);
                    stall = 0;
                }
            }
        }
    }
    b.build().expect("generator produced invalid graph")
}

/// Generates the complete bipartite graph `K_{nl,nr}` with sampled scalars.
pub fn complete(
    nl: u32,
    nr: u32,
    weights: &ValueDist,
    probs: &ValueDist,
    seed: u64,
) -> UncertainBipartiteGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(nl as usize * nr as usize);
    for u in 0..nl {
        for v in 0..nr {
            add(&mut b, u, v, weights, probs, &mut rng);
        }
    }
    b.build().expect("generator produced invalid graph")
}

fn add(
    b: &mut GraphBuilder,
    u: u32,
    v: u32,
    weights: &ValueDist,
    probs: &ValueDist,
    rng: &mut impl Rng,
) {
    let w = quantize_weight(weights.sample(rng));
    let p = probs.sample(rng).clamp(0.0, 1.0);
    b.add_edge(Left(u), Right(v), w, p)
        .expect("generator emitted duplicate or invalid edge");
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: ValueDist = ValueDist::Uniform { lo: 0.5, hi: 5.0 };
    const P: ValueDist = ValueDist::Uniform { lo: 0.1, hi: 0.9 };

    #[test]
    fn quantization_is_exact_binary_fraction() {
        let w = quantize_weight(2.71815);
        assert_eq!(w * 64.0, (w * 64.0).round());
        assert_eq!(quantize_weight(-2.0), 0.0);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = zipf_bipartite(10, 10, 40, 1.2, &W, &P, 5);
        let b = zipf_bipartite(10, 10, 40, 1.2, &W, &P, 5);
        for e in a.edge_ids() {
            assert_eq!(a.endpoints(e), b.endpoints(e));
            assert_eq!(a.weight(e), b.weight(e));
            assert_eq!(a.prob(e), b.prob(e));
        }
        let c = zipf_bipartite(10, 10, 40, 1.2, &W, &P, 6);
        let same = a
            .edge_ids()
            .all(|e| a.endpoints(e) == c.endpoints(e) && a.weight(e) == c.weight(e));
        assert!(!same, "different seeds produced identical graphs");
    }

    #[test]
    fn zipf_skews_right_degrees() {
        let g = zipf_bipartite(200, 200, 2_000, 1.2, &W, &P, 11);
        assert_eq!(g.num_edges(), 2_000);
        let mut degs: Vec<usize> = (0..200).map(|v| g.right_degree(Right(v))).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10% of items should hold well over 10% of edges.
        let head: usize = degs[..20].iter().sum();
        assert!(head * 100 > 2_000 * 25, "head share too flat: {head}");
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete(6, 7, &W, &P, 1);
        assert_eq!(g.num_edges(), 42);
        for u in 0..6 {
            assert_eq!(g.left_degree(Left(u)), 7);
        }
    }

    #[test]
    fn clamped_normal_respects_bounds() {
        let d = ValueDist::ClampedNormal {
            mean: 0.5,
            sd: 0.2,
            lo: 0.01,
            hi: 0.99,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut sum = 0.0;
        let n = 10_000;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!((0.01..=0.99).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn grid_dist_only_emits_grid_values() {
        let d = ValueDist::Grid(vec![0.5, 1.0, 1.5]);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!([0.5, 1.0, 1.5].contains(&x));
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let n = 50_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            s1 += x;
            s2 += x * x;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}

//! Bernoulli edge sampling for Monte-Carlo trials.
//!
//! Two samplers cover the solvers' needs:
//!
//! * [`WorldSampler`] materializes a complete possible world per trial —
//!   what Algorithm 1 (MC-VP) literally does ("randomly choose `W_i` from
//!   `W`").
//! * [`LazyEdgeSampler`] draws each edge's Bernoulli outcome **on first
//!   access** and memoizes it for the rest of the trial. Because edges are
//!   independent, any statistic computed from lazily drawn outcomes has
//!   exactly the distribution it would have under eager sampling — but the
//!   §V-B pruning in Ordering Sampling then also skips the *sampling* cost
//!   of the pruned tail, and the Karp-Luby estimator (Algorithm 4) can
//!   condition on an event's edges being present via
//!   [`LazyEdgeSampler::force_present`].
//!
//! # Determinism
//!
//! [`trial_rng`] derives an independent ChaCha8 stream per `(seed, trial)`
//! pair through a SplitMix64 finalizer, so trial `t` sees identical
//! randomness whether trials run sequentially or across threads.

use crate::graph::UncertainBipartiteGraph;
use crate::types::EdgeId;
use crate::world::PossibleWorld;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finalizer: decorrelates consecutive trial indices into
/// well-spread 64-bit seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG stream for trial `trial` of a run seeded with `seed`.
pub fn trial_rng(seed: u64, trial: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(trial)))
}

/// `2⁵³`: one plus the largest value `random::<f64>()`'s 53-bit mantissa
/// grid can take, scaled to an integer.
pub const FIXED_POINT_ONE: u64 = 1u64 << 53;

/// The fixed-point acceptance threshold for probability `p`.
///
/// # Rounding rule
///
/// `random::<f64>()` draws `u = next_u64() >> 11` (a uniform 53-bit
/// integer) and returns `u · 2⁻⁵³` — see the vendored `rand` shim. Both
/// `u · 2⁻⁵³` and `p · 2⁵³` are computed *exactly* in `f64`: `u` has at
/// most 53 significant bits, and multiplying by a power of two only
/// shifts the exponent (subnormal `p` scales up exactly; `p ≤ 1` cannot
/// overflow). Therefore, for integer `u`:
///
/// ```text
/// u · 2⁻⁵³ < p   ⟺   u < p · 2⁵³   ⟺   u < ⌈p · 2⁵³⌉ =: t
/// ```
///
/// (the last step because `u` is an integer: `u < x ⟺ u < ⌈x⌉`). The
/// threshold `t = ⌈p · 2⁵³⌉` is computed here by truncating `x = p · 2⁵³`
/// to an integer and adding one when that cut anything off. Both
/// conversions are exact for `0 ≤ x ≤ 2⁵³`, the result equals
/// `x.ceil() as u64` for every `p`, and unlike `ceil` it needs no libm
/// call on x86-64's baseline target, which has no rounding instruction.
/// So `accept_word(w, t)` reproduces `random::<f64>() < p` bit-for-bit
/// on the same raw word `w`. Edge cases: `p = 0 → t = 0` (never accepts,
/// `u ≥ 0` always), `p = 1 → t = 2⁵³` (always accepts, `u ≤ 2⁵³ − 1`),
/// `p = f64::MIN_POSITIVE → t = 1` (accepts exactly the draw `u = 0`,
/// same as the float compare).
///
/// The conversions go through `i64`: `0 ≤ x ≤ 2⁵³` is exact there too,
/// and x86-64 converts `f64 ⇄ i64` in one instruction each where the
/// `u64` conversions take a compare-and-adjust sequence. `p` must lie
/// in `[0, 1]`, which the graph builder and the container reader
/// enforce.
#[inline]
pub fn fixed_point_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    let x = p * FIXED_POINT_ONE as f64;
    let t = x as i64;
    (t + i64::from((t as f64) < x)) as u64
}

/// Whether the raw RNG word `word` is an acceptance under `threshold`
/// (see [`fixed_point_threshold`] for the equivalence proof).
#[inline]
pub fn accept_word(word: u64, threshold: u64) -> bool {
    (word >> 11) < threshold
}

/// `accept_word(word, fixed_point_threshold(p))` without forming the
/// threshold: `u < ⌈x⌉ ⟺ u < x` for the integer `u = word >> 11`, and
/// both sides of `u < x = p · 2⁵³` are exact in `f64` (see
/// [`fixed_point_threshold`]). One convert and one multiply per draw,
/// for draws that read `p` by edge id rather than a stored threshold.
#[inline]
pub fn accept_prob(word: u64, p: f64) -> bool {
    (((word >> 11) as i64) as f64) < p * FIXED_POINT_ONE as f64
}

/// Draws one Bernoulli outcome for edge `e` of `g`.
///
/// Edges with `p = 1` never consume randomness asymmetrically: the draw is
/// always performed so outcome sequences stay aligned across graphs that
/// differ only in probabilities. The accept/reject decision
/// ([`accept_prob`] on the raw `next_u64` word) is bit-identical to the
/// historical `rng.random::<f64>() < g.prob(e)` — both consume exactly
/// one `u64` per draw, and [`fixed_point_threshold`] proves the
/// decision equal.
#[inline]
pub fn bernoulli_edge(g: &UncertainBipartiteGraph, e: EdgeId, rng: &mut impl Rng) -> bool {
    accept_prob(rng.next_u64(), g.prob(e))
}

/// Samples complete possible worlds into a reusable buffer.
#[derive(Debug, Default, Clone)]
pub struct WorldSampler;

impl WorldSampler {
    /// Samples a fresh possible world of `g`.
    pub fn sample(g: &UncertainBipartiteGraph, rng: &mut impl Rng) -> PossibleWorld {
        let mut w = PossibleWorld::empty(g.num_edges());
        Self::sample_into(g, &mut w, rng);
        w
    }

    /// Samples into `world`, reusing its storage. `world` must have been
    /// created for a graph with the same number of edges.
    ///
    /// Draws are batched: a buffer of raw `next_u64` words is filled per
    /// chunk, then compared against the probabilities ([`accept_prob`])
    /// in a tight loop. The words are consumed in
    /// edge-id order — exactly the sequence the per-edge path would
    /// draw — so sampled worlds are bit-identical to repeated
    /// [`bernoulli_edge`] calls.
    pub fn sample_into(g: &UncertainBipartiteGraph, world: &mut PossibleWorld, rng: &mut impl Rng) {
        assert_eq!(world.domain(), g.num_edges(), "world/graph mismatch");
        world.clear();
        const BATCH: usize = 256;
        let mut words = [0u64; BATCH];
        let probs = &g.probs;
        let mut base = 0usize;
        while base < probs.len() {
            let n = (probs.len() - base).min(BATCH);
            for w in &mut words[..n] {
                *w = rng.next_u64();
            }
            for (i, &p) in probs[base..base + n].iter().enumerate() {
                if accept_prob(words[i], p) {
                    world.insert(EdgeId((base + i) as u32));
                }
            }
            base += n;
        }
    }
}

/// Per-trial memoized lazy Bernoulli sampler over a graph's edges.
///
/// Epoch stamping makes `begin_trial` O(1): an edge's memo is valid only if
/// its stamp equals the current epoch, so no per-trial clearing of the
/// outcome arrays is needed.
#[derive(Debug, Clone)]
pub struct LazyEdgeSampler {
    epoch: u32,
    stamps: Vec<u32>,
    outcomes: Vec<bool>,
}

impl LazyEdgeSampler {
    /// Creates a sampler for a graph with `num_edges` edges (or for
    /// `num_edges` slots of [`is_present_slot`](Self::is_present_slot)).
    pub fn new(num_edges: usize) -> Self {
        LazyEdgeSampler {
            // Start at 1 so the zero-initialized stamps are all invalid.
            epoch: 1,
            stamps: vec![0; num_edges],
            outcomes: vec![false; num_edges],
        }
    }

    /// Starts a new trial, invalidating all memoized outcomes.
    pub fn begin_trial(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: clear stamps so stale epoch-0 memos
            // cannot be mistaken for fresh ones.
            self.stamps.fill(u32::MAX);
            self.epoch = 1;
        }
    }

    /// Whether edge `e` exists in the current trial, drawing and memoizing
    /// the outcome on first access.
    #[inline]
    pub fn is_present(
        &mut self,
        g: &UncertainBipartiteGraph,
        e: EdgeId,
        rng: &mut impl Rng,
    ) -> bool {
        let i = e.index();
        if self.stamps[i] == self.epoch {
            return self.outcomes[i];
        }
        let out = bernoulli_edge(g, e, rng);
        self.stamps[i] = self.epoch;
        self.outcomes[i] = out;
        out
    }

    /// [`is_present`](Self::is_present) over a caller-chosen dense index
    /// space instead of edge ids: slot `i`'s outcome is drawn against
    /// `threshold` (one `next_u64`, as [`bernoulli_edge`] draws) on first
    /// access and memoized for the rest of the trial. A sampler sized to
    /// the few edges a solver can touch stays cache-resident where one
    /// sized to the whole graph does not.
    #[inline]
    pub fn is_present_slot(&mut self, i: usize, threshold: u64, rng: &mut impl Rng) -> bool {
        if self.stamps[i] == self.epoch {
            return self.outcomes[i];
        }
        let out = accept_word(rng.next_u64(), threshold);
        self.stamps[i] = self.epoch;
        self.outcomes[i] = out;
        out
    }

    /// Forces edge `e` present for the current trial (Karp-Luby
    /// conditioning: "sample a possible world such that `B_j∖B_i ⊆ E_W`").
    #[inline]
    pub fn force_present(&mut self, e: EdgeId) {
        let i = e.index();
        self.stamps[i] = self.epoch;
        self.outcomes[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::types::{Left, Right};
    use rand::RngCore;

    fn chain_graph(probs: &[f64]) -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        for (i, &p) in probs.iter().enumerate() {
            b.add_edge(Left(i as u32), Right(i as u32), 1.0, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn threshold_edge_cases() {
        assert_eq!(fixed_point_threshold(0.0), 0);
        assert_eq!(fixed_point_threshold(1.0), FIXED_POINT_ONE);
        assert_eq!(fixed_point_threshold(f64::MIN_POSITIVE), 1);
        assert_eq!(fixed_point_threshold(0.5), FIXED_POINT_ONE / 2);
        // p = 0 never accepts, p = 1 always accepts, for any raw word.
        for word in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            assert!(!accept_word(word, fixed_point_threshold(0.0)));
            assert!(accept_word(word, fixed_point_threshold(1.0)));
        }
        // p = MIN_POSITIVE accepts exactly the all-zero mantissa draw.
        let t = fixed_point_threshold(f64::MIN_POSITIVE);
        assert!(accept_word(0x7FF, t)); // low 11 bits are discarded
        assert!(!accept_word(0x800, t));
    }

    #[test]
    fn threshold_is_the_ceiling() {
        // Probabilities on, just off and between the 2⁻⁵³ grid points,
        // subnormals, and random draws from a trial stream.
        let mut probs = vec![0.0, 1.0, f64::MIN_POSITIVE, 5e-324, 0.3, 1e-9];
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) + 1, FIXED_POINT_ONE - 1] {
            let p = k as f64 / FIXED_POINT_ONE as f64;
            probs.extend([p, p.next_up(), p.next_down()]);
        }
        let mut rng = trial_rng(7, 0);
        probs.extend((0..4096).map(|_| rng.random::<f64>()));
        for p in probs {
            let want = (p * FIXED_POINT_ONE as f64).ceil() as u64;
            assert_eq!(fixed_point_threshold(p), want, "p={p:e}");
        }
    }

    #[test]
    fn integer_compare_matches_float_compare_exhaustively() {
        // The decisions `accept_word(w, fixed_point_threshold(p))` and
        // `accept_prob(w, p)` must equal the historical `(w >> 11) as f64 * 2⁻⁵³ < p` for raw
        // words straddling each probability's threshold, plus random
        // words from real trial streams.
        let probs = [
            0.0,
            1.0,
            f64::MIN_POSITIVE,
            0.5,
            0.5 - f64::EPSILON / 4.0,
            0.5 + f64::EPSILON / 2.0,
            0.3,
            1e-9,
            1.0 - f64::EPSILON / 2.0,
        ];
        let scale = 1.0 / FIXED_POINT_ONE as f64;
        for &p in &probs {
            let t = fixed_point_threshold(p);
            let mut words: Vec<u64> = vec![0, 1 << 11, u64::MAX];
            for d in [-2i64, -1, 0, 1, 2] {
                let u = (t as i64 + d).clamp(0, (FIXED_POINT_ONE - 1) as i64) as u64;
                words.push(u << 11);
            }
            let mut rng = trial_rng(99, 0);
            words.extend((0..512).map(|_| rng.next_u64()));
            for &w in &words {
                let float_decision = (w >> 11) as f64 * scale < p;
                assert_eq!(accept_word(w, t), float_decision, "p={p} w={w:#x} t={t}");
                assert_eq!(accept_prob(w, p), float_decision, "p={p} w={w:#x}");
            }
        }
    }

    #[test]
    fn batched_sample_matches_per_edge_stream() {
        // The batched path must consume the same words in the same order
        // as per-edge draws: identical worlds from identical streams.
        let probs: Vec<f64> = (0..1000).map(|i| (i as f64) / 999.0).collect();
        let g = chain_graph(&probs);
        for trial in 0..8 {
            let mut rng_a = trial_rng(5, trial);
            let mut rng_b = trial_rng(5, trial);
            let mut batched = PossibleWorld::empty(g.num_edges());
            WorldSampler::sample_into(&g, &mut batched, &mut rng_a);
            let mut per_edge = PossibleWorld::empty(g.num_edges());
            for e in g.edge_ids() {
                if bernoulli_edge(&g, e, &mut rng_b) {
                    per_edge.insert(e);
                }
            }
            assert_eq!(batched, per_edge);
            // Both paths left the RNGs at the same position.
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    fn trial_rng_is_deterministic_and_distinct() {
        let a: Vec<u64> = {
            let mut r = trial_rng(7, 0);
            (0..4).map(|_| r.random()).collect()
        };
        let b: Vec<u64> = {
            let mut r = trial_rng(7, 0);
            (0..4).map(|_| r.random()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = trial_rng(7, 1);
            (0..4).map(|_| r.random()).collect()
        };
        assert_ne!(a, c);
        let d: Vec<u64> = {
            let mut r = trial_rng(8, 0);
            (0..4).map(|_| r.random()).collect()
        };
        assert_ne!(a, d);
    }

    #[test]
    fn deterministic_edges_always_respected() {
        let g = chain_graph(&[0.0, 1.0]);
        let mut rng = trial_rng(1, 0);
        for _ in 0..100 {
            let w = WorldSampler::sample(&g, &mut rng);
            assert!(!w.contains(EdgeId(0)), "p=0 edge sampled present");
            assert!(w.contains(EdgeId(1)), "p=1 edge sampled absent");
        }
    }

    #[test]
    fn empirical_frequency_approaches_probability() {
        let g = chain_graph(&[0.3]);
        let n = 20_000;
        let mut hits = 0usize;
        for t in 0..n {
            let mut rng = trial_rng(42, t);
            if bernoulli_edge(&g, EdgeId(0), &mut rng) {
                hits += 1;
            }
        }
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn sample_into_reuses_buffer() {
        let g = chain_graph(&[0.5, 0.5, 0.5]);
        let mut w = PossibleWorld::empty(g.num_edges());
        let mut rng = trial_rng(3, 0);
        WorldSampler::sample_into(&g, &mut w, &mut rng);
        let first = w.clone();
        // Resample until different (p=1/8 per draw of being identical).
        let mut differed = false;
        for _ in 0..64 {
            WorldSampler::sample_into(&g, &mut w, &mut rng);
            if w != first {
                differed = true;
                break;
            }
        }
        assert!(differed, "sampler appears frozen");
    }

    #[test]
    fn lazy_sampler_memoizes_within_trial() {
        let g = chain_graph(&[0.5; 8]);
        let mut s = LazyEdgeSampler::new(g.num_edges());
        let mut rng = trial_rng(9, 0);
        s.begin_trial();
        let first: Vec<bool> = g
            .edge_ids()
            .map(|e| s.is_present(&g, e, &mut rng))
            .collect();
        // Re-querying must not redraw.
        let second: Vec<bool> = g
            .edge_ids()
            .map(|e| s.is_present(&g, e, &mut rng))
            .collect();
        assert_eq!(first, second);
        // Every edge is stamped with this trial's epoch: decided.
        assert!(s.stamps.iter().all(|&t| t == s.epoch));
    }

    #[test]
    fn lazy_sampler_redraws_across_trials() {
        let g = chain_graph(&[0.5; 16]);
        let mut s = LazyEdgeSampler::new(g.num_edges());
        let mut rng = trial_rng(10, 0);
        s.begin_trial();
        let a: Vec<bool> = g
            .edge_ids()
            .map(|e| s.is_present(&g, e, &mut rng))
            .collect();
        s.begin_trial();
        assert!(
            s.stamps.iter().all(|&t| t != s.epoch),
            "stale memo leaked across trials"
        );
        let b: Vec<bool> = g
            .edge_ids()
            .map(|e| s.is_present(&g, e, &mut rng))
            .collect();
        assert_ne!(a, b, "16 fair coins identical across trials: 1/65536 event");
    }

    #[test]
    fn force_present_overrides_draw() {
        let g = chain_graph(&[0.0]);
        let mut s = LazyEdgeSampler::new(1);
        let mut rng = trial_rng(11, 0);
        s.begin_trial();
        s.force_present(EdgeId(0));
        assert!(s.is_present(&g, EdgeId(0), &mut rng));
        // Next trial: the p=0 edge is absent again.
        s.begin_trial();
        assert!(!s.is_present(&g, EdgeId(0), &mut rng));
    }

    #[test]
    fn lazy_matches_eager_distribution() {
        // Chi-square-lite: empirical presence counts under lazy sampling
        // should track probabilities just like eager sampling does.
        let g = chain_graph(&[0.2, 0.8]);
        let n = 20_000;
        let mut lazy_hits = [0usize; 2];
        let mut s = LazyEdgeSampler::new(2);
        for t in 0..n {
            let mut rng = trial_rng(77, t);
            s.begin_trial();
            // Access in reverse order to decouple from edge id order.
            if s.is_present(&g, EdgeId(1), &mut rng) {
                lazy_hits[1] += 1;
            }
            if s.is_present(&g, EdgeId(0), &mut rng) {
                lazy_hits[0] += 1;
            }
        }
        assert!((lazy_hits[0] as f64 / n as f64 - 0.2).abs() < 0.02);
        assert!((lazy_hits[1] as f64 / n as f64 - 0.8).abs() < 0.02);
    }
}

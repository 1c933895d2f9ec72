//! Estimated (or exact) distributions of `P(B)` — the probability of each
//! butterfly being the maximum weighted butterfly (Equation 4).

use crate::butterfly::Butterfly;
use bigraph::fx::FxHashMap;

/// A map from butterflies to (estimated or exact) `P(B)` mass.
///
/// Solvers produce these; [`Distribution::mpmb`] answers the headline query
/// (Definition 5) and [`Distribution::top_k`] the §VII extension.
#[derive(Clone, Debug, Default)]
pub struct Distribution {
    probs: FxHashMap<Butterfly, f64>,
    /// Number of Monte-Carlo trials that produced this estimate; `None`
    /// for exact distributions.
    trials: Option<u64>,
}

impl Distribution {
    /// An empty distribution (no butterfly observed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from per-butterfly trial hit counts.
    pub fn from_counts(counts: FxHashMap<Butterfly, u64>, trials: u64) -> Self {
        assert!(trials > 0, "zero-trial distribution");
        let probs = counts
            .into_iter()
            .map(|(b, c)| (b, c as f64 / trials as f64))
            .collect();
        Distribution {
            probs,
            trials: Some(trials),
        }
    }

    /// Builds from exact probabilities.
    pub fn from_exact(probs: FxHashMap<Butterfly, f64>) -> Self {
        Distribution {
            probs,
            trials: None,
        }
    }

    /// Builds from estimated probabilities produced with `trials` trials
    /// (used by OLS estimators whose per-butterfly masses are not simple
    /// hit counts, e.g. Karp-Luby).
    pub fn from_estimates(probs: FxHashMap<Butterfly, f64>, trials: u64) -> Self {
        Distribution {
            probs,
            trials: Some(trials),
        }
    }

    /// Number of distinct butterflies with positive mass.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether no butterfly has mass.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Trial count, when this is a sampled estimate.
    pub fn trials(&self) -> Option<u64> {
        self.trials
    }

    /// The estimated `P(B)`; 0 for unseen butterflies.
    pub fn prob(&self, b: &Butterfly) -> f64 {
        self.probs.get(b).copied().unwrap_or(0.0)
    }

    /// The MPMB (Definition 5): the butterfly maximizing `P(B)`. Ties are
    /// broken by canonical butterfly order so the answer is deterministic.
    pub fn mpmb(&self) -> Option<(Butterfly, f64)> {
        self.probs
            .iter()
            .map(|(&b, &p)| (b, p))
            .max_by(|(b1, p1), (b2, p2)| p1.total_cmp(p2).then_with(|| b2.cmp(b1)))
    }

    /// The top-k butterflies by `P(B)` descending (§VII), deterministic
    /// under ties.
    pub fn top_k(&self, k: usize) -> Vec<(Butterfly, f64)> {
        let mut v: Vec<(Butterfly, f64)> = self.probs.iter().map(|(&b, &p)| (b, p)).collect();
        v.sort_unstable_by(|(b1, p1), (b2, p2)| p2.total_cmp(p1).then_with(|| b1.cmp(b2)));
        v.truncate(k);
        v
    }

    /// All `(butterfly, P)` pairs sorted like [`Distribution::top_k`].
    pub fn sorted(&self) -> Vec<(Butterfly, f64)> {
        self.top_k(self.probs.len())
    }

    /// Iterator over entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Butterfly, &f64)> {
        self.probs.iter()
    }

    /// Total mass. For exact distributions this is ≤ 1 (worlds with no
    /// butterfly contribute nothing); for sampled ones the same holds in
    /// expectation per weight class but can exceed 1 because tied-maximum
    /// worlds credit every tied butterfly.
    pub fn total_mass(&self) -> f64 {
        self.probs.values().sum()
    }

    /// Largest absolute difference in `P(B)` against another distribution
    /// (over the union of supports). The convergence metric of Fig. 11.
    pub fn max_abs_diff(&self, other: &Distribution) -> f64 {
        let mut d: f64 = 0.0;
        for (b, &p) in self.probs.iter() {
            d = d.max((p - other.prob(b)).abs());
        }
        for (b, &p) in other.probs.iter() {
            d = d.max((p - self.prob(b)).abs());
        }
        d
    }
}

/// Accumulates per-trial `S_MB` hits; the common tallying backend of the
/// MC-VP, OS, and Algorithm 5 solvers. Mergeable for parallel execution.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// `pub(crate)` so [`checkpoint`](crate::checkpoint) can encode and
    /// rebuild tallies byte-exactly.
    pub(crate) counts: FxHashMap<Butterfly, u64>,
    pub(crate) trials: u64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished trial whose `S_MB` is `smb`.
    pub fn record_trial<'a>(&mut self, smb: impl IntoIterator<Item = &'a Butterfly>) {
        self.trials += 1;
        for b in smb {
            *self.counts.entry(*b).or_insert(0) += 1;
        }
    }

    /// Number of recorded trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Hit count of one butterfly.
    pub fn count(&self, b: &Butterfly) -> u64 {
        self.counts.get(b).copied().unwrap_or(0)
    }

    /// The running leader: the most-hit butterfly with its hit count.
    /// Ties go to the smaller butterfly in canonical order, as in
    /// [`Distribution::mpmb`].
    pub fn leader(&self) -> Option<(Butterfly, u64)> {
        self.counts
            .iter()
            .map(|(&b, &c)| (b, c))
            .max_by(|(b1, c1), (b2, c2)| c1.cmp(c2).then_with(|| b2.cmp(b1)))
    }

    /// Merges another tally (disjoint trial ranges) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.trials += other.trials;
        for (b, c) in other.counts {
            *self.counts.entry(b).or_insert(0) += c;
        }
    }

    /// Finalizes into a distribution.
    pub fn into_distribution(self) -> Distribution {
        Distribution::from_counts(self.counts, self.trials.max(1))
    }

    /// Iterator over `(butterfly, count)` entries.
    pub fn counts(&self) -> impl Iterator<Item = (&Butterfly, &u64)> {
        self.counts.iter()
    }

    /// Running estimate for one butterfly (`count / trials`), read by
    /// [`crate::engine::convergence_trace`].
    pub fn running_estimate(&self, b: &Butterfly) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.count(b) as f64 / self.trials as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{Left, Right};

    fn bf(u1: u32, u2: u32, v1: u32, v2: u32) -> Butterfly {
        Butterfly::new(Left(u1), Left(u2), Right(v1), Right(v2))
    }

    #[test]
    fn from_counts_normalizes() {
        let mut counts = FxHashMap::default();
        counts.insert(bf(0, 1, 0, 1), 25u64);
        counts.insert(bf(0, 1, 1, 2), 75u64);
        let d = Distribution::from_counts(counts, 100);
        assert_eq!(d.prob(&bf(0, 1, 0, 1)), 0.25);
        assert_eq!(d.prob(&bf(0, 1, 1, 2)), 0.75);
        assert_eq!(d.prob(&bf(5, 6, 5, 6)), 0.0);
        assert_eq!(d.trials(), Some(100));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn mpmb_returns_argmax_with_deterministic_ties() {
        let mut probs = FxHashMap::default();
        probs.insert(bf(0, 1, 0, 1), 0.5);
        probs.insert(bf(0, 2, 0, 1), 0.5);
        probs.insert(bf(0, 3, 0, 1), 0.2);
        let d = Distribution::from_exact(probs);
        // Tie at 0.5: the canonically smaller butterfly wins.
        assert_eq!(d.mpmb(), Some((bf(0, 1, 0, 1), 0.5)));
        // The running leader of a tally breaks a hit tie the same way.
        let mut tally = Tally::new();
        tally.record_trial(&[bf(0, 2, 0, 1)]);
        tally.record_trial(&[bf(0, 1, 0, 1), bf(0, 3, 0, 1)]);
        tally.record_trial(&[bf(0, 2, 0, 1), bf(0, 1, 0, 1)]);
        assert_eq!(tally.leader(), Some((bf(0, 1, 0, 1), 2)));
        assert_eq!(Tally::new().leader(), None);
    }

    #[test]
    fn top_k_orders_descending_and_truncates() {
        let mut probs = FxHashMap::default();
        probs.insert(bf(0, 1, 0, 1), 0.1);
        probs.insert(bf(0, 2, 0, 1), 0.3);
        probs.insert(bf(0, 3, 0, 1), 0.2);
        let d = Distribution::from_exact(probs);
        let top2 = d.top_k(2);
        assert_eq!(top2[0], (bf(0, 2, 0, 1), 0.3));
        assert_eq!(top2[1], (bf(0, 3, 0, 1), 0.2));
        assert_eq!(d.top_k(99).len(), 3);
        assert!(d.top_k(0).is_empty());
    }

    #[test]
    fn empty_distribution_has_no_mpmb() {
        let d = Distribution::new();
        assert!(d.mpmb().is_none());
        assert!(d.is_empty());
        assert_eq!(d.total_mass(), 0.0);
    }

    #[test]
    fn tally_records_and_merges() {
        let a1 = bf(0, 1, 0, 1);
        let a2 = bf(0, 1, 1, 2);
        let mut t1 = Tally::new();
        t1.record_trial([&a1]);
        t1.record_trial([&a1, &a2]);
        t1.record_trial(std::iter::empty());
        let mut t2 = Tally::new();
        t2.record_trial([&a2]);
        t1.merge(t2);
        assert_eq!(t1.trials(), 4);
        assert_eq!(t1.count(&a1), 2);
        assert_eq!(t1.count(&a2), 2);
        let d = t1.into_distribution();
        assert_eq!(d.prob(&a1), 0.5);
        assert_eq!(d.prob(&a2), 0.5);
    }

    #[test]
    fn max_abs_diff_covers_both_supports() {
        let mut p1 = FxHashMap::default();
        p1.insert(bf(0, 1, 0, 1), 0.4);
        let mut p2 = FxHashMap::default();
        p2.insert(bf(0, 1, 1, 2), 0.3);
        let d1 = Distribution::from_exact(p1);
        let d2 = Distribution::from_exact(p2);
        assert_eq!(d1.max_abs_diff(&d2), 0.4);
        assert_eq!(d2.max_abs_diff(&d1), 0.4);
        assert_eq!(d1.max_abs_diff(&d1), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero-trial")]
    fn zero_trials_rejected() {
        let _ = Distribution::from_counts(FxHashMap::default(), 0);
    }
}

//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

/// An inclusive size span for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        if self.lo >= self.hi {
            return self.lo;
        }
        self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a size drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeSet<S::Value>` with a *target* size drawn from
/// `size`. Like real proptest, the target may be missed when the element
/// domain is too small to supply enough distinct values — generation
/// stops after a bounded number of duplicate draws rather than spinning.
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        let mut misses = 0usize;
        while set.len() < target && misses < 16 * target + 64 {
            if !set.insert(self.element.generate(rng)) {
                misses += 1;
            }
        }
        set
    }
}

//! Angles (Definition 3) and the §V-C top-two angle slots.
//!
//! An angle `∠(x, m, y)` is a 2-path: endpoints `x, y` on one side, middle
//! `m` on the other. Ordering Sampling only ever needs, per endpoint pair,
//! the angles of the two largest weight classes (`A₁`, `A₂`): any heavier
//! butterfly over that pair could otherwise be formed from two retained
//! angles, contradicting maximality (§V-C). [`TopTwoAngles`] implements
//! exactly the Table II update rules.
//!
//! [`SlotTable`] is the trial-loop container for those slots. A generic
//! hash map of `TopTwoAngles` is the natural shape, but a terrible fit
//! for the workload: on dense graphs a single trial creates tens of
//! thousands of endpoint-pair slots, nearly all of which receive exactly
//! **one** angle — so a map of heap-backed slots spends its time
//! allocating, dropping, and re-clearing `Vec`s. The table instead keeps
//! one flat open-addressed bucket array whose entries embed the
//! overwhelmingly common single-mid classes inline, generation-stamps
//! buckets so a new trial clears in O(1), and spills the rare multi-mid
//! (tied) classes into a pooled `Vec<TopTwoAngles>` that is reused
//! across trials. Semantics are exactly `FxHashMap<(x, y), TopTwoAngles>`
//! (property-tested below); enumeration order is first-insertion order,
//! which is deterministic because the trial scan is.
//!
//! When the endpoint side is small enough that every unordered pair fits
//! in a few thousand buckets (`n(n−1)/2 ≤` [`DIRECT_MAX_PAIRS`]), the
//! table skips hashing altogether: each pair owns the bucket at its
//! triangular index, so a probe is one multiply-add and never walks a
//! chain, and the table never grows. Larger sides stay hashed. Both
//! index paths share the one insert path (DESIGN.md §6.5).

use bigraph::Weight;

/// The `A₁`/`A₂` slots for one endpoint pair: all angles of the top weight
/// class and all angles of the second weight class, each angle identified
/// by its middle vertex (the endpoints are fixed by the map key).
#[derive(Clone, Debug, PartialEq)]
pub struct TopTwoAngles {
    /// Weight of the `A₁` class; `NEG_INFINITY` when empty.
    w1: Weight,
    /// Middle vertices of the `A₁` class.
    mids1: Vec<u32>,
    /// Weight of the `A₂` class; `NEG_INFINITY` when empty.
    w2: Weight,
    /// Middle vertices of the `A₂` class.
    mids2: Vec<u32>,
}

impl Default for TopTwoAngles {
    fn default() -> Self {
        TopTwoAngles {
            w1: f64::NEG_INFINITY,
            mids1: Vec::new(),
            w2: f64::NEG_INFINITY,
            mids2: Vec::new(),
        }
    }
}

impl TopTwoAngles {
    /// Creates empty slots.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the angle with middle vertex `mid` and weight `w`,
    /// following Table II. Middles are unique per endpoint pair in a
    /// simple bipartite graph, so no dedup is needed.
    pub fn insert(&mut self, mid: u32, w: Weight) {
        if w > self.w1 {
            // New top class: old A₁ demotes to A₂.
            std::mem::swap(&mut self.mids1, &mut self.mids2);
            self.w2 = self.w1;
            self.mids1.clear();
            self.mids1.push(mid);
            self.w1 = w;
        } else if w == self.w1 {
            self.mids1.push(mid);
        } else if w > self.w2 {
            self.mids2.clear();
            self.mids2.push(mid);
            self.w2 = w;
        } else if w == self.w2 {
            self.mids2.push(mid);
        }
        // w < w2: ignored (Table II last row).
    }

    /// Weight of the `A₁` class (`None` when empty).
    pub fn w1(&self) -> Option<Weight> {
        self.mids1.first().map(|_| self.w1)
    }

    /// Weight of the `A₂` class (`None` when empty).
    pub fn w2(&self) -> Option<Weight> {
        self.mids2.first().map(|_| self.w2)
    }

    /// Middle vertices of the `A₁` class.
    pub fn mids1(&self) -> &[u32] {
        &self.mids1
    }

    /// Middle vertices of the `A₂` class.
    pub fn mids2(&self) -> &[u32] {
        &self.mids2
    }

    /// Weight of the heaviest butterfly formable over this endpoint pair:
    /// `2·w₁` when `|A₁| ≥ 2`, else `w₁ + w₂` when `A₂` is non-empty
    /// (§V-D), else `None` when fewer than two angles exist.
    pub fn best_butterfly_weight(&self) -> Option<Weight> {
        if self.mids1.len() >= 2 {
            Some(self.w1 + self.w1)
        } else if !self.mids1.is_empty() && !self.mids2.is_empty() {
            Some(self.w1 + self.w2)
        } else {
            None
        }
    }

    /// Clears the slots, keeping list capacity for reuse across trials.
    pub fn clear(&mut self) {
        self.w1 = f64::NEG_INFINITY;
        self.w2 = f64::NEG_INFINITY;
        self.mids1.clear();
        self.mids2.clear();
    }
}

/// Sentinel for "no spill slot".
const NO_SPILL: u32 = u32::MAX;

/// Largest endpoint-pair count `n(n−1)/2` that [`SlotTable`] indexes
/// directly (one bucket per pair, 40 bytes each) instead of hashing:
/// endpoint sides of up to 91 vertices.
pub const DIRECT_MAX_PAIRS: usize = 4096;

/// Initial bucket count of a hashed table.
const HASHED_BUCKETS: usize = 1024;

/// A bucket no trial owns yet.
const EMPTY_BUCKET: Bucket = Bucket {
    key: 0,
    gen: 0,
    spill: NO_SPILL,
    w1: f64::NEG_INFINITY,
    w2: f64::NEG_INFINITY,
    m1: 0,
    m2: 0,
};

/// One open-addressed bucket: probe metadata and the inline slot state
/// live side by side so a lookup touches a single cache line.
#[derive(Clone, Copy)]
struct Bucket {
    /// Packed endpoint pair `(x << 32) | y`.
    key: u64,
    /// Trial generation that owns this bucket; stale = empty.
    gen: u32,
    /// Index into the spill pool once a weight class holds ≥ 2 mids.
    spill: u32,
    /// `A₁` weight (`NEG_INFINITY` never occurs inline: a live bucket
    /// has at least one angle).
    w1: Weight,
    /// `A₂` weight; `NEG_INFINITY` when the class is empty.
    w2: Weight,
    /// The single `A₁` middle.
    m1: u32,
    /// The single `A₂` middle (meaningful iff `w2` is finite).
    m2: u32,
}

/// Flat slot container for one trial's endpoint-pair angle slots — see
/// the module docs for why this beats a hash map of [`TopTwoAngles`].
///
/// Keys are unordered endpoint pairs. A table built for an endpoint side
/// of at most 91 vertices ([`DIRECT_MAX_PAIRS`]) gives every pair its own
/// bucket at the triangular index `y(y−1)/2 + x` (`x < y`); a larger
/// side hashes into an open-addressed array that doubles past 3/4 load.
/// Only `probe` and the grow check tell the two apart.
pub struct SlotTable {
    buckets: Vec<Bucket>,
    /// Hash mask (`buckets.len() − 1`) of a hashed table; `None` for a
    /// directly indexed one, which holds every pair and never grows.
    mask: Option<usize>,
    /// Bucket indices in first-insertion order (the live set).
    live: Vec<u32>,
    /// Pooled storage for tied (multi-mid) classes, reused across trials.
    spill: Vec<TopTwoAngles>,
    spill_used: usize,
    gen: u32,
}

impl SlotTable {
    /// An empty table for endpoint ids below `endpoints`: directly
    /// indexed when all `endpoints·(endpoints−1)/2` pairs fit in
    /// [`DIRECT_MAX_PAIRS`] buckets, else hashed with buckets that grow
    /// on demand and then persist.
    pub fn new(endpoints: usize) -> Self {
        let pairs = endpoints.saturating_mul(endpoints.saturating_sub(1)) / 2;
        let (cap, mask) = if pairs <= DIRECT_MAX_PAIRS {
            (pairs, None)
        } else {
            (HASHED_BUCKETS, Some(HASHED_BUCKETS - 1))
        };
        SlotTable {
            buckets: vec![EMPTY_BUCKET; cap],
            mask,
            live: Vec::new(),
            spill: Vec::new(),
            spill_used: 0,
            gen: 0,
        }
    }

    /// Starts a fresh trial: every bucket becomes logically empty in
    /// O(1) (generation bump), the spill pool rewinds without dropping
    /// its `Vec` capacities.
    pub fn begin_trial(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: physically clear the stamps once.
            for b in &mut self.buckets {
                b.gen = 0;
            }
            self.gen = 1;
        }
        self.live.clear();
        self.spill_used = 0;
    }

    /// Number of live slots this trial.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no slot has been touched this trial.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The bucket that holds `key` this trial, or the empty bucket
    /// where it goes.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let Some(mask) = self.mask else {
            // Direct: the pair's triangular index (keys have `x < y`).
            let (x, y) = ((key >> 32) as usize, key as u32 as usize);
            return y * (y - 1) / 2 + x;
        };
        // SplitMix64-style finalizer: full-width mixing so the low bits
        // used by the mask depend on every key bit.
        let mut h = key ^ (key >> 33);
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let mut i = h as usize & mask;
        loop {
            let b = &self.buckets[i];
            if b.gen != self.gen || b.key == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles a hashed bucket array, re-inserting live buckets. `live`
    /// keeps its insertion order; only the bucket *indices* change.
    #[cold]
    fn grow(&mut self, mask: usize) {
        let old = std::mem::take(&mut self.buckets);
        let cap = (mask + 1) * 2;
        self.buckets = vec![EMPTY_BUCKET; cap];
        self.mask = Some(cap - 1);
        let live = std::mem::take(&mut self.live);
        for &i in &live {
            let b = old[i as usize];
            let j = self.probe(b.key);
            self.buckets[j] = b;
            self.live.push(j as u32);
        }
        debug_assert_eq!(self.live.len(), live.len());
    }

    /// Moves an inline bucket's state into a pooled [`TopTwoAngles`] so
    /// it can hold a tied (multi-mid) class, and returns the pool index.
    #[cold]
    fn spill_bucket(&mut self, i: usize) -> usize {
        let s = self.spill_used;
        if s == self.spill.len() {
            self.spill.push(TopTwoAngles::new());
        } else {
            self.spill[s].clear();
        }
        self.spill_used += 1;
        let b = self.buckets[i];
        // Replay the retained classes heaviest-first; arrival order
        // within single-mid classes is trivially preserved.
        self.spill[s].insert(b.m1, b.w1);
        if b.w2 > f64::NEG_INFINITY {
            self.spill[s].insert(b.m2, b.w2);
        }
        self.buckets[i].spill = s as u32;
        s
    }

    /// Inserts the angle `∠(a, mid, b)` of weight `w` and returns the
    /// slot's best butterfly weight (`None` until it has two angles with
    /// distinct middles) — exactly `TopTwoAngles::insert` followed by
    /// `best_butterfly_weight`, on the slot keyed by the unordered pair
    /// `{a, b}` (`a ≠ b`, both below the table's `endpoints`).
    #[inline]
    pub fn insert(&mut self, a: u32, b: u32, mid: u32, w: Weight) -> Option<Weight> {
        // Beyond 3/4 load the probe chains (and miss rate) degrade;
        // grow before inserting so `probe` always terminates. A direct
        // table already holds a bucket for every pair.
        if let Some(mask) = self.mask {
            if (self.live.len() + 1) * 4 > (mask + 1) * 3 {
                self.grow(mask);
            }
        }
        debug_assert_ne!(a, b, "an angle's endpoints are distinct");
        let (x, y) = (a.min(b), a.max(b));
        let key = (u64::from(x) << 32) | u64::from(y);
        let i = self.probe(key);
        let b = &mut self.buckets[i];
        if b.gen != self.gen {
            *b = Bucket {
                key,
                gen: self.gen,
                spill: NO_SPILL,
                w1: w,
                w2: f64::NEG_INFINITY,
                m1: mid,
                m2: 0,
            };
            self.live.push(i as u32);
            return None;
        }
        if b.spill == NO_SPILL {
            if w > b.w1 {
                // New top class: old A₁ demotes to A₂ (dropping old A₂).
                b.w2 = b.w1;
                b.m2 = b.m1;
                b.w1 = w;
                b.m1 = mid;
            } else if w > b.w2 && w < b.w1 {
                b.w2 = w;
                b.m2 = mid;
            } else if w == b.w1 || w == b.w2 {
                // A tie makes a class multi-mid: move to the spill pool.
                let s = self.spill_bucket(i);
                self.spill[s].insert(mid, w);
                return self.spill[s].best_butterfly_weight();
            }
            // (w < w2: ignored, Table II last row.)
            let b = self.buckets[i];
            return if b.w2 > f64::NEG_INFINITY {
                Some(b.w1 + b.w2)
            } else {
                None
            };
        }
        let s = b.spill as usize;
        self.spill[s].insert(mid, w);
        self.spill[s].best_butterfly_weight()
    }

    /// Visits every live slot in first-insertion order (deterministic:
    /// the trial scan order decides it, not hashing or the index path)
    /// as `f(x, y, w1, mids1, w2, mids2)` with `x < y`; `mids2` is empty
    /// when the `A₂` class is, and `w2` is then `NEG_INFINITY`.
    pub fn for_each_live(&self, mut f: impl FnMut(u32, u32, Weight, &[u32], Weight, &[u32])) {
        for &i in &self.live {
            let b = &self.buckets[i as usize];
            let (x, y) = ((b.key >> 32) as u32, b.key as u32);
            if b.spill == NO_SPILL {
                let mids2 = if b.w2 > f64::NEG_INFINITY {
                    std::slice::from_ref(&b.m2)
                } else {
                    &[]
                };
                f(x, y, b.w1, std::slice::from_ref(&b.m1), b.w2, mids2);
            } else {
                let t = &self.spill[b.spill as usize];
                let (w1, w2) = (
                    t.w1().unwrap_or(f64::NEG_INFINITY),
                    t.w2().unwrap_or(f64::NEG_INFINITY),
                );
                f(x, y, w1, t.mids1(), w2, t.mids2());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type WeightClass = Option<(f64, Vec<u32>)>;

    /// Reference implementation: keep everything, compute top-2 classes.
    fn reference(angles: &[(u32, f64)]) -> (WeightClass, WeightClass) {
        let mut ws: Vec<f64> = angles.iter().map(|&(_, w)| w).collect();
        ws.sort_by(|a, b| b.total_cmp(a));
        ws.dedup();
        let class = |w: f64| -> Vec<u32> {
            let mut v: Vec<u32> = angles
                .iter()
                .filter(|&&(_, aw)| aw == w)
                .map(|&(m, _)| m)
                .collect();
            v.sort_unstable();
            v
        };
        let first = ws.first().map(|&w| (w, class(w)));
        let second = ws.get(1).map(|&w| (w, class(w)));
        (first, second)
    }

    fn slots_of(angles: &[(u32, f64)]) -> TopTwoAngles {
        let mut t = TopTwoAngles::new();
        for &(m, w) in angles {
            t.insert(m, w);
        }
        t
    }

    fn sorted(v: &[u32]) -> Vec<u32> {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn table2_case_greater_than_w1() {
        let t = slots_of(&[(1, 5.0), (2, 7.0)]);
        assert_eq!(t.w1(), Some(7.0));
        assert_eq!(t.mids1(), &[2]);
        assert_eq!(t.w2(), Some(5.0));
        assert_eq!(t.mids2(), &[1]);
    }

    #[test]
    fn table2_case_equal_w1_appends() {
        let t = slots_of(&[(1, 5.0), (2, 5.0)]);
        assert_eq!(t.w1(), Some(5.0));
        assert_eq!(sorted(t.mids1()), vec![1, 2]);
        assert_eq!(t.w2(), None);
    }

    #[test]
    fn table2_case_between_replaces_a2() {
        let t = slots_of(&[(1, 5.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(t.w2(), Some(3.0));
        assert_eq!(t.mids2(), &[3]);
    }

    #[test]
    fn table2_case_equal_w2_appends() {
        let t = slots_of(&[(1, 5.0), (2, 3.0), (3, 3.0)]);
        assert_eq!(t.w2(), Some(3.0));
        assert_eq!(sorted(t.mids2()), vec![2, 3]);
    }

    #[test]
    fn table2_case_below_w2_ignored() {
        let t = slots_of(&[(1, 5.0), (2, 3.0), (3, 1.0)]);
        assert_eq!(t.w1(), Some(5.0));
        assert_eq!(t.w2(), Some(3.0));
        assert_eq!(t.mids2(), &[2]);
    }

    #[test]
    fn promotion_demotes_whole_a1_class() {
        let t = slots_of(&[(1, 5.0), (2, 5.0), (3, 9.0)]);
        assert_eq!(t.w1(), Some(9.0));
        assert_eq!(t.mids1(), &[3]);
        assert_eq!(t.w2(), Some(5.0));
        assert_eq!(sorted(t.mids2()), vec![1, 2]);
    }

    #[test]
    fn best_butterfly_weight_cases() {
        assert_eq!(TopTwoAngles::new().best_butterfly_weight(), None);
        assert_eq!(slots_of(&[(1, 5.0)]).best_butterfly_weight(), None);
        assert_eq!(
            slots_of(&[(1, 5.0), (2, 5.0)]).best_butterfly_weight(),
            Some(10.0)
        );
        assert_eq!(
            slots_of(&[(1, 5.0), (2, 3.0)]).best_butterfly_weight(),
            Some(8.0)
        );
        assert_eq!(
            slots_of(&[(1, 5.0), (2, 5.0), (3, 3.0)]).best_butterfly_weight(),
            Some(10.0)
        );
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut t = slots_of(&[(1, 5.0), (2, 5.0), (3, 3.0)]);
        t.clear();
        assert_eq!(t.w1(), None);
        assert_eq!(t.w2(), None);
        assert_eq!(t.best_butterfly_weight(), None);
        t.insert(9, 1.0);
        assert_eq!(t.w1(), Some(1.0));
    }

    #[test]
    fn slot_table_matches_hashmap_of_top_two_angles() {
        // The table must behave exactly like a map of TopTwoAngles:
        // same per-insert best-weight answers, same final class content,
        // on both index paths (64 endpoints: 2,016 pairs, direct; 10⁶:
        // hashed, across growth), with ties (spill path) and with the
        // pair given in either order.
        for (endpoints, direct) in [(64, true), (1 << 20, false)] {
            let mut table = SlotTable::new(endpoints);
            assert_eq!(table.mask.is_none(), direct);
            // Deterministic LCG so the exercise covers collisions and ties.
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            for _trial in 0..3 {
                table.begin_trial();
                let mut reference: Vec<((u32, u32), TopTwoAngles)> = Vec::new();
                for _ in 0..4000 {
                    let x = (next() % 40) as u32;
                    let y = x + 1 + (next() % 24) as u32;
                    let mid = (next() % 30) as u32;
                    let w = (next() % 8) as f64;
                    let got = if next() % 2 == 0 {
                        table.insert(x, y, mid, w)
                    } else {
                        table.insert(y, x, mid, w)
                    };
                    let slot = match reference.iter_mut().find(|(k, _)| *k == (x, y)) {
                        Some((_, s)) => s,
                        None => {
                            reference.push(((x, y), TopTwoAngles::new()));
                            &mut reference.last_mut().unwrap().1
                        }
                    };
                    slot.insert(mid, w);
                    assert_eq!(got, slot.best_butterfly_weight());
                }
                assert_eq!(table.len(), reference.len());
                let mut seen = 0;
                table.for_each_live(|x, y, w1, m1, w2, m2| {
                    let (_, want) = &reference[seen];
                    assert_eq!(reference[seen].0, (x, y), "insertion order");
                    assert_eq!(Some(w1), want.w1());
                    assert_eq!(m1, want.mids1());
                    assert_eq!(m2, want.mids2());
                    if !m2.is_empty() {
                        assert_eq!(Some(w2), want.w2());
                    }
                    seen += 1;
                });
                assert_eq!(seen, reference.len());
            }
        }
    }

    #[test]
    fn direct_index_covers_every_pair_of_the_largest_direct_side() {
        // 91 endpoints is the largest side indexed directly; every
        // pair gets its own bucket, none shared, none out of range.
        let n = 91u32;
        assert!((n as usize) * (n as usize - 1) / 2 <= DIRECT_MAX_PAIRS);
        assert!(SlotTable::new(92).mask.is_some());
        let mut table = SlotTable::new(n as usize);
        assert!(table.mask.is_none());
        table.begin_trial();
        for y in 1..n {
            for x in 0..y {
                assert_eq!(table.insert(y, x, 0, 1.0), None);
            }
        }
        assert_eq!(table.len(), 91 * 90 / 2);
        assert_eq!(table.buckets.len(), table.len());
        table.begin_trial();
        assert!(table.is_empty());
    }

    #[test]
    fn matches_reference_on_random_sequences() {
        // Small deterministic pseudo-random exercise across permutations.
        let weights = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0];
        let mut angles: Vec<(u32, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u32, w))
            .collect();
        // Try several rotations as insertion orders.
        for rot in 0..angles.len() {
            angles.rotate_left(1);
            let t = slots_of(&angles);
            let (r1, r2) = reference(&angles);
            let (w1, m1) = r1.unwrap();
            assert_eq!(t.w1(), Some(w1), "rot={rot}");
            assert_eq!(sorted(t.mids1()), m1);
            let (w2, m2) = r2.unwrap();
            assert_eq!(t.w2(), Some(w2));
            assert_eq!(sorted(t.mids2()), m2);
        }
    }
}

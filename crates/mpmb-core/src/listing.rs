//! Backbone butterfly listing: the sequential wedge kernel behind
//! [`crate::for_each_backbone_butterfly`] and
//! [`crate::count_backbone_butterflies`].
//!
//! For a start vertex `u₁` the kernel walks each right neighbor `v` and
//! each of `v`'s left neighbors `u₂ > u₁`; bucketing the wedge middles
//! per `u₂` yields every common-neighbor list in one pass, `O(Σ wedges)`
//! instead of `O(|L|²)` pair probes (the wedge aggregation of BFC-VP
//! [Wang et al., PVLDB 2019]).
//!
//! The emission order is the canonical `(u₁, u₂)`-major order of the
//! pairwise scan, and it is part of the contract: a candidate set built
//! from the stream keys per-candidate RNG streams by index.

use crate::butterfly::Butterfly;
use bigraph::{Left, Right, UncertainBipartiteGraph};

/// Reusable scratch for one start vertex's wedge expansion: a flat
/// `u32` bucket arena over **degree-ranked** left ids.
///
/// Buckets are indexed by the graph's degree-descending left rank rather
/// than the raw vertex id (`bigraph::degree_desc_ranks`): high-degree
/// vertices close the most wedges, so the counters that are hit on
/// nearly every wedge all live at the head of `counts`/`base` and stay
/// cache-resident — the BFC-VP wedge-aggregation layout. The relabeling
/// is pure index bookkeeping: emission translates ranks back through
/// `left_by_rank` and sorts by *original* id, so the canonical
/// `(u₁, u₂)`-major butterfly stream is untouched.
///
/// Middles land in one flat `arena` (bases from a prefix sum over the
/// touched ranks) instead of per-vertex `Vec<Vec<u32>>`, killing the
/// per-start allocation and pointer chase of that layout; `touched`
/// keeps clearing `O(touched ranks)`.
struct WedgeScratch {
    /// Per-rank middle count; doubles as the placement cursor in pass 2
    /// (it ends back at the bucket length, which emission reads).
    counts: Vec<u32>,
    /// Per-rank start offset into `arena`.
    base: Vec<u32>,
    /// Flat middle storage; bucket `r` is `arena[base[r]..][..counts[r]]`.
    arena: Vec<u32>,
    /// Ranks with non-empty buckets, in first-touch order.
    touched: Vec<u32>,
    /// Blocked wedge iteration: per middle `v` of the start vertex, the
    /// `(v, partition_point)` pair caching where its `> a` tail begins,
    /// so the second (placement) pass replays whole neighbor blocks
    /// without re-running the binary search.
    tails: Vec<(u32, u32)>,
}

impl WedgeScratch {
    fn new(num_left: usize) -> Self {
        WedgeScratch {
            counts: vec![0; num_left],
            base: vec![0; num_left],
            arena: Vec::new(),
            touched: Vec::new(),
            tails: Vec::new(),
        }
    }

    /// Pass 1: count middles per rank over the wedges of start vertex
    /// `a`, caching each middle's tail start. Returns the total wedge
    /// count (the arena size needed).
    fn count_pass(&mut self, g: &UncertainBipartiteGraph, a: u32) -> usize {
        let ranks = g.left_ranks();
        let mut total = 0usize;
        for adj in g.left_adj(Left(a)) {
            let radj = g.right_adj(Right(adj.nbr));
            // Only wedges toward larger left ids: each butterfly is
            // listed exactly once, from its smaller left vertex.
            let from = radj.partition_point(|x| x.nbr <= a);
            let tail = &radj[from..];
            if tail.is_empty() {
                continue;
            }
            total += tail.len();
            self.tails.push((adj.nbr, from as u32));
            for x in tail {
                let r = ranks[x.nbr as usize] as usize;
                if self.counts[r] == 0 {
                    self.touched.push(r as u32);
                }
                self.counts[r] += 1;
            }
        }
        total
    }

    /// Resets the touched counters (and the tail cache) to pristine.
    fn clear(&mut self) {
        for &r in &self.touched {
            self.counts[r as usize] = 0;
        }
        self.touched.clear();
        self.tails.clear();
    }
}

/// Streams every butterfly with smaller left vertex `a`, in canonical
/// order (`u₂` ascending, then `(v₁, v₂)` lexicographic) — the same
/// order the pairwise scan produces for this start vertex.
fn for_each_from_start(
    g: &UncertainBipartiteGraph,
    a: u32,
    scratch: &mut WedgeScratch,
    f: &mut impl FnMut(Butterfly),
) {
    let total = scratch.count_pass(g, a);
    if total == 0 {
        scratch.clear();
        return;
    }
    if scratch.arena.len() < total {
        scratch.arena.resize(total, 0);
    }
    // Assign contiguous arena regions (first-touch order is fine — the
    // regions only need to be disjoint), resetting counts to act as
    // placement cursors.
    let mut acc = 0u32;
    for &r in &scratch.touched {
        scratch.base[r as usize] = acc;
        acc += scratch.counts[r as usize];
        scratch.counts[r as usize] = 0;
    }
    // Pass 2: replay the cached neighbor blocks, placing each middle in
    // its rank's region. Middles arrive ascending per bucket because
    // `left_adj(a)` is id-sorted.
    let ranks = g.left_ranks();
    for &(mid, from) in &scratch.tails {
        let radj = g.right_adj(Right(mid));
        for x in &radj[from as usize..] {
            let r = ranks[x.nbr as usize] as usize;
            scratch.arena[(scratch.base[r] + scratch.counts[r]) as usize] = mid;
            scratch.counts[r] += 1;
        }
    }
    // Emit in canonical order: ranks sorted by ORIGINAL id, so the
    // relabeling is invisible in the output stream. Kernel invariants
    // `a < b` and `v₁ < v₂` make every tuple already canonical.
    let by_rank = g.left_by_rank();
    scratch
        .touched
        .sort_unstable_by_key(|&r| by_rank[r as usize]);
    for &r in &scratch.touched {
        let b = by_rank[r as usize];
        let start = scratch.base[r as usize] as usize;
        let len = scratch.counts[r as usize] as usize;
        let common = &scratch.arena[start..start + len];
        for x in 0..common.len() {
            for &v2 in &common[(x + 1)..] {
                f(Butterfly::new(
                    Left(a),
                    Left(b),
                    Right(common[x]),
                    Right(v2),
                ));
            }
        }
    }
    scratch.clear();
}

/// Butterflies with smaller left vertex `a`, counted without
/// materialization: each bucket of `c` common middles holds `C(c, 2)`.
/// Only needs the counting pass — no arena placement, no ordering.
fn count_from_start(g: &UncertainBipartiteGraph, a: u32, scratch: &mut WedgeScratch) -> u64 {
    scratch.count_pass(g, a);
    let mut n = 0u64;
    for &r in &scratch.touched {
        let c = scratch.counts[r as usize] as u64;
        n += c * (c - 1) / 2;
    }
    scratch.clear();
    n
}

/// Wedge-kernel enumeration over all start vertices, in canonical order.
pub(crate) fn for_each(g: &UncertainBipartiteGraph, mut f: impl FnMut(Butterfly)) {
    let mut scratch = WedgeScratch::new(g.num_left());
    for a in 0..g.num_left() as u32 {
        for_each_from_start(g, a, &mut scratch, &mut f);
    }
}

/// Wedge-kernel count over all start vertices.
pub(crate) fn count(g: &UncertainBipartiteGraph) -> u64 {
    let mut scratch = WedgeScratch::new(g.num_left());
    (0..g.num_left() as u32)
        .map(|a| count_from_start(g, a, &mut scratch))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::enumerate_backbone_butterflies;
    use bigraph::GraphBuilder;

    fn k33_distinct_weights() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_edge(Left(u), Right(v), (3 * u + v) as f64, 0.5)
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_graph_has_no_butterflies() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(enumerate_backbone_butterflies(&g).is_empty());
        assert_eq!(count(&g), 0);
    }

    #[test]
    fn pairwise_reference_agrees_with_wedge_kernel() {
        // The original O(|L|²) pair-merge enumeration, kept as a test
        // oracle for the wedge kernel's order guarantee.
        let g = k33_distinct_weights();
        let mut reference = Vec::new();
        let nl = g.num_left() as u32;
        for a in 0..nl {
            for b in (a + 1)..nl {
                let (la, lb) = (g.left_adj(Left(a)), g.left_adj(Left(b)));
                let mut common: Vec<u32> = Vec::new();
                let (mut i, mut j) = (0, 0);
                while i < la.len() && j < lb.len() {
                    match la[i].nbr.cmp(&lb[j].nbr) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            common.push(la[i].nbr);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                for x in 0..common.len() {
                    for &v2 in &common[(x + 1)..] {
                        reference.push(Butterfly::new(
                            Left(a),
                            Left(b),
                            Right(common[x]),
                            Right(v2),
                        ));
                    }
                }
            }
        }
        assert_eq!(enumerate_backbone_butterflies(&g), reference);
    }
}

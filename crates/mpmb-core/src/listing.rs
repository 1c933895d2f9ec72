//! Deterministic (parallel) backbone butterfly listing.
//!
//! The listing phase — enumerating every butterfly of the backbone, or
//! building a full-backbone [`CandidateSet`] — used to be the last
//! single-threaded wall in the pipeline: the sampling phases have had
//! deterministic multi-threaded runners in [`crate::engine`] since the
//! start, but `for_each_backbone_butterfly` walked all `O(|L|²)` left
//! pairs on one core.
//!
//! This module replaces that with a wedge-based kernel in the style of
//! BFC-VP [Wang et al., PVLDB 2019] / parallel butterfly counting
//! [Shi & Shun, 2020]:
//!
//! * **Wedge enumeration** — for a start vertex `u₁`, walk each right
//!   neighbor `v` and each of `v`'s left neighbors `u₂ > u₁`; bucketing
//!   the wedge middles per `u₂` yields every common-neighbor list in one
//!   pass, `O(Σ wedges)` instead of `O(|L|²)` pair probes.
//! * **Work-balanced shards** — start vertices are partitioned into
//!   contiguous shards whose *estimated* wedge work (the degree-profile
//!   cost model that BFC-VP's priority order is built from) is equal, so
//!   one hub vertex cannot serialize the run.
//! * **Deterministic merge** — each worker writes into a private buffer
//!   and buffers are concatenated in shard order. Because shards are
//!   contiguous start-vertex ranges, the merged stream is *exactly* the
//!   sequential canonical `(u₁, u₂)`-major order, independent of how the
//!   OS schedules workers.
//!
//! The ordering guarantee is not cosmetic: OLS keys the Karp-Luby
//! per-candidate RNG streams by candidate *index*, so a candidate set
//! whose indices depend on thread count would silently change results.
//! Everything here is byte-for-byte identical to the sequential build at
//! every thread count (property-tested in `tests/listing_proptests.rs`).

use crate::butterfly::Butterfly;
use crate::candidates::{Candidate, CandidateSet};
use bigraph::{EdgeId, Left, Right, UncertainBipartiteGraph};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shards handed out per worker: oversubscription lets fast workers
/// steal remaining shards when the work estimate is off.
const SHARDS_PER_THREAD: usize = 4;

/// Reusable per-worker scratch for one start vertex's wedge expansion:
/// a flat `u32` bucket arena over **degree-ranked** left ids.
///
/// Buckets are indexed by the graph's degree-descending left rank rather
/// than the raw vertex id (`bigraph::degree_desc_ranks`): high-degree
/// vertices close the most wedges, so the counters that are hit on
/// nearly every wedge all live at the head of `counts`/`base` and stay
/// cache-resident — the BFC-VP / Shi–Shun wedge-aggregation layout. The
/// relabeling is pure index bookkeeping: emission translates ranks back
/// through `left_by_rank` and sorts by *original* id, so the canonical
/// `(u₁, u₂)`-major butterfly stream is untouched.
///
/// Middles land in one flat `arena` (bases from a prefix sum over the
/// touched ranks) instead of per-vertex `Vec<Vec<u32>>`, killing the
/// per-start allocation and pointer chase of the old layout; `touched`
/// keeps clearing `O(touched ranks)`.
///
/// Each arena entry also carries the ids of the two wedge edges
/// `(a, mid)` and `(b, mid)` — both are in hand for free while walking
/// the adjacency lists. A butterfly's four backbone edges are exactly
/// the edges of its two wedges, so emission can hand every butterfly its
/// canonical edge ids without a single [`find_edge`] binary search —
/// candidate-set construction (edge ids, weight, existence probability)
/// becomes pure array reads. On butterfly-dense graphs those lookups,
/// not the bucketing, dominate listing time.
///
/// [`find_edge`]: UncertainBipartiteGraph::find_edge
struct WedgeScratch {
    /// Per-rank middle count; doubles as the placement cursor in pass 2
    /// (it ends back at the bucket length, which emission reads).
    counts: Vec<u32>,
    /// Per-rank start offset into `arena`.
    base: Vec<u32>,
    /// Flat middle storage; bucket `r` is `arena[base[r]..][..counts[r]]`.
    arena: Vec<WedgeMid>,
    /// Ranks with non-empty buckets, in first-touch order.
    touched: Vec<u32>,
    /// Blocked wedge iteration: per middle `v` of the start vertex, the
    /// `(v, partition_point, edge(a, v))` triple caching where its `> a`
    /// tail begins, so the second (placement) pass replays whole
    /// neighbor blocks without re-running the binary search.
    tails: Vec<(u32, u32, EdgeId)>,
}

/// One bucketed wedge middle: the right vertex plus the ids of the two
/// edges forming the wedge `a – v – b` (`a` the start vertex owning the
/// scratch, `b` the bucket's far endpoint).
#[derive(Clone, Copy)]
struct WedgeMid {
    /// The middle (right) vertex id.
    v: u32,
    /// Edge id of `(a, v)`.
    ea: EdgeId,
    /// Edge id of `(b, v)`.
    eb: EdgeId,
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
            self.tails.push((adj.nbr, from as u32, adj.edge));
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
/// order the pairwise reference produces for this start vertex. Each
/// butterfly arrives with its four backbone edge ids in canonical
/// `[(u₁,v₁), (u₁,v₂), (u₂,v₁), (u₂,v₂)]` order, assembled from the
/// wedge edges cached in the arena (no adjacency lookups).
fn for_each_from_start(
    g: &UncertainBipartiteGraph,
    a: u32,
    scratch: &mut WedgeScratch,
    f: &mut impl FnMut(Butterfly, [EdgeId; 4]),
) {
    let total = scratch.count_pass(g, a);
    if total == 0 {
        scratch.clear();
        return;
    }
    if scratch.arena.len() < total {
        let fill = WedgeMid {
            v: 0,
            ea: EdgeId(0),
            eb: EdgeId(0),
        };
        scratch.arena.resize(total, fill);
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
    // `left_adj(a)` is id-sorted — same as the old per-bucket pushes.
    let ranks = g.left_ranks();
    for &(mid, from, ea) in &scratch.tails {
        let radj = g.right_adj(Right(mid));
        for x in &radj[from as usize..] {
            let r = ranks[x.nbr as usize] as usize;
            scratch.arena[(scratch.base[r] + scratch.counts[r]) as usize] = WedgeMid {
                v: mid,
                ea,
                eb: x.edge,
            };
            scratch.counts[r] += 1;
        }
    }
    // Emit in canonical order: ranks sorted by ORIGINAL id, so the
    // relabeling is invisible in the output stream.
    let by_rank = g.left_by_rank();
    scratch
        .touched
        .sort_unstable_by_key(|&r| by_rank[r as usize]);
    for &r in &scratch.touched {
        let b = by_rank[r as usize];
        let start = scratch.base[r as usize] as usize;
        let len = scratch.counts[r as usize] as usize;
        let common = &scratch.arena[start..start + len];
        emit_pairs(a, b, common, f);
    }
    scratch.clear();
}

/// The butterfly `(a, b, v₁, v₂)` plus its canonical edge-id array,
/// assembled from the two wedge entries. Kernel invariants `a < b` and
/// `v₁ < v₂` mean the tuple is already canonical, so the wedge edges map
/// onto [`Butterfly::edges`]'s `[(u₁,v₁), (u₁,v₂), (u₂,v₁), (u₂,v₂)]`
/// order directly.
#[inline]
fn assemble(a: u32, b: u32, w1: WedgeMid, w2: WedgeMid) -> (Butterfly, [EdgeId; 4]) {
    (
        Butterfly::new(Left(a), Left(b), Right(w1.v), Right(w2.v)),
        [w1.ea, w2.ea, w1.eb, w2.eb],
    )
}

/// Emits every middle pair of one bucket as a butterfly, in `(v₁, v₂)`
/// lexicographic order.
#[cfg(not(feature = "hotpath-unroll"))]
#[inline]
fn emit_pairs(a: u32, b: u32, common: &[WedgeMid], f: &mut impl FnMut(Butterfly, [EdgeId; 4])) {
    for x in 0..common.len() {
        for &w2 in &common[(x + 1)..] {
            let (bf, edges) = assemble(a, b, common[x], w2);
            f(bf, edges);
        }
    }
}

/// Unrolled variant of [`emit_pairs`]: the inner loop walks the tail two
/// middles at a time. Emission order — and therefore the canonical
/// stream — is identical; the existing bit-identity proptests gate it.
#[cfg(feature = "hotpath-unroll")]
#[inline]
fn emit_pairs(a: u32, b: u32, common: &[WedgeMid], f: &mut impl FnMut(Butterfly, [EdgeId; 4])) {
    for x in 0..common.len() {
        let w1 = common[x];
        let tail = &common[(x + 1)..];
        let mut chunks = tail.chunks_exact(2);
        for pair in &mut chunks {
            let (bf, edges) = assemble(a, b, w1, pair[0]);
            f(bf, edges);
            let (bf, edges) = assemble(a, b, w1, pair[1]);
            f(bf, edges);
        }
        for &w2 in chunks.remainder() {
            let (bf, edges) = assemble(a, b, w1, w2);
            f(bf, edges);
        }
    }
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

/// Sequential wedge-kernel enumeration over all start vertices, in
/// canonical order. [`crate::for_each_backbone_butterfly`] delegates
/// here.
pub(crate) fn for_each_sequential(g: &UncertainBipartiteGraph, mut f: impl FnMut(Butterfly)) {
    let mut scratch = WedgeScratch::new(g.num_left());
    for a in 0..g.num_left() as u32 {
        for_each_from_start(g, a, &mut scratch, &mut |b, _| f(b));
    }
}

/// Estimated listing work for start vertex `a`: the number of wedges it
/// expands (`Σ_{v ∈ N(a)} deg(v)`), plus one so degree-0 vertices still
/// carry weight and shards stay non-degenerate.
fn start_vertex_work(g: &UncertainBipartiteGraph, a: u32) -> u64 {
    1 + g
        .left_adj(Left(a))
        .iter()
        .map(|adj| g.right_degree(Right(adj.nbr)) as u64)
        .sum::<u64>()
}

/// Partitions the start vertices `0..|L|` into at most `parts`
/// contiguous ranges of approximately equal estimated wedge work (the
/// degree-based cost model behind BFC-VP's priority order).
///
/// The split is a pure function of the graph and `parts` — never of
/// scheduling — so shard-order merges are deterministic.
pub fn listing_shards(g: &UncertainBipartiteGraph, parts: usize) -> Vec<Range<u32>> {
    let nl = g.num_left() as u32;
    if nl == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, nl as usize) as u64;
    let total: u64 = (0..nl).map(|a| start_vertex_work(g, a)).sum();
    let target = total.div_ceil(parts);
    let mut shards = Vec::with_capacity(parts as usize);
    let mut start = 0u32;
    let mut acc = 0u64;
    for a in 0..nl {
        acc += start_vertex_work(g, a);
        // Cut when the shard reached its work target, unless the shards
        // left behind would outnumber the vertices left to place.
        let remaining_vertices = (nl - a - 1) as u64;
        let remaining_shards = parts - shards.len() as u64 - 1;
        if acc >= target && remaining_shards <= remaining_vertices {
            shards.push(start..a + 1);
            start = a + 1;
            acc = 0;
        }
    }
    if start < nl {
        shards.push(start..nl);
    }
    shards
}

/// Runs `work` over every shard on `threads` workers and returns the
/// per-shard results **in shard order**, regardless of which worker ran
/// which shard. Workers pull shards from a shared counter, so a
/// mis-estimated heavy shard only occupies one of them.
fn run_sharded<T: Send>(
    g: &UncertainBipartiteGraph,
    threads: usize,
    shards: &[Range<u32>],
    work: impl Fn(Range<u32>, &mut WedgeScratch) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let workers = threads.min(shards.len()).max(1);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, work) = (&next, &work);
                scope.spawn(move || {
                    let mut scratch = WedgeScratch::new(g.num_left());
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = shards.get(i) else { break };
                        out.push((i, work(shard.clone(), &mut scratch)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("listing worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// Parallel backbone butterfly enumeration: bit-identical (content *and*
/// order) to [`crate::enumerate_backbone_butterflies`] at every thread
/// count.
pub fn enumerate_backbone_butterflies_parallel(
    g: &UncertainBipartiteGraph,
    threads: usize,
) -> Vec<Butterfly> {
    let mut span = obs::span("listing.enumerate");
    span.field("threads", threads.max(1));
    let out = if threads.max(1) == 1 {
        let mut out = Vec::new();
        for_each_sequential(g, |b| out.push(b));
        out
    } else {
        let shards = listing_shards(g, threads * SHARDS_PER_THREAD);
        let buffers = run_sharded(g, threads, &shards, |shard, scratch| {
            let mut buf = Vec::new();
            for a in shard {
                for_each_from_start(g, a, scratch, &mut |b, _| buf.push(b));
            }
            buf
        });
        let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
        for buf in buffers {
            out.extend(buf);
        }
        out
    };
    span.items(out.len() as u64);
    out
}

/// Parallel backbone butterfly count: equals
/// [`crate::count_backbone_butterflies`] at every thread count.
pub fn count_backbone_butterflies_parallel(g: &UncertainBipartiteGraph, threads: usize) -> u64 {
    if threads.max(1) == 1 {
        let mut scratch = WedgeScratch::new(g.num_left());
        return (0..g.num_left() as u32)
            .map(|a| count_from_start(g, a, &mut scratch))
            .sum();
    }
    let shards = listing_shards(g, threads * SHARDS_PER_THREAD);
    run_sharded(g, threads, &shards, |shard, scratch| {
        shard.map(|a| count_from_start(g, a, scratch)).sum::<u64>()
    })
    .into_iter()
    .sum()
}

/// Builds the [`CandidateSet`] of the **entire backbone** in parallel:
/// each worker lists its shard and precomputes candidate attributes
/// (edge ids, weight, existence probability); buffers merge in shard
/// order and the final weight sort uses the same total order as
/// [`CandidateSet::from_butterflies`], so candidate *indices* are
/// byte-identical to the sequential build at every thread count.
pub fn backbone_candidate_set(g: &UncertainBipartiteGraph, threads: usize) -> CandidateSet {
    let mut span = obs::span("listing.candidates");
    let shards = listing_shards(g, threads.max(1) * SHARDS_PER_THREAD);
    let buffers = run_sharded(g, threads.max(1), &shards, |shard, scratch| {
        let mut buf: Vec<Candidate> = Vec::new();
        for a in shard {
            for_each_from_start(g, a, scratch, &mut |b, edges| {
                // The kernel hands over the canonical edge ids straight
                // from the wedge cache; weight and probability fold over
                // them in the same `[(u₁,v₁), (u₁,v₂), (u₂,v₁), (u₂,v₂)]`
                // order as `Butterfly::weight` / `existence_prob`, so
                // every float is accumulated in the exact sequence the
                // lookup-based build used — bit-identical output.
                debug_assert_eq!(Some(edges), b.edges(g));
                let [e0, e1, e2, e3] = edges;
                buf.push(Candidate {
                    butterfly: b,
                    weight: g.weight(e0) + g.weight(e1) + g.weight(e2) + g.weight(e3),
                    edges,
                    existence_prob: g.prob(e0) * g.prob(e1) * g.prob(e2) * g.prob(e3),
                });
            });
        }
        buf
    });
    let mut candidates = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        candidates.extend(buf);
    }
    // Listing emits each butterfly exactly once: no dedup pass needed.
    span.items(candidates.len() as u64);
    span.field("threads", threads.max(1));
    CandidateSet::from_unique_candidates(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::enumerate_backbone_butterflies;
    use bigraph::GraphBuilder;

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
    fn shards_partition_all_start_vertices() {
        let g = k33_distinct_weights();
        for parts in [1, 2, 3, 7, 100] {
            let shards = listing_shards(&g, parts);
            assert!(shards.len() <= parts.min(g.num_left()));
            let mut expect = 0u32;
            for s in &shards {
                assert_eq!(s.start, expect, "parts={parts}");
                assert!(!s.is_empty());
                expect = s.end;
            }
            assert_eq!(expect, g.num_left() as u32);
        }
    }

    #[test]
    fn empty_graph_has_no_shards_or_butterflies() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(listing_shards(&g, 4).is_empty());
        assert!(enumerate_backbone_butterflies_parallel(&g, 4).is_empty());
        assert_eq!(count_backbone_butterflies_parallel(&g, 4), 0);
        assert!(backbone_candidate_set(&g, 4).is_empty());
    }

    #[test]
    fn parallel_enumeration_matches_sequential_order() {
        for g in [fig1(), k33_distinct_weights()] {
            let seq = enumerate_backbone_butterflies(&g);
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    enumerate_backbone_butterflies_parallel(&g, threads),
                    seq,
                    "threads={threads}"
                );
                assert_eq!(
                    count_backbone_butterflies_parallel(&g, threads),
                    seq.len() as u64
                );
            }
        }
    }

    #[test]
    fn parallel_candidate_set_is_byte_identical() {
        let g = k33_distinct_weights();
        let seq = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        for threads in [1, 2, 3, 8] {
            let par = backbone_candidate_set(&g, threads);
            assert_eq!(par.len(), seq.len());
            for i in 0..seq.len() {
                let (a, b) = (seq.get(i), par.get(i));
                assert_eq!(a.butterfly, b.butterfly, "index {i} threads {threads}");
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                assert_eq!(a.edges, b.edges);
                assert_eq!(a.existence_prob.to_bits(), b.existence_prob.to_bits());
                assert_eq!(seq.larger_count(i), par.larger_count(i));
            }
        }
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

//! The uncertain bipartite weighted network `G = (V=(L,R), E, p, w)`.
//!
//! Storage is CSR on both sides plus dense parallel edge arrays, built once
//! by [`GraphBuilder`](crate::GraphBuilder) and immutable afterwards: the
//! solvers sample tens of thousands of trials against one graph, so the
//! representation is optimized for repeated read-only scans. Each
//! per-edge attribute is held once, in the order its hot reader walks
//! it; weights alone are held in both orders, because MC-VP's wedge
//! loop reads them by id and the §V-B scan by position.

use crate::types::{EdgeId, Left, Right, Side, Weight};
use std::sync::OnceLock;

/// One adjacency entry: the neighbor's raw id and the connecting edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Adj {
    /// Raw id of the neighbor (a `Right` id in left adjacency lists, a
    /// `Left` id in right adjacency lists).
    pub nbr: u32,
    /// Edge connecting the list owner to `nbr`.
    pub edge: EdgeId,
}

/// An immutable uncertain bipartite weighted network (Definition 1).
///
/// The same structure doubles as the *backbone graph* `H`: the backbone is
/// simply this graph with probabilities ignored.
#[derive(Clone, Debug)]
pub struct UncertainBipartiteGraph {
    pub(crate) left_offsets: Vec<u32>,
    pub(crate) left_adj: Vec<Adj>,
    pub(crate) right_offsets: Vec<u32>,
    pub(crate) right_adj: Vec<Adj>,
    pub(crate) weights: Vec<Weight>,
    pub(crate) probs: Vec<f64>,
    /// Edge ids sorted by weight, descending (ties by id). Precomputed at
    /// build time because the §V-B edge ordering is the backbone of both OS
    /// and OLS, and sorting 39M edges per solver call would dominate.
    pub(crate) edges_by_weight_desc: Vec<u32>,
    /// `weights[e]` gathered into `edges_by_weight_desc` order: the §V-B
    /// scan reads weights sequentially instead of random-gathering.
    pub(crate) desc_weights: Vec<Weight>,
    /// Fixed-point Bernoulli acceptance thresholds
    /// `⌈p(e) · 2⁵³⌉` (see
    /// [`fixed_point_threshold`](crate::fixed_point_threshold)) in
    /// `edges_by_weight_desc` order: the §V-B scan compares each raw
    /// `next_u64` word with one sequentially loaded integer. By-id draws
    /// compute the threshold from `probs` instead.
    pub(crate) desc_accept: Vec<u64>,
    /// `(left, right)` endpoints in `edges_by_weight_desc` order: the
    /// one copy of the edges' endpoints. The OS scan reads a present
    /// edge's endpoints sequentially; by-id readers scatter them back
    /// with [`edge_endpoints`](Self::edge_endpoints).
    pub(crate) desc_endpoints: Vec<(u32, u32)>,
    /// Degree-descending rank of each left vertex (ties by id ascending):
    /// `left_rank[u] = r` means `u` is the `r`-th most-connected left
    /// vertex. The wedge-listing kernel buckets by rank so hot counters
    /// concentrate at the head of its arrays (BFC-VP / Shi–Shun layout).
    pub(crate) left_rank: Vec<u32>,
    /// Inverse permutation of `left_rank`: original id per rank.
    pub(crate) left_by_rank: Vec<u32>,
    /// [`cheaper_middle_side`](Self::cheaper_middle_side), computed on
    /// first use: it costs two passes over every edge, and every OS
    /// engine (one per chunk of every request) asks for it.
    pub(crate) middle_side: OnceLock<Side>,
}

impl UncertainBipartiteGraph {
    /// Number of left vertices `|L|`.
    #[inline]
    pub fn num_left(&self) -> usize {
        self.left_offsets.len() - 1
    }

    /// Number of right vertices `|R|`.
    #[inline]
    pub fn num_right(&self) -> usize {
        self.right_offsets.len() - 1
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.weights.len()
    }

    /// Edge weight `w(e)`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.weights[e.index()]
    }

    /// Edge existence probability `p(e)`.
    #[inline]
    pub fn prob(&self, e: EdgeId) -> f64 {
        self.probs[e.index()]
    }

    /// `(left, right)` endpoints of every edge, indexed by edge id: one
    /// `O(|E|)` scatter of [`Self::desc_endpoints`] through
    /// [`Self::desc_edge_ids`] into a fresh `8·|E|`-byte array. For cold
    /// readers (writers, generators, tests); the graph keeps no by-id
    /// copy.
    pub fn edge_endpoints(&self) -> Vec<(Left, Right)> {
        let mut out = vec![(Left(0), Right(0)); self.num_edges()];
        for (&e, &(u, v)) in self.edges_by_weight_desc.iter().zip(&self.desc_endpoints) {
            out[e as usize] = (Left(u), Right(v));
        }
        out
    }

    /// All edge ids, ascending.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Edge ids sorted by weight descending (ties broken by id); the §V-B
    /// edge ordering.
    #[inline]
    pub fn edges_by_weight_desc(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges_by_weight_desc.iter().map(|&e| EdgeId(e))
    }

    /// Raw edge-id slice of the §V-B weight-descending order.
    #[inline]
    pub fn desc_edge_ids(&self) -> &[u32] {
        &self.edges_by_weight_desc
    }

    /// Edge weights aligned with [`Self::desc_edge_ids`]:
    /// `desc_weights()[i] == weight(desc_edge_ids()[i])`. Lets the §V-B
    /// scan read weights sequentially.
    #[inline]
    pub fn desc_weights(&self) -> &[Weight] {
        &self.desc_weights
    }

    /// Acceptance thresholds aligned with [`Self::desc_edge_ids`]:
    /// `desc_accepts()[i]` is
    /// [`fixed_point_threshold`](crate::fixed_point_threshold)`(prob(desc_edge_ids()[i]))`.
    #[inline]
    pub fn desc_accepts(&self) -> &[u64] {
        &self.desc_accept
    }

    /// Raw `(left, right)` endpoints aligned with [`Self::desc_edge_ids`]:
    /// `desc_endpoints()[i]` are the endpoints of `desc_edge_ids()[i]`.
    /// Lets the §V-B scan read each present edge's endpoints
    /// sequentially instead of gathering them through the edge-id
    /// permutation.
    #[inline]
    pub fn desc_endpoints(&self) -> &[(u32, u32)] {
        &self.desc_endpoints
    }

    /// Degree-descending ranks of the left vertices (ties by id): the
    /// locality relabeling used by the wedge-listing kernel.
    #[inline]
    pub fn left_ranks(&self) -> &[u32] {
        &self.left_rank
    }

    /// Inverse of [`Self::left_ranks`]: original left id per rank.
    #[inline]
    pub fn left_by_rank(&self) -> &[u32] {
        &self.left_by_rank
    }

    /// Raw adjacency slice of a left vertex (sorted by neighbor id).
    #[inline]
    pub fn left_adj(&self, u: Left) -> &[Adj] {
        let lo = self.left_offsets[u.index()] as usize;
        let hi = self.left_offsets[u.index() + 1] as usize;
        &self.left_adj[lo..hi]
    }

    /// Raw adjacency slice of a right vertex (sorted by neighbor id).
    #[inline]
    pub fn right_adj(&self, v: Right) -> &[Adj] {
        let lo = self.right_offsets[v.index()] as usize;
        let hi = self.right_offsets[v.index() + 1] as usize;
        &self.right_adj[lo..hi]
    }

    /// Typed neighbor iterator for a left vertex.
    pub fn left_neighbors(&self, u: Left) -> impl Iterator<Item = (Right, EdgeId)> + '_ {
        self.left_adj(u).iter().map(|a| (Right(a.nbr), a.edge))
    }

    /// Typed neighbor iterator for a right vertex.
    pub fn right_neighbors(&self, v: Right) -> impl Iterator<Item = (Left, EdgeId)> + '_ {
        self.right_adj(v).iter().map(|a| (Left(a.nbr), a.edge))
    }

    /// Backbone degree of a left vertex.
    #[inline]
    pub fn left_degree(&self, u: Left) -> usize {
        self.left_adj(u).len()
    }

    /// Backbone degree of a right vertex.
    #[inline]
    pub fn right_degree(&self, v: Right) -> usize {
        self.right_adj(v).len()
    }

    /// Looks up the edge between `u` and `v`, if present in the backbone.
    /// Binary search over the (id-sorted) adjacency of the smaller side.
    /// Out-of-range vertex ids simply return `None` (useful when probing
    /// externally supplied butterflies).
    pub fn find_edge(&self, u: Left, v: Right) -> Option<EdgeId> {
        if u.index() >= self.num_left() || v.index() >= self.num_right() {
            return None;
        }
        let (list, key) = if self.left_degree(u) <= self.right_degree(v) {
            (self.left_adj(u), v.0)
        } else {
            (self.right_adj(v), u.0)
        };
        list.binary_search_by_key(&key, |a| a.nbr)
            .ok()
            .map(|i| list[i].edge)
    }

    /// Expected degree `d̄(u) = Σ_{e∋u} p(e)` of a left vertex (Lemma IV.1).
    pub fn expected_left_degree(&self, u: Left) -> f64 {
        self.left_adj(u).iter().map(|a| self.prob(a.edge)).sum()
    }

    /// Expected degree `d̄(v)` of a right vertex.
    pub fn expected_right_degree(&self, v: Right) -> f64 {
        self.right_adj(v).iter().map(|a| self.prob(a.edge)).sum()
    }

    /// `Σ_{x ∈ side} (d̄(x))²`: the Lemma V.1 cost proxy used to pick the
    /// cheaper middle side for angle generation. The lemma's exact quantity
    /// is the expected *square* of the degree; like the paper (§V-D
    /// discussion) we use the square of the expectation, which is cheap and
    /// a lower bound, and only affects a constant-factor heuristic choice.
    pub fn sum_sq_expected_degree(&self, side: Side) -> f64 {
        match side {
            Side::Left => (0..self.num_left())
                .map(|i| {
                    let d = self.expected_left_degree(Left(i as u32));
                    d * d
                })
                .sum(),
            Side::Right => (0..self.num_right())
                .map(|i| {
                    let d = self.expected_right_degree(Right(i as u32));
                    d * d
                })
                .sum(),
        }
    }

    /// The side whose vertices should act as angle *middles* in Ordering
    /// Sampling: the one minimizing the Lemma V.1 cost proxy. Computed
    /// once per graph (two `O(|E|)` passes) and cached.
    pub fn cheaper_middle_side(&self) -> Side {
        *self.middle_side.get_or_init(|| {
            if self.sum_sq_expected_degree(Side::Right) <= self.sum_sq_expected_degree(Side::Left) {
                Side::Right
            } else {
                Side::Left
            }
        })
    }

    /// `w̄ = w(e₁)+w(e₂)+w(e₃)`: the sum of the three largest edge weights
    /// (Algorithm 2 line 2). Any butterfly containing edge `e` weighs at
    /// most `w(e) + w̄`, which justifies the §V-B pruning. Returns 0.0 for
    /// graphs with fewer than three edges (no butterfly can exist anyway).
    pub fn top3_weight_sum(&self) -> Weight {
        let k = self.edges_by_weight_desc.len().min(3);
        self.edges_by_weight_desc[..k]
            .iter()
            .map(|&e| self.weights[e as usize])
            .sum()
    }

    /// Total number of angles (paths of length 2) in the backbone with a
    /// middle vertex on `side`. Useful for workload sizing in benches.
    pub fn backbone_angle_count(&self, side: Side) -> u64 {
        let deg_iter: Box<dyn Iterator<Item = usize>> = match side {
            Side::Left => Box::new((0..self.num_left()).map(|i| self.left_degree(Left(i as u32)))),
            Side::Right => {
                Box::new((0..self.num_right()).map(|i| self.right_degree(Right(i as u32))))
            }
        };
        deg_iter
            .map(|d| (d as u64) * (d as u64).saturating_sub(1) / 2)
            .sum()
    }

    /// Existence probability of a set of edges, assuming independence:
    /// `Pr[E(S)] = Π_{e∈S} p(e)`.
    pub fn edges_existence_prob(&self, edges: &[EdgeId]) -> f64 {
        edges.iter().map(|&e| self.prob(e)).product()
    }

    /// Bytes of heap memory the graph's arrays occupy while resident.
    /// A pure function of the graph's dimensions (element counts ×
    /// element sizes, ignoring allocator slack), so the serving
    /// registry's memory-budget accounting is deterministic across
    /// runs and platforms: 60 bytes per edge, plus the per-vertex
    /// offsets and ranks.
    pub fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let u32s = self.left_offsets.len()
            + self.right_offsets.len()
            + self.edges_by_weight_desc.len()
            + 2 * self.desc_endpoints.len()
            + self.left_rank.len()
            + self.left_by_rank.len();
        let u64s = self.weights.len()
            + self.probs.len()
            + self.desc_weights.len()
            + self.desc_accept.len();
        let adjs = self.left_adj.len() + self.right_adj.len();
        (u32s * size_of::<u32>() + u64s * size_of::<u64>() + adjs * size_of::<Adj>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// The Figure 1(a) example network.
    pub(crate) fn fig1_graph() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = fig1_graph();
        assert_eq!(g.num_left(), 2);
        assert_eq!(g.num_right(), 3);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn adjacency_is_consistent_both_sides() {
        let g = fig1_graph();
        for (e, (u, v)) in g.edge_ids().zip(g.edge_endpoints()) {
            assert!(g.left_neighbors(u).any(|(r, ee)| r == v && ee == e));
            assert!(g.right_neighbors(v).any(|(l, ee)| l == u && ee == e));
        }
    }

    #[test]
    fn find_edge_present_and_absent() {
        let g = fig1_graph();
        let e = g.find_edge(Left(1), Right(2)).unwrap();
        assert_eq!(g.weight(e), 1.0);
        assert_eq!(g.prob(e), 0.7);
        // Build a sparse graph to exercise the absent path.
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.5).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 0.5).unwrap();
        let g2 = b.build().unwrap();
        assert!(g2.find_edge(Left(0), Right(1)).is_none());
    }

    #[test]
    fn expected_degrees_match_hand_computation() {
        let g = fig1_graph();
        let d = g.expected_left_degree(Left(0));
        assert!((d - (0.5 + 0.6 + 0.8)).abs() < 1e-12);
        let d = g.expected_right_degree(Right(1));
        assert!((d - (0.6 + 0.4)).abs() < 1e-12);
    }

    #[test]
    fn weight_order_is_descending() {
        let g = fig1_graph();
        let ws: Vec<f64> = g.edges_by_weight_desc().map(|e| g.weight(e)).collect();
        assert!(ws.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(ws[0], 3.0);
        assert_eq!(*ws.last().unwrap(), 1.0);
    }

    #[test]
    fn top3_weight_sum_examples() {
        let g = fig1_graph();
        assert_eq!(g.top3_weight_sum(), 3.0 + 3.0 + 2.0);
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 5.0, 1.0).unwrap();
        assert_eq!(b.build().unwrap().top3_weight_sum(), 5.0);
    }

    #[test]
    fn middle_side_prefers_lower_cost() {
        // 1 left hub connected to 4 rights: left side has d̄² = 16·p²,
        // right side 4·p² ⇒ middles should be right vertices.
        let mut b = GraphBuilder::new();
        for v in 0..4 {
            b.add_edge(Left(0), Right(v), 1.0, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(g.cheaper_middle_side(), Side::Right);
    }

    #[test]
    fn desc_endpoints_align_with_the_scan_order() {
        let g = fig1_graph();
        let ends = g.desc_endpoints();
        assert_eq!(ends.len(), g.num_edges());
        let by_id = g.edge_endpoints();
        for (&e, &(u, v)) in g.desc_edge_ids().iter().zip(ends) {
            assert_eq!(by_id[e as usize], (Left(u), Right(v)));
        }
    }

    #[test]
    fn backbone_angle_count_matches_combinatorics() {
        let g = fig1_graph();
        // Every right vertex has degree 2 → C(2,2)=1 angle each, 3 total.
        assert_eq!(g.backbone_angle_count(Side::Right), 3);
        // Left vertices have degree 3 → C(3,2)=3 angles each, 6 total.
        assert_eq!(g.backbone_angle_count(Side::Left), 6);
    }

    #[test]
    fn edge_set_existence_probability() {
        let g = fig1_graph();
        let e0 = g.find_edge(Left(0), Right(0)).unwrap();
        let e1 = g.find_edge(Left(1), Right(1)).unwrap();
        let p = g.edges_existence_prob(&[e0, e1]);
        assert!((p - 0.5 * 0.4).abs() < 1e-12);
        assert_eq!(g.edges_existence_prob(&[]), 1.0);
    }
}

//! Validating builder for [`UncertainBipartiteGraph`].

use crate::graph::{Adj, UncertainBipartiteGraph};
use crate::priority::degree_desc_ranks;
use crate::sample::fixed_point_threshold;
use crate::types::{Left, Right, Weight};
use std::fmt;

/// Errors raised while constructing a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Probability outside `[0, 1]` or non-finite.
    InvalidProbability {
        /// Offending left endpoint.
        u: Left,
        /// Offending right endpoint.
        v: Right,
        /// The rejected value.
        p: f64,
    },
    /// Weight negative or non-finite. Non-negativity is required by the
    /// §V-B pruning bound (see [`crate::types::Weight`]).
    InvalidWeight {
        /// Offending left endpoint.
        u: Left,
        /// Offending right endpoint.
        v: Right,
        /// The rejected value.
        w: Weight,
    },
    /// The same `(u, v)` pair was added twice. Definition 1 makes `E` a
    /// set, so multi-edges are rejected rather than silently merged.
    DuplicateEdge {
        /// Left endpoint of the duplicate.
        u: Left,
        /// Right endpoint of the duplicate.
        v: Right,
    },
    /// More than `u32::MAX` edges or vertices.
    TooLarge,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidProbability { u, v, p } => {
                write!(f, "edge ({u},{v}): probability {p} not in [0,1]")
            }
            BuildError::InvalidWeight { u, v, w } => {
                write!(f, "edge ({u},{v}): weight {w} not finite and non-negative")
            }
            BuildError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u},{v})"),
            BuildError::TooLarge => write!(f, "graph exceeds u32 index space"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Accumulates edges, validates them, and produces the immutable CSR graph.
///
/// Vertex counts are inferred from the largest id seen; [`GraphBuilder::reserve_vertices`]
/// can raise them for graphs with isolated trailing vertices.
#[derive(Default, Clone, Debug)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32, Weight, f64)>,
    min_left: u32,
    min_right: u32,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `n` edges.
    pub fn with_capacity(n: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(n),
            min_left: 0,
            min_right: 0,
        }
    }

    /// Ensures the built graph has at least `left` left and `right` right
    /// vertices even if no edge touches the trailing ids.
    pub fn reserve_vertices(&mut self, left: u32, right: u32) -> &mut Self {
        self.min_left = self.min_left.max(left);
        self.min_right = self.min_right.max(right);
        self
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds edge `(u, v)` with weight `w` and probability `p`.
    ///
    /// Validation is eager for weights and probabilities; duplicate
    /// detection happens in [`GraphBuilder::build`] (a sort makes it O(E log E) total
    /// instead of a per-insert hash probe).
    pub fn add_edge(&mut self, u: Left, v: Right, w: Weight, p: f64) -> Result<(), BuildError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(BuildError::InvalidProbability { u, v, p });
        }
        if !w.is_finite() || w < 0.0 {
            return Err(BuildError::InvalidWeight { u, v, w });
        }
        if self.edges.len() >= u32::MAX as usize {
            return Err(BuildError::TooLarge);
        }
        self.edges.push((u.0, v.0, w, p));
        Ok(())
    }

    /// Finalizes the graph.
    pub fn build(&self) -> Result<UncertainBipartiteGraph, BuildError> {
        let m = self.edges.len();

        let mut nl = self.min_left;
        let mut nr = self.min_right;
        for &(u, v, _, _) in &self.edges {
            if u == u32::MAX || v == u32::MAX {
                return Err(BuildError::TooLarge);
            }
            nl = nl.max(u + 1);
            nr = nr.max(v + 1);
        }

        // Duplicate detection over a sorted copy of the endpoint pairs.
        let mut pairs: Vec<(u32, u32)> = self.edges.iter().map(|&(u, v, _, _)| (u, v)).collect();
        pairs.sort_unstable();
        if let Some(w) = pairs.windows(2).find(|w| w[0] == w[1]) {
            return Err(BuildError::DuplicateEdge {
                u: Left(w[0].0),
                v: Right(w[0].1),
            });
        }

        let edge_left: Vec<u32> = self.edges.iter().map(|e| e.0).collect();
        let edge_right: Vec<u32> = self.edges.iter().map(|e| e.1).collect();
        let weights: Vec<Weight> = self.edges.iter().map(|e| e.2).collect();
        let probs: Vec<f64> = self.edges.iter().map(|e| e.3).collect();

        // CSR construction by counting sort on each side; adjacency lists
        // come out sorted by neighbor id because edges are placed in a
        // second pass over edges pre-sorted by (owner, neighbor).
        let (left_offsets, left_adj) = build_csr(nl, m, |i| (edge_left[i], edge_right[i]));
        let (right_offsets, right_adj) = build_csr(nr, m, |i| (edge_right[i], edge_left[i]));

        let mut edges_by_weight_desc: Vec<u32> = (0..m as u32).collect();
        edges_by_weight_desc.sort_unstable_by(|&a, &b| {
            weights[b as usize]
                .total_cmp(&weights[a as usize])
                .then(a.cmp(&b))
        });

        Ok(Primaries {
            left_offsets,
            left_adj,
            right_offsets,
            right_adj,
            edge_left,
            edge_right,
            weights,
            probs,
            edges_by_weight_desc,
        }
        .complete())
    }
}

/// The arrays that define a graph: CSR offsets and adjacency on both
/// sides, edge endpoints, weights, probabilities, and the §V-B
/// weight-descending edge order. [`Primaries::complete`] derives every
/// other array from them, for the builder and for containers
/// ([`storage`](crate::storage)), which store only these.
pub(crate) struct Primaries {
    pub(crate) left_offsets: Vec<u32>,
    pub(crate) left_adj: Vec<Adj>,
    pub(crate) right_offsets: Vec<u32>,
    pub(crate) right_adj: Vec<Adj>,
    pub(crate) edge_left: Vec<u32>,
    pub(crate) edge_right: Vec<u32>,
    pub(crate) weights: Vec<Weight>,
    pub(crate) probs: Vec<f64>,
    pub(crate) edges_by_weight_desc: Vec<u32>,
}

impl Primaries {
    /// Derives the hot-path arrays and assembles the graph. The
    /// primaries must satisfy the builder's invariants (monotone offsets
    /// ending at `|E|`, probabilities in `[0, 1]`, an in-range order):
    /// the gathers index through the order and the degrees subtract
    /// offsets.
    pub(crate) fn complete(self) -> UncertainBipartiteGraph {
        // Fixed-point Bernoulli thresholds (one integer compare per trial
        // draw instead of an f64 convert), and weight/threshold arrays
        // gathered into the §V-B scan order so the solvers'
        // descending-weight scans read memory sequentially.
        let accept: Vec<u64> = self
            .probs
            .iter()
            .map(|&p| fixed_point_threshold(p))
            .collect();
        let order = &self.edges_by_weight_desc;
        let desc_weights: Vec<Weight> = order.iter().map(|&e| self.weights[e as usize]).collect();
        let desc_accept: Vec<u64> = order.iter().map(|&e| accept[e as usize]).collect();

        // Degree-descending left relabeling for the wedge-listing kernel's
        // cache-local bucket arena.
        let left_degrees: Vec<u32> = self.left_offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let (left_rank, left_by_rank) = degree_desc_ranks(&left_degrees);

        UncertainBipartiteGraph {
            left_offsets: self.left_offsets,
            left_adj: self.left_adj,
            right_offsets: self.right_offsets,
            right_adj: self.right_adj,
            edge_left: self.edge_left,
            edge_right: self.edge_right,
            weights: self.weights,
            probs: self.probs,
            accept,
            edges_by_weight_desc: self.edges_by_weight_desc,
            desc_weights,
            desc_accept,
            left_rank,
            left_by_rank,
            middle_side: Default::default(),
            desc_endpoints: Default::default(),
        }
    }
}

/// Builds one side's CSR. `key(i)` returns `(owner, neighbor)` for edge `i`.
fn build_csr(n: u32, m: usize, key: impl Fn(usize) -> (u32, u32)) -> (Vec<u32>, Vec<Adj>) {
    let n = n as usize;
    let mut counts = vec![0u32; n + 1];
    for i in 0..m {
        counts[key(i).0 as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let offsets = counts.clone();

    // Place edges ordered by (owner, neighbor) so each list is id-sorted.
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_unstable_by_key(|&i| key(i as usize));
    let mut adj = vec![
        Adj {
            nbr: 0,
            edge: crate::types::EdgeId(0)
        };
        m
    ];
    let mut cursor = offsets.clone();
    for &i in &order {
        let (owner, nbr) = key(i as usize);
        let slot = cursor[owner as usize] as usize;
        adj[slot] = Adj {
            nbr,
            edge: crate::types::EdgeId(i),
        };
        cursor[owner as usize] += 1;
    }
    (offsets, adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_probability() {
        let mut b = GraphBuilder::new();
        let err = b.add_edge(Left(0), Right(0), 1.0, 1.5).unwrap_err();
        assert!(matches!(err, BuildError::InvalidProbability { .. }));
        let err = b.add_edge(Left(0), Right(0), 1.0, -0.1).unwrap_err();
        assert!(matches!(err, BuildError::InvalidProbability { .. }));
        let err = b.add_edge(Left(0), Right(0), 1.0, f64::NAN).unwrap_err();
        assert!(matches!(err, BuildError::InvalidProbability { .. }));
    }

    #[test]
    fn rejects_bad_weight() {
        let mut b = GraphBuilder::new();
        for w in [-1.0, f64::NAN, f64::INFINITY] {
            let err = b.add_edge(Left(0), Right(0), w, 0.5).unwrap_err();
            assert!(matches!(err, BuildError::InvalidWeight { .. }));
        }
        // Zero weight is allowed (the hardness reduction uses w = 0.5 and
        // some datasets may contain zero-strength interactions).
        b.add_edge(Left(0), Right(0), 0.0, 0.5).unwrap();
    }

    #[test]
    fn rejects_duplicates_at_build() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 1.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(0), 2.0, 0.9).unwrap();
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            BuildError::DuplicateEdge {
                u: Left(0),
                v: Right(0)
            }
        );
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.num_left(), 0);
        assert_eq!(g.num_right(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.top3_weight_sum(), 0.0);
    }

    #[test]
    fn reserve_vertices_creates_isolated_tail() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.5).unwrap();
        b.reserve_vertices(10, 20);
        let g = b.build().unwrap();
        assert_eq!(g.num_left(), 10);
        assert_eq!(g.num_right(), 20);
        assert_eq!(g.left_degree(Left(9)), 0);
        assert_eq!(g.right_degree(Right(19)), 0);
    }

    #[test]
    fn adjacency_lists_sorted_by_neighbor_id() {
        let mut b = GraphBuilder::new();
        // Insert in scrambled order.
        b.add_edge(Left(0), Right(5), 1.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 1.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(3), 1.0, 0.5).unwrap();
        b.add_edge(Left(2), Right(3), 1.0, 0.5).unwrap();
        b.add_edge(Left(1), Right(3), 1.0, 0.5).unwrap();
        let g = b.build().unwrap();
        let nbrs: Vec<u32> = g.left_adj(Left(0)).iter().map(|a| a.nbr).collect();
        assert_eq!(nbrs, vec![1, 3, 5]);
        let nbrs: Vec<u32> = g.right_adj(Right(3)).iter().map(|a| a.nbr).collect();
        assert_eq!(nbrs, vec![0, 1, 2]);
    }

    #[test]
    fn builder_is_reusable_after_build() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.5).unwrap();
        let g1 = b.build().unwrap();
        b.add_edge(Left(1), Right(1), 2.0, 0.5).unwrap();
        let g2 = b.build().unwrap();
        assert_eq!(g1.num_edges(), 1);
        assert_eq!(g2.num_edges(), 2);
    }
}

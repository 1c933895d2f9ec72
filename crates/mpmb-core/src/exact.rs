//! Exact computation of `P(B)` by possible-world enumeration.
//!
//! Computing `P(B)` is #P-Hard (Lemma III.1), so this engine is strictly a
//! small-instance tool: it enumerates the `2^k` assignments of the `k`
//! *uncertain* edges (`0 < p < 1`; deterministic edges are fixed), finds
//! each world's maximum-weighted butterfly set by brute force, and
//! accumulates Equation 4 exactly. It exists to provide ground truth for
//! the sampling solvers' tests and to validate the §III-B hardness
//! reduction empirically.

use crate::butterfly::{enumerate_backbone_butterflies, Butterfly};
use crate::distribution::Distribution;
use bigraph::fx::FxHashMap;
use bigraph::{EdgeId, UncertainBipartiteGraph, Weight};
use std::fmt;

/// Configuration for the exact engine.
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Upper bound on the number of uncertain edges; the engine refuses
    /// graphs above it rather than silently running for 2^k worlds.
    pub max_uncertain_edges: u32,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_uncertain_edges: 22,
        }
    }
}

/// Errors from the exact engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// The graph has more uncertain edges than the configured limit.
    TooManyUncertainEdges {
        /// Uncertain edges found in the graph.
        found: usize,
        /// The configured limit.
        limit: u32,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::TooManyUncertainEdges { found, limit } => write!(
                f,
                "{found} uncertain edges exceed the exact-enumeration limit {limit} \
                 (2^{found} possible worlds)"
            ),
        }
    }
}

impl std::error::Error for ExactError {}

/// A backbone butterfly prepared for subset tests against world masks.
struct MaskedButterfly {
    butterfly: Butterfly,
    weight: Weight,
    /// Bitmask over the *uncertain* edge list; certain-present edges need
    /// no condition, and butterflies with a certain-absent edge are
    /// dropped outright.
    mask: u64,
}

/// Computes the exact `P(B)` for every butterfly of `g` (Equation 4).
///
/// Butterflies that are never maximum in any world do not appear in the
/// output (their exact probability is 0).
pub fn exact_distribution(
    g: &UncertainBipartiteGraph,
    cfg: ExactConfig,
) -> Result<Distribution, ExactError> {
    let uncertain: Vec<EdgeId> = g
        .edge_ids()
        .filter(|&e| g.prob(e) > 0.0 && g.prob(e) < 1.0)
        .collect();
    if uncertain.len() > cfg.max_uncertain_edges as usize || uncertain.len() >= 63 {
        return Err(ExactError::TooManyUncertainEdges {
            found: uncertain.len(),
            limit: cfg.max_uncertain_edges,
        });
    }
    let uncertain_index: FxHashMap<EdgeId, u32> = uncertain
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i as u32))
        .collect();

    // Prepare candidate butterflies sorted by weight descending.
    let mut masked: Vec<MaskedButterfly> = Vec::new();
    'butterflies: for b in enumerate_backbone_butterflies(g) {
        let edges = b.edges(g).expect("backbone butterfly");
        let mut mask = 0u64;
        for e in edges {
            let p = g.prob(e);
            if p == 0.0 {
                continue 'butterflies; // can never exist
            }
            if let Some(&i) = uncertain_index.get(&e) {
                mask |= 1 << i;
            }
        }
        masked.push(MaskedButterfly {
            butterfly: b,
            weight: b.weight(g).expect("backbone butterfly"),
            mask,
        });
    }
    masked.sort_unstable_by(|a, b| {
        b.weight
            .total_cmp(&a.weight)
            .then_with(|| a.butterfly.cmp(&b.butterfly))
    });

    let k = uncertain.len();
    let mut probs: FxHashMap<Butterfly, f64> = FxHashMap::default();
    for world in 0u64..(1u64 << k) {
        let mut world_prob = 1.0;
        for (i, &e) in uncertain.iter().enumerate() {
            let p = g.prob(e);
            world_prob *= if world >> i & 1 == 1 { p } else { 1.0 - p };
        }
        if world_prob == 0.0 {
            continue;
        }
        // First (heaviest) butterfly alive in this world sets w_max; then
        // credit every tied butterfly.
        let mut w_max: Option<Weight> = None;
        for mb in &masked {
            if let Some(w) = w_max {
                if mb.weight.total_cmp(&w) == std::cmp::Ordering::Less {
                    break;
                }
            }
            if mb.mask & world == mb.mask {
                w_max = Some(mb.weight);
                *probs.entry(mb.butterfly).or_insert(0.0) += world_prob;
            }
        }
    }
    Ok(Distribution::from_exact(probs))
}

/// Exact `P(B)` for a single butterfly.
pub fn exact_prob(
    g: &UncertainBipartiteGraph,
    b: &Butterfly,
    cfg: ExactConfig,
) -> Result<f64, ExactError> {
    Ok(exact_distribution(g, cfg)?.prob(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{GraphBuilder, Left, Right};

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

    fn bf(u1: u32, u2: u32, v1: u32, v2: u32) -> Butterfly {
        Butterfly::new(Left(u1), Left(u2), Right(v1), Right(v2))
    }

    /// Independent reference: enumerate worlds via `PossibleWorld` and the
    /// brute-force `max_butterflies_in_world`, with none of the masking
    /// machinery.
    fn reference_distribution(g: &UncertainBipartiteGraph) -> FxHashMap<Butterfly, f64> {
        use bigraph::PossibleWorld;
        let m = g.num_edges();
        assert!(m <= 16);
        let mut probs: FxHashMap<Butterfly, f64> = FxHashMap::default();
        for mask in 0u32..(1 << m) {
            let mut w = PossibleWorld::empty(m);
            for i in 0..m {
                if mask >> i & 1 == 1 {
                    w.insert(EdgeId(i as u32));
                }
            }
            let wp = w.probability(g);
            let (_, smb) = crate::butterfly::max_butterflies_in_world(g, &w);
            for b in smb {
                *probs.entry(b).or_insert(0.0) += wp;
            }
        }
        probs
    }

    #[test]
    fn fig1_exact_matches_reference() {
        let g = fig1();
        let d = exact_distribution(&g, ExactConfig::default()).unwrap();
        let r = reference_distribution(&g);
        assert_eq!(d.len(), r.len());
        for (b, &p) in &r {
            assert!((d.prob(b) - p).abs() < 1e-12, "{b}: {} vs {}", d.prob(b), p);
        }
    }

    #[test]
    fn fig1_hand_checked_heaviest_butterfly() {
        // B(u0,u1,v0,v1) weighs 10 and is the unique heaviest; it is max
        // exactly when it exists: P = 0.5·0.6·0.3·0.4 = 0.036.
        let g = fig1();
        let p = exact_prob(&g, &bf(0, 1, 0, 1), ExactConfig::default()).unwrap();
        assert!((p - 0.036).abs() < 1e-12, "p={p}");
    }

    #[test]
    fn fig1_exact_mpmb() {
        // Candidates: B(0,1,0,1): exists ⇒ max, P = .036.
        // B(0,1,0,2) (w=7): max iff exists ∧ ¬B(0,1,0,1), i.e. (u0,v1)·(u1,v1) not both:
        //   .5·.8·.3·.7 · (1−.24) = .084·.76 = .06384.
        // B(0,1,1,2) (w=7): exists ∧ ¬heavy: .6·.8·.4·.7·(1−.15)=.13440·.85=.114240.
        //   (¬heavy given this one exists: 1 − .5·.3 = .85.)
        let g = fig1();
        let d = exact_distribution(&g, ExactConfig::default()).unwrap();
        assert!((d.prob(&bf(0, 1, 0, 2)) - 0.06384).abs() < 1e-12);
        assert!((d.prob(&bf(0, 1, 1, 2)) - 0.11424).abs() < 1e-12);
        let (best, p) = d.mpmb().unwrap();
        assert_eq!(best, bf(0, 1, 1, 2));
        assert!((p - 0.11424).abs() < 1e-12);
    }

    #[test]
    fn deterministic_edges_do_not_blow_up_enumeration() {
        // 2x2 certain butterfly plus one uncertain spoiler edge pair.
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 1.0).unwrap();
        b.add_edge(Left(0), Right(1), 1.0, 1.0).unwrap();
        b.add_edge(Left(1), Right(0), 1.0, 1.0).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 1.0).unwrap();
        b.add_edge(Left(2), Right(0), 5.0, 0.5).unwrap();
        b.add_edge(Left(2), Right(1), 5.0, 0.5).unwrap();
        let g = b.build().unwrap();
        // Only 2 uncertain edges → 4 worlds even though |E| = 6.
        let d = exact_distribution(
            &g,
            ExactConfig {
                max_uncertain_edges: 2,
            },
        )
        .unwrap();
        // Certain butterfly (w=4) is max unless a u2-butterfly (w=12) exists;
        // those exist iff both uncertain edges do (p=.25 each pair with u0/u1).
        let certain = bf(0, 1, 0, 1);
        assert!((d.prob(&certain) - 0.75).abs() < 1e-12);
        // The two heavy butterflies tie at weight 12 and coexist: both max.
        assert!((d.prob(&bf(0, 2, 0, 1)) - 0.25).abs() < 1e-12);
        assert!((d.prob(&bf(1, 2, 0, 1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn certain_absent_edges_kill_butterflies() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.0).unwrap();
        b.add_edge(Left(0), Right(1), 1.0, 1.0).unwrap();
        b.add_edge(Left(1), Right(0), 1.0, 1.0).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let d = exact_distribution(&g, ExactConfig::default()).unwrap();
        assert!(d.is_empty(), "p=0 edge admitted a butterfly");
    }

    #[test]
    fn refuses_oversized_instances() {
        let mut b = GraphBuilder::new();
        for i in 0..5u32 {
            b.add_edge(Left(i), Right(i), 1.0, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let err = exact_distribution(
            &g,
            ExactConfig {
                max_uncertain_edges: 4,
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExactError::TooManyUncertainEdges { found: 5, limit: 4 }
        );
    }

    #[test]
    fn graph_without_butterflies_yields_empty_distribution() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.5).unwrap();
        b.add_edge(Left(1), Right(1), 1.0, 0.5).unwrap();
        let g = b.build().unwrap();
        let d = exact_distribution(&g, ExactConfig::default()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.mpmb(), None);
    }

    #[test]
    fn total_mass_is_probability_some_butterfly_is_max_when_unique() {
        // With all-distinct butterfly weights, each world credits at most
        // one butterfly, so total mass = Pr[world has ≥1 butterfly] ≤ 1.
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.9).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.9).unwrap();
        b.add_edge(Left(1), Right(0), 4.0, 0.9).unwrap();
        b.add_edge(Left(1), Right(1), 8.0, 0.9).unwrap();
        b.add_edge(Left(2), Right(0), 16.0, 0.9).unwrap();
        b.add_edge(Left(2), Right(1), 32.0, 0.9).unwrap();
        let g = b.build().unwrap();
        let d = exact_distribution(&g, ExactConfig::default()).unwrap();
        assert!(d.total_mass() <= 1.0 + 1e-12);
        assert!(d.total_mass() > 0.5);
    }
}

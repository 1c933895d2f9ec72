//! The candidate maximum-butterfly set `C_MB` used by OLS (§VI).
//!
//! The preparing phase collects butterflies that were maximum in at least
//! one sampled world; the sampling phase then estimates probabilities over
//! this (weight-sorted) set only. [`CandidateSet`] precomputes everything
//! both estimators need: canonical weights, edge ids, existence
//! probabilities, and `L(i)` — the count of strictly-heavier candidates.

use crate::butterfly::Butterfly;
use bigraph::fx::FxHashSet;
use bigraph::{EdgeId, UncertainBipartiteGraph, Weight};

/// One candidate butterfly with its precomputed attributes.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The butterfly.
    pub butterfly: Butterfly,
    /// Canonical weight `w(B)`.
    pub weight: Weight,
    /// Its four backbone edges in canonical order.
    pub edges: [EdgeId; 4],
    /// `Pr[E(B)] = Π p(e)`.
    pub existence_prob: f64,
}

/// A weight-descending, deduplicated candidate set.
#[derive(Clone, Debug, Default)]
pub struct CandidateSet {
    candidates: Vec<Candidate>,
    /// `class_start[i]` = index of the first candidate in `i`'s weight
    /// class; equals the paper's `L(i)` (count of strictly heavier
    /// candidates, which under descending order is also the largest index
    /// bound of Algorithm 4 line 3).
    class_start: Vec<usize>,
}

impl CandidateSet {
    /// Builds a candidate set from butterflies of `g`'s backbone,
    /// deduplicating and sorting by weight descending (ties by canonical
    /// butterfly order for determinism).
    ///
    /// # Panics
    /// Panics if a butterfly is not a backbone butterfly of `g`.
    pub fn from_butterflies(
        g: &UncertainBipartiteGraph,
        butterflies: impl IntoIterator<Item = Butterfly>,
    ) -> Self {
        let mut seen: FxHashSet<Butterfly> = FxHashSet::default();
        let mut candidates: Vec<Candidate> = Vec::new();
        for b in butterflies {
            if !seen.insert(b) {
                continue;
            }
            let edges = b
                .edges(g)
                .unwrap_or_else(|| panic!("{b} is not a backbone butterfly"));
            candidates.push(Candidate {
                butterfly: b,
                weight: b.weight(g).expect("edges exist"),
                edges,
                existence_prob: b.existence_prob(g).expect("edges exist"),
            });
        }
        Self::from_unique_candidates(candidates)
    }

    /// Finishes a candidate set from already-deduplicated candidates:
    /// sorts by weight descending (ties by canonical butterfly order) and
    /// computes `L(i)`. The sort key is a *total* order, so the resulting
    /// indices depend only on the candidate contents — never on the input
    /// order.
    pub(crate) fn from_unique_candidates(mut candidates: Vec<Candidate>) -> Self {
        candidates.sort_unstable_by(|a, b| {
            b.weight
                .total_cmp(&a.weight)
                .then_with(|| a.butterfly.cmp(&b.butterfly))
        });
        let mut class_start = vec![0usize; candidates.len()];
        for i in 1..candidates.len() {
            class_start[i] = if candidates[i].weight == candidates[i - 1].weight {
                class_start[i - 1]
            } else {
                i
            };
        }
        CandidateSet {
            candidates,
            class_start,
        }
    }

    /// Number of candidates `|C_MB|`.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidate at sorted position `i` (0 = heaviest).
    pub fn get(&self, i: usize) -> &Candidate {
        &self.candidates[i]
    }

    /// Iterator over candidates in weight-descending order.
    pub fn iter(&self) -> impl Iterator<Item = &Candidate> {
        self.candidates.iter()
    }

    /// `L(i)`: the number of candidates with weight strictly greater than
    /// candidate `i`'s. Under descending order these are exactly the
    /// candidates at positions `0..L(i)` (Algorithm 4 line 3).
    pub fn larger_count(&self, i: usize) -> usize {
        self.class_start[i]
    }

    /// The residual edge set `B_j ∖ B_i` (edges of candidate `j` not in
    /// candidate `i`), at most 4 edges.
    pub fn residual(&self, j: usize, i: usize) -> Vec<EdgeId> {
        let bi = &self.candidates[i].edges;
        self.candidates[j]
            .edges
            .iter()
            .copied()
            .filter(|e| !bi.contains(e))
            .collect()
    }

    /// Position of a butterfly in the sorted order, if present.
    pub fn position(&self, b: &Butterfly) -> Option<usize> {
        self.candidates.iter().position(|c| c.butterfly == *b)
    }

    /// Checks a set built elsewhere (a decoded range request) against
    /// `g`: every candidate must be a backbone butterfly of `g` carrying
    /// exactly the edge ids `g` gives it. The estimators index `g`'s
    /// edge arrays with those ids, so a set listed from another graph
    /// must be refused before any engine is built over it.
    pub fn check_against(&self, g: &UncertainBipartiteGraph) -> Result<(), String> {
        match self
            .candidates
            .iter()
            .find(|c| c.butterfly.edges(g) != Some(c.edges))
        {
            None => Ok(()),
            Some(c) => Err(format!(
                "candidate {} with edges {:?} is not a butterfly of this graph ({} edges)",
                c.butterfly,
                c.edges,
                g.num_edges()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{GraphBuilder, Left, Right};

    fn grid_graph() -> UncertainBipartiteGraph {
        // K_{3,3} with weights making distinct butterfly weight classes.
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_edge(Left(u), Right(v), (u + v + 1) as f64, 0.5)
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    fn bf(u1: u32, u2: u32, v1: u32, v2: u32) -> Butterfly {
        Butterfly::new(Left(u1), Left(u2), Right(v1), Right(v2))
    }

    #[test]
    fn sorted_descending_and_deduplicated() {
        let g = grid_graph();
        let all = crate::butterfly::enumerate_backbone_butterflies(&g);
        let doubled: Vec<Butterfly> = all.iter().chain(all.iter()).copied().collect();
        let cs = CandidateSet::from_butterflies(&g, doubled);
        assert_eq!(cs.len(), all.len());
        for w in cs.candidates.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
    }

    #[test]
    fn larger_count_is_strict() {
        let g = grid_graph();
        // Butterflies over (u,u') pairs share weight classes:
        // weight of B(a,b,c,d) = (a+c+1)+(a+d+1)+(b+c+1)+(b+d+1)
        //                      = 2a+2b+2c+2d+4 — ties abound.
        let cs = CandidateSet::from_butterflies(
            &g,
            crate::butterfly::enumerate_backbone_butterflies(&g),
        );
        for i in 0..cs.len() {
            let li = cs.larger_count(i);
            for j in 0..li {
                assert!(cs.get(j).weight > cs.get(i).weight);
            }
            if li < i {
                assert_eq!(cs.get(li).weight, cs.get(i).weight);
            }
        }
    }

    #[test]
    fn residual_excludes_shared_edges() {
        let g = grid_graph();
        let cs = CandidateSet::from_butterflies(&g, [bf(0, 1, 0, 1), bf(0, 1, 1, 2)]);
        // These two butterflies share the edges (0,1) and (1,1).
        let hi = cs.position(&bf(0, 1, 1, 2)).unwrap(); // heavier (sum 12)
        let lo = cs.position(&bf(0, 1, 0, 1)).unwrap(); // lighter (sum 8)
        assert_eq!(hi, 0);
        assert_eq!(lo, 1);
        let r = cs.residual(hi, lo);
        assert_eq!(r.len(), 2);
        let e1 = g.find_edge(Left(0), Right(2)).unwrap();
        let e2 = g.find_edge(Left(1), Right(2)).unwrap();
        assert!(r.contains(&e1) && r.contains(&e2));
        // Residual with itself is empty.
        assert!(cs.residual(hi, hi).is_empty());
    }

    #[test]
    fn existence_probability_is_product() {
        let g = grid_graph();
        let cs = CandidateSet::from_butterflies(&g, [bf(0, 1, 0, 1)]);
        assert!((cs.get(0).existence_prob - 0.5f64.powi(4)).abs() < 1e-12);
    }

    #[test]
    fn empty_set() {
        let g = grid_graph();
        let cs = CandidateSet::from_butterflies(&g, []);
        assert!(cs.is_empty());
        assert_eq!(cs.len(), 0);
    }

    #[test]
    #[should_panic(expected = "not a backbone butterfly")]
    fn rejects_non_backbone_butterflies() {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 1.0, 0.5).unwrap();
        b.add_edge(Left(5), Right(5), 1.0, 0.5).unwrap();
        let g = b.build().unwrap();
        let _ = CandidateSet::from_butterflies(&g, [bf(0, 1, 0, 1)]);
    }
}

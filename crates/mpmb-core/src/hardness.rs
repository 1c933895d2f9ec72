//! The §III-B hardness construction: Monotone #2-SAT → MPMB probability.
//!
//! Lemma III.1 proves computing `P(B)` #P-Hard by building, from a
//! monotone 2-CNF `F` over variables `y₁..y_n`, an uncertain bipartite
//! network `G#` and a reference butterfly `B` such that
//! `P(B) = #SAT(F) / 2ⁿ`. This module implements the construction exactly
//! as published, plus a brute-force model counter, so the reduction can be
//! validated empirically against the exact engine.
//!
//! **A caveat the paper does not state:** the construction can admit
//! *accidental* butterflies — 4-cycles among clause-gadget edges that do
//! not correspond to any clause (e.g. three pairwise clauses
//! `{a,b},{a,c},{b,c}` create the weight-4 cycle
//! `(u_a,v_b),(u_a,v_c),(u_b,v_b)… `). Such butterflies can outweigh `B`
//! in worlds where `F` is satisfied, breaking the claimed equality. The
//! [`Reduction::is_exactly_sound`] predicate detects instances with
//! accidental butterflies; the equality `P(B) = #SAT/2ⁿ` is asserted by
//! tests on sound instances and documented as an inequality otherwise.

use crate::butterfly::{enumerate_backbone_butterflies, Butterfly};
use crate::exact::{exact_prob, ExactConfig, ExactError};
use bigraph::fx::FxHashSet;
use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};

/// A monotone 2-CNF formula: every literal positive, clauses of the form
/// `(y_a ∨ y_b)` with `a = b` allowed (unit clauses written as `(y_a ∨ y_a)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Monotone2Sat {
    num_vars: u32,
    clauses: Vec<(u32, u32)>,
}

impl Monotone2Sat {
    /// Creates a formula over variables `1..=num_vars` (1-based, matching
    /// the paper's indexing).
    ///
    /// # Panics
    /// Panics if any clause mentions variable 0 or one above `num_vars`.
    pub fn new(num_vars: u32, clauses: Vec<(u32, u32)>) -> Self {
        for &(a, b) in &clauses {
            assert!(
                (1..=num_vars).contains(&a) && (1..=num_vars).contains(&b),
                "clause ({a},{b}) out of range 1..={num_vars}"
            );
        }
        Monotone2Sat { num_vars, clauses }
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The clauses.
    pub fn clauses(&self) -> &[(u32, u32)] {
        &self.clauses
    }

    /// Evaluates the formula under an assignment bitmask (bit `i−1` =
    /// value of `y_i`).
    pub fn eval(&self, assignment: u64) -> bool {
        self.clauses
            .iter()
            .all(|&(a, b)| assignment >> (a - 1) & 1 == 1 || assignment >> (b - 1) & 1 == 1)
    }

    /// Brute-force model count `|{x : F(x) = 1}|`.
    ///
    /// # Panics
    /// Panics for more than 24 variables.
    pub fn count_satisfying(&self) -> u64 {
        assert!(self.num_vars <= 24, "brute-force counter capped at 24 vars");
        (0u64..(1 << self.num_vars))
            .filter(|&x| self.eval(x))
            .count() as u64
    }
}

/// The output of the Lemma III.1 construction.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The constructed uncertain bipartite network `G#`.
    pub graph: UncertainBipartiteGraph,
    /// The reference butterfly `B(u_{n+1}, u_{n+2}, v_{n+1}, v_{n+2})`.
    pub target: Butterfly,
    /// The source formula.
    pub formula: Monotone2Sat,
}

impl Reduction {
    /// Builds `G#` from a monotone 2-CNF, following §III-B parts (i)–(iv).
    ///
    /// Vertex layout (0-based ids for the paper's 1-based names):
    /// `u_0 ↦ Left(0)`, `u_i ↦ Left(i)`, `u_{n+1} ↦ Left(n+1)`,
    /// `u_{n+2} ↦ Left(n+2)`; same on the right.
    pub fn build(formula: Monotone2Sat) -> Self {
        let n = formula.num_vars;
        let mut b = GraphBuilder::new();
        b.reserve_vertices(n + 3, n + 3);

        // (i) one uncertain edge per variable: (u_i, v_i), p = 0.5, w = 1.
        for i in 1..=n {
            b.add_edge(Left(i), Right(i), 1.0, 0.5).unwrap();
        }
        // (ii)/(iii) clause edges, p = 1, w = 1; repeated clauses would
        // produce duplicate edges, so dedup.
        let mut added: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut clause_edge = |b: &mut GraphBuilder, u: u32, v: u32| {
            if added.insert((u, v)) {
                b.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
            }
        };
        for &(i1, i2) in formula.clauses() {
            if i1 != i2 {
                clause_edge(&mut b, i1, i2);
                clause_edge(&mut b, i2, i1);
            } else {
                // Unit clause via the constant-true vertices u_0 / v_0.
                // Erratum: the published construction lists only the two
                // edges (u_i, v_0), (u_0, v_i); without the (u_0, v_0)
                // edge the unit-clause butterfly B(u_0, u_i, v_0, v_i) can
                // never complete and the reduction claims P(B) = 1
                // regardless of F. Adding (u_0, v_0) with p = 1, w = 1
                // restores the intended semantics (the butterfly exists
                // iff the variable edge does, i.e. iff y_i is false).
                clause_edge(&mut b, i1, 0);
                clause_edge(&mut b, 0, i1);
                clause_edge(&mut b, 0, 0);
            }
        }
        // (iv) the independent reference butterfly, p = 1, w = 0.5.
        for (u, v) in [
            (n + 1, n + 1),
            (n + 1, n + 2),
            (n + 2, n + 1),
            (n + 2, n + 2),
        ] {
            b.add_edge(Left(u), Right(v), 0.5, 1.0).unwrap();
        }

        let graph = b.build().expect("reduction graph is valid");
        let target = Butterfly::new(Left(n + 1), Left(n + 2), Right(n + 1), Right(n + 2));
        Reduction {
            graph,
            target,
            formula,
        }
    }

    /// The butterfly encoding clause `(i1 ∨ i2)`, `i1 ≠ i2`:
    /// `B(u_{i1}, u_{i2}, v_{i1}, v_{i2})`. Unit clauses use `u_0/v_0`.
    pub fn clause_butterfly(&self, clause: (u32, u32)) -> Butterfly {
        let (i1, i2) = clause;
        if i1 != i2 {
            Butterfly::new(Left(i1), Left(i2), Right(i1), Right(i2))
        } else {
            Butterfly::new(Left(0), Left(i1), Right(0), Right(i1))
        }
    }

    /// Whether every weight-≥2 backbone butterfly of `G#` other than the
    /// target is a clause butterfly. When true, the published equality
    /// `P(B) = #SAT/2ⁿ` holds exactly; accidental butterflies (see module
    /// docs) can otherwise suppress `P(B)` below it.
    pub fn is_exactly_sound(&self) -> bool {
        let clause_bfs: FxHashSet<Butterfly> = self
            .formula
            .clauses()
            .iter()
            .map(|&c| self.clause_butterfly(c))
            .collect();
        enumerate_backbone_butterflies(&self.graph)
            .into_iter()
            .all(|b| {
                b == self.target
                    || clause_bfs.contains(&b)
                    || b.weight(&self.graph).unwrap() < self.target.weight(&self.graph).unwrap()
            })
    }

    /// `P(B)` of the target butterfly via the exact engine.
    pub fn exact_target_prob(&self) -> Result<f64, ExactError> {
        exact_prob(
            &self.graph,
            &self.target,
            ExactConfig {
                max_uncertain_edges: self.formula.num_vars(),
            },
        )
    }

    /// The value the reduction claims: `#SAT(F) / 2ⁿ`.
    pub fn claimed_prob(&self) -> f64 {
        self.formula.count_satisfying() as f64 / 2f64.powi(self.formula.num_vars() as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_eval_and_count() {
        // (y1 ∨ y2) ∧ (y2 ∨ y3): satisfying assignments of 3 vars.
        let f = Monotone2Sat::new(3, vec![(1, 2), (2, 3)]);
        assert!(f.eval(0b010)); // y2 alone satisfies both
        assert!(!f.eval(0b000));
        assert!(!f.eval(0b001)); // y1 only: second clause fails
        assert_eq!(f.count_satisfying(), 5);
    }

    #[test]
    fn unit_clause_via_constant_vertex() {
        let f = Monotone2Sat::new(2, vec![(1, 1)]);
        assert_eq!(f.count_satisfying(), 2); // y1 must hold; y2 free
        let r = Reduction::build(f);
        // u_0 and v_0 edges exist with p = 1.
        assert!(r.graph.find_edge(Left(1), Right(0)).is_some());
        assert!(r.graph.find_edge(Left(0), Right(1)).is_some());
        assert!(r.is_exactly_sound());
        let p = r.exact_target_prob().unwrap();
        assert!(
            (p - r.claimed_prob()).abs() < 1e-12,
            "{p} vs {}",
            r.claimed_prob()
        );
    }

    #[test]
    fn graph_shape_matches_construction() {
        let f = Monotone2Sat::new(3, vec![(1, 2), (2, 3)]);
        let r = Reduction::build(f);
        // Vertices 0..=n+2 on both sides.
        assert_eq!(r.graph.num_left(), 6);
        assert_eq!(r.graph.num_right(), 6);
        // Edges: 3 variable + 4 clause + 4 reference = 11.
        assert_eq!(r.graph.num_edges(), 11);
        // Variable edges are the only uncertain ones.
        let uncertain = r
            .graph
            .edge_ids()
            .filter(|&e| r.graph.prob(e) > 0.0 && r.graph.prob(e) < 1.0)
            .count();
        assert_eq!(uncertain, 3);
        // Target butterfly exists with weight 2 and certainty 1.
        assert_eq!(r.target.weight(&r.graph), Some(2.0));
        assert_eq!(r.target.existence_prob(&r.graph), Some(1.0));
    }

    #[test]
    fn single_clause_reduction_is_exact() {
        // F = (y1 ∨ y2): 3 of 4 assignments satisfy.
        let f = Monotone2Sat::new(2, vec![(1, 2)]);
        let r = Reduction::build(f);
        assert!(r.is_exactly_sound());
        let p = r.exact_target_prob().unwrap();
        assert!((p - 0.75).abs() < 1e-12, "p={p}");
    }

    #[test]
    fn chain_reductions_are_exact() {
        // Chains (y1∨y2)∧(y2∨y3)∧…∧ have no clause triangles.
        for n in 2..=6u32 {
            let clauses: Vec<(u32, u32)> = (1..n).map(|i| (i, i + 1)).collect();
            let f = Monotone2Sat::new(n, clauses);
            let r = Reduction::build(f);
            assert!(r.is_exactly_sound(), "n={n}");
            let p = r.exact_target_prob().unwrap();
            let claimed = r.claimed_prob();
            assert!((p - claimed).abs() < 1e-12, "n={n}: {p} vs {claimed}");
        }
    }

    #[test]
    fn clause_triangle_creates_accidental_butterflies() {
        // {1,2},{1,3},{2,3} — the triangle case from the module docs.
        // The reduction is not exactly sound here; the exact probability
        // must still never *exceed* the claim (extra heavy butterflies can
        // only demote the target).
        let f = Monotone2Sat::new(3, vec![(1, 2), (1, 3), (2, 3)]);
        let r = Reduction::build(f.clone());
        assert!(!r.is_exactly_sound(), "triangle unexpectedly sound");
        let p = r.exact_target_prob().unwrap();
        assert!(
            p <= r.claimed_prob() + 1e-12,
            "accidental butterflies should only suppress: {p} vs {}",
            r.claimed_prob()
        );
    }

    #[test]
    fn sampling_solver_agrees_with_reduction_on_sound_instance() {
        // End-to-end: OS estimates P(target) ≈ #SAT/2ⁿ on a sound formula.
        let f = Monotone2Sat::new(4, vec![(1, 2), (3, 4)]);
        let r = Reduction::build(f);
        assert!(r.is_exactly_sound());
        let claimed = r.claimed_prob(); // (3/4)² = 0.5625
        let cfg = crate::os::OsConfig {
            seed: 77,
            ..Default::default()
        };
        let os = crate::os::OsTrials::new(&r.graph, &cfg);
        let d = crate::engine::Executor::new(1)
            .run(&os, 40_000, &crate::engine::Cancel::never())
            .acc
            .into_distribution();
        let est = d.prob(&r.target);
        assert!(
            (est - claimed).abs() < 0.01,
            "est {est} vs claimed {claimed}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_clause() {
        let _ = Monotone2Sat::new(2, vec![(1, 3)]);
    }
}

#![warn(missing_docs)]

//! Synthetic stand-ins for the MPMB paper's evaluation datasets.
//!
//! The paper (§VIII-A, Table III) evaluates on four uncertain bipartite
//! networks that cannot be redistributed here. Each module generates a
//! synthetic analog preserving the published *shape* — vertex/edge counts,
//! weight and probability semantics, and the degree structure the
//! algorithms' costs depend on (see DESIGN.md §3 for the substitution
//! argument):
//!
//! | Paper (Table III) | `|E|` | `|L|` | `|R|` | Stand-in |
//! |---|---|---|---|---|
//! | ABIDE | 3,364 | 58 | 58 | [`abide`] |
//! | MovieLens | 100,836 | 610 | 9,724 | [`movielens`] |
//! | Jester | 4,136,360 | 100 | 73,421 | [`jester`] |
//! | Protein | 39,471,870 | 186,773 | 186,772 | [`protein`] |
//!
//! All generators take `scale ∈ (0, 1]` (1.0 = Table III size) and a seed,
//! and are fully deterministic.

pub mod abide;
pub mod jester;
pub mod movielens;
pub mod protein;
pub mod scale;

use bigraph::UncertainBipartiteGraph;

/// The four evaluation datasets, as an enumerable handle for harnesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dataset {
    /// Brain-network stand-in (complete 58×58, distance/correlation).
    Abide,
    /// Rating network with Zipf item popularity.
    MovieLens,
    /// Extremely asymmetric dense-column rating network.
    Jester,
    /// Web-scale near-regular interaction network.
    Protein,
}

/// Published Table III sizes, used for reporting and for scaling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaperStats {
    /// `|E|` in Table III.
    pub edges: usize,
    /// `|L|` in Table III.
    pub left: usize,
    /// `|R|` in Table III.
    pub right: usize,
}

impl Dataset {
    /// All four datasets in the paper's order.
    pub fn all() -> [Dataset; 4] {
        [
            Dataset::Abide,
            Dataset::MovieLens,
            Dataset::Jester,
            Dataset::Protein,
        ]
    }

    /// The dataset's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Abide => "ABIDE",
            Dataset::MovieLens => "MovieLens",
            Dataset::Jester => "Jester",
            Dataset::Protein => "Protein",
        }
    }

    /// Parses a dataset by its name, case-insensitively (`abide`,
    /// `movielens`, `jester`, `protein`). The error names the input in
    /// lowercase.
    pub fn parse(name: &str) -> Result<Dataset, String> {
        Dataset::all()
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown dataset `{}`", name.to_ascii_lowercase()))
    }

    /// The published Table III sizes.
    pub fn paper_stats(&self) -> PaperStats {
        match self {
            Dataset::Abide => PaperStats {
                edges: 3_364,
                left: 58,
                right: 58,
            },
            Dataset::MovieLens => PaperStats {
                edges: 100_836,
                left: 610,
                right: 9_724,
            },
            Dataset::Jester => PaperStats {
                edges: 4_136_360,
                left: 100,
                right: 73_421,
            },
            Dataset::Protein => PaperStats {
                edges: 39_471_870,
                left: 186_773,
                right: 186_772,
            },
        }
    }

    /// Generates the stand-in at `scale` (1.0 = full Table III size).
    pub fn generate(&self, scale: f64, seed: u64) -> UncertainBipartiteGraph {
        match self {
            Dataset::Abide => abide::generate(scale, abide::Group::TypicalControls, seed),
            Dataset::MovieLens => movielens::generate(scale, seed),
            Dataset::Jester => jester::generate(scale, seed),
            Dataset::Protein => protein::generate(scale, seed),
        }
    }
}

/// Scales a Table III count by `scale`, flooring at `min`.
pub(crate) fn scaled(count: usize, scale: f64, min: usize) -> usize {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    ((count as f64 * scale).round() as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ignores_case_and_names_unknown_input() {
        for d in Dataset::all() {
            assert_eq!(Dataset::parse(d.name()), Ok(d));
            assert_eq!(Dataset::parse(&d.name().to_ascii_lowercase()), Ok(d));
        }
        assert_eq!(Dataset::parse("MOVIELENS"), Ok(Dataset::MovieLens));
        assert_eq!(
            Dataset::parse("ZZZ"),
            Err("unknown dataset `zzz`".to_string())
        );
    }

    #[test]
    fn names_and_order() {
        let names: Vec<&str> = Dataset::all().iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["ABIDE", "MovieLens", "Jester", "Protein"]);
    }

    #[test]
    fn paper_stats_match_table3() {
        assert_eq!(Dataset::Jester.paper_stats().right, 73_421);
        assert_eq!(Dataset::Protein.paper_stats().edges, 39_471_870);
    }

    #[test]
    fn scaled_floors_and_rounds() {
        assert_eq!(scaled(100, 0.5, 1), 50);
        assert_eq!(scaled(3, 0.01, 2), 2);
        assert_eq!(scaled(100, 1.0, 1), 100);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0,1]")]
    fn rejects_zero_scale() {
        let _ = scaled(10, 0.0, 1);
    }

    #[test]
    fn generate_dispatches_every_dataset_small() {
        for d in Dataset::all() {
            let g = d.generate(0.01, 7);
            assert!(g.num_edges() > 0, "{} empty at scale 0.01", d.name());
        }
    }
}

//! Cross-crate integration: dataset stand-ins → solvers → rankings.

mod common;

use common::solve;
use datasets::Dataset;
use mpmb::prelude::*;

/// Small-scale instantiations that still contain butterflies.
fn small(dataset: Dataset) -> UncertainBipartiteGraph {
    let scale = match dataset {
        Dataset::Abide => 0.3,
        Dataset::MovieLens => 0.05,
        Dataset::Jester => 0.005,
        Dataset::Protein => 0.001,
    };
    dataset.generate(scale, 404)
}

#[test]
fn os_finds_butterflies_on_every_dataset() {
    for dataset in Dataset::all() {
        let g = small(dataset);
        let d = solve(&g, Method::Os, 400, 0, 1);
        assert!(
            !d.is_empty(),
            "{}: no butterflies found at test scale",
            dataset.name()
        );
        let (b, p) = d.mpmb().unwrap();
        assert!(p > 0.0 && p <= 1.0);
        assert!(b.weight(&g).is_some(), "MPMB must be a backbone butterfly");
    }
}

#[test]
fn ols_and_os_agree_on_the_mpmb() {
    // With enough trials both methods converge on the same argmax for
    // datasets with a clear leader.
    let g = small(Dataset::Abide);
    let os = solve(&g, Method::Os, 12_000, 0, 2);
    let ols = solve(&g, Method::Ols, 12_000, 200, 2);
    let (b_os, p_os) = os.mpmb().unwrap();
    let (b_ols, p_ols) = ols.mpmb().unwrap();
    // Probabilities agree even if close-running butterflies swap ranks.
    assert!(
        (p_os - p_ols).abs() < 0.05,
        "top probabilities diverged: {p_os} vs {p_ols}"
    );
    assert!(
        (os.prob(&b_ols) - p_ols).abs() < 0.05 && (ols.prob(&b_os) - p_os).abs() < 0.05,
        "cross-method estimates diverged for {b_os} / {b_ols}"
    );
}

#[test]
fn parallel_executor_is_bit_identical_across_thread_counts() {
    let g = small(Dataset::MovieLens);
    let cfg = OsConfig {
        seed: 3,
        ..Default::default()
    };
    let reference = solve(&g, Method::Os, 600, 0, 3);
    for threads in [1, 2, 5, 11] {
        let par = Executor::new(threads)
            .run(&OsTrials::new(&g, &cfg), 600, &Cancel::never())
            .acc
            .into_distribution();
        assert_eq!(reference.max_abs_diff(&par), 0.0, "threads={threads}");
    }
}

#[test]
fn graph_io_roundtrip_preserves_solver_output() {
    let g = small(Dataset::Jester);
    let mut buf = Vec::new();
    bigraph::io::write_edge_list(&g, &mut buf).unwrap();
    let g2 = bigraph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
    let d1 = solve(&g, Method::Os, 300, 0, 4);
    let d2 = solve(&g2, Method::Os, 300, 0, 4);
    assert_eq!(d1.max_abs_diff(&d2), 0.0, "round-tripped graph diverged");
}

#[test]
fn top_k_ranking_is_consistent_with_probabilities() {
    let g = small(Dataset::Abide);
    let result = solve(&g, Method::Ols, 5_000, 150, 5);
    let top = result.top_k(10);
    assert!(!top.is_empty());
    for w in top.windows(2) {
        assert!(w[0].1 >= w[1].1, "ranking not sorted");
    }
    for (b, p) in &top {
        assert_eq!(result.prob(b), *p);
    }
}

#[test]
fn induced_scaling_preserves_solver_soundness() {
    let g = small(Dataset::MovieLens);
    for frac in [0.25, 0.5, 0.75] {
        let sub = datasets::scale::induced_vertex_sample(&g, frac, 6);
        let d: Distribution = solve(&sub, Method::Os, 200, 0, 7);
        // Every reported butterfly must exist in the subgraph's backbone.
        for (b, _) in d.iter() {
            assert!(b.edges(&sub).is_some(), "{b} not in induced backbone");
        }
    }
}

//! Serialization tests for `bigraph::io`: the text round-trip property,
//! and the error paths a server loading untrusted graph files has to
//! survive (malformed lines).

use bigraph::builder::BuildError;
use bigraph::io::{read_edge_list, write_edge_list, IoError};
use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
use proptest::prelude::*;
use std::io::Cursor;

/// Strategy: a small random uncertain bipartite graph as an edge list with
/// distinct endpoint pairs, quantized weights, and valid probabilities.
/// (Same shape as `proptests.rs::arb_edges`; probabilities are quantized
/// too.)
fn arb_edges(
    max_l: u32,
    max_r: u32,
    max_m: usize,
) -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0..max_l, 0..max_r), 0..=max_m).prop_flat_map(move |pairs| {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let n = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(0u32..=320, n..=n),
            proptest::collection::vec(0u32..=256, n..=n),
        )
            .prop_map(|(pairs, ws, ps)| {
                pairs
                    .into_iter()
                    .zip(ws.iter().zip(ps.iter()))
                    .map(|((u, v), (&w, &p))| (u, v, w as f64 / 64.0, p as f64 / 256.0))
                    .collect()
            })
    })
}

fn build(edges: &[(u32, u32, f64, f64)]) -> UncertainBipartiteGraph {
    let mut b = GraphBuilder::new();
    for &(u, v, w, p) in edges {
        b.add_edge(Left(u), Right(v), w, p).unwrap();
    }
    b.build().unwrap()
}

fn assert_same_graph(a: &UncertainBipartiteGraph, b: &UncertainBipartiteGraph) {
    assert_eq!(a.num_left(), b.num_left());
    assert_eq!(a.num_right(), b.num_right());
    assert_eq!(a.num_edges(), b.num_edges());
    for e in a.edge_ids() {
        assert_eq!(a.endpoints(e), b.endpoints(e));
        assert_eq!(a.weight(e).to_bits(), b.weight(e).to_bits());
        assert_eq!(a.prob(e).to_bits(), b.prob(e).to_bits());
    }
}

proptest! {
    /// Text round-trip: a graph written as text, read back, and
    /// re-written is bit-identical, and so are the bytes of the second
    /// write. Rust's `{}` float formatting is shortest-roundtrip, so the
    /// decimal text carries every weight and probability exactly.
    #[test]
    fn text_format_roundtrips_bit_exactly(edges in arb_edges(12, 12, 48)) {
        let g = build(&edges);
        let mut text = Vec::new();
        write_edge_list(&g, &mut text).unwrap();
        let from_text = read_edge_list(Cursor::new(&text)).unwrap();
        assert_same_graph(&g, &from_text);
        let mut text2 = Vec::new();
        write_edge_list(&from_text, &mut text2).unwrap();
        prop_assert_eq!(text, text2);
    }
}

#[test]
fn malformed_line_bad_arity_too_few_fields() {
    for (input, missing) in [("0\n", "right"), ("0 1\n", "weight"), ("0 1 2.0\n", "prob")] {
        match read_edge_list(Cursor::new(input)).unwrap_err() {
            IoError::Parse { line: 1, msg } => assert!(msg.contains(missing), "{input:?}: {msg}"),
            other => panic!("{input:?}: unexpected {other:?}"),
        }
    }
}

#[test]
fn malformed_line_bad_arity_too_many_fields() {
    match read_edge_list(Cursor::new("0 1 2.0 0.5 surplus\n")).unwrap_err() {
        IoError::Parse { line: 1, msg } => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn malformed_line_negative_weight() {
    match read_edge_list(Cursor::new("0 0 1.0 0.5\n1 1 -3.5 0.5\n")).unwrap_err() {
        IoError::Build(BuildError::InvalidWeight { w, .. }) => assert_eq!(w, -3.5),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn malformed_line_probability_out_of_range() {
    for p in ["1.5", "-0.25", "inf", "NaN"] {
        let input = format!("0 0 1.0 {p}\n");
        let err = read_edge_list(Cursor::new(input.as_bytes())).unwrap_err();
        assert!(
            matches!(err, IoError::Build(BuildError::InvalidProbability { .. })),
            "p={p}: unexpected {err:?}"
        );
    }
    // Boundary values are fine.
    let g = read_edge_list(Cursor::new("0 0 1.0 0\n0 1 1.0 1\n")).unwrap();
    assert_eq!(g.num_edges(), 2);
}

#[test]
fn malformed_line_error_reports_correct_line_number() {
    let input = "# header comment\n0 0 1.0 0.5\n\n1 1 bogus 0.5\n";
    match read_edge_list(Cursor::new(input)).unwrap_err() {
        IoError::Parse { line, msg } => {
            assert_eq!(line, 4);
            assert!(msg.contains("weight"), "{msg}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

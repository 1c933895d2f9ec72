//! Quickstart: the paper's Figure 1 network, end to end.
//!
//! Builds the 2×3 uncertain bipartite network of Fig. 1(a), computes the
//! exact `P(B)` for every butterfly (feasible here: 2⁶ worlds), and shows
//! that all three sampling solvers converge to the same MPMB.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mpmb::prelude::*;

fn main() {
    // Figure 1(a): edges with (weight, probability).
    let mut b = GraphBuilder::new();
    b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap(); // (u1, v1)
    b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap(); // (u1, v2)
    b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap(); // (u1, v3)
    b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap(); // (u2, v1)
    b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap(); // (u2, v2)
    b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap(); // (u2, v3)
    let g = b.build().unwrap();
    println!("network: {}", GraphStats::compute(&g));

    // The Fig. 1(b) possible world: everything except (u1, v1).
    let mut world = PossibleWorld::full(&g);
    world.remove(g.find_edge(Left(0), Right(0)).unwrap());
    println!(
        "Fig. 1(b) world probability = {:.5} (paper: 0.02016)",
        world.probability(&g)
    );

    // Exact ground truth by possible-world enumeration (#P-hard in
    // general; fine for 6 edges).
    let exact = mpmb::mpmb_core::exact_distribution(&g, ExactConfig::default()).unwrap();
    println!("\nexact P(B) per butterfly:");
    for (butterfly, p) in exact.sorted() {
        println!(
            "  {butterfly}  w={}  P={p:.5}",
            butterfly.weight(&g).unwrap()
        );
    }

    // The three sampling methods: 50,000 trials each (OLS: after 100
    // preparing trials), seed 42.
    let (b_exact, p_exact) = exact.mpmb().unwrap();
    println!("\nMPMB comparison (exact = {b_exact}, P = {p_exact:.5}):");
    for (name, method) in [
        ("MC-VP", Method::McVp),
        ("OS   ", Method::Os),
        ("OLS  ", Method::Ols),
    ] {
        let job = Job::new(method, 50_000, 100, 42);
        let run = advance_local(&g, &job, None, 1, &Cancel::never()).unwrap();
        let Outcome::Done(Answer::Distribution(dist)) = run.outcome else {
            unreachable!("an uncancelled {method} run ranks butterflies")
        };
        let (butterfly, p) = dist.mpmb().expect("solver found butterflies");
        println!(
            "  {name}: {butterfly}  P ≈ {p:.5}  (abs err {:.5})",
            (p - p_exact).abs()
        );
        assert_eq!(butterfly, b_exact, "{name} disagrees with exact MPMB");
    }
    println!("\nall solvers agree with exact enumeration ✓");
}

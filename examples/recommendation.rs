//! Use case 1 (§I, Fig. 2): recommendation via MPMB on a user–item
//! network, showing why cold-item weighting changes the answer.
//!
//! Alice and Bob both like two *hot* items (football, Harry Potter) with
//! high probability — the unweighted most-probable butterfly. Carol and
//! Dave share two *cold* items (skating, chess): lower probability, but
//! once cold items get a reward weight (optimized UserCF), their butterfly
//! becomes the **most probable maximum weighted** butterfly, exactly the
//! diversity effect Fig. 2 illustrates.
//!
//! ```text
//! cargo run --release --example recommendation
//! ```

use mpmb::prelude::*;

const USERS: [&str; 4] = ["Alice", "Bob", "Carol", "Dave"];
const ITEMS: [&str; 4] = ["football", "harry-potter", "skating", "chess"];

fn show(name: &str, dist: &mpmb_core::Distribution, g: &UncertainBipartiteGraph) {
    println!("{name}:");
    for (butterfly, p) in dist.top_k(3) {
        let (u1, u2, v1, v2) = butterfly.vertices();
        println!(
            "  {} & {} over {{{}, {}}}  w={}  P≈{p:.4}",
            USERS[u1.index()],
            USERS[u2.index()],
            ITEMS[v1.index()],
            ITEMS[v2.index()],
            butterfly.weight(g).unwrap(),
        );
    }
}

fn build(cold_reward: f64) -> UncertainBipartiteGraph {
    // (user, item, like-probability); hot items have high probabilities
    // because "millions of other users are also interested".
    let likes = [
        (0u32, 0u32, 0.9), // Alice–football
        (0, 1, 0.8),       // Alice–harry potter
        (1, 0, 0.8),       // Bob–football
        (1, 1, 0.9),       // Bob–harry potter
        (2, 2, 0.8),       // Carol–skating
        (2, 3, 0.8),       // Carol–chess
        (3, 2, 0.8),       // Dave–skating
        (3, 3, 0.8),       // Dave–chess
        // Cross edges making the graph connected and realistic.
        (2, 0, 0.6), // Carol also likes football
        (3, 1, 0.5), // Dave read Harry Potter
    ];
    // Item popularity = number of fans; cold items get the reward.
    let fans = |item: u32| likes.iter().filter(|&&(_, v, _)| v == item).count() as f64;
    let max_fans = (0..4).map(&fans).fold(0.0, f64::max);
    let mut b = GraphBuilder::new();
    for &(u, v, p) in &likes {
        let w = 1.0 + cold_reward * (1.0 - fans(v) / max_fans);
        b.add_edge(Left(u), Right(v), (w * 64.0).round() / 64.0, p)
            .unwrap();
    }
    b.build().unwrap()
}

/// 60,000 Ordering Sampling trials on `g`, seed 7.
fn solve(g: &UncertainBipartiteGraph) -> Distribution {
    let job = Job::new(Method::Os, 60_000, 0, 7);
    let run = advance_local(g, &job, None, 1, &Cancel::never()).unwrap();
    let Outcome::Done(Answer::Distribution(d)) = run.outcome else {
        unreachable!("an uncancelled os run ranks butterflies")
    };
    d
}

fn main() {
    // Unweighted: every like counts 1.0 — the hot-item butterfly wins on
    // probability (Fig. 2(a)).
    let flat = build(0.0);
    let d_flat = solve(&flat);
    show("unweighted (hot items win)", &d_flat, &flat);
    let (top_flat, _) = d_flat.mpmb().unwrap();
    assert_eq!(
        (top_flat.u1.index(), top_flat.u2.index()),
        (0, 1),
        "expected the Alice–Bob hot butterfly"
    );

    // Cold-item reward: unpopular items weigh more (Fig. 2(b)); the
    // Carol–Dave butterfly over skating+chess becomes the MPMB despite
    // its lower probability.
    let weighted = build(1.4);
    let d_weighted = solve(&weighted);
    show(
        "\ncold-item reward (diverse recommendation wins)",
        &d_weighted,
        &weighted,
    );
    let (top_w, p_w) = d_weighted.mpmb().unwrap();
    assert_eq!(
        (top_w.u1.index(), top_w.u2.index()),
        (2, 3),
        "expected the Carol–Dave cold butterfly"
    );

    println!(
        "\n=> recommend to {} what {} uniquely likes (and vice versa); P≈{p_w:.4}",
        USERS[top_w.u1.index()],
        USERS[top_w.u2.index()],
    );
}

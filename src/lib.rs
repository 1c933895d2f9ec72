#![warn(missing_docs)]

//! # mpmb — Most Probable Maximum Weighted Butterfly search
//!
//! Facade crate for the MPMB workspace: a from-scratch Rust reproduction of
//! *"Most Probable Maximum Weighted Butterfly Search"* (ICDE 2025).
//!
//! The problem: on an **uncertain weighted bipartite network**, where each
//! edge carries a weight and an independent existence probability, find the
//! butterfly (2×2 biclique) with the highest probability of being the
//! *maximum-weighted* butterfly across all possible worlds. Computing this
//! probability is #P-Hard, so the library provides three sampling methods,
//! each a [`Method`](mpmb_serve::Method) of one method table:
//!
//! * `Method::McVp` — Monte-Carlo with Vertex Priority, the baseline
//!   (Algorithm 1);
//! * `Method::Os` — the paper's Ordering Sampling (Algorithm 2), ~10³×
//!   faster than the baseline;
//! * `Method::Ols` / `Method::OlsKl` — Ordering-Listing Sampling
//!   (Algorithm 3) with the paper's optimized shared-trial estimator
//!   (Algorithm 5) or classical Karp-Luby (Algorithm 4).
//!
//! [`advance_local`](mpmb_serve::advance_local) runs a [`Job`](mpmb_serve::Job)
//! on this machine — the same driver `mpmb solve` and the server use.
//! Each algorithm's per-trial body is a `mpmb_core` engine
//! ([`OsTrials`](mpmb_core::OsTrials) and friends) that can also be driven
//! directly on an [`Executor`](mpmb_core::Executor).
//!
//! ```
//! use mpmb::prelude::*;
//!
//! // Figure 1(a) of the paper.
//! let mut b = GraphBuilder::new();
//! b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
//! b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
//! b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
//! b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
//! b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
//! b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
//! let g = b.build().unwrap();
//!
//! // 5,000 Ordering Sampling trials, seed 42, on one thread.
//! let job = Job::new(Method::Os, 5_000, 0, 42);
//! let run = advance_local(&g, &job, None, 1, &Cancel::never()).unwrap();
//! let Outcome::Done(Answer::Distribution(dist)) = run.outcome else {
//!     unreachable!("an uncancelled os run ranks butterflies")
//! };
//! let (butterfly, p) = dist.mpmb().expect("graph contains butterflies");
//! println!("MPMB = {butterfly} with P ≈ {p:.4}");
//! ```

pub use bigraph;
pub use datasets;
pub use mpmb_core;
pub use mpmb_serve;

/// One-stop imports for typical library use.
pub mod prelude {
    pub use bigraph::{
        BuildError, EdgeId, GraphBuilder, GraphStats, Left, PossibleWorld, Right, Side,
        UncertainBipartiteGraph, Weight,
    };
    pub use mpmb_core::{
        Butterfly, Cancel, Distribution, ExactConfig, Executor, KlTrialPolicy, OsConfig, OsTrials,
    };
    pub use mpmb_serve::{advance_local, Answer, Job, Method, Outcome};
}

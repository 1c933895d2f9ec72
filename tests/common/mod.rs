//! Helpers shared by the integration tests: whole methods run through
//! the method table's one local entry point, `advance_local`.

#![allow(dead_code)]

use mpmb::prelude::*;

/// Runs `job` to completion on `threads` workers.
pub fn run(g: &UncertainBipartiteGraph, job: &Job, threads: usize) -> Answer {
    let progress = advance_local(g, job, None, threads, &Cancel::never())
        .unwrap_or_else(|e| panic!("{} failed: {e}", job.method));
    match progress.outcome {
        Outcome::Done(answer) => answer,
        Outcome::Incomplete(s) => panic!("an uncancelled run stopped in `{}`", s.kind()),
    }
}

/// A method that ranks butterflies (`os`, `mcvp`, `ols`, `ols-kl`), run
/// on one thread: `trials` trials (per candidate for `ols-kl`) after
/// `prep` preparing trials (OLS only).
pub fn solve(
    g: &UncertainBipartiteGraph,
    method: Method,
    trials: u64,
    prep: u64,
    seed: u64,
) -> Distribution {
    match run(g, &Job::new(method, trials, prep, seed), 1) {
        Answer::Distribution(d) => d,
        other => panic!("{method} answered {other:?}"),
    }
}

/// `trials` Ordering Sampling trials as one sequential run of the bare
/// engine on an [`Executor`]: a reference computed without the method
/// table, for checking what the table (or a server) answers.
pub fn os_engine(g: &UncertainBipartiteGraph, trials: u64, seed: u64) -> Distribution {
    let cfg = OsConfig {
        seed,
        ..Default::default()
    };
    Executor::new(1)
        .run(&OsTrials::new(g, &cfg), trials, &Cancel::never())
        .acc
        .into_distribution()
}

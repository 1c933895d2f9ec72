//! Answer bytes pinned across commits.
//!
//! Every other identity test compares two runs of one build (threads 1
//! vs N, sliced vs unsliced, cluster vs single node), so a change to the
//! ChaCha8 word stream or to a float fold order would pass all of them.
//! This file pins the answers themselves: each case renders a method's
//! full result at bit precision (every `P(B)` as its `f64` bits, every
//! moment and histogram row) and compares a digest of that rendering
//! plus its leading row against values recorded in this file.
//!
//! Provenance: every pinned value below was captured from commit
//! `b11c807` — the scalar one-block ChaCha8 refill, the sorted-merge
//! fast-tier intersection, the whole-graph `LazyEdgeSampler` memo in the
//! OLS estimator and the per-engine middle-side scan — before any of
//! those kernels was rewritten. The rewrites must reproduce them exactly.
//! The `protein-0.002/*` and `movielens-0.10/os` rows were captured
//! from commit `d2defba`, before the Ordering Sampling scan gained its
//! scan-aligned endpoints, partner-head prune and direct-indexed angle
//! slots (DESIGN.md §6.5).
//!
//! If a change is *meant* to alter answers (a new RNG stream, a new fold
//! order), re-capture the table with
//! `cargo test --test golden_answers -- --ignored --nocapture print_` and
//! say so in the change log; never re-capture to make a kernel rewrite
//! pass.

use datasets::Dataset;
use mpmb::prelude::*;
use mpmb_serve::{advance_local, Answer, Job, Method, Outcome};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// FNV-1a over the rendered bytes: a stable digest with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `rows` digest + row count + first row: exact, yet readable on failure.
fn summarize(rows: &[String]) -> String {
    let joined = rows.join("\n");
    format!(
        "rows={} fnv={:016x} first=[{}]",
        rows.len(),
        fnv1a(joined.as_bytes()),
        rows.first().map(String::as_str).unwrap_or("")
    )
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn graphs() -> [(&'static str, UncertainBipartiteGraph); 2] {
    [
        ("abide-0.05", Dataset::Abide.generate(0.05, 7)),
        ("movielens-0.02", Dataset::MovieLens.generate(0.02, 7)),
    ]
}

/// Trials per method: enough to cross many keystream blocks and trial
/// chunks, small enough for a debug build.
fn trials(method: &str, graph: &str) -> u64 {
    match (method, graph) {
        ("mcvp", "movielens-0.02") => 60,
        ("mcvp", _) => 400,
        ("os", "protein-0.002") => 300,
        ("fast", _) => 5_000,
        _ => 1_500,
    }
}

const SEED: u64 = 7;
const PREP: u64 = 20;

/// Runs `job` to completion through the method table's local entry.
fn answer(g: &UncertainBipartiteGraph, job: &Job, threads: usize) -> Answer {
    let p = advance_local(g, job, None, threads, &mpmb_core::Cancel::never()).unwrap();
    let Outcome::Done(answer) = p.outcome else {
        panic!("{} did not complete", job.method)
    };
    answer
}

fn render_solve(
    g: &UncertainBipartiteGraph,
    method: Method,
    trials: u64,
    threads: usize,
) -> String {
    let job = Job::new(method, trials, PREP, SEED);
    let Answer::Distribution(d) = answer(g, &job, threads) else {
        panic!("{method} did not rank")
    };
    let rows: Vec<String> = d
        .sorted()
        .into_iter()
        .map(|(b, p)| format!("{b} {}", bits(p)))
        .collect();
    summarize(&rows)
}

fn render_fast(g: &UncertainBipartiteGraph, trials: u64, threads: usize) -> String {
    let job = Job {
        delta: 0.05,
        ..Job::new(Method::Fast, trials, 0, SEED)
    };
    let Answer::Fast(e) = answer(g, &job, threads) else {
        panic!("fast did not estimate")
    };
    format!(
        "est={} var={} ci=[{},{}] rel={} n={}",
        bits(e.estimate),
        bits(e.variance),
        bits(e.ci_low),
        bits(e.ci_high),
        bits(e.relative_error),
        e.trials
    )
}

fn render_count(g: &UncertainBipartiteGraph, trials: u64, threads: usize) -> String {
    let job = Job::new(Method::Count, trials, 0, SEED);
    let Answer::Count(d) = answer(g, &job, threads) else {
        panic!("count did not count")
    };
    let mut hist: Vec<(u64, u64)> = d.histogram.iter().map(|(&k, &v)| (k, v)).collect();
    hist.sort_unstable();
    let mut rows = vec![format!(
        "mean={} var={} n={}",
        bits(d.mean),
        bits(d.variance),
        d.trials
    )];
    rows.extend(hist.iter().map(|(k, v)| format!("{k}:{v}")));
    summarize(&rows)
}

fn render_query(g: &UncertainBipartiteGraph, trials: u64) -> String {
    // The least likely of OLS-KL's ranked candidates: a fixed,
    // graph-determined target that heavier butterflies can beat, so the
    // conditioned trials draw real randomness.
    let job = Job::new(Method::OlsKl, 200, PREP, SEED);
    let Answer::Distribution(d) = answer(g, &job, 1) else {
        panic!("ols-kl did not rank")
    };
    let (b, _) = *d.sorted().last().expect("graph has butterflies");
    let job = Job {
        butterfly: Some(b),
        ..Job::new(Method::Query, trials, 0, SEED)
    };
    let Answer::Query(q) = answer(g, &job, 1) else {
        panic!("query did not estimate")
    };
    format!(
        "{b} exist={} cond={} p={} n={}",
        bits(q.existence_prob),
        bits(q.conditional_max_prob),
        bits(q.prob),
        q.trials
    )
}

/// Every `(case, rendering)` pair, in table order.
fn render_all(threads: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, g) in graphs() {
        for method in [Method::Os, Method::McVp, Method::Ols, Method::OlsKl] {
            let r = render_solve(&g, method, trials(method.name(), name), threads);
            out.push((format!("{name}/{method}"), r));
        }
        out.push((
            format!("{name}/fast"),
            render_fast(&g, trials("fast", name), threads),
        ));
        out.push((
            format!("{name}/count"),
            render_count(&g, trials("count", name), threads),
        ));
        out.push((
            format!("{name}/query"),
            render_query(&g, trials("query", name)),
        ));
    }
    // Both `SlotTable` index paths on the fixtures the serving
    // benchmark runs: Protein 0.002 (374 × 374, 78,944 edges) keys its
    // endpoint pairs through the hash; MovieLens 0.10 (61-vertex
    // endpoint side) through the direct triangular index, at the
    // `os-open` request shape of 1,000 os trials.
    let protein = Dataset::Protein.generate(0.002, 7);
    for method in [Method::Os, Method::Ols] {
        let r = render_solve(
            &protein,
            method,
            trials(method.name(), "protein-0.002"),
            threads,
        );
        out.push((format!("protein-0.002/{method}"), r));
    }
    let movielens = Dataset::MovieLens.generate(0.10, 7);
    out.push((
        "movielens-0.10/os".to_string(),
        render_solve(&movielens, Method::Os, 1_000, threads),
    ));
    out
}

const GOLDEN: &[(&str, &str)] = &[
    ("abide-0.05/os", "rows=56 fnv=6857ce58cfc4a471 first=[B(u6,u10,v3,v9) 3fcba5e353f7ced9]"),
    ("abide-0.05/mcvp", "rows=34 fnv=010966bfd521df40 first=[B(u6,u10,v3,v9) 3fcb333333333333]"),
    ("abide-0.05/ols", "rows=10 fnv=f1cd8bb25a74b79c first=[B(u6,u10,v3,v9) 3fcb645a1cac0831]"),
    ("abide-0.05/ols-kl", "rows=10 fnv=1d56a0f94e488784 first=[B(u6,u10,v3,v9) 3fcd398650f024fc]"),
    ("abide-0.05/fast", "est=409dc50be337dba6 var=40f26f8685b009a1 ci=[409d7f8733e24aa8,409e0a90928d6ca4] rel=3f82ae7e8671490b n=5000"),
    ("abide-0.05/count", "rows=871 fnv=7918435f8f7c897f first=[mean=409ddbf04c756b2e var=40fc74ff47f5a9ed n=1500]"),
    ("abide-0.05/query", "B(u5,u8,v4,v6) exist=3fc817fe66f17722 cond=3fbaf72015d867c4 p=3f944d900fbfde96 n=1500"),
    ("movielens-0.02/os", "rows=41 fnv=7d5ab7578d3247d8 first=[B(u4,u8,v54,v143) 3fd94237fa89e60f]"),
    ("movielens-0.02/mcvp", "rows=38 fnv=47fcbb1d84941db3 first=[B(u1,u6,v12,v127) 3fdaaaaaaaaaaaab]"),
    ("movielens-0.02/ols", "rows=26 fnv=33041304c042a2f3 first=[B(u4,u8,v54,v143) 3fd999999999999a]"),
    ("movielens-0.02/ols-kl", "rows=26 fnv=cf35766c40ee16e6 first=[B(u4,u8,v54,v143) 3fda955555555556]"),
    ("movielens-0.02/fast", "est=41194f5fa0540649 var=41f0bab8d420941a ci=[41190d267f1e948d,41199198c1897805] rel=3f84ee8b5260fb29 n=5000"),
    ("movielens-0.02/count", "rows=1481 fnv=b1a7e5f2f7cb0185 first=[mean=41195766e81b4e82 var=41a8313ddb276dd0 n=1500]"),
    ("movielens-0.02/query", "B(u6,u7,v34,v95) exist=3fd74c91ad76c828 cond=3f99f0fb38a94d24 p=3f82e346fdf1b353 n=1500"),
    ("protein-0.002/os", "rows=1240 fnv=ba45749c400df382 first=[B(u55,u121,v102,v200) 3fdc962fc962fc96]"),
    ("protein-0.002/ols", "rows=769 fnv=51ca752bcebb21ed first=[B(u55,u121,v102,v200) 3fdb596de8ca11c0]"),
    ("movielens-0.10/os", "rows=43 fnv=a0ba99eb8fce337d first=[B(u16,u32,v64,v137) 3fd010624dd2f1aa]"),
];

fn check_against_golden(threads: usize) {
    let got = render_all(threads);
    let mut report = String::new();
    for (case, rendered) in &got {
        match GOLDEN.iter().find(|(c, _)| c == case) {
            Some((_, want)) if want == rendered => {}
            Some((_, want)) => {
                let _ = writeln!(report, "{case}:\n  want {want}\n  got  {rendered}");
            }
            None => {
                let _ = writeln!(report, "{case}: no pinned value");
            }
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "case list changed");
    assert!(
        report.is_empty(),
        "answers moved at threads={threads}:\n{report}"
    );
}

#[test]
fn answers_match_pinned_bytes_at_one_thread() {
    check_against_golden(1);
}

#[test]
fn answers_match_pinned_bytes_at_three_threads() {
    check_against_golden(3);
}

/// Prints the current rendering in `GOLDEN` syntax (for deliberate,
/// documented re-captures only).
#[test]
#[ignore]
fn print_rendered() {
    for (case, rendered) in render_all(1) {
        println!("    (\"{case}\", \"{rendered}\"),");
    }
}

fn first_words(seed: u64) -> Vec<u32> {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    (0..40).map(|_| r.next_u32()).collect()
}

const CHACHA8_SEED0: [u32; 40] = [
    0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f, 0x17c6ab23,
    0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd, 0x28e5a01f, 0x95d53efa,
    0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1, 0xe553e127, 0x3505e613, 0xb9d551f1,
    0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba, 0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d,
    0x1bfcd6d6, 0x5a512cb9, 0x44766985, 0x029e3799, 0x3c8b61fe, 0xca6410bd, 0xbfdc08ce, 0xa2c1439d,
];

const CHACHA8_SEED42: [u32; 40] = [
    0x87c91afc, 0x31159ef9, 0xb4169001, 0x17559844, 0x9ad9a69f, 0xf7d0afbf, 0xfd37495a, 0xb9207ad5,
    0x61329c11, 0x072db0db, 0xeca26593, 0x4051bc3b, 0xcc4703b6, 0xbfaab970, 0x8f89d223, 0xaff5425d,
    0x6b947e05, 0xf6875512, 0x953f9601, 0x26706e48, 0x6a9f2b2f, 0x54ff14b5, 0x150e06ce, 0x9cf9c5f7,
    0x8e1d738c, 0xe3507e34, 0x4c28e1a6, 0xc89c0205, 0x38520378, 0xb51fdc8f, 0xb1c896b5, 0x6384b6fe,
    0x13e28956, 0xa1d6606a, 0xc62320de, 0x009499f6, 0xeecf5513, 0x66e879a9, 0x49ee5d3a, 0xc96ff513,
];

#[test]
fn chacha8_known_answer_words() {
    assert_eq!(first_words(0), CHACHA8_SEED0);
    assert_eq!(first_words(42), CHACHA8_SEED42);
}

#[test]
#[ignore]
fn print_chacha8_words() {
    for seed in [0, 42] {
        println!("seed {seed}:");
        for row in first_words(seed).chunks(8) {
            let row: Vec<String> = row.iter().map(|w| format!("0x{w:08x}")).collect();
            println!("    {},", row.join(", "));
        }
    }
}

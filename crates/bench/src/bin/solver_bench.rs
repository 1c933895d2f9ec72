//! `solver_bench` — trial-engine throughput benchmark: every sampler
//! (os, mcvp, ols, ols-kl, fast) through the serving method table's
//! local entry point — the rows `mpmb serve` runs — at several thread
//! counts, as machine-readable JSON.
//!
//! ```text
//! solver_bench [--dataset NAME] [--scale F] [--seed N]
//!              [--threads LIST] [--trials N] [--prep N] [--repeats N]
//!              [--methods LIST] [--container] [--min-load-speedup F]
//!              [--min-fast-speedup F]
//!
//! --dataset   abide | movielens | jester | protein (default: movielens)
//! --scale     generation scale, 1.0 = Table III size (default: the
//!             laptop-scale default for the dataset)
//! --seed      solver seed (default 42; also the generation seed)
//! --threads   comma-separated thread counts (default 1,4,8)
//! --trials    sampling-phase trials per solver (default 20000)
//! --prep      OLS preparing-phase trials (default 200)
//! --repeats   timing repeats per configuration; min is reported (default 3)
//! --methods   comma-separated subset of os,mcvp,ols,ols-kl,fast
//!             (default all)
//! --container round-trip the graph through a `UBGCONT1` container,
//!             bench against the attached copy, and report container
//!             attach vs text re-parse load timings
//! --min-load-speedup  with --container: exit non-zero unless attach
//!             beats text re-parse by at least this factor (default 0,
//!             no gate; perf-smoke passes 10)
//! --min-fast-speedup  exit non-zero unless the sequential fast tier
//!             beats sequential os by at least this factor at the same
//!             trial budget — and, per the Chebyshev bound both share,
//!             at the same certified relative error. Requires both os
//!             and fast in --methods (default 0, no gate; perf-smoke
//!             passes 10)
//! ```
//!
//! Every parallel run is checked against the sequential answer
//! (`identical` in the output) — the contract is that thread count
//! never changes a byte of the answer, so a "speedup" that fails
//! the check would be a correctness bug, not a win. Any mismatch makes
//! the process exit non-zero.

use bench::default_scale;
use datasets::Dataset;
use mpmb_core::{Distribution, FastEstimate};
use mpmb_serve::{advance_local, Answer, Cancel, Job, Method, Outcome};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    dataset: Dataset,
    scale: Option<f64>,
    seed: u64,
    threads: Vec<usize>,
    trials: u64,
    prep: u64,
    repeats: u32,
    methods: Vec<Method>,
    container: bool,
    min_load_speedup: f64,
    min_fast_speedup: f64,
}

const HELP: &str =
    "solver_bench [--dataset abide|movielens|jester|protein] [--scale F] [--seed N] \
[--threads LIST] [--trials N] [--prep N] [--repeats N] [--methods LIST] \
[--container] [--min-load-speedup F] [--min-fast-speedup F]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dataset: Dataset::MovieLens,
        scale: None,
        seed: 42,
        threads: vec![1, 4, 8],
        trials: 20_000,
        prep: 200,
        repeats: 3,
        methods: METHODS.to_vec(),
        container: false,
        min_load_speedup: 0.0,
        min_fast_speedup: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--dataset" => {
                let name = value("--dataset")?;
                args.dataset = match name.to_ascii_lowercase().as_str() {
                    "abide" => Dataset::Abide,
                    "movielens" => Dataset::MovieLens,
                    "jester" => Dataset::Jester,
                    "protein" => Dataset::Protein,
                    other => return Err(format!("unknown dataset `{other}`")),
                };
            }
            "--scale" => {
                args.scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("--threads: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.threads.is_empty() {
                    return Err("--threads needs at least one count".into());
                }
            }
            "--trials" => {
                args.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
                if args.trials == 0 {
                    return Err("--trials must be at least 1".into());
                }
            }
            "--prep" => {
                args.prep = value("--prep")?
                    .parse()
                    .map_err(|e| format!("--prep: {e}"))?
            }
            "--repeats" => {
                args.repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if args.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--methods" => {
                args.methods = value("--methods")?
                    .split(',')
                    .map(|m| {
                        METHODS
                            .into_iter()
                            .find(|k| k.name() == m.trim())
                            .ok_or_else(|| format!("--methods: unknown method `{m}`"))
                    })
                    .collect::<Result<_, _>>()?;
                if args.methods.is_empty() {
                    return Err("--methods needs at least one method".into());
                }
            }
            "--container" => args.container = true,
            "--min-fast-speedup" => {
                args.min_fast_speedup = value("--min-fast-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-fast-speedup: {e}"))?;
                if args.min_fast_speedup < 0.0 {
                    return Err("--min-fast-speedup must be non-negative".into());
                }
            }
            "--min-load-speedup" => {
                args.min_load_speedup = value("--min-load-speedup")?
                    .parse()
                    .map_err(|e| format!("--min-load-speedup: {e}"))?;
                if args.min_load_speedup < 0.0 {
                    return Err("--min-load-speedup must be non-negative".into());
                }
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.min_load_speedup > 0.0 && !args.container {
        return Err("--min-load-speedup requires --container".into());
    }
    if args.min_fast_speedup > 0.0
        && !(args.methods.contains(&Method::Os) && args.methods.contains(&Method::Fast))
    {
        return Err("--min-fast-speedup requires both os and fast in --methods".into());
    }
    Ok(args)
}

/// The benchmarked rows: the solve methods of the serving table.
const METHODS: [Method; 5] = [
    Method::Os,
    Method::McVp,
    Method::Ols,
    Method::OlsKl,
    Method::Fast,
];

/// What a pass produced: the full sampling distribution for the exact
/// tiers, or the certified estimate for the sublinear fast tier. Either
/// way the identity check is bit-exact — thread count must never change
/// a byte of the answer.
enum BenchResult {
    Dist(Distribution),
    Fast(FastEstimate),
}

/// One pass on `threads` workers; returns the result and the trials the
/// table reports for the trials/sec figure (OLS counts preparing too).
fn run_method(
    g: &bigraph::UncertainBipartiteGraph,
    method: Method,
    args: &Args,
    threads: usize,
) -> (BenchResult, u64) {
    let job = Job::new(method, args.trials, args.prep, args.seed);
    let progress = advance_local(g, &job, None, threads, &Cancel::never())
        .unwrap_or_else(|e| panic!("{method}: {e}"));
    let result = match progress.outcome {
        Outcome::Done(Answer::Distribution(d)) => BenchResult::Dist(d),
        Outcome::Done(Answer::Fast(est)) => BenchResult::Fast(est),
        Outcome::Done(other) => unreachable!("{method} answered {other:?}"),
        Outcome::Incomplete(_) => unreachable!("an uncancelled run completes"),
    };
    (result, progress.trials_done)
}

/// Minimum wall-clock seconds over `repeats` runs, plus the last result.
fn time_min<F: FnMut() -> (BenchResult, u64)>(repeats: u32, mut f: F) -> (f64, BenchResult, u64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    let (dist, trials) = last.expect("repeats >= 1");
    (best, dist, trials)
}

/// Bit-exact result equality: same support and zero maximum deviation
/// for distributions, identical bits across all certified fields for a
/// fast estimate.
fn identical(a: &BenchResult, b: &BenchResult) -> bool {
    match (a, b) {
        (BenchResult::Dist(a), BenchResult::Dist(b)) => {
            a.len() == b.len() && a.max_abs_diff(b) == 0.0
        }
        (BenchResult::Fast(a), BenchResult::Fast(b)) => {
            a.estimate.to_bits() == b.estimate.to_bits()
                && a.variance.to_bits() == b.variance.to_bits()
                && a.ci_low.to_bits() == b.ci_low.to_bits()
                && a.ci_high.to_bits() == b.ci_high.to_bits()
        }
        _ => false,
    }
}

/// One untimed sequential run under an [`obs::Profile`], returning the
/// phase breakdown as a JSON object string. Kept out of the timed loops
/// so observability never skews the reported throughput (it would not
/// change the results — instrumented runs are bit-identical).
fn profile_phases(g: &bigraph::UncertainBipartiteGraph, method: Method, args: &Args) -> String {
    let profile = Arc::new(obs::Profile::new());
    {
        let _guard = obs::install(obs::ObsCtx {
            profile: Some(Arc::clone(&profile)),
            ..Default::default()
        });
        let _ = run_method(g, method, args, 1);
    }
    let entries: Vec<String> = profile
        .snapshot()
        .iter()
        .map(|p| {
            format!(
                "\"{}\": {{\"secs\": {:.6}, \"items\": {}, \"calls\": {}}}",
                p.name, p.secs, p.items, p.calls
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{HELP}");
            std::process::exit(2);
        }
    };

    let scale = args.scale.unwrap_or_else(|| default_scale(args.dataset));
    let generated = args.dataset.generate(scale, args.seed);
    // In container mode every method runs against the *attached* copy,
    // so a storage-layer drift would surface as an answer divergence.
    let (g, load) = if args.container {
        let (attached, cmp) = bench::loadpath::compare_load_paths(&generated, args.repeats);
        (attached, Some(cmp))
    } else {
        (generated, None)
    };

    let mut methods_json = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    let mut seq_secs_of: Vec<(Method, f64)> = Vec::new();
    for &method in &args.methods {
        let (seq_secs, seq_dist, seq_trials) =
            time_min(args.repeats, || run_method(&g, method, &args, 1));
        seq_secs_of.push((method, seq_secs));
        let mut runs = Vec::new();
        for &threads in &args.threads {
            let (secs, dist, trials) =
                time_min(args.repeats, || run_method(&g, method, &args, threads));
            let same = identical(&seq_dist, &dist);
            if !same {
                mismatches.push(format!("{} @ {threads} threads", method.name()));
            }
            runs.push(format!(
                "      {{\"threads\": {}, \"secs\": {:.6}, \"trials_per_sec\": {:.1}, \
                 \"speedup\": {:.3}, \"identical\": {}}}",
                threads,
                secs,
                trials as f64 / secs,
                seq_secs / secs,
                same
            ));
        }
        let phases = profile_phases(&g, method, &args);
        methods_json.push(format!(
            "    {{\n      \"method\": \"{}\",\n      \"trials\": {},\n      \
             \"sequential\": {{\"secs\": {:.6}, \"trials_per_sec\": {:.1}}},\n      \
             \"phases\": {},\n      \
             \"runs\": [\n{}\n      ]\n    }}",
            method.name(),
            seq_trials,
            seq_secs,
            seq_trials as f64 / seq_secs,
            phases,
            runs.join(",\n")
        ));
    }

    println!("{{");
    println!("  \"phase\": \"solvers\",");
    println!("  \"dataset\": \"{}\",", args.dataset.name());
    println!("  \"scale\": {scale},");
    println!("  \"seed\": {},", args.seed);
    println!(
        "  \"graph\": {{\"left\": {}, \"right\": {}, \"edges\": {}}},",
        g.num_left(),
        g.num_right(),
        g.num_edges()
    );
    if let Some(cmp) = &load {
        println!("  \"load\": {},", cmp.to_json());
    }
    println!("  \"methods\": [");
    println!("{}", methods_json.join(",\n"));
    println!("  ]");
    println!("}}");

    // Identity is the contract: a parallel run that disagrees with the
    // sequential answer is a correctness bug, and the process must say
    // so in its exit code, not just in a JSON field.
    if !mismatches.is_empty() {
        eprintln!(
            "error: parallel runs diverged from the sequential answer: {}",
            mismatches.join(", ")
        );
        std::process::exit(1);
    }

    if let Some(cmp) = &load {
        if args.min_load_speedup > 0.0 && cmp.speedup < args.min_load_speedup {
            eprintln!(
                "error: container attach only {:.1}x faster than text re-parse (need {:.1}x)",
                cmp.speedup, args.min_load_speedup
            );
            std::process::exit(1);
        }
    }

    // The sublinear tier's reason to exist: at the same trial budget
    // (hence the same Chebyshev-certified relative error) sequential
    // fast must beat sequential os by the gated factor, or serving it
    // as a deadline tier would be pointless.
    if args.min_fast_speedup > 0.0 {
        let secs = |m| seq_secs_of.iter().find(|(k, _)| *k == m).map(|(_, s)| *s);
        let (os, fast) = (secs(Method::Os).unwrap(), secs(Method::Fast).unwrap());
        let speedup = os / fast;
        eprintln!(
            "fast tier: {fast:.6}s vs sequential os {os:.6}s ({speedup:.1}x, need {:.1}x)",
            args.min_fast_speedup
        );
        if speedup < args.min_fast_speedup {
            eprintln!(
                "error: fast tier only {speedup:.1}x faster than sequential os (need {:.1}x)",
                args.min_fast_speedup
            );
            std::process::exit(1);
        }
    }
}

//! `mpmb` — command-line MPMB search over edge-list files.
//!
//! ```text
//! mpmb solve    --input G.tsv [--method os|mcvp|ols|ols-kl|fast] [--trials N]
//!               [--prep N] [--seed N] [--delta F] [--top-k K]
//!               [--diverse MAX_SHARED] [--threads N] [--progress EVERY]
//!               [--trace-json FILE] [--profile] [--mem-stats]
//! mpmb exact    --input G.tsv [--max-uncertain N] [--top-k K]
//! mpmb query    --input G.tsv --u1 A --u2 B --v1 C --v2 D [--trials N] [--seed N]
//! mpmb count    --input G.tsv [--method exact|fast] [--trials N] [--seed N]
//!               [--delta F] [--threads N] [--mem-stats]
//! mpmb stats    --input G.tsv
//! mpmb generate --dataset abide|movielens|jester|protein --scale F
//!               [--seed N] [--output FILE]
//! mpmb convert  --input G.tsv --output G.ubgc
//! mpmb serve    [--listen ADDR] [--threads N] [--queue N] [--timeout-ms N]
//!               [--cache-capacity N] [--max-solver-threads N]
//!               [--mem-budget BYTES[k|m|g]]
//!               [--trace off|stderr|FILE] [--trace-max-bytes N]
//!               [--trace-ring N] [--budget-header] [--graph NAME=SPEC]...
//!               [--checkpoint-dir DIR] [--checkpoint-every-ms N]
//!               [--fault-plan SPEC]
//!               [--role single|coordinator|worker] [--workers ADDR,...]
//!               [--probe-interval-ms N] [--fast-escalate]
//! ```
//!
//! Edge-list format: `LEFT RIGHT WEIGHT PROB` per line (tabs or spaces),
//! `#` comments allowed. Graph SPECs for `serve` are file paths or
//! `dataset:NAME[:scale[:seed]]` (see docs/SERVING.md). Observability
//! flags are documented in docs/OBSERVABILITY.md.

use datasets::Dataset;
use mpmb::prelude::*;
use mpmb_core::{top_k_diverse, Distribution};
use mpmb_serve::{advance_local, Answer, Cancel, Job, Method, Outcome};
use std::process::exit;
use std::sync::Arc;

/// Counting allocator so `--mem-stats` (and the `mpmb_peak_rss_bytes`
/// gauge of `mpmb serve`) report real peak allocations.
#[global_allocator]
static ALLOC: memtrack::CountingAllocator = memtrack::CountingAllocator;

const USAGE: &str = "usage: mpmb <subcommand> [--flag value]...

subcommands:
  solve     estimate the MPMB of an edge-list graph
            --input FILE  [--method os|mcvp|ols|ols-kl|fast] [--trials N]
            [--prep N] [--seed N] [--delta F] [--top-k K]
            [--diverse MAX_SHARED] [--threads N]
            [--progress EVERY] [--trace-json FILE] [--profile] [--mem-stats]
            (--method fast prints a sublinear estimate of the expected
            butterfly count with a certified (1-delta) confidence
            interval instead of a butterfly ranking; --delta defaults
            to 0.05 and only applies to fast.
            --threads applies to every method; results are identical at
            any thread count, with or without any of the flags below.
            --progress prints trials/sec and the running MPMB estimate to
            stderr every EVERY trials and works with every method at any
            thread count. --trace-json appends JSON-lines span traces to
            FILE; --profile prints a phase breakdown table to stderr;
            --mem-stats prints the solve's peak allocation to stderr)
  exact     exact distribution by possible-world enumeration
            --input FILE  [--max-uncertain N] [--top-k K]
  query     conditioned P(B) estimate for one butterfly
            --input FILE  --u1 A --u2 B --v1 C --v2 D  [--trials N] [--seed N]
  count     butterfly-count distribution over possible worlds
            --input FILE  [--method exact|fast] [--trials N] [--seed N]
            [--delta F] [--threads N] [--mem-stats]
            (--method fast skips the per-world exact counts and prints
            a sublinear estimate with a (1-delta) confidence interval)
  stats     structural statistics of a graph
            --input FILE
  generate  synthetic Table III stand-in datasets
            --dataset abide|movielens|jester|protein  [--scale F] [--seed N]
            [--output FILE]
            (a `.ubgc` output writes the graph container, see
            docs/STORAGE.md)
  convert   re-encode a graph into the on-disk container format
            --input FILE  --output FILE.ubgc
            (the container attaches without a parse step: `mpmb serve`
            streams its sections into the graph on first use and can
            evict/reload the graph under --mem-budget; see
            docs/STORAGE.md)
  serve     long-running HTTP query daemon (see docs/SERVING.md)
            [--listen ADDR] [--threads N] [--queue N] [--timeout-ms N]
            [--cache-capacity N] [--max-solver-threads N]
            [--mem-budget BYTES[k|m|g]]
            [--trace off|stderr|FILE] [--trace-max-bytes N]
            [--trace-ring N] [--budget-header] [--graph NAME=SPEC]...
            [--checkpoint-dir DIR] [--checkpoint-every-ms N]
            [--fault-plan SPEC]
            [--role single|coordinator|worker] [--workers ADDR,...]
            [--probe-interval-ms N] [--fast-escalate]
            (--fast-escalate makes a completed method=fast answer whose
            CI misses the requested relative error seed the exact os
            partial in the result cache, so a method=os retry refines
            toward the exact answer instead of starting at trial zero.
            --trace-max-bytes rotates a --trace FILE at N bytes,
            keeping one prior generation as FILE.1.
            --trace-ring sets how many solve summaries GET /debug/trace
            retains (default 64, must be at least 1).
            --budget-header adds an X-Mpmb-Budget response header with
            the per-bucket deadline spend of each solve-like request.
            --mem-budget bounds resident graph bytes: when exceeded,
            cold container-backed graphs are evicted and re-materialize
            on next use, bit-identically. 0 = unlimited.
            --checkpoint-dir makes the registry and resumable partial
            results durable: a restarted server restores them and
            re-issued requests resume instead of recomputing.
            --fault-plan injects deterministic faults for resilience
            testing, e.g. `seed=7,reset=0.1,slow=0.05,panic_at=3`.
            --role coordinator scatters each solve across --workers
            (repeatable or comma-separated) and returns byte-identical
            answers at any worker count; see docs/CLUSTER.md)

Edge-list format: `LEFT RIGHT WEIGHT PROB` per line, `#` comments allowed.
`--help` anywhere prints this text.";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `mpmb --help` for usage");
    exit(2)
}

/// Flags that are on/off switches: the value may be omitted
/// (`--profile` reads as `--profile true`).
const BOOL_FLAGS: &[&str] = &["profile", "mem-stats", "budget-header", "fast-escalate"];

/// Minimal flag parser: `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut pairs = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                fail(&format!("unexpected argument `{a}`"));
            };
            if BOOL_FLAGS.contains(&name) {
                let value = match it.peek().map(|s| s.as_str()) {
                    Some("true") | Some("false") => it.next().unwrap().clone(),
                    _ => "true".to_string(),
                };
                pairs.push((name.to_string(), value));
                continue;
            }
            let Some(value) = it.next() else {
                fail(&format!("--{name} requires a value"));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Flags(pairs)
    }

    /// Rejects flags outside `allowed`, reporting every unknown flag at
    /// once instead of dying on the first.
    fn expect(&self, allowed: &[&str]) {
        let unknown: Vec<String> = self
            .0
            .iter()
            .filter(|(n, _)| !allowed.contains(&n.as_str()))
            .map(|(n, _)| format!("--{n}"))
            .collect();
        if !unknown.is_empty() {
            fail(&format!(
                "unknown flag{} {} (allowed: {})",
                if unknown.len() > 1 { "s" } else { "" },
                unknown.join(", "),
                allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable flag, in order (e.g. `--graph`).
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("cannot parse --{name} value `{v}`"))),
        }
    }
}

/// Parses a `--mem-budget` value: raw bytes, or with a binary
/// `k`/`m`/`g` suffix (case-insensitive). `0` disables the budget.
fn parse_mem_budget(v: &str) -> u64 {
    let (digits, mult) = match v.trim().to_ascii_lowercase() {
        s if s.ends_with('k') => (s[..s.len() - 1].to_string(), 1u64 << 10),
        s if s.ends_with('m') => (s[..s.len() - 1].to_string(), 1u64 << 20),
        s if s.ends_with('g') => (s[..s.len() - 1].to_string(), 1u64 << 30),
        s => (s, 1),
    };
    let n: u64 = digits
        .parse()
        .unwrap_or_else(|_| fail(&format!("cannot parse --mem-budget value `{v}`")));
    n.checked_mul(mult)
        .unwrap_or_else(|| fail(&format!("--mem-budget value `{v}` overflows")))
}

fn load(flags: &Flags) -> UncertainBipartiteGraph {
    let path = flags
        .get("input")
        .unwrap_or_else(|| fail("--input is required"));
    // Dispatches on the container magic, so both .tsv and .ubgc files work.
    bigraph::io::read_auto(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn print_ranking(
    g: &UncertainBipartiteGraph,
    dist: &Distribution,
    k: usize,
    diverse: Option<usize>,
) {
    let ranking = match diverse {
        Some(max_shared) => top_k_diverse(dist, k, max_shared),
        None => dist.top_k(k),
    };
    if ranking.is_empty() {
        println!("no butterflies found");
        return;
    }
    println!("rank\tbutterfly\tweight\tPr[E(B)]\tP(B)");
    for (i, (b, p)) in ranking.iter().enumerate() {
        println!(
            "{}\t{b}\t{}\t{:.6}\t{:.6}",
            i + 1,
            b.weight(g).unwrap_or(f64::NAN),
            b.existence_prob(g).unwrap_or(f64::NAN),
            p
        );
    }
}

/// Runs `job` on this node through the method table's one local entry
/// point, the same driver the server runs. With `progress`, the run is
/// sliced every EVERY trials and a progress line (with the running
/// leader, for methods that rank butterflies) goes to stderr between
/// slices; the answer is bit-identical to an unsliced run at any thread
/// count. With `mem_stats`, the run's peak allocation goes to stderr.
fn run_job(
    g: &UncertainBipartiteGraph,
    job: &Job,
    threads: usize,
    progress: Option<u64>,
    mem_stats: bool,
) -> Result<Answer, String> {
    memtrack::reset_peak();
    let started = std::time::Instant::now();
    let mut state = None;
    let answer = loop {
        let cancel = match progress {
            Some(every) => Cancel::after_trials(every),
            None => Cancel::never(),
        };
        let p = advance_local(g, job, state.take(), threads, &cancel)?;
        match p.outcome {
            Outcome::Done(answer) => break answer,
            Outcome::Incomplete(s) => {
                let rate = p.trials_done as f64 / started.elapsed().as_secs_f64().max(1e-9);
                let leader = match s.leader() {
                    Some((b, est)) => format!(", leader {b} p~{est:.6}"),
                    None if job.method == Method::Fast => String::new(),
                    None => ", no leader yet".to_string(),
                };
                eprintln!(
                    "progress: {}/{} trials ({}), {rate:.0} trials/sec{leader}",
                    p.trials_done,
                    p.trials_requested,
                    s.kind()
                );
                state = Some(s);
            }
        }
    };
    if mem_stats {
        let peak = memtrack::peak_bytes();
        eprintln!(
            "peak allocation: {peak} bytes ({:.1} MiB)",
            peak as f64 / (1024.0 * 1024.0)
        );
    }
    Ok(answer)
}

/// A trial-count flag (`--trials`, `--prep`): zero is a usage error,
/// as the server's 400 for it is.
fn count_flag(flags: &Flags, name: &str, default: u64) -> u64 {
    let n: u64 = flags.get_parsed(name, default);
    if n == 0 {
        fail(&format!("--{name} must be positive"));
    }
    n
}

/// `--delta`: the fast tier's certified-interval miss probability.
fn delta_flag(flags: &Flags) -> f64 {
    let delta: f64 = flags.get_parsed("delta", 0.05);
    if !(delta > 0.0 && delta < 1.0) {
        fail("--delta must be in (0, 1)");
    }
    delta
}

fn cmd_solve(flags: &Flags) {
    flags.expect(&[
        "input",
        "method",
        "trials",
        "prep",
        "seed",
        "delta",
        "top-k",
        "diverse",
        "threads",
        "progress",
        "trace-json",
        "profile",
        "mem-stats",
    ]);
    let g = load(flags);
    let method = flags
        .get("method")
        .map_or(Ok(Method::Ols), Method::parse_solve)
        .unwrap_or_else(|e| fail(&e));
    let trials = count_flag(flags, "trials", 20_000);
    let prep: u64 = match method {
        Method::Ols | Method::OlsKl => count_flag(flags, "prep", 100),
        _ => flags.get_parsed("prep", 100),
    };
    let seed: u64 = flags.get_parsed("seed", 42);
    let k: usize = flags.get_parsed("top-k", 1);
    let diverse = flags.get("diverse").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("cannot parse --diverse value `{v}`")))
    });
    let threads: usize = flags.get_parsed("threads", 1);
    let progress: Option<u64> = flags.get("progress").map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("cannot parse --progress value `{v}`")))
    });
    if progress == Some(0) {
        fail("--progress must be at least 1");
    }
    let profile_on: bool = flags.get_parsed("profile", false);
    let mem_stats: bool = flags.get_parsed("mem-stats", false);
    if let Some(path) = flags.get("trace-json") {
        obs::set_sink_file(path)
            .unwrap_or_else(|e| fail(&format!("cannot open --trace-json {path}: {e}")));
    }

    // Observability rides in a thread-local context: solver spans feed
    // the profile (and, with --trace-json, the sink) without touching
    // the trial loop's results — proptests pin bit-identity.
    let profile = Arc::new(obs::Profile::new());
    let _obs_guard = (profile_on || flags.get("trace-json").is_some()).then(|| {
        obs::install(obs::ObsCtx {
            span: Some(obs::SpanContext::root(obs::next_trace_id())),
            profile: Some(Arc::clone(&profile)),
            solver: None,
        })
    });

    // `--delta` shapes the fast tier's certified interval only.
    let mut job = Job::new(method, trials, prep, seed);
    if method == Method::Fast {
        job.delta = delta_flag(flags);
    }
    let started = std::time::Instant::now();
    let answer = run_job(&g, &job, threads, progress, mem_stats).unwrap_or_else(|e| fail(&e));
    let wall = started.elapsed().as_secs_f64();
    match answer {
        Answer::Distribution(dist) => print_ranking(&g, &dist, k, diverse),
        Answer::Fast(est) => {
            println!("expected butterflies ~ {:.6}", est.estimate);
            println!(
                "{:.0}% CI [{:.6}, {:.6}]  relative error {:.4}  ({} trials)",
                100.0 * (1.0 - est.delta),
                est.ci_low,
                est.ci_high,
                est.relative_error,
                est.trials
            );
        }
        other => unreachable!("solve methods rank or estimate, got {other:?}"),
    }
    if profile_on {
        eprintln!("phase profile ({wall:.3}s wall):");
        eprint!("{}", obs::render_table(&profile.snapshot(), wall));
    }
}

fn cmd_exact(flags: &Flags) {
    flags.expect(&["input", "max-uncertain", "top-k"]);
    let g = load(flags);
    let limit: u32 = flags.get_parsed("max-uncertain", 22);
    let k: usize = flags.get_parsed("top-k", 10);
    match mpmb_core::exact_distribution(
        &g,
        ExactConfig {
            max_uncertain_edges: limit,
        },
    ) {
        Ok(dist) => print_ranking(&g, &dist, k, None),
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_query(flags: &Flags) {
    flags.expect(&["input", "u1", "u2", "v1", "v2", "trials", "seed"]);
    let g = load(flags);
    let need = |n: &str| -> u32 {
        flags
            .get(n)
            .unwrap_or_else(|| fail(&format!("--{n} is required")))
            .parse()
            .unwrap_or_else(|_| fail(&format!("cannot parse --{n}")))
    };
    let b = mpmb_core::Butterfly::new(
        Left(need("u1")),
        Left(need("u2")),
        Right(need("v1")),
        Right(need("v2")),
    );
    let trials = count_flag(flags, "trials", 20_000);
    let seed: u64 = flags.get_parsed("seed", 42);
    let job = Job {
        butterfly: Some(b),
        ..Job::new(Method::Query, trials, 0, seed)
    };
    let answer = run_job(&g, &job, 1, None, false)
        .unwrap_or_else(|_| fail(&format!("{b} is not a butterfly of the backbone")));
    let Answer::Query(q) = answer else {
        unreachable!("a query answers with its estimate")
    };
    println!("butterfly {b}: w = {}", b.weight(&g).unwrap());
    println!("Pr[E(B)]              = {:.6} (exact)", q.existence_prob);
    println!(
        "Pr[B maximum | E(B)]  = {:.6} ({} conditioned trials)",
        q.conditional_max_prob, q.trials
    );
    println!("P(B)                  = {:.6}", q.prob);
}

fn cmd_count(flags: &Flags) {
    flags.expect(&[
        "input",
        "method",
        "trials",
        "seed",
        "delta",
        "threads",
        "mem-stats",
    ]);
    let g = load(flags);
    let trials = count_flag(flags, "trials", 5_000);
    let seed: u64 = flags.get_parsed("seed", 42);
    let threads: usize = flags.get_parsed("threads", 1);
    let mem_stats: bool = flags.get_parsed("mem-stats", false);
    let expect = bigraph::expected::expected_butterfly_count(&g);
    let method = flags
        .get("method")
        .map_or(Ok(Method::Count), |name| {
            Method::parse_count(name)
                .map_err(|_| format!("unknown --method `{name}` (expected exact|fast)"))
        })
        .unwrap_or_else(|e| fail(&e));
    // `fast` skips the per-world exact counts and estimates the
    // expected count with a certified confidence interval.
    let mut job = Job::new(method, trials, 0, seed);
    if method == Method::Fast {
        job.delta = delta_flag(flags);
    }
    let answer = run_job(&g, &job, threads, None, mem_stats).unwrap_or_else(|e| fail(&e));
    println!("expected butterflies (closed form) = {expect:.4}");
    match answer {
        Answer::Fast(est) => println!(
            "fast estimate = {:.4}  ({:.0}% CI [{:.4}, {:.4}], relative error {:.4}, {} trials)",
            est.estimate,
            100.0 * (1.0 - est.delta),
            est.ci_low,
            est.ci_high,
            est.relative_error,
            est.trials
        ),
        Answer::Count(d) => {
            println!(
                "sampled mean = {:.4}  variance = {:.4}  ({} trials)",
                d.mean, d.variance, d.trials
            );
            let mut counts: Vec<(u64, u64)> = d.histogram.iter().map(|(&c, &n)| (c, n)).collect();
            counts.sort_unstable();
            println!("count\tfreq");
            for (c, n) in counts.into_iter().take(20) {
                println!("{c}\t{:.4}", n as f64 / d.trials as f64);
            }
        }
        other => unreachable!("count methods answer with counts, got {other:?}"),
    }
}

fn cmd_stats(flags: &Flags) {
    flags.expect(&["input"]);
    let g = load(flags);
    println!("{}", GraphStats::compute(&g));
    println!(
        "backbone angles: left-middles {} / right-middles {}",
        g.backbone_angle_count(Side::Left),
        g.backbone_angle_count(Side::Right)
    );
    println!("top-3 weight sum (w̄): {}", g.top3_weight_sum());
}

fn cmd_generate(flags: &Flags) {
    flags.expect(&["dataset", "scale", "seed", "output"]);
    let name = flags
        .get("dataset")
        .unwrap_or_else(|| fail("--dataset is required"));
    let dataset = Dataset::parse(name).unwrap_or_else(|e| fail(&e));
    let scale: f64 = flags.get_parsed("scale", 0.01);
    let seed: u64 = flags.get_parsed("seed", 42);
    let g = dataset.generate(scale, seed);
    match flags.get("output") {
        // `.ubgc` selects the graph container; anything else is
        // the text edge list.
        Some(path) if path.ends_with(".ubgc") => {
            bigraph::write_container_path(&g, std::path::Path::new(path))
                .unwrap_or_else(|e| fail(&format!("write failed: {e}")));
            eprintln!("wrote {} ({})", path, GraphStats::compute(&g));
        }
        Some(path) => {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
            bigraph::io::write_edge_list(&g, std::io::BufWriter::new(file))
                .unwrap_or_else(|e| fail(&format!("write failed: {e}")));
            eprintln!("wrote {} ({})", path, GraphStats::compute(&g));
        }
        None => {
            let stdout = std::io::stdout();
            bigraph::io::write_edge_list(&g, stdout.lock())
                .unwrap_or_else(|e| fail(&format!("write failed: {e}")));
        }
    }
}

/// `mpmb convert`: re-encodes any readable graph (text or an existing
/// container) into the on-disk container format.
fn cmd_convert(flags: &Flags) {
    flags.expect(&["input", "output"]);
    let g = load(flags);
    let out = flags
        .get("output")
        .unwrap_or_else(|| fail("--output is required"));
    let checksum = bigraph::write_container_path(&g, std::path::Path::new(out))
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    eprintln!(
        "wrote container {} ({}, checksum {:016x})",
        out,
        GraphStats::compute(&g),
        checksum
    );
}

fn cmd_serve(flags: &Flags) {
    flags.expect(&[
        "listen",
        "threads",
        "queue",
        "timeout-ms",
        "cache-capacity",
        "max-solver-threads",
        "mem-budget",
        "trace",
        "graph",
        "checkpoint-dir",
        "checkpoint-every-ms",
        "fault-plan",
        "role",
        "workers",
        "probe-interval-ms",
        "trace-max-bytes",
        "trace-ring",
        "budget-header",
        "fast-escalate",
    ]);
    let trace_cap: Option<u64> = flags.get("trace-max-bytes").map(|v| {
        let n = v
            .parse()
            .unwrap_or_else(|_| fail(&format!("cannot parse --trace-max-bytes value `{v}`")));
        if n == 0 {
            fail("--trace-max-bytes must be positive");
        }
        n
    });
    match flags.get("trace") {
        None | Some("off") | Some("stderr") => {
            if trace_cap.is_some() {
                fail("--trace-max-bytes requires --trace FILE");
            }
            if flags.get("trace") == Some("stderr") {
                obs::set_sink_stderr();
            }
        }
        Some(path) => obs::set_sink_file_capped(path, trace_cap)
            .unwrap_or_else(|e| fail(&format!("cannot open --trace {path}: {e}"))),
    }
    let trace_ring: usize = flags.get_parsed("trace-ring", 64);
    if trace_ring == 0 {
        fail("--trace-ring must be at least 1");
    }
    let cfg = mpmb_serve::ServerConfig {
        listen: flags.get("listen").unwrap_or("127.0.0.1:7700").to_string(),
        threads: flags.get_parsed("threads", 4),
        queue: flags.get_parsed("queue", 64),
        timeout_ms: flags.get_parsed("timeout-ms", 0),
        cache_capacity: flags.get_parsed("cache-capacity", 256),
        max_solver_threads: flags.get_parsed("max-solver-threads", 0),
        checkpoint_dir: flags.get("checkpoint-dir").map(Into::into),
        checkpoint_every_ms: flags.get_parsed("checkpoint-every-ms", 5_000),
        fault_plan: flags.get("fault-plan").map(str::to_string),
        role: flags
            .get("role")
            .map(|r| mpmb_serve::Role::parse(r).unwrap_or_else(|e| fail(&e)))
            .unwrap_or(mpmb_serve::Role::Single),
        // Repeatable and comma-splittable: `--workers a:1,b:2` and
        // `--workers a:1 --workers b:2` both work.
        workers: flags
            .get_all("workers")
            .iter()
            .flat_map(|v| v.split(','))
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
        probe_interval_ms: flags.get_parsed("probe-interval-ms", 1_000),
        mem_budget: parse_mem_budget(flags.get("mem-budget").unwrap_or("0")),
        trace_ring,
        budget_header: flags.get_parsed("budget-header", false),
        fast_escalate: flags.get_parsed("fast-escalate", false),
    };
    mpmb_serve::signal::install();
    let server = mpmb_serve::Server::start(cfg)
        .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")));
    for spec in flags.get_all("graph") {
        let Some((name, src)) = spec.split_once('=') else {
            fail(&format!("--graph expects NAME=SPEC, got `{spec}`"));
        };
        match server.state().registry.load(name, src) {
            Ok(handle) => eprintln!(
                "loaded graph `{name}` from {} ({} x {} vertices, {} edges, {})",
                handle.source,
                handle.num_left(),
                handle.num_right(),
                handle.num_edges(),
                handle.backing_name(),
            ),
            // A graph restored from the checkpoint beats the flag —
            // same name, and the checkpoint's partials depend on it.
            Err(mpmb_serve::RegistryError::Exists(_)) => {
                eprintln!("graph `{name}` already registered (restored from checkpoint)")
            }
            Err(e) => fail(&e.to_string()),
        }
    }
    eprintln!("mpmb-serve listening on {}", server.addr);
    // Blocks until SIGTERM/SIGINT or POST /admin/shutdown drains the pool.
    server.join();
    eprintln!("mpmb-serve drained, exiting");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--help` anywhere wins, before any flag parsing can trip on it.
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return;
    }
    let Some((cmd, rest)) = args.split_first() else {
        fail("missing subcommand");
    };
    let flags = Flags::parse(rest);
    match cmd.as_str() {
        "solve" => cmd_solve(&flags),
        "query" => cmd_query(&flags),
        "count" => cmd_count(&flags),
        "exact" => cmd_exact(&flags),
        "stats" => cmd_stats(&flags),
        "generate" => cmd_generate(&flags),
        "convert" => cmd_convert(&flags),
        "serve" => cmd_serve(&flags),
        other => fail(&format!("unknown subcommand `{other}`")),
    }
}

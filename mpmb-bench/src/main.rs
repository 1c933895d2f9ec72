//! `mpmb-bench`: the end-to-end serving benchmark for `mpmb serve`.
//!
//! ```text
//! mpmb-bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! mpmb-bench compare --parent FILE… --change FILE… [--bounds BENCHMARK.json]
//! ```
//!
//! Run from the repository root. A run builds the release `mpmb` next
//! to its own executable, generates the workload's fixtures, starts the
//! servers, drives them over HTTP, checks every answer, and prints its
//! metrics as JSON, the result object last. It measures the program
//! only from outside: HTTP responses, the `X-Mpmb-Budget` header,
//! `/metrics`, `/debug/trace`, `/proc`, and in-process calls into
//! `bigraph::storage`. See README.md for the workloads and metrics.

mod client;
mod compare;
mod drive;
mod gate;
mod json;
mod report;
mod server;
mod stats;
mod trace;
mod workload;

use drive::{ms, Sample, Window};
use json::Json;
use report::Outcome;
use server::{delta, Node, Scrape};
use stats::{median, percentile, sorted};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::{budget_sum, Budget, Tracer, BUCKETS, EDGE_LAYER};
use workload::{Kind, Mode, Workload};

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 5;
/// In-process container open/materialize repetitions per traced run.
const STORAGE_REPEATS: usize = 5;
/// Largest share by which the budget buckets may miss the handler wall
/// time on a single node.
const BUDGET_TOLERANCE: f64 = 0.02;

const USAGE: &str = "usage:
  mpmb-bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE]
  mpmb-bench compare --parent FILE... --change FILE... [--bounds BENCHMARK.json]

workloads: os-open, edge-closed, protein-ols, cluster-os
Run from the repository root. --trace 1 re-runs the workload half untraced,
half traced, and prints the per-layer metrics instead of the end-to-end ones.";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if o.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if !(o.seconds.is_finite() && o.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => parse_opts(&args).and_then(|o| run(&o)),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mpmb-bench: {e}");
            std::process::exit(2);
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(o: &Opts) -> Result<i32, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/mpmb-serve/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root (no crates/mpmb-serve)",
            root.display()
        ));
    }
    let bin = build_server(&root)?;
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}-{}",
        o.workload,
        o.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let wl = Workload::prepare(&o.workload, o.seed, &work.0)?;
    let outcome = if o.trace {
        traced(&wl, &bin, o, &root)?
    } else {
        measured(&wl, &bin, o)?
    };
    for p in outcome.problems.iter().take(20) {
        eprintln!("mpmb-bench: {p}");
    }
    let run_info = Json::obj([
        ("workload", Json::str(wl.name)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("trace", Json::Num(f64::from(u8::from(o.trace)))),
    ]);
    let report = outcome.report(report::provenance(&root), run_info);
    if let Some(path) = &o.out {
        std::fs::write(path, format!("{report}\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", Json::obj([("report", report)]));
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() { 0 } else { 1 })
}

/// Builds the release `mpmb` into the target directory this executable
/// lives in (`<target>/<profile>/mpmb-bench`) and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--offline",
            "--release",
            "--quiet",
            "-p",
            "mpmb",
            "--bin",
            "mpmb",
        ])
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mpmb failed ({status})"));
    }
    Ok(target.join("release").join("mpmb"))
}

/// Answers one warm-up request per graph, each on its own connection,
/// and returns their budgets (present on a traced deployment).
fn warm_up(addr: &str, wl: &Workload) -> Result<Vec<Option<Budget>>, String> {
    wl.warmups()
        .into_iter()
        .map(|req| {
            let resp = client::once(addr, "POST", req.path, req.body.as_bytes())
                .map_err(|e| format!("warm-up {}: {e}", req.body))?;
            if resp.status != 200 {
                return Err(format!(
                    "warm-up {}: status {}: {}",
                    req.body,
                    resp.status,
                    resp.text()
                ));
            }
            wl.check(&req, &resp.body)?;
            Ok(resp.header("x-mpmb-budget").and_then(trace::parse_budget))
        })
        .collect()
}

fn stop_all(nodes: Vec<Node>) {
    for n in nodes {
        if let Err(e) = n.stop() {
            eprintln!("mpmb-bench: {e}");
        }
    }
}

fn sum_over(nodes: &[Node], f: impl Fn(&Node) -> Result<f64, String>) -> Result<f64, String> {
    nodes.iter().map(f).sum()
}

/// Books a window's requests into the outcome.
fn account(out: &mut Outcome, w: &Window) {
    out.attempted += w.samples.len();
    for s in &w.samples {
        if let drive::Outcome::Failed(e) = &s.outcome {
            out.failed += 1;
            out.problems
                .push(format!("{} {}: {e}", s.req.path, s.req.body));
        }
    }
}

/// Re-issues a seeded selection of the window's answers to a fresh
/// cache-less single node; every differing byte is a failure.
fn gate_check(
    out: &mut Outcome,
    wl: &Workload,
    bin: &Path,
    w: &Window,
    seed: u64,
) -> Result<(), String> {
    let (recorded, inconsistent) = gate::record(&w.samples);
    let picked = gate::pick(&recorded, stats::derive(seed, stats::STREAM_GATE, 0));
    let nodes = wl.deploy(bin, Mode::Gate)?;
    warm_up(&nodes[0].addr, wl)?;
    let mismatches = gate::replay_on(&nodes[0].addr, &picked);
    stop_all(nodes);
    out.attempted += picked.len();
    out.failed += inconsistent.len() + mismatches.len();
    out.problems
        .extend(inconsistent.into_iter().chain(mismatches));
    if picked.len() < gate::REPLAYS {
        out.problems.push(format!(
            "only {} distinct answers to re-check, want {}",
            picked.len(),
            gate::REPLAYS
        ));
    }
    Ok(())
}

fn ok_samples(w: &Window) -> impl Iterator<Item = &Sample> {
    w.samples.iter().filter(|s| s.ok_body().is_some())
}

fn throughput(w: &Window) -> f64 {
    ok_samples(w).count() as f64 / w.seconds()
}

/// The untraced run: `SETUPS` set-ups, then one measured window on the
/// last of them.
fn measured(wl: &Workload, bin: &Path, o: &Opts) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut nodes = Vec::new();
    for _ in 0..SETUPS {
        stop_all(std::mem::take(&mut nodes));
        let t = Instant::now();
        nodes = wl.deploy(bin, Mode::Measured)?;
        warm_up(&nodes[0].addr, wl)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let w = drive::run(&nodes[0].addr, wl, o.seed, o.seconds, "m");
    let rss = sum_over(&nodes, Node::peak_rss_bytes);
    let node_count = nodes.len();
    stop_all(nodes);
    let rss = rss?;

    let mut out = Outcome::default();
    account(&mut out, &w);
    gate_check(&mut out, wl, bin, &w, o.seed)?;

    let lat = sorted(&ok_samples(&w).map(Sample::latency_ms).collect::<Vec<_>>());
    let within = ok_samples(&w)
        .filter(|s| s.latency_ms() <= wl.slo_ms)
        .count();
    let m = &mut out.metrics;
    m.push("setup_s", median(&setups), "s", setups.len());
    m.push("throughput_rps", throughput(&w), "1/s", lat.len());
    m.push("latency_p50_ms", percentile(&lat, 0.50), "ms", lat.len());
    m.push("latency_p95_ms", percentile(&lat, 0.95), "ms", lat.len());
    m.push(
        "slo_attainment",
        within as f64 / w.samples.len().max(1) as f64,
        "ratio",
        w.samples.len(),
    );
    m.push("peak_rss_mb", rss / 1e6, "MB", node_count);
    Ok(out)
}

/// Sums one series over several nodes' scrape deltas.
fn grown(before: &[Scrape], after: &[Scrape], series: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| delta(b, a, series))
        .sum()
}

fn phase_series(kind: &str, phase: &str) -> String {
    format!("mpmb_solver_phase_{kind}{{phase=\"{phase}\"}}")
}

/// Trials per second of one engine phase across nodes: trials executed
/// over seconds spent, both from `/metrics` deltas; 0 when it never ran.
fn phase_rate(before: &[Scrape], after: &[Scrape], phase: &str) -> f64 {
    let secs = grown(before, after, &phase_series("seconds_sum", phase));
    let trials = grown(before, after, &phase_series("trials_total", phase));
    if secs > 0.0 {
        trials / secs
    } else {
        0.0
    }
}

/// In-process `ContainerReader::open` and `materialize` timings, in ms
/// (medians), over the workload's container fixtures.
fn storage_timings(wl: &Workload) -> Result<Option<(f64, f64)>, String> {
    let Some(g) = wl
        .graphs
        .iter()
        .find(|g| g.path.extension().is_some_and(|e| e == "ubgc"))
    else {
        return Ok(None);
    };
    let (mut open, mut mat) = (Vec::new(), Vec::new());
    for _ in 0..STORAGE_REPEATS {
        let t = Instant::now();
        let reader = bigraph::storage::ContainerReader::open(&g.path).map_err(|e| e.to_string())?;
        open.push(ms(t.elapsed()));
        let t = Instant::now();
        let graph = reader.materialize().map_err(|e| e.to_string())?;
        mat.push(ms(t.elapsed()));
        std::hint::black_box(graph.num_edges());
    }
    Ok(Some((median(&open), median(&mat))))
}

/// The `/debug/trace` entries of one window's requests.
fn debug_entries(addr: &str, w: &Window) -> Result<Vec<Json>, String> {
    let resp = client::once(addr, "GET", "/debug/trace", b"")
        .map_err(|e| format!("GET /debug/trace: {e}"))?;
    let page = Json::parse(&resp.text())?;
    let ids: std::collections::HashSet<&str> =
        w.samples.iter().map(|s| s.request_id.as_str()).collect();
    Ok(page
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|t| {
            t.get("trace_id")
                .and_then(Json::as_str)
                .is_some_and(|id| ids.contains(id))
        })
        .cloned()
        .collect())
}

/// Σ budget over Σ handler wall time (plus accept-queue wait), minus 1.
/// `dur_us` is truncated to whole microseconds, so each entry's wall
/// time is taken at the middle of its microsecond.
fn budget_sum_error(entries: &[Json]) -> f64 {
    let (mut buckets, mut wall) = (0.0, 0.0);
    for e in entries {
        let budget = e.get("budget");
        let field = |k: &str| {
            budget
                .and_then(|b| b.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        buckets += BUCKETS.iter().map(|(b, _)| field(b)).sum::<f64>();
        let dur_us = e.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0);
        wall += (dur_us + 0.5) / 1e6 + field("queue");
    }
    if wall > 0.0 {
        buckets / wall - 1.0
    } else {
        0.0
    }
}

fn phase_seconds(entries: &[Json], phase: &str) -> f64 {
    entries
        .iter()
        .filter_map(|e| e.get("phases")?.get(phase)?.get("seconds")?.as_f64())
        .sum()
}

/// The traced run: half the window untraced, then the same schedule
/// traced, on a server started with `--budget-header`. Reports the
/// per-layer metrics.
fn traced(wl: &Workload, bin: &Path, o: &Opts, root: &Path) -> Result<Outcome, String> {
    let half = o.seconds / 2.0;
    let storage = storage_timings(wl)?;

    let nodes = wl.deploy(bin, Mode::Measured)?;
    warm_up(&nodes[0].addr, wl)?;
    let untraced = drive::run(&nodes[0].addr, wl, o.seed, half, "u");
    stop_all(nodes);

    let nodes = wl.deploy(bin, Mode::Traced)?;
    let addr = nodes[0].addr.clone();
    let warm = warm_up(&addr, wl)?;
    let probe = |nodes: &[Node]| -> Result<(Vec<Scrape>, f64), String> {
        let scrapes = nodes
            .iter()
            .map(|n| Scrape::fetch(&n.addr))
            .collect::<Result<_, _>>()?;
        Ok((scrapes, sum_over(nodes, Node::cpu_seconds)?))
    };
    let measured = (|| {
        let (before, cpu0) = probe(&nodes)?;
        let w = drive::run(&addr, wl, o.seed, half, "t");
        let (after, cpu1) = probe(&nodes)?;
        let entries = debug_entries(&addr, &w)?;
        Ok::<_, String>((w, before, after, cpu1 - cpu0, entries))
    })();
    stop_all(nodes);
    let (w, before, after, cpu_s, entries) = measured?;

    let mut out = Outcome::default();
    account(&mut out, &untraced);
    account(&mut out, &w);
    gate_check(&mut out, wl, bin, &w, o.seed)?;

    let mut tracer = Tracer::new(w.start);
    let mut budgets: Vec<(&Sample, &Budget)> = Vec::new();
    for s in ok_samples(&w) {
        match s.budget() {
            Some(b) => {
                tracer.request(&s.request_id, s.sent, s.done, b);
                budgets.push((s, b));
            }
            None => out
                .problems
                .push(format!("{}: no X-Mpmb-Budget header", s.request_id)),
        }
    }
    let spans_dir = root.join(".bench_out");
    let spans_path = spans_dir.join(format!("spans-{}-{}.jsonl", wl.name, o.seed));
    std::fs::create_dir_all(&spans_dir)
        .and_then(|_| tracer.write_jsonl(&spans_path))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!("mpmb-bench: spans written to {}", spans_path.display());

    let n = budgets.len();
    let bucket_ms = |i: usize, q: f64, filter: &dyn Fn(&Sample) -> bool| {
        let v: Vec<f64> = budgets
            .iter()
            .filter(|(s, _)| filter(s))
            .map(|(_, b)| b[i] * 1e3)
            .collect();
        percentile(&sorted(&v), q)
    };
    let all = |_: &Sample| true;
    let edge_gap: Vec<f64> = budgets
        .iter()
        .map(|(s, b)| ms(s.done - s.sent) - budget_sum(b) * 1e3)
        .collect();
    let send_lag: Vec<f64> = w.samples.iter().map(Sample::send_lag_ms).collect();
    // Workers run ranges outside the engine's phase-metrics hook, so
    // their phase histograms stay empty; the range handler's time on
    // their own /metrics is their trial time plus frame coding.
    let first_worker = if wl.cluster { 1 } else { before.len() };
    let worker_trials_s = grown(
        &before[first_worker..],
        &after[first_worker..],
        "mpmb_request_duration_seconds_sum{endpoint=\"internal\"}",
    );
    let coordinator_trials_s: f64 = budgets.iter().map(|(_, b)| b[3]).sum();
    let entry = |series: &str| delta(&before[0], &after[0], series);
    let hits = entry("mpmb_cache_hits_total");
    let misses = entry("mpmb_cache_misses_total");
    let budget_error = budget_sum_error(&entries);
    // Every budgeted answer has a `/debug/trace` entry under its request
    // id; fewer means the sum check below would run on partial data.
    if !wl.cluster && (entries.is_empty() || entries.len() < n) {
        out.problems.push(format!(
            "only {} of {n} budgeted answers found in /debug/trace",
            entries.len()
        ));
    }
    if !wl.cluster && budget_error.abs() > BUDGET_TOLERANCE {
        out.problems.push(format!(
            "budget buckets miss the handler wall time by {:.2}% over {} requests",
            budget_error * 100.0,
            entries.len()
        ));
    }
    let (rps_u, rps_t) = (throughput(&untraced), throughput(&w));
    let (open_ms, mat_ms) = storage.unwrap_or((0.0, 0.0));
    let storage_n = if storage.is_some() {
        STORAGE_REPEATS
    } else {
        0
    };

    let m = &mut out.metrics;
    m.push(
        "http.edge_gap_p50_ms",
        percentile(&sorted(&edge_gap), 0.5),
        "ms",
        n,
    );
    m.push("server.queue_p99_ms", bucket_ms(0, 0.99, &all), "ms", n);
    m.push("server.finalize_p50_ms", bucket_ms(5, 0.5, &all), "ms", n);
    m.push(
        "server.cpu_ms_per_request",
        cpu_s * 1e3 / w.samples.len().max(1) as f64,
        "ms",
        w.samples.len(),
    );
    m.push(
        "server.budget_sum_error",
        budget_error,
        "ratio",
        entries.len(),
    );
    m.push(
        "cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        (hits + misses) as usize,
    );
    m.push(
        "cache.refined_total",
        entry("mpmb_cache_refined_total"),
        "count",
        n,
    );
    m.push(
        "registry.materialize_s",
        warm.iter().flatten().map(|b| b[1]).sum(),
        "s",
        warm.len(),
    );
    m.push("storage.open_ms", open_ms, "ms", storage_n);
    m.push("storage.materialize_ms", mat_ms, "ms", storage_n);
    let ols = |s: &Sample| s.req.kind == Kind::Ols;
    m.push(
        "ols.prepare_p50_ms",
        bucket_ms(2, 0.5, &ols),
        "ms",
        budgets.iter().filter(|(s, _)| ols(s)).count(),
    );
    m.push(
        "phase.ols_prepare_s",
        grown(&before, &after, &phase_series("seconds_sum", "ols.prepare")),
        "s",
        n,
    );
    m.push(
        "phase.ols_listing_s",
        phase_seconds(&entries, "ols.listing"),
        "s",
        entries.len(),
    );
    m.push("engine.trials_p50_ms", bucket_ms(3, 0.5, &all), "ms", n);
    m.push(
        "engine.os_trials_per_s",
        phase_rate(&before, &after, "os.sample"),
        "1/s",
        n,
    );
    m.push(
        "engine.ols_trials_per_s",
        phase_rate(&before, &after, "ols.sample"),
        "1/s",
        n,
    );
    m.push(
        "engine.fast_trials_per_s",
        phase_rate(&before, &after, "fast.sample"),
        "1/s",
        n,
    );
    m.push("cluster.network_p50_ms", bucket_ms(4, 0.5, &all), "ms", n);
    m.push(
        "cluster.ranges_per_request",
        entry("mpmb_cluster_ranges_dispatched_total") / n.max(1) as f64,
        "count",
        n,
    );
    m.push(
        "cluster.redispatch_total",
        entry("mpmb_cluster_redispatch_total"),
        "count",
        n,
    );
    m.push("cluster.worker_trials_s", worker_trials_s, "s", n);
    m.push(
        "cluster.unattributed_trials_s",
        if wl.cluster {
            worker_trials_s - coordinator_trials_s
        } else {
            0.0
        },
        "s",
        n,
    );
    m.push(
        "bench.send_lag_p99_ms",
        percentile(&sorted(&send_lag), 0.99),
        "ms",
        send_lag.len(),
    );
    m.push("bench.untraced_rps", rps_u, "1/s", untraced.samples.len());
    m.push("bench.traced_rps", rps_t, "1/s", w.samples.len());
    m.push(
        "bench.tracing_overhead",
        if rps_u > 0.0 { rps_t / rps_u } else { 0.0 },
        "ratio",
        2,
    );
    m.push(
        "bench.error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted,
    );
    // Mean self time per request, per layer.
    let selfs = tracer.self_times();
    for layer in std::iter::once(EDGE_LAYER).chain(BUCKETS.iter().map(|(_, l)| *l)) {
        let total_us: f64 = selfs
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, t)| t)
            .sum();
        m.push(
            format!("self.{layer}_ms"),
            total_us / 1e3 / n.max(1) as f64,
            "ms",
            n,
        );
    }
    Ok(out)
}

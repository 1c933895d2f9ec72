//! Multi-process cluster e2e: real `mpmb serve` binaries, one
//! coordinator scattering over SIGKILL-able workers.
//!
//! The determinism contract under test: a coordinator fronting 1, 2, or
//! 3 workers returns **byte-identical** bodies to a single-node server
//! for every method, and a worker SIGKILLed mid-solve never changes the
//! answer — the coordinator re-dispatches only the remaining trials of
//! the dead worker's range (observable via
//! `mpmb_cluster_redispatch_total` / `mpmb_cluster_worker_errors_total`).

use mpmb_serve::client::{call, call_ext};
use mpmb_serve::json::Json;
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const GRAPH_FLAG: &str = "g=dataset:abide:0.01:3";

/// A running `mpmb serve` subprocess; killed on drop so a failing
/// assertion never leaks a daemon.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// SIGKILL — no drain, no goodbye. The cluster must cope.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns `mpmb serve` with `extra` flags appended and blocks until it
/// announces its ephemeral address on stderr, which a background thread
/// then keeps draining.
fn spawn_server(extra: &[&str]) -> ServerProc {
    let mut args = vec![
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--threads",
        "2",
        "--queue",
        "16",
        "--graph",
        GRAPH_FLAG,
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_mpmb"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mpmb serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = std::io::BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read server stderr");
        assert!(n > 0, "server exited before announcing its address");
        if let Some(rest) = line.trim().strip_prefix("mpmb-serve listening on ") {
            break rest.to_string();
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            if reader.read_line(&mut sink).unwrap_or(0) == 0 {
                break;
            }
        }
    });
    ServerProc { child, addr }
}

fn spawn_worker(timeout_ms: u64) -> ServerProc {
    spawn_server(&["--role", "worker", "--timeout-ms", &timeout_ms.to_string()])
}

fn spawn_coordinator(workers: &[&ServerProc], probe_interval_ms: u64) -> ServerProc {
    spawn_coordinator_with(workers, probe_interval_ms, &[])
}

fn spawn_coordinator_with(
    workers: &[&ServerProc],
    probe_interval_ms: u64,
    extra: &[&str],
) -> ServerProc {
    let list = workers
        .iter()
        .map(|w| w.addr.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let mut args = vec![
        "--role",
        "coordinator",
        "--workers",
        &list,
        "--probe-interval-ms",
    ];
    let probe = probe_interval_ms.to_string();
    args.push(&probe);
    args.extend_from_slice(extra);
    spawn_server(&args)
}

/// A scratch directory under the system temp dir, empty on return.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpmb-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn metric_value(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric `{name}` missing:\n{metrics_text}"))
}

fn fetch_metric(addr: &str, name: &str) -> u64 {
    let (status, text) = call(addr, "GET", "/metrics", "").expect("GET /metrics");
    assert_eq!(status, 200);
    metric_value(&text, name)
}

/// Solve bodies covering every scatterable method. Trial budgets are
/// small — this test is about bit-identity, not load.
fn request_matrix() -> Vec<(&'static str, String)> {
    vec![
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"os\",\"trials\":2000,\"seed\":41,\"k\":3}".into(),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"mcvp\",\"trials\":1000,\"seed\":43}".into(),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"ols\",\"trials\":3000,\"prep\":150,\"seed\":47}".into(),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"ols-kl\",\"trials\":200,\"prep\":150,\"seed\":53}"
                .into(),
        ),
        (
            "/v1/count",
            "{\"graph\":\"g\",\"trials\":1500,\"seed\":59}".into(),
        ),
    ]
}

#[test]
fn coordinator_matches_single_node_byte_for_byte_at_one_two_and_three_workers() {
    // Single-node baselines.
    let single = spawn_server(&[]);
    let matrix = request_matrix();
    let baselines: Vec<String> = matrix
        .iter()
        .map(|(path, body)| {
            let (status, resp) = call(single.addr.as_str(), "POST", path, body).expect("baseline");
            assert_eq!(status, 200, "baseline {path} {body}: {resp}");
            resp
        })
        .collect();
    drop(single);

    for n in 1..=3usize {
        let workers: Vec<ServerProc> = (0..n).map(|_| spawn_worker(0)).collect();
        let coord = spawn_coordinator(&workers.iter().collect::<Vec<_>>(), 200);
        for ((path, body), want) in matrix.iter().zip(&baselines) {
            let (status, got) = call(coord.addr.as_str(), "POST", path, body).expect("scattered");
            assert_eq!(status, 200, "{n} workers, {path} {body}: {got}");
            assert_eq!(
                &got, want,
                "{n} workers, {path} {body}: cluster answer drifted"
            );
        }
        assert!(
            fetch_metric(&coord.addr, "mpmb_cluster_ranges_dispatched_total")
                >= matrix.len() as u64,
            "coordinator answered without dispatching ranges"
        );
        assert_eq!(fetch_metric(&coord.addr, "mpmb_cluster_workers"), n as u64);
    }
}

#[test]
fn sigkilled_worker_mid_solve_never_changes_the_answer() {
    // 600k OS trials with a 25 ms worker deadline: every range request
    // returns partial coverage, so the scatter loop runs many rounds
    // and there is a wide window to SIGKILL a worker mid-solve.
    let body =
        "{\"graph\":\"g\",\"method\":\"os\",\"trials\":600000,\"seed\":61,\"k\":2,\"threads\":2}";

    let single = spawn_server(&[]);
    let (status, baseline) = call(single.addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!(status, 200, "{baseline}");
    drop(single);

    let mut workers = [spawn_worker(25), spawn_worker(25)];
    let coord = spawn_coordinator(&workers.iter().collect::<Vec<_>>(), 60_000);
    let coord_addr = coord.addr.clone();

    let solver = std::thread::spawn(move || {
        call(coord_addr.as_str(), "POST", "/v1/solve", body).expect("scattered solve")
    });

    // Wait until the scatter is demonstrably in flight, then SIGKILL
    // worker #2. The long probe interval ensures the *scatter loop*
    // (not the prober) discovers the corpse, via a failed range call.
    let deadline = Instant::now() + Duration::from_secs(60);
    while fetch_metric(&coord.addr, "mpmb_cluster_ranges_dispatched_total") < 4 {
        assert!(Instant::now() < deadline, "scatter never got going");
        std::thread::sleep(Duration::from_millis(5));
    }
    workers[1].kill();

    let (status, got) = solver.join().expect("solver thread");
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, baseline, "SIGKILLed worker changed the answer");

    assert!(
        fetch_metric(&coord.addr, "mpmb_cluster_worker_errors_total") >= 1,
        "the kill was never observed by the scatter loop"
    );
    assert!(
        fetch_metric(&coord.addr, "mpmb_cluster_redispatch_total") >= 1,
        "remaining trials were never redispatched"
    );
}

/// The observability tentpole, end to end: a cluster solve under a
/// client-supplied `X-Request-Id` produces ONE stitched trace — the
/// coordinator's `/debug/trace` entry carries per-worker phase
/// breakdowns and a deadline budget summing to ~the request wall time,
/// the worker's own trace file contains the coordinator's trace id
/// (cross-node propagation), and none of it perturbs the answer:
/// obs-on bodies are byte-identical to an obs-off cluster's.
#[test]
fn cluster_trace_is_stitched_budgeted_and_answers_stay_bit_identical() {
    let body = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":2000,\"seed\":67,\"k\":3}";

    // Obs-off baseline: a plain cluster, no sinks, no request id.
    let baseline = {
        let workers = [spawn_worker(0), spawn_worker(0)];
        let coord = spawn_coordinator(&workers.iter().collect::<Vec<_>>(), 200);
        let (status, got) = call(coord.addr.as_str(), "POST", "/v1/solve", body).unwrap();
        assert_eq!(status, 200, "{got}");
        got
    };

    // Obs-on cluster: every node writes a trace file, the coordinator
    // additionally exposes the budget header.
    let dir = scratch_dir("stitch");
    let worker_traces: Vec<String> = (0..2)
        .map(|i| dir.join(format!("worker{i}.jsonl")).display().to_string())
        .collect();
    let workers: Vec<ServerProc> = worker_traces
        .iter()
        .map(|path| {
            spawn_server(&[
                "--role",
                "worker",
                "--timeout-ms",
                "0",
                "--trace",
                path.as_str(),
            ])
        })
        .collect();
    let coord_trace = dir.join("coord.jsonl").display().to_string();
    let coord = spawn_coordinator_with(
        &workers.iter().collect::<Vec<_>>(),
        200,
        &["--trace", coord_trace.as_str(), "--budget-header"],
    );

    let (status, headers, got) = call_ext(
        coord.addr.as_str(),
        "POST",
        "/v1/solve",
        body,
        &[("X-Request-Id", "xnode-stitch-e2e")],
    )
    .unwrap();
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, baseline, "tracing changed the cluster answer");

    // The budget header is present and names all six buckets.
    let budget_header = headers
        .iter()
        .find(|(k, _)| k == "x-mpmb-budget")
        .map(|(_, v)| v.as_str())
        .expect("--budget-header adds X-Mpmb-Budget on solve responses");
    for bucket in [
        "queue=",
        "materialize=",
        "prepare=",
        "trials=",
        "network=",
        "finalize=",
    ] {
        assert!(budget_header.contains(bucket), "{budget_header}");
    }

    // The coordinator's /debug/trace entry is the stitched timeline.
    let (status, resp) = call(coord.addr.as_str(), "GET", "/debug/trace", "").unwrap();
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    let traces = json.get("traces").and_then(Json::as_arr).unwrap();
    let entry = traces
        .iter()
        .find(|t| t.get("trace_id").and_then(Json::as_str) == Some("xnode-stitch-e2e"))
        .expect("cluster solve retained in the coordinator ring");
    let phases = match entry.get("phases").expect("phases object") {
        Json::Obj(phases) => phases,
        other => panic!("phases should be an object, got {other:?}"),
    };
    // Worker phases come back namespaced `{addr}/{phase}`: at least one
    // per worker, since the 2000-trial range scatters across both.
    for w in &workers {
        assert!(
            phases.iter().any(|(name, _)| name
                .strip_prefix(w.addr.as_str())
                .is_some_and(|rest| rest.starts_with('/'))),
            "no stitched phase from worker {}: {phases:?}",
            w.addr
        );
    }
    // The deadline budget covers the request wall clock: the six
    // buckets sum to at least the measured duration (nested solver
    // spans can push the classified total slightly above it).
    let dur_us = entry.get("dur_us").and_then(Json::as_f64).unwrap();
    let budget = entry.get("budget").expect("budget object");
    let spent: f64 = [
        "queue",
        "materialize",
        "prepare",
        "trials",
        "network",
        "finalize",
    ]
    .iter()
    .map(|b| budget.get(b).and_then(Json::as_f64).unwrap())
    .sum();
    assert!(
        spent >= dur_us / 1e6 * 0.99,
        "budget accounts {spent}s of a {}s request",
        dur_us / 1e6
    );

    // Cross-node propagation: the coordinator's trace id shows up in
    // every worker's own trace file, with parented spans.
    for (path, w) in worker_traces.iter().zip(&workers) {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("worker trace file {path}: {e}"));
        assert!(
            text.contains("xnode-stitch-e2e"),
            "worker {} never joined the coordinator's trace:\n{text}",
            w.addr
        );
        assert!(
            text.contains("\"parent\":"),
            "worker {} spans carry no parent ids",
            w.addr
        );
    }

    drop(coord);
    drop(workers);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workers run their ranges through the same instrumented driver as a
/// local solve, so every worker's sampling time comes back as its own
/// `{addr}/os.sample` phase (not as unexplained network time), and each
/// worker's own `/metrics` counts the phase.
#[test]
fn worker_ranges_ship_their_sampling_phase() {
    let workers = [spawn_worker(0), spawn_worker(0)];
    let coord = spawn_coordinator(&workers.iter().collect::<Vec<_>>(), 200);
    let (status, _, got) = call_ext(
        coord.addr.as_str(),
        "POST",
        "/v1/solve",
        "{\"graph\":\"g\",\"method\":\"os\",\"trials\":2000,\"seed\":73}",
        &[("X-Request-Id", "worker-phase-e2e")],
    )
    .unwrap();
    assert_eq!(status, 200, "{got}");

    let (status, resp) = call(coord.addr.as_str(), "GET", "/debug/trace", "").unwrap();
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    let entry = json
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|t| t.get("trace_id").and_then(Json::as_str) == Some("worker-phase-e2e"))
        .expect("cluster solve retained in the coordinator ring");
    for w in &workers {
        let phase = format!("{}/os.sample", w.addr);
        let stat = entry
            .get("phases")
            .and_then(|p| p.get(&phase))
            .unwrap_or_else(|| panic!("no `{phase}` in the stitched trace: {entry}"));
        assert!(
            stat.get("items").and_then(Json::as_u64).unwrap() > 0,
            "{phase}: {stat}"
        );
        assert!(
            fetch_metric(
                &w.addr,
                "mpmb_solver_phase_seconds_count{phase=\"os.sample\"}"
            ) > 0,
            "worker {} recorded no os.sample phase",
            w.addr
        );
    }
}

/// A worker loads a container-backed graph through the handler's
/// materialize path, so its range reply carries a `registry.materialize`
/// phase and the coordinator books the load to materialize rather than
/// to `cluster.network`.
#[test]
fn worker_ranges_on_container_graphs_ship_their_materialize_phase() {
    let dir = scratch_dir("container-range");
    let container = dir.join("c.ubgc");
    let g = datasets::Dataset::Abide.generate(0.01, 3);
    bigraph::storage::write_container_path(&g, &container).expect("write container");
    let flag = format!("c={}", container.display());
    let worker = spawn_server(&["--role", "worker", "--timeout-ms", "0", "--graph", &flag]);
    let coord = spawn_coordinator_with(&[&worker], 200, &["--graph", &flag]);
    let (status, _, got) = call_ext(
        coord.addr.as_str(),
        "POST",
        "/v1/solve",
        "{\"graph\":\"c\",\"method\":\"os\",\"trials\":2000,\"seed\":73}",
        &[("X-Request-Id", "worker-materialize-e2e")],
    )
    .unwrap();
    assert_eq!(status, 200, "{got}");

    let (status, resp) = call(coord.addr.as_str(), "GET", "/debug/trace", "").unwrap();
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    let entry = json
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|t| t.get("trace_id").and_then(Json::as_str) == Some("worker-materialize-e2e"))
        .expect("cluster solve retained in the coordinator ring");
    let phase = format!("{}/registry.materialize", worker.addr);
    let stat = entry
        .get("phases")
        .and_then(|p| p.get(&phase))
        .unwrap_or_else(|| panic!("no `{phase}` in the stitched trace: {entry}"));
    assert!(
        stat.get("calls").and_then(Json::as_u64).unwrap() > 0,
        "{phase}: {stat}"
    );
}

/// The range protocol has one wire version: a worker answers a version-1
/// request frame with a 400 naming the version, never a guess.
#[test]
fn v1_range_frames_are_rejected_with_400() {
    let worker = spawn_worker(0);
    let mut enc = bigraph::codec::Encoder::new();
    enc.str("g");
    enc.str("os");
    // trials, prep, seed, threads, start, end
    for field in [1_000u64, 100, 7, 1, 0, 500] {
        enc.u64(field);
    }
    enc.u8(0); // no candidate set
    let frame = bigraph::codec::seal_frame(b"MPMBRQ01", 1, &enc.into_bytes());
    let once = mpmb_serve::RetryPolicy {
        attempts: 1,
        ..Default::default()
    };
    match mpmb_serve::call_retry_expect(
        worker.addr.as_str(),
        "POST",
        "/v1/internal/solve-range",
        &frame,
        "application/octet-stream",
        &once,
    ) {
        Err(mpmb_serve::ClientError::Status { status, body }) => {
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("unsupported format version 1"), "{body}");
        }
        other => panic!("a v1 frame must get a 400, got {other:?}"),
    }
    // The worker keeps serving.
    let (status, _) = call(worker.addr.as_str(), "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
}

/// Metrics federation under membership churn: `/metrics/cluster` merges
/// every healthy worker's page under `node` labels; a worker SIGKILLed
/// between scrapes bumps the failure counter while the survivor keeps
/// rendering, and repeated scrapes against the half-dead membership
/// never panic the coordinator.
#[test]
fn metrics_federation_survives_worker_churn() {
    let mut workers = [spawn_worker(0), spawn_worker(0)];
    // A probe interval far longer than the test: the scrape loop itself
    // must discover the corpse, so the failure counter is deterministic.
    let coord = spawn_coordinator(&workers.iter().collect::<Vec<_>>(), 60_000);

    // Warm the workers' metric pages so the merge has real series.
    for _ in 0..2 {
        let (status, got) = call(
            coord.addr.as_str(),
            "POST",
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"os\",\"trials\":500,\"seed\":71}",
        )
        .unwrap();
        assert_eq!(status, 200, "{got}");
    }

    let (status, merged) = call(coord.addr.as_str(), "GET", "/metrics/cluster", "").unwrap();
    assert_eq!(status, 200, "{merged}");
    for w in &workers {
        assert!(
            merged.contains(&format!("node=\"{}\"", w.addr)),
            "worker {} missing from the federated page:\n{merged}",
            w.addr
        );
    }
    assert!(
        merged.contains("node=\"coordinator\""),
        "coordinator's own page missing from the merge"
    );
    // Aggregate (unlabeled) series precede the per-node breakdown.
    assert!(
        merged.contains("mpmb_requests_total"),
        "no aggregated series in the merge:\n{merged}"
    );
    assert_eq!(
        fetch_metric(&coord.addr, "mpmb_federation_scrape_failures_total"),
        0
    );
    let scrapes_before = fetch_metric(&coord.addr, "mpmb_federation_scrapes_total");
    assert!(scrapes_before >= 2, "both workers should have been scraped");

    // Kill one worker. The prober (60 s interval) still believes it is
    // healthy, so the next scrape hits the corpse and fails.
    workers[1].kill();
    let dead = workers[1].addr.clone();
    let (status, merged) = call(coord.addr.as_str(), "GET", "/metrics/cluster", "").unwrap();
    assert_eq!(status, 200, "churn must degrade, not fail: {merged}");
    let node_series = |addr: &str| {
        let label = format!("node=\"{addr}\"");
        merged
            .lines()
            .any(|l| l.starts_with("mpmb_requests_total") && l.contains(&label))
    };
    assert!(
        node_series(&workers[0].addr),
        "survivor dropped from the federated page:\n{merged}"
    );
    assert!(
        fetch_metric(&coord.addr, "mpmb_federation_scrape_failures_total") >= 1,
        "dead worker's scrape failure went uncounted"
    );
    assert!(
        !node_series(&dead),
        "dead worker still rendering fresh series:\n{merged}"
    );

    // Flapping membership never panics: hammer the endpoint while the
    // dead slot lingers in the member list.
    for _ in 0..3 {
        let (status, _) = call(coord.addr.as_str(), "GET", "/metrics/cluster", "").unwrap();
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(50));
    }
}

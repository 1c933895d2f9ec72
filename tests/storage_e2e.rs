//! End-to-end tests for out-of-core graph serving (docs/STORAGE.md).
//!
//! Two guarantees get proven against the real `mpmb serve` binary:
//!
//! 1. **Eviction cannot perturb results.** A server holding two
//!    container-backed graphs under a `--mem-budget` far smaller than
//!    their sum — so every alternating request evicts one graph and
//!    re-materializes the other — answers every `os`/`mcvp`/`ols`/
//!    `ols-kl`/count request byte-identically to a server with no
//!    budget at all, and `mpmb_graph_evictions_total` proves churn
//!    actually happened.
//!
//! 2. **Crash restart re-attaches containers, not text.** After
//!    SIGKILL, a fresh process restores container-backed graphs from
//!    the checkpoint manifest alone: `/v1/graphs` reports them as
//!    `container`-backed and *not yet resident* (attach is a header
//!    read, no parse), the checkpointed partial resumes
//!    (`mpmb_checkpoint_restored_total` > 0), and the finished answer
//!    is byte-identical to an uninterrupted run.

use datasets::Dataset;
use mpmb_serve::client::call;
use mpmb_serve::json::Json;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpmb-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes two distinct datasets as container files under `dir`. The
/// pair is deliberately lopsided (a handful of edges vs. a few
/// thousand) so the eviction matrix churns between a cheap and a
/// non-trivial materialization; MovieLens is used for the big one
/// because its wedge structure keeps debug-build solves affordable
/// where Jester's skew (one hub of degree ~4000) does not.
fn write_containers(dir: &Path) -> (PathBuf, PathBuf) {
    let a = dir.join("a.ubgc");
    let b = dir.join("b.ubgc");
    bigraph::write_container_path(&Dataset::Abide.generate(0.01, 3), &a).expect("write a.ubgc");
    bigraph::write_container_path(&Dataset::MovieLens.generate(0.05, 7), &b).expect("write b.ubgc");
    (a, b)
}

/// A running `mpmb serve` subprocess; killed on drop so a failing
/// assertion never leaks a daemon.
struct ServerProc {
    child: Child,
    addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `mpmb serve` with the given extra flags and blocks until it
/// announces its ephemeral address on stderr.
fn spawn_server(extra: &[&str]) -> ServerProc {
    let mut args = vec!["serve", "--listen", "127.0.0.1:0", "--threads", "2"];
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

fn post_200(addr: &str, path: &str, body: &str) -> String {
    let (status, resp) = call(addr, "POST", path, body).expect("request");
    assert_eq!(status, 200, "{path} {body}: {resp}");
    resp
}

/// The request matrix of guarantee 1: every solver method plus count,
/// alternating between the two graphs so a small budget must thrash.
fn request_matrix() -> Vec<(&'static str, String)> {
    let mut reqs = Vec::new();
    for (method, trials, prep) in [
        ("os", 400, 1),
        ("mcvp", 150, 1),
        ("ols", 800, 60),
        ("ols-kl", 200, 60),
    ] {
        for graph in ["a", "b"] {
            reqs.push((
                "/v1/solve",
                format!(
                    "{{\"graph\":\"{graph}\",\"method\":\"{method}\",\"trials\":{trials},\
                     \"prep\":{prep},\"seed\":77,\"threads\":2}}"
                ),
            ));
        }
    }
    for graph in ["a", "b"] {
        reqs.push((
            "/v1/count",
            format!("{{\"graph\":\"{graph}\",\"trials\":200,\"seed\":77,\"threads\":2}}"),
        ));
    }
    reqs
}

#[test]
fn eviction_under_mem_budget_is_invisible_in_responses() {
    let dir = scratch_dir("storage-evict");
    let (a, b) = write_containers(&dir);
    let graph_a = format!("a={}", a.display());
    let graph_b = format!("b={}", b.display());

    // Budgeted server: 1 byte forces every request over budget, so each
    // solve evicts whatever cold graph is resident.
    let budgeted = spawn_server(&[
        "--graph",
        &graph_a,
        "--graph",
        &graph_b,
        "--mem-budget",
        "1",
    ]);
    let budgeted_answers: Vec<String> = request_matrix()
        .iter()
        .map(|(path, body)| post_200(&budgeted.addr, path, body))
        .collect();
    let evictions = fetch_metric(&budgeted.addr, "mpmb_graph_evictions_total");
    assert!(
        evictions > 0,
        "alternating two graphs under a 1-byte budget must evict (got {evictions})"
    );
    // Cross-check the other residency metric: every eviction forces a
    // later re-materialization.
    let mats = fetch_metric(&budgeted.addr, "mpmb_graph_materializations_total");
    assert!(
        mats >= evictions,
        "materializations {mats} < evictions {evictions}"
    );
    drop(budgeted);

    // Unbudgeted server: both graphs stay resident for the whole run.
    let resident = spawn_server(&["--graph", &graph_a, "--graph", &graph_b]);
    let resident_answers: Vec<String> = request_matrix()
        .iter()
        .map(|(path, body)| post_200(&resident.addr, path, body))
        .collect();
    assert_eq!(
        fetch_metric(&resident.addr, "mpmb_graph_evictions_total"),
        0,
        "no budget, no evictions"
    );
    drop(resident);

    for (i, (req, (budgeted, resident))) in request_matrix()
        .iter()
        .zip(budgeted_answers.iter().zip(&resident_answers))
        .enumerate()
    {
        assert_eq!(
            budgeted, resident,
            "request {i} ({req:?}) diverged between budgeted and unbudgeted servers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /v1/graphs` entries keyed by name.
fn graphs_by_name(addr: &str) -> Vec<(String, Json)> {
    let (status, text) = call(addr, "GET", "/v1/graphs", "").expect("GET /v1/graphs");
    assert_eq!(status, 200);
    let parsed = Json::parse(&text).unwrap();
    parsed
        .get("graphs")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|g| {
            (
                g.get("name").and_then(Json::as_str).unwrap().to_string(),
                g.clone(),
            )
        })
        .collect()
}

#[test]
fn sigkill_restart_reattaches_containers_from_the_manifest() {
    const TRIALS: u64 = 30_000;
    let dir = scratch_dir("storage-crash");
    let (a, _) = write_containers(&dir);
    let ckpt = dir.join("ckpt");
    let graph_flag = format!("g={}", a.display());
    let solve_body = format!(
        "{{\"graph\":\"g\",\"method\":\"os\",\"trials\":{TRIALS},\"seed\":33,\"threads\":2}}"
    );

    // Process 1: tight deadline interrupts the solve; the cadence
    // checkpoint captures the partial and the container-backed manifest.
    let server = spawn_server(&[
        "--graph",
        &graph_flag,
        "--timeout-ms",
        "40",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every-ms",
        "50",
    ]);
    let (status, resp) =
        call(server.addr.as_str(), "POST", "/v1/solve", &solve_body).expect("first attempt");
    assert_eq!(status, 503, "{resp}");
    let baseline = fetch_metric(&server.addr, "mpmb_checkpoint_written_total");
    let deadline = Instant::now() + Duration::from_secs(10);
    while fetch_metric(&server.addr, "mpmb_checkpoint_written_total") <= baseline {
        assert!(Instant::now() < deadline, "no checkpoint written");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(server); // SIGKILL: no drain, no shutdown snapshot.

    // Process 2: no --graph flag — the graph can only come back through
    // the checkpoint manifest, which re-attaches the container file.
    let server = spawn_server(&[
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every-ms",
        "3600000",
    ]);
    let graphs = graphs_by_name(&server.addr);
    let (_, g) = graphs
        .iter()
        .find(|(name, _)| name == "g")
        .expect("manifest graph restored");
    assert_eq!(
        g.get("backing").and_then(Json::as_str),
        Some("container"),
        "restored graph must be container-backed: {g:?}"
    );
    // Attach is a header read: nothing materialized until the solve.
    assert_eq!(g.get("resident"), Some(&Json::Bool(false)), "{g:?}");
    assert!(
        fetch_metric(&server.addr, "mpmb_checkpoint_restored_total") >= 1,
        "restart must restore the checkpointed partial"
    );
    let mut recovered = None;
    for _ in 0..2_000 {
        let (status, resp) =
            call(server.addr.as_str(), "POST", "/v1/solve", &solve_body).expect("resume");
        match status {
            503 => continue,
            200 => {
                recovered = Some(resp);
                break;
            }
            other => panic!("unexpected status {other}: {resp}"),
        }
    }
    let recovered = recovered.expect("solve never completed");
    drop(server);

    // Clean room: same request, no crash, no deadline.
    let clean = spawn_server(&["--graph", &graph_flag]);
    let uninterrupted = post_200(&clean.addr, "/v1/solve", &solve_body);
    assert_eq!(
        recovered, uninterrupted,
        "answer resumed across the crash must match an uninterrupted run byte-for-byte"
    );
    drop(clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `VmHWM` of process `pid`, in bytes.
#[cfg(target_os = "linux")]
fn peak_resident_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    memtrack::vm_hwm_bytes(&status).expect("VmHWM line")
}

/// Materializing a container must not hold the file's bytes resident
/// beside the decoded graph: the first solve (which materializes)
/// raises the server's peak resident set by less than the graph's own
/// `resident_bytes` plus a quarter of the container's size. Reading
/// the whole file into memory (or touching every page of a mapping of
/// it) while the arrays are decoded costs the full container size on
/// top of the graph.
#[cfg(target_os = "linux")]
#[test]
fn first_materialize_peak_stays_near_the_graph_size() {
    let dir = scratch_dir("storage-peak");
    let path = dir.join("protein.ubgc");
    bigraph::write_container_path(&Dataset::Protein.generate(0.01, 7), &path)
        .expect("write protein.ubgc");
    let container_bytes = std::fs::metadata(&path).unwrap().len();
    let server = spawn_server(&["--graph", &format!("p={}", path.display())]);
    let pid = server.child.id();

    let before = peak_resident_bytes(pid);
    post_200(
        &server.addr,
        "/v1/solve",
        r#"{"graph":"p","method":"fast","trials":100,"seed":1}"#,
    );
    let grown = peak_resident_bytes(pid).saturating_sub(before);
    let (_, graph) = graphs_by_name(&server.addr)
        .into_iter()
        .find(|(name, _)| name == "p")
        .expect("graph p listed");
    assert!(matches!(graph.get("resident"), Some(Json::Bool(true))));
    let resident = graph.get("resident_bytes").and_then(Json::as_u64).unwrap();
    let bound = resident + container_bytes / 4;
    assert!(
        grown < bound,
        "first materialize grew the peak by {grown} bytes; bound {bound} \
         (resident_bytes {resident} + container {container_bytes} / 4)"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

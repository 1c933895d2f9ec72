//! End-to-end tests of the `mpmb-serve` daemon: concurrency with
//! bit-for-bit result fidelity, cache hits observed through `/metrics`,
//! deadline 503s, and SIGTERM draining.
//!
//! Servers bind ephemeral ports (`127.0.0.1:0`). The SIGTERM test
//! latches a process-global flag that every server instance observes
//! (and its handler shuts down every live listener), so all tests
//! serialize on one mutex and clear the latch up front.

mod common;

use common::os_engine;
use mpmb_core::{Cancel, Executor};
use mpmb_serve::client::{call, call_ext};
use mpmb_serve::json::Json;
use mpmb_serve::{signal, RetryPolicy, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::Duration;

/// Serializes the tests: the SIGTERM latch is process-global.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let m = GUARD.get_or_init(|| Mutex::new(()));
    let guard = m.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    guard
}

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.addr.to_string();
    (server, addr)
}

fn default_cfg() -> ServerConfig {
    ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        threads: 8,
        queue: 64,
        timeout_ms: 0,
        cache_capacity: 64,
        max_solver_threads: 0,
        ..ServerConfig::default()
    }
}

/// The graph every test registers: tiny, deterministic, non-trivial.
const GRAPH_SPEC: &str = "dataset:abide:0.01:3";

fn register_graph(addr: &str) {
    let (status, body) = call(
        addr,
        "POST",
        "/v1/graphs",
        &format!("{{\"name\":\"g\",\"spec\":\"{GRAPH_SPEC}\"}}"),
    )
    .expect("register graph");
    assert_eq!(status, 200, "register failed: {body}");
}

fn reference_graph() -> bigraph::UncertainBipartiteGraph {
    datasets::Dataset::Abide.generate(0.01, 3)
}

fn metric_value(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric `{name}` missing:\n{metrics_text}"))
}

#[test]
fn concurrent_solves_match_direct_calls_bit_for_bit() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);
    let g = reference_graph();

    // 32 clients fire simultaneously: 8 are in service, the rest sit in
    // the accept queue — all 32 in flight at once.
    const CLIENTS: u64 = 32;
    const TRIALS: u64 = 400;
    let barrier = Barrier::new(CLIENTS as usize);
    let responses: Vec<(u64, u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (barrier, addr) = (&barrier, addr.as_str());
                scope.spawn(move || {
                    let seed = 1_000 + i;
                    let body = format!(
                        "{{\"graph\":\"g\",\"method\":\"os\",\"trials\":{TRIALS},\"seed\":{seed},\"k\":3}}"
                    );
                    barrier.wait();
                    let (status, resp) = call(addr, "POST", "/v1/solve", &body).expect("solve");
                    (seed, status, resp)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (seed, status, resp) in responses {
        assert_eq!(status, 200, "seed {seed}: {resp}");
        let json = Json::parse(&resp).expect("valid JSON");
        assert_eq!(json.get("trials_done").and_then(Json::as_u64), Some(TRIALS));

        // A direct engine run with the same parameters.
        let direct = os_engine(&g, TRIALS, seed);
        assert_eq!(
            json.get("support").and_then(Json::as_u64),
            Some(direct.len() as u64),
            "seed {seed}"
        );
        let (db, dp) = direct.mpmb().expect("non-empty distribution");
        let mpmb = json.get("mpmb").expect("mpmb field");
        // Rust renders f64 shortest-roundtrip, so parse-back equality is
        // bit equality.
        let served_p = mpmb.get("prob").and_then(Json::as_f64).unwrap();
        assert_eq!(served_p.to_bits(), dp.to_bits(), "seed {seed}");
        let ids: Vec<u64> = mpmb
            .get("butterfly")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(
            ids,
            vec![
                db.u1.0 as u64,
                db.u2.0 as u64,
                db.v1.0 as u64,
                db.v2.0 as u64
            ],
            "seed {seed}"
        );
        // Top-3 probabilities match bit-for-bit too.
        let top = json.get("top").and_then(Json::as_arr).unwrap();
        let direct_top = direct.top_k(3);
        assert_eq!(top.len(), direct_top.len());
        for (served, (_, p)) in top.iter().zip(&direct_top) {
            let sp = served.get("prob").and_then(Json::as_f64).unwrap();
            assert_eq!(sp.to_bits(), p.to_bits(), "seed {seed}");
        }
    }

    // The query endpoint matches its engine bit-for-bit as well.
    let b = reference_graph();
    let some_bf = mpmb_core::enumerate_backbone_butterflies(&b)
        .into_iter()
        .next()
        .expect("graph has butterflies");
    let body = format!(
        "{{\"graph\":\"g\",\"butterfly\":[{},{},{},{}],\"trials\":500,\"seed\":7}}",
        some_bf.u1.0, some_bf.u2.0, some_bf.v1.0, some_bf.v2.0
    );
    let (status, resp) = call(addr.as_str(), "POST", "/v1/query", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    let query = mpmb_core::QueryTrials::new(&g, &some_bf, 7).unwrap();
    let direct = query.finalize(Executor::new(1).run(&query, 500, &Cancel::never()).acc, 500);
    assert_eq!(
        json.get("prob").and_then(Json::as_f64).unwrap().to_bits(),
        direct.prob.to_bits()
    );

    server.begin_shutdown();
    server.join();
}

#[test]
fn repeated_request_hits_cache_observed_via_metrics() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    let body = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":300,\"seed\":42}";
    let (s1, r1) = call(addr.as_str(), "POST", "/v1/solve", body).unwrap();
    let (s2, r2) = call(addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(r1, r2, "cached replay must be byte-identical");

    let (ms, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(ms, 200);
    assert_eq!(metric_value(&metrics, "mpmb_cache_hits_total"), 1);
    assert_eq!(metric_value(&metrics, "mpmb_cache_misses_total"), 1);
    // Only the miss executed trials.
    assert_eq!(metric_value(&metrics, "mpmb_trials_executed_total"), 300);

    // A different seed is a different key: no new hit.
    let body2 = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":300,\"seed\":43}";
    let (s3, _) = call(addr.as_str(), "POST", "/v1/solve", body2).unwrap();
    assert_eq!(s3, 200);
    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(metric_value(&metrics, "mpmb_cache_hits_total"), 1);
    assert_eq!(metric_value(&metrics, "mpmb_cache_misses_total"), 2);

    server.begin_shutdown();
    server.join();
}

#[test]
fn over_deadline_solve_returns_503_and_server_survives() {
    let _guard = lock();
    let cfg = ServerConfig {
        timeout_ms: 50,
        ..default_cfg()
    };
    let (server, addr) = start(cfg);
    register_graph(&addr);

    // Hundreds of millions of trials cannot finish in 50 ms; the workers
    // notice the deadline and return a partial count.
    let body = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":200000000,\"seed\":1,\"threads\":2}";
    let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!(status, 503, "{resp}");
    let json = Json::parse(&resp).unwrap();
    assert_eq!(
        json.get("error").and_then(Json::as_str),
        Some("deadline exceeded")
    );
    let done = json.get("trials_done").and_then(Json::as_u64).unwrap();
    assert!(done < 200_000_000, "partial count expected, got {done}");
    assert_eq!(
        json.get("trials_requested").and_then(Json::as_u64),
        Some(200_000_000)
    );

    // The server is still healthy and still answers normal requests.
    let (hs, hb) = call(addr.as_str(), "GET", "/healthz", "").unwrap();
    assert_eq!(hs, 200, "{hb}");
    let (ss, _) = call(
        addr.as_str(),
        "POST",
        "/v1/solve",
        "{\"graph\":\"g\",\"method\":\"os\",\"trials\":100,\"seed\":2}",
    )
    .unwrap();
    assert_eq!(ss, 200);
    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(metric_value(&metrics, "mpmb_deadline_exceeded_total"), 1);

    server.begin_shutdown();
    server.join();
}

#[test]
fn timed_out_solve_is_refined_across_requests_to_the_exact_answer() {
    let _guard = lock();
    let cfg = ServerConfig {
        timeout_ms: 40,
        ..default_cfg()
    };
    let (server, addr) = start(cfg);
    register_graph(&addr);

    // Too many trials for one 40 ms deadline: the first request 503s and
    // caches its partial; every repeat resumes it with a fresh deadline
    // until the run completes. Progress must be monotone and no trial
    // may ever run twice.
    const TRIALS: u64 = 30_000;
    let body = format!(
        "{{\"graph\":\"g\",\"method\":\"os\",\"trials\":{TRIALS},\"seed\":11,\"threads\":2}}"
    );
    let mut last_done = 0u64;
    let mut attempts = 0u32;
    let final_resp = loop {
        attempts += 1;
        assert!(
            attempts <= 2_000,
            "solve never completed; stuck at {last_done}/{TRIALS}"
        );
        let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", &body).unwrap();
        let json = Json::parse(&resp).unwrap();
        let done = json.get("trials_done").and_then(Json::as_u64).unwrap();
        assert!(
            done >= last_done,
            "progress went backwards: {done} < {last_done}"
        );
        last_done = done;
        match status {
            503 => continue,
            200 => break resp,
            other => panic!("unexpected status {other}: {resp}"),
        }
    };
    assert!(
        attempts > 1,
        "deadline never fired; timeout_ms too generous"
    );

    // The refined answer equals one uninterrupted engine run, bitwise.
    let json = Json::parse(&final_resp).unwrap();
    assert_eq!(json.get("trials_done").and_then(Json::as_u64), Some(TRIALS));
    let g = reference_graph();
    let direct = os_engine(&g, TRIALS, 11);
    let (_, dp) = direct.mpmb().expect("non-empty distribution");
    let served_p = json
        .get("mpmb")
        .and_then(|m| m.get("prob"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(
        served_p.to_bits(),
        dp.to_bits(),
        "refined answer must match the uninterrupted run bit-for-bit"
    );

    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert!(metric_value(&metrics, "mpmb_cache_refined_total") >= 1);
    assert!(metric_value(&metrics, "mpmb_deadline_exceeded_total") >= 1);
    assert_eq!(
        metric_value(&metrics, "mpmb_trials_executed_total"),
        TRIALS,
        "resumes must never re-execute a trial"
    );

    // A repeat is now a pure cache hit, byte-identical.
    let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(resp, final_resp);

    server.begin_shutdown();
    server.join();
}

#[test]
fn fast_tier_answers_within_a_deadline_that_503s_os_and_escalates_to_exact() {
    let _guard = lock();
    // Container-backed graph: the fast tier has to work against the
    // mmap-served storage path, not just in-memory registrations.
    let dir = scratch_dir("fast-tier");
    let container = dir.join("g.ubgc");
    let g = reference_graph();
    bigraph::write_container_path(&g, &container).expect("write container");
    // Size the trial budget from this host's own trial rates on the same
    // graph, so the test holds on a slow debug build as on a fast one.
    // The budget sits at the geometric middle of the window between
    // "fast finishes inside the deadline" and "os does not": fast needs
    // 1/m of the deadline and os m deadlines, with m = √(fast/os rate).
    // On this tiny graph fast runs only ~4× os in a debug build (~7× in
    // release; the tier's gain grows with the graph), so m ≈ 2; the
    // 200 ms deadline keeps per-request overhead small beside it.
    let os_rate = trials_per_second(|trials| {
        os_engine(&g, trials, 7);
    });
    let fast_rate = trials_per_second(|trials| {
        let engine = mpmb_core::SublinearTrials::new(&g, 7);
        let partial = Executor::new(1).run(&engine, trials, &Cancel::never());
        engine.finalize(partial.acc, 0.05);
    });
    assert!(
        fast_rate >= 2.0 * os_rate,
        "fast ({fast_rate:.0}/s) must run well ahead of os ({os_rate:.0}/s)"
    );
    let timeout_ms: u64 = 200;
    // Upper-case like the fixed budgets of the other tests.
    #[allow(non_snake_case)]
    let TRIALS = (timeout_ms as f64 / 1e3 * (os_rate * fast_rate).sqrt()).ceil() as u64;
    let cfg = ServerConfig {
        timeout_ms,
        fast_escalate: true,
        ..default_cfg()
    };
    let (server, addr) = start(cfg);
    let (status, body) = call(
        addr.as_str(),
        "POST",
        "/v1/graphs",
        &format!("{{\"name\":\"g\",\"path\":\"{}\"}}", container.display()),
    )
    .unwrap();
    assert_eq!(status, 200, "container register failed: {body}");

    // The exact tier cannot finish this budget inside one deadline —
    // its first attempt 503s with a cached partial.
    let os_body = format!("{{\"graph\":\"g\",\"method\":\"os\",\"trials\":{TRIALS},\"seed\":7}}");
    let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", &os_body).unwrap();
    assert_eq!(status, 503, "os should blow the deadline: {resp}");

    // The fast tier answers the same trial budget within the same
    // deadline, and its CI covers the closed-form expected count. The
    // tiny epsilon guarantees the certified error misses the target,
    // so the answer escalates: the cached os partial advances with the
    // request's remaining deadline.
    let fast_body = format!(
        "{{\"graph\":\"g\",\"method\":\"fast\",\"trials\":{TRIALS},\"seed\":7,\"epsilon\":0.0001}}"
    );
    let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", &fast_body).unwrap();
    assert_eq!(
        status, 200,
        "fast should answer within the deadline: {resp}"
    );
    let json = Json::parse(&resp).unwrap();
    let exact = bigraph::expected::expected_butterfly_count(&reference_graph());
    let lo = json.get("ci_low").and_then(Json::as_f64).unwrap();
    let hi = json.get("ci_high").and_then(Json::as_f64).unwrap();
    assert!(
        lo <= exact && exact <= hi,
        "CI [{lo}, {hi}] misses the exact count {exact}"
    );
    let rel = json.get("relative_error").and_then(Json::as_f64).unwrap();
    assert!(rel.is_finite(), "relative_error must be JSON-finite: {rel}");
    assert!(
        matches!(json.get("escalated"), Some(Json::Bool(true))),
        "{resp}"
    );

    // A fast repeat is a pure cache hit, byte-identical.
    let (status, replay) = call(addr.as_str(), "POST", "/v1/solve", &fast_body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(replay, resp);

    // method=os retries refine the escalation-advanced partial to
    // completion. The final body must match an uninterrupted library
    // run bit-for-bit — escalation changed *when* trials ran, never
    // what they computed.
    let mut attempts = 0u32;
    let final_os = loop {
        attempts += 1;
        assert!(attempts <= 2_000, "os refinement never completed");
        let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", &os_body).unwrap();
        match status {
            503 => continue,
            200 => break resp,
            other => panic!("unexpected status {other}: {resp}"),
        }
    };
    let json = Json::parse(&final_os).unwrap();
    assert_eq!(json.get("trials_done").and_then(Json::as_u64), Some(TRIALS));
    let direct = os_engine(&reference_graph(), TRIALS, 7);
    let (_, dp) = direct.mpmb().expect("non-empty distribution");
    let served = json
        .get("mpmb")
        .and_then(|m| m.get("prob"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(
        served.to_bits(),
        dp.to_bits(),
        "escalated os answer must be bit-identical to a direct run"
    );

    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(metric_value(&metrics, "mpmb_fast_requests_total"), 1);
    assert_eq!(metric_value(&metrics, "mpmb_fast_escalations_total"), 1);
    assert_eq!(metric_value(&metrics, "mpmb_fast_relative_error_count"), 1);
    assert_eq!(
        metric_value(&metrics, "mpmb_trials_executed_total"),
        2 * TRIALS,
        "fast {TRIALS} + os {TRIALS}; resumes must never re-execute a trial"
    );

    server.begin_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sequential trials per second of `run(trials)` on this host, timed
/// over a run long enough (≥ 50 ms) to swamp timer resolution.
fn trials_per_second(mut run: impl FnMut(u64)) -> f64 {
    let mut trials = 1_000;
    loop {
        let t0 = std::time::Instant::now();
        run(trials);
        let secs = t0.elapsed().as_secs_f64();
        if secs >= 0.05 {
            return trials as f64 / secs;
        }
        trials *= 4;
    }
}

#[test]
fn count_fast_covers_the_closed_form_and_replays_from_cache() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    let body = "{\"graph\":\"g\",\"method\":\"fast\",\"trials\":20000,\"seed\":7,\"delta\":0.05}";
    let (status, resp) = call(addr.as_str(), "POST", "/v1/count", body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    let exact = bigraph::expected::expected_butterfly_count(&reference_graph());
    let lo = json.get("ci_low").and_then(Json::as_f64).unwrap();
    let hi = json.get("ci_high").and_then(Json::as_f64).unwrap();
    assert!(
        lo <= exact && exact <= hi,
        "CI [{lo}, {hi}] misses the exact count {exact}"
    );
    assert_eq!(json.get("trials_done").and_then(Json::as_u64), Some(20_000));

    // The estimate equals a direct engine run bit-for-bit, and a repeat
    // replays the cached body.
    let g = reference_graph();
    let engine = mpmb_core::SublinearTrials::new(&g, 7);
    let direct = engine.finalize(
        Executor::new(2).run(&engine, 20_000, &Cancel::never()).acc,
        0.05,
    );
    let served = json.get("estimate").and_then(Json::as_f64).unwrap();
    assert_eq!(served.to_bits(), direct.estimate.to_bits());
    let (status, replay) = call(addr.as_str(), "POST", "/v1/count", body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(replay, resp);

    // An unknown method is rejected, not silently defaulted.
    let (status, resp) = call(
        addr.as_str(),
        "POST",
        "/v1/count",
        "{\"graph\":\"g\",\"method\":\"bogus\",\"trials\":100}",
    )
    .unwrap();
    assert_eq!(status, 400, "{resp}");

    server.begin_shutdown();
    server.join();
}

/// A present request field that is not a valid value is a 400 naming
/// the field, never silently read as absent (which would answer with
/// the default seed, trial count or method).
#[test]
fn invalid_request_fields_are_rejected_not_defaulted() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    // (endpoint, the field at fault, the body's fields after `graph`).
    let cases: &[(&str, &str, &str)] = &[
        ("/v1/solve", "seed", r#""seed":-1"#),
        ("/v1/solve", "seed", r#""seed":1.5"#),
        ("/v1/solve", "seed", r#""seed":"42""#),
        ("/v1/solve", "seed", r#""seed":null"#),
        // f64 reads 2^53 + 1 as 2^53: neither may be accepted.
        ("/v1/solve", "seed", r#""seed":9007199254740992"#),
        ("/v1/solve", "seed", r#""seed":9007199254740993"#),
        ("/v1/solve", "trials", r#""trials":"100""#),
        ("/v1/solve", "prep", r#""method":"ols","prep":-5"#),
        ("/v1/solve", "method", r#""method":7"#),
        ("/v1/solve", "threads", r#""threads":"2""#),
        ("/v1/solve", "max_shared", r#""max_shared":true"#),
        (
            "/v1/solve",
            "epsilon",
            r#""method":"fast","epsilon":"tight""#,
        ),
        ("/v1/topk", "k", r#""k":2.5"#),
        ("/v1/count", "trials", r#""trials":[100]"#),
        ("/v1/count", "delta", r#""method":"fast","delta":"0.1""#),
        ("/v1/query", "seed", r#""butterfly":[0,1,0,1],"seed":{}"#),
    ];
    for (path, field, fields) in cases {
        let body = format!(r#"{{"graph":"g",{fields}}}"#);
        let (status, resp) = call(addr.as_str(), "POST", path, &body).unwrap();
        assert_eq!(status, 400, "{path} {body}: {resp}");
        assert!(
            resp.contains(&format!("`{field}`")),
            "{path} {body}: error does not name the field: {resp}"
        );
    }

    // The largest seed f64 keeps apart from its neighbours still works.
    let body = "{\"graph\":\"g\",\"trials\":100,\"seed\":9007199254740991}";
    let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let echoed = Json::parse(&resp)
        .unwrap()
        .get("seed")
        .and_then(Json::as_u64);
    assert_eq!(echoed, Some(9_007_199_254_740_991));

    server.begin_shutdown();
    server.join();
}

/// Graph registration follows the same rule: a present but invalid
/// `seed` or `scale` is a 400 naming the field (not the default graph
/// with a 200), and a malformed `container_checksum` is a 400 instead
/// of being replaced by the file's own checksum, which defeats the pin.
#[test]
fn invalid_registration_fields_are_rejected_not_defaulted() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    let dir = scratch_dir("bad-registration");
    let container = dir.join("g.ubgc");
    bigraph::storage::write_container_path(&reference_graph(), &container).unwrap();

    let dataset = r#""dataset":"abide""#;
    let path = format!(r#""path":"{}""#, container.display());
    // (the field at fault, the body's fields after `name`).
    let cases: Vec<(&str, String)> = vec![
        ("seed", format!(r#"{dataset},"seed":"7""#)),
        ("seed", format!(r#"{dataset},"seed":-1"#)),
        ("seed", format!(r#"{dataset},"seed":1.5"#)),
        ("scale", format!(r#"{dataset},"scale":"big""#)),
        (
            "container_checksum",
            format!(r#"{path},"container_checksum":"zz""#),
        ),
        (
            "container_checksum",
            format!(r#"{path},"container_checksum":7"#),
        ),
    ];
    for (i, (field, fields)) in cases.iter().enumerate() {
        let body = format!(r#"{{"name":"bad{i}",{fields}}}"#);
        let (status, resp) = call(addr.as_str(), "POST", "/v1/graphs", &body).unwrap();
        assert_eq!(status, 400, "{body}: {resp}");
        assert!(
            resp.contains(&format!("`{field}`")),
            "{body}: error does not name the field: {resp}"
        );
    }
    // Nothing was registered along the way.
    let (_, list) = call(addr.as_str(), "GET", "/v1/graphs", "").unwrap();
    assert!(!list.contains("bad"), "{list}");

    // The valid forms of the same fields still register.
    let body = r#"{"name":"ok","dataset":"abide","scale":0.01,"seed":3}"#;
    let (status, resp) = call(addr.as_str(), "POST", "/v1/graphs", body).unwrap();
    assert_eq!(status, 200, "{resp}");

    server.begin_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_in_flight_request_then_exits() {
    let _guard = lock();
    signal::install();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    // A solve sized to run for a couple of seconds on one core.
    let slow = std::thread::spawn({
        let addr = addr.clone();
        move || {
            call(
                addr.as_str(),
                "POST",
                "/v1/solve",
                "{\"graph\":\"g\",\"method\":\"os\",\"trials\":3000000,\"seed\":9}",
            )
        }
    });
    // Let the request reach a worker, then deliver a real SIGTERM.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let status = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success());

    // The in-flight request completes with a full answer…
    let (status, resp) = slow.join().unwrap().expect("in-flight request answered");
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    assert_eq!(
        json.get("trials_done").and_then(Json::as_u64),
        Some(3_000_000)
    );
    // …and the pool drains: join() returns instead of hanging.
    server.join();

    // The listener is gone — new connections are refused.
    assert!(std::net::TcpStream::connect(addr.as_str()).is_err());
    signal::reset();
}

#[test]
fn fresh_connections_are_served_without_an_accept_poll() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    // Each `call` opens a new `Connection: close` socket, so every round
    // trip goes through `accept`. A 50 ms accept poll would cost about
    // 50 × 50 ms = 2.5 s here; a blocking accept costs next to nothing.
    const ROUND_TRIPS: u32 = 50;
    let t0 = std::time::Instant::now();
    for _ in 0..ROUND_TRIPS {
        let (status, body) = call(addr.as_str(), "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200, "{body}");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "{ROUND_TRIPS} fresh-connection round trips took {elapsed:?}"
    );
    server.begin_shutdown();
    server.join();
}

#[test]
fn admin_shutdown_wakes_an_idle_server() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    let (status, body) = call(addr.as_str(), "POST", "/admin/shutdown", "").unwrap();
    assert_eq!(status, 202, "{body}");
    // No further connection arrives to unblock `accept`: the drain
    // itself must wake the accept thread, or this join hangs.
    server.join();
    assert!(std::net::TcpStream::connect(addr.as_str()).is_err());
}

#[test]
fn threads_above_cap_get_400_with_cap_in_body() {
    let _guard = lock();
    let cfg = ServerConfig {
        max_solver_threads: 4,
        ..default_cfg()
    };
    let (server, addr) = start(cfg);
    register_graph(&addr);

    // The cap is advertised in the graph listing.
    let (status, resp) = call(addr.as_str(), "GET", "/v1/graphs", "").unwrap();
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    assert_eq!(json.get("max_threads").and_then(Json::as_u64), Some(4));

    // At the cap: accepted, for every endpoint that takes `threads`.
    for (path, body) in [
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"ols\",\"trials\":200,\"prep\":20,\"threads\":4}",
        ),
        (
            "/v1/count",
            "{\"graph\":\"g\",\"trials\":100,\"threads\":4}",
        ),
    ] {
        let (status, resp) = call(addr.as_str(), "POST", path, body).unwrap();
        assert_eq!(status, 200, "{path}: {resp}");
    }

    // Above the cap (or zero): rejected with the cap in the error body.
    for (path, body, requested) in [
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"os\",\"trials\":100,\"threads\":5}",
            Some(5),
        ),
        (
            "/v1/topk",
            "{\"graph\":\"g\",\"method\":\"os\",\"trials\":100,\"threads\":1000000}",
            Some(1_000_000),
        ),
        (
            "/v1/count",
            "{\"graph\":\"g\",\"trials\":100,\"threads\":5}",
            Some(5),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"os\",\"trials\":100,\"threads\":0}",
            None,
        ),
    ] {
        let (status, resp) = call(addr.as_str(), "POST", path, body).unwrap();
        assert_eq!(status, 400, "{path} {body}: {resp}");
        let json = Json::parse(&resp).unwrap();
        assert_eq!(json.get("max_threads").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("requested").and_then(Json::as_u64), requested);
    }

    server.begin_shutdown();
    server.join();
}

#[test]
fn default_cap_is_worker_pool_size_and_parallel_results_match() {
    let _guard = lock();
    // max_solver_threads: 0 resolves to the pool size (8 here).
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    let (status, resp) = call(addr.as_str(), "GET", "/v1/graphs", "").unwrap();
    assert_eq!(status, 200);
    let json = Json::parse(&resp).unwrap();
    assert_eq!(json.get("max_threads").and_then(Json::as_u64), Some(8));

    // Same request at 1 and 8 threads: byte-identical responses (the
    // cache key ignores threads precisely because of this).
    let r1 = call(
        addr.as_str(),
        "POST",
        "/v1/solve",
        "{\"graph\":\"g\",\"method\":\"mcvp\",\"trials\":301,\"seed\":6,\"threads\":1}",
    )
    .unwrap();
    assert_eq!(r1.0, 200, "{}", r1.1);
    // Evict nothing — but bypass the cache by restarting it: simplest is
    // to compare against a direct engine run instead.
    let g = reference_graph();
    let direct = Executor::new(8)
        .run(&mpmb_core::McVpTrials::new(&g, 6), 301, &Cancel::never())
        .acc
        .into_distribution();
    let json = Json::parse(&r1.1).unwrap();
    let (_, dp) = direct.mpmb().expect("non-empty");
    let served_p = json
        .get("mpmb")
        .and_then(|m| m.get("prob"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(served_p.to_bits(), dp.to_bits());

    server.begin_shutdown();
    server.join();
}

#[test]
fn unknown_graph_and_bad_requests_are_4xx() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    let cases = [
        (
            "POST",
            "/v1/solve",
            "{\"graph\":\"nope\",\"trials\":10}",
            404,
        ),
        ("POST", "/v1/solve", "not json", 400),
        (
            "POST",
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"bogus\"}",
            400,
        ),
        ("POST", "/v1/solve", "{\"graph\":\"g\",\"trials\":0}", 400),
        ("GET", "/v1/nope", "", 404),
        ("DELETE", "/v1/solve", "", 405),
        (
            "POST",
            "/v1/query",
            "{\"graph\":\"g\",\"butterfly\":[1,1,2,3]}",
            400,
        ),
        (
            "POST",
            "/v1/graphs",
            "{\"name\":\"g\",\"spec\":\"dataset:abide:0.01\"}",
            409,
        ),
        (
            "POST",
            "/v1/graphs",
            "{\"name\":\"x\",\"spec\":\"dataset:zzz\"}",
            400,
        ),
    ];
    for (method, path, body, expected) in cases {
        let (status, resp) = call(addr.as_str(), method, path, body).unwrap();
        assert_eq!(status, expected, "{method} {path} {body}: {resp}");
    }

    server.begin_shutdown();
    server.join();
}

/// A ~200 KB `[[[[…` body would recurse an uncapped JSON parser off the
/// end of a worker thread's stack — an abort no `catch_unwind` can
/// stop. It must be an ordinary 400, and the server must keep serving.
#[test]
fn deeply_nested_json_is_a_400_not_a_crash() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    let nested = "[".repeat(200_000);
    for path in ["/v1/solve", "/v1/graphs"] {
        let (status, resp) = call(addr.as_str(), "POST", path, &nested).unwrap();
        assert_eq!(status, 400, "{path}: {resp}");
    }

    let (status, resp) = call(addr.as_str(), "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{resp}");
    let (status, resp) = call(
        addr.as_str(),
        "POST",
        "/v1/solve",
        "{\"graph\":\"g\",\"method\":\"os\",\"trials\":300,\"seed\":5}",
    )
    .unwrap();
    assert_eq!(status, 200, "{resp}");

    server.begin_shutdown();
    server.join();
}

#[test]
fn request_ids_are_echoed_and_minted() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    // A client-supplied X-Request-Id is honored and echoed verbatim.
    let body = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":100,\"seed\":42}";
    let (status, headers, _) = call_ext(
        addr.as_str(),
        "POST",
        "/v1/solve",
        body,
        &[("X-Request-Id", "trace-test-42")],
    )
    .unwrap();
    assert_eq!(status, 200);
    let echoed = headers
        .iter()
        .find(|(k, _)| k == "x-request-id")
        .map(|(_, v)| v.as_str());
    assert_eq!(echoed, Some("trace-test-42"));

    // Without one, the server mints a non-empty id.
    let (status, headers, _) = call_ext(addr.as_str(), "GET", "/healthz", "", &[]).unwrap();
    assert_eq!(status, 200);
    let minted = headers
        .iter()
        .find(|(k, _)| k == "x-request-id")
        .map(|(_, v)| v.as_str())
        .expect("server mints an id when none is supplied");
    assert!(!minted.is_empty());

    server.begin_shutdown();
    server.join();
}

#[test]
fn debug_trace_records_solve_summaries_with_phases() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());
    register_graph(&addr);

    let body = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":200,\"seed\":9}";
    let (status, _, _) = call_ext(
        addr.as_str(),
        "POST",
        "/v1/solve",
        body,
        &[("X-Request-Id", "debug-trace-probe")],
    )
    .unwrap();
    assert_eq!(status, 200);

    let (status, resp) = call(addr.as_str(), "GET", "/debug/trace", "").unwrap();
    assert_eq!(status, 200, "{resp}");
    let json = Json::parse(&resp).unwrap();
    assert!(json.get("count").and_then(Json::as_u64).unwrap() >= 1);
    let traces = json.get("traces").and_then(Json::as_arr).unwrap();
    let entry = traces
        .iter()
        .find(|t| t.get("trace_id").and_then(Json::as_str) == Some("debug-trace-probe"))
        .expect("solve summary retained in the ring");
    assert_eq!(entry.get("graph").and_then(Json::as_str), Some("g"));
    assert_eq!(
        entry.get("endpoint").and_then(Json::as_str),
        Some("/v1/solve")
    );
    assert_eq!(entry.get("status").and_then(Json::as_u64), Some(200));
    // The solve ran under a request-scoped profile: phase timings exist.
    match entry.get("phases").expect("phases object") {
        Json::Obj(phases) => assert!(
            !phases.is_empty(),
            "solve summary should carry at least one phase"
        ),
        other => panic!("phases should be an object, got {other:?}"),
    }

    // The graph filter matches and excludes.
    let (status, resp) = call(addr.as_str(), "GET", "/debug/trace?graph=g", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        Json::parse(&resp)
            .unwrap()
            .get("count")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );
    let (status, resp) = call(addr.as_str(), "GET", "/debug/trace?graph=absent", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&resp)
            .unwrap()
            .get("count")
            .and_then(Json::as_u64),
        Some(0)
    );

    server.begin_shutdown();
    server.join();
}

/// A scratch directory under the system temp dir, empty on return.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpmb-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Reads one HTTP response off a raw stream: `(status, lowercased
/// header block, body)`, or `None` on immediate EOF.
fn read_raw_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, String, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split(' ').nth(1)?.parse().ok()?;
    let mut headers = String::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).ok()?;
        let trimmed = h.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
        headers.push_str(&trimmed.to_ascii_lowercase());
        headers.push('\n');
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, headers, String::from_utf8(body).ok()?))
}

#[test]
fn http10_closes_by_default_and_keep_alive_is_honored() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());

    // Bare HTTP/1.0: answered, then the server closes the connection —
    // read_to_string returning at all proves the close happened.
    let mut s = TcpStream::connect(addr.as_str()).unwrap();
    s.write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.to_ascii_lowercase().contains("connection: close"),
        "{raw}"
    );
    drop(s);

    // HTTP/1.0 with an explicit `Connection: keep-alive` opt-in: two
    // requests ride one socket.
    let s = TcpStream::connect(addr.as_str()).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut s = s;
    for i in 0..2 {
        s.write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let (status, headers, _) = read_raw_response(&mut reader)
            .unwrap_or_else(|| panic!("keep-alive request {i} went unanswered"));
        assert_eq!(status, 200);
        assert!(headers.contains("connection: keep-alive"), "{headers}");
    }
    drop((s, reader));

    // HTTP/1.1 still defaults to keep-alive with no Connection header.
    let s = TcpStream::connect(addr.as_str()).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut s = s;
    for _ in 0..2 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (status, headers, _) =
            read_raw_response(&mut reader).expect("HTTP/1.1 default keep-alive reply");
        assert_eq!(status, 200);
        assert!(headers.contains("connection: keep-alive"), "{headers}");
    }
    drop((s, reader));

    server.begin_shutdown();
    server.join();
}

#[test]
fn oversized_request_head_is_cut_off_with_431() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());

    let mut s = TcpStream::connect(addr.as_str()).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    // One endless header line, sent in paced chunks so the server's
    // budget accounting drains each chunk fully. The fourth chunk tips
    // the cumulative head past 16 KiB, and the 431 must fire *mid-line*
    // — before the attacker ever supplies a newline.
    let chunk = vec![b'x'; 4096];
    for _ in 0..4 {
        s.write_all(&chunk).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 431"), "{raw}");
    assert!(raw.contains("request head too large"), "{raw}");
    drop(s);

    // The server shrugged it off.
    let (hs, _) = call(addr.as_str(), "GET", "/healthz", "").unwrap();
    assert_eq!(hs, 200);

    server.begin_shutdown();
    server.join();
}

#[test]
fn conflicting_content_length_is_rejected_but_agreeing_duplicates_pass() {
    let _guard = lock();
    let (server, addr) = start(default_cfg());

    // Two different Content-Length values: the smuggling vector. The
    // body is deliberately not sent — the reject must come from the
    // headers alone.
    let mut s = TcpStream::connect(addr.as_str()).unwrap();
    s.write_all(
        b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\n",
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("conflicting Content-Length"), "{raw}");
    drop(s);

    // Duplicates that agree are harmless.
    let mut s = TcpStream::connect(addr.as_str()).unwrap();
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    drop(s);

    server.begin_shutdown();
    server.join();
}

#[test]
fn shed_and_deadline_responses_carry_retry_after() {
    let _guard = lock();

    // 503 deadline: `Retry-After: 0` — the partial was cached, so an
    // immediate retry refines rather than restarts.
    let cfg = ServerConfig {
        timeout_ms: 40,
        ..default_cfg()
    };
    let (server, addr) = start(cfg);
    register_graph(&addr);
    let (status, headers, _) = call_ext(
        addr.as_str(),
        "POST",
        "/v1/solve",
        "{\"graph\":\"g\",\"method\":\"os\",\"trials\":200000000,\"seed\":5,\"threads\":2}",
        &[],
    )
    .unwrap();
    assert_eq!(status, 503);
    let ra = headers
        .iter()
        .find(|(n, _)| n == "retry-after")
        .map(|(_, v)| v.as_str());
    assert_eq!(ra, Some("0"), "503 must invite an immediate resume");
    server.begin_shutdown();
    server.join();
    signal::reset();

    // 429 shed: `Retry-After: 1`. One worker, one queue slot; a slow
    // solve plus one queued filler leave nothing for the burst.
    let cfg = ServerConfig {
        threads: 1,
        queue: 1,
        ..default_cfg()
    };
    let (server, addr) = start(cfg);
    register_graph(&addr);
    let slow = std::thread::spawn({
        let addr = addr.clone();
        move || {
            call(
                addr.as_str(),
                "POST",
                "/v1/solve",
                "{\"graph\":\"g\",\"method\":\"os\",\"trials\":2000000,\"seed\":8}",
            )
        }
    });
    std::thread::sleep(Duration::from_millis(300)); // slow solve owns the worker
    let filler = std::thread::spawn({
        let addr = addr.clone();
        move || call(addr.as_str(), "GET", "/healthz", "")
    });
    std::thread::sleep(Duration::from_millis(100)); // filler occupies the queue slot
    let mut shed = 0;
    for _ in 0..4 {
        let (status, headers, _) = call_ext(addr.as_str(), "GET", "/healthz", "", &[]).unwrap();
        if status == 429 {
            shed += 1;
            let ra = headers
                .iter()
                .find(|(n, _)| n == "retry-after")
                .map(|(_, v)| v.as_str());
            assert_eq!(ra, Some("1"), "429 must say when to come back");
        }
    }
    assert!(shed >= 1, "bounded queue never shed under overload");
    assert_eq!(slow.join().unwrap().unwrap().0, 200);
    assert_eq!(filler.join().unwrap().unwrap().0, 200);

    server.begin_shutdown();
    server.join();
}

#[test]
fn retrying_client_survives_fault_injection() {
    let _guard = lock();
    let cfg = ServerConfig {
        fault_plan: Some("seed=7,reset=0.15,slow=0.03,partial=0.1,panic_at=3".to_string()),
        ..default_cfg()
    };
    let (server, addr) = start(cfg);

    // Registration runs under the fault plan too: retry until it lands.
    // A lost *response* still registers the graph, so 409 is success.
    let policy = RetryPolicy {
        attempts: 10,
        base_ms: 5,
        cap_ms: 50,
        seed: 1,
    };
    let reg = mpmb_serve::call_retry(
        &addr,
        "POST",
        "/v1/graphs",
        &format!("{{\"name\":\"g\",\"spec\":\"{GRAPH_SPEC}\"}}"),
        &policy,
    )
    .expect("register through faults");
    assert!(
        reg.status == 200 || reg.status == 409,
        "register: {} {}",
        reg.status,
        reg.body
    );

    // Resets, garbled bodies, slow writes, and one forced worker panic
    // — four retrying callers must still land all 40 solves.
    const REQUESTS: u64 = 40;
    const CALLERS: u64 = 4;
    let policy = RetryPolicy {
        attempts: 9,
        seed: 77,
        ..Default::default()
    };
    let outcomes: Vec<(u64, u16, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let (addr, policy) = (&addr, &policy);
                scope.spawn(move || {
                    (caller..REQUESTS)
                        .step_by(CALLERS as usize)
                        .map(|i| {
                            let body = format!(
                                "{{\"graph\":\"g\",\"method\":\"os\",\"trials\":200,\"seed\":{}}}",
                                77 + i
                            );
                            let r =
                                mpmb_serve::call_retry(addr, "POST", "/v1/solve", &body, policy)
                                    .unwrap_or_else(|e| panic!("request {i}: {e}"));
                            (i, r.status, r.retries)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(outcomes.len(), REQUESTS as usize);
    let failed: Vec<_> = outcomes
        .iter()
        .filter(|(_, status, _)| *status != 200)
        .collect();
    assert!(failed.is_empty(), "non-200 final statuses: {failed:?}");
    let retries: u32 = outcomes.iter().map(|(_, _, r)| r).sum();
    assert!(
        retries >= 1,
        "the fault plan never forced a retry: {outcomes:?}"
    );

    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert!(metric_value(&metrics, "mpmb_faults_injected_total") >= 1);
    assert_eq!(
        metric_value(&metrics, "mpmb_worker_panics_total"),
        1,
        "panic_at=3 forces exactly one worker panic"
    );

    server.begin_shutdown();
    server.join();
}

#[test]
fn checkpoint_restores_partials_and_graphs_across_restart() {
    let _guard = lock();
    let dir = scratch_dir("ckpt-restart");
    const TRIALS: u64 = 30_000;
    let body = format!(
        "{{\"graph\":\"g\",\"method\":\"os\",\"trials\":{TRIALS},\"seed\":21,\"threads\":2}}"
    );
    let cfg = ServerConfig {
        timeout_ms: 40,
        checkpoint_dir: Some(dir.clone()),
        // No cadence writes: this test exercises the shutdown snapshot.
        checkpoint_every_ms: 3_600_000,
        ..default_cfg()
    };

    // Server 1: the solve misses its 40 ms deadline and caches a
    // partial; shutdown snapshots the registry and that partial.
    let (server, addr) = start(cfg.clone());
    register_graph(&addr);
    let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", &body).unwrap();
    assert_eq!(status, 503, "{resp}");
    let done1 = Json::parse(&resp)
        .unwrap()
        .get("trials_done")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(0 < done1 && done1 < TRIALS, "done1 {done1}");
    server.begin_shutdown();
    server.join();
    signal::reset();

    // Server 2: registry and partial come back from disk — the graph is
    // listed without re-registering.
    let (server, addr) = start(cfg);
    let (s, listing) = call(addr.as_str(), "GET", "/v1/graphs", "").unwrap();
    assert_eq!(s, 200);
    assert!(listing.contains("\"g\""), "{listing}");
    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert!(metric_value(&metrics, "mpmb_checkpoint_restored_total") >= 1);

    // Re-issuing the same request resumes the restored partial.
    let mut attempts = 0u32;
    let final_resp = loop {
        attempts += 1;
        assert!(attempts <= 2_000, "restored solve never completed");
        let (status, resp) = call(addr.as_str(), "POST", "/v1/solve", &body).unwrap();
        match status {
            503 => continue,
            200 => break resp,
            other => panic!("unexpected status {other}: {resp}"),
        }
    };

    // No trial ran twice: this process only executed the remainder.
    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(
        metric_value(&metrics, "mpmb_trials_executed_total"),
        TRIALS - done1,
        "restart must resume exactly where the snapshot left off"
    );

    // And the stitched-together answer matches one uninterrupted
    // engine run bit-for-bit.
    let json = Json::parse(&final_resp).unwrap();
    assert_eq!(json.get("trials_done").and_then(Json::as_u64), Some(TRIALS));
    let direct = os_engine(&reference_graph(), TRIALS, 21);
    let (_, dp) = direct.mpmb().expect("non-empty distribution");
    let served_p = json
        .get("mpmb")
        .and_then(|m| m.get("prob"))
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!(served_p.to_bits(), dp.to_bits());

    server.begin_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_is_skipped_not_fatal() {
    let _guard = lock();
    let dir = scratch_dir("ckpt-corrupt");
    // Right magic, garbage after it — the checksum must catch it.
    std::fs::write(dir.join("state.ckpt"), b"MPMBCKP1 this is not a checkpoint").unwrap();

    let cfg = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..default_cfg()
    };
    let (server, addr) = start(cfg);

    // The server came up anyway and serves normally.
    let (hs, _) = call(addr.as_str(), "GET", "/healthz", "").unwrap();
    assert_eq!(hs, 200);
    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(metric_value(&metrics, "mpmb_checkpoint_corrupt_total"), 1);
    assert_eq!(metric_value(&metrics, "mpmb_checkpoint_restored_total"), 0);
    register_graph(&addr);
    let (status, _) = call(
        addr.as_str(),
        "POST",
        "/v1/solve",
        "{\"graph\":\"g\",\"method\":\"os\",\"trials\":100,\"seed\":1}",
    )
    .unwrap();
    assert_eq!(status, 200);

    // Shutdown replaces the garbage with a valid snapshot.
    server.begin_shutdown();
    server.join();
    signal::reset();
    let cfg = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..default_cfg()
    };
    let (server, addr) = start(cfg);
    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(metric_value(&metrics, "mpmb_checkpoint_corrupt_total"), 0);
    let (s, listing) = call(addr.as_str(), "GET", "/v1/graphs", "").unwrap();
    assert_eq!(s, 200);
    assert!(listing.contains("\"g\""), "{listing}");

    server.begin_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Cluster: coordinator + workers scatter-gather.
// ---------------------------------------------------------------------------

/// Starts `n` worker servers plus a coordinator pointed at all of them.
/// Returns (workers, coordinator, coordinator addr).
fn start_cluster(n: usize) -> (Vec<Server>, Server, String) {
    let mut workers = Vec::new();
    let mut worker_addrs = Vec::new();
    for _ in 0..n {
        let (s, a) = start(ServerConfig {
            role: mpmb_serve::Role::Worker,
            ..default_cfg()
        });
        workers.push(s);
        worker_addrs.push(a);
    }
    let (coord, addr) = start(ServerConfig {
        role: mpmb_serve::Role::Coordinator,
        workers: worker_addrs,
        probe_interval_ms: 100,
        ..default_cfg()
    });
    (workers, coord, addr)
}

fn shutdown(server: Server) {
    server.begin_shutdown();
    server.join();
}

/// Every request a cluster test replays against single-node and each
/// worker count: every solve method (fast included) plus the count
/// endpoint.
fn cluster_request_matrix() -> Vec<(&'static str, String)> {
    vec![
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"os\",\"trials\":2000,\"seed\":7,\"k\":3}".into(),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"fast\",\"trials\":2500,\"seed\":23,\"delta\":0.1}"
                .into(),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"mcvp\",\"trials\":1000,\"seed\":11}".into(),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"ols\",\"trials\":3000,\"prep\":150,\"seed\":13}".into(),
        ),
        (
            "/v1/solve",
            "{\"graph\":\"g\",\"method\":\"ols-kl\",\"trials\":200,\"prep\":150,\"seed\":17}"
                .into(),
        ),
        (
            "/v1/count",
            "{\"graph\":\"g\",\"trials\":1500,\"seed\":19}".into(),
        ),
    ]
}

#[test]
fn cluster_answers_are_byte_identical_to_single_node_at_any_worker_count() {
    let _guard = lock();

    // Single-node baseline bodies.
    let (single, single_addr) = start(default_cfg());
    register_graph(&single_addr);
    let matrix = cluster_request_matrix();
    let baselines: Vec<(u16, String)> = matrix
        .iter()
        .map(|(path, body)| call(single_addr.as_str(), "POST", path, body).expect("baseline"))
        .collect();
    for (status, body) in &baselines {
        assert_eq!(*status, 200, "baseline failed: {body}");
    }
    shutdown(single);

    for n in 1..=3usize {
        signal::reset();
        let (workers, coord, addr) = start_cluster(n);
        // Registration through the coordinator fans out to every worker.
        register_graph(&addr);
        for ((path, body), (_, want)) in matrix.iter().zip(&baselines) {
            let (status, got) = call(addr.as_str(), "POST", path, body).expect("cluster request");
            assert_eq!(status, 200, "{n} workers, {path} {body}: {got}");
            assert_eq!(&got, want, "{n} workers, {path} {body}");
        }
        let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
        assert!(
            metric_value(&metrics, "mpmb_cluster_ranges_dispatched_total") >= matrix.len() as u64,
            "coordinator never dispatched ranges:\n{metrics}"
        );
        assert_eq!(
            metric_value(&metrics, "mpmb_cluster_workers"),
            n as u64,
            "{metrics}"
        );
        shutdown(coord);
        workers.into_iter().for_each(shutdown);
    }
}

#[test]
fn dead_address_in_the_worker_list_is_marked_down_and_skipped() {
    let _guard = lock();

    let (single, single_addr) = start(default_cfg());
    register_graph(&single_addr);
    let body = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":4000,\"seed\":23,\"k\":2}";
    let (bs, baseline) = call(single_addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!(bs, 200, "{baseline}");
    shutdown(single);
    signal::reset();

    // One live worker plus one address nothing listens on: round 0
    // dispatches to both, the dead half fails transport, and the gap is
    // redispatched to the survivor.
    let (worker, worker_addr) = start(ServerConfig {
        role: mpmb_serve::Role::Worker,
        ..default_cfg()
    });
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let (coord, addr) = start(ServerConfig {
        role: mpmb_serve::Role::Coordinator,
        workers: vec![worker_addr, dead_addr],
        probe_interval_ms: 60_000, // never revives the dead slot mid-test
        ..default_cfg()
    });
    // Registration through the coordinator 502s on the dead worker (it
    // was optimistically up), registering the live worker on the way.
    let (rs, rbody) = call(
        addr.as_str(),
        "POST",
        "/v1/graphs",
        &format!("{{\"name\":\"g\",\"spec\":\"{GRAPH_SPEC}\"}}"),
    )
    .unwrap();
    assert_eq!(rs, 502, "broadcast register must fail fast: {rbody}");
    // The dead worker is now marked down, so the retry skips it: the
    // live worker answers 409 (already has the graph) and the
    // coordinator registers locally.
    register_graph(&addr);

    let (status, got) = call(addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, baseline, "dead worker changed the answer");

    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert_eq!(metric_value(&metrics, "mpmb_cluster_workers"), 2);
    shutdown(coord);
    shutdown(worker);
}

#[test]
fn coordinator_redispatches_when_a_worker_dies_mid_membership() {
    let _guard = lock();

    let (single, single_addr) = start(default_cfg());
    register_graph(&single_addr);
    let body = "{\"graph\":\"g\",\"method\":\"os\",\"trials\":4000,\"seed\":29,\"k\":2}";
    let (bs, baseline) = call(single_addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!(bs, 200, "{baseline}");
    shutdown(single);
    signal::reset();

    // Two live workers; one dies *after* registration, while the
    // coordinator still believes it is up. Round 0 dispatches half the
    // trial space to the corpse, fails transport, and the gap is
    // redispatched to the survivor — the answer must not change. The
    // probe interval is long so the prober cannot mark the corpse down
    // before the solve observes the mid-range failure itself.
    let mut workers = Vec::new();
    let mut worker_addrs = Vec::new();
    for _ in 0..2 {
        let (s, a) = start(ServerConfig {
            role: mpmb_serve::Role::Worker,
            ..default_cfg()
        });
        workers.push(s);
        worker_addrs.push(a);
    }
    let (coord, addr) = start(ServerConfig {
        role: mpmb_serve::Role::Coordinator,
        workers: worker_addrs,
        probe_interval_ms: 60_000,
        ..default_cfg()
    });
    register_graph(&addr);
    let mut workers = workers.into_iter();
    let survivor = workers.next().unwrap();
    shutdown(workers.next().unwrap());

    let (status, got) = call(addr.as_str(), "POST", "/v1/solve", body).unwrap();
    assert_eq!(status, 200, "{got}");
    assert_eq!(got, baseline, "worker death changed the answer");

    let (_, metrics) = call(addr.as_str(), "GET", "/metrics", "").unwrap();
    assert!(
        metric_value(&metrics, "mpmb_cluster_redispatch_total") >= 1,
        "no redispatch recorded:\n{metrics}"
    );
    assert!(
        metric_value(&metrics, "mpmb_cluster_worker_errors_total") >= 1,
        "no worker error recorded:\n{metrics}"
    );
    shutdown(coord);
    shutdown(survivor);
}

#[test]
fn coordinator_with_no_live_workers_returns_503_and_recovers() {
    let _guard = lock();

    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let (coord, addr) = start(ServerConfig {
        role: mpmb_serve::Role::Coordinator,
        workers: vec![dead_addr],
        probe_interval_ms: 60_000,
        ..default_cfg()
    });
    // Registration cannot reach any worker.
    let (rs, _) = call(
        addr.as_str(),
        "POST",
        "/v1/graphs",
        &format!("{{\"name\":\"g\",\"spec\":\"{GRAPH_SPEC}\"}}"),
    )
    .unwrap();
    assert_eq!(rs, 502);
    shutdown(coord);
}

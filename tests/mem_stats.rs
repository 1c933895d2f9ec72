//! Smoke tests for the memtrack wiring: with the counting allocator
//! installed, a solve drives `peak_bytes()` above zero, and the serve
//! layer surfaces it on `/metrics` as the `mpmb_peak_rss_bytes` gauge,
//! beside the whole process's `VmHWM` as
//! `mpmb_process_peak_resident_bytes`.
//!
//! This test binary installs its own `#[global_allocator]` — exactly
//! what the `mpmb` CLI and `mpmb-serve` daemon do — so the gauge reads
//! real numbers here rather than the 0 an uninstrumented allocator
//! would report.

use mpmb_serve::client::call;
use mpmb_serve::{advance_local, Cancel, Job, Method, Server, ServerConfig};

#[global_allocator]
static ALLOC: memtrack::CountingAllocator = memtrack::CountingAllocator;

fn metric_value(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric `{name}` missing:\n{metrics_text}"))
}

#[test]
fn solve_registers_nonzero_peak_allocation() {
    let g = datasets::Dataset::Abide.generate(0.01, 3);
    memtrack::reset_peak();
    let before = memtrack::peak_bytes();
    let job = Job::new(Method::Os, 500, 0, 42);
    let progress = advance_local(&g, &job, None, 1, &Cancel::never()).expect("solve succeeds");
    assert_eq!(progress.trials_done, 500);
    let after = memtrack::peak_bytes();
    assert!(
        after > before,
        "solve should raise the allocation peak: before={before} after={after}"
    );
}

#[test]
fn metrics_endpoint_reports_nonzero_peak_rss_after_solve() {
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        threads: 2,
        queue: 16,
        timeout_ms: 0,
        cache_capacity: 16,
        max_solver_threads: 0,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr.to_string();

    let (status, body) = call(
        &addr,
        "POST",
        "/v1/graphs",
        "{\"name\":\"g\",\"spec\":\"dataset:abide:0.01:3\"}",
    )
    .expect("register graph");
    assert_eq!(status, 200, "register failed: {body}");

    let (status, body) = call(
        &addr,
        "POST",
        "/v1/solve",
        "{\"graph\":\"g\",\"method\":\"os\",\"trials\":500,\"seed\":42}",
    )
    .expect("solve");
    assert_eq!(status, 200, "solve failed: {body}");

    let (status, metrics) = call(&addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let peak = metric_value(&metrics, "mpmb_peak_rss_bytes");
    assert!(peak > 0, "peak RSS gauge should be nonzero after a solve");
    // The heap gauge misses mapped files and stacks; the process gauge
    // (VmHWM, where the platform has it) counts every resident page.
    if cfg!(target_os = "linux") {
        let process = metric_value(&metrics, "mpmb_process_peak_resident_bytes");
        assert!(
            process >= peak,
            "process peak {process} below the heap peak {peak}"
        );
    } else {
        assert!(!metrics.contains("mpmb_process_peak_resident_bytes"));
    }

    server.begin_shutdown();
    server.join();
}

//! Serving metrics, exported in Prometheus text-exposition format.
//!
//! Built on the [`obs`] registry: every instrument is registered once
//! at construction and held as an `Arc` handle, so the hot path is a
//! couple of relaxed atomic ops per event — the registry mutex is only
//! taken at startup and at `/metrics` render time. The solver-phase
//! families (`mpmb_solver_phase_seconds`, …) land on the same registry
//! via [`obs::SolverMetrics`], so one `/metrics` scrape carries the
//! whole stack from HTTP edge to trial kernel.

use obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// The endpoints with per-endpoint series. Order defines export order.
pub const ENDPOINTS: &[&str] = &[
    "solve", "query", "count", "topk", "graphs", "healthz", "metrics", "admin", "debug",
    "internal", "other",
];

/// Latency histogram bucket upper bounds, in seconds.
const BUCKETS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Statuses tracked per endpoint (everything else folds into `other`).
const STATUSES: &[u16] = &[200, 400, 404, 429, 503];

/// Deadline-budget bucket names, in export order: each solve-like
/// request's wall time is attributed across exactly these buckets (see
/// [`crate::server::Budget`]) and observed into one
/// `mpmb_deadline_spent_seconds{bucket=…}` histogram per name.
pub const BUDGET_BUCKETS: [&str; 6] = [
    "queue",
    "materialize",
    "prepare",
    "trials",
    "network",
    "finalize",
];

/// Pre-created handles for one endpoint.
struct EndpointHandles {
    /// Requests by status: indices follow `STATUSES`, last slot = other.
    by_status: Vec<Arc<Counter>>,
    latency: Arc<Histogram>,
}

/// All serving metrics. One instance per server, shared via `Arc`.
pub struct Metrics {
    registry: Arc<Registry>,
    endpoints: Vec<EndpointHandles>,
    /// Result-cache hits.
    pub cache_hits: Arc<Counter>,
    /// Result-cache misses.
    pub cache_misses: Arc<Counter>,
    /// Requests that resumed a cached partial result (cache refinement).
    pub cache_refined: Arc<Counter>,
    /// Monte-Carlo trials executed by solvers (partial runs included).
    pub trials_executed: Arc<Counter>,
    /// Requests rejected because the accept queue was full.
    pub load_shed: Arc<Counter>,
    /// Requests that hit their deadline and returned 503.
    pub deadline_exceeded: Arc<Counter>,
    /// Requests currently being processed by workers.
    pub inflight: Arc<Gauge>,
    /// Connections accepted.
    pub connections: Arc<Counter>,
    /// Snapshots durably written to the checkpoint directory.
    pub checkpoint_written: Arc<Counter>,
    /// Partial results restored from a snapshot at startup.
    pub checkpoint_restored: Arc<Counter>,
    /// Snapshots skipped at startup because they failed verification.
    pub checkpoint_corrupt: Arc<Counter>,
    /// Worker panics caught at the connection boundary.
    pub worker_panics: Arc<Counter>,
    /// Faults injected by the active fault plan.
    pub faults_injected: Arc<Counter>,
    /// Cluster members this coordinator is configured with (0 when not
    /// a coordinator).
    pub cluster_workers: Arc<Gauge>,
    /// Trial ranges dispatched to cluster workers (first dispatch and
    /// re-dispatches both count).
    pub cluster_ranges_dispatched: Arc<Counter>,
    /// Ranges re-dispatched after a worker failed or returned an
    /// incomplete range — resume semantics mean only the *remaining*
    /// trials of the range run again.
    pub cluster_redispatch: Arc<Counter>,
    /// Worker calls that failed at the transport or decode layer (the
    /// worker is marked down until a probe revives it).
    pub cluster_worker_errors: Arc<Counter>,
    /// Health probes that failed (the probed worker is marked down).
    pub cluster_probe_failures: Arc<Counter>,
    /// Container-backed graphs evicted from residency by the memory
    /// budget.
    pub graph_evictions: Arc<Counter>,
    /// Container materializations (first use and every post-eviction
    /// reload).
    pub graph_materializations: Arc<Counter>,
    /// Worker `/metrics` scrapes attempted by `GET /metrics/cluster`.
    pub federation_scrapes: Arc<Counter>,
    /// Federation scrapes that failed (worker unreachable or non-200).
    pub federation_scrape_failures: Arc<Counter>,
    /// `method=fast` solve/count requests served from the sublinear
    /// tier (completed fast answers; partials don't count).
    pub fast_requests: Arc<Counter>,
    /// Fast answers whose certified CI missed the requested relative
    /// error, scheduling an exact-tier escalation partial.
    pub fast_escalations: Arc<Counter>,
    /// Certified relative error of completed fast answers.
    pub fast_relative_error: Arc<Histogram>,
    /// Per-bucket deadline-spend histograms, [`BUDGET_BUCKETS`] order.
    budget_spent: Vec<Arc<Histogram>>,
}

/// Index of an endpoint name in [`ENDPOINTS`].
pub fn endpoint_index(path: &str) -> usize {
    let name = match path {
        "/v1/solve" => "solve",
        "/v1/query" => "query",
        "/v1/count" => "count",
        "/v1/topk" => "topk",
        "/v1/graphs" => "graphs",
        "/healthz" => "healthz",
        "/metrics" | "/metrics/cluster" => "metrics",
        p if p.starts_with("/admin/") => "admin",
        p if p.starts_with("/debug/") => "debug",
        p if p.starts_with("/v1/internal/") => "internal",
        _ => "other",
    };
    ENDPOINTS.iter().position(|&e| e == name).unwrap()
}

impl Default for Metrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        // Registration order is render order; keep the families in the
        // order the previous hand-rolled exporter used.
        let endpoints = ENDPOINTS
            .iter()
            .map(|name| {
                let by_status = STATUSES
                    .iter()
                    .map(|s| s.to_string())
                    .chain(std::iter::once("other".to_string()))
                    .map(|status| {
                        registry.counter_with(
                            "mpmb_requests_total",
                            "Requests handled, by endpoint and status.",
                            &[("endpoint", name), ("status", &status)],
                        )
                    })
                    .collect();
                EndpointHandles {
                    by_status,
                    latency: registry.histogram_with(
                        "mpmb_request_duration_seconds",
                        "Request latency, by endpoint.",
                        BUCKETS,
                        &[("endpoint", name)],
                    ),
                }
            })
            .collect();
        let metrics = Metrics {
            cache_hits: registry.counter("mpmb_cache_hits_total", "Result-cache hits."),
            cache_misses: registry.counter("mpmb_cache_misses_total", "Result-cache misses."),
            cache_refined: registry.counter(
                "mpmb_cache_refined_total",
                "Requests that resumed a cached partial result instead of restarting.",
            ),
            trials_executed: registry.counter(
                "mpmb_trials_executed_total",
                "Monte-Carlo trials executed by solvers (including partial runs).",
            ),
            load_shed: registry.counter(
                "mpmb_load_shed_total",
                "Requests rejected with 429 because the accept queue was full.",
            ),
            deadline_exceeded: registry.counter(
                "mpmb_deadline_exceeded_total",
                "Requests that exceeded their deadline and returned 503.",
            ),
            inflight: registry.gauge(
                "mpmb_inflight_requests",
                "Requests currently being processed.",
            ),
            connections: registry.counter("mpmb_connections_total", "Connections accepted."),
            checkpoint_written: registry.counter(
                "mpmb_checkpoint_written_total",
                "Snapshots durably written to the checkpoint directory.",
            ),
            checkpoint_restored: registry.counter(
                "mpmb_checkpoint_restored_total",
                "Partial results restored from a snapshot at startup.",
            ),
            checkpoint_corrupt: registry.counter(
                "mpmb_checkpoint_corrupt_total",
                "Snapshots skipped at startup because they failed verification.",
            ),
            worker_panics: registry.counter(
                "mpmb_worker_panics_total",
                "Worker panics caught at the connection boundary.",
            ),
            faults_injected: registry.counter(
                "mpmb_faults_injected_total",
                "Faults injected by the active fault plan.",
            ),
            cluster_workers: registry.gauge(
                "mpmb_cluster_workers",
                "Cluster members configured on this coordinator (0 when not coordinating).",
            ),
            cluster_ranges_dispatched: registry.counter(
                "mpmb_cluster_ranges_dispatched_total",
                "Trial ranges dispatched to cluster workers.",
            ),
            cluster_redispatch: registry.counter(
                "mpmb_cluster_redispatch_total",
                "Ranges re-dispatched after a worker failure or incomplete range response.",
            ),
            cluster_worker_errors: registry.counter(
                "mpmb_cluster_worker_errors_total",
                "Worker range calls that failed at the transport or decode layer.",
            ),
            cluster_probe_failures: registry.counter(
                "mpmb_cluster_probe_failures_total",
                "Health probes that failed, marking the probed worker down.",
            ),
            graph_evictions: registry.counter(
                "mpmb_graph_evictions_total",
                "Container-backed graphs evicted from residency by the memory budget.",
            ),
            graph_materializations: registry.counter(
                "mpmb_graph_materializations_total",
                "Container materializations (first use and post-eviction reloads).",
            ),
            federation_scrapes: registry.counter(
                "mpmb_federation_scrapes_total",
                "Worker /metrics scrapes attempted by GET /metrics/cluster.",
            ),
            federation_scrape_failures: registry.counter(
                "mpmb_federation_scrape_failures_total",
                "Federation scrapes that failed (worker unreachable or non-200).",
            ),
            fast_requests: registry.counter(
                "mpmb_fast_requests_total",
                "Completed method=fast answers served from the sublinear tier.",
            ),
            fast_escalations: registry.counter(
                "mpmb_fast_escalations_total",
                "Fast answers whose CI exceeded the requested relative error, seeding an exact-tier escalation.",
            ),
            fast_relative_error: registry.histogram(
                "mpmb_fast_relative_error",
                "Certified relative error (half-width / estimate) of completed fast answers.",
                &[0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0],
            ),
            budget_spent: BUDGET_BUCKETS
                .iter()
                .map(|bucket| {
                    registry.histogram_with(
                        "mpmb_deadline_spent_seconds",
                        "Wall time attributed to each deadline-budget bucket, per solve-like request.",
                        BUCKETS,
                        &[("bucket", bucket)],
                    )
                })
                .collect(),
            endpoints,
            registry,
        };
        metrics.registry.counter_fn(
            "mpmb_trace_rotations_total",
            "Trace-file rotations performed by the size-capped sink.",
            obs::trace_rotations,
        );
        metrics.registry.gauge_fn(
            "mpmb_peak_rss_bytes",
            "Peak heap bytes allocated through the counting allocator (heap only: no mapped files or stacks; 0 when the allocator is not installed).",
            || memtrack::peak_bytes() as i64,
        );
        // Absent where the platform has no `VmHWM`.
        if memtrack::process_peak_resident_bytes().is_some() {
            metrics.registry.gauge_fn(
                "mpmb_process_peak_resident_bytes",
                "Peak resident set of the whole process (VmHWM): heap, mapped files and stacks.",
                || memtrack::process_peak_resident_bytes().unwrap_or(0) as i64,
            );
        }
        metrics
    }
}

impl Metrics {
    /// The registry behind these metrics — shared with
    /// [`obs::SolverMetrics`] so solver-phase histograms render on the
    /// same `/metrics` page.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Observes one request's deadline-budget attribution, values in
    /// [`BUDGET_BUCKETS`] order.
    pub fn observe_budget(&self, values: [f64; 6]) {
        for (hist, secs) in self.budget_spent.iter().zip(values) {
            hist.observe(secs);
        }
    }

    /// Records one finished request.
    pub fn record(&self, endpoint: usize, status: u16, elapsed: Duration) {
        let em = &self.endpoints[endpoint];
        let sidx = STATUSES
            .iter()
            .position(|&s| s == status)
            .unwrap_or(STATUSES.len());
        em.by_status[sidx].inc();
        em.latency.observe(elapsed.as_secs_f64());
    }

    /// Renders the Prometheus text exposition.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_complete() {
        let m = Metrics::default();
        let ei = endpoint_index("/v1/solve");
        m.record(ei, 200, Duration::from_millis(3));
        m.record(ei, 200, Duration::from_millis(30));
        m.record(ei, 503, Duration::from_secs(20)); // +Inf tail
        let text = m.render();
        assert!(text.contains("mpmb_requests_total{endpoint=\"solve\",status=\"200\"} 2"));
        assert!(text.contains("mpmb_requests_total{endpoint=\"solve\",status=\"503\"} 1"));
        assert!(
            text.contains("mpmb_request_duration_seconds_bucket{endpoint=\"solve\",le=\"+Inf\"} 3")
        );
        assert!(text.contains("mpmb_request_duration_seconds_count{endpoint=\"solve\"} 3"));
        // le="0.005" must include the 3 ms observation.
        assert!(text
            .contains("mpmb_request_duration_seconds_bucket{endpoint=\"solve\",le=\"0.005\"} 1"));
    }

    #[test]
    fn endpoint_index_covers_all_paths() {
        assert_eq!(ENDPOINTS[endpoint_index("/v1/solve")], "solve");
        assert_eq!(ENDPOINTS[endpoint_index("/admin/shutdown")], "admin");
        assert_eq!(ENDPOINTS[endpoint_index("/debug/trace")], "debug");
        assert_eq!(ENDPOINTS[endpoint_index("/nope")], "other");
    }

    #[test]
    fn unlisted_statuses_fold_into_other() {
        let m = Metrics::default();
        let ei = endpoint_index("/v1/count");
        m.record(ei, 200, Duration::from_millis(1));
        m.record(ei, 418, Duration::from_millis(1)); // folds into `other`
        let text = m.render();
        assert!(text.contains("endpoint=\"count\",status=\"200\"} 1"));
        assert!(text.contains("endpoint=\"count\",status=\"other\"} 1"));
    }

    #[test]
    fn unlabeled_counters_render_name_space_value() {
        let m = Metrics::default();
        m.cache_hits.inc();
        m.trials_executed.add(300);
        m.inflight.add(2);
        let text = m.render();
        assert!(text.contains("\nmpmb_cache_hits_total 1\n"));
        assert!(text.contains("\nmpmb_trials_executed_total 300\n"));
        assert!(text.contains("\nmpmb_inflight_requests 2\n"));
        assert!(text.contains("\nmpmb_peak_rss_bytes "));
    }

    #[test]
    fn solver_phase_families_share_the_page() {
        let m = Metrics::default();
        let solver = obs::SolverMetrics::new(m.registry().clone());
        solver.record_phase("os.sample", 0.002, 128);
        let text = m.render();
        assert!(text.contains("mpmb_solver_phase_seconds_count{phase=\"os.sample\"} 1"));
        assert!(text.contains("mpmb_solver_phase_trials_total{phase=\"os.sample\"} 128"));
        assert!(text.contains("mpmb_engine_resumes_total 0"));
    }
}

//! Atomic metric instruments and a Prometheus-text registry.
//!
//! Instruments are created through a [`Registry`] and come back as
//! `Arc` handles; lookups are idempotent (same name + labels returns
//! the same instrument), so callers can pre-create handles at startup
//! for a lock-free hot path or fetch lazily from cold paths. Rendering
//! walks families in registration order and series in creation order,
//! so the exposition text is deterministic.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Latency buckets for request-scale work, in seconds (1 ms – 10 s).
pub const DEFAULT_SECONDS_BUCKETS: &[f64] = &[0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0];

/// Finer buckets for solver phases, which can be far below a
/// millisecond on small graphs (100 µs – 10 s).
pub const PHASE_SECONDS_BUCKETS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a free-standing counter (not registered anywhere).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (rendered as an integer).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a free-standing gauge (not registered anywhere).
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram with atomic storage.
///
/// `bounds` are the *upper* bounds of the finite buckets, strictly
/// increasing; one extra overflow bucket catches everything above the
/// last bound (`+Inf` in the exposition format). Counts are per-bucket
/// (not cumulative) internally; rendering accumulates.
pub struct Histogram {
    bounds: Box<[f64]>,
    counts: Box<[AtomicU64]>,
    /// Sum of observed values, stored as `f64::to_bits` and updated by
    /// compare-exchange so concurrent observers never lose an add.
    sum_bits: AtomicU64,
    total: AtomicU64,
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.bounds)
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Histogram {
    /// Creates a free-standing histogram with the given finite upper
    /// bounds (must be non-empty and strictly increasing).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.into(),
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            total: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|&ub| ub < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// One registered series: a label set plus its instrument.
enum Instrument {
    Counter(Arc<Counter>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Arc<Gauge>),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) | Instrument::CounterFn(_) => "counter",
            Instrument::Gauge(_) | Instrument::GaugeFn(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    series: Vec<Series>,
}

/// A set of metric families rendered together as Prometheus text.
///
/// All mutation (registration) goes through one mutex; instruments are
/// returned as `Arc` handles so updates never touch the lock.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.families.lock().map(|fs| fs.len()).unwrap_or(0);
        f.debug_struct("Registry").field("families", &n).finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
        extract: impl Fn(&Instrument) -> Option<T>,
    ) -> T {
        let mut families = self.families.lock().unwrap();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                let instrument = make();
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind: instrument.kind(),
                    series: vec![Series {
                        labels: own_labels(labels),
                        instrument,
                    }],
                });
                let f = families.last().unwrap();
                return extract(&f.series[0].instrument)
                    .expect("freshly inserted instrument has the requested type");
            }
        };
        if let Some(s) = family.series.iter().find(|s| label_eq(&s.labels, labels)) {
            return extract(&s.instrument).unwrap_or_else(|| {
                panic!("metric {name} already registered with kind {}", family.kind)
            });
        }
        let instrument = make();
        assert_eq!(
            family.kind,
            instrument.kind(),
            "metric {name} already registered with kind {}",
            family.kind
        );
        family.series.push(Series {
            labels: own_labels(labels),
            instrument,
        });
        extract(&family.series.last().unwrap().instrument)
            .expect("freshly inserted instrument has the requested type")
    }

    /// Gets or creates an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Gets or creates a counter with the given label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            labels,
            || Instrument::Counter(Arc::new(Counter::new())),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Gets or creates an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Gets or creates a gauge with the given label set (e.g. one
    /// `mpmb_cluster_worker_up` series per cluster member).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            labels,
            || Instrument::Gauge(Arc::new(Gauge::new())),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers a counter whose value is computed by `f` at render
    /// time (e.g. reading a process-global atomic owned elsewhere).
    /// `f` must be monotonic for the series to behave as a counter.
    pub fn counter_fn(&self, name: &str, help: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.get_or_insert(
            name,
            help,
            &[],
            || Instrument::CounterFn(Box::new(f)),
            |i| match i {
                Instrument::CounterFn(_) => Some(()),
                _ => None,
            },
        )
    }

    /// Registers a gauge whose value is computed by `f` at render time
    /// (e.g. reading an allocator's peak watermark).
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        self.get_or_insert(
            name,
            help,
            &[],
            || Instrument::GaugeFn(Box::new(f)),
            |i| match i {
                Instrument::GaugeFn(_) => Some(()),
                _ => None,
            },
        )
    }

    /// Gets or creates an unlabeled histogram with the given bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Gets or creates a histogram with the given bounds and label set.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            labels,
            || Instrument::Histogram(Arc::new(Histogram::new(bounds))),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Renders every family in the Prometheus text exposition format,
    /// families in registration order, series in creation order.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for family in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind));
            for series in &family.series {
                render_series(&mut out, &family.name, series);
            }
        }
        out
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn label_eq(owned: &[(String, String)], given: &[(&str, &str)]) -> bool {
    owned.len() == given.len()
        && owned
            .iter()
            .zip(given)
            .all(|((ok, ov), (gk, gv))| ok == gk && ov == gv)
}

/// Formats `{k="v",…}` (empty string when there are no labels). An
/// extra label, if given, is appended last (used for `le`).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    let labels = label_block(&series.labels, None);
    match &series.instrument {
        Instrument::Counter(c) => {
            out.push_str(&format!("{name}{labels} {}\n", c.get()));
        }
        Instrument::CounterFn(f) => {
            out.push_str(&format!("{name}{labels} {}\n", f()));
        }
        Instrument::Gauge(g) => {
            out.push_str(&format!("{name}{labels} {}\n", g.get()));
        }
        Instrument::GaugeFn(f) => {
            out.push_str(&format!("{name}{labels} {}\n", f()));
        }
        Instrument::Histogram(h) => {
            let counts = h.bucket_counts();
            let mut cum = 0u64;
            for (i, &ub) in h.bounds().iter().enumerate() {
                cum += counts[i];
                let le = label_block(&series.labels, Some(("le", &format_bound(ub))));
                out.push_str(&format!("{name}_bucket{le} {cum}\n"));
            }
            cum += counts[counts.len() - 1];
            let le = label_block(&series.labels, Some(("le", "+Inf")));
            out.push_str(&format!("{name}_bucket{le} {cum}\n"));
            out.push_str(&format!("{name}_sum{labels} {}\n", h.sum()));
            out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
        }
    }
}

/// Shortest decimal form of a bucket bound (`0.005`, `1`, `2.5`).
fn format_bound(b: f64) -> String {
    format!("{b}")
}

/// Handles for the solver-side metrics the trial engine records into:
/// per-phase duration and trial-count families plus engine lifecycle
/// counters. Created against a [`Registry`] (typically the serve
/// layer's) and installed into the thread-local [`crate::ObsCtx`] so
/// `Executor::advance` can record without holding a registry reference.
pub struct SolverMetrics {
    registry: Arc<Registry>,
    /// Engine runs that started from a non-empty partial (cache refine).
    pub resumes: Arc<Counter>,
    /// Engine runs stopped by cancellation (deadline / budget).
    pub cancelled: Arc<Counter>,
    /// Cancellation probes performed inside trial loops.
    pub cancel_checks: Arc<Counter>,
}

impl fmt::Debug for SolverMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverMetrics").finish_non_exhaustive()
    }
}

impl SolverMetrics {
    /// Registers the solver metric families on `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let resumes = registry.counter(
            "mpmb_engine_resumes_total",
            "Engine runs resumed from a cached partial accumulator",
        );
        let cancelled = registry.counter(
            "mpmb_engine_cancelled_total",
            "Engine runs stopped by a deadline or trial budget",
        );
        let cancel_checks = registry.counter(
            "mpmb_engine_cancel_checks_total",
            "Cancellation probes performed inside trial loops",
        );
        SolverMetrics {
            registry,
            resumes,
            cancelled,
            cancel_checks,
        }
    }

    /// Records one completed engine phase (one `Executor::advance`).
    pub fn record_phase(&self, phase: &str, secs: f64, trials: u64) {
        self.registry
            .histogram_with(
                "mpmb_solver_phase_seconds",
                "Wall time of one engine phase run",
                PHASE_SECONDS_BUCKETS,
                &[("phase", phase)],
            )
            .observe(secs);
        self.registry
            .counter_with(
                "mpmb_solver_phase_trials_total",
                "Trials executed, by engine phase",
                &[("phase", phase)],
            )
            .add(trials);
    }

    /// Records engine lifecycle facts for one phase run.
    pub fn record_run(&self, resumed: bool, cancelled: bool, checks: u64) {
        if resumed {
            self.resumes.inc();
        }
        if cancelled {
            self.cancelled.inc();
        }
        self.cancel_checks.add(checks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("jobs_total", "Jobs");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Idempotent lookup returns the same instrument.
        assert_eq!(r.counter("jobs_total", "Jobs").get(), 3);

        let g = r.gauge("inflight", "Inflight");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn histogram_bucket_math() {
        let h = Histogram::new(&[0.1, 1.0, 10.0]);
        for v in [0.05, 0.1, 0.2, 1.0, 5.0, 100.0] {
            h.observe(v);
        }
        // Upper bounds are inclusive, like Prometheus `le`.
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 106.35).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_rejects_empty_bounds() {
        let _ = Histogram::new(&[]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_non_increasing_bounds() {
        let _ = Histogram::new(&[1.0, 1.0, 2.0]);
    }

    #[test]
    fn render_matches_expected_text_exactly() {
        let r = Registry::new();
        r.counter("mpmb_cache_hits_total", "Cache hits").add(7);
        r.counter_with(
            "mpmb_requests_total",
            "Requests",
            &[("endpoint", "solve"), ("status", "200")],
        )
        .add(3);
        let h = r.histogram_with(
            "mpmb_request_duration_seconds",
            "Latency",
            &[0.001, 0.01],
            &[("endpoint", "solve")],
        );
        h.observe(0.0005);
        h.observe(0.0005);
        h.observe(0.5);
        r.gauge_fn("mpmb_peak_rss_bytes", "Peak RSS", || 4096);

        let expected = "\
# HELP mpmb_cache_hits_total Cache hits
# TYPE mpmb_cache_hits_total counter
mpmb_cache_hits_total 7
# HELP mpmb_requests_total Requests
# TYPE mpmb_requests_total counter
mpmb_requests_total{endpoint=\"solve\",status=\"200\"} 3
# HELP mpmb_request_duration_seconds Latency
# TYPE mpmb_request_duration_seconds histogram
mpmb_request_duration_seconds_bucket{endpoint=\"solve\",le=\"0.001\"} 2
mpmb_request_duration_seconds_bucket{endpoint=\"solve\",le=\"0.01\"} 2
mpmb_request_duration_seconds_bucket{endpoint=\"solve\",le=\"+Inf\"} 3
mpmb_request_duration_seconds_sum{endpoint=\"solve\"} 0.501
mpmb_request_duration_seconds_count{endpoint=\"solve\"} 3
# HELP mpmb_peak_rss_bytes Peak RSS
# TYPE mpmb_peak_rss_bytes gauge
mpmb_peak_rss_bytes 4096
";
        assert_eq!(r.render(), expected);
    }

    #[test]
    fn labeled_gauges_are_distinct_series() {
        let r = Registry::new();
        let a = r.gauge_with("mpmb_cluster_worker_up", "Up", &[("worker", "a:1")]);
        let b = r.gauge_with("mpmb_cluster_worker_up", "Up", &[("worker", "b:2")]);
        a.set(1);
        b.set(0);
        // Same name+labels returns the same series.
        r.gauge_with("mpmb_cluster_worker_up", "Up", &[("worker", "a:1")])
            .set(1);
        let text = r.render();
        assert!(text.contains("mpmb_cluster_worker_up{worker=\"a:1\"} 1"));
        assert!(text.contains("mpmb_cluster_worker_up{worker=\"b:2\"} 0"));
    }

    #[test]
    #[should_panic(expected = "already registered with kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x_total", "X");
        r.gauge("x_total", "X");
    }

    #[test]
    fn concurrent_histogram_sum_is_exact() {
        let h = std::sync::Arc::new(Histogram::new(&[10.0]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.observe(1.0);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum(), 4000.0);
    }
}

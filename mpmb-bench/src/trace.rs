//! Client-side spans for the traced run.
//!
//! Each request is one span, from send to last response byte. The
//! server's `X-Mpmb-Budget` buckets become its children, laid end to
//! end from the request's start: the header gives each bucket's length
//! but not its position, and positions do not change self times. A
//! layer's self time is its span minus the part its children cover, so
//! the request span's self time is the HTTP edge: client latency the
//! server's own attribution does not explain.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `X-Mpmb-Budget` buckets in header order, with the layer each
/// bucket's span is named after.
pub const BUCKETS: [(&str, &str); 6] = [
    ("queue", "server.queue"),
    ("materialize", "registry.materialize"),
    ("prepare", "ols.prepare"),
    ("trials", "engine.trials"),
    ("network", "cluster.network"),
    ("finalize", "server.finalize"),
];

/// Layer name of a request span's own (uncovered) time.
pub const EDGE_LAYER: &str = "http.edge";

/// Seconds per bucket, in [`BUCKETS`] order.
pub type Budget = [f64; 6];

/// Parses `queue=0.000012;materialize=…;…`; every bucket must appear.
pub fn parse_budget(header: &str) -> Option<Budget> {
    let mut out = [f64::NAN; 6];
    for pair in header.split(';') {
        let (name, secs) = pair.split_once('=')?;
        let i = BUCKETS.iter().position(|(b, _)| *b == name.trim())?;
        out[i] = secs.trim().parse().ok()?;
    }
    out.iter().all(|v| v.is_finite()).then_some(out)
}

pub fn budget_sum(b: &Budget) -> f64 {
    b.iter().sum()
}

struct Span {
    trace: String,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// Spans kept in memory for the whole traced window and written out
/// once at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records one request span and its budget-bucket children.
    pub fn request(&mut self, trace: &str, sent: Instant, done: Instant, budget: &Budget) {
        let id = self.spans.len() as u64 + 1;
        let start_us = (sent - self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            trace: trace.to_string(),
            id,
            parent: None,
            name: "request",
            start_us,
            dur_us: (done - sent).as_secs_f64() * 1e6,
        });
        let mut at = start_us;
        for ((_, layer), secs) in BUCKETS.iter().zip(budget) {
            let dur_us = secs * 1e6;
            self.spans.push(Span {
                trace: trace.to_string(),
                id: self.spans.len() as u64 + 1,
                parent: Some(id),
                name: layer,
                start_us: at,
                dur_us,
            });
            at += dur_us;
        }
    }

    /// Self time of every span, in microseconds, paired with the layer
    /// it is booked to (request spans book to [`EDGE_LAYER`]).
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_us, s.start_us + s.dur_us));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let name = if s.parent.is_none() {
                    EDGE_LAYER
                } else {
                    s.name
                };
                let span = (s.start_us, s.start_us + s.dur_us);
                (name, s.dur_us - covered(span, &children[s.id as usize]))
            })
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("trace", Json::str(&s.trace)),
                ("span", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_us)),
                ("dur_us", Json::Num(s.dur_us)),
            ]);
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

/// Length of the part of `span` covered by the union of `intervals`.
fn covered(span: (f64, f64), intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(span.0), b.min(span.1)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parses_the_servers_budget_header() {
        let h = "queue=0.000010;materialize=0.000000;prepare=0.035527;trials=0.033683;network=0.000000;finalize=0.000065";
        let b = parse_budget(h).unwrap();
        assert_eq!(b[2], 0.035527);
        assert!((budget_sum(&b) - 0.069285).abs() < 1e-12);
        assert!(parse_budget("queue=0.1").is_none());
        assert!(
            parse_budget("queue=x;materialize=0;prepare=0;trials=0;network=0;finalize=0").is_none()
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(
            covered((0.0, 10.0), &[(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]),
            5.0
        );
        assert_eq!(covered((0.0, 10.0), &[]), 0.0);
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let budget = [0.001, 0.0, 0.0, 0.002, 0.0, 0.0005];
        t.request("r1", origin, origin + Duration::from_millis(10), &budget);
        let selfs = t.self_times();
        let edge = selfs.iter().find(|(n, _)| *n == EDGE_LAYER).unwrap().1;
        assert!((edge - 6_500.0).abs() < 1e-6, "{edge}");
        let trials = selfs.iter().find(|(n, _)| *n == "engine.trials").unwrap().1;
        assert!((trials - 2_000.0).abs() < 1e-6);
    }
}

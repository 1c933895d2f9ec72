//! Deterministic fault injection for the server's request path.
//!
//! A [`FaultPlan`] decides, per eligible request, whether to drop the
//! connection before answering, dribble the response out slowly, cut
//! the body short, or panic inside the worker. Decisions are a pure
//! function of `(seed, request ordinal)` — a splitmix64 hash mapped to
//! `[0,1)` against cumulative rates — so a given seed produces the same
//! multiset of faults run after run, which is what lets the e2e tests
//! assert "every request completed despite the plan".
//!
//! Observability endpoints (`GET /metrics`, `GET /healthz`) are exempt:
//! tests and operators must be able to watch a deliberately-faulty
//! server without the watching itself being faulted.
//!
//! Plans come from `--fault-plan`, as a comma-separated spec:
//!
//! ```text
//! seed=7,reset=0.1,slow=0.05,partial=0.05,panic=0.01,panic_at=3
//! ```
//!
//! Rates are probabilities in `[0,1]` summing to at most 1; `panic_at`
//! forces exactly one panic on the Nth eligible request (0-based), on
//! top of the probabilistic rates.

use crate::http::{render_head, Response};
use crate::server::Route;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to do to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Drop the connection without writing a response.
    Reset,
    /// Write the response in small chunks with delays.
    SlowWrite,
    /// Write the head and only half the body, then close.
    PartialBody,
    /// Panic inside the worker (must be caught per-connection).
    Panic,
}

/// A seeded fault schedule. One instance per server; the ordinal
/// counter makes decisions across workers collision-free.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    reset: f64,
    slow: f64,
    partial: f64,
    panic: f64,
    panic_at: Option<u64>,
    ordinal: AtomicU64,
}

impl FaultPlan {
    /// Parses a `key=value,...` spec. Unknown keys and out-of-range
    /// rates are errors — a typo must not silently disable the plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 0,
            reset: 0.0,
            slow: 0.0,
            partial: 0.0,
            panic: 0.0,
            panic_at: None,
            ordinal: AtomicU64::new(0),
        };
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("bad fault rate `{v}` for `{key}`"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault rate `{key}={r}` out of [0,1]"));
                }
                Ok(r)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("bad fault-plan seed `{value}`"))?
                }
                "reset" => plan.reset = rate(value)?,
                "slow" => plan.slow = rate(value)?,
                "partial" => plan.partial = rate(value)?,
                "panic" => plan.panic = rate(value)?,
                "panic_at" => {
                    plan.panic_at = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad panic_at `{value}`"))?,
                    )
                }
                other => return Err(format!("unknown fault-plan key `{other}`")),
            }
        }
        if plan.reset + plan.slow + plan.partial + plan.panic > 1.0 {
            return Err("fault rates sum to more than 1".to_string());
        }
        Ok(plan)
    }

    /// Draws the action (if any) for the next request the plan covers;
    /// an exempt route draws nothing and consumes no ordinal.
    pub(crate) fn decide(&self, route: Route) -> Option<FaultAction> {
        if route.fault_exempt() {
            return None;
        }
        let ordinal = self.ordinal.fetch_add(1, Ordering::Relaxed);
        if self.panic_at == Some(ordinal) {
            return Some(FaultAction::Panic);
        }
        // splitmix64 of (seed, ordinal) → uniform in [0,1).
        let u = (splitmix64(self.seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64
            / (1u64 << 53) as f64;
        let mut edge = self.reset;
        if u < edge {
            return Some(FaultAction::Reset);
        }
        edge += self.slow;
        if u < edge {
            return Some(FaultAction::SlowWrite);
        }
        edge += self.partial;
        if u < edge {
            return Some(FaultAction::PartialBody);
        }
        edge += self.panic;
        if u < edge {
            return Some(FaultAction::Panic);
        }
        None
    }
}

/// The splitmix64 mix, shared with the retry client's jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Chunks a slow-write response into this many pieces.
const SLOW_CHUNKS: usize = 8;
/// Delay between slow-write chunks. Total added latency stays well
/// under a retrying client's patience but far above a normal write.
const SLOW_CHUNK_DELAY: Duration = Duration::from_millis(5);

/// Writes `resp` under `action`'s degradation. Returns `Ok(true)` if
/// the connection is still usable afterwards, `Ok(false)` if the fault
/// requires closing it (partial bodies must not be followed by another
/// response the client could misparse).
pub fn write_degraded(
    stream: &mut TcpStream,
    resp: &Response,
    close: bool,
    action: FaultAction,
) -> std::io::Result<bool> {
    match action {
        FaultAction::Reset | FaultAction::Panic => Ok(false), // handled by the caller
        FaultAction::SlowWrite => {
            let mut bytes = render_head(resp, close).into_bytes();
            bytes.extend_from_slice(&resp.body);
            let chunk = bytes.len().div_ceil(SLOW_CHUNKS).max(1);
            for piece in bytes.chunks(chunk) {
                stream.write_all(piece)?;
                stream.flush()?;
                std::thread::sleep(SLOW_CHUNK_DELAY);
            }
            Ok(!close)
        }
        FaultAction::PartialBody => {
            stream.write_all(render_head(resp, close).as_bytes())?;
            stream.write_all(&resp.body[..resp.body.len() / 2])?;
            stream.flush()?;
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("seed=7,reset=0.1,slow=0.2,partial=0.05,panic=0.01,panic_at=3")
            .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.panic_at, Some(3));
        assert_eq!(p.reset, 0.1);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("reset").is_err());
        assert!(FaultPlan::parse("reset=2.0").is_err());
        assert!(FaultPlan::parse("reset=-0.5").is_err());
        assert!(FaultPlan::parse("unknown=1").is_err());
        assert!(FaultPlan::parse("reset=0.6,slow=0.6").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }

    fn solve() -> Route {
        Route::parse("POST", "/v1/solve")
    }

    #[test]
    fn empty_spec_never_faults() {
        let p = FaultPlan::parse("").unwrap();
        for _ in 0..1_000 {
            assert_eq!(p.decide(solve()), None);
        }
    }

    #[test]
    fn observability_paths_are_exempt_and_do_not_consume_ordinals() {
        let p = FaultPlan::parse("seed=1,panic_at=1").unwrap();
        assert_eq!(p.decide(Route::parse("GET", "/metrics")), None);
        assert_eq!(p.decide(Route::parse("GET", "/healthz")), None);
        // The federated page is not exempt: it draws ordinal 0, so the
        // next request draws the forced panic.
        assert_eq!(p.decide(Route::parse("GET", "/metrics/cluster")), None);
        assert_eq!(p.decide(solve()), Some(FaultAction::Panic));
    }

    #[test]
    fn panic_at_fires_exactly_once() {
        let p = FaultPlan::parse("seed=1,panic_at=2").unwrap();
        let actions: Vec<_> = (0..6).map(|_| p.decide(solve())).collect();
        assert_eq!(actions[2], Some(FaultAction::Panic));
        assert_eq!(
            actions
                .iter()
                .filter(|a| **a == Some(FaultAction::Panic))
                .count(),
            1
        );
    }

    #[test]
    fn rates_are_deterministic_and_roughly_calibrated() {
        let draw = |seed: u64| -> (u64, u64, u64, u64) {
            let p = FaultPlan::parse(&format!(
                "seed={seed},reset=0.2,slow=0.1,partial=0.1,panic=0.05"
            ))
            .unwrap();
            let (mut r, mut s, mut pa, mut pn) = (0u64, 0u64, 0u64, 0u64);
            for _ in 0..10_000 {
                match p.decide(solve()) {
                    Some(FaultAction::Reset) => r += 1,
                    Some(FaultAction::SlowWrite) => s += 1,
                    Some(FaultAction::PartialBody) => pa += 1,
                    Some(FaultAction::Panic) => pn += 1,
                    None => {}
                }
            }
            (r, s, pa, pn)
        };
        let first = draw(42);
        assert_eq!(first, draw(42), "same seed, same schedule");
        assert_ne!(first, draw(43), "different seed, different schedule");
        let (r, s, pa, pn) = first;
        assert!((1_500..2_500).contains(&r), "reset rate off: {r}");
        assert!((600..1_400).contains(&s), "slow rate off: {s}");
        assert!((600..1_400).contains(&pa), "partial rate off: {pa}");
        assert!((250..750).contains(&pn), "panic rate off: {pn}");
    }
}

//! The correctness gate: answers served during the measured window,
//! re-issued after it to a fresh single node with the cache off, must
//! come back byte for byte. On `cluster-os` that compares the cluster
//! with one node; on `edge-closed`, cache hits with recomputations.

use crate::client::{Conn, Response};
use crate::drive::Sample;
use crate::stats::Rng;
use crate::workload::Req;
use std::collections::HashMap;

/// Re-issued requests per run.
pub const REPLAYS: usize = 32;

/// A request and the body the measured server gave it.
pub struct Recorded {
    pub req: Req,
    pub body: Vec<u8>,
    /// How many times the window sent this exact request.
    pub sent: usize,
}

/// The window's answers per distinct request, with a consistency check:
/// every repeat of one request must have received the same bytes.
pub fn record(samples: &[Sample]) -> (Vec<Recorded>, Vec<String>) {
    let mut index: HashMap<(&str, &str), usize> = HashMap::new();
    let mut out: Vec<Recorded> = Vec::new();
    let mut mismatches = Vec::new();
    for s in samples {
        let Some(body) = s.ok_body() else { continue };
        match index.get(&(s.req.path, s.req.body.as_str())) {
            Some(&i) => {
                out[i].sent += 1;
                if out[i].body != body {
                    mismatches.push(format!(
                        "repeat of {} {} changed its answer",
                        s.req.path, s.req.body
                    ));
                }
            }
            None => {
                index.insert((s.req.path, s.req.body.as_str()), out.len());
                out.push(Recorded {
                    req: s.req.clone(),
                    body: body.to_vec(),
                    sent: 1,
                });
            }
        }
    }
    (out, mismatches)
}

/// A seeded choice of [`REPLAYS`] distinct requests, repeated ones
/// first, so answers served from the cache are the ones re-checked.
pub fn pick(recorded: &[Recorded], seed: u64) -> Vec<&Recorded> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<(bool, u64, &Recorded)> = recorded
        .iter()
        .map(|r| (r.sent == 1, rng.next_u64(), r))
        .collect();
    order.sort_by_key(|&(single, key, _)| (single, key));
    order.into_iter().take(REPLAYS).map(|(_, _, r)| r).collect()
}

/// Replays `picked` through `call` and lists every answer that differs.
pub fn replay(
    picked: &[&Recorded],
    mut call: impl FnMut(&Req) -> std::io::Result<Response>,
) -> Vec<String> {
    picked
        .iter()
        .filter_map(|r| match call(&r.req) {
            Ok(resp) if resp.status == 200 && resp.body == r.body => None,
            Ok(resp) => Some(format!(
                "{} {}: served {:?}, recomputed {} {:?}",
                r.req.path,
                r.req.body,
                String::from_utf8_lossy(&r.body),
                resp.status,
                resp.text()
            )),
            Err(e) => Some(format!("{} {}: replay failed: {e}", r.req.path, r.req.body)),
        })
        .collect()
}

/// Replays over one connection to the gate server at `addr`.
pub fn replay_on(addr: &str, picked: &[&Recorded]) -> Vec<String> {
    let mut conn = Conn::new(addr);
    replay(picked, |req| {
        conn.call("POST", req.path, req.body.as_bytes(), &[])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    fn recorded(body: &str) -> Recorded {
        Recorded {
            req: Req {
                path: "/v1/solve",
                body: format!(r#"{{"seed":{}}}"#, body.len()),
                kind: Kind::Os,
                graph: "g",
            },
            body: body.as_bytes().to_vec(),
            sent: 2,
        }
    }

    fn ok(body: &[u8]) -> std::io::Result<Response> {
        Ok(Response {
            status: 200,
            headers: Vec::new(),
            body: body.to_vec(),
        })
    }

    #[test]
    fn identical_recomputation_passes() {
        let a = recorded(r#"{"prob":0.25}"#);
        assert!(replay(&[&a], |_| ok(&a.body)).is_empty());
    }

    #[test]
    fn an_altered_body_is_caught() {
        let a = recorded(r#"{"prob":0.25}"#);
        // One flipped digit, same length: only a byte comparison sees it.
        let mismatches = replay(&[&a], |_| ok(br#"{"prob":0.26}"#));
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        let failed = replay(&[&a], |_| {
            Ok(Response {
                status: 503,
                headers: Vec::new(),
                body: a.body.clone(),
            })
        });
        assert_eq!(failed.len(), 1);
    }

    #[test]
    fn pick_prefers_repeated_requests_and_is_seeded() {
        let mut all: Vec<Recorded> = (0..40).map(|i| recorded(&"x".repeat(i + 1))).collect();
        for r in all.iter_mut().skip(10) {
            r.sent = 1;
        }
        let picked = pick(&all, 3);
        assert_eq!(picked.len(), REPLAYS);
        assert!(picked[..10].iter().all(|r| r.sent == 2));
        let again: Vec<&str> = pick(&all, 3).iter().map(|r| r.req.body.as_str()).collect();
        let first: Vec<&str> = picked.iter().map(|r| r.req.body.as_str()).collect();
        assert_eq!(first, again);
    }
}

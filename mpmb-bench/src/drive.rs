//! Load generation: one process, at most two client threads, so at
//! most two connections in flight.

use crate::client::Conn;
use crate::stats::{self, STREAM_SCHEDULE};
use crate::trace::{parse_budget, Budget};
use crate::workload::{Drive, Req, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub struct Sample {
    pub req: Req,
    pub request_id: String,
    /// When the request was due: its schedule slot in an open loop, its
    /// send time in a closed one. Latency is measured from here.
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub outcome: Outcome,
}

pub enum Outcome {
    Ok {
        body: Vec<u8>,
        budget: Option<Budget>,
    },
    Failed(String),
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    pub fn send_lag_ms(&self) -> f64 {
        ms(self.sent - self.due)
    }

    pub fn ok_body(&self) -> Option<&[u8]> {
        match &self.outcome {
            Outcome::Ok { body, .. } => Some(body),
            Outcome::Failed(_) => None,
        }
    }

    pub fn budget(&self) -> Option<&Budget> {
        match &self.outcome {
            Outcome::Ok { budget, .. } => budget.as_ref(),
            Outcome::Failed(_) => None,
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One measured window.
pub struct Window {
    pub samples: Vec<Sample>,
    pub start: Instant,
    /// The later of the window's nominal end and the last answer.
    pub end: Instant,
}

impl Window {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Sends one request and classifies the outcome. Anything but a 200
/// with a body the workload accepts is a failure. `close` asks the
/// server to close the connection after answering.
fn exchange(
    conn: &mut Conn,
    wl: &Workload,
    req: Req,
    request_id: String,
    due: Instant,
    close: bool,
) -> Sample {
    let sent = Instant::now();
    let mut headers = vec![("X-Request-Id", request_id.as_str())];
    if close {
        headers.push(("Connection", "close"));
    }
    let result = conn.call("POST", req.path, req.body.as_bytes(), &headers);
    let done = Instant::now();
    let outcome = match result {
        Err(e) => Outcome::Failed(format!("transport: {e}")),
        Ok(resp) if resp.status != 200 => {
            Outcome::Failed(format!("status {}: {}", resp.status, resp.text()))
        }
        Ok(resp) => match wl.check(&req, &resp.body) {
            Err(e) => Outcome::Failed(format!("wrong answer: {e}")),
            Ok(()) => Outcome::Ok {
                budget: resp.header("x-mpmb-budget").and_then(parse_budget),
                body: resp.body,
            },
        },
    };
    Sample {
        req,
        request_id,
        due,
        sent,
        done,
        outcome,
    }
}

/// Runs `wl` against `addr` for `seconds`; `tag` makes request ids
/// unique per pass.
pub fn run(addr: &str, wl: &Workload, seed: u64, seconds: f64, tag: &str) -> Window {
    match wl.drive {
        Drive::Open { rate, connections } => {
            let due =
                stats::poisson_schedule(stats::derive(seed, STREAM_SCHEDULE, 0), rate, seconds);
            open_loop(addr, wl, &due, connections, seconds, tag)
        }
        Drive::Closed { clients } => closed_loop(addr, wl, clients, seconds, tag),
    }
}

/// Open loop: arrivals are independent users, so each request opens
/// its own connection and passes through the server's accept path.
/// Each of `connections` senders takes the next scheduled request,
/// waits for its due time, and sends it; a request whose due time
/// passes while every sender is busy waits for one, and that wait
/// counts in its latency.
fn open_loop(
    addr: &str,
    wl: &Workload,
    due: &[f64],
    connections: usize,
    seconds: f64,
    tag: &str,
) -> Window {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(due.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&at) = due.get(i) else { break };
                    let due_at = start + Duration::from_secs_f64(at);
                    let now = Instant::now();
                    if due_at > now {
                        std::thread::sleep(due_at - now);
                    }
                    let req = wl.request(0, i as u64);
                    let id = format!("{tag}-{i}");
                    mine.push(exchange(&mut Conn::new(addr), wl, req, id, due_at, true));
                }
                out.lock().expect("no sender panics").extend(mine);
            });
        }
    });
    finish(out, start, seconds)
}

/// Closed loop: each client sends its next request as soon as the
/// previous one is answered, until the window closes.
fn closed_loop(addr: &str, wl: &Workload, clients: usize, seconds: f64, tag: &str) -> Window {
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for c in 0..clients as u64 {
            let out = &out;
            s.spawn(move || {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                let mut j = 0u64;
                while Instant::now() < stop {
                    let req = wl.request(c, j);
                    let now = Instant::now();
                    let id = format!("{tag}-{c}-{j}");
                    mine.push(exchange(&mut conn, wl, req, id, now, false));
                    j += 1;
                }
                out.lock().expect("no sender panics").extend(mine);
            });
        }
    });
    finish(out, start, seconds)
}

fn finish(out: Mutex<Vec<Sample>>, start: Instant, seconds: f64) -> Window {
    let mut samples = out.into_inner().expect("no sender panics");
    samples.sort_by_key(|s| s.due);
    let nominal = start + Duration::from_secs_f64(seconds);
    let end = samples
        .iter()
        .map(|s| s.done)
        .max()
        .map_or(nominal, |d| d.max(nominal));
    Window {
        samples,
        start,
        end,
    }
}

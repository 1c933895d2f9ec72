//! `mpmb serve` processes as the benchmark sees them from outside:
//! spawn, readiness, `/metrics` scrapes, `/proc` counters, shutdown.

use crate::client;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const READY_TIMEOUT: Duration = Duration::from_secs(120);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ, fixed at 100
/// by the kernel ABI on every architecture it ships for.
const USER_HZ: f64 = 100.0;

/// One running server process. Dropping it kills the process and waits
/// for it, so no error path leaves one behind.
pub struct Node {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Node {
    /// Starts `mpmb serve --listen 127.0.0.1:0 ARGS…` and returns once
    /// it has registered its graphs and announced its address.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Node, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the announcement, then keeps draining so the server
        // never blocks on a full pipe; keeps the tail for error reports.
        let reader = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("mpmb-serve listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
                tail.push(line);
                if tail.len() > 20 {
                    tail.remove(0);
                }
            }
            tail
        });
        let mut node = Node {
            child,
            addr: String::new(),
            stderr: Some(reader),
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => {
                node.addr = addr;
                Ok(node)
            }
            Err(_) => {
                node.kill();
                let tail = node.stderr.take().and_then(|h| h.join().ok());
                Err(format!(
                    "server never became ready: {}",
                    tail.unwrap_or_default().join(" | ")
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful drain through the admin endpoint, SIGKILL if it hangs.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = client::once(&self.addr, "POST", "/admin/shutdown", b"");
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let drained = asked.is_ok()
            && loop {
                match self.child.try_wait() {
                    Ok(Some(_)) => break true,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => break false,
                }
            };
        self.kill();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if drained {
            Ok(())
        } else {
            Err(format!("server {} did not drain; killed", self.addr))
        }
    }

    /// Peak resident set (`VmHWM`), in bytes.
    pub fn peak_rss_bytes(&self) -> Result<f64, String> {
        let status = read_proc(self.pid(), "status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb * 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// User plus system CPU time consumed so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = read_proc(self.pid(), "stat")?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok((u + s) / USER_HZ),
            _ => Err("malformed /proc stat".to_string()),
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}"))
        .map_err(|e| format!("/proc/{pid}/{file}: {e}"))
}

/// One `/metrics` page: every sample line keyed by its full series text
/// (`name{labels}`).
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    pub fn fetch(addr: &str) -> Result<Scrape, String> {
        let resp = client::once(addr, "GET", "/metrics", b"")
            .map_err(|e| format!("GET /metrics on {addr}: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics on {addr}: status {}", resp.status));
        }
        Ok(Scrape::parse(&resp.text()))
    }

    /// A series' value; absent series read 0, as an idle counter does.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }
}

/// Growth of `series` between two scrapes.
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.get(series) - before.get(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_keys_series_by_their_labels() {
        let page = "# HELP x y\n# TYPE x counter\nmpmb_cache_hits_total 7\n\
mpmb_solver_phase_seconds_sum{phase=\"os.sample\"} 0.25\n";
        let s = Scrape::parse(page);
        assert_eq!(s.get("mpmb_cache_hits_total"), 7.0);
        assert_eq!(
            s.get("mpmb_solver_phase_seconds_sum{phase=\"os.sample\"}"),
            0.25
        );
        assert_eq!(s.get("missing"), 0.0);
    }
}

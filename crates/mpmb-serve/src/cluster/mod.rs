//! Sharded multi-node serving: a deterministic scatter-gather cluster.
//!
//! One **coordinator** owns the public API surface; N **workers** own
//! trial execution. For each solve-like request the coordinator
//! partitions the trial space with the canonical
//! [`mpmb_core::chunk_ranges`] split, fans the ranges out to workers
//! over `POST /v1/internal/solve-range` (a codec-framed
//! [`crate::solve::PartialState`] comes back per range), and absorbs
//! the returned accumulators into one master partial. Because every
//! engine draws a trial's randomness from the trial *index* alone and
//! merging is order-insensitive, the assembled result is **byte
//! identical** to a single-node run at any worker count — the cluster
//! changes where trials run, never what they compute.
//!
//! Failure handling falls out of the same resume semantics the result
//! cache uses: a worker that dies, times out, or returns a truncated
//! range leaves holes in the master partial's `done` set, and the next
//! scatter round re-dispatches exactly the *remaining* trials of those
//! holes to healthy workers. Membership is a static list probed via
//! `GET /healthz`; per-worker up/down gauges and dispatch counters land
//! on the coordinator's `/metrics` page. All cluster traffic flows
//! through the ordinary HTTP edge, so the existing `--fault-plan`
//! machinery exercises worker crashes, resets, and truncated responses
//! end to end.
//!
//! Single-node servers, coordinators, and workers share one driver
//! ([`crate::solve`]); they differ only in the range runner it is
//! handed. `POST /v1/query` and OLS preparing stay coordinator-local
//! (cheap next to estimation); every other solve-like phase scatters.

pub(crate) mod coordinator;
pub(crate) mod membership;
pub(crate) mod proto;
pub(crate) mod worker;

use crate::client::RetryPolicy;
use crate::metrics::Metrics;
use membership::Membership;

/// Which half of the cluster protocol this process speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Ordinary standalone server (the default): solves locally.
    Single,
    /// Owns the public API; scatters trial ranges to workers.
    Coordinator,
    /// Executes `/v1/internal/solve-range` calls; otherwise a normal
    /// server (it still solves locally if asked directly).
    Worker,
}

impl Role {
    /// Parses a `--role` flag value.
    pub fn parse(s: &str) -> Result<Role, String> {
        match s {
            "single" => Ok(Role::Single),
            "coordinator" => Ok(Role::Coordinator),
            "worker" => Ok(Role::Worker),
            other => Err(format!(
                "unknown role `{other}` (expected single|coordinator|worker)"
            )),
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Role::Single => "single",
            Role::Coordinator => "coordinator",
            Role::Worker => "worker",
        })
    }
}

/// Coordinator-side cluster state: the member list and the retry
/// policy used for every worker call.
pub struct Cluster {
    pub(crate) members: Membership,
    pub(crate) retry: RetryPolicy,
}

impl Cluster {
    /// Builds the cluster view for a coordinator, registering the
    /// per-worker up/down gauges on the server's metrics registry.
    /// Workers start optimistically up; the first failed call or probe
    /// marks them down.
    pub fn new(workers: Vec<String>, metrics: &Metrics) -> Cluster {
        let members = Membership::new(workers, metrics.registry());
        metrics.cluster_workers.set(members.len() as i64);
        Cluster {
            members,
            retry: RetryPolicy::default(),
        }
    }
}

/// Why a solve-like request could not be answered — locally or
/// scattered.
#[derive(Debug)]
pub enum ClusterError {
    /// The request itself is invalid (unknown method, bad state).
    BadRequest(String),
    /// The request names something the graph does not have (a query
    /// butterfly outside the backbone).
    NotFound(String),
    /// Every configured worker is down and a fresh probe round found
    /// none alive.
    NoWorkers,
    /// A worker answered with an HTTP error status — the cluster is
    /// misconfigured (e.g. the graph is missing on that worker).
    Worker {
        /// The worker's address.
        addr: String,
        /// The status it returned.
        status: u16,
        /// Its response body.
        body: String,
    },
    /// A worker returned bytes that violate the range protocol.
    Protocol(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadRequest(msg) | ClusterError::NotFound(msg) => write!(f, "{msg}"),
            ClusterError::NoWorkers => write!(f, "no healthy cluster workers"),
            ClusterError::Worker { addr, status, body } => {
                write!(f, "worker {addr} answered {status}: {body}")
            }
            ClusterError::Protocol(msg) => write!(f, "cluster protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_parses_and_displays_round_trip() {
        for (s, r) in [
            ("single", Role::Single),
            ("coordinator", Role::Coordinator),
            ("worker", Role::Worker),
        ] {
            assert_eq!(Role::parse(s).unwrap(), r);
            assert_eq!(r.to_string(), s);
        }
        assert!(Role::parse("primary").is_err());
    }

    #[test]
    fn cluster_registers_worker_gauges() {
        let metrics = Metrics::default();
        let cluster = Cluster::new(vec!["a:1".into(), "b:2".into()], &metrics);
        assert_eq!(cluster.members.len(), 2);
        let text = metrics.render();
        assert!(text.contains("mpmb_cluster_workers 2"));
        assert!(text.contains("mpmb_cluster_worker_up{worker=\"a:1\"} 1"));
        assert!(text.contains("mpmb_cluster_worker_up{worker=\"b:2\"} 1"));
    }
}

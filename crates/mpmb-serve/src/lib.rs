#![warn(missing_docs)]

//! `mpmb-serve`: a long-running MPMB query daemon.
//!
//! Serves the repo's solvers over hand-rolled HTTP/1.1 (std-only, like
//! everything else in the workspace) with:
//!
//! * a **graph registry** — named graphs loaded once from files
//!   ([`bigraph::io::read_auto`]) or the synthetic Table III stand-ins
//!   ([`datasets`]), shared read-only across requests;
//! * **endpoints** mapping 1:1 onto the CLI: `POST /v1/solve`,
//!   `/v1/query`, `/v1/count`, `/v1/topk`, `GET /v1/graphs`,
//!   `POST /v1/graphs`, `GET /healthz`;
//! * a **deterministic result cache** — solvers are pure functions of
//!   `(graph, method, trials, seed, …)`, so finished responses replay
//!   verbatim, and timed-out requests cache their resumable
//!   [`solve::PartialState`] so a repeat *refines* the answer instead
//!   of restarting at trial zero;
//! * **robustness** — per-request deadlines with cancellable solver
//!   loops (503 + partial trial counts), a bounded accept queue with
//!   429 load shedding, and graceful SIGTERM/SIGINT drain;
//! * **observability** — `GET /metrics` in Prometheus text format
//!   (request, cache, and solver-phase series on one [`obs`] registry),
//!   per-request trace ids honoring and echoing `X-Request-Id`,
//!   JSON-lines access/span traces behind a runtime-selectable sink,
//!   and `GET /debug/trace` with recent solve phase breakdowns;
//! * **sharded multi-node serving** — `--role coordinator` scatters
//!   each request's trial budget across `--workers` over an internal
//!   range protocol and gathers byte-identical answers at any worker
//!   count, re-dispatching remaining trials when a worker dies
//!   mid-range (see [`cluster`] and `docs/CLUSTER.md`).
//!
//! See `docs/SERVING.md` for the full API reference.

pub mod cache;
pub mod checkpoint;
pub mod client;
pub mod cluster;
pub mod fault;
pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod signal;
pub mod solve;

pub use cache::{CacheEntry, ResultCache};
pub use checkpoint::ManifestEntry;
pub use checkpoint::{CheckpointStore, LoadOutcome, Snapshot};
pub use client::{call_retry, call_retry_expect, ClientError, Retried, RetryPolicy};
pub use cluster::{Cluster, ClusterError, Role};
pub use fault::{FaultAction, FaultPlan};
pub use metrics::Metrics;
pub use registry::{GraphHandle, Registry, RegistryError};
pub use server::{AppState, Server, ServerConfig, SolveTrace};
pub use solve::{
    advance_local, Answer, Cancel, Job, Method, Outcome, Partial, PartialState, Progress,
    CHECK_EVERY,
};

//! The query daemon: accept loop, worker pool, routing, and handlers.
//!
//! One accept thread pushes connections into a bounded queue; when the
//! queue is full the connection is answered `429` immediately (load
//! shedding) instead of growing an unbounded backlog. A fixed pool of
//! worker threads pops connections and speaks keep-alive HTTP/1.1 on
//! them. Shutdown (SIGTERM, SIGINT, or `POST /admin/shutdown`) shuts
//! the listener down, which wakes the accept thread blocked in
//! `accept`, drains every queued and in-flight request, then joins the
//! pool.
//!
//! Every request runs under an [`obs::ObsCtx`]: a trace id (the
//! client's `X-Request-Id` if present, freshly minted otherwise, echoed
//! back in the response), a per-request [`obs::Profile`] that solver
//! phase spans aggregate into, and the server's shared
//! [`obs::SolverMetrics`] so engine phases land in `/metrics`
//! histograms. Solve-like requests additionally push a summary into a
//! ring buffer served by `GET /debug/trace`.

use crate::cache::{CacheEntry, ResultCache};
use crate::checkpoint::{CheckpointStore, LoadOutcome, Snapshot};
use crate::cluster::coordinator::Scatter;
use crate::cluster::{self, Cluster, ClusterError, Role};
use crate::fault::{self, FaultAction, FaultPlan};
use crate::http::{read_request, write_response, ReadError, Request, Response};
use crate::json::Json;
use crate::metrics::{endpoint_index, Metrics};
use crate::registry::{Registry, RegistryError};
use crate::signal;
use crate::solve::{self, Answer, Cancel, Job, Method, Outcome, PartialState, Runner};
use mpmb_core::{Butterfly, Distribution, Executor};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tunables, mapped 1:1 onto `mpmb serve` flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7700` (port 0 = ephemeral).
    pub listen: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Bounded accept-queue depth; beyond it connections get 429.
    pub queue: usize,
    /// Per-request deadline in milliseconds (0 = none); over-deadline
    /// solves return 503 with partial trial counts.
    pub timeout_ms: u64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum client-requested solver `threads` per request (0 = use
    /// the worker-pool size). Requests above the cap are rejected with
    /// 400 rather than silently clamped — results are thread-count
    /// independent, so clamping would only hide a misconfigured client.
    pub max_solver_threads: usize,
    /// Directory for durable snapshots of the registry manifest and
    /// every resumable partial (`None` disables checkpointing). On
    /// startup a verified snapshot there is restored: graphs reload and
    /// re-issued requests resume instead of restarting at trial zero.
    pub checkpoint_dir: Option<PathBuf>,
    /// Cadence between background snapshots, in milliseconds. A final
    /// snapshot is always written after a graceful drain.
    pub checkpoint_every_ms: u64,
    /// Fault-injection spec (see [`crate::fault`]); `None` serves
    /// faithfully.
    pub fault_plan: Option<String>,
    /// Which cluster role this process plays (see [`crate::cluster`]).
    pub role: Role,
    /// Worker addresses (`host:port`) a coordinator scatters to.
    /// Required (non-empty) when `role` is [`Role::Coordinator`],
    /// ignored otherwise.
    pub workers: Vec<String>,
    /// Cadence of the coordinator's `/healthz` probe loop, in
    /// milliseconds.
    pub probe_interval_ms: u64,
    /// Graph-residency budget in bytes (0 = unlimited). When tracked
    /// graph bytes — or, with the counting allocator installed, live
    /// process heap — exceed it, cold container-backed graphs are
    /// evicted and re-materialize on next use.
    pub mem_budget: u64,
    /// How many solve summaries `GET /debug/trace` retains. The CLI
    /// rejects 0; the server itself clamps to at least 1.
    pub trace_ring: usize,
    /// Whether solve-like responses carry an `X-Mpmb-Budget` debug
    /// header with the per-bucket deadline spend.
    pub budget_header: bool,
    /// Whether a completed `method=fast` answer whose certified CI
    /// misses the requested relative error additionally seeds (or
    /// advances) the exact os-tier partial under the os cache key
    /// within the request's remaining deadline — so a `method=os`
    /// retry refines toward the exact answer instead of starting at
    /// trial zero.
    pub fast_escalate: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:7700".to_string(),
            threads: 4,
            queue: 64,
            timeout_ms: 0,
            cache_capacity: 256,
            max_solver_threads: 0,
            checkpoint_dir: None,
            checkpoint_every_ms: 5_000,
            fault_plan: None,
            role: Role::Single,
            workers: Vec::new(),
            probe_interval_ms: 1_000,
            mem_budget: 0,
            trace_ring: 64,
            budget_header: false,
            fast_escalate: false,
        }
    }
}

/// Wall-clock attribution of one solve-like request into the named
/// deadline-budget buckets of [`crate::metrics::BUDGET_BUCKETS`].
/// Derived from the request's phase profile: every recorded phase maps
/// onto exactly one bucket (worker-stitched `addr/phase` entries are
/// classified by their phase suffix), and whatever wall time no phase
/// accounted for lands in `finalize` — response shaping, cache writes,
/// serialization. Because nested spans (e.g. `ols.listing` inside an
/// OLS prepare) can overlap, the classified sum may exceed wall time;
/// `finalize` saturates at zero rather than going negative.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Budget {
    /// Accept-queue wait before a worker thread picked the connection
    /// up (first request on the connection only).
    pub queue: f64,
    /// Container materialization of the request's graph.
    pub materialize: f64,
    /// Candidate preparation: OLS prepare passes and listing phases.
    pub prepare: f64,
    /// Trial execution (sampling phases, local or worker-stitched).
    pub trials: f64,
    /// Cluster dispatch and merge: scatter/gather overhead plus
    /// per-worker wall time no worker phase accounted for.
    pub network: f64,
    /// Everything else — wall time outside every recorded phase.
    pub finalize: f64,
}

impl Budget {
    /// Classifies a phase profile against the request's wall time.
    pub fn from_phases(phases: &[obs::PhaseStat], wall_secs: f64) -> Budget {
        let mut b = Budget::default();
        for p in phases {
            // Worker-stitched phases arrive as `addr/phase`; classify
            // by the phase name alone.
            let name = p.name.rsplit('/').next().unwrap_or(&p.name);
            if is_sub_phase(name) {
                continue;
            }
            let slot = match name {
                "queue.wait" => &mut b.queue,
                "registry.materialize" => &mut b.materialize,
                "cluster.merge" | "cluster.network" => &mut b.network,
                n if n.contains("prepare") || n.contains("listing") => &mut b.prepare,
                _ => &mut b.trials,
            };
            *slot += p.secs;
        }
        b.finalize =
            (wall_secs - b.queue - b.materialize - b.prepare - b.trials - b.network).max(0.0);
        b
    }

    /// Bucket values in [`crate::metrics::BUDGET_BUCKETS`] order.
    pub fn values(&self) -> [f64; 6] {
        [
            self.queue,
            self.materialize,
            self.prepare,
            self.trials,
            self.network,
            self.finalize,
        ]
    }

    /// The `X-Mpmb-Budget` header value: `bucket=seconds` pairs joined
    /// with `;`, microsecond precision.
    pub fn header_value(&self) -> String {
        crate::metrics::BUDGET_BUCKETS
            .iter()
            .zip(self.values())
            .map(|(name, secs)| format!("{name}={secs:.6}"))
            .collect::<Vec<_>>()
            .join(";")
    }

    fn to_json(self) -> Json {
        Json::Obj(
            crate::metrics::BUDGET_BUCKETS
                .iter()
                .zip(self.values())
                .map(|(name, secs)| (name.to_string(), Json::Num(secs)))
                .collect(),
        )
    }
}

/// Whether `phase` times a stage of a phase that already covers it:
/// `materialize`'s `storage.*` stages run inside `registry.materialize`.
/// Budgets and stitched worker accounting skip them so no time counts
/// twice.
pub(crate) fn is_sub_phase(phase: &str) -> bool {
    phase.starts_with("storage.")
}

/// One completed solve-like request, as retained for `/debug/trace`.
#[derive(Clone, Debug)]
pub struct SolveTrace {
    /// The request's trace id (client-supplied or minted).
    pub trace_id: String,
    /// Request path, e.g. `/v1/solve`.
    pub endpoint: String,
    /// The `graph` field of the request body (empty if unparseable).
    pub graph: String,
    /// Response status.
    pub status: u16,
    /// End-to-end request duration in microseconds.
    pub dur_us: u64,
    /// Whether the graph was already materialized when the solve
    /// started (`None` when the request never reached a graph, e.g.
    /// 400/404s). `false` means this request paid a container
    /// materialization.
    pub resident_at_start: Option<bool>,
    /// Solver phase breakdown recorded while handling the request.
    pub phases: Vec<obs::PhaseStat>,
    /// Deadline-budget attribution of the request's wall time.
    pub budget: Budget,
}

impl SolveTrace {
    fn to_json(&self) -> Json {
        let phases: Vec<(String, Json)> = self
            .phases
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    Json::obj([
                        ("seconds", Json::Num(p.secs)),
                        ("items", Json::Num(p.items as f64)),
                        ("calls", Json::Num(p.calls as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("trace_id".to_string(), Json::Str(self.trace_id.clone())),
            ("endpoint".to_string(), Json::Str(self.endpoint.clone())),
            ("graph".to_string(), Json::Str(self.graph.clone())),
            ("status".to_string(), Json::Num(self.status as f64)),
            ("dur_us".to_string(), Json::Num(self.dur_us as f64)),
            (
                "resident_at_start".to_string(),
                match self.resident_at_start {
                    Some(b) => Json::Bool(b),
                    None => Json::Null,
                },
            ),
            ("phases".to_string(), Json::Obj(phases)),
            ("budget".to_string(), self.budget.to_json()),
        ])
    }
}

/// Shared state every worker sees.
pub struct AppState {
    /// Named graphs.
    pub registry: Registry,
    /// Deterministic result cache.
    pub cache: ResultCache,
    /// Serving metrics.
    pub metrics: Metrics,
    /// Solver-phase metric handles, registered on the same registry as
    /// [`AppState::metrics`] and installed into every request's
    /// [`obs::ObsCtx`].
    pub solver: Arc<obs::SolverMetrics>,
    /// Ring of recent solve summaries behind `GET /debug/trace`.
    pub traces: obs::Ring<SolveTrace>,
    /// Per-request deadline.
    pub timeout: Option<Duration>,
    /// Resolved per-request solver thread cap (`max_solver_threads`, or
    /// the worker-pool size when that was 0).
    pub solver_thread_cap: usize,
    /// Durable snapshot store (`None` when checkpointing is off).
    pub checkpoints: Option<CheckpointStore>,
    /// Active fault-injection plan (`None` serves faithfully).
    pub faults: Option<FaultPlan>,
    /// Coordinator-side cluster state (`None` for single/worker roles:
    /// those solve locally).
    pub cluster: Option<Cluster>,
    /// Whether solve-like responses carry the `X-Mpmb-Budget` header.
    pub budget_header: bool,
    /// Whether uncertified fast answers escalate to the exact tier
    /// (see [`ServerConfig::fast_escalate`]).
    pub fast_escalate: bool,
    /// Per-worker instant of the last successful federation scrape,
    /// behind the `GET /metrics/cluster` staleness gauges.
    federation_seen: Mutex<std::collections::HashMap<String, Instant>>,
    /// Raised to begin a graceful drain.
    shutdown: AtomicBool,
    /// The blocking listening socket; a drain shuts it down to wake the
    /// accept thread.
    listener: signal::Listener,
}

impl AppState {
    /// Whether a drain has been requested (flag or signal).
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::requested()
    }

    /// Raises the drain flag, then shuts the listener down so a blocked
    /// `accept` returns and the accept loop sees the flag.
    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.listener.wake();
    }
}

/// A running server; dropping it does NOT stop it — call
/// [`Server::begin_shutdown`] then [`Server::join`].
pub struct Server {
    /// The bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<AppState>,
    accept_handle: std::thread::JoinHandle<()>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    checkpoint_handle: Option<std::thread::JoinHandle<()>>,
    probe_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the pool, and starts accepting. If the config
    /// names a checkpoint directory holding a verified snapshot, the
    /// registry and resumable partials are restored before the first
    /// connection is accepted.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;

        let faults = match &cfg.fault_plan {
            None => None,
            Some(spec) => Some(FaultPlan::parse(spec).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("--fault-plan: {e}"),
                )
            })?),
        };
        let checkpoints = match &cfg.checkpoint_dir {
            None => None,
            Some(dir) => Some(CheckpointStore::new(dir)?),
        };

        let metrics = Metrics::default();
        let solver = Arc::new(obs::SolverMetrics::new(Arc::clone(metrics.registry())));
        let registry = Registry::with_budget(cfg.mem_budget);
        registry.attach_metrics(
            metrics.registry(),
            Arc::clone(&metrics.graph_evictions),
            Arc::clone(&metrics.graph_materializations),
        );
        let cluster_state = match cfg.role {
            Role::Coordinator => {
                if cfg.workers.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "--role coordinator requires at least one --workers address",
                    ));
                }
                Some(Cluster::new(cfg.workers.clone(), &metrics))
            }
            Role::Single | Role::Worker => None,
        };
        let state = Arc::new(AppState {
            registry,
            cache: ResultCache::new(cfg.cache_capacity),
            metrics,
            solver,
            traces: obs::Ring::new(cfg.trace_ring.max(1)),
            timeout: (cfg.timeout_ms > 0).then(|| Duration::from_millis(cfg.timeout_ms)),
            solver_thread_cap: if cfg.max_solver_threads == 0 {
                cfg.threads.max(1)
            } else {
                cfg.max_solver_threads
            },
            checkpoints,
            faults,
            cluster: cluster_state,
            budget_header: cfg.budget_header,
            fast_escalate: cfg.fast_escalate,
            federation_seen: Mutex::new(std::collections::HashMap::new()),
            shutdown: AtomicBool::new(false),
            listener: signal::Listener::new(listener),
        });

        restore_from_checkpoint(&state);

        let checkpoint_handle = state.checkpoints.as_ref().map(|_| {
            let state = Arc::clone(&state);
            let every = Duration::from_millis(cfg.checkpoint_every_ms.max(1));
            std::thread::Builder::new()
                .name("mpmb-checkpoint".to_string())
                .spawn(move || {
                    let mut last = Instant::now();
                    while !state.shutting_down() {
                        std::thread::sleep(POLL_INTERVAL.min(every));
                        if last.elapsed() >= every {
                            write_checkpoint(&state);
                            last = Instant::now();
                        }
                    }
                    // The final post-drain snapshot is written by
                    // `Server::join` once the workers are done.
                })
                .expect("spawn checkpoint thread")
        });

        // Coordinator-only: periodic `/healthz` probes flip per-worker
        // up/down bits, so crashed-and-restarted workers rejoin
        // without traffic having to discover them.
        let probe_handle = state.cluster.as_ref().map(|_| {
            let state = Arc::clone(&state);
            let every = Duration::from_millis(cfg.probe_interval_ms.max(1));
            std::thread::Builder::new()
                .name("mpmb-probe".to_string())
                .spawn(move || {
                    let mut last = Instant::now();
                    while !state.shutting_down() {
                        std::thread::sleep(POLL_INTERVAL.min(every));
                        if last.elapsed() >= every {
                            if let Some(cluster) = &state.cluster {
                                cluster.members.probe_all(&state.metrics);
                            }
                            last = Instant::now();
                        }
                    }
                })
                .expect("spawn probe thread")
        });

        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(cfg.queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let worker_handles: Vec<_> = (0..cfg.threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("mpmb-worker-{i}"))
                    .spawn(move || worker_loop(&state, &rx))
                    .expect("spawn worker")
            })
            .collect();

        let accept_state = Arc::clone(&state);
        let accept_handle = std::thread::Builder::new()
            .name("mpmb-accept".to_string())
            .spawn(move || {
                accept_loop(&accept_state, tx);
                // `tx` drops here; workers drain the queue and exit.
            })
            .expect("spawn accept loop");

        Ok(Server {
            addr,
            state,
            accept_handle,
            worker_handles,
            checkpoint_handle,
            probe_handle,
        })
    }

    /// The shared state (registry pre-loading, tests).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Requests a graceful drain: stop accepting, finish in-flight work.
    pub fn begin_shutdown(&self) {
        self.state.begin_drain();
    }

    /// Blocks until the accept loop and every worker have exited, then
    /// writes the final snapshot — after the drain, so it captures
    /// every partial the in-flight requests produced.
    pub fn join(self) {
        self.accept_handle.join().expect("accept loop panicked");
        for h in self.worker_handles {
            h.join().expect("worker panicked");
        }
        if let Some(h) = self.checkpoint_handle {
            h.join().expect("checkpoint thread panicked");
        }
        if let Some(h) = self.probe_handle {
            h.join().expect("probe thread panicked");
        }
        write_checkpoint(&self.state);
    }
}

/// Restores a verified snapshot into the registry and cache. Missing
/// files mean a fresh start; corrupt ones are counted and skipped —
/// never a crash. Manifest graphs that no longer load just drop, along
/// with any partials keyed to them.
fn restore_from_checkpoint(state: &AppState) {
    let Some(store) = &state.checkpoints else {
        return;
    };
    let snapshot = match store.load() {
        LoadOutcome::Missing => return,
        LoadOutcome::Corrupt(msg) => {
            state.metrics.checkpoint_corrupt.inc();
            eprintln!("mpmb-serve: ignoring corrupt checkpoint: {msg}");
            return;
        }
        LoadOutcome::Loaded(s) => s,
    };
    for entry in &snapshot.graphs {
        // Registry sources read back as `file:PATH` or `dataset:…`;
        // `load` wants the bare path for the former. Container-backed
        // graphs re-attach (a header read) with their recorded checksum
        // pinned, so a file swapped while the server was down is
        // refused instead of silently changing answers.
        let spec = entry.spec.strip_prefix("file:").unwrap_or(&entry.spec);
        let name = &entry.name;
        match state
            .registry
            .load_with_expected(name, spec, entry.container_checksum)
        {
            Ok(_) | Err(RegistryError::Exists(_)) => {}
            Err(e) => eprintln!("mpmb-serve: checkpoint graph `{name}` not restored: {e}"),
        }
    }
    let mut restored = 0u64;
    for (key, partial) in snapshot.partials {
        // Cache keys are `kind|graph|…`; only re-seed partials whose
        // graph made it back.
        let graph = key.split('|').nth(1).unwrap_or("");
        if state.registry.get(graph).is_none() {
            eprintln!("mpmb-serve: dropping checkpointed partial `{key}`: graph missing");
            continue;
        }
        state.cache.put(&key, CacheEntry::Partial(partial));
        restored += 1;
    }
    state.metrics.checkpoint_restored.add(restored);
}

/// Writes one snapshot of the current registry manifest + partials.
fn write_checkpoint(state: &AppState) {
    let Some(store) = &state.checkpoints else {
        return;
    };
    let snapshot = Snapshot {
        graphs: state
            .registry
            .list()
            .iter()
            .map(|(name, handle)| crate::checkpoint::ManifestEntry {
                name: name.clone(),
                spec: handle.source.clone(),
                container_checksum: handle.container_checksum(),
            })
            .collect(),
        partials: state.cache.partials(),
    };
    match store.write(&snapshot) {
        Ok(()) => state.metrics.checkpoint_written.inc(),
        Err(e) => eprintln!("mpmb-serve: checkpoint write failed: {e}"),
    }
}

/// The worker read timeout after which an idle keep-alive connection
/// checks for a drain, and the sleep slice of the checkpoint and probe
/// threads. The accept path has no timer: a drain wakes it.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long the accept loop pauses after a real `accept` failure (for
/// example `EMFILE`), so a persistent one does not spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Hands each new connection to the worker pool as soon as it arrives.
/// Blocks in `accept`; a drain sets the flag before it shuts the
/// listener down, so the failed `accept` that follows ends the loop.
fn accept_loop(state: &AppState, tx: std::sync::mpsc::SyncSender<(TcpStream, Instant)>) {
    loop {
        if state.shutting_down() {
            return;
        }
        match state.listener.accept() {
            Ok(stream) => {
                state.metrics.connections.inc();
                match tx.try_send((stream, Instant::now())) {
                    Ok(()) => {}
                    Err(TrySendError::Full((mut stream, _))) => {
                        state.metrics.load_shed.inc();
                        let resp = Response::error(429, "server overloaded, try again later")
                            .with_header("Retry-After", "1");
                        let _ = write_response(&mut stream, &resp, true);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(_) if state.shutting_down() => return,
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

fn worker_loop(state: &AppState, rx: &Mutex<Receiver<(TcpStream, Instant)>>) {
    loop {
        // Holding the lock while blocked in `recv` is the intended
        // hand-off: whichever worker holds it takes the next connection.
        // Recover from poisoning: a sibling panicking between `recv`
        // and the guard drop must not take the whole pool down.
        let (stream, queued_at) = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
            Ok(s) => s,
            Err(_) => return, // accept loop gone and queue drained
        };
        handle_connection(state, stream, queued_at.elapsed());
    }
}

/// Decrements the inflight gauge on drop, so a panic unwinding out of
/// request handling cannot leak a permanently-inflated gauge.
struct InflightGuard<'a>(&'a Metrics);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.sub(1);
    }
}

fn handle_connection(state: &AppState, stream: TcpStream, queued: Duration) {
    // Finite read timeout so idle keep-alive connections notice a drain.
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Accept-queue wait is a connection-level cost; charge it to the
    // first request's budget and no other.
    let mut queue_wait = Some(queued);
    loop {
        match read_request(&mut reader) {
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.shutting_down() {
                    return;
                }
            }
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Bad { status, msg }) => {
                let resp = Response::error(status, &msg);
                state
                    .metrics
                    .record(endpoint_index("/"), status, Duration::ZERO);
                let _ = write_response(&mut writer, &resp, true);
                return;
            }
            Ok(req) => {
                let injected = state
                    .faults
                    .as_ref()
                    .and_then(|plan| plan.decide(&req.method, &req.path));
                if injected.is_some() {
                    state.metrics.faults_injected.inc();
                }
                if injected == Some(FaultAction::Reset) {
                    // Drop the connection cold: the client sees a
                    // transport error and retries.
                    return;
                }
                let started = Instant::now();
                state.metrics.inflight.add(1);
                let inflight = InflightGuard(&state.metrics);
                let trace_id: Arc<str> = match req.header("x-request-id") {
                    Some(v) if !v.is_empty() => Arc::from(v),
                    _ => obs::next_trace_id(),
                };
                let profile = Arc::new(obs::Profile::new());
                let queued_secs = queue_wait.take().map_or(0.0, |w| w.as_secs_f64());
                if queued_secs > 0.0 {
                    profile.absorb("queue.wait", queued_secs, 0, 1);
                }
                // One poisoned request must not take down the worker:
                // panics (injected or real) are caught here, the
                // connection is closed without a response, and the pool
                // keeps serving. Shared state stays sound across the
                // unwind — its locks recover from poisoning.
                let handled = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let _obs = obs::install(obs::ObsCtx {
                        trace_id: Some(Arc::clone(&trace_id)),
                        span: Some(obs::SpanContext::root(Arc::clone(&trace_id))),
                        profile: Some(Arc::clone(&profile)),
                        solver: Some(Arc::clone(&state.solver)),
                    });
                    if injected == Some(FaultAction::Panic) {
                        panic!("fault injection: forced worker panic");
                    }
                    let resp = route(state, &req);
                    let elapsed = started.elapsed();
                    obs::event(
                        "http.access",
                        &[
                            ("method", req.method.as_str().into()),
                            ("path", req.path.as_str().into()),
                            ("status", (resp.status as u64).into()),
                            ("dur_us", (elapsed.as_micros() as u64).into()),
                        ],
                    );
                    (resp, elapsed)
                }));
                drop(inflight);
                let (resp, elapsed) = match handled {
                    Ok(pair) => pair,
                    Err(_) => {
                        state.metrics.worker_panics.inc();
                        state
                            .metrics
                            .record(endpoint_index(&req.path), 500, started.elapsed());
                        return;
                    }
                };
                state
                    .metrics
                    .record(endpoint_index(&req.path), resp.status, elapsed);
                // Deadline-budget attribution covers accept to response:
                // handler wall time plus the connection's queue wait.
                let budget = solve_like(&req.path).then(|| {
                    let b = Budget::from_phases(
                        &profile.snapshot(),
                        elapsed.as_secs_f64() + queued_secs,
                    );
                    state.metrics.observe_budget(b.values());
                    b
                });
                record_solve_trace(
                    state,
                    &req,
                    resp.status,
                    &trace_id,
                    elapsed,
                    &profile,
                    budget,
                );
                let mut resp = resp.with_header("X-Request-Id", trace_id.as_ref());
                if state.budget_header {
                    if let Some(b) = &budget {
                        resp = resp.with_header("X-Mpmb-Budget", b.header_value());
                    }
                }
                let close = !req.keep_alive() || state.shutting_down();
                match injected {
                    Some(action) => {
                        match fault::write_degraded(&mut writer, &resp, close, action) {
                            Ok(true) => {}
                            Ok(false) | Err(_) => return,
                        }
                    }
                    None => {
                        if write_response(&mut writer, &resp, close).is_err() || close {
                            return;
                        }
                    }
                }
            }
        }
    }
}

thread_local! {
    /// Residency of the request's graph at the moment the handler first
    /// touched it, captured by [`materialize_graph`] and read back by
    /// [`record_solve_trace`]. Thread-local works because a request is
    /// routed and trace-recorded on the same worker thread.
    static RESIDENCY_AT_START: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Resolves a graph handle into a solver-ready graph, materializing a
/// container-backed one on first use. Records whether the graph was
/// already resident for the request trace. The returned `Arc` pins the
/// graph against eviction for as long as the handler holds it. Both the
/// request handlers and a cluster worker's range call load through here.
pub(crate) fn materialize_graph(
    state: &AppState,
    handle: &Arc<crate::registry::GraphHandle>,
) -> Result<Arc<bigraph::UncertainBipartiteGraph>, Response> {
    let resident = handle.is_resident();
    RESIDENCY_AT_START.with(|c| c.set(Some(resident)));
    let mut sp = obs::span("registry.materialize");
    sp.field("resident", resident);
    state.registry.materialize(handle).map_err(|e| {
        Response::error(503, &format!("graph unavailable: {e}")).with_header("Retry-After", "1")
    })
}

/// Dispatches one request to its handler.
fn route(state: &AppState, req: &Request) -> Response {
    RESIDENCY_AT_START.with(|c| c.set(None));
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/v1/graphs") => handle_list_graphs(state),
        ("POST", "/v1/graphs") => handle_register_graph(state, req),
        ("POST", "/v1/solve" | "/v1/topk" | "/v1/query" | "/v1/count") => {
            handle_solve_like(state, req).unwrap_or_else(|resp| resp)
        }
        ("POST", "/v1/internal/solve-range") => cluster::worker::handle_solve_range(state, req),
        ("GET", "/metrics") => Response::metrics_text(state.metrics.render()),
        ("GET", "/metrics/cluster") => handle_metrics_cluster(state),
        ("GET", "/debug/trace") => handle_debug_trace(state, req),
        ("POST", "/admin/shutdown") => {
            state.begin_drain();
            Response::json(202, Json::obj([("draining", Json::Bool(true))]).to_string())
        }
        (
            _,
            "/healthz"
            | "/v1/graphs"
            | "/v1/solve"
            | "/v1/topk"
            | "/v1/query"
            | "/v1/count"
            | "/v1/internal/solve-range"
            | "/metrics"
            | "/metrics/cluster"
            | "/debug/trace"
            | "/admin/shutdown",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Whether a path gets deadline-budget attribution and a
/// `/debug/trace` entry.
fn solve_like(path: &str) -> bool {
    matches!(path, "/v1/solve" | "/v1/topk" | "/v1/query" | "/v1/count")
}

/// Retains a solve-like request's trace summary for `/debug/trace`.
fn record_solve_trace(
    state: &AppState,
    req: &Request,
    status: u16,
    trace_id: &Arc<str>,
    elapsed: Duration,
    profile: &Arc<obs::Profile>,
    budget: Option<Budget>,
) {
    let Some(budget) = budget else {
        return;
    };
    let graph = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .and_then(|b| b.get("graph").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default();
    state.traces.push(SolveTrace {
        trace_id: trace_id.to_string(),
        endpoint: req.path.clone(),
        graph,
        status,
        dur_us: elapsed.as_micros() as u64,
        resident_at_start: RESIDENCY_AT_START.with(std::cell::Cell::get),
        phases: profile.snapshot(),
        budget,
    });
}

/// The first value of `key` in a raw query string (no percent-decoding;
/// graph names registered through the API are plain identifiers).
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// `GET /debug/trace[?graph=name]`: the most recent solve summaries,
/// newest first.
fn handle_debug_trace(state: &AppState, req: &Request) -> Response {
    let filter = query_param(&req.query, "graph");
    let traces: Vec<Json> = state
        .traces
        .snapshot()
        .iter()
        .filter(|t| filter.is_none_or(|g| t.graph == g))
        .map(SolveTrace::to_json)
        .collect();
    Response::json(
        200,
        Json::obj([
            ("count", Json::Num(traces.len() as f64)),
            ("traces", Json::Arr(traces)),
        ])
        .to_string(),
    )
}

/// `GET /metrics/cluster`: one merged Prometheus page for the whole
/// cluster. The coordinator scrapes each currently-healthy worker's
/// `/metrics`, then [`obs::merge_prometheus`] folds the pages together
/// with its own — counters summed, gauges maxed, histograms merged
/// bucket-wise — and re-renders every constituent series with a `node`
/// label (`node="coordinator"` for the local page). A worker that dies
/// mid-scrape just drops out of this response and bumps the failure
/// counter; staleness gauges record how long ago each worker was last
/// scraped successfully (-1 = never).
fn handle_metrics_cluster(state: &AppState) -> Response {
    let Some(cluster) = &state.cluster else {
        return Response::error(404, "metrics federation requires --role coordinator");
    };
    let mut pages: Vec<(String, String)> = Vec::new();
    for i in cluster.members.healthy() {
        let addr = cluster.members.addr(i).to_string();
        state.metrics.federation_scrapes.inc();
        match crate::client::call(addr.as_str(), "GET", "/metrics", "") {
            Ok((200, text)) => {
                state
                    .federation_seen
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(addr.clone(), Instant::now());
                pages.push((addr, text));
            }
            Ok(_) | Err(_) => state.metrics.federation_scrape_failures.inc(),
        }
    }
    // Refresh staleness gauges for every configured member — including
    // the ones that just failed — before rendering the local page, so
    // they ride along in the merged output.
    let seen = state
        .federation_seen
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    for i in 0..cluster.members.len() {
        let addr = cluster.members.addr(i);
        state
            .metrics
            .registry()
            .gauge_with(
                "mpmb_federation_staleness_seconds",
                "Seconds since this worker's /metrics was last scraped successfully (-1 = never).",
                &[("node", addr)],
            )
            .set(match seen.get(addr) {
                Some(t) => t.elapsed().as_secs() as i64,
                None => -1,
            });
    }
    drop(seen);
    pages.insert(0, ("coordinator".to_string(), state.metrics.render()));
    Response::metrics_text(obs::merge_prometheus(&pages))
}

fn handle_healthz(state: &AppState) -> Response {
    Response::json(
        200,
        Json::obj([
            ("status", Json::Str("ok".to_string())),
            ("graphs", Json::Num(state.registry.len() as f64)),
            ("draining", Json::Bool(state.shutting_down())),
        ])
        .to_string(),
    )
}

fn graph_summary(name: &str, handle: &crate::registry::GraphHandle) -> Json {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("left", Json::Num(handle.num_left() as f64)),
        ("right", Json::Num(handle.num_right() as f64)),
        ("edges", Json::Num(handle.num_edges() as f64)),
        ("source", Json::Str(handle.source.clone())),
        ("backing", Json::Str(handle.backing_name().to_string())),
        ("resident", Json::Bool(handle.is_resident())),
        ("resident_bytes", Json::Num(handle.resident_bytes() as f64)),
    ])
}

fn handle_list_graphs(state: &AppState) -> Response {
    let graphs: Vec<Json> = state
        .registry
        .list()
        .iter()
        .map(|(name, handle)| graph_summary(name, handle))
        .collect();
    Response::json(
        200,
        Json::obj([
            ("graphs", Json::Arr(graphs)),
            ("max_threads", Json::Num(state.solver_thread_cap as f64)),
        ])
        .to_string(),
    )
}

fn handle_register_graph(state: &AppState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let name = match body.get("name").and_then(Json::as_str) {
        Some(n) => n,
        None => return Response::error(400, "missing string field `name`"),
    };
    // Either an explicit `spec`, a `path` shorthand, or dataset fields.
    let spec = if let Some(s) = body.get("spec").and_then(Json::as_str) {
        s.to_string()
    } else if let Some(p) = body.get("path").and_then(Json::as_str) {
        p.to_string()
    } else if let Some(d) = body.get("dataset").and_then(Json::as_str) {
        let scale = match float_field(&body, "scale") {
            Ok(s) => s.unwrap_or(0.01),
            Err(resp) => return resp,
        };
        let seed = match int_field(&body, "seed") {
            Ok(s) => s.unwrap_or(0),
            Err(resp) => return resp,
        };
        format!("dataset:{d}:{scale}:{seed}")
    } else {
        return Response::error(400, "provide `spec`, `path`, or `dataset`");
    };
    // Container registrations are pinned to the file's content
    // checksum: a worker (or this node, on eviction reload) refuses to
    // serve different bytes than the ones registered. The checksum
    // travels as a hex string — JSON numbers here are f64-backed and
    // would corrupt the high bits. A malformed pin is a 400, not a
    // silent fall back to the file's own checksum.
    let pinned = match body.get("container_checksum") {
        None => None,
        Some(v) => match v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()) {
            Some(sum) => Some(sum),
            None => {
                return Response::error(
                    400,
                    "`container_checksum` must be a hex string of at most 16 digits",
                )
            }
        },
    };
    let expected =
        pinned.or_else(|| bigraph::storage::peek_container_checksum(std::path::Path::new(&spec)));
    // Coordinator: every worker must hold the graph before ranges can
    // scatter, so registration reaches the workers first. A worker
    // that already has it answers 409, which counts as success; a
    // worker that fails turns the whole request into a 502 and the
    // client retries the registration as a unit.
    if let Some(cluster) = &state.cluster {
        let wire = match expected {
            // Re-serialize with the checksum spliced in, so workers
            // attach the same container bytes the coordinator saw.
            Some(sum) if body.get("container_checksum").is_none() => {
                let mut fields = match &body {
                    Json::Obj(fields) => fields.clone(),
                    _ => Vec::new(),
                };
                fields.push((
                    "container_checksum".to_string(),
                    Json::Str(format!("{sum:016x}")),
                ));
                Json::Obj(fields).to_string().into_bytes()
            }
            _ => req.body.clone(),
        };
        if let Err(e) = cluster::coordinator::broadcast_register(cluster, &wire) {
            return error_response(&e);
        }
    }
    match state.registry.load_with_expected(name, &spec, expected) {
        Ok(handle) => Response::json(200, graph_summary(name, &handle).to_string()),
        Err(RegistryError::Exists(_)) => {
            Response::error(409, &format!("graph `{name}` already registered"))
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Which solve-like endpoint a request hit.
#[derive(Clone, Copy, PartialEq)]
enum Endpoint {
    Solve,
    TopK,
    Query,
    Count,
}

/// One parsed solve-like request: what the method table runs, under
/// which cache key, and the request fields its response echoes.
struct Plan {
    endpoint: Endpoint,
    key: String,
    job: Job,
    threads: usize,
    k: usize,
    max_shared: Option<u64>,
    epsilon: f64,
}

/// The one pipeline behind `/v1/solve`, `/v1/topk`, `/v1/query`, and
/// `/v1/count`: parse → key → cache lookup → drive → 503 or render.
/// `Err` carries a response that ends the request early.
fn handle_solve_like(state: &AppState, req: &Request) -> Result<Response, Response> {
    let endpoint = match req.path.as_str() {
        "/v1/topk" => Endpoint::TopK,
        "/v1/query" => Endpoint::Query,
        "/v1/count" => Endpoint::Count,
        _ => Endpoint::Solve,
    };
    let body = parse_body(req)?;
    let (name, entry) = lookup_graph(state, &body)?;
    let graph = materialize_graph(state, &entry)?;
    let plan = plan(state, endpoint, &name, &body)?;
    let prior = match lookup_cache(state, &plan.key) {
        CacheLookup::Complete(hit) => return Ok(Response::json(200, hit)),
        CacheLookup::Partial(p) => Some(p),
        CacheLookup::Miss => None,
    };
    let deadline = state.timeout.map(|t| Instant::now() + t);
    let progress = drive(
        state,
        &name,
        &graph,
        &plan.job,
        plan.threads,
        prior,
        deadline,
    )
    .map_err(|e| error_response(&e))?;
    state.metrics.trials_executed.add(progress.executed);
    let (done, requested) = (progress.trials_done, progress.trials_requested);
    let answer = match progress.outcome {
        Outcome::Done(answer) => answer,
        Outcome::Incomplete(partial) => {
            return Ok(deadline_response(
                state, &plan.key, partial, done, requested,
            ))
        }
    };
    let body = render(
        state, &name, &graph, &plan, answer, done, requested, deadline,
    );
    state.cache.put_complete(&plan.key, &body);
    Ok(Response::json(200, body))
}

/// Runs `job` through the method table on this node's range runner: the
/// scatter on a coordinator, the local executor otherwise.
fn drive(
    state: &AppState,
    name: &str,
    graph: &bigraph::UncertainBipartiteGraph,
    job: &Job,
    threads: usize,
    prior: Option<PartialState>,
    deadline: Option<Instant>,
) -> Result<solve::Progress<Answer>, ClusterError> {
    let runner = match &state.cluster {
        Some(cluster) => Runner::Cluster(Scatter {
            state,
            cluster,
            graph: name,
            threads,
        }),
        None => Runner::Local(Executor::new(threads)),
    };
    solve::advance(graph, job, prior, &runner, &Cancel::at(deadline))
}

/// Parses a solve-like body, checking fields in the order each endpoint
/// always has. An absent field takes its default; a present one that is
/// not a valid value is a 400 naming it. Thread counts never enter a
/// cache key: parallel runs are bit-identical.
fn plan(state: &AppState, endpoint: Endpoint, name: &str, body: &Json) -> Result<Plan, Response> {
    let num = |field| int_field(body, field);
    let butterfly = match endpoint {
        Endpoint::Query => Some(butterfly_field(body)?),
        _ => None,
    };
    let count = endpoint == Endpoint::Count;
    let trials = num("trials")?.unwrap_or(if count { 2_000 } else { 20_000 });
    let prep = num("prep")?.unwrap_or(100);
    let seed = num("seed")?.unwrap_or(0x5EED);
    // `/v1/query` runs single-threaded and takes no `threads` field.
    let threads = match endpoint {
        Endpoint::Query => 1,
        _ => solver_threads(state, body)?,
    };
    // Parsed here; an unknown name is reported after the trial checks.
    let method = match (endpoint, body.get("method")) {
        (Endpoint::Query, _) => Ok(Method::Query),
        (_, None) => Ok(if count { Method::Count } else { Method::Os }),
        (_, Some(m)) => {
            let m = m
                .as_str()
                .ok_or_else(|| Response::error(400, "`method` must be a string"))?;
            if count {
                Method::parse_count(m)
            } else {
                Method::parse_solve(m)
            }
        }
    };
    let k = num("k")?.unwrap_or(if endpoint == Endpoint::TopK { 5 } else { 0 }) as usize;
    let max_shared = num("max_shared")?;
    let epsilon = float_field(body, "epsilon")?.unwrap_or(0.05);
    let ranking = matches!(endpoint, Endpoint::Solve | Endpoint::TopK);
    let ols = matches!(method, Ok(Method::Ols | Method::OlsKl));
    if trials == 0 || (ranking && ols && prep == 0) {
        let msg = if ranking {
            "trials and prep must be positive"
        } else {
            "trials must be positive"
        };
        return Err(Response::error(400, msg));
    }
    let method = method.map_err(|msg| Response::error(400, &msg))?;
    let mut plan = Plan {
        endpoint,
        key: String::new(),
        job: Job {
            butterfly,
            ..Job::new(method, trials, prep, seed)
        },
        threads,
        k,
        max_shared,
        epsilon,
    };
    plan.key = match (method, endpoint) {
        (Method::Fast, Endpoint::TopK) => {
            return Err(Response::error(
                400,
                &format!("method `{method}` estimates the expected count, not a butterfly ranking"),
            ))
        }
        (Method::Fast, _) => {
            plan.job.delta = float_field(body, "delta")?.unwrap_or(0.05);
            let delta = plan.job.delta;
            if !(delta > 0.0 && delta < 1.0) {
                return Err(Response::error(400, "delta must be in (0, 1)"));
            }
            if !count && (epsilon <= 0.0 || epsilon.is_nan()) {
                return Err(Response::error(400, "epsilon must be positive"));
            }
            let kind = if count { "count-fast" } else { method.name() };
            format!("{kind}|{name}|{trials}|{seed}|{delta}")
        }
        (_, Endpoint::Query) => {
            let b = butterfly.expect("query bodies were parsed for their butterfly");
            format!("{method}|{name}|{b}|{trials}|{seed}")
        }
        (_, Endpoint::Count) => format!("{method}|{name}|{trials}|{seed}"),
        (_, Endpoint::Solve | Endpoint::TopK) => plan.ranking_key(name),
    };
    Ok(plan)
}

impl Plan {
    /// The cache key of a `/v1/solve` or `/v1/topk` plan: every field
    /// its response depends on.
    fn ranking_key(&self, name: &str) -> String {
        let kind = if self.endpoint == Endpoint::TopK {
            "topk"
        } else {
            "solve"
        };
        let (job, k, max_shared) = (&self.job, self.k, self.max_shared);
        let (method, trials, prep, seed) = (job.method, job.trials, job.prep, job.seed);
        format!("{kind}|{name}|{method}|{trials}|{prep}|{seed}|{k}|{max_shared:?}")
    }
}

/// Shapes a finished answer into its response body. A fast answer on
/// `/v1/solve` whose certified CI misses the requested relative error
/// first escalates to the exact tier (with `--fast-escalate`), spending
/// what is left of `deadline`.
#[allow(clippy::too_many_arguments)]
fn render(
    state: &AppState,
    name: &str,
    graph: &bigraph::UncertainBipartiteGraph,
    plan: &Plan,
    answer: Answer,
    trials_done: u64,
    trials_requested: u64,
    deadline: Option<Instant>,
) -> String {
    let job = &plan.job;
    let graph_field = ("graph", Json::Str(name.to_string()));
    let fields = match answer {
        Answer::Distribution(d) => {
            return solve_body(name, plan, trials_requested, trials_done, &d);
        }
        Answer::Fast(est) => {
            state.metrics.fast_requests.inc();
            state
                .metrics
                .fast_relative_error
                .observe(est.relative_error);
            let solve = plan.endpoint == Endpoint::Solve;
            let half_width = est.ci_high - est.estimate;
            let escalate = solve
                && state.fast_escalate
                && mpmb_core::fast_escalation_needed(est.estimate, half_width, plan.epsilon);
            if escalate {
                state.metrics.fast_escalations.inc();
                escalate_to_exact(state, name, graph, plan, deadline);
            }
            let mut fields = vec![
                graph_field,
                ("method", Json::Str(job.method.name().to_string())),
                ("seed", Json::Num(job.seed as f64)),
                ("delta", Json::Num(job.delta)),
            ];
            if solve {
                fields.push(("epsilon", Json::Num(plan.epsilon)));
            }
            fields.extend([
                ("trials_requested", Json::Num(trials_requested as f64)),
                ("trials_done", Json::Num(trials_done as f64)),
                ("estimate", Json::Num(est.estimate)),
                ("variance", Json::Num(est.variance)),
                ("ci_low", Json::Num(est.ci_low)),
                ("ci_high", Json::Num(est.ci_high)),
                ("relative_error", Json::Num(est.relative_error)),
            ]);
            if solve {
                fields.push(("escalated", Json::Bool(escalate)));
            }
            fields
        }
        Answer::Query(q) => vec![
            graph_field,
            (
                "butterfly",
                butterfly_json(&job.butterfly.expect("query jobs carry their butterfly")),
            ),
            ("existence_prob", Json::Num(q.existence_prob)),
            ("conditional_max_prob", Json::Num(q.conditional_max_prob)),
            ("prob", Json::Num(q.prob)),
            ("trials", Json::Num(q.trials as f64)),
        ],
        Answer::Count(dist) => vec![
            graph_field,
            ("mean", Json::Num(dist.mean)),
            ("variance", Json::Num(dist.variance)),
            ("trials", Json::Num(dist.trials as f64)),
            ("distinct_counts", Json::Num(dist.histogram.len() as f64)),
        ],
    };
    Json::obj(fields).to_string()
}

/// The completed solve/topk response body. Shared by [`render`] and the
/// fast tier's escalation path, so an escalation-completed exact answer
/// replays byte-identical to a directly-served one.
fn solve_body(
    name: &str,
    plan: &Plan,
    trials_requested: u64,
    trials_done: u64,
    distribution: &Distribution,
) -> String {
    let mut fields = vec![
        ("graph", Json::Str(name.to_string())),
        ("method", Json::Str(plan.job.method.name().to_string())),
        ("seed", Json::Num(plan.job.seed as f64)),
        ("trials_requested", Json::Num(trials_requested as f64)),
        ("trials_done", Json::Num(trials_done as f64)),
        ("support", Json::Num(distribution.len() as f64)),
    ];
    let top = || ("top", top_json(distribution, plan.k, plan.max_shared));
    if plan.endpoint == Endpoint::TopK {
        fields.push(("k", Json::Num(plan.k as f64)));
        fields.push(top());
    } else {
        fields.push(("mpmb", mpmb_json(distribution)));
        if plan.k > 0 {
            fields.push(top());
        }
    }
    Json::obj(fields).to_string()
}

/// Seeds (or advances) the exact os-tier partial behind a fast answer,
/// spending whatever is left of the request's deadline. A completed
/// escalation caches the finished os body — built by the same
/// [`solve_body`] the os handler uses, so a `method=os` retry replays
/// bytes identical to a direct run; an interrupted one caches the
/// partial, so the retry resumes instead of restarting. Best-effort:
/// errors leave the cache untouched and the fast answer stands.
fn escalate_to_exact(
    state: &AppState,
    name: &str,
    graph: &bigraph::UncertainBipartiteGraph,
    fast: &Plan,
    deadline: Option<Instant>,
) {
    let mut os = Plan {
        key: String::new(),
        job: Job::new(Method::Os, fast.job.trials, fast.job.prep, fast.job.seed),
        ..*fast
    };
    os.key = os.ranking_key(name);
    let prior = match state.cache.get(&os.key) {
        Some(CacheEntry::Complete(_)) => return, // exact answer already cached
        Some(CacheEntry::Partial(p)) => Some(p),
        None => None,
    };
    let Ok(progress) = drive(state, name, graph, &os.job, os.threads, prior, deadline) else {
        return;
    };
    state.metrics.trials_executed.add(progress.executed);
    match progress.outcome {
        Outcome::Done(Answer::Distribution(d)) => {
            let body = solve_body(
                name,
                &os,
                progress.trials_requested,
                progress.trials_done,
                &d,
            );
            state.cache.put_complete(&os.key, &body);
        }
        Outcome::Done(_) => unreachable!("os answers with a distribution"),
        Outcome::Incomplete(partial) => state.cache.put(&os.key, CacheEntry::Partial(partial)),
    }
}

/// Maps a driver failure onto the HTTP edge: caller mistakes are 400s
/// (404 for a query butterfly outside the backbone), a fully-down
/// worker set is a retryable 503, and worker misbehavior (wrong graph
/// set, protocol violations) is a 502 — the coordinator is fine, its
/// upstream is not.
fn error_response(e: &ClusterError) -> Response {
    match e {
        ClusterError::BadRequest(msg) => Response::error(400, msg),
        ClusterError::NotFound(msg) => Response::error(404, msg),
        ClusterError::NoWorkers => {
            Response::error(503, &e.to_string()).with_header("Retry-After", "1")
        }
        ClusterError::Worker { .. } | ClusterError::Protocol(_) => {
            Response::error(502, &e.to_string())
        }
    }
}

/// What a cache lookup resolved to, with the metrics already recorded.
enum CacheLookup {
    /// Finished body to replay (a cache hit).
    Complete(String),
    /// A resumable partial: this request refines it.
    Partial(PartialState),
    /// Nothing cached.
    Miss,
}

fn lookup_cache(state: &AppState, key: &str) -> CacheLookup {
    match state.cache.get(key) {
        Some(CacheEntry::Complete(body)) => {
            state.metrics.cache_hits.inc();
            CacheLookup::Complete(body)
        }
        Some(CacheEntry::Partial(p)) => {
            state.metrics.cache_refined.inc();
            CacheLookup::Partial(p)
        }
        None => {
            state.metrics.cache_misses.inc();
            CacheLookup::Miss
        }
    }
}

/// Records the 503, caching the partial so the next identical request
/// resumes from `trials_done` instead of trial zero.
fn deadline_response(
    state: &AppState,
    key: &str,
    partial: PartialState,
    trials_done: u64,
    trials_requested: u64,
) -> Response {
    state.metrics.deadline_exceeded.inc();
    state.cache.put(key, CacheEntry::Partial(partial));
    // Retry-After 0: the partial is already cached, so an immediate
    // retry resumes from `trials_done` — no point making clients wait.
    Response::json(
        503,
        Json::obj([
            ("error", Json::Str("deadline exceeded".to_string())),
            ("trials_done", Json::Num(trials_done as f64)),
            ("trials_requested", Json::Num(trials_requested as f64)),
        ])
        .to_string(),
    )
    .with_header("Retry-After", "0")
}

// --- small shared helpers -------------------------------------------------

/// The largest integer a request field may hold. `json.rs` keeps
/// numbers as `f64`, which holds every integer up to here exactly but
/// reads `2⁵³ + 1` as `2⁵³`, so larger seeds would merge with their
/// neighbours.
const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// An optional non-negative integer field: `None` when absent, a 400
/// naming the field when present but not an integer in
/// `0..=MAX_EXACT_INT`.
fn int_field(body: &Json, field: &str) -> Result<Option<u64>, Response> {
    body.get(field)
        .map(|v| {
            v.as_u64().filter(|&n| n <= MAX_EXACT_INT).ok_or_else(|| {
                Response::error(
                    400,
                    &format!("`{field}` must be an integer from 0 to {MAX_EXACT_INT}"),
                )
            })
        })
        .transpose()
}

/// An optional number field: `None` when absent, a 400 naming the
/// field when present but not a number.
fn float_field(body: &Json, field: &str) -> Result<Option<f64>, Response> {
    body.get(field)
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| Response::error(400, &format!("`{field}` must be a number")))
        })
        .transpose()
}

/// Validates the request-body `threads` field against the server's cap.
/// Absent means 1; zero or above-cap values are 400s, with the cap
/// reported in the error body so clients can self-correct.
fn solver_threads(state: &AppState, body: &Json) -> Result<usize, Response> {
    let cap = state.solver_thread_cap;
    match int_field(body, "threads")? {
        None => Ok(1),
        Some(0) => Err(Response::json(
            400,
            Json::obj([
                ("error", Json::Str("threads must be at least 1".to_string())),
                ("max_threads", Json::Num(cap as f64)),
            ])
            .to_string(),
        )),
        Some(t) if t > cap as u64 => Err(Response::json(
            400,
            Json::obj([
                (
                    "error",
                    Json::Str(format!("threads {t} exceeds this server's limit of {cap}")),
                ),
                ("max_threads", Json::Num(cap as f64)),
                ("requested", Json::Num(t as f64)),
            ])
            .to_string(),
        )),
        Some(t) => Ok(t as usize),
    }
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(Response::error(400, "empty JSON body"));
    }
    Json::parse(text).map_err(|e| Response::error(400, &format!("bad JSON: {e}")))
}

fn lookup_graph(
    state: &AppState,
    body: &Json,
) -> Result<(String, Arc<crate::registry::GraphHandle>), Response> {
    let name = body
        .get("graph")
        .and_then(Json::as_str)
        .ok_or_else(|| Response::error(400, "missing string field `graph`"))?;
    match state.registry.get(name) {
        Some(handle) => Ok((name.to_string(), handle)),
        None => Err(Response::error(
            404,
            &format!("graph `{name}` is not registered"),
        )),
    }
}

fn butterfly_field(body: &Json) -> Result<Butterfly, Response> {
    let arr = body
        .get("butterfly")
        .and_then(Json::as_arr)
        .ok_or_else(|| Response::error(400, "missing field `butterfly` ([u1,u2,v1,v2])"))?;
    if arr.len() != 4 {
        return Err(Response::error(400, "`butterfly` must be [u1,u2,v1,v2]"));
    }
    let mut ids = [0u32; 4];
    for (i, v) in arr.iter().enumerate() {
        ids[i] = v
            .as_u64()
            .filter(|&x| x <= u32::MAX as u64)
            .ok_or_else(|| Response::error(400, "`butterfly` entries must be vertex ids"))?
            as u32;
    }
    if ids[0] == ids[1] || ids[2] == ids[3] {
        return Err(Response::error(
            400,
            "`butterfly` vertices must be distinct per side",
        ));
    }
    Ok(Butterfly::new(
        bigraph::Left(ids[0]),
        bigraph::Left(ids[1]),
        bigraph::Right(ids[2]),
        bigraph::Right(ids[3]),
    ))
}

fn butterfly_json(b: &Butterfly) -> Json {
    Json::Arr(vec![
        Json::Num(b.u1.0 as f64),
        Json::Num(b.u2.0 as f64),
        Json::Num(b.v1.0 as f64),
        Json::Num(b.v2.0 as f64),
    ])
}

fn mpmb_json(dist: &Distribution) -> Json {
    match dist.mpmb() {
        None => Json::Null,
        Some((b, p)) => Json::obj([("butterfly", butterfly_json(&b)), ("prob", Json::Num(p))]),
    }
}

fn top_json(dist: &Distribution, k: usize, max_shared: Option<u64>) -> Json {
    let pairs = match max_shared {
        Some(m) => mpmb_core::top_k_diverse(dist, k, m.min(4) as usize),
        None => dist.top_k(k),
    };
    Json::Arr(
        pairs
            .iter()
            .map(|(b, p)| Json::obj([("butterfly", butterfly_json(b)), ("prob", Json::Num(*p))]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, secs: f64) -> obs::PhaseStat {
        obs::PhaseStat {
            name: name.to_string(),
            secs,
            items: 0,
            calls: 1,
        }
    }

    #[test]
    fn storage_stages_do_not_count_twice() {
        let phases = [
            phase("registry.materialize", 0.050),
            phase("storage.load", 0.020),
            phase("storage.validate", 0.015),
            phase("storage.derive", 0.010),
            phase("ols.prepare", 0.030),
            phase("ols.sample", 0.010),
        ];
        let b = Budget::from_phases(&phases, 0.100);
        assert_eq!(b.materialize, 0.050);
        assert_eq!(b.prepare, 0.030);
        assert_eq!(b.trials, 0.010);
        assert!((b.finalize - 0.010).abs() < 1e-12, "{b:?}");
    }
}

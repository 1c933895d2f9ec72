//! The graph registry: named graph *handles* behind a memory budget.
//!
//! Graphs come from three sources, matching the CLI's inputs:
//!
//! * `UBGCONT1` container files ([`bigraph::storage`]) — attached
//!   lazily: registration verifies only the header, and the CSR
//!   sections materialize on first use,
//! * text edge-list files, via [`bigraph::io::read_auto`] — parsed
//!   eagerly and resident for the registry's lifetime, and
//! * the synthetic Table III stand-ins in [`datasets`], via a
//!   `dataset:NAME[:scale[:seed]]` spec.
//!
//! Every entry is an [`Arc<GraphHandle>`]. A handle hands out
//! `Arc<UncertainBipartiteGraph>` clones through
//! [`Registry::materialize`]; container-backed handles whose graph is
//! not referenced by any in-flight solve can be *evicted* when the
//! registry's residency exceeds `--mem-budget`, and re-materialize on
//! the next request.
//!
//! # Eviction cannot perturb results
//!
//! Three facts make that provable rather than hoped-for:
//!
//! 1. Solvers only ever see fully materialized graphs — a handle
//!    returns an `Arc` to a complete, validated
//!    [`UncertainBipartiteGraph`], never a partially loaded view.
//! 2. A graph is evicted only when its `Arc` strong count proves no
//!    solve holds it, checked under the same mutex that hands out new
//!    clones, so an in-flight solve pins its graph.
//! 3. Re-materialization re-verifies the container's content checksum
//!    against the one recorded at attach time and re-runs the full
//!    structural validation, so the reloaded graph is bit-identical to
//!    the evicted one (proptested in `tests/container_hostility.rs`).

use bigraph::storage::ContainerReader;
use bigraph::UncertainBipartiteGraph;
use obs::{Counter, Gauge};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Why a registry operation failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The name is already registered (registration is insert-only so
    /// cached results can never refer to a replaced graph).
    Exists(String),
    /// The spec could not be parsed or the graph could not be loaded.
    Load(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Exists(name) => write!(f, "graph `{name}` already registered"),
            RegistryError::Load(msg) => write!(f, "{msg}"),
        }
    }
}

/// Where a handle's bytes live when it is not resident.
enum Backing {
    /// Parsed eagerly (text/binary file or generated dataset); always
    /// resident, never evictable.
    Memory {
        num_left: u64,
        num_right: u64,
        num_edges: u64,
    },
    /// A `UBGCONT1` container on disk; materialized on demand.
    Container {
        path: PathBuf,
        /// Content checksum recorded at attach; re-verified on every
        /// materialization so a swapped file can never silently change
        /// answers between evict and reload.
        checksum: u64,
        num_left: u64,
        num_right: u64,
        num_edges: u64,
    },
}

/// One registered graph: provenance, backing, and the residency slot.
pub struct GraphHandle {
    /// Human-readable origin, e.g. `file:g.ubgc` or `dataset:abide:0.02:7`.
    pub source: String,
    backing: Backing,
    /// The resident graph, if any. All hand-outs and the eviction
    /// decision go through this mutex, which is what makes the
    /// strong-count pinning check race-free.
    resident: Mutex<Option<Arc<UncertainBipartiteGraph>>>,
    /// Cached `resident_bytes()` of the resident graph (0 when
    /// evicted) — lets budget sweeps sum residency without locking
    /// every handle.
    resident_bytes: AtomicU64,
    /// Registry-wide use sequence number at last materialize; the LRU
    /// eviction key.
    last_used: AtomicU64,
    /// `mpmb_graph_resident_bytes{graph=...}`, when metrics are attached.
    gauge: OnceLock<Arc<Gauge>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Poison recovery throughout: the slot is an Option<Arc>, never
    // left mid-edit by a panicking reader.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl GraphHandle {
    fn new_memory(source: String, graph: UncertainBipartiteGraph) -> GraphHandle {
        let bytes = graph.resident_bytes();
        let backing = Backing::Memory {
            num_left: graph.num_left() as u64,
            num_right: graph.num_right() as u64,
            num_edges: graph.num_edges() as u64,
        };
        GraphHandle {
            source,
            backing,
            resident: Mutex::new(Some(Arc::new(graph))),
            resident_bytes: AtomicU64::new(bytes),
            last_used: AtomicU64::new(0),
            gauge: OnceLock::new(),
        }
    }

    fn new_container(source: String, reader: &ContainerReader) -> GraphHandle {
        let meta = reader.meta();
        GraphHandle {
            source,
            backing: Backing::Container {
                path: reader.path().to_path_buf(),
                checksum: reader.content_checksum(),
                num_left: meta.num_left,
                num_right: meta.num_right,
                num_edges: meta.num_edges,
            },
            resident: Mutex::new(None),
            resident_bytes: AtomicU64::new(0),
            last_used: AtomicU64::new(0),
            gauge: OnceLock::new(),
        }
    }

    /// Number of left vertices, known without materializing.
    pub fn num_left(&self) -> u64 {
        match &self.backing {
            Backing::Memory { num_left, .. } | Backing::Container { num_left, .. } => *num_left,
        }
    }

    /// Number of right vertices, known without materializing.
    pub fn num_right(&self) -> u64 {
        match &self.backing {
            Backing::Memory { num_right, .. } | Backing::Container { num_right, .. } => *num_right,
        }
    }

    /// Number of edges, known without materializing.
    pub fn num_edges(&self) -> u64 {
        match &self.backing {
            Backing::Memory { num_edges, .. } | Backing::Container { num_edges, .. } => *num_edges,
        }
    }

    /// `"memory"` or `"container"`, for `/v1/graphs`.
    pub fn backing_name(&self) -> &'static str {
        match &self.backing {
            Backing::Memory { .. } => "memory",
            Backing::Container { .. } => "container",
        }
    }

    /// Whether the graph is currently materialized.
    pub fn is_resident(&self) -> bool {
        lock(&self.resident).is_some()
    }

    /// Bytes of graph arrays currently resident for this handle.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// The container content checksum, for container-backed handles.
    pub fn container_checksum(&self) -> Option<u64> {
        match &self.backing {
            Backing::Container { checksum, .. } => Some(*checksum),
            Backing::Memory { .. } => None,
        }
    }

    fn set_gauge_bytes(&self, bytes: u64) {
        if let Some(g) = self.gauge.get() {
            g.set(bytes as i64);
        }
    }

    /// Returns the resident graph, materializing the container if
    /// needed. Holds the slot mutex for the whole load so concurrent
    /// requests for the same graph materialize it exactly once.
    fn acquire(
        &self,
        materializations: Option<&Arc<Counter>>,
    ) -> Result<Arc<UncertainBipartiteGraph>, RegistryError> {
        let mut slot = lock(&self.resident);
        if let Some(g) = &*slot {
            return Ok(Arc::clone(g));
        }
        let Backing::Container { path, checksum, .. } = &self.backing else {
            unreachable!("memory-backed handles are always resident");
        };
        let reader = ContainerReader::open(path).map_err(|e| {
            RegistryError::Load(format!("cannot re-attach `{}`: {e}", path.display()))
        })?;
        if reader.content_checksum() != *checksum {
            return Err(RegistryError::Load(format!(
                "container `{}` changed on disk since attach (checksum {:016x} != {:016x}); \
                 refusing to materialize a different graph under the same name",
                path.display(),
                reader.content_checksum(),
                checksum
            )));
        }
        let graph = Arc::new(reader.materialize().map_err(|e| {
            RegistryError::Load(format!("cannot materialize `{}`: {e}", path.display()))
        })?);
        let bytes = graph.resident_bytes();
        self.resident_bytes.store(bytes, Ordering::Relaxed);
        self.set_gauge_bytes(bytes);
        if let Some(c) = materializations {
            c.inc();
        }
        *slot = Some(Arc::clone(&graph));
        Ok(graph)
    }

    /// Drops the resident graph if this handle is container-backed and
    /// no solve holds it. Returns the bytes freed.
    fn try_evict(&self) -> Option<u64> {
        if !matches!(self.backing, Backing::Container { .. }) {
            return None;
        }
        let mut slot = lock(&self.resident);
        let g = slot.as_ref()?;
        // The slot holds one strong reference; more than one means an
        // in-flight solve (or a caller between materialize and solve)
        // still reads this graph — it is pinned. New clones are only
        // handed out under this mutex, so count == 1 cannot race.
        if Arc::strong_count(g) > 1 {
            return None;
        }
        *slot = None;
        let freed = self.resident_bytes.swap(0, Ordering::Relaxed);
        self.set_gauge_bytes(0);
        Some(freed)
    }
}

/// Residency instruments, attached once by the server.
struct ResidencyMetrics {
    obs: Arc<obs::Registry>,
    evictions: Arc<Counter>,
    materializations: Arc<Counter>,
}

/// Named graph handles behind a read-mostly lock, plus the budget
/// enforcement machinery.
#[derive(Default)]
pub struct Registry {
    graphs: RwLock<BTreeMap<String, Arc<GraphHandle>>>,
    /// Residency budget in bytes; 0 disables eviction.
    budget: u64,
    /// Monotonic use counter; each materialize stamps its handle.
    use_seq: AtomicU64,
    metrics: OnceLock<ResidencyMetrics>,
}

impl Registry {
    /// An empty registry with no memory budget (nothing ever evicted).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry that evicts cold container-backed graphs once
    /// residency exceeds `budget` bytes (0 = unlimited).
    pub fn with_budget(budget: u64) -> Self {
        Registry {
            budget,
            ..Self::default()
        }
    }

    /// The configured residency budget in bytes (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Wires the residency instruments: per-graph
    /// `mpmb_graph_resident_bytes{graph}` gauges plus the eviction and
    /// materialization counters. Idempotent; handles registered before
    /// attachment get their gauges retroactively.
    pub fn attach_metrics(
        &self,
        obs: &Arc<obs::Registry>,
        evictions: Arc<Counter>,
        materializations: Arc<Counter>,
    ) {
        let _ = self.metrics.set(ResidencyMetrics {
            obs: Arc::clone(obs),
            evictions,
            materializations,
        });
        for (name, handle) in self.list() {
            self.ensure_gauge(&name, &handle);
        }
    }

    fn ensure_gauge(&self, name: &str, handle: &GraphHandle) {
        if let Some(m) = self.metrics.get() {
            let gauge = m.obs.gauge_with(
                "mpmb_graph_resident_bytes",
                "Bytes of graph arrays currently resident, per graph.",
                &[("graph", name)],
            );
            gauge.set(handle.resident_bytes() as i64);
            let _ = handle.gauge.set(gauge);
        }
    }

    /// Loads `spec` and registers it under `name`.
    pub fn load(&self, name: &str, spec: &str) -> Result<Arc<GraphHandle>, RegistryError> {
        self.load_with_expected(name, spec, None)
    }

    /// Loads `spec` under `name`, additionally requiring a
    /// container-backed spec to carry the given content checksum.
    /// Checkpoint restore and cluster registration use this to prove
    /// they re-attached the *same bytes* the manifest or coordinator
    /// recorded.
    pub fn load_with_expected(
        &self,
        name: &str,
        spec: &str,
        expected_checksum: Option<u64>,
    ) -> Result<Arc<GraphHandle>, RegistryError> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(RegistryError::Load(format!(
                "invalid graph name `{name}` (use [A-Za-z0-9_-]+)"
            )));
        }
        // Reject duplicates before the (possibly slow) load.
        if self.get(name).is_some() {
            return Err(RegistryError::Exists(name.to_string()));
        }
        let handle = load_spec(spec)?;
        if let Some(expected) = expected_checksum {
            match handle.container_checksum() {
                Some(sum) if sum == expected => {}
                Some(sum) => {
                    return Err(RegistryError::Load(format!(
                        "container `{spec}` has checksum {sum:016x}, expected {expected:016x}"
                    )))
                }
                None => {
                    return Err(RegistryError::Load(format!(
                        "`{spec}` is not a container but a content checksum was required"
                    )))
                }
            }
        }
        let handle = Arc::new(handle);
        {
            let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
            // Re-check under the write lock: a racing registration wins.
            if graphs.contains_key(name) {
                return Err(RegistryError::Exists(name.to_string()));
            }
            graphs.insert(name.to_string(), Arc::clone(&handle));
        }
        self.ensure_gauge(name, &handle);
        // A newly parsed memory-backed graph adds residency; make room.
        self.enforce_budget();
        Ok(handle)
    }

    /// The handle registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<GraphHandle>> {
        self.graphs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// All handles in name order.
    pub fn list(&self) -> Vec<(String, Arc<GraphHandle>)> {
        self.graphs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(e)))
            .collect()
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the resident graph for `handle`, materializing (and
    /// checksum-verifying) a container-backed graph on first use, then
    /// enforces the memory budget. The returned `Arc` pins the graph
    /// against eviction for as long as the caller holds it.
    pub fn materialize(
        &self,
        handle: &Arc<GraphHandle>,
    ) -> Result<Arc<UncertainBipartiteGraph>, RegistryError> {
        handle.last_used.store(
            self.use_seq.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        let graph = handle.acquire(self.metrics.get().map(|m| &m.materializations))?;
        // Enforce after the hand-out: the caller's Arc pins the graph
        // just materialized, so the sweep can only pick colder ones.
        self.enforce_budget();
        Ok(graph)
    }

    /// Evicts cold container-backed graphs (LRU first) until the
    /// enforcement signal fits the budget or no evictable graph
    /// remains. The signal is the larger of the registry's tracked
    /// residency and [`memtrack::live_bytes`] — when the counting
    /// allocator is installed (the `mpmb` binary), real process heap
    /// pressure triggers eviction even if graph arrays alone fit.
    fn enforce_budget(&self) {
        if self.budget == 0 {
            return;
        }
        let handles = self.list();
        let tracked: u64 = handles.iter().map(|(_, h)| h.resident_bytes()).sum();
        let mut pressure = tracked.max(memtrack::live_bytes() as u64);
        if pressure <= self.budget {
            return;
        }
        let mut candidates: Vec<&Arc<GraphHandle>> = handles
            .iter()
            .map(|(_, h)| h)
            .filter(|h| h.backing_name() == "container" && h.resident_bytes() > 0)
            .collect();
        candidates.sort_by_key(|h| h.last_used.load(Ordering::Relaxed));
        for h in candidates {
            if pressure <= self.budget {
                break;
            }
            if let Some(freed) = h.try_evict() {
                pressure = pressure.saturating_sub(freed);
                if let Some(m) = self.metrics.get() {
                    m.evictions.inc();
                }
            }
        }
    }
}

/// Loads a graph handle from a spec: a file path (container files
/// attach lazily, anything else parses eagerly), or
/// `dataset:NAME[:scale[:seed]]` with NAME one of the Table III
/// stand-ins (`abide`, `movielens`, `jester`, `protein`).
fn load_spec(spec: &str) -> Result<GraphHandle, RegistryError> {
    if let Some(rest) = spec.strip_prefix("dataset:") {
        let mut parts = rest.split(':');
        let name = parts.next().unwrap_or("");
        let scale: f64 = match parts.next() {
            None => 0.01,
            Some(s) => s
                .parse()
                .map_err(|_| RegistryError::Load(format!("bad scale `{s}` in `{spec}`")))?,
        };
        let seed: u64 = match parts.next() {
            None => 0,
            Some(s) => s
                .parse()
                .map_err(|_| RegistryError::Load(format!("bad seed `{s}` in `{spec}`")))?,
        };
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(RegistryError::Load(format!(
                "scale must be in (0,1], got {scale}"
            )));
        }
        let dataset = datasets::Dataset::parse(name).map_err(|e| {
            RegistryError::Load(format!("{e} (expected abide|movielens|jester|protein)"))
        })?;
        Ok(GraphHandle::new_memory(
            format!("dataset:{}:{scale}:{seed}", name.to_ascii_lowercase()),
            dataset.generate(scale, seed),
        ))
    } else {
        let path = std::path::Path::new(spec);
        if is_container_file(path) {
            let reader = ContainerReader::open(path)
                .map_err(|e| RegistryError::Load(format!("cannot attach `{spec}`: {e}")))?;
            Ok(GraphHandle::new_container(format!("file:{spec}"), &reader))
        } else {
            let graph = bigraph::io::read_auto(path)
                .map_err(|e| RegistryError::Load(format!("cannot load `{spec}`: {e}")))?;
            Ok(GraphHandle::new_memory(format!("file:{spec}"), graph))
        }
    }
}

/// Whether `path` starts with the container magic.
fn is_container_file(path: &Path) -> bool {
    use std::io::Read;
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).is_ok() && &magic == bigraph::storage::CONTAINER_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{GraphBuilder, Left, Right};

    fn tmp_container(name: &str, edges: u32) -> PathBuf {
        let mut b = GraphBuilder::new();
        for i in 0..edges {
            b.add_edge(Left(i % 7), Right(i % 11), (i % 5) as f64, 0.5)
                .unwrap();
        }
        let g = b.build().unwrap();
        let path =
            std::env::temp_dir().join(format!("mpmb_registry_{}_{name}.ubgc", std::process::id()));
        bigraph::storage::write_container_path(&g, &path).unwrap();
        path
    }

    #[test]
    fn dataset_spec_loads_and_lists() {
        let r = Registry::new();
        let e = r.load("tiny", "dataset:abide:0.01:7").unwrap();
        assert!(e.num_edges() > 0);
        assert_eq!(e.source, "dataset:abide:0.01:7");
        assert_eq!(e.backing_name(), "memory");
        assert!(e.is_resident());
        assert!(e.resident_bytes() > 0);
        assert_eq!(r.list().len(), 1);
        assert!(r.get("tiny").is_some());
        assert!(r.get("absent").is_none());
        let g = r.materialize(&e).unwrap();
        assert_eq!(g.num_edges() as u64, e.num_edges());
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Registry::new();
        r.load("g", "dataset:abide:0.01").unwrap();
        match r.load("g", "dataset:abide:0.01") {
            Err(RegistryError::Exists(n)) => assert_eq!(n, "g"),
            other => panic!("expected Exists, got {:?}", other.err()),
        }
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(load_spec("dataset:nope").is_err());
        assert!(load_spec("dataset:abide:2.0").is_err());
        assert!(load_spec("dataset:abide:0.01:x").is_err());
        assert!(load_spec("/no/such/file.txt").is_err());
        let r = Registry::new();
        assert!(r.load("bad name!", "dataset:abide:0.01").is_err());
    }

    #[test]
    fn defaults_applied() {
        let e = load_spec("dataset:movielens").unwrap();
        assert_eq!(e.source, "dataset:movielens:0.01:0");
    }

    #[test]
    fn container_attach_is_lazy_and_materializes_on_demand() {
        let path = tmp_container("lazy", 40);
        let r = Registry::new();
        let h = r.load("c", path.to_str().unwrap()).unwrap();
        assert_eq!(h.backing_name(), "container");
        assert!(!h.is_resident(), "attach must not materialize");
        assert_eq!(h.resident_bytes(), 0);
        assert_eq!(h.num_edges(), 40);
        assert!(h.container_checksum().is_some());
        let g = r.materialize(&h).unwrap();
        assert_eq!(g.num_edges(), 40);
        assert!(h.is_resident());
        assert!(h.resident_bytes() > 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn expected_checksum_is_enforced() {
        let path = tmp_container("expected", 12);
        let sum = bigraph::storage::peek_container_checksum(&path).unwrap();
        let r = Registry::new();
        r.load_with_expected("ok", path.to_str().unwrap(), Some(sum))
            .unwrap();
        match r.load_with_expected("bad", path.to_str().unwrap(), Some(sum ^ 1)) {
            Err(RegistryError::Load(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum error, got {:?}", other.err()),
        }
        match r.load_with_expected("mem", "dataset:abide:0.01", Some(sum)) {
            Err(RegistryError::Load(msg)) => assert!(msg.contains("not a container"), "{msg}"),
            other => panic!("expected error, got {:?}", other.err()),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn budget_evicts_cold_containers_lru_first() {
        let p1 = tmp_container("lru1", 60);
        let p2 = tmp_container("lru2", 60);
        // Budget of one byte: any residency is over budget, so each
        // materialize evicts everything unpinned.
        let r = Registry::with_budget(1);
        let h1 = r.load("a", p1.to_str().unwrap()).unwrap();
        let h2 = r.load("b", p2.to_str().unwrap()).unwrap();
        let g1 = r.materialize(&h1).unwrap();
        // g1 is pinned by our Arc: it must survive its own sweep.
        assert!(h1.is_resident());
        drop(g1);
        let _g2 = r.materialize(&h2).unwrap();
        assert!(!h1.is_resident(), "cold unpinned graph must be evicted");
        assert!(h2.is_resident(), "the in-use graph is pinned");
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn pinned_graphs_survive_eviction_and_memory_backing_never_evicts() {
        let p = tmp_container("pin", 30);
        let r = Registry::with_budget(1);
        let hm = r.load("mem", "dataset:abide:0.01:3").unwrap();
        let hc = r.load("c", p.to_str().unwrap()).unwrap();
        let pinned = r.materialize(&hc).unwrap();
        // Another materialize cycle while `pinned` is held.
        let _ = r.materialize(&hc).unwrap();
        assert!(hc.is_resident(), "pinned graph must not be evicted");
        assert!(hm.is_resident(), "memory backing is unevictable");
        drop(pinned);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn evict_reload_is_bit_identical() {
        // 77 edges is the (7, 11) residue-pair capacity of
        // `tmp_container`; more would duplicate (u0, v0).
        let p = tmp_container("bitid", 77);
        let r = Registry::with_budget(1);
        let h = r.load("g", p.to_str().unwrap()).unwrap();
        let g1 = r.materialize(&h).unwrap();
        let before = g1.desc_accepts().to_vec();
        let ends_before = g1.desc_endpoints().to_vec();
        let desc_before: Vec<u32> = g1.desc_edge_ids().to_vec();
        drop(g1);
        // Force the eviction sweep with a second handle's materialize.
        let p2 = tmp_container("bitid2", 10);
        let h2 = r.load("g2", p2.to_str().unwrap()).unwrap();
        let _g2 = r.materialize(&h2).unwrap();
        assert!(!h.is_resident());
        let g3 = r.materialize(&h).unwrap();
        assert_eq!(g3.desc_accepts(), &before[..]);
        assert_eq!(g3.desc_endpoints(), &ends_before[..]);
        assert_eq!(g3.desc_edge_ids(), &desc_before[..]);
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn swapped_container_file_is_refused_on_reload() {
        let p1 = tmp_container("swap_a", 20);
        let p2 = tmp_container("swap_b", 25);
        let r = Registry::with_budget(1);
        let h = r.load("g", p1.to_str().unwrap()).unwrap();
        drop(r.materialize(&h).unwrap());
        // Evict by materializing another graph...
        let p3 = tmp_container("swap_c", 5);
        let h3 = r.load("other", p3.to_str().unwrap()).unwrap();
        let _g3 = r.materialize(&h3).unwrap();
        assert!(!h.is_resident());
        // ...then swap the file underneath the evicted handle.
        std::fs::copy(&p2, &p1).unwrap();
        match r.materialize(&h) {
            Err(RegistryError::Load(msg)) => assert!(msg.contains("changed on disk"), "{msg}"),
            other => panic!("expected refusal, got {:?}", other.err()),
        }
        for p in [p1, p2, p3] {
            let _ = std::fs::remove_file(p);
        }
    }
}

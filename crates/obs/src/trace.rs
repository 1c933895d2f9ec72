//! JSON-lines tracing spans and the thread-local observability context.
//!
//! The global sink is runtime-selectable (off / stderr / file) and
//! process-wide; the context ([`ObsCtx`]) is thread-local and carries a
//! trace id plus optional [`Profile`] / [`SolverMetrics`] handles.
//! [`span`] is inert — no clock read, no allocation — unless a sink is
//! enabled or a context is installed, so instrumented hot paths cost
//! one thread-local flag check and one relaxed atomic load when
//! observability is off.

use crate::metrics::SolverMetrics;
use crate::profile::Profile;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Sink

const SINK_OFF: u8 = 0;
const SINK_STDERR: u8 = 1;
const SINK_FILE: u8 = 2;

static SINK_KIND: AtomicU8 = AtomicU8::new(SINK_OFF);
static SINK_FILE_HANDLE: Mutex<Option<FileSink>> = Mutex::new(None);
static TRACE_ROTATIONS: AtomicU64 = AtomicU64::new(0);

/// The file sink plus the bookkeeping rotation needs: where the file
/// lives, how much this process has appended, and the size cap (if any).
struct FileSink {
    file: File,
    path: PathBuf,
    written: u64,
    max_bytes: Option<u64>,
}

/// Disables trace emission (the default). Spans still feed profiles
/// and solver metrics when a context is installed.
pub fn set_sink_off() {
    SINK_KIND.store(SINK_OFF, Ordering::Release);
    *SINK_FILE_HANDLE.lock().unwrap() = None;
}

/// Emits trace JSON lines to stderr.
pub fn set_sink_stderr() {
    *SINK_FILE_HANDLE.lock().unwrap() = None;
    SINK_KIND.store(SINK_STDERR, Ordering::Release);
}

/// Emits trace JSON lines to `path` (appending; created if missing).
pub fn set_sink_file(path: impl AsRef<Path>) -> std::io::Result<()> {
    set_sink_file_capped(path, None)
}

/// Like [`set_sink_file`], but when `max_bytes` is set the sink rotates
/// once the file exceeds it: the file is atomically renamed to
/// `<path>.1` (replacing any previous rotation) and a fresh `<path>` is
/// started, so at most two generations exist on disk. Each rotation
/// increments the process-wide counter read by [`trace_rotations`].
pub fn set_sink_file_capped(path: impl AsRef<Path>, max_bytes: Option<u64>) -> std::io::Result<()> {
    let path = path.as_ref().to_path_buf();
    let file = OpenOptions::new().create(true).append(true).open(&path)?;
    let written = file.metadata().map(|m| m.len()).unwrap_or(0);
    *SINK_FILE_HANDLE.lock().unwrap() = Some(FileSink {
        file,
        path,
        written,
        max_bytes,
    });
    SINK_KIND.store(SINK_FILE, Ordering::Release);
    Ok(())
}

/// Number of trace-file rotations performed by this process.
pub fn trace_rotations() -> u64 {
    TRACE_ROTATIONS.load(Ordering::Relaxed)
}

fn rotated_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".1");
    PathBuf::from(name)
}

/// True when a trace sink (stderr or file) is enabled.
pub fn trace_enabled() -> bool {
    SINK_KIND.load(Ordering::Acquire) != SINK_OFF
}

fn emit_line(line: &str) {
    match SINK_KIND.load(Ordering::Acquire) {
        SINK_STDERR => {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err, "{line}");
        }
        SINK_FILE => {
            let mut guard = SINK_FILE_HANDLE.lock().unwrap();
            if let Some(sink) = guard.as_mut() {
                let _ = writeln!(sink.file, "{line}");
                sink.written += line.len() as u64 + 1;
                if sink.max_bytes.is_some_and(|max| sink.written >= max) {
                    rotate(sink);
                }
            }
        }
        _ => {}
    }
}

/// Rotates under the sink lock: rename is atomic (same directory), and
/// any I/O failure leaves tracing best-effort rather than panicking a
/// request thread. `written` resets either way so a persistent failure
/// retries once per cap's worth of output, not once per line.
fn rotate(sink: &mut FileSink) {
    let _ = sink.file.flush();
    if std::fs::rename(&sink.path, rotated_path(&sink.path)).is_ok() {
        TRACE_ROTATIONS.fetch_add(1, Ordering::Relaxed);
    }
    if let Ok(fresh) = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&sink.path)
    {
        sink.file = fresh;
    }
    sink.written = 0;
}

// ---------------------------------------------------------------------
// Monotonic clock origin + thread ordinals + trace ids

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn mono_us(at: Instant) -> u64 {
    at.duration_since(origin()).as_micros() as u64
}

static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

/// A small process-unique ordinal for the calling thread (stable for
/// the thread's lifetime; used in trace lines instead of opaque OS ids).
pub fn thread_ord() -> u64 {
    THREAD_ORD.with(|t| *t)
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Mints a fresh process-unique trace id (e.g. `"t1f4a-000003"`).
pub fn next_trace_id() -> Arc<str> {
    let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
    Arc::from(format!("t{:x}-{:06x}", std::process::id(), n).as_str())
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Mints a fresh span id, unique across the processes of one cluster:
/// the pid occupies the high 32 bits, so a coordinator hop and a worker
/// hop can never collide even though each process counts from 1.
pub fn next_span_id() -> u64 {
    let n = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    ((std::process::id() as u64) << 32) | (n & 0xffff_ffff)
}

/// Where the current operation sits in a (possibly cross-node) trace
/// tree: the shared trace id, this hop's span id, and the span id of
/// the hop that dispatched to this one (absent at the root). A
/// coordinator ships its context inside each range request; the worker
/// installs a [`SpanContext::child_of`] so its trace lines carry the
/// same trace id and link back via `parent`.
#[derive(Clone, Debug)]
pub struct SpanContext {
    /// Trace id shared by every hop of the request.
    pub trace_id: Arc<str>,
    /// This hop's process-unique span id.
    pub span_id: u64,
    /// Span id of the dispatching hop, if any.
    pub parent_span_id: Option<u64>,
}

impl SpanContext {
    /// A root context for a new trace (no parent hop).
    pub fn root(trace_id: Arc<str>) -> SpanContext {
        SpanContext {
            trace_id,
            span_id: next_span_id(),
            parent_span_id: None,
        }
    }

    /// A context for a hop dispatched by the remote span `parent` of
    /// the same trace (used when the parent arrived over the wire).
    pub fn child_of(trace_id: Arc<str>, parent: u64) -> SpanContext {
        SpanContext {
            trace_id,
            span_id: next_span_id(),
            parent_span_id: Some(parent),
        }
    }

    /// A child hop of this context (fresh span id, this hop as parent).
    pub fn child(&self) -> SpanContext {
        SpanContext::child_of(Arc::clone(&self.trace_id), self.span_id)
    }
}

// ---------------------------------------------------------------------
// Context

/// The observability context carried by a thread while it works on one
/// logical operation (a CLI solve, an HTTP request).
#[derive(Clone, Default)]
pub struct ObsCtx {
    /// This hop's position in the cross-node trace tree; when set, its
    /// trace id and span/parent ids are stamped onto every span and
    /// event line.
    pub span: Option<SpanContext>,
    /// Phase table closed spans aggregate into.
    pub profile: Option<Arc<Profile>>,
    /// Solver metric handles closed engine spans record into.
    pub solver: Option<Arc<SolverMetrics>>,
}

impl ObsCtx {
    fn is_empty(&self) -> bool {
        self.span.is_none() && self.profile.is_none() && self.solver.is_none()
    }
}

thread_local! {
    static CTX: RefCell<ObsCtx> = RefCell::new(ObsCtx::default());
    static CTX_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Restores the previously installed context when dropped.
pub struct CtxGuard {
    prev: ObsCtx,
    prev_active: bool,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX_ACTIVE.with(|a| a.set(self.prev_active));
        CTX.with(|c| *c.borrow_mut() = std::mem::take(&mut self.prev));
    }
}

/// Installs `ctx` on the current thread until the guard drops.
/// Parallel workers call this with a clone of the spawning thread's
/// [`current`] context so their spans join the same trace and profile.
pub fn install(ctx: ObsCtx) -> CtxGuard {
    // Pin the trace clock's origin before any span starts, so the first
    // span's start/duration are measured against an origin in the past.
    let _ = origin();
    let active = !ctx.is_empty();
    let prev_active = CTX_ACTIVE.with(|a| a.replace(active));
    let prev = CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx));
    CtxGuard { prev, prev_active }
}

/// A clone of the current thread's context (empty if none installed).
pub fn current() -> ObsCtx {
    if !ctx_active() {
        return ObsCtx::default();
    }
    CTX.with(|c| c.borrow().clone())
}

fn ctx_active() -> bool {
    CTX_ACTIVE.with(|a| a.get())
}

/// The current span context, if one is installed.
pub fn span_context() -> Option<SpanContext> {
    if !ctx_active() {
        return None;
    }
    CTX.with(|c| c.borrow().span.clone())
}

/// Runs `f` with the installed [`SolverMetrics`], if any.
pub fn with_solver(f: impl FnOnce(&SolverMetrics)) {
    if !ctx_active() {
        return;
    }
    let solver = CTX.with(|c| c.borrow().solver.clone());
    if let Some(s) = solver {
        f(&s);
    }
}

/// True when spans would do work: a sink is enabled or a context is
/// installed on this thread. Instrumented code may use this to skip
/// building expensive field values.
pub fn observing() -> bool {
    ctx_active() || trace_enabled()
}

// ---------------------------------------------------------------------
// Spans and events

/// A field value attached to a span or event.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Float (rendered with `{}`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on emission).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field(out: &mut String, key: &str, value: &FieldValue) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) => {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::Str(v) => push_json_str(out, v),
    }
}

fn line_prologue(kind: &str, name: &str) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"type\":");
    push_json_str(&mut out, kind);
    out.push_str(",\"name\":");
    push_json_str(&mut out, name);
    if let Some(sc) = span_context() {
        out.push_str(",\"trace\":");
        push_json_str(&mut out, &sc.trace_id);
        let _ = write!(out, ",\"span\":{}", sc.span_id);
        if let Some(parent) = sc.parent_span_id {
            let _ = write!(out, ",\"parent\":{parent}");
        }
    }
    let _ = write!(out, ",\"tid\":{}", thread_ord());
    out
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    items: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// An RAII span. On drop it records its duration into the installed
/// profile and solver metrics and, when a sink is enabled, emits one
/// JSON line. Obtained from [`span`]; inert (a no-op shell) when
/// nothing is observing.
pub struct Span(Option<ActiveSpan>);

/// Opens a span named `name`. Names are dotted lowercase phases, e.g.
/// `"ols.prepare"`, `"http.request"`.
pub fn span(name: &'static str) -> Span {
    if !observing() {
        return Span(None);
    }
    let _ = origin();
    Span(Some(ActiveSpan {
        name,
        start: Instant::now(),
        items: 0,
        fields: Vec::new(),
    }))
}

impl Span {
    /// True when the span will record on drop (observability is on).
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the item count (trials, butterflies, …) this span covers;
    /// feeds the profile's `items` column and phase trial counters.
    pub fn items(&mut self, n: u64) {
        if let Some(s) = self.0.as_mut() {
            s.items = n;
        }
    }

    /// Attaches an extra field emitted on the span's JSON line.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(s) = self.0.as_mut() {
            s.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.0.take() else { return };
        let end = Instant::now();
        let secs = end.duration_since(s.start).as_secs_f64();
        if ctx_active() {
            let profile = CTX.with(|c| c.borrow().profile.clone());
            if let Some(p) = profile {
                p.record(s.name, secs, s.items);
            }
        }
        if trace_enabled() {
            let mut line = line_prologue("span", s.name);
            let _ = write!(
                &mut line,
                ",\"start_us\":{},\"dur_us\":{},\"items\":{}",
                mono_us(s.start),
                mono_us(end).saturating_sub(mono_us(s.start)),
                s.items
            );
            for (k, v) in &s.fields {
                push_field(&mut line, k, v);
            }
            line.push('}');
            emit_line(&line);
        }
    }
}

/// Emits a point-in-time event line (no duration) when a sink is
/// enabled; a no-op otherwise.
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !trace_enabled() {
        return;
    }
    let mut line = line_prologue("event", name);
    let _ = write!(&mut line, ",\"at_us\":{}", mono_us(Instant::now()));
    for (k, v) in fields {
        push_field(&mut line, k, v);
    }
    line.push('}');
    emit_line(&line);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global; tests that enable it or assert it is
    /// off serialize through this lock so parallel test threads don't
    /// observe each other's sink state.
    fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inert_span_without_sink_or_ctx() {
        let _l = sink_lock();
        let sp = span("idle.phase");
        assert!(!sp.is_active());
    }

    #[test]
    fn span_records_into_installed_profile() {
        let _l = sink_lock();
        let profile = Arc::new(Profile::new());
        let guard = install(ObsCtx {
            span: Some(SpanContext::root(next_trace_id())),
            profile: Some(profile.clone()),
            solver: None,
        });
        {
            let mut sp = span("unit.phase");
            assert!(sp.is_active());
            sp.items(42);
        }
        drop(guard);
        let snap = profile.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "unit.phase");
        assert_eq!(snap[0].items, 42);
        assert_eq!(snap[0].calls, 1);
        // Context restored: spans are inert again.
        assert!(!span("unit.phase").is_active());
    }

    #[test]
    fn nested_install_restores_outer_ctx() {
        let outer = Arc::new(Profile::new());
        let inner = Arc::new(Profile::new());
        let _g1 = install(ObsCtx {
            profile: Some(outer.clone()),
            ..Default::default()
        });
        {
            let _g2 = install(ObsCtx {
                profile: Some(inner.clone()),
                ..Default::default()
            });
            span("x.y").items(1);
        }
        span("x.y").items(2);
        assert_eq!(inner.snapshot()[0].items, 1);
        assert_eq!(outer.snapshot()[0].items, 2);
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        assert!(a.starts_with('t'));
    }

    #[test]
    fn file_sink_emits_span_lines() {
        let _l = sink_lock();
        let dir = std::env::temp_dir().join(format!("obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        set_sink_file(&path).unwrap();
        let _g = install(ObsCtx {
            span: Some(SpanContext::root(Arc::from("req-123"))),
            ..Default::default()
        });
        {
            let mut sp = span("sink.phase");
            sp.items(7);
            sp.field("note", "hello");
        }
        event("sink.event", &[("ok", FieldValue::Bool(true))]);
        set_sink_off();
        let text = std::fs::read_to_string(&path).unwrap();
        let span_line = text
            .lines()
            .find(|l| l.contains("\"name\":\"sink.phase\""))
            .expect("span line present");
        assert!(span_line.starts_with("{\"type\":\"span\""));
        assert!(span_line.contains("\"trace\":\"req-123\""));
        assert!(span_line.contains("\"items\":7"));
        assert!(span_line.contains("\"note\":\"hello\""));
        assert!(span_line.contains("\"dur_us\":"));
        let event_line = text
            .lines()
            .find(|l| l.contains("\"name\":\"sink.event\""))
            .expect("event line present");
        assert!(event_line.contains("\"type\":\"event\""));
        assert!(event_line.contains("\"ok\":true"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn span_context_links_hops_and_stamps_lines() {
        let _l = sink_lock();
        let root = SpanContext::root(Arc::from("trace-sc"));
        assert_eq!(root.parent_span_id, None);
        let hop = SpanContext::child_of(Arc::clone(&root.trace_id), root.span_id);
        assert_eq!(hop.parent_span_id, Some(root.span_id));
        assert_ne!(hop.span_id, root.span_id);
        let grand = hop.child();
        assert_eq!(grand.parent_span_id, Some(hop.span_id));

        let dir = std::env::temp_dir().join(format!("obs-sc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        set_sink_file(&path).unwrap();
        {
            let _g = install(ObsCtx {
                span: Some(hop.clone()),
                profile: None,
                solver: None,
            });
            span("hop.phase").items(1);
        }
        set_sink_off();
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("\"name\":\"hop.phase\""))
            .expect("span line present");
        assert!(
            line.contains(&format!("\"span\":{}", hop.span_id)),
            "{line}"
        );
        assert!(
            line.contains(&format!("\"parent\":{}", root.span_id)),
            "{line}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_sink_rotates_at_cap_keeping_one_generation() {
        let _l = sink_lock();
        let dir = std::env::temp_dir().join(format!("obs-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let before = trace_rotations();
        set_sink_file_capped(&path, Some(256)).unwrap();
        let _g = install(ObsCtx {
            span: Some(SpanContext::root(Arc::from("rot-test"))),
            profile: None,
            solver: None,
        });
        for _ in 0..32 {
            span("rotate.phase").items(1);
        }
        set_sink_off();
        assert!(trace_rotations() > before, "cap of 256 B forces rotation");
        let rotated = rotated_path(&path);
        assert!(rotated.exists(), "previous generation kept as .1");
        assert!(path.exists(), "live file reopened after rename");
        assert!(
            std::fs::metadata(&rotated).unwrap().len() >= 256,
            "rotation happens only past the cap"
        );
        // Every line in both generations is intact (no torn writes).
        for p in [&path, &rotated] {
            for line in std::fs::read_to_string(p).unwrap().lines() {
                assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

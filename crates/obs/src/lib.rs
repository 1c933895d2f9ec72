//! Zero-dependency structured observability for the MPMB workspace.
//!
//! Three cooperating layers, all branch-cheap when disabled:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) —
//!   atomically updated instruments registered once and rendered in the
//!   Prometheus text exposition format. Registration takes a mutex;
//!   every update afterwards is a handful of relaxed atomic ops on an
//!   `Arc` handle, so hot paths never contend on the registry lock.
//! * **Tracing** ([`span`], [`event`], the global sink) — RAII spans
//!   that emit one JSON line per operation (monotonic start, duration,
//!   thread ordinal, propagated trace id) to a runtime-selectable sink:
//!   off (the default — spans are inert), stderr, or a file.
//! * **Context** ([`ObsCtx`], [`install`]) — a thread-local carrier for
//!   the current trace id, an optional [`Profile`] accumulating a
//!   per-request/per-solve phase table, and optional [`SolverMetrics`]
//!   histograms. Parallel workers snapshot and re-install the context
//!   so spans on worker threads land in the same profile and trace.
//!
//! The crate has no dependencies (like the `shims/` precedent) and no
//! feature flags: whether anything is observed is decided at runtime,
//! and the disabled path is a thread-local flag check plus one relaxed
//! atomic load.

#![warn(missing_docs)]

mod metrics;
mod profile;
mod promtext;
mod ring;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry, SolverMetrics, PHASE_SECONDS_BUCKETS};
pub use profile::{render_table, PhaseStat, Profile};
pub use promtext::merge_prometheus;
pub use ring::Ring;
pub use trace::{
    current, event, install, next_span_id, next_trace_id, observing, set_sink_file,
    set_sink_file_capped, set_sink_off, set_sink_stderr, span, span_context, thread_ord,
    trace_enabled, trace_rotations, with_solver, CtxGuard, FieldValue, ObsCtx, Span, SpanContext,
};

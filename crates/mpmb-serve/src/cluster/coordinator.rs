//! The coordinator half: deterministic scatter-gather over workers.
//!
//! A coordinator drives every request through the same method table
//! and driver as a single node ([`crate::solve`]), with a [`Scatter`]
//! as its range runner: wherever a local run hands a phase's trial
//! space to the in-process [`mpmb_core::Executor`], the coordinator
//! splits the *missing* ranges of the master partial with the
//! canonical [`mpmb_core::chunk_ranges`] partition, posts each range to
//! a worker, and absorbs the returned partials with the engine's own
//! [`TrialEngine::merge`]. Preparing (`ols`, `ols-kl` phase 1) and
//! `/v1/query` run on the coordinator itself; shipping the prepared
//! [`CandidateSet`] with every range request means workers never
//! re-run it.
//!
//! Determinism: a trial's result is a function of its index alone, and
//! absorption is order-insensitive, so the master accumulator after
//! gather is byte-identical to a local run's, and finalization is the
//! method table's own finalize step. Worker count, range boundaries,
//! retries, and re-dispatches can change scheduling only, never bytes.
//!
//! Failure: a range call that dies in transport (or returns bytes that
//! fail the frame checksum) marks its worker down and leaves the range
//! missing; the next round re-dispatches the *remaining* trials — a
//! worker that timed out mid-range keeps its completed prefix. If the
//! coordinator's own deadline fires first, the partially assembled
//! master is returned as an ordinary resumable partial and lands in
//! the result cache, so a retried request continues the gather instead
//! of restarting it.

use super::proto::{self, RangeRequest};
use super::{Cluster, ClusterError};
use crate::client::{self, ClientError, RetryPolicy};
use crate::server::AppState;
use crate::solve::{Cancel, Job, PartialState};
use mpmb_core::engine::Partial;
use mpmb_core::{chunk_ranges, CandidateSet, TrialEngine};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The coordinator's range runner (`solve::Runner::Cluster`).
pub(crate) struct Scatter<'a> {
    /// Server state: membership probes and cluster metrics.
    pub state: &'a AppState,
    /// Worker membership and retry policy.
    pub cluster: &'a Cluster,
    /// The registered graph name workers resolve.
    pub graph: &'a str,
    /// Solver threads per range call, and for phases run locally.
    pub threads: usize,
}

/// Broadcasts a graph-registration body to every *healthy* worker. A
/// worker answering 409 already has the graph; that is success. Down
/// members are skipped so a dead worker cannot block registration
/// forever — if the prober later revives one that missed a graph, its
/// solve-range 404 surfaces as a 502 and the client re-registers (the
/// broadcast is idempotent thanks to the 409 rule).
pub(crate) fn broadcast_register(cluster: &Cluster, body: &[u8]) -> Result<(), ClusterError> {
    for i in cluster.members.healthy() {
        let addr = cluster.members.addr(i);
        match client::call_retry_expect(
            addr,
            "POST",
            "/v1/graphs",
            body,
            "application/json",
            &cluster.retry,
        ) {
            Ok(_) => cluster.members.mark_up(i),
            Err(ClientError::Status { status: 409, .. }) => cluster.members.mark_up(i),
            Err(ClientError::Status { status, body }) => {
                return Err(ClusterError::Worker {
                    addr: addr.to_string(),
                    status,
                    body,
                })
            }
            Err(ClientError::Transport(e)) => {
                cluster.members.mark_down(i);
                return Err(ClusterError::Worker {
                    addr: addr.to_string(),
                    status: 0,
                    body: format!("transport error: {e}"),
                });
            }
        }
    }
    Ok(())
}

/// How one range call failed.
enum CallFailure {
    /// No usable HTTP response (connect refused, reset, truncation) —
    /// or one whose frame failed to decode. The worker is suspect.
    WorkerLost(String),
    /// The worker is alive but overloaded or draining (429/503).
    Overloaded,
    /// The worker rejected the request outright — a config or protocol
    /// bug that re-dispatching cannot fix.
    Fatal {
        /// The worker's status code.
        status: u16,
        /// Its response body.
        body: String,
    },
}

impl Scatter<'_> {
    /// Runs scatter rounds until `master` is covered, the deadline
    /// fires, or no worker can make progress. Each reply must stay
    /// inside its assigned range and is absorbed with `engine`'s own
    /// merge — the fold the local executor uses between chunks.
    pub(crate) fn run<E: TrialEngine>(
        &self,
        job: &Job,
        candidates: Option<&CandidateSet>,
        engine: &E,
        master: &mut Partial<E::Acc>,
        unwrap: fn(PartialState) -> Result<Partial<E::Acc>, PartialState>,
        cancel: &Cancel,
    ) -> Result<(), ClusterError> {
        let (state, cluster) = (self.state, self.cluster);
        let start_done = master.trials_done();
        let mut round = 0u64;
        loop {
            if master.completed() || cancel.expired() {
                // On an expired deadline the caller caches the partial
                // master; a retried request resumes the gather from here.
                return Ok(());
            }
            let mut healthy = cluster.members.healthy();
            if healthy.is_empty() {
                // One synchronous probe round: workers that restarted
                // since they were marked down rejoin immediately.
                if cluster.members.probe_all(&state.metrics) == 0 {
                    if master.trials_done() > start_done {
                        return Ok(());
                    }
                    return Err(ClusterError::NoWorkers);
                }
                healthy = cluster.members.healthy();
            }

            let assignments = plan_assignments(&master.missing(), &healthy);
            state
                .metrics
                .cluster_ranges_dispatched
                .add(assignments.len() as u64);
            if round > 0 {
                state
                    .metrics
                    .cluster_redispatch
                    .add(assignments.len() as u64);
            }
            round += 1;

            // Each range call gets its own hop in the trace tree: a child
            // span of this request's context, whose id the worker's
            // in-range spans then parent on. The spawned threads install
            // only the span context (no profile) so the `cluster.range`
            // timeline spans never double-count into the phase table —
            // stitching below attributes time precisely instead.
            let ctx = obs::current();
            let results: Vec<Result<RangeReply, CallFailure>> = std::thread::scope(|s| {
                let handles: Vec<_> = assignments
                    .iter()
                    .map(|(w, range)| {
                        let addr = cluster.members.addr(*w);
                        let retry = &cluster.retry;
                        let hop = ctx.span.as_ref().map(|sc| sc.child());
                        let request = RangeRequest {
                            graph: self.graph.to_string(),
                            method: job.method,
                            trials: job.trials,
                            prep: job.prep,
                            seed: job.seed,
                            threads: self.threads as u64,
                            start: range.start,
                            end: range.end,
                            candidates: candidates.cloned(),
                            trace: hop.as_ref().map(|sc| proto::TraceContext {
                                trace_id: sc.trace_id.to_string(),
                                parent_span: sc.span_id,
                            }),
                        };
                        s.spawn(move || {
                            let _g = hop.map(|sc| {
                                obs::install(obs::ObsCtx {
                                    trace_id: Some(Arc::clone(&sc.trace_id)),
                                    span: Some(sc),
                                    profile: None,
                                    solver: None,
                                })
                            });
                            let mut sp = obs::span("cluster.range");
                            sp.items(request.end - request.start);
                            sp.field("worker", addr);
                            sp.field("range_start", request.start);
                            sp.field("range_end", request.end);
                            call_worker(addr, retry, &request)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scatter thread panicked"))
                    .collect()
            });

            let mut progressed = false;
            let mut transient_failures = 0usize;
            let mut merge_span = obs::span("cluster.merge");
            let mut absorbed = 0u64;
            for ((widx, range), result) in assignments.iter().zip(results) {
                match result {
                    Ok(reply) => {
                        let piece = unwrap(reply.state).map_err(|other| {
                            ClusterError::Protocol(format!(
                                "range response kind `{}` does not match request method `{}`",
                                other.kind(),
                                job.method
                            ))
                        })?;
                        check_containment(&piece, range)?;
                        let before = master.trials_done();
                        let covered = piece.trials_done();
                        master
                            .absorb(piece, |acc, from| engine.merge(acc, from))
                            .map_err(|e| ClusterError::Protocol(e.to_string()))?;
                        progressed |= master.trials_done() > before;
                        absorbed += covered;
                        stitch_reply(&ctx, cluster.members.addr(*widx), &reply.phases, reply.wall);
                    }
                    Err(CallFailure::WorkerLost(reason)) => {
                        obs::event(
                            "cluster.worker_lost",
                            &[
                                ("worker", cluster.members.addr(*widx).into()),
                                ("range_start", range.start.into()),
                                ("range_end", range.end.into()),
                                ("reason", reason.into()),
                            ],
                        );
                        state.metrics.cluster_worker_errors.inc();
                        cluster.members.mark_down(*widx);
                        transient_failures += 1;
                    }
                    Err(CallFailure::Overloaded) => {
                        state.metrics.cluster_worker_errors.inc();
                        cluster.members.mark_down(*widx);
                        transient_failures += 1;
                    }
                    Err(CallFailure::Fatal { status, body }) => {
                        return Err(ClusterError::Worker {
                            addr: cluster.members.addr(*widx).to_string(),
                            status,
                            body,
                        });
                    }
                }
            }
            merge_span.items(absorbed);
            drop(merge_span);
            if !progressed && transient_failures == 0 {
                // Every worker answered yet nothing advanced — e.g. worker
                // deadlines too short to finish a single check interval.
                // Erroring beats scattering the same ranges forever.
                return Err(ClusterError::Protocol(
                    "scatter round completed without progress".to_string(),
                ));
            }
        }
    }
}

/// Splits each missing gap across the healthy workers with the
/// canonical [`chunk_ranges`] partition, assigning pieces round-robin
/// in worker-list order. Pure, so the schedule is deterministic given
/// the same gaps and membership (the *answer* never depends on it).
fn plan_assignments(gaps: &[Range<u64>], healthy: &[usize]) -> Vec<(usize, Range<u64>)> {
    let mut assignments = Vec::new();
    let mut next = 0usize;
    for gap in gaps {
        for piece in chunk_ranges(gap.end - gap.start, healthy.len()) {
            if piece.start == piece.end {
                continue;
            }
            assignments.push((
                healthy[next % healthy.len()],
                gap.start + piece.start..gap.start + piece.end,
            ));
            next += 1;
        }
    }
    assignments
}

/// A successful range call: the worker's partial, its phase profile,
/// and the call's wall time as seen from the coordinator.
struct RangeReply {
    state: PartialState,
    phases: Vec<obs::PhaseStat>,
    wall: Duration,
}

/// Folds one worker reply into the request's profile: each returned
/// phase becomes a worker-labeled child entry (`addr/phase`), and the
/// gap between the call's wall time and the worker's own accounted
/// time is charged to `cluster.network`.
fn stitch_reply(ctx: &obs::ObsCtx, addr: &str, phases: &[obs::PhaseStat], wall: Duration) {
    let Some(profile) = &ctx.profile else { return };
    let accounted: f64 = phases
        .iter()
        .filter(|p| !crate::server::is_sub_phase(&p.name))
        .map(|p| p.secs)
        .sum();
    for p in phases {
        profile.absorb(&format!("{addr}/{}", p.name), p.secs, p.items, p.calls);
    }
    let overhead = wall.as_secs_f64() - accounted;
    if overhead > 0.0 {
        profile.absorb("cluster.network", overhead, 0, 1);
    }
}

/// One framed range call with retries; classifies the failure.
fn call_worker(
    addr: &str,
    retry: &RetryPolicy,
    request: &RangeRequest,
) -> Result<RangeReply, CallFailure> {
    let started = Instant::now();
    let bytes = match client::call_retry_expect(
        addr,
        "POST",
        "/v1/internal/solve-range",
        &request.encode(),
        "application/octet-stream",
        retry,
    ) {
        Ok((_headers, bytes, _retries)) => bytes,
        Err(ClientError::Transport(e)) => return Err(CallFailure::WorkerLost(e.to_string())),
        Err(ClientError::Status {
            status: 429 | 503, ..
        }) => return Err(CallFailure::Overloaded),
        Err(ClientError::Status { status, body }) => {
            return Err(CallFailure::Fatal { status, body })
        }
    };
    let (state, phases) = proto::decode_response(&bytes)
        .map_err(|e| CallFailure::WorkerLost(format!("undecodable response: {e}")))?;
    Ok(RangeReply {
        state,
        phases,
        wall: started.elapsed(),
    })
}

/// A worker must only cover trials inside its assigned range; anything
/// else is a protocol violation (absorb would additionally catch
/// overlaps, but out-of-range coverage in untouched space would pass
/// silently without this check).
fn check_containment<A>(piece: &Partial<A>, assigned: &Range<u64>) -> Result<(), ClusterError> {
    match piece
        .done_ranges()
        .iter()
        .find(|r| r.start < assigned.start || r.end > assigned.end)
    {
        Some(r) => Err(ClusterError::Protocol(format!(
            "worker covered {r:?} outside its assigned range {assigned:?}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_covers_every_gap_exactly_once() {
        let gaps = vec![0..100u64, 250..260, 400..1000];
        let healthy = vec![0usize, 2, 5];
        let plan = plan_assignments(&gaps, &healthy);
        // Pieces tile the gaps in order, nothing dropped or duplicated.
        let mut covered: Vec<Range<u64>> = plan.iter().map(|(_, r)| r.clone()).collect();
        covered.sort_by_key(|r| r.start);
        let total: u64 = covered.iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 100 + 10 + 600);
        for w in covered.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap: {w:?}");
        }
        // Every piece lands on a configured worker.
        assert!(plan.iter().all(|(w, _)| healthy.contains(w)));
        // A wide gap splits across all three workers.
        let wide: Vec<_> = plan.iter().filter(|(_, r)| r.start >= 400).collect();
        assert_eq!(wide.len(), 3);
        assert_eq!(
            wide.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            vec![0, 2, 5]
        );
    }

    #[test]
    fn tiny_gaps_produce_no_empty_assignments() {
        let plan = plan_assignments(std::slice::from_ref(&(10..12)), &[0, 1, 2, 3, 4]);
        assert!(plan.iter().all(|(_, r)| r.start < r.end));
        let total: u64 = plan.iter().map(|(_, r)| r.end - r.start).sum();
        assert_eq!(total, 2);
    }
}

//! The worker half of the range protocol:
//! `POST /v1/internal/solve-range`.
//!
//! A worker is an ordinary server that additionally answers range
//! calls: decode the frame, look up the graph, build the request's
//! starting state (for OLS methods, the estimation phase over the
//! shipped candidate set), and run it through the same driver a
//! single-node request uses, with a [`Runner::Range`] that executes
//! just the requested index range. The response is the framed
//! [`PartialState`] — the same bytes a local run's checkpoint of that
//! range would hold — plus the range's phase profile, which the shared
//! driver records exactly as it does for local runs.
//!
//! A worker that hits its own `--timeout-ms` mid-range still answers
//! `200` with whatever prefix of the range completed: partial coverage
//! is a *legitimate* response, and the coordinator re-dispatches only
//! the remaining trials. Only malformed frames (400), unknown graphs
//! (404), and unknown methods (400) are errors.
//!
//! When a request carries the coordinator's trace context, the worker
//! re-installs its observability context around the range — the
//! coordinator's trace id with a fresh per-hop span id parented on the
//! dispatching span. A `cluster.range.served` event emitted under that
//! context is the worker-side anchor of the cross-node timeline (it
//! lands in the worker's own trace sink *under the coordinator's trace
//! id*), and the per-phase profile is shipped back in the response for
//! stitching.

use super::proto::{self, RangeRequest};
use super::ClusterError;
use crate::http::{Request, Response};
use crate::server::AppState;
use crate::solve::{self, Cancel, Job, Outcome, PartialState, Runner};
use bigraph::UncertainBipartiteGraph;
use mpmb_core::Executor;
use std::sync::Arc;
use std::time::Instant;

/// Handles one range call end to end.
pub(crate) fn handle_solve_range(state: &AppState, req: &Request) -> Response {
    let started = Instant::now();
    let rr = match RangeRequest::decode(&req.body) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &format!("bad range request: {e}")),
    };
    // Join the coordinator's trace: same trace id, fresh hop span id,
    // parented on the dispatching span. The request-scoped profile and
    // solver metrics installed by the HTTP layer carry over, so the
    // phases recorded below are exactly this range's.
    let outer = obs::current();
    let _trace_guard = rr.trace.as_ref().map(|t| {
        let sc = obs::SpanContext::child_of(Arc::from(t.trace_id.as_str()), t.parent_span);
        obs::install(obs::ObsCtx {
            trace_id: Some(Arc::clone(&sc.trace_id)),
            span: Some(sc),
            profile: outer.profile.clone(),
            solver: outer.solver.clone(),
        })
    });
    let entry = match state.registry.get(&rr.graph) {
        Some(e) => e,
        None => {
            return Response::error(404, &format!("graph `{}` is not registered here", rr.graph))
        }
    };
    // Materialize through the handler's path (container-backed graphs
    // load lazily, under a `registry.materialize` span); the Arc pins
    // the graph against eviction for the duration of the range.
    let graph = match crate::server::materialize_graph(state, &entry) {
        Ok(g) => g,
        Err(resp) => return resp,
    };
    let threads = (rr.threads.max(1) as usize).min(state.solver_thread_cap);
    let cancel = Cancel::at(state.timeout.map(|t| Instant::now() + t));
    match solve_range(&graph, &rr, threads, &cancel) {
        Ok((partial, executed)) => {
            state.metrics.trials_executed.add(executed);
            let phases = outer.profile.as_ref().map(|p| p.snapshot());
            // Emitted while the hop context is installed: this line in
            // the worker's own sink carries the coordinator's trace id
            // and the dispatching span as parent. (An event, not a
            // span — it must not feed the profile shipped above, or
            // the stitched budget would double-count the range.)
            obs::event(
                "cluster.range.served",
                &[
                    ("graph", rr.graph.as_str().into()),
                    ("method", rr.method.name().into()),
                    ("start", rr.start.into()),
                    ("end", rr.end.into()),
                    ("done", executed.into()),
                    ("dur_us", (started.elapsed().as_micros() as u64).into()),
                ],
            );
            Response::octets(200, proto::encode_response(&partial, phases.as_deref()))
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Runs `[start, end)` of the request's trial space through the shared
/// driver and returns the covered partial with the trials it executed.
/// The partial spans the *full* space (so the coordinator can absorb it
/// directly); its done-set covers the prefix of the range that
/// completed before `cancel` fired.
fn solve_range(
    g: &UncertainBipartiteGraph,
    rr: &RangeRequest,
    threads: usize,
    cancel: &Cancel,
) -> Result<(PartialState, u64), ClusterError> {
    let job = Job::new(rr.method, rr.trials, rr.prep, rr.seed);
    let start = solve::start_range(g, &job, rr.candidates.clone())?;
    let runner = Runner::Range(Executor::new(threads), rr.start..rr.end);
    let progress = solve::advance(g, &job, Some(start), &runner, cancel)?;
    match progress.outcome {
        Outcome::Incomplete(partial) => Ok((partial, progress.executed)),
        Outcome::Done(_) => unreachable!("range runs return their partial unfinalized"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Method;
    use bigraph::{GraphBuilder, Left, Right};
    use mpmb_core::engine::Partial;
    use mpmb_core::{
        enumerate_backbone_butterflies, CandidateSet, OsConfig, OsTrials, SublinearTrials,
        TrialEngine,
    };

    fn graph() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    fn rr(method: Method, trials: u64, start: u64, end: u64) -> RangeRequest {
        RangeRequest {
            graph: "g".to_string(),
            method,
            trials,
            prep: 60,
            seed: 17,
            threads: 2,
            start,
            end,
            candidates: None,
            trace: None,
        }
    }

    /// Runs three range calls covering `0..900` out of order and folds
    /// them into one partial with `engine`'s merge.
    fn reassemble<E: TrialEngine>(
        engine: &E,
        method: Method,
        unwrap: impl Fn(PartialState) -> Partial<E::Acc>,
    ) -> Partial<E::Acc> {
        let run = |s, e, threads| {
            let (state, executed) =
                solve_range(&graph(), &rr(method, 900, s, e), threads, &Cancel::never()).unwrap();
            assert_eq!(executed, e - s);
            unwrap(state)
        };
        let mut master = run(0, 300, 1);
        for (s, e) in [(600, 900), (300, 600)] {
            master
                .absorb(run(s, e, 2), |acc, from| engine.merge(acc, from))
                .unwrap();
        }
        assert!(master.completed());
        master
    }

    #[test]
    fn os_range_pieces_reassemble_the_full_run() {
        let g = graph();
        // Full-space reference through the same engine.
        let engine = OsTrials::new(
            &g,
            &OsConfig {
                seed: 17,
                ..Default::default()
            },
        );
        let full = Executor::new(2).run(&engine, 900, &Cancel::never());
        let reference: Vec<_> = full.acc.counts().map(|(b, c)| (*b, *c)).collect();
        let master = reassemble(&engine, Method::Os, |s| match s {
            PartialState::Os(p) => p,
            other => panic!("wrong variant: {}", other.kind()),
        });
        let got: Vec<_> = master.acc.counts().map(|(b, c)| (*b, *c)).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn fast_range_pieces_reassemble_the_full_run() {
        let g = graph();
        let engine = SublinearTrials::new(&g, 17);
        let full = Executor::new(2).run(&engine, 900, &Cancel::never());
        let reference = engine.finalize(full.acc, 0.1);
        let master = reassemble(&engine, Method::Fast, |s| match s {
            PartialState::Fast(p) => p,
            other => panic!("wrong variant: {}", other.kind()),
        });
        let got = engine.finalize(master.acc, 0.1);
        assert_eq!(got.estimate.to_bits(), reference.estimate.to_bits());
        assert_eq!(got.ci_high.to_bits(), reference.ci_high.to_bits());
    }

    #[test]
    fn ols_ranges_require_candidates() {
        let g = graph();
        for method in [Method::Ols, Method::OlsKl] {
            let err = solve_range(&g, &rr(method, 50, 0, 1), 1, &Cancel::never()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("{method} range requires a candidate set")
            );
        }
    }

    #[test]
    fn foreign_candidate_sets_are_rejected_before_any_engine_runs() {
        // A 3×3 graph lists butterflies whose edge ids run past the
        // worker graph's six edges: a coordinator holding a different
        // graph under the same name.
        let mut b = GraphBuilder::new();
        for u in 0..3u32 {
            for v in 0..3u32 {
                b.add_edge(Left(u), Right(v), (1 + u * 3 + v) as f64, 0.9)
                    .unwrap();
            }
        }
        let foreign_graph = b.build().unwrap();
        let foreign = CandidateSet::from_butterflies(
            &foreign_graph,
            enumerate_backbone_butterflies(&foreign_graph),
        );
        for method in [Method::Ols, Method::OlsKl] {
            let request = RangeRequest {
                candidates: Some(foreign.clone()),
                ..rr(method, 50, 0, 1)
            };
            let err = solve_range(&graph(), &request, 1, &Cancel::never()).unwrap_err();
            assert!(
                matches!(&err, ClusterError::BadRequest(msg) if msg.contains("is not a butterfly of this graph")),
                "{method}: {err}"
            );
        }
        // The worker's own listing passes the same check.
        let g = graph();
        let own = CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let request = RangeRequest {
            candidates: Some(own),
            ..rr(Method::Ols, 50, 0, 50)
        };
        assert!(solve_range(&graph(), &request, 1, &Cancel::never()).is_ok());
    }

    #[test]
    fn out_of_space_ranges_are_rejected() {
        let g = graph();
        assert!(solve_range(&g, &rr(Method::Os, 100, 50, 150), 1, &Cancel::never()).is_err());
    }

    #[test]
    fn expired_deadline_yields_partial_range_coverage() {
        let g = graph();
        let (partial, done) = solve_range(
            &g,
            &rr(Method::Os, 1_000_000, 0, 1_000_000),
            1,
            &Cancel::after_trials(200),
        )
        .unwrap();
        assert!(done > 0 && done < 1_000_000, "done={done}");
        // The covered prefix starts at the range start.
        match partial {
            PartialState::Os(p) => assert_eq!(p.missing(), vec![done..1_000_000]),
            other => panic!("wrong variant: {}", other.kind()),
        }
    }
}

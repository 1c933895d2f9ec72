//! Wire protocol for `POST /v1/internal/solve-range`.
//!
//! Both directions are checksummed binary frames built on
//! [`bigraph::codec`] — the same encoding the durable checkpoint store
//! uses, so a range response is literally a framed
//! [`PartialState`] and the coordinator absorbs it with the exact
//! code path that absorbs a restored snapshot. JSON never touches the
//! internal path: accumulators carry `f64` weights whose bytes must
//! survive the round trip untouched for the cluster's bit-identity
//! guarantee to hold.
//!
//! Framing (via [`seal_frame`]) adds magic, version, and an FNV-1a
//! checksum, so a truncated or bit-flipped response (fault injection
//! does both) surfaces as a [`CodecError`] — never a wrong answer.
//!
//! The request ships the phase-2 candidate set for `ols`/`ols-kl`
//! ranges: preparing runs once on the coordinator and workers never
//! re-run it. Large candidate sets are bounded by the server's 4 MiB
//! request-body cap.
//!
//! There is one wire version, [`VERSION`]: requests carry the
//! coordinator's trace context (trace id + parent span id), responses
//! carry the worker's per-phase profile for the range. Frames of any
//! other version are rejected with `BadVersion`.

use crate::solve::PartialState;
use bigraph::codec::{open_frame, seal_frame, CodecError, Decoder, Encoder};
use mpmb_core::{CandidateSet, Checkpoint};

/// Magic prefix of a range request frame.
pub(crate) const REQ_MAGIC: &[u8; 8] = b"MPMBRQ01";
/// Magic prefix of a range response frame.
pub(crate) const RESP_MAGIC: &[u8; 8] = b"MPMBRS01";
/// The protocol version this build speaks, and the only one it reads.
pub(crate) const VERSION: u32 = 2;

/// The coordinator's position in the request's trace tree, shipped
/// inside a range request so worker spans join the same trace.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TraceContext {
    /// Trace id shared by every hop of the client request.
    pub trace_id: String,
    /// Span id of the coordinator hop dispatching this range.
    pub parent_span: u64,
}

/// One scattered unit of work: run `[start, end)` of the method's
/// trial space (candidate indices for `ols-kl`, trial indices
/// otherwise) against the named graph, under the full-request
/// parameters so every engine is seeded identically to a single-node
/// run.
#[derive(Clone, Debug)]
pub(crate) struct RangeRequest {
    /// Registered graph name (must exist on the worker).
    pub graph: String,
    /// `os` | `mcvp` | `ols` | `ols-kl` | `count` | `fast`.
    pub method: String,
    /// The full request's trial budget (KL per-candidate fixed count
    /// for `ols-kl`) — part of engine seeding, NOT this range's size.
    pub trials: u64,
    /// The full request's preparing budget (`ols`/`ols-kl` only).
    pub prep: u64,
    /// The full request's seed.
    pub seed: u64,
    /// Requested solver threads; the worker clamps to its own cap.
    pub threads: u64,
    /// First trial index of this range (inclusive).
    pub start: u64,
    /// One past the last trial index of this range.
    pub end: u64,
    /// Phase-1 output for `ols`/`ols-kl`, computed on the coordinator.
    pub candidates: Option<CandidateSet>,
    /// Coordinator trace context, when the request is traced.
    pub trace: Option<TraceContext>,
}

/// Opens a frame that must carry exactly [`VERSION`].
fn open<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<&'a [u8], CodecError> {
    match open_frame(magic, VERSION, bytes)? {
        (VERSION, payload) => Ok(payload),
        (other, _) => Err(CodecError::BadVersion(other)),
    }
}

impl RangeRequest {
    /// Seals this request into a checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.str(&self.graph);
        enc.str(&self.method);
        enc.u64(self.trials);
        enc.u64(self.prep);
        enc.u64(self.seed);
        enc.u64(self.threads);
        enc.u64(self.start);
        enc.u64(self.end);
        match &self.candidates {
            None => enc.u8(0),
            Some(c) => {
                enc.u8(1);
                c.encode(&mut enc);
            }
        }
        match &self.trace {
            None => enc.u8(0),
            Some(t) => {
                enc.u8(1);
                enc.str(&t.trace_id);
                enc.u64(t.parent_span);
            }
        }
        seal_frame(REQ_MAGIC, VERSION, &enc.into_bytes())
    }

    /// Opens and validates a request frame.
    pub fn decode(bytes: &[u8]) -> Result<RangeRequest, CodecError> {
        let payload = open(REQ_MAGIC, bytes)?;
        let mut dec = Decoder::new(payload);
        let req = RangeRequest {
            graph: dec.str()?,
            method: dec.str()?,
            trials: dec.u64()?,
            prep: dec.u64()?,
            seed: dec.u64()?,
            threads: dec.u64()?,
            start: dec.u64()?,
            end: dec.u64()?,
            candidates: match dec.u8()? {
                0 => None,
                1 => Some(CandidateSet::decode(&mut dec)?),
                other => {
                    return Err(CodecError::Invalid(format!(
                        "candidates flag must be 0 or 1, got {other}"
                    )))
                }
            },
            trace: match dec.u8()? {
                0 => None,
                1 => Some(TraceContext {
                    trace_id: dec.str()?,
                    parent_span: dec.u64()?,
                }),
                other => {
                    return Err(CodecError::Invalid(format!(
                        "trace flag must be 0 or 1, got {other}"
                    )))
                }
            },
        };
        if dec.remaining() != 0 {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after range request",
                dec.remaining()
            )));
        }
        if req.start >= req.end {
            return Err(CodecError::Invalid(format!(
                "empty trial range {}..{}",
                req.start, req.end
            )));
        }
        Ok(req)
    }
}

/// Seals a worker's partial state into a response frame. The payload
/// starts with exactly the checkpoint encoding of [`PartialState`],
/// then the worker's phase profile for the range (name, seconds-as-bits,
/// items, calls per phase) so the coordinator can stitch a cross-node
/// timeline.
pub(crate) fn encode_response(state: &PartialState, profile: Option<&[obs::PhaseStat]>) -> Vec<u8> {
    let mut enc = Encoder::new();
    state.encode(&mut enc);
    match profile {
        None => enc.u8(0),
        Some(phases) => {
            enc.u8(1);
            enc.u32(phases.len() as u32);
            for p in phases {
                enc.str(&p.name);
                enc.u64(p.secs.to_bits());
                enc.u64(p.items);
                enc.u64(p.calls);
            }
        }
    }
    seal_frame(RESP_MAGIC, VERSION, &enc.into_bytes())
}

/// Opens a response frame back into the worker's partial state and its
/// phase profile (empty when the worker's request was untraced).
pub(crate) fn decode_response(
    bytes: &[u8],
) -> Result<(PartialState, Vec<obs::PhaseStat>), CodecError> {
    let payload = open(RESP_MAGIC, bytes)?;
    let mut dec = Decoder::new(payload);
    let state = PartialState::decode(&mut dec)?;
    let mut phases = Vec::new();
    match dec.u8()? {
        0 => {}
        1 => {
            for _ in 0..dec.u32()? {
                phases.push(obs::PhaseStat {
                    name: dec.str()?,
                    secs: f64::from_bits(dec.u64()?),
                    items: dec.u64()?,
                    calls: dec.u64()?,
                });
            }
        }
        other => {
            return Err(CodecError::Invalid(format!(
                "profile flag must be 0 or 1, got {other}"
            )))
        }
    }
    if dec.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after range response",
            dec.remaining()
        )));
    }
    Ok((state, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
    use mpmb_core::engine::{Cancel, Partial};
    use mpmb_core::{Executor, OlsConfig, OsConfig, OsTrials, PrepareTrials, Tally};

    fn request() -> RangeRequest {
        RangeRequest {
            graph: "g".to_string(),
            method: "os".to_string(),
            trials: 10_000,
            prep: 100,
            seed: 0x5EED,
            threads: 2,
            start: 2_500,
            end: 5_000,
            candidates: None,
            trace: None,
        }
    }

    fn graph() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.build().unwrap()
    }

    fn candidates(g: &UncertainBipartiteGraph) -> CandidateSet {
        let cfg = OlsConfig {
            prep_trials: 50,
            seed: 7,
            ..Default::default()
        };
        let engine = PrepareTrials::new(g, &cfg);
        let partial = Executor::new(1).run(&engine, 50, &Cancel::never());
        engine.finalize(partial.acc)
    }

    /// `range` of a 100-trial OS space, as a worker would return it.
    fn os_piece(g: &UncertainBipartiteGraph, range: std::ops::Range<u64>) -> Partial<Tally> {
        let engine = OsTrials::new(
            g,
            &OsConfig {
                trials: 100,
                seed: 3,
                ..Default::default()
            },
        );
        let mut partial = Partial::empty(Tally::new(), 100);
        Executor::new(1).resume_within(&engine, &mut partial, range, &Cancel::never());
        partial
    }

    fn assert_same(a: &RangeRequest, b: &RangeRequest) {
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.method, b.method);
        assert_eq!(
            (a.trials, a.prep, a.seed, a.threads, a.start, a.end),
            (b.trials, b.prep, b.seed, b.threads, b.start, b.end)
        );
        match (&a.candidates, &b.candidates) {
            (None, None) => {}
            (Some(ca), Some(cb)) => {
                assert_eq!(ca.len(), cb.len());
                for i in 0..ca.len() {
                    assert_eq!(ca.get(i).butterfly, cb.get(i).butterfly);
                    assert_eq!(ca.get(i).weight, cb.get(i).weight);
                }
            }
            _ => panic!("candidates presence mismatch"),
        }
    }

    #[test]
    fn request_round_trips_with_and_without_candidates() {
        let plain = request();
        assert_same(&RangeRequest::decode(&plain.encode()).unwrap(), &plain);

        let g = graph();
        let with = RangeRequest {
            method: "ols".to_string(),
            candidates: Some(candidates(&g)),
            ..request()
        };
        assert_same(&RangeRequest::decode(&with.encode()).unwrap(), &with);
    }

    #[test]
    fn response_round_trips_partial_state() {
        let g = graph();
        let partial = os_piece(&g, 10..20);
        let counts: Vec<_> = partial.acc.counts().map(|(b, c)| (*b, *c)).collect();
        let frame = encode_response(&PartialState::Os(partial), None);
        let (state, profile) = decode_response(&frame).unwrap();
        assert!(profile.is_empty());
        match state {
            PartialState::Os(p) => {
                assert_eq!(p.trials_done(), 10);
                assert_eq!(p.trials_requested(), 100);
                let back: Vec<_> = p.acc.counts().map(|(b, c)| (*b, *c)).collect();
                assert_eq!(back, counts);
            }
            other => panic!("wrong variant: {}", other.kind()),
        }
    }

    #[test]
    fn trace_context_and_profile_round_trip() {
        let with_trace = RangeRequest {
            trace: Some(TraceContext {
                trace_id: "req-42".to_string(),
                parent_span: 0xABCD_1234,
            }),
            ..request()
        };
        let back = RangeRequest::decode(&with_trace.encode()).unwrap();
        assert_eq!(back.trace, with_trace.trace);

        let g = graph();
        let phases = vec![
            obs::PhaseStat {
                name: "os.sample".to_string(),
                secs: 0.125,
                items: 10,
                calls: 2,
            },
            obs::PhaseStat {
                name: "registry.materialize".to_string(),
                secs: 1e-6,
                items: 0,
                calls: 1,
            },
        ];
        let frame = encode_response(&PartialState::Os(os_piece(&g, 0..10)), Some(&phases));
        let (_, profile) = decode_response(&frame).unwrap();
        assert_eq!(profile, phases);
    }

    #[test]
    fn frames_of_any_other_version_are_rejected() {
        // The same v2 payload resealed under version 1 (and 3) is refused
        // in both directions.
        let v2 = request().encode();
        let payload = open(REQ_MAGIC, &v2).unwrap();
        for version in [1, 3] {
            let frame = seal_frame(REQ_MAGIC, version, payload);
            assert!(matches!(
                RangeRequest::decode(&frame),
                Err(CodecError::BadVersion(_))
            ));
        }
        let g = graph();
        let resp = encode_response(&PartialState::Os(os_piece(&g, 0..10)), None);
        let payload = open(RESP_MAGIC, &resp).unwrap();
        assert_eq!(
            decode_response(&seal_frame(RESP_MAGIC, 1, payload)).err(),
            Some(CodecError::BadVersion(1))
        );
    }

    #[test]
    fn corrupted_frames_are_errors_not_panics() {
        let frame = request().encode();
        // Truncation at every prefix length.
        for cut in 0..frame.len() {
            assert!(RangeRequest::decode(&frame[..cut]).is_err());
        }
        // A flipped payload byte fails the checksum.
        let mut flipped = frame.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(RangeRequest::decode(&flipped).is_err());
        // An empty range is rejected even when well-framed.
        let empty = RangeRequest {
            start: 5,
            end: 5,
            ..request()
        };
        assert!(matches!(
            RangeRequest::decode(&empty.encode()),
            Err(CodecError::Invalid(_))
        ));
    }
}

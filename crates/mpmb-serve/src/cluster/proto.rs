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

use crate::solve::{Method, PartialState};
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
    /// The method whose trials run; on the wire, its name.
    pub method: Method,
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
        enc.str(self.method.name());
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
            method: {
                let name = dec.str()?;
                Method::parse(&name)
                    .ok_or_else(|| CodecError::Invalid(format!("unknown method `{name}`")))?
            },
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
    use bigraph::codec::Encoder;
    use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
    use mpmb_core::engine::{Cancel, Partial};
    use mpmb_core::{Executor, OsConfig, OsTrials, PrepareTrials, Tally};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn request() -> RangeRequest {
        RangeRequest {
            graph: "g".to_string(),
            method: Method::Os,
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
        let engine = PrepareTrials::new(g, 7);
        let partial = Executor::new(1).run(&engine, 50, &Cancel::never());
        engine.finalize(partial.acc)
    }

    /// `range` of a 100-trial OS space, as a worker would return it.
    fn os_piece(g: &UncertainBipartiteGraph, range: std::ops::Range<u64>) -> Partial<Tally> {
        let engine = OsTrials::new(
            g,
            &OsConfig {
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
            method: Method::Ols,
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

    /// Largest single allocation the test binary has asked for, so the
    /// hostility suite can check that no hostile count drove a big one.
    static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

    struct TrackLargest;

    // SAFETY: every call forwards to `System` unchanged; the wrapper
    // only records the requested size.
    unsafe impl GlobalAlloc for TrackLargest {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            LARGEST_ALLOC.fetch_max(new_size, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: TrackLargest = TrackLargest;

    /// Far below what any hostile `u32::MAX` count would ask for.
    const LARGE_ALLOC: usize = 256 << 20;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A request using every optional field: candidates and trace.
    fn full_request() -> RangeRequest {
        RangeRequest {
            method: Method::OlsKl,
            candidates: Some(candidates(&graph())),
            trace: Some(TraceContext {
                trace_id: "req-42".to_string(),
                parent_span: 0xABCD_1234,
            }),
            ..request()
        }
    }

    /// A request payload laid out like [`RangeRequest::encode`], with a
    /// raw method and raw flag bytes; `tail` follows the candidates
    /// flag.
    fn raw_request(method: &[u8], start: u64, end: u64, flag: u8, tail: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.str("g");
        enc.bytes(method);
        for v in [10_000, 100, 0x5EED, 2, start, end] {
            enc.u64(v);
        }
        enc.u8(flag);
        let mut bytes = enc.into_bytes();
        bytes.extend_from_slice(tail);
        bytes
    }

    fn decode_request(payload: &[u8]) -> Result<RangeRequest, CodecError> {
        RangeRequest::decode(&seal_frame(REQ_MAGIC, VERSION, payload))
    }

    fn decode_reply(payload: &[u8]) -> Result<(PartialState, Vec<obs::PhaseStat>), CodecError> {
        decode_response(&seal_frame(RESP_MAGIC, VERSION, payload))
    }

    /// Typing `method` left the wire unchanged: these digests were taken
    /// at commit `1b67351`, when the field was the name string itself.
    #[test]
    fn request_frames_are_pinned() {
        let full = full_request().encode();
        assert_eq!((full.len(), fnv1a(&full)), (167, 0x32fe_9ffe_1fe6_06dc));
        let plain = request().encode();
        assert_eq!((plain.len(), fnv1a(&plain)), (89, 0x5222_7ffb_abf4_23ff));
        let raw = raw_request(b"os", 2_500, 5_000, 0, &[0]);
        assert_eq!(seal_frame(REQ_MAGIC, VERSION, &raw), plain);
    }

    /// Frames re-sealed around hostile payloads — any sender can compute
    /// the checksum — decode to errors: never a panic, never a large
    /// allocation.
    #[test]
    fn resealed_hostile_payloads_are_errors() {
        LARGEST_ALLOC.store(0, Ordering::Relaxed);
        let full = full_request().encode();
        let request_payload = open(REQ_MAGIC, &full).unwrap().to_vec();
        let phases = [obs::PhaseStat {
            name: "os.sample".to_string(),
            secs: 0.5,
            items: 10,
            calls: 1,
        }];
        let reply = encode_response(&PartialState::Os(os_piece(&graph(), 0..10)), Some(&phases));
        let reply_payload = open(RESP_MAGIC, &reply).unwrap().to_vec();

        // Every strict prefix.
        for cut in 0..request_payload.len() {
            assert!(
                decode_request(&request_payload[..cut]).is_err(),
                "cut {cut}"
            );
        }
        for cut in 0..reply_payload.len() {
            assert!(decode_reply(&reply_payload[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        for (payload, reply) in [(&request_payload, false), (&reply_payload, true)] {
            let mut long = payload.clone();
            long.push(0);
            if reply {
                assert!(decode_reply(&long).is_err());
            } else {
                assert!(decode_request(&long).is_err());
            }
        }
        // Every single-bit flip. A flip inside a plain field (a seed, a
        // weight) is a different valid request, so the property is
        // weaker than `Err`: no panic, and anything accepted without a
        // candidate set (which decoding re-sorts) re-encodes to exactly
        // the frame that was read.
        for payload in [
            &request_payload,
            &open(REQ_MAGIC, &request().encode()).unwrap().to_vec(),
        ] {
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(req) = decode_request(&flipped) {
                    if req.candidates.is_none() {
                        assert_eq!(req.encode(), seal_frame(REQ_MAGIC, VERSION, &flipped));
                    }
                }
            }
        }
        for bit in 0..reply_payload.len() * 8 {
            let mut flipped = reply_payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_reply(&flipped);
        }
        // Methods outside the table, and names that are not UTF-8.
        for method in [&b"nope"[..], b"exact", b"OS", b"", &[0xff, 0xfe]] {
            assert!(matches!(
                decode_request(&raw_request(method, 0, 10, 0, &[0])),
                Err(CodecError::Invalid(_))
            ));
        }
        // Flag bytes other than 0 and 1, for candidates and for trace.
        for flag in 2..=u8::MAX {
            assert!(decode_request(&raw_request(b"os", 0, 10, flag, &[0])).is_err());
            assert!(decode_request(&raw_request(b"os", 0, 10, 0, &[flag])).is_err());
            let mut bad_profile = reply_payload.clone();
            let flag_at = bad_profile.len() - 1 - (4 + 4 + 9 + 24);
            assert_eq!(bad_profile[flag_at], 1, "profile flag position");
            bad_profile[flag_at] = flag;
            assert!(decode_reply(&bad_profile).is_err());
        }
        // Empty and inverted ranges.
        for (start, end) in [(5, 5), (6, 5), (u64::MAX, 0)] {
            assert!(decode_request(&raw_request(b"os", start, end, 0, &[0])).is_err());
        }
        // Counts with nothing behind them: candidates (a `u64` count),
        // done ranges and tally entries (`u64`), phases (`u32`).
        for count in [u32::MAX as u64, u64::MAX] {
            let tail = count.to_le_bytes();
            assert!(decode_request(&raw_request(b"ols", 0, 10, 1, &tail)).is_err());
            // An `os` partial's done ranges, then its tally's entries.
            for (ranges, entries) in [(count, 0), (0, count)] {
                let mut enc = Encoder::new();
                enc.u8(0);
                enc.u64(100);
                enc.u64(ranges);
                enc.u64(entries);
                assert!(decode_reply(&enc.into_bytes()).is_err());
            }
        }
        let mut enc = Encoder::new();
        PartialState::Os(os_piece(&graph(), 0..10)).encode(&mut enc);
        enc.u8(1);
        enc.u32(u32::MAX);
        assert!(decode_reply(&enc.into_bytes()).is_err());

        let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
        assert!(
            largest < LARGE_ALLOC,
            "a hostile frame allocated {largest} bytes"
        );
    }
}

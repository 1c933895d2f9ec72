//! Binary encode/decode for resumable solver state.
//!
//! The serving layer checkpoints in-flight solves to disk so a crashed
//! process can resume them with zero statistical cost: every sampler
//! derives trial `t`'s randomness from `(seed, t)` alone, so a partial
//! restored from bytes and driven to completion is **bit-identical** to
//! an uninterrupted run. This module gives each accumulator type a
//! canonical byte encoding on top of [`bigraph::codec`]'s primitives.
//!
//! # Canonical form
//!
//! Hash-map accumulators ([`Tally`], count histograms) are encoded in
//! sorted key order, so the same logical state always produces the same
//! bytes regardless of the map's iteration order. Decoding validates
//! structural invariants (canonical butterflies, sane trial ranges) and
//! returns [`CodecError::Invalid`] instead of panicking — checkpoint
//! bytes come from disk and are untrusted.

use crate::butterfly::Butterfly;
use crate::candidates::{Candidate, CandidateSet};
use crate::distribution::Tally;
use crate::engine::Partial;
use crate::estimators::karp_luby::KlCandidate;
use bigraph::codec::{CodecError, Decoder, Encoder};
use bigraph::fx::FxHashMap;
use bigraph::{EdgeId, Left, Right};

/// A type with a canonical, versioned binary form. Implementations
/// must round-trip exactly: `decode(encode(x)) == x` up to the
/// finalized output (for maps, equal contents).
pub trait Checkpoint: Sized {
    /// Appends this value's canonical encoding.
    fn encode(&self, enc: &mut Encoder);
    /// Decodes one value, validating invariants.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

impl Checkpoint for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.u32()
    }
}

impl Checkpoint for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.u64()
    }
}

impl<A: Checkpoint, B: Checkpoint> Checkpoint for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<T: Checkpoint> Checkpoint for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        // Every element costs at least one byte, which is enough to
        // reject lengths forged far beyond the remaining input.
        let len = dec.len_capped(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl Checkpoint for Butterfly {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(self.u1.0);
        enc.u32(self.u2.0);
        enc.u32(self.v1.0);
        enc.u32(self.v2.0);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (u1, u2, v1, v2) = (dec.u32()?, dec.u32()?, dec.u32()?, dec.u32()?);
        if u1 == u2 || v1 == v2 {
            return Err(CodecError::Invalid(format!(
                "degenerate butterfly ({u1},{u2}|{v1},{v2})"
            )));
        }
        Ok(Butterfly::new(Left(u1), Left(u2), Right(v1), Right(v2)))
    }
}

impl Checkpoint for Tally {
    fn encode(&self, enc: &mut Encoder) {
        // Sorted entries: one logical tally, one byte sequence.
        let mut entries: Vec<(Butterfly, u64)> =
            self.counts.iter().map(|(b, &c)| (*b, c)).collect();
        entries.sort_unstable_by_key(|e| e.0);
        enc.u64(entries.len() as u64);
        for (b, c) in entries {
            b.encode(enc);
            enc.u64(c);
        }
        enc.u64(self.trials);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.len_capped(24)?;
        let mut counts = FxHashMap::default();
        counts.reserve(len);
        for _ in 0..len {
            let b = Butterfly::decode(dec)?;
            let c = dec.u64()?;
            if counts.insert(b, c).is_some() {
                return Err(CodecError::Invalid(format!("duplicate tally entry {b}")));
            }
        }
        let trials = dec.u64()?;
        Ok(Tally { counts, trials })
    }
}

impl Checkpoint for FxHashMap<u64, u64> {
    fn encode(&self, enc: &mut Encoder) {
        let mut entries: Vec<(u64, u64)> = self.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        enc.u64(entries.len() as u64);
        for (k, v) in entries {
            enc.u64(k);
            enc.u64(v);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.len_capped(16)?;
        let mut out = FxHashMap::default();
        out.reserve(len);
        for _ in 0..len {
            let k = dec.u64()?;
            let v = dec.u64()?;
            if out.insert(k, v).is_some() {
                return Err(CodecError::Invalid(format!("duplicate histogram key {k}")));
            }
        }
        Ok(out)
    }
}

impl Checkpoint for KlCandidate {
    fn encode(&self, enc: &mut Encoder) {
        enc.f64(self.prob);
        enc.u64(self.trials);
        enc.f64(self.s_value);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(KlCandidate {
            prob: dec.f64()?,
            trials: dec.u64()?,
            s_value: dec.f64()?,
        })
    }
}

impl Checkpoint for Candidate {
    fn encode(&self, enc: &mut Encoder) {
        self.butterfly.encode(enc);
        enc.f64(self.weight);
        for e in self.edges {
            enc.u32(e.0);
        }
        enc.f64(self.existence_prob);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let butterfly = Butterfly::decode(dec)?;
        let weight = dec.f64()?;
        let mut edges = [EdgeId(0); 4];
        for e in &mut edges {
            *e = EdgeId(dec.u32()?);
        }
        let existence_prob = dec.f64()?;
        if !(0.0..=1.0).contains(&existence_prob) {
            return Err(CodecError::Invalid(format!(
                "existence probability {existence_prob} out of [0,1]"
            )));
        }
        Ok(Candidate {
            butterfly,
            weight,
            edges,
            existence_prob,
        })
    }
}

impl Checkpoint for CandidateSet {
    /// Encodes the full precomputed set — weights, edge ids, existence
    /// probabilities — so restoring never needs the graph. Decoding
    /// rebuilds the canonical order and `L(i)` table from scratch; the
    /// sort key is a total order over candidate contents, so the
    /// restored indices match the originals exactly.
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.len() as u64);
        for c in self.iter() {
            c.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = dec.len_capped(48)?;
        let mut candidates = Vec::with_capacity(len);
        let mut seen = bigraph::fx::FxHashSet::default();
        for _ in 0..len {
            let c = Candidate::decode(dec)?;
            if !seen.insert(c.butterfly) {
                return Err(CodecError::Invalid(format!(
                    "duplicate candidate {}",
                    c.butterfly
                )));
            }
            candidates.push(c);
        }
        Ok(CandidateSet::from_unique_candidates(candidates))
    }
}

impl<A: Checkpoint> Checkpoint for Partial<A> {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.trials_requested());
        enc.u64(self.done_ranges().len() as u64);
        for r in self.done_ranges() {
            enc.u64(r.start);
            enc.u64(r.end);
        }
        self.acc.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let trials_requested = dec.u64()?;
        let ranges = dec.len_capped(16)?;
        let mut done = Vec::with_capacity(ranges);
        for _ in 0..ranges {
            let start = dec.u64()?;
            let end = dec.u64()?;
            if start >= end || end > trials_requested {
                return Err(CodecError::Invalid(format!(
                    "trial range {start}..{end} out of 0..{trials_requested}"
                )));
            }
            done.push(start..end);
        }
        let acc = A::decode(dec)?;
        let mut partial = Partial::empty(acc, trials_requested);
        for r in done {
            partial.mark_done(r);
        }
        Ok(partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Cancel, Executor};
    use crate::{McVpTrials, OlsConfig, PrepareTrials};
    use bigraph::{GraphBuilder, UncertainBipartiteGraph};

    fn fig1() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    fn bf(u1: u32, u2: u32, v1: u32, v2: u32) -> Butterfly {
        Butterfly::new(Left(u1), Left(u2), Right(v1), Right(v2))
    }

    fn encode_to_bytes<T: Checkpoint>(value: &T) -> Vec<u8> {
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        enc.into_bytes()
    }

    fn decode_bytes<T: Checkpoint>(bytes: &[u8]) -> Result<T, CodecError> {
        T::decode(&mut Decoder::new(bytes))
    }

    fn round_trip<T: Checkpoint>(value: &T) -> T {
        let bytes = encode_to_bytes(value);
        let mut dec = Decoder::new(&bytes);
        let back = T::decode(&mut dec).expect("round trip");
        assert_eq!(dec.remaining(), 0, "round trip left bytes unread");
        back
    }

    #[test]
    fn tally_round_trips_and_is_canonical() {
        let mut t = Tally::new();
        t.record_trial([&bf(0, 1, 0, 1)]);
        t.record_trial([&bf(0, 1, 0, 1), &bf(0, 1, 1, 2)]);
        t.record_trial([]);
        let back = round_trip(&t);
        assert_eq!(back.trials(), 3);
        assert_eq!(back.count(&bf(0, 1, 0, 1)), 2);
        assert_eq!(back.count(&bf(0, 1, 1, 2)), 1);
        // Canonical: two tallies built in different orders encode equal.
        let mut t2 = Tally::new();
        t2.record_trial([&bf(0, 1, 1, 2), &bf(0, 1, 0, 1)]);
        t2.record_trial([&bf(0, 1, 0, 1)]);
        t2.record_trial([]);
        assert_eq!(encode_to_bytes(&t), encode_to_bytes(&t2));
    }

    #[test]
    fn degenerate_butterfly_is_invalid_not_a_panic() {
        let mut enc = Encoder::new();
        enc.u32(3);
        enc.u32(3);
        enc.u32(0);
        enc.u32(1);
        assert!(matches!(
            decode_bytes::<Butterfly>(&enc.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn candidate_set_restores_identical_order_without_the_graph() {
        let g = fig1();
        let all = crate::butterfly::enumerate_backbone_butterflies(&g);
        let cs = CandidateSet::from_butterflies(&g, all);
        let back = round_trip(&cs);
        assert_eq!(back.len(), cs.len());
        for i in 0..cs.len() {
            let (a, b) = (cs.get(i), back.get(i));
            assert_eq!(a.butterfly, b.butterfly);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            assert_eq!(a.edges, b.edges);
            assert_eq!(a.existence_prob.to_bits(), b.existence_prob.to_bits());
            assert_eq!(cs.larger_count(i), back.larger_count(i));
        }
    }

    #[test]
    fn partial_round_trip_preserves_ranges() {
        let mut p: Partial<u64> = Partial::empty(41, 1_000);
        p.mark_done(0..64);
        p.mark_done(500..600);
        let back = round_trip(&p);
        assert_eq!(back.acc, 41);
        assert_eq!(back.trials_requested(), 1_000);
        assert_eq!(back.done_ranges(), p.done_ranges());
        assert_eq!(back.missing(), p.missing());
    }

    #[test]
    fn partial_rejects_out_of_bound_ranges() {
        let mut enc = Encoder::new();
        enc.u64(100); // trials_requested
        enc.u64(1); // one range
        enc.u64(50);
        enc.u64(150); // end > requested
        enc.u64(0); // acc
        assert!(matches!(
            decode_bytes::<Partial<u64>>(&enc.into_bytes()),
            Err(CodecError::Invalid(_))
        ));
    }

    /// The property the durable-checkpoint design rests on: interrupt a
    /// real sampler, serialize its partial, decode it, resume — and get
    /// the exact bytes an uninterrupted run produces.
    #[test]
    fn resumed_after_round_trip_is_bit_identical() {
        let g = fig1();
        let engine = McVpTrials::new(&g, 17);
        let exec = Executor::new(2);
        let full = exec.run(&engine, 2_000, &Cancel::never());

        let mut partial = exec.run(&engine, 2_000, &Cancel::after_trials(300));
        assert!(!partial.completed());
        let mut restored: Partial<Tally> = round_trip(&partial);
        exec.resume(&engine, &mut restored, &Cancel::never());
        exec.resume(&engine, &mut partial, &Cancel::never());
        assert!(restored.completed());
        assert_eq!(
            restored
                .acc
                .into_distribution()
                .max_abs_diff(&full.acc.clone().into_distribution()),
            0.0
        );
        assert_eq!(
            partial
                .acc
                .into_distribution()
                .max_abs_diff(&full.acc.into_distribution()),
            0.0
        );
    }

    #[test]
    fn prepare_partial_round_trips() {
        let g = fig1();
        let cfg = OlsConfig {
            seed: 5,
            ..Default::default()
        };
        let engine = PrepareTrials::new(&g, &cfg);
        let exec = Executor::new(1).check_every(16);
        let p = exec.run(&engine, 200, &Cancel::after_trials(64));
        assert!(!p.completed());
        let back: Partial<Vec<Butterfly>> = round_trip(&p);
        assert_eq!(back.acc, p.acc);
        assert_eq!(back.done_ranges(), p.done_ranges());
    }

    #[test]
    fn count_histogram_round_trips_canonically() {
        let mut h1 = FxHashMap::default();
        let mut h2 = FxHashMap::default();
        for (k, v) in [(9u64, 2u64), (1, 5), (4, 1)] {
            h1.insert(k, v);
        }
        for (k, v) in [(4u64, 1u64), (9, 2), (1, 5)] {
            h2.insert(k, v);
        }
        assert_eq!(encode_to_bytes(&h1), encode_to_bytes(&h2));
        assert_eq!(round_trip(&h1), h1);
    }

    #[test]
    fn kl_rows_round_trip() {
        let rows: Vec<(u32, KlCandidate)> = vec![
            (
                0,
                KlCandidate {
                    prob: 0.25,
                    trials: 400,
                    s_value: 1.5,
                },
            ),
            (
                3,
                KlCandidate {
                    prob: 0.5,
                    trials: 0,
                    s_value: 0.0,
                },
            ),
        ];
        let back = round_trip(&rows);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, 0);
        assert_eq!(back[0].1.prob.to_bits(), rows[0].1.prob.to_bits());
        assert_eq!(back[1].1.trials, 0);
    }
}

//! Offline stand-in for `rand_chacha`: a genuine ChaCha8 keystream RNG.
//!
//! This is the full ChaCha quarter-round construction (Bernstein 2008)
//! with 8 double-rounds, keyed by the 32-byte seed, zero nonce, 64-bit
//! block counter. The statistical quality is the real cipher's; only the
//! exact word-consumption order is allowed to differ from upstream
//! `rand_chacha` (nothing in this workspace depends on upstream streams).
//!
//! # Buffering
//!
//! Keystream words are served from a buffer of up to four blocks (64
//! words). A stream's **first** refill computes one block with the
//! scalar rounds: most sampling trials seed a fresh stream and draw only
//! a few words from it (a fast-tier trial draws one or two), and four
//! blocks up front would cost them more than they use. Every later refill
//! on `x86_64` computes four consecutive blocks at once with SSE2 (one
//! block per 32-bit lane); other targets keep refilling one scalar block
//! at a time. Either way the words come out in block-counter order, so
//! the stream is the same word for word on every target and at every
//! refill size — the known-answer words in the workspace's golden test
//! and the keystream tests below pin it.

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;
const WORDS_PER_BLOCK: usize = 16;
/// Blocks one wide refill produces.
const LANES: usize = 4;
const BUF_WORDS: usize = WORDS_PER_BLOCK * LANES;

/// ChaCha with 8 rounds, seeded with 32 bytes.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Key words 4..12 and counter/nonce words 12..16 of the input block;
    /// the counter names the next block to compute.
    state: [u32; WORDS_PER_BLOCK],
    /// Keystream of the current block(s); `buf[..len]` is valid.
    buf: [u32; BUF_WORDS],
    /// Next unconsumed index into `buf` (`len` ⇒ exhausted).
    cursor: usize,
    /// Words the last refill produced (0 before the first refill).
    len: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; WORDS_PER_BLOCK], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The keystream block for input `state`, computed one word at a time.
fn scalar_block(state: &[u32; WORDS_PER_BLOCK]) -> [u32; WORDS_PER_BLOCK] {
    let mut working = *state;
    for _ in 0..ROUNDS / 2 {
        // Column round.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal round.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    for (w, s) in working.iter_mut().zip(state) {
        *w = w.wrapping_add(*s);
    }
    working
}

/// The 64-bit little-endian block counter in words 12/13.
#[inline(always)]
fn counter(state: &[u32; WORDS_PER_BLOCK]) -> u64 {
    state[12] as u64 | (state[13] as u64) << 32
}

#[inline(always)]
fn set_counter(state: &mut [u32; WORDS_PER_BLOCK], c: u64) {
    state[12] = c as u32;
    state[13] = (c >> 32) as u32;
}

/// Four consecutive blocks with SSE2, one block per 32-bit lane.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{counter, BUF_WORDS, ROUNDS, WORDS_PER_BLOCK};
    use std::arch::x86_64::*;

    #[inline(always)]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x)) }
    }

    #[inline(always)]
    fn quarter_round(v: &mut [__m128i; WORDS_PER_BLOCK], a: usize, b: usize, c: usize, d: usize) {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe {
            v[a] = _mm_add_epi32(v[a], v[b]);
            v[d] = rotl::<16, 16>(_mm_xor_si128(v[d], v[a]));
            v[c] = _mm_add_epi32(v[c], v[d]);
            v[b] = rotl::<12, 20>(_mm_xor_si128(v[b], v[c]));
            v[a] = _mm_add_epi32(v[a], v[b]);
            v[d] = rotl::<8, 24>(_mm_xor_si128(v[d], v[a]));
            v[c] = _mm_add_epi32(v[c], v[d]);
            v[b] = rotl::<7, 25>(_mm_xor_si128(v[b], v[c]));
        }
    }

    /// Writes blocks `counter(state) .. counter(state) + 4` to `out`,
    /// block `i` at `out[16 i .. 16 i + 16]`.
    pub(super) fn blocks(state: &[u32; WORDS_PER_BLOCK], out: &mut [u32; BUF_WORDS]) {
        let c = counter(state);
        let lane = |i: u64| c.wrapping_add(i);
        // SAFETY: SSE2 is part of the x86_64 baseline; every store writes
        // 4 words at an offset `16 i + 4 g ≤ 60` of the 64-word `out`.
        unsafe {
            let mut input = [_mm_setzero_si128(); WORDS_PER_BLOCK];
            for (v, &s) in input.iter_mut().zip(state) {
                *v = _mm_set1_epi32(s as i32);
            }
            input[12] = _mm_set_epi32(
                lane(3) as i32,
                lane(2) as i32,
                lane(1) as i32,
                lane(0) as i32,
            );
            input[13] = _mm_set_epi32(
                (lane(3) >> 32) as i32,
                (lane(2) >> 32) as i32,
                (lane(1) >> 32) as i32,
                (lane(0) >> 32) as i32,
            );
            let mut v = input;
            for _ in 0..ROUNDS / 2 {
                quarter_round(&mut v, 0, 4, 8, 12);
                quarter_round(&mut v, 1, 5, 9, 13);
                quarter_round(&mut v, 2, 6, 10, 14);
                quarter_round(&mut v, 3, 7, 11, 15);
                quarter_round(&mut v, 0, 5, 10, 15);
                quarter_round(&mut v, 1, 6, 11, 12);
                quarter_round(&mut v, 2, 7, 8, 13);
                quarter_round(&mut v, 3, 4, 9, 14);
            }
            for (x, i) in v.iter_mut().zip(&input) {
                *x = _mm_add_epi32(*x, *i);
            }
            // Transpose each group of four words from word-major lanes
            // to block-major rows.
            let p = out.as_mut_ptr();
            for g in 0..WORDS_PER_BLOCK / 4 {
                let [a, b, c, d] = [v[4 * g], v[4 * g + 1], v[4 * g + 2], v[4 * g + 3]];
                let ab_lo = _mm_unpacklo_epi32(a, b);
                let cd_lo = _mm_unpacklo_epi32(c, d);
                let ab_hi = _mm_unpackhi_epi32(a, b);
                let cd_hi = _mm_unpackhi_epi32(c, d);
                let rows = [
                    _mm_unpacklo_epi64(ab_lo, cd_lo),
                    _mm_unpackhi_epi64(ab_lo, cd_lo),
                    _mm_unpacklo_epi64(ab_hi, cd_hi),
                    _mm_unpackhi_epi64(ab_hi, cd_hi),
                ];
                for (i, row) in rows.into_iter().enumerate() {
                    _mm_storeu_si128(p.add(WORDS_PER_BLOCK * i + 4 * g) as *mut __m128i, row);
                }
            }
        }
    }
}

impl ChaCha8Rng {
    #[cold]
    fn refill(&mut self) {
        let c = counter(&self.state);
        #[cfg(target_arch = "x86_64")]
        if c != 0 {
            wide::blocks(&self.state, &mut self.buf);
            set_counter(&mut self.state, c.wrapping_add(LANES as u64));
            self.len = BUF_WORDS;
            self.cursor = 0;
            return;
        }
        let block = scalar_block(&self.state);
        self.buf[..WORDS_PER_BLOCK].copy_from_slice(&block);
        set_counter(&mut self.state, c.wrapping_add(1));
        self.len = WORDS_PER_BLOCK;
        self.cursor = 0;
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.cursor >= self.len {
            self.refill();
        }
        let w = self.buf[self.cursor];
        self.cursor += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.cursor;
        if i + 1 < self.len {
            self.cursor = i + 2;
            return self.buf[i] as u64 | (self.buf[i + 1] as u64) << 32;
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | hi << 32
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut state = [0u32; WORDS_PER_BLOCK];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646E;
        state[2] = 0x7962_2D32;
        state[3] = 0x6B20_6574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap());
        }
        // Words 12..16 (counter + nonce) start at zero.
        ChaCha8Rng {
            state,
            buf: [0; BUF_WORDS],
            cursor: 0,
            len: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// Reference keystream: word `i` of the stream starting at `rng`'s
    /// next block, one scalar block per counter value.
    fn reference_words(rng: &ChaCha8Rng, n: usize) -> Vec<u32> {
        let mut state = rng.state;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.extend_from_slice(&scalar_block(&state));
            let next = counter(&state).wrapping_add(1);
            set_counter(&mut state, next);
        }
        out.truncate(n);
        out
    }

    /// Draws `ops` from `rng` (`true` = `next_u64`, `false` = `next_u32`)
    /// and returns the words consumed, low word first.
    fn draw(rng: &mut ChaCha8Rng, ops: &[bool]) -> Vec<u32> {
        let mut words = Vec::new();
        for &wide in ops {
            if wide {
                let x = rng.next_u64();
                words.extend([x as u32, (x >> 32) as u32]);
            } else {
                words.push(rng.next_u32());
            }
        }
        words
    }

    proptest! {
        #[test]
        fn keystream_matches_scalar_reference_across_blocks_and_lanes(
            seed in any::<u64>(),
            ops in proptest::collection::vec(any::<bool>(), 0..400),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let want = reference_words(&rng, 2 * ops.len());
            let got = draw(&mut rng, &ops);
            prop_assert_eq!(&got[..], &want[..got.len()]);
        }

        #[test]
        fn wide_refill_carries_the_block_counter_like_the_scalar_one(
            seed in any::<u64>(),
            start in 0u64..8,
            high in any::<bool>(),
            ops in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            // Start a few blocks below a carry into word 13 (or below the
            // 64-bit wrap), so the four lanes of one refill straddle it.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let base = if high { u64::MAX } else { u32::MAX as u64 };
            set_counter(&mut rng.state, base - start);
            let want = reference_words(&rng, 2 * ops.len());
            let got = draw(&mut rng, &ops);
            prop_assert_eq!(&got[..], &want[..got.len()]);
        }
    }

    #[test]
    fn first_refill_is_one_block_later_ones_are_wide() {
        let mut r = ChaCha8Rng::seed_from_u64(3);
        r.next_u32();
        assert_eq!(r.len, WORDS_PER_BLOCK);
        for _ in 0..WORDS_PER_BLOCK {
            r.next_u32();
        }
        let wide = if cfg!(target_arch = "x86_64") {
            BUF_WORDS
        } else {
            WORDS_PER_BLOCK
        };
        assert_eq!(r.len, wide);
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a: Vec<u64> = {
            let mut r = ChaCha8Rng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = ChaCha8Rng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = ChaCha8Rng::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn keystream_crosses_block_boundaries() {
        let mut r = ChaCha8Rng::seed_from_u64(7);
        // 40 u32 words = 2.5 blocks; all draws must differ somewhere.
        let words: Vec<u32> = (0..40).map(|_| r.next_u32()).collect();
        let distinct: std::collections::HashSet<_> = words.iter().collect();
        assert!(distinct.len() > 35, "keystream suspiciously repetitive");
    }

    #[test]
    fn unit_floats_are_roughly_uniform() {
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn matches_chacha_structure_not_constant() {
        // The first block of seed 0 must not be all-zero (the constants
        // guarantee diffusion even for a zero key).
        let mut r = ChaCha8Rng::from_seed([0; 32]);
        assert_ne!(r.next_u64(), 0);
    }
}

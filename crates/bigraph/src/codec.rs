//! Versioned, checksummed binary codec helpers.
//!
//! The workspace's binary conventions are an 8-byte magic,
//! little-endian fixed-width integers, and length-prefixed variable
//! records. This module factors those conventions into reusable
//! primitives — an append-only
//! [`Encoder`], a bounds-checked [`Decoder`], and a *frame* wrapper
//! (`magic | version | payload | fnv1a64 checksum`) — so durable state
//! files (solver checkpoints, manifests) get corruption detection and
//! versioning without inventing a new format each time.
//!
//! Everything is deterministic: encoding the same value twice yields
//! the same bytes, so frames can be compared and checksummed stably.

/// Errors a decode can produce. Always an error value, never a panic:
/// decoders are fed untrusted bytes from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the value needs.
    Truncated,
    /// The frame does not start with the expected magic.
    BadMagic,
    /// The frame checksum does not match its payload.
    BadChecksum,
    /// The frame version is newer than this build understands.
    BadVersion(u32),
    /// A decoded value violates an invariant (context in the message).
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Invalid(msg) => write!(f, "invalid value: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash, the frame checksum. Not cryptographic — it
/// detects truncation and bit rot, which is all a local checkpoint
/// file needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only byte sink.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bits — exact,
    /// bit-preserving round trips (the determinism contract cares about
    /// bits, not decimal renderings).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("byte string over 4 GiB"));
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked reader over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CodecError::Invalid("non-UTF-8 string".to_string()))
    }

    /// Reads a length prefix that is about to drive a `Vec` allocation,
    /// rejecting lengths that cannot possibly fit in the remaining
    /// bytes (`min_record_bytes` per element) — a corrupted length
    /// field must not cause a giant allocation.
    pub fn len_capped(&mut self, min_record_bytes: usize) -> Result<usize, CodecError> {
        let len = self.u64()? as usize;
        if len.saturating_mul(min_record_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(len)
    }
}

/// Wraps `payload` in a checksummed frame:
/// `magic(8) | version(u32 LE) | len(u64 LE) | payload | fnv1a64(all preceding)`.
pub fn seal_frame(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Opens a frame sealed by [`seal_frame`]: verifies magic, length, and
/// checksum, rejects versions above `max_version`, and returns
/// `(version, payload)`.
pub fn open_frame<'a>(
    magic: &[u8; 8],
    max_version: u32,
    bytes: &'a [u8],
) -> Result<(u32, &'a [u8]), CodecError> {
    if bytes.len() < 28 {
        return Err(CodecError::Truncated);
    }
    if &bytes[..8] != magic {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let Some(expected_total) = len.checked_add(28) else {
        return Err(CodecError::Truncated);
    };
    if bytes.len() != expected_total {
        return Err(CodecError::Truncated);
    }
    let (framed, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv1a64(framed) != stored {
        return Err(CodecError::BadChecksum);
    }
    if version > max_version {
        return Err(CodecError::BadVersion(version));
    }
    Ok((version, &framed[20..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTFRM1";

    #[test]
    fn primitive_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.str("héllo");
        e.bytes(b"");
        let buf = e.into_bytes();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.str().unwrap(), "héllo");
        assert_eq!(d.bytes().unwrap(), b"");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn decode_is_bounds_checked() {
        let mut d = Decoder::new(&[1, 2, 3]);
        assert_eq!(d.u64(), Err(CodecError::Truncated));
        // The failed read consumed nothing usable; smaller reads still work.
        let mut d = Decoder::new(&[5, 0, 0, 0]);
        assert_eq!(d.u32().unwrap(), 5);
        assert_eq!(d.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn huge_length_prefix_is_rejected_not_allocated() {
        let mut e = Encoder::new();
        e.u64(u64::MAX / 2);
        let buf = e.into_bytes();
        let mut d = Decoder::new(&buf);
        assert_eq!(d.len_capped(16), Err(CodecError::Truncated));
    }

    #[test]
    fn frame_round_trip() {
        let framed = seal_frame(MAGIC, 3, b"payload bytes");
        let (version, payload) = open_frame(MAGIC, 3, &framed).unwrap();
        assert_eq!(version, 3);
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn frame_rejects_corruption() {
        let good = seal_frame(MAGIC, 1, b"some payload");
        // Wrong magic.
        assert_eq!(open_frame(b"WRONGMAG", 1, &good), Err(CodecError::BadMagic));
        // Future version.
        assert_eq!(open_frame(MAGIC, 0, &good), Err(CodecError::BadVersion(1)));
        // Truncation, at every prefix length.
        for cut in 0..good.len() {
            assert!(open_frame(MAGIC, 1, &good[..cut]).is_err(), "cut {cut}");
        }
        // Single-bit flips anywhere in the frame.
        for byte in 8..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert!(open_frame(MAGIC, 1, &bad).is_err(), "flip at {byte}");
        }
        // Trailing garbage.
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(open_frame(MAGIC, 1, &padded), Err(CodecError::Truncated));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Canonical FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}

//! Out-of-core container format for [`UncertainBipartiteGraph`].
//!
//! `UBGCONT1` is a sectioned, versioned, checksummed extension of the
//! [`codec`](crate::codec) conventions (8-byte magic, little-endian
//! fixed-width integers, FNV-1a 64 checksums). Where the text edge
//! list requires a full [`GraphBuilder`](crate::GraphBuilder) rebuild
//! on load (duplicate detection, CSR counting sort, weight-descending
//! sort), a container stores the graph's *primary* arrays in their
//! exact in-memory byte layout: offsets and adjacency on both sides,
//! edge endpoints, weights, probabilities, and the §V-B
//! `edges_by_weight_desc` order. Materializing a container streams each
//! section into its array, checksumming and decoding a cache-sized
//! chunk at a time, plus one linear derivation — the order's gathered
//! endpoint, weight and fixed-point threshold arrays and the
//! degree-rank relabeling, computed in one pass by the same function the
//! builder uses, which then drops the by-id endpoint sections — not a
//! parse and no sort of the edges: the difference between milliseconds
//! and minutes at the paper's 39.5 M-edge Protein scale, and the
//! substrate the serving registry's lazy materialization and eviction
//! are built on.
//!
//! # File layout
//!
//! ```text
//! magic      "UBGCONT1"                                  8 bytes
//! version    u32 LE                                      4 bytes
//! n_sections u32 LE                                      4 bytes
//! entries    n × { id u32 | offset u64 | len u64 | section_checksum u64 }
//! header_sum fnv1a64 of all preceding header bytes       8 bytes
//! sections   raw little-endian array images at the recorded offsets
//! ```
//!
//! Every section carries its own checksum — [`section_checksum`], an
//! id-seeded word-stride FNV-1a chosen so verifying tens of megabytes
//! costs milliseconds, not tens of them — and the header checksum
//! covers the section table (transitively, via the per-section sums,
//! the whole file) — `header_sum` doubles as the container's *content
//! checksum*, the cheap identity used by checkpoint manifests and
//! cluster registration to prove two attachments see the same bytes.
//! Readers skip section ids they do not recognize, so future versions
//! can append sections without breaking old binaries, and a version-1
//! file (which also stored the derived arrays, under ids now retired)
//! reads through the same path.
//!
//! # Determinism
//!
//! [`ContainerReader::materialize`] re-validates every structural
//! invariant of the primaries the solvers index by (CSR offset
//! monotonicity, adjacency sortedness and cross-consistency with the
//! endpoint arrays, the weight and probability domain, the strict
//! §V-B order) before it returns the graph: all but the order's
//! sortedness before deriving anything, which the derive needs, and
//! that one on the derived scan-order weights. A container that
//! materializes at all therefore yields a graph indistinguishable from
//! the builder's output, and a graph written by [`write_container`]
//! round-trips bit-identically — which is what lets a serving registry
//! drop and re-attach a graph between solves without perturbing a
//! single sampled bit.

use crate::builder::Primaries;
use crate::codec::{fnv1a64, CodecError};
use crate::graph::{Adj, UncertainBipartiteGraph};
use crate::types::{EdgeId, Left, Right};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a graph container file.
pub const CONTAINER_MAGIC: &[u8; 8] = b"UBGCONT1";

/// Newest container version this build writes and understands.
/// Version 1 also stored five derived arrays (section ids 10 and
/// 12–15); this reader skips them like any unknown id and derives them.
pub const CONTAINER_VERSION: u32 = 2;

/// Section table entry size in bytes: id + offset + len + checksum.
const ENTRY_BYTES: usize = 4 + 8 + 8 + 8;

/// Hard cap on the section count a reader will accept. Generous
/// forward-compatibility headroom (we write 10) while bounding the
/// header allocation a hostile count can force to under 2 MiB.
const MAX_SECTIONS: u32 = 1 << 16;

// Section ids. Raw array images unless noted.
const SEC_META: u32 = 1; // num_left, num_right, num_edges (3 × u64)
const SEC_LEFT_OFFSETS: u32 = 2; // u32 × (|L|+1)
const SEC_LEFT_ADJ: u32 = 3; // (nbr u32, edge u32) × |E|
const SEC_RIGHT_OFFSETS: u32 = 4; // u32 × (|R|+1)
const SEC_RIGHT_ADJ: u32 = 5; // (nbr u32, edge u32) × |E|
const SEC_EDGE_LEFT: u32 = 6; // u32 × |E|
const SEC_EDGE_RIGHT: u32 = 7; // u32 × |E|
const SEC_WEIGHTS: u32 = 8; // f64 bits × |E|
const SEC_PROBS: u32 = 9; // f64 bits × |E|
const SEC_DESC_ORDER: u32 = 11; // u32 × |E| (edge ids, weight-descending)

// Ids 10 and 12–15 held version 1's derived arrays (`accept`, the
// gathered `desc_weights`/`desc_accept`, `left_rank`/`left_by_rank`).
// They are retired: never reused, skipped when a v1 file is read.

/// The full set of sections a version-2 writer emits, in file order.
const WRITE_ORDER: [u32; 10] = [
    SEC_META,
    SEC_LEFT_OFFSETS,
    SEC_LEFT_ADJ,
    SEC_RIGHT_OFFSETS,
    SEC_RIGHT_ADJ,
    SEC_EDGE_LEFT,
    SEC_EDGE_RIGHT,
    SEC_WEIGHTS,
    SEC_PROBS,
    SEC_DESC_ORDER,
];

/// Errors from container reading and writing. Never a panic: container
/// files are untrusted bytes from disk.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The bytes are not a well-formed container (bad magic, future
    /// version, checksum mismatch, truncation, invariant violation).
    Format(CodecError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Format(e) => write!(f, "container format error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Format(e)
    }
}

fn invalid(msg: impl Into<String>) -> StorageError {
    StorageError::Format(CodecError::Invalid(msg.into()))
}

/// Per-section payload checksum: FNV-1a over 8-byte little-endian
/// words, seeded with the section id and the payload length (the
/// trailing partial word is zero-padded; the absorbed length makes the
/// padding unambiguous).
///
/// Two properties matter here. Seeding with the *id* binds each sum to
/// its table slot, so a resealed header cannot swap two same-length
/// section payloads without forging new sums — the checksum, not just
/// structural validation, refuses the splice. And striding a word at a
/// time keeps verification memory-bound rather than byte-loop-bound:
/// attach speed is part of this format's contract (the perf-smoke CI
/// gate requires container attach ≥10× faster than a text re-parse),
/// and the byte-serial [`fnv1a64`] costs more than the decode it
/// guards. The header checksum stays plain `fnv1a64` — it covers a few
/// hundred bytes and its value is the container's public identity.
pub fn section_checksum(id: u32, payload: &[u8]) -> u64 {
    let whole = payload.len() / 8 * 8;
    let mut h = SectionHasher::new(id, payload.len() as u64);
    h.words(&payload[..whole]);
    h.finish(&payload[whole..])
}

/// [`section_checksum`] fed a piece at a time, so a section can be
/// verified while it streams through a small buffer.
struct SectionHasher(u64);

impl SectionHasher {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new(id: u32, len: u64) -> SectionHasher {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        let h = (BASIS ^ u64::from(id)).wrapping_mul(Self::PRIME);
        SectionHasher((h ^ len).wrapping_mul(Self::PRIME))
    }

    /// Absorbs whole words; `bytes.len()` must be a multiple of 8.
    fn words(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 8, 0);
        for w in bytes.chunks_exact(8) {
            self.0 = (self.0 ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs the payload's last `< 8` bytes, zero-padded, and returns
    /// the sum.
    fn finish(mut self, rem: &[u8]) -> u64 {
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.words(&tail);
        }
        self.0
    }
}

/// Graph dimensions, readable from the header + META section alone —
/// i.e. without materializing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerMeta {
    /// Number of left vertices `|L|`.
    pub num_left: u64,
    /// Number of right vertices `|R|`.
    pub num_right: u64,
    /// Number of edges `|E|`.
    pub num_edges: u64,
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends each element's little-endian image, as `f` renders it.
fn push<T, const W: usize>(buf: &mut Vec<u8>, v: &[T], f: impl Fn(&T) -> [u8; W]) {
    buf.reserve(v.len() * W);
    for x in v {
        buf.extend_from_slice(&f(x));
    }
}

/// An adjacency entry's image: `nbr` then `edge`, each a u32 LE.
fn adj_bytes(a: &Adj) -> [u8; 8] {
    (u64::from(a.edge.0) << 32 | u64::from(a.nbr)).to_le_bytes()
}

fn adj_from(b: [u8; 8]) -> Adj {
    let x = u64::from_le_bytes(b);
    Adj {
        nbr: x as u32,
        edge: EdgeId((x >> 32) as u32),
    }
}

/// Serializes one section's payload into `buf` (cleared first). `ends`
/// is [`UncertainBipartiteGraph::edge_endpoints`], the by-id endpoints
/// sections 6 and 7 store.
fn encode_section(g: &UncertainBipartiteGraph, ends: &[(Left, Right)], id: u32, buf: &mut Vec<u8>) {
    buf.clear();
    let dims = [g.num_left(), g.num_right(), g.num_edges()].map(|n| n as u64);
    match id {
        SEC_META => push(buf, &dims, |x| x.to_le_bytes()),
        SEC_LEFT_OFFSETS => push(buf, &g.left_offsets, |x| x.to_le_bytes()),
        SEC_LEFT_ADJ => push(buf, &g.left_adj, adj_bytes),
        SEC_RIGHT_OFFSETS => push(buf, &g.right_offsets, |x| x.to_le_bytes()),
        SEC_RIGHT_ADJ => push(buf, &g.right_adj, adj_bytes),
        SEC_EDGE_LEFT => push(buf, ends, |(u, _)| u.0.to_le_bytes()),
        SEC_EDGE_RIGHT => push(buf, ends, |(_, v)| v.0.to_le_bytes()),
        SEC_WEIGHTS => push(buf, &g.weights, |x| x.to_le_bytes()),
        SEC_PROBS => push(buf, &g.probs, |x| x.to_le_bytes()),
        SEC_DESC_ORDER => push(buf, &g.edges_by_weight_desc, |x| x.to_le_bytes()),
        _ => unreachable!("unknown section id {id} in writer"),
    }
}

/// Writes `g` as a container stream. Two encode passes keep peak
/// memory at one section (the header needs every section's length and
/// checksum before the first payload byte can be emitted).
pub fn write_container<W: Write>(
    g: &UncertainBipartiteGraph,
    mut w: W,
) -> Result<(), StorageError> {
    // Pass 1: lengths + checksums.
    let ends = g.edge_endpoints();
    let mut buf = Vec::new();
    let mut entries = Vec::with_capacity(WRITE_ORDER.len());
    let header_len = 8 + 4 + 4 + WRITE_ORDER.len() * ENTRY_BYTES + 8;
    let mut offset = header_len as u64;
    for &id in &WRITE_ORDER {
        encode_section(g, &ends, id, &mut buf);
        entries.push(SectionEntry {
            id,
            offset,
            len: buf.len() as u64,
            checksum: section_checksum(id, &buf),
        });
        offset += buf.len() as u64;
    }

    let mut header = Vec::with_capacity(header_len);
    header.extend_from_slice(CONTAINER_MAGIC);
    header.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    header.extend_from_slice(&(WRITE_ORDER.len() as u32).to_le_bytes());
    for e in &entries {
        header.extend_from_slice(&e.id.to_le_bytes());
        header.extend_from_slice(&e.offset.to_le_bytes());
        header.extend_from_slice(&e.len.to_le_bytes());
        header.extend_from_slice(&e.checksum.to_le_bytes());
    }
    let header_sum = fnv1a64(&header);
    header.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(header.len(), header_len);
    w.write_all(&header)?;

    // Pass 2: payloads, in table order.
    for &id in &WRITE_ORDER {
        encode_section(g, &ends, id, &mut buf);
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `g` as a container file at `path` (buffered) and returns the
/// container's content checksum.
pub fn write_container_path(g: &UncertainBipartiteGraph, path: &Path) -> Result<u64, StorageError> {
    let file = File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_container(g, &mut w)?;
    w.into_inner()
        .map_err(|e| StorageError::Io(e.into_error()))?;
    // The checksum is a pure function of the header we just wrote;
    // re-deriving it from disk also proves the file landed intact.
    ContainerReader::open(path).map(|r| r.content_checksum())
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A cheap, verified attachment to a container file.
///
/// [`ContainerReader::open`] reads and checks only the header (magic,
/// version, section-table bounds, header checksum) — a few hundred
/// bytes regardless of graph size — so a serving registry can attach
/// thousands of containers without loading any of them.
/// [`ContainerReader::materialize`] then loads, verifies, and
/// validates every section into a fully resident
/// [`UncertainBipartiteGraph`].
pub struct ContainerReader {
    path: PathBuf,
    meta: ContainerMeta,
    sections: Vec<SectionEntry>,
    content_checksum: u64,
}

impl ContainerReader {
    /// Attaches to the container at `path`: verifies the header and
    /// META section, leaving all payload sections untouched on disk.
    pub fn open(path: &Path) -> Result<ContainerReader, StorageError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        let mut fixed = [0u8; 16];
        read_exact_or_truncated(&mut file, &mut fixed)?;
        if &fixed[..8] != CONTAINER_MAGIC {
            return Err(StorageError::Format(CodecError::BadMagic));
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().unwrap());
        if version > CONTAINER_VERSION {
            return Err(StorageError::Format(CodecError::BadVersion(version)));
        }
        let n_sections = u32::from_le_bytes(fixed[12..16].try_into().unwrap());
        if n_sections > MAX_SECTIONS {
            return Err(invalid(format!("section count {n_sections} over cap")));
        }
        let mut rest = vec![0u8; n_sections as usize * ENTRY_BYTES + 8];
        read_exact_or_truncated(&mut file, &mut rest)?;

        // Header checksum covers magic..table; the trailing u64 stores it.
        let (table, sum_bytes) = rest.split_at(rest.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        let mut hashed = fixed.to_vec();
        hashed.extend_from_slice(table);
        if fnv1a64(&hashed) != stored {
            return Err(StorageError::Format(CodecError::BadChecksum));
        }

        let header_len = 16 + rest.len();
        let mut sections = Vec::with_capacity(n_sections as usize);
        for chunk in table.chunks_exact(ENTRY_BYTES) {
            let entry = SectionEntry {
                id: u32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                offset: u64::from_le_bytes(chunk[4..12].try_into().unwrap()),
                len: u64::from_le_bytes(chunk[12..20].try_into().unwrap()),
                checksum: u64::from_le_bytes(chunk[20..28].try_into().unwrap()),
            };
            let end = entry
                .offset
                .checked_add(entry.len)
                .ok_or_else(|| invalid("section bounds overflow"))?;
            if entry.offset < header_len as u64 || end > file_len {
                return Err(invalid(format!(
                    "section {} [{}, {end}) outside file of {file_len} bytes",
                    entry.id, entry.offset
                )));
            }
            if WRITE_ORDER.contains(&entry.id)
                && sections.iter().any(|e: &SectionEntry| e.id == entry.id)
            {
                return Err(invalid(format!("duplicate section id {}", entry.id)));
            }
            sections.push(entry);
        }

        let mut reader = ContainerReader {
            path: path.to_path_buf(),
            meta: ContainerMeta {
                num_left: 0,
                num_right: 0,
                num_edges: 0,
            },
            sections,
            content_checksum: stored,
        };

        // META is tiny; read and verify it eagerly so dimensions are
        // available without materializing.
        let meta_entry = reader.require(SEC_META)?;
        if meta_entry.len != 24 {
            return Err(invalid("META section must be 24 bytes"));
        }
        let mut meta_bytes = [0u8; 24];
        file.seek(SeekFrom::Start(meta_entry.offset))?;
        read_exact_or_truncated(&mut file, &mut meta_bytes)?;
        if section_checksum(SEC_META, &meta_bytes) != meta_entry.checksum {
            return Err(StorageError::Format(CodecError::BadChecksum));
        }
        let nl = u64::from_le_bytes(meta_bytes[0..8].try_into().unwrap());
        let nr = u64::from_le_bytes(meta_bytes[8..16].try_into().unwrap());
        let m = u64::from_le_bytes(meta_bytes[16..24].try_into().unwrap());
        if nl > u32::MAX as u64 || nr > u32::MAX as u64 || m > u32::MAX as u64 {
            return Err(invalid("graph exceeds u32 index space"));
        }
        reader.meta = ContainerMeta {
            num_left: nl,
            num_right: nr,
            num_edges: m,
        };
        Ok(reader)
    }

    /// Graph dimensions, available without materialization.
    pub fn meta(&self) -> ContainerMeta {
        self.meta
    }

    /// The container's content checksum: the header FNV-1a sum, which
    /// (through the per-section checksums in the table) commits to
    /// every payload byte. Two containers with equal checksums
    /// materialize to bit-identical graphs.
    pub fn content_checksum(&self) -> u64 {
        self.content_checksum
    }

    /// Path this reader is attached to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn require(&self, id: u32) -> Result<SectionEntry, StorageError> {
        self.sections
            .iter()
            .find(|e| e.id == id)
            .copied()
            .ok_or_else(|| invalid(format!("missing required section id {id}")))
    }

    /// Loads, verifies, and validates every primary section, then
    /// derives the rest (`Primaries::complete`) into a fully resident
    /// graph that owns its memory and never aliases the file. The by-id
    /// endpoint sections are decoded into temporaries, validated, and
    /// dropped once the derive has gathered them into scan order.
    ///
    /// Each section streams through a 128 KiB (`CHUNK_BYTES`) buffer:
    /// every chunk is checksummed and decoded into the section's final
    /// array in one pass, so the file's bytes are never resident beside the
    /// decoded graph, and an array is allocated only once its on-disk
    /// length matches META (a hostile header cannot force an allocation
    /// larger than the file). The three stages are timed as the obs
    /// spans `storage.load`, `storage.validate` and `storage.derive`.
    ///
    /// Above 2¹⁶ (`PARALLEL_EDGE_CUTOFF`) edges, loading, structural
    /// validation and the derive's scan-order pass fan out over scoped
    /// threads, each load group reading through its own file handle:
    /// every per-section and per-pass unit is a pure function of the
    /// file's bytes, so the result is bit-identical to the serial path —
    /// only the wall clock changes.
    /// That concurrency is what holds up the attach-vs-reparse contract
    /// CI enforces.
    pub fn materialize(&self) -> Result<UncertainBipartiteGraph, StorageError> {
        let p = {
            let _span = obs::span("storage.load");
            self.load_primaries()?
        };
        {
            let _span = obs::span("storage.validate");
            validate_primaries(&p)?;
        }
        let g = {
            let _span = obs::span("storage.derive");
            if fan_out(p.weights.len()) {
                p.complete_with(&|lo, hi| {
                    std::thread::scope(|sc| {
                        sc.spawn(hi);
                        lo();
                    })
                })
            } else {
                p.complete()
            }
        };
        let _span = obs::span("storage.validate");
        check_scan_order(&g)?;
        Ok(g)
    }

    /// Streams and decodes the nine primary sections.
    fn load_primaries(&self) -> Result<Primaries, StorageError> {
        // The file may have been swapped since open(); all bounds were
        // validated against the open()-time length, so re-check.
        let file_len = std::fs::metadata(&self.path)?.len();
        if self.sections.iter().any(|e| e.offset + e.len > file_len) {
            return Err(invalid("container shrank since attach"));
        }
        let e_lo = self.require(SEC_LEFT_OFFSETS)?;
        let e_la = self.require(SEC_LEFT_ADJ)?;
        let e_ro = self.require(SEC_RIGHT_OFFSETS)?;
        let e_ra = self.require(SEC_RIGHT_ADJ)?;
        let e_el = self.require(SEC_EDGE_LEFT)?;
        let e_er = self.require(SEC_EDGE_RIGHT)?;
        let e_w = self.require(SEC_WEIGHTS)?;
        let e_p = self.require(SEC_PROBS)?;
        let e_do = self.require(SEC_DESC_ORDER)?;

        let nl = self.meta.num_left as usize;
        let nr = self.meta.num_right as usize;
        let m = self.meta.num_edges as usize;

        // Load groups, balanced to roughly equal bytes per thread.
        type R<T> = Result<T, StorageError>;
        let g_left = || -> R<_> {
            let mut s = SectionStream::open(&self.path)?;
            Ok((
                s.read(e_la, m, adj_from)?,
                s.read(e_el, m, u32::from_le_bytes)?,
            ))
        };
        let g_right = || -> R<_> {
            let mut s = SectionStream::open(&self.path)?;
            Ok((
                s.read(e_ra, m, adj_from)?,
                s.read(e_er, m, u32::from_le_bytes)?,
            ))
        };
        let g_dist = || -> R<_> {
            let mut s = SectionStream::open(&self.path)?;
            Ok((
                s.read(e_w, m, f64::from_le_bytes)?,
                s.read(e_p, m, f64::from_le_bytes)?,
            ))
        };
        let g_order = || -> R<_> {
            let mut s = SectionStream::open(&self.path)?;
            Ok((
                s.read(e_do, m, u32::from_le_bytes)?,
                s.read(e_lo, nl + 1, u32::from_le_bytes)?,
                s.read(e_ro, nr + 1, u32::from_le_bytes)?,
            ))
        };

        let (
            (left_adj, edge_left),
            (right_adj, edge_right),
            (weights, probs),
            (edges_by_weight_desc, left_offsets, right_offsets),
        ) = if fan_out(m) {
            std::thread::scope(|sc| {
                let h_left = sc.spawn(g_left);
                let h_right = sc.spawn(g_right);
                let h_dist = sc.spawn(g_dist);
                let order = g_order()?;
                Ok::<_, StorageError>((
                    h_left.join().unwrap()?,
                    h_right.join().unwrap()?,
                    h_dist.join().unwrap()?,
                    order,
                ))
            })?
        } else {
            (g_left()?, g_right()?, g_dist()?, g_order()?)
        };

        Ok(Primaries {
            left_offsets,
            left_adj,
            right_offsets,
            right_adj,
            edge_left,
            edge_right,
            weights,
            probs,
            edges_by_weight_desc,
        })
    }
}

/// Edge count above which [`ContainerReader::materialize`] fans
/// decoding, validation and the derive out over scoped threads. Below
/// it the thread-spawn overhead dwarfs the work; above it the sections
/// are megabytes and the fan-out is what meets the attach-speed contract.
const PARALLEL_EDGE_CUTOFF: usize = 1 << 16;

/// Whether materialization of an `m`-edge graph should fan out:
/// enough work to amortize thread spawns, and more than one hardware
/// thread to run them on.
fn fan_out(m: usize) -> bool {
    m >= PARALLEL_EDGE_CUTOFF && std::thread::available_parallelism().is_ok_and(|p| p.get() > 1)
}

fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), StorageError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StorageError::Format(CodecError::Truncated)
        } else {
            StorageError::Io(e)
        }
    })
}

/// Bytes per read while streaming a section: small enough that a
/// chunk is still in L2 when the checksum and the decode walk it, and a
/// multiple of every element width and of the checksum's word.
const CHUNK_BYTES: usize = 128 << 10;

/// One load group's file handle and chunk buffer.
struct SectionStream {
    file: File,
    buf: Vec<u8>,
}

impl SectionStream {
    fn open(path: &Path) -> Result<SectionStream, StorageError> {
        Ok(SectionStream {
            file: File::open(path)?,
            buf: vec![0u8; CHUNK_BYTES],
        })
    }

    /// Streams section `e`, expected to hold `expect` elements of `W`
    /// little-endian bytes each, checksumming and decoding each chunk
    /// in the same pass. The checksum is judged before the length, so
    /// a corrupt section reads as corrupt whatever its length; a
    /// section whose length disagrees is only hashed, never decoded
    /// or allocated for.
    fn read<T, const W: usize>(
        &mut self,
        e: SectionEntry,
        expect: usize,
        f: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, StorageError> {
        let want = expect as u64 * W as u64;
        let fits = e.len == want;
        let mut out = Vec::with_capacity(if fits { expect } else { 0 });
        let mut h = SectionHasher::new(e.id, e.len);
        self.file.seek(SeekFrom::Start(e.offset))?;
        let mut left = e.len;
        let mut tail = ([0u8; 8], 0);
        while left > 0 {
            let n = left.min(CHUNK_BYTES as u64) as usize;
            left -= n as u64;
            let chunk = &mut self.buf[..n];
            read_exact_or_truncated(&mut self.file, chunk)?;
            // Only the section's last chunk can end mid-word.
            let whole = n / 8 * 8;
            h.words(&chunk[..whole]);
            tail.1 = n - whole;
            tail.0[..tail.1].copy_from_slice(&chunk[whole..]);
            if fits {
                out.extend(chunk.chunks_exact(W).map(|c| f(c.try_into().unwrap())));
            }
        }
        if h.finish(&tail.0[..tail.1]) != e.checksum {
            return Err(StorageError::Format(CodecError::BadChecksum));
        }
        if !fits {
            return Err(invalid(format!(
                "section {}: {} bytes, expected {want}",
                e.id, e.len
            )));
        }
        Ok(out)
    }
}

/// Re-validates every structural invariant a builder-produced graph's
/// primaries satisfy. O(|E| + |V|), run once per materialization and
/// before [`Primaries::complete`], which indexes through them; this is
/// what makes the eviction determinism argument airtight — any
/// container that materializes is indistinguishable from a built graph.
///
/// The order's sortedness is checked after the derive, on its gathered
/// weights ([`check_scan_order`]); here every order entry is only
/// bounded below `|E|`, which is all the derive's gathers need.
///
/// The three passes are independent reads of disjoint invariants, so
/// above [`PARALLEL_EDGE_CUTOFF`] edges the left adjacency is checked
/// on a scoped thread; each pass is written to fail (never panic) on
/// inputs another pass would reject, since the serial ordering no
/// longer protects it.
fn validate_primaries(g: &Primaries) -> Result<(), StorageError> {
    let nl = g.left_offsets.len() - 1;
    let nr = g.right_offsets.len() - 1;
    let m = g.weights.len();

    // Pass 1: offsets, endpoint and order ranges, and the edge-domain
    // scalars — weights and probabilities within the builder's domain.
    let domain = || -> Result<(), StorageError> {
        check_offsets(&g.left_offsets, m, "left_offsets")?;
        check_offsets(&g.right_offsets, m, "right_offsets")?;
        for (i, (&u, &v)) in g.edge_left.iter().zip(&g.edge_right).enumerate() {
            if u as usize >= nl || v as usize >= nr {
                return Err(invalid(format!(
                    "edge {i} endpoints ({u},{v}) out of range"
                )));
            }
        }
        if let Some(i) = g.edges_by_weight_desc.iter().position(|&e| e as usize >= m) {
            return Err(invalid(format!("edges_by_weight_desc[{i}] out of range")));
        }
        for (i, (&w, &p)) in g.weights.iter().zip(&g.probs).enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(invalid(format!("edge {i}: weight {w} invalid")));
            }
            if !(0.0..=1.0).contains(&p) {
                return Err(invalid(format!("edge {i}: probability {p} invalid")));
            }
        }
        Ok(())
    };

    // Passes 2 + 3: adjacency — strictly neighbor-sorted lists,
    // cross-consistent with the endpoint arrays, each edge appearing
    // exactly once per side.
    let left_adj = || {
        check_adjacency(
            &g.left_offsets,
            &g.left_adj,
            nr,
            m,
            |e, owner, nbr| g.edge_left[e] == owner && g.edge_right[e] == nbr,
            "left_adj",
        )
    };
    let right_adj = || {
        check_adjacency(
            &g.right_offsets,
            &g.right_adj,
            nl,
            m,
            |e, owner, nbr| g.edge_right[e] == owner && g.edge_left[e] == nbr,
            "right_adj",
        )
    };

    if fan_out(m) {
        std::thread::scope(|sc| {
            let h_left = sc.spawn(left_adj);
            domain()?;
            right_adj()?;
            h_left.join().unwrap()
        })
    } else {
        domain()?;
        left_adj()?;
        right_adj()
    }
}

/// Checks that the order a container supplied is the §V-B order:
/// strictly (weight desc, id asc). Run after the derive, so it reads the
/// order's gathered weights sequentially instead of indexing `weights`
/// through it. No permutation bookkeeping: strict order makes all `|E|`
/// entries pairwise distinct, and [`validate_primaries`] bounds each
/// below `|E|` — `|E|` distinct values in `[0, |E|)` is a permutation.
fn check_scan_order(g: &UncertainBipartiteGraph) -> Result<(), StorageError> {
    let sorted = g
        .desc_weights
        .windows(2)
        .zip(g.edges_by_weight_desc.windows(2))
        .all(|(w, e)| w[1].total_cmp(&w[0]).then(e[0].cmp(&e[1])).is_lt());
    if sorted {
        Ok(())
    } else {
        Err(invalid("edges_by_weight_desc not in §V-B order"))
    }
}

fn check_offsets(offsets: &[u32], m: usize, what: &str) -> Result<(), StorageError> {
    if offsets.first() != Some(&0) {
        return Err(invalid(format!("{what} must start at 0")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid(format!("{what} not monotonic")));
    }
    if *offsets.last().unwrap() as usize != m {
        return Err(invalid(format!("{what} must end at |E|")));
    }
    Ok(())
}

/// Checks one side's adjacency: every list strictly neighbor-sorted,
/// every entry in range and agreeing with the endpoint arrays.
///
/// "Each edge appears exactly once" needs no bookkeeping: `adj` has
/// exactly `m` entries (enforced at decode), and two entries naming
/// the same edge `e` would both have to carry `e`'s endpoints to pass
/// `endpoint_ok` — same owner, same neighbor — which puts them in the
/// same list with equal `nbr`, violating strict sortedness. So the
/// entry→edge map is injective on `m` entries over `m` edges: a
/// bijection, with no `seen` bitmap (whose random-access stores
/// dominated this pass) required.
fn check_adjacency(
    offsets: &[u32],
    adj: &[Adj],
    nbr_bound: usize,
    m: usize,
    endpoint_ok: impl Fn(usize, u32, u32) -> bool,
    what: &str,
) -> Result<(), StorageError> {
    for owner in 0..offsets.len() - 1 {
        // May run concurrently with check_offsets, so a malformed
        // offsets array must fail here rather than slice out of range.
        let list = adj
            .get(offsets[owner] as usize..offsets[owner + 1] as usize)
            .ok_or_else(|| invalid(format!("{what}: offsets of {owner} out of bounds")))?;
        for (i, a) in list.iter().enumerate() {
            if a.nbr as usize >= nbr_bound || a.edge.index() >= m {
                return Err(invalid(format!("{what}: entry out of range")));
            }
            if i > 0 && list[i - 1].nbr >= a.nbr {
                return Err(invalid(format!(
                    "{what}: list of {owner} not strictly sorted"
                )));
            }
            if !endpoint_ok(a.edge.index(), owner as u32, a.nbr) {
                return Err(invalid(format!(
                    "{what}: entry disagrees with endpoint arrays"
                )));
            }
        }
    }
    Ok(())
}

/// Attach + materialize in one call: the whole-graph read path used by
/// the CLI and [`io::read_auto`](crate::io::read_auto).
pub fn read_container_path(path: &Path) -> Result<UncertainBipartiteGraph, StorageError> {
    ContainerReader::open(path)?.materialize()
}

/// Peeks at `path` and returns the container content checksum when it
/// is a well-formed container, `None` otherwise (wrong magic,
/// unreadable, corrupt header). Used by cluster registration to stamp
/// broadcast specs without materializing.
pub fn peek_container_checksum(path: &Path) -> Option<u64> {
    ContainerReader::open(path)
        .ok()
        .map(|r| r.content_checksum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn demo_graph() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpmb_storage_{}_{name}.ubgc", std::process::id()))
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let g = demo_graph();
        let path = tmp("roundtrip");
        let sum = write_container_path(&g, &path).unwrap();
        let r = ContainerReader::open(&path).unwrap();
        assert_eq!(r.content_checksum(), sum);
        assert_eq!(
            r.meta(),
            ContainerMeta {
                num_left: 2,
                num_right: 3,
                num_edges: 6
            }
        );
        let g2 = r.materialize().unwrap();
        assert_eq!(g2.left_offsets, g.left_offsets);
        assert_eq!(g2.left_adj, g.left_adj);
        assert_eq!(g2.right_offsets, g.right_offsets);
        assert_eq!(g2.right_adj, g.right_adj);
        assert_eq!(g2.desc_endpoints, g.desc_endpoints);
        assert_eq!(g2.edges_by_weight_desc, g.edges_by_weight_desc);
        assert_eq!(g2.desc_accept, g.desc_accept);
        assert_eq!(g2.left_rank, g.left_rank);
        assert_eq!(g2.left_by_rank, g.left_by_rank);
        for i in 0..g.num_edges() {
            assert_eq!(g2.weights[i].to_bits(), g.weights[i].to_bits());
            assert_eq!(g2.probs[i].to_bits(), g.probs[i].to_bits());
            assert_eq!(g2.desc_weights[i].to_bits(), g.desc_weights[i].to_bits());
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build().unwrap();
        let path = tmp("empty");
        write_container_path(&g, &path).unwrap();
        let g2 = read_container_path(&path).unwrap();
        assert_eq!(g2.num_left(), 0);
        assert_eq!(g2.num_right(), 0);
        assert_eq!(g2.num_edges(), 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn checksum_is_stable_and_content_sensitive() {
        let g = demo_graph();
        let p1 = tmp("sum1");
        let p2 = tmp("sum2");
        let s1 = write_container_path(&g, &p1).unwrap();
        let s2 = write_container_path(&g, &p2).unwrap();
        assert_eq!(s1, s2, "same graph, same checksum");
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.51).unwrap();
        let p3 = tmp("sum3");
        let s3 = write_container_path(&b.build().unwrap(), &p3).unwrap();
        assert_ne!(s1, s3, "different graph, different checksum");
        for p in [p1, p2, p3] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn peek_rejects_non_containers() {
        let path = tmp("peek");
        std::fs::write(&path, b"0 0 1.0 0.5\n").unwrap();
        assert_eq!(peek_container_checksum(&path), None);
        let _ = std::fs::remove_file(&path);
        assert_eq!(peek_container_checksum(&path), None, "missing file");
    }
}

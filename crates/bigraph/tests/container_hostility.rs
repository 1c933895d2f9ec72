//! Hostility and round-trip tests for the `UBGCONT1` graph container
//! (see [`bigraph::storage`] and docs/STORAGE.md). Container files are
//! untrusted bytes from disk: truncation, bit flips, bogus section
//! tables, and future versions must all come back as error values —
//! never a panic, never an unbounded allocation. And a graph that
//! *does* materialize must be bit-identical to the one that was
//! written, the derived `accept` thresholds, gathered arrays and
//! degree ranks included — also when the file is a version-1
//! container, which stored those arrays too.

use bigraph::codec::fnv1a64;
use bigraph::{
    accept_word, fixed_point_threshold, read_container_path, section_checksum, trial_rng,
    write_container, write_container_path, ContainerReader, GraphBuilder, LazyEdgeSampler, Left,
    PossibleWorld, Right, UncertainBipartiteGraph, WorldSampler, CONTAINER_MAGIC,
    CONTAINER_VERSION, FIXED_POINT_ONE,
};
use proptest::prelude::*;
use rand::RngCore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Largest single allocation this test binary has asked for, so the
/// hostile-header tests can check that no claimed size drove a big one.
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

struct TrackLargest;

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// records the requested size.
unsafe impl GlobalAlloc for TrackLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: TrackLargest = TrackLargest;

/// Far below what a hostile `u32::MAX` count would ask for, far above
/// anything these tests' graphs need.
const LARGE_ALLOC: usize = 256 << 20;

fn assert_no_large_allocation() {
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
    assert!(
        largest < LARGE_ALLOC,
        "a hostile container allocated {largest} bytes"
    );
}

/// A unique scratch path per call, cleaned up by [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        Scratch(
            std::env::temp_dir().join(format!("ubgc-hostility-{}-{n}.ubgc", std::process::id())),
        )
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

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

fn container_bytes(g: &UncertainBipartiteGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_container(g, &mut bytes).unwrap();
    bytes
}

/// The container encoding (every primary array: offsets, adjacency,
/// endpoints, weights, probs and the weight-descending order) plus the
/// derived arrays a container does not store: the order's gathered
/// endpoints, weights and thresholds, and the degree-rank relabeling.
type Fingerprint = (
    Vec<u8>,
    Vec<(u32, u32)>,
    Vec<u64>,
    Vec<u64>,
    Vec<u32>,
    Vec<u32>,
);

fn fingerprint(g: &UncertainBipartiteGraph) -> Fingerprint {
    (
        container_bytes(g),
        g.desc_endpoints().to_vec(),
        g.desc_weights().iter().map(|w| w.to_bits()).collect(),
        g.desc_accepts().to_vec(),
        g.left_ranks().to_vec(),
        g.left_by_rank().to_vec(),
    )
}

/// The strongest available equality: two graphs with equal
/// fingerprints agree on every array the solvers index.
fn assert_bit_identical(a: &UncertainBipartiteGraph, b: &UncertainBipartiteGraph) {
    assert_eq!(fingerprint(a), fingerprint(b));
}

/// Section-table layout constants, mirrored from the format doc.
const ENTRY_BYTES: usize = 28;
const N_SECTIONS: usize = 10;
const HEADER_LEN: usize = 16 + N_SECTIONS * ENTRY_BYTES + 8;

/// Recomputes the trailing header checksum after a header mutation, so
/// tests can probe *semantic* rejections (bad version, bogus table)
/// separately from checksum rejections.
fn reseal_header(bytes: &mut [u8], header_len: usize) {
    let sum = fnv1a64(&bytes[..header_len - 8]);
    bytes[header_len - 8..header_len].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn truncation_at_every_prefix_is_an_error_not_a_panic() {
    let scratch = Scratch::new();
    let bytes = container_bytes(&fig1());
    for cut in 0..bytes.len() {
        std::fs::write(&scratch.0, &bytes[..cut]).unwrap();
        assert!(
            read_container_path(&scratch.0).is_err(),
            "prefix of {cut} bytes must not materialize"
        );
    }
}

#[test]
fn future_version_is_rejected_at_open() {
    let scratch = Scratch::new();
    let mut bytes = container_bytes(&fig1());
    bytes[8..12].copy_from_slice(&(CONTAINER_VERSION + 1).to_le_bytes());
    reseal_header(&mut bytes, HEADER_LEN);
    std::fs::write(&scratch.0, &bytes).unwrap();
    let err = ContainerReader::open(&scratch.0).map(|_| ()).unwrap_err();
    assert!(
        err.to_string().contains("version"),
        "want a version error, got: {err}"
    );
}

#[test]
fn unknown_section_ids_are_skipped() {
    // Append a 16-byte section with an id this reader has never heard
    // of. The header grows by one table entry, which shifts every
    // payload offset by ENTRY_BYTES; a forward-compatible reader must
    // skip the stranger and still materialize the original graph.
    let g = fig1();
    let old = container_bytes(&g);
    let stranger_payload = [0xABu8; 16];

    let n = u32::from_le_bytes(old[12..16].try_into().unwrap()) as usize;
    assert_eq!(n, N_SECTIONS);
    let old_header_len = 16 + n * ENTRY_BYTES + 8;

    let mut header = Vec::new();
    header.extend_from_slice(CONTAINER_MAGIC);
    header.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
    header.extend_from_slice(&((n + 1) as u32).to_le_bytes());
    for chunk in old[16..16 + n * ENTRY_BYTES].chunks_exact(ENTRY_BYTES) {
        header.extend_from_slice(&chunk[0..4]); // id unchanged
        let offset = u64::from_le_bytes(chunk[4..12].try_into().unwrap());
        header.extend_from_slice(&(offset + ENTRY_BYTES as u64).to_le_bytes());
        header.extend_from_slice(&chunk[12..28]); // len + checksum unchanged
    }
    // The stranger, placed after every known payload.
    header.extend_from_slice(&999u32.to_le_bytes());
    header.extend_from_slice(&((old.len() + ENTRY_BYTES) as u64).to_le_bytes());
    header.extend_from_slice(&(stranger_payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&section_checksum(999, &stranger_payload).to_le_bytes());
    let sum = fnv1a64(&header);
    header.extend_from_slice(&sum.to_le_bytes());

    let mut file = header;
    file.extend_from_slice(&old[old_header_len..]);
    file.extend_from_slice(&stranger_payload);

    let scratch = Scratch::new();
    std::fs::write(&scratch.0, &file).unwrap();
    let back = read_container_path(&scratch.0).unwrap();
    assert_bit_identical(&g, &back);
}

#[test]
fn convert_cycle_preserves_solver_facing_arrays() {
    // Build → write → attach ≡ original, spot-checked through the
    // public accessors the solvers actually use (the byte-level check
    // lives in assert_bit_identical).
    let g = fig1();
    let scratch = Scratch::new();
    write_container_path(&g, &scratch.0).unwrap();
    let back = read_container_path(&scratch.0).unwrap();
    assert_eq!(g.num_left(), back.num_left());
    assert_eq!(g.num_right(), back.num_right());
    assert_eq!(g.num_edges(), back.num_edges());
    let thresholds = |g: &UncertainBipartiteGraph| -> Vec<u64> {
        g.edge_ids()
            .map(|e| fixed_point_threshold(g.prob(e)))
            .collect()
    };
    assert_eq!(thresholds(&g), thresholds(&back));
    assert_eq!(g.edge_endpoints(), back.edge_endpoints());
    assert_eq!(g.desc_endpoints(), back.desc_endpoints());
    assert_eq!(g.desc_edge_ids(), back.desc_edge_ids());
    assert_eq!(g.desc_weights(), back.desc_weights());
    assert_eq!(g.desc_accepts(), back.desc_accepts());
    assert_eq!(g.left_ranks(), back.left_ranks());
    let ids: Vec<_> = g.edges_by_weight_desc().collect();
    let back_ids: Vec<_> = back.edges_by_weight_desc().collect();
    assert_eq!(ids, back_ids);
    assert_bit_identical(&g, &back);
}

#[test]
fn version_1_containers_still_materialize() {
    // Written by the version-1 writer, which also stored five derived
    // arrays (section ids 10 and 12–15). This reader skips them and
    // derives its own, which must equal the builder's.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/fig1_v1.ubgc");
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(&bytes[..8], CONTAINER_MAGIC);
    assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
    assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 15);
    let back = read_container_path(std::path::Path::new(path)).unwrap();
    assert_bit_identical(&fig1(), &back);
}

/// The table entry of section `id` in a version-2 container:
/// `(position of the entry, offset, len)`.
fn entry_of(bytes: &[u8], id: u32) -> (usize, usize, usize) {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (0..N_SECTIONS)
        .map(|i| 16 + i * ENTRY_BYTES)
        .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == id)
        .map(|at| (at, word(at + 4), word(at + 12)))
        .expect("section present")
}

/// Rewrites section `id`'s table entry to claim `len` bytes, with the
/// checksum those bytes really have, and reseals the header: only the
/// structural checks can refuse the result.
fn relabel_section(bytes: &mut [u8], id: u32, len: usize) {
    let (at, offset, _) = entry_of(bytes, id);
    let sum = section_checksum(id, &bytes[offset..offset + len]);
    bytes[at + 12..at + 20].copy_from_slice(&(len as u64).to_le_bytes());
    bytes[at + 20..at + 28].copy_from_slice(&sum.to_le_bytes());
    reseal_header(bytes, HEADER_LEN);
}

#[test]
fn meta_claiming_u32_max_edges_is_refused_without_a_large_allocation() {
    const SEC_META: u32 = 1;
    let mut bytes = container_bytes(&fig1());
    let (_, meta, _) = entry_of(&bytes, SEC_META);
    bytes[meta + 16..meta + 24].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    relabel_section(&mut bytes, SEC_META, 24);
    let scratch = Scratch::new();
    std::fs::write(&scratch.0, &bytes).unwrap();
    let reader = ContainerReader::open(&scratch.0).expect("META itself is well-formed");
    assert_eq!(reader.meta().num_edges, u64::from(u32::MAX));
    let err = reader.materialize().map(|_| ()).unwrap_err();
    assert!(
        err.to_string().contains("expected"),
        "want a length error, got: {err}"
    );
    assert_no_large_allocation();
}

#[test]
fn section_length_disagreeing_with_meta_is_refused() {
    // EDGE_LEFT loses its last element: the checksum is forged to
    // match, so only the length check against META can refuse it.
    const SEC_EDGE_LEFT: u32 = 6;
    let g = fig1();
    let mut bytes = container_bytes(&g);
    let (_, _, len) = entry_of(&bytes, SEC_EDGE_LEFT);
    assert_eq!(len, 4 * g.num_edges());
    relabel_section(&mut bytes, SEC_EDGE_LEFT, len - 4);
    let scratch = Scratch::new();
    std::fs::write(&scratch.0, &bytes).unwrap();
    let err = read_container_path(&scratch.0).map(|_| ()).unwrap_err();
    assert!(
        err.to_string().contains("section 6: 20 bytes, expected 24"),
        "want a length error, got: {err}"
    );
    // A wrong checksum is judged before the length.
    let (at, _, _) = entry_of(&bytes, SEC_EDGE_LEFT);
    bytes[at + 20] ^= 1;
    reseal_header(&mut bytes, HEADER_LEN);
    std::fs::write(&scratch.0, &bytes).unwrap();
    let err = read_container_path(&scratch.0).map(|_| ()).unwrap_err();
    assert!(
        err.to_string().contains("checksum"),
        "want a checksum error, got: {err}"
    );
    assert_no_large_allocation();
}

#[test]
fn file_truncated_after_open_is_an_error() {
    let bytes = container_bytes(&fig1());
    let scratch = Scratch::new();
    for cut in [HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&scratch.0, &bytes).unwrap();
        let reader = ContainerReader::open(&scratch.0).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&scratch.0)
            .unwrap();
        file.set_len(cut as u64).unwrap();
        assert!(
            reader.materialize().is_err(),
            "a file cut to {cut} bytes after open must not materialize"
        );
    }
    assert_no_large_allocation();
}

/// Random small edge lists: deduped (left, right) pairs on vertices
/// `0..8` with finite positive weights and probabilities in (0, 1].
fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::vec((0u32..8, 0u32..8, 1u32..1_000, 1u32..=1_000), 0..24).prop_map(
        |edges| {
            let mut seen = std::collections::HashSet::new();
            edges
                .into_iter()
                .filter(|&(l, r, _, _)| seen.insert((l, r)))
                .map(|(l, r, w, p)| (l, r, w as f64 / 16.0, p as f64 / 1_000.0))
                .collect()
        },
    )
}

fn build(edges: &[(u32, u32, f64, f64)]) -> UncertainBipartiteGraph {
    let mut b = GraphBuilder::new();
    for &(l, r, w, p) in edges {
        b.add_edge(Left(l), Right(r), w, p).unwrap();
    }
    b.build().unwrap()
}

/// Random small graphs for the proptests.
fn arb_graph() -> impl Strategy<Value = UncertainBipartiteGraph> {
    arb_edges().prop_map(|edges| build(&edges))
}

/// An RNG whose every word is the same: feeds one chosen word to a
/// by-id draw.
struct FixedWord(u64);

impl RngCore for FixedWord {
    fn next_u32(&mut self) -> u32 {
        self.0 as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The threshold a by-id draw compared against when the graph stored
/// one per edge: `⌈p · 2⁵³⌉`.
fn stored_threshold(p: f64) -> u64 {
    (p * FIXED_POINT_ONE as f64).ceil() as u64
}

/// Checks that `g` holds every per-edge value of `edges` (edge `i` is
/// `edges[i]`), however its arrays lay them out.
fn check_layout(
    g: &UncertainBipartiteGraph,
    edges: &[(u32, u32, f64, f64)],
    words: &[u64],
    seed: u64,
) -> Result<(), TestCaseError> {
    // Endpoints: by id, in both CSRs, and in scan order.
    let ends = g.edge_endpoints();
    let want: Vec<_> = edges
        .iter()
        .map(|&(u, v, _, _)| (Left(u), Right(v)))
        .collect();
    prop_assert_eq!(&ends, &want);
    for u in (0..g.num_left() as u32).map(Left) {
        for (v, e) in g.left_neighbors(u) {
            prop_assert_eq!(ends[e.index()], (u, v));
        }
    }
    for v in (0..g.num_right() as u32).map(Right) {
        for (u, e) in g.right_neighbors(v) {
            prop_assert_eq!(ends[e.index()], (u, v));
        }
    }
    prop_assert_eq!(g.desc_endpoints().len(), g.num_edges());
    for (&e, &(u, v)) in g.desc_edge_ids().iter().zip(g.desc_endpoints()) {
        prop_assert_eq!(ends[e as usize], (Left(u), Right(v)));
    }

    // Thresholds: the scan's stored ones, and every by-id draw's
    // decision, on random words and on the words straddling `t`.
    for (&e, &t) in g.desc_edge_ids().iter().zip(g.desc_accepts()) {
        prop_assert_eq!(t, stored_threshold(edges[e as usize].3));
    }
    for e in g.edge_ids() {
        prop_assert_eq!(g.prob(e).to_bits(), edges[e.index()].3.to_bits());
        let t = stored_threshold(g.prob(e));
        let straddle = [t.saturating_sub(1), t, t + 1].map(|u| u.min(FIXED_POINT_ONE - 1) << 11);
        for &w in words.iter().chain(&straddle) {
            let drawn = bigraph::sample::bernoulli_edge(g, e, &mut FixedWord(w));
            prop_assert_eq!(drawn, accept_word(w, t), "edge {:?} word {:#x}", e, w);
            let mut memo = LazyEdgeSampler::new(g.num_edges());
            memo.begin_trial();
            prop_assert_eq!(memo.is_present(g, e, &mut FixedWord(w)), drawn);
        }
    }
    // A whole sampled world draws one word per edge, in id order.
    let mut world = PossibleWorld::empty(g.num_edges());
    WorldSampler::sample_into(g, &mut world, &mut trial_rng(seed, 0));
    let mut rng = trial_rng(seed, 0);
    for e in g.edge_ids() {
        let want = accept_word(rng.next_u64(), stored_threshold(g.prob(e)));
        prop_assert_eq!(world.contains(e), want, "edge {:?}", e);
    }
    Ok(())
}

proptest! {
    /// Each per-edge value is kept once yet none is lost: built and
    /// attached graphs alike give back every edge's endpoints (by id, in
    /// both CSRs, in scan order) and decide every by-id draw as the
    /// per-edge stored threshold did. The appended edges carry the
    /// probabilities where the threshold's rounding is delicate.
    #[test]
    fn layout_keeps_every_value(
        edges in arb_edges(),
        words in proptest::collection::vec(any::<u64>(), 1..16),
        seed in any::<u64>(),
    ) {
        let mut edges = edges;
        let half = 0.5f64;
        let delicate = [0.0, 1.0, f64::MIN_POSITIVE, 5e-324, half.next_down(), half.next_up()];
        for (i, &p) in (8u32..).zip(&delicate) {
            edges.push((i, i, 1.0, p));
        }
        let g = build(&edges);
        check_layout(&g, &edges, &words, seed)?;
        let scratch = Scratch::new();
        write_container_path(&g, &scratch.0).unwrap();
        check_layout(&read_container_path(&scratch.0).unwrap(), &edges, &words, seed)?;
    }

    /// build → convert → attach reproduces the original graph
    /// bit-identically, derived arrays included.
    #[test]
    fn round_trip_is_bit_identical(g in arb_graph()) {
        let scratch = Scratch::new();
        let written = write_container_path(&g, &scratch.0).unwrap();
        let back = read_container_path(&scratch.0).unwrap();
        prop_assert_eq!(fingerprint(&g), fingerprint(&back));
        // And the attach-time checksum is stable across re-opens.
        let reopened = ContainerReader::open(&scratch.0).unwrap();
        prop_assert_eq!(written, reopened.content_checksum());
    }

    /// Flipping any bit anywhere in a container is detected: header
    /// flips fail the header checksum (or a semantic check), payload
    /// flips fail that section's checksum at materialize time.
    #[test]
    fn any_bit_flip_is_an_error(byte in 0usize..10_000, bit in 0u8..8) {
        let scratch = Scratch::new();
        let mut bytes = container_bytes(&fig1());
        let byte = byte % bytes.len();
        bytes[byte] ^= 1 << bit;
        std::fs::write(&scratch.0, &bytes).unwrap();
        prop_assert!(read_container_path(&scratch.0).is_err(),
                     "flip at byte {} bit {} must not materialize", byte, bit);
    }

    /// Arbitrary bytes never panic the reader, however they parse.
    #[test]
    fn random_bytes_never_panic_the_reader(bytes in proptest::collection::vec(any::<u8>(), 0..2_048)) {
        let scratch = Scratch::new();
        std::fs::write(&scratch.0, &bytes).unwrap();
        let _ = read_container_path(&scratch.0);
    }

    /// A hostile section table (random ids/offsets/lengths under a
    /// resealed header checksum) either fails bounds/checksum/invariant
    /// validation, or — when the lie happens to be harmless — still
    /// materializes the *original* graph. It can never conjure a
    /// different one.
    #[test]
    fn corrupt_section_tables_cannot_change_the_graph(entry in 0usize..N_SECTIONS,
                                                      field_off in 0usize..ENTRY_BYTES,
                                                      flip in 1u8..=255) {
        let g = fig1();
        let scratch = Scratch::new();
        let mut bytes = container_bytes(&g);
        let pos = 16 + entry * ENTRY_BYTES + field_off;
        bytes[pos] ^= flip; // nonzero XOR: the byte always changes
        reseal_header(&mut bytes, HEADER_LEN);
        std::fs::write(&scratch.0, &bytes).unwrap();
        if let Ok(back) = read_container_path(&scratch.0) {
            prop_assert_eq!(fingerprint(&g), fingerprint(&back));
        }
    }
}

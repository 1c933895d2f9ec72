//! Durable server checkpoints: the registry manifest plus every
//! resumable partial, in one checksummed snapshot file.
//!
//! A snapshot is a single frame (see [`bigraph::codec`]) so a reader
//! always sees an atomic view: either the whole `(registry, partials)`
//! pair verifies, or the file is rejected. Writes go through a temp
//! file + `rename`, so a crash mid-write leaves the previous snapshot
//! intact; a crash between snapshots loses at most one cadence worth
//! of progress — and losing progress is *safe*, because resumed runs
//! are bit-identical however little of them survived.
//!
//! Restoring is deliberately forgiving: a missing file means a fresh
//! start, a corrupt or truncated file is reported (and counted by
//! `mpmb_checkpoint_corrupt_total`) but never a crash, and a manifest
//! entry whose graph can no longer be loaded just drops that graph and
//! its partials.

use crate::solve::PartialState;
use bigraph::codec::{open_frame, seal_frame, CodecError, Decoder, Encoder};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Snapshot file name inside `--checkpoint-dir`.
pub const SNAPSHOT_FILE: &str = "state.ckpt";
const MAGIC: &[u8; 8] = b"MPMBCKP1";
/// The snapshot layout this build writes, and the only one it reads.
const VERSION: u32 = 2;

/// One registry manifest row: enough to re-attach the graph on restart
/// without re-parsing it.
///
/// For container-backed graphs the snapshot records the container's
/// content checksum at attach time. On restore the registry re-attaches
/// the container file (a header read, not a parse) and refuses it if
/// the checksum changed — a swapped file cannot silently change answers
/// across a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Registered graph name.
    pub name: String,
    /// Load spec as [`crate::registry::Registry::load`] wants it (bare
    /// path or `dataset:…`).
    pub spec: String,
    /// Content checksum of the backing container at attach time, if the
    /// graph was container-backed.
    pub container_checksum: Option<u64>,
}

impl ManifestEntry {
    /// A manifest row for an in-memory (non-container) graph.
    pub fn memory(name: impl Into<String>, spec: impl Into<String>) -> ManifestEntry {
        ManifestEntry {
            name: name.into(),
            spec: spec.into(),
            container_checksum: None,
        }
    }
}

/// One durable view of the server's resumable state.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Registry manifest, reloadable via
    /// [`crate::registry::Registry::load_with_expected`].
    pub graphs: Vec<ManifestEntry>,
    /// Cached partials: `(cache key, state)` pairs.
    pub partials: Vec<(String, PartialState)>,
}

impl Snapshot {
    /// Serializes into a sealed frame ready to hit disk.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(self.graphs.len() as u64);
        for entry in &self.graphs {
            enc.str(&entry.name);
            enc.str(&entry.spec);
            match entry.container_checksum {
                None => enc.u8(0),
                Some(sum) => {
                    enc.u8(1);
                    enc.u64(sum);
                }
            }
        }
        enc.u64(self.partials.len() as u64);
        for (key, state) in &self.partials {
            enc.str(key);
            state.encode(&mut enc);
        }
        seal_frame(MAGIC, VERSION, &enc.into_bytes())
    }

    /// Parses a sealed frame back into a snapshot. A frame of any
    /// version but [`VERSION`] is `BadVersion`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, CodecError> {
        let payload = match open_frame(MAGIC, VERSION, bytes)? {
            (VERSION, payload) => payload,
            (other, _) => return Err(CodecError::BadVersion(other)),
        };
        let mut dec = Decoder::new(payload);
        let graph_count = dec.len_capped(8)?;
        let mut graphs = Vec::with_capacity(graph_count);
        for _ in 0..graph_count {
            let name = dec.str()?;
            let spec = dec.str()?;
            let container_checksum = match dec.u8()? {
                0 => None,
                1 => Some(dec.u64()?),
                other => {
                    return Err(CodecError::Invalid(format!(
                        "unknown manifest backing tag {other}"
                    )))
                }
            };
            graphs.push(ManifestEntry {
                name,
                spec,
                container_checksum,
            });
        }
        let partial_count = dec.len_capped(8)?;
        let mut partials = Vec::with_capacity(partial_count);
        for _ in 0..partial_count {
            let key = dec.str()?;
            let state = PartialState::decode(&mut dec)?;
            partials.push((key, state));
        }
        if dec.remaining() != 0 {
            return Err(CodecError::Invalid(format!(
                "{} trailing bytes after snapshot",
                dec.remaining()
            )));
        }
        Ok(Snapshot { graphs, partials })
    }
}

/// What loading a snapshot file produced.
#[derive(Debug)]
pub enum LoadOutcome {
    /// No snapshot file exists — a fresh start.
    Missing,
    /// The file exists but failed verification; skip it (the reason is
    /// for the warning log).
    Corrupt(String),
    /// A verified snapshot.
    Loaded(Snapshot),
}

/// Reads and writes snapshots under one directory. Writes are
/// serialized by an internal lock (the cadence thread and the final
/// drain snapshot may race) and are atomic via temp file + rename.
pub struct CheckpointStore {
    dir: PathBuf,
    write_lock: Mutex<()>,
}

impl CheckpointStore {
    /// A store rooted at `dir`, creating it if needed.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            write_lock: Mutex::new(()),
        })
    }

    /// The snapshot file path.
    pub fn path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// Durably replaces the snapshot file with `snapshot`.
    pub fn write(&self, snapshot: &Snapshot) -> std::io::Result<()> {
        let _guard = self.write_lock.lock().unwrap_or_else(|e| e.into_inner());
        let bytes = snapshot.to_bytes();
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path())
    }

    /// Loads the current snapshot, classifying every failure mode.
    pub fn load(&self) -> LoadOutcome {
        load_file(&self.path())
    }
}

/// [`CheckpointStore::load`] against an explicit path.
fn load_file(path: &Path) -> LoadOutcome {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(e) => return LoadOutcome::Corrupt(format!("cannot read {}: {e}", path.display())),
    };
    match Snapshot::from_bytes(&bytes) {
        Ok(s) => LoadOutcome::Loaded(s),
        Err(e) => LoadOutcome::Corrupt(format!("invalid snapshot {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{advance_local, Answer, Cancel, Job, Method, Outcome};
    use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};

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

    /// Runs `job` to completion on `threads` workers, from `state`.
    fn complete(job: &Job, state: Option<PartialState>, threads: usize) -> Answer {
        let progress = advance_local(&fig1(), job, state, threads, &Cancel::never()).unwrap();
        match progress.outcome {
            Outcome::Done(answer) => answer,
            Outcome::Incomplete(s) => panic!("{}: stopped at `{}`", job.method, s.kind()),
        }
    }

    /// Runs `method` under a trial budget until it yields a partial.
    fn make_partial(method: Method, trials: u64, prep: u64, budget: u64) -> PartialState {
        let job = Job::new(method, trials, prep, 31);
        let progress =
            advance_local(&fig1(), &job, None, 1, &Cancel::after_trials(budget)).unwrap();
        match progress.outcome {
            Outcome::Incomplete(s) => s,
            Outcome::Done(_) => panic!("budget {budget} should have interrupted {method}"),
        }
    }

    /// Every [`PartialState`] variant round-trips through a snapshot and
    /// then *completes* to the same result as the uninterrupted run.
    #[test]
    fn every_variant_round_trips_and_resumes_identically() {
        let cases = [
            (Method::Os, 2_000, 1, 300),
            (Method::McVp, 1_000, 1, 170),
            (Method::Ols, 5_000, 200, 450), // mid-sampling
            (Method::OlsKl, 300, 200, 202), // past prep, mid-KL (fig1 has 3 candidates)
        ];
        for (method, trials, prep, budget) in cases {
            let state = make_partial(method, trials, prep, budget);
            let snap = Snapshot {
                graphs: vec![ManifestEntry::memory("g", "dataset:abide:0.01:3")],
                partials: vec![(format!("solve|g|{method}"), state)],
            };
            let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
            assert_eq!(back.graphs, snap.graphs);
            assert_eq!(back.partials.len(), 1);
            assert_eq!(back.partials[0].0, format!("solve|g|{method}"));

            let restored = back.partials.into_iter().next().unwrap().1;
            assert_eq!(restored.kind(), snap.partials[0].1.kind());
            let job = Job::new(method, trials, prep, 31);
            let (full_d, resumed_d) =
                match (complete(&job, None, 1), complete(&job, Some(restored), 2)) {
                    (Answer::Distribution(a), Answer::Distribution(b)) => (a, b),
                    other => panic!("{method}: expected distributions, got {other:?}"),
                };
            assert_eq!(
                full_d.max_abs_diff(&resumed_d),
                0.0,
                "{method}: restored partial must complete bit-identically"
            );
        }
    }

    /// The fast tier's checkpoint variant round-trips and the restored
    /// partial completes bit-identically to the uninterrupted estimate.
    #[test]
    fn fast_partial_round_trips_and_resumes_identically() {
        let job = Job {
            delta: 0.1,
            ..Job::new(Method::Fast, 2_000, 0, 31)
        };
        let state = make_partial(Method::Fast, 2_000, 0, 300);
        assert_eq!(state.kind(), "fast");
        let snap = Snapshot {
            graphs: vec![],
            partials: vec![("fast|g|2000|31|0.1".to_string(), state)],
        };
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let restored = back.partials.into_iter().next().unwrap().1;
        assert_eq!(restored.kind(), "fast");

        match (complete(&job, None, 1), complete(&job, Some(restored), 2)) {
            (Answer::Fast(a), Answer::Fast(b)) => {
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                assert_eq!(a.variance.to_bits(), b.variance.to_bits());
                assert_eq!(a.ci_low.to_bits(), b.ci_low.to_bits());
                assert_eq!(a.ci_high.to_bits(), b.ci_high.to_bits());
            }
            _ => panic!("both fast runs must complete"),
        }
    }

    #[test]
    fn prepare_phase_partial_round_trips() {
        let state = make_partial(Method::Ols, 5_000, 200, 64);
        assert_eq!(state.kind(), "ols-prepare");
        let snap = Snapshot {
            graphs: vec![],
            partials: vec![("k".to_string(), state)],
        };
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.partials[0].1.kind(), "ols-prepare");
    }

    #[test]
    fn store_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("mpmb-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(matches!(store.load(), LoadOutcome::Missing));

        let snap = Snapshot {
            graphs: vec![ManifestEntry::memory("g", "dataset:abide:0.01:3")],
            partials: vec![(
                "count|g|100|7".to_string(),
                make_partial(Method::Os, 2_000, 1, 64),
            )],
        };
        store.write(&snap).unwrap();
        match store.load() {
            LoadOutcome::Loaded(s) => {
                assert_eq!(s.graphs, snap.graphs);
                assert_eq!(s.partials.len(), 1);
            }
            other => panic!("expected Loaded, got {other:?}"),
        }

        // Corrupt the file in place: load reports Corrupt, not a panic.
        let path = store.path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.load(), LoadOutcome::Corrupt(_)));

        // Truncation too.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(store.load(), LoadOutcome::Corrupt(_)));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let snap = Snapshot::default();
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(back.graphs.is_empty() && back.partials.is_empty());
    }

    /// Container-backed manifest rows carry their checksum through the
    /// snapshot bit-exactly.
    #[test]
    fn container_manifest_entries_round_trip() {
        let snap = Snapshot {
            graphs: vec![
                ManifestEntry::memory("a", "dataset:abide:0.01:3"),
                ManifestEntry {
                    name: "b".to_string(),
                    spec: "/tmp/b.ubgc".to_string(),
                    // Checksums use all 64 bits; exercise the high ones.
                    container_checksum: Some(0xDEAD_BEEF_F00D_0001),
                },
            ],
            partials: vec![],
        };
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.graphs, snap.graphs);
    }

    /// A well-formed, correctly checksummed version-1 snapshot (the
    /// old layout without backing tags) is `BadVersion`, so a server
    /// restoring it counts it as corrupt and starts fresh.
    #[test]
    fn version1_snapshot_is_rejected() {
        let mut enc = Encoder::new();
        enc.u64(1); // graph count
        enc.str("g1");
        enc.str("dataset:abide:0.01:3");
        enc.u64(0); // partial count
        let bytes = seal_frame(MAGIC, 1, &enc.into_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).err(),
            Some(CodecError::BadVersion(1))
        );
    }

    /// An unknown backing tag in a v2 manifest is an error, not a panic.
    #[test]
    fn unknown_backing_tag_is_rejected() {
        let mut enc = Encoder::new();
        enc.u64(1);
        enc.str("g");
        enc.str("/tmp/g.ubgc");
        enc.u8(7); // bogus tag
        enc.u64(0);
        let bytes = seal_frame(MAGIC, VERSION, &enc.into_bytes());
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }
}

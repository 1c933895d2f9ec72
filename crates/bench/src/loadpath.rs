//! Load-path benchmark behind `solver_bench --container`: the same
//! generated graph is written both as a text edge list and as a
//! `UBGCONT1` container, then re-loaded through
//! [`bigraph::io::read_auto`] — the exact dispatch `mpmb serve` and
//! the CLI run at attach time.
//!
//! The container format exists to make loading *cheap*: raw CSR
//! sections streamed into their arrays with no float parsing and no
//! sorting of the edges (docs/STORAGE.md). `solver_bench`'s
//! `--min-load-speedup` gate turns that into an enforced contract —
//! perf-smoke runs with `--min-load-speedup 10`, so a regression that
//! drags attach back toward parse speed fails CI instead of rotting
//! silently.

use bigraph::UncertainBipartiteGraph;
use std::path::PathBuf;
use std::time::Instant;

/// One attach-vs-parse comparison, minimum wall clock over the repeats.
pub struct LoadComparison {
    /// Seconds to parse the text edge list.
    pub text_secs: f64,
    /// Seconds to attach and materialize the container.
    pub container_secs: f64,
    /// Seconds of that attach spent in materialize's stages, from its
    /// obs spans: `storage.load` (stream, checksum and decode the
    /// sections), `storage.validate` and `storage.derive`.
    pub stage_secs: [f64; 3],
    /// Seconds for a header-only [`bigraph::ContainerReader::open`] —
    /// the parse-free re-attach the serving registry performs at
    /// startup, before any lazy materialization.
    pub open_secs: f64,
    /// `text_secs / container_secs`.
    pub speedup: f64,
    /// Size of the container file in bytes.
    pub container_bytes: u64,
}

impl LoadComparison {
    /// The comparison as a JSON object for the bench reports.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"text_parse_secs\": {:.6}, \"container_attach_secs\": {:.6}, \
             \"storage_load_secs\": {:.6}, \"storage_validate_secs\": {:.6}, \
             \"storage_derive_secs\": {:.6}, \"container_open_secs\": {:.6}, \
             \"speedup\": {:.3}, \"container_bytes\": {}}}",
            self.text_secs,
            self.container_secs,
            self.stage_secs[0],
            self.stage_secs[1],
            self.stage_secs[2],
            self.open_secs,
            self.speedup,
            self.container_bytes
        )
    }
}

/// A unique scratch path that is removed on drop, so an assertion
/// failure in the caller never leaves temp files behind.
struct Scratch(PathBuf);

impl Scratch {
    fn new(suffix: &str) -> Scratch {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        Scratch(
            std::env::temp_dir().join(format!("mpmb-loadpath-{}-{n}{suffix}", std::process::id())),
        )
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The fastest of `repeats` runs of `f`: its seconds and its output.
fn time_min<T>(repeats: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut best_out) = (f64::INFINITY, None);
    for _ in 0..repeats {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            (best, best_out) = (secs, Some(out));
        }
    }
    (best, best_out.expect("repeats >= 1"))
}

/// Seconds each of materialize's stages took in `profile`.
fn stage_secs(profile: &obs::Profile) -> [f64; 3] {
    let phases = profile.snapshot();
    ["storage.load", "storage.validate", "storage.derive"].map(|stage| {
        phases
            .iter()
            .filter(|p| p.name == stage)
            .map(|p| p.secs)
            .sum()
    })
}

/// Writes `g` as both a text edge list and a container, times `repeats`
/// loads of each through `read_auto`, and verifies that both loaded
/// graphs reproduce the original bit-for-bit ([`fingerprint`]s
/// compared, which cover every array the solvers index).
///
/// Returns the container-loaded graph so a container-mode bench runs
/// its methods against the materialized arrays, not the generated
/// ones — any drift would surface as an answer divergence.
///
/// # Panics
///
/// Panics on I/O failure or if either load is not bit-identical to the
/// generated graph; a load path that changes bytes must never produce a
/// timing number.
pub fn compare_load_paths(
    g: &UncertainBipartiteGraph,
    repeats: u32,
) -> (UncertainBipartiteGraph, LoadComparison) {
    let text = Scratch::new(".tsv");
    let container = Scratch::new(".ubgc");
    {
        let file = std::fs::File::create(&text.0).expect("create text scratch");
        let mut w = std::io::BufWriter::new(file);
        bigraph::io::write_edge_list(g, &mut w).expect("write edge list");
    }
    bigraph::write_container_path(g, &container.0).expect("write container");
    let container_bytes = std::fs::metadata(&container.0)
        .expect("stat container")
        .len();

    let reference = fingerprint(g);
    let (text_secs, parsed) = time_min(repeats, || {
        bigraph::io::read_auto(&text.0).expect("parse text")
    });
    let (container_secs, (attached, stage_secs)) = time_min(repeats, || {
        let profile = std::sync::Arc::new(obs::Profile::new());
        let _obs = obs::install(obs::ObsCtx {
            profile: Some(std::sync::Arc::clone(&profile)),
            ..Default::default()
        });
        let g = bigraph::io::read_auto(&container.0).expect("attach container");
        (g, stage_secs(&profile))
    });
    let (open_secs, _) = time_min(repeats, || {
        bigraph::ContainerReader::open(&container.0).expect("open container")
    });
    assert_eq!(
        fingerprint(&parsed),
        reference,
        "text re-parse must reproduce the generated graph bit-for-bit"
    );
    assert_eq!(
        fingerprint(&attached),
        reference,
        "container attach must reproduce the generated graph bit-for-bit"
    );

    let cmp = LoadComparison {
        text_secs,
        container_secs,
        stage_secs,
        open_secs,
        speedup: text_secs / container_secs,
        container_bytes,
    };
    (attached, cmp)
}

/// A whole-graph fingerprint: the container encoding, which covers the
/// primary arrays, then the derived arrays a container does not store
/// (`accept`, the §V-B gathers, the degree ranks).
fn fingerprint(g: &UncertainBipartiteGraph) -> (Vec<u8>, Vec<u64>, Vec<u32>) {
    let mut bytes = Vec::new();
    bigraph::write_container(g, &mut bytes).expect("encode container");
    let desc_weights = g.desc_weights().iter().map(|w| w.to_bits());
    let words = [g.accept_thresholds(), g.desc_accepts()].concat();
    let ranks = [g.left_ranks(), g.left_by_rank()].concat();
    (
        bytes,
        words.into_iter().chain(desc_weights).collect(),
        ranks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::Dataset;

    #[test]
    fn comparison_returns_the_attached_graph_and_finite_timings() {
        let g = Dataset::Abide.generate(0.05, 9);
        let (back, cmp) = compare_load_paths(&g, 2);
        assert_eq!(fingerprint(&g), fingerprint(&back));
        assert!(cmp.text_secs > 0.0 && cmp.text_secs.is_finite());
        assert!(cmp.container_secs > 0.0 && cmp.container_secs.is_finite());
        assert!(cmp.open_secs > 0.0 && cmp.open_secs.is_finite());
        assert!(cmp.speedup.is_finite());
        let json = cmp.to_json();
        assert!(json.contains("\"speedup\""), "{json}");
        assert!(cmp.container_bytes > 0);
        assert!(json.contains("\"container_bytes\""), "{json}");
        let [load, validate, derive] = cmp.stage_secs;
        assert!(load > 0.0 && validate > 0.0 && derive > 0.0, "{json}");
        assert!(load + validate + derive <= cmp.container_secs, "{json}");
        assert!(json.contains("\"storage_derive_secs\""), "{json}");
    }
}

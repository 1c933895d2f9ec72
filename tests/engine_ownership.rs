//! Regression guard: the core `Executor` is the workspace's only
//! trial-loop owner.
//!
//! After the trial-engine unification, every sampler's Monte-Carlo loop
//! runs through `mpmb_core::engine::Executor`. Hand-rolled loops have a
//! way of creeping back in (a quick `for t in 0..trials` in a new
//! endpoint, a private `thread::scope` fan-out in a bench), and each one
//! silently forfeits the determinism contract — cancellation, resume,
//! and thread-count independence. This test scans the workspace sources
//! and pins down where the low-level primitives may appear.

use std::path::{Path, PathBuf};

/// Rust sources under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Library sources of the named workspace crates (tests/benches/bins
/// excluded — they may orchestrate threads for harness purposes).
fn crate_lib_sources(crates: &[&str]) -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for c in crates {
        rust_sources(&root.join("crates").join(c).join("src"), &mut files);
    }
    files
}

fn rel(path: &Path) -> String {
    path.strip_prefix(env!("CARGO_MANIFEST_DIR"))
        .unwrap_or(path)
        .display()
        .to_string()
        .replace('\\', "/")
}

/// `thread::scope` — the data-parallel fan-out — is allowed in exactly
/// four places: the executor itself, the (separately verified) listing
/// kernel, the cluster coordinator's scatter threads (which block on
/// worker HTTP calls — the trials themselves still run through remote
/// `Executor`s), and the container reader's section decode/validate
/// fan-out (pure functions of on-disk bytes, no trials and no RNG —
/// bit-identical to its serial path by construction). A new use
/// anywhere else means a trial loop grew outside the engine.
#[test]
fn thread_scope_is_owned_by_the_executor() {
    let allowed = [
        "crates/mpmb-core/src/engine.rs",
        "crates/mpmb-core/src/listing.rs",
        "crates/mpmb-serve/src/cluster/coordinator.rs",
        "crates/bigraph/src/storage.rs",
    ];
    let mut offenders = Vec::new();
    for path in crate_lib_sources(&["mpmb-core", "mpmb-serve", "bench", "bigraph", "datasets"]) {
        let src = std::fs::read_to_string(&path).expect("read source");
        if src.contains("thread::scope") && !allowed.contains(&rel(&path).as_str()) {
            offenders.push(rel(&path));
        }
    }
    assert!(
        offenders.is_empty(),
        "`thread::scope` outside the engine/listing/coordinator/storage: {offenders:?}\n\
         route trial fan-out through `mpmb_core::Executor` instead"
    );
}

/// Whether `src` names a `PartialState` variant (`PartialState::Os`,
/// `PartialState::Kl { .. }`, …) rather than just the type.
fn names_partial_state_variant(src: &str) -> bool {
    src.match_indices("PartialState::").any(|(i, m)| {
        src[i + m.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
    })
}

/// The per-method fan-out lives in one place: the method table in
/// `solve.rs`, which also owns each variant's durable snapshot tag
/// (`checkpoint.rs`, the snapshot store, is allowed to name variants
/// too). Any other serve-layer file naming a
/// `PartialState` variant outside its `#[cfg(test)]` module has grown a
/// per-method branch of its own — the pattern that made one new method
/// touch 25 files. Add a row to the table instead.
#[test]
fn partial_state_variants_are_owned_by_the_method_table() {
    let allowed = [
        "crates/mpmb-serve/src/solve.rs",
        "crates/mpmb-serve/src/checkpoint.rs",
    ];
    let mut offenders = Vec::new();
    for path in crate_lib_sources(&["mpmb-serve"]) {
        let src = std::fs::read_to_string(&path).expect("read source");
        let non_test = src.split("#[cfg(test)]\nmod ").next().unwrap_or_default();
        if names_partial_state_variant(non_test) && !allowed.contains(&rel(&path).as_str()) {
            offenders.push(rel(&path));
        }
    }
    assert!(
        offenders.is_empty(),
        "`PartialState::<Variant>` outside the method table: {offenders:?}\n\
         add a row to the table in crates/mpmb-serve/src/solve.rs instead"
    );
    // The guard itself must see variants where they do live.
    let table = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/mpmb-serve/src/solve.rs"),
    )
    .expect("read solve.rs");
    assert!(names_partial_state_variant(&table));
}

/// The serving layer must never reach for per-trial RNG streams — it
/// drives solvers exclusively through `advance_*` + `Executor::resume`.
#[test]
fn serve_layer_has_no_trial_rng() {
    for path in crate_lib_sources(&["mpmb-serve"]) {
        let src = std::fs::read_to_string(&path).expect("read source");
        assert!(
            !src.contains("trial_rng"),
            "{} touches trial_rng; solver execution belongs to mpmb-core's Executor",
            rel(&path)
        );
    }
}

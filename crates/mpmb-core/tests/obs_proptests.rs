//! Observability must be *free of observable effects* on solver output:
//! with a trace sink enabled and a profile + solver-metrics context
//! installed, every engine must
//! produce accumulators bit-identical to an uninstrumented run — at
//! thread counts 1 and 4 (the ISSUE-4 acceptance matrix).
//!
//! The trace sink is process-global, so this test binary enables a file
//! sink (to a scratch path) once and leaves it on for all cases; the
//! uninstrumented baselines are computed in a worker thread *without*
//! an installed context before the sink is turned on, per case.

use bigraph::{GraphBuilder, Left, Right, UncertainBipartiteGraph};
use mpmb_core::{
    enumerate_backbone_butterflies, Butterfly, Cancel, CandidateSet, Executor, KarpLubyTrials,
    KlCandidate, KlTrialPolicy, McVpTrials, OlsConfig, OptimizedTrials, OsConfig, OsTrials,
    PrepareTrials, QueryTrials, Tally,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const OBS_THREADS: [usize; 2] = [1, 4];

/// Same generator as the engine proptests: ≤ 24 edges over a 6×6 grid
/// so multi-butterfly graphs are common.
fn arb_graph() -> impl Strategy<Value = Vec<(u32, u32, f64, f64)>> {
    proptest::collection::btree_set((0u32..6, 0u32..6), 0..=24).prop_flat_map(|pairs| {
        let pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        let n = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(0u32..=64, n..=n),
            proptest::collection::vec(0u32..=10, n..=n),
        )
            .prop_map(|(pairs, ws, ps)| {
                pairs
                    .into_iter()
                    .zip(ws.iter().zip(ps.iter()))
                    .map(|((u, v), (&w, &p))| (u, v, w as f64 / 4.0, p as f64 / 10.0))
                    .collect()
            })
    })
}

fn build(edges: &[(u32, u32, f64, f64)]) -> UncertainBipartiteGraph {
    let mut b = GraphBuilder::new();
    for &(u, v, w, p) in edges {
        b.add_edge(Left(u), Right(v), w, p).unwrap();
    }
    b.build().unwrap()
}

fn tally_bytes(t: &Tally) -> (u64, BTreeMap<Butterfly, u64>) {
    (t.trials(), t.counts().map(|(b, &c)| (*b, c)).collect())
}

fn kl_bytes(acc: &[(u32, KlCandidate)]) -> Vec<(u32, u64, u64, u64)> {
    let mut rows: Vec<_> = acc
        .iter()
        .map(|&(i, c)| (i, c.prob.to_bits(), c.trials, c.s_value.to_bits()))
        .collect();
    rows.sort_unstable();
    rows
}

/// Enables the global trace sink exactly once for this test process.
fn enable_trace_sink() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let path = std::env::temp_dir().join(format!("mpmb-obs-prop-{}.jsonl", std::process::id()));
        obs::set_sink_file(&path).expect("trace sink file");
    });
}

/// Runs `f` fully instrumented: trace sink on, a fresh profile and
/// solver-metrics context installed for the duration.
fn with_full_observability<T>(f: impl FnOnce() -> T) -> (T, Arc<obs::Profile>) {
    enable_trace_sink();
    let profile = Arc::new(obs::Profile::new());
    let registry = Arc::new(obs::Registry::new());
    let solver = Arc::new(obs::SolverMetrics::new(registry));
    let trace_id = obs::next_trace_id();
    let guard = obs::install(obs::ObsCtx {
        trace_id: Some(trace_id.clone()),
        span: Some(obs::SpanContext::root(trace_id)),
        profile: Some(profile.clone()),
        solver: Some(solver),
    });
    let out = f();
    drop(guard);
    (out, profile)
}

/// Runs `f` with no context on the current thread. The sink may already
/// be on globally (it must not matter — that is the point of the test),
/// so "uninstrumented" here means: no trace id, no profile, no solver
/// metrics.
fn without_ctx<T>(f: impl FnOnce() -> T) -> T {
    let guard = obs::install(obs::ObsCtx::default());
    let out = f();
    drop(guard);
    out
}

proptest! {
    /// OS and MC-VP tallies: instrumented (trace + profile + solver
    /// metrics) equals uninstrumented, bitwise, at threads 1 and 4.
    #[test]
    fn tally_engines_unchanged_by_observability(
        edges in arb_graph(),
        seed in 0u64..1_000,
    ) {
        let g = build(&edges);
        let trials = 160u64;
        let os = OsTrials::new(&g, &OsConfig { seed, ..Default::default() });
        let mcvp = McVpTrials::new(&g, seed);

        let os_base = without_ctx(|| Executor::new(1).run(&os, trials, &Cancel::never()));
        let mc_base = without_ctx(|| Executor::new(1).run(&mcvp, trials, &Cancel::never()));

        for threads in OBS_THREADS {
            let ((os_obs, mc_obs), profile) = with_full_observability(|| {
                let os_obs = Executor::new(threads).run(&os, trials, &Cancel::never());
                let mc_obs = Executor::new(threads).run(&mcvp, trials, &Cancel::never());
                (os_obs, mc_obs)
            });
            prop_assert_eq!(
                tally_bytes(&os_obs.acc),
                tally_bytes(&os_base.acc),
                "os threads={}", threads
            );
            prop_assert_eq!(
                tally_bytes(&mc_obs.acc),
                tally_bytes(&mc_base.acc),
                "mcvp threads={}", threads
            );
            // And the profile actually captured the phases.
            let phases: Vec<String> =
                profile.snapshot().into_iter().map(|p| p.name).collect();
            prop_assert!(phases.contains(&"os.sample".to_string()));
            prop_assert!(phases.contains(&"mcvp.sample".to_string()));
        }
    }

    /// The full OLS pipeline (prepare → listing → optimized estimator)
    /// and Karp-Luby: candidate sets and accumulators are bit-identical
    /// with observability on, at threads 1 and 4.
    #[test]
    fn ols_and_kl_unchanged_by_observability(
        edges in arb_graph(),
        seed in 0u64..1_000,
    ) {
        let g = build(&edges);
        let (cfg, prep_trials) = (OlsConfig { seed, ..Default::default() }, 48);
        let prep = PrepareTrials::new(&g, &cfg);
        let (base_cands, kl_base) = without_ctx(|| {
            let union = Executor::new(1).run(&prep, prep_trials, &Cancel::never()).acc;
            let cands = prep.finalize(union);
            let kl_base = (!cands.is_empty()).then(|| {
                let kl = KarpLubyTrials::new(&g, &cands, KlTrialPolicy::Fixed(64), seed);
                Executor::new(1).check_every(1).run(&kl, kl.trials(), &Cancel::never()).acc
            });
            (cands, kl_base)
        });
        let opt_base = (!base_cands.is_empty()).then(|| without_ctx(|| {
            let opt = OptimizedTrials::new(&g, &base_cands, seed);
            Executor::new(1).run(&opt, 120, &Cancel::never())
        }));

        for threads in OBS_THREADS {
            let (cands, _) = with_full_observability(|| {
                let union = Executor::new(threads)
                    .run(&prep, prep_trials, &Cancel::never())
                    .acc;
                prep.finalize(union)
            });
            prop_assert_eq!(cands.len(), base_cands.len(), "threads={}", threads);
            for i in 0..cands.len() {
                prop_assert_eq!(cands.get(i).butterfly, base_cands.get(i).butterfly);
                prop_assert_eq!(
                    cands.get(i).weight.to_bits(),
                    base_cands.get(i).weight.to_bits()
                );
            }
            if let Some(base) = &opt_base {
                let (obs_run, profile) = with_full_observability(|| {
                    let opt = OptimizedTrials::new(&g, &base_cands, seed);
                    Executor::new(threads).run(&opt, 120, &Cancel::never())
                });
                prop_assert_eq!(
                    tally_bytes(&obs_run.acc),
                    tally_bytes(&base.acc),
                    "optimized threads={}", threads
                );
                prop_assert!(profile
                    .snapshot()
                    .iter()
                    .any(|p| p.name == "ols.sample" && p.items == 120));
            }
            if let Some(base) = &kl_base {
                let (obs_acc, _) = with_full_observability(|| {
                    let kl = KarpLubyTrials::new(&g, &base_cands, KlTrialPolicy::Fixed(64), seed);
                    Executor::new(threads)
                        .check_every(1)
                        .run(&kl, kl.trials(), &Cancel::never())
                        .acc
                });
                prop_assert_eq!(kl_bytes(&obs_acc), kl_bytes(base), "kl threads={}", threads);
            }
        }
    }

    /// Conditioned queries and the backbone candidate-set build are
    /// likewise untouched by instrumentation.
    #[test]
    fn query_and_listing_unchanged_by_observability(
        edges in arb_graph(),
        seed in 0u64..1_000,
    ) {
        let g = build(&edges);
        let listing = || CandidateSet::from_butterflies(&g, enumerate_backbone_butterflies(&g));
        let base_set = without_ctx(listing);
        let (set, _) = with_full_observability(listing);
        prop_assert_eq!(set.len(), base_set.len());
        for i in 0..set.len() {
            prop_assert_eq!(set.get(i).butterfly, base_set.get(i).butterfly);
        }
        if base_set.is_empty() {
            return Ok(());
        }
        let target = base_set.get(0).butterfly;
        let query = QueryTrials::new(&g, &target, seed).expect("backbone butterfly");
        let trials = 96u64;
        let base_hits = without_ctx(|| {
            Executor::new(1).run(&query, trials, &Cancel::never()).acc
        });
        for threads in OBS_THREADS {
            let (hits, _) = with_full_observability(|| {
                Executor::new(threads).run(&query, trials, &Cancel::never()).acc
            });
            prop_assert_eq!(hits, base_hits, "query threads={}", threads);
        }
    }
}

/// The `--profile` acceptance shape on a fixed graph: engine phases are
/// recorded with exact trial counts, and the recorded durations are
/// consistent (each phase no longer than the whole instrumented run).
#[test]
fn profile_phase_items_match_trials() {
    let g = {
        let mut b = GraphBuilder::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                b.add_edge(Left(u), Right(v), (u * 4 + v) as f64, 0.5)
                    .unwrap();
            }
        }
        b.build().unwrap()
    };
    let (cfg, prep_trials) = (
        OlsConfig {
            seed: 7,
            ..Default::default()
        },
        32,
    );
    let prep = PrepareTrials::new(&g, &cfg);
    let started = std::time::Instant::now();
    let ((), profile) = with_full_observability(|| {
        let union = Executor::new(2)
            .run(&prep, prep_trials, &Cancel::never())
            .acc;
        let cands = prep.finalize(union);
        assert!(!cands.is_empty());
        let opt = OptimizedTrials::new(&g, &cands, 7);
        let _ = Executor::new(2).run(&opt, 200, &Cancel::never());
    });
    let wall = started.elapsed().as_secs_f64();
    let snap = profile.snapshot();
    let get = |name: &str| snap.iter().find(|p| p.name == name).cloned();
    let prep_phase = get("ols.prepare").expect("prepare phase recorded");
    assert_eq!(prep_phase.items, 32);
    let listing = get("ols.listing").expect("listing phase recorded");
    assert!(listing.items > 0);
    let sample = get("ols.sample").expect("sampling phase recorded");
    assert_eq!(sample.items, 200);
    assert!(profile.total_secs() <= wall * 1.5 + 0.05);
    let _ = CandidateSet::from_butterflies(&g, Vec::new());
}

#![warn(missing_docs)]

//! Most Probable Maximum Weighted Butterfly (MPMB) search.
//!
//! From-scratch implementation of the algorithms in *"Most Probable
//! Maximum Weighted Butterfly Search"* (ICDE 2025):
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 (MC-VP baseline) | [`McVp`] |
//! | Algorithm 2 (Ordering Sampling) | [`OrderingSampling`] |
//! | Algorithm 3 (Ordering-Listing Sampling) | [`OrderingListingSampling`] |
//! | Algorithm 4 (Karp-Luby estimator) | [`estimators::karp_luby`] |
//! | Algorithm 5 (optimized estimator) | [`estimators::optimized`] |
//! | Theorem IV.1 / Lemma VI.4 / Eq. 8–9 | [`bounds`] |
//! | Lemma III.1 reduction | [`hardness`] |
//! | Exact `P(B)` ground truth | [`exact`] |
//! | §VII top-k MPMB | [`Distribution::top_k`] |
//!
//! All solvers are deterministic given their seed, including under the
//! multi-threaded [`engine::Executor`] (which splits trial budgets with
//! the canonical [`chunk_ranges`] partition).

pub mod adaptive;
pub mod angle;
pub mod bounds;
pub mod butterfly;
pub mod candidates;
pub mod checkpoint;
pub mod counting;
pub mod distribution;
pub mod engine;
pub mod estimators;
pub mod exact;
pub mod hardness;
pub mod listing;
pub mod mcvp;
pub mod ols;
pub mod os;
pub mod query;
pub mod topk;

pub use adaptive::{fast_escalation_needed, run_os_adaptive, AdaptiveConfig, AdaptiveResult};
pub use angle::TopTwoAngles;
pub use butterfly::{
    count_backbone_butterflies, enumerate_backbone_butterflies, for_each_backbone_butterfly,
    max_butterflies_in_world, Butterfly,
};
pub use candidates::{Candidate, CandidateSet};
pub use checkpoint::{decode_exact, encode_to_vec, Checkpoint};
pub use counting::CountTrials;
pub use counting::{
    count_distribution_from_histogram, exact_count_variance, sample_count_distribution,
    sample_count_distribution_parallel, CountDistribution, TooManyButterflies,
};
pub use distribution::{Distribution, Tally};
pub use engine::{
    chunk_ranges, convergence_trace, AbsorbError, Cancel, Executor, Partial, TrialEngine,
    CHECK_EVERY,
};
pub use estimators::karp_luby::{
    estimate_karp_luby, KarpLubyTrials, KlCandidate, KlReport, KlTrialPolicy,
};
pub use estimators::optimized::{estimate_optimized, OptimizedTrials};
pub use estimators::sublinear::{
    estimate_fast, finalize_rows, FastEstimate, FastSample, SublinearConfig, SublinearTrials,
};
pub use exact::{exact_distribution, exact_mpmb, exact_prob, ExactConfig, ExactError};
pub use hardness::{Monotone2Sat, Reduction};
pub use listing::{
    backbone_candidate_set, count_backbone_butterflies_parallel,
    enumerate_backbone_butterflies_parallel, listing_shards,
};
pub use mcvp::{McVp, McVpConfig, McVpTrials};
pub use ols::{EstimatorKind, OlsConfig, OlsResult, OrderingListingSampling, PrepareTrials};
pub use os::{
    os_smb_of_world, EdgeOracle, OrderingSampling, OsConfig, OsEngine, OsTrials, SamplingOracle,
    StreamingOracle, WorldOracle,
};
pub use query::{estimate_prob_of, QueryResult, QueryTrials};
pub use topk::{shared_vertices, top_k_diverse};

#![warn(missing_docs)]

//! Most Probable Maximum Weighted Butterfly (MPMB) search.
//!
//! From-scratch implementation of the algorithms in *"Most Probable
//! Maximum Weighted Butterfly Search"* (ICDE 2025):
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 (MC-VP baseline) | [`McVpTrials`] |
//! | Algorithm 2 (Ordering Sampling) | [`OsTrials`] |
//! | Algorithm 3 (Ordering-Listing Sampling), preparing | [`PrepareTrials`] |
//! | Algorithm 4 (Karp-Luby estimator) | [`KarpLubyTrials`] |
//! | Algorithm 5 (optimized estimator) | [`OptimizedTrials`] |
//! | Theorem IV.1 / Lemma VI.4 / Eq. 8–9 | [`bounds`] |
//! | Lemma III.1 reduction | [`hardness`] |
//! | Exact `P(B)` ground truth | [`exact`] |
//! | §VII top-k MPMB | [`Distribution::top_k`] |
//!
//! Each algorithm is a per-trial body (a [`TrialEngine`]) plus a fold;
//! the trial count is the caller's, passed to the one trial loop,
//! [`engine::Executor`]. Every engine is deterministic given its seed at
//! any thread count (the executor splits trial budgets with the
//! canonical [`chunk_ranges`] partition). `mpmb_serve`'s method table
//! composes these engines into whole methods (OLS = preparing, then an
//! estimator).

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
mod listing;
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
pub use checkpoint::Checkpoint;
pub use counting::CountTrials;
pub use counting::{
    count_distribution_from_histogram, exact_count_variance, CountDistribution, TooManyButterflies,
};
pub use distribution::{Distribution, Tally};
pub use engine::{
    chunk_ranges, convergence_trace, AbsorbError, Cancel, Executor, Partial, TrialEngine,
    CHECK_EVERY,
};
pub use estimators::karp_luby::{KarpLubyTrials, KlCandidate, KlReport, KlTrialPolicy};
pub use estimators::optimized::OptimizedTrials;
pub use estimators::sublinear::{FastEstimate, FastSample, SublinearTrials};
pub use exact::{exact_distribution, exact_prob, ExactConfig, ExactError};
pub use hardness::{Monotone2Sat, Reduction};
pub use mcvp::McVpTrials;
pub use ols::{OlsConfig, PrepareTrials};
pub use os::{
    os_smb_of_world, EdgeOracle, OsConfig, OsEngine, OsTrials, SamplingOracle, StreamingOracle,
    WorldOracle,
};
pub use query::{QueryResult, QueryTrials};
pub use topk::{shared_vertices, top_k_diverse};

//! OLS sampling-phase probability estimators: the paper's optimized
//! shared-trial sampler (Algorithm 5) and Karp-Luby (Algorithm 4).

pub mod karp_luby;
pub mod optimized;
pub mod sublinear;

//! Fig. 13: peak memory consumption of the four methods per dataset.
//!
//! Requires the measuring binary to install [`memtrack::CountingAllocator`]
//! as the global allocator (the `repro` binary does); without it every
//! peak reads 0 and the table says so.

use crate::experiments::{mcvp_budgeted, os_budgeted, solve, ExpOptions};
use crate::report::{fmt_bytes, Table};
use crate::BenchDataset;
use mpmb_serve::{Job, Method};

/// Peak bytes per method for one dataset.
#[derive(Clone, Copy, Debug)]
pub struct Fig13Row {
    /// MC-VP peak above baseline.
    pub mcvp: usize,
    /// OS peak above baseline.
    pub os: usize,
    /// OLS-KL peak above baseline.
    pub ols_kl: usize,
    /// OLS peak above baseline.
    pub ols: usize,
    /// Bytes the graph itself holds (approximate: measured at build).
    pub graph_bytes: usize,
}

/// Measures the four methods on one dataset. Trial counts are reduced —
/// peak memory is insensitive to trial count (scratch is reused across
/// trials), so a few trials capture the high-water mark.
pub fn measure(d: &BenchDataset, opts: &ExpOptions) -> Fig13Row {
    let g = &d.graph;
    let trials = opts.plan.direct_trials.clamp(1, 64);
    let (_, mcvp) = memtrack::measure_peak(|| mcvp_budgeted(g, trials, opts.seed, opts.budget));
    let (_, os) = memtrack::measure_peak(|| os_budgeted(g, trials, opts.seed, opts.budget));
    let prep = opts.plan.prep_trials.clamp(1, 64);
    let sampling = opts.plan.sampling_trials.clamp(1, 256);
    let job = |method| Job::new(method, sampling, prep, opts.seed);
    let (_, ols_kl) = memtrack::measure_peak(|| solve(g, &job(Method::OlsKl)));
    let (_, ols) = memtrack::measure_peak(|| solve(g, &job(Method::Ols)));
    // Rebuilding a clone approximates the graph's own footprint.
    let (clone, graph_bytes) = memtrack::measure_peak(|| g.clone());
    drop(clone);
    Fig13Row {
        mcvp,
        os,
        ols_kl,
        ols,
        graph_bytes,
    }
}

/// Renders the memory table.
pub fn run(datasets: &[BenchDataset], opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig. 13: peak memory above baseline (counting allocator)",
        &["dataset", "graph", "MC-VP", "OS", "OLS-KL", "OLS"],
    );
    for d in datasets {
        let r = measure(d, opts);
        t.row(&[
            d.dataset.name().to_string(),
            fmt_bytes(r.graph_bytes),
            fmt_bytes(r.mcvp),
            fmt_bytes(r.os),
            fmt_bytes(r.ols_kl),
            fmt_bytes(r.ols),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::{fast_options, tiny_datasets};

    #[test]
    fn table_shape_without_allocator() {
        // In the test binary the counting allocator is NOT installed, so
        // peaks are zero — the table must still render.
        let ds = tiny_datasets();
        let t = run(&ds[..1], &fast_options());
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("MC-VP"));
    }
}

//! Budgeted timing: the stand-in for the paper's 4-hour timeout.
//!
//! MC-VP on the larger datasets "cannot finish the process … within 4
//! hours" (§VIII-C); the paper reports a timeout. At laptop scale we do
//! the same thing proportionally: run trials until either the requested
//! count or a wall-clock budget is exhausted, then report the measured
//! time and — when truncated — the per-trial extrapolation to the full
//! count.

use mpmb_core::{Cancel, Executor, Partial, TrialEngine};
use std::time::{Duration, Instant};

/// Outcome of a budgeted run.
#[derive(Clone, Copy, Debug)]
pub struct BudgetedTime {
    /// Trials actually executed.
    pub completed_trials: u64,
    /// Trials that were requested.
    pub requested_trials: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// `elapsed` when complete; otherwise the per-trial extrapolation to
    /// `requested_trials`.
    pub estimated_total: Duration,
}

impl BudgetedTime {
    /// Whether the run finished all requested trials.
    pub fn finished(&self) -> bool {
        self.completed_trials == self.requested_trials
    }

    /// Human-readable summary: exact time, or `>budget (~extrapolated)`.
    pub fn display(&self) -> String {
        if self.finished() {
            format!("{:.3}s", self.elapsed.as_secs_f64())
        } else {
            format!(
                ">{:.1}s timeout (~{:.1}s extrapolated for {} trials)",
                self.elapsed.as_secs_f64(),
                self.estimated_total.as_secs_f64(),
                self.requested_trials
            )
        }
    }
}

/// Runs `engine`'s trials `0..trials` on one thread of the production
/// [`Executor`] until they finish or `budget` is spent — checked before
/// every trial: a clock read is nanoseconds, while a trial on the large
/// datasets can take seconds. Returns the timing, extrapolated from the
/// completed trials when truncated, and their partial.
pub fn budgeted<E: TrialEngine>(
    engine: &E,
    trials: u64,
    budget: Duration,
) -> (BudgetedTime, Partial<E::Acc>) {
    let start = Instant::now();
    let cancel = Cancel::at(Some(start + budget));
    let partial = Executor::new(1).check_every(1).run(engine, trials, &cancel);
    let elapsed = start.elapsed();
    let completed = partial.trials_done();
    let estimated_total = if completed == trials {
        elapsed
    } else {
        Duration::from_secs_f64(elapsed.as_secs_f64() / completed.max(1) as f64 * trials as f64)
    };
    let timing = BudgetedTime {
        completed_trials: completed,
        requested_trials: trials,
        elapsed,
        estimated_total,
    };
    (timing, partial)
}

/// Times a closure, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts its trials; each one sleeps `nap`.
    struct Napping {
        nap: Duration,
    }

    impl TrialEngine for Napping {
        type Acc = u64;
        type Scratch = ();

        fn new_acc(&self) -> u64 {
            0
        }

        fn new_scratch(&self) {}

        fn trial(&self, _t: u64, _scratch: &mut (), acc: &mut u64) {
            std::thread::sleep(self.nap);
            *acc += 1;
        }

        fn merge(&self, into: &mut u64, from: u64) {
            *into += from;
        }
    }

    #[test]
    fn completes_within_budget() {
        let engine = Napping {
            nap: Duration::ZERO,
        };
        let (t, partial) = budgeted(&engine, 10, Duration::from_secs(60));
        assert!(t.finished());
        assert_eq!(partial.acc, 10);
        assert_eq!(t.estimated_total, t.elapsed);
        assert!(t.display().ends_with('s'));
    }

    #[test]
    fn truncates_and_extrapolates() {
        let engine = Napping {
            nap: Duration::from_millis(1),
        };
        let (t, partial) = budgeted(&engine, 1_000_000, Duration::from_millis(30));
        assert!(!t.finished());
        assert!(t.completed_trials < 1_000_000);
        assert_eq!(partial.acc, t.completed_trials);
        assert!(t.estimated_total > t.elapsed);
        assert!(t.display().contains("timeout"));
        // Extrapolation ≈ requested/completed × elapsed.
        let ratio = t.estimated_total.as_secs_f64() / t.elapsed.as_secs_f64();
        let expect = 1_000_000.0 / t.completed_trials as f64;
        assert!(
            (ratio / expect - 1.0).abs() < 0.01,
            "ratio {ratio} vs {expect}"
        );
    }

    #[test]
    fn time_it_returns_value() {
        let (v, secs) = time_it(|| 7 * 6);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}

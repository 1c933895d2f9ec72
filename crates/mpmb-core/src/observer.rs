//! Per-trial observation hooks for convergence experiments (Fig. 11/12).
//!
//! The sampling solvers report each trial's `S_MB` to an observer, which
//! can maintain running estimates without the solver re-running at every
//! checkpoint. The cost when unused is one virtual call per trial.
//!
//! Observers that also implement [`TrialObserver::fork`] participate in
//! *parallel* runs: the executor forks one child per chunk, workers feed
//! their chunk-local child, and the children are folded back with
//! [`TrialObserver::absorb`] on the coordinating thread in ascending
//! chunk order — so the merged statistics are deterministic for any
//! thread schedule. Observers that keep the default `fork` (`None`)
//! retain the historical behavior of only seeing sequential runs.

use crate::butterfly::Butterfly;
use std::any::Any;

/// Receives each finished trial's maximum-butterfly set.
pub trait TrialObserver {
    /// Called after trial `trial` (0-based) with its `S_MB` (possibly
    /// empty when the sampled world contained no butterfly).
    fn observe(&mut self, trial: u64, smb: &[Butterfly]);

    /// Creates an independent child observer for one parallel chunk.
    /// `None` (the default) opts out of parallel observation: parallel
    /// runs then feed this observer nothing.
    fn fork(&self) -> Option<Box<dyn TrialObserver + Send>> {
        None
    }

    /// Folds a child produced by [`TrialObserver::fork`] back into
    /// `self`. The executor calls this on the coordinating thread in
    /// ascending chunk order once the chunk's worker has joined.
    fn absorb(&mut self, _chunk: Box<dyn TrialObserver + Send>) {}

    /// Downcast support so `absorb` implementations can recover their
    /// concrete fork type. Forkable observers should return
    /// `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// An observer that ignores everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl TrialObserver for NoopObserver {
    #[inline]
    fn observe(&mut self, _trial: u64, _smb: &[Butterfly]) {}
}

/// Tracks the running estimate `P̂(B)` of one target butterfly, snapshotting
/// every `every` trials — the trace plotted in Fig. 11.
#[derive(Clone, Debug)]
pub struct ConvergenceTracker {
    target: Butterfly,
    every: u64,
    hits: u64,
    trials: u64,
    points: Vec<(u64, f64)>,
}

impl ConvergenceTracker {
    /// Creates a tracker for `target` snapshotting every `every` trials.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn new(target: Butterfly, every: u64) -> Self {
        assert!(every > 0, "snapshot interval must be positive");
        ConvergenceTracker {
            target,
            every,
            hits: 0,
            trials: 0,
            points: Vec::new(),
        }
    }

    /// The `(trials, P̂)` snapshots collected so far.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// The final running estimate.
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }

    /// Total observed trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }
}

impl TrialObserver for ConvergenceTracker {
    fn observe(&mut self, _trial: u64, smb: &[Butterfly]) {
        self.trials += 1;
        if smb.contains(&self.target) {
            self.hits += 1;
        }
        if self.trials.is_multiple_of(self.every) {
            self.points.push((self.trials, self.estimate()));
        }
    }

    /// Parallel support: each chunk tracks hits/trials locally; the
    /// chunks' points are discarded (a chunk-local running estimate is
    /// meaningless) and snapshots are taken at absorb time instead, so
    /// parallel traces are block-granular but deterministic.
    fn fork(&self) -> Option<Box<dyn TrialObserver + Send>> {
        Some(Box::new(ConvergenceTracker::new(self.target, self.every)))
    }

    fn absorb(&mut self, mut chunk: Box<dyn TrialObserver + Send>) {
        let Some(c) = chunk
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<ConvergenceTracker>())
        else {
            return;
        };
        let before = self.trials;
        self.hits += c.hits;
        self.trials += c.trials;
        if before / self.every != self.trials / self.every {
            self.points.push((self.trials, self.estimate()));
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{Left, Right};

    fn bf(u1: u32, u2: u32) -> Butterfly {
        Butterfly::new(Left(u1), Left(u2), Right(0), Right(1))
    }

    #[test]
    fn tracker_counts_hits_and_snapshots() {
        let target = bf(0, 1);
        let other = bf(0, 2);
        let mut t = ConvergenceTracker::new(target, 2);
        t.observe(0, &[target]);
        t.observe(1, &[other]);
        t.observe(2, &[target, other]);
        t.observe(3, &[]);
        assert_eq!(t.trials(), 4);
        assert_eq!(t.estimate(), 0.5);
        assert_eq!(t.points(), &[(2, 0.5), (4, 0.5)]);
    }

    #[test]
    fn tracker_estimate_before_any_trial_is_zero() {
        let t = ConvergenceTracker::new(bf(0, 1), 10);
        assert_eq!(t.estimate(), 0.0);
        assert!(t.points().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tracker_rejects_zero_interval() {
        let _ = ConvergenceTracker::new(bf(0, 1), 0);
    }

    #[test]
    fn noop_observer_is_inert() {
        let mut n = NoopObserver;
        n.observe(0, &[bf(0, 1)]);
        assert!(n.fork().is_none());
    }

    #[test]
    fn tracker_fork_absorb_merges_counts_deterministically() {
        let target = bf(0, 1);
        let mut root = ConvergenceTracker::new(target, 4);
        // Two chunk forks fed out of order by "workers"; absorb happens
        // in chunk order regardless.
        let mut f0 = root.fork().unwrap();
        let mut f1 = root.fork().unwrap();
        for t in 0..4 {
            f0.observe(t, &[target]);
        }
        let hit = [target];
        for t in 4..8 {
            f1.observe(t, if t % 2 == 0 { &hit } else { &[] });
        }
        root.absorb(f0);
        root.absorb(f1);
        assert_eq!(root.trials(), 8);
        assert_eq!(root.estimate(), 6.0 / 8.0);
        // One block-granular snapshot per absorbed chunk that crossed a
        // multiple of `every`.
        assert_eq!(root.points(), &[(4, 1.0), (8, 0.75)]);
    }
}

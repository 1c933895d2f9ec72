//! The single trial-execution engine behind every sampler.
//!
//! All of the paper's samplers — MC-VP (Alg. 1), Ordering Sampling
//! (Alg. 2), the OLS preparing phase and both of its estimators
//! (Alg. 4/5) — plus the counting and conditioned-query extensions share
//! one shape: *run N independent, index-keyed trials and fold the
//! results*. This module implements that shape exactly once.
//!
//! * [`TrialEngine`] is the per-method plug-in: how to run trial `t`
//!   into an accumulator, and how to merge two accumulators.
//! * [`Executor`] owns the loop: sequential or chunked-parallel (via
//!   [`chunk_ranges`], per-chunk accumulators merged in chunk order),
//!   with a cooperative [`Cancel`] check every [`CHECK_EVERY`] trials.
//! * [`Partial`] is the resumable outcome: the accumulator plus the
//!   exact trial ranges that ran. A cancelled run can be
//!   [resumed](Executor::resume) — even across processes holding the
//!   same inputs — to a final result **bit-identical** to an
//!   uninterrupted run.
//!
//! Slicing a run and resuming it is also the one way to watch it
//! progress: `solve --progress`, deadlines, checkpoints and cluster
//! ranges all resume one [`Partial`], and [`convergence_trace`] reads
//! a [`Tally`]'s running estimate between slices (Fig. 11).
//!
//! # Determinism contract
//!
//! Engines must derive each trial's randomness from the trial index
//! alone (`trial_rng(seed, t)` streams), never from execution order,
//! and their `merge` must be order-insensitive up to the finalized
//! output (integer tallies, index-tagged rows, set unions). Under that
//! contract the executor guarantees: for any thread count, any
//! cancellation point, and any resume schedule, completing all `N`
//! trials yields the same bytes as one sequential pass.

use crate::butterfly::Butterfly;
use crate::distribution::Tally;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Splits `total` trials into at most `threads` contiguous, non-empty
/// ranges covering `0..total` in order.
///
/// This is the canonical trial partition for every deterministic parallel
/// runner in the workspace: merging per-range results *in range order*
/// reproduces the sequential trial order exactly, so any two callers that
/// split with this function and merge in order produce bit-identical
/// output. The [`Executor`] is built on it; external drivers should go
/// through the executor rather than reimplementing the split.
pub fn chunk_ranges(total: u64, threads: usize) -> Vec<Range<u64>> {
    let threads = threads.max(1) as u64;
    let per = total.div_ceil(threads);
    (0..threads)
        .map(|i| (i * per).min(total)..((i + 1) * per).min(total))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Trials between cancellation checks. Small enough that a block
/// finishes quickly even on large graphs; large enough that the
/// `Instant::now` call is amortized away. Heavy-trial engines
/// (Karp-Luby, where one "trial" is a whole candidate) should lower it
/// with [`Executor::check_every`].
pub const CHECK_EVERY: u64 = 64;

/// A cooperative cancellation handle shared by every worker of a run:
/// an optional wall-clock deadline, an optional trial budget, and a
/// flag that latches once any of them fires (or [`Cancel::raise`] is
/// called).
#[derive(Debug, Default)]
pub struct Cancel {
    deadline: Option<Instant>,
    budget: Option<u64>,
    progressed: AtomicU64,
    raised: AtomicBool,
    checks: AtomicU64,
}

impl Cancel {
    /// A handle that never cancels.
    pub fn never() -> Self {
        Cancel::default()
    }

    /// A handle that cancels at `deadline` (never, if `None`).
    pub fn at(deadline: Option<Instant>) -> Self {
        Cancel {
            deadline,
            ..Cancel::default()
        }
    }

    /// A handle that cancels once roughly `budget` trials have run
    /// (workers report progress at block granularity, so a few more
    /// than `budget` may complete). Deterministic — no clock involved —
    /// which is what the cancel-and-resume tests are built on.
    pub fn after_trials(budget: u64) -> Self {
        Cancel {
            budget: Some(budget),
            ..Cancel::default()
        }
    }

    /// Cancels now. Latches; `expired` returns true from here on.
    pub fn raise(&self) {
        self.raised.store(true, Ordering::Relaxed);
    }

    /// Whether work should stop. Latches: once true, stays true.
    pub fn expired(&self) -> bool {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.raised.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.raise();
                true
            }
            _ => false,
        }
    }

    /// Whether the flag has latched, without performing (or counting) a
    /// cancellation probe. Instrumentation uses this to report a run's
    /// outcome without disturbing the deadline clock.
    pub fn is_raised(&self) -> bool {
        self.raised.load(Ordering::Relaxed)
    }

    /// Number of cancellation probes ([`Cancel::expired`] calls)
    /// performed against this handle so far.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Reports `trials` newly completed trials; raises the flag once
    /// the budget (if any) is spent. Called by executor workers at
    /// block boundaries.
    pub fn note_progress(&self, trials: u64) {
        if let Some(budget) = self.budget {
            let done = self.progressed.fetch_add(trials, Ordering::Relaxed) + trials;
            if done >= budget {
                self.raise();
            }
        }
    }
}

/// A sampler expressed as independent, index-keyed trials.
///
/// The executor may run trials in any order, on any thread, in any
/// grouping — implementations must make trial `t`'s contribution a pure
/// function of `t` (derive RNG streams as `trial_rng(seed, t)`), and
/// `merge` must commute up to the finalized output.
pub trait TrialEngine: Sync {
    /// Per-worker result accumulator (a tally, a union, tagged rows…).
    type Acc: Send;
    /// Per-worker scratch reused across trials (samplers, buffers).
    type Scratch;

    /// A fresh, empty accumulator.
    fn new_acc(&self) -> Self::Acc;

    /// Fresh per-worker scratch.
    fn new_scratch(&self) -> Self::Scratch;

    /// Runs trial `trial_idx`, folding its outcome into `acc`.
    fn trial(&self, trial_idx: u64, scratch: &mut Self::Scratch, acc: &mut Self::Acc);

    /// Folds `from` (a disjoint trial range's accumulator) into `into`.
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);

    /// Dotted lowercase phase label for observability (span names and
    /// the `phase` label on solver metrics), e.g. `"ols.prepare"`.
    fn phase(&self) -> &'static str {
        "engine.run"
    }
}

/// Outcome of a (possibly cancelled) run: the merged accumulator plus
/// the exact set of trial indices that produced it. Resumable via
/// [`Executor::resume`]; a resumed-to-completion partial finalizes
/// bit-identically to an uninterrupted run.
#[derive(Clone, Debug)]
pub struct Partial<A> {
    /// The merged accumulator over every completed trial.
    pub acc: A,
    /// Completed trial ranges: sorted, disjoint, non-adjacent.
    done: Vec<Range<u64>>,
    trials_requested: u64,
}

impl<A> Partial<A> {
    /// An empty partial: nothing run yet out of `trials_requested`.
    pub fn empty(acc: A, trials_requested: u64) -> Self {
        Partial {
            acc,
            done: Vec::new(),
            trials_requested,
        }
    }

    /// Trials the caller asked for.
    pub fn trials_requested(&self) -> u64 {
        self.trials_requested
    }

    /// Trials actually completed so far.
    pub fn trials_done(&self) -> u64 {
        self.done.iter().map(|r| r.end - r.start).sum()
    }

    /// Whether every requested trial ran.
    pub fn completed(&self) -> bool {
        self.trials_done() == self.trials_requested
    }

    /// The completed trial ranges (sorted, disjoint).
    pub fn done_ranges(&self) -> &[Range<u64>] {
        &self.done
    }

    /// The gaps still to run, in index order.
    pub fn missing(&self) -> Vec<Range<u64>> {
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        for r in &self.done {
            if r.start > cursor {
                gaps.push(cursor..r.start);
            }
            cursor = cursor.max(r.end);
        }
        if cursor < self.trials_requested {
            gaps.push(cursor..self.trials_requested);
        }
        gaps
    }

    /// Folds `other` — a partial over the **same** trial space whose
    /// completed ranges are disjoint from this one's — into `self`,
    /// using the engine-supplied `merge` for the accumulators.
    ///
    /// This is the scatter-gather primitive: a coordinator hands
    /// disjoint sub-ranges of `0..trials_requested` to workers (see
    /// [`Executor::resume_within`]), each returns a `Partial` covering
    /// only its assignment, and the coordinator absorbs them back.
    /// Under the module's determinism contract the absorbed result
    /// finalizes bit-identically to a single local run, regardless of
    /// how the space was partitioned or in which order the pieces
    /// arrive.
    ///
    /// # Errors
    /// Rejects (without mutating `self`) a partial over a different
    /// trial space, or one whose completed ranges overlap this one's —
    /// both indicate a protocol bug upstream, and silently
    /// double-counting trials would corrupt the estimate.
    pub fn absorb(
        &mut self,
        other: Partial<A>,
        merge: impl FnOnce(&mut A, A),
    ) -> Result<(), AbsorbError> {
        if other.trials_requested != self.trials_requested {
            return Err(AbsorbError::TrialSpaceMismatch {
                ours: self.trials_requested,
                theirs: other.trials_requested,
            });
        }
        if let Some(overlap) = other
            .done
            .iter()
            .find(|r| self.done.iter().any(|m| m.start < r.end && r.start < m.end))
        {
            return Err(AbsorbError::Overlap(overlap.clone()));
        }
        merge(&mut self.acc, other.acc);
        for r in other.done {
            self.mark_done(r);
        }
        Ok(())
    }

    /// Records `range` as completed, keeping `done` normalized.
    /// `pub(crate)` so [`checkpoint`](crate::checkpoint) decoding can
    /// rebuild a partial from its persisted ranges.
    pub(crate) fn mark_done(&mut self, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        self.done.push(range);
        self.done.sort_by_key(|r| r.start);
        let mut merged: Vec<Range<u64>> = Vec::with_capacity(self.done.len());
        for r in self.done.drain(..) {
            match merged.last_mut() {
                Some(last) if last.end >= r.start => last.end = last.end.max(r.end),
                _ => merged.push(r),
            }
        }
        self.done = merged;
    }
}

/// Why [`Partial::absorb`] refused to merge two partials.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsorbError {
    /// The two partials describe different trial spaces.
    TrialSpaceMismatch {
        /// `trials_requested` of the absorbing partial.
        ours: u64,
        /// `trials_requested` of the partial being absorbed.
        theirs: u64,
    },
    /// A completed range of the absorbed partial overlaps one already
    /// completed here (the first offending range is reported).
    Overlap(Range<u64>),
}

impl std::fmt::Display for AbsorbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsorbError::TrialSpaceMismatch { ours, theirs } => write!(
                f,
                "trial space mismatch: absorbing over {ours} trials, absorbed over {theirs}"
            ),
            AbsorbError::Overlap(r) => {
                write!(f, "range {}..{} already completed here", r.start, r.end)
            }
        }
    }
}

impl std::error::Error for AbsorbError {}

/// The one trial loop in the workspace: sequential or chunked-parallel
/// execution of a [`TrialEngine`], with cancellation and resume.
///
/// Parallel runs split the trial range with
/// [`chunk_ranges`] — the canonical
/// contiguous partition — and merge per-range accumulators in range
/// order, reproducing the sequential fold exactly.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
    check_every: u64,
}

impl Executor {
    /// An executor running on `threads` workers (values ≤ 1 mean
    /// sequential) with the default [`CHECK_EVERY`] cancellation
    /// granularity.
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            check_every: CHECK_EVERY,
        }
    }

    /// Overrides the cancellation-check granularity (trials per block).
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn check_every(mut self, every: u64) -> Self {
        assert!(every > 0, "check granularity must be positive");
        self.check_every = every;
        self
    }

    /// The worker count this executor runs on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs trials `0..trials`, stopping early if `cancel` fires.
    pub fn run<E: TrialEngine>(&self, engine: &E, trials: u64, cancel: &Cancel) -> Partial<E::Acc> {
        let mut partial = Partial::empty(engine.new_acc(), trials);
        self.advance(engine, &mut partial, 0..trials, cancel);
        partial
    }

    /// Resumes a cancelled run: executes the partial's missing ranges
    /// (until `cancel` fires) and folds them in. Completing every trial
    /// this way yields an accumulator bit-identical to an uninterrupted
    /// [`Executor::run`].
    pub fn resume<E: TrialEngine>(
        &self,
        engine: &E,
        partial: &mut Partial<E::Acc>,
        cancel: &Cancel,
    ) {
        let all = 0..partial.trials_requested();
        self.advance(engine, partial, all, cancel);
    }

    /// [`Executor::resume`] restricted to the missing trials inside
    /// `within` — the worker half of a scatter-gather partition. A
    /// worker starts from an empty partial over the full space and runs
    /// only its assigned range; absorbing such partials for a disjoint
    /// cover of the space into one master via [`Partial::absorb`]
    /// reproduces a local [`Executor::run`] bit-for-bit. Instrumented
    /// exactly like a local run: one phase span, one solver-metrics
    /// record.
    pub fn resume_within<E: TrialEngine>(
        &self,
        engine: &E,
        partial: &mut Partial<E::Acc>,
        within: Range<u64>,
        cancel: &Cancel,
    ) {
        self.advance(engine, partial, within, cancel);
    }

    /// The one instrumented trial loop: runs the partial's missing
    /// trials that fall inside `within`, until `cancel` fires.
    fn advance<E: TrialEngine>(
        &self,
        engine: &E,
        partial: &mut Partial<E::Acc>,
        within: Range<u64>,
        cancel: &Cancel,
    ) {
        // Observability preamble: when nothing observes, `span` is
        // inert and `started` stays `None`, so the cost is one
        // thread-local flag check plus one atomic load.
        let resumed = partial.trials_done() > 0;
        let before_done = partial.trials_done();
        let before_checks = cancel.checks();
        let mut span = obs::span(engine.phase());
        let started = span.is_active().then(Instant::now);

        for gap in partial.missing() {
            let gap = gap.start.max(within.start)..gap.end.min(within.end);
            if gap.is_empty() {
                continue;
            }
            if cancel.expired() {
                break;
            }
            for (acc, done) in self.run_range(engine, gap, cancel) {
                engine.merge(&mut partial.acc, acc);
                partial.mark_done(done);
            }
        }

        if let Some(t0) = started {
            let executed = partial.trials_done() - before_done;
            span.items(executed);
            span.field("threads", self.threads);
            span.field("resumed", resumed);
            span.field("cancelled", cancel.is_raised());
            span.field("completed", partial.completed());
            let secs = t0.elapsed().as_secs_f64();
            let checks = cancel.checks() - before_checks;
            obs::with_solver(|sm| {
                sm.record_phase(engine.phase(), secs, executed);
                sm.record_run(resumed, cancel.is_raised(), checks);
            });
        }
    }

    /// Executes one contiguous trial range, split across the executor's
    /// workers. Returns per-chunk `(accumulator, completed sub-range)`
    /// pairs in range order.
    fn run_range<E: TrialEngine>(
        &self,
        engine: &E,
        range: Range<u64>,
        cancel: &Cancel,
    ) -> Vec<(E::Acc, Range<u64>)> {
        if range.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 {
            return vec![self.run_chunk(engine, range, cancel)];
        }
        let chunks: Vec<Range<u64>> = chunk_ranges(range.end - range.start, self.threads)
            .into_iter()
            .map(|r| (range.start + r.start)..(range.start + r.end))
            .collect();
        // Workers inherit the spawning thread's observability context so
        // their spans join the same trace and profile.
        let ctx = obs::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _obs_guard = obs::install(ctx);
                        self.run_chunk(engine, chunk, cancel)
                    })
                })
                .collect();
            // Join in chunk order, so the caller merges in trial order.
            handles
                .into_iter()
                .map(|h| h.join().expect("trial worker panicked"))
                .collect()
        })
    }

    /// One worker's loop over one contiguous chunk, checking `cancel`
    /// every `check_every` trials. Returns the chunk's accumulator and
    /// the completed prefix (`chunk.start..end` ran).
    fn run_chunk<E: TrialEngine>(
        &self,
        engine: &E,
        chunk: Range<u64>,
        cancel: &Cancel,
    ) -> (E::Acc, Range<u64>) {
        let mut acc = engine.new_acc();
        let mut scratch = engine.new_scratch();
        let mut t = chunk.start;
        while t < chunk.end {
            if cancel.expired() {
                break;
            }
            let block_start = t;
            let block_end = (t + self.check_every).min(chunk.end);
            while t < block_end {
                engine.trial(t, &mut scratch, &mut acc);
                t += 1;
            }
            cancel.note_progress(block_end - block_start);
        }
        (acc, chunk.start..t)
    }
}

/// The Fig. 11 convergence trace: `target`'s running estimate
/// `P̂(B) = hits / trials` after each prefix `0..k·every` of a
/// `trials`-trial run, for `k = 1..=⌊trials / every⌋`. One [`Partial`]
/// is resumed prefix by prefix with [`Executor::resume_within`], so the
/// trace costs one run and its points do not depend on the thread count.
///
/// # Panics
/// Panics if `every == 0`.
pub fn convergence_trace<E: TrialEngine<Acc = Tally>>(
    exec: &Executor,
    engine: &E,
    trials: u64,
    every: u64,
    target: &Butterfly,
) -> Vec<(u64, f64)> {
    assert!(every > 0, "snapshot interval must be positive");
    let mut partial = Partial::empty(engine.new_acc(), trials);
    (1..=trials / every)
        .map(|k| {
            exec.resume_within(engine, &mut partial, 0..k * every, &Cancel::never());
            (k * every, partial.acc.running_estimate(target))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy engine: acc is the sum of (idx+1) over completed trials
    /// (order-insensitive), so any scheduling must produce the same sum
    /// and `trials_done` tracks exactly which indices ran.
    struct SumEngine;

    impl TrialEngine for SumEngine {
        type Acc = u64;
        type Scratch = ();

        fn new_acc(&self) -> u64 {
            0
        }

        fn new_scratch(&self) {}

        fn trial(&self, t: u64, _s: &mut (), acc: &mut u64) {
            *acc += t + 1;
        }

        fn merge(&self, into: &mut u64, from: u64) {
            *into += from;
        }
    }

    fn full_sum(n: u64) -> u64 {
        n * (n + 1) / 2
    }

    #[test]
    fn sequential_run_completes() {
        let p = Executor::new(1).run(&SumEngine, 100, &Cancel::never());
        assert!(p.completed());
        assert_eq!(p.acc, full_sum(100));
        assert_eq!(p.trials_done(), 100);
        assert_eq!(p.done_ranges(), std::slice::from_ref(&(0..100)));
    }

    #[test]
    fn parallel_matches_sequential() {
        for threads in [1, 2, 3, 8, 16] {
            let p = Executor::new(threads).run(&SumEngine, 1_000, &Cancel::never());
            assert!(p.completed(), "threads={threads}");
            assert_eq!(p.acc, full_sum(1_000));
        }
    }

    #[test]
    fn budget_cancel_then_resume_is_exact() {
        for threads in [1, 2, 4] {
            for budget in [1u64, 7, 64, 65, 500, 999] {
                let exec = Executor::new(threads).check_every(16);
                let cancel = Cancel::after_trials(budget);
                let mut p = exec.run(&SumEngine, 1_000, &cancel);
                assert!(p.trials_done() >= budget.min(1_000) || p.completed());
                exec.resume(&SumEngine, &mut p, &Cancel::never());
                assert!(p.completed(), "threads={threads} budget={budget}");
                assert_eq!(p.acc, full_sum(1_000));
            }
        }
    }

    #[test]
    fn raised_cancel_runs_nothing() {
        let cancel = Cancel::never();
        cancel.raise();
        let p = Executor::new(4).run(&SumEngine, 1_000, &cancel);
        assert_eq!(p.trials_done(), 0);
        assert!(!p.completed());
        assert_eq!(p.missing(), vec![0..1_000]);
    }

    #[test]
    fn deadline_cancel_latches() {
        let c = Cancel::at(Some(Instant::now()));
        assert!(c.expired());
        assert!(c.expired());
        assert!(!Cancel::never().expired());
    }

    #[test]
    fn zero_trials_is_complete() {
        let p = Executor::new(4).run(&SumEngine, 0, &Cancel::never());
        assert!(p.completed());
        assert_eq!(p.trials_done(), 0);
    }

    #[test]
    fn partial_bookkeeping_normalizes() {
        let mut p: Partial<u64> = Partial::empty(0, 100);
        p.mark_done(10..20);
        p.mark_done(0..10);
        p.mark_done(50..60);
        assert_eq!(p.done_ranges(), &[0..20, 50..60]);
        assert_eq!(p.trials_done(), 30);
        assert_eq!(p.missing(), vec![20..50, 60..100]);
        p.mark_done(20..50);
        p.mark_done(60..100);
        assert!(p.completed());
        assert_eq!(p.done_ranges(), std::slice::from_ref(&(0..100)));
    }

    /// A worker's view: `range` of `0..total`, run into an empty partial.
    fn piece(exec: Executor, range: Range<u64>, total: u64, cancel: &Cancel) -> Partial<u64> {
        let mut p = Partial::empty(0, total);
        exec.resume_within(&SumEngine, &mut p, range, cancel);
        p
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (total, threads) in [(10u64, 3usize), (1, 8), (100, 1), (7, 7), (0, 4)] {
            let ranges = chunk_ranges(total, threads);
            let mut covered = 0u64;
            let mut expect_start = 0u64;
            for r in &ranges {
                assert_eq!(r.start, expect_start);
                covered += r.end - r.start;
                expect_start = r.end;
            }
            assert_eq!(covered, total, "total={total} threads={threads}");
        }
    }

    #[test]
    fn scatter_gather_absorb_matches_local_run() {
        let local = Executor::new(3).run(&SumEngine, 1_000, &Cancel::never());
        // Shard the same space across "workers" at several widths, absorb
        // the pieces out of order, and require the identical accumulator.
        for workers in [1usize, 2, 3, 7] {
            let mut pieces: Vec<Partial<u64>> = chunk_ranges(1_000, workers)
                .into_iter()
                .map(|r| piece(Executor::new(2), r, 1_000, &Cancel::never()))
                .collect();
            pieces.reverse();
            let mut master: Partial<u64> = Partial::empty(0, 1_000);
            for p in pieces {
                master.absorb(p, |a, b| *a += b).expect("disjoint pieces");
            }
            assert!(master.completed(), "workers={workers}");
            assert_eq!(master.acc, local.acc, "workers={workers}");
            assert_eq!(master.done_ranges(), local.done_ranges());
        }
    }

    #[test]
    fn resume_within_respects_cancel_and_resumes() {
        let exec = Executor::new(1).check_every(8);
        let cancel = Cancel::after_trials(10);
        let first = piece(exec, 200..600, 1_000, &cancel);
        let done = first.trials_done();
        assert!((10..400).contains(&done), "done={done}");
        assert_eq!(
            first.done_ranges(),
            std::slice::from_ref(&(200..200 + done))
        );
        assert_eq!(first.trials_requested(), 1_000);
        // The remainder of the assignment, run elsewhere, absorbs cleanly.
        let rest = piece(exec, 200 + done..600, 1_000, &Cancel::never());
        let mut master: Partial<u64> = Partial::empty(0, 1_000);
        master.absorb(first, |a, b| *a += b).unwrap();
        master.absorb(rest, |a, b| *a += b).unwrap();
        assert_eq!(master.done_ranges(), std::slice::from_ref(&(200..600)));
        assert_eq!(master.acc, (200..600).map(|t| t + 1).sum::<u64>());
    }

    #[test]
    fn resume_within_skips_trials_already_done() {
        let exec = Executor::new(2);
        let mut p = piece(exec, 100..300, 1_000, &Cancel::never());
        exec.resume_within(&SumEngine, &mut p, 0..400, &Cancel::never());
        assert_eq!(p.done_ranges(), std::slice::from_ref(&(0..400)));
        assert_eq!(p.acc, full_sum(400));
    }

    #[test]
    fn absorb_rejects_overlap_and_mismatch() {
        let exec = Executor::new(1);
        let mut master = piece(exec, 0..50, 100, &Cancel::never());
        let overlapping = piece(exec, 40..60, 100, &Cancel::never());
        let before = master.acc;
        assert_eq!(
            master.absorb(overlapping, |a, b| *a += b),
            Err(AbsorbError::Overlap(40..60))
        );
        assert_eq!(master.acc, before, "failed absorb must not mutate");
        let wrong_space = piece(exec, 50..60, 200, &Cancel::never());
        assert_eq!(
            master.absorb(wrong_space, |a, b| *a += b),
            Err(AbsorbError::TrialSpaceMismatch {
                ours: 100,
                theirs: 200
            })
        );
    }

    /// The paper's Fig. 1 graph and its heaviest butterfly: OS over it
    /// is a real `Tally` engine to trace.
    fn fig1() -> (bigraph::UncertainBipartiteGraph, Butterfly) {
        use bigraph::{GraphBuilder, Left, Right};
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        let heaviest = Butterfly::new(Left(0), Left(1), Right(0), Right(1));
        (b.build().unwrap(), heaviest)
    }

    fn os_cfg() -> crate::os::OsConfig {
        crate::os::OsConfig {
            seed: 17,
            ..Default::default()
        }
    }

    #[test]
    fn convergence_trace_matches_prefix_runs_at_any_thread_count() {
        let (g, target) = fig1();
        let os = crate::os::OsTrials::new(&g, &os_cfg());
        let every = 100;
        let sequential = convergence_trace(&Executor::new(1), &os, 1_000, every, &target);
        let parallel = convergence_trace(&Executor::new(4), &os, 1_000, every, &target);
        assert_eq!(sequential.len(), 10);
        assert_eq!(sequential, parallel);
        for (k, &(trials, estimate)) in (1u64..).zip(&sequential) {
            assert_eq!(trials, k * every);
            let prefix = Executor::new(1).run(&os, k * every, &Cancel::never());
            assert_eq!(estimate, prefix.acc.running_estimate(&target), "k={k}");
        }
        assert!(sequential.iter().all(|&(_, p)| p > 0.0));
    }

    #[test]
    fn convergence_trace_drops_the_incomplete_last_interval() {
        let (g, target) = fig1();
        let os = crate::os::OsTrials::new(&g, &os_cfg());
        let points = convergence_trace(&Executor::new(2), &os, 1_050, 100, &target);
        assert_eq!(points.len(), 10);
        assert_eq!(points.last().map(|&(t, _)| t), Some(1_000));
        assert!(convergence_trace(&Executor::new(1), &os, 99, 100, &target).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn convergence_trace_rejects_zero_interval() {
        let (g, target) = fig1();
        let os = crate::os::OsTrials::new(&g, &os_cfg());
        convergence_trace(&Executor::new(1), &os, 100, 0, &target);
    }
}

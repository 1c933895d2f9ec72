//! The method table and the one driver behind every solve-like request.
//!
//! Every method the server answers is a sequence of *phases*, and every
//! phase is a set of independent, index-keyed trials over one
//! [`mpmb_core::TrialEngine`] followed by a finalize step: OS (Alg. 2),
//! MC-VP (Alg. 1), OLS preparing (Alg. 3) and its Karp-Luby (Alg. 4)
//! and shared-trial (Alg. 5) estimators, `/v1/query`, `/v1/count`, and
//! the sublinear `method=fast` tier, each a [`Method`]. The method
//! table has two parts:
//! `start` gives each method's fresh state and trial space, and
//! `step` has one arm per phase — the phase's engine and seed, the
//! phase's `Phase` columns (check granularity,
//! locality, trial accounting, worker-reply unwrap), and its finalize
//! step: into an `Answer`, or, for OLS preparing, into the estimation
//! phase.
//!
//! One driver, `advance`, runs any phase on any `Runner`:
//!
//! * `Runner::Local` — this node's [`Executor`] (single-node serving,
//!   and [`advance_local`], the entry point of the CLI, the benches and
//!   the tests);
//! * `Runner::Range` — one worker range call: only the assigned slice
//!   of the trial space runs, and the partial goes back unfinalized;
//! * `Runner::Cluster` — a coordinator: the missing ranges scatter to
//!   workers and come back through the engine's own
//!   [`TrialEngine::merge`]. OLS preparing and `/v1/query` still run on
//!   the coordinator's own executor.
//!
//! A trial's result depends on its index alone and merging is
//! order-insensitive, so a run that finishes is **bit-identical** to
//! one sequential [`Executor`] run of the same engines — at any thread
//! count, any worker count, however the work was sliced. This table is
//! the only code that composes `mpmb_core`'s engines into methods. A run whose [`Cancel`]
//! deadline fires first returns its [`PartialState`]; feeding that back
//! continues where it stopped (OLS at sub-phase granularity, so
//! preparing never reruns). That is what lets the result cache refine
//! answers across repeated requests instead of recomputing from trial
//! zero.

use crate::cluster::coordinator::Scatter;
use crate::cluster::ClusterError;
use bigraph::codec::{CodecError, Decoder, Encoder};
use bigraph::fx::FxHashMap;
use bigraph::UncertainBipartiteGraph;
pub use mpmb_core::engine::{Cancel, Partial, CHECK_EVERY};
use mpmb_core::Checkpoint;
use mpmb_core::{
    count_distribution_from_histogram, sample_seed, Butterfly, CandidateSet, CountDistribution,
    CountTrials, Distribution, Executor, FastEstimate, FastSample, KarpLubyTrials, KlCandidate,
    KlTrialPolicy, McVpTrials, OptimizedTrials, OsConfig, OsTrials, PrepareTrials, QueryResult,
    QueryTrials, SublinearTrials, Tally, TrialEngine,
};
use std::ops::Range;

/// Where a cancelled request stopped: the method-specific accumulator
/// plus completed trial ranges, ready to resume. This is what the
/// result cache stores for timed-out requests, what checkpoints
/// persist, and what a worker returns for its range.
#[derive(Clone, Debug)]
pub enum PartialState {
    /// Ordering Sampling mid-run.
    Os(Partial<Tally>),
    /// MC-VP mid-run.
    McVp(Partial<Tally>),
    /// OLS (either estimator) still in the preparing phase.
    OlsPrepare(Partial<Vec<Butterfly>>),
    /// OLS with the optimized estimator, mid-sampling-phase.
    OlsSample {
        /// Phase-1 output, kept so preparing never reruns.
        candidates: CandidateSet,
        /// Sampling-phase progress.
        partial: Partial<Tally>,
    },
    /// OLS with the Karp-Luby estimator, mid-estimation (one executor
    /// trial = one candidate, fully estimated).
    Kl {
        /// Phase-1 output, kept so preparing never reruns.
        candidates: CandidateSet,
        /// Per-candidate rows completed so far.
        partial: Partial<Vec<(u32, KlCandidate)>>,
    },
    /// Conditioned `/v1/query` mid-run (accumulator = hit count).
    Query(Partial<u64>),
    /// `/v1/count` mid-run (accumulator = count histogram).
    Count(Partial<FxHashMap<u64, u64>>),
    /// Sublinear `method=fast` counting tier mid-run (accumulator =
    /// index-tagged per-trial samples).
    Fast(Partial<Vec<FastSample>>),
}

impl PartialState {
    /// Short tag for logs and errors (also the phase name `mpmb solve
    /// --progress` prints).
    pub fn kind(&self) -> &'static str {
        match self {
            PartialState::Os(_) => Method::Os.name(),
            PartialState::McVp(_) => Method::McVp.name(),
            PartialState::OlsPrepare(_) => "ols-prepare",
            PartialState::OlsSample { .. } => "ols-sample",
            PartialState::Kl { .. } => Method::OlsKl.name(),
            PartialState::Query(_) => Method::Query.name(),
            PartialState::Count(_) => Method::Count.name(),
            PartialState::Fast(_) => Method::Fast.name(),
        }
    }

    /// The running MPMB leader and its estimate at this point of the
    /// run, if the phase tracks one:
    ///
    /// * tally phases (`os`, `mcvp`, `ols` sampling) report
    ///   [`Tally::leader`] (ties go to the smaller butterfly, as in
    ///   [`mpmb_core::Distribution::mpmb`]) with its hit fraction;
    /// * the Karp-Luby phase reports the completed candidate with the
    ///   highest estimated `P(B)`;
    /// * preparing, query, and count phases have no leader yet.
    pub fn leader(&self) -> Option<(Butterfly, f64)> {
        fn tally_leader(p: &Partial<Tally>) -> Option<(Butterfly, f64)> {
            let trials = p.trials_done();
            if trials == 0 {
                return None;
            }
            p.acc.leader().map(|(b, c)| (b, c as f64 / trials as f64))
        }
        match self {
            PartialState::Os(p) | PartialState::McVp(p) => tally_leader(p),
            PartialState::OlsSample { partial, .. } => tally_leader(partial),
            PartialState::Kl {
                candidates,
                partial,
            } => partial
                .acc
                .iter()
                .max_by(|a, b| a.1.prob.total_cmp(&b.1.prob))
                .map(|(idx, c)| (candidates.get(*idx as usize).butterfly, c.prob)),
            PartialState::OlsPrepare(_)
            | PartialState::Query(_)
            | PartialState::Count(_)
            | PartialState::Fast(_) => None,
        }
    }

    /// Encodes this state behind its tag byte: the one format shared by
    /// snapshots ([`crate::checkpoint`]) and worker range responses
    /// ([`crate::cluster::proto`]). Tags are durable on-disk state —
    /// never renumber one.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.u8(match self {
            PartialState::Os(_) => 0,
            PartialState::McVp(_) => 1,
            PartialState::OlsPrepare(_) => 2,
            PartialState::OlsSample { .. } => 3,
            PartialState::Kl { .. } => 4,
            PartialState::Query(_) => 5,
            PartialState::Count(_) => 6,
            PartialState::Fast(_) => 7,
        });
        match self {
            PartialState::Os(p) | PartialState::McVp(p) => p.encode(enc),
            PartialState::OlsPrepare(p) => p.encode(enc),
            PartialState::OlsSample {
                candidates,
                partial,
            } => {
                candidates.encode(enc);
                partial.encode(enc);
            }
            PartialState::Kl {
                candidates,
                partial,
            } => {
                candidates.encode(enc);
                partial.encode(enc);
            }
            PartialState::Query(p) => p.encode(enc),
            PartialState::Count(p) => p.encode(enc),
            PartialState::Fast(p) => p.encode(enc),
        }
    }

    /// Decodes one tagged state (inverse of [`PartialState::encode`]).
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<PartialState, CodecError> {
        Ok(match dec.u8()? {
            0 => PartialState::Os(Partial::decode(dec)?),
            1 => PartialState::McVp(Partial::decode(dec)?),
            2 => PartialState::OlsPrepare(Partial::decode(dec)?),
            3 => PartialState::OlsSample {
                candidates: CandidateSet::decode(dec)?,
                partial: Partial::decode(dec)?,
            },
            4 => PartialState::Kl {
                candidates: CandidateSet::decode(dec)?,
                partial: Partial::decode(dec)?,
            },
            5 => PartialState::Query(Partial::decode(dec)?),
            6 => PartialState::Count(Partial::decode(dec)?),
            7 => PartialState::Fast(Partial::decode(dec)?),
            other => {
                return Err(CodecError::Invalid(format!(
                    "unknown partial-state tag {other}"
                )))
            }
        })
    }

    /// Whether this state is a phase of `method` (OLS preparing is a
    /// phase of both OLS estimators).
    fn is_phase_of(&self, method: Method) -> bool {
        use Method::*;
        matches!(
            (self, method),
            (PartialState::Os(_), Os)
                | (PartialState::McVp(_), McVp)
                | (PartialState::OlsPrepare(_), Ols | OlsKl)
                | (PartialState::OlsSample { .. }, Ols)
                | (PartialState::Kl { .. }, OlsKl)
                | (PartialState::Query(_), Query)
                | (PartialState::Count(_), Count)
                | (PartialState::Fast(_), Fast)
        )
    }
}

/// A finished request's result, one variant per result type the
/// method table produces.
#[derive(Clone, Debug)]
pub enum Answer {
    /// An MPMB distribution (`os`, `mcvp`, `ols`, `ols-kl`).
    Distribution(Distribution),
    /// A conditioned `/v1/query` estimate.
    Query(QueryResult),
    /// A `/v1/count` sampling distribution.
    Count(CountDistribution),
    /// A sublinear `method=fast` estimate.
    Fast(FastEstimate),
}

/// Outcome of one driver call: either the finished value or the
/// state to resume from next time.
#[derive(Clone, Debug)]
pub enum Outcome<T> {
    /// Every requested trial ran; the finalized result.
    Done(T),
    /// The deadline fired first (or this was a worker's range run,
    /// which never finalizes); resume from this state.
    Incomplete(PartialState),
}

/// Progress report of one driver call.
#[derive(Clone, Debug)]
pub struct Progress<T> {
    /// Finished result or resumable state.
    pub outcome: Outcome<T>,
    /// Total trials completed so far (across all calls).
    pub trials_done: u64,
    /// Trials the request asked for.
    pub trials_requested: u64,
    /// Trials newly executed by *this* call (for metrics).
    pub executed: u64,
}

impl<T> Progress<T> {
    /// Whether the run finished.
    pub fn completed(&self) -> bool {
        matches!(self.outcome, Outcome::Done(_))
    }
}

/// A method of the table: the paper's samplers and the serving tiers.
/// Each edge parses it once — the HTTP body, the CLI's and the bench's
/// `--method(s)`, a range frame — and [`Method::name`] is the only
/// spelling that goes on the wire and into cache keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Ordering Sampling (Alg. 2).
    Os,
    /// The MC-VP baseline (Alg. 1).
    McVp,
    /// OLS (Alg. 3) with the shared-trial estimator (Alg. 5).
    Ols,
    /// OLS (Alg. 3) with the Karp-Luby estimator (Alg. 4).
    OlsKl,
    /// Conditioned `P(B)` of one butterfly (`/v1/query`).
    Query,
    /// The sampled butterfly-count distribution (`/v1/count`).
    Count,
    /// The sublinear expected-count tier.
    Fast,
}

impl Method {
    /// Every method, in table order.
    pub const ALL: [Method; 7] = [
        Method::Os,
        Method::McVp,
        Method::Ols,
        Method::OlsKl,
        Method::Query,
        Method::Count,
        Method::Fast,
    ];

    /// The method's name on the wire, in cache keys and in responses.
    pub fn name(self) -> &'static str {
        match self {
            Method::Os => "os",
            Method::McVp => "mcvp",
            Method::Ols => "ols",
            Method::OlsKl => "ols-kl",
            Method::Query => "query",
            Method::Count => "count",
            Method::Fast => "fast",
        }
    }

    /// The method named `name`, if any.
    pub fn parse(name: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == name)
    }

    /// A `/v1/solve` (and `mpmb solve`) method: one that ranks
    /// butterflies, or `fast`. The error is the 400 text.
    pub fn parse_solve(name: &str) -> Result<Method, String> {
        match Method::parse(name) {
            Some(m @ (Method::Os | Method::McVp | Method::Ols | Method::OlsKl | Method::Fast)) => {
                Ok(m)
            }
            _ => Err(format!(
                "unknown method `{name}` (expected os|mcvp|ols|ols-kl)"
            )),
        }
    }

    /// A `/v1/count` (and `mpmb count`) method: `exact`, which names
    /// the sampled [`Method::Count`] distribution, or `fast`. The error
    /// is the 400 text.
    pub fn parse_count(name: &str) -> Result<Method, String> {
        match (name, Method::parse(name)) {
            ("exact", _) => Ok(Method::Count),
            (_, Some(Method::Fast)) => Ok(Method::Fast),
            _ => Err(format!("unknown method `{name}` (expected exact|fast)")),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one request asks the method table for: the method plus every
/// parameter that seeds its engines. Thread counts are not among them
/// — they never change an answer.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// The method whose table rows run.
    pub method: Method,
    /// Trial budget (the per-candidate fixed count for `ols-kl`).
    pub trials: u64,
    /// OLS preparing budget.
    pub prep: u64,
    /// Base seed.
    pub seed: u64,
    /// `fast` only: the certified interval's miss probability. It
    /// shapes finalization only, never the sampled rows.
    pub delta: f64,
    /// `query` only: the target butterfly.
    pub butterfly: Option<Butterfly>,
}

impl Job {
    /// A job with no `fast` or `query` extras.
    pub fn new(method: Method, trials: u64, prep: u64, seed: u64) -> Self {
        Job {
            method,
            trials,
            prep,
            seed,
            delta: 0.05,
            butterfly: None,
        }
    }
}

/// Where a phase's trial ranges run.
pub(crate) enum Runner<'a> {
    /// In process, on this node's executor.
    Local(Executor),
    /// A worker's range call: only this slice of the phase's trial
    /// space runs, and the partial comes back unfinalized.
    Range(Executor, Range<u64>),
    /// A coordinator: missing ranges scatter to workers.
    Cluster(Scatter<'a>),
}

/// How one phase runs, beyond its engine: the per-phase columns of the
/// method table.
struct Phase<A> {
    /// Trials between deadline checks.
    every: u64,
    /// Whether the phase stays on this node's executor — on a
    /// coordinator too.
    local: bool,
    /// The phase's partial out of a worker reply, or the reply back if
    /// it belongs to some other phase.
    unwrap: fn(PartialState) -> Result<Partial<A>, PartialState>,
    /// `(trials_done, trials_requested)` as the request reports them.
    report: fn(&Job, &Partial<A>) -> (u64, u64),
}

impl<A> Phase<A> {
    /// A phase that scatters, checks its deadline every
    /// [`CHECK_EVERY`] trials, and reports its own trial space.
    fn scattered(unwrap: fn(PartialState) -> Result<Partial<A>, PartialState>) -> Self {
        Phase {
            every: CHECK_EVERY,
            local: false,
            unwrap,
            report: |_, p| (p.trials_done(), p.trials_requested()),
        }
    }

    /// A phase that always runs where the request arrived.
    fn local() -> Self {
        Phase {
            local: true,
            ..Phase::scattered(Err)
        }
    }
}

/// One [`advance`] call's context and trial accounting.
struct Cx<'a> {
    job: &'a Job,
    runner: &'a Runner<'a>,
    cancel: &'a Cancel,
    /// Trials executed across every phase this call ran.
    executed: u64,
    /// The last phase's `(trials_done, trials_requested)`.
    reported: (u64, u64),
}

impl Cx<'_> {
    /// Runs `partial`'s missing trials on the runner until they are
    /// covered or the deadline fires. Returns the accumulator to
    /// finalize once every trial is in — never for a worker's range,
    /// which goes back unfinalized.
    fn covered<E: TrialEngine>(
        &mut self,
        engine: &E,
        partial: &mut Partial<E::Acc>,
        candidates: Option<&CandidateSet>,
        phase: Phase<E::Acc>,
    ) -> Result<Option<E::Acc>, ClusterError>
    where
        E::Acc: Default,
    {
        let (job, cancel) = (self.job, self.cancel);
        let before = (phase.report)(job, partial).0;
        let exec = |e: Executor| e.check_every(phase.every);
        match self.runner {
            Runner::Cluster(scatter) if !phase.local => {
                scatter.run(job, candidates, engine, partial, phase.unwrap, cancel)?
            }
            Runner::Cluster(scatter) => {
                exec(Executor::new(scatter.threads)).resume(engine, partial, cancel)
            }
            Runner::Local(e) => exec(*e).resume(engine, partial, cancel),
            Runner::Range(e, range) => {
                let space = partial.trials_requested();
                if range.end > space {
                    return Err(ClusterError::BadRequest(format!(
                        "range {range:?} escapes 0..{space}"
                    )));
                }
                exec(*e).resume_within(engine, partial, range.clone(), cancel)
            }
        }
        self.reported = (phase.report)(job, partial);
        self.executed += self.reported.0 - before;
        let finalize = partial.completed() && !matches!(self.runner, Runner::Range(..));
        Ok(finalize.then(|| std::mem::take(&mut partial.acc)))
    }
}

/// What a covered phase finalizes into.
enum Next {
    /// The request's answer.
    Answer(Answer),
    /// The next phase's fresh state (OLS preparing → estimation).
    Phase(PartialState),
}

fn distribution(d: Distribution) -> Next {
    Next::Answer(Answer::Distribution(d))
}

/// The method table, part one: the state each method starts in, with
/// its trial space. With a candidate set (OLS preparing's output), an
/// OLS method starts at its estimation phase; without one, at
/// preparing.
fn start(job: &Job, candidates: Option<CandidateSet>) -> PartialState {
    let trials = job.trials;
    match (job.method, candidates) {
        (Method::Os, _) => PartialState::Os(Partial::empty(Tally::new(), trials)),
        (Method::McVp, _) => PartialState::McVp(Partial::empty(Tally::new(), trials)),
        (Method::Ols | Method::OlsKl, None) => {
            PartialState::OlsPrepare(Partial::empty(Vec::new(), job.prep))
        }
        (Method::Ols, Some(candidates)) => PartialState::OlsSample {
            candidates,
            partial: Partial::empty(Tally::new(), trials),
        },
        (Method::OlsKl, Some(candidates)) => PartialState::Kl {
            partial: Partial::empty(Vec::new(), candidates.len() as u64),
            candidates,
        },
        (Method::Query, _) => PartialState::Query(Partial::empty(0, trials)),
        (Method::Count, _) => PartialState::Count(Partial::empty(FxHashMap::default(), trials)),
        (Method::Fast, _) => PartialState::Fast(Partial::empty(Vec::new(), trials)),
    }
}

/// A worker range's starting state. Preparing runs on the coordinator
/// only, so an OLS range starts at its estimation phase over the
/// candidate set the request shipped — checked against `g` before any
/// engine indexes `g` with its edge ids.
pub(crate) fn start_range(
    g: &UncertainBipartiteGraph,
    job: &Job,
    candidates: Option<CandidateSet>,
) -> Result<PartialState, ClusterError> {
    if let Some(set) = &candidates {
        set.check_against(g).map_err(ClusterError::BadRequest)?;
    }
    match start(job, candidates) {
        PartialState::OlsPrepare(_) => Err(ClusterError::BadRequest(format!(
            "{} range requires a candidate set",
            job.method
        ))),
        state => Ok(state),
    }
}

/// The method table, part two: one arm per phase. Each builds the
/// phase's engine from the job's seed, runs the phase's
/// missing trials, and — once all are in — finalizes into the answer,
/// or (OLS preparing) into the estimation phase. `None`: the phase
/// stopped short; `state` holds where.
fn step(
    g: &UncertainBipartiteGraph,
    state: &mut PartialState,
    cx: &mut Cx<'_>,
) -> Result<Option<Next>, ClusterError> {
    let job = cx.job;
    Ok(match state {
        // Ordering Sampling (Alg. 2).
        PartialState::Os(p) => {
            let cfg = OsConfig {
                seed: job.seed,
                ..Default::default()
            };
            let engine = OsTrials::new(g, &cfg);
            let phase = Phase::scattered(|s| match s {
                PartialState::Os(p) => Ok(p),
                s => Err(s),
            });
            let acc = cx.covered(&engine, p, None, phase)?;
            acc.map(|acc| distribution(acc.into_distribution()))
        }
        // The MC-VP baseline (Alg. 1).
        PartialState::McVp(p) => {
            let engine = McVpTrials::new(g, job.seed);
            let phase = Phase::scattered(|s| match s {
                PartialState::McVp(p) => Ok(p),
                s => Err(s),
            });
            let acc = cx.covered(&engine, p, None, phase)?;
            acc.map(|acc| distribution(acc.into_distribution()))
        }
        // OLS phase 1 (Alg. 3): preparing the candidate set. Cheap next
        // to estimation, so a coordinator runs it itself and ships the
        // result with every range request.
        PartialState::OlsPrepare(p) => {
            let engine = PrepareTrials::new(g, job.seed);
            let phase = Phase {
                report: |job, p| (p.trials_done(), job.prep + job.trials),
                ..Phase::local()
            };
            let acc = cx.covered(&engine, p, None, phase)?;
            acc.map(|acc| Next::Phase(start(job, Some(engine.finalize(acc)))))
        }
        // OLS phase 2 with the shared-trial estimator (Alg. 5); reported
        // trials count preparing too.
        PartialState::OlsSample {
            candidates,
            partial,
        } => {
            let engine = OptimizedTrials::new(g, candidates, sample_seed(job.seed));
            let phase = Phase {
                report: |job, p| (job.prep + p.trials_done(), job.prep + p.trials_requested()),
                ..Phase::scattered(|s| match s {
                    PartialState::OlsSample { partial, .. } => Ok(partial),
                    s => Err(s),
                })
            };
            let acc = cx.covered(&engine, partial, Some(candidates), phase)?;
            acc.map(|acc| distribution(acc.into_distribution()))
        }
        // OLS phase 2 with the Karp-Luby estimator (Alg. 4). One trial
        // is one whole candidate, so the deadline is checked per
        // candidate; trials are the samples it consumed, and once it
        // ran the request is complete by construction.
        PartialState::Kl {
            candidates,
            partial,
        } => {
            let policy = KlTrialPolicy::Fixed(job.trials);
            let engine = KarpLubyTrials::new(g, candidates, policy, sample_seed(job.seed));
            let phase = Phase {
                every: 1,
                report: |job, p: &Partial<Vec<_>>| {
                    let consumed = job.prep + KarpLubyTrials::consumed(&p.acc);
                    let requested = if p.completed() {
                        consumed
                    } else {
                        job.prep + job.trials
                    };
                    (consumed, requested)
                },
                ..Phase::scattered(|s| match s {
                    PartialState::Kl { partial, .. } => Ok(partial),
                    s => Err(s),
                })
            };
            let acc = cx.covered(&engine, partial, Some(candidates), phase)?;
            acc.map(|acc| distribution(engine.finalize(acc).distribution))
        }
        // Conditioned `/v1/query` sampling for one butterfly.
        PartialState::Query(p) => {
            let engine = job
                .butterfly
                .and_then(|b| QueryTrials::new(g, &b, job.seed))
                .ok_or_else(|| {
                    ClusterError::NotFound("butterfly is not in the graph's backbone".into())
                })?;
            let acc = cx.covered(&engine, p, None, Phase::local())?;
            acc.map(|hits| Next::Answer(Answer::Query(engine.finalize(hits, job.trials))))
        }
        // `/v1/count` butterfly-count sampling.
        PartialState::Count(p) => {
            let engine = CountTrials::new(g, job.seed);
            let phase = Phase::scattered(|s| match s {
                PartialState::Count(p) => Ok(p),
                s => Err(s),
            });
            let acc = cx.covered(&engine, p, None, phase)?;
            acc.map(|histogram| {
                let dist = count_distribution_from_histogram(histogram, job.trials);
                Next::Answer(Answer::Count(dist))
            })
        }
        // The sublinear `method=fast` counting tier.
        PartialState::Fast(p) => {
            let engine = SublinearTrials::new(g, job.seed);
            let phase = Phase::scattered(|s| match s {
                PartialState::Fast(p) => Ok(p),
                s => Err(s),
            });
            let acc = cx.covered(&engine, p, None, phase)?;
            acc.map(|rows| Next::Answer(Answer::Fast(engine.finalize(rows, job.delta))))
        }
    })
}

/// The one driver behind every solve-like request: starts (`prior` =
/// `None`) or resumes the request's phases on `runner` until it has an
/// answer, or stops with a resumable state. `prior` must come from the
/// same request key — the cache key enforces this server-side.
pub(crate) fn advance(
    g: &UncertainBipartiteGraph,
    job: &Job,
    prior: Option<PartialState>,
    runner: &Runner<'_>,
    cancel: &Cancel,
) -> Result<Progress<Answer>, ClusterError> {
    let mut state = match prior {
        None => start(job, None),
        Some(s) if s.is_phase_of(job.method) => s,
        Some(other) => {
            return Err(ClusterError::BadRequest(format!(
                "cached partial state `{}` does not match method `{}`",
                other.kind(),
                job.method
            )))
        }
    };
    let mut cx = Cx {
        job,
        runner,
        cancel,
        executed: 0,
        reported: (0, 0),
    };
    loop {
        let outcome = match step(g, &mut state, &mut cx)? {
            Some(Next::Phase(next)) => {
                state = next;
                continue;
            }
            Some(Next::Answer(answer)) => Outcome::Done(answer),
            None => Outcome::Incomplete(state),
        };
        let (trials_done, trials_requested) = cx.reported;
        return Ok(Progress {
            outcome,
            trials_done,
            trials_requested,
            executed: cx.executed,
        });
    }
}

/// Starts or resumes `job` on this node's executor with `threads`
/// workers, running until it completes or `cancel` fires: the one
/// local entry point, behind the CLI, the benches and the tests.
/// `state` is a prior call's [`Outcome::Incomplete`] payload for the
/// same job (or `None` to start fresh).
///
/// A completed answer is bit-identical to one sequential [`Executor`]
/// run of the method's engines, regardless of `threads` and of how many
/// calls the work was spread across.
///
/// # Panics
/// Panics if `job.trials == 0`; callers reject it first (the HTTP
/// `plan` with a 400, the CLI with a usage error).
pub fn advance_local(
    g: &UncertainBipartiteGraph,
    job: &Job,
    state: Option<PartialState>,
    threads: usize,
    cancel: &Cancel,
) -> Result<Progress<Answer>, String> {
    assert!(job.trials > 0, "trials must be positive");
    let runner = Runner::Local(Executor::new(threads));
    advance(g, job, state, &runner, cancel).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{GraphBuilder, Left, Right};
    use mpmb_core::CountDistribution;
    use std::time::Instant;

    /// One sequential executor run of `engine` over `0..trials`: the
    /// reference every table answer must match bit for bit.
    fn sequential<E: TrialEngine>(engine: &E, trials: u64) -> E::Acc {
        Executor::new(1).run(engine, trials, &Cancel::never()).acc
    }

    /// The OLS candidate set after `job.prep` preparing trials.
    fn prepared(g: &UncertainBipartiteGraph, job: &Job) -> CandidateSet {
        let prep = PrepareTrials::new(g, job.seed);
        prep.finalize(sequential(&prep, job.prep))
    }

    /// Drives `job` on this node's executor.
    fn local(
        g: &UncertainBipartiteGraph,
        job: &Job,
        state: Option<PartialState>,
        threads: usize,
        cancel: &Cancel,
    ) -> Result<Progress<Answer>, ClusterError> {
        advance(
            g,
            job,
            state,
            &Runner::Local(Executor::new(threads)),
            cancel,
        )
    }

    fn fig1() -> UncertainBipartiteGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
        b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
        b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
        b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
        b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
        b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
        b.build().unwrap()
    }

    fn unwrap_done<T>(p: Progress<T>) -> T {
        match p.outcome {
            Outcome::Done(v) => v,
            Outcome::Incomplete(s) => panic!("expected completion, got partial `{}`", s.kind()),
        }
    }

    fn unwrap_dist(p: Progress<Answer>) -> Distribution {
        match unwrap_done(p) {
            Answer::Distribution(d) => d,
            other => panic!("expected a distribution, got {other:?}"),
        }
    }

    /// Drives `job` to completion in budget-limited slices through
    /// [`advance_local`], returning the answer, total trials, and how
    /// many calls it took.
    fn refine_to_completion(
        g: &UncertainBipartiteGraph,
        job: &Job,
        threads: usize,
        budget: u64,
    ) -> (Answer, u64, usize) {
        let mut state = None;
        for calls in 1..10_000 {
            let progress =
                advance_local(g, job, state.take(), threads, &Cancel::after_trials(budget))
                    .unwrap();
            match progress.outcome {
                Outcome::Done(answer) => return (answer, progress.trials_done, calls),
                Outcome::Incomplete(s) => {
                    assert!(progress.trials_done < progress.trials_requested);
                    state = Some(s);
                }
            }
        }
        panic!("refinement did not converge");
    }

    #[test]
    fn method_names_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m));
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(Method::parse("exact"), None);
        assert_eq!(Method::parse_count("exact"), Ok(Method::Count));
        assert_eq!(Method::parse_count("fast"), Ok(Method::Fast));
        assert!(Method::parse_count("count").is_err());
        assert_eq!(Method::parse_solve("fast"), Ok(Method::Fast));
        assert_eq!(
            Method::parse_solve("query"),
            Err("unknown method `query` (expected os|mcvp|ols|ols-kl)".to_string())
        );
    }

    #[test]
    fn uncancelled_os_matches_the_engine_bitwise() {
        let g = fig1();
        let job = Job::new(Method::Os, 1_500, 100, 11);
        let cfg = OsConfig {
            seed: 11,
            ..Default::default()
        };
        let reference = sequential(&OsTrials::new(&g, &cfg), 1_500).into_distribution();
        let run = advance_local(&g, &job, None, 3, &Cancel::never()).unwrap();
        assert_eq!(run.trials_done, 1_500);
        assert_eq!(run.executed, 1_500);
        assert_eq!(reference.max_abs_diff(&unwrap_dist(run)), 0.0);
    }

    #[test]
    fn uncancelled_mcvp_matches_the_engine_bitwise() {
        let g = fig1();
        let reference = sequential(&McVpTrials::new(&g, 5), 800).into_distribution();
        let job = Job::new(Method::McVp, 800, 100, 5);
        let run = advance_local(&g, &job, None, 2, &Cancel::never()).unwrap();
        assert!(run.completed());
        assert_eq!(reference.max_abs_diff(&unwrap_dist(run)), 0.0);
    }

    #[test]
    fn uncancelled_ols_matches_the_engines_bitwise_at_every_thread_count() {
        let g = fig1();
        let job = Job::new(Method::Ols, 20_000, 150, 21);
        let cs = prepared(&g, &job);
        let sample = OptimizedTrials::new(&g, &cs, sample_seed(job.seed));
        let reference = sequential(&sample, 20_000).into_distribution();
        for threads in [1, 2, 3, 8] {
            let run = advance_local(&g, &job, None, threads, &Cancel::never()).unwrap();
            assert_eq!(run.trials_done, 150 + 20_000);
            assert_eq!(
                reference.max_abs_diff(&unwrap_dist(run)),
                0.0,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn uncancelled_kl_matches_the_engines_bitwise_at_every_thread_count() {
        let g = fig1();
        let job = Job::new(Method::OlsKl, 400, 150, 23);
        let cs = prepared(&g, &job);
        let kl = KarpLubyTrials::new(&g, &cs, KlTrialPolicy::Fixed(400), sample_seed(job.seed));
        let reference = kl.finalize(sequential(&kl, kl.trials())).distribution;
        for threads in [1, 2, 3, 8] {
            let run = advance_local(&g, &job, None, threads, &Cancel::never()).unwrap();
            assert!(run.completed());
            assert_eq!(
                reference.max_abs_diff(&unwrap_dist(run)),
                0.0,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn refinement_is_bitwise_identical_for_every_method() {
        let g = fig1();
        for (method, trials, prep, budget) in [
            (Method::Os, 2_000u64, 1u64, 300u64),
            (Method::McVp, 1_000, 1, 170),
            (Method::Ols, 5_000, 200, 450),
            (Method::OlsKl, 300, 200, 100),
        ] {
            let job = Job::new(method, trials, prep, 31);
            let full = advance_local(&g, &job, None, 1, &Cancel::never()).unwrap();
            let (refined, done, calls) = refine_to_completion(&g, &job, 2, budget);
            assert!(calls > 1, "{method}: budget {budget} should force slicing");
            assert_eq!(done, full.trials_done, "{method}");
            let Answer::Distribution(refined) = refined else {
                panic!("{method} answered {refined:?}")
            };
            assert_eq!(
                unwrap_dist(full).max_abs_diff(&refined),
                0.0,
                "{method}: refined result must be bit-identical"
            );
        }
    }

    #[test]
    fn ols_resume_does_not_rerun_preparing() {
        let g = fig1();
        let job = Job::new(Method::Ols, 5_000, 200, 7);
        // Budget smaller than prep: first call ends mid-preparing.
        let p1 = advance_local(&g, &job, None, 1, &Cancel::after_trials(64)).unwrap();
        let state = match p1.outcome {
            Outcome::Incomplete(s @ PartialState::OlsPrepare(_)) => s,
            ref other => panic!("expected mid-preparing state, got {other:?}"),
        };
        assert!(p1.trials_done < 200);
        // Resume with no budget: finishes prep + sampling in one call,
        // executing only what the first call did not.
        let p2 = advance_local(&g, &job, Some(state), 1, &Cancel::never()).unwrap();
        assert!(p2.completed());
        assert_eq!(p1.executed + p2.executed, 200 + 5_000);
    }

    #[test]
    fn query_refines_to_the_engine_result() {
        let g = fig1();
        let b = Butterfly::new(Left(0), Left(1), Right(1), Right(2));
        let engine = QueryTrials::new(&g, &b, 9).unwrap();
        let core = engine.finalize(sequential(&engine, 2_000), 2_000);
        let job = Job {
            butterfly: Some(b),
            ..Job::new(Method::Query, 2_000, 0, 9)
        };
        let q = match refine_to_completion(&g, &job, 1, 256).0 {
            Answer::Query(q) => q,
            other => panic!("query answered {other:?}"),
        };
        assert_eq!(q.prob, core.prob);
        assert_eq!(q.conditional_max_prob, core.conditional_max_prob);
    }

    #[test]
    fn query_rejects_non_backbone_butterfly() {
        let g = fig1();
        let bogus = Butterfly::new(Left(0), Left(5), Right(0), Right(1));
        let job = Job {
            butterfly: Some(bogus),
            ..Job::new(Method::Query, 10, 0, 0)
        };
        assert!(matches!(
            local(&g, &job, None, 1, &Cancel::never()),
            Err(ClusterError::NotFound(_))
        ));
    }

    #[test]
    fn count_refines_to_the_engine_result() {
        let g = fig1();
        let histogram = sequential(&CountTrials::new(&g, 13), 2_000);
        let core: CountDistribution = count_distribution_from_histogram(histogram, 2_000);
        let job = Job::new(Method::Count, 2_000, 0, 13);
        let dist = match refine_to_completion(&g, &job, 2, 300).0 {
            Answer::Count(d) => d,
            other => panic!("count answered {other:?}"),
        };
        assert_eq!(dist.mean, core.mean);
        assert_eq!(dist.variance, core.variance);
        assert_eq!(dist.histogram, core.histogram);
    }

    #[test]
    fn fast_refines_to_the_engine_result_bitwise() {
        let g = fig1();
        let engine = SublinearTrials::new(&g, 19);
        let core = engine.finalize(sequential(&engine, 3_000), 0.1);
        let job = Job {
            delta: 0.1,
            ..Job::new(Method::Fast, 3_000, 0, 19)
        };
        let mut state = None;
        let fe = loop {
            let progress =
                advance_local(&g, &job, state.take(), 2, &Cancel::after_trials(400)).unwrap();
            match progress.outcome {
                Outcome::Done(Answer::Fast(fe)) => break fe,
                Outcome::Done(other) => panic!("fast answered {other:?}"),
                Outcome::Incomplete(s) => {
                    assert_eq!(s.kind(), "fast");
                    assert!(s.leader().is_none());
                    state = Some(s);
                }
            }
        };
        assert_eq!(fe.estimate.to_bits(), core.estimate.to_bits());
        assert_eq!(fe.variance.to_bits(), core.variance.to_bits());
        assert_eq!(fe.ci_low.to_bits(), core.ci_low.to_bits());
        assert_eq!(fe.ci_high.to_bits(), core.ci_high.to_bits());
    }

    #[test]
    fn expired_deadline_yields_resumable_partial() {
        let g = fig1();
        let job = Job::new(Method::Os, 1_000_000, 100, 1);
        let cancel = Cancel::at(Some(Instant::now()));
        let run = advance_local(&g, &job, None, 2, &cancel).unwrap();
        assert!(!run.completed());
        assert!(run.trials_done < 1_000_000);
        assert_eq!(run.trials_requested, 1_000_000);
        // And the partial resumes to the full deterministic answer.
        let state = match run.outcome {
            Outcome::Incomplete(s) => s,
            Outcome::Done(_) => unreachable!(),
        };
        let cfg = OsConfig {
            seed: 1,
            ..Default::default()
        };
        let resumed = advance_local(&g, &job, Some(state), 4, &Cancel::never()).unwrap();
        assert!(resumed.completed());
        let core = sequential(&OsTrials::new(&g, &cfg), 1_000_000).into_distribution();
        assert_eq!(core.max_abs_diff(&unwrap_dist(resumed)), 0.0);
    }

    #[test]
    fn mismatched_state_is_rejected() {
        let g = fig1();
        let os = Job::new(Method::Os, 1_000, 100, 1);
        let run = advance_local(&g, &os, None, 1, &Cancel::after_trials(64)).unwrap();
        let state = match run.outcome {
            Outcome::Incomplete(s) => s,
            Outcome::Done(_) => panic!("budget should have cancelled"),
        };
        for method in [Method::McVp, Method::Fast] {
            let other = Job { method, ..os };
            let err = advance_local(&g, &other, Some(state.clone()), 1, &Cancel::never());
            assert_eq!(
                err.err(),
                Some(format!(
                    "cached partial state `os` does not match method `{method}`"
                ))
            );
        }
    }

    #[test]
    fn range_runs_return_their_partial_unfinalized() {
        let g = fig1();
        let job = Job::new(Method::Os, 500, 0, 3);
        let full = Runner::Range(Executor::new(2), 0..500);
        let progress = advance(&g, &job, None, &full, &Cancel::never()).unwrap();
        assert_eq!(progress.executed, 500);
        match progress.outcome {
            Outcome::Incomplete(PartialState::Os(p)) => assert!(p.completed()),
            other => panic!("expected the covered partial, got {other:?}"),
        }
        let escaping = Runner::Range(Executor::new(1), 400..600);
        assert!(advance(&g, &job, None, &escaping, &Cancel::never()).is_err());
    }

    #[test]
    fn cancel_latches() {
        let c = Cancel::at(Some(Instant::now()));
        assert!(c.expired());
        assert!(c.expired());
        assert!(!Cancel::never().expired());
    }
}

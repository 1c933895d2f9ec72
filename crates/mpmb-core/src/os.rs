//! Ordering Sampling (Algorithm 2) — the paper's first method.
//!
//! Three optimizations over the MC-VP baseline, all implemented here:
//!
//! * **Edge Ordering (§V-B)** — edges are scanned in weight-descending
//!   order; once `w(e) + w̄ < w_max` (with `w̄` the top-3 weight sum), no
//!   later edge can participate in a maximum butterfly and the trial stops.
//!   Combined with lazy sampling, the pruned tail is never even sampled.
//! * **Angle Ordering (§V-C)** — per endpoint pair only the two heaviest
//!   angle weight classes are kept ([`TopTwoAngles`](crate::TopTwoAngles),
//!   Table II).
//! * **Fast Butterfly Creating (§V-D)** — `w_max` is maintained during the
//!   scan and only butterflies achieving it are materialized afterwards.

use crate::angle::SlotTable;
use crate::butterfly::Butterfly;
use crate::distribution::Tally;
use crate::engine::TrialEngine;
use bigraph::{
    trial_rng, EdgeId, LazyEdgeSampler, Left, PossibleWorld, Right, Side, UncertainBipartiteGraph,
    Weight,
};
use rand::Rng;

/// Tells a trial whether an edge exists. Implementations: streaming or
/// lazy Bernoulli sampling (production) and fixed possible worlds (tests,
/// cross-checks).
pub trait EdgeOracle {
    /// Whether edge `e` is present in the current trial's world.
    fn present(&mut self, e: EdgeId) -> bool;

    /// Like [`EdgeOracle::present`], but the caller additionally passes
    /// `pos`, the edge's position in the graph's weight-descending order
    /// (`e == desc_edge_ids()[pos]`). Sampling oracles use it to read the
    /// acceptance threshold from the scan-aligned array — a sequential
    /// load instead of a random gather — without changing the decision.
    #[inline]
    fn present_at(&mut self, pos: usize, e: EdgeId) -> bool {
        let _ = pos;
        self.present(e)
    }
}

/// Oracle that draws lazily from the graph's edge probabilities.
pub struct SamplingOracle<'a, R: Rng> {
    g: &'a UncertainBipartiteGraph,
    sampler: &'a mut LazyEdgeSampler,
    rng: &'a mut R,
}

impl<'a, R: Rng> SamplingOracle<'a, R> {
    /// Creates an oracle; the caller must have called
    /// [`LazyEdgeSampler::begin_trial`] for this trial.
    pub fn new(
        g: &'a UncertainBipartiteGraph,
        sampler: &'a mut LazyEdgeSampler,
        rng: &'a mut R,
    ) -> Self {
        SamplingOracle { g, sampler, rng }
    }
}

impl<R: Rng> EdgeOracle for SamplingOracle<'_, R> {
    #[inline]
    fn present(&mut self, e: EdgeId) -> bool {
        self.sampler.is_present(self.g, e, self.rng)
    }
}

/// Non-memoizing Bernoulli oracle for engines that query each edge **at
/// most once per trial** (the single weight-descending scan of OS, OLS
/// preparation, and the threshold solver).
///
/// Each query consumes exactly one `next_u64` word and compares it
/// against the edge's fixed-point threshold — the same draw,
/// in the same stream position, as [`LazyEdgeSampler::is_present`] on
/// first access, so replacing the lazy sampler in a single-scan engine
/// is bit-identical. Skipping the memo removes the per-edge stamp/
/// outcome writes (and the cache traffic they cost) from the hot loop.
pub struct StreamingOracle<'a, R: Rng> {
    g: &'a UncertainBipartiteGraph,
    rng: &'a mut R,
}

impl<'a, R: Rng> StreamingOracle<'a, R> {
    /// Creates an oracle drawing from `rng`. The caller must ensure each
    /// edge is queried at most once per trial; repeated queries would
    /// redraw (unlike the memoized [`SamplingOracle`]).
    pub fn new(g: &'a UncertainBipartiteGraph, rng: &'a mut R) -> Self {
        StreamingOracle { g, rng }
    }
}

impl<R: Rng> EdgeOracle for StreamingOracle<'_, R> {
    #[inline]
    fn present(&mut self, e: EdgeId) -> bool {
        bigraph::accept_prob(self.rng.next_u64(), self.g.prob(e))
    }

    #[inline]
    fn present_at(&mut self, pos: usize, _e: EdgeId) -> bool {
        bigraph::accept_word(self.rng.next_u64(), self.g.desc_accepts()[pos])
    }
}

/// Oracle over a fixed, fully materialized possible world.
pub struct WorldOracle<'a>(pub &'a PossibleWorld);

impl EdgeOracle for WorldOracle<'_> {
    #[inline]
    fn present(&mut self, e: EdgeId) -> bool {
        self.0.contains(e)
    }
}

/// Configuration of the Ordering Sampling trial body ([`OsTrials`],
/// [`OsEngine`]). The trial count is the caller's: the one passed to
/// [`Executor::run`](crate::engine::Executor::run) (paper default
/// `N_os = 2·10⁴`).
#[derive(Clone, Copy, Debug)]
pub struct OsConfig {
    /// Base RNG seed.
    pub seed: u64,
    /// Enables the §V-B edge-ordering pruning. Disabling it is only
    /// useful for the ablation benchmarks; results are identical.
    pub edge_ordering: bool,
    /// Tightens the §V-B bound using only *present* edges (an extension
    /// beyond the paper; see [`OsEngine::trial`]). Identical results,
    /// earlier pruning — it matters when heavy edges have low
    /// probability, e.g. distance-weighted brain networks. Only
    /// meaningful when `edge_ordering` is on.
    pub dynamic_wbar: bool,
    /// Which side provides angle middles; `None` picks the cheaper side
    /// by the Lemma V.1 cost proxy.
    pub middle_side: Option<Side>,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            seed: 0x5EED,
            edge_ordering: true,
            dynamic_wbar: true,
            middle_side: None,
        }
    }
}

/// Algorithm 2's per-trial body as a [`TrialEngine`]: lazily sample a
/// world under the weight-descending scan, extract `S_MB`, tally it.
pub struct OsTrials<'g> {
    g: &'g UncertainBipartiteGraph,
    cfg: OsConfig,
}

impl<'g> OsTrials<'g> {
    /// Builds the engine for `g` under `cfg` (trial streams use
    /// `cfg.seed`).
    pub fn new(g: &'g UncertainBipartiteGraph, cfg: &OsConfig) -> Self {
        OsTrials { g, cfg: *cfg }
    }
}

impl<'g> TrialEngine for OsTrials<'g> {
    type Acc = Tally;
    type Scratch = (OsEngine<'g>, Vec<Butterfly>);

    fn new_acc(&self) -> Tally {
        Tally::new()
    }

    fn new_scratch(&self) -> Self::Scratch {
        (OsEngine::new(self.g, &self.cfg), Vec::new())
    }

    fn trial(&self, t: u64, (engine, smb): &mut Self::Scratch, tally: &mut Tally) {
        let mut rng = trial_rng(self.cfg.seed, t);
        // The engine queries each edge at most once (single §V-B scan),
        // so the non-memoizing streaming oracle draws the exact same
        // stream the historical lazy sampler did.
        let mut oracle = StreamingOracle::new(self.g, &mut rng);
        engine.trial(&mut oracle, smb);
        tally.record_trial(smb.iter());
    }

    fn merge(&self, into: &mut Tally, from: Tally) {
        into.merge(from);
    }

    fn phase(&self) -> &'static str {
        "os.sample"
    }
}

/// Reusable per-trial machinery of Algorithm 2.
///
/// Lives for the duration of a run so the adjacency scratch (`added`), the
/// touched-middle list, and the slot map keep their capacity across trials.
pub struct OsEngine<'g> {
    g: &'g UncertainBipartiteGraph,
    /// `(left, right)` per scan position ([`UncertainBipartiteGraph::desc_endpoints`]).
    ends: &'g [(u32, u32)],
    middle_side: Side,
    /// `w̄`, the top-3 edge weight sum (Algorithm 2 line 2).
    w_bar: Weight,
    edge_ordering: bool,
    dynamic_wbar: bool,
    /// Per-middle list of already-scanned present edges: `(other, w(e))`.
    added: Vec<Vec<(u32, Weight)>>,
    /// Middles with non-empty `added` lists, for O(touched) clearing.
    touched: Vec<u32>,
    /// `A₁/A₂` slots per endpoint pair (non-middle side). A flat
    /// generation-stamped table, not a map of `TopTwoAngles`: dense
    /// trials create tens of thousands of slots, almost all single-angle.
    /// Directly indexed when the endpoint side is small (see
    /// [`SlotTable`]).
    slots: SlotTable,
}

impl<'g> OsEngine<'g> {
    /// Prepares an engine for `g` under `cfg`.
    pub fn new(g: &'g UncertainBipartiteGraph, cfg: &OsConfig) -> Self {
        let middle_side = cfg.middle_side.unwrap_or_else(|| g.cheaper_middle_side());
        let (mids, endpoints) = match middle_side {
            Side::Left => (g.num_left(), g.num_right()),
            Side::Right => (g.num_right(), g.num_left()),
        };
        OsEngine {
            g,
            ends: g.desc_endpoints(),
            middle_side,
            w_bar: g.top3_weight_sum(),
            edge_ordering: cfg.edge_ordering,
            dynamic_wbar: cfg.dynamic_wbar,
            added: vec![Vec::new(); mids],
            touched: Vec::new(),
            slots: SlotTable::new(endpoints),
        }
    }

    /// The middle side this engine settled on.
    pub fn middle_side(&self) -> Side {
        self.middle_side
    }

    /// Runs one trial against `oracle`, writing the maximum butterfly set
    /// into `smb` (cleared first). Returns `w_max` (0 when `smb` is empty).
    ///
    /// Generic over the oracle so the production [`StreamingOracle`]'s
    /// draw inlines into the scan. The oracle is asked about every edge
    /// the scan reaches, in scan order, exactly once, before the partner
    /// prunes below decide whether the edge is worth combining: the
    /// words a sampling oracle consumes depend only on where the §V-B
    /// break ends the scan. Each present edge's endpoints come from the
    /// scan-aligned [`UncertainBipartiteGraph::desc_endpoints`]
    /// (DESIGN.md §6.5).
    ///
    /// # Dynamic `w̄` (extension beyond the paper)
    ///
    /// The published §V-B bound prunes once `w(e) + w̄ < w_max` with `w̄`
    /// the global top-3 weight sum. But any still-unregistered butterfly
    /// has (a) at least one edge at or after the scan position (weight
    /// `≤ w(e)`), and (b) three companion edges that are each either
    /// *already scanned and present* (so `≤` the top present weights) or
    /// themselves at/after the position (`≤ w(e)`). The sum of its
    /// companions is therefore at most the sum of the three largest
    /// values in `{p₁, p₂, p₃, w(e), w(e), w(e)}`, with `pᵢ` the three
    /// heaviest *present* edges so far. That bound is never looser than
    /// the paper's, and is substantially tighter when heavy edges carry
    /// low probabilities (e.g. distance-weighted brain networks where
    /// long-range connections are improbable). Pruning earlier never
    /// changes `S_MB` — only butterflies strictly below `w_max` are
    /// skipped.
    ///
    /// # Partner-head prune
    ///
    /// Every angle a present edge `e` joins has its partner either in
    /// `added[mid]` already (weight `≤` the list's head) or still ahead
    /// in the scan (`≤ w(e)`), and the butterfly's other angle weighs at
    /// most the companion bound. When `w(e) + max(head, w(e)) +
    /// companion < w_max`, no butterfly through `e` can reach `w_max` —
    /// now or later, since the companion bound only shrinks and `w_max`
    /// only grows — so `e` neither walks its partners nor joins
    /// `added[mid]`. Every angle this skips the per-partner break below
    /// would also have skipped, so the slots, and `S_MB`, are unchanged.
    pub fn trial<O: EdgeOracle>(&mut self, oracle: &mut O, smb: &mut Vec<Butterfly>) -> Weight {
        smb.clear();
        self.clear_scratch();

        let mut w_max = f64::NEG_INFINITY;
        // Top-3 present edge weights seen so far (descending).
        let mut present_top = [f64::NEG_INFINITY; 3];
        // Scan-aligned arrays: weights, endpoints (and, inside sampling
        // oracles, acceptance thresholds) are read sequentially instead
        // of gathered through the edge-id permutation.
        let desc_ids = self.g.desc_edge_ids();
        let desc_weights = &self.g.desc_weights()[..desc_ids.len()];
        let ends = &self.ends[..desc_ids.len()];
        for pos in 0..desc_ids.len() {
            let w_e = desc_weights[pos];
            // §V-B: every butterfly through e weighs ≤ w(e) + w̄.
            if self.edge_ordering {
                let w_bar = if self.dynamic_wbar {
                    dynamic_wbar(&present_top, w_e)
                } else {
                    self.w_bar
                };
                if w_e + w_bar < w_max {
                    break;
                }
            }
            if !oracle.present_at(pos, EdgeId(desc_ids[pos])) {
                continue;
            }
            // Insert w_e into the sorted top-3 (edges arrive in
            // descending weight order, so this fills front-to-back).
            // Maintained unconditionally: the combine prune below needs
            // the top-2 present weights even when dynamic w̄ is off.
            if w_e > present_top[0] {
                present_top = [w_e, present_top[0], present_top[1]];
            } else if w_e > present_top[1] {
                present_top = [present_top[0], w_e, present_top[1]];
            } else if w_e > present_top[2] {
                present_top[2] = w_e;
            }
            let (u, v) = ends[pos];
            let (mid, other) = match self.middle_side {
                Side::Right => (v, u),
                Side::Left => (u, v),
            };
            // Any butterfly is two angles on the same endpoint pair; each
            // angle is a sum of two *present* edges. Every present edge —
            // seen or still ahead of the weight-descending scan — weighs
            // at most `max(present_top[i], w_e)`, so no companion angle
            // can ever exceed this bound. It is fixed for the rest of the
            // trial once two present edges have been seen.
            let companion = present_top[0].max(w_e) + present_top[1].max(w_e);
            let partners = &mut self.added[mid as usize];
            // Partner-head prune (see above): `partners` is weight-
            // descending, so its head bounds every seen partner.
            let head = partners.first().map_or(w_e, |&(_, w2)| w2.max(w_e));
            if w_e + head + companion < w_max {
                continue;
            }
            // Combine with every earlier present edge sharing this middle
            // (Algorithm 2 lines 10–13). `added` holds partners in scan
            // order, i.e. weight-descending: as soon as one angle cannot
            // reach `w_max` with the best possible companion, neither can
            // any later partner — break, don't wade through the slot map.
            // `w_max` only grows, so skipped angles can never re-qualify;
            // ties (`==`) are kept, so `S_MB` is untouched.
            for &(o2, w2) in partners.iter() {
                if w_e + w2 + companion < w_max {
                    break;
                }
                if let Some(bw) = self.slots.insert(other, o2, mid, w_e + w2) {
                    if bw > w_max {
                        w_max = bw;
                    }
                }
            }
            if partners.is_empty() {
                self.touched.push(mid);
            }
            partners.push((other, w_e));
        }

        // §V-D fast butterfly creating (Algorithm 2 lines 15–20).
        let (slots, middle_side) = (&self.slots, self.middle_side);
        slots.for_each_live(|x, y, w1, m1, w2, m2| {
            if m1.len() >= 2 {
                if w1 + w1 == w_max {
                    for i in 0..m1.len() {
                        for j in (i + 1)..m1.len() {
                            smb.push(Self::butterfly_of(middle_side, x, y, m1[i], m1[j]));
                        }
                    }
                }
            } else if !m2.is_empty() && w1 + w2 == w_max {
                for &b in m2 {
                    smb.push(Self::butterfly_of(middle_side, x, y, m1[0], b));
                }
            }
        });
        if smb.is_empty() {
            0.0
        } else {
            w_max
        }
    }

    #[inline]
    fn butterfly_of(middle_side: Side, x: u32, y: u32, mid_a: u32, mid_b: u32) -> Butterfly {
        match middle_side {
            Side::Right => Butterfly::new(Left(x), Left(y), Right(mid_a), Right(mid_b)),
            Side::Left => Butterfly::new(Left(mid_a), Left(mid_b), Right(x), Right(y)),
        }
    }

    fn clear_scratch(&mut self) {
        let touched = std::mem::take(&mut self.touched);
        for &m in &touched {
            self.added[m as usize].clear();
        }
        self.touched = touched;
        self.touched.clear();
        self.slots.begin_trial();
    }
}

/// The three largest values of `{p₁, p₂, p₃, wₑ, wₑ, wₑ}` summed, where
/// `present_top` is sorted descending (possibly containing `-∞` slots).
#[inline]
fn dynamic_wbar(present_top: &[Weight; 3], w_e: Weight) -> Weight {
    if w_e >= present_top[0] {
        3.0 * w_e
    } else if w_e >= present_top[1] {
        present_top[0] + 2.0 * w_e
    } else if w_e >= present_top[2] {
        present_top[0] + present_top[1] + w_e
    } else {
        present_top[0] + present_top[1] + present_top[2]
    }
}

/// Computes `S_MB(W)` of a fixed world with the Ordering Sampling engine —
/// the per-trial body exposed for cross-validation against MC-VP and brute
/// force. Returns `(w_max, S_MB)`.
pub fn os_smb_of_world(
    g: &UncertainBipartiteGraph,
    world: &PossibleWorld,
    cfg: &OsConfig,
) -> (Weight, Vec<Butterfly>) {
    let mut engine = OsEngine::new(g, cfg);
    let mut smb = Vec::new();
    let w = engine.trial(&mut WorldOracle(world), &mut smb);
    (w, smb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::max_butterflies_in_world;
    use crate::distribution::Distribution;
    use crate::engine::{Cancel, Executor};
    use bigraph::GraphBuilder;

    /// `trials` OS trials under `cfg`, sequentially.
    fn run(g: &UncertainBipartiteGraph, cfg: OsConfig, trials: u64) -> Distribution {
        Executor::new(1)
            .run(&OsTrials::new(g, &cfg), trials, &Cancel::never())
            .acc
            .into_distribution()
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

    fn sorted(mut v: Vec<Butterfly>) -> Vec<Butterfly> {
        v.sort();
        v
    }

    #[test]
    fn per_world_smb_matches_brute_force_all_fig1_worlds() {
        let g = fig1();
        for mask in 0u32..64 {
            let mut world = PossibleWorld::empty(6);
            for i in 0..6 {
                if mask >> i & 1 == 1 {
                    world.insert(EdgeId(i));
                }
            }
            for middle in [Some(Side::Left), Some(Side::Right), None] {
                for ordering in [true, false] {
                    for dynamic in [true, false] {
                        let cfg = OsConfig {
                            edge_ordering: ordering,
                            dynamic_wbar: dynamic,
                            middle_side: middle,
                            ..Default::default()
                        };
                        let (w, smb) = os_smb_of_world(&g, &world, &cfg);
                        let (rw, rsmb) = max_butterflies_in_world(&g, &world);
                        assert_eq!(
                            sorted(smb.clone()),
                            sorted(rsmb),
                            "mask={mask} middle={middle:?} ordering={ordering} dynamic={dynamic}"
                        );
                        if !smb.is_empty() {
                            assert_eq!(w, rw);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ties_produce_multiple_maximum_butterflies() {
        // K_{2,3} with all weights equal: three butterflies tie.
        let mut b = GraphBuilder::new();
        for u in 0..2 {
            for v in 0..3 {
                b.add_edge(Left(u), Right(v), 1.0, 1.0).unwrap();
            }
        }
        let g = b.build().unwrap();
        let (w, smb) = os_smb_of_world(&g, &PossibleWorld::full(&g), &OsConfig::default());
        assert_eq!(w, 4.0);
        assert_eq!(smb.len(), 3);
        assert_eq!(sorted(smb.clone()), {
            let mut v = smb;
            v.sort();
            v.dedup();
            v
        });
    }

    #[test]
    fn pruning_does_not_change_results() {
        let g = fig1();
        let cfg_on = OsConfig {
            seed: 5,
            ..Default::default()
        };
        let cfg_off = OsConfig {
            edge_ordering: false,
            ..cfg_on
        };
        let d_on = run(&g, cfg_on, 3_000);
        let d_off = run(&g, cfg_off, 3_000);
        // Identical trial RNG streams — but the pruned run draws fewer
        // edges per trial, so the *outcomes on scanned edges* coincide and
        // every per-trial S_MB is equal. Distributions match exactly.
        assert_eq!(d_on.max_abs_diff(&d_off), 0.0);
    }

    #[test]
    fn dynamic_wbar_does_not_change_results() {
        let g = fig1();
        let base = OsConfig {
            seed: 6,
            ..Default::default()
        };
        let d_dyn = run(
            &g,
            OsConfig {
                dynamic_wbar: true,
                ..base
            },
            3_000,
        );
        let d_paper = run(
            &g,
            OsConfig {
                dynamic_wbar: false,
                ..base
            },
            3_000,
        );
        // Same per-trial RNG streams; the dynamic bound may break earlier
        // but never drops a maximum butterfly, so the tallies coincide.
        assert_eq!(d_dyn.max_abs_diff(&d_paper), 0.0);
    }

    #[test]
    fn dynamic_wbar_helper_matches_spec() {
        use super::dynamic_wbar;
        let ninf = f64::NEG_INFINITY;
        // Nothing present yet: all three companions could be future edges.
        assert_eq!(dynamic_wbar(&[ninf; 3], 5.0), 15.0);
        // One heavy present edge: it plus two future edges.
        assert_eq!(dynamic_wbar(&[9.0, ninf, ninf], 5.0), 19.0);
        // Two present: both plus one future edge.
        assert_eq!(dynamic_wbar(&[9.0, 7.0, ninf], 5.0), 21.0);
        // Three present heavier than w_e: the paper's shape, but with
        // present weights.
        assert_eq!(dynamic_wbar(&[9.0, 7.0, 6.0], 5.0), 22.0);
        // Present edges lighter than w_e cannot happen in a descending
        // scan, but the helper still answers conservatively.
        assert_eq!(dynamic_wbar(&[3.0, 2.0, 1.0], 5.0), 15.0);
    }

    #[test]
    fn estimates_converge_to_exact() {
        let g = fig1();
        let cfg = OsConfig {
            seed: 7,
            ..Default::default()
        };
        let d = run(&g, cfg, 40_000);
        let exact = crate::exact::exact_distribution(&g, Default::default()).unwrap();
        for (b, &p) in exact.iter() {
            assert!(
                (d.prob(b) - p).abs() < 0.01,
                "{b}: est {} vs exact {}",
                d.prob(b),
                p
            );
        }
        assert_eq!(d.mpmb().unwrap().0, exact.mpmb().unwrap().0);
    }

    #[test]
    fn middle_side_choice_is_transparent() {
        let g = fig1();
        let side = |middle_side| OsConfig {
            seed: 3,
            middle_side,
            ..Default::default()
        };
        let d_l = run(&g, side(Some(Side::Left)), 2_000);
        let d_r = run(&g, side(Some(Side::Right)), 2_000);
        // Same trial RNG streams and the same scan order ⇒ same sampled
        // outcomes per edge ⇒ identical S_MB sets per trial.
        assert_eq!(d_l.max_abs_diff(&d_r), 0.0);
    }

    #[test]
    fn runs_are_reproducible() {
        let g = fig1();
        let cfg = OsConfig {
            seed: 11,
            ..Default::default()
        };
        let a = run(&g, cfg, 800);
        let b = run(&g, cfg, 800);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new().build().unwrap();
        let d = run(&g, OsConfig::default(), 10);
        assert!(d.is_empty());
    }

    #[test]
    fn engine_scratch_survives_many_trials() {
        // Exercise scratch reuse: alternating dense/empty worlds.
        let g = fig1();
        let mut engine = OsEngine::new(&g, &OsConfig::default());
        let mut smb = Vec::new();
        let full = PossibleWorld::full(&g);
        let empty = PossibleWorld::empty(g.num_edges());
        for i in 0..50 {
            let world = if i % 2 == 0 { &full } else { &empty };
            let w = engine.trial(&mut WorldOracle(world), &mut smb);
            if i % 2 == 0 {
                assert_eq!(w, 10.0);
                assert_eq!(smb.len(), 1);
            } else {
                assert!(smb.is_empty());
            }
        }
    }
}

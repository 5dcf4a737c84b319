//! Dynamic worlds: churn, drifting truth, and adaptive corruption across
//! a sequence of protocol repetitions.
//!
//! The paper analyzes one execution against a static world; this module
//! runs a *sequence* of executions ("rounds") over a world that changes
//! between them along three independent axes:
//!
//! * **drift** — the hidden preferences move per epoch
//!   ([`byzscore_board::DriftingTruth`]; round `r` runs at epoch `r`);
//! * **churn** — players retire and fresh identities join between rounds
//!   ([`ChurnSchedule`], realized as an identity remap over a fixed pool
//!   source via [`byzscore_board::RemappedTruth`], cf. Solidago's
//!   churning-population pipeline);
//! * **adaptivity** — the adversary observes each completed round
//!   (surviving group sizes, honest error scores) and re-targets its
//!   corruption budget for the next one
//!   ([`byzscore_adversary::AdaptiveCorruption`]).
//!
//! Each round is an ordinary immutable [`Session`] execution — drift and
//! churn are *adapters composed over the truth substrate*, never mutation
//! — so every per-round guarantee, metric, and determinism property of
//! the static machinery carries over unchanged, on dense and procedural
//! pools alike. The whole trajectory is a pure function of
//! `(pool, schedules, master seed)`: `tests/determinism.rs` pins
//! bit-identity across 1/2/8 worker threads and across substrates.

use std::sync::Arc;

use byzscore_adversary::{
    AdaptiveCorruption, AdaptivePolicy, Corruption, Observation, Strategy, Truthful,
};
use byzscore_bitset::Bits;
use byzscore_board::{
    ClusterSpec, DenseTruth, DriftSchedule, DriftingTruth, ProceduralTruth, RemappedTruth,
    TruthSource,
};
use byzscore_model::Planted;
use byzscore_random::derive_seed;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::runner::{Algorithm, Outcome, OutputSink, Session};
use crate::ProtocolParams;

// Seed-derivation tags of the dynamic runner (distinct from each other;
// truth, drift, and churn randomness flow from independent seeds).
const TAG_ROUND: u64 = 0xd7_01;
const TAG_CHURN: u64 = 0xd7_02;

/// Population turnover between consecutive rounds.
///
/// Between round `r-1` and round `r`, `retire` active players leave
/// (chosen by seeded shuffle) and `join` fresh identities from the pool
/// take slots — survivors keep their relative order, joiners append at
/// the tail, so the remap is deterministic and auditable. `retire` and
/// `join` may differ: the population then shrinks or grows round over
/// round (the per-round `n` the protocol sees follows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnSchedule {
    /// Players retired entering each round.
    pub retire: usize,
    /// Fresh pool identities joining entering each round.
    pub join: usize,
    /// Seed of the churn randomness.
    pub seed: u64,
}

impl ChurnSchedule {
    /// Replacement churn: `turnover` players leave and as many join, so
    /// the population size is invariant.
    pub fn replacement(turnover: usize, seed: u64) -> Self {
        ChurnSchedule {
            retire: turnover,
            join: turnover,
            seed,
        }
    }

    /// Fresh identities consumed over `rounds` rounds (the pool headroom a
    /// world must provision beyond its initial population).
    pub fn joins_over(&self, rounds: usize) -> usize {
        self.join * rounds.saturating_sub(1)
    }
}

/// Everything recorded from one round of a dynamic run.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Round index (0-based; round `r` runs at drift epoch `r`).
    pub round: usize,
    /// Drift epoch of the round's world (= round index; 0 without drift).
    pub epoch: u64,
    /// Active population this round.
    pub players: usize,
    /// Pool identities retired entering this round (empty for round 0).
    pub retired: Vec<u32>,
    /// Pool identities joined entering this round (empty for round 0).
    pub joined: Vec<u32>,
    /// Group the adaptive adversary targeted this round, if it adapted.
    pub target_group: Option<usize>,
    /// The round's full measured outcome.
    pub outcome: Outcome,
}

/// The trajectory of a dynamic run.
#[derive(Clone, Debug)]
pub struct DynamicOutcome {
    /// One report per round, in order.
    pub rounds: Vec<RoundReport>,
}

impl DynamicOutcome {
    /// Max honest error per round.
    pub fn max_err_trajectory(&self) -> Vec<u64> {
        self.rounds
            .iter()
            .map(|r| r.outcome.errors.max as u64)
            .collect()
    }
}

/// An executable dynamic world: a pool substrate plus the change laws.
///
/// Build with [`DynamicWorld::builder`]; run with [`DynamicWorld::run`].
///
/// ```
/// use byzscore::{Algorithm, ChurnSchedule, ClusterSpec, DynamicWorld, ProtocolParams};
/// use byzscore_adversary::{AdaptiveCorruption, AdaptivePolicy, Corruption, Inverter};
/// use byzscore_board::DriftSchedule;
///
/// let world = DynamicWorld::builder()
///     .pool(ClusterSpec { players: 64, objects: 96, clusters: 4, diameter: 4, seed: 3 })
///     .active(48)
///     .params(ProtocolParams::with_budget(4))
///     .churn(ChurnSchedule::replacement(4, 11))
///     .drift(DriftSchedule::uniform(0.002, 13))
///     .adversary(
///         AdaptiveCorruption::new(
///             Corruption::Count { count: 4 },
///             1,
///             AdaptivePolicy::SmallestGroup,
///         ),
///         Inverter,
///     )
///     .build();
/// let run = world.run(Algorithm::GlobalMajority, 3, 42);
/// assert_eq!(run.rounds.len(), 3);
/// assert!(run.rounds[1].target_group.is_some(), "adversary adapted");
/// ```
pub struct DynamicWorld {
    pool: Arc<dyn TruthSource>,
    pool_planted: Option<Planted>,
    active: usize,
    params: ProtocolParams,
    corruption: AdaptiveCorruption,
    strategy: Arc<dyn Strategy>,
    churn: Option<ChurnSchedule>,
    drift: Option<DriftSchedule>,
    sink: OutputSink,
}

impl DynamicWorld {
    /// Start building a dynamic world.
    pub fn builder() -> DynamicWorldBuilder {
        DynamicWorldBuilder {
            pool: None,
            pool_planted: None,
            active: None,
            params: None,
            corruption: AdaptiveCorruption::off(Corruption::None),
            strategy: None,
            churn: None,
            drift: None,
            sink: OutputSink::Dense,
        }
    }

    /// Initial active population.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Execute `rounds` rounds of `algorithm` under master seed `seed`.
    ///
    /// Round `r` (0-based) runs at drift epoch `r` on the current identity
    /// map; churn is applied entering every round after the first; the
    /// adaptive adversary sees the observations of all completed rounds
    /// (bounded by its window). Rounds are sequential by construction —
    /// each depends on the last — and the trajectory is bit-identical at
    /// any thread count.
    pub fn run(&self, algorithm: Algorithm, rounds: usize, seed: u64) -> DynamicOutcome {
        let mut map: Vec<u32> = (0..self.active as u32).collect();
        let mut next_fresh = self.active as u32;
        let pool_rows = self.pool.players() as u32;
        let mut history: Vec<Observation> = Vec::new();
        let mut reports = Vec::new();

        for round in 0..rounds {
            // Churn is applied entering every round after the first.
            let (retired, joined) = match &self.churn {
                Some(churn) if round > 0 => {
                    let seed = derive_seed(churn.seed, &[TAG_CHURN, round as u64]);
                    churn_step(
                        &mut map,
                        &mut next_fresh,
                        pool_rows,
                        churn.retire,
                        churn.join,
                        &mut SmallRng::seed_from_u64(seed),
                    )
                }
                _ => (Vec::new(), Vec::new()),
            };
            let n = map.len();

            let epoch = self.drift.as_ref().map_or(0, |_| round as u64);
            let truth = compose_world(&self.pool, self.drift.as_ref(), epoch, &map);
            let planted = self.pool_planted.as_ref().map(|p| remap_planted(p, &map));

            let round_seed = derive_seed(seed, &[TAG_ROUND, round as u64]);
            let (mask, target_group) =
                self.corruption
                    .select_mask_with_target(n, planted.as_ref(), round_seed, &history);

            let mut builder = Session::builder()
                .truth(truth.clone())
                .params(self.params.clone())
                .adversary_shared(
                    Corruption::Explicit { mask: mask.clone() },
                    self.strategy.clone(),
                )
                .output_sink(self.sink);
            if let Some(p) = planted.clone() {
                builder = builder.planted(p);
            }
            let outcome = builder.build().run(algorithm, round_seed);

            // A window-0 adversary can never consult the history, and the
            // mean-error half of an observation (a full hamming pass over
            // every honest player) is only read by the HighestError policy
            // — skip what nothing will look at.
            if self.corruption.window > 0 {
                let with_scores = self.corruption.policy == AdaptivePolicy::HighestError;
                history.push(observe(
                    &outcome,
                    planted.as_ref(),
                    &mask,
                    truth.as_ref(),
                    with_scores,
                ));
            }
            reports.push(RoundReport {
                round,
                epoch,
                players: n,
                retired,
                joined,
                target_group,
                outcome,
            });
        }
        DynamicOutcome { rounds: reports }
    }
}

/// The churn law, one step: retire `retire` active slots of `map` (chosen
/// by shuffle under `rng`; never below one player) and append up to `join`
/// fresh pool identities starting at `next_fresh` (stopping when the
/// `pool_rows`-row pool is exhausted — the world then stops growing).
/// Survivors keep relative order and joiners take the tail, so the remap
/// is deterministic and auditable. Returns the retired and joined pool
/// identities. [`DynamicWorld`] and the scoring service both step their
/// populations through this function; only their seeds differ.
pub fn churn_step(
    map: &mut Vec<u32>,
    next_fresh: &mut u32,
    pool_rows: u32,
    retire: usize,
    join: usize,
    rng: &mut impl Rng,
) -> (Vec<u32>, Vec<u32>) {
    let (retire, join) = churn_counts(map.len(), *next_fresh, pool_rows, retire, join);
    let mut slots: Vec<usize> = (0..map.len()).collect();
    slots.shuffle(rng);
    let mut retiring: Vec<usize> = slots[..retire].to_vec();
    retiring.sort_unstable();
    let retired: Vec<u32> = retiring.iter().map(|&s| map[s]).collect();
    for &s in retiring.iter().rev() {
        map.remove(s);
    }
    let joined: Vec<u32> = (*next_fresh..*next_fresh + join as u32).collect();
    map.extend_from_slice(&joined);
    *next_fresh += join as u32;
    (retired, joined)
}

/// How many players one [`churn_step`] over `active` players retires and
/// admits: at most `retire`, never leaving fewer than one player, and at
/// most `join`, stopping when the `pool_rows`-row pool has no fresh
/// identity left at `next_fresh`.
pub fn churn_counts(
    active: usize,
    next_fresh: u32,
    pool_rows: u32,
    retire: usize,
    join: usize,
) -> (usize, usize) {
    (
        retire.min(active.saturating_sub(1)),
        join.min(pool_rows.saturating_sub(next_fresh) as usize),
    )
}

/// The world active slots see at `epoch`: `pool` → drift to `epoch` (when
/// a schedule is given) → identity remap through `map` (active slot →
/// pool identity). Adapters composed over the truth substrate, never
/// mutation. [`remap_planted`] gives the matching planted metadata.
pub fn compose_world(
    pool: &Arc<dyn TruthSource>,
    drift: Option<&DriftSchedule>,
    epoch: u64,
    map: &[u32],
) -> Arc<dyn TruthSource> {
    let stepped: Arc<dyn TruthSource> = match drift {
        Some(schedule) => {
            Arc::new(DriftingTruth::new(pool.clone(), schedule.clone()).at_epoch(epoch))
        }
        None => pool.clone(),
    };
    Arc::new(RemappedTruth::new(stepped, map.to_vec()))
}

/// Distill the adversary's between-round observation from a completed
/// round: honest survivors per group, and (when `with_scores` and the
/// output matrix was materialized) mean honest error per group.
fn observe(
    outcome: &Outcome,
    planted: Option<&Planted>,
    dishonest: &[bool],
    truth: &dyn TruthSource,
    with_scores: bool,
) -> Observation {
    let Some(planted) = planted else {
        return Observation::sizes(Vec::new());
    };
    let survivors: Vec<usize> = planted
        .clusters
        .iter()
        .map(|members| members.iter().filter(|&&p| !dishonest[p as usize]).count())
        .collect();
    let mean_err = outcome
        .output
        .as_ref()
        .filter(|_| with_scores)
        .map(|output| {
            planted
                .clusters
                .iter()
                .map(|members| {
                    let honest: Vec<u64> = members
                        .iter()
                        .filter(|&&p| !dishonest[p as usize])
                        .map(|&p| output.row(p as usize).hamming(&truth.row(p)) as u64)
                        .collect();
                    if honest.is_empty() {
                        0.0
                    } else {
                        honest.iter().sum::<u64>() as f64 / honest.len() as f64
                    }
                })
                .collect()
        });
    Observation {
        group_survivors: survivors,
        group_mean_err: mean_err,
    }
}

/// Planted metadata of the pool, viewed through the identity map: slot
/// assignments inherit from the underlying identities, cluster member
/// lists hold *slots* (what corruption targeting and skyline baselines
/// operate on). Centers and diameter describe the base epoch — drift
/// perturbs the live world around them (DESIGN.md §4.11).
pub fn remap_planted(pool: &Planted, map: &[u32]) -> Planted {
    let assignment: Vec<u32> = map.iter().map(|&id| pool.assignment[id as usize]).collect();
    let mut clusters = vec![Vec::new(); pool.clusters.len()];
    for (slot, &c) in assignment.iter().enumerate() {
        clusters[c as usize].push(slot as u32);
    }
    Planted {
        assignment,
        clusters,
        centers: pool.centers.clone(),
        target_diameter: pool.target_diameter,
        special_objects: pool.special_objects.clone(),
    }
}

/// Builder for [`DynamicWorld`] — pool substrate first, then the change
/// laws, then [`DynamicWorldBuilder::build`].
pub struct DynamicWorldBuilder {
    pool: Option<Arc<dyn TruthSource>>,
    pool_planted: Option<Planted>,
    active: Option<usize>,
    params: Option<ProtocolParams>,
    corruption: AdaptiveCorruption,
    strategy: Option<Arc<dyn Strategy>>,
    churn: Option<ChurnSchedule>,
    drift: Option<DriftSchedule>,
    sink: OutputSink,
}

impl DynamicWorldBuilder {
    /// Procedural pool over `spec` (`O(1)` memory in the pool size). The
    /// spec's `players` is the *pool* capacity; combine with
    /// [`DynamicWorldBuilder::active`] to leave join headroom.
    pub fn pool(mut self, spec: ClusterSpec) -> Self {
        let source = ProceduralTruth::new(spec);
        self.pool_planted = Some(planted_of(&source));
        self.pool = Some(Arc::new(source));
        self
    }

    /// Dense twin of [`DynamicWorldBuilder::pool`]: identical bits and
    /// metadata on a materialized matrix, for substrate-equivalence checks
    /// and dense-only metrics.
    pub fn pool_dense(mut self, spec: ClusterSpec) -> Self {
        let source = ProceduralTruth::new(spec);
        self.pool_planted = Some(planted_of(&source));
        self.pool = Some(Arc::new(DenseTruth::new(source.materialize())));
        self
    }

    /// Initial active population (default: the whole pool — leaving no
    /// headroom for joiners).
    pub fn active(mut self, n: usize) -> Self {
        self.active = Some(n);
        self
    }

    /// Protocol parameters (default `ProtocolParams::with_budget(8)`).
    pub fn params(mut self, params: ProtocolParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Install the adaptive corruption model and dishonest strategy.
    pub fn adversary(
        mut self,
        corruption: AdaptiveCorruption,
        strategy: impl Strategy + 'static,
    ) -> Self {
        self.corruption = corruption;
        self.strategy = Some(Arc::new(strategy));
        self
    }

    /// Population turnover between rounds.
    pub fn churn(mut self, schedule: ChurnSchedule) -> Self {
        self.churn = Some(schedule);
        self
    }

    /// Preference drift across rounds (round `r` runs at epoch `r`).
    pub fn drift(mut self, schedule: DriftSchedule) -> Self {
        self.drift = Some(schedule);
        self
    }

    /// Output disposal per round (default dense; `@scale` worlds stream).
    pub fn output_sink(mut self, sink: OutputSink) -> Self {
        self.sink = sink;
        self
    }

    /// Finish. Panics without a pool, or if `active` exceeds it.
    pub fn build(self) -> DynamicWorld {
        let pool = self.pool.expect("DynamicWorld: set a pool substrate first");
        let active = self.active.unwrap_or(pool.players());
        assert!(
            active >= 1 && active <= pool.players(),
            "active population {active} outside pool of {}",
            pool.players()
        );
        DynamicWorld {
            pool,
            pool_planted: self.pool_planted,
            active,
            params: self
                .params
                .unwrap_or_else(|| ProtocolParams::with_budget(8)),
            corruption: self.corruption,
            strategy: self
                .strategy
                .unwrap_or_else(|| Arc::new(Truthful) as Arc<dyn Strategy>),
            churn: self.churn,
            drift: self.drift,
            sink: self.sink,
        }
    }
}

/// Planted metadata of a procedural pool (same shape the static
/// `SessionBuilder::procedural` records).
fn planted_of(source: &ProceduralTruth) -> Planted {
    Planted {
        assignment: source.assignment(),
        clusters: source.clusters(),
        centers: source.centers().to_vec(),
        target_diameter: source.spec().diameter,
        special_objects: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_adversary::{AdaptivePolicy, Inverter};

    fn spec(pool: usize) -> ClusterSpec {
        ClusterSpec {
            players: pool,
            objects: 96,
            clusters: 4,
            diameter: 4,
            seed: 0xdead,
        }
    }

    fn world() -> DynamicWorld {
        DynamicWorld::builder()
            .pool(spec(72))
            .active(48)
            .params(ProtocolParams::with_budget(4))
            .churn(ChurnSchedule::replacement(6, 5))
            .drift(DriftSchedule::uniform(0.001, 7))
            .adversary(
                AdaptiveCorruption::new(
                    Corruption::Count { count: 4 },
                    1,
                    AdaptivePolicy::SmallestGroup,
                ),
                Inverter,
            )
            .build()
    }

    #[test]
    fn trajectory_shape_and_population() {
        let run = world().run(Algorithm::GlobalMajority, 3, 1);
        assert_eq!(run.rounds.len(), 3);
        for (r, report) in run.rounds.iter().enumerate() {
            assert_eq!(report.round, r);
            assert_eq!(report.epoch, r as u64);
            assert_eq!(report.players, 48, "replacement churn keeps n fixed");
            assert_eq!(report.outcome.dishonest_count, 4);
            if r == 0 {
                assert!(report.retired.is_empty() && report.joined.is_empty());
                assert_eq!(report.target_group, None, "nothing observed yet");
            } else {
                assert_eq!(report.retired.len(), 6);
                assert_eq!(report.joined.len(), 6);
                assert!(report.target_group.is_some(), "adversary adapted");
            }
        }
        // Joined identities are fresh pool rows, in order.
        assert_eq!(run.rounds[1].joined, vec![48, 49, 50, 51, 52, 53]);
        assert_eq!(run.rounds[2].joined, vec![54, 55, 56, 57, 58, 59]);
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let w = world();
        let a = w.run(Algorithm::GlobalMajority, 3, 9);
        let b = w.run(Algorithm::GlobalMajority, 3, 9);
        let c = w.run(Algorithm::GlobalMajority, 3, 10);
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.outcome.output, y.outcome.output);
            assert_eq!(x.retired, y.retired);
            assert_eq!(x.target_group, y.target_group);
        }
        assert!(
            a.rounds
                .iter()
                .zip(&c.rounds)
                .any(|(x, y)| x.outcome.output != y.outcome.output),
            "distinct master seeds must differ"
        );
    }

    #[test]
    fn growth_and_shrink_follow_the_schedule() {
        let grow = DynamicWorld::builder()
            .pool(spec(72))
            .active(40)
            .params(ProtocolParams::with_budget(4))
            .churn(ChurnSchedule {
                retire: 2,
                join: 6,
                seed: 3,
            })
            .build()
            .run(Algorithm::GlobalMajority, 3, 2);
        let sizes: Vec<usize> = grow.rounds.iter().map(|r| r.players).collect();
        assert_eq!(sizes, vec![40, 44, 48]);

        let shrink = DynamicWorld::builder()
            .pool(spec(48))
            .active(48)
            .params(ProtocolParams::with_budget(4))
            .churn(ChurnSchedule {
                retire: 8,
                join: 0,
                seed: 3,
            })
            .build()
            .run(Algorithm::GlobalMajority, 3, 2);
        let sizes: Vec<usize> = shrink.rounds.iter().map(|r| r.players).collect();
        assert_eq!(sizes, vec![48, 40, 32]);
    }

    #[test]
    fn static_world_rounds_repeat_identically() {
        // No churn, no drift, static corruption: every round is the same
        // pure function of its seed — distinct seeds, but the world and
        // mask machinery must be stable.
        let w = DynamicWorld::builder()
            .pool(spec(48))
            .params(ProtocolParams::with_budget(4))
            .adversary(
                AdaptiveCorruption::off(Corruption::FirstK { count: 4 }),
                Inverter,
            )
            .build();
        let run = w.run(Algorithm::GlobalMajority, 2, 7);
        assert_eq!(run.rounds[0].players, 48);
        assert_eq!(run.rounds[1].players, 48);
        // FirstK is seed-independent, so the dishonest sets coincide.
        assert_eq!(
            run.rounds[0].outcome.dishonest_count,
            run.rounds[1].outcome.dishonest_count
        );
    }

    #[test]
    fn churn_preserves_identity_uniqueness() {
        let run = world().run(Algorithm::GlobalMajority, 4, 3);
        for report in &run.rounds {
            // Retired identities never rejoin (fresh ids are monotone).
            for j in &report.joined {
                assert!(*j >= 48, "joined identity {j} is not fresh");
            }
        }
    }

    #[test]
    fn error_stream_sink_omits_scores_from_observations() {
        let w = DynamicWorld::builder()
            .pool(spec(48))
            .params(ProtocolParams::with_budget(4))
            .adversary(
                AdaptiveCorruption::new(
                    Corruption::Count { count: 4 },
                    2,
                    AdaptivePolicy::HighestError,
                ),
                Inverter,
            )
            .output_sink(OutputSink::ErrorStream)
            .build();
        // HighestError degrades to smallest-group without dense output;
        // the run must still adapt and complete.
        let run = w.run(Algorithm::GlobalMajority, 3, 5);
        assert!(run.rounds[1].target_group.is_some());
        assert!(run.rounds[2].outcome.output.is_none());
    }
}

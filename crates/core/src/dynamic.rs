//! Dynamic worlds: churn, drifting truth, and adaptive corruption across
//! a sequence of protocol repetitions.
//!
//! The paper analyzes one execution against a static world; this module
//! runs a *sequence* of executions ("rounds") over a world that changes
//! between them along three independent axes:
//!
//! * **drift** — the hidden preferences move per epoch under a
//!   [`DriftSchedule`] (round `r` runs at epoch `r`);
//! * **churn** — players retire and fresh identities join between rounds
//!   ([`ChurnSchedule`], realized as an identity map over a fixed pool,
//!   cf. Solidago's churning-population pipeline);
//! * **adaptivity** — the adversary observes each completed round
//!   (surviving group sizes, honest error scores) and re-targets its
//!   corruption budget for the next one
//!   ([`byzscore_adversary::AdaptiveCorruption`]).
//!
//! Both world axes live in one [`ResidentPool`], the pool as bits folded
//! forward an epoch at a time plus the churn map over it; the scoring
//! service ages its sessions through the same type. Each round is an
//! ordinary immutable [`Session`] execution over the pool's gathered
//! active rows — time passes *between* rounds — so every per-round
//! guarantee, metric, and determinism property of the static machinery
//! carries over unchanged. The drift/remap adapter composition stays as
//! the reference tests compare against. The whole trajectory is a pure
//! function of `(pool, schedules, master seed)` (`tests/determinism.rs`
//! pins reruns bit-identical).

use std::sync::Arc;

use byzscore_adversary::{
    AdaptiveCorruption, AdaptivePolicy, Corruption, Observation, Strategy, Truthful,
};
use byzscore_bitset::{BitMatrix, Bits};
use byzscore_board::{ClusterSpec, DenseTruth, DriftSchedule, ProceduralTruth, TruthSource};
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
    pool: ProceduralTruth,
    pool_planted: Planted,
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
    /// any thread count. The pool is materialized once per run into a
    /// [`ResidentPool`] and aged in place.
    pub fn run(&self, algorithm: Algorithm, rounds: usize, seed: u64) -> DynamicOutcome {
        let mut world = ResidentPool::new(
            &self.pool,
            self.pool_planted.clone(),
            self.drift.clone(),
            self.active,
        );
        let mut history: Vec<Observation> = Vec::new();
        let mut reports = Vec::new();

        for round in 0..rounds {
            // Churn and drift are applied entering every round after the
            // first; without a drift schedule the epoch stays 0.
            let (retired, joined) = match &self.churn {
                Some(churn) if round > 0 => {
                    let seed = derive_seed(churn.seed, &[TAG_CHURN, round as u64]);
                    world.churn(churn.retire, churn.join, &mut SmallRng::seed_from_u64(seed))
                }
                _ => (Vec::new(), Vec::new()),
            };
            if round > 0 && self.drift.is_some() {
                world.advance_epoch();
            }
            let (truth, planted) = world.active();
            let n = world.map.len();

            let round_seed = derive_seed(seed, &[TAG_ROUND, round as u64]);
            let (mask, target_group) =
                self.corruption
                    .select_mask_with_target(n, Some(&planted), round_seed, &history);

            let outcome = Session::builder()
                .truth(truth.clone())
                .planted(planted.clone())
                .params(self.params.clone())
                .adversary_shared(
                    Corruption::Explicit { mask: mask.clone() },
                    self.strategy.clone(),
                )
                .output_sink(self.sink)
                .build()
                .run(algorithm, round_seed);

            // A window-0 adversary can never consult the history, and the
            // mean-error half of an observation (a full hamming pass over
            // every honest player) is only read by the HighestError policy
            // — skip what nothing will look at.
            if self.corruption.window > 0 {
                let with_scores = self.corruption.policy == AdaptivePolicy::HighestError;
                history.push(observe(&outcome, &planted, &mask, &*truth, with_scores));
            }
            reports.push(RoundReport {
                round,
                epoch: world.epoch,
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

/// A fixed identity pool kept resident as bits and aged in place — the
/// world [`DynamicWorld`] rounds and the scoring service's sessions run
/// on. An epoch folds its flips into the bits ([`DriftSchedule::fold_epoch`]),
/// churn moves only the slot → identity map, and [`ResidentPool::active`]
/// gathers the active rows: the bits of the pool → drift → identity remap
/// adapter composition, at one bit per pool identity and object. The
/// public fields are for reading; the methods keep map ids distinct and
/// below `next_fresh`, `next_fresh` within the pool, and the bits at `epoch`.
#[derive(Debug, PartialEq)]
pub struct ResidentPool {
    bits: BitMatrix,
    planted: Planted,
    /// The drift law (`None`: the world never drifts).
    pub drift: Option<DriftSchedule>,
    /// Active slot → pool identity.
    pub map: Vec<u32>,
    /// The next identity a join hands out.
    pub next_fresh: u32,
    /// Epochs folded into the bits (counted with or without a drift law).
    pub epoch: u64,
}

/// Why [`ResidentPool::restore`] refused a map or a `next_fresh` that no
/// sequence of churns could leave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// `next_fresh` (first) lies past a pool of that many identities.
    FreshPastPool(u32, usize),
    /// A map entry (first) no join has handed out: not below `next_fresh`.
    NotYetJoined(u32, u32),
    /// A map entry names the same identity as another.
    Repeated(u32),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::FreshPastPool(n, rows) => {
                write!(f, "next_fresh {n} past its {rows}-row pool")
            }
            PoolError::NotYetJoined(id, n) => write!(f, "map entry {id} not below next_fresh {n}"),
            PoolError::Repeated(id) => write!(f, "map entry {id} repeats"),
        }
    }
}

impl std::error::Error for PoolError {}

impl ResidentPool {
    /// Materialize `source` at epoch 0 with identities `0..active` in
    /// slots `0..active`. Panics if `active` exceeds the pool.
    pub fn new(
        source: &dyn TruthSource,
        planted: Planted,
        drift: Option<DriftSchedule>,
        active: usize,
    ) -> Self {
        let map = (0..active as u32).collect();
        ResidentPool::restore(source, planted, drift, map, active as u32, 0)
            .unwrap_or_else(|e| panic!("active population {active} outside the pool: {e}"))
    }

    /// The pool as `map` and `next_fresh` after `epoch` epochs: `source`
    /// materialized and epochs `1..=epoch` folded (one hash step per
    /// driftable bit and epoch — bound an `epoch` from outside). First
    /// checks that `next_fresh` lies in the pool and that the map holds
    /// distinct identities below it, as every churn leaves them.
    pub fn restore(
        source: &dyn TruthSource,
        planted: Planted,
        drift: Option<DriftSchedule>,
        map: Vec<u32>,
        next_fresh: u32,
        epoch: u64,
    ) -> Result<Self, PoolError> {
        let rows = source.players();
        if next_fresh as usize > rows {
            return Err(PoolError::FreshPastPool(next_fresh, rows));
        }
        let mut seen = vec![false; next_fresh as usize];
        for &id in &map {
            match seen.get_mut(id as usize) {
                None => return Err(PoolError::NotYetJoined(id, next_fresh)),
                Some(true) => return Err(PoolError::Repeated(id)),
                Some(seen) => *seen = true,
            }
        }
        let mut bits = BitMatrix::zeros(rows, source.objects());
        for p in 0..rows {
            bits.set_row(p, &source.row(p as u32));
        }
        if let Some(drift) = &drift {
            for e in 1..=epoch {
                drift.fold_epoch(e, &mut bits);
            }
        }
        Ok(ResidentPool {
            bits,
            planted,
            drift,
            map,
            next_fresh,
            epoch,
        })
    }

    /// How many players [`ResidentPool::churn`] would retire and admit:
    /// at most `retire`, never leaving fewer than one player, and at most
    /// `join`, stopping when the pool has no fresh identity left.
    pub fn churn_counts(&self, retire: usize, join: usize) -> (usize, usize) {
        (
            retire.min(self.map.len().saturating_sub(1)),
            join.min(self.bits.rows().saturating_sub(self.next_fresh as usize)),
        )
    }

    /// The churn law, one step: retire slots chosen by shuffle under
    /// `rng` and append fresh identities, as [`ResidentPool::churn_counts`]
    /// allows; survivors keep order, joiners take the tail. Returns the
    /// retired and joined identities.
    pub fn churn(
        &mut self,
        retire: usize,
        join: usize,
        rng: &mut impl Rng,
    ) -> (Vec<u32>, Vec<u32>) {
        let (retire, join) = self.churn_counts(retire, join);
        let mut slots: Vec<usize> = (0..self.map.len()).collect();
        slots.shuffle(rng);
        let mut retiring: Vec<usize> = slots[..retire].to_vec();
        retiring.sort_unstable();
        let retired: Vec<u32> = retiring.iter().map(|&s| self.map[s]).collect();
        for &s in retiring.iter().rev() {
            self.map.remove(s);
        }
        let joined: Vec<u32> = (self.next_fresh..self.next_fresh + join as u32).collect();
        self.map.extend_from_slice(&joined);
        self.next_fresh += join as u32;
        (retired, joined)
    }

    /// Move to the next epoch, folding its flips into the pool in place.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
        if let Some(drift) = &self.drift {
            drift.fold_epoch(self.epoch, &mut self.bits);
        }
    }

    /// The active world: row `map[slot]` of the pool per slot, gathered
    /// into one dense truth, and the planted structure by slot (clusters
    /// list slots; centers and diameter describe epoch 0, DESIGN.md §4.11).
    pub fn active(&self) -> (Arc<dyn TruthSource>, Planted) {
        let pool = &self.planted;
        let mut active = BitMatrix::zeros(self.map.len(), self.bits.cols());
        let mut assignment = Vec::with_capacity(self.map.len());
        let mut clusters = vec![Vec::new(); pool.clusters.len()];
        for (slot, &id) in self.map.iter().enumerate() {
            active.set_row(slot, &self.bits.row(id as usize));
            let cluster = pool.assignment[id as usize];
            assignment.push(cluster);
            clusters[cluster as usize].push(slot as u32);
        }
        let planted = Planted {
            assignment,
            clusters,
            centers: pool.centers.clone(),
            target_diameter: pool.target_diameter,
            special_objects: pool.special_objects.clone(),
        };
        (Arc::new(DenseTruth::new(active)), planted)
    }
}

/// The world active slots see at `epoch`, read by read: `pool` → drift
/// to `epoch` → identity remap through `map`. Each read replays epochs
/// `1..=epoch`; the reference tests hold a [`ResidentPool`] against.
pub fn compose_world(
    pool: &Arc<dyn TruthSource>,
    drift: Option<&DriftSchedule>,
    epoch: u64,
    map: &[u32],
) -> Arc<dyn TruthSource> {
    let stepped: Arc<dyn TruthSource> = match drift {
        Some(schedule) => Arc::new(
            byzscore_board::DriftingTruth::new(pool.clone(), schedule.clone()).at_epoch(epoch),
        ),
        None => pool.clone(),
    };
    Arc::new(byzscore_board::RemappedTruth::new(stepped, map.to_vec()))
}

/// Distill the adversary's between-round observation from a completed
/// round: honest survivors per group, and (when `with_scores` and the
/// output matrix was materialized) mean honest error per group.
fn observe(
    outcome: &Outcome,
    planted: &Planted,
    dishonest: &[bool],
    truth: &dyn TruthSource,
    with_scores: bool,
) -> Observation {
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

/// Planted metadata of a procedural cluster spec (assignment, members,
/// centers), identical to what the dense twin would record.
pub fn procedural_planted(source: &ProceduralTruth) -> Planted {
    Planted {
        assignment: source.assignment(),
        clusters: source.clusters(),
        centers: source.centers().to_vec(),
        target_diameter: source.spec().diameter,
        special_objects: None,
    }
}

/// Builder for [`DynamicWorld`] — pool substrate first, then the change
/// laws, then [`DynamicWorldBuilder::build`].
pub struct DynamicWorldBuilder {
    pool: Option<ProceduralTruth>,
    active: Option<usize>,
    params: Option<ProtocolParams>,
    corruption: AdaptiveCorruption,
    strategy: Option<Arc<dyn Strategy>>,
    churn: Option<ChurnSchedule>,
    drift: Option<DriftSchedule>,
    sink: OutputSink,
}

impl DynamicWorldBuilder {
    /// Procedural pool over `spec`. The spec's `players` is the *pool*
    /// capacity; combine with [`DynamicWorldBuilder::active`] to leave
    /// join headroom. Each run materializes the pool as bits.
    pub fn pool(mut self, spec: ClusterSpec) -> Self {
        self.pool = Some(ProceduralTruth::new(spec));
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
            pool_planted: procedural_planted(&pool),
            pool,
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

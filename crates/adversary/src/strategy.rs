//! Dishonest-player strategies.

use std::sync::OnceLock;

use byzscore_bitset::{BitVec, Bits, ColumnCounter};
use byzscore_board::TruthSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which protocol stage a dishonest post belongs to.
///
/// Strategies key their behaviour on this: the interesting attacks differ
/// between *cluster formation* (worm into a victim's cluster by mimicking
/// it on the sample) and *work sharing* (corrupt the majority votes of
/// step 1.e once inside).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Sample-set evaluation: `SmallRadius`/`ZeroRadius` posts used to build
    /// the neighbor graph (steps 1.b–1.d).
    ClusterFormation,
    /// Redundant probing and majority voting (step 1.e).
    WorkSharing,
    /// Anything else (final candidate publication, auxiliary traffic).
    Other,
}

/// Read-only world view handed to strategies: the omniscient adversary.
///
/// Dishonest players know the full hidden truth (strictly stronger than any
/// realizable adversary, hence a sound stress test) and who their fellow
/// conspirators are. Truth access goes through the [`TruthSource`] trait,
/// so the same strategies run against dense matrices and streaming
/// procedural worlds alike.
pub struct AdvCtx<'a> {
    /// The hidden truth.
    pub truth: &'a dyn TruthSource,
    /// Dishonest mask over players.
    pub dishonest: &'a [bool],
    /// Cache cell for the honest-majority vector (owned by the caller so it
    /// survives across per-call context construction).
    majority_cell: &'a OnceLock<BitVec>,
}

impl<'a> AdvCtx<'a> {
    /// New context.
    pub fn new(
        truth: &'a dyn TruthSource,
        dishonest: &'a [bool],
        majority_cell: &'a OnceLock<BitVec>,
    ) -> Self {
        AdvCtx {
            truth,
            dishonest,
            majority_cell,
        }
    }

    /// Majority preference of the *honest* population per object (computed
    /// once, lazily). The strongest vote-attack target: claiming its
    /// complement maximizes disagreement pressure.
    pub fn honest_majority(&self) -> &BitVec {
        self.majority_cell.get_or_init(|| {
            let mut counter = ColumnCounter::new(self.truth.objects());
            for p in 0..self.truth.players() {
                if !self.dishonest[p] {
                    counter.add(&self.truth.row(p as u32), 1);
                }
            }
            counter.majority(false)
        })
    }

    /// Deterministic per-(player, phase, salt) RNG for randomized strategies.
    pub fn rng(&self, player: u32, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(
            0xad5e_u64
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(u64::from(player))
                .rotate_left(17)
                ^ salt,
        )
    }
}

/// A dishonest player's posting policy.
///
/// The runtime consults the strategy whenever a *dishonest* player must
/// post; honest players never reach these code paths (they probe the oracle
/// and post truthfully, per the model's wlog assumption). `Send + Sync` so
/// sessions can own strategies behind `Arc` and sweep points can execute
/// concurrently.
pub trait Strategy: Send + Sync {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Bit to claim when player `player` is assigned to report on `object`.
    /// `truth` is the player's real preference (omniscience).
    fn claim_bit(
        &self,
        ctx: &AdvCtx<'_>,
        phase: Phase,
        player: u32,
        object: u32,
        truth: bool,
    ) -> bool;

    /// Vector to claim when `player` must publish preferences over
    /// `objects` (global object indices). `truth` is the player's real
    /// restriction to those objects.
    ///
    /// Default: claim bit-by-bit via [`Strategy::claim_bit`].
    fn claim_vector(
        &self,
        ctx: &AdvCtx<'_>,
        phase: Phase,
        player: u32,
        objects: &[u32],
        truth: &BitVec,
    ) -> BitVec {
        BitVec::from_fn(objects.len(), |k| {
            self.claim_bit(ctx, phase, player, objects[k], truth.get(k))
        })
    }
}

/// Control strategy: dishonest players that follow the protocol. Useful to
/// separate "having corrupted players" from "corrupted players attacking".
pub struct Truthful;

impl Strategy for Truthful {
    fn name(&self) -> &'static str {
        "truthful"
    }

    fn claim_bit(&self, _: &AdvCtx<'_>, _: Phase, _: u32, _: u32, truth: bool) -> bool {
        truth
    }
}

/// Flip each claimed bit independently with probability `flip_prob` — the
/// paper's "too busy" reviewer who answers (partly) at random.
pub struct RandomLiar {
    /// Per-bit flip probability.
    pub flip_prob: f64,
}

impl Strategy for RandomLiar {
    fn name(&self) -> &'static str {
        "random-liar"
    }

    fn claim_bit(&self, ctx: &AdvCtx<'_>, _: Phase, player: u32, object: u32, truth: bool) -> bool {
        let mut rng = ctx.rng(
            player,
            u64::from(object).wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        if rng.gen_bool(self.flip_prob) {
            !truth
        } else {
            truth
        }
    }
}

/// Always claim the complement of the truth.
pub struct Inverter;

impl Strategy for Inverter {
    fn name(&self) -> &'static str {
        "inverter"
    }

    fn claim_bit(&self, _: &AdvCtx<'_>, _: Phase, _: u32, _: u32, truth: bool) -> bool {
        !truth
    }
}

/// Vote against the honest population's majority on every object — the
/// maximally contrarian vote-attack on step 1.e's majorities.
pub struct AntiMajority;

impl Strategy for AntiMajority {
    fn name(&self) -> &'static str {
        "anti-majority"
    }

    fn claim_bit(&self, ctx: &AdvCtx<'_>, _: Phase, _: u32, object: u32, _: bool) -> bool {
        !ctx.honest_majority().get(object as usize)
    }
}

/// The cluster-hijack attack Lemma 13 defends against.
///
/// During cluster formation the hijacker perfectly mimics the victim's
/// preferences, guaranteeing itself an edge to the victim in the neighbor
/// graph (it looks like a clone). Once inside the victim's cluster it flips
/// every work-sharing vote, trying to poison the majority for the whole
/// cluster.
pub struct ClusterHijacker {
    /// The player whose cluster is being infiltrated.
    pub victim: u32,
}

impl Strategy for ClusterHijacker {
    fn name(&self) -> &'static str {
        "cluster-hijacker"
    }

    fn claim_bit(
        &self,
        ctx: &AdvCtx<'_>,
        phase: Phase,
        _player: u32,
        object: u32,
        _truth: bool,
    ) -> bool {
        let victim_pref = ctx.truth.value(self.victim, object);
        match phase {
            Phase::ClusterFormation => victim_pref, // look like a clone
            Phase::WorkSharing | Phase::Other => !victim_pref, // poison votes
        }
    }
}

/// Honest during cluster formation, malicious (inverting) afterwards —
/// a reputation-building sleeper agent.
pub struct Sleeper;

impl Strategy for Sleeper {
    fn name(&self) -> &'static str {
        "sleeper"
    }

    fn claim_bit(&self, _: &AdvCtx<'_>, phase: Phase, _: u32, _: u32, truth: bool) -> bool {
        match phase {
            Phase::ClusterFormation => truth,
            Phase::WorkSharing | Phase::Other => !truth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_bitset::BitMatrix;

    fn setup() -> (BitMatrix, Vec<bool>, OnceLock<BitVec>) {
        let rows = vec![
            BitVec::from_bools(&[true, true, false, false]),
            BitVec::from_bools(&[true, true, true, false]),
            BitVec::from_bools(&[true, false, false, false]),
            BitVec::from_bools(&[false, false, true, true]), // dishonest
        ];
        (
            BitMatrix::from_rows(&rows),
            vec![false, false, false, true],
            OnceLock::new(),
        )
    }

    #[test]
    fn truthful_is_identity() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        assert!(Truthful.claim_bit(&ctx, Phase::Other, 3, 0, true));
        assert!(!Truthful.claim_bit(&ctx, Phase::Other, 3, 0, false));
    }

    #[test]
    fn inverter_flips() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        assert!(!Inverter.claim_bit(&ctx, Phase::Other, 3, 0, true));
        assert!(Inverter.claim_bit(&ctx, Phase::Other, 3, 0, false));
    }

    #[test]
    fn random_liar_extremes() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        let always = RandomLiar { flip_prob: 1.0 };
        let never = RandomLiar { flip_prob: 0.0 };
        for o in 0..4 {
            assert!(!always.claim_bit(&ctx, Phase::Other, 3, o, true));
            assert!(never.claim_bit(&ctx, Phase::Other, 3, o, true));
        }
    }

    #[test]
    fn random_liar_is_deterministic_per_object() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        let liar = RandomLiar { flip_prob: 0.5 };
        let a = liar.claim_bit(&ctx, Phase::Other, 3, 7, true);
        let b = liar.claim_bit(&ctx, Phase::Other, 3, 7, true);
        assert_eq!(a, b, "same (player, object) must give same claim");
    }

    #[test]
    fn anti_majority_opposes_honest_consensus() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        // Honest rows: objects 0 and 1 are majority-liked (2–3 of 3 ones on
        // object 0; object 1: 2 of 3). Object 3: 0 of 3.
        assert!(!AntiMajority.claim_bit(&ctx, Phase::WorkSharing, 3, 0, true));
        assert!(AntiMajority.claim_bit(&ctx, Phase::WorkSharing, 3, 3, false));
    }

    #[test]
    fn hijacker_mimics_then_poisons() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        let h = ClusterHijacker { victim: 0 };
        // Victim 0 likes object 0.
        assert!(h.claim_bit(&ctx, Phase::ClusterFormation, 3, 0, false));
        assert!(!h.claim_bit(&ctx, Phase::WorkSharing, 3, 0, false));
        // Victim 0 dislikes object 3.
        assert!(!h.claim_bit(&ctx, Phase::ClusterFormation, 3, 3, true));
        assert!(h.claim_bit(&ctx, Phase::WorkSharing, 3, 3, true));
    }

    #[test]
    fn sleeper_wakes_for_work_sharing() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        assert!(Sleeper.claim_bit(&ctx, Phase::ClusterFormation, 3, 0, true));
        assert!(!Sleeper.claim_bit(&ctx, Phase::WorkSharing, 3, 0, true));
    }

    #[test]
    fn claim_vector_uses_claim_bit() {
        let (m, d, cell) = setup();
        let ctx = AdvCtx::new(&m, &d, &cell);
        let truth = BitVec::from_bools(&[true, false]);
        let v = Inverter.claim_vector(&ctx, Phase::Other, 3, &[0, 2], &truth);
        assert!(!v.get(0));
        assert!(v.get(1));
    }
}

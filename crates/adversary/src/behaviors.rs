//! The [`Behaviors`] table: who is dishonest and what they post.

use std::sync::OnceLock;

use byzscore_bitset::BitVec;
use byzscore_board::TruthSource;

use crate::strategy::{AdvCtx, Phase, Strategy, Truthful};

static TRUTHFUL: Truthful = Truthful;

/// Per-execution behaviour table consulted by the protocol runtime.
///
/// Honest players never appear here — they probe the oracle and post
/// truthfully. Whenever a *dishonest* player must post a bit or a vector,
/// the runtime routes the request through [`Behaviors::bit_claim`] /
/// [`Behaviors::vector_claim`], which consult the installed [`Strategy`]
/// with full omniscient context. Truth access is through the
/// [`TruthSource`] trait, so the table works over any substrate backend.
pub struct Behaviors<'a> {
    truth: &'a dyn TruthSource,
    dishonest: Vec<bool>,
    strategy: &'a dyn Strategy,
    majority_cell: OnceLock<BitVec>,
}

impl<'a> Behaviors<'a> {
    /// Table with the given dishonest mask and strategy.
    pub fn new(
        truth: &'a dyn TruthSource,
        dishonest: Vec<bool>,
        strategy: &'a dyn Strategy,
    ) -> Self {
        assert_eq!(dishonest.len(), truth.players(), "mask covers all players");
        Behaviors {
            truth,
            dishonest,
            strategy,
            majority_cell: OnceLock::new(),
        }
    }

    /// Everybody honest.
    pub fn all_honest(truth: &'a dyn TruthSource) -> Self {
        Behaviors::new(truth, vec![false; truth.players()], &TRUTHFUL)
    }

    /// Is `player` dishonest?
    #[inline]
    pub fn is_dishonest(&self, player: u32) -> bool {
        self.dishonest[player as usize]
    }

    /// The dishonest mask.
    pub fn dishonest_mask(&self) -> &[bool] {
        &self.dishonest
    }

    /// Complement mask (honest players), for metric filtering.
    pub fn honest_mask(&self) -> Vec<bool> {
        self.dishonest.iter().map(|&d| !d).collect()
    }

    /// Number of dishonest players.
    pub fn dishonest_count(&self) -> usize {
        self.dishonest.iter().filter(|&&d| d).count()
    }

    fn ctx(&self) -> AdvCtx<'_> {
        AdvCtx::new(self.truth, &self.dishonest, &self.majority_cell)
    }

    /// The bit a **dishonest** `player` posts about `object` in `phase`.
    ///
    /// Panics in debug builds if called for an honest player — honest posts
    /// must flow through the probe oracle instead.
    pub fn bit_claim(&self, phase: Phase, player: u32, object: u32) -> bool {
        debug_assert!(
            self.is_dishonest(player),
            "bit_claim consulted for honest player {player}"
        );
        let truth = self.truth.value(player, object);
        self.strategy
            .claim_bit(&self.ctx(), phase, player, object, truth)
    }

    /// The vector a **dishonest** `player` posts over `objects` (global
    /// indices) in `phase`.
    pub fn vector_claim(&self, phase: Phase, player: u32, objects: &[u32]) -> BitVec {
        debug_assert!(
            self.is_dishonest(player),
            "vector_claim consulted for honest player {player}"
        );
        let truth = BitVec::from_fn(objects.len(), |k| self.truth.value(player, objects[k]));
        self.strategy
            .claim_vector(&self.ctx(), phase, player, objects, &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Inverter;
    use byzscore_bitset::{BitMatrix, Bits};

    fn truth() -> BitMatrix {
        BitMatrix::from_rows(&[
            BitVec::from_bools(&[true, false, true, false]),
            BitVec::from_bools(&[false, true, false, true]),
        ])
    }

    #[test]
    fn all_honest_table() {
        let t = truth();
        let b = Behaviors::all_honest(&t);
        assert!(!b.is_dishonest(0));
        assert!(!b.is_dishonest(1));
        assert_eq!(b.dishonest_count(), 0);
        assert_eq!(b.honest_mask(), vec![true, true]);
    }

    #[test]
    fn dishonest_claims_go_through_strategy() {
        let t = truth();
        let b = Behaviors::new(&t, vec![false, true], &Inverter);
        // Player 1's truth on object 1 is `true`; Inverter claims false.
        assert!(!b.bit_claim(Phase::Other, 1, 1));
        let v = b.vector_claim(Phase::Other, 1, &[0, 1]);
        assert!(v.get(0)); // truth false -> inverted true
        assert!(!v.get(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "honest player")]
    fn honest_claim_panics_in_debug() {
        let t = truth();
        let b = Behaviors::new(&t, vec![false, true], &Inverter);
        b.bit_claim(Phase::Other, 0, 0);
    }

    #[test]
    #[should_panic(expected = "mask covers all players")]
    fn short_mask_panics() {
        let t = truth();
        Behaviors::new(&t, vec![false], &Inverter);
    }
}

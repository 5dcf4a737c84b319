//! Per-player streaming `RSelect` tournaments, advanced in lockstep with
//! the guess loop.
//!
//! Step 2 of Figure 2 used to wait for the whole guess loop and then run
//! one batch `RSelect` per player over the full `n × guesses × m`
//! candidate matrix. [`FusedSelect`] folds that tournament into the loop:
//! each guess's candidate is pushed into the player's
//! [`StreamingRSelect`] the moment it exists, eliminated candidates are
//! freed immediately, and residency is capped near `n × m`. Outputs are
//! bit-identical to the batch path — the streaming machine replays the
//! batch pair order and RNG draws exactly (see the replay contract on
//! [`StreamingRSelect`]), dishonest players still produce their
//! `vector_claim` at the very end against the same board state, and under
//! a memoizing oracle the probe ledgers are order-independent, so moving
//! honest `RSelect` probes earlier changes no probe column.

use byzscore_adversary::Phase;
use byzscore_bitset::BitVec;
use byzscore_blocks::{Ctx, StreamingRSelect};
use rand::rngs::SmallRng;

/// An honest player's in-flight tournament: the streaming selector plus
/// the private RNG that replays the batch path's draw order.
type PlayerState = Option<(StreamingRSelect, SmallRng)>;

/// One tournament per player: honest players hold a streaming selector
/// plus their private RNG (seeded exactly as the batch path would);
/// dishonest players hold nothing and answer with `vector_claim` at
/// [`FusedSelect::finish`].
pub(crate) struct FusedSelect {
    states: Vec<PlayerState>,
}

impl FusedSelect {
    /// Set up tournaments for all players; `rng_tags` are the private
    /// stream tags the batch caller would pass to `Ctx::player_rng`.
    pub(crate) fn new(ctx: &Ctx<'_>, rng_tags: &[u64]) -> FusedSelect {
        let states = (0..ctx.n() as u32)
            .map(|p| {
                (!ctx.behaviors.is_dishonest(p))
                    .then(|| (StreamingRSelect::new(ctx), ctx.player_rng(p, rng_tags)))
            })
            .collect();
        FusedSelect { states }
    }

    /// Feed one guess's candidates (one per player) into the tournaments.
    pub(crate) fn absorb(&mut self, ctx: &Ctx<'_>, w_d: Vec<BitVec>, objects: &[u32]) {
        assert_eq!(w_d.len(), self.states.len(), "one candidate per player");
        for (p, (cand, state)) in w_d.into_iter().zip(&mut self.states).enumerate() {
            if let Some((sel, rng)) = state.as_mut() {
                sel.push(ctx, p as u32, cand, objects, rng);
            }
        }
    }

    /// Close every tournament and return the per-player winners. Records
    /// the summed per-player peak candidate residency into `ctx.meter`
    /// when one is attached.
    pub(crate) fn finish(self, ctx: &Ctx<'_>, objects: &[u32]) -> Vec<BitVec> {
        let mut peak_bytes = 0;
        let winners = self
            .states
            .into_iter()
            .enumerate()
            .map(|(p, state)| match state {
                Some((mut sel, mut rng)) => {
                    let (_, winner) = sel.finish_round(ctx, p as u32, objects, &mut rng);
                    peak_bytes += sel.peak_bytes();
                    winner
                }
                None => ctx.behaviors.vector_claim(Phase::Other, p as u32, objects),
            })
            .collect();
        if let Some(meter) = ctx.meter {
            meter.add_peak(peak_bytes);
        }
        winners
    }
}

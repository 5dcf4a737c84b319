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
use byzscore_board::par::par_update_items;
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
        FusedSelect::with_pool(ctx, rng_tags, Vec::new())
    }

    /// [`FusedSelect::new`] drawing honest players' machines from `pool`
    /// (reset under `ctx`) before allocating fresh ones — the reusable
    /// select state a warm-started session carries across recomputes
    /// ([`crate::cluster::WarmStart`]). A reset machine replays a fresh
    /// one draw for draw, so outputs are bit-identical either way.
    pub(crate) fn with_pool(
        ctx: &Ctx<'_>,
        rng_tags: &[u64],
        mut pool: Vec<StreamingRSelect>,
    ) -> FusedSelect {
        let states = (0..ctx.n() as u32)
            .map(|p| {
                if ctx.behaviors.is_dishonest(p) {
                    None
                } else {
                    let sel = match pool.pop() {
                        Some(mut sel) => {
                            sel.reset(ctx);
                            sel
                        }
                        None => StreamingRSelect::new(ctx),
                    };
                    Some((sel, ctx.player_rng(p, rng_tags)))
                }
            })
            .collect();
        FusedSelect { states }
    }

    /// Feed one guess's candidates (one per player) into the tournaments.
    pub(crate) fn absorb(&mut self, ctx: &Ctx<'_>, w_d: Vec<BitVec>, objects: &[u32]) {
        assert_eq!(w_d.len(), self.states.len(), "one candidate per player");
        let mut pairs: Vec<(Option<BitVec>, &mut PlayerState)> = w_d
            .into_iter()
            .map(Some)
            .zip(self.states.iter_mut())
            .collect();
        par_update_items(&mut pairs, |p, (w, state)| {
            if let Some((sel, rng)) = state.as_mut() {
                let cand = w.take().expect("candidate consumed once");
                sel.push(ctx, p as u32, cand, objects, rng);
            }
        });
    }

    /// Close every tournament and return the per-player winners. Records
    /// the summed per-player peak candidate residency into `ctx.meter`
    /// when one is attached (the sum of deterministic per-player peaks is
    /// itself deterministic, whatever the thread count).
    pub(crate) fn finish(self, ctx: &Ctx<'_>, objects: &[u32]) -> Vec<BitVec> {
        self.finish_recycling(ctx, objects).0
    }

    /// [`FusedSelect::finish`] that also hands back the spent honest-player
    /// machines so the caller can pool them for the next run (they carry
    /// their candidate-slot allocations; `reset` rearms them).
    pub(crate) fn finish_recycling(
        self,
        ctx: &Ctx<'_>,
        objects: &[u32],
    ) -> (Vec<BitVec>, Vec<StreamingRSelect>) {
        type Slot = (PlayerState, Option<BitVec>, u64);
        let mut slots: Vec<Slot> = self.states.into_iter().map(|s| (s, None, 0)).collect();
        par_update_items(&mut slots, |p, (state, out, peak)| match state.as_mut() {
            Some((sel, rng)) => {
                let (_, winner) = sel.finish_round(ctx, p as u32, objects, rng);
                *peak = sel.peak_bytes();
                *out = Some(winner);
            }
            None => {
                *out = Some(ctx.behaviors.vector_claim(Phase::Other, p as u32, objects));
            }
        });
        if let Some(meter) = ctx.meter {
            meter.add_peak(slots.iter().map(|(_, _, peak)| peak).sum());
        }
        let mut outputs = Vec::with_capacity(slots.len());
        let mut recycled = Vec::new();
        for (state, out, _) in slots {
            if let Some((sel, _)) = state {
                recycled.push(sel);
            }
            outputs.push(out.expect("every player produced an output"));
        }
        (outputs, recycled)
    }
}

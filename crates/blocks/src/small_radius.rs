//! `SmallRadius` — Figure 1, bottom block (Theorem 5, from \[2,3\]).
//!
//! Collaborative scoring for clusters of *small but non-zero* diameter:
//! if every player has ≥ `n/B` players within distance `D`, each player
//! recovers a vector within `O(D)` of its truth.
//!
//! Idea: randomly partition the objects into `s = Θ(D^{3/2})` groups. Within
//! one group, players of a diameter-`D` cluster look like *near-clones*
//! (expected pairwise distance `D/s` per group), so `ZeroRadius` (run with
//! the relaxed budget `5B`) recovers good group vectors, which the popular
//! filter + `Select` stitch into a full candidate. Θ(log n) independent
//! repetitions and a final `Select` drive the failure probability down.

use byzscore_adversary::Phase;
use byzscore_bitset::{BitVec, Bits};
use byzscore_random::{partition_into, tags};

use crate::tournament::SelectPlan;
use crate::votes::candidate_vectors;
use crate::zero_radius::zero_radius;
use crate::Ctx;

/// Run `SmallRadius(P, O, D)` for all players simultaneously.
///
/// * `players` — the player set `P` (global ids).
/// * `objects` — the object set `O` (global ids).
/// * `diameter` — the assumed cluster diameter `D` on these objects.
/// * `scope_path` — scope for randomness derivation and board posts.
///
/// Returns one vector per player (aligned with `players`, over `objects`'
/// coordinates); the board counts one vector post per player under this
/// invocation's scope.
///
/// Guarantee (Theorem 5): if ≥ `n/B` players lie within distance `D` of
/// `p`, then whp `|w(p) − v(p)| ≤ 5D`, with `O(B·log n·D^{3/2}(D + log n))`
/// probes per player.
pub fn small_radius(
    ctx: &Ctx<'_>,
    players: &[u32],
    objects: &[u32],
    diameter: usize,
    scope_path: &[u64],
) -> Vec<BitVec> {
    let b = ctx.params.budget_b;
    let iters = ((ctx.params.c_sr_iters * ctx.log2_n() as f64).ceil() as usize).max(2);
    let s = (((diameter.max(1) as f64).powf(1.5) / ctx.params.sr_subset_scale).ceil() as usize)
        .clamp(1, objects.len().max(1));
    let zr_budget = (ctx.params.sr_budget_mult * b).max(1);
    let popular_threshold = ((players.len() as f64) / (ctx.params.sr_popular_denom * b as f64))
        .floor()
        .max(1.0) as usize;

    // One candidate vector per player per iteration.
    let mut candidates: Vec<Vec<BitVec>> = vec![Vec::with_capacity(iters); players.len()];
    let positions: Vec<u32> = (0..objects.len() as u32).collect();

    for t in 0..iters {
        // Step 1: shared random partition of the objects into s groups.
        // Partitioning positions draws exactly as partitioning the ids
        // (one draw per item), and lets the stitch index by position.
        let mut part_tags = vec![tags::SR_PARTITION];
        part_tags.extend_from_slice(scope_path);
        part_tags.push(t as u64);
        let mut rng = ctx.beacon.sub_rng(&part_tags);
        let groups = partition_into(&mut rng, &positions, s);

        // Steps 2–3 per group, each stitched straight into every player's
        // full candidate.
        let mut full: Vec<BitVec> = vec![BitVec::zeros(objects.len()); players.len()];
        for (gi, group) in groups.iter().enumerate() {
            per_group(
                ctx,
                players,
                objects,
                group,
                zr_budget,
                popular_threshold,
                scope_path,
                t,
                gi,
                &mut full,
            );
        }
        for (c, f) in candidates.iter_mut().zip(full) {
            c.push(f);
        }
    }

    // Final step: each player selects among its per-iteration candidates.
    let out: Vec<BitVec> = players
        .iter()
        .zip(candidates)
        .map(|(&p, mut c)| {
            if ctx.behaviors.is_dishonest(p) {
                ctx.behaviors
                    .vector_claim(Phase::ClusterFormation, p, objects)
            } else {
                let mut rng =
                    ctx.player_rng(p, &[scope_path.first().copied().unwrap_or(0), 0xf1a1]);
                let won = SelectPlan::new(&c).select(ctx, p, objects, &mut rng);
                c.swap_remove(won)
            }
        })
        .collect();

    ctx.board
        .scope(&[scope_path, &[tags::SR_PARTITION]].concat())
        .post_vectors(players.len());
    out
}

/// Steps 2–3 of one iteration for one object group (`group` holds
/// positions into `objects`): run `ZeroRadius` with the relaxed budget,
/// keep the popular outputs `U_i`, let every player `Select` its best
/// match against one shared [`SelectPlan`], and set the chosen bits in
/// `full[player]` at the group's positions.
#[allow(clippy::too_many_arguments)]
fn per_group(
    ctx: &Ctx<'_>,
    players: &[u32],
    objects: &[u32],
    group: &[u32],
    zr_budget: usize,
    popular_threshold: usize,
    scope_path: &[u64],
    iter: usize,
    group_index: usize,
    full: &mut [BitVec],
) {
    if group.is_empty() {
        return;
    }
    let ids: Vec<u32> = group.iter().map(|&k| objects[k as usize]).collect();
    let mut zr_path = Vec::with_capacity(scope_path.len() + 2);
    zr_path.extend_from_slice(scope_path);
    zr_path.push(0x5a11);
    zr_path.push(((iter as u64) << 32) | group_index as u64);

    let zr_out = zero_radius(ctx, players, &ids, zr_budget, &zr_path);
    let u_i = candidate_vectors(&zr_out, popular_threshold, 3 * ctx.params.budget_b);
    let plan = (!u_i.is_empty()).then(|| SelectPlan::new(&u_i));

    for ((pi, &p), dst) in players.iter().enumerate().zip(full) {
        let claim;
        let part = if ctx.behaviors.is_dishonest(p) {
            claim = ctx.behaviors.vector_claim(Phase::ClusterFormation, p, &ids);
            &claim
        } else if let Some(plan) = &plan {
            let mut rng = ctx.player_rng(p, &[0x5e1ec7, iter as u64, group_index as u64]);
            &u_i[plan.select(ctx, p, &ids, &mut rng)]
        } else {
            &zr_out[pi]
        };
        for k in part.iter_ones() {
            dst.set(group[k] as usize, true);
        }
    }
}

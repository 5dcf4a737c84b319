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
use byzscore_board::par::par_map_items;
use byzscore_random::{partition_into, tags};

use crate::tournament::select_among;
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
/// coordinates); each is posted on the board under this invocation's scope.
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

    let pos_of: std::collections::HashMap<u32, u32> = objects
        .iter()
        .enumerate()
        .map(|(i, &o)| (o, i as u32))
        .collect();

    // One candidate vector per player per iteration.
    let mut candidates: Vec<Vec<BitVec>> = vec![Vec::with_capacity(iters); players.len()];

    for t in 0..iters {
        // Step 1: shared random partition of the objects into s groups.
        let mut part_tags = vec![tags::SR_PARTITION];
        part_tags.extend_from_slice(scope_path);
        part_tags.push(t as u64);
        let mut rng = ctx.beacon.sub_rng(&part_tags);
        let groups = partition_into(&mut rng, objects, s);

        // Steps 2–3 per group (each group's ZeroRadius + Select chain is
        // independent; the oracle and board are order-independent).
        let group_ids: Vec<(usize, &Vec<u32>)> = groups.iter().enumerate().collect();
        let group_results: Vec<Vec<BitVec>> = par_map_items(&group_ids, |&(gi, group)| {
            per_group(
                ctx,
                players,
                group,
                zr_budget,
                popular_threshold,
                scope_path,
                t,
                gi,
            )
        });

        // Concatenate each player's group vectors into a full candidate.
        for (pi, _) in players.iter().enumerate() {
            let mut full = BitVec::zeros(objects.len());
            for (g, group) in groups.iter().enumerate() {
                let part = &group_results[g][pi];
                for (k, &o) in group.iter().enumerate() {
                    if part.get(k) {
                        full.set(pos_of[&o] as usize, true);
                    }
                }
            }
            candidates[pi].push(full);
        }
    }

    // Final step: each player selects among its per-iteration candidates.
    let indexed: Vec<(usize, u32)> = players.iter().copied().enumerate().collect();
    let out: Vec<BitVec> = par_map_items(&indexed, |&(pi, p)| {
        if ctx.behaviors.is_dishonest(p) {
            ctx.behaviors
                .vector_claim(Phase::ClusterFormation, p, objects)
        } else {
            let mut rng = ctx.player_rng(p, &[scope_path.first().copied().unwrap_or(0), 0xf1a1]);
            let c = &candidates[pi];
            let won = select_among(ctx, p, c, objects, &mut rng);
            c[won].clone()
        }
    });

    let scope = ctx
        .board
        .scope(&[scope_path, &[tags::SR_PARTITION]].concat());
    for (&p, v) in players.iter().zip(&out) {
        scope.post_vector(p, v.clone());
    }
    out
}

/// Steps 2–3 of one iteration for one object group: run `ZeroRadius` with
/// the relaxed budget, keep the popular outputs `U_i`, and let every player
/// `Select` its best match.
#[allow(clippy::too_many_arguments)]
fn per_group(
    ctx: &Ctx<'_>,
    players: &[u32],
    group: &[u32],
    zr_budget: usize,
    popular_threshold: usize,
    scope_path: &[u64],
    iter: usize,
    group_index: usize,
) -> Vec<BitVec> {
    if group.is_empty() {
        return vec![BitVec::zeros(0); players.len()];
    }
    let mut zr_path = Vec::with_capacity(scope_path.len() + 2);
    zr_path.extend_from_slice(scope_path);
    zr_path.push(0x5a11);
    zr_path.push(((iter as u64) << 32) | group_index as u64);

    let zr_out = zero_radius(ctx, players, group, zr_budget, &zr_path);
    let u_i = candidate_vectors(&zr_out, popular_threshold, 3 * ctx.params.budget_b);

    players
        .iter()
        .enumerate()
        .map(|(pi, &p)| {
            if ctx.behaviors.is_dishonest(p) {
                ctx.behaviors
                    .vector_claim(Phase::ClusterFormation, p, group)
            } else if u_i.is_empty() {
                zr_out[pi].clone()
            } else {
                let mut rng = ctx.player_rng(p, &[0x5e1ec7, iter as u64, group_index as u64]);
                let won = select_among(ctx, p, &u_i, group, &mut rng);
                u_i[won].clone()
            }
        })
        .collect()
}

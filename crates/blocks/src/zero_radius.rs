//! `ZeroRadius` — Figure 1, middle block (Theorem 4, from \[4\]).
//!
//! Collaborative scoring for the *exact clone* regime: assuming at least
//! `n/B'` players share each player's exact preference vector, every player
//! recovers its full vector with `O(B' log n)` probes.
//!
//! The recursion: randomly halve players and objects (shared randomness, so
//! all players agree on the partition); each half recursively solves its own
//! objects; then each player completes the *other* half's objects by
//! tallying the sibling half's posted outputs, keeping the *popular* vectors
//! (support ≥ `|P''|/(2B')`), and probing disagreement objects one at a time
//! until a single candidate survives — each probe kills at least one
//! candidate, and the player's clones in the sibling half guarantee the true
//! vector is popular.

use byzscore_bitset::{BitVec, Bits, WORD_BITS};
use byzscore_random::{halve, tags};

use crate::votes::candidate_vectors;
use crate::Ctx;

/// Run `ZeroRadius(P, O, B')` for **all** players of `players` at once
/// (DESIGN.md §4.1: the per-player pseudocode shares its random partitions,
/// so one walk of the recursion tree serves everyone; probes are still
/// charged per player).
///
/// * `players` — the player set `P` (global ids).
/// * `objects` — the object set `O` (global ids).
/// * `bprime` — the clone-class budget `B'`.
/// * `scope_path` — caller's scope path; used to key shared randomness and
///   the bulletin-board scope for this invocation's outputs.
///
/// Returns one output vector per player (aligned with `players`, over
/// `objects`' coordinates) and counts one vector post per player on the
/// board under this invocation's scope. Dishonest players' outputs are their
/// strategy's claims.
pub fn zero_radius(
    ctx: &Ctx<'_>,
    players: &[u32],
    objects: &[u32],
    bprime: usize,
    scope_path: &[u64],
) -> Vec<BitVec> {
    assert!(bprime >= 1, "budget B' must be ≥ 1");
    let mut path = Vec::with_capacity(scope_path.len() + 4);
    path.extend_from_slice(scope_path);
    let out = zr_node(ctx, players, objects, bprime, &mut path);
    // Meter this invocation's outputs as one vector post per player; the
    // vectors themselves go back to the caller in memory. Registered via
    // `Board::scope` so enclosing drivers can retire the whole step's
    // posts by path prefix.
    ctx.board
        .scope(&[scope_path, &[tags::ZR_PARTITION]].concat())
        .post_vectors(players.len());
    out
}

/// One recursion node. `path` is mutated push/pop-style to derive child
/// scopes without allocation churn.
fn zr_node(
    ctx: &Ctx<'_>,
    players: &[u32],
    objects: &[u32],
    bprime: usize,
    path: &mut Vec<u64>,
) -> Vec<BitVec> {
    if objects.is_empty() {
        return vec![BitVec::zeros(0); players.len()];
    }
    let threshold = ((ctx.params.c_zr_base * bprime as f64 * ctx.ln_n()).ceil() as usize).max(4);

    // Base case (step 1): probe everything in O.
    if players.len().min(objects.len()) < threshold {
        return base_case(ctx, players, objects);
    }

    // Step 2: shared random halving — every player derives the same split.
    // Halving positions draws exactly as halving the ids (one draw per
    // item), and lets the assembly below index by position.
    let mut tag_buf = Vec::with_capacity(path.len() + 1);
    tag_buf.push(tags::ZR_PARTITION);
    tag_buf.extend_from_slice(path);
    let mut rng = ctx.beacon.sub_rng(&tag_buf);
    let (p1, p2) = halve(&mut rng, players);
    let positions: Vec<u32> = (0..objects.len() as u32).collect();
    let (k1, k2) = halve(&mut rng, &positions);
    if p1.is_empty() || p2.is_empty() || k1.is_empty() || k2.is_empty() {
        // Degenerate split (vanishingly rare above the base threshold):
        // fall back to probing everything.
        return base_case(ctx, players, objects);
    }
    let ids = |ks: &[u32]| -> Vec<u32> { ks.iter().map(|&k| objects[k as usize]).collect() };
    let (o1, o2) = (ids(&k1), ids(&k2));

    // Step 3: each half recursively solves its own objects.
    path.push(1);
    let out1 = zr_node(ctx, &p1, &o1, bprime, path);
    path.pop();
    path.push(2);
    let out2 = zr_node(ctx, &p2, &o2, bprime, path);
    path.pop();

    // Steps 4–5: each half completes the sibling's objects by vote +
    // disagreement probing.
    let completed1 = resolve_sibling(ctx, &p1, &o2, &p2, &out2, bprime);
    let completed2 = resolve_sibling(ctx, &p2, &o1, &p1, &out1, bprime);

    // Assemble each player's vector over this node's `objects`. `halve`
    // keeps order, so one merge walk over `p1`/`p2` finds every player's
    // half and row.
    let mut result = Vec::with_capacity(players.len());
    let (mut i1, mut i2) = (0, 0);
    for &p in players {
        let mut full = BitVec::zeros(objects.len());
        if p1.get(i1) == Some(&p) {
            scatter(&mut full, &out1[i1], &k1);
            scatter(&mut full, &completed1[i1], &k2);
            i1 += 1;
        } else {
            debug_assert_eq!(p2[i2], p, "player is in one half");
            scatter(&mut full, &out2[i2], &k2);
            scatter(&mut full, &completed2[i2], &k1);
            i2 += 1;
        }
        result.push(full);
    }
    result
}

/// Step 1: every player evaluates every object of the node directly.
fn base_case(ctx: &Ctx<'_>, players: &[u32], objects: &[u32]) -> Vec<BitVec> {
    players
        .iter()
        .map(|&p| {
            if ctx.behaviors.is_dishonest(p) {
                ctx.behaviors
                    .vector_claim(byzscore_adversary::Phase::ClusterFormation, p, objects)
            } else {
                BitVec::from_fn(objects.len(), |k| ctx.oracle.probe(p, objects[k]))
            }
        })
        .collect()
}

/// Steps 4–5 for one half: players `half` complete the sibling objects
/// `sib_objects` from the sibling half's outputs.
///
/// Per resolving player: candidates = popular sibling vectors; while more
/// than one candidate survives, probe one disagreement object (own
/// preference!) and discard disagreeing candidates. If every candidate is
/// eliminated (no exact clone in the sibling — possible in `SmallRadius`'s
/// approximate regime), fall back to the candidate that agreed most with
/// the probes made (DESIGN.md §4.3).
fn resolve_sibling(
    ctx: &Ctx<'_>,
    half: &[u32],
    sib_objects: &[u32],
    sibling: &[u32],
    sibling_out: &[BitVec],
    bprime: usize,
) -> Vec<BitVec> {
    let vote_threshold = ((sibling.len() as f64) / (ctx.params.zr_vote_denom * bprime as f64))
        .floor()
        .max(1.0) as usize;
    let cap = ((2.0 * ctx.params.zr_vote_denom).ceil() as usize).saturating_mul(bprime);
    let candidates = candidate_vectors(sibling_out, vote_threshold, cap);

    half.iter()
        .map(|&p| {
            if ctx.behaviors.is_dishonest(p) {
                return ctx.behaviors.vector_claim(
                    byzscore_adversary::Phase::ClusterFormation,
                    p,
                    sib_objects,
                );
            }
            if candidates.is_empty() {
                // Sibling posted nothing (cannot happen with non-empty
                // sibling halves, but stay total).
                return BitVec::zeros(sib_objects.len());
            }
            let mut alive: Vec<usize> = (0..candidates.len()).collect();
            let mut probed: Vec<(usize, bool)> = Vec::new();
            while alive.len() > 1 {
                let Some(c) = first_disagreement(&candidates, &alive) else {
                    break;
                };
                let truth = ctx.oracle.probe(p, sib_objects[c]);
                probed.push((c, truth));
                alive.retain(|&i| candidates[i].get(c) == truth);
                if alive.is_empty() {
                    // No candidate matches the player exactly: keep the one
                    // most consistent with everything probed so far.
                    let best = (0..candidates.len())
                        .max_by_key(|&i| {
                            probed
                                .iter()
                                .filter(|&&(pos, t)| candidates[i].get(pos) == t)
                                .count()
                        })
                        .expect("candidates non-empty");
                    alive = vec![best];
                }
            }
            candidates[alive[0]].clone()
        })
        .collect()
}

/// The lowest coordinate on which the `alive` candidates do not all agree:
/// the first entry of their disagreement set, found without building it.
fn first_disagreement(candidates: &[BitVec], alive: &[usize]) -> Option<usize> {
    let (&first, rest) = alive.split_first()?;
    let words0 = candidates[first].words();
    (0..words0.len()).find_map(|wi| {
        let diff = rest
            .iter()
            .fold(0u64, |d, &i| d | (candidates[i].words()[wi] ^ words0[wi]));
        (diff != 0).then(|| wi * WORD_BITS + diff.trailing_zeros() as usize)
    })
}

/// Set the ones of `src` in `dst` at the node coordinates `positions`.
fn scatter(dst: &mut BitVec, src: &BitVec, positions: &[u32]) {
    debug_assert_eq!(src.len(), positions.len());
    for k in src.iter_ones() {
        dst.set(positions[k] as usize, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockParams;
    use byzscore_adversary::{Behaviors, Corruption, Inverter};
    use byzscore_board::{Board, Oracle};
    use byzscore_model::{Balance, Workload};
    use byzscore_random::Beacon;

    fn clone_world(
        players: usize,
        objects: usize,
        classes: usize,
        seed: u64,
    ) -> byzscore_model::Instance {
        Workload::CloneClasses {
            players,
            objects,
            classes,
            balance: Balance::Even,
        }
        .generate(seed)
    }

    #[test]
    fn exact_recovery_with_clones() {
        let inst = clone_world(64, 64, 4, 3);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(16);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(7), &params);
        let players: Vec<u32> = (0..64).collect();
        let objects: Vec<u32> = (0..64).collect();
        let out = zero_radius(&ctx, &players, &objects, 16, &[1]);
        for (p, v) in players.iter().zip(&out) {
            let truth = inst.truth().row(*p as usize);
            assert_eq!(v.hamming(&truth), 0, "player {p} recovered wrong vector");
        }
    }

    #[test]
    fn recovery_beyond_base_case() {
        // Force real recursion: large player/object sets, small budget so
        // the threshold c·B'·ln n is far below n.
        let inst = clone_world(256, 256, 4, 11);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(4);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(5), &params);
        let players: Vec<u32> = (0..256).collect();
        let objects: Vec<u32> = (0..256).collect();
        let out = zero_radius(&ctx, &players, &objects, 4, &[2]);
        let mut wrong = 0;
        for (p, v) in players.iter().zip(&out) {
            if v.hamming(&inst.truth().row(*p as usize)) != 0 {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0, "{wrong}/256 players recovered wrong vectors");
        // Budget: per-player probes bounded well below probing everything.
        let max = oracle.ledger().max();
        assert!(
            max < 256,
            "recursion should beat probe-everything; max probes {max}"
        );
    }

    #[test]
    fn probes_scale_with_bprime_not_n() {
        let inst = clone_world(512, 512, 2, 13);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(2);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(9), &params);
        let players: Vec<u32> = (0..512).collect();
        let objects: Vec<u32> = (0..512).collect();
        zero_radius(&ctx, &players, &objects, 2, &[3]);
        let bound = (8.0 * 2.0 * (512f64).ln() * (512f64).ln()) as u64; // c·B'·ln²n slack
        assert!(
            oracle.ledger().max() <= bound,
            "max probes {} exceeds O(B' log² n) slack {}",
            oracle.ledger().max(),
            bound
        );
    }

    #[test]
    fn outputs_are_posted_on_board() {
        let inst = clone_world(32, 32, 2, 5);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(8);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(2), &params);
        let players: Vec<u32> = (0..32).collect();
        let objects: Vec<u32> = (0..32).collect();
        zero_radius(&ctx, &players, &objects, 8, &[7, 7]);
        let stats = board.stats();
        assert_eq!((stats.vector_posts, stats.live_vector_slots), (32, 32));
        board.retire_prefix(&[7, 7, tags::ZR_PARTITION]);
        assert_eq!(board.stats().live_vector_slots, 0);
    }

    #[test]
    fn tolerates_inverting_minority() {
        let inst = clone_world(96, 96, 2, 17);
        // 6 dishonest inverters ≈ n/(3B) with B≈5.
        let dishonest = Corruption::Count { count: 6 }.select(&inst, 1);
        let behaviors = Behaviors::new(inst.truth(), dishonest, &Inverter);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let params = BlockParams::with_budget(8);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(3), &params);
        let players: Vec<u32> = (0..96).collect();
        let objects: Vec<u32> = (0..96).collect();
        let out = zero_radius(&ctx, &players, &objects, 8, &[4]);
        for &p in &players {
            if !behaviors.is_dishonest(p) {
                let d = out[p as usize].hamming(&inst.truth().row(p as usize));
                assert_eq!(d, 0, "honest player {p} corrupted by inverters");
            }
        }
    }

    #[test]
    fn empty_objects_total() {
        let inst = clone_world(8, 8, 1, 1);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::default();
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let out = zero_radius(&ctx, &[0, 1, 2], &[], 4, &[9]);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn deterministic_under_same_beacon() {
        let inst = clone_world(128, 128, 4, 23);
        let players: Vec<u32> = (0..128).collect();
        let objects: Vec<u32> = (0..128).collect();
        let run = || {
            let oracle = Oracle::new(inst.truth());
            let board = Board::new();
            let behaviors = Behaviors::all_honest(inst.truth());
            let params = BlockParams::with_budget(4);
            let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(77), &params);
            zero_radius(&ctx, &players, &objects, 4, &[5])
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert!(x.bits_eq(y));
        }
    }
}

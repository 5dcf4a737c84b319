//! Step 1.e: redundant work sharing with majority voting (§6.6, Lemmas 10
//! and 13).
//!
//! For every cluster and every object, `Θ(log n)` cluster members are drawn
//! from the shared beacon and assigned to probe the object; each member of
//! the cluster adopts the majority of the posted claims. Redundancy is the
//! Byzantine defense: with ≤ 1/3 of a cluster dishonest, the honest
//! assignees out-vote the liars on every object where the honest members
//! broadly agree (Lemma 13 bounds the damage on the remaining "strange"
//! objects by `O(D)`).

use byzscore_adversary::Phase;
use byzscore_bitset::{BitVec, ColumnCounter};
use byzscore_blocks::Ctx;
use byzscore_board::scope_id;
use byzscore_random::{choose_k, tags};

use crate::cluster::Clustering;

/// Execute the work-sharing phase for one diameter guess.
///
/// Returns one predicted vector per *cluster* (all members adopt their
/// cluster's vector, as in the paper) plus the per-player expansion.
/// The claims are tallied in memory and metered on the board, one claim
/// post per assignee and object, under a scope derived from `scope_path`.
/// `rig` models the strongest "biased shared randomness" attack §7.1 is
/// about: a dishonest elected leader crafts the published bits so that the
/// step-1.e assignment always lands on dishonest cluster members first. The
/// Θ(log n)-repetition + `RSelect` wrapper must absorb such repetitions.
pub fn share_work(
    ctx: &Ctx<'_>,
    clustering: &Clustering,
    n_objects: usize,
    reps: usize,
    scope_path: &[u64],
    rig: bool,
) -> Vec<BitVec> {
    let per_cluster: Vec<BitVec> = clustering
        .clusters
        .iter()
        .enumerate()
        .map(|(ci, members)| cluster_majority(ctx, members, ci, n_objects, reps, scope_path, rig))
        .collect();

    clustering
        .assignment
        .iter()
        .map(|&c| per_cluster[c as usize].clone())
        .collect()
}

/// One cluster's majority vector over all objects.
#[allow(clippy::too_many_arguments)]
fn cluster_majority(
    ctx: &Ctx<'_>,
    members: &[u32],
    cluster_index: usize,
    n_objects: usize,
    reps: usize,
    scope_path: &[u64],
    rig: bool,
) -> BitVec {
    if members.is_empty() {
        return BitVec::zeros(n_objects);
    }
    let path_tag = scope_id(scope_path);
    let mut counter = ColumnCounter::new(n_objects);
    let k = reps.min(members.len()).max(1);

    // Rigged beacons pick dishonest members first (stable order after that).
    let rigged_order: Option<Vec<u32>> = rig.then(|| {
        let (bad, good): (Vec<u32>, Vec<u32>) = members
            .iter()
            .partition(|&&p| ctx.behaviors.is_dishonest(p));
        [bad, good].concat()
    });

    let mut claims = 0;
    for o in 0..n_objects as u32 {
        // Assignment comes from the shared beacon: dishonest players cannot
        // steer who probes what (§7.1's whole point) — unless the beacon
        // itself came from a dishonest leader (`rig`).
        let picks: Vec<u32> = match &rigged_order {
            Some(_) => (0..k as u32).collect(),
            None => {
                let mut rng = ctx.beacon.sub_rng(&[
                    tags::ASSIGN,
                    path_tag,
                    cluster_index as u64,
                    u64::from(o),
                ]);
                choose_k(&mut rng, members.len(), k)
            }
        };
        for &ix in &picks {
            let p = match &rigged_order {
                Some(order) => order[ix as usize],
                None => members[ix as usize],
            };
            let claim = if ctx.behaviors.is_dishonest(p) {
                ctx.behaviors.bit_claim(Phase::WorkSharing, p, o)
            } else {
                ctx.oracle.probe(p, o)
            };
            counter.add_bit(o as usize, claim, 1);
        }
        claims += picks.len();
    }
    ctx.board
        .scope(&[scope_path, &[tags::ASSIGN, cluster_index as u64]].concat())
        .post_claims(claims);
    counter.majority(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_adversary::{AntiMajority, Behaviors, Corruption, Inverter};
    use byzscore_bitset::Bits;
    use byzscore_blocks::BlockParams;
    use byzscore_board::{Board, Oracle};
    use byzscore_model::{Balance, Instance, Workload};
    use byzscore_random::Beacon;

    fn clone_world(players: usize, objects: usize, classes: usize, seed: u64) -> Instance {
        Workload::CloneClasses {
            players,
            objects,
            classes,
            balance: Balance::Even,
        }
        .generate(seed)
    }

    fn planted_clustering(inst: &Instance) -> Clustering {
        let planted = inst.planted().unwrap();
        Clustering {
            assignment: planted.assignment.clone(),
            clusters: planted.clusters.clone(),
        }
    }

    #[test]
    fn clones_get_exact_answers() {
        let inst = clone_world(48, 96, 3, 7);
        let clustering = planted_clustering(&inst);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(3);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(11), &params);
        let out = share_work(&ctx, &clustering, 96, 5, &[1], false);
        for (p, w) in out.iter().enumerate() {
            assert_eq!(
                w.hamming(&inst.truth().row(p)),
                0,
                "player {p} got wrong majority"
            );
        }
    }

    #[test]
    fn probes_per_player_are_balanced() {
        let inst = clone_world(64, 256, 2, 9);
        let clustering = planted_clustering(&inst);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(2);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(13), &params);
        let reps = 5;
        share_work(&ctx, &clustering, 256, reps, &[2], false);
        // Expected per player: reps · objects / cluster_size = 5·256/32 = 40.
        let max = oracle.ledger().max();
        assert!(
            max <= 4 * 40,
            "max probes {max} far above the balanced expectation"
        );
        let total = oracle.ledger().total();
        assert_eq!(total, (reps * 256 * 2) as u64, "every slot probed once");
    }

    #[test]
    fn inverting_minority_is_outvoted() {
        let inst = clone_world(60, 120, 2, 21);
        let clustering = planted_clustering(&inst);
        // 1/5 of each cluster dishonest (< 1/3).
        let dishonest = Corruption::Count { count: 12 }.select(&inst, 3);
        let behaviors = Behaviors::new(inst.truth(), dishonest, &Inverter);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let params = BlockParams::with_budget(2);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(17), &params);
        let out = share_work(&ctx, &clustering, 120, 9, &[3], false);
        let mut worst = 0;
        for p in 0..60u32 {
            if !behaviors.is_dishonest(p) {
                worst = worst.max(out[p as usize].hamming(&inst.truth().row(p as usize)));
            }
        }
        // Clone clusters: honest members agree on *every* object, so
        // Lemma 13's "strange object" set is empty — errors only from
        // unlucky assignment draws. Allow a small residue.
        assert!(worst <= 6, "inverters corrupted {worst} objects");
    }

    #[test]
    fn anti_majority_no_better_than_inverter_on_clones() {
        let inst = clone_world(60, 120, 2, 23);
        let clustering = planted_clustering(&inst);
        let dishonest = Corruption::Count { count: 12 }.select(&inst, 5);
        let behaviors = Behaviors::new(inst.truth(), dishonest, &AntiMajority);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let params = BlockParams::with_budget(2);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(19), &params);
        let out = share_work(&ctx, &clustering, 120, 9, &[4], false);
        let mut worst = 0;
        for p in 0..60u32 {
            if !behaviors.is_dishonest(p) {
                worst = worst.max(out[p as usize].hamming(&inst.truth().row(p as usize)));
            }
        }
        assert!(worst <= 6, "anti-majority corrupted {worst} objects");
    }

    #[test]
    fn claims_are_audited_on_board() {
        let inst = clone_world(16, 8, 1, 31);
        let clustering = planted_clustering(&inst);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(1);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(23), &params);
        share_work(&ctx, &clustering, 8, 3, &[7], false);
        // Three votes on each of the 8 objects, all in one cluster's scope.
        assert_eq!(board.stats().live_claim_slots, 3 * 8);
        board.retire_prefix(&[7, tags::ASSIGN, 0]);
        assert_eq!(board.stats().live_claim_slots, 0);
    }

    #[test]
    fn empty_cluster_yields_zeros() {
        let inst = clone_world(4, 6, 1, 37);
        let clustering = Clustering {
            assignment: vec![0, 0, 0, 0],
            clusters: vec![vec![0, 1, 2, 3], vec![]],
        };
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let params = BlockParams::with_budget(1);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(29), &params);
        let out = share_work(&ctx, &clustering, 6, 3, &[8], false);
        assert_eq!(out.len(), 4);
        // Players are all in cluster 0; the empty cluster is unused but
        // must not panic.
        let _ = out;
    }

    #[test]
    fn rigged_beacon_lets_dishonest_control_votes() {
        let inst = clone_world(30, 40, 1, 41);
        let clustering = planted_clustering(&inst);
        let dishonest = Corruption::FirstK { count: 6 }.select(&inst, 0);
        let behaviors = Behaviors::new(inst.truth(), dishonest, &Inverter);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let params = BlockParams::with_budget(1);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::dishonest(5), &params);
        // reps=5 ≤ 6 dishonest: a rigged assignment uses only liars.
        let out = share_work(&ctx, &clustering, 40, 5, &[9], true);
        let honest_player = 15;
        let err = out[honest_player].hamming(&inst.truth().row(honest_player));
        assert_eq!(err, 40, "rigged assignment must fully invert the cluster");
        // Control: unrigged beacon with the same adversary is fine.
        let out_fair = share_work(&ctx, &clustering, 40, 9, &[10], false);
        let err_fair = out_fair[honest_player].hamming(&inst.truth().row(honest_player));
        assert!(
            err_fair <= 4,
            "fair assignment out-votes the liars (err {err_fair})"
        );
    }
}

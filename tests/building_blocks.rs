//! Cross-crate behaviour of the Figure-1 blocks composed through the
//! public APIs (complementing each crate's unit tests).

use byzscore_adversary::{Behaviors, Corruption, Inverter};
use byzscore_bitset::{BitVec, Bits};
use byzscore_blocks::{rselect, select_among, small_radius, zero_radius, BlockParams, Ctx};
use byzscore_board::{Board, Oracle};
use byzscore_model::{Balance, Workload};
use byzscore_random::Beacon;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn zero_radius_feeds_small_radius_consistently() {
    // SmallRadius internally runs ZeroRadius per object group; a direct
    // ZeroRadius on a clone world must agree with SmallRadius(D=0-ish).
    let inst = Workload::CloneClasses {
        players: 96,
        objects: 96,
        classes: 3,
        balance: Balance::Even,
    }
    .generate(21);
    let oracle = Oracle::new(inst.truth());
    let board = Board::new();
    let behaviors = Behaviors::all_honest(inst.truth());
    let params = BlockParams::with_budget(3);
    let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(5), &params);
    let players: Vec<u32> = (0..96).collect();
    let objects: Vec<u32> = (0..96).collect();

    let zr = zero_radius(&ctx, &players, &objects, 3, &[1]);
    let sr = small_radius(&ctx, &players, &objects, 1, &[2]);
    for p in 0..96 {
        assert_eq!(zr[p].hamming(&inst.truth().row(p)), 0, "ZR wrong for {p}");
        assert!(
            sr[p].hamming(&inst.truth().row(p)) <= 2,
            "SR wrong for {p}: {}",
            sr[p].hamming(&inst.truth().row(p))
        );
    }
}

#[test]
fn rselect_and_select_agree_on_clear_winners() {
    let m = 512;
    let mut rng = SmallRng::seed_from_u64(33);
    let truth_row = BitVec::random(&mut rng, m);
    let truth = byzscore_bitset::BitMatrix::from_rows(std::slice::from_ref(&truth_row));
    let oracle = Oracle::new(&truth);
    let board = Board::new();
    let behaviors = Behaviors::all_honest(&truth);
    let params = BlockParams::default();
    let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);

    let mut near = truth_row.clone();
    near.flip_random_distinct(&mut rng, 3);
    let mut far = truth_row.clone();
    far.flip_random_distinct(&mut rng, 200);
    let cands = vec![far, near];
    let objects: Vec<u32> = (0..m as u32).collect();

    let mut r1 = SmallRng::seed_from_u64(7);
    let mut r2 = SmallRng::seed_from_u64(8);
    assert_eq!(rselect(&ctx, 0, &cands, &objects, &mut r1), 1);
    assert_eq!(select_among(&ctx, 0, &cands, &objects, &mut r2), 1);
}

#[test]
fn blocks_tolerate_byzantine_posts_in_pipeline() {
    let inst = Workload::PlantedClusters {
        players: 96,
        objects: 96,
        clusters: 3,
        diameter: 4,
        balance: Balance::Even,
    }
    .generate(23);
    let dishonest = Corruption::Count { count: 8 }.select(&inst, 1);
    let behaviors = Behaviors::new(inst.truth(), dishonest, &Inverter);
    let oracle = Oracle::new(inst.truth());
    let board = Board::new();
    let params = BlockParams::with_budget(3);
    let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(9), &params);
    let players: Vec<u32> = (0..96).collect();
    let objects: Vec<u32> = (0..96).collect();
    let out = small_radius(&ctx, &players, &objects, 4, &[3]);
    for p in 0..96u32 {
        if !behaviors.is_dishonest(p) {
            let e = out[p as usize].hamming(&inst.truth().row(p as usize));
            assert!(e <= 5 * 4, "honest player {p} error {e}");
        }
    }
}

#[test]
fn board_scopes_isolate_block_invocations() {
    let inst = Workload::CloneClasses {
        players: 32,
        objects: 32,
        classes: 2,
        balance: Balance::Even,
    }
    .generate(25);
    let oracle = Oracle::new(inst.truth());
    let board = Board::new();
    let behaviors = Behaviors::all_honest(inst.truth());
    let params = BlockParams::with_budget(4);
    let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(3), &params);
    let players: Vec<u32> = (0..32).collect();
    let objects: Vec<u32> = (0..32).collect();
    zero_radius(&ctx, &players, &objects, 4, &[100]);
    zero_radius(&ctx, &players, &objects, 4, &[200]);
    assert_eq!(board.stats().live_vector_slots, 64);
    // Retiring one invocation's path frees its 32 posts and leaves the
    // other's live.
    board.retire_prefix(&[100]);
    let stats = board.stats();
    assert_eq!((stats.live_vector_slots, stats.retired_scopes), (32, 1));
    board.retire_prefix(&[200]);
    assert_eq!(board.stats().live_vector_slots, 0);
}

#[test]
fn probe_accounting_spans_blocks() {
    let inst = Workload::CloneClasses {
        players: 64,
        objects: 64,
        classes: 2,
        balance: Balance::Even,
    }
    .generate(27);
    let oracle = Oracle::new(inst.truth());
    let board = Board::new();
    let behaviors = Behaviors::all_honest(inst.truth());
    let params = BlockParams::with_budget(2);
    let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(3), &params);
    let players: Vec<u32> = (0..64).collect();
    let objects: Vec<u32> = (0..64).collect();

    let before = oracle.snapshot();
    zero_radius(&ctx, &players, &objects, 2, &[1]);
    let after_zr = oracle.snapshot();
    small_radius(&ctx, &players, &objects, 2, &[2]);
    let after_sr = oracle.snapshot();

    let zr_cost = after_zr.since(&before);
    let sr_cost = after_sr.since(&after_zr);
    assert!(zr_cost.total() > 0);
    assert!(sr_cost.total() > 0);
    assert!(
        sr_cost.max() >= zr_cost.max(),
        "SmallRadius runs ZeroRadius repeatedly; it cannot be cheaper"
    );
}

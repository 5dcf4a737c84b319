//! `BitVec::flip_random_distinct` replays Floyd's algorithm as first
//! written, with a hash set for membership and one flip per step: the same
//! vector comes out and the same draws are spent.

use std::collections::HashSet;

use byzscore_bitset::{BitVec, Bits};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Floyd's loop over a `HashSet`, flipping each pick as it is drawn: the
/// definition `flip_random_distinct` must replay draw for draw.
fn flip_reference<R: Rng + ?Sized>(v: &mut BitVec, rng: &mut R, k: usize) {
    let len = v.len();
    let mut chosen = HashSet::with_capacity(k);
    for j in (len - k)..len {
        let t = rng.gen_range(0..=j);
        let pick = if chosen.contains(&t) { j } else { t };
        chosen.insert(pick);
        v.flip(pick);
    }
}

fn check(seed: u64, len: usize, k: usize) {
    let mut world = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let base = BitVec::random(&mut world, len);
    let (mut got, mut want) = (base.clone(), base.clone());
    let mut a = SmallRng::seed_from_u64(seed);
    let mut b = SmallRng::seed_from_u64(seed);
    got.flip_random_distinct(&mut a, k);
    flip_reference(&mut want, &mut b, k);
    assert!(got.bits_eq(&want), "len={len} k={k}: flips diverged");
    assert_eq!(base.hamming(&got), k, "len={len} k={k}");
    assert_eq!(
        a.next_u64(),
        b.next_u64(),
        "len={len} k={k}: draws diverged"
    );
}

#[test]
fn flip_random_distinct_replays_the_reference_at_the_edges() {
    for len in [0usize, 1, 2, 63, 64, 65, 1999] {
        for k in [0, 1.min(len), len / 2, len.saturating_sub(1), len] {
            check(len as u64, len, k);
        }
    }
}

proptest! {
    #[test]
    fn prop_flip_random_distinct_replays_the_reference(seed in 0u64..1000, len in 0usize..2000, frac in 0.0f64..1.0) {
        for k in [0, 1.min(len), (len as f64 * frac) as usize, len] {
            check(seed, len, k);
        }
    }
}

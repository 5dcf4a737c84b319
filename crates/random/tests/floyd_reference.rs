//! `choose_k` replays Floyd's algorithm as first written: a hash set for
//! membership and a final sort. Same output, same draws, so the next value
//! drawn from the generator agrees too. `choose_k_bits` replays `choose_k`
//! the same way: its set bits are `choose_k`'s output.

use std::collections::HashSet;

use byzscore_random::{choose_k, choose_k_bits};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Floyd's algorithm over a `HashSet`, sorted at the end: the definition
/// `choose_k` must replay draw for draw.
fn choose_k_reference<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<u32> {
    let mut chosen = HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j) as u32;
        if chosen.contains(&t) {
            chosen.insert(j as u32);
        } else {
            chosen.insert(t);
        }
    }
    let mut out: Vec<u32> = chosen.into_iter().collect();
    out.sort_unstable();
    out
}

#[test]
fn choose_k_replays_the_reference_at_the_edges() {
    for n in [0usize, 1, 2, 3, 64, 65, 1999] {
        for k in [0, 1.min(n), n / 2, n.saturating_sub(1), n] {
            let mut a = SmallRng::seed_from_u64(n as u64);
            let mut b = SmallRng::seed_from_u64(n as u64);
            assert_eq!(choose_k(&mut a, n, k), choose_k_reference(&mut b, n, k));
            assert_eq!(a.next_u64(), b.next_u64(), "n={n} k={k}: draws diverged");
        }
    }
}

/// The indices of the set bits of an LSB-first word bitmap, in order.
fn set_bits(words: &[u64]) -> Vec<u32> {
    (0..words.len() * 64)
        .filter(|&i| (words[i / 64] >> (i % 64)) & 1 == 1)
        .map(|i| i as u32)
        .collect()
}

proptest! {
    #[test]
    fn prop_choose_k_bits_replays_choose_k(seed in 0u64..1000, n in 0usize..2000, frac in 0.0f64..1.0) {
        for k in [0, 1.min(n), (n as f64 * frac) as usize, n] {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            let bits = choose_k_bits(&mut a, n, k);
            prop_assert_eq!(bits.len(), n.div_ceil(64));
            prop_assert_eq!(set_bits(&bits), choose_k(&mut b, n, k));
            prop_assert_eq!(a.next_u64(), b.next_u64(), "n={} k={}: draws diverged", n, k);
        }
    }

    #[test]
    fn prop_choose_k_replays_the_reference(seed in 0u64..1000, n in 0usize..2000, frac in 0.0f64..1.0) {
        for k in [0, 1.min(n), (n as f64 * frac) as usize, n] {
            let mut a = SmallRng::seed_from_u64(seed);
            let mut b = SmallRng::seed_from_u64(seed);
            prop_assert_eq!(choose_k(&mut a, n, k), choose_k_reference(&mut b, n, k));
            prop_assert_eq!(a.next_u64(), b.next_u64(), "n={} k={}: draws diverged", n, k);
        }
    }
}

//! Sampling primitives used by the protocol text.

use rand::seq::SliceRandom;
use rand::Rng;

/// Bernoulli subset of `[0, n)`: each element included independently with
/// probability `p` (`CalculatePreferences` step 1.b, "add each object
/// independently with probability 10 ln(n)/D").
pub fn bernoulli_subset<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> Vec<u32> {
    let p = p.clamp(0.0, 1.0);
    (0..n as u32).filter(|_| rng.gen_bool(p)).collect()
}

/// Exactly `k` distinct elements of `[0, n)`, sorted (Floyd's algorithm).
///
/// Used for probe assignments ("choose Θ(log n) of the players from the
/// cluster uniformly at random") and `RSelect`'s coordinate samples.
///
/// Every element chosen before step `j` is below `j`, so the sorted output
/// doubles as the membership set: a drawn `t` already present means `j`,
/// which belongs at the end; otherwise `t` goes in at its sorted position.
/// No hashing and no final sort, and the cost is independent of `n`; but a
/// step costs one binary search plus an insertion shift, ≈20 ns against
/// ≈1.4 ns for the draw itself at `k = 28`. Where `n` is itself small,
/// [`choose_k_bits`] draws the same set in `O(n/64 + k)`.
pub fn choose_k<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<u32> {
    assert!(k <= n, "cannot choose {k} from {n}");
    let mut chosen: Vec<u32> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j) as u32;
        match chosen.binary_search(&t) {
            Ok(_) => chosen.push(j as u32),
            Err(at) => chosen.insert(at, t),
        }
    }
    chosen
}

/// [`choose_k`] as an `n`-bit bitmap (`words[i / 64] >> (i % 64) & 1` is
/// set iff `i` was chosen): the same `gen_range` calls in the same order,
/// so its set bits are exactly `choose_k`'s output and the generator is
/// left in the same state.
///
/// Floyd's loop runs with the bitmap itself as the membership set: a step
/// is one bit test and one bit set, no search and no shift. Zeroing the
/// `⌈n/64⌉` words is the only cost that grows with `n`, so this is for
/// draws whose range is no wider than the data they index — `RSelect`
/// draws ranks in a disagreement set no larger than the candidate rows.
pub fn choose_k_bits<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<u64> {
    assert!(k <= n, "cannot choose {k} from {n}");
    let mut bits = vec![0u64; n.div_ceil(64)];
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let drawn = (bits[t / 64] >> (t % 64)) & 1 == 1;
        let pick = if drawn { j } else { t };
        bits[pick / 64] |= 1 << (pick % 64);
    }
    bits
}

/// Random halving of `items`: each element lands in the left or right part
/// with probability 1/2 (`ZeroRadius` step 2).
///
/// Either part may be empty for tiny inputs; `ZeroRadius`'s base case fires
/// before that matters.
pub fn halve<R: Rng + ?Sized, T: Copy>(rng: &mut R, items: &[T]) -> (Vec<T>, Vec<T>) {
    let mut left = Vec::with_capacity(items.len() / 2 + 1);
    let mut right = Vec::with_capacity(items.len() / 2 + 1);
    for &it in items {
        if rng.gen_bool(0.5) {
            left.push(it);
        } else {
            right.push(it);
        }
    }
    (left, right)
}

/// Partition `items` into exactly `s` (possibly empty) groups uniformly at
/// random (`SmallRadius` step 1, "partition the objects O randomly into s
/// disjoint subsets").
pub fn partition_into<R: Rng + ?Sized, T: Copy>(rng: &mut R, items: &[T], s: usize) -> Vec<Vec<T>> {
    assert!(s >= 1, "need at least one group");
    let mut groups: Vec<Vec<T>> = (0..s).map(|_| Vec::new()).collect();
    for &it in items {
        groups[rng.gen_range(0..s)].push(it);
    }
    groups
}

/// A uniformly shuffled copy of `[0, n)`.
pub fn shuffled<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    v.shuffle(rng);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(bernoulli_subset(&mut rng, 50, 0.0).is_empty());
        assert_eq!(bernoulli_subset(&mut rng, 50, 1.0).len(), 50);
    }

    #[test]
    fn bernoulli_rate_roughly_respected() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s = bernoulli_subset(&mut rng, 100_000, 0.3);
        let rate = s.len() as f64 / 100_000.0;
        assert!((0.28..0.32).contains(&rate), "rate {rate}");
    }

    #[test]
    fn choose_k_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(choose_k(&mut rng, 10, 0).is_empty());
        let all = choose_k(&mut rng, 10, 10);
        assert_eq!(all, (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot choose")]
    fn choose_k_too_many_panics() {
        choose_k(&mut SmallRng::seed_from_u64(0), 3, 4);
    }

    #[test]
    fn choose_k_bits_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(choose_k_bits(&mut rng, 0, 0).is_empty());
        assert_eq!(choose_k_bits(&mut rng, 70, 0), vec![0, 0]);
        assert_eq!(choose_k_bits(&mut rng, 70, 70), vec![!0, (1 << 6) - 1]);
    }

    #[test]
    #[should_panic(expected = "cannot choose")]
    fn choose_k_bits_too_many_panics() {
        choose_k_bits(&mut SmallRng::seed_from_u64(0), 3, 4);
    }

    #[test]
    fn halve_partitions_everything() {
        let mut rng = SmallRng::seed_from_u64(4);
        let items: Vec<u32> = (0..1000).collect();
        let (l, r) = halve(&mut rng, &items);
        assert_eq!(l.len() + r.len(), 1000);
        // Roughly balanced (binomial(1000, 1/2) is within ±200 whp).
        assert!((300..700).contains(&l.len()), "left size {}", l.len());
        let mut merged = [l, r].concat();
        merged.sort_unstable();
        assert_eq!(merged, items);
    }

    proptest! {
        #[test]
        fn prop_choose_k_distinct_sorted_in_range(seed in 0u64..200, n in 1usize..300, frac in 0.0f64..1.0) {
            let k = ((n as f64) * frac) as usize;
            let mut rng = SmallRng::seed_from_u64(seed);
            let s = choose_k(&mut rng, n, k);
            prop_assert_eq!(s.len(), k);
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(s.iter().all(|&x| (x as usize) < n));
        }

        #[test]
        fn prop_partition_into_is_partition(seed in 0u64..200, n in 0usize..200, s in 1usize..10) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let items: Vec<u32> = (0..n as u32).collect();
            let groups = partition_into(&mut rng, &items, s);
            prop_assert_eq!(groups.len(), s);
            let mut merged: Vec<u32> = groups.concat();
            merged.sort_unstable();
            prop_assert_eq!(merged, items);
        }

        #[test]
        fn prop_shuffled_is_permutation(seed in 0u64..200, n in 0usize..200) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = shuffled(&mut rng, n);
            s.sort_unstable();
            prop_assert_eq!(s, (0..n as u32).collect::<Vec<_>>());
        }
    }
}

//! Word-level distance kernels: u64×4-unrolled scalar loops on stable Rust,
//! one implementation per kernel in every build.
//!
//! These are the innermost loops of every quantitative step in the paper —
//! neighbor-graph thresholding (Lemma 8), `RSelect` candidate elimination,
//! vote tallies — and the [`Bits`](crate::Bits) trait routes its distance
//! methods through them so `BitVec`s and matrix rows share one hot path.
//!
//! The 4-wide unroll keeps four independent popcount accumulators live so
//! the CPU can retire one `xor`+`popcnt` pair per cycle instead of
//! serializing on a single accumulator; on 16-word (1024-bit) rows this is
//! a ~2–4× win over the naive fold, and LLVM can lift the unrolled body
//! into vector registers where the target supports it.

/// XOR-popcount over two equal-length word slices: the Hamming distance of
/// the bit strings they pack. Callers guarantee `a.len() == b.len()`.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    let quads = a.len() / 4 * 4;
    let (a4, at) = a.split_at(quads);
    let (b4, bt) = b.split_at(quads);
    // Four independent accumulators: no loop-carried dependency on one sum.
    let mut acc = [0usize; 4];
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += (ca[0] ^ cb[0]).count_ones() as usize;
        acc[1] += (ca[1] ^ cb[1]).count_ones() as usize;
        acc[2] += (ca[2] ^ cb[2]).count_ones() as usize;
        acc[3] += (ca[3] ^ cb[3]).count_ones() as usize;
    }
    let tail: usize = at
        .iter()
        .zip(bt)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Bounded Hamming distance over word slices: `Some(d)` if `d <= limit`,
/// `None` as soon as the running total provably exceeds `limit`.
///
/// The limit is re-checked once per 16-word (kibibit) block — one branch
/// per kibibit, with the block itself running through the unrolled
/// [`hamming_words`] kernel. The check cadence affects only speed, never
/// the result: any partial sum above `limit` implies the total is too.
#[inline]
pub fn hamming_within_words(a: &[u64], b: &[u64], limit: usize) -> Option<usize> {
    const BLOCK: usize = 16;
    let mut acc = 0usize;
    let mut i = 0;
    while i + BLOCK <= a.len() {
        acc += hamming_words(&a[i..i + BLOCK], &b[i..i + BLOCK]);
        if acc > limit {
            return None;
        }
        i += BLOCK;
    }
    if i < a.len() {
        acc += hamming_words(&a[i..], &b[i..]);
    }
    (acc <= limit).then_some(acc)
}

/// Masked Hamming distance over word slices: popcount of `(a ^ b) & m`.
/// Callers guarantee all three slices share one length.
#[inline]
pub fn hamming_masked_words(a: &[u64], b: &[u64], m: &[u64]) -> usize {
    let quads = a.len() / 4 * 4;
    let mut acc = [0usize; 4];
    for i in (0..quads).step_by(4) {
        acc[0] += ((a[i] ^ b[i]) & m[i]).count_ones() as usize;
        acc[1] += ((a[i + 1] ^ b[i + 1]) & m[i + 1]).count_ones() as usize;
        acc[2] += ((a[i + 2] ^ b[i + 2]) & m[i + 2]).count_ones() as usize;
        acc[3] += ((a[i + 3] ^ b[i + 3]) & m[i + 3]).count_ones() as usize;
    }
    let mut tail = 0usize;
    for i in quads..a.len() {
        tail += ((a[i] ^ b[i]) & m[i]).count_ones() as usize;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Rank select over the disagreement set of two equal-length word slices:
/// `out[i]` is the index of the `ranks[i]`-th (0-based) set bit of `a ^ b`.
///
/// `ranks` must be strictly increasing and below the Hamming distance of
/// `a` and `b` (a rank past it panics). One forward walk serves all of them:
/// a word whose popcount stays below the next rank is skipped whole, so the
/// cost is one XOR-popcount per word plus a few bit clears per rank, and
/// the disagreement set is never materialized.
#[inline]
pub fn diff_at_ranks_words(a: &[u64], b: &[u64], ranks: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(ranks.len());
    let (mut wi, mut word) = (0usize, a.first().map_or(0, |&x| x ^ b[0]));
    // Rank of the lowest bit still set in `word`.
    let mut below = 0usize;
    for &r in ranks {
        let r = r as usize;
        debug_assert!(r >= below, "ranks must be strictly increasing");
        let mut ones = word.count_ones() as usize;
        while below + ones <= r {
            below += ones;
            wi += 1;
            word = a[wi] ^ b[wi];
            ones = word.count_ones() as usize;
        }
        for _ in below..r {
            word &= word - 1;
        }
        out.push((wi * crate::WORD_BITS + word.trailing_zeros() as usize) as u32);
        word &= word - 1;
        below = r + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn naive(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x ^ y).count_ones() as usize)
            .sum()
    }

    #[test]
    fn empty_slices() {
        assert_eq!(hamming_words(&[], &[]), 0);
        assert_eq!(hamming_within_words(&[], &[], 0), Some(0));
        assert_eq!(hamming_masked_words(&[], &[], &[]), 0);
        assert!(diff_at_ranks_words(&[], &[], &[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn diff_at_ranks_past_the_distance_panics() {
        diff_at_ranks_words(&[0b101], &[0], &[2]);
    }

    proptest! {
        #[test]
        fn prop_hamming_matches_naive(s1 in 0u64..100, s2 in 0u64..100, n in 0usize..70) {
            let a = words(s1, n);
            let b = words(s2 + 1000, n);
            prop_assert_eq!(hamming_words(&a, &b), naive(&a, &b));
        }

        #[test]
        fn prop_within_matches_naive(s1 in 0u64..100, s2 in 0u64..100, n in 0usize..70, limit in 0usize..4500) {
            let a = words(s1, n);
            let b = words(s2 + 1000, n);
            let d = naive(&a, &b);
            let got = hamming_within_words(&a, &b, limit);
            if d <= limit {
                prop_assert_eq!(got, Some(d));
            } else {
                prop_assert_eq!(got, None);
            }
        }

        #[test]
        fn prop_masked_matches_naive(s1 in 0u64..100, s2 in 0u64..100, s3 in 0u64..100, n in 0usize..70) {
            let a = words(s1, n);
            let b = words(s2 + 1000, n);
            let m = words(s3 + 2000, n);
            let naive_masked: usize = (0..n).map(|i| ((a[i] ^ b[i]) & m[i]).count_ones() as usize).sum();
            prop_assert_eq!(hamming_masked_words(&a, &b, &m), naive_masked);
        }
    }
}

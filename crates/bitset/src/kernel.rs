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

/// `SELECT_IN_BYTE[b][k]` is the position of the `k`-th (0-based) set bit
/// of the byte `b`; entries past `b`'s popcount are 0 and never read.
static SELECT_IN_BYTE: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let (mut bit, mut k) = (0, 0);
        while bit < 8 {
            if (b >> bit) & 1 == 1 {
                table[b][k] = bit as u8;
                k += 1;
            }
            bit += 1;
        }
        b += 1;
    }
    table
};

const L8: u64 = 0x0101_0101_0101_0101;
const H8: u64 = 0x8080_8080_8080_8080;

/// Position of the `k`-th (0-based) set bit of `w`; `k` must be below
/// `w.count_ones()`.
///
/// Broadword select (Vigna, "Broadword Implementation of Rank/Select
/// Queries", WEA 2008), without a branch: SWAR byte popcounts, their
/// prefix sums by one multiply, a bytewise `≤ k` compare whose true lanes
/// count the bytes before the answer's, and a table lookup for the rank
/// left inside that byte.
#[inline]
pub fn select_in_word(w: u64, k: u32) -> u32 {
    debug_assert!(k < w.count_ones(), "rank {k} past the word's popcount");
    let mut s = w - ((w >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    // Byte `i` of `prefix`: the set bits in bytes `0..=i` (at most 64).
    let prefix = s.wrapping_mul(L8);
    // High bit of lane `i` set iff `prefix_i ≤ k`; lanes never borrow
    // because `k | 0x80 ≥ 128 > 64 ≥ prefix_i`.
    let le = ((u64::from(k) * L8) | H8).wrapping_sub(prefix) & H8;
    let byte = ((le >> 7).wrapping_mul(L8) >> 56) as u32;
    let shift = byte * 8;
    let before = ((prefix << 8) >> shift) as u32 & 0xff;
    let in_byte = ((w >> shift) & 0xff) as usize;
    shift + u32::from(SELECT_IN_BYTE[in_byte][(k - before) as usize])
}

/// Rank select over the disagreement set of two equal-length word slices:
/// the index of every set bit of `a ^ b` whose rank (0-based, in
/// increasing order) is set in the bitmap `ranks`, in increasing order.
///
/// A set rank at or past the Hamming distance of `a` and `b` panics. One
/// forward walk serves all ranks: a word `w` of `a ^ b` takes the next
/// `popcount(w)` bits of `ranks` (a window that may straddle two rank
/// words) and maps each set one, `k`, to [`select_in_word`]`(w, k)`. Each
/// select reads the same `w`, so the selects of one word are independent.
/// The walk stops after the last rank, so it costs `O(len/64 + t)` for
/// `t` ranks and never materializes the disagreement set.
#[inline]
pub fn diff_at_rank_bits_words(a: &[u64], b: &[u64], ranks: &[u64]) -> Vec<u32> {
    let want: usize = ranks.iter().map(|r| r.count_ones() as usize).sum();
    let mut out = Vec::with_capacity(want);
    // Rank of the first disagreement in word `wi`.
    let (mut wi, mut below) = (0usize, 0usize);
    while out.len() < want {
        let w = a[wi] ^ b[wi];
        let ones = w.count_ones() as usize;
        let (q, s) = (below / 64, below % 64);
        let lo = ranks.get(q).copied().unwrap_or(0);
        let hi = ranks.get(q + 1).copied().unwrap_or(0);
        // Bits `below..below + ones` of `ranks`; `(hi << 1) << (63 - s)`
        // is `hi << (64 - s)` without a 64-bit shift at `s = 0`.
        let mut window = ((lo >> s) | ((hi << 1) << (63 - s)))
            & u64::MAX.checked_shr(64 - ones as u32).unwrap_or(0);
        let base = (wi * crate::WORD_BITS) as u32;
        while window != 0 {
            out.push(base + select_in_word(w, window.trailing_zeros()));
            window &= window - 1;
        }
        below += ones;
        wi += 1;
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
        assert!(diff_at_rank_bits_words(&[], &[], &[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn diff_at_rank_bits_past_the_distance_panics() {
        diff_at_rank_bits_words(&[0b101], &[0], &[0b100]);
    }

    /// `select_in_word` by clearing the lowest set bit `k` times.
    fn select_naive(mut w: u64, k: u32) -> u32 {
        for _ in 0..k {
            w &= w - 1;
        }
        w.trailing_zeros()
    }

    #[test]
    fn select_in_word_matches_naive_at_every_rank() {
        let mut cases = words(7, 64);
        cases.extend([!0, 1 << 63, 1 | 1 << 63, 0x8000_0000_0000_0001 | 0xff << 24]);
        cases.extend((0..64).map(|bit| 1u64 << bit));
        for w in cases {
            for k in 0..w.count_ones() {
                assert_eq!(select_in_word(w, k), select_naive(w, k), "w={w:#x} k={k}");
            }
        }
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

//! Owned, word-packed bit vector.

use rand::Rng;

use crate::bits::check_tail_invariant;
use crate::{tail_mask, words_for, Bits, WORD_BITS};

/// An owned, densely packed vector of bits.
///
/// Represents a preference vector `v(p) ∈ {0,1}^n` (paper §2) or any derived
/// candidate/output vector. Bits above `len` in the final word are kept zero
/// (see [`Bits`] invariant).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Box<[u64]>,
}

impl Bits for BitVec {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn words(&self) -> &[u64] {
        &self.words
    }
}

impl BitVec {
    /// All-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0u64; words_for(len)].into_boxed_slice(),
        }
    }

    /// All-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut words = vec![u64::MAX; words_for(len)];
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
        BitVec {
            len,
            words: words.into_boxed_slice(),
        }
    }

    /// Build from raw words. Trailing bits above `len` are cleared.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), words_for(len), "word count must match len");
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
        BitVec {
            len,
            words: words.into_boxed_slice(),
        }
    }

    /// Build from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Build a `len`-bit vector whose bit `i` is `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = BitVec::zeros(len);
        for i in 0..len {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Build a `len`-bit vector with ones exactly at `indices`.
    pub fn from_indices(len: usize, indices: &[u32]) -> Self {
        let mut v = BitVec::zeros(len);
        for &i in indices {
            v.set(i as usize, true);
        }
        v
    }

    /// Uniformly random vector: each bit is 1 with probability 1/2.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut words: Vec<u64> = (0..words_for(len)).map(|_| rng.gen()).collect();
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
        BitVec {
            len,
            words: words.into_boxed_slice(),
        }
    }

    /// Set bit `i` to `value`. Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flip bit `i`. Panics if `i >= len`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// Flip exactly `k` *distinct* random positions (Floyd's algorithm).
    /// Panics if `k > len`.
    ///
    /// This is how planted workloads place a member at exact Hamming
    /// distance `k` from its cluster center. A scratch bitmap of `len` bits
    /// records the chosen positions, so a step is one bit test; the flips
    /// commute and land in one XOR at the end.
    pub fn flip_random_distinct<R: Rng + ?Sized>(&mut self, rng: &mut R, k: usize) {
        assert!(
            k <= self.len,
            "cannot flip {k} distinct bits of {}",
            self.len
        );
        let mut chosen = BitVec::zeros(self.len);
        for j in (self.len - k)..self.len {
            let t = rng.gen_range(0..=j);
            chosen.set(if chosen.get(t) { j } else { t }, true);
        }
        self.xor_with(&chosen);
    }

    /// In-place XOR with `other`. Panics if lengths differ.
    pub fn xor_with<B: Bits + ?Sized>(&mut self, other: &B) {
        assert_eq!(self.len, other.len());
        for (w, o) in self.words.iter_mut().zip(other.words()) {
            *w ^= o;
        }
    }

    /// Bitwise complement (within `len`).
    pub fn complement(&self) -> BitVec {
        let mut words: Vec<u64> = self.words.iter().map(|w| !w).collect();
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(self.len);
        }
        BitVec {
            len: self.len,
            words: words.into_boxed_slice(),
        }
    }

    /// Clear all bits.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Debug-assert the trailing-bits-zero invariant (no-op in release
    /// builds). Exposed as a debugging aid for downstream property tests.
    pub fn check_invariant(&self) {
        check_tail_invariant(&self.words, self.len);
    }
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let show = self.len.min(64);
        for i in 0..show {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > show {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_ones_counts() {
        assert_eq!(BitVec::zeros(100).count_ones(), 0);
        assert_eq!(BitVec::ones(100).count_ones(), 100);
        assert_eq!(BitVec::ones(64).count_ones(), 64);
        assert_eq!(BitVec::ones(65).count_ones(), 65);
    }

    #[test]
    fn set_flip_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(129, true);
        assert!(v.get(129));
        v.flip(129);
        assert!(!v.get(129));
        v.flip(0);
        assert!(v.get(0));
        v.check_invariant();
    }

    #[test]
    fn from_indices_and_bools_agree() {
        let a = BitVec::from_indices(6, &[1, 4]);
        let b = BitVec::from_bools(&[false, true, false, false, true, false]);
        assert!(a.bits_eq(&b));
    }

    #[test]
    fn flip_random_distinct_exact_distance() {
        let mut rng = SmallRng::seed_from_u64(7);
        for k in [0usize, 1, 5, 50, 200] {
            let base = BitVec::random(&mut rng, 300);
            let mut v = base.clone();
            v.flip_random_distinct(&mut rng, k);
            assert_eq!(base.hamming(&v), k, "k={k}");
        }
    }

    #[test]
    fn complement_distance_is_len() {
        let mut rng = SmallRng::seed_from_u64(3);
        let v = BitVec::random(&mut rng, 777);
        assert_eq!(v.hamming(&v.complement()), 777);
        v.complement().check_invariant();
    }

    #[test]
    fn boolean_ops() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        let mut x = a.clone();
        x.xor_with(&b);
        assert!(x.bits_eq(&BitVec::from_bools(&[false, true, true, false])));
    }

    proptest! {
        #[test]
        fn prop_hamming_symmetric(seed1 in 0u64..1000, seed2 in 0u64..1000, len in 1usize..500) {
            let a = BitVec::random(&mut SmallRng::seed_from_u64(seed1), len);
            let b = BitVec::random(&mut SmallRng::seed_from_u64(seed2), len);
            prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        }

        #[test]
        fn prop_hamming_triangle(s1 in 0u64..100, s2 in 0u64..100, s3 in 0u64..100, len in 1usize..300) {
            let a = BitVec::random(&mut SmallRng::seed_from_u64(s1), len);
            let b = BitVec::random(&mut SmallRng::seed_from_u64(s2 + 1000), len);
            let c = BitVec::random(&mut SmallRng::seed_from_u64(s3 + 2000), len);
            prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        }

        #[test]
        fn prop_hamming_equals_naive(s1 in 0u64..100, s2 in 0u64..100, len in 1usize..300) {
            let a = BitVec::random(&mut SmallRng::seed_from_u64(s1), len);
            let b = BitVec::random(&mut SmallRng::seed_from_u64(s2 + 500), len);
            let naive = (0..len).filter(|&i| a.get(i) != b.get(i)).count();
            prop_assert_eq!(a.hamming(&b), naive);
        }

        #[test]
        fn prop_hamming_within_agrees(s1 in 0u64..100, s2 in 0u64..100, len in 1usize..300, limit in 0usize..350) {
            let a = BitVec::random(&mut SmallRng::seed_from_u64(s1), len);
            let b = BitVec::random(&mut SmallRng::seed_from_u64(s2 + 500), len);
            let d = a.hamming(&b);
            let got = a.hamming_within(&b, limit);
            if d <= limit {
                prop_assert_eq!(got, Some(d));
            } else {
                prop_assert_eq!(got, None);
            }
        }

        #[test]
        fn prop_diff_indices_count_is_hamming(s1 in 0u64..100, s2 in 0u64..100, len in 1usize..300) {
            let a = BitVec::random(&mut SmallRng::seed_from_u64(s1), len);
            let b = BitVec::random(&mut SmallRng::seed_from_u64(s2 + 500), len);
            let d = a.diff_indices(&b);
            prop_assert_eq!(d.len(), a.hamming(&b));
            // Indices sorted and in range.
            prop_assert!(d.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(d.iter().all(|&i| (i as usize) < len));
        }

        #[test]
        fn prop_diff_at_rank_bits_indexes_diff_indices(s1 in 0u64..100, s2 in 0u64..100, len in 1usize..1100, stride in 1usize..9) {
            let a = BitVec::random(&mut SmallRng::seed_from_u64(s1), len);
            let b = BitVec::random(&mut SmallRng::seed_from_u64(s2 + 500), len);
            let d = a.diff_indices(&b);
            let ranks: Vec<u32> = (0..d.len() as u32).step_by(stride).collect();
            let want: Vec<u32> = ranks.iter().map(|&r| d[r as usize]).collect();
            let mut bitmap = vec![0u64; d.len().div_ceil(64)];
            for &r in &ranks {
                bitmap[r as usize / 64] |= 1 << (r % 64);
            }
            prop_assert_eq!(a.diff_at_rank_bits(&b, &bitmap), want);
        }

        #[test]
        fn prop_iter_ones_matches_count(seed in 0u64..200, len in 1usize..400) {
            let v = BitVec::random(&mut SmallRng::seed_from_u64(seed), len);
            prop_assert_eq!(v.iter_ones().count(), v.count_ones());
        }

        #[test]
        fn prop_project_preserves_bits(seed in 0u64..200, len in 10usize..200) {
            let v = BitVec::random(&mut SmallRng::seed_from_u64(seed), len);
            let idx: Vec<u32> = (0..len as u32).step_by(3).collect();
            let p = v.project(&idx);
            for (k, &i) in idx.iter().enumerate() {
                prop_assert_eq!(p.get(k), v.get(i as usize));
            }
        }

        #[test]
        fn prop_xor_count_is_distance(s1 in 0u64..100, s2 in 0u64..100, len in 1usize..300) {
            let a = BitVec::random(&mut SmallRng::seed_from_u64(s1), len);
            let b = BitVec::random(&mut SmallRng::seed_from_u64(s2 + 500), len);
            let mut x = a.clone();
            x.xor_with(&b);
            prop_assert_eq!(x.count_ones(), a.hamming(&b));
        }
    }
}

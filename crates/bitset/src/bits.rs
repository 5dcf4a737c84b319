//! The [`Bits`] read-only view trait and its distance/query kernels.

use crate::kernel::{
    diff_at_rank_bits_words, hamming_masked_words, hamming_within_words, hamming_words,
};
use crate::{tail_mask, BitVec, WORD_BITS};

/// Read-only view of a packed bit sequence.
///
/// Implemented by [`BitVec`](crate::BitVec) and matrix row views
/// ([`RowRef`](crate::RowRef)); every distance and query kernel is a provided
/// method so the two share one implementation.
///
/// # Invariant
///
/// Implementations must keep all bits above `len()` in the final word zero.
/// Every kernel relies on this to skip tail masking.
pub trait Bits {
    /// Number of valid bits.
    fn len(&self) -> usize;

    /// Backing words; exactly `words_for(self.len())` entries, trailing bits
    /// above `len()` zero.
    fn words(&self) -> &[u64];

    /// True if the view contains no bits.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value of bit `i`. Panics if `i >= len()`.
    #[inline]
    fn get(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index {i} out of range {}", self.len());
        (self.words()[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to `other`. Panics if lengths differ.
    ///
    /// This is the paper's `|v(p) - v(q)|`, routed through the unrolled
    /// [`hamming_words`](crate::kernel::hamming_words) kernel.
    #[inline]
    fn hamming<B: Bits + ?Sized>(&self, other: &B) -> usize {
        assert_eq!(
            self.len(),
            other.len(),
            "hamming distance requires equal lengths"
        );
        hamming_words(self.words(), other.words())
    }

    /// Hamming distance, but stop early once it is known to exceed `limit`,
    /// returning `None` in that case.
    ///
    /// Neighbor-graph construction (Lemma 8) performs `n²/2` threshold
    /// comparisons `|z(p) − z(q)| ≤ 220 ln n`; early exit makes far pairs
    /// cheap.
    #[inline]
    fn hamming_within<B: Bits + ?Sized>(&self, other: &B, limit: usize) -> Option<usize> {
        assert_eq!(self.len(), other.len());
        hamming_within_words(self.words(), other.words(), limit)
    }

    /// Hamming distance restricted to positions where `mask` is set.
    #[inline]
    fn hamming_masked<B: Bits + ?Sized, M: Bits + ?Sized>(&self, other: &B, mask: &M) -> usize {
        assert_eq!(self.len(), other.len());
        assert_eq!(self.len(), mask.len());
        hamming_masked_words(self.words(), other.words(), mask.words())
    }

    /// Number of positions on which the two views agree.
    #[inline]
    fn agreement<B: Bits + ?Sized>(&self, other: &B) -> usize {
        self.len() - self.hamming(other)
    }

    /// Indices where the two views differ, in increasing order.
    ///
    /// `RSelect` step 1: "Let X be the set of objects on which w and w'
    /// differ."
    fn diff_indices<B: Bits + ?Sized>(&self, other: &B) -> Vec<u32> {
        assert_eq!(self.len(), other.len());
        let mut out = Vec::new();
        for (wi, (x, y)) in self.words().iter().zip(other.words()).enumerate() {
            let mut d = x ^ y;
            while d != 0 {
                let bit = d.trailing_zeros() as usize;
                out.push((wi * WORD_BITS + bit) as u32);
                d &= d - 1;
            }
        }
        out
    }

    /// For each rank `r` set in the bitmap `ranks` (bit `r % 64` of word
    /// `r / 64`), the `r`-th index where the two views differ, in
    /// increasing order: `diff_indices(other)` at those ranks, without
    /// building the disagreement set. Panics if a set rank is at or past
    /// `hamming(other)`, or if lengths differ.
    ///
    /// `RSelect` step 2 samples `X` as a rank bitmap over `[0, |X|)` and
    /// maps it to objects here, in one walk of the
    /// [`diff_at_rank_bits_words`](crate::kernel::diff_at_rank_bits_words)
    /// kernel.
    #[inline]
    fn diff_at_rank_bits<B: Bits + ?Sized>(&self, other: &B, ranks: &[u64]) -> Vec<u32> {
        assert_eq!(self.len(), other.len());
        diff_at_rank_bits_words(self.words(), other.words(), ranks)
    }

    /// Iterator over indices of set bits, in increasing order.
    fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: self.words(),
            word_idx: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }

    /// Copy this view into an owned [`BitVec`].
    fn to_bitvec(&self) -> BitVec {
        BitVec::from_words(self.words().to_vec(), self.len())
    }

    /// Extract the bits at `indices` (each `< len()`) into a new compact
    /// [`BitVec`] of length `indices.len()`.
    ///
    /// Used to restrict preference vectors to a sample set `S` or to a
    /// recursion node's object subset.
    fn project(&self, indices: &[u32]) -> BitVec {
        let mut out = BitVec::zeros(indices.len());
        for (k, &i) in indices.iter().enumerate() {
            if self.get(i as usize) {
                out.set(k, true);
            }
        }
        out
    }

    /// 64-bit FNV-1a content hash of `(len, words)`.
    ///
    /// Used for grouping identical claimed vectors when tallying votes
    /// (`ZeroRadius` step 4), avoiding `O(k²)` full comparisons.
    fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.len() as u64);
        for &w in self.words() {
            mix(w);
        }
        h
    }

    /// True if the two views are bit-for-bit identical.
    fn bits_eq<B: Bits + ?Sized>(&self, other: &B) -> bool {
        self.len() == other.len() && self.words() == other.words()
    }
}

impl<B: Bits + ?Sized> Bits for &B {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn words(&self) -> &[u64] {
        (**self).words()
    }
}

/// Iterator over the set-bit indices of a [`Bits`] view.
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

/// Debug-check the trailing-bits-zero invariant.
pub(crate) fn check_tail_invariant(words: &[u64], len: usize) {
    if let Some(&last) = words.last() {
        debug_assert_eq!(
            last & !tail_mask(len),
            0,
            "bits above len={len} must be zero"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(bits: &[bool]) -> BitVec {
        BitVec::from_bools(bits)
    }

    #[test]
    fn get_and_count() {
        let v = bv(&[true, false, true, true]);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 3);
        assert_eq!(v.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        bv(&[true]).get(1);
    }

    #[test]
    fn hamming_basic() {
        let a = bv(&[true, false, true, false]);
        let b = bv(&[true, true, false, false]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.agreement(&b), 2);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_length_mismatch_panics() {
        bv(&[true]).hamming(&bv(&[true, false]));
    }

    #[test]
    fn hamming_within_respects_limit() {
        let a = BitVec::zeros(2000);
        let mut b = BitVec::zeros(2000);
        for i in 0..50 {
            b.set(i * 37, true);
        }
        assert_eq!(a.hamming_within(&b, 50), Some(50));
        assert_eq!(a.hamming_within(&b, 49), None);
        assert_eq!(a.hamming_within(&b, 2000), Some(50));
    }

    #[test]
    fn hamming_masked_restricts() {
        let a = bv(&[true, true, false, false]);
        let b = bv(&[false, false, true, true]);
        let m = bv(&[true, false, true, false]);
        // Differ everywhere; mask keeps positions 0 and 2.
        assert_eq!(a.hamming_masked(&b, &m), 2);
    }

    #[test]
    fn diff_indices_matches_naive() {
        let a = bv(&[true, false, true, false, true]);
        let b = bv(&[false, false, true, true, true]);
        assert_eq!(a.diff_indices(&b), vec![0, 3]);
        assert_eq!(a.diff_at_rank_bits(&b, &[0b11]), vec![0, 3]);
        assert_eq!(a.diff_at_rank_bits(&b, &[0b10]), vec![3]);
    }

    #[test]
    fn iter_ones_crosses_words() {
        let mut v = BitVec::zeros(200);
        for &i in &[0usize, 63, 64, 127, 199] {
            v.set(i, true);
        }
        let got: Vec<usize> = v.iter_ones().collect();
        assert_eq!(got, vec![0, 63, 64, 127, 199]);
    }

    #[test]
    fn project_gathers() {
        let v = bv(&[true, false, true, true, false]);
        let p = v.project(&[0, 2, 4]);
        assert_eq!(p.len(), 3);
        assert!(p.get(0));
        assert!(p.get(1));
        assert!(!p.get(2));
    }

    #[test]
    fn content_hash_distinguishes_and_matches() {
        let a = bv(&[true, false, true]);
        let b = bv(&[true, false, true]);
        let c = bv(&[true, true, true]);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
        assert!(a.bits_eq(&b));
        assert!(!a.bits_eq(&c));
    }

    #[test]
    fn empty_views() {
        let e = BitVec::zeros(0);
        assert!(e.is_empty());
        assert_eq!(e.count_ones(), 0);
        assert_eq!(e.hamming(&BitVec::zeros(0)), 0);
        assert_eq!(e.iter_ones().count(), 0);
    }
}

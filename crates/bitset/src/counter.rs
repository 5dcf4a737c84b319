//! Per-column vote accumulation and majority extraction.

use crate::{words_for, BitVec, Bits};

/// Accumulates weighted per-column votes over bit vectors and extracts the
/// majority vector.
///
/// This is the kernel behind step 4 of `CalculatePreferences` ("sets its
/// output to the value probed by a *majority* of the assigned players") and
/// the popular-vector tallies in `ZeroRadius`/`SmallRadius`. A column's vote
/// balance is `(#one-votes) − (#zero-votes)`, kept as `i32` per column.
pub struct ColumnCounter {
    balance: Vec<i32>,
    total_weight: i64,
}

impl ColumnCounter {
    /// New counter over `len` columns with zero balance.
    pub fn new(len: usize) -> Self {
        ColumnCounter {
            balance: vec![0; len],
            total_weight: 0,
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.balance.len()
    }

    /// True if the counter tracks no columns.
    pub fn is_empty(&self) -> bool {
        self.balance.is_empty()
    }

    /// Total weight added so far.
    pub fn total_weight(&self) -> i64 {
        self.total_weight
    }

    /// Add `weight` votes of vector `v`: each 1-bit adds `+weight` to its
    /// column balance, each 0-bit adds `−weight`.
    pub fn add<B: Bits + ?Sized>(&mut self, v: &B, weight: i32) {
        assert_eq!(v.len(), self.balance.len(), "vector length mismatch");
        // Subtract weight everywhere, then add 2*weight at set bits:
        // equivalent, but touches each balance once plus popcount adds.
        for b in self.balance.iter_mut() {
            *b -= weight;
        }
        for i in v.iter_ones() {
            self.balance[i] += 2 * weight;
        }
        self.total_weight += i64::from(weight);
    }

    /// Add a single vote at one column.
    pub fn add_bit(&mut self, column: usize, value: bool, weight: i32) {
        let delta = if value { weight } else { -weight };
        self.balance[column] += delta;
    }

    /// Majority vector: bit `i` is 1 iff its balance is positive.
    /// Ties (balance 0) resolve to `tie_value`.
    pub fn majority(&self, tie_value: bool) -> BitVec {
        BitVec::from_fn(self.balance.len(), |i| match self.balance[i].cmp(&0) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => tie_value,
        })
    }

    /// Column balance (ones minus zeros, weighted).
    pub fn balance(&self, column: usize) -> i32 {
        self.balance[column]
    }
}

/// Majority-fold a non-empty collection of equal-length vectors:
/// bit `i` of the result is the majority of bit `i` across `vs`
/// (ties resolve to `tie_value`).
///
/// Bit-sliced: per-column one-counts are kept as binary *planes*
/// (`planes[j]` holds bit `j` of every column's count), so adding a vector
/// is a word-wide ripple-carry over ≤ `log₂ k` planes and the final
/// majority is a word-wide comparison of the counts against `⌊k/2⌋` —
/// `O(k · len/64 · log k)` word ops instead of per-bit balance updates.
pub fn majority_fold<B: Bits>(vs: &[B], tie_value: bool) -> BitVec {
    assert!(!vs.is_empty(), "majority_fold of empty slice");
    let len = vs[0].len();
    let nw = words_for(len);
    let mut planes: Vec<Vec<u64>> = Vec::new();
    let mut carry = vec![0u64; nw];
    for v in vs {
        assert_eq!(v.len(), len, "vector length mismatch");
        carry.copy_from_slice(v.words());
        for plane in planes.iter_mut() {
            // Half-adder per word: plane ⊕ carry is the new plane bit,
            // plane ∧ carry ripples up.
            let mut pending = 0u64;
            for (pw, cw) in plane.iter_mut().zip(carry.iter_mut()) {
                let up = *pw & *cw;
                *pw ^= *cw;
                *cw = up;
                pending |= up;
            }
            if pending == 0 {
                break;
            }
        }
        if carry.iter().any(|&w| w != 0) {
            planes.push(carry.clone());
            carry.iter_mut().for_each(|w| *w = 0);
        }
    }

    // Column majority: count > ⌊k/2⌋ sets the bit; count == k/2 (only
    // possible for even k) is the tie case. Compare the plane-encoded
    // counts against the constant threshold MSB-first, treating plane
    // bits above what any column reached as zero.
    let k = vs.len();
    let t = k / 2;
    let t_bits = (usize::BITS - t.leading_zeros()) as usize;
    let mut gt = vec![0u64; nw];
    let mut eq = vec![u64::MAX; nw];
    for j in (0..planes.len().max(t_bits)).rev() {
        let t_bit = (t >> j) & 1;
        match planes.get(j) {
            Some(plane) => {
                if t_bit == 1 {
                    for (e, p) in eq.iter_mut().zip(plane) {
                        *e &= p;
                    }
                } else {
                    for ((g, e), p) in gt.iter_mut().zip(eq.iter_mut()).zip(plane) {
                        *g |= *e & p;
                        *e &= !p;
                    }
                }
            }
            // Count bit j is 0 everywhere: a 1 in the threshold there
            // rules out equality; a 0 changes nothing.
            None => {
                if t_bit == 1 {
                    eq.iter_mut().for_each(|e| *e = 0);
                }
            }
        }
    }
    let out: Vec<u64> = if k % 2 == 0 && tie_value {
        gt.iter().zip(&eq).map(|(g, e)| g | e).collect()
    } else {
        gt
    };
    BitVec::from_words(out, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn simple_majority() {
        let vs = vec![
            BitVec::from_bools(&[true, true, false]),
            BitVec::from_bools(&[true, false, false]),
            BitVec::from_bools(&[false, true, false]),
        ];
        let m = majority_fold(&vs, false);
        assert!(m.bits_eq(&BitVec::from_bools(&[true, true, false])));
    }

    #[test]
    fn tie_resolution() {
        let vs = vec![
            BitVec::from_bools(&[true, false]),
            BitVec::from_bools(&[false, true]),
        ];
        assert!(majority_fold(&vs, true).bits_eq(&BitVec::from_bools(&[true, true])));
        assert!(majority_fold(&vs, false).bits_eq(&BitVec::from_bools(&[false, false])));
    }

    #[test]
    fn weighted_votes() {
        let mut c = ColumnCounter::new(2);
        c.add(&BitVec::from_bools(&[true, true]), 1);
        c.add(&BitVec::from_bools(&[false, false]), 3);
        assert!(c
            .majority(false)
            .bits_eq(&BitVec::from_bools(&[false, false])));
        assert_eq!(c.total_weight(), 4);
        assert_eq!(c.balance(0), -2);
    }

    #[test]
    fn add_bit_votes() {
        let mut c = ColumnCounter::new(3);
        c.add_bit(1, true, 2);
        c.add_bit(1, false, 1);
        c.add_bit(2, false, 1);
        let m = c.majority(false);
        assert!(!m.get(0));
        assert!(m.get(1));
        assert!(!m.get(2));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn majority_fold_empty_panics() {
        majority_fold::<BitVec>(&[], false);
    }

    proptest! {
        #[test]
        fn prop_majority_matches_naive(seed in 0u64..200, n_vecs in 1usize..9, len in 1usize..120) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let vs: Vec<BitVec> = (0..n_vecs).map(|_| BitVec::random(&mut rng, len)).collect();
            let m = majority_fold(&vs, false);
            for i in 0..len {
                let ones = vs.iter().filter(|v| v.get(i)).count();
                let expect = 2 * ones > n_vecs;
                prop_assert_eq!(m.get(i), expect, "column {}", i);
            }
        }

        #[test]
        fn prop_unanimous_is_identity(seed in 0u64..200, copies in 1usize..6, len in 1usize..120) {
            let v = BitVec::random(&mut SmallRng::seed_from_u64(seed), len);
            let vs = vec![v.clone(); copies];
            prop_assert!(majority_fold(&vs, false).bits_eq(&v));
        }

        #[test]
        fn prop_large_folds_match_counter(seed in 0u64..50, n_vecs in 1usize..200, len in 1usize..300) {
            // Exercise many ripple planes (k up to 200 ⇒ 8 planes) and both
            // tie resolutions against the balance-counter reference.
            let mut rng = SmallRng::seed_from_u64(seed);
            let vs: Vec<BitVec> = (0..n_vecs).map(|_| BitVec::random(&mut rng, len)).collect();
            let mut c = ColumnCounter::new(len);
            for v in &vs {
                c.add(v, 1);
            }
            prop_assert!(majority_fold(&vs, false).bits_eq(&c.majority(false)));
            prop_assert!(majority_fold(&vs, true).bits_eq(&c.majority(true)));
        }
    }
}

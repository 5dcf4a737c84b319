//! Dense bit-vector and bit-matrix kernels for collaborative scoring.
//!
//! The SPAA 2010 paper "Collaborative Scoring with Dishonest Participants"
//! models every player's opinion as a binary preference vector over `n`
//! objects, and *all* of its quantitative machinery is Hamming-distance
//! arithmetic over such vectors: candidate elimination (`RSelect`), clone
//! voting (`ZeroRadius`), neighbor graphs over sampled coordinates
//! (Lemmas 6–8), and majority folds over redundant probes (step 4 of
//! `CalculatePreferences`).
//!
//! This crate provides the high-performance substrate for all of that:
//!
//! * [`BitVec`] — an owned, word-packed bit vector with popcount-based
//!   Hamming distance, bounded (early-exit) distance, masked distance,
//!   projection onto index subsets, and in-place boolean ops.
//! * [`Bits`] — a read-only view trait so [`BitMatrix`] rows and [`BitVec`]s
//!   share one implementation of every distance/query kernel.
//! * [`BitMatrix`] — a row-major packed matrix (players × objects) with
//!   cache-friendly row views.
//! * [`ColumnCounter`] / [`majority_fold`] — weighted per-column vote
//!   accumulation and majority extraction, the kernel behind every
//!   "value probed by a majority of the assigned players" step.
//!
//! All kernels are branch-light loops over `u64` words so LLVM can keep them
//! in registers and auto-vectorize; the innermost XOR-popcount loops live in
//! [`kernel`] as explicit u64×4-unrolled passes (four independent popcount
//! accumulators) that every build compiles on stable Rust. Distance
//! computations on 4096-bit rows are a few dozen `popcnt`s; [`majority_fold`]
//! is bit-sliced (plane-encoded column counts with word-wide ripple-carry).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod counter;
pub mod kernel;
mod matrix;
mod ops;
mod vec;

pub use bits::Bits;
pub use counter::{majority_fold, ColumnCounter};
pub use matrix::{BitMatrix, RowRef};
pub use ops::disagreement_indices;
pub use vec::BitVec;

/// Number of bits in one storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to store `len` bits.
#[inline]
pub const fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Mask covering the valid bits of the final word of a `len`-bit vector.
///
/// Returns `u64::MAX` when `len` is a multiple of 64 (the final word is
/// fully used).
#[inline]
pub const fn tail_mask(len: usize) -> u64 {
    let rem = len % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(63), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn tail_mask_boundaries() {
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(128), u64::MAX);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(3), 0b111);
        assert_eq!(tail_mask(63), u64::MAX >> 1);
    }
}

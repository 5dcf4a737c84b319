//! Row-major packed bit matrix (players × objects).

use rand::Rng;

use crate::kernel::hamming_words;
use crate::{tail_mask, words_for, BitVec, Bits, WORD_BITS};

/// A dense binary matrix stored row-major with word-aligned rows.
///
/// Row `p` is player `p`'s preference vector over all objects (paper §2).
/// Rows are word-aligned so a [`RowRef`] borrows a contiguous `&[u64]` and
/// every [`Bits`] kernel applies to rows without copying.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    stride: usize,
    data: Vec<u64>,
}

/// Borrowed view of one matrix row.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    len: usize,
    words: &'a [u64],
}

impl Bits for RowRef<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn words(&self) -> &[u64] {
        self.words
    }
}

impl BitMatrix {
    /// All-zero matrix with `rows` rows and `cols` columns.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let stride = words_for(cols);
        BitMatrix {
            rows,
            cols,
            stride,
            data: vec![0u64; rows * stride],
        }
    }

    /// Matrix with every entry sampled uniformly at random.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Self {
        let mut m = BitMatrix::zeros(rows, cols);
        let mask = tail_mask(cols);
        for r in 0..rows {
            let row = m.row_words_mut(r);
            for w in row.iter_mut() {
                *w = rng.gen();
            }
            if let Some(last) = row.last_mut() {
                *last &= mask;
            }
        }
        m
    }

    /// Build from owned row vectors; all rows must share one length.
    pub fn from_rows(rows: &[BitVec]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut m = BitMatrix::zeros(rows.len(), cols);
        for (r, v) in rows.iter().enumerate() {
            assert_eq!(v.len(), cols, "row {r} has mismatched length");
            m.set_row(r, v);
        }
        m
    }

    /// Number of rows (players).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (objects).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a [`Bits`] view.
    #[inline]
    pub fn row(&self, r: usize) -> RowRef<'_> {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        RowRef {
            len: self.cols,
            words: &self.data[r * self.stride..(r + 1) * self.stride],
        }
    }

    /// Entry at (`r`, `c`).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(c < self.cols, "col {c} out of range {}", self.cols);
        self.row(r).get(c)
    }

    /// Set entry (`r`, `c`).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of range");
        let w = &mut self.data[r * self.stride + c / WORD_BITS];
        let mask = 1u64 << (c % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Overwrite row `r` with `v`.
    pub fn set_row<B: Bits + ?Sized>(&mut self, r: usize, v: &B) {
        assert_eq!(v.len(), self.cols, "row length mismatch");
        self.row_words_mut(r).copy_from_slice(v.words());
    }

    /// Hamming distance between rows `a` and `b`.
    #[inline]
    pub fn row_distance(&self, a: usize, b: usize) -> usize {
        self.row(a).hamming(&self.row(b))
    }

    /// Hamming distance from row `r` to every row, in row order: exactly
    /// [`rows`](Self::rows) items (all 0 at zero width). Reads the packed
    /// words straight through the [`hamming_words`] kernel, with no
    /// per-row view — the inner loop of an all-pairs pass.
    pub fn distances_from(&self, r: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        let a = self.row(r).words;
        let stride = self.stride;
        (0..self.rows).map(move |h| hamming_words(a, &self.data[h * stride..(h + 1) * stride]))
    }

    /// Mutable words of row `r` (internal; callers must preserve the tail
    /// invariant).
    #[inline]
    fn row_words_mut(&mut self, r: usize) -> &mut [u64] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &mut self.data[r * self.stride..(r + 1) * self.stride]
    }

    /// Clone row `r` into an owned [`BitVec`].
    pub fn row_to_bitvec(&self, r: usize) -> BitVec {
        self.row(r).to_bitvec()
    }

    /// Iterator over all rows as views.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowRef<'_>> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Maximum pairwise row distance within the row subset `members`
    /// (the paper's diameter `D(P)`); 0 for sets of size < 2.
    pub fn diameter_of(&self, members: &[u32]) -> usize {
        let mut best = 0;
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                best = best.max(self.row_distance(a as usize, b as usize));
            }
        }
        best
    }
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitMatrix[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let m = BitMatrix::zeros(3, 100);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 100);
        assert_eq!(m.row(2).count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::zeros(2, 70);
        m.set(1, 69, true);
        m.set(0, 3, true);
        m.set(0, 3, true);
        assert!(m.get(1, 69));
        assert!(!m.get(0, 69));
        assert!(m.get(0, 3), "a repeated set stays set");
        m.set(1, 69, false);
        assert!(!m.get(1, 69));
    }

    #[test]
    fn from_rows_and_row_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let rows: Vec<BitVec> = (0..4).map(|_| BitVec::random(&mut rng, 90)).collect();
        let m = BitMatrix::from_rows(&rows);
        for (i, r) in rows.iter().enumerate() {
            assert!(m.row(i).bits_eq(r));
            assert!(m.row_to_bitvec(i).bits_eq(r));
        }
    }

    #[test]
    fn row_distance_matches_bitvec() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = BitVec::random(&mut rng, 333);
        let b = BitVec::random(&mut rng, 333);
        let m = BitMatrix::from_rows(&[a.clone(), b.clone()]);
        assert_eq!(m.row_distance(0, 1), a.hamming(&b));
    }

    #[test]
    fn distances_from_matches_row_hamming() {
        let mut rng = SmallRng::seed_from_u64(4);
        for cols in [1, 63, 64, 65, 185, 196, 1024] {
            let mut m = BitMatrix::random(&mut rng, 6, cols);
            // All-zero rows, at either end and between random ones.
            for r in [0, 3, 5] {
                m.set_row(r, &BitVec::zeros(cols));
            }
            for r in 0..m.rows() {
                let got: Vec<usize> = m.distances_from(r).collect();
                let want: Vec<usize> = (0..m.rows()).map(|h| m.row(r).hamming(&m.row(h))).collect();
                assert_eq!(got, want, "cols={cols} r={r}");
            }
        }
    }

    #[test]
    fn distances_from_zero_width_yields_every_row() {
        // No words to walk, yet one distance per row: a short iterator
        // would silently truncate a caller's `zip`.
        let m = BitMatrix::zeros(4, 0);
        assert_eq!(m.distances_from(2).len(), 4);
        assert_eq!(m.distances_from(2).collect::<Vec<_>>(), [0; 4]);
    }

    #[test]
    fn diameter_of_small_sets() {
        let rows = vec![
            BitVec::from_bools(&[false, false, false]),
            BitVec::from_bools(&[true, false, false]),
            BitVec::from_bools(&[true, true, true]),
        ];
        let m = BitMatrix::from_rows(&rows);
        assert_eq!(m.diameter_of(&[]), 0);
        assert_eq!(m.diameter_of(&[1]), 0);
        assert_eq!(m.diameter_of(&[0, 1]), 1);
        assert_eq!(m.diameter_of(&[0, 1, 2]), 3);
    }

    #[test]
    fn random_rows_respect_tail() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m = BitMatrix::random(&mut rng, 5, 65);
        for r in 0..5 {
            // Bit 65..128 of the row must be zero: count over full words.
            assert!(m.row(r).count_ones() <= 65);
        }
    }

    proptest! {
        #[test]
        fn prop_set_row_then_read(seed in 0u64..100, rows in 1usize..8, cols in 1usize..200) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = BitMatrix::zeros(rows, cols);
            let v = BitVec::random(&mut rng, cols);
            let r = (seed as usize) % rows;
            m.set_row(r, &v);
            prop_assert!(m.row(r).bits_eq(&v));
        }

        #[test]
        fn prop_matrix_get_matches_row_get(seed in 0u64..100, cols in 1usize..150) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = BitMatrix::random(&mut rng, 4, cols);
            for r in 0..4 {
                for c in (0..cols).step_by(7) {
                    prop_assert_eq!(m.get(r, c), m.row(r).get(c));
                }
            }
        }
    }
}

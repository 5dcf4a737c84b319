//! Vote tallies over claimed vectors.

use std::collections::HashMap;

use byzscore_bitset::{BitVec, Bits};

/// A tally of identical claimed vectors.
#[derive(Clone, Debug)]
pub struct VoteTally {
    /// Distinct vectors with their supporter counts, sorted by descending
    /// support then ascending first-seen order (deterministic).
    pub entries: Vec<(BitVec, usize)>,
}

impl VoteTally {
    /// Tally `vectors` by content (hash-grouped, equality-checked, so hash
    /// collisions cannot merge different vectors).
    pub fn tally<'v, I>(vectors: I) -> Self
    where
        I: IntoIterator<Item = &'v BitVec>,
    {
        let mut order: Vec<(BitVec, usize, usize)> = Vec::new(); // (rep, count, first_seen)
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        for (seen, v) in vectors.into_iter().enumerate() {
            let h = v.content_hash();
            let bucket = index.entry(h).or_default();
            if let Some(&slot) = bucket.iter().find(|&&slot| order[slot].0.bits_eq(v)) {
                order[slot].1 += 1;
            } else {
                bucket.push(order.len());
                order.push((v.clone(), 1, seen));
            }
        }
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
        VoteTally {
            entries: order.into_iter().map(|(v, c, _)| (v, c)).collect(),
        }
    }

    /// Vectors supported by at least `threshold` voters.
    pub fn at_least(&self, threshold: usize) -> Vec<BitVec> {
        self.entries
            .iter()
            .take_while(|(_, c)| *c >= threshold)
            .map(|(v, _)| v.clone())
            .collect()
    }

    /// How many leading entries have at least `threshold` (≥ 1) voters.
    fn supported(&self, threshold: usize) -> usize {
        self.entries
            .iter()
            .take_while(|(_, c)| *c >= threshold.max(1))
            .count()
    }

    /// The `k` most-supported vectors, moved out of the tally (the one
    /// clone per distinct vector is the one [`VoteTally::tally`] made).
    fn into_top(mut self, k: usize) -> Vec<BitVec> {
        self.entries.truncate(k);
        self.entries.into_iter().map(|(v, _)| v).collect()
    }

    /// Total number of votes tallied.
    pub fn total_votes(&self) -> usize {
        self.entries.iter().map(|(_, c)| c).sum()
    }
}

/// The *popular* vectors of `ZeroRadius` step 4 / `SmallRadius` step 2:
/// distinct vectors supported by ≥ `threshold` voters. If none reaches the
/// threshold (possible outside the exact-clone regime the theorems assume),
/// falls back to the `fallback_k` most-supported vectors so the caller
/// always has candidates — a liveness guard documented in DESIGN.md §4.3.
pub fn popular_vectors(votes: &[BitVec], threshold: usize, fallback_k: usize) -> Vec<BitVec> {
    let tally = VoteTally::tally(votes.iter());
    let popular = tally.supported(threshold);
    let keep = if popular == 0 {
        fallback_k.max(1)
    } else {
        popular
    };
    tally.into_top(keep)
}

/// Candidate set for vote resolution: every vector meeting `threshold`
/// **plus** generosity up to the `cap` most-supported vectors.
///
/// The paper's concentration arguments make thresholding alone safe only at
/// asymptotic node sizes; at laptop scale a clone class can dip below
/// `|P''|/(2B')` supporters inside a small recursion node, silently dropping
/// the true vector and corrupting the whole class (DESIGN.md §4.9). Keeping
/// the top-`cap` by support fixes that without breaking the cost or
/// Byzantine analysis: resolution probing eliminates lying candidates
/// anyway, and `cap` bounds the probes exactly as the threshold bound did.
pub fn candidate_vectors(votes: &[BitVec], threshold: usize, cap: usize) -> Vec<BitVec> {
    let tally = VoteTally::tally(votes.iter());
    let keep = tally
        .supported(threshold)
        .max(cap.min(tally.entries.len()))
        .max(1);
    tally.into_top(keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(bits: &[bool]) -> BitVec {
        BitVec::from_bools(bits)
    }

    #[test]
    fn tally_groups_identical() {
        let votes = [
            v(&[true, false]),
            v(&[true, false]),
            v(&[false, true]),
            v(&[true, false]),
        ];
        let t = VoteTally::tally(votes.iter());
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[0].1, 3);
        assert_eq!(t.entries[1].1, 1);
        assert!(t.entries[0].0.bits_eq(&v(&[true, false])));
        assert_eq!(t.total_votes(), 4);
    }

    #[test]
    fn at_least_filters() {
        let votes = [v(&[true]), v(&[true]), v(&[false])];
        let t = VoteTally::tally(votes.iter());
        assert_eq!(t.at_least(2).len(), 1);
        assert_eq!(t.at_least(1).len(), 2);
        assert_eq!(t.at_least(3).len(), 0);
    }

    #[test]
    fn popular_falls_back_to_top_k() {
        let votes = vec![v(&[true]), v(&[false])];
        let pop = popular_vectors(&votes, 5, 1);
        assert_eq!(pop.len(), 1, "fallback keeps the single best");
        let pop2 = popular_vectors(&votes, 1, 1);
        assert_eq!(pop2.len(), 2, "threshold 1 keeps both");
    }

    #[test]
    fn deterministic_order_on_ties() {
        let votes = [v(&[true]), v(&[false])];
        let a = VoteTally::tally(votes.iter());
        let b = VoteTally::tally(votes.iter());
        assert!(a.entries[0].0.bits_eq(&b.entries[0].0));
        // First seen wins ties.
        assert!(a.entries[0].0.bits_eq(&v(&[true])));
    }

    #[test]
    fn empty_tally() {
        let t = VoteTally::tally(std::iter::empty());
        assert!(t.entries.is_empty());
        assert_eq!(t.total_votes(), 0);
        assert!(popular_vectors(&[], 1, 2).is_empty());
    }
}
